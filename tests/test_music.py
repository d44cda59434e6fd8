import numpy as np
import pytest

from arrayemu.arrays import (
    ArrayConfig,
    SnapshotBlock,
    TargetScene,
    draw_rcs,
    draw_scene,
    steering_matrix,
    synthesize_block,
    virtual_steering,
)
from arrayemu.music import (
    CovarianceEstimate,
    doa_mse,
    hermitian_eig,
    music_spectrum,
    noise_subspace,
    pick_peaks,
    sample_covariance,
    SpectrumResult,
)

from oracles import brute_spectrum, jacobi_eigvals

NOISELESS = 400.0  # dB; effectively zero noise


def make_block(data, cfg, snr_db=0.0):
    return SnapshotBlock(data=np.asarray(data, dtype=complex), snr_db=snr_db, array=cfg)


class TestSampleCovariance:
    cfg12 = ArrayConfig(1, 2)

    def test_single_snapshot_outer_product(self):
        block = make_block(np.array([[1.0], [1j]]), self.cfg12)
        r = sample_covariance(block)
        assert np.allclose(r.matrix, [[1, -1j], [1j, 1]])
        assert r.snapshots_used == 1

    def test_noiseless_single_target_rank_one(self):
        cfg = ArrayConfig(2, 2)
        scene = TargetScene(angles_rad=np.array([0.2]), rcs=draw_rcs(1, 8, rng=0))
        block = synthesize_block(scene, cfg, NOISELESS, rng=1)
        w = hermitian_eig(sample_covariance(block)).eigenvalues
        assert w[1] / w[0] < 1e-10

    def test_white_noise_converges_to_sigma2_identity(self):
        cfg = ArrayConfig(2, 2)
        scene = TargetScene(angles_rad=np.array([0.0]), rcs=np.zeros((1, 100_000), dtype=complex))
        block = synthesize_block(scene, cfg, snr_db=0.0, rng=3)
        r = sample_covariance(block).matrix
        off = r - np.diag(np.diag(r))
        assert np.max(np.abs(off)) < 0.05
        assert np.allclose(np.diag(r).real, 1.0, atol=0.05)

    def test_window_selection(self):
        block = make_block(np.array([[1.0, 5.0], [0.0, 0.0]]), self.cfg12)
        r = sample_covariance(block, window=slice(0, 1))
        assert r.matrix[0, 0] == pytest.approx(1.0)

    def test_empty_window_rejected(self):
        block = make_block(np.array([[1.0], [0.0]]), self.cfg12)
        with pytest.raises(ValueError):
            sample_covariance(block, window=slice(0, 0))


class TestHermitianEig:
    def test_identity(self):
        eig = hermitian_eig(CovarianceEstimate(np.eye(3, dtype=complex), 1))
        assert np.allclose(eig.eigenvalues, 1.0)

    def test_diagonal(self):
        eig = hermitian_eig(CovarianceEstimate(np.diag([1.0, 3.0]).astype(complex), 1))
        assert np.allclose(eig.eigenvalues, [3.0, 1.0])
        assert abs(eig.eigenvectors[1, 0]) == pytest.approx(1.0)

    def test_matches_jacobi_oracle(self):
        rng = np.random.default_rng(17)
        m = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        h = (m + m.conj().T) / 2
        eig = hermitian_eig(CovarianceEstimate(h, 1))
        oracle = jacobi_eigvals(h)
        assert np.max(np.abs(eig.eigenvalues - oracle)) < 1e-8 * np.max(np.abs(oracle))

    def test_reconstruction_and_unitarity(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
            h = (m + m.conj().T) / 2
            eig = hermitian_eig(CovarianceEstimate(h, 1))
            u, w = eig.eigenvectors, eig.eigenvalues
            assert np.all(np.diff(w) <= 1e-12)
            assert np.linalg.norm(h - u @ np.diag(w) @ u.conj().T) / np.linalg.norm(h) < 1e-8
            assert np.linalg.norm(u.conj().T @ u - np.eye(6)) < 1e-8

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError):
            CovarianceEstimate(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex), 1)


class TestNoiseSubspace:
    def _eig(self, n):
        return hermitian_eig(CovarianceEstimate(np.diag(np.arange(n, 0, -1)).astype(complex), 1))

    def test_dimensions(self):
        assert noise_subspace(self._eig(4), 1).shape == (4, 3)
        assert noise_subspace(self._eig(4), 3).shape == (4, 1)

    def test_k_too_large_rejected(self):
        with pytest.raises(ValueError):
            noise_subspace(self._eig(4), 4)

    def test_orthogonal_to_signal_steering(self):
        cfg = ArrayConfig(2, 3)
        scene = draw_scene((0, 25), 2, 5.0, pulses=16, rng=5)
        block = synthesize_block(scene, cfg, NOISELESS, rng=2)
        un = noise_subspace(hermitian_eig(sample_covariance(block)), 2)
        for theta in scene.angles_rad:
            v = virtual_steering(theta, cfg)
            assert np.max(np.abs(un.conj().T @ v)) < 1e-8


class TestMusicSpectrum:
    def test_noiseless_peak_at_target(self):
        cfg = ArrayConfig(2, 3)
        scene = TargetScene(angles_rad=np.deg2rad([10.0]), rcs=draw_rcs(1, 8, rng=0))
        block = synthesize_block(scene, cfg, NOISELESS, rng=1)
        un = noise_subspace(hermitian_eig(sample_covariance(block)), 1)
        spec = music_spectrum(un, cfg, (0.0, 20.0, 0.1))
        assert spec.grid_deg[np.argmax(spec.values)] == pytest.approx(10.0, abs=1e-9)
        # independent loop-based spectrum oracle
        oracle = brute_spectrum(un, 2, 3, 0.5, spec.grid_deg)
        assert np.allclose(spec.values, oracle, rtol=1e-9)

    def test_clamped_peak_scale_at_truth(self):
        cfg = ArrayConfig(2, 3)
        scene = TargetScene(angles_rad=np.deg2rad([10.0]), rcs=draw_rcs(1, 8, rng=0))
        block = synthesize_block(scene, cfg, NOISELESS, rng=1)
        un = noise_subspace(hermitian_eig(sample_covariance(block)), 1)
        spec = music_spectrum(un, cfg, (10.0, 10.0, 1.0))  # single point at truth
        assert spec.values[0] > 1e8  # denominator below 1e-8, clamped at 1e-12

    def test_positivity_and_grid(self):
        cfg = ArrayConfig(2, 2)
        un = np.linalg.qr(np.random.default_rng(0).standard_normal((4, 2)))[0]
        spec = music_spectrum(un, cfg, (-10.0, 10.0, 0.5))
        assert np.all(spec.values > 0)
        assert np.all(np.diff(spec.grid_deg) > 0)
        assert spec.grid_deg.size == 41

    def test_empty_noise_subspace_rejected(self):
        with pytest.raises(ValueError):
            music_spectrum(np.empty((4, 0)), ArrayConfig(2, 2), (0, 10, 1))

    def test_bad_step_rejected(self):
        with pytest.raises(ValueError):
            music_spectrum(np.eye(4)[:, :2], ArrayConfig(2, 2), (0, 10, -1))

    @pytest.mark.parametrize("grid", [(60.0, 90.0, 0.5), (-90.0, 0.0, 1.0)])
    def test_grid_reaching_endfire_rejected(self, grid):
        with pytest.raises(ValueError, match="outside"):
            music_spectrum(np.eye(4)[:, :2], ArrayConfig(2, 2), grid)


class TestPickPeaks:
    def test_two_peak_synthetic(self):
        spec = SpectrumResult(grid_deg=np.arange(5.0), values=np.array([1, 5, 1, 9, 1.0]))
        angles, degenerate = pick_peaks(spec, 2)
        assert np.allclose(angles, [1.0, 3.0])
        assert not degenerate

    def test_monotone_spectrum_degenerate(self):
        spec = SpectrumResult(grid_deg=np.arange(4.0), values=np.array([1, 2, 3, 4.0]))
        angles, degenerate = pick_peaks(spec, 1)
        assert degenerate
        assert angles[0] == 3.0  # largest grid value fills in

    def test_tie_break_toward_lower_angle(self):
        spec = SpectrumResult(
            grid_deg=np.arange(7.0), values=np.array([0, 5, 0, 5, 0, 5, 0.0])
        )
        angles, _ = pick_peaks(spec, 2)
        assert np.allclose(angles, [1.0, 3.0])

    def test_k_nonpositive_rejected(self):
        spec = SpectrumResult(grid_deg=np.arange(3.0), values=np.ones(3))
        with pytest.raises(ValueError):
            pick_peaks(spec, 0)

    def test_noiseless_four_targets_end_to_end(self):
        cfg = ArrayConfig(3, 3)
        scene = draw_scene((20, 45), 4, 5.0, pulses=16, rng=12)
        block = synthesize_block(scene, cfg, NOISELESS, rng=3)
        un = noise_subspace(hermitian_eig(sample_covariance(block)), 4)
        spec = music_spectrum(un, cfg, (15.0, 50.0, 0.1))
        angles, degenerate = pick_peaks(spec, 4)
        assert not degenerate
        assert np.max(np.abs(angles - np.sort(np.rad2deg(scene.angles_rad)))) < 0.05 + 1e-9


class TestDoaMse:
    def test_exact_match_is_zero(self):
        est = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert doa_mse(est, est) == 0.0

    def test_one_degree_offset(self):
        tru = np.array([[0.0, 10.0]])
        est = tru + 1.0
        assert doa_mse(est, tru) == pytest.approx((np.pi / 180) ** 2, rel=1e-12)

    def test_permutation_invariance(self):
        tru = np.array([[0.0, 10.0, 20.0]])
        est = np.array([[20.0, 0.0, 10.0]])
        assert doa_mse(est, tru) == 0.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            doa_mse(np.zeros((2, 2)), np.zeros((2, 3)))
