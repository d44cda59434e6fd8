import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from arrayemu.arrays import (
    ArrayConfig,
    draw_rcs,
    draw_scene,
    steering_matrix,
    synthesize_block,
)
from arrayemu.cli import main
from arrayemu.harness import GRID_PAD_DEG
from arrayemu.music import (
    doa_mse,
    hermitian_eig,
    music_doas,
    music_spectrum,
    noise_subspace,
    pick_peaks,
    sample_covariance,
    SpectrumResult,
)

from oracles import brute_spectrum, jacobi_eigvals, reference_pick_peaks

NOISELESS = 400.0  # dB; effectively zero noise


class TestSampleCovariance:
    def test_single_snapshot_outer_product(self):
        r = sample_covariance(np.array([[1.0], [1j]]))
        assert np.allclose(r, [[1, -1j], [1j, 1]])

    def test_noiseless_single_target_rank_one(self):
        cfg = ArrayConfig(2, 2)
        block = synthesize_block([0.2], draw_rcs(1, 8, rng=0), cfg, NOISELESS, rng=1)
        w, _ = hermitian_eig(sample_covariance(block))
        assert w[1] / w[0] < 1e-10

    def test_white_noise_converges_to_sigma2_identity(self):
        cfg = ArrayConfig(2, 2)
        rcs = np.zeros((1, 100_000), dtype=complex)
        block = synthesize_block([0.0], rcs, cfg, snr_db=0.0, rng=3)
        r = sample_covariance(block)
        off = r - np.diag(np.diag(r))
        assert np.max(np.abs(off)) < 0.05
        assert np.allclose(np.diag(r).real, 1.0, atol=0.05)

    def test_zero_pulse_block_rejected(self):
        with pytest.raises(ValueError, match="at least one pulse"):
            sample_covariance(np.zeros((2, 0), dtype=complex))


class TestHermitianEig:
    def test_identity(self):
        w, _ = hermitian_eig(np.eye(3, dtype=complex))
        assert np.allclose(w, 1.0)

    def test_diagonal(self):
        w, u = hermitian_eig(np.diag([1.0, 3.0]).astype(complex))
        assert np.allclose(w, [3.0, 1.0])
        assert abs(u[1, 0]) == pytest.approx(1.0)

    def test_matches_jacobi_oracle(self):
        rng = np.random.default_rng(17)
        m = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        h = (m + m.conj().T) / 2
        w, _ = hermitian_eig(h)
        oracle = jacobi_eigvals(h)
        assert np.max(np.abs(w - oracle)) < 1e-8 * np.max(np.abs(oracle))

    def test_reconstruction_and_unitarity(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
            h = (m + m.conj().T) / 2
            w, u = hermitian_eig(h)
            assert np.all(np.diff(w) <= 1e-12)
            assert np.linalg.norm(h - u @ np.diag(w) @ u.conj().T) / np.linalg.norm(h) < 1e-8
            assert np.linalg.norm(u.conj().T @ u - np.eye(6)) < 1e-8

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))

    @pytest.mark.parametrize("where", [(2, 2), (0, 1)], ids=["nan-diagonal", "inf-pair"])
    def test_non_finite_rejected(self, where):
        """A NaN compares false, so it would pass the Hermitian check, and an
        infinite pair would make it subtract inf - inf."""
        m = np.eye(3, dtype=complex)
        i, j = where
        m[i, j] = m[j, i] = np.nan if i == j else np.inf
        stack = np.stack([np.eye(3, dtype=complex), m])
        for cov in (m, stack):
            with pytest.raises(ValueError, match="non-finite value"):
                hermitian_eig(cov)

    @pytest.mark.parametrize("scale", [1e200, 1.7e308])
    def test_large_finite_entries_are_not_called_non_finite(self, scale):
        """Every entry is finite though the Frobenius norm overflows: the
        Hermitian matrix is decomposed without a warning, and a non-Hermitian
        one is refused as such."""
        w, _ = hermitian_eig(np.eye(3) * scale)
        assert np.array_equal(w, np.full(3, scale))
        skew = np.eye(3) * scale
        skew[0, 1] = scale
        with pytest.raises(ValueError, match="not Hermitian"):
            hermitian_eig(skew)

    def test_overflowing_eigenvalues_rejected(self):
        """Finite Hermitian entries can still have an eigenvalue beyond the
        float range, which eigh returns as inf: alone or in a stack, such a
        matrix is refused as an overflow."""
        big = np.full((2, 2), 1.7e308)
        for cov in (big, np.stack([np.eye(2), big])):
            with pytest.raises(ValueError, match="eigenvalues overflow"):
                hermitian_eig(cov)

    def test_non_contiguous_stack_is_checked(self):
        """Every other matrix of a stack, and a stack with its axes swapped,
        is checked and decomposed as its contiguous copy is."""
        rng = np.random.default_rng(8)
        cov = sample_covariance(rng.standard_normal((6, 3, 5)) + 0j)
        for view in (cov[::2], cov.swapaxes(-2, -1)):
            assert not view.flags.c_contiguous
            for got, want in zip(hermitian_eig(view), hermitian_eig(view.copy())):
                assert np.array_equal(got, want)
        bad = cov.copy()
        bad[2, 0, 1] += 1e-3
        with pytest.raises(ValueError, match="not Hermitian"):
            hermitian_eig(bad[::2])

    @pytest.mark.parametrize(
        "small_delta, ok", [(5e-11, True), (1e-10, False)], ids=["within", "beyond"]
    )
    def test_tolerance_is_relative_above_unit_norm(self, small_delta, ok):
        """A matrix passes when ||m - mᴴ||_F <= 1e-10 * max(||m||_F, 1), each
        matrix of a stack on its own: here a norm of about 1.4e6 allows an
        asymmetry of 1e-4, and a norm below 1 one of 7.1e-11."""
        stack = np.stack([np.eye(2) * 1e6, np.eye(2) * 1e-3]).astype(complex)
        stack[0, 0, 1] = 0.5e-4
        stack[1, 0, 1] = small_delta
        if ok:
            assert hermitian_eig(stack)[0].shape == (2, 2)
        else:
            with pytest.raises(ValueError, match="not Hermitian"):
                hermitian_eig(stack)
        stack[0, 0, 1] = 2e-4
        with pytest.raises(ValueError, match="not Hermitian"):
            hermitian_eig(stack[:1])

    @pytest.mark.parametrize(
        "shape", [(3, 4), (2, 3, 4), (4,), (2, 2, 3, 3)], ids=["2d", "stack", "1d", "4d"]
    )
    def test_non_square_rejected(self, shape):
        with pytest.raises(ValueError, match="must be square"):
            hermitian_eig(np.zeros(shape, dtype=complex))

    def test_every_matrix_of_a_stack_is_checked(self):
        """sample_covariance's (r + rᴴ)/2 is exactly Hermitian and passes,
        but hermitian_eig still checks each of its matrices: breaking any
        one of the five is refused."""
        rng = np.random.default_rng(6)
        y = rng.standard_normal((5, 4, 8)) + 1j * rng.standard_normal((5, 4, 8))
        cov = sample_covariance(y)
        assert np.array_equal(cov, cov.conj().swapaxes(-2, -1))
        assert hermitian_eig(cov)[0].shape == (5, 4)
        for q in range(5):
            bad = cov.copy()
            bad[q, 0, 3] += 1e-3
            with pytest.raises(ValueError, match="not Hermitian"):
                hermitian_eig(bad)

    @pytest.mark.parametrize("bad", [0, 1, 2])
    def test_non_hermitian_matrix_in_a_stack_rejected(self, bad):
        stack = np.stack([np.eye(3, dtype=complex)] * 3)
        stack[bad, 0, 2] = 1j
        with pytest.raises(ValueError, match="not Hermitian"):
            hermitian_eig(stack)


class TestNoiseSubspace:
    def _eigenvectors(self, n):
        return hermitian_eig(np.diag(np.arange(n, 0, -1)).astype(complex))[1]

    def test_dimensions(self):
        assert noise_subspace(self._eigenvectors(4), 1).shape == (4, 3)
        assert noise_subspace(self._eigenvectors(4), 3).shape == (4, 1)

    def test_k_too_large_rejected(self):
        with pytest.raises(ValueError):
            noise_subspace(self._eigenvectors(4), 4)

    def test_orthogonal_to_signal_steering(self):
        cfg = ArrayConfig(2, 3)
        angles, rcs = draw_scene((0, 25), 2, 5.0, pulses=16, rng=5)
        block = synthesize_block(angles, rcs, cfg, NOISELESS, rng=2)
        un = noise_subspace(hermitian_eig(sample_covariance(block))[1], 2)
        for theta in angles:
            v = steering_matrix([theta], cfg)[:, 0]
            assert np.max(np.abs(un.conj().T @ v)) < 1e-8


class TestMusicSpectrum:
    def test_noiseless_peak_at_target(self):
        cfg = ArrayConfig(2, 3)
        block = synthesize_block(np.deg2rad([10.0]), draw_rcs(1, 8, rng=0), cfg, NOISELESS, rng=1)
        un = noise_subspace(hermitian_eig(sample_covariance(block))[1], 1)
        spec = music_spectrum(un, cfg, (0.0, 20.0, 0.1))
        assert spec.grid_deg[np.argmax(spec.values)] == pytest.approx(10.0, abs=1e-9)
        # independent loop-based spectrum oracle
        oracle = brute_spectrum(un, 2, 3, 0.5, spec.grid_deg)
        assert np.allclose(spec.values, oracle, rtol=1e-9)

    def test_clamped_peak_scale_at_truth(self):
        cfg = ArrayConfig(2, 3)
        block = synthesize_block(np.deg2rad([10.0]), draw_rcs(1, 8, rng=0), cfg, NOISELESS, rng=1)
        un = noise_subspace(hermitian_eig(sample_covariance(block))[1], 1)
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

    def test_k_beyond_grid_rejected(self):
        spec = SpectrumResult(grid_deg=np.arange(3.0), values=np.array([1, 5, 1.0]))
        assert pick_peaks(spec, 3)[0].size == 3
        with pytest.raises(ValueError, match="k=5 must satisfy 1 <= k <= 3 grid points"):
            pick_peaks(spec, 5)

    @settings(max_examples=300, deadline=None)
    @given(
        # A few levels only, so plateaus and exact ties are common.
        values=st.lists(
            st.one_of(st.sampled_from([0.0, 1.0, 2.0, 2.5, 7.0]), st.floats(0.0, 1e6)),
            min_size=2,
            max_size=40,
        ),
        data=st.data(),
    )
    def test_matches_setdiff1d_fill(self, values, data):
        vals = np.array(values)
        k = data.draw(st.integers(1, vals.size - 1), label="k")
        spec = SpectrumResult(grid_deg=-3.0 + 0.5 * np.arange(vals.size), values=vals)
        angles, degenerate = pick_peaks(spec, k)
        ref_angles, ref_degenerate = reference_pick_peaks(vals, spec.grid_deg, k)
        assert np.array_equal(angles, ref_angles)
        assert degenerate == ref_degenerate

    def test_noiseless_four_targets_end_to_end(self):
        cfg = ArrayConfig(3, 3)
        truth_rad, rcs = draw_scene((20, 45), 4, 5.0, pulses=16, rng=12)
        block = synthesize_block(truth_rad, rcs, cfg, NOISELESS, rng=3)
        un = noise_subspace(hermitian_eig(sample_covariance(block))[1], 4)
        spec = music_spectrum(un, cfg, (15.0, 50.0, 0.1))
        angles, degenerate = pick_peaks(spec, 4)
        assert not degenerate
        assert np.max(np.abs(angles - np.sort(np.rad2deg(truth_rad)))) < 0.05 + 1e-9


def per_trial_chain(covs, cfg, grid, k):
    """MUSIC composed step by step on each covariance alone."""
    return np.vstack([
        pick_peaks(music_spectrum(noise_subspace(hermitian_eig(c)[1], k), cfg, grid), k)[0]
        for c in covs
    ])


# The acceptance geometry: both arrays, K = 4, the 40-65 deg range's grid.
ACCEPTANCE_CASES = [
    pytest.param(ArrayConfig(n, n), 4, (40.0, 65.0), snr_db, 10, 150, id=f"{n}x{n}_{snr_db:g}dB")
    for n in (8, 4)
    for snr_db in (-16.0, 10.0)
]


class TestMusicDoas:
    @pytest.mark.parametrize(
        "cfg, k, scene_range, snr_db, trials, pulses",
        [
            pytest.param(ArrayConfig(2, 3), 2, (0.0, 25.0), 0.0, 6, 40, id="noisy"),
            pytest.param(ArrayConfig(2, 3), 2, (0.0, 25.0), NOISELESS, 6, 40, id="noiseless"),
            *ACCEPTANCE_CASES,
        ],
    )
    def test_stack_equals_per_trial_chain(self, cfg, k, scene_range, snr_db, trials, pulses):
        """The stack's signal-subspace spectra pick the angles of the
        noise-subspace chain run on each covariance alone."""
        grid = (scene_range[0] - GRID_PAD_DEG, scene_range[1] + GRID_PAD_DEG, 0.1)
        rng = np.random.default_rng(8)
        covs = sample_covariance(np.stack([
            synthesize_block(*draw_scene(scene_range, k, 5.0, pulses, rng=rng), cfg, snr_db, rng=rng)
            for _ in range(trials)
        ]))
        doas = music_doas(covs, cfg, grid, k)
        assert doas.shape == (trials, k)
        assert np.array_equal(doas, per_trial_chain(covs, cfg, grid, k))

    @pytest.mark.parametrize("k", [0, 4])
    def test_target_count_outside_the_array_rejected(self, k):
        covs = np.eye(4)[None]
        with pytest.raises(ValueError, match=f"target count k={k} must satisfy 1 <= k < 4"):
            music_doas(covs, ArrayConfig(2, 2), (0.0, 10.0, 0.5), k)

    def test_single_matrix_rejected(self):
        with pytest.raises(ValueError, match=r"\(Q, MN, MN\) stack, got 2 dims"):
            music_doas(np.eye(4), ArrayConfig(2, 2), (0.0, 10.0, 0.5), 1)

    def test_covariances_of_another_array_rejected(self):
        with pytest.raises(
            ValueError, match="noise subspace has 16 rows but the 8x8 array has 64 virtual elements"
        ):
            music_doas(np.eye(16)[None], ArrayConfig(8, 8), (0, 10, 0.5), 2)

    def test_one_trial_stack_gives_the_demo_angles(self, capsys):
        """The demo verb's scene, as a stack of one: the single-matrix chain's
        angles, and the ones ``arrayemu demo`` prints."""
        cfg, grid = ArrayConfig(2, 2), (-30.0, 40.0, 0.1)
        rcs = draw_rcs(2, 32, rng=1234)
        cov = sample_covariance(synthesize_block(np.deg2rad([-10.0, 20.0]), rcs, cfg, 300.0, rng=0))
        angles = music_doas(cov[None], cfg, grid, 2)[0]
        assert np.array_equal(angles, per_trial_chain([cov], cfg, grid, 2)[0])
        assert main(["demo"]) == 0
        printed = next(l for l in capsys.readouterr().out.splitlines() if "recovered" in l)
        assert printed == "recovered angles (deg):" + "  ".join(f"{a:7.2f}" for a in angles)


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
