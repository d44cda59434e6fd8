import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from arrayemu import arrays as arrays_module
from arrayemu.arrays import (
    ArrayConfig,
    draw_rcs,
    draw_scene,
    snr_to_noise_var,
    steering_matrix,
    synthesize_block,
    synthesize_pair,
)

from oracles import reference_draw_scene, reference_synthesize_block


def deg(x):
    return np.deg2rad(x)


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def virtual_vector(theta_rad, cfg):
    """The virtual steering vector: the one column of ``steering_matrix``."""
    return steering_matrix([theta_rad], cfg)[:, 0]


def tx_vector(theta_rad, cfg):
    """The transmit steering vector: the column of an M x 1 setup."""
    return steering_matrix(theta_rad, ArrayConfig(cfg.tx_count, 1, cfg.spacing_wavelengths))[:, 0]


def rx_vector(theta_rad, cfg):
    """The receive steering vector: the column of a 1 x N setup."""
    return steering_matrix(theta_rad, ArrayConfig(1, cfg.rx_count, cfg.spacing_wavelengths))[:, 0]


def outcome(draw, seed):
    """``draw(rng)``'s result, or None if it raised ValueError, and the
    generator state it left."""
    rng = np.random.default_rng(seed)
    try:
        result = draw(rng)
    except ValueError:
        result = None
    return result, rng.bit_generator.state


class TestArrayConfig:
    @pytest.mark.parametrize("spacing", [0.0, -0.5, np.inf, np.nan])
    def test_spacing_not_positive_and_finite_rejected(self, spacing):
        with pytest.raises(ValueError, match="spacing_wavelengths must be positive and finite"):
            ArrayConfig(2, 2, spacing)

    @pytest.mark.parametrize("tx, rx", [(0, 2), (2, 0)])
    def test_no_antenna_rejected(self, tx, rx):
        with pytest.raises(ValueError, match="antenna counts must be >= 1"):
            ArrayConfig(tx, rx)


class TestSteering:
    def test_tx_broadside_is_all_ones(self):
        cfg = ArrayConfig(4, 3)
        assert np.allclose(tx_vector(0.0, cfg), np.ones(4))

    def test_tx_30deg_second_element(self):
        cfg = ArrayConfig(4, 3, spacing_wavelengths=0.5)
        v = tx_vector(deg(30), cfg)
        assert v[1] == pytest.approx(1j, abs=1e-12)

    def test_tx_conjugate_symmetry(self):
        cfg = ArrayConfig(4, 3)
        assert tx_vector(deg(-30), cfg)[1] == pytest.approx(-1j, abs=1e-12)

    def test_rx_broadside(self):
        cfg = ArrayConfig(4, 3)
        assert np.allclose(rx_vector(0.0, cfg), np.ones(3))

    def test_rx_near_endfire_phase(self):
        cfg = ArrayConfig(2, 4)
        eps = 1e-9
        v = rx_vector(np.pi / 2 - eps, cfg)
        # sin -> 1, so element n approaches exp(j * 2*pi*(d/lambda) * n)
        expect = np.exp(1j * 2 * np.pi * 0.5 * np.arange(4))
        assert np.allclose(v, expect, atol=1e-6)

    def test_rx_30deg_two_elements(self):
        cfg = ArrayConfig(4, 2)
        assert np.allclose(rx_vector(deg(30), cfg), [1, 1j], atol=1e-12)

    def test_angle_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            tx_vector(np.pi / 2, ArrayConfig(2, 2))

    @settings(max_examples=50, deadline=None)
    @given(
        theta=st.floats(-89.0, 89.0),
        m=st.integers(1, 6),
        n=st.integers(1, 6),
    )
    def test_unit_modulus_and_kron_layout(self, theta, m, n):
        cfg = ArrayConfig(m, n)
        v = virtual_vector(deg(theta), cfg)
        assert np.max(np.abs(np.abs(v) - 1.0)) < 1e-12
        at = tx_vector(deg(theta), cfg)
        ar = rx_vector(deg(theta), cfg)
        manual = np.array([at[i] * ar[j] for i in range(m) for j in range(n)])
        assert np.allclose(v, manual, atol=1e-12)


class TestVirtualSteering:
    def test_broadside_all_ones(self):
        assert np.allclose(virtual_vector(0.0, ArrayConfig(2, 2)), np.ones(4))

    def test_30deg_2x2(self):
        v = virtual_vector(deg(30), ArrayConfig(2, 2))
        assert np.allclose(v, [1, 1j, 1j, -1], atol=1e-12)

    def test_norm_squared_equals_mn(self):
        cfg = ArrayConfig(3, 5)
        for theta in (-1.0, 0.3, 1.2):
            assert np.linalg.norm(virtual_vector(theta, cfg)) ** 2 == pytest.approx(15)


class TestSteeringMatrix:
    def test_single_angle_column(self):
        cfg = ArrayConfig(2, 3)
        a = steering_matrix([0.4], cfg)
        assert a.shape == (6, 1)
        assert np.allclose(a[:, 0], np.kron(tx_vector(0.4, cfg), rx_vector(0.4, cfg)))

    def test_distinct_angles_independent_columns(self):
        cfg = ArrayConfig(2, 2)
        a = steering_matrix([deg(0), deg(20)], cfg)
        # frozen from an SVD of the analytic 4x2 matrix
        assert np.linalg.svd(a, compute_uv=False)[-1] > 0.5

    def test_duplicate_angles_rank_deficient(self):
        cfg = ArrayConfig(2, 2)
        a = steering_matrix([0.2, 0.2], cfg)
        assert np.linalg.svd(a, compute_uv=False)[-1] < 1e-12

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            steering_matrix([], ArrayConfig(2, 2))

    @pytest.mark.parametrize(
        "cfg",
        [ArrayConfig(4, 4), ArrayConfig(8, 8), ArrayConfig(2, 3, 0.37), ArrayConfig(5, 2, 1.3)],
    )
    def test_bit_identical_to_per_angle_kron(self, cfg):
        """The broadcast equals the kron of the per-angle TX/RX phase-law
        vectors bit for bit, not just within rounding."""
        rng = np.random.default_rng(7)
        angles = np.concatenate([rng.uniform(-1.57, 1.57, 200), deg(np.arange(35.0, 70.05, 0.1))])
        kron = np.column_stack(
            [
                np.kron(arrays_module._ula(cfg.tx_count, t, cfg), arrays_module._ula(cfg.rx_count, t, cfg))
                for t in angles
            ]
        )
        assert np.array_equal(steering_matrix(angles, cfg), kron)
        assert np.array_equal(virtual_vector(angles[3], cfg), kron[:, 3])

    @pytest.mark.parametrize("bad", [np.pi / 2, -np.pi / 2, np.nan])
    @pytest.mark.parametrize("pos", [0, 1, 2])
    def test_endfire_or_nan_anywhere_rejected(self, bad, pos):
        angles = [0.1, -0.3, 0.5]
        angles[pos] = bad
        with pytest.raises(ValueError, match="outside"):
            steering_matrix(angles, ArrayConfig(2, 3))


class TestSynthesizeBlock:
    """A scene that is not (K,) angles with a (K, P) reflectivity matrix is
    refused before any noise is drawn."""

    cfg = ArrayConfig(2, 3)

    def _refuses(self, angles, rcs, match):
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match=match):
            synthesize_block(angles, rcs, self.cfg, 0.0, rng)
        assert rng.bit_generator.state == before

    @pytest.mark.parametrize("bad", [np.pi / 2, -np.pi / 2, np.nan])
    def test_endfire_or_nan_rejected(self, bad):
        self._refuses([bad, 0.1], np.ones((2, 4), dtype=complex), "outside")

    def test_angles_not_1d_rejected(self):
        self._refuses([[0.1, 0.2]], np.ones((2, 4), dtype=complex), "1-D")

    @pytest.mark.parametrize("shape", [(3, 4), (1, 4), (2,), (2, 4, 1)])
    def test_rcs_without_one_row_per_angle_rejected(self, shape):
        self._refuses([0.1, 0.2], np.ones(shape, dtype=complex), "one row per target")

    def test_more_targets_than_the_bound_rejected(self):
        # A 2x3 setup resolves at most 3 targets.
        match = "4 targets exceed the identifiability bound \\(3\\)"
        self._refuses([-0.6, -0.2, 0.2, 0.6], np.ones((4, 4), dtype=complex), match)


class TestDrawRcs:
    def test_mean_power_is_unity(self):
        x = draw_rcs(2, 50_000, rng=7)
        assert np.mean(np.abs(x) ** 2) == pytest.approx(1.0, abs=0.02)

    def test_pulses_uncorrelated(self):
        x = draw_rcs(1, 100_000, rng=11)[0]
        a, b = x[:-1], x[1:]
        corr = np.abs(np.mean(a * np.conj(b)))
        assert corr < 0.02

    def test_seed_determinism(self):
        assert np.array_equal(draw_rcs(3, 10, rng=5), draw_rcs(3, 10, rng=5))

    def test_size_validation(self):
        with pytest.raises(ValueError):
            draw_rcs(0, 5, rng=1)


class TestDrawScene:
    def test_table_style_scene(self):
        angles_rad, _ = draw_scene((0, 25), 4, 5.0, pulses=10, rng=3)
        angles = np.sort(np.rad2deg(angles_rad))
        assert angles.size == 4
        assert np.all(np.diff(angles) >= 5.0)
        assert np.all((angles >= 0) & (angles <= 25))

    def test_single_target(self):
        angles_rad, _ = draw_scene((10, 20), 1, 5.0, pulses=1, rng=0)
        a = np.rad2deg(angles_rad[0])
        assert 10 <= a <= 20

    def test_infeasible_spacing_rejected(self):
        with pytest.raises(ValueError):
            draw_scene((0, 14), 4, 5.0, pulses=1, rng=0)

    def test_no_target_rejected(self):
        with pytest.raises(ValueError, match="k must be >= 1"):
            draw_scene((0, 25), 0, 5.0, pulses=1, rng=0)

    # (0, 15.5) with 3.5 deg spacing accepts about 1% of candidates.
    @pytest.mark.parametrize(
        "range_deg, k, sep",
        [((0.0, 25.0), 4, 5.0), ((0.0, 15.5), 4, 3.5), ((10.0, 20.0), 1, 5.0), ((-60.0, 60.0), 3, 5.0)],
    )
    def test_bit_identical_to_reference_sampler(self, range_deg, k, sep):
        """Angles, reflectivities and the generator state after the draw
        all match the numpy sort/diff sampler, seed by seed."""
        for seed in range(200):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            scene = draw_scene(range_deg, k, sep, pulses=3, rng=rng)
            ref_angles, ref_rcs = reference_draw_scene(range_deg, k, sep, 3, ref_rng)
            assert isinstance(scene, tuple) and len(scene) == 2
            assert same_bits(scene[0], ref_angles)
            assert same_bits(scene[1], ref_rcs)
            assert rng.bit_generator.state == ref_rng.bit_generator.state

    # (0, 15.5) with 3.5 deg spacing: about 100 candidates per scene, so the
    # caps below end inside the first, second and third batch and on the
    # boundaries between them.
    SPARSE = ((0.0, 15.5), 4, 3.5)

    def _compare_capped(self, monkeypatch, seed, cap):
        monkeypatch.setattr(arrays_module, "MAX_REJECTIONS", cap)
        range_deg, k, sep = self.SPARSE
        got, got_state = outcome(lambda rng: draw_scene(range_deg, k, sep, 3, rng), seed)
        ref, ref_state = outcome(
            lambda rng: reference_draw_scene(range_deg, k, sep, 3, rng, max_rejections=cap), seed
        )
        assert (got is None) == (ref is None), (seed, cap)
        if got is not None:
            assert same_bits(got[0], ref[0])
            assert same_bits(got[1], ref[1])
        assert got_state == ref_state
        return got is None

    @pytest.mark.parametrize("cap_in_batches", [1 / 64, 0.5, 1, 1 + 1 / 64, 2, 2.5])
    def test_rejection_cap_matches_counting_reference(self, monkeypatch, cap_in_batches):
        """A cap inside a batch or on a batch boundary raises exactly when the
        candidate-by-candidate sampler does, with the same generator state."""
        cap = max(1, round(cap_in_batches * arrays_module._SCENE_BATCH))
        raised = [self._compare_capped(monkeypatch, seed, cap) for seed in range(60)]
        if cap >= arrays_module._SCENE_BATCH:
            assert 0 < sum(raised) < len(raised)

    def test_rejection_cap_edge_per_seed(self, monkeypatch):
        """A scene accepted at candidate n is returned under a cap of n + 1
        rejections and refused under a cap of n."""
        range_deg, k, sep = self.SPARSE
        for seed in range(40):
            rng = np.random.default_rng(seed)
            n = 0
            while not np.all(np.diff(np.sort(rng.uniform(*range_deg, size=k))) >= sep):
                n += 1
            assert not self._compare_capped(monkeypatch, seed, n + 1)
            if n > 0:
                assert self._compare_capped(monkeypatch, seed, n)

    def test_seed_determinism(self):
        s1 = draw_scene((0, 25), 4, 5.0, pulses=8, rng=42)
        s2 = draw_scene((0, 25), 4, 5.0, pulses=8, rng=42)
        assert np.array_equal(s1[0], s2[0])
        assert np.array_equal(s1[1], s2[1])


class TestSnrToNoiseVar:
    @pytest.mark.parametrize(
        "snr_db,expected", [(0.0, 1.0), (10.0, 0.1), (-16.0, 10**1.6)]
    )
    def test_values(self, snr_db, expected):
        assert snr_to_noise_var(snr_db) == pytest.approx(expected, rel=1e-12)


class TestSynthesizePair:
    low = ArrayConfig(2, 2)
    high = ArrayConfig(2, 3)

    def test_noiseless_single_target_column(self):
        rcs = np.array([[2.0 - 1.0j]])
        bl, _ = synthesize_pair([0.3], rcs, self.low, self.high, snr_db=400.0, rng=0)
        assert np.allclose(bl[:, 0], rcs[0, 0] * virtual_vector(0.3, self.low), atol=1e-10)

    def test_noiseless_columns_in_signal_span(self):
        angles, rcs = draw_scene((0, 25), 2, 5.0, pulses=6, rng=2)
        bl, bh = synthesize_pair(angles, rcs, self.low, self.high, snr_db=400.0, rng=1)
        for block, cfg in ((bl, self.low), (bh, self.high)):
            a = steering_matrix(angles, cfg)
            proj = a @ np.linalg.lstsq(a, block, rcond=None)[0]
            assert np.linalg.norm(block - proj) < 1e-10

    def test_noise_variance_calibration(self):
        # zero-signal path: measure pure noise power at 0 dB
        rcs = np.zeros((1, 30_000), dtype=complex)
        bl, _ = synthesize_pair([0.0], rcs, self.low, self.high, snr_db=0.0, rng=9)
        assert np.mean(np.abs(bl) ** 2) == pytest.approx(1.0, abs=0.02)

    def test_empirical_snr_matches_request(self):
        angles, rcs = draw_scene((0, 25), 1, 5.0, pulses=20_000, rng=4)
        for snr_db in (-6.0, 0.0, 6.0):
            bl, _ = synthesize_pair(angles, rcs, self.low, self.high, snr_db, rng=8)
            signal = steering_matrix(angles, self.low) @ rcs
            noise = bl - signal
            emp = 10 * np.log10(np.mean(np.abs(signal) ** 2) / np.mean(np.abs(noise) ** 2))
            assert emp == pytest.approx(snr_db, abs=0.2)

    def test_shared_rcs_reconstruction(self):
        # noiseless high block is a linear image of the low block via A_H A_L^+
        angles, rcs = draw_scene((0, 25), 2, 5.0, pulses=12, rng=6)
        bl, bh = synthesize_pair(angles, rcs, self.low, self.high, snr_db=400.0, rng=5)
        al = steering_matrix(angles, self.low)
        ah = steering_matrix(angles, self.high)
        recon = ah @ np.linalg.pinv(al) @ bl
        assert np.linalg.norm(recon - bh) < 1e-8

    @pytest.mark.parametrize("m, n, bound", [(4, 4, 6), (8, 8, 14), (1, 2, 1), (2, 3, 3)])
    def test_max_targets_counts_distinct_phase_centres(self, m, n, bound):
        cfg = ArrayConfig(m, n)
        assert cfg.max_targets == bound
        # M+N-1 distinct phase centres cap the steering matrix's rank.
        angles = deg(np.linspace(-50.0, 50.0, bound + 2))
        assert np.linalg.matrix_rank(steering_matrix(angles, cfg)) == bound + 1

    def test_identifiability_bound_names_array(self):
        angles, rcs = draw_scene((-60, 60), 3, 5.0, pulses=2, rng=1)
        tiny = ArrayConfig(1, 2)  # max_targets = 1
        with pytest.raises(ValueError, match="low"):
            synthesize_pair(angles, rcs, tiny, self.high, snr_db=0.0, rng=0)

    def test_determinism(self):
        angles, rcs = draw_scene((0, 25), 2, 5.0, pulses=5, rng=2)
        p1 = synthesize_pair(angles, rcs, self.low, self.high, 0.0, rng=3)
        p2 = synthesize_pair(angles, rcs, self.low, self.high, 0.0, rng=3)
        assert np.array_equal(p1[0], p2[0])
        assert np.array_equal(p1[1], p2[1])

    def test_row_count_invariant(self):
        angles, rcs = draw_scene((0, 25), 2, 5.0, pulses=5, rng=2)
        bl, bh = synthesize_pair(angles, rcs, self.low, self.high, 0.0, rng=3)
        assert bl.shape[0] == 4
        assert bh.shape[0] == 6


class TestNoiseOracle:
    """synthesize_block's single noise draw equals two separate real and
    imaginary draws added as scale * (re + 1j*im), bit for bit."""

    low = ArrayConfig(4, 4)
    high = ArrayConfig(8, 8)
    SNRS = [-16.0, -3.5, 0.0, 6.0, 40.0, np.inf]

    @pytest.mark.parametrize("snr_db", SNRS)
    def test_block_bit_identical(self, snr_db):
        for seed in range(10):
            angles, rcs = draw_scene((0, 25), 4, 5.0, pulses=9, rng=seed)
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            block = synthesize_block(angles, rcs, self.high, snr_db, rng)
            ref = reference_synthesize_block(angles, rcs, self.high, snr_db, ref_rng)
            assert same_bits(block, ref)
            assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("snr_db", SNRS)
    def test_pair_bit_identical(self, snr_db):
        for seed in range(10):
            angles, rcs = draw_scene((20, 45), 4, 5.0, pulses=9, rng=seed)
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            bl, bh = synthesize_pair(angles, rcs, self.low, self.high, snr_db, rng)
            for block, cfg in ((bl, self.low), (bh, self.high)):
                ref = reference_synthesize_block(angles, rcs, cfg, snr_db, ref_rng)
                assert same_bits(block, ref)
            assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_noiseless_draws_nothing(self):
        angles, rcs = draw_scene((0, 25), 2, 5.0, pulses=5, rng=1)
        rng = np.random.default_rng(2)
        before = rng.bit_generator.state
        block = synthesize_block(angles, rcs, self.low, np.inf, rng)
        assert rng.bit_generator.state == before
        assert same_bits(block, steering_matrix(angles, self.low) @ rcs)
