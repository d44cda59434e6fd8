import numpy as np
import pytest

from arrayemu.arrays import ArrayConfig, draw_rcs, draw_scene, steering_matrix
from arrayemu.metrics import cov_error, crb, steering_derivative


def random_cov(n, seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return m @ m.conj().T


class TestCovError:
    def test_identical_is_zero(self):
        r = random_cov(4, 0)
        assert cov_error(r, r) == 0.0

    def test_zero_prediction_is_one(self):
        r = random_cov(4, 1)
        assert cov_error(r, np.zeros((4, 4), dtype=complex)) == pytest.approx(1.0)

    def test_doubled_prediction_is_one(self):
        r = random_cov(4, 2)
        assert cov_error(r, 2 * r) == pytest.approx(1.0)

    def test_zero_reference_rejected(self):
        with pytest.raises(ValueError):
            cov_error(np.zeros((3, 3), dtype=complex), random_cov(3, 3))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            cov_error(random_cov(3, 4), random_cov(4, 4))


class TestSteeringDerivative:
    def test_broadside_2x2_analytic(self):
        d = steering_derivative(0.0, ArrayConfig(2, 2))[:, 0]
        assert np.allclose(d, 1j * np.pi * np.array([0, 1, 1, 2]), atol=1e-12)

    def test_first_element_always_zero(self):
        for theta in (-0.9, 0.0, 0.4, 1.2):
            assert steering_derivative(theta, ArrayConfig(3, 4))[0, 0] == 0.0

    def test_matches_finite_differences(self):
        cfg = ArrayConfig(3, 4)
        h = 1e-7
        for theta in (-1.0, -0.2, 0.0, 0.5, 1.1):
            fd = (steering_matrix([theta + h], cfg) - steering_matrix([theta - h], cfg))[:, 0] / (2 * h)
            d = steering_derivative(theta, cfg)[:, 0]
            assert np.max(np.abs(d - fd)) / np.max(np.abs(fd) + 1e-12) < 1e-6


class TestCrb:
    cfg = ArrayConfig(2, 2)

    def test_sigma2_scaling_exact(self):
        angles, rcs = draw_scene((0, 25), 2, 5.0, pulses=10, rng=0)
        r1 = crb(angles, rcs, 0.5, self.cfg)
        r2 = crb(angles, rcs, 1.0, self.cfg)
        assert np.allclose(r2, 2 * r1, rtol=1e-12)

    def test_single_target_hand_formula(self):
        # K=1 at broadside, all-ones reflectivity: the projected derivative
        # energy is 2*pi^2 per snapshot, so CRB = sigma^2 / (4*pi^2*N_s).
        ns, sigma2 = 7, 0.3
        bound = crb([0.0], np.ones((1, ns)), sigma2, self.cfg)
        assert bound.shape == (1, 1)
        assert bound[0, 0] == pytest.approx(sigma2 / (4 * np.pi**2 * ns), rel=1e-12)

    def test_coincident_angles_rejected(self):
        with pytest.raises(ValueError):
            crb([0.2, 0.2], draw_rcs(2, 5, rng=1), 1.0, self.cfg)

    def test_diagonal_positive_for_distinct_scenes(self):
        for seed in range(5):
            angles, rcs = draw_scene((-40, 40), 2, 5.0, pulses=8, rng=seed)
            bound = crb(angles, rcs, 10 ** (1.6), self.cfg)
            assert np.all(np.diagonal(bound) > 0)

    def test_silent_target_rejected(self):
        """A target whose reflectivity is zero in every pulse carries no
        angle information, so the Fisher information is singular."""
        rcs = draw_rcs(2, 5, rng=1)
        rcs[1] = 0.0
        with pytest.raises(ValueError, match="Fisher information is singular"):
            crb([0.1, 0.5], rcs, 1.0, self.cfg)

    def test_nonpositive_noise_rejected(self):
        with pytest.raises(ValueError):
            crb([0.1], np.ones((1, 3)), 0.0, self.cfg)

    def test_rcs_row_mismatch_rejected(self):
        with pytest.raises(ValueError):
            crb([0.1, 0.5], np.ones((1, 3)), 1.0, self.cfg)

    def test_non_finite_fisher_information_rejected(self):
        # d/lambda = 1e200 overflows the derivative Gram product to inf.
        with pytest.raises(ValueError, match="Fisher information"):
            crb([0.1, 0.3], draw_rcs(2, 5, rng=1), 1.0, ArrayConfig(2, 3, 1e200))

    @pytest.mark.parametrize(
        "cfg",
        [ArrayConfig(2, 2), ArrayConfig(8, 8), ArrayConfig(3, 4, 0.37), ArrayConfig(2, 5, 1.3)],
    )
    def test_derivative_columns_bit_identical(self, cfg):
        """A batch of angles gives each angle's own derivative column
        exactly, so crb's bound matches one built column by column."""
        angles = np.deg2rad([-61.3, -7.0, 0.0, 12.25, 44.4, 80.9])
        batch = steering_derivative(angles, cfg)
        assert batch.shape == (cfg.virtual_size, angles.size)
        for i, theta in enumerate(angles):
            single = steering_derivative(theta, cfg)
            assert single.shape == (cfg.virtual_size, 1)
            assert np.array_equal(batch[:, i], single[:, 0])


class TestCrbStack:
    """crb over a (Q, K) angle stack and a (Q, K, P) reflectivity stack."""

    @staticmethod
    def scenes(count, k, seed):
        rng = np.random.default_rng(seed)
        scenes = [draw_scene((20, 45), k, 5.0, pulses=30, rng=rng) for _ in range(count)]
        return scenes, np.stack([a for a, _ in scenes]), np.stack([x for _, x in scenes])

    @pytest.mark.parametrize("cfg", [ArrayConfig(4, 4), ArrayConfig(8, 8)])
    def test_bit_identical_to_per_scene_calls(self, cfg):
        scenes, angles, rcs = self.scenes(7, 4, seed=11)
        for sigma2 in (0.25, 10**1.6):
            stacked = crb(angles, rcs, sigma2, cfg)
            assert stacked.shape == (7, 4, 4)
            diagonals = np.diagonal(stacked, axis1=-2, axis2=-1)
            assert diagonals.shape == (7, 4)
            for q, scene in enumerate(scenes):
                single = crb(*scene, sigma2, cfg)
                assert single.shape == (4, 4)
                assert stacked[q].tobytes() == single.tobytes()
                assert diagonals[q].tobytes() == np.diagonal(single).tobytes()

    def test_coincident_scene_in_stack_rejected(self):
        cfg = ArrayConfig(4, 4)
        _, angles, rcs = self.scenes(5, 3, seed=4)
        angles[2, 1] = angles[2, 0]
        with pytest.raises(ValueError, match="rank deficient") as single:
            crb(angles[2], rcs[2], 1.0, cfg)
        with pytest.raises(ValueError, match="rank deficient") as stacked:
            crb(angles, rcs, 1.0, cfg)
        assert str(stacked.value) == str(single.value)

    def test_stack_rcs_mismatch_rejected(self):
        _, angles, rcs = self.scenes(3, 2, seed=5)
        with pytest.raises(ValueError, match="one row per target"):
            crb(angles, rcs[:2], 1.0, ArrayConfig(4, 4))
        with pytest.raises(ValueError, match="one row per target"):
            crb(angles, rcs[0], 1.0, ArrayConfig(4, 4))
