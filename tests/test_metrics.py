import numpy as np
import pytest

from arrayemu.arrays import ArrayConfig, draw_rcs, draw_scene, steering_matrix, virtual_steering
from arrayemu.metrics import _derivative_factor, cov_error, crb, steering_derivative
from arrayemu.music import CovarianceEstimate


def cov(matrix, ns=1):
    return CovarianceEstimate(matrix=np.asarray(matrix, dtype=complex), snapshots_used=ns)


def random_cov(n, seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return cov(m @ m.conj().T)


class TestCovError:
    def test_identical_is_zero(self):
        r = random_cov(4, 0)
        assert cov_error(r, r) == 0.0

    def test_zero_prediction_is_one(self):
        r = random_cov(4, 1)
        assert cov_error(r, cov(np.zeros((4, 4)))) == pytest.approx(1.0)

    def test_doubled_prediction_is_one(self):
        r = random_cov(4, 2)
        assert cov_error(r, cov(2 * r.matrix)) == pytest.approx(1.0)

    def test_zero_reference_rejected(self):
        with pytest.raises(ValueError):
            cov_error(cov(np.zeros((3, 3))), random_cov(3, 3))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            cov_error(random_cov(3, 4), random_cov(4, 4))


class TestSteeringDerivative:
    def test_broadside_2x2_analytic(self):
        d = steering_derivative(0.0, ArrayConfig(2, 2))
        assert np.allclose(d, 1j * np.pi * np.array([0, 1, 1, 2]), atol=1e-12)

    def test_first_element_always_zero(self):
        for theta in (-0.9, 0.0, 0.4, 1.2):
            assert steering_derivative(theta, ArrayConfig(3, 4))[0] == 0.0

    def test_matches_finite_differences(self):
        cfg = ArrayConfig(3, 4)
        h = 1e-7
        for theta in (-1.0, -0.2, 0.0, 0.5, 1.1):
            fd = (virtual_steering(theta + h, cfg) - virtual_steering(theta - h, cfg)) / (2 * h)
            d = steering_derivative(theta, cfg)
            assert np.max(np.abs(d - fd)) / np.max(np.abs(fd) + 1e-12) < 1e-6


class TestCrb:
    cfg = ArrayConfig(2, 2)

    def test_sigma2_scaling_exact(self):
        scene = draw_scene((0, 25), 2, 5.0, pulses=10, rng=0)
        r1 = crb(scene.angles_rad, scene.rcs, 0.5, self.cfg)
        r2 = crb(scene.angles_rad, scene.rcs, 1.0, self.cfg)
        assert np.allclose(r2.matrix, 2 * r1.matrix, rtol=1e-12)

    def test_single_target_hand_formula(self):
        # K=1 at broadside, all-ones reflectivity: the projected derivative
        # energy is 2*pi^2 per snapshot, so CRB = sigma^2 / (4*pi^2*N_s).
        ns, sigma2 = 7, 0.3
        res = crb([0.0], np.ones((1, ns)), sigma2, self.cfg)
        assert res.diagonal_rad2[0] == pytest.approx(sigma2 / (4 * np.pi**2 * ns), rel=1e-12)

    def test_coincident_angles_rejected(self):
        with pytest.raises(ValueError):
            crb([0.2, 0.2], draw_rcs(2, 5, rng=1), 1.0, self.cfg)

    def test_diagonal_positive_for_distinct_scenes(self):
        for seed in range(5):
            scene = draw_scene((-40, 40), 2, 5.0, pulses=8, rng=seed)
            res = crb(scene.angles_rad, scene.rcs, 10 ** (1.6), self.cfg)
            assert np.all(res.diagonal_rad2 > 0)

    def test_nonpositive_noise_rejected(self):
        with pytest.raises(ValueError):
            crb([0.1], np.ones((1, 3)), 0.0, self.cfg)

    def test_rcs_row_mismatch_rejected(self):
        with pytest.raises(ValueError):
            crb([0.1, 0.5], np.ones((1, 3)), 1.0, self.cfg)

    @pytest.mark.parametrize(
        "cfg",
        [ArrayConfig(2, 2), ArrayConfig(8, 8), ArrayConfig(3, 4, 0.37), ArrayConfig(2, 5, 1.3)],
    )
    def test_derivative_columns_bit_identical(self, cfg):
        """crb's broadcast derivative columns equal steering_derivative per
        angle exactly, so the bound matches one built column by column."""
        angles = np.deg2rad([-61.3, -7.0, 0.0, 12.25, 44.4, 80.9])
        a = steering_matrix(angles, cfg)
        columns = np.column_stack([steering_derivative(t, cfg) for t in angles])
        assert np.array_equal(_derivative_factor(angles, cfg) * a, columns)
