"""Virtual-array MIMO radar signal model.

Synthesizes post-matched-filter snapshots for a co-located MIMO radar with
uniform linear transmit/receive arrays.  A setup with M transmit and N
receive antennas behaves like a virtual uniform array of M*N elements whose
steering vector is the Kronecker product of the transmit and receive
steering vectors.  Targets follow a Swerling-II fluctuation model: the
complex reflectivity is constant within a pulse and i.i.d. across pulses.

All angles are handled in radians internally; degrees appear only at the
API boundaries that explicitly say so.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ArrayConfig",
    "TargetScene",
    "SnapshotBlock",
    "steering_tx",
    "steering_rx",
    "virtual_steering",
    "steering_matrix",
    "draw_rcs",
    "draw_scene",
    "snr_to_noise_var",
    "synthesize_block",
    "synthesize_pair",
]

# Rejection-sampling budget for draw_scene before declaring the spacing
# constraint infeasible.
MAX_REJECTIONS = 10**6


def _as_rng(rng) -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


@dataclass(frozen=True)
class ArrayConfig:
    """Geometry of one TX/RX antenna setup.

    ``spacing_wavelengths`` is d/lambda; the default 0.5 gives the usual
    half-wavelength uniform linear array.
    """

    tx_count: int
    rx_count: int
    spacing_wavelengths: float = 0.5

    def __post_init__(self):
        if self.tx_count < 1 or self.rx_count < 1:
            raise ValueError("antenna counts must be >= 1")
        if not self.spacing_wavelengths > 0:
            raise ValueError("spacing_wavelengths must be positive")

    @property
    def virtual_size(self) -> int:
        return self.tx_count * self.rx_count

    @property
    def max_targets(self) -> int:
        """Largest target count uniquely identifiable by this setup.

        The identifiability interval for a co-located MIMO virtual array is
        [(2(M+N)-5)/3, 2MN/3); we enforce the exclusive upper end.
        """
        return math.ceil(2 * self.virtual_size / 3) - 1


@dataclass(frozen=True)
class TargetScene:
    """K point targets: directions plus a per-pulse reflectivity matrix."""

    angles_rad: np.ndarray
    rcs: np.ndarray  # complex, K x P

    def __post_init__(self):
        object.__setattr__(self, "angles_rad", np.asarray(self.angles_rad, dtype=float))
        object.__setattr__(self, "rcs", np.asarray(self.rcs, dtype=complex))
        if self.angles_rad.ndim != 1 or self.angles_rad.size < 1:
            raise ValueError("need at least one target angle")
        if np.any(np.abs(self.angles_rad) >= np.pi / 2):
            raise ValueError("target angles must lie in (-pi/2, pi/2)")
        if self.rcs.ndim != 2 or self.rcs.shape[0] != self.angles_rad.size:
            raise ValueError("rcs must have one row per target")

    @property
    def num_targets(self) -> int:
        return self.angles_rad.size

    @property
    def pulse_count(self) -> int:
        return self.rcs.shape[1]


@dataclass(frozen=True)
class SnapshotBlock:
    """Complex (M*N) x P virtual-array observation block."""

    data: np.ndarray
    snr_db: float
    array: ArrayConfig

    def __post_init__(self):
        object.__setattr__(self, "data", np.asarray(self.data, dtype=complex))
        if self.data.ndim != 2 or self.data.shape[0] != self.array.virtual_size:
            raise ValueError(
                f"snapshot block must have {self.array.virtual_size} rows, "
                f"got shape {self.data.shape}"
            )

    @property
    def pulse_count(self) -> int:
        return self.data.shape[1]


def _check_angle(theta_rad) -> None:
    """Reject any angle (scalar or array) outside (-pi/2, pi/2), NaN included."""
    bad = ~(np.abs(theta_rad) < np.pi / 2)
    if np.any(bad):
        first = np.asarray(theta_rad)[bad].flat[0]
        raise ValueError(f"angle {first} rad outside (-pi/2, pi/2)")


def _ula(count: int, theta_rad, cfg: ArrayConfig) -> np.ndarray:
    """ULA phase law exp(j*2*pi*(d/lambda)*k*sin(theta)), k = 0..count-1.

    Element index runs down the rows; an array of angles adds trailing axes.
    """
    # Form the per-element phase step first, then multiply by sin(theta);
    # grouping it as c * (k * sin(theta)) changes the low bits of the result.
    phase_step = 1j * 2 * np.pi * cfg.spacing_wavelengths * np.arange(count)
    return np.exp(np.multiply.outer(phase_step, np.sin(theta_rad)))


def steering_tx(theta_rad: float, cfg: ArrayConfig) -> np.ndarray:
    """Transmit steering vector: element m is exp(j*2*pi*(d/lambda)*m*sin(theta))."""
    _check_angle(theta_rad)
    return _ula(cfg.tx_count, theta_rad, cfg)


def steering_rx(theta_rad: float, cfg: ArrayConfig) -> np.ndarray:
    """Receive steering vector of length rx_count; same phase law as steering_tx."""
    _check_angle(theta_rad)
    return _ula(cfg.rx_count, theta_rad, cfg)


def virtual_steering(theta_rad: float, cfg: ArrayConfig) -> np.ndarray:
    """Virtual-array steering vector kron(a_tx, a_rx), TX index major."""
    return steering_matrix([theta_rad], cfg)[:, 0]


def steering_matrix(angles_rad, cfg: ArrayConfig) -> np.ndarray:
    """Stack virtual steering vectors as columns, one per angle."""
    angles_rad = np.atleast_1d(np.asarray(angles_rad, dtype=float))
    if angles_rad.size == 0:
        raise ValueError("steering_matrix needs at least one angle")
    _check_angle(angles_rad)
    tx = _ula(cfg.tx_count, angles_rad, cfg)
    rx = _ula(cfg.rx_count, angles_rad, cfg)
    return (tx[:, None, :] * rx[None, :, :]).reshape(cfg.virtual_size, -1)


def draw_rcs(k: int, pulses: int, rng) -> np.ndarray:
    """K x P matrix of i.i.d. circularly-symmetric complex Gaussians, unit power."""
    if k < 1 or pulses < 1:
        raise ValueError("k and pulses must be >= 1")
    rng = _as_rng(rng)
    re = rng.standard_normal((k, pulses))
    im = rng.standard_normal((k, pulses))
    return (re + 1j * im) / np.sqrt(2.0)


def draw_scene(range_deg, k: int, min_sep_deg: float, pulses: int, rng) -> TargetScene:
    """Draw K target directions uniformly in ``range_deg`` with a minimum
    pairwise separation, plus a fresh Swerling-II reflectivity matrix.

    Uses rejection sampling; raises if the spacing constraint is infeasible
    for the requested range (detected analytically and by a rejection cap).
    """
    lo, hi = float(range_deg[0]), float(range_deg[1])
    if k < 1:
        raise ValueError("k must be >= 1")
    if hi - lo < (k - 1) * min_sep_deg:
        raise ValueError(
            f"range [{lo}, {hi}] deg cannot hold {k} targets "
            f"separated by >= {min_sep_deg} deg"
        )
    rng = _as_rng(rng)
    rejections = 0
    while True:
        angles = np.sort(rng.uniform(lo, hi, size=k))
        if k == 1 or np.all(np.diff(angles) >= min_sep_deg):
            break
        rejections += 1
        if rejections >= MAX_REJECTIONS:
            raise ValueError(
                f"separation constraint of {min_sep_deg} deg in [{lo}, {hi}] "
                f"not satisfied after {MAX_REJECTIONS} rejections"
            )
    rcs = draw_rcs(k, pulses, rng)
    return TargetScene(angles_rad=np.deg2rad(angles), rcs=rcs)


def snr_to_noise_var(snr_db: float) -> float:
    """Per-entry noise variance for unit per-target signal power."""
    return 10.0 ** (-snr_db / 10.0)


def _complex_noise(shape, sigma2: float, rng: np.random.Generator) -> np.ndarray:
    scale = np.sqrt(sigma2 / 2.0)
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def synthesize_block(scene: TargetScene, cfg: ArrayConfig, snr_db: float, rng) -> SnapshotBlock:
    """Noisy virtual-array observation Y = A(theta) X + N for one setup."""
    if scene.num_targets > cfg.max_targets:
        raise ValueError(
            f"{scene.num_targets} targets exceed the identifiability bound "
            f"({cfg.max_targets}) of the {cfg.tx_count}x{cfg.rx_count} setup"
        )
    rng = _as_rng(rng)
    a = steering_matrix(scene.angles_rad, cfg)
    sigma2 = snr_to_noise_var(snr_db)
    y = a @ scene.rcs
    if sigma2 > 0:
        y = y + _complex_noise(y.shape, sigma2, rng)
    return SnapshotBlock(data=y, snr_db=snr_db, array=cfg)


def synthesize_pair(
    scene: TargetScene,
    low: ArrayConfig,
    high: ArrayConfig,
    snr_db: float,
    rng,
) -> tuple[SnapshotBlock, SnapshotBlock]:
    """Low/high observation pair sharing the same reflectivity matrix.

    Noise is drawn independently for the two blocks (they model physically
    distinct receivers).
    """
    for name, cfg in (("low", low), ("high", high)):
        if scene.num_targets > cfg.max_targets:
            raise ValueError(
                f"{scene.num_targets} targets exceed the identifiability bound "
                f"({cfg.max_targets}) of the {name} array"
            )
    rng = _as_rng(rng)
    block_low = synthesize_block(scene, low, snr_db, rng)
    block_high = synthesize_block(scene, high, snr_db, rng)
    return block_low, block_high
