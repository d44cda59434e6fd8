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

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ArrayConfig",
    "TargetScene",
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
# Candidate scenes draw_scene draws per uniform() call.
_SCENE_BATCH = 64


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
        """Largest target count MUSIC can resolve with this setup.

        TX and RX share one spacing, so virtual element (m, n) sits at phase
        centre m + n: the M*N elements cover only M+N-1 distinct positions,
        and the steering matrix has rank at most M+N-1.  A noise subspace
        needs at least one spare dimension, which leaves M+N-2 targets.
        """
        return self.tx_count + self.rx_count - 2


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
        _check_angle(self.angles_rad)
        if self.rcs.ndim != 2 or self.rcs.shape[0] != self.angles_rad.size:
            raise ValueError("rcs must have one row per target")

    @property
    def num_targets(self) -> int:
        return self.angles_rad.size


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


def virtual_steering(theta_rad: float, cfg: ArrayConfig) -> np.ndarray:
    """Virtual-array steering vector kron(a_tx, a_rx), TX index major."""
    return steering_matrix([theta_rad], cfg)[:, 0]


def steering_matrix(angles_rad, cfg: ArrayConfig) -> np.ndarray:
    """Stack virtual steering vectors as columns, one per angle.

    A one-sided vector is the column of a setup with one antenna on the
    other side, e.g. ``ArrayConfig(M, 1)`` for the transmit array.
    """
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


def check_spacing(range_deg, k: int, min_sep_deg: float) -> None:
    """Raise unless ``range_deg`` can hold k targets ``min_sep_deg`` apart."""
    lo, hi = float(range_deg[0]), float(range_deg[1])
    if hi - lo < (k - 1) * min_sep_deg:
        raise ValueError(
            f"range [{lo}, {hi}] deg cannot hold {k} targets "
            f"separated by >= {min_sep_deg} deg"
        )


def draw_scene(range_deg, k: int, min_sep_deg: float, pulses: int, rng) -> TargetScene:
    """Draw K target directions uniformly in ``range_deg`` with a minimum
    pairwise separation, plus a fresh Swerling-II reflectivity matrix.

    Uses rejection sampling; raises if the spacing constraint is infeasible
    for the requested range (detected analytically and by a rejection cap).
    """
    lo, hi = float(range_deg[0]), float(range_deg[1])
    if k < 1:
        raise ValueError("k must be >= 1")
    check_spacing((lo, hi), k, min_sep_deg)
    rng = _as_rng(rng)
    # Test candidates a batch at a time.  One uniform() call of n*K draws
    # gives the same candidates as n calls of K, so the scene is the one a
    # candidate-by-candidate loop would accept, and the cap counts the same
    # candidates.
    start = rng.bit_generator.state
    tried = 0
    while tried < MAX_REJECTIONS:
        batch = min(_SCENE_BATCH, MAX_REJECTIONS - tried)
        candidates = np.sort(rng.uniform(lo, hi, size=(batch, k)), axis=1)
        accepted = (candidates[:, 1:] - candidates[:, :-1] >= min_sep_deg).all(axis=1)
        if accepted.any():
            hit = int(accepted.argmax())
            break
        tried += batch
    else:
        raise ValueError(
            f"separation constraint of {min_sep_deg} deg in [{lo}, {hi}] "
            f"not satisfied after {MAX_REJECTIONS} rejections"
        )
    # Rewind and redraw up to the accepted candidate, so the generator ends
    # where that loop would leave it, ready for the reflectivity draw.
    rng.bit_generator.state = start
    rng.uniform(lo, hi, size=(tried + hit + 1) * k)
    rcs = draw_rcs(k, pulses, rng)
    return TargetScene(angles_rad=np.deg2rad(candidates[hit]), rcs=rcs)


def snr_to_noise_var(snr_db: float) -> float:
    """Per-entry noise variance for unit per-target signal power."""
    return 10.0 ** (-snr_db / 10.0)


def synthesize_block(scene: TargetScene, cfg: ArrayConfig, snr_db: float, rng) -> np.ndarray:
    """Noisy virtual-array observation Y = A(theta) X + N for one setup, a
    complex (M*N, P) array."""
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
        # One draw holds the real then the imaginary parts, the stream of two
        # separate draws; adding each part in place gives the same bits as
        # adding scale * (re + 1j*im).
        noise = rng.standard_normal((2, *y.shape))
        noise *= np.sqrt(sigma2 / 2.0)
        y.real += noise[0]
        y.imag += noise[1]
    return y


def synthesize_pair(
    scene: TargetScene,
    low: ArrayConfig,
    high: ArrayConfig,
    snr_db: float,
    rng,
) -> tuple[np.ndarray, np.ndarray]:
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
