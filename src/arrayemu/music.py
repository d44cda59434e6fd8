"""Subspace DOA estimation with MUSIC.

Sample covariance -> Hermitian eigendecomposition -> noise-subspace
pseudospectrum -> peak picking, plus the trial-averaged squared DOA error.
The target count K is assumed known throughout; no model-order estimation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arrays import ArrayConfig, steering_matrix

__all__ = [
    "SpectrumResult",
    "sample_covariance",
    "hermitian_eig",
    "noise_subspace",
    "grid_angles",
    "music_spectrum",
    "pick_peaks",
    "music_doas",
    "doa_mse",
]

HERMITIAN_RTOL = 1e-10
# Floor on the noise-projection denominator; at exact orthogonality the
# pseudospectrum would otherwise divide by zero.
DENOM_FLOOR = 1e-12


@dataclass(frozen=True)
class SpectrumResult:
    """Pseudospectrum values on a uniform angle grid (degrees)."""

    grid_deg: np.ndarray
    values: np.ndarray


def sample_covariance(block) -> np.ndarray:
    """Average outer product (1/N_s) sum_p y_p y_p^H over all pulses.

    ``block`` is an (MN, P) array or a (Q, MN, P) stack of Q trials' blocks,
    which gives a (Q, MN, MN) stack.  The result is explicitly symmetrized.
    """
    y = np.asarray(block, dtype=complex)
    ns = y.shape[-1]
    if ns < 1:
        raise ValueError("covariance needs at least one pulse")
    # One product per trial into one stack: a batched matmul would first
    # copy the conjugate of every block, which raised peak memory.
    r = np.empty(y.shape[:-1] + (y.shape[-2],), dtype=complex)
    for q in np.ndindex(y.shape[:-2]):
        np.matmul(y[q], y[q].conj().T, out=r[q])
    r /= ns
    r += r.conj().swapaxes(-2, -1)
    r /= 2.0
    return r


def hermitian_eig(cov) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues sorted descending and their unitary eigenvector columns,
    of an (n, n) covariance or of each matrix of a (Q, n, n) stack.

    ``eigh`` reads only one triangle, so every matrix is first checked to be
    finite and Hermitian, and eigenvalues that overflow are refused.  ``eigh``
    returns ascending order; both results are reversed views.
    """
    r = np.asarray(cov, dtype=complex)
    if r.ndim not in (2, 3) or r.shape[-2] != r.shape[-1]:
        raise ValueError("covariance must be square")
    for m in r.reshape(-1, *r.shape[-2:]):
        # The largest real or imaginary magnitude, at least 1: finite exactly
        # when every entry is, as numpy's max keeps a NaN or an infinity.
        peak = np.maximum(np.abs(m.real), np.abs(m.imag)).max(initial=1.0)
        if not np.isfinite(peak):
            raise ValueError("covariance matrix holds a non-finite value")
        # ||m - m^H||_F <= HERMITIAN_RTOL * max(||m||_F, 1), squared and taken
        # on m / peak, so that no norm of finite entries overflows.  Scaled by
        # a product: dividing a complex matrix by a real is five times slower.
        m = m * (1.0 / peak)
        d = m - m.conj().T
        if np.vdot(d, d).real > HERMITIAN_RTOL**2 * max(np.vdot(m, m).real, 1.0):
            raise ValueError("covariance matrix is not Hermitian within tolerance")
    w, u = np.linalg.eigh(r)
    if not np.isfinite(w).all():
        raise ValueError("covariance eigenvalues overflow the float range")
    return w[..., ::-1], u[..., ::-1]


def noise_subspace(eigenvectors: np.ndarray, k: int) -> np.ndarray:
    """The last MN-K of ``hermitian_eig``'s eigenvector columns: those of
    the MN-K smallest eigenvalues."""
    mn = eigenvectors.shape[-1]
    if not 1 <= k < mn:
        raise ValueError(f"target count k={k} must satisfy 1 <= k < {mn}")
    return eigenvectors[..., k:]


def grid_angles(grid) -> np.ndarray:
    """Degree grid lo, lo + step, ..., hi from ``grid`` = (lo_deg, hi_deg, step_deg)."""
    lo, hi, step = float(grid[0]), float(grid[1]), float(grid[2])
    if not 0 < step < np.inf:
        raise ValueError(f"grid step must be positive and finite, got {step}")
    npts = int(round((hi - lo) / step)) + 1
    if npts < 1:
        raise ValueError("empty spectrum grid")
    return lo + step * np.arange(npts)


def music_spectrum(un: np.ndarray, cfg: ArrayConfig, grid, steering=None) -> SpectrumResult:
    """MUSIC pseudospectrum 1 / ||U_n^H v(theta)||^2 on a degree grid.

    ``grid`` is (lo_deg, hi_deg, step_deg).  ``steering`` is the grid's
    (MN, grid points) steering matrix, built here when not given, so one
    matrix can serve every trial of a bank.  The projection energy is
    floored at DENOM_FLOOR before inversion.
    """
    grid_deg = grid_angles(grid)
    un = np.asarray(un, dtype=complex)
    if un.ndim != 2 or un.shape[1] < 1:
        raise ValueError("noise subspace must have at least one column")
    if un.shape[0] != cfg.virtual_size:
        raise ValueError(
            f"noise subspace has {un.shape[0]} rows but the {cfg.tx_count}x{cfg.rx_count} "
            f"array has {cfg.virtual_size} virtual elements"
        )
    if steering is None:
        steering = steering_matrix(np.deg2rad(grid_deg), cfg)
    elif steering.shape != (cfg.virtual_size, grid_deg.size):
        raise ValueError(
            f"steering matrix has shape {steering.shape}, grid needs "
            f"{(cfg.virtual_size, grid_deg.size)}"
        )
    # Squared in place: one (MN-K, G) temporary fewer, the same bits.
    power = np.abs(un.conj().T @ steering)
    denom = np.maximum(np.sum(np.square(power, out=power), axis=0), DENOM_FLOOR)
    return SpectrumResult(grid_deg=grid_deg, values=1.0 / denom)


def pick_peaks(spec: SpectrumResult, k: int) -> tuple[np.ndarray, bool]:
    """Angles of the k largest strict local maxima, sorted ascending.

    If the spectrum has fewer than k strict interior maxima, the remaining
    slots are filled with the largest leftover grid values and the trial is
    flagged degenerate (second return value True).
    """
    vals = spec.values
    if not 1 <= k <= vals.size:
        raise ValueError(f"k={k} must satisfy 1 <= k <= {vals.size} grid points")
    is_peak = np.zeros(vals.size, dtype=bool)
    is_peak[1:-1] = (vals[1:-1] > vals[:-2]) & (vals[1:-1] > vals[2:])
    # Peaks first, then largest value first; lexsort is stable, so ties
    # resolve toward the lower angle.
    chosen = np.lexsort((-vals, ~is_peak))[:k]
    angles = np.sort(spec.grid_deg[chosen])
    return angles, int(np.count_nonzero(is_peak)) < k


def music_doas(covs, cfg: ArrayConfig, grid, k: int) -> np.ndarray:
    """The (Q, k) MUSIC angle estimates, in degrees and ascending, of a
    (Q, MN, MN) covariance stack: one ``eigh`` and one steering matrix
    serve every trial."""
    if np.ndim(covs) != 3:
        raise ValueError(f"covariances must be a (Q, MN, MN) stack, got {np.ndim(covs)} dims")
    un = noise_subspace(hermitian_eig(covs)[1], k)
    steering = steering_matrix(np.deg2rad(grid_angles(grid)), cfg)
    # One spectrum matmul per trial: a single (Q, MN-K, G) product
    # raised peak memory for no CPU gain.
    return np.vstack([pick_peaks(music_spectrum(u, cfg, grid, steering), k)[0] for u in un])


def doa_mse(estimates_deg, truths_deg) -> float:
    """Mean squared angle error over trials and targets, in radians^2.

    Rows are trials; each row of estimates and truths is sorted ascending
    before pairing, so the metric ignores target labeling.
    """
    est = np.atleast_2d(np.asarray(estimates_deg, dtype=float))
    tru = np.atleast_2d(np.asarray(truths_deg, dtype=float))
    if est.shape != tru.shape:
        raise ValueError(f"shape mismatch: {est.shape} vs {tru.shape}")
    diff = np.deg2rad(np.sort(est, axis=1) - np.sort(tru, axis=1))
    return float(np.mean(diff**2))
