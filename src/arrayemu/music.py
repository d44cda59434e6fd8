"""Subspace DOA estimation with MUSIC.

Sample covariance -> Hermitian eigendecomposition -> noise-subspace
pseudospectrum -> peak picking, plus the trial-averaged squared DOA error.
The target count K is assumed known throughout; no model-order estimation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arrays import ArrayConfig, SnapshotBlock, steering_matrix

__all__ = [
    "CovarianceEstimate",
    "EigenStructure",
    "SpectrumResult",
    "sample_covariance",
    "hermitian_eig",
    "noise_subspace",
    "music_spectrum",
    "pick_peaks",
    "doa_mse",
]

HERMITIAN_RTOL = 1e-10
# Floor on the noise-projection denominator; at exact orthogonality the
# pseudospectrum would otherwise divide by zero.
DENOM_FLOOR = 1e-12


@dataclass(frozen=True)
class CovarianceEstimate:
    """Hermitian sample covariance and the snapshot count behind it."""

    matrix: np.ndarray
    snapshots_used: int

    def __post_init__(self):
        object.__setattr__(self, "matrix", np.asarray(self.matrix, dtype=complex))
        m = self.matrix
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("covariance must be square")
        scale = max(np.linalg.norm(m), 1.0)
        if np.linalg.norm(m - m.conj().T) > HERMITIAN_RTOL * scale:
            raise ValueError("covariance matrix is not Hermitian within tolerance")


@dataclass(frozen=True)
class EigenStructure:
    """Eigenvalues (descending) and matching unitary eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


@dataclass(frozen=True)
class SpectrumResult:
    """Pseudospectrum values on a uniform angle grid (degrees)."""

    grid_deg: np.ndarray
    values: np.ndarray


def sample_covariance(block: SnapshotBlock, window=None) -> CovarianceEstimate:
    """Average outer product (1/N_s) sum_p y_p y_p^H over a pulse window.

    ``window`` is any index expression over pulses (slice, list, range);
    defaults to all pulses.  The result is explicitly symmetrized.
    """
    if window is None:
        y = block.data
    else:
        y = block.data[:, window]
    ns = y.shape[1]
    if ns < 1:
        raise ValueError("covariance window must contain at least one pulse")
    r = (y @ y.conj().T) / ns
    r = (r + r.conj().T) / 2.0
    return CovarianceEstimate(matrix=r, snapshots_used=ns)


def hermitian_eig(cov: CovarianceEstimate) -> EigenStructure:
    """Full eigendecomposition with eigenvalues sorted descending."""
    w, u = np.linalg.eigh(cov.matrix)
    order = np.argsort(w)[::-1]
    return EigenStructure(eigenvalues=w[order], eigenvectors=u[:, order])


def noise_subspace(eig: EigenStructure, k: int) -> np.ndarray:
    """Eigenvectors of the MN-K smallest eigenvalues, as columns."""
    mn = eig.eigenvalues.size
    if not 1 <= k < mn:
        raise ValueError(f"target count k={k} must satisfy 1 <= k < {mn}")
    return eig.eigenvectors[:, k:]


def music_spectrum(un: np.ndarray, cfg: ArrayConfig, grid) -> SpectrumResult:
    """MUSIC pseudospectrum 1 / ||U_n^H v(theta)||^2 on a degree grid.

    ``grid`` is (lo_deg, hi_deg, step_deg).  The projection energy is
    floored at DENOM_FLOOR before inversion.
    """
    lo, hi, step = float(grid[0]), float(grid[1]), float(grid[2])
    if step <= 0:
        raise ValueError("grid step must be positive")
    npts = int(round((hi - lo) / step)) + 1
    if npts < 1:
        raise ValueError("empty spectrum grid")
    un = np.asarray(un, dtype=complex)
    if un.ndim != 2 or un.shape[1] < 1:
        raise ValueError("noise subspace must have at least one column")
    grid_deg = lo + step * np.arange(npts)
    v = steering_matrix(np.deg2rad(grid_deg), cfg)
    denom = np.sum(np.abs(un.conj().T @ v) ** 2, axis=0)
    denom = np.maximum(denom, DENOM_FLOOR)
    return SpectrumResult(grid_deg=grid_deg, values=1.0 / denom)


def pick_peaks(spec: SpectrumResult, k: int) -> tuple[np.ndarray, bool]:
    """Angles of the k largest strict local maxima, sorted ascending.

    If the spectrum has fewer than k strict interior maxima, the remaining
    slots are filled with the largest leftover grid values and the trial is
    flagged degenerate (second return value True).
    """
    if k <= 0:
        raise ValueError("k must be positive")
    vals = spec.values
    n = vals.size
    interior = np.arange(1, n - 1)
    is_peak = (vals[interior] > vals[interior - 1]) & (vals[interior] > vals[interior + 1])
    peak_idx = interior[is_peak]
    # Largest first; ties resolved toward the lower angle.
    peak_idx = peak_idx[np.lexsort((peak_idx, -vals[peak_idx]))]
    chosen = list(peak_idx[:k])
    degenerate = len(chosen) < k
    if degenerate:
        rest = np.setdiff1d(np.arange(n), chosen)
        rest = rest[np.lexsort((rest, -vals[rest]))]
        chosen.extend(rest[: k - len(chosen)])
    angles = np.sort(spec.grid_deg[np.array(chosen)])
    return angles, degenerate


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
