"""Covariance-fidelity metrics and the Cramér–Rao bound for DOA.

The bound is the conditional (deterministic-signal) form: it is evaluated
with a concrete reflectivity realization X, using the orthogonal projector
onto the complement of the steering-matrix column space and the analytic
steering-vector derivatives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arrays import ArrayConfig, steering_matrix, virtual_steering
from .music import CovarianceEstimate

__all__ = [
    "CrbResult",
    "cov_error",
    "steering_derivative",
    "crb",
]

_COND_LIMIT = 1e12


@dataclass(frozen=True)
class CrbResult:
    """K x K bound matrix and its diagonal (per-target variance, radians^2)."""

    matrix: np.ndarray
    diagonal_rad2: np.ndarray


def cov_error(r_ref: CovarianceEstimate, r_pre: CovarianceEstimate) -> float:
    """Relative Frobenius error ||R_ref - R_pre||_F / ||R_ref||_F."""
    a, b = r_ref.matrix, r_pre.matrix
    if a.shape != b.shape:
        raise ValueError(f"covariance shapes differ: {a.shape} vs {b.shape}")
    denom = np.linalg.norm(a)
    if denom == 0:
        raise ValueError("reference covariance has zero norm")
    return float(np.linalg.norm(a - b) / denom)


def _derivative_factor(theta_rad, cfg: ArrayConfig) -> np.ndarray:
    """j * 2*pi*(d/lambda) * (m + n) * cos(theta), TX-major rows; an array
    of angles adds trailing axes, matching steering_matrix's columns."""
    m_plus_n = np.add.outer(np.arange(cfg.tx_count), np.arange(cfg.rx_count)).ravel()
    factor = 1j * 2 * np.pi * cfg.spacing_wavelengths * np.cos(theta_rad)
    return np.multiply.outer(m_plus_n, factor)


def steering_derivative(theta_rad: float, cfg: ArrayConfig) -> np.ndarray:
    """Analytic d v(theta)/d theta for the virtual steering vector.

    With v laid out TX-major, the (m, n) element picks up the factor
    j * 2*pi*(d/lambda) * (m + n) * cos(theta).
    """
    return _derivative_factor(theta_rad, cfg) * virtual_steering(theta_rad, cfg)


def crb(angles_rad, x: np.ndarray, sigma2: float, cfg: ArrayConfig) -> CrbResult:
    """Cramér–Rao bound for the K target angles given a reflectivity
    realization ``x`` (K x N_s) and per-entry noise variance ``sigma2``.

    CRB = (sigma^2 / 2) * inv(Re[(A_e^H P A_e) ∘ (X X^H)^T]) with P the
    projector onto the orthogonal complement of the steering-matrix range;
    the Hadamard product carries the per-snapshot reflectivity weighting.
    """
    angles_rad = np.atleast_1d(np.asarray(angles_rad, dtype=float))
    x = np.atleast_2d(np.asarray(x, dtype=complex))
    k = angles_rad.size
    if x.shape[0] != k:
        raise ValueError("reflectivity matrix must have one row per target")
    if not sigma2 > 0:
        raise ValueError("noise variance must be positive")
    a = steering_matrix(angles_rad, cfg)
    gram = a.conj().T @ a
    if np.linalg.cond(gram) > _COND_LIMIT:
        raise ValueError("steering matrix is rank deficient (coincident angles?)")
    ae = _derivative_factor(angles_rad, cfg) * a
    mn = a.shape[0]
    proj = np.eye(mn) - a @ np.linalg.solve(gram, a.conj().T)
    fisher = np.real((ae.conj().T @ proj @ ae) * (x @ x.conj().T).T)
    if np.linalg.cond(fisher) > _COND_LIMIT:
        raise ValueError("degenerate scene: Fisher information is singular")
    bound = (sigma2 / 2.0) * np.linalg.inv(fisher)
    return CrbResult(matrix=bound, diagonal_rad2=np.diag(bound).copy())
