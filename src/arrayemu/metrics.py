"""Covariance-fidelity metrics and the Cramér–Rao bound for DOA.

The bound is the conditional (deterministic-signal) form: it is evaluated
with a concrete reflectivity realization X, using the orthogonal projector
onto the complement of the steering-matrix column space and the analytic
steering-vector derivatives.
"""

from __future__ import annotations

import numpy as np

from .arrays import ArrayConfig, steering_matrix

__all__ = [
    "cov_error",
    "steering_derivative",
    "crb",
]

_COND_LIMIT = 1e12


def cov_error(r_ref, r_pre) -> float:
    """Relative Frobenius error ||R_ref - R_pre||_F / ||R_ref||_F.

    For two (Q, n, n) stacks, the mean of the Q per-matrix errors.
    """
    a, b = np.asarray(r_ref), np.asarray(r_pre)
    if a.shape != b.shape:
        raise ValueError(f"covariance shapes differ: {a.shape} vs {b.shape}")
    errors = []
    for ra, rb in zip(a.reshape(-1, *a.shape[-2:]), b.reshape(-1, *b.shape[-2:])):
        denom = np.linalg.norm(ra)
        if denom == 0:
            raise ValueError("reference covariance has zero norm")
        errors.append(np.linalg.norm(ra - rb) / denom)
    return float(np.mean(errors))


def steering_derivative(angles_rad, cfg: ArrayConfig) -> np.ndarray:
    """Analytic d v(theta)/d theta, one column per angle like steering_matrix.

    With v laid out TX-major, the (m, n) element picks up the factor
    j * 2*pi*(d/lambda) * (m + n) * cos(theta).
    """
    a = steering_matrix(angles_rad, cfg)
    m_plus_n = np.add.outer(np.arange(cfg.tx_count), np.arange(cfg.rx_count)).ravel()
    factor = 1j * 2 * np.pi * cfg.spacing_wavelengths * np.cos(np.atleast_1d(angles_rad))
    return np.multiply.outer(m_plus_n, factor) * a


def crb(angles_rad, x: np.ndarray, sigma2: float, cfg: ArrayConfig) -> np.ndarray:
    """Cramér–Rao bound for the K target angles given a reflectivity
    realization ``x`` (K x N_s) and per-entry noise variance ``sigma2``.

    CRB = (sigma^2 / 2) * inv(Re[(A_e^H P A_e) ∘ (X X^H)^T]) with P the
    projector onto the orthogonal complement of the steering-matrix range;
    the Hadamard product carries the per-snapshot reflectivity weighting.
    Returns the K x K bound; its diagonal is the per-target variance in
    radians^2.

    A (Q, K) angle stack with a (Q, K, N_s) reflectivity stack gives a
    (Q, K, K) stack of Q bounds at once, each equal to that scene's own.
    """
    angles_rad = np.asarray(angles_rad, dtype=float)
    x = np.asarray(x, dtype=complex)
    stacked = angles_rad.ndim == 2
    if not stacked:
        angles_rad, x = np.atleast_1d(angles_rad)[None], np.atleast_2d(x)[None]
    q, k = angles_rad.shape
    if x.ndim != 3 or x.shape[:2] != (q, k):
        raise ValueError("reflectivity matrix must have one row per target")
    if not sigma2 > 0:
        raise ValueError("noise variance must be positive")
    mn = cfg.virtual_size

    def per_scene(columns):
        # (MN, Q*K) columns -> a contiguous (Q, MN, K) stack.
        return np.ascontiguousarray(columns.reshape(mn, q, k).transpose(1, 0, 2))

    flat = angles_rad.ravel()
    a = per_scene(steering_matrix(flat, cfg))
    ah = a.conj().swapaxes(-2, -1)
    gram = ah @ a
    if np.any(np.linalg.cond(gram) > _COND_LIMIT):
        raise ValueError("steering matrix is rank deficient (coincident angles?)")
    ae = per_scene(steering_derivative(flat, cfg))
    # P = I - A (A^H A)^-1 A^H, written over the product: a second
    # (Q, MN, MN) temporary cost more in page faults than the arithmetic.
    proj = a @ np.linalg.solve(gram, ah)
    np.subtract(np.eye(mn), proj, out=proj)
    xxh = x @ x.conj().swapaxes(-2, -1)
    # A huge d/lambda overflows these products; the check below names it.
    with np.errstate(over="ignore", invalid="ignore"):
        fisher = np.real((ae.conj().swapaxes(-2, -1) @ proj @ ae) * xxh.swapaxes(-2, -1))
    if not np.all(np.isfinite(fisher)):
        raise ValueError("Fisher information has a non-finite entry")
    if np.any(np.linalg.cond(fisher) > _COND_LIMIT):
        raise ValueError("degenerate scene: Fisher information is singular")
    bound = (sigma2 / 2.0) * np.linalg.inv(fisher)
    return bound if stacked else bound[0]
