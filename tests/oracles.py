"""Independent reference implementations used only by the tests.

These deliberately avoid the library's code paths (and numpy's eigensolver)
so they can serve as oracles: a cyclic Jacobi eigensolver for Hermitian
matrices, a loop-based MLP forward pass, central finite differences for
gradients, a loop-based MUSIC pseudospectrum, and the straightforward forms
of the training loop, of the scene sampler, of the snapshot noise, of the
SNR-offset noise streams and of the per-trial MUSIC evaluation that the
library's faster versions must reproduce bit for bit.
"""

from __future__ import annotations

import cmath
import math

import numpy as np


def jacobi_eigvals(h: np.ndarray, tol: float = 1e-13, max_sweeps: int = 60) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix via cyclic complex Jacobi rotations.

    Returns eigenvalues sorted descending.  Convergence: off-diagonal
    Frobenius mass below ``tol`` times the matrix norm.
    """
    a = np.array(h, dtype=complex)
    n = a.shape[0]
    if n == 1:
        return np.array([a[0, 0].real])
    scale = max(np.linalg.norm(a), 1e-300)
    for _sweep in range(max_sweeps):
        off = math.sqrt(max(np.sum(np.abs(a) ** 2) - np.sum(np.abs(np.diag(a)) ** 2), 0.0))
        if off <= tol * scale:
            break
        thresh = off / n  # rotate only pivots carrying real mass this sweep
        for p in range(n - 1):
            for q in range(p + 1, n):
                r = abs(a[p, q])
                if r <= thresh * 1e-3 or r == 0.0:
                    continue
                phi = cmath.phase(a[p, q])
                d = (a[p, p].real - a[q, q].real) / (2.0 * r)
                sgn = 1.0 if d >= 0 else -1.0
                t = -sgn / (abs(d) + math.sqrt(d * d + 1.0))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                ephi = cmath.exp(1j * phi)
                # A <- J^H A J with the complex Givens rotation on (p, q)
                col_p = a[:, p].copy()
                col_q = a[:, q].copy()
                a[:, p] = c * col_p - s * np.conj(ephi) * col_q
                a[:, q] = s * ephi * col_p + c * col_q
                row_p = a[p, :].copy()
                row_q = a[q, :].copy()
                a[p, :] = c * row_p - s * ephi * row_q
                a[q, :] = s * np.conj(ephi) * row_p + c * row_q
                a[p, q] = 0.0
                a[q, p] = 0.0
    return np.sort(np.diag(a).real)[::-1]


def forward_chain(weights, biases, output_activation: str, x: np.ndarray) -> np.ndarray:
    """MLP forward pass written as explicit per-neuron loops."""
    a = [float(v) for v in x]
    n_layers = len(weights)
    for i, (w, b) in enumerate(zip(weights, biases)):
        out = []
        for j in range(w.shape[0]):
            z = b[j]
            for k in range(w.shape[1]):
                z += w[j, k] * a[k]
            last = i == n_layers - 1
            if last and output_activation == "linear":
                out.append(z)
            else:
                out.append(z if z > 0 else 0.0)
        a = out
    return np.array(a)


def fd_gradients(model, x: np.ndarray, target: np.ndarray, h: float = 1e-5):
    """Central finite differences of the MSE loss w.r.t. every parameter.

    Returns (grad_weights, grad_biases) matching the model's layout.
    """
    from arrayemu.network import mlp_forward

    def loss():
        out, _ = mlp_forward(model, x)
        return float(np.mean((out - np.asarray(target)) ** 2))

    grads_w, grads_b = [], []
    for params, grads in ((model.weights, grads_w), (model.biases, grads_b)):
        for p in params:
            g = np.zeros_like(p)
            it = np.nditer(p, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = p[idx]
                p[idx] = orig + h
                lp = loss()
                p[idx] = orig - h
                lm = loss()
                p[idx] = orig
                g[idx] = (lp - lm) / (2 * h)
            grads.append(g)
    return grads_w, grads_b


def brute_spectrum(un: np.ndarray, m: int, n: int, spacing: float, grid_deg: np.ndarray) -> np.ndarray:
    """Loop-based MUSIC pseudospectrum for an m x n virtual ULA."""
    vals = np.empty(grid_deg.size)
    for gi, deg in enumerate(grid_deg):
        sin_t = math.sin(math.radians(deg))
        v = np.empty(m * n, dtype=complex)
        for mi in range(m):
            for ni in range(n):
                v[mi * n + ni] = cmath.exp(1j * 2 * math.pi * spacing * (mi + ni) * sin_t)
        denom = 0.0
        for col in range(un.shape[1]):
            denom += abs(np.vdot(un[:, col], v)) ** 2
        vals[gi] = 1.0 / max(denom, 1e-12)
    return vals


def reference_train(inputs, targets, cfg, seed, output_activation):
    """The training loop in its plain form: out-of-place min-max
    normalization of the whole set, one out-of-place Adam update per
    parameter array, an out-of-place forward pass for the losses and a full
    training-split pass after every epoch.

    Shares only the library's split, initialization and backward pass, so
    the result must equal ``network.train``'s bit for bit.  Returns
    (weights, biases, history).
    """
    from arrayemu.network import default_layer_dims, init_model, mlp_backward

    def normalize(data, fit):
        lo = fit.min(axis=1, keepdims=True)
        span = fit.max(axis=1, keepdims=True) - lo
        safe = np.where(span > 0, span, 1.0)
        return np.where(span > 0, (data - lo) / safe, 0.0)

    def mse(x, t):
        a = x
        for i, (w, b) in enumerate(zip(model.weights, model.biases)):
            a = w @ a + b[:, None]
            if i < n_w - 1 or output_activation == "relu":
                a = np.maximum(a, 0.0)
        return float(np.mean((a - t) ** 2))

    x = np.asarray(inputs, dtype=float)
    t = np.asarray(targets, dtype=float)
    n = x.shape[1]
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    n_train = int(round(cfg.split[0] * n))
    n_val = int(round(cfg.split[1] * n))
    idx_train = order[:n_train]
    idx_val = order[n_train : n_train + n_val]
    xn = normalize(x, x[:, idx_train])
    tn = normalize(t, t[:, idx_train])
    x_tr, t_tr = xn[:, idx_train], tn[:, idx_train]
    x_val, t_val = xn[:, idx_val], tn[:, idx_val]
    model = init_model(default_layer_dims(x.shape[0], t.shape[0]), output_activation, rng)

    n_w = len(model.weights)
    params = list(model.weights) + list(model.biases)
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    step = 0
    history = {"train": [], "val": []}
    best_val, best = np.inf, [p.copy() for p in params]
    for _epoch in range(cfg.epochs):
        perm = rng.permutation(x_tr.shape[1])
        for start in range(0, x_tr.shape[1], cfg.batch_size):
            batch = perm[start : start + cfg.batch_size]
            gw, gb, _ = mlp_backward(model, x_tr[:, batch], t_tr[:, batch])
            step += 1
            new = []
            # Adam's literal defaults (Kingma & Ba), not network's constants.
            for p, g, mi, vi in zip(params, gw + gb, m, v):
                mi *= 0.9
                mi += (1 - 0.9) * g
                vi *= 0.999
                vi += (1 - 0.999) * g**2
                m_hat = mi / (1 - 0.9**step)
                v_hat = vi / (1 - 0.999**step)
                new.append(p - 1e-3 * m_hat / (np.sqrt(v_hat) + 1e-8))
            params = new
            model.weights, model.biases = params[:n_w], params[n_w:]
        history["train"].append(mse(x_tr, t_tr))
        val_loss = mse(x_val, t_val)
        history["val"].append(val_loss)
        if val_loss < best_val:
            best_val, best = val_loss, [p.copy() for p in params]
    return best[:n_w], best[n_w:], history


def reference_draw_scene(range_deg, k, min_sep_deg, pulses, rng, max_rejections=None):
    """Rejection sampler with a numpy sort and diff per candidate, followed
    by the Swerling-II reflectivity draw.  Returns (angles_rad, rcs).

    With ``max_rejections`` it counts rejected candidates and raises
    ValueError when the count reaches it."""
    lo, hi = float(range_deg[0]), float(range_deg[1])
    rejections = 0
    while True:
        angles = np.sort(rng.uniform(lo, hi, size=k))
        if k == 1 or np.all(np.diff(angles) >= min_sep_deg):
            break
        rejections += 1
        if max_rejections is not None and rejections >= max_rejections:
            raise ValueError(f"not satisfied after {max_rejections} rejections")
    re = rng.standard_normal((k, pulses))
    im = rng.standard_normal((k, pulses))
    return np.deg2rad(angles), (re + 1j * im) / np.sqrt(2.0)


def reference_synthesize_block(angles_rad, rcs, cfg, snr_db, rng):
    """Y = A X + N with the noise drawn as two separate real and imaginary
    arrays and added as ``scale * (re + 1j*im)``.  Returns the data array."""
    from arrayemu.arrays import steering_matrix

    y = steering_matrix(angles_rad, cfg) @ rcs
    sigma2 = 10.0 ** (-snr_db / 10.0)
    if sigma2 > 0:
        scale = np.sqrt(sigma2 / 2.0)
        y = y + scale * (rng.standard_normal(y.shape) + 1j * rng.standard_normal(y.shape))
    return y


def reference_offset_covs(bank_entropy, angles_rad, rcs, cfg, snr_db, offset_index):
    """High-array covariances of a test bank's scenes re-synthesized at
    ``snr_db`` in the spawn() layout of SNR-offset noise: at the i-th
    nonzero entry of denoise_offsets_db, trial q of Q draws its noise from
    ``ss.spawn(Q)[q].spawn(i + 1)[i]``, ``ss`` being the bank's seed
    sequence, rebuilt here from ``bank_entropy``.  Returns a (Q, MN, MN)
    stack of (y yᴴ / P + its conjugate transpose) / 2."""
    ss = np.random.SeedSequence(bank_entropy)
    covs = []
    for q, trial_seed in enumerate(ss.spawn(len(angles_rad))):
        rng = np.random.default_rng(trial_seed.spawn(offset_index + 1)[offset_index])
        y = reference_synthesize_block(angles_rad[q], rcs[q], cfg, snr_db, rng)
        r = (y @ y.conj().T) / y.shape[1]
        covs.append((r + r.conj().T) / 2.0)
    return np.stack(covs)


def reference_pick_peaks(values: np.ndarray, grid_deg: np.ndarray, k: int):
    """Peak picking with the leftover slots filled from ``setdiff1d`` of the
    chosen peaks: the k largest strict interior maxima (ties toward the
    lower angle), then the largest remaining grid values.  Returns
    (angles sorted ascending, degenerate flag)."""
    n = values.size
    interior = np.arange(1, n - 1)
    is_peak = (values[interior] > values[interior - 1]) & (values[interior] > values[interior + 1])
    peak_idx = interior[is_peak]
    peak_idx = peak_idx[np.lexsort((peak_idx, -values[peak_idx]))]
    chosen = list(peak_idx[:k])
    degenerate = len(chosen) < k
    if degenerate:
        rest = np.setdiff1d(np.arange(n), chosen)
        rest = rest[np.lexsort((rest, -values[rest]))]
        chosen.extend(rest[: k - len(chosen)])
    return np.sort(grid_deg[np.array(chosen, dtype=int)]), degenerate


def reference_music_mse(blocks, array, truths_deg, grid, k: int):
    """MUSIC DOA MSE with one covariance, one eigendecomposition and one
    grid steering matrix per trial block, and ``reference_pick_peaks``.
    Returns (mse, list of per-trial covariance matrices)."""
    from arrayemu.arrays import steering_matrix
    from arrayemu.music import doa_mse

    lo, hi, step = grid
    grid_deg = lo + step * np.arange(int(round((hi - lo) / step)) + 1)
    estimates, covs = [], []
    for y in blocks:
        r = (y @ y.conj().T) / y.shape[1]
        r = (r + r.conj().T) / 2.0
        w, u = np.linalg.eigh(r)
        un = u[:, np.argsort(w)[::-1]][:, k:]
        v = steering_matrix(np.deg2rad(grid_deg), array)
        denom = np.maximum(np.sum(np.abs(un.conj().T @ v) ** 2, axis=0), 1e-12)
        estimates.append(reference_pick_peaks(1.0 / denom, grid_deg, k)[0])
        covs.append(r)
    return doa_mse(np.vstack(estimates), truths_deg), covs
