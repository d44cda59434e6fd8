"""From-scratch fully connected emulator network.

Maps stacked real/imaginary low-array snapshot columns to high-array
columns: three ReLU hidden layers of widths 2L, 2L, 2H feeding a 2H output
layer (linear or ReLU).  Includes forward/backward passes, Adam, min-max
feature normalization, a seeded training loop with best-validation model
selection, and a versioned binary model format.

Data layout convention: feature-major, i.e. matrices are (features, samples)
so a snapshot block stacks directly into a batch of columns.
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .arrays import ArrayConfig, _as_rng

__all__ = [
    "MlpModel",
    "TrainConfig",
    "TrainingError",
    "stack_real_imag",
    "unstack_real_imag",
    "minmax_fit",
    "minmax_apply",
    "minmax_invert",
    "mlp_forward",
    "mlp_backward",
    "adam_step",
    "init_model",
    "train",
    "predict",
    "save_model",
    "load_model",
]

MODEL_MAGIC = b"AEMU-MLP"
MODEL_VERSION = 1
ACTIVATIONS = ("linear", "relu")
# Adam's step size and moment constants, the defaults of Kingma & Ba (ICLR 2015).
ADAM_LR = 1e-3
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


class TrainingError(RuntimeError):
    """Raised when training diverges (non-finite loss or gradients)."""


@dataclass
class MlpModel:
    """Weights, biases, output activation and the normalization statistics
    the model was trained with."""

    layer_dims: list[int]
    weights: list[np.ndarray]  # weights[i] has shape (dims[i+1], dims[i])
    biases: list[np.ndarray]
    output_activation: str = "linear"
    norm_in: np.ndarray | None = None  # (input_dim, 2) min/max columns
    norm_out: np.ndarray | None = None

    def __post_init__(self):
        if self.output_activation not in ACTIVATIONS:
            raise ValueError(f"unknown output activation {self.output_activation!r}")
        dims = self.layer_dims
        if len(self.weights) != len(dims) - 1 or len(self.biases) != len(dims) - 1:
            raise ValueError("one weight matrix and bias per layer transition required")
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.shape != (dims[i + 1], dims[i]) or b.shape != (dims[i + 1],):
                raise ValueError(f"layer {i} parameter shapes inconsistent with dims")
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise ValueError(f"layer {i} has non-finite parameters")
        for name in ("norm_in", "norm_out"):
            stats = getattr(self, name)
            if stats is not None and not np.all(np.isfinite(stats)):
                raise ValueError(f"{name} has non-finite normalization statistics")

    @property
    def input_dim(self) -> int:
        return self.layer_dims[0]

    @property
    def output_dim(self) -> int:
        return self.layer_dims[-1]


@dataclass
class TrainConfig:
    """Training-loop settings, the three a config file sets.  The seed and
    output activation are arguments of ``train``."""

    epochs: int = 150
    batch_size: int = 120
    split: tuple[float, float, float] = (0.75, 0.25, 0.0)

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")
        if len(self.split) != 3:
            raise ValueError(
                f"split needs 3 fractions (train, validation, test), got {len(self.split)}"
            )
        if abs(sum(self.split) - 1.0) > 1e-9:
            raise ValueError("split fractions must sum to 1")
        if self.split[0] <= 0 or self.split[1] <= 0 or self.split[2] < 0:
            raise ValueError(
                "split needs positive training and validation fractions "
                "and a non-negative held-out fraction"
            )


def stack_real_imag(block: np.ndarray) -> np.ndarray:
    """Stack a complex block into reals: real parts on top, imaginary below."""
    return np.vstack([block.real, block.imag])


def unstack_real_imag(data: np.ndarray) -> np.ndarray:
    """Inverse of stack_real_imag, rebuilding the complex block."""
    half, odd = divmod(data.shape[0], 2)
    if odd:
        raise ValueError(f"stacked data needs an even row count, got {data.shape[0]}")
    return data[:half] + 1j * data[half:]


def minmax_fit(data: np.ndarray) -> np.ndarray:
    """Per-feature (min, max) over samples; returns an (F, 2) array."""
    data = np.asarray(data, dtype=float)
    if data.ndim != 2 or data.shape[1] < 1:
        raise ValueError("need a (features, samples) matrix with >= 1 sample")
    return np.column_stack([data.min(axis=1), data.max(axis=1)])


def _minmax_map(stats: np.ndarray, invert: bool = False):
    """The elementwise map of minmax_apply, or with ``invert`` that of
    minmax_invert, as a function that rewrites a float64 (features,
    samples) array in place and returns it.  The divisor and the rows of
    constant features are worked out once, here."""
    lo, hi = stats[:, 0:1], stats[:, 1:2]
    span = hi - lo
    flat = np.flatnonzero(~(span[:, 0] > 0))
    if invert:

        def apply(data):
            data *= span
            data += lo
            data[flat] = lo[flat]
            return data

    else:
        safe = np.where(span > 0, span, 1.0)

        def apply(data):
            data -= lo
            data /= safe
            data[flat] = 0.0
            return data

    return apply


def minmax_apply(data: np.ndarray, stats: np.ndarray) -> np.ndarray:
    """Map features to (x - min) / (max - min).

    Constant features map to 0.  Values outside the fitted range pass
    through unclamped, so unseen test conditions may fall outside [0, 1].
    """
    return _minmax_map(stats)(np.array(data, dtype=float))


def minmax_invert(data: np.ndarray, stats: np.ndarray) -> np.ndarray:
    """Exact inverse of minmax_apply on non-constant features; constant
    features reproduce their fitted value."""
    return _minmax_map(stats, invert=True)(np.array(data, dtype=float))


def _layers(model: MlpModel, a: np.ndarray):
    """Yield the activation of each layer in turn for the batch ``a``; the
    bias and ReLU act in place on each layer's matmul result."""
    last = len(model.weights) - 1
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        a = w @ a
        a += b[:, None]
        if i < last or model.output_activation == "relu":
            np.maximum(a, 0.0, out=a)
        yield a


def mlp_forward(model: MlpModel, x: np.ndarray):
    """Forward pass of a (features, samples) batch; a single sample is an
    (F, 1) batch.

    Returns the (outputs, samples) output plus the list of cached layer
    activations (post-activation, input included) needed by mlp_backward.
    """
    a = np.asarray(x, dtype=float)
    if a.ndim != 2 or a.shape[0] != model.input_dim:
        raise ValueError(f"input must be a ({model.input_dim}, samples) batch, got {a.shape}")
    activations = [a, *_layers(model, a)]
    return activations[-1], activations


def mlp_backward(model: MlpModel, x: np.ndarray, target: np.ndarray):
    """Gradients of the MSE loss for a (features, samples) input batch and
    its (outputs, samples) target batch.

    The loss is the squared error averaged over output features and over
    the batch; batch gradients are therefore means of per-sample gradients.
    Returns (grad_weights, grad_biases, loss).
    """
    a = np.asarray(x, dtype=float)
    t = np.asarray(target, dtype=float)
    if a.ndim != 2 or t.shape != (model.output_dim, a.shape[1]):
        raise ValueError(
            f"input {a.shape} and target {t.shape} must be (features, samples) batches "
            f"with {model.output_dim} target rows and equal samples"
        )
    out, acts = mlp_forward(model, a)
    batch = a.shape[1]
    err = out - t
    loss = float(np.mean(err**2))
    # d(loss)/d(out): mean over output dim and batch.
    delta = 2.0 * err / (model.output_dim * batch)
    if model.output_activation == "relu":
        delta = delta * (acts[-1] > 0)
    grad_w: list[np.ndarray] = [None] * len(model.weights)
    grad_b: list[np.ndarray] = [None] * len(model.weights)
    for i in range(len(model.weights) - 1, -1, -1):
        grad_w[i] = delta @ acts[i].T
        grad_b[i] = delta.sum(axis=1)
        if i > 0:
            delta = (model.weights[i].T @ delta) * (acts[i] > 0)
    return grad_w, grad_b, loss


def adam_step(
    param: np.ndarray, grad: np.ndarray, m: np.ndarray, v: np.ndarray, step: int
) -> None:
    """Adam update number ``step`` (counting from 1), with bias correction
    and the ``ADAM_*`` constants, applied in place to ``param`` and its
    first and second moments ``m`` and ``v``."""
    if not np.all(np.isfinite(grad)):
        raise TrainingError("non-finite gradient passed to the optimizer")
    m *= ADAM_BETA1
    m += (1 - ADAM_BETA1) * grad
    v *= ADAM_BETA2
    v += (1 - ADAM_BETA2) * grad**2
    m_hat = m / (1 - ADAM_BETA1**step)
    v_hat = v / (1 - ADAM_BETA2**step)
    param -= ADAM_LR * m_hat / (np.sqrt(v_hat) + ADAM_EPSILON)


def init_model(
    layer_dims: list[int],
    output_activation: str,
    rng,
) -> MlpModel:
    """He-style uniform fan-in initialization, zero biases."""
    rng = _as_rng(rng)
    weights, biases = [], []
    for fan_in, fan_out in zip(layer_dims[:-1], layer_dims[1:]):
        limit = np.sqrt(6.0 / fan_in)
        weights.append(rng.uniform(-limit, limit, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return MlpModel(
        layer_dims=list(layer_dims),
        weights=weights,
        biases=biases,
        output_activation=output_activation,
    )


def default_layer_dims(input_dim: int, output_dim: int) -> list[int]:
    """Hidden widths matching the stacked input/output sizes: the two first
    hidden layers repeat the input width, the third the output width."""
    return [input_dim, input_dim, input_dim, output_dim, output_dim]


def _flat_params(model: MlpModel) -> np.ndarray:
    """Copy every weight and bias into one contiguous float64 buffer and
    rebind the model's parameters as reshaped views of it."""
    params = list(model.weights) + list(model.biases)
    flat = np.concatenate([p.ravel() for p in params])
    views, start = [], 0
    for p in params:
        views.append(flat[start : start + p.size].reshape(p.shape))
        start += p.size
    n = len(model.weights)
    model.weights, model.biases = views[:n], views[n:]
    return flat


def _mse(model: MlpModel, x: np.ndarray, t: np.ndarray) -> float:
    """Mean squared error of the model on ``x`` against ``t``, holding at
    most two layers' activations at a time."""
    for out in _layers(model, x):
        pass
    out -= t
    np.square(out, out=out)
    return float(np.mean(out))


def train(
    inputs: np.ndarray,
    targets: np.ndarray,
    cfg: TrainConfig,
    seed: int,
    output_activation: str,
    layer_dims: list[int] | None = None,
):
    """Train an emulator with ``output_activation`` on (features, samples)
    input/target matrices.

    The sample pool is shuffled once by a generator seeded with ``seed``,
    which also initializes the weights, and split per cfg.split into
    train/validation/held-out parts; the held-out part is not touched here.
    Normalization statistics are fitted on the training part only.  Returns
    the model with the weights of the best-validation epoch together with
    the per-epoch {"train": [...], "val": [...]} loss history: "train" is
    the mean of the epoch's batch losses, each taken before its Adam step,
    and "val" the validation loss measured after the epoch.

    Besides the caller's arrays, only one normalized copy of the validation
    columns lives as long as the call.  The statistics are fitted on a
    throwaway gather of the training columns, one matrix at a time; each
    step gathers its batch and normalizes it in place, and the validation
    pass keeps no layer's activations but the two in use.  One epoch on the
    default-scale M1 (112 000 samples, 32 → 128 features) in a fresh
    process peaks at 279 MB of RSS, down from 461 MB with a normalized
    training copy, and trains the same bits.
    """
    x = np.asarray(inputs, dtype=float)
    t = np.asarray(targets, dtype=float)
    if x.ndim != 2 or t.ndim != 2 or x.shape[1] != t.shape[1]:
        raise ValueError("inputs and targets must be (features, samples) with equal samples")
    n = x.shape[1]
    if n < cfg.batch_size:
        raise ValueError(f"dataset size {n} smaller than batch size {cfg.batch_size}")
    # min and max are NaN or infinite exactly when some entry is, and unlike
    # np.isfinite they allocate no temporary of the data's size.
    for name, data in (("inputs", x), ("targets", t)):
        if not (np.isfinite(data.min()) and np.isfinite(data.max())):
            raise ValueError(f"{name} hold a non-finite value")

    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    n_train = int(round(cfg.split[0] * n))
    n_val = int(round(cfg.split[1] * n))
    idx_train = order[:n_train]
    idx_val = order[n_train : n_train + n_val]
    if idx_train.size < 1 or idx_val.size < 1:
        raise ValueError("split leaves an empty training or validation part")

    # Each gather is a fresh F-ordered copy that the maps may overwrite; a
    # batch keeps the layout that sets gemm's transpose flags, and so its bits.
    norm_in = minmax_fit(x[:, idx_train])
    norm_out = minmax_fit(t[:, idx_train])
    norm_x, norm_t = _minmax_map(norm_in), _minmax_map(norm_out)
    x_val, t_val = norm_x(x[:, idx_val]), norm_t(t[:, idx_val])

    if layer_dims is None:
        layer_dims = default_layer_dims(x.shape[0], t.shape[0])
    model = init_model(layer_dims, output_activation, rng)
    model.norm_in = norm_in
    model.norm_out = norm_out

    flat = _flat_params(model)
    m, v, step = np.zeros_like(flat), np.zeros_like(flat), 0
    history = {"train": [], "val": []}
    best_val = np.inf
    best = flat.copy()

    n_tr = idx_train.size
    for _epoch in range(cfg.epochs):
        perm = rng.permutation(n_tr)
        losses = []
        for start in range(0, n_tr, cfg.batch_size):
            step += 1
            batch = idx_train[perm[start : start + cfg.batch_size]]
            gw, gb, loss = mlp_backward(model, norm_x(x[:, batch]), norm_t(t[:, batch]))
            if not np.isfinite(loss):
                raise TrainingError(f"loss became non-finite at step {step}")
            adam_step(flat, np.concatenate([g.ravel() for g in gw + gb]), m, v, step)
            losses.append(loss)
        val_loss = _mse(model, x_val, t_val)
        history["train"].append(float(np.mean(losses)))
        history["val"].append(val_loss)
        if val_loss < best_val:
            best_val = val_loss
            best = flat.copy()

    flat[:] = best
    return model, history


def predict(model: MlpModel, block: np.ndarray, high_array: ArrayConfig) -> np.ndarray:
    """Emulate the complex (MN, P) high-array observation for a complex
    low-array block with ``model.input_dim / 2`` rows.

    Columns are processed independently: stack real/imag, normalize with
    the stored input statistics, run the network, undo the output
    normalization and reassemble a complex block for ``high_array``.
    """
    if model.norm_in is None or model.norm_out is None:
        raise ValueError("model has no normalization statistics; train or load it first")
    if block.ndim != 2 or 2 * block.shape[0] != model.input_dim:
        raise ValueError(
            f"block has shape {block.shape}, model expects {model.input_dim // 2} rows"
        )
    if model.output_dim != 2 * high_array.virtual_size:
        raise ValueError("model output does not match the requested high array size")
    stacked = np.asarray(stack_real_imag(block), dtype=float)
    out, _ = mlp_forward(model, _minmax_map(model.norm_in)(stacked))
    return unstack_real_imag(_minmax_map(model.norm_out, invert=True)(out))


def save_model(model: MlpModel, path) -> None:
    """Write the versioned binary model file (little-endian float64 blocks)."""
    if model.norm_in is None or model.norm_out is None:
        raise ValueError("refusing to save a model without normalization statistics")
    with atomic_write(path) as f:
        f.write(MODEL_MAGIC)
        dims = model.layer_dims
        f.write(np.array([MODEL_VERSION, len(dims), *dims], dtype="<u4").data)
        f.write(np.array(ACTIVATIONS.index(model.output_activation), dtype="u1").data)
        f.write(np.ascontiguousarray(model.norm_in, dtype="<f8").data)
        f.write(np.ascontiguousarray(model.norm_out, dtype="<f8").data)
        for w, b in zip(model.weights, model.biases):
            f.write(np.ascontiguousarray(w, dtype="<f8").data)
            f.write(np.ascontiguousarray(b, dtype="<f8").data)


@contextmanager
def atomic_write(path):
    """Open a hidden temp file beside ``path`` for binary writing and move it
    onto ``path`` only once the block finishes; on any error the temp file is
    removed, so ``path`` never holds a partly written file.  The target's
    directory is created if it is missing."""
    head, name = os.path.split(path)
    os.makedirs(head or os.curdir, exist_ok=True)
    tmp = os.path.join(head, f".{name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def read_block(f, shape, path, kind: str, dtype: str = "<f8") -> np.ndarray:
    """Read one little-endian array of ``shape`` from the open file ``f``;
    a block longer than the rest of the file, or a short read, raises
    ``ValueError("<path>: truncated <kind> file")``."""
    # The block's size in Python ints, checked before anything is allocated,
    # so a corrupt header cannot ask for more memory than the file holds.
    nbytes = math.prod(shape) * np.dtype(dtype).itemsize
    if nbytes <= os.fstat(f.fileno()).st_size - f.tell():
        out = np.empty(shape, dtype=dtype)
        # Read straight into the array's bytes: a 0-d or structured array
        # too is one flat run of unsigned bytes.
        if f.readinto(out.reshape(-1).view(np.uint8)) == nbytes:
            return out
    raise ValueError(f"{path}: truncated {kind} file")


def expect_end(f, path, kind: str) -> None:
    """Raise ``ValueError("<path>: trailing bytes after the <kind> file's
    last block")`` unless the open file ``f`` is at its end."""
    if f.read(1):
        raise ValueError(f"{path}: trailing bytes after the {kind} file's last block")


def load_model(path) -> MlpModel:
    """Read a model file written by save_model; bit-exact round trip."""
    with open(path, "rb") as f:
        magic = f.read(len(MODEL_MAGIC))
        if magic != MODEL_MAGIC:
            raise ValueError(f"{path}: not an emulator model file")
        version, n_dims = read_block(f, (2,), path, "model", "<u4").tolist()
        if version != MODEL_VERSION:
            raise ValueError(f"{path}: unsupported model format version {version}")
        if n_dims < 2:
            raise ValueError(f"{path}: model needs at least 2 layer sizes, got {n_dims}")
        dims = read_block(f, (n_dims,), path, "model", "<u4").tolist()
        act_flag = int(read_block(f, (), path, "model", "u1"))
        if act_flag >= len(ACTIVATIONS):
            raise ValueError(f"{path}: unknown output activation flag {act_flag}")
        activation = ACTIVATIONS[act_flag]

        norm_in = read_block(f, (dims[0], 2), path, "model")
        norm_out = read_block(f, (dims[-1], 2), path, "model")
        weights, biases = [], []
        for i in range(n_dims - 1):
            weights.append(read_block(f, (dims[i + 1], dims[i]), path, "model"))
            biases.append(read_block(f, (dims[i + 1],), path, "model"))
        expect_end(f, path, "model")
    return MlpModel(
        layer_dims=dims,
        weights=weights,
        biases=biases,
        output_activation=activation,
        norm_in=norm_in,
        norm_out=norm_out,
    )
