"""Experiment harness: dataset construction, per-SNR training, test sweeps,
training-SNR grids and denoising analysis, at configurable scale.

The protocol: for each angle range, build 14 single-SNR training sets over
the training-SNR grid plus two mixed sets M1 (large) and M2 (small) with
equal per-SNR proportions; train one emulator per set; then evaluate MUSIC
DOA accuracy on fresh Q-trial test banks of N_s-snapshot blocks, against
raw low/high baselines and Cramér–Rao bounds.

Everything is derived from one master seed, so datasets, models and result
tables are reproducible byte for byte.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .arrays import (
    ArrayConfig,
    check_spacing,
    draw_scene,
    snr_to_noise_var,
    synthesize_block,
    synthesize_pair,
)
from .metrics import cov_error, crb
from .music import doa_mse, grid_angles, music_doas, sample_covariance
from .network import (
    ACTIVATIONS,
    MlpModel,
    TrainConfig,
    atomic_write,
    expect_end,
    load_model,
    predict,
    read_block,
    save_model,
    stack_real_imag,
    train,
)

__all__ = [
    "ExperimentConfig",
    "SweepRow",
    "SweepResult",
    "Harness",
    "write_results",
    "read_results",
    "write_dataset",
    "read_dataset",
    "parse_config_file",
]

DATASET_MAGIC = b"AEMU-DSET"
DATASET_VERSION = 1
# Packed little-endian (version, samples, input dim, target dim).
DATASET_HEADER = "<u4,<u8,<u4,<u4"

CASES = ("mixed_M1", "matched_snr", "best_of_all", "raw_low", "raw_high")
# Degrees by which each angle range's MUSIC grid extends past both ends.
GRID_PAD_DEG = 5.0


def _default_snr_grid():
    return [float(s) for s in range(-16, 12, 2)]


def _check_finite(name: str, values) -> None:
    bad = [v for v in np.ravel(values) if not np.isfinite(v)]
    if bad:
        raise ValueError(f"{name} must be finite, got {bad[0]}")


def _check_unique(key: str, what: str, labels: list[str]) -> None:
    dupes = sorted({label for label in labels if labels.count(label) > 1})
    if dupes:
        raise ValueError(f"{key} gives duplicate {what}: {dupes}")


def _noise_var(name: str, snr_db: float) -> float:
    """``snr_to_noise_var`` with the config key that gave the SNR in its error."""
    try:
        return snr_to_noise_var(snr_db)
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from None


def _offset_columns(offsets_db, snrs_db) -> list[str]:
    """The ``r_offset_<dB>`` column of each SNR offset.  Refuses, as a
    config's ``denoise_offsets_db``, a non-finite offset, offsets that
    would share a column, and a nonzero offset whose reference at one of the
    test SNRs ``snrs_db`` has a noise variance that overflows a float."""
    _check_finite("denoise_offsets_db", offsets_db)
    columns = [f"r_offset_{off:g}" for off in offsets_db]
    _check_unique("denoise_offsets_db", "column labels", columns)
    for off in offsets_db:
        if off != 0.0:
            for snr in snrs_db:
                _noise_var("denoise_offsets_db", snr + off)
    return columns


@dataclass
class ExperimentConfig:
    """Full experiment description.

    Defaults are the desk scale: a 4x4 low and 8x8 high setup (16 and 64
    virtual elements), 8000-sample single-SNR sets, a 14x-larger M1, and
    Q = test_samples / snapshots = 20 trials per test SNR.

    ``Harness.train_set`` derives each set's training seed from ``seed``.
    """

    low: ArrayConfig = field(default_factory=lambda: ArrayConfig(4, 4))
    high: ArrayConfig = field(default_factory=lambda: ArrayConfig(8, 8))
    angle_ranges_deg: list[tuple[float, float]] = field(
        default_factory=lambda: [(0.0, 25.0), (20.0, 45.0), (40.0, 65.0)]
    )
    num_targets: int = 4
    min_sep_deg: float = 5.0
    snr_train_db: list[float] = field(default_factory=_default_snr_grid)
    snr_test_db: list[float] = field(default_factory=_default_snr_grid)
    samples_per_set: int = 8000
    m1_samples: int = 112000
    m2_samples: int = 7700  # 14 x 550: equal shares of the 14 training SNRs, below 8000
    test_samples: int = 3000
    snapshots: int = 150
    train: TrainConfig = field(default_factory=TrainConfig)
    output_activation: str = "linear"  # "linear" | "relu" | "both"
    grid_step_deg: float = 0.1
    denoise_offsets_db: list[float] = field(default_factory=lambda: [8.0, 12.0])
    seed: int = 0
    output_dir: str = "arrayemu_out"

    def __post_init__(self):
        for name in ("angle_ranges_deg", "snr_train_db", "snr_test_db"):
            if not getattr(self, name):
                raise ValueError(f"{name} must be non-empty")
            _check_finite(name, getattr(self, name))
        for name in ("snr_train_db", "snr_test_db"):
            for snr in getattr(self, name):
                if _noise_var(name, snr) == 0.0 and name == "snr_test_db":
                    raise ValueError(f"{name}: noise variance at SNR {snr:g} dB underflows to 0")
        _offset_columns(self.denoise_offsets_db, self.snr_test_db)
        if self.snapshots < 1:
            raise ValueError(f"snapshots ({self.snapshots}) must be at least 1")
        if self.test_samples < self.snapshots:
            raise ValueError(
                f"test_samples ({self.test_samples}) must be at least snapshots "
                f"({self.snapshots}) for one test trial"
            )
        if self.test_samples % self.snapshots != 0:
            raise ValueError(
                f"snapshots ({self.snapshots}) must divide test_samples "
                f"({self.test_samples})"
            )
        if self.num_targets < 1:
            raise ValueError(f"num_targets ({self.num_targets}) must be at least 1")
        if self.seed < 0:
            raise ValueError(f"seed ({self.seed}) must be non-negative")
        n_snr = len(self.snr_train_db)
        batch = self.train.batch_size
        for name in ("samples_per_set", "m1_samples", "m2_samples"):
            size = getattr(self, name)
            if size < batch:
                raise ValueError(f"{name} ({size}) must be at least batch_size ({batch})")
            if name != "samples_per_set" and size % n_snr != 0:
                raise ValueError(
                    f"{name} ({size}) must be divisible by the number of "
                    f"training SNRs ({n_snr}) for uniform mixing"
                )
        for name, arr in (("low", self.low), ("high", self.high)):
            if self.num_targets > arr.max_targets:
                raise ValueError(
                    f"num_targets ({self.num_targets}) exceeds the identifiability "
                    f"bound ({arr.max_targets}) of the {arr.tx_count}x{arr.rx_count} "
                    f"{name} array"
                )
        if self.output_activation not in (*ACTIVATIONS, "both"):
            raise ValueError(f"unknown output_activation {self.output_activation!r}")
        for r in range(len(self.angle_ranges_deg)):
            angles = grid_angles(self.spectrum_grid(r))
            if angles[0] <= -90.0 or angles[-1] >= 90.0:
                raise ValueError(
                    f"spectrum grid of {self.range_tag(r)} ({angles[0]:g} to "
                    f"{angles[-1]:g} deg) must lie inside (-90, 90) deg"
                )
            if angles.size < self.num_targets:
                raise ValueError(
                    f"spectrum grid of {self.range_tag(r)} has fewer points "
                    f"({angles.size}) than num_targets ({self.num_targets})"
                )
            check_spacing(self.angle_ranges_deg[r], self.num_targets, self.min_sep_deg)
        tags = [self.range_tag(r) for r in range(len(self.angle_ranges_deg))]
        _check_unique("angle_ranges_deg", "range tags", tags)
        _check_unique("snr_train_db", "training set ids", self.set_ids)
        for i, snr in enumerate(self.snr_test_db):
            if snr in self.snr_test_db[:i]:
                raise ValueError(f"snr_test_db repeats {snr:g} dB")

    @property
    def trials(self) -> int:
        return self.test_samples // self.snapshots

    @property
    def set_ids(self) -> list[str]:
        return ["M1", "M2"] + [self.single_set_id(s) for s in self.snr_train_db]

    def single_set_id(self, snr_db: float) -> str:
        return f"snr_{snr_db:g}"

    def range_tag(self, range_idx: int) -> str:
        lo, hi = self.angle_ranges_deg[range_idx]
        return f"range_{lo:g}_{hi:g}"

    def spectrum_grid(self, range_idx: int) -> tuple[float, float, float]:
        lo, hi = self.angle_ranges_deg[range_idx]
        return (lo - GRID_PAD_DEG, hi + GRID_PAD_DEG, self.grid_step_deg)


# --------------------------------------------------------------------------
# Config file: flat key=value text, '#' comments, unknown keys rejected.
# --------------------------------------------------------------------------

def _parse_float_list(text: str) -> list[float]:
    """Accept 'a,b,c' or 'start:stop:step' (stop inclusive, so it must lie a
    whole number of steps from start)."""
    text = text.strip()
    if ":" in text:
        start, stop, step = (float(p) for p in text.split(":"))
        steps = (stop - start) / step
        n = round(steps)
        if n < 0 or not math.isclose(steps, n, rel_tol=1e-9):
            raise ValueError(f"{text!r} does not reach its stop in whole steps")
        return [start + i * step for i in range(n + 1)]
    return [float(p) for p in text.split(",")]


def _parse_ranges(text: str) -> list[tuple[float, float]]:
    out = []
    for part in text.split(";"):
        lo, hi = (float(p) for p in part.split(":"))
        out.append((lo, hi))
    return out


CONFIG_KEYS = {
    "low_tx": int,
    "low_rx": int,
    "high_tx": int,
    "high_rx": int,
    "spacing_wavelengths": float,
    "angle_ranges_deg": _parse_ranges,
    "num_targets": int,
    "min_sep_deg": float,
    "snr_train_db": _parse_float_list,
    "snr_test_db": _parse_float_list,
    "samples_per_set": int,
    "m1_samples": int,
    "m2_samples": int,
    "test_samples": int,
    "snapshots": int,
    "epochs": int,
    "batch_size": int,
    "split": lambda s: tuple(float(p) for p in s.split(",")),
    "output_activation": str,
    "grid_step_deg": float,
    "denoise_offsets_db": _parse_float_list,
    "seed": int,
    "output_dir": str,
}

_TRAIN_KEYS = {"epochs", "batch_size", "split"}


def config_from_items(items: dict[str, str]) -> ExperimentConfig:
    """Build an ExperimentConfig from string key/value pairs."""
    parsed = {}
    for key, raw in items.items():
        if key not in CONFIG_KEYS:
            raise KeyError(f"unknown config key {key!r}")
        try:
            parsed[key] = CONFIG_KEYS[key](raw)
        except (ValueError, TypeError, ArithmeticError) as exc:
            raise ValueError(f"bad value for config key {key!r}: {raw!r}") from exc

    defaults = ExperimentConfig()
    spacing = parsed.pop("spacing_wavelengths", defaults.low.spacing_wavelengths)
    for name in ("low", "high"):
        arr = getattr(defaults, name)
        tx, rx = parsed.pop(f"{name}_tx", arr.tx_count), parsed.pop(f"{name}_rx", arr.rx_count)
        parsed[name] = ArrayConfig(tx, rx, spacing)
    train_kwargs = {k: parsed.pop(k) for k in _TRAIN_KEYS & parsed.keys()}
    parsed["train"] = replace(defaults.train, **train_kwargs)
    return ExperimentConfig(**parsed)


def parse_config_file(path, overrides: dict[str, str] | None = None) -> ExperimentConfig:
    """Read a flat key=value config file and apply string overrides."""
    items: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, value = line.split("=", 1)
            items[key.strip()] = value.strip()
    if overrides:
        items.update(overrides)
    return config_from_items(items)


# --------------------------------------------------------------------------
# Dataset files
# --------------------------------------------------------------------------

def write_dataset(path, snr_labels, inputs, targets) -> None:
    """Versioned binary dataset: per-sample SNR labels (float32) followed by
    contiguous little-endian float64 input and target blocks, sample-major."""
    labels = np.ascontiguousarray(snr_labels, dtype="<f4")
    x = np.ascontiguousarray(inputs, dtype="<f8")
    t = np.ascontiguousarray(targets, dtype="<f8")
    if x.shape[0] != t.shape[0] or labels.shape != (x.shape[0],):
        raise ValueError("inconsistent dataset block shapes")
    with atomic_write(path) as f:
        f.write(DATASET_MAGIC)
        header = (DATASET_VERSION, x.shape[0], x.shape[1], t.shape[1])
        f.write(np.array(header, dtype=DATASET_HEADER).tobytes())
        f.write(labels.data)
        f.write(x.data)
        f.write(t.data)


def read_dataset(path):
    """Read a dataset file; returns (snr_labels, inputs, targets)."""
    with open(path, "rb") as f:
        magic = f.read(len(DATASET_MAGIC))
        if magic != DATASET_MAGIC:
            raise ValueError(f"{path}: not an emulator dataset file")
        header = read_block(f, (), path, "dataset", DATASET_HEADER)
        version, samples, in_dim, out_dim = header.item()
        if version != DATASET_VERSION:
            raise ValueError(f"{path}: unsupported dataset version {version}")
        labels = read_block(f, (samples,), path, "dataset", "<f4")
        inputs = read_block(f, (samples, in_dim), path, "dataset")
        targets = read_block(f, (samples, out_dim), path, "dataset")
        expect_end(f, path, "dataset")
    return labels, inputs, targets


# --------------------------------------------------------------------------
# Result tables
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepRow:
    angle_range: str
    train_set_id: str
    test_snr_db: float
    doa_mse_rad2: float
    crb_low: float
    crb_high: float
    mse_low_array: float
    mse_high_array: float
    r_e: float
    r_offset: float


SWEEP_HEADER = [f.name for f in fields(SweepRow)]


@dataclass
class SweepResult:
    rows: list[SweepRow] = field(default_factory=list)


def _fmt(value) -> str:
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_results(result: SweepResult, path) -> None:
    """Write a sweep table as CSV with the fixed column order."""
    write_rows([vars(row) for row in result.rows], path, SWEEP_HEADER)


def read_results(path) -> SweepResult:
    """Read a CSV written by write_results back into a SweepResult."""
    with open(path, "r", encoding="utf-8") as f:
        header = f.readline().strip().split(",")
        if header != SWEEP_HEADER:
            raise ValueError(f"{path}: unexpected result header {header}")
        rows = []
        for lineno, line in enumerate(f, start=2):
            parts = line.rstrip("\n").split(",")
            if len(parts) != len(SWEEP_HEADER):
                raise ValueError(
                    f"{path}:{lineno}: expected {len(SWEEP_HEADER)} fields, got {len(parts)}"
                )
            rows.append(SweepRow(parts[0], parts[1], *map(float, parts[2:])))
    return SweepResult(rows=rows)


def write_rows(rows: list[dict], path, header: list[str] | None = None) -> None:
    """Write a list of dict rows as CSV, atomically; bools become 0/1.
    Without ``header`` the columns are the first row's keys, in order."""
    if header is None:
        if not rows:
            raise ValueError("cannot infer a header from an empty table")
        header = list(rows[0].keys())
    with atomic_write(path) as f:
        f.write((",".join(header) + "\n").encode())
        for row in rows:
            f.write((",".join(_fmt(row[col]) for col in header) + "\n").encode())


def write_grid(rows: list[dict], path) -> None:
    """Write a best-training-SNR grid table as CSV."""
    write_rows(rows, path)


# --------------------------------------------------------------------------
# Harness
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class _Bank:
    """One test bank, as plain arrays: Q scenes as a (Q, K) angle and a
    (Q, K, P) reflectivity stack, their low blocks as a (Q, MN, P) stack,
    and the complex (Q, MN, MN) covariance stack of their high blocks (MUSIC
    and R_e read the high blocks only through it).  Its bytes follow from
    the bank's seed alone, so a bank dropped with its cell is rebuilt equal."""

    angles_rad: np.ndarray
    rcs: np.ndarray
    low: np.ndarray
    high_cov: np.ndarray

    @property
    def truths_deg(self) -> np.ndarray:
        return np.rad2deg(self.angles_rad)


def _memo(method):
    """Cache a Harness method's small result (an evaluation dict, a CRB
    pair) in its instance's ``_memo`` for the life of the instance, keyed
    by the method name and positional arguments (so 0 and 0.0 share an
    entry).  The cache dies with the instance; ``functools.cache`` on a
    method would keep every Harness alive."""

    @functools.wraps(method)
    def cached(self, *args):
        key = (method.__name__, *args)
        if key not in self._memo:
            self._memo[key] = method(self, *args)
        return self._memo[key]

    return cached


def _cell_memo(method):
    """Cache a Harness method whose first two arguments are a (range index,
    test SNR) cell, as ``_memo`` does, but only while that cell is current:
    a call for another cell first drops the arrays cached for the last one.
    So a table that visits each cell once holds one test bank at a time."""

    @functools.wraps(method)
    def cached(self, range_idx, snr_db, *args):
        if (range_idx, snr_db) != self._cell_key:
            self._cell_key, self._cell = (range_idx, snr_db), {}
        key = (method.__name__, *args)
        if key not in self._cell:
            self._cell[key] = method(self, range_idx, snr_db, *args)
        return self._cell[key]

    return cached


class Harness:
    """Runs the protocol of an ExperimentConfig.

    Per-(set, SNR) evaluation results and CRB averages are memoized for the
    life of the instance.  Models are read from their files at each use and
    dropped after it, since a load is cheap beside one evaluation.  Test banks
    and their reference covariances are large, so the instance holds those
    of one (range, test SNR) cell at a time; a table walks the cells in
    ``_cells()`` order and visits each once."""

    def __init__(self, cfg: ExperimentConfig):
        self.cfg = cfg
        self._memo: dict[tuple, object] = {}
        self._cell_key: tuple | None = None
        self._cell: dict[tuple, object] = {}
        self._offsets = [off for off in cfg.denoise_offsets_db if off != 0.0]
        # eval_model's r_offset is at the first nonzero offset (offset 0
        # would only repeat r_e), else at 0.
        self._eval_offset = self._offsets[0] if self._offsets else 0.0

    # -- paths -------------------------------------------------------------

    def _artifact_path(self, kind: str, range_idx: int, set_id: str, ext: str) -> str:
        tag = self.cfg.range_tag(range_idx)
        return os.path.join(self.cfg.output_dir, kind, tag, f"{set_id}.{ext}")

    def dataset_path(self, range_idx: int, set_id: str) -> str:
        return self._artifact_path("datasets", range_idx, set_id, "dset")

    def model_path(self, range_idx: int, set_id: str) -> str:
        return self._artifact_path("models", range_idx, set_id, "mlp")

    # -- seeding -----------------------------------------------------------

    def _seed(self, *tag: int) -> np.random.SeedSequence:
        return np.random.SeedSequence([self.cfg.seed] + [int(t) & 0xFFFFFFFF for t in tag])

    def _set_index(self, set_id: str) -> int:
        return self.cfg.set_ids.index(set_id)

    # -- dataset construction ---------------------------------------------

    def _draw_trial(self, range_idx: int, snr_db: float, rng):
        """One random scene and its snapshot blocks at ``snr_db``: the tuple
        (angles_rad, rcs, low block, high block)."""
        cfg = self.cfg
        lims = cfg.angle_ranges_deg[range_idx]
        scene = draw_scene(lims, cfg.num_targets, cfg.min_sep_deg, cfg.snapshots, rng)
        return *scene, *synthesize_pair(*scene, cfg.low, cfg.high, snr_db, rng)

    def _generate_samples(self, range_idx: int, snr_db: float, inputs, targets, rng):
        """Fill the rows of ``inputs`` and ``targets`` with pulse-column sample
        pairs at ``snr_db``; a fresh scene every `snapshots` pulses."""
        snapshots = self.cfg.snapshots
        count = len(inputs)
        for done in range(0, count, snapshots):
            *_, bl, bh = self._draw_trial(range_idx, snr_db, rng)
            take = min(snapshots, count - done)
            inputs[done : done + take] = stack_real_imag(bl).T[:take]
            targets[done : done + take] = stack_real_imag(bh).T[:take]

    def build_set(self, range_idx: int, set_id: str) -> str:
        """Generate one training set and write its dataset file.  A mixed set
        holds an equal share of every training SNR, in grid order."""
        cfg = self.cfg
        set_idx = self._set_index(set_id)
        rng = np.random.default_rng(self._seed(1, range_idx, set_idx))
        if set_id in ("M1", "M2"):
            snrs = cfg.snr_train_db
            per_snr = (cfg.m1_samples if set_id == "M1" else cfg.m2_samples) // len(snrs)
        else:
            snrs = [cfg.snr_train_db[set_idx - 2]]
            per_snr = cfg.samples_per_set
        count = len(snrs) * per_snr
        inputs = np.empty((count, 2 * cfg.low.virtual_size))
        targets = np.empty((count, 2 * cfg.high.virtual_size))
        for i, snr in enumerate(snrs):
            rows = slice(i * per_snr, (i + 1) * per_snr)
            self._generate_samples(range_idx, snr, inputs[rows], targets[rows], rng)
        labels = np.repeat(np.asarray(snrs, dtype=np.float32), per_snr)
        path = self.dataset_path(range_idx, set_id)
        write_dataset(path, labels, inputs, targets)
        return path

    def ensure_dataset(self, range_idx: int, set_id: str) -> str:
        path = self.dataset_path(range_idx, set_id)
        if not os.path.exists(path):
            self.build_set(range_idx, set_id)
        return path

    def build_datasets(self) -> list[str]:
        """All 16 sets for every configured angle range."""
        return [
            self.ensure_dataset(r, s)
            for r in range(len(self.cfg.angle_ranges_deg))
            for s in self.cfg.set_ids
        ]

    # -- training ----------------------------------------------------------

    def train_set(self, range_idx: int, set_id: str) -> MlpModel:
        """Train the emulator for one training set and persist it."""
        cfg = self.cfg
        _, inputs, targets = read_dataset(self.ensure_dataset(range_idx, set_id))
        seed = int(
            self._seed(2, range_idx, self._set_index(set_id)).generate_state(1)[0]
        )
        activations = (
            ACTIVATIONS if cfg.output_activation == "both" else (cfg.output_activation,)
        )
        # Lowest best-validation loss wins; min keeps the first on a tie.
        runs = [train(inputs.T, targets.T, cfg.train, seed, act) for act in activations]
        model, _ = min(runs, key=lambda run: min(run[1]["val"]))
        save_model(model, self.model_path(range_idx, set_id))
        return model

    def ensure_model(self, range_idx: int, set_id: str) -> MlpModel:
        """The set's model file if there is one, else a freshly trained model.
        Not memoized: a load costs far less than one evaluation with the
        model, so a ``Harness`` keeps no model between uses."""
        path = self.model_path(range_idx, set_id)
        return load_model(path) if os.path.exists(path) else self.train_set(range_idx, set_id)

    # -- test data ---------------------------------------------------------

    def _bank_seed(self, range_idx: int, snr_db: float) -> np.random.SeedSequence:
        """Tag 3 and a whole-dB SNR as an integer (as hash() tagged it, but at
        -1 dB, so recorded banks keep their bytes), else tag 4 and the SNR's
        IEEE-754 words: no two SNRs share a seed."""
        snr = float(snr_db)
        if snr.is_integer():
            return self._seed(3, range_idx, int(snr))
        return self._seed(4, range_idx, *np.array([snr], dtype="<f8").view("<u4"))

    @_cell_memo
    def test_bank(self, range_idx: int, snr_db: float) -> _Bank:
        cfg = self.cfg
        rng = np.random.default_rng(self._bank_seed(range_idx, snr_db))
        trials, k, p, mn = cfg.trials, cfg.num_targets, cfg.snapshots, cfg.high.virtual_size
        angles, rcs = np.empty((trials, k)), np.empty((trials, k, p), dtype=complex)
        low = np.empty((trials, cfg.low.virtual_size, p), dtype=complex)
        # Each high block becomes its covariance at once, so no (Q, MN, P)
        # stack is ever built.
        high_cov = np.empty((trials, mn, mn), dtype=complex)
        for q in range(trials):
            angles[q], rcs[q], low[q], bh = self._draw_trial(range_idx, snr_db, rng)
            high_cov[q] = sample_covariance(bh)
        return _Bank(angles, rcs, low, high_cov)

    @_cell_memo
    def _offset_cov(self, range_idx: int, snr_db: float, offset_db: float) -> np.ndarray:
        """Covariance stack of the actual high array, the reference of r_e and
        r_offset: the bank's own high covariances at offset 0, else those of
        the same scenes re-synthesized at snr + offset, trial q's noise from
        spawn key (q, i) of the bank seed, i the offset's index in _offsets."""
        bank = self.test_bank(range_idx, snr_db)
        if offset_db == 0.0:
            return bank.high_cov
        i = self._offsets.index(offset_db)
        entropy = self._bank_seed(range_idx, snr_db).entropy
        covs = np.empty_like(bank.high_cov)
        for q in range(len(covs)):
            rng = np.random.default_rng(np.random.SeedSequence(entropy, spawn_key=(q, i)))
            covs[q] = sample_covariance(synthesize_block(
                bank.angles_rad[q], bank.rcs[q], self.cfg.high, snr_db + offset_db, rng
            ))
        return covs

    # -- evaluation --------------------------------------------------------

    def _music_mse(self, cov: np.ndarray, array: ArrayConfig, truths_deg, range_idx: int):
        """MUSIC DOA MSE over a (Q, MN, MN) covariance stack of one bank."""
        grid = self.cfg.spectrum_grid(range_idx)
        return doa_mse(music_doas(cov, array, grid, self.cfg.num_targets), truths_deg)

    @_memo
    def _mean_crbs(self, range_idx: int, snr_db: float) -> tuple[float, float]:
        """Trial-averaged (low, high) CRB diagonals of one test bank."""
        bank = self.test_bank(range_idx, snr_db)
        sigma2 = snr_to_noise_var(snr_db)
        return tuple(
            float(np.mean(np.diagonal(
                crb(bank.angles_rad, bank.rcs, sigma2, arr), axis1=-2, axis2=-1
            ).mean(axis=-1)))
            for arr in (self.cfg.low, self.cfg.high)
        )

    @_memo
    def eval_raw(self, range_idx: int, snr_db: float) -> dict:
        """Raw low/high MUSIC baselines."""
        cfg = self.cfg
        bank = self.test_bank(range_idx, snr_db)
        low_cov = sample_covariance(bank.low)
        high_cov = self._offset_cov(range_idx, snr_db, 0.0)
        return {
            "mse_low": self._music_mse(low_cov, cfg.low, bank.truths_deg, range_idx),
            "mse_high": self._music_mse(high_cov, cfg.high, bank.truths_deg, range_idx),
        }

    def _predicted_covs(self, range_idx: int, set_id: str, snr_db: float) -> np.ndarray:
        """Covariance stack of the emulated high-array blocks of every trial
        of a test bank; neither the blocks nor the model are kept."""
        model = self.ensure_model(range_idx, set_id)
        bank = self.test_bank(range_idx, snr_db)
        covs = np.empty_like(bank.high_cov)
        # One predict per trial: a single forward pass over every column of
        # the bank cost more CPU and memory.
        for q, block in enumerate(bank.low):
            covs[q] = sample_covariance(predict(model, block, self.cfg.high))
        return covs

    @_memo
    def eval_model(self, range_idx: int, set_id: str, snr_db: float) -> dict:
        """Evaluate one trained set at one test SNR: emulated DOA MSE plus
        covariance fidelity against the actual high array."""
        pred = self._predicted_covs(range_idx, set_id, snr_db)
        truths = self.test_bank(range_idx, snr_db).truths_deg
        return {
            "mse": self._music_mse(pred, self.cfg.high, truths, range_idx),
            "r_e": cov_error(self._offset_cov(range_idx, snr_db, 0.0), pred),
            "r_offset": cov_error(self._offset_cov(range_idx, snr_db, self._eval_offset), pred),
        }

    # -- protocol cases ----------------------------------------------------

    def _matched_sets(self) -> dict[float, str]:
        """Matched single-SNR set id of every test SNR, all checked up front."""
        trained = [float(s) for s in self.cfg.snr_train_db]
        for snr in self.cfg.snr_test_db:
            if float(snr) not in trained:
                raise ValueError(f"matched-SNR model needs a training set at {snr} dB")
        return {snr: self.cfg.single_set_id(snr) for snr in self.cfg.snr_test_db}

    def _cells(self):
        """Every (range index, test SNR) pair, range by range: the row order
        of the sweep, grid and CRB tables."""
        return itertools.product(range(len(self.cfg.angle_ranges_deg)), self.cfg.snr_test_db)

    def _sweep(self, pick) -> SweepResult:
        """One row per cell, in ``_cells()`` order, for what ``pick(range_idx,
        snr_db)`` names there: a training set, or "raw_low"/"raw_high" for that
        raw array's MSE with NaN covariance errors."""
        rows = []
        for r, snr in self._cells():
            set_id = pick(r, snr)
            raw = self.eval_raw(r, snr)
            crbs = self._mean_crbs(r, snr)
            if set_id in ("raw_low", "raw_high"):
                mse = raw["mse_" + set_id.removeprefix("raw_")]
                ev = {"mse": mse, "r_e": math.nan, "r_offset": math.nan}
            else:
                ev = self.eval_model(r, set_id, snr)
            rows.append(SweepRow(
                self.cfg.range_tag(r), set_id, float(snr), ev["mse"], *crbs,
                raw["mse_low"], raw["mse_high"], ev["r_e"], ev["r_offset"],
            ))
        return SweepResult(rows=rows)

    def set_sweep(self, set_id: str) -> SweepResult:
        """One trained set over every angle range and test SNR."""
        return self._sweep(lambda r, snr: set_id)

    def run_case_sweep(self, case: str) -> SweepResult:
        """One protocol case over every angle range and test SNR.

        Cases: "mixed_M1" (train on the big mixed set), "matched_snr"
        (train SNR equals test SNR), "best_of_all" (lowest MSE across all
        16 sets), and the "raw_low"/"raw_high" no-network baselines.  A case
        only chooses each cell's set.
        """
        if case not in CASES:
            raise ValueError(f"unknown case {case!r}; expected one of {CASES}")
        if case == "mixed_M1":
            return self.set_sweep("M1")
        if case == "matched_snr":
            matched = self._matched_sets()
            return self._sweep(lambda r, snr: matched[snr])
        if case == "best_of_all":
            # min keeps the first of equal MSEs.
            return self._sweep(lambda r, snr: min(
                self.cfg.set_ids, key=lambda s: self.eval_model(r, s, snr)["mse"]
            ))
        return self._sweep(lambda r, snr: case)

    def best_train_snr_grid(self) -> list[dict]:
        """Full train-SNR x test-SNR MSE table with best / second-best /
        within-10%-of-best flags per test SNR."""
        cfg = self.cfg
        rows = []
        for r, snr_test in self._cells():
            mses = [
                self.eval_model(r, cfg.single_set_id(s), snr_test)["mse"]
                for s in cfg.snr_train_db
            ]
            order = [int(i) for i in np.argsort(mses, kind="stable")]
            best, second = order[0], (order[1] if len(order) > 1 else -1)
            for i, snr_train in enumerate(cfg.snr_train_db):
                rows.append(
                    {
                        "angle_range": cfg.range_tag(r),
                        "test_snr_db": float(snr_test),
                        "train_snr_db": float(snr_train),
                        "doa_mse_rad2": mses[i],
                        "is_best": i == best,
                        "is_second_best": i == second,
                        "within_10pct": mses[i] <= 1.1 * mses[best],
                    }
                )
        return rows

    def crb_table(self) -> list[dict]:
        """Trial-averaged low/high CRB diagonals per angle range and test SNR
        (no MUSIC runs involved)."""
        rows = []
        for r, snr in self._cells():
            crb_low, crb_high = self._mean_crbs(r, snr)
            rows.append(
                {
                    "angle_range": self.cfg.range_tag(r),
                    "test_snr_db": float(snr),
                    "crb_low_rad2": crb_low,
                    "crb_high_rad2": crb_high,
                }
            )
        return rows

    def denoise_analysis(self, offsets_db=None) -> list[dict]:
        """Covariance fidelity of the M2-trained and matched-SNR models,
        with the plain and SNR-offset references, per test SNR.  Rows come
        range by range, the M2 rows of a range before its matched rows.
        ``offsets_db`` may hold 0 and the offsets denoise_offsets_db lists."""
        cfg = self.cfg
        if offsets_db is None:
            offsets_db = cfg.denoise_offsets_db
        columns = _offset_columns(offsets_db, cfg.snr_test_db)
        for off in offsets_db:
            if off != 0.0 and off not in self._offsets:
                raise ValueError(f"denoise_offsets_db does not list offset {off:g} dB")
        matched = self._matched_sets()
        tables = {
            (r, kind): [] for r in range(len(cfg.angle_ranges_deg)) for kind in ("M2", "matched")
        }
        # Both models of a cell share its bank and offset references.
        for r, snr in self._cells():
            for kind, sid in (("M2", "M2"), ("matched", matched[snr])):
                ev = self.eval_model(r, sid, snr)
                # eval_model already holds these two; predict again only
                # for another offset.
                known = {0.0: ev["r_e"], self._eval_offset: ev["r_offset"]}
                new = [off for off in offsets_db if off not in known]
                if new:
                    pred = self._predicted_covs(r, sid, snr)
                    known.update(
                        (off, cov_error(self._offset_cov(r, snr, off), pred)) for off in new
                    )
                row = {
                    "angle_range": cfg.range_tag(r),
                    "model": kind,
                    "test_snr_db": float(snr),
                    "r_e": ev["r_e"],
                }
                row.update((col, known[off]) for col, off in zip(columns, offsets_db))
                tables[r, kind].append(row)
        return [row for table in tables.values() for row in table]
