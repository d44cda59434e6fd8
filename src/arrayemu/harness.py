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

import os
from dataclasses import dataclass, field, replace

import numpy as np

from .arrays import (
    ArrayConfig,
    SnapshotBlock,
    TargetScene,
    draw_scene,
    snr_to_noise_var,
    steering_matrix,
    synthesize_block,
    synthesize_pair,
)
from .metrics import cov_error, crb
from .music import (
    CovarianceEstimate,
    grid_angles,
    hermitian_eig,
    music_spectrum,
    noise_subspace,
    pick_peaks,
    sample_covariance,
    doa_mse,
)
from .network import (
    MlpModel,
    TrainConfig,
    atomic_write,
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

SWEEP_HEADER = [
    "angle_range",
    "train_set_id",
    "test_snr_db",
    "doa_mse_rad2",
    "crb_low",
    "crb_high",
    "mse_low_array",
    "mse_high_array",
    "r_e",
    "r_offset",
]

GRID_HEADER = [
    "angle_range",
    "test_snr_db",
    "train_snr_db",
    "doa_mse_rad2",
    "is_best",
    "is_second_best",
    "within_10pct",
]


def _default_snr_grid():
    return [float(s) for s in range(-16, 12, 2)]


@dataclass
class ExperimentConfig:
    """Full experiment description.

    Defaults are the desk scale: a 4x4 low and 8x8 high setup (16 and 64
    virtual elements), 8000-sample single-SNR sets, a 14x-larger M1, and
    Q = test_samples / snapshots = 20 trials per test SNR.
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
    m2_samples: int = 7700  # nearest multiple of the 14 training SNRs below 8000
    test_samples: int = 3000
    snapshots: int = 150
    train: TrainConfig = field(default_factory=lambda: TrainConfig(split=(0.75, 0.25, 0.0)))
    output_activation: str = "linear"  # "linear" | "relu" | "both"
    grid_step_deg: float = 0.1
    grid_pad_deg: float = 5.0
    denoise_offsets_db: list[float] = field(default_factory=lambda: [8.0, 12.0])
    seed: int = 0
    output_dir: str = "arrayemu_out"

    def __post_init__(self):
        if not self.snr_train_db or not self.snr_test_db:
            raise ValueError("SNR lists must be non-empty")
        if self.test_samples % self.snapshots != 0:
            raise ValueError(
                f"snapshots ({self.snapshots}) must divide test_samples "
                f"({self.test_samples})"
            )
        n_snr = len(self.snr_train_db)
        for name, size in (("m1_samples", self.m1_samples), ("m2_samples", self.m2_samples)):
            if size % n_snr != 0:
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
        if self.output_activation not in ("linear", "relu", "both"):
            raise ValueError(f"unknown output_activation {self.output_activation!r}")
        ids = self.set_ids
        dupes = sorted({sid for sid in ids if ids.count(sid) > 1})
        if dupes:
            raise ValueError(f"snr_train_db gives duplicate training set ids: {dupes}")

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
        return (lo - self.grid_pad_deg, hi + self.grid_pad_deg, self.grid_step_deg)


# --------------------------------------------------------------------------
# Config file: flat key=value text, '#' comments, unknown keys rejected.
# --------------------------------------------------------------------------

def _parse_float_list(text: str) -> list[float]:
    """Accept 'a,b,c' or 'start:stop:step' (stop inclusive)."""
    text = text.strip()
    if ":" in text:
        start, stop, step = (float(p) for p in text.split(":"))
        n = int(round((stop - start) / step)) + 1
        return [start + i * step for i in range(n)]
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
    "learning_rate": float,
    "beta1": float,
    "beta2": float,
    "epsilon": float,
    "split": lambda s: tuple(float(p) for p in s.split(",")),
    "output_activation": str,
    "grid_step_deg": float,
    "grid_pad_deg": float,
    "denoise_offsets_db": _parse_float_list,
    "seed": int,
    "output_dir": str,
}

_TRAIN_KEYS = {
    "epochs", "batch_size", "learning_rate", "beta1", "beta2", "epsilon", "split",
}


def config_from_items(items: dict[str, str]) -> ExperimentConfig:
    """Build an ExperimentConfig from string key/value pairs."""
    parsed = {}
    for key, raw in items.items():
        if key not in CONFIG_KEYS:
            raise KeyError(f"unknown config key {key!r}")
        try:
            parsed[key] = CONFIG_KEYS[key](raw)
        except (ValueError, TypeError) as exc:
            raise ValueError(f"bad value for config key {key!r}: {raw!r}") from exc

    spacing = parsed.pop("spacing_wavelengths", 0.5)
    kwargs = {}
    defaults = ExperimentConfig()
    low_tx = parsed.pop("low_tx", defaults.low.tx_count)
    low_rx = parsed.pop("low_rx", defaults.low.rx_count)
    high_tx = parsed.pop("high_tx", defaults.high.tx_count)
    high_rx = parsed.pop("high_rx", defaults.high.rx_count)
    kwargs["low"] = ArrayConfig(low_tx, low_rx, spacing)
    kwargs["high"] = ArrayConfig(high_tx, high_rx, spacing)

    train_kwargs = {k: parsed.pop(k) for k in list(parsed) if k in _TRAIN_KEYS}
    if "split" not in train_kwargs:
        train_kwargs["split"] = (0.75, 0.25, 0.0)
    kwargs["train"] = TrainConfig(**train_kwargs)
    kwargs.update(parsed)
    return ExperimentConfig(**kwargs)


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
        f.write(labels.tobytes())
        f.write(x.tobytes())
        f.write(t.tobytes())


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


@dataclass
class SweepResult:
    rows: list[SweepRow] = field(default_factory=list)


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_results(result: SweepResult, path) -> None:
    """Write a sweep table as CSV with the fixed column order."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(",".join(SWEEP_HEADER) + "\n")
        for row in result.rows:
            f.write(",".join(_fmt(getattr(row, col)) for col in SWEEP_HEADER) + "\n")


def read_results(path) -> SweepResult:
    """Read a CSV written by write_results back into a SweepResult."""
    with open(path, "r", encoding="utf-8") as f:
        header = f.readline().strip().split(",")
        if header != SWEEP_HEADER:
            raise ValueError(f"{path}: unexpected result header {header}")
        rows = []
        for line in f:
            parts = line.rstrip("\n").split(",")
            rows.append(
                SweepRow(
                    angle_range=parts[0],
                    train_set_id=parts[1],
                    **{
                        col: float(val)
                        for col, val in zip(SWEEP_HEADER[2:], parts[2:])
                    },
                )
            )
    return SweepResult(rows=rows)


def write_rows(rows: list[dict], path, header: list[str] | None = None) -> None:
    """Write a list of dict rows as CSV; bools become 0/1."""
    if header is None:
        if not rows:
            raise ValueError("cannot infer a header from an empty table")
        header = list(rows[0].keys())
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(
                ",".join(
                    str(int(row[col])) if isinstance(row[col], bool) else _fmt(row[col])
                    for col in header
                )
                + "\n"
            )


def write_grid(rows: list[dict], path) -> None:
    """Write a best-training-SNR grid table as CSV."""
    write_rows(rows, path, GRID_HEADER)


# --------------------------------------------------------------------------
# Harness
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class _Bank:
    """One test bank: Q scenes, their low and high blocks as (Q, MN, P)
    stacks, and a noise seed per trial for the SNR-offset references."""

    scenes: list[TargetScene]
    truths_deg: np.ndarray  # (Q, K)
    low: np.ndarray
    high: np.ndarray
    offset_seeds: list[np.random.SeedSequence]


class Harness:
    """Stateful driver that caches datasets, models, test banks and
    per-(set, SNR) evaluation results on top of an ExperimentConfig."""

    def __init__(self, cfg: ExperimentConfig):
        self.cfg = cfg
        self._models: dict[tuple[int, str], MlpModel] = {}
        self._banks: dict[tuple[int, float], _Bank] = {}
        self._crbs: dict[tuple[int, float], tuple[float, float]] = {}
        self._offset_covs: dict = {}
        self._model_evals: dict = {}
        self._raw_evals: dict = {}

    # -- paths -------------------------------------------------------------

    def _artifact_path(self, kind: str, range_idx: int, set_id: str, ext: str) -> str:
        d = os.path.join(self.cfg.output_dir, kind, self.cfg.range_tag(range_idx))
        os.makedirs(d, exist_ok=True)
        return os.path.join(d, f"{set_id}.{ext}")

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

    def _generate_samples(self, range_idx: int, snr_db: float, count: int, rng):
        """Pulse-column sample pairs; a fresh scene every `snapshots` pulses."""
        cfg = self.cfg
        lo_dim = 2 * cfg.low.virtual_size
        hi_dim = 2 * cfg.high.virtual_size
        inputs = np.empty((count, lo_dim))
        targets = np.empty((count, hi_dim))
        done = 0
        while done < count:
            scene = draw_scene(
                cfg.angle_ranges_deg[range_idx],
                cfg.num_targets,
                cfg.min_sep_deg,
                cfg.snapshots,
                rng,
            )
            bl, bh = synthesize_pair(scene, cfg.low, cfg.high, snr_db, rng)
            take = min(cfg.snapshots, count - done)
            inputs[done : done + take] = stack_real_imag(bl).T[:take]
            targets[done : done + take] = stack_real_imag(bh).T[:take]
            done += take
        labels = np.full(count, snr_db, dtype=np.float32)
        return labels, inputs, targets

    def build_set(self, range_idx: int, set_id: str) -> str:
        """Generate one training set and write its dataset file."""
        cfg = self.cfg
        rng = np.random.default_rng(self._seed(1, range_idx, self._set_index(set_id)))
        if set_id in ("M1", "M2"):
            total = cfg.m1_samples if set_id == "M1" else cfg.m2_samples
            per_snr = total // len(cfg.snr_train_db)
            parts = [
                self._generate_samples(range_idx, snr, per_snr, rng)
                for snr in cfg.snr_train_db
            ]
            labels = np.concatenate([p[0] for p in parts])
            inputs = np.concatenate([p[1] for p in parts])
            targets = np.concatenate([p[2] for p in parts])
        else:
            snr = cfg.snr_train_db[cfg.set_ids.index(set_id) - 2]
            labels, inputs, targets = self._generate_samples(
                range_idx, snr, cfg.samples_per_set, rng
            )
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
            ("linear", "relu")
            if cfg.output_activation == "both"
            else (cfg.output_activation,)
        )
        best = None
        for act in activations:
            tc = replace(cfg.train, output_activation=act, seed=seed)
            model, history = train(inputs.T, targets.T, tc)
            val = min(history["val"])
            if best is None or val < best[0]:
                best = (val, model)
        model = best[1]
        save_model(model, self.model_path(range_idx, set_id))
        return model

    def ensure_model(self, range_idx: int, set_id: str, train_missing: bool = True) -> MlpModel:
        key = (range_idx, set_id)
        if key not in self._models:
            path = self.model_path(range_idx, set_id)
            if os.path.exists(path):
                self._models[key] = load_model(path)
            elif train_missing:
                self._models[key] = self.train_set(range_idx, set_id)
            else:
                raise FileNotFoundError(
                    f"no trained model for set {set_id!r} "
                    f"({self.cfg.range_tag(range_idx)}): expected {path}"
                )
        return self._models[key]

    # -- test data ---------------------------------------------------------

    def test_bank(self, range_idx: int, snr_db: float) -> _Bank:
        key = (range_idx, float(snr_db))
        if key not in self._banks:
            cfg = self.cfg
            # hash() of a float is stable across processes for numeric types
            snr_idx = hash(float(snr_db)) & 0xFFFFFFFF
            ss = self._seed(3, range_idx, snr_idx)
            rng = np.random.default_rng(ss)
            offset_seeds = ss.spawn(cfg.trials)
            low = np.empty((cfg.trials, cfg.low.virtual_size, cfg.snapshots), dtype=complex)
            high = np.empty((cfg.trials, cfg.high.virtual_size, cfg.snapshots), dtype=complex)
            scenes = []
            for q in range(cfg.trials):
                scene = draw_scene(
                    cfg.angle_ranges_deg[range_idx],
                    cfg.num_targets,
                    cfg.min_sep_deg,
                    cfg.snapshots,
                    rng,
                )
                bl, bh = synthesize_pair(scene, cfg.low, cfg.high, snr_db, rng)
                low[q], high[q] = bl.data, bh.data
                scenes.append(scene)
            truths_deg = np.rad2deg([s.angles_rad for s in scenes])
            self._banks[key] = _Bank(scenes, truths_deg, low, high, offset_seeds)
        return self._banks[key]

    def _offset_cov(self, range_idx: int, snr_db: float, offset_db: float):
        """Covariance stack of the high array re-synthesized at snr + offset
        with the same scenes (fresh noise), one block at a time."""
        # spawn() is stateful: an offset's noise depends on which offsets came first.
        key = (range_idx, float(snr_db), float(offset_db))
        if key not in self._offset_covs:
            bank = self.test_bank(range_idx, snr_db)
            mn = self.cfg.high.virtual_size
            covs = np.empty((self.cfg.trials, mn, mn), dtype=complex)
            for q, (scene, seed) in enumerate(zip(bank.scenes, bank.offset_seeds)):
                rng = np.random.default_rng(seed.spawn(1)[0])
                block = synthesize_block(scene, self.cfg.high, snr_db + offset_db, rng)
                covs[q] = sample_covariance(block).matrix
            self._offset_covs[key] = CovarianceEstimate(covs, self.cfg.snapshots)
        return self._offset_covs[key]

    # -- evaluation --------------------------------------------------------

    def _music_mse(self, data, array: ArrayConfig, truths_deg, range_idx: int):
        """MUSIC DOA MSE over a (Q, MN, P) stack of trial blocks; returns
        (mse, covariance stack)."""
        grid = self.cfg.spectrum_grid(range_idx)
        k = self.cfg.num_targets
        cov = sample_covariance(data)
        un = noise_subspace(hermitian_eig(cov), k)
        steering = steering_matrix(np.deg2rad(grid_angles(grid)), array)
        # One spectrum matmul per trial: a single (Q, MN-K, G) product
        # raised peak memory for no CPU gain.
        estimates = [pick_peaks(music_spectrum(u, array, grid, steering), k)[0] for u in un]
        return doa_mse(np.vstack(estimates), truths_deg), cov

    def _mean_crbs(self, range_idx: int, snr_db: float) -> tuple[float, float]:
        """Trial-averaged (low, high) CRB diagonals of one test bank."""
        key = (range_idx, float(snr_db))
        if key not in self._crbs:
            bank = self.test_bank(range_idx, snr_db)
            sigma2 = snr_to_noise_var(snr_db)
            self._crbs[key] = tuple(
                float(np.mean([
                    float(np.mean(crb(s.angles_rad, s.rcs, sigma2, arr).diagonal_rad2))
                    for s in bank.scenes
                ]))
                for arr in (self.cfg.low, self.cfg.high)
            )
        return self._crbs[key]

    def eval_raw(self, range_idx: int, snr_db: float) -> dict:
        """Raw low/high MUSIC baselines and trial-averaged CRBs."""
        key = (range_idx, float(snr_db))
        if key not in self._raw_evals:
            cfg = self.cfg
            bank = self.test_bank(range_idx, snr_db)
            mse_low, _ = self._music_mse(bank.low, cfg.low, bank.truths_deg, range_idx)
            mse_high, high_covs = self._music_mse(bank.high, cfg.high, bank.truths_deg, range_idx)
            crb_low, crb_high = self._mean_crbs(range_idx, snr_db)
            self._raw_evals[key] = {
                "mse_low": mse_low,
                "mse_high": mse_high,
                "crb_low": crb_low,
                "crb_high": crb_high,
                "high_covs": high_covs,
            }
        return self._raw_evals[key]

    def _predict_bank(self, range_idx: int, set_id: str, snr_db: float) -> np.ndarray:
        """Emulated high-array blocks for every trial of a test bank, as a
        (Q, MN, P) stack."""
        cfg = self.cfg
        model = self.ensure_model(range_idx, set_id)
        bank = self.test_bank(range_idx, snr_db)
        # One predict per trial: a single forward pass over every column of
        # the bank cost more CPU and memory.
        out = np.empty((cfg.trials, cfg.high.virtual_size, cfg.snapshots), dtype=complex)
        for q, y in enumerate(bank.low):
            out[q] = predict(model, SnapshotBlock(y, snr_db, cfg.low), cfg.high).data
        return out

    def eval_model(self, range_idx: int, set_id: str, snr_db: float) -> dict:
        """Evaluate one trained set at one test SNR: emulated DOA MSE plus
        covariance fidelity against the actual high array."""
        key = (range_idx, set_id, float(snr_db))
        if key not in self._model_evals:
            cfg = self.cfg
            preds = self._predict_bank(range_idx, set_id, snr_db)
            truths = self.test_bank(range_idx, snr_db).truths_deg
            mse, pred_covs = self._music_mse(preds, cfg.high, truths, range_idx)
            self._model_evals[key] = {
                "mse": mse,
                "r_e": self.r_offset(range_idx, snr_db, 0.0, pred_covs),
                "r_offset": self.r_offset(range_idx, snr_db, self._eval_offset, pred_covs),
            }
        return self._model_evals[key]

    @property
    def _eval_offset(self) -> float:
        """The SNR offset whose r_offset eval_model records."""
        return self.cfg.denoise_offsets_db[0] if self.cfg.denoise_offsets_db else 0.0

    def r_offset(self, range_idx, snr_db, offset_db, pred_covs) -> float:
        """Mean relative covariance error against the high array at an SNR offset."""
        if offset_db == 0.0:
            # Zero offset reduces to the plain covariance error.
            return cov_error(self.eval_raw(range_idx, snr_db)["high_covs"], pred_covs)
        return cov_error(self._offset_cov(range_idx, snr_db, offset_db), pred_covs)

    # -- protocol cases ----------------------------------------------------

    def _row(self, range_idx, set_id, snr_db, mse, r_e=float("nan"), r_off=float("nan")):
        raw = self.eval_raw(range_idx, snr_db)
        return SweepRow(
            angle_range=self.cfg.range_tag(range_idx),
            train_set_id=set_id,
            test_snr_db=float(snr_db),
            doa_mse_rad2=mse,
            crb_low=raw["crb_low"],
            crb_high=raw["crb_high"],
            mse_low_array=raw["mse_low"],
            mse_high_array=raw["mse_high"],
            r_e=r_e,
            r_offset=r_off,
        )

    def _model_row(self, range_idx, set_id, snr_db) -> SweepRow:
        ev = self.eval_model(range_idx, set_id, snr_db)
        return self._row(range_idx, set_id, snr_db, ev["mse"], ev["r_e"], ev["r_offset"])

    def set_sweep(self, set_id: str) -> SweepResult:
        """One trained set over every angle range and test SNR."""
        return SweepResult(rows=[
            self._model_row(r, set_id, snr)
            for r in range(len(self.cfg.angle_ranges_deg))
            for snr in self.cfg.snr_test_db
        ])

    def run_case_sweep(self, case: str) -> SweepResult:
        """One protocol case over every angle range and test SNR.

        Cases: "mixed_M1" (train on the big mixed set), "matched_snr"
        (train SNR equals test SNR), "best_of_all" (lowest MSE across all
        16 sets), and the "raw_low"/"raw_high" no-network baselines.
        """
        if case not in CASES:
            raise ValueError(f"unknown case {case!r}; expected one of {CASES}")
        if self.cfg.trials < 1:
            raise ValueError("configuration yields zero test trials")
        if case == "mixed_M1":
            return self.set_sweep("M1")
        cfg = self.cfg
        rows = []
        for r in range(len(cfg.angle_ranges_deg)):
            for snr in cfg.snr_test_db:
                if case in ("raw_low", "raw_high"):
                    mse = self.eval_raw(r, snr)["mse_" + case.removeprefix("raw_")]
                    rows.append(self._row(r, case, snr, mse))
                elif case == "matched_snr":
                    if float(snr) not in [float(s) for s in cfg.snr_train_db]:
                        raise ValueError(
                            f"matched_snr case needs a training set at {snr} dB"
                        )
                    rows.append(self._model_row(r, cfg.single_set_id(snr), snr))
                else:  # best_of_all; min keeps the first of equal MSEs
                    best = min(cfg.set_ids, key=lambda sid: self.eval_model(r, sid, snr)["mse"])
                    rows.append(self._model_row(r, best, snr))
        return SweepResult(rows=rows)

    def best_train_snr_grid(self) -> list[dict]:
        """Full train-SNR x test-SNR MSE table with best / second-best /
        within-10%-of-best flags per test SNR."""
        cfg = self.cfg
        rows = []
        for r in range(len(cfg.angle_ranges_deg)):
            for snr_test in cfg.snr_test_db:
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
        cfg = self.cfg
        rows = []
        for r in range(len(cfg.angle_ranges_deg)):
            for snr in cfg.snr_test_db:
                crb_low, crb_high = self._mean_crbs(r, snr)
                rows.append(
                    {
                        "angle_range": cfg.range_tag(r),
                        "test_snr_db": float(snr),
                        "crb_low_rad2": crb_low,
                        "crb_high_rad2": crb_high,
                    }
                )
        return rows

    def denoise_analysis(self, offsets_db=None) -> list[dict]:
        """Covariance fidelity of the M2-trained and matched-SNR models,
        with the plain and SNR-offset references, per test SNR."""
        cfg = self.cfg
        if offsets_db is None:
            offsets_db = cfg.denoise_offsets_db
        rows = []
        for r in range(len(cfg.angle_ranges_deg)):
            for kind in ("M2", "matched"):
                for snr in cfg.snr_test_db:
                    sid = "M2" if kind == "M2" else cfg.single_set_id(snr)
                    ev = self.eval_model(r, sid, snr)
                    row = {
                        "angle_range": cfg.range_tag(r),
                        "model": kind,
                        "test_snr_db": float(snr),
                        "r_e": ev["r_e"],
                    }
                    # eval_model already holds these two; predict again only
                    # for another offset.
                    known = {0.0: ev["r_e"], self._eval_offset: ev["r_offset"]}
                    new = [off for off in offsets_db if off not in known]
                    if new:
                        pred_covs = sample_covariance(self._predict_bank(r, sid, snr))
                        known.update((off, self.r_offset(r, snr, off, pred_covs)) for off in new)
                    row.update((f"r_offset_{off:g}", known[off]) for off in offsets_db)
                    rows.append(row)
        return rows
