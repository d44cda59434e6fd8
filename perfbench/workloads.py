"""The three benchmark workloads and the checks of their outputs.

Each workload has a set-up step (repeated in a run, into fresh
directories) and a timed step (repeated until the run's time is used,
each time into a fresh directory with the same seed, and given the
directory of the first set-up step).  Every call into
``arrayemu`` is one operation; it fails if it raises or if a check of its
output fails after the timed window closes.

Workloads (sizes are the full scale; ``toy=True`` gives the
``demos/04_snr_sweep.py`` scale used by the benchmark's own tests):

* ``eval_grid``: evaluation-dominated.  Set-up builds the datasets and
  trains every set briefly; the timed step starts from a fresh ``Harness``
  that loads the models from disk and runs what the acceptance pipeline
  runs (matched_snr, best_of_all and raw_low sweeps, the best-training-SNR
  grid, denoise at +8 dB) plus the CRB table, writing the CSVs as the CLI
  does.
* ``train_sets``: dataset synthesis and training.  The timed step builds
  all 16 sets at acceptance sizes and trains each for a few epochs.  MUSIC
  is not run: the "no change" control for evaluation work.
* ``raw_baselines``: the CLI verbs ``sweep --case raw_low``, ``sweep --case
  raw_high`` and ``crb`` over the default three angle ranges and 14 test
  SNRs.  No network; each verb builds its own ``Harness`` and test banks.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import os
import subprocess
import sys
import traceback
from dataclasses import replace

from arrayemu import cli, harness, network
from arrayemu.arrays import ArrayConfig
from arrayemu.network import TrainConfig

SNR3 = [-16.0, -4.0, 8.0]


# --------------------------------------------------------------------------
# Operations and their checks
# --------------------------------------------------------------------------

class Ops:
    """Operations of one set-up or timed step: name, output, problems."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.items: list[dict] = []

    def run(self, name, fn, check=None):
        """Call ``fn``; ``check(output)`` runs later, outside the timing."""
        item = {"name": name, "out": None, "check": check, "problems": []}
        self.items.append(item)
        try:
            item["out"] = fn()
        except Exception:  # one failed call must not end the run
            item["problems"].append(traceback.format_exc(limit=3))
            item["check"] = None
        return item["out"]

    def cli(self, argv):
        """``arrayemu.cli.main`` in-process, its stdout kept from ours."""
        with contextlib.redirect_stdout(io.StringIO()):
            if self.tracer is None:
                return cli.main(argv)
            with self.tracer.span("cli.main", tag=argv[0]):
                return cli.main(argv)

    def check(self):
        for item in self.items:
            if item["check"] is not None:
                try:
                    item["problems"].extend(item["check"](item["out"]))
                except Exception:
                    item["problems"].append(traceback.format_exc(limit=3))
        return [f"{i['name']}: {p}" for i in self.items for p in i["problems"]]

    @property
    def failed(self) -> int:
        return sum(bool(i["problems"]) for i in self.items)


def digests(root) -> dict[str, str]:
    """sha256 of every file under ``root``, keyed by relative path."""
    out = {}
    for dirpath, _, files in os.walk(root):
        for fname in files:
            path = os.path.join(dirpath, fname)
            h = hashlib.sha256()
            with open(path, "rb") as f:
                for chunk in iter(lambda: f.read(1 << 20), b""):
                    h.update(chunk)
            out[os.path.relpath(path, root).replace(os.sep, "/")] = h.hexdigest()
    return dict(sorted(out.items()))


def _nonfinite(label, values):
    bad = [v for v in values if not math.isfinite(v)]
    return [f"{len(bad)} non-finite {label} values"] if bad else []


def check_sweep_csv(path, n_rows, model_rows, result=None):
    """Row count, read-back through read_results, finite values."""
    rows = harness.read_results(path).rows
    problems = []
    if len(rows) != n_rows:
        problems.append(f"{path}: {len(rows)} rows, expected {n_rows}")
    if result is not None and repr(rows) != repr(result.rows):
        problems.append(f"{path}: rows read back differ from the rows written")
    cols = ["doa_mse_rad2", "crb_low", "crb_high", "mse_low_array", "mse_high_array"]
    if model_rows:
        cols += ["r_e", "r_offset"]
    for col in cols:
        problems += _nonfinite(f"{path}:{col}", [getattr(r, col) for r in rows])
    return problems


def check_table_csv(path, n_rows, finite_cols):
    with open(path, newline="", encoding="utf-8") as f:
        rows = list(csv.DictReader(f))
    problems = []
    if len(rows) != n_rows:
        problems.append(f"{path}: {len(rows)} rows, expected {n_rows}")
    for col in finite_cols:
        problems += _nonfinite(f"{path}:{col}", [float(r[col]) for r in rows])
    return problems


def check_grid_csv(path, n_rows):
    problems = check_table_csv(path, n_rows, ["doa_mse_rad2"])
    with open(path, newline="", encoding="utf-8") as f:
        best = {}
        for r in csv.DictReader(f):
            key = (r["angle_range"], r["test_snr_db"])
            # write_grid prints numpy booleans as True/False, Python ones as 1/0.
            best[key] = best.get(key, 0) + (r["is_best"] in ("1", "True"))
    if any(v != 1 for v in best.values()):
        problems.append(f"{path}: a test SNR without exactly one best training SNR")
    return problems


def check_dataset_file(cfg, path, set_id):
    n = {"M1": cfg.m1_samples, "M2": cfg.m2_samples}.get(set_id, cfg.samples_per_set)
    lo, hi = 2 * cfg.low.virtual_size, 2 * cfg.high.virtual_size
    expected = len(harness.DATASET_MAGIC) + 20 + n * (4 + 8 * (lo + hi))
    size = os.path.getsize(path)
    return [] if size == expected else [f"{path}: {size} bytes, expected {expected}"]


def check_model_file(path, model):
    loaded = network.load_model(path)
    same = loaded.layer_dims == model.layer_dims and all(
        (a == b).all() for a, b in zip(loaded.weights + loaded.biases, model.weights + model.biases)
    )
    return [] if same else [f"{path}: model read back differs from the model trained"]


def sample_epochs(cfg) -> int:
    """Training samples times epochs over all sets of one angle range."""
    sizes = [cfg.m1_samples, cfg.m2_samples] + [cfg.samples_per_set] * len(cfg.snr_train_db)
    return sum(int(round(cfg.train.split[0] * n)) for n in sizes) * cfg.train.epochs


def child_import(root):
    """Import arrayemu in a fresh interpreter: the cost every CLI call pays."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    subprocess.run([sys.executable, "-c", "import arrayemu"], env=env, check=True, timeout=120)


def build_and_train(h, ops, probe):
    """Every dataset and model of angle range 0, one operation per call."""
    cfg = h.cfg
    with probe.stage("datasets"):
        ops.run(
            "build_datasets",
            h.build_datasets,
            lambda paths: [p for sid, path in zip(cfg.set_ids, paths)
                           for p in check_dataset_file(cfg, path, sid)],
        )
    with probe.stage("training"):
        for sid in cfg.set_ids:
            ops.run(
                f"train_{sid}",
                lambda sid=sid: h.ensure_model(0, sid),
                lambda model, sid=sid: check_model_file(h.model_path(0, sid), model),
            )


# --------------------------------------------------------------------------
# Workloads
# --------------------------------------------------------------------------

def _toy_config(seed):
    """The demos/04_snr_sweep.py scale."""
    return harness.ExperimentConfig(
        low=ArrayConfig(2, 2),
        high=ArrayConfig(3, 3),
        angle_ranges_deg=[(0.0, 25.0)],
        num_targets=2,
        snr_train_db=[-10.0, 0.0, 10.0],
        snr_test_db=[-10.0, 0.0, 10.0],
        samples_per_set=600,
        m1_samples=1800,
        m2_samples=300,
        test_samples=60,
        snapshots=30,
        train=TrainConfig(epochs=2, batch_size=60, split=(0.75, 0.25, 0.0)),
        grid_step_deg=0.2,
        seed=seed,
        output_dir="",
    )


class EvalGrid:
    name = "eval_grid"

    def __init__(self, seed, root, toy=False):
        self.root = root
        if toy:
            self.cfg = _toy_config(seed)
        else:
            self.cfg = harness.ExperimentConfig(
                angle_ranges_deg=[(40.0, 65.0)],
                snr_train_db=SNR3,
                snr_test_db=SNR3,
                samples_per_set=1400,
                m1_samples=2700,
                m2_samples=690,
                test_samples=1500,  # Q = 10 trials per test SNR
                train=TrainConfig(epochs=2, split=(0.75, 0.25, 0.0)),
                seed=seed,
                output_dir="",
            )

    def setup(self, out_dir, ops, probe):
        ops.run("import", lambda: child_import(self.root))
        build_and_train(harness.Harness(replace(self.cfg, output_dir=out_dir)), ops, probe)

    def timed(self, out_dir, ops, probe, setup_dir):
        """Loads the models trained in ``setup_dir``."""
        cfg = replace(self.cfg, output_dir=setup_dir)
        h = harness.Harness(cfg)
        res = os.path.join(out_dir, "results")
        os.makedirs(res)
        n = len(cfg.angle_ranges_deg) * len(cfg.snr_test_db)

        def sweep(case):
            def run():
                result = h.run_case_sweep(case)
                path = os.path.join(res, f"sweep_{case}.csv")
                harness.write_results(result, path)
                return path, result

            model_rows = not case.startswith("raw")
            ops.run(f"sweep_{case}", run, lambda o: check_sweep_csv(o[0], n, model_rows, o[1]))

        def table(name, make, write, check):
            def run():
                path = os.path.join(res, f"{name}.csv")
                write(make(), path)
                return path

            ops.run(name, run, check)

        with probe.stage("eval"):
            for case in ("matched_snr", "best_of_all", "raw_low"):
                sweep(case)
            n_train = len(cfg.snr_train_db)
            table("grid", h.best_train_snr_grid, harness.write_grid,
                  lambda p: check_grid_csv(p, n * n_train))
            table("denoise", lambda: h.denoise_analysis([8.0]), harness.write_rows,
                  lambda p: check_table_csv(p, 2 * n, ["r_e", "r_offset_8"]))
        with probe.stage("crb"):
            table("crb", h.crb_table, harness.write_rows,
                  lambda p: check_table_csv(p, n, ["crb_low_rad2", "crb_high_rad2"]))


class TrainSets:
    name = "train_sets"

    def __init__(self, seed, root, toy=False):
        self.root = root
        if toy:
            self.cfg = _toy_config(seed)
        else:
            self.cfg = harness.ExperimentConfig(
                angle_ranges_deg=[(40.0, 65.0)],
                samples_per_set=1000,
                m1_samples=2100,
                m2_samples=350,
                train=TrainConfig(epochs=3, split=(0.75, 0.25, 0.0)),
                seed=seed,
                output_dir="",
            )

    def setup(self, out_dir, ops, probe):
        ops.run("import", lambda: child_import(self.root))
        ops.run("config", lambda: harness.Harness(replace(self.cfg, output_dir=out_dir)))

    def timed(self, out_dir, ops, probe, setup_dir):
        build_and_train(harness.Harness(replace(self.cfg, output_dir=out_dir)), ops, probe)


class RawBaselines:
    name = "raw_baselines"

    def __init__(self, seed, root, toy=False):
        self.root = root
        self.seed = seed
        if toy:
            self.items = (
                "low_tx = 2\nlow_rx = 2\nhigh_tx = 3\nhigh_rx = 3\n"
                "angle_ranges_deg = 0:25;20:45\nnum_targets = 2\n"
                "snr_test_db = -10,0,10\ntest_samples = 60\nsnapshots = 30\n"
                "grid_step_deg = 0.2\n"
            )
        else:
            # Q = 10; the default 3 angle ranges, 2 test SNRs.
            self.items = "test_samples = 1500\nsnr_test_db = -10,6\n"
        cfg = harness.config_from_items(
            dict(line.split(" = ") for line in self.items.splitlines())
        )
        self.rows = len(cfg.angle_ranges_deg) * len(cfg.snr_test_db)

    def setup(self, out_dir, ops, probe):
        ops.run("import", lambda: child_import(self.root))
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, "exp.cfg")
        with open(path, "w", encoding="utf-8") as f:
            f.write(self.items)
        ops.run("config", lambda: harness.parse_config_file(path))

    def timed(self, out_dir, ops, probe, setup_dir):
        """Reads the config file written in ``setup_dir``."""
        n = self.rows
        res = os.path.join(out_dir, "results")
        cfg_path = os.path.join(setup_dir, "exp.cfg")
        common = ["--config", cfg_path, "--seed", str(self.seed), "--out", out_dir]

        def verb(name, argv, check):
            def run():
                rc = ops.cli(argv + common)
                if rc != 0:
                    raise RuntimeError(f"arrayemu {' '.join(argv)} exited with {rc}")

            ops.run(name, run, lambda _: check())

        with probe.stage("eval"):
            for case in ("raw_low", "raw_high"):
                path = os.path.join(res, f"sweep_{case}.csv")
                verb(f"cli_sweep_{case}", ["sweep", "--case", case],
                     lambda path=path: check_sweep_csv(path, n, False))
        with probe.stage("crb"):
            path = os.path.join(res, "crb.csv")
            verb("cli_crb", ["crb"],
                 lambda: check_table_csv(path, n, ["crb_low_rad2", "crb_high_rad2"]))


WORKLOADS = {w.name: w for w in (EvalGrid, TrainSets, RawBaselines)}
