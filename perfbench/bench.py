"""Measurement loop of the benchmark: set-up repetitions, timed iterations,
checks, digests, metrics and the environment record.

``measure`` runs one workload: the set-up steps in a forked child, so that
their memory never counts in ``peak_rss_mb``, and the timed steps in this
process.  With ``trace=False`` it reports the end-to-end metrics; with ``trace=True`` it alternates untraced
and traced timed iterations and reports the per-layer metrics of the traced
ones, the tracing overhead, and checks that both kinds write the same bytes.
Metric names and units come from ``BENCHMARK.json``; everything else
measured goes into the report file only.
"""

from __future__ import annotations

import functools
import gc
import json
import os
import pickle
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

from spans import LAYERS, Probe, Tracer
from workloads import WORKLOADS, Ops, digests, sample_epochs

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 9
MIN_ITERATIONS = 3  # untraced run; a traced run makes at least 2 of each kind
TIME_LIMIT_S = 150.0  # no timed step starts that would end past this

EVAL_WORKLOADS = ("eval_grid", "raw_baselines")

REPORT_UNITS = {
    "setup_s": "s",
    "setup_wall_s": "s",
    "cpu_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "stage_datasets_s": "s",
    "stage_training_s": "s",
    "stage_eval_s": "s",
    "stage_crb_s": "s",
    "failed_frac": "ratio",
    "trials_per_s": "1/s",
    "eval_ms_p50": "ms",
    "eval_ms_p90": "ms",
    "eval_calls": "count",
    "sample_epochs_per_s": "1/s",
    "set_train_s_p50": "s",
    "set_train_calls": "count",
}


def declared_metrics(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


def cpu_seconds() -> float:
    """User plus system CPU time of this process and of its children that
    have ended.  Unlike wall time it leaves out time the host gave to other
    machines (steal), which is what makes wall time drift on a shared VM."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def in_child(fn):
    """Return ``fn()`` computed in a forked child, which has ended when this
    returns.  An exception in the child is raised here as RuntimeError."""
    for stream in (sys.stdout, sys.stderr):
        stream.flush()
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:  # child: ends here, whatever happens
        try:
            os.close(r)
            try:
                data = pickle.dumps((True, fn()))
            except BaseException:
                data = pickle.dumps((False, traceback.format_exc()))
            with os.fdopen(w, "wb") as f:
                f.write(data)
        finally:
            os._exit(0)
    os.close(w)
    with os.fdopen(r, "rb") as f:
        data = f.read()
    os.waitpid(pid, 0)
    if not data:
        raise RuntimeError("set-up child ended without a result")
    ok, value = pickle.loads(data)
    if not ok:
        raise RuntimeError(f"set-up child failed:\n{value}")
    return value


class Run:
    """Operations, digests and samples of one benchmark run."""

    def __init__(self, workload, work_dir, tracer=None):
        self.workload = workload
        self.work_dir = work_dir
        self.tracer = tracer
        self.probe = Probe()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[str, dict] = {}
        self.setup_dir = None  # where the first set-up step wrote
        self._dirs = 0

    def _new_dir(self, kind):
        self._dirs += 1
        path = os.path.join(self.work_dir, f"{kind}{self._dirs}")
        os.makedirs(path)
        return path

    def _step(self, kind, step, run_id):
        """Run one set-up or timed step in a fresh directory, then check its
        outputs and compare their digests with the first step of its kind."""
        out = self._new_dir(kind)
        if kind == "setup" and self.setup_dir is None:
            self.setup_dir = out
        traced = run_id is not None
        ops = Ops(self.tracer if traced else None)
        gc.collect()
        self.probe.reset()
        if traced:
            self.tracer.run_id = run_id
            self.tracer.install()
        c0, t0 = cpu_seconds(), time.perf_counter()
        try:
            step(out, ops, self.probe)
        finally:
            elapsed = time.perf_counter() - t0
            cpu = cpu_seconds() - c0
            if traced:
                self.tracer.uninstall()
        sample = {
            "wall_s": elapsed,
            "cpu_s": cpu,
            "stages": dict(self.probe.stage_s),
            "eval_ms": list(self.probe.eval_ms),
            "train_s": list(self.probe.train_s),
            "trials": self.probe.trials,
            "bank_builds": self.probe.bank_builds,
        }
        self.problems += ops.check()
        found = digests(out)
        first = self.digests.setdefault(kind, found)
        differ = sorted(k for k in first.keys() | found.keys() if first.get(k) != found.get(k))
        if differ:
            self.problems.append(f"{kind} step wrote other bytes than the first one: {differ}")
        self.attempted += len(ops.items) + 1  # the digest comparison counts as one
        self.failed += ops.failed + bool(differ)
        if kind == "timed":
            shutil.rmtree(out)
        return sample

    _CHILD_STATE = ("attempted", "failed", "problems", "digests", "setup_dir", "_dirs")

    def setups(self, reps, run_id=None):
        """``reps`` set-up steps in a forked child; their samples, counts,
        digests and spans are carried back into this run."""

        def child():
            samples = [self._step("setup", self.workload.setup, run_id) for _ in range(reps)]
            state = {k: getattr(self, k) for k in self._CHILD_STATE}
            tracer = self.tracer
            return samples, state, (tracer.spans, dict(tracer.counts)) if tracer else None

        samples, state, traced = in_child(child)
        self.__dict__.update(state)
        if traced:
            self.tracer.spans.extend(traced[0])
            self.tracer.counts.update(traced[1])
        return samples

    def timed(self, run_id=None):
        step = functools.partial(self.workload.timed, setup_dir=self.setup_dir)
        return self._step("timed", step, run_id)


def _pooled(values, q):
    """Percentile ``q`` (10..90, step 10) of the pooled samples."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[q // 10 - 1]


def end_to_end(workload, setups, samples, run) -> dict[str, float]:
    med = statistics.median
    out = {
        "setup_s": med(s["cpu_s"] for s in setups),
        "setup_wall_s": med(s["wall_s"] for s in setups),
        "cpu_s": med(s["cpu_s"] for s in samples),
        "wall_s": med(s["wall_s"] for s in samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "failed_frac": run.failed / max(run.attempted, 1),
    }
    for stage in Probe.STAGES:
        out[f"stage_{stage}_s"] = med(s["stages"][stage] for s in samples)
    if workload.name in EVAL_WORKLOADS:
        eval_ms = [v for s in samples for v in s["eval_ms"]]
        out["trials_per_s"] = med(s["trials"] / s["wall_s"] for s in samples)
        out["eval_ms_p50"] = _pooled(eval_ms, 50)
        out["eval_ms_p90"] = _pooled(eval_ms, 90)
        out["eval_calls"] = len(eval_ms)
    else:
        train_s = [v for s in samples for v in s["train_s"]]
        work = sample_epochs(workload.cfg)
        out["sample_epochs_per_s"] = med(work / s["stages"]["training"] for s in samples)
        out["set_train_s_p50"] = _pooled(train_s, 50)
        out["set_train_calls"] = len(train_s)
    return out


def per_layer(tracer, untraced, traced) -> tuple[dict[str, float], dict]:
    """Per-iteration layer metrics over the traced timed steps."""
    ids = [f"timed{i}" for i in range(len(traced))]
    n = len(ids)
    stats = tracer.stats(ids)
    out: dict[str, float] = {}
    for name, e in stats["functions"].items():
        out[f"{name}.calls"] = e["calls"] / n
        out[f"{name}.total_s"] = e["total_s"] / n
        out[f"{name}.self_s"] = e["self_s"] / n
        out[f"{name}.ms_p50"] = e["ms_p50"]
    for layer in LAYERS:
        out[f"{layer}.self_s"] = stats["module_self_s"].get(layer, 0.0) / n
    for tag, total in stats["tags"].items():
        out[f"{tag}.total_s"] = total / n
    for key in (
        "music.music_spectrum.grid_points",
        "network.train.sample_epochs",
        "harness.write_dataset.bytes",
        "network.save_model.bytes",
        "harness.write_results.bytes",
        "harness.write_rows.bytes",
        "harness.write_grid.bytes",
    ):
        out[key] = tracer.count(ids, key) / n
    peaks = out.get("music.pick_peaks.calls", 0.0) * n
    out["music.pick_peaks.degenerate_frac"] = (
        tracer.count(ids, "music.pick_peaks.degenerate") / peaks if peaks else 0.0
    )
    out["harness.test_bank.builds"] = statistics.mean(s["bank_builds"] for s in traced)
    med = statistics.median
    out["trace.untraced_wall_s"] = med(s["wall_s"] for s in untraced)
    out["trace.traced_wall_s"] = med(s["wall_s"] for s in traced)
    out["trace.overhead_s"] = out["trace.traced_wall_s"] - out["trace.untraced_wall_s"]
    out["trace.spans"] = sum(1 for s in tracer.spans if s[4] in ids) / n
    setup = tracer.stats(["setup"])
    return out, {"timed": stats, "setup": setup}


def environment(seed) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "workers": 1,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "seed": seed,
    }


def git_commit() -> str:
    """HEAD commit read from .git without running git; 'unknown' outside a
    git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    """sha256 over the package sources, identifying the code measured."""
    import hashlib

    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "arrayemu").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def measure(name, seed, seconds, trace, toy=False, out_root=None) -> dict:
    """Run one workload and return the report; ``report["result"]`` is the
    one-line result object.  ``toy`` selects the demos/04_snr_sweep.py
    scale, for the benchmark's own tests."""
    out_root = Path(out_root or ROOT / ".perfbench")
    out_root.mkdir(parents=True, exist_ok=True)
    work = out_root / f"work-{name}-{seed}-{os.getpid()}"
    deadline = time.monotonic() + TIME_LIMIT_S
    workload = WORKLOADS[name](seed, str(ROOT), toy)
    tracer = Tracer() if trace else None
    run = Run(workload, str(work), tracer)
    samples, traced = [], []
    run.probe.install()
    try:
        setups = run.setups(1 if trace else SETUP_REPS, "setup" if trace else None)
        start = time.monotonic()
        while True:
            now = time.monotonic()
            done = len(samples) >= (2 if trace else MIN_ITERATIONS)
            if done and now - start >= seconds:
                break
            step_s = samples[-1]["wall_s"] + (traced[-1]["wall_s"] if traced else 0.0) if samples else 0.0
            if len(samples) >= 2 and now + 1.5 * step_s > deadline:
                break
            samples.append(run.timed())
            if trace:
                traced.append(run.timed(f"timed{len(traced)}"))
    finally:
        run.probe.uninstall()
        shutil.rmtree(work, ignore_errors=True)

    report = {
        "workload": name,
        "trace": bool(trace),
        "seconds": seconds,
        "environment": environment(seed),
        "setup_steps": len(setups),
        "timed_steps": len(samples),
        "traced_steps": len(traced),
        "attempted": run.attempted,
        "failed": run.failed,
        "problems": run.problems,
        "digests": run.digests,
        "samples": samples,
    }
    if trace:
        metrics, layer_stats = per_layer(tracer, samples, traced)
        report["layer_stats"] = layer_stats
        declared = units = declared_metrics("per_layer")
        spans_path = out_root / f"spans-{name}-seed{seed}.jsonl"
        tracer.dump(spans_path)
        report["spans_file"] = str(spans_path)
    else:
        metrics = end_to_end(workload, setups, samples, run)
        declared = declared_metrics("end_to_end")
        units = {**REPORT_UNITS, **declared}
    report["metrics"] = {k: {"value": v, "unit": units.get(k, "")} for k, v in metrics.items()}
    report["result"] = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        # A layer a workload never calls has zero calls and zero time; an
        # end-to-end metric must always have been measured.
        "metrics": {
            k: {"value": float(metrics[k] if k in metrics or not trace else 0.0), "unit": u}
            for k, u in declared.items()
        },
    }
    with open(out_root / f"{name}-seed{seed}-trace{int(bool(trace))}.json", "w", encoding="utf-8") as f:
        json.dump(report, f, indent=1)
    return report
