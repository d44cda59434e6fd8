"""Measurement hooks the benchmark installs around calls into ``arrayemu``.

Two kinds of hook, both installed by patching names where they are looked
up at call time and both removed again on exit:

* ``Probe`` is always on.  It splits each timed phase into the pipeline
  stages (datasets, training, evaluation, CRB), times the computing call of
  ``Harness.eval_model`` / ``eval_raw`` / ``train_set``, and counts MUSIC
  trials.  It wraps a handful of coarse boundaries, so it costs a few
  microseconds per call of functions that take milliseconds.
* ``Tracer`` is on only in a traced run.  It wraps every public function of
  the six layers where the package calls it (``harness`` and ``cli`` import
  names directly, so their namespaces are patched too) and every ``Harness``
  method, and keeps one span per call in memory: name, start, end, parent
  span and run id.  Self time of a span is its duration minus that of its
  direct children.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import statistics
import time
import weakref
from collections import defaultdict
from contextlib import contextmanager

from arrayemu import arrays, cli, harness, metrics, music, network

LAYERS = ("arrays", "music", "network", "metrics", "harness", "cli")

# Public functions wrapped by the tracer, by defining module.  Each is
# patched in its own module and in every other layer module that imported
# the same object.
TRACED_FUNCTIONS = {
    "arrays": ("draw_scene", "synthesize_pair", "synthesize_block"),
    "music": (
        "sample_covariance",
        "hermitian_eig",
        "noise_subspace",
        "music_spectrum",
        "pick_peaks",
        "doa_mse",
    ),
    "network": ("train", "predict", "save_model", "load_model", "stack_real_imag"),
    "metrics": ("cov_error", "crb"),
    "harness": (
        "write_dataset",
        "read_dataset",
        "write_results",
        "read_results",
        "write_rows",
        "write_grid",
        "parse_config_file",
        "config_from_items",
    ),
}
MODULES = {m.__name__.rsplit(".", 1)[1]: m for m in (arrays, music, network, metrics, harness, cli)}

# Writers whose output size is counted, by the index of their path argument.
WRITERS = {
    "harness.write_dataset": 0,
    "network.save_model": 1,
    "harness.write_results": 1,
    "harness.write_rows": 1,
    "harness.write_grid": 1,
}


class Patches:
    """Attribute replacements undone in reverse order by ``restore``."""

    def __init__(self):
        self._saved = []

    def set(self, owner, name, value):
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def restore(self):
        while self._saved:
            owner, name, value = self._saved.pop()
            setattr(owner, name, value)


# --------------------------------------------------------------------------
# Probe: stage split and per-call latencies, on in every run
# --------------------------------------------------------------------------

class Probe:
    """Stage clock plus latency and work counters for the timed phase.

    Time is charged to the innermost open stage, so a test bank built
    lazily inside an evaluation counts as ``datasets`` and a CRB computed
    inside ``eval_raw`` counts as ``crb``.
    """

    STAGES = ("datasets", "training", "eval", "crb")

    def __init__(self):
        self._stack: list[str] = []
        self._mark = 0.0
        self._seen = weakref.WeakKeyDictionary()
        self._patches = Patches()
        self.reset()

    def reset(self):
        self.stage_s = dict.fromkeys(self.STAGES, 0.0)
        self.eval_ms: list[float] = []
        self.train_s: list[float] = []
        self.trials = 0
        self.bank_builds = 0

    # -- stage clock -------------------------------------------------------

    def _switch(self):
        now = time.perf_counter()
        if self._stack:
            self.stage_s[self._stack[-1]] += now - self._mark
        self._mark = now

    @contextmanager
    def stage(self, name: str):
        self._switch()
        self._stack.append(name)
        try:
            yield
        finally:
            self._switch()
            self._stack.pop()

    # -- wrappers ------------------------------------------------------------

    def _first_call(self, h, key) -> bool:
        """True the first time a Harness instance computes ``key``; later
        calls with the same key are cache hits."""
        seen = self._seen.setdefault(h, set())
        if key in seen:
            return False
        seen.add(key)
        return True

    def _staged(self, fn, stage, on_first=None):
        """Wrap a Harness method: charge it to ``stage`` (if given) and pass
        the duration of its computing call to ``on_first``."""

        @functools.wraps(fn)
        def wrapper(h, *args, **kwargs):
            first = self._first_call(h, (fn.__name__,) + args)
            t0 = time.perf_counter()
            if stage is None:
                out = fn(h, *args, **kwargs)
            else:
                with self.stage(stage):
                    out = fn(h, *args, **kwargs)
            if first and on_first is not None:
                on_first(h, time.perf_counter() - t0)
            return out

        return wrapper

    def _on_eval(self, trials_per_bank):
        def record(h, dt):
            self.eval_ms.append(dt * 1e3)
            self.trials += trials_per_bank * h.cfg.trials

        return record

    def _on_train(self, h, dt):
        self.train_s.append(dt)

    def _on_bank(self, h, dt):
        self.bank_builds += 1

    def install(self):
        p, H = self._patches, harness.Harness
        p.set(H, "test_bank", self._staged(H.test_bank, "datasets", self._on_bank))
        p.set(H, "build_set", self._staged(H.build_set, "datasets"))
        p.set(H, "train_set", self._staged(H.train_set, "training", self._on_train))
        p.set(H, "eval_model", self._staged(H.eval_model, None, self._on_eval(1)))
        p.set(H, "eval_raw", self._staged(H.eval_raw, None, self._on_eval(2)))
        crb = harness.crb

        @functools.wraps(crb)
        def staged_crb(*args, **kwargs):
            with self.stage("crb"):
                return crb(*args, **kwargs)

        p.set(harness, "crb", staged_crb)

    def uninstall(self):
        self._patches.restore()


# --------------------------------------------------------------------------
# Tracer: one span per call of every layer function, traced runs only
# --------------------------------------------------------------------------

class Tracer:
    """In-memory spans plus exact work counters at the layer boundaries."""

    def __init__(self):
        # One tuple per call: name, start, end, parent index, run id, tag.
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self.run_id = "setup"
        self.counts: dict[tuple[str, str], float] = defaultdict(float)
        self._patches = Patches()
        self._wrappers: dict[int, object] = {}

    @contextmanager
    def span(self, name: str, tag: str = ""):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(idx)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, t0, t1, parent, self.run_id, tag)

    def _wrap(self, fn, name: str):
        key = id(fn)
        if key in self._wrappers:
            return self._wrappers[key]
        count = self._counter(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if count is not None:
                count(args, kwargs, out)
            return out

        self._wrappers[key] = wrapper
        return wrapper

    def _counter(self, name: str):
        c = self.counts
        if name == "music.music_spectrum":
            def count(args, kwargs, out):
                c[(self.run_id, "music.music_spectrum.grid_points")] += out.values.size
        elif name == "music.pick_peaks":
            def count(args, kwargs, out):
                c[(self.run_id, "music.pick_peaks.degenerate")] += bool(out[1])
        elif name == "network.train":
            def count(args, kwargs, out):
                cfg = args[2] if len(args) > 2 else kwargs["cfg"]
                n_train = int(round(cfg.split[0] * args[0].shape[1]))
                c[(self.run_id, "network.train.sample_epochs")] += n_train * cfg.epochs
        elif name in WRITERS:
            pos = WRITERS[name]

            def count(args, kwargs, out):
                c[(self.run_id, f"{name}.bytes")] += os.path.getsize(args[pos])
        else:
            count = None
        return count

    def install(self):
        p = self._patches
        for mod_name, fn_names in TRACED_FUNCTIONS.items():
            for fn_name in fn_names:
                original = getattr(MODULES[mod_name], fn_name)
                for module in MODULES.values():
                    current = module.__dict__.get(fn_name)
                    # inspect.unwrap sees through the probe's wrappers.
                    if current is not None and inspect.unwrap(current) is original:
                        p.set(module, fn_name, self._wrap(current, f"{mod_name}.{fn_name}"))
        H = harness.Harness
        for attr, value in list(H.__dict__.items()):
            if callable(value) and not attr.startswith("__"):
                p.set(H, attr, self._wrap(value, f"harness.{attr}"))

    def uninstall(self):
        self._patches.restore()

    # -- reduction -----------------------------------------------------------

    def stats(self, run_ids) -> dict:
        """Per-name calls, total, self time and call durations over the
        spans of ``run_ids``; plus per-module self time."""
        run_ids = set(run_ids)
        child_s = defaultdict(float)
        for _name, t0, t1, parent, run, _tag in self.spans:
            if run in run_ids and parent >= 0:
                child_s[parent] += t1 - t0
        per_name: dict[str, dict] = {}
        per_tag: dict[str, float] = defaultdict(float)
        for idx, (name, t0, t1, parent, run, tag) in enumerate(self.spans):
            if run not in run_ids:
                continue
            entry = per_name.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durs": []})
            dur = t1 - t0
            entry["calls"] += 1
            entry["total_s"] += dur
            entry["self_s"] += dur - child_s[idx]
            entry["durs"].append(dur)
            if tag:
                per_tag[f"{name}.{tag}"] += dur
        for entry in per_name.values():
            entry["ms_p50"] = statistics.median(entry.pop("durs")) * 1e3
        module_self = defaultdict(float)
        for name, entry in per_name.items():
            module_self[name.split(".", 1)[0]] += entry["self_s"]
        return {"functions": per_name, "module_self_s": dict(module_self), "tags": dict(per_tag)}

    def count(self, run_ids, key: str) -> float:
        return sum(v for (run, k), v in self.counts.items() if k == key and run in run_ids)

    def dump(self, path):
        """Write the spans as JSON lines: name, start, end, parent, run, tag."""
        with open(path, "w", encoding="utf-8") as f:
            for idx, (name, t0, t1, parent, run, tag) in enumerate(self.spans):
                f.write(
                    json.dumps(
                        {"i": idx, "name": name, "start": t0, "end": t1,
                         "parent": parent, "run": run, "tag": tag}
                    )
                    + "\n"
                )
