"""The benchmark's measurement hooks still fit the package.

``perfbench/spans.py`` patches functions and ``Harness`` methods by name.
Installing each hook here turns a renamed or deleted target into a test
failure instead of failed benchmark operations.
"""

import importlib
import importlib.util
import inspect
import json
import pathlib

import numpy as np
import pytest

from arrayemu import music
from arrayemu.arrays import ArrayConfig, draw_rcs, synthesize_block
from arrayemu.harness import ExperimentConfig, Harness

ROOT = pathlib.Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def namespaces(spans):
    """The identity of every name in each namespace the hooks patch."""
    owners = {**spans.MODULES, "Harness": Harness}
    return {name: {k: id(v) for k, v in vars(owner).items()} for name, owner in owners.items()}


@pytest.mark.parametrize("hook", ["Probe", "Tracer"])
def test_hook_installs_and_restores_every_original(spans, hook):
    before = namespaces(spans)
    h = getattr(spans, hook)()
    try:
        h.install()
        assert namespaces(spans) != before
        assert id(Harness.test_bank) != before["Harness"]["test_bank"]
    finally:
        h.uninstall()
    assert namespaces(spans) == before


def test_every_writer_position_names_its_path_parameter(spans):
    """The Tracer sizes each writer's output from the argument at its
    ``WRITERS`` position, so a moved path argument would fail every traced
    benchmark operation."""
    for name, position in spans.WRITERS.items():
        layer, func = name.split(".")
        params = list(inspect.signature(getattr(spans.MODULES[layer], func)).parameters)
        assert params[position] == "path", name


def test_tracer_counts_what_music_returns(spans):
    """The Tracer's counters read ``music_spectrum``'s values and the flag
    ``pick_peaks`` returns; a changed return type would break the traced
    benchmark run without failing any other test."""
    cfg = ArrayConfig(2, 3)
    block = synthesize_block(np.deg2rad([10.0]), draw_rcs(1, 8, rng=0), cfg, 300.0, rng=1)
    _, u = music.hermitian_eig(music.sample_covariance(block))
    grid = (0.0, 20.0, 0.1)
    tracer = spans.Tracer()
    tracer.install()
    try:
        spec = music.music_spectrum(music.noise_subspace(u, 1), cfg, grid)
        # One target gives one peak, so a second is filled in: degenerate.
        _, degenerate = music.pick_peaks(spec, 2)
    finally:
        tracer.uninstall()
    assert degenerate
    run = [tracer.run_id]
    assert tracer.count(run, "music.music_spectrum.grid_points") == music.grid_angles(grid).size
    assert tracer.count(run, "music.pick_peaks.degenerate") == 1
    names = [span[0] for span in tracer.spans]
    assert names == ["music.noise_subspace", "music.music_spectrum", "music.pick_peaks"]


def test_tracer_sees_every_music_call_of_a_bank(spans, tmp_path):
    """``Harness._music_mse`` reaches MUSIC's steps through ``music``'s own
    namespace, so the Tracer records one spectrum and one peak pick per
    trial and one eigendecomposition per bank."""
    cfg = ExperimentConfig(
        low=ArrayConfig(2, 2), high=ArrayConfig(2, 3), angle_ranges_deg=[(0.0, 25.0)],
        num_targets=2, snr_test_db=[0.0], test_samples=80, snapshots=20,
        grid_step_deg=0.5, output_dir=str(tmp_path),
    )
    h = Harness(cfg)
    bank = h.test_bank(0, 0.0)
    trials = len(bank.low)
    tracer = spans.Tracer()
    tracer.install()
    try:
        h._music_mse(bank.high_cov, cfg.high, bank.truths_deg, 0)
    finally:
        tracer.uninstall()
    names = [span[0] for span in tracer.spans]
    assert trials == 4
    assert names.count("music.hermitian_eig") == 1
    assert names.count("music.music_spectrum") == names.count("music.pick_peaks") == trials
    grid_size = music.grid_angles(cfg.spectrum_grid(0)).size
    assert tracer.count([tracer.run_id], "music.music_spectrum.grid_points") == trials * grid_size


def test_every_per_layer_metric_names_a_function_or_method():
    """``<layer>.<name>.<stat>`` in BENCHMARK.json reads the spans of
    ``arrayemu.<layer>.<name>``, or of ``Harness.<name>`` for the harness
    layer; a name that is neither would read 0 in every run.  The tracer's
    own ``trace.*`` figures and each layer's ``self_s`` name no function."""
    unknown = []
    for metric in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]:
        layer, *rest = metric["name"].split(".")
        if layer == "trace" or len(rest) < 2:
            continue
        owners = [importlib.import_module(f"arrayemu.{layer}")]
        if layer == "harness":
            owners.append(Harness)
        if not any(callable(getattr(owner, rest[0], None)) for owner in owners):
            unknown.append(metric["name"])
    assert unknown == []
