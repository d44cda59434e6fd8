import gc
import hashlib
import os
import tracemalloc
import weakref
from dataclasses import fields, is_dataclass

import numpy as np
import pytest

from arrayemu.arrays import ArrayConfig, draw_scene
from arrayemu.harness import (
    CONFIG_KEYS,
    DATASET_MAGIC,
    ExperimentConfig,
    Harness,
    SweepResult,
    SweepRow,
    config_from_items,
    parse_config_file,
    read_dataset,
    read_results,
    write_dataset,
    write_results,
    write_rows,
)
from arrayemu import harness as harness_module
from arrayemu import network
from arrayemu.music import sample_covariance
from arrayemu.network import TrainConfig, predict, save_model, train

from oracles import reference_music_mse, reference_offset_covs


def tiny_config(out_dir, **kw):
    defaults = dict(
        low=ArrayConfig(2, 2),
        high=ArrayConfig(2, 3),
        angle_ranges_deg=[(0.0, 25.0)],
        num_targets=2,
        min_sep_deg=5.0,
        snr_train_db=[-5.0, 0.0, 5.0],
        snr_test_db=[-5.0, 0.0, 5.0],
        samples_per_set=180,
        m1_samples=270,
        m2_samples=90,
        test_samples=80,
        snapshots=20,
        train=TrainConfig(epochs=5, batch_size=30, split=(0.75, 0.25, 0.0)),
        grid_step_deg=0.5,
        seed=123,
        output_dir=str(out_dir),
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


# A valid value other than the default for every config key, each on its own
# over the default config.
NON_DEFAULT_VALUES = {
    "low_tx": "3",
    "low_rx": "3",
    "high_tx": "6",
    "high_rx": "6",
    "spacing_wavelengths": "0.4",
    "angle_ranges_deg": "0:25",
    "num_targets": "3",
    "min_sep_deg": "4",
    "snr_train_db": "-14:12:2",
    "snr_test_db": "0,5",
    "samples_per_set": "4000",
    "m1_samples": "56000",
    "m2_samples": "7000",
    "test_samples": "1500",
    "snapshots": "100",
    "epochs": "10",
    "batch_size": "60",
    "split": "0.5,0.5,0",
    "output_activation": "relu",
    "grid_step_deg": "0.2",
    "denoise_offsets_db": "4",
    "seed": "1",
    "output_dir": "elsewhere",
}


def leaf_fields(value, prefix=""):
    """Dotted name -> value of every field under the dataclass ``value``,
    descending into fields that are dataclasses themselves."""
    leaves = {}
    for f in fields(value):
        v = getattr(value, f.name)
        name = prefix + f.name
        leaves.update(leaf_fields(v, name + ".") if is_dataclass(v) else {name: v})
    return leaves


def file_hash(path):
    return hashlib.sha256(open(path, "rb").read()).hexdigest()


def count_calls(monkeypatch, name):
    """Replace ``harness.<name>`` with a wrapper that records each call."""
    calls, real = [], getattr(harness_module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(harness_module, name, counting)
    return calls


class TestConfig:
    def test_snapshot_divisibility_enforced(self, tmp_path):
        with pytest.raises(ValueError):
            tiny_config(tmp_path, test_samples=75)

    def test_mixed_uniformity_enforced(self, tmp_path):
        with pytest.raises(ValueError):
            tiny_config(tmp_path, m1_samples=100)

    @pytest.mark.parametrize("key", ["angle_ranges_deg", "snr_train_db", "snr_test_db"])
    def test_empty_list_rejected(self, tmp_path, key):
        with pytest.raises(ValueError, match=f"{key} must be non-empty"):
            tiny_config(tmp_path, **{key: []})

    def test_duplicate_set_ids_rejected(self, tmp_path):
        # Both SNRs print as "snr_1" under the set-id format.
        with pytest.raises(ValueError, match="duplicate training set ids: \\['snr_1'\\]"):
            tiny_config(tmp_path, snr_train_db=[1.0, 1.0000001, 5.0])

    def test_default_test_snrs_seed_distinct_banks(self):
        snrs = ExperimentConfig().snr_test_db
        assert len({harness_module._snr_tag(s) for s in snrs}) == len(snrs)

    @pytest.mark.parametrize(
        "kw, match",
        [
            (
                dict(angle_ranges_deg=[(0.1234567, 25.0), (0.1234568, 25.0)]),
                "angle_ranges_deg gives duplicate range tags: \\['range_0.123457_25'\\]",
            ),
            (
                dict(denoise_offsets_db=[8.0, 8.0000001]),
                "denoise_offsets_db gives duplicate column labels: \\['r_offset_8'\\]",
            ),
            (
                dict(snr_test_db=[5.0, -2.0, -1.0]),
                "snr_test_db entries -2 and -1 dB would seed the same test bank",
            ),
            (
                dict(snr_test_db=[0.0, 5.0, 0.5]),
                "snr_test_db entries 0 and 0.5 dB would seed the same test bank",
            ),
            (dict(snr_test_db=[0.0, 0.0, 5.0]), "snr_test_db repeats 0 dB"),
        ],
    )
    def test_colliding_labels_rejected(self, tmp_path, kw, match):
        """Two ranges with one tag would share every dataset and model file,
        two offsets with one label would share one denoise.csv column, and
        two test SNRs with one bank-seed tag (a 32-bit tag of hash(snr))
        would share every scene and noise draw; a repeated test SNR would
        repeat its rows in every table."""
        with pytest.raises(ValueError, match=match):
            tiny_config(tmp_path, **kw)

    @pytest.mark.parametrize("sep", [float("nan"), -3.0])
    def test_nan_or_negative_separation_rejected(self, tmp_path, sep):
        match = f"min_sep_deg must be non-negative, got {sep}"
        with pytest.raises(ValueError, match=match):
            tiny_config(tmp_path, min_sep_deg=sep)
        with pytest.raises(ValueError, match=match):
            draw_scene((0.0, 25.0), 2, sep, 10, rng=0)
        tiny_config(tmp_path, min_sep_deg=0.0)

    @pytest.mark.parametrize("low, k", [(ArrayConfig(2, 2), 3), (ArrayConfig(4, 4), 7)])
    def test_too_many_targets_rejected(self, tmp_path, low, k):
        """More targets than the low array's M+N-2 bound fail before any file is written."""
        with pytest.raises(ValueError, match="num_targets .* low array"):
            tiny_config(tmp_path, low=low, high=ArrayConfig(8, 8), num_targets=k)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "kw, match",
        [
            (dict(num_targets=0), "num_targets \\(0\\) must be at least 1"),
            (dict(seed=-1), "seed \\(-1\\) must be non-negative"),
        ],
    )
    def test_no_target_or_negative_seed_rejected(self, tmp_path, kw, match):
        with pytest.raises(ValueError, match=match):
            tiny_config(tmp_path, **kw)

    @pytest.mark.parametrize("key", ["samples_per_set", "m1_samples", "m2_samples"])
    def test_set_smaller_than_a_batch_rejected(self, tmp_path, key):
        # 27 and 15 divide evenly over the 3 training SNRs but are below 30.
        size = 15 if key == "m2_samples" else 27
        match = f"{key} \\({size}\\) must be at least batch_size \\(30\\)"
        with pytest.raises(ValueError, match=match):
            tiny_config(tmp_path, **{key: size})
        tiny_config(tmp_path, **{key: 30 if key == "samples_per_set" else 90})

    @pytest.mark.parametrize("split", [(1.0,), (0.75, 0.25), (0.5, 0.25, 0.125, 0.125)])
    def test_split_of_the_wrong_length_rejected(self, split):
        with pytest.raises(ValueError, match=f"split needs 3 fractions .*got {len(split)}"):
            TrainConfig(split=split)

    @pytest.mark.parametrize("ranges", [[(0.0, 4.9)], [(0.0, 25.0), (30.0, 31.0)]])
    def test_range_too_narrow_for_the_targets_rejected(self, tmp_path, ranges):
        """Two targets 5 deg apart need a range at least 5 deg wide; the
        config refuses a narrower one with draw_scene's message."""
        lo, hi = ranges[-1]
        match = f"range \\[{lo}, {hi}\\] deg cannot hold 2 targets separated by >= 5.0 deg"
        with pytest.raises(ValueError, match=match):
            tiny_config(tmp_path, angle_ranges_deg=ranges)
        with pytest.raises(ValueError, match=match):
            draw_scene((lo, hi), 2, 5.0, 10, rng=0)
        tiny_config(tmp_path, angle_ranges_deg=[(0.0, 5.0)])

    @pytest.mark.parametrize(
        "split", [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.5, 0.0, 0.5), (0.75, 0.5, -0.25)]
    )
    def test_split_without_training_or_validation_part_rejected(self, split):
        with pytest.raises(ValueError, match="positive training and validation"):
            TrainConfig(split=split)

    @pytest.mark.parametrize(
        "kw, match",
        [
            (dict(grid_step_deg=0.0), "grid step must be positive"),
            (dict(angle_ranges_deg=[(25.0, 0.0)]), "empty spectrum grid"),
            (dict(angle_ranges_deg=[(0.0, 25.0), (60.0, 88.0)]), "range_60_88 \\(55 to 93 deg\\)"),
            (dict(angle_ranges_deg=[(-85.0, -60.0)]), "inside \\(-90, 90\\)"),
            (dict(angle_ranges_deg=[(60.0, 85.0)]), "inside \\(-90, 90\\)"),
            (dict(grid_step_deg=np.inf), "grid step must be positive and finite, got inf"),
            (dict(grid_step_deg=np.nan), "grid step must be positive and finite, got nan"),
            (
                dict(grid_step_deg=100.0),
                "spectrum grid of range_0_25 has fewer points \\(1\\) than num_targets \\(2\\)",
            ),
            (dict(angle_ranges_deg=[(-np.inf, 25.0)]), "angle_ranges_deg must be finite, got -inf"),
            (dict(angle_ranges_deg=[(0.0, 25.0), (0.0, np.nan)]), "angle_ranges_deg must be finite"),
        ],
    )
    def test_bad_spectrum_grid_rejected(self, tmp_path, kw, match):
        with pytest.raises(ValueError, match=match):
            tiny_config(tmp_path, **kw)
        tiny_config(tmp_path, angle_ranges_deg=[(-84.5, 84.5)])

    def test_set_ids(self, tmp_path):
        cfg = tiny_config(tmp_path)
        assert cfg.set_ids == ["M1", "M2", "snr_-5", "snr_0", "snr_5"]
        assert cfg.trials == 4

    def test_config_file_round_trip(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(
            "# comment\n"
            "low_tx = 2\nlow_rx = 2\nhigh_tx = 2\nhigh_rx = 3\n"
            "angle_ranges_deg = 0:25\n"
            "num_targets = 2\n"
            "snr_train_db = -5,0,5\n"
            "snr_test_db = -5:5:5\n"
            "samples_per_set = 180\nm1_samples = 270\nm2_samples = 90\n"
            "test_samples = 80\nsnapshots = 20\n"
            "epochs = 5\nbatch_size = 30\nsplit = 0.75,0.25,0\n"
            f"seed = 123\noutput_dir = {tmp_path}\n"
        )
        cfg = parse_config_file(path)
        assert cfg.low == ArrayConfig(2, 2)
        assert cfg.high == ArrayConfig(2, 3)
        assert cfg.snr_test_db == [-5.0, 0.0, 5.0]
        assert cfg.train.epochs == 5

    def test_line_without_equals_rejected(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("seed = 1\nnum_targets 2\n")
        with pytest.raises(ValueError, match=f"{path}:2: expected key=value, got 'num_targets 2'"):
            parse_config_file(path)

    def test_unknown_output_activation_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown output_activation 'tanh'"):
            tiny_config(tmp_path, output_activation="tanh")

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("frobnication_level = 9\n")
        with pytest.raises(KeyError):
            parse_config_file(path)

    @pytest.mark.parametrize("key", sorted(CONFIG_KEYS))
    def test_every_config_key_reaches_the_config(self, key):
        """No setting is dead: each key, set alone, changes the config."""
        assert key in NON_DEFAULT_VALUES, f"no non-default value listed for {key!r}"
        assert config_from_items({key: NON_DEFAULT_VALUES[key]}) != ExperimentConfig()

    @pytest.mark.parametrize("leaf", sorted(leaf_fields(ExperimentConfig())))
    def test_every_config_field_is_set_by_a_key(self, leaf):
        """The reverse direction: no field, nested ones included, is out of
        every config's reach."""
        default = leaf_fields(ExperimentConfig())[leaf]
        setters = [
            key
            for key, value in NON_DEFAULT_VALUES.items()
            if leaf_fields(config_from_items({key: value}))[leaf] != default
        ]
        assert setters, f"no config key sets {leaf}"

    def test_overrides_apply(self, tmp_path):
        cfg = config_from_items({"seed": "7", "snapshots": "10", "test_samples": "100"})
        assert cfg.seed == 7 and cfg.snapshots == 10
        assert config_from_items({}) == ExperimentConfig()

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("-14:12:2", [-14.0 + 2 * i for i in range(14)]),
            ("-5:5:5", [-5.0, 0.0, 5.0]),
            ("10:0:-2", [10.0, 8.0, 6.0, 4.0, 2.0, 0.0]),
            # 0.3 / 0.1 is 2.9999999999999996 steps: within tolerance of 3.
            ("0:0.3:0.1", [0.1 * i for i in range(4)]),
        ],
    )
    def test_range_form_list_ends_at_its_stop(self, text, expected):
        cfg = config_from_items({"denoise_offsets_db": text})
        assert cfg.denoise_offsets_db == expected


class TestDatasetFiles:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "a.dset"
        labels = np.array([0.0, 2.0], dtype=np.float32)
        x = np.arange(8.0).reshape(2, 4)
        t = np.arange(12.0).reshape(2, 6)
        write_dataset(path, labels, x, t)
        l2, x2, t2 = read_dataset(path)
        assert np.array_equal(l2, labels)
        assert np.array_equal(x2, x)
        assert np.array_equal(t2, t)

    @pytest.mark.parametrize(
        "labels, x, t",
        [
            (np.zeros(3, np.float32), np.ones((2, 4)), np.ones((2, 6))),
            (np.zeros(2, np.float32), np.ones((2, 4)), np.ones((3, 6))),
        ],
        ids=["labels", "targets"],
    )
    def test_inconsistent_shapes_rejected(self, tmp_path, labels, x, t):
        path = tmp_path / "bad.dset"
        with pytest.raises(ValueError, match="inconsistent dataset block shapes"):
            write_dataset(path, labels, x, t)
        assert list(tmp_path.iterdir()) == []

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.dset"
        path.write_bytes(b"garbage bytes here")
        with pytest.raises(ValueError):
            read_dataset(path)

    def test_unsupported_version_rejected(self, tmp_path):
        path = tmp_path / "v2.dset"
        write_small_dataset(path)
        data = bytearray(path.read_bytes())
        data[len(DATASET_MAGIC) : len(DATASET_MAGIC) + 4] = (2).to_bytes(4, "little")
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="unsupported dataset version 2"):
            read_dataset(path)

    @pytest.mark.parametrize("keep", [len(DATASET_MAGIC) + 2, len(DATASET_MAGIC) + 20 + 4, -1])
    def test_truncated_file_rejected(self, tmp_path, keep):
        """Cut inside the header, the label block and the last (target) block."""
        path = tmp_path / "cut.dset"
        write_dataset(path, np.zeros(2, dtype=np.float32), np.ones((2, 4)), np.ones((2, 6)))
        path.write_bytes(path.read_bytes()[:keep])
        with pytest.raises(ValueError, match="truncated dataset file"):
            read_dataset(path)


class FailingWrites:
    """Stands in for ``open``: the opened file's ``fail_at``-th write raises,
    as a full disk would, after the earlier writes reached the file."""

    def __init__(self, fail_at):
        self.fail_at = fail_at

    def __call__(self, *args, **kwargs):
        f = open(*args, **kwargs)
        real_write, calls = f.write, [0]

        def write(data):
            calls[0] += 1
            if calls[0] == self.fail_at:
                raise OSError(28, "No space left on device")
            return real_write(data)

        f.write = write
        return f


def write_small_dataset(path, fill=1.0):
    write_dataset(path, np.zeros(2, np.float32), np.full((2, 4), fill), np.full((2, 6), fill))


def write_small_model(path):
    x = np.random.default_rng(0).uniform(-1, 1, size=(2, 40))
    cfg = TrainConfig(epochs=1, batch_size=10, split=(0.75, 0.25, 0.0))
    model, _ = train(x, x, cfg, 0, "linear")
    save_model(model, path)


def write_small_table(path):
    write_rows([{"a": 1.0}] * 3, path)


class TestAtomicWrites:
    @pytest.mark.parametrize(
        "name, write",
        [
            ("d.dset", write_small_dataset),
            ("m.mlp", write_small_model),
            ("t.csv", write_small_table),
        ],
    )
    def test_write_failing_part_way_leaves_directory_unchanged(
        self, tmp_path, monkeypatch, name, write
    ):
        (tmp_path / "other.txt").write_text("kept")
        monkeypatch.setattr(network, "open", FailingWrites(fail_at=3), raising=False)
        with pytest.raises(OSError, match="No space left"):
            write(tmp_path / name)
        assert os.listdir(tmp_path) == ["other.txt"]
        monkeypatch.undo()
        write(tmp_path / name)
        assert sorted(os.listdir(tmp_path)) == sorted([name, "other.txt"])

    def test_failed_rewrite_keeps_the_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "d.dset"
        write_small_dataset(path)
        old = path.read_bytes()
        monkeypatch.setattr(network, "open", FailingWrites(fail_at=4), raising=False)
        with pytest.raises(OSError):
            write_small_dataset(path, fill=2.0)
        assert path.read_bytes() == old
        assert os.listdir(tmp_path) == ["d.dset"]

    def test_table_failing_on_a_row_leaves_no_file(self, tmp_path):
        path = tmp_path / "t.csv"
        with pytest.raises(KeyError):
            write_rows([{"a": 1.0}, {}], path, ["a"])
        assert os.listdir(tmp_path) == []


class TestDatasetBuild:
    def test_build_counts_and_uniform_mix(self, tmp_path):
        cfg = tiny_config(tmp_path)
        h = Harness(cfg)
        paths = h.build_datasets()
        assert len(paths) == 5
        labels, x, t = read_dataset(h.dataset_path(0, "M1"))
        assert x.shape == (270, 2 * 4)
        assert t.shape == (270, 2 * 6)
        vals, counts = np.unique(labels, return_counts=True)
        assert np.array_equal(vals, [-5.0, 0.0, 5.0])
        assert np.all(counts == 90)
        labels_s, x_s, _ = read_dataset(h.dataset_path(0, "snr_0"))
        assert x_s.shape == (180, 8)
        assert np.all(labels_s == 0.0)

    def test_byte_identical_rebuild(self, tmp_path):
        h1 = Harness(tiny_config(tmp_path / "a"))
        h2 = Harness(tiny_config(tmp_path / "b"))
        p1 = h1.build_set(0, "M2")
        p2 = h2.build_set(0, "M2")
        assert file_hash(p1) == file_hash(p2)


@pytest.fixture(scope="module")
def harness(tmp_path_factory):
    return Harness(tiny_config(tmp_path_factory.mktemp("exp")))


class TestTrainingAndEval:
    def test_model_persisted_and_reloaded(self, harness, monkeypatch):
        model = harness.ensure_model(0, "snr_0")
        assert os.path.exists(harness.model_path(0, "snr_0"))
        trains = count_calls(monkeypatch, "train")
        reloaded = Harness(harness.cfg).ensure_model(0, "snr_0")
        assert trains == []
        for a, b in zip(model.weights, reloaded.weights):
            assert np.array_equal(a, b)

    def test_model_byte_identical_retrain(self, harness, tmp_path):
        twin = Harness(tiny_config(tmp_path / "twin", seed=harness.cfg.seed))
        twin.train_set(0, "snr_0")
        harness.ensure_model(0, "snr_0")
        assert file_hash(harness.model_path(0, "snr_0")) == file_hash(
            twin.model_path(0, "snr_0")
        )

    @pytest.mark.parametrize("relu_handicap", [0.0, 1.0])
    def test_both_activations_keep_the_lower_validation_loss(
        self, tmp_path, monkeypatch, relu_handicap
    ):
        """With output_activation = both, train_set saves the run whose best
        validation loss is lower, bit for bit as a direct ``train`` call with
        the set's derived seed makes it.  Here relu wins on its own; adding
        1 to relu's validation losses makes linear win."""

        def handicapped(*args):
            model, history = train(*args)
            if args[4] == "relu":
                history["val"] = [v + relu_handicap for v in history["val"]]
            return model, history

        monkeypatch.setattr(harness_module, "train", handicapped)
        h = Harness(tiny_config(tmp_path / "exp", output_activation="both"))
        h.train_set(0, "snr_0")
        _, x, t = read_dataset(h.dataset_path(0, "snr_0"))
        ss = np.random.SeedSequence([h.cfg.seed, 2, 0, h.cfg.set_ids.index("snr_0")])
        seed = int(ss.generate_state(1)[0])
        runs = {act: train(x.T, t.T, h.cfg.train, seed, act) for act in ("linear", "relu")}
        best_linear = min(runs["linear"][1]["val"])
        best_relu = min(runs["relu"][1]["val"]) + relu_handicap
        want = "linear" if best_linear <= best_relu else "relu"
        assert want == ("relu" if relu_handicap == 0 else "linear")
        save_model(runs[want][0], tmp_path / "direct.mlp")
        assert file_hash(h.model_path(0, "snr_0")) == file_hash(tmp_path / "direct.mlp")

    def test_raw_sweeps_have_expected_shape(self, harness):
        res = harness.run_case_sweep("raw_low")
        assert len(res.rows) == 3
        for row in res.rows:
            assert row.doa_mse_rad2 >= 0
            assert row.crb_low > 0 and row.crb_high > 0
            assert np.isnan(row.r_e)

    def test_matched_case_rows(self, harness):
        res = harness.run_case_sweep("matched_snr")
        assert [r.train_set_id for r in res.rows] == ["snr_-5", "snr_0", "snr_5"]
        assert all(r.doa_mse_rad2 >= 0 for r in res.rows)

    def test_best_of_all_never_worse_than_matched(self, harness):
        matched = harness.run_case_sweep("matched_snr")
        best = harness.run_case_sweep("best_of_all")
        for m, b in zip(matched.rows, best.rows):
            assert b.doa_mse_rad2 <= m.doa_mse_rad2

    def test_unknown_case_rejected(self, harness):
        with pytest.raises(ValueError):
            harness.run_case_sweep("bogus")

    def test_eval_reproducible_across_instances(self, harness):
        ev1 = harness.eval_model(0, "snr_0", 0.0)
        fresh = Harness(harness.cfg)
        ev2 = fresh.eval_model(0, "snr_0", 0.0)
        assert ev1["mse"] == ev2["mse"]
        assert ev1["r_e"] == ev2["r_e"]

    def test_grid_flag_properties(self, harness):
        rows = harness.best_train_snr_grid()
        assert len(rows) == 9
        for snr in harness.cfg.snr_test_db:
            col = [r for r in rows if r["test_snr_db"] == snr]
            assert sum(r["is_best"] for r in col) == 1
            assert sum(r["is_second_best"] for r in col) == 1
            assert not any(r["is_best"] and r["is_second_best"] for r in col)
            best = next(r for r in col if r["is_best"])
            assert best["within_10pct"]

    def test_denoise_offset_zero_equals_r_e(self, harness):
        """Denoising recomputes the predictions; its r_offset at the configured
        offset must equal the one cached when the model was evaluated."""
        cfg = harness.cfg
        first = cfg.denoise_offsets_db[0]
        rows = harness.denoise_analysis(offsets_db=[0.0, first])
        assert len(rows) == 2 * len(cfg.snr_test_db)
        for row in rows:
            assert row["r_offset_0"] == pytest.approx(row["r_e"], rel=1e-12)
            assert row["r_e"] >= 0
            snr = row["test_snr_db"]
            sid = "M2" if row["model"] == "M2" else cfg.single_set_id(snr)
            assert row[f"r_offset_{first:g}"] == harness.eval_model(0, sid, snr)["r_offset"]

    def test_denoise_predicts_only_for_new_offsets(self, harness, monkeypatch):
        """Offsets 0 and the first configured one are read from eval_model;
        any other offset predicts each (set, SNR) bank once more."""
        cfg = harness.cfg
        first, other = cfg.denoise_offsets_db[0], 12.0
        assert other not in (0.0, first)
        cold = Harness(cfg).denoise_analysis([other, first, 0.0])
        h = Harness(cfg)
        pairs = [(sid, snr) for snr in cfg.snr_test_db for sid in ("M2", cfg.single_set_id(snr))]
        for sid, snr in pairs:
            h.eval_model(0, sid, snr)
        calls = count_calls(monkeypatch, "predict")
        known = h.denoise_analysis([first, 0.0])
        assert calls == []
        rows = h.denoise_analysis([other])
        assert len(calls) == cfg.trials * len(pairs)
        assert len(rows) == len(known) == len(cold) == len(pairs)
        for row, known_row, cold_row in zip(rows, known, cold):
            assert {**row, **known_row} == cold_row

    @pytest.mark.parametrize(
        "offsets, match",
        [
            (
                [8.0, 8.0000001],
                "denoise_offsets_db gives duplicate column labels: \\['r_offset_8'\\]",
            ),
            ([float("nan")], "denoise_offsets_db must be finite, got nan"),
            ([8.0, float("inf")], "denoise_offsets_db must be finite, got inf"),
        ],
        ids=["colliding", "nan", "inf"],
    )
    def test_denoise_refuses_offsets_the_config_refuses(self, tmp_path, offsets, match):
        """An explicit offset list gets the config's checks and messages,
        before any model is trained or bank built."""
        out = tmp_path / "exp"
        h = Harness(tiny_config(out))
        with pytest.raises(ValueError, match=match):
            h.denoise_analysis(offsets)
        assert not out.exists() and h._memo == {} and h._cell == {}
        with pytest.raises(ValueError, match=match):
            tiny_config(out, denoise_offsets_db=offsets)

    @pytest.mark.parametrize("table", ["best_train_snr_grid", "denoise_analysis"])
    def test_tables_run_no_raw_music(self, harness, monkeypatch, table):
        """The grid and denoising tables print no raw-array column, so a fresh
        Harness builds them without a single eval_raw; a sweep still calls it."""
        calls, real = [], Harness.eval_raw

        def counting(self, *args):
            calls.append(args)
            return real(self, *args)

        monkeypatch.setattr(Harness, "eval_raw", counting)
        assert getattr(Harness(harness.cfg), table)()
        assert calls == []
        Harness(harness.cfg).run_case_sweep("matched_snr")
        assert len(calls) == len(harness.cfg.snr_test_db)

    @pytest.mark.parametrize(
        "table, args",
        [
            ("run_case_sweep", ("best_of_all",)),
            ("best_train_snr_grid", ()),
            ("denoise_analysis", ([12.0],)),
            ("crb_table", ()),
        ],
    )
    def test_a_table_builds_each_bank_once(self, harness, monkeypatch, table, args):
        """Every table visits each (range, test SNR) cell once, so a fresh
        Harness builds each bank once although it keeps only one."""
        for sid in harness.cfg.set_ids:
            harness.ensure_model(0, sid)
        h = Harness(harness.cfg)
        calls = count_calls(monkeypatch, "synthesize_pair")
        assert getattr(h, table)(*args)
        assert len(calls) == h.cfg.trials * len(list(h._cells()))

    def test_predicted_covs_equal_covariances_of_stacked_predictions(self, harness):
        """Forming each trial's covariance as soon as predict returns gives
        the same bytes as one sample_covariance of the stacked predictions."""
        h = Harness(harness.cfg)
        cfg = h.cfg
        model = h.ensure_model(0, "snr_0")
        stacked = np.stack([predict(model, y, cfg.high) for y in h.test_bank(0, 0.0).low])
        got = h._predicted_covs(0, "snr_0", 0.0)
        assert np.array_equal(got, sample_covariance(stacked))

    def test_eval_model_predicts_each_trial_once(self, harness, monkeypatch):
        h = Harness(harness.cfg)
        calls = count_calls(monkeypatch, "predict")
        first = h.eval_model(0, "snr_0", 0.0)
        assert h.eval_model(0, "snr_0", 0) is first
        assert len(calls) == h.cfg.trials

    def test_crb_table(self, harness):
        rows = harness.crb_table()
        assert len(rows) == 3
        for row in rows:
            assert 0 < row["crb_high_rad2"] < row["crb_low_rad2"]

    def test_mean_crbs_one_crb_call_per_array_and_bank(self, tmp_path, monkeypatch):
        """Each bank's CRB average is one stacked crb call per array, and it
        equals the average of the per-scene bounds bit for bit."""
        h = Harness(tiny_config(tmp_path))
        calls = count_calls(monkeypatch, "crb")
        rows = h.crb_table()
        assert len(calls) == 2 * len(rows)
        for row, (r, snr) in zip(rows, h._cells()):
            sigma2 = harness_module.snr_to_noise_var(snr)
            bank = h.test_bank(r, snr)
            for side, array in (("low", h.cfg.low), ("high", h.cfg.high)):
                per_scene = [
                    float(np.mean(np.diagonal(harness_module.crb(angles, rcs, sigma2, array))))
                    for angles, rcs in zip(bank.angles_rad, bank.rcs)
                ]
                assert row[f"crb_{side}_rad2"] == float(np.mean(per_scene))


class TestMemo:
    def test_int_and_float_snr_share_one_bank(self, tmp_path, monkeypatch):
        calls = count_calls(monkeypatch, "synthesize_pair")
        h = Harness(tiny_config(tmp_path))
        assert h.test_bank(0, 0) is h.test_bank(0, 0.0)
        assert len(calls) == h.cfg.trials

    def test_bank_rebuilt_after_its_cell_equals_the_first_build(self, tmp_path):
        """Leaving a cell drops its bank and offset references; coming back
        rebuilds them from their seeds with the same bytes."""
        h = Harness(tiny_config(tmp_path))
        first, ref = h.test_bank(0, 0.0), h._ref_cov(0, 0.0, 8.0)
        h.test_bank(0, 5.0)
        again = h.test_bank(0, 0.0)
        assert again is not first
        for f in fields(first):
            assert np.array_equal(getattr(again, f.name), getattr(first, f.name))
        assert np.array_equal(h._ref_cov(0, 0.0, 8.0), ref)

    def test_offset_references_follow_the_spawn_layout(self, tmp_path):
        """Trial q's noise at the i-th nonzero offset a Harness asks for is
        that of the bank seed's spawn(Q)[q].spawn(i + 1)[i].  The index
        belongs to the Harness: a cell that asks for 4 dB first still uses
        the index 4 dB got in another cell."""
        cfg = tiny_config(tmp_path)
        h = Harness(cfg)

        def expected(snr, offset, i):
            bank = h.test_bank(0, snr)
            entropy = [cfg.seed, 3, 0, hash(snr) & 0xFFFFFFFF]
            return reference_offset_covs(
                entropy, bank.angles_rad, bank.rcs, cfg.high, snr + offset, i
            )

        for i, offset in enumerate([12.0, 8.0, 4.0]):
            assert np.array_equal(h._ref_cov(0, 0.0, offset), expected(0.0, offset, i))
        assert np.array_equal(h._ref_cov(0, 5.0, 4.0), expected(5.0, 4.0, 2))

    def test_one_harness_gives_the_rows_of_a_fresh_harness_per_table(self, tmp_path):
        """Tables that share one Harness, and so rebuild banks they left,
        give the rows a fresh Harness per table gives, as in one-verb CLI
        runs."""
        cfg = tiny_config(tmp_path, angle_ranges_deg=[(0.0, 25.0), (20.0, 45.0)])
        tables = [
            lambda h: h.run_case_sweep("matched_snr").rows,
            lambda h: h.run_case_sweep("best_of_all").rows,
            lambda h: h.run_case_sweep("raw_low").rows,
            lambda h: h.best_train_snr_grid(),
            lambda h: h.denoise_analysis([0.0, 8.0, 12.0]),
            lambda h: h.crb_table(),
        ]
        shared = Harness(cfg)
        # repr() compares the NaN columns of raw rows too.
        together = [repr(table(shared)) for table in tables]
        assert together == [repr(table(Harness(cfg))) for table in tables]

    def test_dropped_harness_is_freed_with_its_cache(self, tmp_path):
        h = Harness(tiny_config(tmp_path))
        h.eval_raw(0, 0.0)
        ref = weakref.ref(h)
        del h
        gc.collect()
        assert ref() is None


@pytest.fixture(scope="module")
def music_harness(tmp_path_factory):
    """Acceptance-size arrays (16 and 64 elements), K = 4 and Q = 10 trials
    of 150 snapshots on a 351-point grid; no model is trained."""
    cfg = ExperimentConfig(
        angle_ranges_deg=[(0.0, 25.0)],
        test_samples=1500,
        output_dir=str(tmp_path_factory.mktemp("music")),
    )
    return Harness(cfg)


def recorded_bank(monkeypatch, cfg, snr_db):
    """A fresh Harness, its bank at ``snr_db``, and the (Q, MN, P) low and
    high stacks of the blocks ``synthesize_pair`` returned while the bank
    was built; the bank itself keeps no high blocks.  The dict also holds
    the "angles_rad" and "rcs" stacks of the scenes synthesize_pair was given."""
    scenes, pairs, real = [], [], harness_module.synthesize_pair

    def recording(angles_rad, rcs, *args, **kwargs):
        scenes.append((angles_rad, rcs))
        pairs.append(real(angles_rad, rcs, *args, **kwargs))
        return pairs[-1]

    monkeypatch.setattr(harness_module, "synthesize_pair", recording)
    h = Harness(cfg)
    bank = h.test_bank(0, snr_db)
    monkeypatch.setattr(harness_module, "synthesize_pair", real)
    blocks = {side: np.stack([p[i] for p in pairs]) for i, side in enumerate(("low", "high"))}
    angles, rcs = zip(*scenes)
    blocks.update(angles_rad=np.stack(angles), rcs=np.stack(rcs))
    return h, bank, blocks


class TestStackedMusic:
    @pytest.mark.parametrize("side", ["low", "high"])
    @pytest.mark.parametrize("snr_db", [-16.0, 0.0, 10.0, 300.0])
    def test_bank_mse_and_covariances_match_per_trial_reference(
        self, music_harness, monkeypatch, side, snr_db
    ):
        """300 dB is the noiseless bank."""
        h, bank, blocks = recorded_bank(monkeypatch, music_harness.cfg, snr_db)
        for name in ("angles_rad", "rcs", "low"):
            assert np.array_equal(getattr(bank, name), blocks[name])
        assert np.array_equal(bank.truths_deg, np.rad2deg(blocks["angles_rad"]))
        array, data = getattr(h.cfg, side), blocks[side]
        cov = sample_covariance(bank.low) if side == "low" else bank.high_cov
        mse = h._music_mse(cov, array, bank.truths_deg, 0)
        ref_mse, ref_covs = reference_music_mse(
            data, array, bank.truths_deg, h.cfg.spectrum_grid(0), h.cfg.num_targets
        )
        assert mse == ref_mse
        assert np.array_equal(cov, np.stack(ref_covs))
        if snr_db == 300.0:
            assert mse < 1e-5

    def test_eval_raw_keeps_the_bank_mses(self, music_harness, monkeypatch):
        h, bank, blocks = recorded_bank(monkeypatch, music_harness.cfg, 0.0)
        raw = h.eval_raw(0, 0.0)
        assert h._ref_cov(0, 0.0, 0.0) is bank.high_cov
        grid, k = h.cfg.spectrum_grid(0), h.cfg.num_targets
        for side in ("low", "high"):
            array, data = getattr(h.cfg, side), blocks[side]
            assert raw["mse_" + side] == reference_music_mse(data, array, bank.truths_deg, grid, k)[0]

    def test_cache_keeps_less_than_the_high_snapshot_stacks(self, music_harness):
        """After eval_raw at every test SNR, the memo holds less than the
        banks' (Q, MN, P) high-array snapshot stacks would take alone."""
        cfg = music_harness.cfg
        stack_bytes = cfg.trials * cfg.high.virtual_size * cfg.snapshots * 16
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            h = Harness(cfg)
            for snr in cfg.snr_test_db:
                h.eval_raw(0, snr)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held < len(cfg.snr_test_db) * stack_bytes

    def test_raw_sweep_holds_less_than_two_banks(self, music_harness):
        """A sweep leaves each cell for good, so after it the Harness holds
        less than two banks' arrays, not one bank per cell."""
        cfg = music_harness.cfg
        assert len(cfg.snr_test_db) >= 4
        bank = Harness(cfg).test_bank(0, cfg.snr_test_db[0])
        bank_bytes = sum(getattr(bank, f.name).nbytes for f in fields(bank))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            h = Harness(cfg)
            h.run_case_sweep("raw_low")
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held < 2 * bank_bytes


class TestResultsCsv:
    def _rows(self):
        return SweepResult(
            rows=[
                SweepRow("range_0_25", "M1", -5.0, 0.1, 0.01, 0.001, 0.2, 0.05, 0.5, 0.4),
                SweepRow("range_0_25", "M1", 0.0, 0.05, 0.005, 0.0005, 0.1, 0.02, 0.45, 0.35),
            ]
        )

    def test_empty_result_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_results(SweepResult(), path)
        assert path.read_text().count("\n") == 1

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "other.csv"
        write_rows([{"a": 1.0}], path)
        with pytest.raises(ValueError, match="unexpected result header \\['a'\\]"):
            read_results(path)

    def test_empty_table_without_header_not_written(self, tmp_path):
        path = tmp_path / "none.csv"
        with pytest.raises(ValueError, match="cannot infer a header from an empty table"):
            write_rows([], path)
        assert not path.exists()

    def test_round_trip(self, tmp_path):
        path = tmp_path / "res.csv"
        result = self._rows()
        write_results(result, path)
        back = read_results(path)
        assert back == result

    def test_rewrite_is_byte_identical(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_results(self._rows(), p1)
        write_results(self._rows(), p2)
        assert file_hash(p1) == file_hash(p2)

    def _read_with_row(self, tmp_path, edit):
        """read_results on a table whose second data row went through ``edit``."""
        path = tmp_path / "res.csv"
        write_results(self._rows(), path)
        lines = path.read_text().splitlines()
        lines[2] = edit(lines[2])
        path.write_text("\n".join(lines) + "\n")
        return read_results(path)

    def test_row_with_an_extra_field_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="res.csv:3: expected 10 fields, got 11"):
            self._read_with_row(tmp_path, lambda row: row + ",0.3")

    def test_short_row_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="res.csv:3: expected 10 fields, got 9"):
            self._read_with_row(tmp_path, lambda row: row[: row.rindex(",")])
