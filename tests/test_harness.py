import hashlib
import os

import numpy as np
import pytest

from arrayemu.arrays import ArrayConfig
from arrayemu.harness import (
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
)
from arrayemu.network import TrainConfig


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


def file_hash(path):
    return hashlib.sha256(open(path, "rb").read()).hexdigest()


class TestConfig:
    def test_snapshot_divisibility_enforced(self, tmp_path):
        with pytest.raises(ValueError):
            tiny_config(tmp_path, test_samples=75)

    def test_mixed_uniformity_enforced(self, tmp_path):
        with pytest.raises(ValueError):
            tiny_config(tmp_path, m1_samples=100)

    def test_duplicate_set_ids_rejected(self, tmp_path):
        # Both SNRs print as "snr_1" under the set-id format.
        with pytest.raises(ValueError, match="duplicate training set ids: \\['snr_1'\\]"):
            tiny_config(tmp_path, snr_train_db=[1.0, 1.0000001, 5.0])

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

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("frobnication_level = 9\n")
        with pytest.raises(KeyError):
            parse_config_file(path)

    def test_overrides_apply(self, tmp_path):
        cfg = config_from_items({"seed": "7", "snapshots": "10", "test_samples": "100"})
        assert cfg.seed == 7 and cfg.snapshots == 10


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

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.dset"
        path.write_bytes(b"garbage bytes here")
        with pytest.raises(ValueError):
            read_dataset(path)

    @pytest.mark.parametrize("keep", [len(DATASET_MAGIC) + 2, len(DATASET_MAGIC) + 20 + 4, -1])
    def test_truncated_file_rejected(self, tmp_path, keep):
        """Cut inside the header, the label block and the last (target) block."""
        path = tmp_path / "cut.dset"
        write_dataset(path, np.zeros(2, dtype=np.float32), np.ones((2, 4)), np.ones((2, 6)))
        path.write_bytes(path.read_bytes()[:keep])
        with pytest.raises(ValueError, match="truncated dataset file"):
            read_dataset(path)


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
    def test_model_persisted_and_reloaded(self, harness):
        model = harness.ensure_model(0, "snr_0")
        assert os.path.exists(harness.model_path(0, "snr_0"))
        fresh = Harness(harness.cfg)
        reloaded = fresh.ensure_model(0, "snr_0", train_missing=False)
        for a, b in zip(model.weights, reloaded.weights):
            assert np.array_equal(a, b)

    def test_model_byte_identical_retrain(self, harness, tmp_path):
        twin = Harness(tiny_config(tmp_path / "twin", seed=harness.cfg.seed))
        twin.train_set(0, "snr_0")
        harness.ensure_model(0, "snr_0")
        assert file_hash(harness.model_path(0, "snr_0")) == file_hash(
            twin.model_path(0, "snr_0")
        )

    def test_missing_model_error_names_file(self, harness):
        fresh = Harness(harness.cfg)
        with pytest.raises(FileNotFoundError, match="M2"):
            fresh.ensure_model(0, "M2", train_missing=False)

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

    def test_crb_table(self, harness):
        rows = harness.crb_table()
        assert len(rows) == 3
        for row in rows:
            assert 0 < row["crb_high_rad2"] < row["crb_low_rad2"]


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
