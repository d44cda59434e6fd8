import csv
import os

import pytest

from arrayemu.cli import main


def write_tiny_config(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(
        "low_tx = 2\nlow_rx = 2\nhigh_tx = 2\nhigh_rx = 3\n"
        "angle_ranges_deg = 0:25\n"
        "num_targets = 2\n"
        "snr_train_db = -5,0,5\n"
        "snr_test_db = -5,0,5\n"
        "samples_per_set = 180\nm1_samples = 270\nm2_samples = 90\n"
        "test_samples = 40\nsnapshots = 20\n"
        "epochs = 3\nbatch_size = 30\nsplit = 0.75,0.25,0\n"
        "grid_step_deg = 0.5\nseed = 11\n"
        f"output_dir = {tmp_path / 'out'}\n"
    )
    return path


def test_demo_recovers_truth(capsys):
    assert main(["demo"]) == 0
    out = capsys.readouterr().out
    assert "recovered angles" in out
    line = next(l for l in out.splitlines() if "recovered" in l)
    angles = [float(tok) for tok in line.split(":")[1].split()]
    assert angles[0] == pytest.approx(-10.0, abs=0.1)
    assert angles[1] == pytest.approx(20.0, abs=0.1)


def test_unknown_verb_exits_2():
    assert main(["frobnicate"]) == 2


def test_no_verb_exits_2():
    assert main([]) == 2


def test_unknown_flag_exits_2():
    assert main(["demo", "--bogus-flag"]) == 2


def test_unknown_config_key_exits_2(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("nonsense_key = 1\n")
    assert main(["gen-data", "--config", str(cfg)]) == 2


def test_eval_missing_model_exits_1(tmp_path, capsys):
    cfg = write_tiny_config(tmp_path)
    rc = main(["eval", "--config", str(cfg), "--train-set", "snr_0"])
    assert rc == 1
    assert "snr_0" in capsys.readouterr().err


def test_train_on_dataset_cut_in_header_exits_1(tmp_path, capsys):
    cfg = write_tiny_config(tmp_path)
    datasets = tmp_path / "out" / "datasets" / "range_0_25"
    datasets.mkdir(parents=True)
    (datasets / "snr_0.dset").write_bytes(b"AEMU-DSET" + b"\x01\x00")
    assert main(["train", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("arrayemu: error:")
    assert "snr_0.dset: truncated dataset file" in err


def test_workers_is_an_unknown_config_key(tmp_path):
    cfg = write_tiny_config(tmp_path)
    assert main(["crb", "--config", str(cfg), "--set", "workers=2"]) == 2
    assert main(["crb", "--config", str(cfg), "--workers", "2"]) == 2


def test_gen_data_and_crb(tmp_path, capsys):
    cfg = write_tiny_config(tmp_path)
    assert main(["gen-data", "--config", str(cfg)]) == 0
    datasets = tmp_path / "out" / "datasets" / "range_0_25"
    assert sorted(os.listdir(datasets)) == [
        "M1.dset", "M2.dset", "snr_-5.dset", "snr_0.dset", "snr_5.dset",
    ]
    assert main(["crb", "--config", str(cfg)]) == 0
    assert (tmp_path / "out" / "results" / "crb.csv").exists()


def test_sweep_and_override(tmp_path):
    cfg = write_tiny_config(tmp_path)
    rc = main(["sweep", "--config", str(cfg), "--case", "raw_low", "--set", "snapshots=10"])
    assert rc == 0
    content = (tmp_path / "out" / "results" / "sweep_raw_low.csv").read_text()
    assert content.startswith("angle_range,train_set_id,test_snr_db,doa_mse_rad2")
    assert content.count("\n") == 4  # header + 3 test SNRs


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("trained")
    cfg = write_tiny_config(tmp_path)
    assert main(["train", "--config", str(cfg)]) == 0
    return cfg, tmp_path / "out" / "results"


def test_eval_writes_the_mixed_m1_sweep(trained):
    cfg, results = trained
    assert main(["eval", "--config", str(cfg), "--train-set", "M1"]) == 0
    assert main(["sweep", "--config", str(cfg), "--case", "mixed_M1"]) == 0
    evaluated = (results / "eval_M1.csv").read_bytes()
    assert evaluated.count(b"\n") == 4  # header + 3 test SNRs
    assert evaluated == (results / "sweep_mixed_M1.csv").read_bytes()


def test_grid_flags_are_0_or_1(trained):
    cfg, results = trained
    assert main(["grid", "--config", str(cfg)]) == 0
    with open(results / "grid.csv", newline="", encoding="utf-8") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 9
    for col in ("is_best", "is_second_best", "within_10pct"):
        assert {row[col] for row in rows} <= {"0", "1"}, col
    assert sum(row["is_best"] == "1" for row in rows) == 3
