import csv
import hashlib
import os

import numpy as np
import pytest

from arrayemu import harness, network
from arrayemu.cli import main
from arrayemu.harness import CASES
from openblas_lib import openblas_kernel


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


def test_set_without_equals_exits_2(tmp_path, capsys):
    cfg = write_tiny_config(tmp_path)
    assert main(["crb", "--config", str(cfg), "--set", "seed"]) == 2
    assert capsys.readouterr().err == "arrayemu: usage error: --set expects KEY=VALUE, got 'seed'\n"
    assert not (tmp_path / "out").exists()


def test_set_alone_configures_a_verb_without_a_config_file(tmp_path):
    """Every line of the tiny config passed as a --set item, with no
    --config, writes the crb.csv the config file writes."""
    cfg = write_tiny_config(tmp_path)
    items = [line.replace(" = ", "=") for line in cfg.read_text().splitlines()]
    out = tmp_path / "out" / "results" / "crb.csv"
    assert main(["crb", *(f for item in items for f in ("--set", item))]) == 0
    from_set = out.read_bytes()
    assert main(["crb", "--config", str(cfg)]) == 0
    assert out.read_bytes() == from_set


def test_unknown_config_key_exits_2(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("nonsense_key = 1\n")
    assert main(["gen-data", "--config", str(cfg)]) == 2


def test_eval_missing_model_exits_1(tmp_path, capsys):
    cfg = write_tiny_config(tmp_path)
    rc = main(["eval", "--config", str(cfg), "--train-set", "snr_0"])
    assert rc == 1
    expected = tmp_path / "out" / "models" / "range_0_25" / "snr_0.mlp"
    assert capsys.readouterr().err == (
        f"arrayemu: error: no trained model for set 'snr_0' (range_0_25): expected {expected}\n"
    )
    assert not (tmp_path / "out").exists()  # no empty models/ or results/ left behind


@pytest.mark.parametrize("override", ["test_samples=0", "test_samples=-20", "snapshots=0"])
def test_config_without_a_test_trial_exits_1(tmp_path, capsys, override):
    cfg = write_tiny_config(tmp_path)
    assert main(["crb", "--config", str(cfg), "--set", override]) == 1
    assert capsys.readouterr().err.startswith("arrayemu: error:")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "override",
    [
        "samples_per_set=0",
        "split=1,0,0",
        "grid_step_deg=0",
        "angle_ranges_deg=60:88",
        "angle_ranges_deg=25:0",
        "angle_ranges_deg=0:25;0:1",
        "split=1",
        "split=0.5,0.25,0.125,0.125",
        "split=0.75,0.5,-0.25",
        "num_targets=0",
        "seed=-1",
        "snr_test_db=nan",
        "snr_train_db=-5,inf,5",
        "denoise_offsets_db=nan",
        "angle_ranges_deg=0.1234567:25;0.1234568:25",
        "denoise_offsets_db=8,8.0000001",
        "grid_step_deg=100",
        "grid_step_deg=inf",
        "grid_step_deg=nan",
        "min_sep_deg=nan",
        "min_sep_deg=-3",
        "angle_ranges_deg=-inf:25",
        "angle_ranges_deg=0:inf",
        "angle_ranges_deg=nan:25",
        "spacing_wavelengths=inf",
        "spacing_wavelengths=nan",
        "snr_test_db=0,0,5",
    ],
)
def test_config_that_cannot_train_or_sweep_exits_1_before_writing(tmp_path, capsys, override):
    cfg = write_tiny_config(tmp_path)
    assert main(["train", "--config", str(cfg), "--set", override]) == 1
    assert capsys.readouterr().err.startswith("arrayemu: error:")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "verb, override, snr",
    [
        ("crb", "snr_test_db=-4000", "-4000 dB overflows a float"),
        ("gen-data", "snr_train_db=-4000,0,5", "-4000 dB overflows a float"),
        ("crb", "snr_test_db=4000", "4000 dB underflows to 0"),
        ("denoise", "denoise_offsets_db=-4000", "-4005 dB overflows a float"),
        ("sweep", "denoise_offsets_db=-4000", "-4005 dB overflows a float"),
    ],
    ids=["test-overflow", "train-overflow", "test-zero", "offset-denoise", "offset-sweep"],
)
def test_snr_beyond_the_float_range_exits_1_before_writing(tmp_path, capsys, verb, override, snr):
    """An SNR whose noise variance overflows, or a test SNR whose variance
    is 0, is one error line, not a traceback or a failure after the banks."""
    cfg = write_tiny_config(tmp_path)
    assert main([verb, "--config", str(cfg), "--set", override]) == 1
    key = override.split("=")[0]
    err = capsys.readouterr().err
    assert err == f"arrayemu: error: {key}: noise variance at SNR {snr}\n"
    assert not (tmp_path / "out").exists()


def test_train_on_dataset_cut_in_header_exits_1(tmp_path, capsys):
    cfg = write_tiny_config(tmp_path)
    datasets = tmp_path / "out" / "datasets" / "range_0_25"
    datasets.mkdir(parents=True)
    (datasets / "snr_0.dset").write_bytes(b"AEMU-DSET" + b"\x01\x00")
    assert main(["train", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("arrayemu: error:")
    assert "snr_0.dset: truncated dataset file" in err


@pytest.mark.parametrize("kind", ["dataset", "model"])
def test_file_with_trailing_bytes_exits_1(tmp_path, capsys, kind):
    """A dataset that ``train`` reads, or a model that ``eval`` loads, with
    4 bytes after its last block is refused, naming the file."""
    cfg = write_tiny_config(tmp_path)
    folder = tmp_path / "out" / f"{kind}s" / "range_0_25"
    folder.mkdir(parents=True)
    if kind == "dataset":
        path = folder / "snr_0.dset"
        harness.write_dataset(path, np.zeros(3, np.float32), np.ones((3, 8)), np.ones((3, 12)))
        verb = ["train"]
    else:
        path = folder / "snr_0.mlp"
        model = network.init_model([8, 8, 8, 12, 12], "linear", 0)
        model.norm_in, model.norm_out = np.ones((8, 2)), np.ones((12, 2))
        network.save_model(model, path)
        verb = ["eval", "--train-set", "snr_0"]
    path.write_bytes(path.read_bytes() + b"\0\0\0\0")
    assert main([*verb, "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == (
        f"arrayemu: error: {path}: trailing bytes after the {kind} file's last block\n"
    )


def test_model_header_beyond_the_file_exits_1(tmp_path, capsys):
    """A model file whose header declares 2**30 x 2**30 weights (16 GiB) is
    one truncation error line, not an allocation failure's traceback."""
    cfg = write_tiny_config(tmp_path)
    folder = tmp_path / "out" / "models" / "range_0_25"
    folder.mkdir(parents=True)
    path = folder / "snr_0.mlp"
    header = np.array([network.MODEL_VERSION, 2, 2**30, 2**30], dtype="<u4").tobytes()
    path.write_bytes(network.MODEL_MAGIC + header + b"\0" + bytes(64))
    assert main(["eval", "--config", str(cfg), "--train-set", "snr_0"]) == 1
    assert capsys.readouterr().err == f"arrayemu: error: {path}: truncated model file\n"


def test_workers_is_an_unknown_config_key(tmp_path):
    cfg = write_tiny_config(tmp_path)
    assert main(["crb", "--config", str(cfg), "--set", "workers=2"]) == 2
    assert main(["crb", "--config", str(cfg), "--workers", "2"]) == 2


@pytest.mark.parametrize(
    "item",
    ["learning_rate=0.001", "beta1=0.9", "beta2=0.999", "epsilon=1e-8", "grid_pad_deg=5"],
)
def test_fixed_setting_is_an_unknown_config_key(tmp_path, item):
    cfg = write_tiny_config(tmp_path)
    assert main(["crb", "--config", str(cfg), "--set", item]) == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", ["0:10:0", "0:inf:1", "0:nan:1", "0:11:4"])
def test_bad_range_form_list_exits_1(tmp_path, capsys, value):
    cfg = write_tiny_config(tmp_path)
    assert main(["crb", "--config", str(cfg), "--set", f"snr_test_db={value}"]) == 1
    err = capsys.readouterr().err
    assert err == f"arrayemu: error: bad value for config key 'snr_test_db': '{value}'\n"
    assert not (tmp_path / "out").exists()


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


def test_seed_and_out_flags_win_over_config_and_set(tmp_path):
    """The config file says seed 11 and ``out``, --set says seed 3 and
    ``set``; --seed 5 and --out ``flag`` win over both."""
    cfg = write_tiny_config(tmp_path)

    def crb_csv(out, *flags):
        assert main(["crb", "--config", str(cfg), *flags]) == 0
        return (tmp_path / out / "results" / "crb.csv").read_bytes()

    got = crb_csv(
        "flag",
        "--set", "seed=3", "--set", f"output_dir={tmp_path / 'set'}",
        "--seed", "5", "--out", str(tmp_path / "flag"),
    )
    assert not (tmp_path / "set").exists() and not (tmp_path / "out").exists()
    assert got == crb_csv("out", "--set", "seed=5")
    assert got != crb_csv("out", "--set", "seed=3")


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("trained")
    cfg = write_tiny_config(tmp_path)
    assert main(["train", "--config", str(cfg)]) == 0
    return cfg, tmp_path / "out" / "results"


def test_second_train_loads_and_rewrites_no_model(trained, monkeypatch, capsys):
    """A set whose model file exists is neither loaded nor trained again."""
    cfg, results = trained
    models = sorted((results.parent / "models").rglob("*.mlp"))
    assert len(models) == 5

    def snapshot():
        return [(p.read_bytes(), p.stat().st_ino, p.stat().st_mtime_ns) for p in models]

    before = snapshot()
    loads = []
    for module in (network, harness):
        monkeypatch.setattr(module, "load_model", lambda path: loads.append(path))
    capsys.readouterr()
    assert main(["train", "--config", str(cfg)]) == 0
    assert loads == []
    assert "trained" not in capsys.readouterr().out
    assert snapshot() == before


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


def test_eval_r_offset_skips_a_zero_offset(trained):
    """r_offset is recorded at the first nonzero denoising offset; a leading
    0 would only repeat r_e."""
    cfg, results = trained

    def eval_m2(offsets):
        args = ["eval", "--config", str(cfg), "--train-set", "M2"]
        assert main(args + ["--set", f"denoise_offsets_db={offsets}"]) == 0
        return (results / "eval_M2.csv").read_bytes()

    assert eval_m2("0,8") == eval_m2("8")


def test_denoise_without_a_matched_set_exits_1(tmp_path, capsys):
    cfg = write_tiny_config(tmp_path)
    assert main(["denoise", "--config", str(cfg), "--set", "snr_test_db=3"]) == 1
    err = capsys.readouterr().err
    assert err == "arrayemu: error: matched-SNR model needs a training set at 3.0 dB\n"


@pytest.mark.parametrize(
    "verb", [["denoise"], ["sweep", "--case", "matched_snr"]], ids=["denoise", "sweep"]
)
def test_unmatched_test_snr_fails_before_writing(tmp_path, capsys, verb):
    """The matched set of every test SNR is checked before the first cell
    builds a dataset or trains a model."""
    cfg = write_tiny_config(tmp_path)
    assert main([*verb, "--config", str(cfg), "--set", "snr_test_db=5,3"]) == 1
    err = capsys.readouterr().err
    assert err == "arrayemu: error: matched-SNR model needs a training set at 3.0 dB\n"
    assert not (tmp_path / "out").exists()


# sha256 of every file the verbs below write on the tiny config over two angle
# ranges with output_activation = both, as recorded when grid.csv's flags
# became 0/1.  Any change to a dataset, model or CSV byte shows up here.
RECORDED_DIGESTS = {
    "datasets/range_0_25/M1.dset": "15078ba80d77c1fe028ba3eda9256eadc5e3b14282e36e0e29b28818d3720162",
    "datasets/range_0_25/M2.dset": "d3b6953eb4707dfb90841ba90fe76a0ee1ea6c007f9b853b3c40fc2661731eab",
    "datasets/range_0_25/snr_-5.dset": "1b1202757822765c08f5fcabf3827695b329e27bb0c16fb87ad872b23ff43f76",
    "datasets/range_0_25/snr_0.dset": "ae78fc79009bcf1298d750d6ac8c8adec9bd262d12dc90bcce6bbc5b2c265c7e",
    "datasets/range_0_25/snr_5.dset": "d2c396c1f08f721766ef84757b9094e7b1b2e3a5e8a575e7e53f9e6e2097d823",
    "datasets/range_20_45/M1.dset": "6382faecf5372cb7da09ac486e489943475c96d984b6e7b0772a92391fc196fc",
    "datasets/range_20_45/M2.dset": "7ac22ee8cd686a11e382dcdaf9de7d932ebd474ca88543ccadb26139506e4266",
    "datasets/range_20_45/snr_-5.dset": "ed4127147a3e913ae0e3a8bb61b189e97f0d8a091783bb69e4755a30b3ff0a38",
    "datasets/range_20_45/snr_0.dset": "82418c980c9c6bce8399edaff048fd94d7a7c95d350d8c714bdb5678290ad3aa",
    "datasets/range_20_45/snr_5.dset": "ef4381ae811a83d8e40a3ed05c209a13823c17b11e05668cc4d017690467713e",
    "models/range_0_25/M1.mlp": "bf8cf07af3df91e91eb1d88e4cca5ffc25592d17e2df3551d31c67af711eea86",
    "models/range_0_25/M2.mlp": "03339da1bfb219e5388c50bd2ec327977c9886eff9d01fce89b0bce3418d72ad",
    "models/range_0_25/snr_-5.mlp": "690b413d5f3a5577fdd94114905cfeb0f63acd99e0c34a8d66a4a677b1802530",
    "models/range_0_25/snr_0.mlp": "94dba1f36ca6f13741968ea73380c5838dddbbd7649421fb2836fdfdeca5d9e4",
    "models/range_0_25/snr_5.mlp": "6df7deb7d2fa15c39637304633220f828e9d5d15ea567934449b753b3038b3ef",
    "models/range_20_45/M1.mlp": "1176d487e646e3fb4bd6be6e2d40ee9f8a16b8468d74de1642a94dc13fa19de6",
    "models/range_20_45/M2.mlp": "5f860fc46eaf7ef3af3189c34580a177efb6475d1d99422fe35efc5488bf7d57",
    "models/range_20_45/snr_-5.mlp": "142f3b9cd468f66c09167f3ef4ca0dfe77faabc064bb7e2435880f37bcb7c9f5",
    "models/range_20_45/snr_0.mlp": "14e21ece4ed812be8b424a4c04c479927ab245a0786a1dc84573c6a44b4decc1",
    "models/range_20_45/snr_5.mlp": "333d4ff4f5b8c385cff7494de0c174d052ced2db3a92e8092fad9a4d3102ef80",
    "results/crb.csv": "b299b41e85dc015098856c511d1c8460b2675f79a591bc5b626347691b04bb2f",
    "results/denoise.csv": "e251e0f6846bff02df735a69521cb21e1d670a516a70b9bd013019792a405fe8",
    "results/eval_M1.csv": "fff418fa012732be1f23f5f94e0124a162db481b68e31d09177bb90a454358b5",
    "results/eval_snr_0.csv": "f92163212bb6006c32e708f99cfac0738fe583cba0a00d8c108a068a2ca526e5",
    "results/grid.csv": "857fe893835e85e7436427985e9286bb78f96a1714984c069cf522301f861111",
    "results/sweep_best_of_all.csv": "5ebdee59af7556a465d8addc31fdbbe93493b4ecc55c8c7df15cd7a729739520",
    "results/sweep_matched_snr.csv": "01781d51c896a5052fdd78eb10bbc98562d35d7e6794a8964723f1d0bee6f264",
    "results/sweep_mixed_M1.csv": "fff418fa012732be1f23f5f94e0124a162db481b68e31d09177bb90a454358b5",
    "results/sweep_raw_high.csv": "47fcb3f9fb44ee159913b66def7aa096a075e9e83df0428d30dcdde1debe850f",
    "results/sweep_raw_low.csv": "d80d1ec2fea792db7edbc51dc250c7df19b860413274b13e473aa5114cf1ae58",
}
# The OpenBLAS kernel and numpy the digests were recorded with.  gemm's last
# bits differ between kernels, and the difference reaches every later file:
# under the AVX2 Haswell kernel 29 of the 30 files change.
RECORDED_KERNEL = "SkylakeX"
RECORDED_NUMPY = "2.4.6"


def test_every_verb_writes_the_recorded_bytes(tmp_path):
    cfg = write_tiny_config(tmp_path)
    common = [
        "--config", str(cfg),
        "--set", "angle_ranges_deg=0:25;20:45",
        "--set", "output_activation=both",
    ]
    verbs = [
        ["gen-data"],
        ["train"],
        *(["sweep", "--case", case] for case in CASES),
        ["eval", "--train-set", "M1"],
        ["eval", "--train-set", "snr_0"],
        ["grid"],
        ["denoise", "--set", "denoise_offsets_db=0,8,12"],
        ["crb"],
    ]
    for verb in verbs:
        assert main(verb + common) == 0, verb
    out = tmp_path / "out"
    written = sorted(
        os.path.relpath(os.path.join(d, name), out).replace(os.sep, "/")
        for d, _, names in os.walk(out)
        for name in names
    )
    assert written == sorted(RECORDED_DIGESTS)
    changed = [
        name
        for name, digest in sorted(RECORDED_DIGESTS.items())
        if hashlib.sha256((out / name).read_bytes()).hexdigest() != digest
    ]
    assert changed == [], (
        f"recorded under OpenBLAS {RECORDED_KERNEL} with numpy {RECORDED_NUMPY}, running "
        f"{openblas_kernel()} with numpy {np.__version__}; files whose bytes changed: {changed}"
    )
