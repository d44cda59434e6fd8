"""End-to-end acceptance gate.

Each test prints one PASS/FAIL verdict line (bypassing pytest's capture so
the verdicts always appear in the run log) and asserts the same condition.

Criteria 5-7 and 9 share one end-to-end pipeline: the highest angle range
(40..65 degrees) at desk-scale array sizes (16 -> 64 virtual elements) with
reduced sample counts and epochs so the suite finishes in minutes, keeping
the full 14x14 train/test SNR grid.
"""

import hashlib
import sys
import time

import numpy as np
import pytest

from arrayemu.arrays import (
    ArrayConfig,
    draw_scene,
    snr_to_noise_var,
    synthesize_block,
    synthesize_pair,
)
from arrayemu.harness import ExperimentConfig, Harness, write_results
from arrayemu.metrics import crb, steering_derivative
from arrayemu.music import (
    doa_mse,
    hermitian_eig,
    music_spectrum,
    noise_subspace,
    pick_peaks,
    sample_covariance,
)
from arrayemu.network import (
    TrainConfig,
    init_model,
    load_model,
    mlp_backward,
    save_model,
)
from arrayemu.arrays import virtual_steering
import conftest
from oracles import fd_gradients, jacobi_eigvals

# Deselect with `pytest -m "not acceptance"` for the fast loop.
pytestmark = pytest.mark.acceptance

LOW = ArrayConfig(4, 4)
HIGH = ArrayConfig(8, 8)
ANGLE_RANGES = [(0.0, 25.0), (20.0, 45.0), (40.0, 65.0)]
NOISELESS_DB = 300.0
# README "Tests": matched-SNR training is within 1.2x of the best training set
# from this test SNR up; below it, the best single-SNR set is trained at a
# higher SNR than the test SNR.
MATCHED_NEAR_OPTIMAL_FROM_DB = -6.0


def report(num, name, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    line = f"[{verdict}] acceptance {num}: {name}"
    if detail:
        line += f" -- {detail}"
    print(line, file=sys.__stdout__, flush=True)
    conftest.ACCEPTANCE_VERDICTS.append(line)
    assert ok, line


def run_music(block, arr, k, grid):
    un = noise_subspace(hermitian_eig(sample_covariance(block)), k)
    angles, _ = pick_peaks(music_spectrum(un, arr, grid), k)
    return angles


# --------------------------------------------------------------------------
# 1. Noiseless MUSIC exactness
# --------------------------------------------------------------------------

def test_01_noiseless_music_exactness():
    start = time.time()
    rng = np.random.default_rng(np.random.SeedSequence([101]))
    scenes_per_range, k = 100, 4
    high_hits = low_hits = total = 0
    for lo, hi in ANGLE_RANGES:
        grid = (lo - 5.0, hi + 5.0, 0.1)
        for _ in range(scenes_per_range):
            scene = draw_scene((lo, hi), k, 5.0, pulses=20, rng=rng)
            truth = np.sort(np.rad2deg(scene.angles_rad))
            bl, bh = synthesize_pair(scene, LOW, HIGH, NOISELESS_DB, rng)
            err_high = np.max(np.abs(run_music(bh, HIGH, k, grid) - truth))
            err_low = np.max(np.abs(run_music(bl, LOW, k, grid) - truth))
            high_hits += err_high <= 0.1 + 1e-9
            low_hits += err_low <= 0.2 + 1e-9
            total += 1
    elapsed = time.time() - start
    ok = high_hits == total and low_hits >= 0.95 * total and elapsed < 300
    report(
        1,
        "noiseless MUSIC exactness",
        ok,
        f"high {high_hits}/{total} within 0.1 deg, low {low_hits}/{total} "
        f"within 0.2 deg, {elapsed:.0f}s",
    )


# --------------------------------------------------------------------------
# 2. Eigensolver oracle equivalence
# --------------------------------------------------------------------------

def _cov(h):
    from arrayemu.music import CovarianceEstimate

    return CovarianceEstimate(matrix=np.asarray(h, dtype=complex), snapshots_used=1)


def test_02_eigensolver_oracle_equivalence():
    rng = np.random.default_rng(202)
    worst_eig = worst_recon = worst_unit = 0.0
    for trial in range(200):
        n = 64 if trial < 4 else int(rng.integers(2, 65))
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        h = (g + g.conj().T) / 2
        eig = hermitian_eig(_cov(h))
        oracle = jacobi_eigvals(h)
        scale = max(np.max(np.abs(oracle)), 1e-300)
        worst_eig = max(worst_eig, np.max(np.abs(eig.eigenvalues - oracle)) / scale)
        v, lam = eig.eigenvectors, eig.eigenvalues
        worst_recon = max(
            worst_recon,
            np.linalg.norm(v @ np.diag(lam) @ v.conj().T - h) / max(np.linalg.norm(h), 1e-300),
        )
        worst_unit = max(worst_unit, np.linalg.norm(v.conj().T @ v - np.eye(n)))
    ok = worst_eig < 1e-8 and worst_recon < 1e-8 and worst_unit < 1e-8
    report(
        2,
        "eigensolver oracle equivalence",
        ok,
        f"200 matrices: eig rel err {worst_eig:.1e}, recon {worst_recon:.1e}, "
        f"unitarity {worst_unit:.1e}",
    )


# --------------------------------------------------------------------------
# 3. Gradient correctness
# --------------------------------------------------------------------------

def test_03_gradient_correctness():
    start = time.time()
    # Includes the default desk-scale architecture: 2L/2L/2L/2H/2H for
    # L = 16 and H = 64 virtual elements.
    cases = [
        ([32, 32, 32, 128, 128], "linear", 404),
        ([5, 7, 6, 4, 3], "relu", 405),
        ([6, 9, 9, 11, 11], "linear", 406),
    ]
    worst = 0.0
    for dims, act, seed in cases:
        rng = np.random.default_rng(seed)
        model = init_model(dims, act, rng)
        x = rng.standard_normal((dims[0], 4))
        t = rng.standard_normal((dims[-1], 4))
        gw, gb, _ = mlp_backward(model, x, t)
        ow, ob = fd_gradients(model, x, t)
        for got, want in zip(gw + gb, ow + ob):
            denom = np.maximum(np.abs(want), 1e-6)
            worst = max(worst, float(np.max(np.abs(got - want) / denom)))
    elapsed = time.time() - start
    ok = worst < 1e-4 and elapsed < 120
    report(
        3,
        "gradient correctness",
        ok,
        f"3 architectures, worst per-parameter rel err {worst:.1e}, {elapsed:.0f}s",
    )


# --------------------------------------------------------------------------
# 4. CRB checks
# --------------------------------------------------------------------------

def test_04_crb_checks():
    rng = np.random.default_rng(407)
    scene = draw_scene((0.0, 25.0), 4, 5.0, pulses=150, rng=rng)

    # Exact linear scaling in the noise power.
    r1 = crb(scene.angles_rad, scene.rcs, 0.37, HIGH)
    r2 = crb(scene.angles_rad, scene.rcs, 2 * 0.37, HIGH)
    scaling_err = float(np.max(np.abs(r2.matrix - 2 * r1.matrix) / np.abs(r2.matrix)))

    # Steering derivative against central finite differences.
    h = 1e-7
    fd_err = 0.0
    for theta in (-1.0, -0.3, 0.0, 0.4, 1.1):
        fd = (virtual_steering(theta + h, HIGH) - virtual_steering(theta - h, HIGH)) / (2 * h)
        d = steering_derivative(theta, HIGH)
        fd_err = max(fd_err, float(np.max(np.abs(d - fd)) / np.max(np.abs(fd))))

    # An unbiased-estimator bound: empirical high-SNR MUSIC MSE must not
    # drop below the trial-averaged CRB (10% statistical slack, Q >= 100).
    trials, snr_db, k = 100, 10.0, 4
    sigma2 = snr_to_noise_var(snr_db)
    grid = (-5.0, 30.0, 0.1)
    estimates, truths, bounds = [], [], []
    for _ in range(trials):
        scene = draw_scene((0.0, 25.0), k, 5.0, pulses=150, rng=rng)
        block = synthesize_block(scene, HIGH, snr_db, rng)
        estimates.append(run_music(block, HIGH, k, grid))
        truths.append(np.sort(np.rad2deg(scene.angles_rad)))
        bounds.append(np.mean(crb(scene.angles_rad, scene.rcs, sigma2, HIGH).diagonal_rad2))
    mse = doa_mse(np.vstack(estimates), np.vstack(truths))
    bound = float(np.mean(bounds))

    ok = scaling_err < 1e-12 and fd_err < 1e-6 and mse >= 0.9 * bound
    report(
        4,
        "CRB checks",
        ok,
        f"sigma2 scaling err {scaling_err:.1e}, derivative FD err {fd_err:.1e}, "
        f"MUSIC MSE {mse:.2e} vs CRB {bound:.2e} (Q={trials})",
    )


# --------------------------------------------------------------------------
# Shared end-to-end pipeline for criteria 5-7 and 9
# --------------------------------------------------------------------------

@pytest.fixture(scope="session")
def pipeline(tmp_path_factory):
    cfg = ExperimentConfig(
        angle_ranges_deg=[(40.0, 65.0)],
        samples_per_set=8000,
        m1_samples=16800,
        m2_samples=2100,
        test_samples=6000,
        train=TrainConfig(epochs=150, split=(0.75, 0.25, 0.0)),
        seed=20260823,
        output_dir=str(tmp_path_factory.mktemp("acceptance")),
    )
    h = Harness(cfg)
    start = time.time()
    for set_id in cfg.set_ids:
        h.ensure_model(0, set_id)
    results = {
        "matched": h.run_case_sweep("matched_snr"),
        "best": h.run_case_sweep("best_of_all"),
        "raw_low": h.run_case_sweep("raw_low"),
        "grid": h.best_train_snr_grid(),
        "denoise": h.denoise_analysis(offsets_db=[8.0]),
        "harness": h,
    }
    results["elapsed"] = time.time() - start
    return results


def test_05_emulation_gain(pipeline):
    raw_low = {r.test_snr_db: r.doa_mse_rad2 for r in pipeline["raw_low"].rows}
    checked, wins = [], []
    for row in pipeline["matched"].rows:
        if row.test_snr_db <= -8.0:
            checked.append(row.test_snr_db)
            wins.append(row.doa_mse_rad2 < raw_low[row.test_snr_db])
    elapsed = pipeline["elapsed"]
    ok = bool(checked) and all(wins) and elapsed < 1800
    report(
        5,
        "emulation gain at low SNR",
        ok,
        f"emulated < raw low at {sum(wins)}/{len(checked)} SNRs <= -8 dB "
        f"(Q={pipeline['harness'].cfg.trials}), pipeline {elapsed:.0f}s",
    )


def test_06_denoising_trend(pipeline):
    snrs = pipeline["harness"].cfg.snr_test_db
    lowest, highest = min(snrs), max(snrs)
    rows = {(r["model"], r["test_snr_db"]): r for r in pipeline["denoise"]}
    details, ok = [], True
    for kind in ("M2", "matched"):
        low_row, high_row = rows[(kind, lowest)], rows[(kind, highest)]
        denoised = low_row["r_offset_8"] < low_row["r_e"]
        gap = abs(high_row["r_e"] - high_row["r_offset_8"])
        ok = ok and denoised and gap < 0.05
        details.append(
            f"{kind}: r_offset {low_row['r_offset_8']:.3f} vs r_e "
            f"{low_row['r_e']:.3f} at {lowest:g} dB, gap {gap:.3f} at {highest:g} dB"
        )
    report(6, "covariance denoising trend", ok, "; ".join(details))


def test_07_matched_snr_near_optimality(pipeline):
    ratios = {
        m.test_snr_db: m.doa_mse_rad2 / b.doa_mse_rad2
        for m, b in zip(pipeline["matched"].rows, pipeline["best"].rows)
    }
    split = MATCHED_NEAR_OPTIMAL_FROM_DB
    near_optimal = {s: r <= 1.2 for s, r in ratios.items() if s >= split}
    best_train = {r["test_snr_db"]: r["train_snr_db"] for r in pipeline["grid"] if r["is_best"]}
    trained_higher = {s: t > s for s, t in best_train.items() if s < split}
    ok = bool(near_optimal) and bool(trained_higher)
    ok = ok and all(near_optimal.values()) and all(trained_higher.values())
    worst = max(ratios, key=ratios.get)
    report(
        7,
        "matched-SNR near-optimality",
        ok,
        f"matched/best <= 1.2 at {sum(r <= 1.2 for r in ratios.values())}/{len(ratios)} "
        f"test SNRs, worst {ratios[worst]:.2f} at {worst:g} dB; "
        f"at >= {split:g} dB: {sum(near_optimal.values())}/"
        f"{len(near_optimal)}; below it, best single-SNR set trained above the test "
        f"SNR at {sum(trained_higher.values())}/{len(trained_higher)}",
    )


# --------------------------------------------------------------------------
# 8. Determinism & serialization
# --------------------------------------------------------------------------

def _tiny_cfg(out_dir):
    return ExperimentConfig(
        low=ArrayConfig(2, 2),
        high=ArrayConfig(2, 3),
        angle_ranges_deg=[(0.0, 25.0)],
        num_targets=2,
        snr_train_db=[-5.0, 5.0],
        snr_test_db=[-5.0, 5.0],
        samples_per_set=120,
        m1_samples=240,
        m2_samples=60,
        test_samples=60,
        snapshots=20,
        train=TrainConfig(epochs=4, batch_size=30, split=(0.75, 0.25, 0.0)),
        grid_step_deg=0.5,
        seed=808,
        output_dir=str(out_dir),
    )


def test_08_determinism_and_serialization(tmp_path):
    def digest(path):
        return hashlib.sha256(open(path, "rb").read()).hexdigest()

    hashes = {}
    for name in ("a", "b"):
        h = Harness(_tiny_cfg(tmp_path / name))
        dset = h.build_set(0, "snr_5")
        model_path = h.model_path(0, "snr_5")
        h.ensure_model(0, "snr_5")
        csv_path = tmp_path / name / "sweep.csv"
        write_results(h.run_case_sweep("matched_snr"), csv_path)
        hashes[name] = (digest(dset), digest(model_path), digest(csv_path))

    model = load_model(Harness(_tiny_cfg(tmp_path / "a")).model_path(0, "snr_5"))
    save_model(model, tmp_path / "resaved.mlp")
    reloaded = load_model(tmp_path / "resaved.mlp")
    bit_exact = all(
        np.array_equal(a, b) for a, b in zip(model.weights, reloaded.weights)
    ) and all(np.array_equal(a, b) for a, b in zip(model.biases, reloaded.biases))
    bit_exact = (
        bit_exact
        and np.array_equal(model.norm_in, reloaded.norm_in)
        and np.array_equal(model.norm_out, reloaded.norm_out)
    )

    ok = hashes["a"] == hashes["b"] and bit_exact
    report(
        8,
        "determinism & serialization",
        ok,
        "dataset/model/CSV byte-identical across rebuilds; save/load bit-exact",
    )


# --------------------------------------------------------------------------
# 9. Grid-table definitional properties
# --------------------------------------------------------------------------

def test_09_grid_table_properties(pipeline):
    cfg = pipeline["harness"].cfg
    rows = pipeline["grid"]
    n_train, n_test = len(cfg.snr_train_db), len(cfg.snr_test_db)
    ok = len(rows) == n_train * n_test and n_train == 14 and n_test == 14
    for snr in cfg.snr_test_db:
        col = [r for r in rows if r["test_snr_db"] == snr]
        ok = ok and sum(r["is_best"] for r in col) == 1
        ok = ok and sum(r["is_second_best"] for r in col) == 1
        best = next(r for r in col if r["is_best"])
        ok = ok and best["within_10pct"]
    report(
        9,
        "grid-table definitional properties",
        ok,
        f"{n_train}x{n_test} grid: one best and one second-best per test SNR, "
        "within-10% set contains the best",
    )
