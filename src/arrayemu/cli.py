"""Command-line entry point binding config files to harness operations.

Verbs: gen-data, train, eval, sweep, grid, denoise, crb, demo.  All verbs
share ``--config``, repeatable ``--set KEY=VALUE`` overrides, ``--seed``
and ``--out``; results land in the configured output directory.  Exit
status: 0 success, 1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .arrays import ArrayConfig, draw_rcs, synthesize_block
from .harness import (
    CASES,
    CONFIG_KEYS,
    ExperimentConfig,
    Harness,
    config_from_items,
    parse_config_file,
    write_grid,
    write_results,
    write_rows,
)
from .music import music_doas, sample_covariance

VERBS = ("gen-data", "train", "eval", "sweep", "grid", "denoise", "crb", "demo")


def _build_parser() -> argparse.ArgumentParser:
    keys = ", ".join(sorted(CONFIG_KEYS))
    parser = argparse.ArgumentParser(
        prog="arrayemu",
        description="MIMO radar DOA estimation with neural emulation of large virtual arrays.",
        epilog=f"Config keys accepted by --config files and --set overrides: {keys}",
    )
    sub = parser.add_subparsers(dest="verb", metavar="|".join(VERBS))
    for verb in VERBS:
        p = sub.add_parser(verb)
        p.add_argument("--config", help="flat key=value experiment config file")
        p.add_argument(
            "--set",
            dest="overrides",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override a config key (repeatable)",
        )
        p.add_argument("--seed", type=int, help="override the master seed")
        p.add_argument("--out", help="override the output directory")
        if verb == "eval":
            p.add_argument("--train-set", default="M1", help="training set id to evaluate")
        if verb == "sweep":
            p.add_argument("--case", default="matched_snr", help=" | ".join(CASES))
    return parser


def _load_config(args) -> ExperimentConfig:
    overrides = {}
    for item in args.overrides:
        if "=" not in item:
            raise KeyError(f"--set expects KEY=VALUE, got {item!r}")
        key, value = item.split("=", 1)
        overrides[key.strip()] = value.strip()
    # --seed and --out win over the config file and every --set.
    if args.seed is not None:
        overrides["seed"] = str(args.seed)
    if args.out is not None:
        overrides["output_dir"] = args.out
    if args.config:
        return parse_config_file(args.config, overrides)
    return config_from_items(overrides)


def _write_csv(cfg: ExperimentConfig, name: str, writer, table) -> None:
    """Write ``table`` with ``writer`` to ``results/<name>``; the writer
    creates the directory only now that there is something to write."""
    path = os.path.join(cfg.output_dir, "results", name)
    writer(table, path)
    print(f"wrote {path}")


def run_demo() -> int:
    """Noiseless two-target MUSIC round trip on a 4x4 virtual array."""
    cfg = ArrayConfig(2, 2)
    truth_deg = np.array([-10.0, 20.0])
    rcs = draw_rcs(2, 32, rng=1234)
    block = synthesize_block(np.deg2rad(truth_deg), rcs, cfg, snr_db=300.0, rng=0)
    angles = music_doas(sample_covariance(block[None]), cfg, (-30.0, 40.0, 0.1), 2)[0]
    print("true angles (deg):     " + "  ".join(f"{a:7.2f}" for a in truth_deg))
    print("recovered angles (deg):" + "  ".join(f"{a:7.2f}" for a in angles))
    return 0


def dispatch(args) -> int:
    if args.verb == "demo":
        return run_demo()
    cfg = _load_config(args)
    harness = Harness(cfg)
    if args.verb == "gen-data":
        paths = harness.build_datasets()
        print(f"wrote {len(paths)} dataset files under {cfg.output_dir}/datasets")
    elif args.verb == "train":
        for r in range(len(cfg.angle_ranges_deg)):
            for sid in cfg.set_ids:
                if not os.path.exists(harness.model_path(r, sid)):
                    harness.train_set(r, sid)
                    print(f"trained {cfg.range_tag(r)}/{sid}")
    elif args.verb == "eval":
        # eval never trains: every range needs the set's model file.
        for r in range(len(cfg.angle_ranges_deg)):
            path = harness.model_path(r, args.train_set)
            if not os.path.exists(path):
                raise FileNotFoundError(
                    f"no trained model for set {args.train_set!r} "
                    f"({cfg.range_tag(r)}): expected {path}"
                )
        result = harness.set_sweep(args.train_set)
        _write_csv(cfg, f"eval_{args.train_set}.csv", write_results, result)
    elif args.verb == "sweep":
        _write_csv(cfg, f"sweep_{args.case}.csv", write_results, harness.run_case_sweep(args.case))
    elif args.verb == "grid":
        _write_csv(cfg, "grid.csv", write_grid, harness.best_train_snr_grid())
    elif args.verb == "denoise":
        _write_csv(cfg, "denoise.csv", write_rows, harness.denoise_analysis())
    elif args.verb == "crb":
        _write_csv(cfg, "crb.csv", write_rows, harness.crb_table())
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    if args.verb is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        return dispatch(args)
    except KeyError as exc:
        print(f"arrayemu: usage error: {exc.args[0]}", file=sys.stderr)
        return 2
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"arrayemu: error: {exc}", file=sys.stderr)
        return 1


def entry_point():  # console-script shim
    raise SystemExit(main())


if __name__ == "__main__":
    entry_point()
