"""Command-line entry points: gen-data, train, eval, gradcheck.

Errors print one machine-readable JSON line to stderr ({"error": type,
"message": text}) and exit nonzero; success prints human-readable
summaries to stdout and exits 0.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

from .data import FileFormatError, GeneratorConfig, generate_synthetic_lt, save_features
from .schema import spec_of
from .training import TrainConfig, evaluate, run_gradcheck, train

__all__ = ["main"]

# gen-data's flags, each with the GeneratorConfig field it sets and takes
# its default from.
GEN_FLAGS = {"classes": "c", "n-max": "n_max", "exponent": "pareto_exponent",
             "ramp": "pareto_ramp", "tokens": "v", "feat-dim": "d0",
             "cooccur": "co_occurrence_strength", "noise": "noise_sigma", "seed": "seed",
             "test-per-class": "test_per_class"}


def _cmd_gen_data(args) -> int:
    cfg = GeneratorConfig(**{name: getattr(args, flag.replace("-", "_"))
                             for flag, name in GEN_FLAGS.items()})
    train_ds, test_ds = generate_synthetic_lt(cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_features(train_ds, out / "train.cprf")
    save_features(test_ds, out / "test.cprf")
    counts = train_ds.class_counts
    groups = train_ds.groups
    print(f"wrote {out / 'train.cprf'}: {len(train_ds)} samples, "
          f"{train_ds.c} classes, counts {counts.max()}..{counts.min()}")
    print(f"wrote {out / 'test.cprf'}: {len(test_ds)} samples "
          f"({args.test_per_class} per class)")
    print(f"groups: {groups.count('head')} head, {groups.count('medium')} medium, "
          f"{groups.count('tail')} tail")
    return 0


def _read_config(path) -> TrainConfig:
    """Load a config file; malformed JSON or a config the schema refuses
    is a FileFormatError that names the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return TrainConfig.from_dict(json.load(fh))
        except ValueError as exc:
            raise FileFormatError(f"{path}: {exc}") from exc


def _cmd_train(args) -> int:
    cfg = _read_config(args.config)
    result = train(cfg, args.data, args.out, resume_from=args.resume)
    last = result.history[-1]
    print(f"trained {cfg.epochs} epochs; final train loss {last['train_loss']:.5f}")
    for key in ("map_total", "map_head", "map_medium", "map_tail"):
        value = last[key]
        print(f"{key}: {'n/a' if value is None else f'{value:.4f}'}")
    print(f"final checkpoint: {result.final_checkpoint}")
    return 0


def _cmd_eval(args) -> int:
    report = evaluate(args.checkpoint, args.data)
    for key, value in (("map_total", report.map_total),
                       ("map_head", report.map_head),
                       ("map_medium", report.map_medium),
                       ("map_tail", report.map_tail)):
        print(f"{key}: {'n/a' if value is None else f'{value:.4f}'}")
    if report.skipped_classes:
        print(f"skipped classes (no positives): {report.skipped_classes}")
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        print(f"full report written to {args.report}")
    return 0


def _cmd_gradcheck(args) -> int:
    cfg = _read_config(args.config)
    report = run_gradcheck(cfg, eps=args.eps, tolerance=args.tolerance)
    status = "PASS" if report.passed else "FAIL"
    print(f"{status}: max relative error {report.max_rel_error:.3e} "
          f"at {report.worst_param} ({report.n_entries} entries, "
          f"tolerance {report.tolerance:.1e})")
    return 0 if report.passed else 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="promptrefine",
        description="Prompt-refined long-tail multi-label classification.")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="generate a synthetic long-tailed dataset")
    g.add_argument("--out", required=True, help="output directory")
    gen = spec_of(GeneratorConfig)
    for flag, name in GEN_FLAGS.items():
        default = gen[name].default
        g.add_argument(f"--{flag}", type=type(default), default=default)
    g.set_defaults(func=_cmd_gen_data)

    t = sub.add_parser("train", help="train from a config JSON and a data directory")
    t.add_argument("--config", required=True, help="training config JSON")
    t.add_argument("--data", required=True,
                   help="directory holding train.cprf and test.cprf")
    t.add_argument("--out", required=True, help="checkpoint output directory")
    t.add_argument("--resume", default=None, help="checkpoint to resume from")
    t.set_defaults(func=_cmd_train)

    e = sub.add_parser("eval", help="evaluate a checkpoint on a feature file")
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--data", required=True, help="feature file to score")
    e.add_argument("--report", default=None, help="write the full JSON report here")
    e.set_defaults(func=_cmd_eval)

    c = sub.add_parser("gradcheck", help="finite-difference check a config's model")
    c.add_argument("--config", required=True, help="training config JSON")
    c.add_argument("--eps", type=float, default=1e-5)
    c.add_argument("--tolerance", type=float, default=1e-4)
    c.set_defaults(func=_cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(message)s")
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # surface every failure as a machine-readable line
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
