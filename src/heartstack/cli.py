"""Command-line interface: analyze, baseline, train, evaluate, predict."""

from __future__ import annotations

import argparse
import sys
from functools import cache
from pathlib import Path

from .config import load_config
from .errors import ConfigError, HeartstackError
from .pipeline import (
    MODEL_FILE,
    cmd_analyze,
    cmd_baseline,
    cmd_evaluate,
    cmd_predict,
    cmd_train,
)


@cache  # built on the first main() call of a process, not at import
def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="pipeline config file (JSON)")
    common.add_argument("--seed", type=int, help="override the config seed")
    common.add_argument("--out", help="override the config output directory")

    parser = argparse.ArgumentParser(
        prog="heartstack",
        description="Heart-disease risk prediction with a stacked ensemble of "
                    "from-scratch learners.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("analyze", parents=[common],
                   help="validation, cleaning, summary and correlation reports")
    baseline = sub.add_parser("baseline", parents=[common],
                              help="grid-search and cross-validate all candidates")
    baseline.add_argument("--seeds", type=int, default=None,
                          help="additionally sweep N split seeds (mean and std)")
    sub.add_parser("train", parents=[common], help="fit and save the stacked model")
    evaluate = sub.add_parser("evaluate", parents=[common],
                              help="score the stack and its bases on the test split")
    evaluate.add_argument("--model", help=f"model file (default <out>/models/{MODEL_FILE})")
    predict = sub.add_parser("predict", parents=[common],
                             help="score a feature CSV with a saved model")
    predict.add_argument("--model", required=True, help="model file")
    predict.add_argument("--input", required=True, help="CSV with the 11 feature columns")
    predict.add_argument("--output", help="predictions file (default <out>/predictions.csv)")
    return parser


def _load(args):
    if not args.config:
        raise ConfigError("--config is required for this command")
    overrides = {"seed": args.seed, "out_dir": args.out}
    return load_config(args.config, {k: v for k, v in overrides.items() if v is not None})


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "analyze":
            result = cmd_analyze(_load(args))
            print(f"analysis reports written to {result['out']}")
        elif args.command == "baseline":
            result = cmd_baseline(_load(args), sweep_seeds=args.seeds)
            print(f"baseline table written to {result['out']}")
        elif args.command == "train":
            result = cmd_train(_load(args))
            print(f"stacked model written to {result['model_path']}")
        elif args.command == "evaluate":
            config = _load(args)
            model = args.model or str(Path(config.out_dir) / "models" / MODEL_FILE)
            result = cmd_evaluate(config, model)
            print(f"evaluation reports written to {result['out']}")
        elif args.command == "predict":
            out_dir = Path(args.out) if args.out else Path("out")
            output = args.output or str(out_dir / "predictions.csv")
            result = cmd_predict(args.model, args.input, output)
            print(f"predictions written to {result['out']}")
    except HeartstackError as exc:
        print(f"error[{exc.category}]: {exc}", file=sys.stderr)
        return exc.exit_code
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
