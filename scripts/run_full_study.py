#!/usr/bin/env python3
"""End-to-end study run: analyze, baseline comparison, stack training and
evaluation with the default (study-reproducing) configuration.

Points at a real combined heart-disease CSV when given one; otherwise
generates the synthetic stand-in first. On the stand-in the whole study
took 59 s and 91 s of wall time in two runs on a 2-CPU Xeon, nearly two
thirds of it in the baseline grids.
"""

import argparse
import json
import time
from pathlib import Path

from heartstack.config import DEFAULT_SEED, config_to_dict, paper_default_config
from heartstack.pipeline import cmd_analyze, cmd_baseline, cmd_evaluate, cmd_train
from heartstack.synthetic import write_dataset_csv


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--csv", help="combined heart-disease CSV (synthetic stand-in if omitted)")
    parser.add_argument("--out", default="out/full_study")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    args = parser.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = args.csv
    if csv_path is None:
        csv_path = out / "heart_synthetic.csv"
        write_dataset_csv(csv_path)
        print(f"generated synthetic stand-in at {csv_path}")

    config = paper_default_config(str(csv_path), seed=args.seed, out_dir=str(out))
    (out / "config.json").write_text(json.dumps(config_to_dict(config), indent=2))

    t0 = time.time()
    cmd_analyze(config)
    print(f"[{time.time()-t0:6.0f}s] analysis written")
    baseline = cmd_baseline(config)
    print(f"[{time.time()-t0:6.0f}s] baseline ranking: {baseline['ranking']}")
    trained = cmd_train(config)
    print(f"[{time.time()-t0:6.0f}s] stacked model saved to {trained['model_path']}")
    evaluated = cmd_evaluate(config, trained["model_path"])
    stacked = evaluated["reports"]["stacked"]
    print(f"[{time.time()-t0:6.0f}s] stacked test metrics: "
          + " ".join(f"{k}={v}" for k, v in stacked.display_row().items()))


if __name__ == "__main__":
    main()
