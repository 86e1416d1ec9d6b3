#!/usr/bin/env python3
"""Print every digest set the tests pin, as computed by this checkout.

    python3 scripts/record_digests.py [--against OTHER.json] > digests.json

The sets are ``TREES_SHA256``, ``DFS_TREES_SHA256``,
``BOOTSTRAP_TREES_SHA256``, ``FOLD_DOC_SHA256``, ``FOREST_FOLD_DOC_SHA256``
and ``FOLD_PROBA_SHA256`` of
``tests/test_forest_engine.py``, ``PROBA_SHA256`` and ``STAGED_SHA256``
of ``tests/test_golden_predictions.py``, and ``STUDY_SHA256`` of
``tests/test_study_digests.py``. Each is computed with the tests'
own data and hash helpers, so the output can be pasted over the literals.
With ``--against``, a file this script wrote for another checkout, it also
prints to stderr which entries of each set moved.

A declared output change runs it at the parent and at the change and lists
the sets that moved.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import test_forest_engine as engine  # noqa: E402
import test_golden_predictions as golden  # noqa: E402
import test_study_digests as study  # noqa: E402


def digests() -> dict[str, dict[str, str]]:
    forest_data = engine.make_forest_data()
    out = {
        "TREES_SHA256": {case: engine.forest_trees_digest(case, forest_data)
                         for case in sorted(engine.CASES)},
        "DFS_TREES_SHA256": {case: engine.dfs_trees_digest(case, forest_data)
                             for case in sorted(engine.DFS_CASES)},
        "BOOTSTRAP_TREES_SHA256": engine.bootstrap_trees_digests(),
        "FOLD_DOC_SHA256": {}, "FOREST_FOLD_DOC_SHA256": {}, "FOLD_PROBA_SHA256": {},
    }
    folds = engine.make_study_folds()
    for doc_set, cases in (("FOLD_DOC_SHA256", engine.FOLD_CASES),
                           ("FOREST_FOLD_DOC_SHA256", engine.FOREST_FOLD_CASES)):
        for case in sorted(cases):
            for fold in engine.FOLDS:
                key = f"{case}-{fold}"
                out[doc_set][key], out["FOLD_PROBA_SHA256"][key] = \
                    engine.fold_digests(*cases[case], folds[fold])
    out["FOLD_PROBA_SHA256"] = dict(sorted(out["FOLD_PROBA_SHA256"].items()))
    golden_data = golden.make_golden_data()
    out["PROBA_SHA256"] = {a: golden.proba_digest(a, golden_data) for a in golden.ALGORITHMS}
    out["STAGED_SHA256"] = {a: golden.staged_digest(a, golden_data)
                            for a in sorted(golden.STAGEABLE)}
    # The study's commands print where they wrote; keep stdout for the JSON.
    with tempfile.TemporaryDirectory() as root, contextlib.redirect_stdout(sys.stderr):
        out["STUDY_SHA256"] = study.study_digests(Path(root))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--against", type=Path,
                        help="digests of another checkout, to list what moved")
    args = parser.parse_args(argv)
    out = digests()
    print(json.dumps(out, indent=1))
    if args.against:
        other = json.loads(args.against.read_text())
        for name, entries in out.items():
            moved = sorted(k for k in entries.keys() | other.get(name, {}).keys()
                           if entries.get(k) != other.get(name, {}).get(k))
            print(f"{name}: {len(moved)} of {len(entries)} moved {moved}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
