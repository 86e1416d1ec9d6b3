"""Output checks: which operations of a run produced wrong outputs.

Every run checks invariants: probabilities lie in [0, 1], labels equal
probability >= 0.5, and repeated operations on one input write
byte-identical files. For a seed with a recorded reference under
``reference/``, outputs must also match it: labels exactly, probabilities
and accuracies within ``TOLERANCE``.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from heartstack.config import load_config
from heartstack.errors import HeartstackError
from heartstack.model_store import load_model
from heartstack.pipeline import MODEL_FILE, prepare

TOLERANCE = 1e-9
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def reference_path(workload: str, seed: int) -> Path:
    return REFERENCE_DIR / f"{workload}-{seed}.json"


def failed_operations(workload: str, seed: int, work: Path, ops: list[dict]) -> list[bool]:
    """One flag per operation: True when it exited nonzero or its outputs
    are wrong."""
    observe = {"train": _observe_train, "tune": _observe_tune,
               "predict": _observe_predict}[workload]
    failed = [op["rc"] != 0 for op in ops]
    # Operations that read one input must write the same bytes; each group's
    # first successful output is observed, and the others compared with it.
    groups: dict = {}
    for i, op in enumerate(ops):
        if not failed[i]:
            groups.setdefault(op["size"], []).append(i)
    observed = {}
    for size, members in groups.items():
        first = _output_bytes(workload, ops[members[0]])
        for i in members[1:]:
            if _output_bytes(workload, ops[i]) != first:
                failed[i] = True
        try:
            observed[size] = observe(work, ops[members[0]])
        except (HeartstackError, ValueError, KeyError, IndexError, OSError):  # wrong or missing output
            for i in members:
                failed[i] = True
    path = reference_path(workload, seed)
    if path.is_file():
        reference = json.loads(path.read_text())
        for size, members in groups.items():
            if size in observed and not _matches(observed[size], reference.get(str(size))):
                for i in members:
                    failed[i] = True
    return failed


def _output_files(workload: str, op: dict) -> list[Path]:
    out = Path(op["argv"][-1])
    if workload == "train":
        return [out / "models" / MODEL_FILE, out / "models" / "selection_report.json"]
    if workload == "tune":
        return sorted((out / "baseline").iterdir())
    return [out]


def _output_bytes(workload: str, op: dict) -> list[bytes] | None:
    try:
        return [path.read_bytes() for path in _output_files(workload, op)]
    except OSError:
        return None


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


def _check_probabilities(proba: np.ndarray, labels: np.ndarray) -> None:
    _require(bool(np.all((proba >= 0.0) & (proba <= 1.0))), "probability outside [0, 1]")
    _require(bool(np.array_equal(labels, (proba >= 0.5).astype(np.int64))),
             "label differs from probability >= 0.5")


def _observe_train(work: Path, op: dict) -> dict:
    """Reload the saved stack and score the test split with it."""
    out = Path(op["argv"][-1]) / "models"
    model = load_model(out / MODEL_FILE)
    test = prepare(load_config(work / "config.json")).split.test
    proba = model.predict_proba(test.X)
    labels = model.predict(test.X)
    _check_probabilities(proba, labels)
    selected = json.loads((out / "selection_report.json").read_text())["selected"]
    _require(len(selected) == len(model.bases), "selection report disagrees with the model")
    return {"selected": selected, "probabilities": proba.tolist(),
            "labels": "".join(map(str, labels.tolist()))}


def _observe_tune(work: Path, op: dict) -> dict:
    out = Path(op["argv"][-1]) / "baseline"
    with open(out / "baseline_table.csv", newline="") as handle:
        rows = list(csv.reader(handle))[1:]
    table = {algo: [float(cv), float(test)] for algo, cv, test, *_ in rows}
    accuracies = np.array(list(table.values()))
    _require(bool(np.all((accuracies >= 0.0) & (accuracies <= 1.0))), "accuracy outside [0, 1]")
    tests = [float(row[2]) for row in rows]
    _require(tests == sorted(tests, reverse=True), "table is not sorted by test accuracy")
    grids = json.loads((out / "grid_search_results.json").read_text())
    return {"ranking": [row[0] for row in rows], "accuracies": table,
            "winners": {algo: result["best_params"] for algo, result in grids.items()}}


def _observe_predict(work: Path, op: dict) -> dict:
    """Per dataset row, the probability and label the request wrote for it."""
    with open(op["argv"][-1], newline="") as handle:
        rows = list(csv.reader(handle))[1:]
    picks = json.loads((work / "query_rows.json").read_text())[str(op["size"])]
    _require(len(rows) == len(picks), "output row count differs from the input")
    proba = np.array([float(r[1]) for r in rows])
    labels = np.array([int(r[2]) for r in rows])
    _check_probabilities(proba, labels)
    by_row = {}
    for row, p, label in zip(picks, proba.tolist(), labels.tolist()):
        _require(by_row.setdefault(row, (p, label)) == (p, label),
                 "one input row scored two ways in one request")
    order = sorted(by_row)
    return {"rows": order, "probabilities": [by_row[r][0] for r in order],
            "labels": "".join(str(by_row[r][1]) for r in order)}


def _matches(observed, reference) -> bool:
    """Equal structure; floats within TOLERANCE, everything else exactly."""
    if isinstance(reference, float) or isinstance(observed, float):
        return (isinstance(observed, (int, float)) and isinstance(reference, (int, float))
                and abs(observed - reference) <= TOLERANCE)
    if isinstance(reference, dict):
        return (isinstance(observed, dict) and observed.keys() == reference.keys()
                and all(_matches(observed[k], reference[k]) for k in reference))
    if isinstance(reference, list):
        return (isinstance(observed, list) and len(observed) == len(reference)
                and all(_matches(o, r) for o, r in zip(observed, reference)))
    return observed == reference
