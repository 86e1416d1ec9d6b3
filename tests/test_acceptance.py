"""Acceptance suite: one test per criterion, each printing a PASS line.

The data-dependent criteria run against the combined heart-disease CSV when
HEARTSTACK_CSV points at it, and otherwise against the calibrated synthetic
stand-in (see heartstack.synthetic). Grid winners and baseline ordering are
asserted for the shipped default seed only; they are seed-sensitive.

Run with: pytest tests/test_acceptance.py -v -s
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from conftest import random_classification
from heartstack.cleaning import clean
from heartstack.config import DEFAULT_SEED, config_from_dict, paper_default_config
from heartstack.dataset import parse_csv
from heartstack.analysis import correlation_with_target
from heartstack.learners import ALGORITHMS, LearnerSpec, fit, best_split
from heartstack.learners.linear import logistic_loss_and_grad
from heartstack.learners.mlp import init_params, loss_and_grad
from heartstack.learners.tree import grow_forest, GrowParams, tree_apply
from heartstack.metrics import (
    ConfusionMatrix,
    metric_report,
    roc_curve,
    truncate_percent,
)
from heartstack.model_store import load_model, save_model
from heartstack.pipeline import cmd_analyze, cmd_baseline, cmd_evaluate, cmd_train
from heartstack.reporting import read_csv
from heartstack.rng import stream
from heartstack.splitting import stratified_split
from heartstack.stacking import fit_stack
from heartstack.synthetic import REFERENCE_CORRELATIONS

from test_metrics import mann_whitney
from test_tree import brute_force_split

# Published per-model evaluation rows this toolkit is built to reproduce:
# accuracy, precision, sensitivity, specificity, f1, roc, mcc in percent.
REFERENCE_STACKED_ROW = (92.34, 92.00, 93.49, 91.07, 92.74, 92.28, 84.64)

# (sensitivity, specificity, printed roc) for every published row.
REFERENCE_SENS_SPEC_ROC = (
    (93.49, 91.07, 92.28),  # stacked
    (95.12, 84.82, 89.97),  # random forest
    (89.43, 78.57, 84.00),  # mlp
    (86.99, 74.10, 80.54),  # knn
    (94.30, 86.60, 90.45),  # extra trees
    (94.30, 89.28, 91.79),  # xgb
    (88.61, 75.89, 82.25),  # svc
    (87.80, 75.89, 81.84),  # sgd
    (88.61, 77.67, 83.14),  # adaboost
    (86.99, 81.25, 84.12),  # cart
    (90.24, 77.67, 83.96),  # gbm
)

REFERENCE_ACCURACY = 92.34


def report_line(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} {name}: {status}{' — ' + detail if detail else ''}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def display_metrics(cm: ConfusionMatrix):
    r = metric_report(cm)
    return tuple(truncate_percent(v) for v in (
        r.accuracy, r.precision, r.sensitivity, r.specificity, r.f1,
        r.balanced_auc, r.mcc))


def reconstruct_confusion_matrix(max_total=260):
    """Exhaustive integer search for the matrix whose displayed metrics
    reproduce the published stacked row."""
    acc, prec, sens, spec, f1, roc, mcc = REFERENCE_STACKED_ROW
    matches = []
    for positives in range(1, max_total):
        tp_lo = math.floor(positives * (sens - 0.02) / 100)
        tp_hi = math.ceil(positives * (sens + 0.02) / 100)
        for tp in range(max(tp_lo, 0), min(tp_hi, positives) + 1):
            if truncate_percent(tp / positives) != sens:
                continue
            fn = positives - tp
            for negatives in range(1, max_total - positives + 1):
                tn_lo = math.floor(negatives * (spec - 0.02) / 100)
                tn_hi = math.ceil(negatives * (spec + 0.02) / 100)
                for tn in range(max(tn_lo, 0), min(tn_hi, negatives) + 1):
                    if truncate_percent(tn / negatives) != spec:
                        continue
                    fp = negatives - tn
                    cm = ConfusionMatrix(tp=tp, tn=tn, fp=fp, fn=fn)
                    if display_metrics(cm) == REFERENCE_STACKED_ROW:
                        matches.append((tp, fn, fp, tn))
    return matches


def test_criterion_1_metric_suite_exactness():
    matches = reconstruct_confusion_matrix()
    assert matches == [(115, 8, 10, 102)], matches
    cm = ConfusionMatrix(tp=115, fn=8, fp=10, tn=102)
    displayed = display_metrics(cm)
    deltas = [abs(a - b) for a, b in zip(displayed, REFERENCE_STACKED_ROW)]
    report_line(1, "metric-suite exactness",
                all(d <= 0.005 for d in deltas),
                f"cm=(115,8,10,102) displayed={displayed}")


def test_criterion_2_balanced_auc_matches_published_roc_column():
    worst = 0.0
    for sens, spec, printed_roc in REFERENCE_SENS_SPEC_ROC:
        balanced = (sens + spec) / 2
        worst = max(worst, abs(balanced - printed_roc))
    report_line(2, "balanced-AUC formula consistency", worst <= 0.01,
                f"max |(sens+spec)/2 - printed| = {worst:.4f} over {len(REFERENCE_SENS_SPEC_ROC)} rows")


def test_criterion_3_dataset_fidelity(dataset):
    ok_rows = dataset.n_rows == 1190 and dataset.X.shape[1] == 11
    male_pct = round(100 * float(dataset.column("sex").mean()))
    table = correlation_with_target(dataset)
    worst = max(abs(table.entries[name] - want)
                for name, want in REFERENCE_CORRELATIONS.items())
    ok = ok_rows and male_pct == 76 and worst <= 0.02
    report_line(3, "dataset fidelity", ok,
                f"rows={dataset.n_rows} male%={male_pct} max corr err={worst:.4f}")


@pytest.fixture(scope="session")
def stack_sweep(cleaned_dataset):
    """Stacked and best-single-base test accuracies across five split seeds."""
    results = []
    for offset in range(5):
        seed = DEFAULT_SEED + offset
        split = stratified_split(cleaned_dataset, 0.8, seed)
        config = paper_default_config("unused", seed=seed)
        stack = fit_stack(config.stacking, split.train.X, split.train.y)
        stacked_acc = float((stack.predict(split.test.X) == split.test.y).mean())
        base_accs = [float((b.predict(split.test.X) == split.test.y).mean())
                     for b in stack.bases]
        results.append({"seed": seed, "stacked": stacked_acc, "best_base": max(base_accs)})
    return results


def test_criterion_4_end_to_end_reproduction(stack_sweep):
    default = stack_sweep[0]["stacked"]
    mean_stacked = float(np.mean([r["stacked"] for r in stack_sweep]))
    mean_best_base = float(np.mean([r["best_base"] for r in stack_sweep]))
    in_band = 0.885 <= default <= 0.96
    near_reference = abs(mean_stacked * 100 - REFERENCE_ACCURACY) <= 3.5
    dominates = mean_stacked >= mean_best_base - 0.01
    report_line(4, "end-to-end reproduction",
                in_band and near_reference and dominates,
                f"default={default*100:.2f}% mean={mean_stacked*100:.2f}% "
                f"best-base mean={mean_best_base*100:.2f}%")


@pytest.fixture(scope="session")
def baseline_run(dataset_csv, tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance_baseline")
    config = paper_default_config(str(dataset_csv), out_dir=str(out))
    return cmd_baseline(config)


def test_criterion_5_baseline_ordering(baseline_run):
    out = Path(baseline_run["out"])
    _, header, rows = read_csv(out / "baseline_table.csv")
    ranking = [r[0] for r in rows]
    test_acc = {r[0]: float(r[2]) for r in rows}
    top3 = set(ranking[:3])
    ok_top = top3 == {"xgb_style", "extra_trees", "random_forest"}
    ok_floor = all(test_acc[a] >= 0.86 for a in top3)
    knn_rank = [a for a in sorted(ranking, key=lambda a: test_acc[a])].index("knn")
    ok_knn = knn_rank <= 1
    report_line(5, "baseline ordering", ok_top and ok_floor and ok_knn,
                f"top3={ranking[:3]} knn_rank_from_bottom={knn_rank} "
                + " ".join(f"{a}={test_acc[a]*100:.2f}" for a in ranking))


def test_criterion_6_grid_search_agreement(baseline_run):
    # Seed-sensitive: asserted for the shipped default seed only.
    tuned = {e["algorithm"]: e["spec"].resolved() for e in baseline_run["tuned"]}
    xgb_n = tuned["xgb_style"]["n_estimators"]
    et_n = tuned["extra_trees"]["n_estimators"]
    knn_k = tuned["knn"]["k"]
    ok = xgb_n == 500 and et_n == 500 and knn_k == 9
    report_line(6, "grid-search agreement", ok,
                f"xgb n={xgb_n} extra n={et_n} knn k={knn_k}")


def test_criterion_7_oracle_equivalences():
    rng = np.random.default_rng(4242)
    agree = 0
    for _ in range(200):
        n = int(rng.integers(2, 13))
        d = int(rng.integers(1, 4))
        X = np.round(rng.normal(size=(n, d)), 2)
        y = rng.integers(0, 2, n)
        criterion = ("gini", "entropy")[int(rng.integers(0, 2))]
        got = best_split(X, y, None, range(d), criterion)
        want = brute_force_split(X, y, None, range(d), criterion)
        if want is None:
            assert got is None
        else:
            assert got is not None
            assert (got[0], got[1]) == (want[0], want[1])
            assert abs(got[2] - want[2]) <= 1e-12
        agree += 1

    roc_checked = 0
    for _ in range(100):
        n = int(rng.integers(4, 30))
        y = rng.integers(0, 2, n)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        scores = np.round(rng.random(n), 2)
        curve = roc_curve(y, scores)
        assert abs(curve.area - mann_whitney(y, scores)) <= 1e-12
        roc_checked += 1

    memorized = 0
    for _ in range(50):
        n = int(rng.integers(5, 80))
        X, y = random_classification(rng, n, int(rng.integers(1, 5)))
        tree = grow_forest(X, y, GrowParams(), [stream(DEFAULT_SEED, "cart")])
        assert ((tree_apply(tree, X) >= 0.5).astype(int) == y).all()
        memorized += 1

    report_line(7, "oracle equivalences", True,
                f"{agree} split instances, {roc_checked} ROC vectors, "
                f"{memorized} memorization instances")


def test_criterion_8_numerical_checks():
    rng = np.random.default_rng(808)
    worst_rel = 0.0
    for trial in range(20):
        n = int(rng.integers(6, 20))
        d = int(rng.integers(2, 6))
        X = rng.normal(size=(n, d))
        y = rng.integers(0, 2, n).astype(float)
        if trial % 2 == 0:
            w = 0.5 * rng.normal(size=d)
            b = float(rng.normal())
            l2 = float(rng.uniform(0, 0.05))
            loss, grad_w, grad_b = logistic_loss_and_grad(w, b, X, y, l2)
            flat = np.concatenate([grad_w, [grad_b]])
            fd = np.empty_like(flat)
            step = 1e-5
            for i in range(d):
                wp, wm = w.copy(), w.copy()
                wp[i] += step
                wm[i] -= step
                fd[i] = (logistic_loss_and_grad(wp, b, X, y, l2)[0]
                         - logistic_loss_and_grad(wm, b, X, y, l2)[0]) / (2 * step)
            fd[d] = (logistic_loss_and_grad(w, b + step, X, y, l2)[0]
                     - logistic_loss_and_grad(w, b - step, X, y, l2)[0]) / (2 * step)
            rel = np.linalg.norm(flat - fd) / max(np.linalg.norm(flat), np.linalg.norm(fd))
        else:
            hidden = int(rng.integers(2, 6))
            params = list(init_params(d, hidden, seed=int(rng.integers(1000))))
            _, grads = loss_and_grad(params, X, y)
            analytic = np.concatenate([np.atleast_1d(np.asarray(g)).ravel() for g in grads])
            fd = []
            step = 1e-5
            for idx, p in enumerate(params):
                flat_p = np.atleast_1d(np.asarray(p, dtype=float)).ravel()
                for j in range(flat_p.size):
                    for sign in (+1, -1):
                        trial_params = [np.array(q, dtype=float, copy=True) for q in params]
                        tp = np.atleast_1d(trial_params[idx]).ravel()
                        tp[j] += sign * step
                        trial_params[idx] = tp.reshape(np.shape(params[idx]))
                        if sign > 0:
                            hi = loss_and_grad(trial_params, X, y)[0]
                        else:
                            lo = loss_and_grad(trial_params, X, y)[0]
                    fd.append((hi - lo) / (2 * step))
            fd = np.array(fd)
            rel = np.linalg.norm(analytic - fd) / max(np.linalg.norm(analytic),
                                                      np.linalg.norm(fd))
        worst_rel = max(worst_rel, rel)
    assert worst_rel < 1e-4

    worst_increase = -np.inf
    for trial in range(10):
        n = int(rng.integers(20, 60))
        X, y = random_classification(rng, n, 4)
        algo = ("gbm", "xgb_style")[trial % 2]
        model = fit(LearnerSpec(algo, {"n_estimators": 20, "learning_rate": 0.3}, seed=trial),
                    X, y)
        losses = []
        for proba in model.staged_proba(X, list(range(1, 21))):
            p = np.clip(proba, 1e-12, 1 - 1e-12)
            losses.append(float(-(y * np.log(p) + (1 - y) * np.log(1 - p)).mean()))
        worst_increase = max(worst_increase, float(np.max(np.diff(losses))))
    assert worst_increase <= 1e-12

    report_line(8, "numerical checks", True,
                f"max gradient rel err={worst_rel:.2e}, "
                f"max loss increase={worst_increase:.2e}")


def test_criterion_9_determinism_and_persistence(dataset_csv, tmp_path):
    reduced = {
        "dataset": str(dataset_csv),
        "seed": 4242,
        "folds": 3,
        "candidates": [
            {"algorithm": "xgb_style", "hyperparameters": {"n_estimators": 10},
             "grid": {"n_estimators": [5, 10]}},
            {"algorithm": "cart", "hyperparameters": {}},
            {"algorithm": "naive_bayes", "hyperparameters": {}},
        ],
        "stacking": {"top_n": 2, "meta_algorithm": "sgd_logistic",
                     "meta_hyperparameters": {"epochs": 15}, "oof_folds": 3},
    }

    def run_all(out_dir):
        config = config_from_dict({**reduced, "out_dir": str(out_dir)})
        cmd_analyze(config)
        cmd_baseline(config)
        result = cmd_train(config)
        cmd_evaluate(config, result["model_path"])
        files = {}
        for path in sorted(Path(out_dir).rglob("*")):
            if path.is_file():
                files[str(path.relative_to(out_dir))] = path.read_bytes()
        return files

    first = run_all(tmp_path / "run1")
    second = run_all(tmp_path / "run2")
    assert first.keys() == second.keys()
    diffs = [name for name in first if first[name] != second[name]]
    assert not diffs, f"byte differences in {diffs}"

    # save/load round trip: bit-identical predictions for every algorithm
    rng = np.random.default_rng(11)
    X, y = random_classification(rng, 60, 11)
    queries = rng.normal(size=(100, 11))
    small = {"random_forest": {"n_estimators": 8}, "extra_trees": {"n_estimators": 8},
             "gbm": {"n_estimators": 8}, "xgb_style": {"n_estimators": 8},
             "adaboost": {"n_estimators": 6}, "mlp": {"epochs": 40},
             "sgd_logistic": {"epochs": 15}, "linear_svc": {"epochs": 15}}
    for algorithm in ALGORITHMS:
        model = fit(LearnerSpec(algorithm, small.get(algorithm, {}), seed=3), X, y)
        loaded = load_model(save_model(model))
        assert np.array_equal(model.predict_proba(queries), loaded.predict_proba(queries)), algorithm

    report_line(9, "determinism and persistence", True,
                f"{len(first)} pipeline files byte-identical; "
                f"{len(ALGORITHMS)} algorithms round-trip bit-identically")
