"""The five pipeline commands behind the CLI.

Each command re-derives its inputs from the config (parse, validate, clean,
split are pure and seeded), so repeated runs with one seed write byte-
identical files. Fixed output layout under the configured directory:
``analysis/``, ``baseline/``, ``models/``, ``evaluation/``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .analysis import correlation_matrix, correlation_with_target, summarize
from .cleaning import clean
from .config import PipelineConfig
from .dataset import Dataset, parse_csv, parse_feature_csv, require_valid_codes, validate_schema
from .errors import ConfigError, DataError
# fit, cross_validate and grid_search are not called here any more: every fit
# of a command runs in the model_selection and stacking task pools. They
# stay importable from this module, where perfbench/tracer.py wraps them.
from .learners import LearnerSpec, fit  # noqa: F401
from .metrics import confusion_matrix, metric_report, pr_curve, roc_curve, truncate_percent
from .model_selection import cross_validate, fit_rows, grid_search, k_fold_plan, tune  # noqa: F401
from .model_store import load_model, require_matching_schema, save_model
# format_csv, like the imports above, stays importable for perfbench/tracer.py.
from .reporting import LITERATURE_RESULTS, format_csv, write_csv, write_json  # noqa: F401
from .splitting import SplitPair, stratified_split
from .stacking import StackedModel, fit_stack

MODEL_FILE = "stacked.model"


@dataclass(frozen=True)
class PreparedData:
    cleaned: Dataset
    split: SplitPair


def prepare(config: PipelineConfig) -> PreparedData:
    raw = parse_csv(config.dataset)
    validation = validate_schema(raw)
    if not validation.valid:
        raise DataError(
            f"dataset failed validation with {len(validation.violations)} violation(s); "
            "see the analyze report for coordinates"
        )
    cleaned, _ = clean(raw, config.cleaning.strategy, config.cleaning.iqr_k)
    return PreparedData(cleaned, stratified_split(cleaned, config.split_fraction, config.seed))


def _outdir(config: PipelineConfig, sub: str) -> Path:
    path = Path(config.out_dir) / sub
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make output directory {path}: {exc}") from None
    return path


def cmd_analyze(config: PipelineConfig) -> dict:
    """Validation, cleaning and summary reports plus correlation tables.

    Correlations and distribution summaries describe the raw table, before
    outlier removal.
    """
    raw = parse_csv(config.dataset)
    validation = validate_schema(raw)
    out = _outdir(config, "analysis")
    write_json(out / "validation.json", validation.to_dict())

    if validation.valid:
        _, cleaning_report = clean(raw, config.cleaning.strategy, config.cleaning.iqr_k)
        write_json(out / "cleaning.json", cleaning_report.to_dict())

    table = correlation_with_target(raw)
    names, matrix = correlation_matrix(raw)
    write_json(out / "correlation.json", {
        "with_target": table.to_dict(),
        "matrix": {
            row: {col: (None if np.isnan(matrix[i, j]) else float(matrix[i, j]))
                  for j, col in enumerate(names)}
            for i, row in enumerate(names)
        },
    })

    summary = summarize(raw)
    write_json(out / "summary.json", summary.to_dict())
    for feature, hist in summary.histograms.items():
        rows = [
            [hist.edges[i], hist.edges[i + 1],
             hist.counts_by_class[0][i], hist.counts_by_class[1][i]]
            for i in range(len(hist.edges) - 1)
        ]
        write_csv(out / f"histogram_{feature}.csv",
                  ["bin_low", "bin_high", "count_target_0", "count_target_1"], rows)
    for feature, codes in summary.nominal_counts.items():
        rows = [[code, by_class[0], by_class[1]] for code, by_class in codes.items()]
        write_csv(out / f"counts_{feature}.csv",
                  ["code", "count_target_0", "count_target_1"], rows)
    decade_rows = [
        [decade, slope, by_class[0], by_class[1]]
        for decade, slopes in summary.slope_by_age_decade.items()
        for slope, by_class in slopes.items()
    ]
    write_csv(out / "st_slope_by_age_decade.csv",
              ["age_decade", "st_slope", "count_target_0", "count_target_1"], decade_rows)

    return {"out": str(out), "valid": validation.valid,
            "correlation": table, "summary": summary}


def tune_candidates(config: PipelineConfig, train: Dataset) -> list[dict]:
    """Grid-search (where a grid is configured) or plain 10-fold CV for every
    candidate, on the training split; all fold fits in one run_tasks call."""
    plan = k_fold_plan(train.n_rows, config.folds, config.seed, stratify_by=train.y)
    results = tune([(c.spec, c.grid) for c in config.candidates],
                   train.X, train.y, plan)
    tuned = []
    for cand, result in zip(config.candidates, results):
        grid = result if cand.grid else None
        tuned.append({
            "algorithm": cand.spec.algorithm,
            "spec": grid.best_spec if grid else cand.spec,
            "cv_mean": grid.best.mean if grid else result.mean,
            "grid": grid,
        })
    return tuned


def _test_accuracies(data: PreparedData, specs: list[LearnerSpec], splits: list[SplitPair]):
    """Test accuracy of every spec fitted on the train side of every split of
    the cleaned data (split-major order), in one run_tasks call."""
    return fit_rows([(spec, split.train_rows, split.test_rows, "accuracy")
                     for split in splits for spec in specs],
                    data.cleaned.X, data.cleaned.y)


def cmd_baseline(config: PipelineConfig, sweep_seeds: int | None = None) -> dict:
    """Tune and score every baseline candidate; write the comparison table
    sorted by test accuracy (ties keep declaration order)."""
    data = prepare(config)
    tuned = tune_candidates(config, data.split.train)
    accuracies = _test_accuracies(data, [e["spec"] for e in tuned], [data.split])
    for entry, accuracy in zip(tuned, accuracies):
        entry["test_accuracy"] = accuracy

    order = sorted(range(len(tuned)), key=lambda i: (-tuned[i]["test_accuracy"], i))
    table_rows = [
        [tuned[i]["algorithm"],
         repr(tuned[i]["cv_mean"]), repr(tuned[i]["test_accuracy"]),
         f"{truncate_percent(tuned[i]['cv_mean']):.2f}",
         f"{truncate_percent(tuned[i]['test_accuracy']):.2f}"]
        for i in order
    ]
    out = _outdir(config, "baseline")
    write_csv(out / "baseline_table.csv",
              ["algorithm", "cv_mean_accuracy", "test_accuracy",
               "cv_mean_percent", "test_percent"], table_rows)
    write_csv(out / "accuracy_comparison.csv", ["algorithm", "test_accuracy_percent"],
              [[tuned[i]["algorithm"], f"{truncate_percent(tuned[i]['test_accuracy']):.2f}"]
               for i in order])
    write_json(out / "grid_search_results.json", {
        e["algorithm"]: e["grid"].to_dict() for e in tuned if e["grid"] is not None
    })

    if sweep_seeds:
        _write_seed_sweep(config, data, tuned, sweep_seeds, out)
    return {"out": str(out), "tuned": tuned, "ranking": [tuned[i]["algorithm"] for i in order]}


def _write_seed_sweep(config: PipelineConfig, data: PreparedData, tuned: list[dict],
                      n_seeds: int, out: Path):
    splits = [stratified_split(data.cleaned, config.split_fraction, config.seed + offset)
              for offset in range(n_seeds)]
    accuracies = _test_accuracies(data, [e["spec"] for e in tuned], splits)
    accs: dict[str, list[float]] = {e["algorithm"]: [] for e in tuned}
    for entry, accuracy in zip(tuned * n_seeds, accuracies):
        accs[entry["algorithm"]].append(accuracy)
    rows = [[algo, repr(float(np.mean(v))), repr(float(np.std(v))), len(v)]
            for algo, v in accs.items()]
    write_csv(out / "seed_sweep.csv",
              ["algorithm", "mean_test_accuracy", "std_test_accuracy", "n_seeds"], rows)


def cmd_train(config: PipelineConfig) -> dict:
    """Fit the stacked ensemble on the training split and persist it."""
    data = prepare(config)
    stack = fit_stack(config.stacking, data.split.train.X, data.split.train.y)
    out = _outdir(config, "models")
    model_path = out / MODEL_FILE
    save_model(stack, model_path)
    write_json(out / "selection_report.json", stack.selection.to_dict())
    return {"out": str(out), "model_path": str(model_path), "stack": stack}


def cmd_evaluate(config: PipelineConfig, model_path) -> dict:
    """Score the stack and its bases on the test split; write the metric
    table, ROC/PR curve files and the literature context table."""
    model = load_model(model_path)
    require_matching_schema(model)
    if not isinstance(model, StackedModel):
        raise DataError("evaluate expects a stacked model file")
    data = prepare(config)
    test = data.split.test

    base_proba = model.base_probabilities(test.X)
    scored = [("stacked", model.meta.predict_proba(base_proba))]
    scored += [(b.spec.algorithm, base_proba[:, i]) for i, b in enumerate(model.bases)]

    out = _outdir(config, "evaluation")
    table_rows = []
    reports = {}
    for name, proba in scored:
        pred = (proba >= 0.5).astype(np.int64)
        report = metric_report(confusion_matrix(test.y, pred))
        roc = roc_curve(test.y, proba)
        pr = pr_curve(test.y, proba)
        reports[name] = report
        row = report.display_row()
        table_rows.append([
            name, row["accuracy"], row["precision"], row["sensitivity"],
            row["specificity"], row["f1"], row["balanced_auc"], row["mcc"],
            f"{truncate_percent(roc.area):.2f}",
        ])
        full = report.to_dict()
        full["roc_curve_area"] = roc.area
        full["average_precision"] = pr.average_precision
        write_json(out / f"metrics_{name}.json", full)
        write_csv(out / f"roc_{name}.csv", ["fpr", "tpr"],
                  [[repr(a), repr(b)] for a, b in roc.points],
                  comments=[f"area {roc.area!r}"])
        write_csv(out / f"pr_{name}.csv", ["recall", "precision"],
                  [[repr(a), repr(b)] for a, b in pr.points],
                  comments=[f"average_precision {pr.average_precision!r}",
                            f"area {pr.area!r}"])

    write_csv(out / "metrics_table.csv",
              ["model", "accuracy", "precision", "sensitivity", "specificity",
               "f1", "balanced_auc", "mcc", "roc_curve_auc"], table_rows)
    write_csv(out / "literature_comparison.csv",
              ["authors", "approach", "dataset", "accuracy_percent"],
              [[r["authors"], r["approach"], r["dataset"], r["accuracy_percent"]]
               for r in LITERATURE_RESULTS])
    return {"out": str(out), "reports": reports}


def cmd_predict(model_path, input_csv, out_path) -> dict:
    """Score an 11-feature CSV (target optional) whose nominal codes and
    targets the schema allows; write per-row class-1 probabilities and
    labels, appending a metric record when targets exist."""
    model = load_model(model_path)
    require_matching_schema(model)
    X, y = parse_feature_csv(input_csv)
    require_valid_codes(X, y, str(input_csv))
    proba = model.predict_proba(X)
    labels = (proba >= 0.5).astype(np.int64)

    text = "row,probability,label\n" + "".join(
        f"{i},{p!r},{label}\n"
        for i, (p, label) in enumerate(zip(proba.tolist(), labels.tolist())))
    report = None
    if y is not None:
        report = metric_report(confusion_matrix(y, labels))
        lines = [f"# {name} {'-' if value is None else repr(value)}"
                 for name, value in report.to_dict().items() if name != "undefined"]
        text += "\n".join(lines) + "\n"
    out_path = Path(out_path)
    try:
        out_path.parent.mkdir(parents=True, exist_ok=True)
        out_path.write_text(text, encoding="utf8")
    except OSError as exc:
        raise ConfigError(f"cannot write predictions to {out_path}: {exc}") from None
    return {"out": str(out_path), "probabilities": proba, "labels": labels, "report": report}
