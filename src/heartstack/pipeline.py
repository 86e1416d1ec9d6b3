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
from .learners.base import int_at_least, to_labels
from .metrics import (METRIC_NAMES, confusion_matrix, metric_report, pr_curve, roc_curve,
                      truncate_percent)
from .model_selection import (cross_validate, fit_rows, fold_accuracies,  # noqa: F401
                              grid_search, k_fold_plan, tune)
from .model_store import load_model, save_model
# format_csv, like the imports above, stays importable for perfbench/tracer.py.
from .reporting import (LITERATURE_RESULTS, format_csv, write_csv,  # noqa: F401
                        write_file, write_json)
from .splitting import SplitPair, stratified_split
from .stacking import StackedModel, fit_stack

MODEL_FILE = "stacked.model"


@dataclass(frozen=True)
class PreparedData:
    cleaned: Dataset
    split: SplitPair


def prepare(config: PipelineConfig) -> PreparedData:
    raw = parse_csv(config.dataset)
    require_valid_codes(raw.X, raw.y, config.dataset)
    cleaned, _ = clean(raw, config.cleaning.strategy, config.cleaning.iqr_k)
    return PreparedData(cleaned, stratified_split(cleaned, config.split_fraction, config.seed))


def cmd_analyze(config: PipelineConfig) -> dict:
    """Validation, cleaning and summary reports plus correlation tables.

    Correlations and distribution summaries describe the raw table, before
    outlier removal.
    """
    raw = parse_csv(config.dataset)
    validation = validate_schema(raw)
    out = Path(config.out_dir) / "analysis"
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


def _test_accuracies(data: PreparedData, specs: list[LearnerSpec], splits: list[SplitPair]):
    """Test accuracy of every spec fitted on the train side of every split of
    the cleaned data (split-major order), in one run_tasks call."""
    fits = [(spec, split.train_rows, split.test_rows, None)
            for split in splits for spec in specs]
    return fold_accuracies(fit_rows(fits, data.cleaned.X, data.cleaned.y), data.cleaned.y,
                           [test for _, _, test, _ in fits])


def cmd_baseline(config: PipelineConfig, sweep_seeds: int | None = None) -> dict:
    """Tune every candidate on the training split, score each tuned spec on
    the test split and write the comparison table sorted by test accuracy
    (ties keep declaration order). ``sweep_seeds`` N, an integer of at least
    1, also scores them on the splits of seeds seed+1 to seed+N-1 for a mean
    and std over N splits, the table's first. Two ``run_tasks`` calls: the
    fold fits, then the split fits."""
    if sweep_seeds is not None and not int_at_least(sweep_seeds, 1):
        raise ConfigError("--seeds must be an integer of at least 1")
    data = prepare(config)
    train = data.split.train
    plan = k_fold_plan(train.n_rows, config.folds, config.seed, stratify_by=train.y)
    results = tune([(c.spec, c.grid) for c in config.candidates], train.X, train.y, plan)
    names = [c.spec.algorithm for c in config.candidates]
    sweep = [stratified_split(data.cleaned, config.split_fraction, config.seed + offset)
             for offset in range(1, sweep_seeds or 1)]
    n = len(results)
    # Split-major: candidate i's accuracy on every split is accuracies[i::n].
    accuracies = _test_accuracies(data, [r.best_spec for r in results], [data.split, *sweep])
    order = sorted(range(n), key=lambda i: (-accuracies[i], i))
    out = Path(config.out_dir) / "baseline"
    write_csv(out / "baseline_table.csv",
              ["algorithm", "cv_mean_accuracy", "test_accuracy",
               "cv_mean_percent", "test_percent"],
              [[names[i], repr(results[i].best.mean), repr(accuracies[i]),
                f"{truncate_percent(results[i].best.mean):.2f}",
                f"{truncate_percent(accuracies[i]):.2f}"] for i in order])
    write_csv(out / "accuracy_comparison.csv", ["algorithm", "test_accuracy_percent"],
              [[names[i], f"{truncate_percent(accuracies[i]):.2f}"] for i in order])
    write_json(out / "grid_search_results.json", {
        c.spec.algorithm: r.to_dict() for c, r in zip(config.candidates, results)
        if c.grid is not None})
    if sweep_seeds:
        write_csv(out / "seed_sweep.csv",
                  ["algorithm", "mean_test_accuracy", "std_test_accuracy", "n_seeds"],
                  [[names[i], repr(float(np.mean(accuracies[i::n]))),
                    repr(float(np.std(accuracies[i::n]))), sweep_seeds] for i in range(n)])
    return {"out": str(out), "tuned": dict(zip(names, results)),
            "ranking": [names[i] for i in order]}


def cmd_train(config: PipelineConfig) -> dict:
    """Fit the stacked ensemble on the training split and persist it."""
    data = prepare(config)
    stack = fit_stack(config.stacking, data.split.train.X, data.split.train.y)
    out = Path(config.out_dir) / "models"
    model_path = out / MODEL_FILE
    save_model(stack, model_path)
    write_json(out / "selection_report.json", stack.selection.to_dict())
    return {"out": str(out), "model_path": str(model_path), "stack": stack}


def cmd_evaluate(config: PipelineConfig, model_path) -> dict:
    """Score the stack and its bases on the test split; write the metric
    table, ROC/PR curve files and the literature context table."""
    model = load_model(model_path)
    if not isinstance(model, StackedModel):
        raise DataError("evaluate expects a stacked model file")
    data = prepare(config)
    test = data.split.test

    base_proba = model.base_probabilities(test.X)
    scored = [("stacked", model.meta.predict_proba(base_proba))]
    scored += [(b.spec.algorithm, base_proba[:, i]) for i, b in enumerate(model.bases)]

    out = Path(config.out_dir) / "evaluation"
    table_rows = []
    reports = {}
    for name, proba in scored:
        report = metric_report(confusion_matrix(test.y, to_labels(proba)))
        roc = roc_curve(test.y, proba)
        pr = pr_curve(test.y, proba)
        reports[name] = report
        table_rows.append([name, *report.display_row().values(),
                           f"{truncate_percent(roc.area):.2f}"])
        write_json(out / f"metrics_{name}.json",
                   {**report.to_dict(), "roc_curve_area": roc.area,
                    "average_precision": pr.average_precision})
        write_csv(out / f"roc_{name}.csv", ["fpr", "tpr"],
                  [[repr(a), repr(b)] for a, b in roc.points],
                  comments=[f"area {roc.area!r}"])
        write_csv(out / f"pr_{name}.csv", ["recall", "precision"],
                  [[repr(a), repr(b)] for a, b in pr.points],
                  comments=[f"average_precision {pr.average_precision!r}",
                            f"area {pr.area!r}"])

    write_csv(out / "metrics_table.csv", ["model", *METRIC_NAMES, "roc_curve_auc"], table_rows)
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
    X, y = parse_feature_csv(input_csv)
    require_valid_codes(X, y, str(input_csv))
    proba = model.predict_proba(X)
    labels = to_labels(proba)

    text = "row,probability,label\n" + "".join(
        f"{i},{p!r},{label}\n"
        for i, (p, label) in enumerate(zip(proba.tolist(), labels.tolist())))
    report = None
    if y is not None:
        report = metric_report(confusion_matrix(y, labels))
        lines = [f"# {name} {'-' if value is None else repr(value)}"
                 for name, value in report.to_dict().items() if name != "undefined"]
        text += "\n".join(lines) + "\n"
    write_file(out_path, text)
    return {"out": str(Path(out_path)), "probabilities": proba, "labels": labels, "report": report}
