"""Report file I/O: JSON key-value trees and CSV tables with sidecar lines.

Every file the program writes goes through ``write_file``, so a refused
write is a config error wherever it happens. Every report written here is
re-parseable by the readers below; CSV files may carry leading ``#``
comment lines (used for curve areas and appended metric records).
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path

from .errors import ConfigError


def write_file(path, data) -> None:
    """Write text as UTF-8, or bytes as they are, making the parent
    directory first. ConfigError if the system refuses either."""
    path = Path(path)
    if isinstance(data, str):
        data = data.encode("utf8")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from None


def write_json(path, obj) -> None:
    write_file(path, json.dumps(obj, indent=2) + "\n")


def read_json(path):
    return json.loads(Path(path).read_text(encoding="utf8"))


def format_csv(header, rows, comments=()) -> str:
    buf = io.StringIO()
    for comment in comments:
        buf.write(f"# {comment}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def write_csv(path, header, rows, comments=()) -> None:
    write_file(path, format_csv(header, rows, comments))


def read_csv(path):
    """Returns (comments, header, rows) with cells kept as strings."""
    comments, header, rows = [], None, []
    with open(path, "r", encoding="utf8", newline="") as handle:
        plain = []
        for line in handle:
            if line.startswith("#"):
                comments.append(line[1:].strip())
            else:
                plain.append(line)
    for record in csv.reader(plain):
        if header is None:
            header = record
        else:
            rows.append(record)
    return comments, header, rows


# Published accuracies from earlier heart-disease prediction studies, printed
# verbatim alongside evaluation output for context. Constants, never computed.
LITERATURE_RESULTS = (
    {"authors": "Modak et al. (2022)", "approach": "Multilayer perceptron",
     "dataset": "Cleveland, Hungarian, Switzerland, Long Beach, and Statlog",
     "accuracy_percent": "87.70"},
    {"authors": "Sarah et al. (2022)", "approach": "Logistic regression",
     "dataset": "Cleveland", "accuracy_percent": "85.25"},
    {"authors": "Nguyen et al. (2021)",
     "approach": "Naive Bayes, Logistic Regression, SVM and Decision Trees",
     "dataset": "Cleveland", "accuracy_percent": "83.5"},
    {"authors": "Latha et al. (2019)",
     "approach": "Random Forest, Multilayer Perceptron, Bayes Net Naive Bayes",
     "dataset": "Cleveland", "accuracy_percent": "84.49"},
    {"authors": "Atallah et al. (2019)",
     "approach": "SGD Classifier, K-Nearest Neighbor, Random Forest, Logistic Regression",
     "dataset": "Cleveland", "accuracy_percent": "90"},
    {"authors": "Pawlovsky (2018)", "approach": "Weighted k-nearest neighbour",
     "dataset": "Cleveland", "accuracy_percent": "84.83"},
    {"authors": "Bialy et al. (2016)",
     "approach": "Ensemble of FDT, C4.5, MLP, SVM, and Naive Bayes",
     "dataset": "Cleveland", "accuracy_percent": "85.30"},
    {"authors": "Miao et al. (2016)", "approach": "Adaptive boosting",
     "dataset": "UCI Repository", "accuracy_percent": "80.14"},
    {"authors": "Bashir et al. (2014)",
     "approach": "Memory-based learner, DT-IG, DT-GI, Ensemble of Naive Bayes and SVM",
     "dataset": "UCI Repository, ricco database", "accuracy_percent": "88.52"},
    {"authors": "Detrano et al. (1989)",
     "approach": "Logistic regression-based discriminant function",
     "dataset": "Cleveland", "accuracy_percent": "77.00"},
)
