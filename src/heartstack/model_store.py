"""Versioned model persistence.

One self-describing JSON document (extension ``.model``) serves both single
models and stacks: top-level keys are format_version, created, kind, schema
and payload. Numbers are written with full round-trippable precision, and
documents are pure data; loading never executes anything beyond parsing.

Format 2 stores each tree model's nodes as flat parallel lists (see
``TreeBlock``), which ``load_model`` checks before any row is scored.
Format 1 documents, with nested tree nodes, are rejected.

The ``created`` stamp honours SOURCE_DATE_EPOCH and otherwise falls back to
a fixed epoch so that repeated pipeline runs stay byte-identical.
"""

from __future__ import annotations

import json
import os
from datetime import datetime, timezone
from pathlib import Path

from .errors import ModelFormatError, SchemaMismatchError
from .learners import MODEL_CLASSES, LearnerSpec, TrainedModel
from .model_selection import FoldPlan
from .schema import CANONICAL_SCHEMA, schema_fingerprint
from .stacking import BaseSelectionReport, StackedModel
from .standardize import Standardizer

FORMAT_VERSION = 2


def _created_stamp() -> str:
    epoch = int(os.environ.get("SOURCE_DATE_EPOCH", "0"))
    return datetime.fromtimestamp(epoch, tz=timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def _schema_block() -> dict:
    return {
        "columns": [{"name": s.name, "kind": s.kind} for s in CANONICAL_SCHEMA],
        "fingerprint": schema_fingerprint(),
    }


def _single_payload(model: TrainedModel) -> dict:
    return {
        "spec": model.spec.to_dict(),
        "n_features_in": model.n_features_in,
        "standardizer": None if model.standardizer is None else model.standardizer.to_dict(),
        "params": model.params_payload(),
    }


def _single_from_payload(payload: dict) -> TrainedModel:
    spec = LearnerSpec.from_dict(payload["spec"])
    n_features_in = int(payload["n_features_in"])
    model = MODEL_CLASSES[spec.algorithm].from_payload(spec, n_features_in, payload["params"])
    if payload.get("standardizer") is not None:
        model.standardizer = Standardizer.from_dict(payload["standardizer"], n_features_in)
    return model


def save_model(model, sink=None) -> bytes:
    """Serialize a TrainedModel or StackedModel; optionally write to a path
    or binary file object. Returns the document bytes either way."""
    if isinstance(model, StackedModel):
        kind = "stacked"
        entries = model.selection.entries
        selected_idx = [i for i, (spec, _) in enumerate(entries)
                        if any(spec is s for s in model.selection.selected)]
        payload = {
            "selection": {
                "entries": [{"spec": spec.to_dict(), "mean_cv_accuracy": acc}
                            for spec, acc in entries],
                "selected_indices": selected_idx,
            },
            "fold_plan": model.fold_plan.to_dict(),
            "bases": [_single_payload(b) for b in model.bases],
            "meta": _single_payload(model.meta),
        }
    elif isinstance(model, TrainedModel):
        kind = "single"
        payload = _single_payload(model)
    else:
        raise ModelFormatError(f"cannot serialize object of type {type(model).__name__}")

    doc = {
        "format_version": FORMAT_VERSION,
        "created": _created_stamp(),
        "kind": kind,
        "schema": _schema_block(),
        "payload": payload,
    }
    data = (json.dumps(doc, separators=(",", ":")) + "\n").encode("utf8")
    if sink is not None:
        if isinstance(sink, (str, Path)):
            Path(sink).write_bytes(data)
        else:
            sink.write(data)
    return data


def load_model(source):
    """Parse a model document back into a predictor with bit-identical
    behaviour. Unknown versions and malformed documents raise."""
    if isinstance(source, (str, Path)):
        data = Path(source).read_bytes()
    elif isinstance(source, (bytes, bytearray)):
        data = bytes(source)
    else:
        data = source.read()
    try:
        doc = json.loads(data.decode("utf8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ModelFormatError(f"corrupted model document: {exc}") from None
    except RecursionError:
        raise ModelFormatError("corrupted model document: nested too deeply") from None

    if not isinstance(doc, dict) or "format_version" not in doc:
        raise ModelFormatError("not a model document")
    if doc["format_version"] != FORMAT_VERSION:
        raise ModelFormatError(
            f"unsupported format_version {doc['format_version']} (expected {FORMAT_VERSION})"
        )
    try:
        fingerprint = doc["schema"]["fingerprint"]
        payload = doc["payload"]
        if doc["kind"] == "single":
            model = _single_from_payload(payload)
        elif doc["kind"] == "stacked":
            sel = payload["selection"]
            entries = tuple((LearnerSpec.from_dict(e["spec"]), float(e["mean_cv_accuracy"]))
                            for e in sel["entries"])
            chosen = set(int(i) for i in sel["selected_indices"])
            selection = BaseSelectionReport(
                entries,
                tuple(entries[i][0] for i in range(len(entries)) if i in chosen),
                tuple(entries[i][0] for i in range(len(entries)) if i not in chosen),
            )
            model = StackedModel(
                [_single_from_payload(b) for b in payload["bases"]],
                _single_from_payload(payload["meta"]),
                selection,
                FoldPlan.from_dict(payload["fold_plan"]),
            )
        else:
            raise ModelFormatError(f"unknown model kind {doc['kind']!r}")
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"malformed model document: {exc}") from None
    model.schema_fingerprint = fingerprint
    return model


def require_matching_schema(model) -> None:
    """Raise unless the model's stored fingerprint matches the canonical
    schema this toolkit parses datasets into."""
    stored = getattr(model, "schema_fingerprint", schema_fingerprint())
    if stored != schema_fingerprint():
        raise SchemaMismatchError(
            "model was trained on a different column schema than this dataset"
        )
