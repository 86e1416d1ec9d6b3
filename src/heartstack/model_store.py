"""Versioned model persistence.

One self-describing JSON document (extension ``.model``) serves both single
models and stacks: top-level keys are format_version, created, kind, schema
and payload. Numbers are written with full round-trippable precision, as
JSON numbers or, for the arrays of tree and k-NN models, packed: the base64
of their little-endian bytes (int32, unsigned 8, 16 or 32 bits, or
float64). Documents are pure data; loading never executes anything beyond
parsing.

Format 5 packs each tree model's nodes (see ``TreeBlock``): ``inner``, one
bit per node (``np.packbits``, little bit order), from which each inner
node's children follow; ``feature`` (one byte each up to 256 features,
else two) and ``threshold`` per inner node; ``leaf_values``, the sorted
codebook of distinct leaf values, and ``leaves``, one index into it per
leaf in the fewest bytes that hold the codebook's length; and ``roots``.
``load_model`` checks them before any row is scored: the bitmap's length,
pad bits and count against the thresholds, roots that tile the nodes into
trees of 2m + 1 nodes for m inner ones, children after their parents,
feature range, finite thresholds, a finite and bounded codebook, and leaf
indices inside it. Formats 1 to 4 are rejected: train again.

The ``created`` stamp honours SOURCE_DATE_EPOCH, in whole seconds, and
otherwise falls back to a fixed epoch so that repeated pipeline runs stay
byte-identical.
"""

from __future__ import annotations

import json
import os
from datetime import datetime, timezone
from pathlib import Path

from .errors import ConfigError, FitError, ModelFormatError, SchemaMismatchError
from .learners import LEARNERS, LearnerSpec, TrainedModel
from .model_selection import FoldPlan
from .reporting import write_file
from .schema import CANONICAL_SCHEMA, TARGET_ALIASES, schema_fingerprint
from .stacking import BaseSelectionReport, StackedModel
from .standardize import Standardizer

FORMAT_VERSION = 5


def _created_stamp() -> str:
    env = os.environ.get("SOURCE_DATE_EPOCH", "0")
    try:
        return datetime.fromtimestamp(int(env), tz=timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
    except (ValueError, OverflowError, OSError):
        raise ConfigError(f"SOURCE_DATE_EPOCH must be whole seconds in years 1 to 9999, "
                          f"got {env!r}") from None


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


def _spec_from_dict(d: dict) -> LearnerSpec:
    """LearnerSpec.from_dict, with a spec the learners reject (an unknown
    algorithm or hyperparameter, a bad value or seed) raised as ValueError:
    in a document it is a format fault, not a fit's."""
    try:
        return LearnerSpec.from_dict(d)
    except FitError as exc:
        raise ValueError(f"bad learner spec: {exc}") from None


def _single_from_payload(payload: dict) -> TrainedModel:
    spec = _spec_from_dict(payload["spec"])
    n_features_in = int(payload["n_features_in"])
    model = LEARNERS[spec.algorithm][1].from_payload(spec, n_features_in, payload["params"])
    if payload.get("standardizer") is not None:
        model.standardizer = Standardizer.from_dict(payload["standardizer"], n_features_in)
    return model


def save_model(model, path=None) -> bytes:
    """Serialize a TrainedModel or StackedModel; optionally write it to a
    path. Returns the document bytes either way. FitError, and nothing
    written, if load_model would reject the document."""
    if isinstance(model, StackedModel):
        kind = "stacked"
        payload = {
            "selection": {
                "entries": [{"spec": spec.to_dict(), "mean_cv_accuracy": acc}
                            for spec, acc in model.selection.entries],
                "selected_indices": list(model.selection.indices),
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
    try:
        load_model(data)
    except ModelFormatError as exc:
        raise FitError(f"the fitted model cannot be saved: {exc}") from None
    if path is not None:
        write_file(path, data)
    return data


def load_model(source):
    """Parse a model document, from a path or its bytes, back into a
    predictor with bit-identical behaviour. ModelFormatError for an
    unknown version or a malformed document; SchemaMismatchError for a
    sound one whose schema fingerprint is not this toolkit's."""
    if isinstance(source, (bytes, bytearray)):
        data = bytes(source)
    else:
        try:
            data = Path(source).read_bytes()
        except OSError as exc:
            raise ModelFormatError(f"cannot read model: {exc}") from None
    try:
        doc = json.loads(data.decode("utf8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ModelFormatError(f"corrupted model document: {exc}") from None
    except RecursionError:
        raise ModelFormatError("corrupted model document: nested too deeply") from None

    if not isinstance(doc, dict) or "format_version" not in doc:
        raise ModelFormatError("not a model document")
    if doc["format_version"] != FORMAT_VERSION:
        raise ModelFormatError(f"unsupported format_version {doc['format_version']} "
                               f"(expected {FORMAT_VERSION}): train the model again")
    try:
        fingerprint = doc["schema"]["fingerprint"]
        n_columns = sum(c["name"] not in TARGET_ALIASES for c in doc["schema"]["columns"])
        payload = doc["payload"]
        if doc["kind"] == "single":
            model = _single_from_payload(payload)
            _check_reads_schema(model, n_columns)
        elif doc["kind"] == "stacked":
            sel = payload["selection"]
            entries = tuple((_spec_from_dict(e["spec"]), float(e["mean_cv_accuracy"]))
                            for e in sel["entries"])
            indices = tuple(sorted(int(i) for i in sel["selected_indices"]))
            bases = [_single_from_payload(b) for b in payload["bases"]]
            meta = _single_from_payload(payload["meta"])
            _check_stack(bases, meta, indices, len(entries), n_columns)
            selection = BaseSelectionReport(entries, indices)
            model = StackedModel(bases, meta, selection, FoldPlan.from_dict(payload["fold_plan"]))
        else:
            raise ModelFormatError(f"unknown model kind {doc['kind']!r}")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ModelFormatError(f"malformed model document: {exc}") from None
    # Checked after the payload parses, so a malformed document is a format
    # error whatever its fingerprint.
    if fingerprint != schema_fingerprint():
        raise SchemaMismatchError(
            "model was trained on a different column schema than this dataset"
        )
    return model


def _check_reads_schema(model: TrainedModel, n_columns: int) -> None:
    """Raise ValueError unless the model reads one feature per feature
    column (every column but the target) of the document's schema."""
    if model.n_features_in != n_columns:
        raise ValueError(f"model reads {model.n_features_in} features, but the "
                         f"document's schema has {n_columns} feature columns")


def _check_stack(bases, meta, indices: tuple, n_entries: int, n_columns: int) -> None:
    """Raise ValueError unless the stack can score a row: at least one base,
    every base reading the schema's feature columns, the meta reading one probability
    per base, and one distinct in-range selected index per base."""
    if not bases:
        raise ValueError("stack has no bases")
    for base in bases:
        _check_reads_schema(base, n_columns)
    if meta.n_features_in != len(bases):
        raise ValueError(f"stack meta must read {len(bases)} base probabilities, "
                         f"not {meta.n_features_in}")
    if (len(set(indices)) != len(indices) or len(indices) != len(bases)
            or not all(0 <= i < n_entries for i in indices)):
        raise ValueError("stack selected_indices must be distinct, in range and "
                         "one per base")

