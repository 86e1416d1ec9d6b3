"""Versioned model persistence.

One self-describing JSON document (extension ``.model``) serves both single
models and stacks: top-level keys are format_version, kind, schema (the
schema's fingerprint) and payload. A document stores only what scoring
reads, so no model in it records its width: a single model and every base
of a stack read the schema's ``N_FEATURES`` columns, and a stack's meta one
probability per base. ``save_model`` refuses a fitted model of any other
width, since a tree payload cannot show its own. Numbers are written with
full round-trippable precision, as JSON numbers or, for the arrays of tree
and k-NN models, packed: the base64 of their little-endian bytes (int32,
unsigned 8, 16 or 32 bits, or float64). Documents are pure data; loading
never executes anything beyond parsing.

Each tree model packs its nodes (see ``TreeBlock``): ``inner``, one bit per
node (``np.packbits``, little bit order), from which each inner node's
children follow; ``feature`` (one byte each up to 256 features, else two)
and ``threshold`` per inner node; ``leaf_values``, the sorted codebook of
distinct leaf values, and ``leaves``, one index into it per leaf in the
fewest bytes that hold the codebook's length; and ``roots``.
``load_model`` checks them before any row is scored: the bitmap's length,
pad bits and count against the thresholds, roots that tile the nodes into
trees of 2m + 1 nodes for m inner ones, children after their parents,
feature range, finite thresholds, a finite and bounded codebook, and leaf
indices inside it. Formats 1 to 5 are rejected: train again.
"""

from __future__ import annotations

import json
from pathlib import Path

from .errors import FitError, ModelFormatError, SchemaMismatchError
from .learners import LEARNERS, LearnerSpec, TrainedModel
from .model_selection import FoldPlan
from .reporting import write_file
from .schema import N_FEATURES, SCHEMA_FINGERPRINT
from .stacking import BaseSelectionReport, StackedModel
from .standardize import Standardizer

FORMAT_VERSION = 6


def _single_payload(model: TrainedModel) -> dict:
    return {
        "spec": model.spec.to_dict(),
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


def _single_from_payload(payload: dict, n_features: int) -> TrainedModel:
    """The model a payload describes, reading ``n_features`` features."""
    spec = _spec_from_dict(payload["spec"])
    model = LEARNERS[spec.algorithm][1].from_payload(spec, n_features, payload["params"])
    if payload.get("standardizer") is not None:
        model.standardizer = Standardizer.from_dict(payload["standardizer"], n_features)
    return model


def _check_width(model: TrainedModel, n_features: int, role: str) -> None:
    """FitError unless ``model`` reads the ``n_features`` features that
    load_model gives it."""
    if model.n_features_in != n_features:
        raise FitError(f"the fitted model cannot be saved: {role} reads "
                       f"{model.n_features_in} features, not {n_features}")


def save_model(model, path=None) -> bytes:
    """Serialize a TrainedModel or StackedModel; optionally write it to a
    path. Returns the document bytes either way. FitError, and nothing
    written, for a model of another width than load_model gives it, or a
    document load_model would reject."""
    if isinstance(model, StackedModel):
        for base in model.bases:
            _check_width(base, N_FEATURES, f"base {base.spec.algorithm}")
        _check_width(model.meta, len(model.bases), "the meta")
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
        _check_width(model, N_FEATURES, model.spec.algorithm)
        kind = "single"
        payload = _single_payload(model)
    else:
        raise ModelFormatError(f"cannot serialize object of type {type(model).__name__}")

    doc = {
        "format_version": FORMAT_VERSION,
        "kind": kind,
        "schema": {"fingerprint": SCHEMA_FINGERPRINT},
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
        payload = doc["payload"]
        if doc["kind"] == "single":
            model = _single_from_payload(payload, N_FEATURES)
        elif doc["kind"] == "stacked":
            sel = payload["selection"]
            entries = tuple((_spec_from_dict(e["spec"]), float(e["mean_cv_accuracy"]))
                            for e in sel["entries"])
            indices = tuple(sorted(int(i) for i in sel["selected_indices"]))
            bases = [_single_from_payload(b, N_FEATURES) for b in payload["bases"]]
            _check_stack(bases, indices, len(entries))
            meta = _single_from_payload(payload["meta"], len(bases))
            selection = BaseSelectionReport(entries, indices)
            model = StackedModel(bases, meta, selection, FoldPlan.from_dict(payload["fold_plan"]))
        else:
            raise ModelFormatError(f"unknown model kind {doc['kind']!r}")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ModelFormatError(f"malformed model document: {exc}") from None
    # Checked after the payload parses, so a malformed document is a format
    # error whatever its fingerprint.
    if fingerprint != SCHEMA_FINGERPRINT:
        raise SchemaMismatchError(
            "model was trained on a different column schema than this dataset"
        )
    return model


def _check_stack(bases, indices: tuple, n_entries: int) -> None:
    """Raise ValueError unless the stack has at least one base and one
    distinct in-range selected index per base."""
    if not bases:
        raise ValueError("stack has no bases")
    if (len(set(indices)) != len(indices) or len(indices) != len(bases)
            or not all(0 <= i < n_entries for i in indices)):
        raise ValueError("stack selected_indices must be distinct, in range and "
                         "one per base")
