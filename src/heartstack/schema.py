"""Canonical attribute schema of the combined heart-disease table.

Eleven features (five numeric, six integer-coded nominal) plus a binary
target. Columns are matched by name, order-insensitive; the label column
may be called either ``target`` or ``class``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

NUMERIC = "numeric"
NOMINAL = "nominal"


@dataclass(frozen=True)
class AttributeSpec:
    name: str
    kind: str
    allowed_codes: frozenset[int] = field(default_factory=frozenset)
    units: str = ""

    def __post_init__(self):
        if self.kind not in (NUMERIC, NOMINAL):
            raise ValueError(f"unknown attribute kind {self.kind!r}")
        if self.kind == NOMINAL and not self.allowed_codes:
            raise ValueError(f"nominal attribute {self.name!r} needs allowed codes")
        if self.kind == NUMERIC and self.allowed_codes:
            raise ValueError(f"numeric attribute {self.name!r} must not carry codes")


FEATURE_SPECS: tuple[AttributeSpec, ...] = (
    AttributeSpec("age", NUMERIC, units="years"),
    AttributeSpec("sex", NOMINAL, frozenset({0, 1})),
    AttributeSpec("chest_pain_type", NOMINAL, frozenset({1, 2, 3, 4})),
    AttributeSpec("resting_blood_pressure", NUMERIC, units="mm Hg"),
    AttributeSpec("cholesterol", NUMERIC, units="mg/dl"),
    AttributeSpec("fasting_blood_sugar", NOMINAL, frozenset({0, 1})),
    AttributeSpec("rest_ecg", NOMINAL, frozenset({0, 1, 2})),
    AttributeSpec("max_heart_rate_achieved", NUMERIC, units="bpm"),
    AttributeSpec("exercise_induced_angina", NOMINAL, frozenset({0, 1})),
    AttributeSpec("st_depression", NUMERIC),
    # Code 0 appears in shipped files even though the documented coding is
    # 1..3; validation downgrades it to a warning.
    AttributeSpec("st_slope", NOMINAL, frozenset({0, 1, 2, 3})),
)

TARGET_SPEC = AttributeSpec("target", NOMINAL, frozenset({0, 1}))
TARGET_ALIASES = ("target", "class")

CANONICAL_SCHEMA: tuple[AttributeSpec, ...] = FEATURE_SPECS + (TARGET_SPEC,)

FEATURE_NAMES = tuple(s.name for s in FEATURE_SPECS)
NUMERIC_FEATURES = tuple(s.name for s in FEATURE_SPECS if s.kind == NUMERIC)
NOMINAL_FEATURES = tuple(s.name for s in FEATURE_SPECS if s.kind == NOMINAL)
N_FEATURES = len(FEATURE_SPECS)

ST_SLOPE_WARNING_CODE = 0


def feature_index(name: str) -> int:
    return FEATURE_NAMES.index(name)


# Stored in model files and checked on load: the first 16 hex digits of the
# SHA-256 of "|".join(f"{s.name}:{s.kind}" for s in CANONICAL_SCHEMA), pinned
# as a constant so that no process hashes (and loads OpenSSL) to get it.
SCHEMA_FINGERPRINT = "4213aa33253b566e"
