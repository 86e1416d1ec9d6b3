"""Pipeline configuration: one dataclass drives every command.

The defaults reproduce the study setup: 80/20 stratified split, 10-fold
cross-validation, the ten baseline candidates with their tuning grids, and
a four-base stack with a logistic meta learner.
"""

from __future__ import annotations

import json
from dataclasses import InitVar, dataclass, field
from pathlib import Path

from .cleaning import STRATEGIES
from .errors import ConfigError, FitError
from .learners import LearnerSpec
from .learners.base import int_at_least, is_number
from .model_selection import grid_specs
from .stacking import StackingConfig

DEFAULT_SEED = 20407


def _require(cond: bool, message: str):
    if not cond:
        raise ConfigError(message)


@dataclass(frozen=True)
class CleaningConfig:
    strategy: str = "iqr"
    iqr_k: float = 1.5

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ConfigError(f"unknown cleaning strategy {self.strategy!r}")
        if not (is_number(self.iqr_k) and 0 < self.iqr_k < float("inf")):
            raise ConfigError("iqr_k must be positive and finite")


@dataclass(frozen=True)
class CandidateConfig:
    spec: LearnerSpec
    grid: dict[str, list] | None = None

    def __post_init__(self):
        grid_specs(self.spec, self.grid)  # raises for a bad grid or grid point


@dataclass(frozen=True)
class PipelineConfig:
    """Every setting of a run, each checked when the config is built.
    ``stacking_options`` is the config file's stacking object (top_n,
    meta_algorithm, meta_hyperparameters, oof_folds), from which the config
    builds ``stacking`` over its candidates and seed."""
    dataset: str
    out_dir: str = "out"
    seed: int = DEFAULT_SEED
    split_fraction: float = 0.8
    folds: int = 10
    cleaning: CleaningConfig = field(default_factory=CleaningConfig)
    candidates: tuple[CandidateConfig, ...] = ()
    stacking_options: InitVar[dict | None] = None
    stacking: StackingConfig = field(init=False)

    def __post_init__(self, stacking_options):
        if not (is_number(self.split_fraction) and 0.0 < self.split_fraction < 1.0):
            raise ConfigError("split_fraction must lie in (0, 1)")
        _require(int_at_least(self.folds, 2), "folds must be an integer of at least 2")
        _require(int_at_least(self.seed, 0), "seed must be a non-negative integer")
        if not self.candidates:
            object.__setattr__(self, "candidates", default_candidates(self.seed))
        # Every report is keyed by algorithm name.
        names = [c.spec.algorithm for c in self.candidates]
        for name in names:
            _require(names.count(name) == 1, f"candidates repeat the algorithm {name!r}")
        options = dict(stacking_options or {})
        meta = LearnerSpec(options.pop("meta_algorithm", "sgd_logistic"),
                           options.pop("meta_hyperparameters", {}), self.seed)
        object.__setattr__(self, "stacking", StackingConfig(
            self.candidate_specs(), meta=meta, seed=self.seed, **options))

    def candidate_specs(self) -> tuple[LearnerSpec, ...]:
        return tuple(c.spec for c in self.candidates)


# Candidate declaration order matches the study's baseline comparison table;
# ties in CV accuracy resolve toward earlier entries.
CANDIDATE_ORDER = (
    "xgb_style",
    "extra_trees",
    "random_forest",
    "gbm",
    "cart",
    "mlp",
    "adaboost",
    "linear_svc",
    "sgd_logistic",
    "knn",
)

DEFAULT_GRIDS: dict[str, dict[str, list]] = {
    "xgb_style": {"n_estimators": [100, 500, 1000, 2000]},
    "extra_trees": {"n_estimators": [100, 500, 1000]},
    "knn": {"k": [3, 5, 7, 9, 11]},
}


def default_candidates(seed: int) -> tuple[CandidateConfig, ...]:
    return tuple(
        CandidateConfig(LearnerSpec(algo, {}, seed), DEFAULT_GRIDS.get(algo))
        for algo in CANDIDATE_ORDER
    )


def paper_default_config(dataset: str, seed: int = DEFAULT_SEED, out_dir: str = "out") -> PipelineConfig:
    return PipelineConfig(dataset=dataset, out_dir=out_dir, seed=seed)


def config_from_dict(raw: dict) -> PipelineConfig:
    """The PipelineConfig a parsed config file describes. A malformed value
    (a seed that is not an integer, a cleaning block that is not an object,
    an unknown stacking key, a candidate spec the learners reject and so
    on) is a ConfigError."""
    try:
        return _config_from_dict(raw)
    except (TypeError, ValueError, OverflowError, FitError) as exc:
        raise ConfigError(f"malformed config: {exc}") from None


def _config_from_dict(raw: dict) -> PipelineConfig:
    _require(isinstance(raw, dict), "config root must be an object")
    _require("dataset" in raw, "config needs a 'dataset' path")
    known = {"dataset", "out_dir", "seed", "split_fraction", "folds", "cleaning",
             "candidates", "stacking"}
    unknown = set(raw) - known
    _require(not unknown, f"unknown config key(s): {', '.join(sorted(unknown))}")

    cleaning = CleaningConfig(**raw.get("cleaning", {})) if "cleaning" in raw else CleaningConfig()
    seed = raw.get("seed", DEFAULT_SEED)
    stacking = raw.get("stacking", {})
    _require(isinstance(stacking, dict), "stacking must be an object")

    for key in ("dataset", "out_dir"):
        _require(isinstance(raw.get(key, ""), str), f"{key} must be a string")

    candidates: tuple[CandidateConfig, ...] = ()
    if "candidates" in raw:
        _require(isinstance(raw["candidates"], list) and raw["candidates"],
                 "candidates must be a non-empty list")
        built = []
        for entry in raw["candidates"]:
            _require(isinstance(entry, dict) and "algorithm" in entry,
                     "each candidate needs an 'algorithm'")
            unknown = set(entry) - {"algorithm", "hyperparameters", "seed", "grid"}
            _require(not unknown, f"unknown candidate key(s): {', '.join(sorted(unknown))}")
            # A candidate without a seed takes the config's.
            spec = LearnerSpec(entry["algorithm"], entry.get("hyperparameters", {}),
                               entry.get("seed", seed))
            built.append(CandidateConfig(spec, entry.get("grid")))
        candidates = tuple(built)

    return PipelineConfig(
        dataset=raw["dataset"],
        out_dir=raw.get("out_dir", "out"),
        seed=seed,
        split_fraction=raw.get("split_fraction", 0.8),
        folds=raw.get("folds", 10),
        cleaning=cleaning,
        candidates=candidates,
        stacking_options=stacking,
    )


def load_config(path, overrides: dict | None = None) -> PipelineConfig:
    """The config a JSON file describes. ``overrides`` replaces top-level
    keys of the file before anything is built from it, so an overriding
    seed also reaches the default candidates and every listed candidate
    without a seed of its own."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from None
    except (ValueError, RecursionError) as exc:  # also an integer too long or nesting too deep
        raise ConfigError(f"config is not valid UTF-8 JSON: {exc}") from None
    if overrides and isinstance(raw, dict):
        raw = {**raw, **overrides}
    return config_from_dict(raw)

