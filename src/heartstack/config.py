"""Pipeline configuration: one dataclass drives every command.

The defaults reproduce the study setup: 80/20 stratified split, 10-fold
cross-validation, the ten baseline candidates with their tuning grids, and
a four-base stack with a logistic meta learner.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError, FitError
from .learners import LearnerSpec

DEFAULT_SEED = 20407


def _require(cond: bool, message: str):
    if not cond:
        raise ConfigError(message)


def _at_least(value, low: int) -> bool:
    """True for an int (not a bool, nor a float such as 2.0) of at least low."""
    return type(value) is int and value >= low


@dataclass(frozen=True)
class CleaningConfig:
    strategy: str = "iqr"
    iqr_k: float = 1.5

    def __post_init__(self):
        if self.strategy not in ("none", "domain_validity", "iqr"):
            raise ConfigError(f"unknown cleaning strategy {self.strategy!r}")
        if self.iqr_k <= 0:
            raise ConfigError("iqr_k must be positive")


@dataclass(frozen=True)
class CandidateConfig:
    spec: LearnerSpec
    grid: dict[str, list] | None = None


@dataclass(frozen=True)
class StackingPart:
    top_n: int = 4
    meta_algorithm: str = "sgd_logistic"
    meta_hyperparameters: dict = field(default_factory=dict)
    oof_folds: int = 10

    def __post_init__(self):
        LearnerSpec(self.meta_algorithm, dict(self.meta_hyperparameters))  # FitError if unknown
        _require(_at_least(self.top_n, 1), "top_n must be an integer of at least 1")
        _require(_at_least(self.oof_folds, 2), "oof_folds must be an integer of at least 2")


@dataclass(frozen=True)
class PipelineConfig:
    dataset: str
    out_dir: str = "out"
    seed: int = DEFAULT_SEED
    split_fraction: float = 0.8
    folds: int = 10
    cleaning: CleaningConfig = field(default_factory=CleaningConfig)
    candidates: tuple[CandidateConfig, ...] = ()
    stacking: StackingPart = field(default_factory=StackingPart)

    def __post_init__(self):
        if not 0.0 < self.split_fraction < 1.0:
            raise ConfigError("split_fraction must lie in (0, 1)")
        _require(_at_least(self.folds, 2), "folds must be an integer of at least 2")
        _require(_at_least(self.seed, 0), "seed must be a non-negative integer")
        if not self.candidates:
            object.__setattr__(self, "candidates", default_candidates(self.seed))
        if self.stacking.top_n > len(self.candidates):
            raise ConfigError("stacking top_n exceeds the candidate count")

    def candidate_specs(self) -> tuple[LearnerSpec, ...]:
        return tuple(c.spec for c in self.candidates)

    def meta_spec(self) -> LearnerSpec:
        return LearnerSpec(self.stacking.meta_algorithm,
                           dict(self.stacking.meta_hyperparameters), self.seed)


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

    candidates: tuple[CandidateConfig, ...] = ()
    if "candidates" in raw:
        built = []
        for entry in raw["candidates"]:
            _require(isinstance(entry, dict) and "algorithm" in entry,
                     "each candidate needs an 'algorithm'")
            # A candidate without a seed takes the config's, which PipelineConfig checks.
            _require(type(entry.get("seed", 0)) is int, "candidate seed must be an integer")
            spec = LearnerSpec(entry["algorithm"], dict(entry.get("hyperparameters", {})),
                               entry.get("seed", seed))
            grid = entry.get("grid")
            if grid is not None:
                _require(isinstance(grid, dict) and all(isinstance(v, list) for v in grid.values()),
                         "candidate grid must map names to value lists")
            built.append(CandidateConfig(spec, grid))
        candidates = tuple(built)

    stacking = StackingPart(**raw["stacking"]) if "stacking" in raw else StackingPart()

    return PipelineConfig(
        dataset=str(raw["dataset"]),
        out_dir=str(raw.get("out_dir", "out")),
        seed=seed,
        split_fraction=float(raw.get("split_fraction", 0.8)),
        folds=raw.get("folds", 10),
        cleaning=cleaning,
        candidates=candidates,
        stacking=stacking,
    )


def load_config(path, overrides: dict | None = None) -> PipelineConfig:
    """The config a JSON file describes. ``overrides`` replaces top-level
    keys of the file before anything is built from it, so an overriding
    seed also reaches the default candidates and every listed candidate
    without a seed of its own."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf8"))
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"config is not valid UTF-8 JSON: {exc}") from None
    if overrides and isinstance(raw, dict):
        raw = {**raw, **overrides}
    return config_from_dict(raw)


def config_to_dict(config: PipelineConfig) -> dict:
    return {
        "dataset": config.dataset,
        "out_dir": config.out_dir,
        "seed": config.seed,
        "split_fraction": config.split_fraction,
        "folds": config.folds,
        "cleaning": {"strategy": config.cleaning.strategy, "iqr_k": config.cleaning.iqr_k},
        "candidates": [
            {"algorithm": c.spec.algorithm, "hyperparameters": dict(c.spec.hyperparameters),
             "seed": c.spec.seed, "grid": c.grid}
            for c in config.candidates
        ],
        "stacking": {
            "top_n": config.stacking.top_n,
            "meta_algorithm": config.stacking.meta_algorithm,
            "meta_hyperparameters": dict(config.stacking.meta_hyperparameters),
            "oof_folds": config.stacking.oof_folds,
        },
    }
