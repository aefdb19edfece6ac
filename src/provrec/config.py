"""One validated configuration object covering every pipeline stage.

Defaults are the package defaults end to end; a JSON config file, or the
CLI's --seed and --set KEY=VALUE, override individual keys. Unknown keys
are rejected rather than ignored so typos cannot silently fall back to
defaults. Each key's range is checked in one place: by the stage config
whose field the key sets, or here for the keys no stage config owns.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, fields

from . import numerics as nm
from .embedding import META_PATHS, HanConfig
from .features import EncoderConfig
from .matching import MatcherConfig
from .synthetic import ScenarioSpec


class ConfigError(ValueError):
    """Unknown keys or out-of-range values in a pipeline config."""


def _fraction(phrase: str, optional: bool) -> nm.Range:
    return nm.Range(phrase, lambda v: (optional and v is None)
                    or (nm.is_number(v) and 0 < v <= 1))


# the ranges of the keys no stage config owns
_RANGES = {
    "num_trees": nm.at_least(1),
    "subsample": nm.at_least(2),
    "score_threshold": _fraction("in (0, 1]", optional=False),
    "contamination": _fraction("null or in (0, 1]", optional=True),
    "lam": nm.at_least(1),
    "min_nois": nm.at_least(1),
    "unknown_threshold": nm.Range("null or at least 0",
                                  lambda v: v is None or (nm.is_number(v) and v >= 0)),
    "shots": nm.at_least(1),
    # split into every stage's seed
    "seed": nm.SEED,
}

# every other key, under the stage config field it sets; that stage config
# checks its range
_STAGE_KEYS = {
    EncoderConfig: {"t_layers": "t_layers", "hidden": "hidden",
                    "epochs": "encoder_epochs", "lr": "encoder_lr"},
    HanConfig: {"dim": "d", "metapaths": "metapaths"},
    MatcherConfig: {"margin": "margin", "epochs": "matcher_epochs", "lr": "matcher_lr"},
    ScenarioSpec: {"samples_per_class": "samples_per_class", "background": "background",
                   "noise_rate": "noise_rate"},
}


@dataclass
class PipelineConfig:
    # node-type encoder
    t_layers: int = 2
    hidden: int = 64
    encoder_epochs: int = 300
    encoder_lr: float = 0.5
    # anomalous-node detection
    num_trees: int = 100
    subsample: int = 256
    score_threshold: float = 0.6
    contamination: float | None = None
    # subgraph sampling
    lam: int = 3
    min_nois: int = 5
    # subgraph embedding and matching
    d: int = 128
    margin: float = 1.0
    matcher_epochs: int = 60
    matcher_lr: float = 0.05
    unknown_threshold: float | None = None
    metapaths: tuple[str, ...] = META_PATHS
    # synthetic scenario and splits
    samples_per_class: int = 10
    shots: int = 5
    background: int = 120
    noise_rate: float = 0.05
    # root seed: every stage splits its own stream from this
    seed: int = 0

    def __post_init__(self):
        try:
            nm.check_fields(self, _RANGES)
        except nm.FieldError as exc:
            raise ConfigError(str(exc)) from None
        # building the stage views checks every other key; HanConfig makes
        # the meta-paths a tuple
        self.metapaths = self.matcher_config().han.metapaths
        self.encoder_config()
        self.scenario_spec()

    # -- per-stage views -----------------------------------------------------

    def _view(self, stage, seed: int | None, **settings):
        """``stage`` built from the keys it owns; an error names the key."""
        keys = _STAGE_KEYS[stage]
        for name, key in keys.items():
            settings[name] = getattr(self, key)
        try:
            return stage(seed=self.seed if seed is None else seed, **settings)
        except nm.FieldError as exc:
            raise ConfigError(f"{keys.get(exc.field, exc.field)} {exc.problem}") from None

    def encoder_config(self, seed: int | None = None) -> EncoderConfig:
        return self._view(EncoderConfig, seed)

    def han_config(self, seed: int | None = None) -> HanConfig:
        return self._view(HanConfig, seed)

    def matcher_config(self, seed: int | None = None) -> MatcherConfig:
        return self._view(MatcherConfig, seed, han=self.han_config(seed))

    def scenario_spec(self, seed: int | None = None) -> ScenarioSpec:
        return self._view(ScenarioSpec, seed)

    # -- serialisation -------------------------------------------------------

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        out["metapaths"] = list(self.metapaths)
        return out

    @classmethod
    def from_dict(cls, payload: dict) -> "PipelineConfig":
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ConfigError(f"unknown config keys: {unknown}")
        try:
            return cls(**payload)
        except TypeError as exc:
            raise ConfigError(str(exc)) from None

    @classmethod
    def from_file(cls, path) -> "PipelineConfig":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                payload = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{path}: not valid JSON ({exc})") from None
        if not isinstance(payload, dict):
            raise ConfigError(f"{path}: config must be a JSON object")
        return cls.from_dict(payload)

    def override(self, **kwargs) -> "PipelineConfig":
        """New config with the given keys replaced (None included, so that
        ``--set contamination=null`` clears a key a config file set)."""
        data = self.to_dict()
        for key, value in kwargs.items():
            if key not in data:
                raise ConfigError(f"unknown config key {key!r}")
            data[key] = value
        return self.from_dict(data)
