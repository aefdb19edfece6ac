"""One validated configuration object covering every pipeline stage.

Defaults are the package defaults end to end; a JSON config file or CLI
flags override individual keys. Unknown keys are rejected rather than
ignored so typos cannot silently fall back to defaults.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, fields

from .embedding import META_PATHS, HanConfig
from .features import EncoderConfig
from .matching import MatcherConfig
from .synthetic import DEFAULT_TEMPLATES, ScenarioSpec


class ConfigError(ValueError):
    """Unknown keys or out-of-range values in a pipeline config."""


@dataclass
class PipelineConfig:
    # node-type encoder
    t_layers: int = 2
    hidden: int = 64
    encoder_epochs: int = 300
    encoder_lr: float = 0.5
    log1p_features: bool = True
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
    distance: str = "euclidean"
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
        if self.t_layers < 1:
            raise ConfigError("t_layers must be at least 1")
        if self.lam < 1:
            raise ConfigError("lam must be at least 1")
        if self.min_nois < 1:
            raise ConfigError("min_nois must be at least 1")
        if self.shots < 1:
            raise ConfigError("shots must be at least 1")
        if not 0 < self.score_threshold <= 1:
            raise ConfigError("score_threshold must be in (0, 1]")
        if self.contamination is not None and not 0 < self.contamination <= 1:
            raise ConfigError("contamination must be in (0, 1]")
        self.metapaths = tuple(self.metapaths)
        try:
            # the stage configs check distance, margin and meta-paths
            self.matcher_config()
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    # -- per-stage views -----------------------------------------------------

    def encoder_config(self, seed: int | None = None) -> EncoderConfig:
        return EncoderConfig(
            t_layers=self.t_layers,
            hidden=self.hidden,
            epochs=self.encoder_epochs,
            lr=self.encoder_lr,
            seed=self.seed if seed is None else seed,
            log1p=self.log1p_features,
        )

    def han_config(self, seed: int | None = None) -> HanConfig:
        return HanConfig(
            dim=self.d,
            metapaths=self.metapaths,
            log1p_features=self.log1p_features,
            seed=self.seed if seed is None else seed,
        )

    def matcher_config(self, seed: int | None = None) -> MatcherConfig:
        return MatcherConfig(
            han=self.han_config(seed),
            margin=self.margin,
            epochs=self.matcher_epochs,
            lr=self.matcher_lr,
            distance=self.distance,
            seed=self.seed if seed is None else seed,
        )

    def scenario_spec(self, seed: int | None = None) -> ScenarioSpec:
        return ScenarioSpec(
            templates=DEFAULT_TEMPLATES,
            samples_per_class=self.samples_per_class,
            background=self.background,
            noise_rate=self.noise_rate,
            seed=self.seed if seed is None else seed,
        )

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
        data = dict(payload)
        if "metapaths" in data:
            data["metapaths"] = tuple(data["metapaths"])
        try:
            return cls(**data)
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
        """New config with the given keys replaced; None values are ignored."""
        data = self.to_dict()
        for key, value in kwargs.items():
            if value is None:
                continue
            if key not in data:
                raise ConfigError(f"unknown config key {key!r}")
            data[key] = value
        return self.from_dict(data)
