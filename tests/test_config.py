"""Pipeline config validation: bad values fail when the config is built."""

import dataclasses
import json

import numpy as np
import pytest

import provrec.features as ft
from provrec.cli import EXIT_DATA, main
from provrec.config import ConfigError, PipelineConfig
from provrec.embedding import HanConfig
from provrec.features import EncoderConfig, GnnEncoder
from provrec.matching import MatcherConfig

BAD_VALUES = [
    ("t_layers", 0),
    ("contamination", 1.5),
    ("contamination", 0.0),
    ("metapaths", ["MP9"]),
    ("metapaths", []),
    ("shots", 0),
    ("margin", 0.0),
    ("metapaths", ["MP1", "MP1"]),
    # values a later stage cannot use; some crashed it with a traceback
    ("num_trees", 0),
    ("lam", 2.5),
    ("t_layers", 1.5),
    ("metapaths", 5),
    ("metapaths", "MP1"),
    ("metapaths", [1]),
    ("lam", True),
    ("seed", "7"),
    ("hidden", 0),
    ("d", 0),
    ("samples_per_class", 0),
    ("subsample", 1),
    ("background", -1),
    ("seed", -1),
    ("encoder_lr", 0),
    ("matcher_lr", float("inf")),
    ("matcher_lr", float("nan")),
    ("noise_rate", 1.5),
    ("noise_rate", -0.1),
    ("unknown_threshold", -0.5),
    ("score_threshold", "high"),
    ("margin", "wide"),
    # these ran silently with no training step at all
    ("encoder_epochs", -1),
    ("matcher_epochs", -5),
    # these trained until the loss was not finite
    ("margin", float("nan")),
    ("margin", float("inf")),
]


@pytest.mark.parametrize("key, value", BAD_VALUES)
def test_bad_value_raises_config_error(key, value):
    with pytest.raises(ConfigError):
        PipelineConfig(**{key: value})
    with pytest.raises(ConfigError):
        PipelineConfig().override(**{key: value})
    with pytest.raises(ConfigError):
        PipelineConfig.from_dict({key: value})


def test_boundary_values_accepted():
    config = PipelineConfig(contamination=1.0, shots=1, metapaths=["MP1"])
    assert config.metapaths == ("MP1",)
    assert config.matcher_config(seed=3).han.metapaths == ("MP1",)
    PipelineConfig(num_trees=1, hidden=1, d=1, samples_per_class=1, subsample=2,
                   background=0, seed=0, encoder_epochs=0, matcher_epochs=0,
                   noise_rate=0, unknown_threshold=0, encoder_lr=1, matcher_lr=1e-9)
    PipelineConfig(noise_rate=1.0, contamination=None, unknown_threshold=None)


def test_override_to_none_clears_a_key():
    config = PipelineConfig(contamination=0.1, unknown_threshold=0.5)
    cleared = config.override(contamination=None, unknown_threshold=None)
    assert cleared.contamination is None and cleared.unknown_threshold is None


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("config")
    out = root / "ds"
    assert main(["--set", "samples_per_class=3", "--set", "background=30",
                 "generate", "--out", str(out)]) == 0
    return root, out


# settings that now have one value: refused as unknown keys, like any typo
RETIRED_KEYS = [
    ("distance", "manhattan"),
    ("distance", "cosine"),
    ("log1p_features", False),
]


@pytest.mark.parametrize(
    "key, value",
    RETIRED_KEYS[:1] + BAD_VALUES[1:4] + BAD_VALUES[5:6] + RETIRED_KEYS[1:] + BAD_VALUES[7:],
)
def test_cli_exits_two_before_training(key, value, dataset_dir, monkeypatch, capsys):
    root, ds = dataset_dir

    def no_training(*args, **kwargs):
        raise AssertionError("train_encoder ran on a config that cannot be used")

    monkeypatch.setattr(ft, "train_encoder", no_training)
    out = root / f"report-{key}.json"
    # shots=2 fits the 3-sample classes, so only the bad value can stop the run
    code = main(["--set", "shots=2", "--set", f"{key}={json.dumps(value)}",
                 "evaluate", "--data", str(ds), "--mode", "true", "--out", str(out)])
    assert code == EXIT_DATA
    assert "data error" in capsys.readouterr().err
    assert not out.exists()


# -- retired settings -----------------------------------------------------------

CONFIG_CLASSES = (EncoderConfig, HanConfig, MatcherConfig, PipelineConfig)


def _encoder_reader(config):
    encoder = GnnEncoder(EncoderConfig(t_layers=1, hidden=2),
                         [np.ones((ft.FEATURE_DIM, 2))], np.ones((2, 4)))
    return GnnEncoder.from_dict({**encoder.to_dict(), "config": config}).config


# every reader of a stored config, with the dict it reads
READERS = {
    "encoder": (_encoder_reader, {"t_layers": 1, "hidden": 2}),
    "han": (HanConfig.from_dict, {"dim": 4}),
    "matcher": (MatcherConfig.from_dict, {"han": {"dim": 4}, "margin": 0.5}),
    "pipeline": (PipelineConfig.from_dict, {"d": 4}),
}


@pytest.mark.parametrize("cls", CONFIG_CLASSES, ids=lambda c: c.__name__)
def test_no_retired_key_is_a_config_field(cls):
    assert not {f.name for f in dataclasses.fields(cls)} & set(ft._RETIRED)


@pytest.mark.parametrize("reader", sorted(READERS))
@pytest.mark.parametrize("key", sorted(ft._RETIRED))
def test_readers_take_a_retired_key_only_at_its_value(reader, key):
    # a reader that strips the key reads the config it would without it; one
    # that does not refuses it as an unknown key
    read, stored = READERS[reader]
    try:
        got = read({**stored, key: ft._RETIRED[key]})
    except (TypeError, ValueError):
        got = None
    assert got in (None, read(stored))
    with pytest.raises((TypeError, ValueError)):
        read({**stored, key: f"not {ft._RETIRED[key]!r}"})
