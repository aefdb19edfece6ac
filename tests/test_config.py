"""Pipeline config validation: bad values fail when the config is built."""

import json

import pytest

import provrec.features as ft
from provrec.cli import EXIT_DATA, main
from provrec.config import ConfigError, PipelineConfig

BAD_VALUES = [
    ("distance", "manhattan"),
    ("contamination", 1.5),
    ("contamination", 0.0),
    ("metapaths", ["MP9"]),
    ("metapaths", []),
    ("shots", 0),
    ("margin", 0.0),
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


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("config")
    out = root / "ds"
    assert main(["--set", "samples_per_class=3", "--set", "background=30",
                 "generate", "--out", str(out)]) == 0
    return root, out


@pytest.mark.parametrize("key, value", BAD_VALUES[:4] + BAD_VALUES[5:6])
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
