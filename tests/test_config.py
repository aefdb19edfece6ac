"""Config validation: bad values fail when a config is built, whether the
pipeline config, a stage config or one a checkpoint stores."""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

import provrec.config as pc
import provrec.features as ft
from provrec.cli import EXIT_DATA, EXIT_MODEL, EXIT_OK, main
from provrec.config import ConfigError, PipelineConfig
from provrec.embedding import HanConfig
from provrec.evaluation import PipelineModels
from provrec.features import EncoderConfig, GnnEncoder
from provrec.matching import ExemplarSet, MatcherConfig
from provrec.numerics import encode_array
from provrec.persistence import ModelFormatError, load_model, save_model
from provrec.synthetic import ScenarioSpec, generate_scenario

from testkit import rewritten_checkpoint

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
    # the message names the PipelineConfig key, whichever config checks it
    with pytest.raises(ConfigError, match=f"^{key} must be"):
        PipelineConfig(**{key: value})
    with pytest.raises(ConfigError, match=f"^{key} must be"):
        PipelineConfig().override(**{key: value})
    with pytest.raises(ConfigError, match=f"^{key} must be"):
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


# -- range owners -----------------------------------------------------------------


def test_every_pipeline_key_has_one_range_owner():
    # a key is checked by the stage config field it sets or by PipelineConfig
    # itself, never by both and never by neither
    staged = [key for keys in pc._STAGE_KEYS.values() for key in keys.values()]
    owners = sorted(list(pc._RANGES) + staged)
    assert owners == sorted(f.name for f in dataclasses.fields(PipelineConfig))
    assert len(owners) == 21
    for stage, keys in pc._STAGE_KEYS.items():
        assert set(keys) <= set(stage.RANGES), stage.__name__


# -- stage configs check their own fields -----------------------------------------

NAN, INF = float("nan"), float("inf")

# every numeric field of a stage config, and whether 0 is in its range
STAGE_FIELDS = {
    EncoderConfig: {"t_layers": False, "hidden": False, "epochs": True, "lr": False,
                    "seed": True},
    HanConfig: {"dim": False, "seed": True},
    MatcherConfig: {"margin": False, "epochs": True, "lr": False, "seed": True},
    ScenarioSpec: {"samples_per_class": False, "background": True, "noise_rate": True,
                   "seed": True},
}

STAGE_BAD = [
    (cls, name, value)
    for cls, names in STAGE_FIELDS.items()
    for name, zero_ok in names.items()
    for value in (NAN, INF, -INF, 0, -1, True)
    if not (zero_ok and value == 0)
]


def _case_id(case):
    return "-".join(c.__name__ if isinstance(c, type) else repr(c) for c in case)


def test_stage_fields_are_every_numeric_field():
    for cls, names in STAGE_FIELDS.items():
        numeric = {f.name for f in dataclasses.fields(cls)
                   if isinstance(f.default, (int, float))}
        assert numeric == set(names), cls.__name__
        cls(**{name: 0 for name, zero_ok in names.items() if zero_ok})


@pytest.mark.parametrize(
    "case",
    STAGE_BAD + [
        (ScenarioSpec, "noise_rate", 2.0),
        (ScenarioSpec, "background", -4),
        (EncoderConfig, "epochs", 2.0),
        (MatcherConfig, "lr", "0.05"),
        (MatcherConfig, "han", {"dim": 4}),
        *[(HanConfig, "metapaths", v)
          for v in (["MP9"], [], ["MP1", "MP1"], "MP1", [1], [[1]], 5, None)],
    ],
    ids=_case_id,
)
def test_stage_config_refuses_a_value_outside_its_range(case):
    cls, name, value = case
    with pytest.raises(ValueError, match=f"^{name} must be"):
        cls(**{name: value})


def test_han_config_stores_its_metapaths_as_a_tuple():
    assert HanConfig(metapaths=["MP2", "MP1"]).metapaths == ("MP2", "MP1")
    assert HanConfig.from_dict({"dim": 4, "metapaths": ["MP3"]}) == HanConfig(
        dim=4, metapaths=("MP3",))


MATCHER_DIM4 = Path(__file__).parent / "data" / "siamese_matcher_dim4.json"


@pytest.fixture(scope="module")
def checkpoints(tmp_path_factory):
    """Small encoder, matcher and bundle checkpoints, plus a host graph and a
    truth subgraph for the CLI to read them with."""
    root = tmp_path_factory.mktemp("checkpoints")
    dataset = generate_scenario(ScenarioSpec(samples_per_class=1, background=10, seed=3))
    matcher = load_model(MATCHER_DIM4, expect_kind="siamese_matcher")
    exemplars = ExemplarSet()
    for sample in dataset.samples[:2]:
        exemplars.add_exemplar(sample.technique, sample.tactic, sample.truth, matcher)
    encoder = GnnEncoder(EncoderConfig(t_layers=1, hidden=2),
                         [np.ones((ft.FEATURE_DIM, 2))], np.ones((2, 4)))
    save_model(encoder, root / "encoder.json")
    save_model(matcher, root / "matcher.json")
    save_model(PipelineModels(encoder, matcher, exemplars), root / "bundle.json")
    dataset.samples[0].graph.save(root / "graph.json")
    (root / "truth.json").write_text(json.dumps(dataset.samples[0].truth.to_dict()))
    return root


def _cli_reading(kind, root, model, out):
    """The CLI command that loads a ``kind`` checkpoint: detect-noi reads an
    encoder, recognize a bundle."""
    if kind == "encoder":
        argv = ["detect-noi", "--graph", root / "graph.json", "--encoder", model]
    else:
        argv = ["recognize", "--subgraph", root / "truth.json", "--models", model]
    return [str(a) for a in argv + ["--out", out]]


def test_the_unedited_checkpoints_load_and_run(checkpoints, tmp_path):
    for kind in ("encoder", "matcher", "bundle"):
        load_model(checkpoints / f"{kind}.json")
    for kind in ("encoder", "bundle"):
        out = tmp_path / f"{kind}-out.json"
        assert main(_cli_reading(kind, checkpoints, checkpoints / f"{kind}.json",
                                 out)) == EXIT_OK
        assert out.exists()


def _stored_configs(payload, kind, stage):
    """Every config dict of a ``kind`` payload that stores ``stage``'s fields."""
    if stage is EncoderConfig:
        return [payload["config"] if kind == "encoder" else payload["encoder"]["config"]]
    matcher = payload["matcher"] if kind == "bundle" else payload
    if stage is HanConfig:
        return [matcher["config"]["han"], matcher["encoder"]["config"]]
    return [matcher["config"]]


# (checkpoint kind, stage config, field, stored value)
CHECKPOINT_BAD = [
    (kind, cls, name, value)
    for kind, stages in (("encoder", (EncoderConfig,)),
                         ("matcher", (HanConfig, MatcherConfig)),
                         ("bundle", (EncoderConfig, HanConfig, MatcherConfig)))
    for cls, name, value in STAGE_BAD
    if cls in stages
]


def _exits_three_on(kind, root, model, tmp_path):
    out = tmp_path / "out.json"
    code = main(_cli_reading(kind, root, model, out))
    return code == EXIT_MODEL and not out.exists()


@pytest.mark.parametrize("case", CHECKPOINT_BAD, ids=_case_id)
def test_checkpoint_storing_a_value_outside_its_range_is_refused(checkpoints, tmp_path,
                                                                 case):
    kind, cls, name, value = case

    def edit(payload):
        for config in _stored_configs(payload, kind, cls):
            config[name] = value

    bad = rewritten_checkpoint(checkpoints / f"{kind}.json", tmp_path / "bad.json", edit)
    with pytest.raises(ModelFormatError, match=f"{name} must be"):
        load_model(bad)
    if kind != "matcher":  # no command reads a bare matcher
        assert _exits_three_on(kind, checkpoints, bad, tmp_path)


def test_encoder_refuses_weights_off_its_shape_chain():
    config = EncoderConfig(t_layers=2, hidden=3)
    layers, classifier = [np.ones((42, 3)), np.ones((3, 3))], np.ones((3, 4))
    GnnEncoder(config, layers, classifier)
    for bad_layers, bad_classifier in (
        (layers[:1], classifier),  # a layer short
        (layers + layers[1:], classifier),  # a layer over
        ([np.ones((42, 2)), np.ones((2, 3))], classifier),  # first layer too narrow
        ([layers[0], np.ones((2, 3))], classifier),  # rows not the previous width
        (layers, np.ones((3, 5))),  # five node types
        (layers, np.ones((5, 4))),  # classifier rows not the layer width
        (layers, np.ones(4)),
    ):
        with pytest.raises(ValueError, match="do not fit t_layers=2, hidden=3"):
            GnnEncoder(config, bad_layers, bad_classifier)


def _five_row_classifier(payload):
    payload["classifier"] = encode_array(np.ones((5, 4)))
    payload["shapes"][-1] = [5, 4]


@pytest.mark.parametrize("edit", [
    lambda p: p["config"].update(hidden=7),  # over width-2 weights
    _five_row_classifier,  # after a width-2 layer
], ids=["hidden_7_over_width_2", "classifier_5x4_after_width_2"])
def test_encoder_checkpoint_off_its_shape_chain_is_refused(checkpoints, tmp_path, edit):
    bad = rewritten_checkpoint(checkpoints / "encoder.json", tmp_path / "bad.json", edit)
    with pytest.raises(ModelFormatError, match="do not fit t_layers=1"):
        load_model(bad)
    assert _exits_three_on("encoder", checkpoints, bad, tmp_path)
