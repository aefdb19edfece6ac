"""The checkpoint format: envelope, payload nesting and key order, encoded
arrays, byte-stable re-saves, version-1 files and atomic saves."""

import base64
import errno
import hashlib
import json

import numpy as np
import pytest

from provrec import persistence
from provrec.config import PipelineConfig
from provrec.embedding import META_PATHS, HanConfig, HanEncoder
from provrec.evaluation import PipelineModels, split_few_shot, train_pipeline
from provrec.features import EncoderConfig, GnnEncoder
from provrec.matching import ExemplarSet, MatcherConfig, SiameseModel, recognize
from provrec.numerics import Rng, decode_array, encode_array
from provrec.persistence import ModelFormatError, load_model, save_model
from provrec.synthetic import generate_scenario

from testkit import (
    cut_first_exemplar,
    in_both_han_configs,
    repeat_first_technique,
    rewritten_checkpoint,
)


@pytest.fixture(scope="module")
def bundle_file(tmp_path_factory):
    config = PipelineConfig(
        hidden=8, encoder_epochs=20, d=8, matcher_epochs=5,
        samples_per_class=3, shots=2, background=30, seed=21,
    )
    dataset = generate_scenario(config.scenario_spec(), seed=config.seed)
    train, _ = split_few_shot(dataset, config.shots, config.seed)
    models = train_pipeline(train, config, config.seed)
    path = tmp_path_factory.mktemp("ckpt") / "bundle.json"
    save_model(models, path)
    return config, models, path


def _size(text):
    """Number of float64 values an encoded array holds."""
    return decode_array(text, None).size


def test_bundle_payload_layout(bundle_file):
    config, models, path = bundle_file
    envelope = json.loads(path.read_text())
    assert list(envelope) == ["format_version", "kind", "content_hash", "payload"]
    assert envelope["format_version"] == 2 and envelope["kind"] == "bundle"
    payload = envelope["payload"]
    assert list(payload) == ["encoder", "matcher", "exemplars"]

    encoder = payload["encoder"]
    assert list(encoder) == ["config", "shapes", "weights", "classifier"]
    assert encoder["config"] == {
        "t_layers": 2, "hidden": 8, "epochs": 20, "lr": 0.5, "seed": 21,
    }
    assert list(encoder["config"]) == ["t_layers", "hidden", "epochs", "lr", "seed"]
    assert encoder["shapes"] == [[42, 8], [8, 8], [8, 4]]
    assert [_size(w) for w in encoder["weights"]] == [42 * 8, 8 * 8]
    assert _size(encoder["classifier"]) == 8 * 4

    matcher = payload["matcher"]
    assert list(matcher) == ["config", "encoder", "out_w", "out_b"]
    assert list(matcher["config"]) == ["han", "margin", "epochs", "lr", "seed"]
    assert matcher["config"]["han"] == {
        "dim": 8, "metapaths": list(META_PATHS), "seed": 21,
    }
    assert list(matcher["config"]["han"]) == ["dim", "metapaths", "seed"]
    assert matcher["config"]["epochs"] == 5
    han = matcher["encoder"]
    assert list(han) == ["config", "params", "shapes"]
    assert han["config"] == matcher["config"]["han"]
    names = (["proj"] + [f"att_{k}_{mp}" for mp in META_PATHS for k in ("w", "a")]
             + ["path_w", "path_b", "path_q", "ctx_w"])
    assert list(han["params"]) == names and list(han["shapes"]) == names
    assert han["shapes"]["proj"] == [42, 8] and han["shapes"]["att_w_MP1"] == [16, 8]
    for name in names:
        rows, cols = han["shapes"][name]
        assert _size(han["params"][name]) == rows * cols
    assert _size(matcher["out_w"]) == 8 * 8
    assert _size(matcher["out_b"]) == 8

    exemplars = payload["exemplars"]
    assert list(exemplars) == ["exemplars"]
    assert len(exemplars["exemplars"]) == len(models.exemplars)
    for entry in exemplars["exemplars"]:
        assert list(entry) == ["technique", "tactic", "subgraph", "embedding",
                               "model_hash"]
        assert _size(entry["embedding"]) == 8
        assert entry["model_hash"] == models.matcher.content_hash()


def test_load_and_save_again_is_byte_identical(bundle_file, tmp_path):
    _, models, path = bundle_file
    loaded = load_model(path, expect_kind="bundle")
    again = tmp_path / "again.json"
    save_model(loaded, again)
    assert again.read_bytes() == path.read_bytes()
    assert loaded.matcher.content_hash() == models.matcher.content_hash()


def test_bundle_with_an_older_model_hash_still_recognises(bundle_file, tmp_path):
    # earlier releases hashed the matcher's JSON; such a bundle differs only
    # in each exemplar's model_hash, which now mismatches and re-embeds
    _, models, path = bundle_file
    old = load_model(path, expect_kind="bundle")
    blob = json.dumps(old.matcher.to_dict(), sort_keys=True).encode("utf-8")
    older_hash = hashlib.sha256(blob).hexdigest()
    assert older_hash != models.matcher.content_hash()
    for tech in old.exemplars.techniques():
        old.exemplars.get(tech).model_hash = older_hash
    older = tmp_path / "older.json"
    save_model(old, older)
    loaded = load_model(older, expect_kind="bundle")
    for tech in models.exemplars.techniques():
        query = models.exemplars.get(tech).subgraph
        expected = recognize(query, models.exemplars, models.matcher)
        got = recognize(query, loaded.exemplars, loaded.matcher)
        assert got.ranking == expected.ranking and got.decision == tech
    for tech in loaded.exemplars.techniques():
        entry = loaded.exemplars.get(tech)
        assert entry.model_hash == models.matcher.content_hash()
        assert (entry.embedding == models.exemplars.get(tech).embedding).all()


@pytest.mark.parametrize("kind", ["han_encoder", "isolation_forest"])
def test_retired_kinds_are_unknown(bundle_file, tmp_path, kind):
    _, _, path = bundle_file
    envelope = json.loads(path.read_text())
    envelope["kind"] = kind
    retagged = tmp_path / "retagged.json"
    retagged.write_text(json.dumps(envelope))
    with pytest.raises(ModelFormatError, match="unknown checkpoint kind"):
        load_model(retagged)


def _in_older_layout(path, out, models, encoder=(), han=(), matcher=()):
    """The bundle at ``path`` rewritten to ``out`` as a release that stored
    the now-fixed settings ``encoder``, ``han`` and ``matcher`` in those
    configs wrote it. Its exemplars carry the model hash taken over the longer
    configs. Returns the file and that hash."""
    stale = []

    def older(payload):
        payload["encoder"]["config"].update(encoder)
        payload["matcher"]["config"].update(matcher)
        in_both_han_configs(payload, **dict(han))
        configs = [payload["matcher"]["config"], payload["matcher"]["encoder"]["config"]]
        digest = hashlib.sha256(json.dumps(configs, sort_keys=True).encode("utf-8"))
        for name, value in sorted(models.matcher.weights().items()):
            digest.update(f"{name} {value.shape} {value.dtype}\n".encode("utf-8"))
            digest.update(value.tobytes())
        stale.append(digest.hexdigest())
        for entry in payload["exemplars"]["exemplars"]:
            entry["model_hash"] = stale[0]

    return rewritten_checkpoint(path, out, older), stale[0]


def test_bundle_in_the_older_layout_ranks_alike(bundle_file, tmp_path):
    # earlier releases stored the fixed slope and feature width in every config
    _, models, path = bundle_file
    older_file, stale = _in_older_layout(
        path, tmp_path / "older.json", models, encoder={"slope": 0.01},
        han={"feature_dim": 42, "slope": 0.01})
    loaded = load_model(older_file, expect_kind="bundle")
    assert stale != models.matcher.content_hash()
    assert loaded.matcher.content_hash() == models.matcher.content_hash()
    for tech in models.exemplars.techniques():
        query = models.exemplars.get(tech).subgraph
        want = recognize(query, models.exemplars, models.matcher).ranking
        got = recognize(query, loaded.exemplars, loaded.matcher).ranking
        assert [(t, ta, d.hex()) for t, ta, d in got] == [
            (t, ta, d.hex()) for t, ta, d in want]
    for tech in loaded.exemplars.techniques():
        assert loaded.exemplars.get(tech).model_hash == models.matcher.content_hash()


def test_bundle_in_the_parent_layout_re_embeds_once(bundle_file, tmp_path):
    # the release before stored log1p scaling and the distance, both now fixed
    _, models, path = bundle_file
    older_file, stale = _in_older_layout(
        path, tmp_path / "older.json", models, encoder={"log1p": True},
        han={"log1p_features": True}, matcher={"distance": "euclidean"})
    loaded = load_model(older_file, expect_kind="bundle")
    assert stale != loaded.matcher.content_hash() == models.matcher.content_hash()
    embedded = []
    embed_many = loaded.matcher.embed_many

    def counted(subgraphs):  # exemplar refreshes reach it through embed
        embedded.extend(subgraphs)
        return embed_many(subgraphs)

    loaded.matcher.embed_many = counted
    queries = [models.exemplars.get(t).subgraph for t in models.exemplars.techniques()]
    for _ in range(2):
        assert _rankings(loaded, queries) == _rankings(models, queries)
    # every exemplar once, every query once per pass
    assert len(embedded) == len(loaded.exemplars) + 2 * len(queries)
    again = tmp_path / "again.json"
    save_model(loaded, again)
    assert again.read_bytes() == path.read_bytes()


def _three_layers(encoder):
    """A third hidden layer's weight and shape, under a config of two."""
    encoder["weights"].append(encoder["weights"][-1])
    encoder["shapes"].insert(-1, encoder["shapes"][-2])


_MALFORMED = {
    "missing_classifier": lambda p: p["encoder"].pop("classifier"),
    "unknown_config_key": lambda p: p["matcher"]["config"].update(momentum=0.9),
    "slope_not_the_constant": lambda p: p["encoder"]["config"].update(slope=0.2),
    "feature_dim_not_the_constant":
        lambda p: p["matcher"]["encoder"]["config"].update(feature_dim=41),
    "han_configs_disagree":
        lambda p: p["matcher"]["config"]["han"].update(metapaths=["MP1"]),
    "log1p_off": lambda p: p["encoder"]["config"].update(log1p=False),
    "log1p_features_off": lambda p: in_both_han_configs(p, log1p_features=False),
    "distance_cosine": lambda p: p["matcher"]["config"].update(distance="cosine"),
    "extra_encoder_weight":
        lambda p: p["encoder"]["weights"].append(p["encoder"]["weights"][-1]),
    "missing_encoder_weight": lambda p: p["encoder"]["weights"].pop(),
    "three_layers_under_t_layers_2": lambda p: _three_layers(p["encoder"]),
    "exemplar_cut_short": lambda p: cut_first_exemplar(p, 5),
    "repeated_metapath": lambda p: in_both_han_configs(p, metapaths=["MP1", "MP1"]),
    "repeated_technique": repeat_first_technique,
}


@pytest.mark.parametrize("case", sorted(_MALFORMED))
def test_malformed_payload_is_a_model_format_error(bundle_file, tmp_path, case):
    _, _, path = bundle_file
    with pytest.raises(ModelFormatError, match="malformed bundle payload"):
        load_model(rewritten_checkpoint(path, tmp_path / "bad.json", _MALFORMED[case]))


# -- arrays as float64 bytes ---------------------------------------------------

KINDS = ("gnn_encoder", "siamese_matcher", "exemplar_set", "bundle")


def _of_kind(models, kind):
    return {"gnn_encoder": models.encoder, "siamese_matcher": models.matcher,
            "exemplar_set": models.exemplars, "bundle": models}[kind]


def _arrays(model):
    """Every float array a checkpointed model holds, by name."""
    if isinstance(model, PipelineModels):
        return {f"{part}.{name}": value
                for part in ("encoder", "matcher", "exemplars")
                for name, value in _arrays(getattr(model, part)).items()}
    if isinstance(model, GnnEncoder):
        return {**{f"weights{i}": w for i, w in enumerate(model.weights)},
                "classifier": model.classifier}
    if isinstance(model, SiameseModel):
        return model.weights()
    return {t: model.get(t).embedding for t in model.techniques()}


def _assert_bit_identical(got, want):
    got, want = _arrays(got), _arrays(want)
    assert list(got) == list(want)
    for name, value in want.items():
        assert got[name].dtype == np.float64 and got[name].shape == value.shape, name
        assert got[name].tobytes() == value.tobytes(), name


def _rankings(models, queries):
    return [[(t, ta, d.hex()) for t, ta, d in
             recognize(q, models.exemplars, models.matcher).ranking] for q in queries]


@pytest.mark.parametrize("kind", KINDS)
def test_round_trip_is_bit_exact_for_every_kind(bundle_file, tmp_path, kind):
    _, models, _ = bundle_file
    model = _of_kind(models, kind)
    path = tmp_path / "model.json"
    save_model(model, path)
    assert [p.name for p in tmp_path.iterdir()] == ["model.json"]  # no temp file
    loaded = load_model(path, expect_kind=kind)
    _assert_bit_identical(loaded, model)
    if kind in ("siamese_matcher", "bundle"):
        matcher = loaded if kind == "siamese_matcher" else loaded.matcher
        assert matcher.content_hash() == models.matcher.content_hash()
    again = tmp_path / "again.json"
    save_model(loaded, again)
    assert again.read_bytes() == path.read_bytes()


def _as_version_1(envelope):
    """``envelope`` as version 1 wrote it: every array a JSON list of floats
    (``out_w`` and ``out_b`` nested by row), with the hash taken again."""
    payload = envelope["payload"]
    encoder = payload["encoder"]
    encoder["weights"] = [decode_array(w, None).tolist() for w in encoder["weights"]]
    encoder["classifier"] = decode_array(encoder["classifier"], None).tolist()
    matcher = payload["matcher"]
    han = matcher["encoder"]
    han["params"] = {k: decode_array(v, None).tolist() for k, v in han["params"].items()}
    d = matcher["config"]["han"]["dim"]
    matcher["out_w"] = decode_array(matcher["out_w"], (d, d)).tolist()
    matcher["out_b"] = decode_array(matcher["out_b"], (1, d)).tolist()
    for entry in payload["exemplars"]["exemplars"]:
        entry["embedding"] = decode_array(entry["embedding"], None).tolist()
    blob = json.dumps(payload, sort_keys=True).encode("utf-8")
    envelope.update(format_version=1, content_hash=hashlib.sha256(blob).hexdigest())
    return envelope


def test_version_1_bundle_loads_bit_exact_and_saves_as_version_2(bundle_file, tmp_path):
    _, models, path = bundle_file
    old = tmp_path / "v1.json"
    old.write_text(json.dumps(_as_version_1(json.loads(path.read_text()))))
    assert len(json.loads(old.read_text())["payload"]["matcher"]["out_w"]) == 8
    loaded = load_model(old, expect_kind="bundle")
    _assert_bit_identical(loaded, models)
    assert loaded.matcher.content_hash() == models.matcher.content_hash()
    queries = [models.exemplars.get(t).subgraph for t in models.exemplars.techniques()]
    assert _rankings(loaded, queries) == _rankings(models, queries)
    again = tmp_path / "again.json"
    save_model(loaded, again)
    assert again.read_bytes() == path.read_bytes()


def _respelled(locate, spell):
    """Payload edit: the array at ``locate(payload)`` (a container and a key)
    becomes ``spell`` of its decoded values."""
    def edit(payload):
        container, key = locate(payload)
        container[key] = spell(decode_array(container[key], None))
    return edit


def _with(value):
    def spell(values):
        values[3] = value
        return encode_array(values)
    return spell


def _base64(raw):
    return base64.b64encode(raw).decode("ascii")


def _encoder_weights(payload):
    return payload["encoder"]["weights"], 0


def _embedding(payload):
    return payload["exemplars"]["exemplars"][0], "embedding"


def _path_w(payload):
    return payload["matcher"]["encoder"]["params"], "path_w"


_BAD_ARRAYS = {
    "nan_in_encoder_weights": (_respelled(_encoder_weights, _with(np.nan)), "non-finite"),
    "inf_in_exemplar_embedding": (_respelled(_embedding, _with(np.inf)), "non-finite"),
    "inf_in_a_version_1_list":
        (_respelled(_path_w, lambda v: [*v[:-1].tolist(), float("inf")]), "non-finite"),
    "not_base64": (_respelled(_path_w, lambda v: "!" + encode_array(v)[1:]), "not base64"),
    "one_value_short_of_the_shape":
        (_respelled(_path_w, lambda v: encode_array(v[:-1])), "do not fill shape"),
    "bytes_not_whole_values": (_respelled(
        _path_w, lambda v: _base64(v.tobytes()[:-4])), "not whole float64 values"),
}


@pytest.mark.parametrize("case", sorted(_BAD_ARRAYS))
def test_bad_arrays_are_refused_at_load(bundle_file, tmp_path, case):
    _, _, path = bundle_file
    edit, reason = _BAD_ARRAYS[case]
    bad = rewritten_checkpoint(path, tmp_path / "bad.json", edit)
    with pytest.raises(ModelFormatError, match=f"malformed bundle payload.*{reason}"):
        load_model(bad)


class _TornFile:
    """Takes half of what is written, then fails as a full disk would."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, text):
        self.fh.write(text[: len(text) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")


def _refuse_replace(src, dst):
    raise OSError(errno.EIO, "interrupted")


@pytest.mark.parametrize("step", ["write", "replace"])
def test_a_failed_save_leaves_the_old_checkpoint(bundle_file, tmp_path, monkeypatch, step):
    _, models, _ = bundle_file
    target = tmp_path / "bundle.json"
    save_model(models.encoder, target)
    before = target.read_bytes()
    if step == "write":
        monkeypatch.setattr(persistence, "open",
                            lambda *a, **k: _TornFile(open(*a, **k)), raising=False)
    else:
        monkeypatch.setattr(persistence.os, "replace", _refuse_replace)
    with pytest.raises(OSError):
        save_model(models, target, force=True)
    assert target.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["bundle.json"]


def _payload_lists(node, where="payload"):
    """(place, count) of every JSON list and the numbers it holds, nested
    lists included."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _payload_lists(value, f"{where}.{key}")
    elif isinstance(node, list):
        yield where, sum(_numbers(node))
        for i, value in enumerate(node):
            yield from _payload_lists(value, f"{where}[{i}]")


def _numbers(node):
    if isinstance(node, list):
        for value in node:
            yield from _numbers(value)
    else:
        yield isinstance(node, (int, float)) and not isinstance(node, bool)


@pytest.fixture(scope="module")
def wide_models(bundle_file):
    """Untrained models of every kind whose arrays all hold more than 64
    values, so an array written as a list would show."""
    _, models, _ = bundle_file
    rng = Rng(5).generator
    han = HanConfig(dim=65)
    matcher = SiameseModel(MatcherConfig(han=han), HanEncoder.create(han),
                           rng.normal(size=(65, 65)), rng.normal(size=(1, 65)))
    encoder = GnnEncoder(EncoderConfig(hidden=65),
                         [rng.normal(size=(42, 65)), rng.normal(size=(65, 65))],
                         rng.normal(size=(65, 4)))
    exemplars = ExemplarSet()
    for tech in models.exemplars.techniques():
        entry = models.exemplars.get(tech)
        exemplars.add_exemplar(tech, entry.tactic, entry.subgraph, matcher)
    return PipelineModels(encoder, matcher, exemplars)


@pytest.mark.parametrize("kind", KINDS)
def test_no_payload_stores_an_array_as_a_list_of_numbers(wide_models, kind):
    model = _of_kind(wide_models, kind)
    assert min(a.size for a in _arrays(model).values()) > 64
    lists = [(where, n) for where, n in _payload_lists(model.to_dict()) if n > 64]
    assert lists == []


def test_default_config_bundle_size(tmp_path):
    config = PipelineConfig()
    dataset = generate_scenario(config.scenario_spec(), seed=0)
    train, _ = split_few_shot(dataset, config.shots, 0)
    path = tmp_path / "bundle.json"
    save_model(train_pipeline(train, config, 0), path)
    assert path.stat().st_size <= 2_500_000  # 4.27 MB with arrays as float text
