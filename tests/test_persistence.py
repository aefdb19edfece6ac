"""The checkpoint format: envelope, payload nesting and key order, byte-stable
re-saves."""

import hashlib
import json

import pytest

from provrec.config import PipelineConfig
from provrec.embedding import META_PATHS
from provrec.evaluation import split_few_shot, train_pipeline
from provrec.matching import recognize
from provrec.persistence import ModelFormatError, load_model, save_model
from provrec.synthetic import generate_scenario

from conftest import rewritten_checkpoint


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


def _flat(shape):
    return shape[0] * shape[1]


def test_bundle_payload_layout(bundle_file):
    config, models, path = bundle_file
    envelope = json.loads(path.read_text())
    assert list(envelope) == ["format_version", "kind", "content_hash", "payload"]
    assert envelope["format_version"] == 1 and envelope["kind"] == "bundle"
    payload = envelope["payload"]
    assert list(payload) == ["encoder", "matcher", "exemplars"]

    encoder = payload["encoder"]
    assert list(encoder) == ["config", "shapes", "weights", "classifier"]
    assert encoder["config"] == {
        "t_layers": 2, "hidden": 8, "epochs": 20, "lr": 0.5, "seed": 21,
        "log1p": True,
    }
    assert list(encoder["config"]) == [
        "t_layers", "hidden", "epochs", "lr", "seed", "log1p"]
    assert encoder["shapes"] == [[42, 8], [8, 8], [8, 4]]
    assert [len(w) for w in encoder["weights"]] == [42 * 8, 8 * 8]
    assert len(encoder["classifier"]) == 8 * 4

    matcher = payload["matcher"]
    assert list(matcher) == ["config", "encoder", "out_w", "out_b"]
    assert list(matcher["config"]) == [
        "han", "margin", "epochs", "lr", "distance", "seed"]
    assert matcher["config"]["han"] == {
        "dim": 8, "metapaths": list(META_PATHS), "log1p_features": True, "seed": 21,
    }
    assert list(matcher["config"]["han"]) == [
        "dim", "metapaths", "log1p_features", "seed"]
    assert matcher["config"]["epochs"] == 5 and matcher["config"]["distance"] == "euclidean"
    han = matcher["encoder"]
    assert list(han) == ["config", "params", "shapes"]
    assert han["config"] == matcher["config"]["han"]
    names = (["proj"] + [f"att_{k}_{mp}" for mp in META_PATHS for k in ("w", "a")]
             + ["path_w", "path_b", "path_q", "ctx_w"])
    assert list(han["params"]) == names and list(han["shapes"]) == names
    assert han["shapes"]["proj"] == [42, 8] and han["shapes"]["att_w_MP1"] == [16, 8]
    for name in names:
        assert len(han["params"][name]) == _flat(han["shapes"][name])
    assert len(matcher["out_w"]) == 8 and len(matcher["out_w"][0]) == 8
    assert len(matcher["out_b"]) == 1 and len(matcher["out_b"][0]) == 8

    exemplars = payload["exemplars"]
    assert list(exemplars) == ["exemplars"]
    assert len(exemplars["exemplars"]) == len(models.exemplars)
    for entry in exemplars["exemplars"]:
        assert list(entry) == ["technique", "tactic", "subgraph", "embedding",
                               "model_hash"]
        assert len(entry["embedding"]) == 8
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


def test_bundle_in_the_older_layout_ranks_alike(bundle_file, tmp_path):
    # earlier releases stored the fixed slope and feature width in every
    # config, and their exemplars carry a model hash taken over those configs
    _, models, path = bundle_file
    stale = []

    def older(payload):
        payload["encoder"]["config"]["slope"] = 0.01
        matcher = payload["matcher"]
        for han in (matcher["config"]["han"], matcher["encoder"]["config"]):
            han.update(feature_dim=42, slope=0.01)
        configs = [matcher["config"], matcher["encoder"]["config"]]
        digest = hashlib.sha256(json.dumps(configs, sort_keys=True).encode("utf-8"))
        for name, value in sorted(models.matcher.weights().items()):
            digest.update(f"{name} {value.shape} {value.dtype}\n".encode("utf-8"))
            digest.update(value.tobytes())
        stale.append(digest.hexdigest())
        for entry in payload["exemplars"]["exemplars"]:
            entry["model_hash"] = stale[0]

    older_file = rewritten_checkpoint(path, tmp_path / "older.json", older)
    loaded = load_model(older_file, expect_kind="bundle")
    assert stale[0] != models.matcher.content_hash()
    assert loaded.matcher.content_hash() == models.matcher.content_hash()
    for tech in models.exemplars.techniques():
        query = models.exemplars.get(tech).subgraph
        want = recognize(query, models.exemplars, models.matcher).ranking
        got = recognize(query, loaded.exemplars, loaded.matcher).ranking
        assert [(t, ta, d.hex()) for t, ta, d in got] == [
            (t, ta, d.hex()) for t, ta, d in want]
    for tech in loaded.exemplars.techniques():
        assert loaded.exemplars.get(tech).model_hash == models.matcher.content_hash()


_MALFORMED = {
    "missing_classifier": lambda p: p["encoder"].pop("classifier"),
    "unknown_config_key": lambda p: p["matcher"]["config"].update(momentum=0.9),
    "slope_not_the_constant": lambda p: p["encoder"]["config"].update(slope=0.2),
    "feature_dim_not_the_constant":
        lambda p: p["matcher"]["encoder"]["config"].update(feature_dim=41),
    "han_configs_disagree":
        lambda p: p["matcher"]["config"]["han"].update(metapaths=["MP1"]),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED))
def test_malformed_payload_is_a_model_format_error(bundle_file, tmp_path, case):
    _, _, path = bundle_file
    with pytest.raises(ModelFormatError, match="malformed bundle payload"):
        load_model(rewritten_checkpoint(path, tmp_path / "bad.json", _MALFORMED[case]))
