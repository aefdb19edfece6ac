"""CLI chain, exit codes, overwrite protection, and artifact determinism."""

import json
import math
import os

import pytest

from provrec.cli import EXIT_DATA, EXIT_MODEL, EXIT_OK, EXIT_USAGE, main
from provrec.config import PipelineConfig
from provrec.evaluation import detect, noi_lmo_protocol
from provrec.graph import EntityType, ProvenanceGraph
from provrec.numerics import _openblas_threads, decode_array, encode_array
from provrec.persistence import ModelFormatError, load_model
from provrec.synthetic import LabeledDataset

from testkit import (
    cut_first_exemplar,
    in_both_han_configs,
    make_graph,
    repeat_first_technique,
    rewritten_checkpoint,
)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    config = {
        "d": 16,
        "hidden": 16,
        "encoder_epochs": 120,
        "matcher_epochs": 20,
        "samples_per_class": 3,
        "shots": 2,
        "background": 40,
        "seed": 77,
    }
    config_path = root / "config.json"
    config_path.write_text(json.dumps(config))
    return root, str(config_path)


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def chain(workspace):
    """The generate -> ingest -> train-encoder -> detect-noi -> sample ->
    train-matcher chain, run once per module; the tests that request it read
    what it leaves in the workspace."""
    root, config = workspace
    ds = root / "ds"
    assert run("--config", config, "generate", "--out", ds) == EXIT_OK

    graph = root / "g0.json"
    assert run("ingest", "--events", ds / "events" / "e0000.jsonl",
               "--out", graph) == EXIT_OK

    encoder = root / "encoder.json"
    assert run("--config", config, "train-encoder", "--data", ds,
               "--out", encoder) == EXIT_OK

    noi = root / "noi.json"
    assert run("--config", config, "detect-noi", "--graph", graph,
               "--encoder", encoder, "--out", noi) == EXIT_OK

    subs = root / "subs.json"
    assert run("--config", config, "sample", "--graph", graph, "--nois", noi,
               "--out", subs) == EXIT_OK

    bundle = root / "bundle.json"
    assert run("--config", config, "train-matcher", "--data", ds,
               "--out", bundle) == EXIT_OK
    return workspace


def test_full_subcommand_chain(chain):
    root, config = chain
    ds, subs, bundle = root / "ds", root / "subs.json", root / "bundle.json"
    assert (ds / "manifest.json").exists()
    assert (ds / "events" / "e0000.jsonl").exists()

    rec = root / "rec.json"
    payload = json.loads(subs.read_text())
    query_arg = subs if payload["subgraphs"] else ds / "truth" / "t0000.json"
    assert run("--config", config, "recognize", "--subgraph", query_arg,
               "--models", bundle, "--out", rec) == EXIT_OK
    assert json.loads(rec.read_text())["results"]

    report = root / "report.json"
    assert run("--config", config, "evaluate", "--data", ds, "--models", bundle,
               "--mode", "all", "--out", report) == EXIT_OK
    modes = json.loads(report.read_text())["modes"]
    assert set(modes) == {"True_Graph", "Sampled_Graph", "Raw_Graph"}


def test_detect_noi_writes_the_library_report(chain):
    root, config = chain
    graph = ProvenanceGraph.load(root / "g0.json")
    encoder = load_model(root / "encoder.json", expect_kind="gnn_encoder")
    cfg = PipelineConfig.from_file(config)
    want = detect(graph, encoder, cfg, cfg.seed).to_dict()
    assert json.loads((root / "noi.json").read_text()) == want


def test_set_reaches_detect_noi(chain, tmp_path):
    root, config = chain
    out = tmp_path / "noi.json"
    assert run("--config", config, "--set", "score_threshold=0.55", "detect-noi",
               "--graph", root / "g0.json", "--encoder", root / "encoder.json",
               "--out", out) == EXIT_OK
    graph = ProvenanceGraph.load(root / "g0.json")
    encoder = load_model(root / "encoder.json", expect_kind="gnn_encoder")
    cfg = PipelineConfig.from_file(config).override(score_threshold=0.55)
    assert json.loads(out.read_text()) == detect(graph, encoder, cfg).to_dict()


def test_set_reaches_sample(chain, tmp_path):
    root, config = chain
    out = tmp_path / "subs.json"
    argv = ("sample", "--graph", root / "g0.json", "--nois", root / "noi.json")
    assert run("--config", config, "--set", "lam=4", *argv, "--out", out) == EXIT_OK
    assert json.loads(out.read_text())["lam"] == 4
    # config keys have no per-command flags
    assert run("--config", config, *argv, "--lam", "4",
               "--out", tmp_path / "flag.json") == EXIT_USAGE


def test_checkpoint_with_another_slope_or_width_exits_three(chain, tmp_path):
    root, config = chain
    encoder = rewritten_checkpoint(root / "encoder.json", tmp_path / "enc.json",
                                   lambda p: p["config"].update(slope=0.2))
    assert run("--config", config, "detect-noi", "--graph", root / "g0.json",
               "--encoder", encoder, "--out", tmp_path / "noi.json") == EXIT_MODEL
    bundle = rewritten_checkpoint(
        root / "bundle.json", tmp_path / "bundle.json",
        lambda p: p["matcher"]["config"]["han"].update(feature_dim=41))
    assert run("--config", config, "recognize", "--subgraph",
               root / "ds" / "truth" / "t0000.json", "--models", bundle,
               "--out", tmp_path / "rec.json") == EXIT_MODEL
    assert not (tmp_path / "noi.json").exists()
    assert not (tmp_path / "rec.json").exists()


# (checkpoint, payload edit): encoders are read by detect-noi, bundles by recognize
_REFUSED = {
    "encoder_extra_weight":
        ("encoder", lambda p: p["weights"].append(p["weights"][-1])),
    "encoder_log1p_off": ("encoder", lambda p: p["config"].update(log1p=False)),
    "bundle_extra_encoder_weight": (
        "bundle", lambda p: p["encoder"]["weights"].append(p["encoder"]["weights"][-1])),
    "bundle_log1p_off":
        ("bundle", lambda p: p["encoder"]["config"].update(log1p=False)),
    "bundle_log1p_features_off":
        ("bundle", lambda p: in_both_han_configs(p, log1p_features=False)),
    "bundle_distance_cosine":
        ("bundle", lambda p: p["matcher"]["config"].update(distance="cosine")),
    "bundle_exemplar_cut_short": ("bundle", lambda p: cut_first_exemplar(p, 10)),
    "bundle_repeated_metapath":
        ("bundle", lambda p: in_both_han_configs(p, metapaths=["MP2", "MP1", "MP2"])),
    "bundle_repeated_technique": ("bundle", repeat_first_technique),
}


@pytest.mark.parametrize("case", sorted(_REFUSED))
def test_refused_checkpoint_exits_three_and_writes_nothing(chain, tmp_path, case):
    root, config = chain
    kind, edit = _REFUSED[case]
    model = rewritten_checkpoint(root / f"{kind}.json", tmp_path / f"{kind}.json", edit)
    out = tmp_path / "out.json"
    if kind == "encoder":
        argv = ("detect-noi", "--graph", root / "g0.json", "--encoder", model)
    else:
        argv = ("recognize", "--subgraph", root / "ds" / "truth" / "t0000.json",
                "--models", model)
    assert run("--config", config, *argv, "--out", out) == EXIT_MODEL
    assert not out.exists()


def test_bundle_whose_han_configs_disagree_exits_three(chain, tmp_path):
    root, config = chain
    # the matcher would embed with all four meta-paths on MP1-only weights
    bundle = rewritten_checkpoint(
        root / "bundle.json", tmp_path / "bundle.json",
        lambda p: p["matcher"]["encoder"]["config"].update(metapaths=["MP1"]))
    out = tmp_path / "rec.json"
    assert run("--config", config, "recognize", "--subgraph",
               root / "ds" / "truth" / "t0000.json", "--models", bundle,
               "--out", out) == EXIT_MODEL
    assert not out.exists()


def test_bundle_with_a_non_finite_weight_exits_three(chain, tmp_path):
    root, config = chain

    def nan_weight(payload):
        weights = decode_array(payload["encoder"]["weights"][0], None)
        weights[0] = math.nan
        payload["encoder"]["weights"][0] = encode_array(weights)

    bundle = rewritten_checkpoint(root / "bundle.json", tmp_path / "bundle.json",
                                  nan_weight)
    out = tmp_path / "rec.json"
    assert run("--config", config, "recognize", "--subgraph",
               root / "ds" / "truth" / "t0000.json", "--models", bundle,
               "--out", out) == EXIT_MODEL
    assert not out.exists()


def test_recognize_of_no_subgraphs_writes_no_results(chain, tmp_path):
    root, config = chain
    query = tmp_path / "query.json"
    query.write_text(json.dumps({"subgraphs": []}))
    out = tmp_path / "rec.json"
    assert run("--config", config, "recognize", "--subgraph", query,
               "--models", root / "bundle.json", "--out", out) == EXIT_OK
    assert json.loads(out.read_text()) == {"results": []}


@pytest.mark.parametrize("payload", [5, {"subgraphs": 5}])
def test_recognize_rejects_wrong_top_level_shape(chain, tmp_path, payload):
    root, config = chain
    query = tmp_path / "query.json"
    query.write_text(json.dumps(payload))
    out = tmp_path / "rec.json"
    assert run("--config", config, "recognize", "--subgraph", query,
               "--models", root / "bundle.json", "--out", out) == EXIT_DATA
    assert not out.exists()


_LAUNCH = {"src": "p", "dst": "q", "type_id": 1, "ts": 0}
_MALFORMED_SUBGRAPHS = {
    "ts_fractional": {"edges": [{**_LAUNCH, "ts": 1.9}]},
    "ts_bool": {"edges": [{**_LAUNCH, "ts": True}]},
    "type_id_string": {"edges": [{**_LAUNCH, "type_id": "1"}]},
    "noi_float": {"nois": ["p", 1.5]},
}


@pytest.mark.parametrize("case", sorted(_MALFORMED_SUBGRAPHS))
def test_recognize_refuses_malformed_subgraph_json(chain, tmp_path, capsys, case):
    root, config = chain
    query = tmp_path / "query.json"
    query.write_text(json.dumps({
        "seed": "p",
        "nodes": [{"id": "p", "type": "process"}, {"id": "q", "type": "process"}],
        "edges": [_LAUNCH],
        "nois": ["p"],
        **_MALFORMED_SUBGRAPHS[case],
    }))
    out = tmp_path / "rec.json"
    assert run("--config", config, "recognize", "--subgraph", query,
               "--models", root / "bundle.json", "--out", out) == EXIT_DATA
    err = capsys.readouterr().err
    assert "data error" in err and "Traceback" not in err
    assert not out.exists()


def test_ingest_counts_non_object_lines_as_rejected(chain, tmp_path):
    root, _ = chain
    events = root / "ds" / "events" / "e0000.jsonl"
    good = events.read_text().splitlines()[0]
    bad_ts = json.dumps({**json.loads(good), "ts": None})
    log = tmp_path / "mixed.jsonl"
    log.write_text("\n".join(["5", "null", bad_ts, good]) + "\n")
    target = tmp_path / "g.json"
    assert run("ingest", "--events", log, "--out", target) == EXIT_OK
    stats = json.loads((tmp_path / "g.stats.json").read_text())
    assert stats["loaded"] == 1
    assert [r["line"] for r in stats["rejected"]] == [1, 2, 3]


def test_ingest_refuses_a_line_that_is_not_utf8_and_loads_the_rest(tmp_path, capsys):
    good = {"subject_id": "p", "subject_type": "process", "operation": "read",
            "object_id": "f", "object_type": "file", "ts": 1}
    bad = json.dumps({**good, "object_id": "X"}).encode().replace(b"X", b"\xff")
    log = tmp_path / "log.jsonl"
    log.write_bytes(bad + b"\n" + json.dumps(good).encode() + b"\n")
    target = tmp_path / "g.json"
    assert run("ingest", "--events", log, "--out", target) == EXIT_OK
    stats = json.loads((tmp_path / "g.stats.json").read_text())
    assert (stats["lines"], stats["loaded"]) == (2, 1)
    assert [r["line"] for r in stats["rejected"]] == [1]
    assert "'utf-8' codec can't decode byte 0xff" in stats["rejected"][0]["reason"]
    assert ProvenanceGraph.load(target).n_edges == 1
    assert "rejected line 1" in capsys.readouterr().err


def test_generate_is_bit_deterministic(workspace):
    root, config = workspace
    d1, d2 = root / "det1", root / "det2"
    assert run("--config", config, "generate", "--out", d1) == EXIT_OK
    assert run("--config", config, "generate", "--out", d2) == EXIT_OK
    assert (d1 / "manifest.json").read_bytes() == (d2 / "manifest.json").read_bytes()
    for sub in ("graphs", "truth"):
        files1 = sorted((d1 / sub).iterdir())
        files2 = sorted((d2 / sub).iterdir())
        assert [f.name for f in files1] == [f.name for f in files2]
        for f1, f2 in zip(files1, files2):
            assert f1.read_bytes() == f2.read_bytes()


def test_outputs_require_force_to_overwrite(chain):
    root, config = chain
    target = root / "again.json"
    assert run("ingest", "--events", root / "ds" / "events" / "e0001.jsonl",
               "--out", target) == EXIT_OK
    assert run("ingest", "--events", root / "ds" / "events" / "e0001.jsonl",
               "--out", target) == EXIT_DATA
    assert run("ingest", "--events", root / "ds" / "events" / "e0001.jsonl",
               "--out", target, "--force") == EXIT_OK


def test_detect_noi_log_records_flags_and_score_quantiles(chain):
    root, _ = chain
    report = json.loads((root / "noi.json").read_text())
    logged = json.loads((root / "noi.json.log.json").read_text())["detection"]
    scores = sorted(row["score"] for row in report["nois"])
    assert logged["scored"] == len(scores)
    assert logged["flagged"] == sum(row["flagged"] for row in report["nois"])
    quantiles = logged["score_quantiles"]
    assert list(quantiles) == ["0", "0.5", "0.9", "0.99", "1"]
    assert quantiles["0"] == scores[0] and quantiles["1"] == scores[-1]
    assert list(quantiles.values()) == sorted(quantiles.values())


def test_sample_log_records_what_was_carved(chain):
    root, config = chain
    cfg = PipelineConfig.from_file(config)
    payload = json.loads((root / "subs.json").read_text())
    flagged = [row for row in json.loads((root / "noi.json").read_text())["nois"]
               if row["flagged"]]
    logged = json.loads((root / "subs.json.log.json").read_text())["carving"]
    carves = payload["subgraphs"]
    assert (logged["lam"], logged["min_nois"]) == (cfg.lam, cfg.min_nois)
    assert logged["carves"] == len(carves)
    assert logged["carve_nodes"] == [len(t["nodes"]) for t in carves]
    assert logged["flags_consumed"] == sum(len(t["nois"]) for t in carves)
    assert logged["flags_consumed"] + logged["flags_dropped"] == len(flagged)


def test_sample_log_counts_flags_dropped_under_min_nois(tmp_path):
    # three flags around one file, and a fourth four hops away from them
    make_graph(
        [(f"m{i}", "write", "shared", EntityType.FILE) for i in range(3)]
        + [("m0", "launch", "far0", EntityType.PROCESS),
           ("far0", "launch", "far1", EntityType.PROCESS),
           ("far1", "launch", "far2", EntityType.PROCESS),
           ("far2", "launch", "lone", EntityType.PROCESS)]
    ).save(tmp_path / "g.json")
    nois = {"threshold": 0.6, "contamination": None, "nois": [
        {"node_id": nid, "score": 0.7, "flagged": True}
        for nid in ("m0", "m1", "m2", "lone")]}
    (tmp_path / "noi.json").write_text(json.dumps(nois))
    assert run("--set", "min_nois=3", "--set", "lam=2", "sample",
               "--graph", tmp_path / "g.json", "--nois", tmp_path / "noi.json",
               "--out", tmp_path / "subs.json") == EXIT_OK
    logged = json.loads((tmp_path / "subs.json.log.json").read_text())["carving"]
    assert logged == {"lam": 2, "min_nois": 3, "carves": 1, "carve_nodes": [4],
                      "flags_consumed": 3, "flags_dropped": 1}


def test_run_log_requires_force_to_overwrite(chain):
    root, config = chain
    events = root / "ds" / "events" / "e0002.jsonl"
    target = root / "logged.json"
    log = root / "logged.json.log.json"
    assert run("ingest", "--events", events, "--out", target) == EXIT_OK
    target.unlink()  # only the run log of the first run is left behind
    log.write_text("kept")
    assert run("ingest", "--events", events, "--out", target) == EXIT_DATA
    assert log.read_text() == "kept"
    assert not target.exists()
    assert run("ingest", "--events", events, "--out", target, "--force") == EXIT_OK
    assert json.loads(log.read_text())["command"] == "ingest"


def test_run_log_records_arguments_not_handlers(chain):
    root, config = chain
    target = root / "plain.json"
    assert run("ingest", "--events", root / "ds" / "events" / "e0003.jsonl",
               "--out", target) == EXIT_OK
    text = (root / "plain.json.log.json").read_text()
    assert "<function" not in text
    args = json.loads(text)["args"]
    assert "fn" not in args
    assert args["out"] == str(target)


def test_training_logs_carry_loss_curves(chain):
    root, config = chain
    cfg = PipelineConfig.from_file(config)
    logged = {
        name: json.loads((root / f"{name}.json.log.json").read_text())["loss_curves"]
        for name in ("encoder", "bundle")
    }
    assert set(logged["encoder"]) == {"encoder"}
    assert set(logged["bundle"]) == {"encoder", "matcher"}
    epochs = {"encoder": cfg.encoder_epochs, "matcher": cfg.matcher_epochs}
    for curves in logged.values():
        for model, curve in curves.items():
            assert len(curve) == epochs[model]
            assert all(math.isfinite(loss) for loss in curve)
            assert curve[-1] < curve[0]


def test_usage_errors_exit_one():
    assert run("no-such-command") == EXIT_USAGE
    assert run("generate") == EXIT_USAGE  # missing --out
    assert run("--config") == EXIT_USAGE


def test_missing_inputs_exit_two(workspace):
    root, config = workspace
    assert run("ingest", "--events", root / "nope.jsonl",
               "--out", root / "x.json") == EXIT_DATA
    assert run("evaluate", "--data", root / "missing", "--out",
               root / "y.json") == EXIT_DATA
    bad_config = root / "bad_config.json"
    bad_config.write_text(json.dumps({"zzz_unknown": 1}))
    assert run("--config", bad_config, "generate",
               "--out", root / "z") == EXIT_DATA


def test_corrupt_checkpoint_exits_three(chain):
    root, config = chain
    bundle = root / "bundle.json"
    mangled = root / "mangled.json"
    payload = json.loads(bundle.read_text())
    payload["content_hash"] = "0" * 64
    mangled.write_text(json.dumps(payload))
    assert run("--config", config, "evaluate", "--data", root / "ds",
               "--models", mangled, "--out", root / "r2.json") == EXIT_MODEL
    truncated = root / "truncated.json"
    truncated.write_text(bundle.read_text()[:100])
    assert run("--config", config, "evaluate", "--data", root / "ds",
               "--models", truncated, "--out", root / "r3.json") == EXIT_MODEL
    with pytest.raises(ModelFormatError):
        load_model(truncated)
    # a string holding every field name passes a bare `in` check
    for i, top_level in enumerate((5, "format_version kind content_hash payload")):
        not_object = root / f"not-object{i}.json"
        not_object.write_text(json.dumps(top_level))
        assert run("--config", config, "evaluate", "--data", root / "ds", "--models",
                   not_object, "--out", root / f"r-not-object{i}.json") == EXIT_MODEL


def test_wrong_kind_checkpoint_rejected(chain):
    root, config = chain
    with pytest.raises(ModelFormatError, match="kind"):
        load_model(root / "encoder.json", expect_kind="siamese_matcher")


def test_baseline_subcommand(workspace, tmp_path):
    root, config = workspace
    trace = tmp_path / "trace.jsonl"
    rows = [
        {"subject_id": "a", "subject_type": "process", "operation": "connect",
         "object_id": "203.0.113.5:1", "object_type": "socket", "ts": 1},
        {"subject_id": "a", "subject_type": "process", "operation": "write",
         "object_id": "f", "object_type": "file", "ts": 2},
        {"subject_id": "b", "subject_type": "process", "operation": "execute",
         "object_id": "f", "object_type": "file", "ts": 3},
    ]
    trace.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    spec = tmp_path / "bl.json"
    spec.write_text(json.dumps({"untrusted_addresses": ["203.0.113.*"]}))
    out = tmp_path / "alerts.jsonl"
    assert run("baseline", "--events", trace, "--blacklists", spec,
               "--out", out) == EXIT_OK
    alerts = [json.loads(line) for line in out.read_text().splitlines()]
    assert [a["tactic"] for a in alerts] == ["Initial Access", "Execution"]


@pytest.fixture
def watched_stdin(monkeypatch):
    """fd 0 holds one line for the test; the returned check reads it back,
    so it fails when a command read or closed stdin. Opening any other file
    descriptor as a blacklist file fails the test too, since those belong
    to the test process and may block."""

    def descriptor_guard(file, *args, **kwargs):
        assert not isinstance(file, int), f"opened file descriptor {file}"
        return open(file, *args, **kwargs)

    monkeypatch.setattr("provrec.rules.open", descriptor_guard, raising=False)
    saved = os.dup(0)
    read_end, write_end = os.pipe()
    os.write(write_end, b"mimikatz.exe\n")
    os.close(write_end)
    os.dup2(read_end, 0)
    os.close(read_end)
    yield lambda: os.read(0, 64) == b"mimikatz.exe\n"
    os.dup2(saved, 0)
    os.close(saved)


_BAD_BLACKLISTS = {
    "commands_zero": {"commands": 0},
    "commands_seven": {"commands": 7},
    "files_as_list": {"files": ["x"]},
    "spec_as_list": [{"commands": ["mimikatz.exe"]}],
    "category_as_string": {"files": {"user_info": 5}},
    "entry_not_a_string": {"untrusted_addresses": ["203.0.113.*", 5]},
    "list_file_is_a_directory": {"commands": "."},  # the working directory
}


@pytest.mark.parametrize("case", sorted(_BAD_BLACKLISTS))
def test_baseline_refuses_a_malformed_blacklist_spec(tmp_path, capsys, watched_stdin,
                                                     case):
    trace = tmp_path / "trace.jsonl"
    trace.write_text(json.dumps(
        {"subject_id": "a", "subject_type": "process", "operation": "read",
         "object_id": "f", "object_type": "file", "ts": 1}) + "\n")
    spec = tmp_path / "bl.json"
    spec.write_text(json.dumps(_BAD_BLACKLISTS[case]))
    out = tmp_path / "alerts.jsonl"
    assert run("baseline", "--events", trace, "--blacklists", spec,
               "--out", out) == EXIT_DATA
    err = capsys.readouterr().err
    assert "data error" in err and "Traceback" not in err
    assert watched_stdin()
    assert not out.exists()


def test_evaluate_reports_are_deterministic(chain):
    root, config = chain
    r1, r2 = root / "rep1.json", root / "rep2.json"
    for out in (r1, r2):
        assert run("--config", config, "evaluate", "--data", root / "ds",
                   "--models", root / "bundle.json", "--mode", "true",
                   "--out", out) == EXIT_OK
    assert r1.read_bytes() == r2.read_bytes()


def test_evaluate_with_noi_reports_the_lmo_protocol(chain):
    root, config = chain
    out = root / "rep-noi.json"
    assert run("--config", config, "evaluate", "--data", root / "ds",
               "--models", root / "bundle.json", "--mode", "true", "--with-noi",
               "--out", out) == EXIT_OK
    pipeline = PipelineConfig.from_file(config)
    expected = noi_lmo_protocol(LabeledDataset.load(root / "ds"), pipeline,
                                pipeline.seed)
    assert json.loads(out.read_text())["noi_detection"] == expected


_GRAPH = {"format_version": 1, "nodes": [{"id": "p", "type": "process"}], "edges": []}
_REPORT = {"threshold": 0.6, "nois": [{"node_id": "p", "score": 0.9, "flagged": True}]}
_TRUTH = {"seed": "p", "nodes": _GRAPH["nodes"], "edges": [], "nois": ["p"]}
_ENTRY = {"technique": "T1", "tactic": "TA1", "graph": "g.json", "truth": "t.json"}
_MALFORMED = {
    "graph_without_edges": ("graph", {k: v for k, v in _GRAPH.items() if k != "edges"}),
    "graph_file_launches_process": ("graph", {
        **_GRAPH,
        "nodes": [*_GRAPH["nodes"], {"id": "f", "type": "file"}],
        "edges": [{"src": "f", "dst": "p", "type_id": 1, "ts": 0}],
    }),
    "report_row_without_score": ("report", {**_REPORT, "nois": [{"node_id": "p"}]}),
    "report_as_list": ("report", [_REPORT]),
    "manifest_without_samples": ("manifest", {"format_version": 1}),
    "manifest_sample_as_list": ("manifest", {"format_version": 1, "samples": [[1]]}),
    "manifest_as_list": ("manifest", [_ENTRY]),
    "truth_without_nois": ("truth", {k: v for k, v in _TRUTH.items() if k != "nois"}),
    "truth_label_as_list": ("truth", {**_TRUTH, "label": ["T1"]}),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED))
def test_malformed_json_inputs_exit_two(tmp_path, case):
    which, broken = _MALFORMED[case]
    files = {
        "graph": _GRAPH,
        "report": _REPORT,
        "manifest": {"format_version": 1, "seed": 0, "samples": [_ENTRY]},
        "truth": _TRUTH,
        which: broken,
    }
    for name, path in (("graph", "g.json"), ("report", "nois.json"),
                       ("manifest", "manifest.json"), ("truth", "t.json")):
        (tmp_path / path).write_text(json.dumps(files[name]))
    if which in ("graph", "report"):
        argv = ("sample", "--graph", tmp_path / "g.json",
                "--nois", tmp_path / "nois.json")
    else:
        argv = ("train-matcher", "--data", tmp_path)
    assert run(*argv, "--out", tmp_path / "out.json") == EXIT_DATA
    assert not (tmp_path / "out.json").exists()


def test_ingest_refuses_existing_stats_without_force(chain, tmp_path):
    root, config = chain
    events = root / "ds" / "events" / "e0004.jsonl"
    target = tmp_path / "g9.json"
    stats = tmp_path / "g9.stats.json"
    stats.write_text("kept")
    assert run("ingest", "--events", events, "--out", target) == EXIT_DATA
    assert stats.read_text() == "kept"
    assert not target.exists()
    assert run("ingest", "--events", events, "--out", target, "--force") == EXIT_OK
    assert json.loads(stats.read_text())["loaded"] > 0


def _refuse(*args, **kwargs):
    raise AssertionError("work started although --out exists")


def _existing_out_argv(root, config, command, out):
    ds, bundle = root / "ds", root / "bundle.json"
    inputs = {
        "train-encoder": ("--data", ds),
        "train-matcher": ("--data", ds),
        "detect-noi": ("--graph", root / "g0.json", "--encoder", root / "encoder.json"),
        "recognize": ("--subgraph", ds / "truth" / "t0000.json", "--models", bundle),
        "evaluate": ("--data", ds, "--models", bundle),
    }[command]
    return ("--config", config, command, *inputs, "--out", out)


@pytest.mark.parametrize("command, module, name", [
    ("train-encoder", "provrec.features", "train_encoder"),
    ("train-matcher", "provrec.cli", "train_pipeline"),
    ("detect-noi", "provrec.cli", "detect"),
    ("recognize", "provrec.cli", "recognize_many"),
    ("evaluate", "provrec.cli", "evaluate_modes"),
])
def test_existing_out_is_refused_before_any_work(
    chain, tmp_path, monkeypatch, command, module, name
):
    root, config = chain
    out = tmp_path / "out.json"
    out.write_text("kept")
    monkeypatch.setattr(f"{module}.{name}", _refuse)
    assert run(*_existing_out_argv(root, config, command, out)) == EXIT_DATA
    assert out.read_text() == "kept"
    assert not (tmp_path / "out.json.log.json").exists()


@pytest.mark.parametrize("threads", ["1", None])
def test_run_log_records_blas_setup(chain, tmp_path, monkeypatch, threads):
    root, _ = chain
    if threads is None:
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    else:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", threads)
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    # the pool OpenBLAS reports, not the variable read when it loaded
    pool = 1 if threads else 3
    openblas = _openblas_threads()
    caller = openblas.get()
    openblas.set(pool)
    try:
        target = tmp_path / "g.json"
        assert run("ingest", "--events", root / "ds" / "events" / "e0005.jsonl",
                   "--out", target) == EXIT_OK
    finally:
        openblas.set(caller)
    blas = json.loads((tmp_path / "g.json.log.json").read_text())["blas"]
    assert blas == {
        "OPENBLAS_NUM_THREADS": threads or "default",
        "OMP_NUM_THREADS": "default",
        "cpu_count": os.cpu_count(),
        "openblas_threads": pool,
    }


def test_run_log_pool_is_null_when_numpy_blas_is_not_openblas(chain, tmp_path,
                                                              monkeypatch):
    root, _ = chain
    monkeypatch.setattr("provrec.cli._openblas_threads", lambda: None)
    target = tmp_path / "g.json"
    assert run("ingest", "--events", root / "ds" / "events" / "e0005.jsonl",
               "--out", target) == EXIT_OK
    blas = json.loads((tmp_path / "g.json.log.json").read_text())["blas"]
    assert blas["openblas_threads"] is None
