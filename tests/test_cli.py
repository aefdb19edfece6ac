"""CLI chain, exit codes, overwrite protection, and artifact determinism."""

import json
import os

import pytest

from provrec.cli import EXIT_DATA, EXIT_MODEL, EXIT_OK, EXIT_USAGE, main
from provrec.config import PipelineConfig
from provrec.evaluation import detect
from provrec.graph import ProvenanceGraph
from provrec.persistence import ModelFormatError, load_model


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


def test_full_subcommand_chain(workspace):
    root, config = workspace
    ds = root / "ds"
    assert run("--config", config, "generate", "--out", ds) == EXIT_OK
    assert (ds / "manifest.json").exists()
    assert (ds / "events" / "e0000.jsonl").exists()

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


def test_detect_noi_writes_the_library_report(workspace):
    root, config = workspace
    graph = ProvenanceGraph.load(root / "g0.json")
    encoder = load_model(root / "encoder.json", expect_kind="gnn_encoder")
    cfg = PipelineConfig.from_file(config)
    want = detect(graph, encoder, cfg, cfg.seed).to_dict()
    assert json.loads((root / "noi.json").read_text()) == want


@pytest.mark.parametrize("payload", [5, {"subgraphs": 5}])
def test_recognize_rejects_wrong_top_level_shape(workspace, tmp_path, payload):
    root, config = workspace
    query = tmp_path / "query.json"
    query.write_text(json.dumps(payload))
    out = tmp_path / "rec.json"
    assert run("--config", config, "recognize", "--subgraph", query,
               "--models", root / "bundle.json", "--out", out) == EXIT_DATA
    assert not out.exists()


def test_ingest_counts_non_object_lines_as_rejected(workspace, tmp_path):
    root, _ = workspace
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


def test_outputs_require_force_to_overwrite(workspace):
    root, config = workspace
    target = root / "again.json"
    assert run("ingest", "--events", root / "ds" / "events" / "e0001.jsonl",
               "--out", target) == EXIT_OK
    assert run("ingest", "--events", root / "ds" / "events" / "e0001.jsonl",
               "--out", target) == EXIT_DATA
    assert run("ingest", "--events", root / "ds" / "events" / "e0001.jsonl",
               "--out", target, "--force") == EXIT_OK


def test_run_log_requires_force_to_overwrite(workspace):
    root, config = workspace
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


def test_run_log_records_arguments_not_handlers(workspace):
    root, config = workspace
    target = root / "plain.json"
    assert run("ingest", "--events", root / "ds" / "events" / "e0003.jsonl",
               "--out", target) == EXIT_OK
    text = (root / "plain.json.log.json").read_text()
    assert "<function" not in text
    args = json.loads(text)["args"]
    assert "fn" not in args
    assert args["out"] == str(target)


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


def test_corrupt_checkpoint_exits_three(workspace):
    root, config = workspace
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


def test_wrong_kind_checkpoint_rejected(workspace):
    root, config = workspace
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


def test_evaluate_reports_are_deterministic(workspace):
    root, config = workspace
    r1, r2 = root / "rep1.json", root / "rep2.json"
    for out in (r1, r2):
        assert run("--config", config, "evaluate", "--data", root / "ds",
                   "--models", root / "bundle.json", "--mode", "true",
                   "--out", out) == EXIT_OK
    assert r1.read_bytes() == r2.read_bytes()


_GRAPH = {"format_version": 1, "nodes": [{"id": "p", "type": "process"}], "edges": []}
_REPORT = {"threshold": 0.6, "nois": [{"node_id": "p", "score": 0.9, "flagged": True}]}
_TRUTH = {"seed": "p", "nodes": _GRAPH["nodes"], "edges": [], "nois": ["p"]}
_ENTRY = {"technique": "T1", "tactic": "TA1", "graph": "g.json", "truth": "t.json"}
_MALFORMED = {
    "graph_without_edges": ("graph", {k: v for k, v in _GRAPH.items() if k != "edges"}),
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


def test_ingest_refuses_existing_stats_without_force(workspace, tmp_path):
    root, config = workspace
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
    ("recognize", "provrec.cli", "recognize"),
    ("evaluate", "provrec.cli", "evaluate_end_to_end"),
])
def test_existing_out_is_refused_before_any_work(
    workspace, tmp_path, monkeypatch, command, module, name
):
    root, config = workspace
    out = tmp_path / "out.json"
    out.write_text("kept")
    monkeypatch.setattr(f"{module}.{name}", _refuse)
    assert run(*_existing_out_argv(root, config, command, out)) == EXIT_DATA
    assert out.read_text() == "kept"
    assert not (tmp_path / "out.json.log.json").exists()


@pytest.mark.parametrize("threads", ["1", None])
def test_run_log_records_blas_setup(workspace, tmp_path, monkeypatch, threads):
    root, _ = workspace
    if threads is None:
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    else:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", threads)
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    target = tmp_path / "g.json"
    assert run("ingest", "--events", root / "ds" / "events" / "e0005.jsonl",
               "--out", target) == EXIT_OK
    blas = json.loads((tmp_path / "g.json.log.json").read_text())["blas"]
    assert blas == {
        "OPENBLAS_NUM_THREADS": threads or "default",
        "OMP_NUM_THREADS": "default",
        "cpu_count": os.cpu_count(),
    }
