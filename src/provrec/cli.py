"""Command-line pipeline orchestration.

Subcommands cover the full flow: generate synthetic data, ingest event logs,
train the encoders, detect anomalous nodes, carve subgraphs, train the
matcher, recognise queries, evaluate end to end and replay the rule
baseline. Every subcommand is deterministic given (config, seed,
inputs), never mutates its inputs, and refuses to overwrite outputs without
--force. Config keys come only from --config, --seed and --set KEY=VALUE.

Exit codes: 0 success, 1 usage, 2 data error, 3 model error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import features as ft
from .config import ConfigError, PipelineConfig
from .evaluation import (
    MODES,
    detect,
    evaluate_end_to_end,
    run_experiment,
    split_few_shot,
    train_pipeline,
)
from .graph import (
    GraphError,
    ProvenanceGraph,
    build_graph,
    disjoint_union,
    graph_to_events,
    read_events_jsonl,
    write_events_jsonl,
)
from .matching import recognize_many
from .noi import NoiReport
from .numerics import NumericsError
from .persistence import ModelFormatError, load_model, save_model
from .rules import RuleError, load_blacklists, replay
from .sampling import TechniqueSubgraph, sample_subgraphs
from .synthetic import LabeledDataset, generate_scenario

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_MODEL = 3

# anomaly-score quantiles a detect-noi run log records
SCORE_QUANTILES = (0, 0.5, 0.9, 0.99, 1)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep exit-code contract instead of argparse's 2
        raise UsageError(message)


def _fresh_path(path: Path, force: bool) -> Path:
    if path.exists() and not force:
        raise FileExistsError(f"{path} exists; pass --force to overwrite")
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _write_json(payload: dict, path: Path) -> None:
    """Write ``path``; an existing one was refused without --force before
    the command did any work."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)


def _log_path(out: Path) -> Path:
    return out.with_suffix(out.suffix + ".log.json")


def _blas_setup() -> dict:
    """The BLAS thread settings a run saw; results can differ in the last
    bits between thread counts."""
    setup = {
        key: os.environ.get(key, "default")
        for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
    }
    setup["cpu_count"] = os.cpu_count()
    return setup


def _write_log(out: Path, command: str, args: dict, elapsed: float) -> None:
    log = {
        "command": command,
        "args": {k: str(v) for k, v in args.items()
                 if v is not None and k not in ("fn", "log")},
        "elapsed_seconds": round(elapsed, 3),
        "blas": _blas_setup(),
        **args["log"],
    }
    _write_json(log, _log_path(out))


def _parse_set_overrides(pairs) -> dict:
    overrides = {}
    for pair in pairs or ():
        key, sep, raw = pair.partition("=")
        if not sep or not key:
            raise UsageError(f"--set expects KEY=VALUE, got {pair!r}")
        try:
            overrides[key] = json.loads(raw)
        except json.JSONDecodeError:
            overrides[key] = raw
    return overrides


def _load_config(args) -> PipelineConfig:
    config = (
        PipelineConfig.from_file(args.config)
        if args.config
        else PipelineConfig()
    )
    overrides = _parse_set_overrides(args.set)
    if args.seed is not None:
        overrides["seed"] = args.seed
    return config.override(**overrides) if overrides else config


def _load_dataset(path: str) -> LabeledDataset:
    try:
        return LabeledDataset.load(path)
    except FileNotFoundError:
        raise GraphError(f"no dataset manifest under {path}") from None


# -- subcommand bodies -------------------------------------------------------


def _cmd_generate(args, config: PipelineConfig) -> int:
    out = Path(args.out)
    if (out / "manifest.json").exists() and not args.force:
        raise FileExistsError(f"{out} already holds a dataset; pass --force")
    dataset = generate_scenario(config.scenario_spec(), seed=config.seed)
    dataset.save(out)
    events_dir = out / "events"
    events_dir.mkdir(parents=True, exist_ok=True)
    for i, sample in enumerate(dataset):
        write_events_jsonl(
            graph_to_events(sample.graph), events_dir / f"e{i:04d}.jsonl"
        )
    print(
        f"generated {len(dataset)} graphs "
        f"({len(dataset.techniques())} techniques) under {out}"
    )
    return EXIT_OK


def _cmd_ingest(args, config: PipelineConfig) -> int:
    out = Path(args.out)
    stats_out = _fresh_path(out.with_suffix(".stats.json"), args.force)
    events, stats = read_events_jsonl(args.events)
    graph = build_graph(events)
    graph.save(out)
    print(
        f"ingested {stats.loaded} events ({stats.rejected_count} rejected) -> "
        f"{graph.n_nodes} nodes, {graph.n_edges} edges"
    )
    for line_no, reason in stats.rejected[:10]:
        print(f"  rejected line {line_no}: {reason}", file=sys.stderr)
    _write_json(stats.to_dict(), stats_out)
    return EXIT_OK


def _load_graphs_arg(args) -> list[ProvenanceGraph]:
    if getattr(args, "data", None):
        return [s.graph for s in _load_dataset(args.data)]
    return [ProvenanceGraph.load(args.graph)]


def _cmd_train_encoder(args, config: PipelineConfig) -> int:
    graphs = _load_graphs_arg(args)
    union = graphs[0] if len(graphs) == 1 else disjoint_union(graphs)
    encoder = ft.train_encoder(
        union, ft.init_features(union), config.encoder_config()
    )
    out = Path(args.out)
    save_model(encoder, out, force=True)
    args.log["loss_curves"] = {"encoder": encoder.loss_curve}
    acc = ft.type_accuracy(encoder, union, ft.init_features(union))
    print(
        f"trained encoder on {union.n_nodes} nodes; "
        f"node-type accuracy {acc:.3f}; saved to {out}"
    )
    return EXIT_OK


def _cmd_detect_noi(args, config: PipelineConfig) -> int:
    graph = ProvenanceGraph.load(args.graph)
    encoder = load_model(args.encoder, expect_kind="gnn_encoder")
    report = detect(graph, encoder, config, config.seed)
    _write_json(report.to_dict(), Path(args.out))
    scores = np.fromiter(report.scores.values(), dtype=np.float64)
    args.log["detection"] = {
        "scored": len(scores),
        "flagged": len(report.flagged),
        "score_quantiles": {
            str(q): float(np.quantile(scores, q)) for q in SCORE_QUANTILES
        } if len(scores) else None,
    }
    print(f"flagged {len(report.flagged)} of {len(report.scores)} process nodes")
    return EXIT_OK


def _cmd_sample(args, config: PipelineConfig) -> int:
    graph = ProvenanceGraph.load(args.graph)
    with open(args.nois, "r", encoding="utf-8") as fh:
        report = NoiReport.from_dict(json.load(fh))
    subgraphs = sample_subgraphs(
        graph, report.flagged, lam=config.lam, min_nois=config.min_nois
    )
    payload = {
        "format_version": 1,
        "lam": config.lam,
        "min_nois": config.min_nois,
        "subgraphs": [t.to_dict() for t in subgraphs],
    }
    _write_json(payload, Path(args.out))
    sizes = [t.n_nodes for t in subgraphs]
    consumed = sum(len(t.nois) for t in subgraphs)
    args.log["carving"] = {
        "lam": config.lam,
        "min_nois": config.min_nois,
        "carves": len(subgraphs),
        "carve_nodes": sizes,
        "flags_consumed": consumed,
        # every flag is consumed by some walk; these were in walks that
        # reached fewer than min_nois flags
        "flags_dropped": len(set(report.flagged)) - consumed,
    }
    print(f"sampled {len(subgraphs)} subgraphs (node counts {sizes})")
    return EXIT_OK


def _cmd_train_matcher(args, config: PipelineConfig) -> int:
    dataset = _load_dataset(args.data)
    train, _ = split_few_shot(dataset, config.shots, config.seed)
    models = train_pipeline(train, config, config.seed)
    out = Path(args.out)
    save_model(models, out, force=True)
    args.log["loss_curves"] = {"encoder": models.encoder.loss_curve,
                               "matcher": models.matcher.loss_curve}
    print(
        f"trained matcher on {len(train)} shots "
        f"({len(models.exemplars)} techniques); bundle saved to {out}"
    )
    return EXIT_OK


def _cmd_recognize(args, config: PipelineConfig) -> int:
    models = load_model(args.models, expect_kind="bundle")
    with open(args.subgraph, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        raise GraphError("a subgraph file must hold a JSON object")
    entries = payload.get("subgraphs", [payload])
    if not isinstance(entries, list):
        raise GraphError('"subgraphs" must be a list of subgraphs')
    results = recognize_many([TechniqueSubgraph.from_dict(q) for q in entries],
                             models.exemplars, models.matcher, config.unknown_threshold)
    for i, result in enumerate(results):
        print(f"query {i}: {result.decision} ({result.decision_tactic})")
    rows = [{"query_id": i, **r.to_dict()} for i, r in enumerate(results)]
    _write_json({"results": rows}, Path(args.out))
    return EXIT_OK


_MODE_NAMES = {"true": "True_Graph", "sampled": "Sampled_Graph", "raw": "Raw_Graph"}


def _cmd_evaluate(args, config: PipelineConfig) -> int:
    dataset = _load_dataset(args.data)
    modes = list(MODES) if args.mode == "all" else [_MODE_NAMES[args.mode]]
    if args.models:
        models = load_model(args.models, expect_kind="bundle")
        _, test = split_few_shot(dataset, config.shots, config.seed)
        report = {"seed": config.seed, "n_test": len(test), "modes": {}}
        for mode in modes:
            report["modes"][mode] = evaluate_end_to_end(
                test, mode, models, config, config.seed
            )
    else:
        report = run_experiment(dataset, config, config.seed, modes)
    if args.with_noi:
        from .evaluation import noi_lmo_protocol

        report["noi_detection"] = noi_lmo_protocol(dataset, config, config.seed)
    _write_json(report, Path(args.out))
    print(f"{'mode':<14} {'ACC':>6} {'Top3ACC':>8} {'TacticACC':>10}")
    for mode, r in report["modes"].items():
        rec = r["recognition"]
        print(
            f"{mode:<14} {rec['ACC']:>6.3f} {rec['Top3ACC']:>8.3f} "
            f"{rec['TacticACC']:>10.3f}"
        )
        if "sampling" in r:
            s = r["sampling"]
            print(
                f"{'':<14} sampling: precision={s['precision']:.3f} "
                f"coverage={s['coverage']:.3f} tpr={s['tpr']:.3f} far={s['far']:.3f}"
            )
    if "noi_detection" in report:
        d = report["noi_detection"]
        print(
            f"{'noi (LMO)':<14} acc={d['Accuracy']:.3f} "
            f"precision={d['Precision']:.3f} recall={d['Recall']:.3f} "
            f"f1={d['F1']:.3f}"
        )
    return EXIT_OK


def _cmd_baseline(args, config: PipelineConfig) -> int:
    events, stats = read_events_jsonl(args.events, strict=False)
    blacklists = None
    if args.blacklists:
        with open(args.blacklists, "r", encoding="utf-8") as fh:
            blacklists = load_blacklists(json.load(fh))
    _, alerts = replay(events, blacklists=blacklists)
    out = Path(args.out)
    with open(out, "w", encoding="utf-8") as fh:
        for alert in alerts:
            fh.write(json.dumps(alert.to_dict()) + "\n")
    print(
        f"replayed {stats.loaded} events ({stats.rejected_count} rejected): "
        f"{len(alerts)} alerts"
    )
    for alert in alerts[:10]:
        print(f"  ts={alert.ts} {alert.tactic} [{alert.rule_id}] "
              f"{alert.subject} -> {alert.object}")
    return EXIT_OK


# -- parser ------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(
        prog="provrec",
        description="Recognize attack tactics/techniques in provenance graphs.",
    )
    parser.add_argument("--config", help="JSON config file (defaults otherwise)")
    parser.add_argument("--seed", type=int, help="root seed override")
    parser.add_argument(
        "--set", action="append", metavar="KEY=VALUE",
        help="override any config key (repeatable); values parse as JSON",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a synthetic labeled dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--force", action="store_true")
    p.set_defaults(fn=_cmd_generate)

    p = sub.add_parser("ingest", help="events JSONL -> provenance graph JSON")
    p.add_argument("--events", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--force", action="store_true")
    p.set_defaults(fn=_cmd_ingest)

    p = sub.add_parser("train-encoder", help="fit the node-type encoder")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--data", help="dataset directory")
    src.add_argument("--graph", help="single graph JSON")
    p.add_argument("--out", required=True)
    p.add_argument("--force", action="store_true")
    p.set_defaults(fn=_cmd_train_encoder)

    p = sub.add_parser("detect-noi", help="flag anomalous process nodes")
    p.add_argument("--graph", required=True)
    p.add_argument("--encoder", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--force", action="store_true")
    p.set_defaults(fn=_cmd_detect_noi)

    p = sub.add_parser("sample", help="carve technique subgraphs around flags")
    p.add_argument("--graph", required=True)
    p.add_argument("--nois", required=True, help="detect-noi report JSON")
    p.add_argument("--out", required=True)
    p.add_argument("--force", action="store_true")
    p.set_defaults(fn=_cmd_sample)

    p = sub.add_parser("train-matcher", help="train the few-shot matcher bundle")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--force", action="store_true")
    p.set_defaults(fn=_cmd_train_matcher)

    p = sub.add_parser("recognize", help="match subgraphs against exemplars")
    p.add_argument("--subgraph", required=True, help="subgraph (or sample output) JSON")
    p.add_argument("--models", required=True, help="bundle checkpoint")
    p.add_argument("--out", required=True)
    p.add_argument("--force", action="store_true")
    p.set_defaults(fn=_cmd_recognize)

    p = sub.add_parser("evaluate", help="run the three-condition evaluation")
    p.add_argument("--data", required=True)
    p.add_argument("--mode", choices=["true", "sampled", "raw", "all"], default="all")
    p.add_argument("--models", help="bundle checkpoint (else trains in-run)")
    p.add_argument("--out", required=True)
    p.add_argument(
        "--with-noi", dest="with_noi", action="store_true",
        help="also run the leave-malicious-out detector protocol",
    )
    p.add_argument("--force", action="store_true")
    p.set_defaults(fn=_cmd_evaluate)

    p = sub.add_parser("baseline", help="replay events through the rule engine")
    p.add_argument("--events", required=True)
    p.add_argument("--blacklists", help="JSON spec of blacklist files/lists")
    p.add_argument("--out", required=True)
    p.add_argument("--force", action="store_true")
    p.set_defaults(fn=_cmd_baseline)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    args.log = {}  # what a command adds to its run log, e.g. loss curves
    started = time.perf_counter()
    out = Path(args.out) if getattr(args, "out", None) else None
    try:
        if out is not None:
            # an existing output or run log needs --force; refuse before any
            # work (generate's --out is a directory with its own manifest check)
            if args.command != "generate":
                _fresh_path(out, args.force)
            _fresh_path(_log_path(out), args.force)
        config = _load_config(args)
        code = args.fn(args, config)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ModelFormatError, NumericsError) as exc:
        print(f"model error: {exc}", file=sys.stderr)
        return EXIT_MODEL
    except (
        ConfigError, GraphError, RuleError, FileNotFoundError,
        FileExistsError, ValueError, json.JSONDecodeError,
    ) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    if out is not None:
        _write_log(out, args.command, vars(args), time.perf_counter() - started)
    return code


if __name__ == "__main__":
    sys.exit(main())
