"""The benchmark's three workloads over the provrec chain.

JSONL audit log -> graph -> features -> noi -> sampling -> embedding ->
matching. Each workload has a set-up, a timed phase made of whole rounds of
the same operations (repeated until the run length is reached), a held-out
phase and checks. Layer functions are always called through their module
attribute (``gm.build_graph``, ``noi.detect_nois``, ...) so that the traced
run can wrap them from here without touching the program.
"""

from __future__ import annotations

import os
import shutil
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from provrec import embedding as emb_mod
from provrec import evaluation as ev
from provrec import features as ft
from provrec import graph as gm
from provrec import matching as mt
from provrec import noi
from provrec import numerics as nm
from provrec import persistence as ps
from provrec import sampling as sp
from provrec.config import PipelineConfig
from provrec.synthetic import (
    DEFAULT_TEMPLATES,
    LabeledDataset,
    LabeledSample,
    generate_sample,
    generate_scenario,
)

import checks as ck
from measure import median, peak_rss_mb, rate
from spans import Tracer

TACTIC_OF = {t.technique: t.tactic for t in DEFAULT_TEMPLATES}

# Set-up steps cheap enough to repeat are run this many times; the median
# of their durations enters setup_s.
SETUP_REPEATS = 3

# Query sizes. triage-scale: background 2000 gives ~3,700 nodes, ~2,200
# processes and ~4.5k events per host. hub-carve: background 200 gives ~230
# processes, each of which also reads every one of HUB_FILES shared files.
TRIAGE_BACKGROUND = 2000
HUB_BACKGROUND = 200
HUB_FILES = 3
HUB_LAM = 4

# The triage workloads train their bundle on 3 shots per technique (the
# default is 5): training is set-up there, and at 5 shots it alone would
# take most of the run budget of 70 runs. fewshot-train keeps the default.
TRIAGE_SHOTS = 3


@dataclass
class Triage:
    """One host graph taken from its JSONL log to recognized techniques."""

    graph: gm.ProvenanceGraph
    stats: gm.IngestStats
    report: noi.NoiReport
    carved: list
    results: list
    stages: dict[str, float]
    latency: float


@dataclass
class Query:
    """A generated host: its log on disk and the generator's ground truth."""

    sample: LabeledSample
    log: Path
    events: int


@dataclass
class Run:
    """One benchmark run: its inputs, tracer, operation counts and results."""

    workload: str
    seed: int
    seconds: float
    traced: bool
    work: Path
    tracer: Tracer = field(default_factory=Tracer)
    attempted: int = 0
    failed: int = 0
    metrics: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)  # stage split, quality, notes


@contextmanager
def traced_phase(run: Run, name: str):
    """In the traced run, wrap the layers and open a bench span; else nothing."""
    if not run.traced:
        yield -1
        return
    with run.tracer.installed(trace_plan()), run.tracer.span(f"bench.{name}") as idx:
        yield idx


def _add(key: str, size):
    def count(counts, args, result):
        counts[key] += size(args, result)

    return count


def _count_carves(counts, args, result):
    counts["sampling.subgraphs"] += len(result)
    counts["sampling.carved_nodes"] += sum(t.n_nodes for t in result)


def trace_plan():
    """Every public function the traced run wraps, with its span name."""
    embed_nodes = _add("embedding.nodes_embedded", lambda a, r: a[0].n_nodes)
    return [
        (gm, "read_events_jsonl", "graph.read_events_jsonl",
         _add("graph.events", lambda a, r: len(r[0]))),
        (gm, "build_graph", "graph.build_graph", None),
        (ev, "disjoint_union", "graph.disjoint_union", None),
        (ft, "init_features", "features.init_features", None),
        (ft, "extract_embeddings", "features.extract_embeddings", None),
        (ft, "train_encoder", "features.train_encoder",
         _add("features.union_nodes", lambda a, r: a[0].n_nodes)),
        (noi, "detect_nois", "noi.detect_nois",
         _add("noi.flagged", lambda a, r: len(r.flagged))),
        (noi, "fit_forest", "noi.fit_forest", None),
        (noi, "anomaly_score", "noi.anomaly_score", None),
        (sp, "sample_subgraphs", "sampling.sample_subgraphs", _count_carves),
        (sp, "lambda_dfs", "sampling.lambda_dfs", None),
        (emb_mod, "embed_subgraph", "embedding.embed_subgraph", embed_nodes),
        (mt, "embed_subgraph", "embedding.embed_subgraph", embed_nodes),
        (ev, "train_matcher", "matching.train_matcher",
         _add("matching.epochs", lambda a, r: len(r.loss_curve))),
        (mt.ExemplarSet, "add_class", "matching.add_class", None),
        (mt, "recognize", "matching.recognize", None),
        (ev, "recognize", "matching.recognize", None),
        (nm, "backward", "numerics.backward", None),
        (ps, "save_model", "persistence.save_model", None),
        (ps, "load_model", "persistence.load_model", None),
        (ev, "train_pipeline", "evaluation.train_pipeline", None),
        (ev, "evaluate_end_to_end", "evaluation.evaluate_end_to_end", None),
    ]


LAYERS = ("graph", "features", "noi", "sampling", "embedding", "matching",
          "numerics", "persistence", "evaluation")


def per_layer_metrics(run: Run) -> dict[str, tuple[float, str]]:
    """The traced run's metrics: totals over everything traced, per-layer self
    times, and the traced round's wall time, unattributed time and overhead."""
    tr, c = run.tracer, run.tracer.counts
    out = {
        "graph.ingest_s": (tr.total("graph.read_events_jsonl", "graph.build_graph"), "s"),
        "graph.events": (c["graph.events"], "count"),
        "features.train_encoder_s": (tr.total("features.train_encoder"), "s"),
        "features.union_nodes": (c["features.union_nodes"], "count"),
        "features.extract_s": (
            tr.total("features.init_features", "features.extract_embeddings"), "s"),
        "noi.detect_s": (tr.total("noi.detect_nois"), "s"),
        "noi.fit_s": (tr.total("noi.fit_forest"), "s"),
        "noi.score_s": (tr.total("noi.anomaly_score"), "s"),
        "noi.points_scored": (c["noi.anomaly_score"], "count"),
        "noi.flagged": (c["noi.flagged"], "count"),
        "sampling.carve_s": (tr.total("sampling.sample_subgraphs"), "s"),
        "sampling.lambda_dfs_s": (tr.total("sampling.lambda_dfs"), "s"),
        "sampling.lambda_dfs_calls": (c["sampling.lambda_dfs"], "count"),
        "sampling.subgraphs": (c["sampling.subgraphs"], "count"),
        "sampling.carved_nodes": (c["sampling.carved_nodes"], "count"),
        "embedding.embed_s": (tr.total("embedding.embed_subgraph"), "s"),
        "embedding.embed_calls": (c["embedding.embed_subgraph"], "count"),
        "embedding.nodes_embedded": (c["embedding.nodes_embedded"], "count"),
        "matching.train_matcher_s": (tr.total("matching.train_matcher"), "s"),
        "matching.epochs": (c["matching.epochs"], "count"),
        "matching.exemplars_s": (tr.total("matching.add_class"), "s"),
        "matching.recognize_s": (tr.total("matching.recognize"), "s"),
        "matching.queries": (c["matching.recognize"], "count"),
        "matching.queries_correct": (run.extra["queries_correct"], "count"),
        "numerics.backward_s": (tr.total("numerics.backward"), "s"),
        "numerics.backward_calls": (c["numerics.backward"], "count"),
        "persistence.save_s": (tr.total("persistence.save_model"), "s"),
        "persistence.load_s": (tr.total("persistence.load_model"), "s"),
        "persistence.bundle_mb": (run.extra["bundle_mb"], "MB"),
        "evaluation.evaluate_s": (tr.total("evaluation.evaluate_end_to_end"), "s"),
    }
    self_all = tr.self_times()
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (self_all.get(layer, 0.0), "s")
    out["trace.round_wall_s"] = (run.extra["traced_round_wall_s"], "s")
    out["trace.round_unattributed_s"] = (run.extra["traced_round_unattributed_s"], "s")
    out["trace.overhead_s"] = (run.extra["trace_overhead_s"], "s")
    return out


# -- inputs -------------------------------------------------------------------


def training_split(seed: int, cfg: PipelineConfig):
    dataset = generate_scenario(cfg.scenario_spec(), seed=seed)
    return ev.split_few_shot(dataset, cfg.shots, seed)


def write_log(graph: gm.ProvenanceGraph, path: Path) -> int:
    events = gm.graph_to_events(graph)
    gm.write_events_jsonl(events, path)
    return len(events)


def with_hubs(sample: LabeledSample) -> LabeledSample:
    """The same host where every process also reads each shared hub file."""
    events = gm.graph_to_events(sample.graph)
    ts = max(e.ts for e in events)
    procs = sorted(ck.process_ids(sample.graph))
    for proc in procs:
        for h in range(HUB_FILES):
            ts += 1
            events.append(gm.Event(proc, gm.EntityType.PROCESS, "read",
                                   f"file:hub_lib{h}", gm.EntityType.FILE, ts))
    graph = gm.build_graph(events)
    ck.require(graph.n_edges == sample.graph.n_edges + HUB_FILES * len(procs),
               "hub graph lost edges while being built")
    return LabeledSample(graph, sample.truth, sample.technique, sample.tactic)


def make_queries(run: Run, background: int, hubs: bool, tag: str):
    """One host per technique template, from seed labels training never uses."""
    rng = nm.Rng(run.seed).split(f"perfbench-{run.workload}")
    run.work.mkdir(parents=True, exist_ok=True)
    queries = []
    for i, template in enumerate(DEFAULT_TEMPLATES):
        sample = generate_sample(template, rng.split(f"query-{i}"), background, 0.05)
        if hubs:
            sample = with_hubs(sample)
        log = run.work / f"{tag}-q{i}.jsonl"
        queries.append(Query(sample, log, write_log(sample.graph, log)))
    return queries


# -- the triage chain ---------------------------------------------------------


def triage(log: Path, models, cfg: PipelineConfig) -> Triage:
    t0 = time.perf_counter()
    events, stats = gm.read_events_jsonl(log)
    graph = gm.build_graph(events)
    t1 = time.perf_counter()
    embeddings = ft.extract_embeddings(models.encoder, graph, ft.init_features(graph))
    t2 = time.perf_counter()
    report = noi.detect_nois(
        graph, embeddings,
        num_trees=cfg.num_trees, subsample_size=cfg.subsample,
        score_threshold=cfg.score_threshold, contamination=cfg.contamination,
        seed=cfg.seed,
    )
    t3 = time.perf_counter()
    carved = sp.sample_subgraphs(graph, report.flagged, lam=cfg.lam, min_nois=cfg.min_nois)
    t4 = time.perf_counter()
    results = [mt.recognize(t, models.exemplars, models.matcher, cfg.unknown_threshold)
               for t in carved]
    t5 = time.perf_counter()
    stages = {"ingest": t1 - t0, "extract": t2 - t1, "detect": t3 - t2,
              "carve": t4 - t3, "recognize": t5 - t4}
    return Triage(graph, stats, report, carved, results, stages, t5 - t0)


def triage_all(run: Run, queries, models, cfg) -> list[Triage | None]:
    """Triage every query once; a raising operation is counted as failed."""
    out = []
    for q in queries:
        run.attempted += 1
        try:
            out.append(triage(q.log, models, cfg))
        except Exception:  # a failed operation is counted; the run goes on
            run.failed += 1
            print(f"perfbench: {q.log.name} failed\n{traceback.format_exc()}",
                  file=sys.stderr)
            out.append(None)
    return out


def is_correct(tri: Triage, sample: LabeledSample) -> bool:
    i = ck.matched_carve(tri.carved, sample.truth.nois)
    return i is not None and tri.results[i].decision == sample.technique


def fingerprint(tri: Triage | None):
    if tri is None:
        return None
    return (tuple(tri.report.flagged),
            tuple(tuple(sorted(t.node_ids)) for t in tri.carved),
            tuple(r.decision for r in tri.results))


def check_triage(run: Run, queries, triaged, cfg, precision_floor: float | None,
                 oracle: bool) -> int:
    """Checks of one round of triage outputs; returns queries_correct."""
    for q, tri in zip(queries, triaged):
        if tri is None:
            continue
        where = f"{run.workload}/{q.log.name}"
        ck.check_ingest(q.sample.graph, tri.graph, tri.stats, q.events, where)
        ck.check_detection(tri.graph, tri.report, cfg.score_threshold, where)
        ck.check_carve(tri.carved, tri.report.flagged, cfg.min_nois, where)
        for i, result in enumerate(tri.results):
            ck.check_result(result, TACTIC_OF, f"{where}#{i}")
    done = [(q, t) for q, t in zip(queries, triaged) if t is not None]
    if precision_floor is not None:
        precision = ck.flag_precision(
            (t.report.flagged, q.sample.truth.nois) for q, t in done)
        run.extra["flag_precision"] = precision
        ck.require(precision >= precision_floor,
                   f"{run.workload}: flag precision {precision:.3f} "
                   f"< {precision_floor}")
    if oracle:
        ck.require(any(ck.check_first_carve(t.graph, t.report.flagged, t.carved,
                                            cfg.lam, cfg.min_nois, run.workload)
                       for _, t in done),
                   f"{run.workload}: no carve was compared with the path closure")
    return sum(is_correct(t, q.sample) for q, t in done)


def check_models(run: Run, models, loaded, train, probe) -> None:
    ck.check_loss(models.encoder.loss_curve, f"{run.workload}: encoder")
    ck.check_loss(models.matcher.loss_curve, f"{run.workload}: matcher")
    ck.require(set(models.exemplars.techniques()) == set(TACTIC_OF),
               f"{run.workload}: exemplars do not cover every technique")
    for tech in models.exemplars.techniques():
        ex = models.exemplars.get(tech)
        ck.require(ex.tactic == TACTIC_OF[tech],
                   f"{run.workload}: exemplar {tech} has tactic {ex.tactic!r}")
        ck.require(any(s.technique == tech and
                       set(s.truth.node_ids) == set(ex.subgraph.node_ids)
                       for s in train),
                   f"{run.workload}: exemplar {tech} is not one of its shots")
    ck.check_same_ranking(
        mt.recognize(probe, models.exemplars, models.matcher),
        mt.recognize(probe, loaded.exemplars, loaded.matcher),
        f"{run.workload}: bundle round trip")


# -- shared phases ------------------------------------------------------------


def save_and_load(run: Run, models):
    path = run.work / "bundle.json"
    ps.save_model(models, path, force=True)
    run.extra["bundle_mb"] = path.stat().st_size / 1e6
    return ps.load_model(path, expect_kind="bundle")


def timed_rounds(run: Run, one_round):
    """Whole rounds until the run length is reached, then, when traced, one
    more round under tracing. Returns the untraced rounds' outputs."""
    rounds = []
    start = time.perf_counter()
    while True:
        c0, t0 = time.process_time(), time.perf_counter()
        out = one_round()
        rounds.append({"wall": time.perf_counter() - t0,
                       "cpu": time.process_time() - c0, "out": out})
        if time.perf_counter() - start >= run.seconds:
            break
    run.extra["timed_s"] = time.perf_counter() - start
    run.extra["rounds"] = len(rounds)
    if run.traced:
        with traced_phase(run, "round") as index:
            t0 = time.perf_counter()
            traced_out = one_round()
            wall = time.perf_counter() - t0
        layers = run.tracer.self_times(index)
        run.extra["traced_round_wall_s"] = wall
        run.extra["traced_round_unattributed_s"] = layers.pop("bench", 0.0)
        run.extra["traced_round_layers_s"] = layers
        run.extra["trace_overhead_s"] = wall - median([r["wall"] for r in rounds])
        rounds.append({"wall": wall, "cpu": None, "out": traced_out, "traced": True})
    return rounds


def finish(run: Run, setup_s: float, train_s: float, cpu_s: float,
           graphs: int, window: float, latencies, correct: int) -> None:
    run.metrics = {
        "setup_s": (setup_s, "s"),
        "train_s": (train_s, "s"),
        "triage_graphs_per_s": (rate(graphs, window), "1/s"),
        "triage_p50_s": (median(latencies), "s"),
        "cpu_s": (cpu_s, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    run.extra["queries_correct"] = correct
    run.extra["triaged_graphs"] = graphs
    run.extra["latencies_s"] = list(latencies)
    run.extra["latency_samples"] = len(latencies)


def stage_split(triaged) -> dict[str, float]:
    """Median per-graph time of each triage stage."""
    done = [t for t in triaged if t is not None]
    return {k: median([t.stages[k] for t in done]) for k in done[0].stages}


# -- fewshot-train ------------------------------------------------------------


def fewshot_train(run: Run) -> None:
    cfg = PipelineConfig(seed=run.seed)
    setup_times = []
    with traced_phase(run, "setup"):
        for rep in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            dataset = generate_scenario(cfg.scenario_spec(), seed=run.seed)
            folder = run.work / f"setup{rep}"
            folder.mkdir(parents=True, exist_ok=True)
            logs, ingested = [], []
            for i, s in enumerate(dataset.samples):
                log = folder / f"g{i:03d}.jsonl"
                written = write_log(s.graph, log)
                events, stats = gm.read_events_jsonl(log)
                ingested.append((gm.build_graph(events), stats, written))
                logs.append(log)
            samples = [LabeledSample(g, s.truth, s.technique, s.tactic)
                       for (g, _, _), s in zip(ingested, dataset.samples)]
            train, test = ev.split_few_shot(
                LabeledDataset(samples, run.seed), cfg.shots, run.seed)
            setup_times.append(time.perf_counter() - t0)
    run.extra["setup_parts_s"] = {"prep": setup_times}
    for (g, stats, written), s, log in zip(ingested, dataset.samples, logs):
        ck.check_ingest(s.graph, g, stats, written, f"{run.workload}/{log.name}")
    index = {id(s): i for i, s in enumerate(samples)}
    ck.require(not {index[id(s)] for s in train} & {index[id(s)] for s in test},
               f"{run.workload}: training and query splits overlap")
    ck.check_disjoint([s.graph for s in train], [s.graph for s in test], run.workload)

    rounds = timed_rounds(run, lambda: ev.train_pipeline(train, cfg, run.seed))
    run.attempted += len(rounds)
    models = rounds[0]["out"]
    for r in rounds[1:]:
        ck.require(r["out"].matcher.loss_curve == models.matcher.loss_curve,
                   f"{run.workload}: a repeated training round diverged")

    queries = [Query(s, logs[index[id(s)]], ingested[index[id(s)]][2]) for s in test]
    with traced_phase(run, "evaluate"):
        loaded = save_and_load(run, models)
        reports = {mode: ev.evaluate_end_to_end(test, mode, loaded, cfg, run.seed)
                   for mode in ("True_Graph", "Raw_Graph")}
        triage(queries[0].log, loaded, cfg)  # warm-up, as in the triage set-up
        start = time.perf_counter()
        triaged = triage_all(run, queries, loaded, cfg)
    # The triage figures need a window of several seconds: whole passes over
    # the held-out logs (only the first is traced) until the run length.
    prints = [fingerprint(t) for t in triaged]
    latencies = [t.latency for t in triaged if t]
    passes = 1
    while time.perf_counter() - start < run.seconds:
        again = triage_all(run, queries, loaded, cfg)
        ck.require([fingerprint(t) for t in again] == prints,
                   f"{run.workload}: held-out triage passes disagree")
        latencies += [t.latency for t in again if t]
        passes += 1
    window = time.perf_counter() - start

    correct = check_triage(run, queries, triaged, cfg, 0.8, oracle=True)
    predictions = sum(max(1, len(t.carved)) if t else 1 for t in triaged)
    acc = {m: reports[m]["recognition"]["ACC"] for m in reports}
    acc["Sampled_Graph"] = correct / predictions
    run.extra["acc"] = acc
    run.extra["true_tactic_acc"] = reports["True_Graph"]["recognition"]["TacticACC"]
    ck.require(acc["True_Graph"] >= 0.8,
               f"{run.workload}: True_Graph ACC {acc['True_Graph']:.3f} < 0.8")
    ck.require(run.extra["true_tactic_acc"] >= 0.9,
               f"{run.workload}: True_Graph TacticACC "
               f"{run.extra['true_tactic_acc']:.3f} < 0.9")
    ck.require(acc["Raw_Graph"] <= acc["Sampled_Graph"] <= acc["True_Graph"],
               f"{run.workload}: ACC ordering Raw <= Sampled <= True fails: {acc}")
    check_models(run, models, loaded, train, test[0].truth)

    run.extra["stage_split"] = stage_split(triaged)
    untraced = [r for r in rounds if not r.get("traced")]
    run.extra["held_out_passes"] = passes
    finish(run, median(setup_times), median([r["wall"] for r in untraced]),
           median([r["cpu"] for r in untraced]), len(latencies), window,
           latencies, correct)


# -- triage-scale and hub-carve -----------------------------------------------


def triage_workload(run: Run, background: int, hubs: bool, lam: int,
                    precision_floor: float | None) -> None:
    cfg = PipelineConfig(seed=run.seed, lam=lam, shots=TRIAGE_SHOTS,
                         samples_per_class=TRIAGE_SHOTS + 1)
    prep_times = []
    with traced_phase(run, "setup"):
        t0 = time.perf_counter()
        train, held_out = training_split(run.seed, cfg)
        scenario_s = time.perf_counter() - t0
        for rep in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            queries = make_queries(run, background, hubs, f"r{rep}")
            prep_times.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        models = ev.train_pipeline(train, cfg, run.seed)
        train_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        loaded = save_and_load(run, models)
        # one untimed pass over a query lets allocator growth and lazy
        # imports finish before the timed phase
        triage(queries[0].log, loaded, cfg)
        persist_s = time.perf_counter() - t0
    setup_s = scenario_s + median(prep_times) + train_s + persist_s
    run.extra["setup_parts_s"] = {"scenario": scenario_s, "queries": prep_times,
                                  "train": train_s, "persist_and_warmup": persist_s}
    ck.check_disjoint([s.graph for s in train], [q.sample.graph for q in queries],
                      run.workload)

    rounds = timed_rounds(run, lambda: triage_all(run, queries, loaded, cfg))
    last = rounds[-1]["out"]
    for r in rounds:
        ck.require([fingerprint(t) for t in r["out"]] == [fingerprint(t) for t in last],
                   f"{run.workload}: triage rounds disagree")

    with traced_phase(run, "evaluate"):
        ev.evaluate_end_to_end(held_out, "True_Graph", loaded, cfg, run.seed)

    correct = check_triage(run, queries, last, cfg, precision_floor, oracle=not hubs)
    if hubs:
        found_equal = False
        for q, t in zip(queries, last):
            if t is None:
                continue
            inner = sp.sample_subgraphs(t.graph, t.report.flagged, lam=3,
                                        min_nois=cfg.min_nois)
            ck.check_carve(inner, t.report.flagged, cfg.min_nois, q.log.name)
            ck.check_contained(inner, t.carved, f"{run.workload}/{q.log.name}")
            if not found_equal:
                found_equal = ck.check_first_carve(
                    t.graph, t.report.flagged, inner, 3, cfg.min_nois,
                    f"{run.workload}/{q.log.name} (lam=3)")
        ck.require(found_equal,
                   f"{run.workload}: no carve was compared with the path closure")
    probe = next(t.carved[0] for t in last if t and t.carved)
    check_models(run, models, loaded, train, probe)

    untraced = [r for r in rounds if not r.get("traced")]
    latencies = [t.latency for r in untraced for t in r["out"] if t]
    run.extra["stage_split"] = stage_split(last)
    run.extra["carved_nodes"] = [sum(c.n_nodes for c in t.carved) for t in last if t]
    finish(run, setup_s, train_s, median([r["cpu"] for r in untraced]),
           len(latencies), run.extra["timed_s"], latencies, correct)


def triage_scale(run: Run) -> None:
    triage_workload(run, TRIAGE_BACKGROUND, hubs=False, lam=3, precision_floor=0.8)


def hub_carve(run: Run) -> None:
    triage_workload(run, HUB_BACKGROUND, hubs=True, lam=HUB_LAM, precision_floor=None)


WORKLOADS = {
    "fewshot-train": fewshot_train,
    "triage-scale": triage_scale,
    "hub-carve": hub_carve,
}


def run_workload(name: str, seed: int, seconds: float, traced: bool, root: Path) -> Run:
    work = root / ".perfbench_work" / f"{name}-s{seed}-p{os.getpid()}"
    run = Run(name, seed, seconds, traced, work)
    try:
        WORKLOADS[name](run)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return run
