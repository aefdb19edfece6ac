"""Benchmark of the provrec chain: few-shot training, large-host triage and
hub carving, end to end and by layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload fewshot-train --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run. The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``. Each run
also writes ``.perfbench_out/<workload>-s<seed>-t<trace>.json`` (stage split,
quality figures) and, when traced, the spans to
``.perfbench_out/spans-<workload>-s<seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NAMES = ("fewshot-train", "triage-scale", "hub-carve")


def import_program():
    """Import provrec from this checkout's ``src``; exit non-zero when absent."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import provrec
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import provrec from {src}: {exc}")
    if not Path(provrec.__file__).resolve().is_relative_to(src.resolve()):
        sys.exit(f"perfbench: provrec was imported from {provrec.__file__}, not {src}")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run_one(args) -> dict:
    import_program()
    import checks
    import workloads

    started = time.perf_counter()
    try:
        run = workloads.run_workload(args.workload, args.seed, args.seconds,
                                     bool(args.trace), ROOT)
    except checks.CheckError as exc:
        sys.exit(f"perfbench: check failed: {exc}")
    metrics = workloads.per_layer_metrics(run) if args.trace else run.metrics
    result = {
        "correct": True,  # every check passed, or the run would have exited
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    detail = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace,
                  wall_s=time.perf_counter() - started,
                  end_to_end={k: v for k, (v, _) in run.metrics.items()}, extra=run.extra)
    (out / f"{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(detail, indent=1, default=str))
    if args.trace:
        spans = run.tracer.to_dict()
        spans["self_s"] = run.tracer.self_times()
        spans["round_self_s"] = run.extra.get("traced_round_layers_s", {})
        (out / f"spans-{args.workload}-s{args.seed}.json").write_text(json.dumps(spans))
    return result


def print_result(name: str, result: dict) -> None:
    for key, m in result["metrics"].items():
        print(f"{name:14s} {key:30s} {m['value']:14.6g} {m['unit']}")
    print(f"{name:14s} attempted {result['attempted']}, failed {result['failed']}")


def run_all(args) -> dict:
    """Every workload in its own process, one after another."""
    results = {}
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            sys.exit(f"perfbench: workload {name} exited with {proc.returncode}")
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
        print_result(name, results[name])
    return results


def main(argv=None) -> None:
    args = parse_args(argv)
    if args.workload == "all":
        print(json.dumps(run_all(args)))
        return
    result = run_one(args)
    print_result(args.workload, result)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
