"""sha256 digests of the pipeline's outputs at fixed seeds, and the script
that pins them.

``tests/data/digests.json`` holds, at the default config, the digests of
the canonical JSON of ``run_experiment``'s reports at seeds 0-4, of the
``train_pipeline`` bundles at seeds 0 and 1 as ``save_model`` writes them,
and of ``triage``'s outputs on seed 0's held-out hosts, next to the numpy
and scipy versions they were pinned with. Any change to a number, or to
the order of a report's keys, changes a digest. A change that moves
numbers on purpose re-pins the file with

    PYTHONPATH=src python tests/digests.py

and names the digests that moved, and why, in CHANGES.md.
"""

import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np
import scipy

from provrec.config import PipelineConfig
from provrec.evaluation import run_experiment, split_few_shot, train_pipeline, triage
from provrec.persistence import save_model
from provrec.synthetic import generate_scenario

PINNED = Path(__file__).resolve().parent / "data" / "digests.json"
REPORT_SEEDS = range(5)
BUNDLE_SEEDS = (0, 1)  # seed 0's bundle also triages seed 0's held-out hosts


def canonical_digest(obj) -> str:
    """sha256 of ``obj`` as compact JSON, keys in their own order."""
    return hashlib.sha256(json.dumps(obj, separators=(",", ":")).encode()).hexdigest()


def triage_record(host) -> dict:
    """A :class:`~provrec.evaluation.Triage` as plain data: the flags in
    order, the scores, every carve's graph and nois, and every decision."""
    return {
        "flagged": host.report.flagged,
        "report": host.report.to_dict(),
        "carved": [{"seed": c.seed, "nois": list(c.nois), "graph": c.graph.to_dict()}
                   for c in host.carved],
        "results": [r.to_dict() for r in host.results],
    }


def versions() -> dict:
    return {"numpy": np.__version__, "scipy": scipy.__version__}


def output_digests(config, datasets, reports) -> dict:
    """Digests of ``reports`` (seed -> report), and of the bundles trained
    and seed 0's hosts triaged from ``datasets`` (seed -> dataset)."""
    digests = {"reports": {str(s): canonical_digest(r) for s, r in reports.items()},
               "bundles": {}}
    with tempfile.TemporaryDirectory() as tmp:
        for seed in BUNDLE_SEEDS:
            train, test = split_few_shot(datasets[seed], config.shots, seed)
            models = train_pipeline(train, config, seed)
            path = Path(tmp) / f"bundle-{seed}.json"
            save_model(models, path)
            digests["bundles"][str(seed)] = hashlib.sha256(path.read_bytes()).hexdigest()
            if seed == 0:
                digests["triage"] = canonical_digest(
                    [triage_record(triage(s.graph, models, config, seed)) for s in test])
    return digests


def main():
    config = PipelineConfig()
    datasets = {s: generate_scenario(config.scenario_spec(), seed=s) for s in REPORT_SEEDS}
    reports = {s: run_experiment(datasets[s], config, seed=s) for s in REPORT_SEEDS}
    pinned = {**versions(), **output_digests(config, datasets, reports)}
    PINNED.write_text(json.dumps(pinned, indent=2) + "\n")
    print(f"pinned {PINNED}")


if __name__ == "__main__":
    main()
