"""Synthetic attack-scenario generation at desk scale.

Each generated graph embeds exactly one technique motif (its processes are
the ground-truth anomalous nodes) inside benign background activity. Motifs
are parameterised so different techniques leave visibly different behavior
mixes, while two instances of the same technique stay similar up to seeded
jitter; their characteristic objects are drawn from shared pools so the
motif stays connected under meta-path traversal.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar, Sequence

from .graph import EntityType, Event, ProvenanceGraph, build_graph
from .numerics import SEED, Range, Rng, at_least, check_fields, is_number
from .sampling import TechniqueSubgraph, select_seed


@dataclass(frozen=True)
class TechniqueTemplate:
    """Construction parameters of one technique motif.

    The root process launches ``children`` workers (plus an optional launch
    chain); every motif process draws object targets from small shared pools,
    which is what makes instances of one technique look alike.
    """

    technique: str
    tactic: str
    children: int = 5
    chain_depth: int = 0
    file_ops: tuple[str, ...] = ()
    files_per_proc: tuple[int, int] = (0, 0)
    file_pool: int = 0
    registry_ops: tuple[str, ...] = ()
    keys_per_proc: tuple[int, int] = (0, 0)
    key_pool: int = 0
    socket_ops: tuple[str, ...] = ()
    sockets_per_proc: tuple[int, int] = (0, 0)
    socket_pool: int = 0


DEFAULT_TEMPLATES: tuple[TechniqueTemplate, ...] = (
    TechniqueTemplate(
        technique="T1003", tactic="Credential Access",
        children=5,
        file_ops=("read",), files_per_proc=(5, 7), file_pool=5,
        registry_ops=("query",), keys_per_proc=(2, 3), key_pool=3,
    ),
    TechniqueTemplate(
        technique="T1547", tactic="Persistence",
        children=5,
        file_ops=("write",), files_per_proc=(1, 2), file_pool=2,
        registry_ops=("open", "modify"), keys_per_proc=(5, 7), key_pool=5,
    ),
    TechniqueTemplate(
        technique="T1048", tactic="Exfiltration",
        children=5,
        file_ops=("read",), files_per_proc=(2, 3), file_pool=2,
        socket_ops=("connect", "send"), sockets_per_proc=(5, 7), socket_pool=5,
    ),
    TechniqueTemplate(
        technique="T1046", tactic="Discovery",
        children=5,
        socket_ops=("connect",), sockets_per_proc=(10, 14), socket_pool=14,
    ),
    TechniqueTemplate(
        technique="T1059", tactic="Execution",
        children=1, chain_depth=5,
        file_ops=("write", "read"), files_per_proc=(2, 3), file_pool=3,
    ),
    TechniqueTemplate(
        technique="T1562", tactic="Defense Evasion",
        children=5,
        file_ops=("delete", "write"), files_per_proc=(3, 4), file_pool=3,
        registry_ops=("modify",), keys_per_proc=(3, 4), key_pool=3,
    ),
)


@dataclass(frozen=True)
class ScenarioSpec:
    """Dataset-level knobs: templates, class balance, background, noise."""

    templates: tuple[TechniqueTemplate, ...] = DEFAULT_TEMPLATES
    samples_per_class: int = 10
    background: int = 120  # benign processes per graph
    noise_rate: float = 0.05
    seed: int = 0

    RANGES: ClassVar = {
        "samples_per_class": at_least(1),
        "background": at_least(0),
        "noise_rate": Range("a number in [0, 1]", lambda v: is_number(v) and 0 <= v <= 1),
        "seed": SEED,
    }

    def __post_init__(self):
        check_fields(self, self.RANGES)
        if len(self.templates) < 2:
            raise ValueError("need at least two technique templates")
        names = [t.technique for t in self.templates]
        if len(set(names)) != len(names):
            raise ValueError("duplicate technique names in templates")


@dataclass
class LabeledSample:
    """One generated graph with its single ground-truth technique subgraph."""

    graph: ProvenanceGraph
    truth: TechniqueSubgraph
    technique: str
    tactic: str


class LabeledDataset:
    """Generated samples plus directory persistence (graphs + manifest)."""

    FORMAT_VERSION = 1

    def __init__(self, samples: Sequence[LabeledSample], seed: int = 0):
        self.samples = list(samples)
        self.seed = seed

    def __len__(self) -> int:
        return len(self.samples)

    def __iter__(self):
        return iter(self.samples)

    def techniques(self) -> list[str]:
        return sorted({s.technique for s in self.samples})

    def by_class(self) -> dict[str, list[int]]:
        out: dict[str, list[int]] = {}
        for i, s in enumerate(self.samples):
            out.setdefault(s.technique, []).append(i)
        return out

    def save(self, directory) -> None:
        root = Path(directory)
        (root / "graphs").mkdir(parents=True, exist_ok=True)
        (root / "truth").mkdir(parents=True, exist_ok=True)
        manifest = {"format_version": self.FORMAT_VERSION, "seed": self.seed,
                    "samples": []}
        for i, s in enumerate(self.samples):
            graph_file = f"graphs/g{i:04d}.json"
            truth_file = f"truth/t{i:04d}.json"
            s.graph.save(root / graph_file)
            with open(root / truth_file, "w", encoding="utf-8") as fh:
                json.dump(s.truth.to_dict(), fh)
            manifest["samples"].append(
                {
                    "id": i,
                    "technique": s.technique,
                    "tactic": s.tactic,
                    "graph": graph_file,
                    "truth": truth_file,
                }
            )
        with open(root / "manifest.json", "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2)

    @classmethod
    def load(cls, directory) -> "LabeledDataset":
        root = Path(directory)
        with open(root / "manifest.json", "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
        try:
            version = manifest.get("format_version")
            if version != cls.FORMAT_VERSION:
                raise ValueError(f"unsupported dataset format_version {version!r}")
            samples = []
            for entry in manifest["samples"]:
                graph = ProvenanceGraph.load(root / entry["graph"])
                with open(root / entry["truth"], "r", encoding="utf-8") as fh:
                    truth = TechniqueSubgraph.from_dict(json.load(fh))
                samples.append(
                    LabeledSample(graph, truth, entry["technique"], entry["tactic"])
                )
            return cls(samples, manifest.get("seed", 0))
        except (KeyError, TypeError, AttributeError) as exc:
            raise ValueError(f"malformed dataset manifest: {exc!r}") from None


class _EventSink:
    """Collects events with monotone timestamps."""

    def __init__(self):
        self.events: list[Event] = []
        self._ts = 0

    def emit(self, subject: str, operation: str, obj: str, obj_type: EntityType):
        self._ts += 1
        self.events.append(
            Event(subject, EntityType.PROCESS, operation, obj, obj_type, self._ts)
        )


def _draw_count(rng: Rng, bounds: tuple[int, int]) -> int:
    lo, hi = bounds
    if hi <= 0:
        return 0
    return int(rng.integers(lo, hi + 1))


def _pool_pick(rng: Rng, pool: list[str], count: int) -> list[str]:
    count = min(count, len(pool))
    if count == 0:
        return []
    idx = sorted(rng.choice(len(pool), size=count, replace=False).tolist())
    return [pool[i] for i in idx]


def _instantiate_motif(
    template: TechniqueTemplate, sink: _EventSink, rng: Rng
) -> tuple[list[str], list[str]]:
    """Emit one motif; returns (process ids, all motif entity ids)."""
    procs = ["proc:mal0"]
    for c in range(template.children):
        procs.append(f"proc:mal{c + 1}")
    for c in range(template.chain_depth):
        procs.append(f"proc:malchain{c}")

    file_pool = [f"file:mal_f{i}" for i in range(template.file_pool)]
    key_pool = [f"reg:mal_k{i}" for i in range(template.key_pool)]
    sock_pool = [f"sock:mal_s{i}" for i in range(template.socket_pool)]

    root = procs[0]
    for c in range(template.children):
        sink.emit(root, "launch", procs[c + 1], EntityType.PROCESS)
    chain_head = procs[template.children] if template.children else root
    for c in range(template.chain_depth):
        target = f"proc:malchain{c}"
        sink.emit(chain_head, "launch", target, EntityType.PROCESS)
        chain_head = target

    touched: set[str] = set(procs)
    for proc in procs:
        for obj in _pool_pick(rng, file_pool, _draw_count(rng, template.files_per_proc)):
            for op in template.file_ops:
                sink.emit(proc, op, obj, EntityType.FILE)
            touched.add(obj)
        for obj in _pool_pick(rng, key_pool, _draw_count(rng, template.keys_per_proc)):
            for op in template.registry_ops:
                sink.emit(proc, op, obj, EntityType.REGISTRY)
            touched.add(obj)
        for obj in _pool_pick(
            rng, sock_pool, _draw_count(rng, template.sockets_per_proc)
        ):
            for op in template.socket_ops:
                sink.emit(proc, op, obj, EntityType.SOCKET)
            touched.add(obj)
    return procs, sorted(touched)


# Benign archetypes: (name, file reads, file writes, registry touches,
# socket touches, launches a helper child). Counts are FIXED per archetype
# and each archetype touches one entity dimension only: benign processes
# fall into a handful of identical feature rows, while motif processes mix
# dimensions at fan-outs no archetype reaches.
_BENIGN_ARCHETYPES = (
    ("reader1", 1, 0, 0, 0, False),
    ("reader2", 2, 0, 0, 0, False),
    ("writer1", 0, 1, 0, 0, False),
    ("writer2", 0, 2, 0, 0, False),
    ("config1", 0, 0, 1, 0, False),
    ("config2", 0, 0, 2, 0, False),
    ("browser1", 0, 0, 0, 1, False),
    ("browser2", 0, 0, 0, 2, False),
    ("shell", 0, 0, 0, 0, True),
)


def _emit_background(
    sink: _EventSink,
    rng: Rng,
    count: int,
    noise_rate: float,
    motif_objects: Sequence[str],
) -> None:
    n_files = max(8, count // 2)
    n_keys = max(4, count // 4)
    n_socks = max(4, count // 5)
    files = [f"file:bg_f{i}" for i in range(n_files)]
    keys = [f"reg:bg_k{i}" for i in range(n_keys)]
    socks = [f"sock:bg_s{i}" for i in range(n_socks)]
    motif_files = [o for o in motif_objects if o.startswith("file:")]

    for b in range(count):
        pid = f"proc:bg{b}"
        name, reads, writes, regs, sock_n, launches = _BENIGN_ARCHETYPES[
            int(rng.integers(len(_BENIGN_ARCHETYPES)))
        ]
        read_targets = _pool_pick(rng, files, reads)
        # noise diverts one benign read onto a motif file: the process keeps
        # its archetype feature row but its edges now touch the attack
        if read_targets and motif_files and rng.uniform() < noise_rate:
            read_targets[0] = motif_files[int(rng.integers(len(motif_files)))]
        for obj in read_targets:
            sink.emit(pid, "read", obj, EntityType.FILE)
        for obj in _pool_pick(rng, files, writes):
            sink.emit(pid, "write", obj, EntityType.FILE)
        for obj in _pool_pick(rng, keys, regs):
            sink.emit(pid, "open", obj, EntityType.REGISTRY)
            sink.emit(pid, "query", obj, EntityType.REGISTRY)
        for obj in _pool_pick(rng, socks, sock_n):
            sink.emit(pid, "connect", obj, EntityType.SOCKET)
            sink.emit(pid, "send", obj, EntityType.SOCKET)
        if launches:
            child = f"proc:bg{b}h"
            sink.emit(pid, "launch", child, EntityType.PROCESS)
            for obj in _pool_pick(rng, files, 1):
                sink.emit(child, "read", obj, EntityType.FILE)


def generate_sample(
    template: TechniqueTemplate,
    rng: Rng,
    background: int,
    noise_rate: float,
) -> LabeledSample:
    sink = _EventSink()
    procs, motif_entities = _instantiate_motif(template, sink, rng.split("motif"))
    _emit_background(
        sink, rng.split("background"), background, noise_rate, motif_entities
    )
    graph = build_graph(sink.events)
    truth_graph = graph.induced(motif_entities)
    truth = TechniqueSubgraph(
        truth_graph,
        procs,
        select_seed(procs, truth_graph),
        technique=template.technique,
        tactic=template.tactic,
    )
    return LabeledSample(graph, truth, template.technique, template.tactic)


def generate_scenario(spec: ScenarioSpec, seed: int | None = None) -> LabeledDataset:
    """Instantiate every template ``samples_per_class`` times, class-balanced.

    Deterministic for a given (spec, seed); the truth subgraph of every
    sample is connected and carries at least the template's process count of
    anomalous nodes.
    """
    root_seed = spec.seed if seed is None else seed
    rng = Rng(root_seed)
    samples: list[LabeledSample] = []
    for template in spec.templates:
        for i in range(spec.samples_per_class):
            sample_rng = rng.split(f"sample-{template.technique}-{i}")
            samples.append(
                generate_sample(template, sample_rng, spec.background, spec.noise_rate)
            )
    return LabeledDataset(samples, root_seed)
