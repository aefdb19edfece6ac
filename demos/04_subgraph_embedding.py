#!/usr/bin/env python3
# Encode technique subgraphs as fixed vectors with three levels of attention:
# over meta-path neighbors, across meta-paths, and across nodes.

import numpy as np

from provrec import EntityType, Event, build_graph
from provrec.embedding import (
    META_PATHS,
    METAPATH_COMBOS,
    AttentionRecord,
    HanConfig,
    embed_subgraph,
    init_han_params,
    metapath_pairs,
)
from provrec.sampling import TechniqueSubgraph


def tsg(triples):
    events = [
        Event(s, EntityType.PROCESS, op, o, kind, t)
        for t, (s, op, o, kind) in enumerate(triples)
    ]
    g = build_graph(events)
    procs = [n for n in g.node_ids() if g.entity_type(n) == EntityType.PROCESS]
    return TechniqueSubgraph(g, procs, sorted(procs)[0])


sub = tsg(
    [
        ("pa", "write", "doc", EntityType.FILE),
        ("pb", "write", "doc", EntityType.FILE),
        ("pa", "launch", "pc", EntityType.PROCESS),
        ("pb", "query", "runkey", EntityType.REGISTRY),
        ("pc", "query", "runkey", EntityType.REGISTRY),
        ("pa", "connect", "10.1.2.3:443", EntityType.SOCKET),
    ]
)

# Meta-paths define typed process-to-process hops: through a launch edge,
# or through a shared file / registry key / socket. Each lists its
# (neighbor row, target row) pairs; every node is its own neighbor.
ids = sub.node_ids
pa = ids.index("pa")
for mp in META_PATHS:
    src, dst = metapath_pairs(sub, mp)
    print(mp, "neighbors of pa:", sorted(ids[k] for k in src[dst == pa]))

# One embedding pass records all three attention distributions.
config = HanConfig(dim=16, seed=42)
params = init_han_params(config)
record = AttentionRecord()
vector = embed_subgraph(sub, params, config, attention=record)
print("\nembedding shape:", vector.shape)
print("path-level weights per node (rows sum to 1):")
print(np.round(record.beta, 3))
print("graph-level weights over nodes (sum to 1):")
print(np.round(record.gamma, 3))


def embed(config, subgraph):
    """One subgraph through freshly initialised weights; a (dim,) vector."""
    return embed_subgraph(subgraph, init_han_params(config), config).value[0]


# The encoding ignores node insertion order entirely.
h1 = embed(config, sub)
shuffled = tsg(
    [
        ("pa", "connect", "10.1.2.3:443", EntityType.SOCKET),
        ("pc", "query", "runkey", EntityType.REGISTRY),
        ("pb", "query", "runkey", EntityType.REGISTRY),
        ("pa", "launch", "pc", EntityType.PROCESS),
        ("pb", "write", "doc", EntityType.FILE),
        ("pa", "write", "doc", EntityType.FILE),
    ]
)
print("\nsame subgraph, different event order -> identical vector:",
      bool((embed(config, shuffled) == h1).all()))

# Ablation hook: restrict which meta-paths participate.
for name, combo in METAPATH_COMBOS.items():
    norm = float(np.linalg.norm(embed(HanConfig(dim=16, metapaths=combo, seed=42), sub)))
    print(f"{name} ({'+'.join(combo)}): |h| = {norm:.4f}")
