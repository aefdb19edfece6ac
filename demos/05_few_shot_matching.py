#!/usr/bin/env python3
# Train the twin-branch matcher on a handful of labeled subgraphs, then
# recognize held-out queries by nearest exemplar. Adding a new technique
# later needs no retraining.

from provrec import ScenarioSpec, generate_scenario
from provrec.embedding import HanConfig
from provrec.matching import ExemplarSet, MatcherConfig, recognize_many, train_matcher

spec = ScenarioSpec(samples_per_class=4, background=60, seed=3)
dataset = generate_scenario(spec)
by_class = dataset.by_class()
techniques = sorted(by_class)
print("classes:", techniques)

# Two shots per class train the matcher; the rest become queries.
train, queries = [], []
for tech in techniques:
    idxs = by_class[tech]
    train += [(dataset.samples[i].truth, tech) for i in idxs[:2]]
    queries += [dataset.samples[i] for i in idxs[2:]]

config = MatcherConfig(han=HanConfig(dim=32, seed=5), epochs=40, lr=0.05, seed=5)
model = train_matcher(train, config)
print(f"contrastive loss {model.loss_curve[0]:.4f} -> {model.loss_curve[-1]:.4f}")

# One representative per class: the medoid of its training shots.
exemplars = ExemplarSet()
for tech in techniques:
    members = [s for s, lab in train if lab == tech]
    tactic = next(s.tactic for s in dataset.samples if s.technique == tech)
    exemplars.add_class(tech, tactic, members, model)

# Every query is embedded in one batched forward and ranked by distance.
results = recognize_many([s.truth for s in queries], exemplars, model)
correct = 0
for sample, result in zip(queries, results):
    hit = result.decision == sample.technique
    correct += hit
    top = ", ".join(f"{t}:{d:.2f}" for t, _, d in result.ranking[:3])
    print(f"  truth={sample.technique:<6} -> {result.decision:<6} [{top}]")
print(f"accuracy: {correct}/{len(queries)}")

# Few-shot extensibility: a brand-new class joins as one exemplar, while
# every trained weight and every cached distance stays untouched.
from provrec import EntityType, Event, build_graph
from provrec.sampling import TechniqueSubgraph

events = [
    Event(f"p{i}", EntityType.PROCESS, "enumerate", "hklm/users", EntityType.REGISTRY, i)
    for i in range(5)
]
g = build_graph(events)
newcomer = TechniqueSubgraph(g, [f"p{i}" for i in range(5)], "p0")
before = {k: v.copy() for k, v in model.weights().items()}
exemplars.add_exemplar("T1087", "Discovery", newcomer, model)
assert all((model.weights()[k] == v).all() for k, v in before.items())
print("\nadded T1087 with one sample; model weights unchanged:",
      len(exemplars), "known techniques")
