"""Isolation forest scoring and anomalous-node reporting."""

import math

import numpy as np
import pytest

from provrec import features as ft
from provrec import noi
from provrec.graph import EntityType
from provrec.noi import (
    IsolationForest,
    NoiReport,
    anomaly_score,
    anomaly_scores,
    average_path_length,
    detect_nois,
    fit_forest,
)
from provrec.numerics import Rng

from testkit import make_graph

FOREST_ARRAYS = ("dim", "threshold", "left", "right", "path", "roots")


def _same_forest(a, b):
    return (a.subsample_size, a.width) == (b.subsample_size, b.width) and all(
        np.array_equal(getattr(a, name), getattr(b, name)) for name in FOREST_ARRAYS
    )


def _one_tree_forest(dim, threshold, children, path, subsample_size):
    """A one-tree forest from per-node lists; ``children[i]`` is (left, right)."""
    left, right = zip(*children)
    return IsolationForest(
        np.array(dim), np.array(threshold, dtype=np.float64), np.array(left),
        np.array(right), np.array(path, dtype=np.float64), np.array([0]),
        subsample_size, width=1,
    )


def _node_depths(forest):
    # children are always created after their parent, so one pass suffices
    depth = np.zeros(len(forest.dim), dtype=np.int64)
    for node in np.flatnonzero(forest.dim >= 0):
        depth[forest.left[node]] = depth[forest.right[node]] = depth[node] + 1
    return depth


def _leaf_sizes_per_tree(forest):
    """Each tree's leaf sample counts, read back from ``path = depth + c(size)``."""
    tree = np.zeros(len(forest.dim), dtype=np.int64)
    tree[forest.roots] = np.arange(len(forest.roots))
    for node in np.flatnonzero(forest.dim >= 0):
        tree[forest.left[node]] = tree[forest.right[node]] = tree[node]
    depth = _node_depths(forest)
    c = [average_path_length(k) for k in range(forest.subsample_size + 1)]
    sizes = [[] for _ in forest.roots]
    for leaf in np.flatnonzero(forest.dim < 0):
        matches = [k for k in range(1, len(c)) if depth[leaf] + c[k] == forest.path[leaf]]
        sizes[tree[leaf]].append(matches[-1])  # c(1) == c(0): size 1 reads as 1
    return sizes


def test_two_identical_points_score_equal():
    pts = np.array([[1.0, 2.0], [1.0, 2.0]])
    forest = fit_forest(pts, num_trees=10, subsample_size=2, seed=0)
    s = anomaly_scores(forest, pts)
    assert s[0] == s[1]
    assert 0 < s[0] < 1


def test_same_seed_identical_forest():
    gen = Rng(12)
    pts = gen.normal(0, 1, size=(40, 3))
    for psi in (16, 64):  # subsampled, then the whole set in every tree
        f1 = fit_forest(pts, num_trees=20, subsample_size=psi, seed=9)
        f2 = fit_forest(pts, num_trees=20, subsample_size=psi, seed=9)
        assert _same_forest(f1, f2)
        f3 = fit_forest(pts, num_trees=20, subsample_size=psi, seed=10)
        assert not _same_forest(f3, f1)


def test_planted_outliers_top_the_ranking():
    hits = 0
    for seed in range(5):
        gen = Rng(100 + seed)
        inliers = gen.normal(0, 1, size=(500, 4))
        outliers = gen.normal(10, 1, size=(5, 4))  # 10 sigma away
        pts = np.vstack([inliers, outliers])
        forest = fit_forest(pts, num_trees=100, subsample_size=256, seed=seed)
        scores = anomaly_scores(forest, pts)
        top5 = set(np.argsort(-scores)[:5].tolist())
        if top5 == {500, 501, 502, 503, 504}:
            hits += 1
    assert hits >= 4


def test_score_half_at_normaliser_fixed_point():
    # a single leaf tree: every point's path length is exactly c(n)
    forest = _one_tree_forest([-1], [0.0], [(0, 0)], [average_path_length(4)], 4)
    assert anomaly_score(forest, [0.0]) == 0.5


def test_hand_built_tree_matches_manual_path_lengths():
    #      (dim 0 < 5)
    #      /        \
    #   leaf(1)   (dim 0 < 8)
    #             /        \
    #          leaf(2)    leaf(1)
    # nodes: 0 root, 1 left leaf, 2 inner, 3 and 4 its leaves (self-looped)
    forest = _one_tree_forest(
        dim=[0, -1, 0, -1, -1],
        threshold=[5.0, 0.0, 8.0, 0.0, 0.0],
        children=[(1, 2), (1, 1), (3, 4), (3, 3), (4, 4)],
        path=[0.0, 1 + average_path_length(1), 0.0,
              2 + average_path_length(2), 2 + average_path_length(1)],
        subsample_size=4,
    )
    c4 = average_path_length(4)
    # point 2.0 -> left leaf at depth 1, size 1: h = 1
    assert anomaly_score(forest, [2.0]) == 2.0 ** (-1.0 / c4)
    # point 6.0 -> depth 2 leaf of size 2: h = 2 + c(2)
    h = 2 + average_path_length(2)
    assert anomaly_score(forest, [6.0]) == 2.0 ** (-h / c4)
    # shallower isolation scores strictly higher
    assert anomaly_score(forest, [2.0]) > anomaly_score(forest, [6.0])


def test_average_path_length_values():
    assert average_path_length(1) == 0.0
    assert average_path_length(0) == 0.0
    # c(2) = 2*(ln(1) + gamma) - 2*1/2
    assert abs(average_path_length(2) - (2 * 0.5772156649015329 - 1.0)) < 1e-12


def test_scores_strictly_inside_unit_interval():
    gen = Rng(3)
    pts = gen.normal(0, 1, size=(64, 2))
    forest = fit_forest(pts, num_trees=50, subsample_size=32, seed=1)
    s = anomaly_scores(forest, pts)
    assert (s > 0).all() and (s < 1).all()


def test_subsample_capped_at_population():
    pts = Rng(4).normal(0, 1, size=(10, 2))
    forest = fit_forest(pts, num_trees=5, subsample_size=256, seed=0)
    assert forest.subsample_size == 10


def test_tree_depth_bounded_by_log2_subsample():
    pts = Rng(5).normal(0, 1, size=(300, 3))
    forest = fit_forest(pts, num_trees=30, subsample_size=64, seed=2)
    limit = math.ceil(math.log2(64))
    assert len(forest.roots) == 30
    assert _node_depths(forest).max() <= limit


def test_input_validation():
    with pytest.raises(ValueError):
        fit_forest(np.ones((1, 2)))
    with pytest.raises(ValueError):
        fit_forest(np.ones((5, 2)), subsample_size=1)
    with pytest.raises(ValueError, match="num_trees"):
        fit_forest(np.eye(3), num_trees=0)  # it had no tree to score with
    with pytest.raises(ValueError, match="finite"):
        fit_forest(np.array([[0.0], [np.nan], [1.0]]))
    forest = fit_forest(np.eye(3), num_trees=3, subsample_size=3, seed=0)
    with pytest.raises(ValueError, match="width"):
        anomaly_score(forest, [1.0, 2.0])
    with pytest.raises(ValueError, match="width"):
        anomaly_scores(forest, [1.0, 2.0, 3.0])
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            anomaly_scores(forest, [[bad, 0.0, 0.0], [1.0, 1.0, 1.0]])


def _golden_points(seed, rows, width, duplicated):
    base = Rng(seed).normal(0, 1, size=(rows - duplicated, width))
    return np.vstack([base, base[:duplicated]])


# Scores of fixed-seed fits, pinned bit for bit as float.hex: the training
# rows (the last ones duplicate the first), their mean and a far point.
# Rows 0, 1, 2, n-4, n-1, mean, far; then math.fsum over all n + 2 scores.
GOLDEN = [
    # (seed, rows, width, duplicated rows, trees, psi, fit seed)
    ((21, 40, 3, 4, 20, 16, 9), [
        "0x1.2242a14b6180ep-1", "0x1.0bd4464133c16p-1", "0x1.076eb12bea562p-1",
        "0x1.2242a14b6180ep-1", "0x1.f257690f5703fp-2", "0x1.bd7607f25b549p-2",
        "0x1.572767624675ap-1",
    ], "0x1.5f82cbaf4bcc8p+4"),
    ((22, 140, 64, 10, 100, 256, 0), [
        "0x1.e409a0a3bb781p-2", "0x1.a9de0e830e050p-2", "0x1.a641a9ce3d2c5p-2",
        "0x1.c1bc1c872b0d2p-2", "0x1.c2b665a50f92ap-2", "0x1.6b522ccb5c31cp-2",
        "0x1.7e43611a0bf6bp-1",
    ], "0x1.fa8bd4665ef0dp+5"),
]


@pytest.mark.parametrize("case,picked,total", GOLDEN, ids=["40x3", "140x64"])
def test_scores_match_golden_bit_for_bit(case, picked, total):
    seed, rows, width, duplicated, trees, psi, fit_seed = case
    pts = _golden_points(seed, rows, width, duplicated)
    forest = fit_forest(pts, num_trees=trees, subsample_size=psi, seed=fit_seed)
    queries = np.vstack([pts, pts.mean(axis=0), pts.max(axis=0) + 5.0])
    scores = anomaly_scores(forest, queries).tolist()
    picks = [0, 1, 2, rows - 4, rows - 1, rows, rows + 1]
    assert [scores[i].hex() for i in picks] == picked
    assert math.fsum(scores).hex() == total


def _scalar_score(forest, point):
    """Reference: walk each tree alone, sum in tree order, one ``**``."""
    lengths = []
    for node in forest.roots:
        while forest.dim[node] >= 0:
            below = point[forest.dim[node]] < forest.threshold[node]
            node = forest.left[node] if below else forest.right[node]
        lengths.append(float(forest.path[node]))
    mean_path = sum(lengths) / len(lengths)
    return 2.0 ** (-mean_path / average_path_length(forest.subsample_size))


def test_batch_scores_equal_per_tree_walk_bit_for_bit():
    pts = _golden_points(7, 60, 5, 6)
    forest = fit_forest(pts, num_trees=25, subsample_size=32, seed=4)
    queries = np.vstack([pts, Rng(8).normal(0, 3, size=(20, 5))])
    batch = anomaly_scores(forest, queries)
    assert batch.tolist() == [_scalar_score(forest, q) for q in queries]
    assert [anomaly_score(forest, q) for q in queries[:5]] == batch[:5].tolist()
    assert anomaly_scores(forest, queries[:0]).shape == (0,)


def _reference_fit(points, num_trees, subsample_size, seed):
    """The level-wise forest as first written: c(0..ψ) rebuilt on every fit,
    run starts by ``np.diff``, and four fresh node arrays per level joined
    at the end. The draws are the ones :func:`fit_forest` makes."""
    pts = np.asarray(points, dtype=np.float64)
    n = len(pts)
    psi = min(subsample_size, n)
    height_limit = math.ceil(math.log2(psi))
    rng = Rng(seed)
    rows, inverse = noi._distinct_rows(pts)
    m = len(rows)
    if n > psi:
        picks = rng.generator.permuted(np.tile(np.arange(n), (num_trees, 1)), axis=1)
        slot = inverse[picks[:, :psi]] + m * np.arange(num_trees)[:, None]
        counts = np.bincount(slot.ravel(), minlength=num_trees * m)
    else:
        counts = np.tile(np.bincount(inverse, minlength=m), num_trees)

    def slots_of(node, nodes, width):
        member = np.zeros(width, dtype=bool)
        member[nodes] = True
        sel = np.flatnonzero(member[node])
        return sel, np.flatnonzero(np.diff(node[sel], prepend=-1))

    slots = np.flatnonzero(counts)
    node, row = np.divmod(slots, m)
    weight = counts[slots]
    c = np.array([average_path_length(k) for k in range(psi + 1)])
    levels = []
    first, width, depth = 0, num_trees, 0
    while True:
        dims = np.full(width, -1, dtype=np.int64)
        thresholds = np.zeros(width)
        lefts = np.arange(first, first + width)
        rights = lefts.copy()
        starts = np.flatnonzero(np.diff(node, prepend=-1))
        size = np.add.reduceat(weight, starts)
        levels.append((dims, thresholds, lefts, rights, depth + c[size]))
        if depth == height_limit:
            break
        split = np.flatnonzero(np.diff(starts, append=len(node)) > 1)
        if not split.size:
            break
        lo, hi = np.zeros(width), np.zeros(width)
        pending = split
        for attempt in range(noi._DIM_DRAWS + 1):
            sel, seg = slots_of(node, pending, width)
            if attempt < noi._DIM_DRAWS:
                dims[pending] = rng.integers(pts.shape[1], size=pending.size)
            else:
                block = rows[row[sel]]
                varying = np.maximum.reduceat(block, seg) > np.minimum.reduceat(block, seg)
                pick = rng.integers(varying.sum(axis=1))
                dims[pending] = np.argmax(np.cumsum(varying, axis=1) > pick[:, None], axis=1)
            values = rows[row[sel], dims[node[sel]]]
            lo[pending] = np.minimum.reduceat(values, seg)
            hi[pending] = np.maximum.reduceat(values, seg)
            pending = pending[lo[pending] == hi[pending]]
            if not pending.size:
                break
        lo, hi = lo[split], hi[split]
        threshold = rng.uniform(lo, hi)
        bad = ~((threshold > lo) & (threshold <= hi))
        mid = (lo + hi) / 2.0
        threshold[bad] = np.where(mid > lo, mid, hi)[bad]
        thresholds[split] = threshold
        lefts[split] = first + width + 2 * np.arange(split.size)
        rights[split] = lefts[split] + 1
        sel, _ = slots_of(node, split, width)
        node, row, weight = node[sel], row[sel], weight[sel]
        rank = np.zeros(width, dtype=np.int64)
        rank[split] = np.arange(split.size)
        child = 2 * rank[node] + (rows[row, dims[node]] >= thresholds[node])
        order = np.argsort(child, kind="stable")
        node, row, weight = child[order], row[order], weight[order]
        first, width, depth = first + width, 2 * split.size, depth + 1
    dims, thresholds, lefts, rights, paths = (np.concatenate(a) for a in zip(*levels))
    return IsolationForest(dims, thresholds, lefts, rights, paths,
                           np.arange(num_trees, dtype=np.int64), psi, pts.shape[1])


@pytest.mark.parametrize("rows,psi", [(60, 64), (64, 64), (300, 32), (140, 256)],
                         ids=["whole-set", "whole-set-at-psi", "subsampled", "host-like"])
def test_forest_arrays_equal_the_per_level_construction(rows, psi):
    gen = Rng(31)
    for case in range(8):
        width = int(gen.integers(1, 9))
        pts = _golden_points(40 + case, rows, width, int(gen.integers(0, rows // 2)))
        # rounded rows repeat, as a host's process embeddings do
        pts = np.round(pts, case % 3)
        for trees in (1, 7, 100):
            got = fit_forest(pts, num_trees=trees, subsample_size=psi, seed=case)
            want = _reference_fit(pts, trees, psi, case)
            assert _same_forest(got, want)
            for name in FOREST_ARRAYS:
                assert getattr(got, name).dtype == getattr(want, name).dtype, name


def test_tree_rows_sum_in_tree_order():
    # anomaly_scores adds the trees' path rows with a running sum, which
    # adds them one by one in tree order as Python's sum does; a reduction
    # along the axis may add them pairwise and differ in the last bit
    gen = Rng(32)
    for trees, cols in [(100, 1), (1, 5), (2, 1), (100, 37), (257, 3)]:
        for _ in range(20):
            rows = gen.uniform(0.5, 12.0, size=(trees, cols))
            assert np.cumsum(rows, axis=0)[-1].tolist() == sum(rows).tolist()
    pts = _golden_points(33, 90, 4, 30)
    forest = fit_forest(pts, num_trees=100, subsample_size=64, seed=6)
    queries = np.vstack([pts, Rng(34).normal(0, 2, size=(10, 4))])
    # one query is a one-column (trees, 1) block of path rows
    for q in (queries, queries[:1], queries[-1:]):
        assert anomaly_scores(forest, q).tolist() == [_scalar_score(forest, x) for x in q]


def test_leaves_loop_to_themselves_and_trees_cover_all_nodes():
    forest = fit_forest(_golden_points(9, 50, 4, 5), num_trees=10, subsample_size=32)
    leaves = np.flatnonzero(forest.dim < 0)
    assert (forest.left[leaves] == leaves).all()
    assert (forest.right[leaves] == leaves).all()
    inner = np.flatnonzero(forest.dim >= 0)
    children = np.concatenate([forest.left[inner], forest.right[inner]])
    # every node but a root is exactly one node's child
    assert sorted(children.tolist() + forest.roots.tolist()) == list(
        range(len(forest.dim))
    )


def test_only_the_varying_dimension_is_split_on():
    # one varying dimension of 64: a random draw finds it with odds 1/64
    pts = np.zeros((50, 64))
    pts[:, 17] = Rng(13).normal(0, 1, size=50)
    forest = fit_forest(pts, num_trees=20, subsample_size=32, seed=0)
    inner = forest.dim >= 0
    assert inner.sum() >= 20 * 5
    assert (forest.dim[inner] == 17).all()


def test_split_dimension_is_uniform_over_the_varying_ones():
    pts = np.zeros((40, 64))
    varying = [5, 40, 63]
    pts[:, varying] = Rng(14).normal(0, 1, size=(40, 3))
    forest = fit_forest(pts, num_trees=600, subsample_size=64, seed=1)
    root_dims = forest.dim[forest.roots]
    counts = [int((root_dims == d).sum()) for d in varying]
    assert sum(counts) == 600
    assert min(counts) >= 150  # 200 expected each, sd 11.5


def test_identical_rows_grow_one_leaf_per_tree():
    for n, psi in [(30, 16), (7, 256)]:
        pts = np.full((n, 4), 2.5)
        for trees in (1, 100):
            forest = fit_forest(pts, num_trees=trees, subsample_size=psi, seed=0)
            assert (forest.dim == -1).all() and forest.roots.tolist() == list(range(trees))
            assert (forest.path == average_path_length(min(n, psi))).all()
            scores = anomaly_scores(forest, np.vstack([pts, pts[:1] + 1.0]))
            assert (scores == scores[0]).all()
            # E[h] is exactly c(psi); the tree-order float mean over 100
            # trees may round it by an ulp, a single tree cannot
            assert scores[0] == 0.5 if trees == 1 else abs(scores[0] - 0.5) < 1e-15


def test_row_order_does_not_change_a_whole_set_forest():
    pts = _golden_points(15, 60, 5, 8)
    forest = fit_forest(pts, num_trees=30, subsample_size=64, seed=3)
    shuffled = pts[Rng(16).permutation(len(pts))]
    assert _same_forest(fit_forest(shuffled, num_trees=30, subsample_size=64, seed=3), forest)


@pytest.mark.parametrize("rows,psi", [(60, 64), (300, 32)], ids=["whole-set", "subsampled"])
def test_every_tree_holds_its_sample_and_every_split_separates(rows, psi):
    pts = _golden_points(17, rows, 3, rows // 5)  # duplicates: weighted rows
    forest = fit_forest(pts, num_trees=25, subsample_size=psi, seed=5)
    assert forest.subsample_size == min(rows, psi)
    sizes = _leaf_sizes_per_tree(forest)
    assert [sum(s) for s in sizes] == [forest.subsample_size] * 25
    assert (forest.path[forest.roots] == average_path_length(forest.subsample_size)).all()
    limit = math.ceil(math.log2(forest.subsample_size))
    assert _node_depths(forest).max() <= limit
    if rows > psi:  # each tree draws its own subsample
        assert len(set(zip(forest.dim[forest.roots], forest.threshold[forest.roots]))) > 1


def test_adjacent_floats_still_split():
    # the midpoint of two adjacent floats rounds onto one of them
    pts = np.array([[1.0], [np.nextafter(1.0, 2.0)]])
    forest = fit_forest(pts, num_trees=50, subsample_size=2, seed=0)
    assert (forest.dim[forest.roots] == 0).all()
    assert _leaf_sizes_per_tree(forest) == [[1, 1]] * 50
    scores = anomaly_scores(forest, pts)
    assert scores[0] == scores[1] == 2.0 ** (-1.0 / average_path_length(2))


# -- detect_nois --------------------------------------------------------------


def _graph_with_processes(n_benign, extra_triples=()):
    triples = [(f"w{i}", "read", f"f{i % 3}", EntityType.FILE) for i in range(n_benign)]
    triples += list(extra_triples)
    return make_graph(triples)


def test_identical_processes_yield_no_flags():
    g = _graph_with_processes(20)
    emb = ft.scale_features(ft.init_features(g))
    report = detect_nois(g, emb, seed=3)
    assert report.flagged == []


def test_threshold_one_flags_nothing():
    g = _graph_with_processes(
        10, [("loud", "connect", f"s{i}", EntityType.SOCKET) for i in range(9)]
    )
    emb = ft.scale_features(ft.init_features(g))
    report = detect_nois(g, emb, score_threshold=1.0, seed=3)
    assert report.flagged == []


def test_planted_behavior_is_flagged_with_precision():
    loud = [(f"mal{j}", "connect", f"s{i}", EntityType.SOCKET)
            for j in range(3) for i in range(10)]
    loud += [(f"mal{j}", "read", f"cred{i}", EntityType.FILE)
             for j in range(3) for i in range(5)]
    g = _graph_with_processes(60, loud)
    emb = ft.scale_features(ft.init_features(g))
    report = detect_nois(g, emb, seed=3)
    flagged = set(report.flagged)
    assert flagged
    precision = len(flagged & {"mal0", "mal1", "mal2"}) / len(flagged)
    assert precision >= 0.8


def test_only_process_nodes_reported():
    g = _graph_with_processes(10)
    emb = ft.scale_features(ft.init_features(g))
    report = detect_nois(g, emb, seed=0)
    proc_ids = {
        nid for nid, n in g.nodes.items() if n.entity_type == EntityType.PROCESS
    }
    assert set(report.scores) == proc_ids


def test_no_process_nodes_errors():
    g = make_graph([("p", "read", "f", EntityType.FILE)]).induced(["f"])
    with pytest.raises(ValueError, match="process"):
        detect_nois(g, np.zeros((1, 4)), seed=0)


def test_contamination_mode_flags_top_fraction():
    g = _graph_with_processes(
        18, [("loud", "connect", f"s{i}", EntityType.SOCKET) for i in range(12)]
    )
    emb = ft.scale_features(ft.init_features(g))
    report = detect_nois(g, emb, contamination=0.1, seed=3)
    assert len(report.flagged) == math.ceil(0.1 * 19)
    assert report.flagged[0] == "loud"


def test_report_round_trip_sorted_descending():
    g = _graph_with_processes(
        8, [("loud", "connect", f"s{i}", EntityType.SOCKET) for i in range(9)]
    )
    emb = ft.scale_features(ft.init_features(g))
    report = detect_nois(g, emb, seed=1)
    payload = report.to_dict()
    scores = [row["score"] for row in payload["nois"]]
    assert scores == sorted(scores, reverse=True)
    back = NoiReport.from_dict(payload)
    assert back.scores == report.scores
    assert back.flagged == sorted(report.flagged, key=lambda n: -report.scores[n])


def test_bad_contamination_rejected_before_the_fit(monkeypatch):
    def no_fit(*args, **kwargs):
        raise AssertionError("fit_forest reached")

    monkeypatch.setattr(noi, "fit_forest", no_fit)
    g = _graph_with_processes(6)
    emb = ft.scale_features(ft.init_features(g))
    with pytest.raises(ValueError, match="contamination"):
        detect_nois(g, emb, contamination=1.5, seed=0)
