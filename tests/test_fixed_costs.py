"""Fixed per-host costs of triage, counted rather than timed.

On a held-out host most of a triage is fixed cost per call, not arithmetic:
each scipy sparse construction pays its format checks, each fit of the
isolation forest once rebuilt its c(0..ψ) table in Python, and a forward on
a second BLAS thread leaves that thread busy-waiting. These tests count
each, so a change that adds such work back fails here whatever the
machine's speed.
"""

import numpy as np
import pytest
from scipy.sparse import _base

from provrec import features as ft
from provrec import noi
from provrec import numerics as nm
from provrec.embedding import init_han_params
from provrec.features import EncoderConfig, GnnEncoder
from provrec.matching import ExemplarSet, MatcherConfig, SiameseModel, recognize
from provrec.numerics import NumericsError, Rng
from provrec.synthetic import DEFAULT_TEMPLATES, generate_sample


@pytest.fixture
def sparse_constructions(monkeypatch):
    """A one-item list counting every scipy sparse container built: each
    one, products' results included, initialises through ``_spbase``."""
    count = [0]
    init = _base._spbase.__init__

    def counting(self, *args, **kwargs):
        count[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(_base._spbase, "__init__", counting)
    return count


def _samples():
    return [generate_sample(t, Rng(99).split(f"query-{i}"), 150, 0.05)
            for i, t in enumerate(DEFAULT_TEMPLATES)]


def test_one_sparse_construction_per_aggregation_matrix(sparse_constructions):
    host = _samples()[0].graph
    assert host.n_nodes > 200
    ft.aggregation_matrix(host)
    assert sparse_constructions[0] <= 1  # 5 when built as COO + identity


def _recognizer():
    """A 14-node carve, an untrained matcher and the other templates' truths
    as exemplars, embedded and cached by one recognize of the carve."""
    samples = _samples()
    config = MatcherConfig()
    d = config.han.dim
    model = SiameseModel(config, {**init_han_params(config.han), "out_w": np.eye(d),
                                  "out_b": np.zeros((1, d))})
    exemplars = ExemplarSet()
    for s in samples[1:]:
        exemplars.add_class(s.technique, s.tactic, [s.truth], model)
    carve = samples[0].truth
    assert carve.n_nodes == 14
    recognize(carve, exemplars, model)
    return carve, exemplars, model


def test_sparse_constructions_of_one_recognize(sparse_constructions):
    carve, exemplars, model = _recognizer()
    sparse_constructions[0] = 0
    recognize(carve, exemplars, model)
    # the neighbour matrix's two operands and product (2), the neighbour
    # counts' operand and product (2), the shared-class key, and one
    # scatter matrix per wide segment sum of the forward (6); 16 when the
    # shared classes' rows were indexed out of the counts and classes were
    # keyed by a sparse one-hot
    assert sparse_constructions[0] <= 14


def test_a_second_fit_at_one_subsample_size_reuses_the_path_lengths(monkeypatch):
    pts = Rng(36).normal(0, 1, size=(135, 8))
    noi.fit_forest(pts, num_trees=10, subsample_size=256, seed=0)
    calls = [0]
    exact = noi.average_path_length

    def counting(n):
        calls[0] += 1
        return exact(n)

    monkeypatch.setattr(noi, "average_path_length", counting)
    noi.fit_forest(pts, num_trees=10, subsample_size=256, seed=1)
    assert calls[0] == 0  # ψ + 1 = 136 when the table was rebuilt per fit


def _extractor():
    """A 2-layer encoder with random weights, and a host with its features."""
    host = _samples()[0].graph
    gen = Rng(37)
    encoder = GnnEncoder(EncoderConfig(t_layers=2, hidden=8),
                         [gen.normal(0, 0.1, size=(ft.FEATURE_DIM, 8)),
                          gen.normal(0, 0.1, size=(8, 8))],
                         gen.normal(0, 0.1, size=(8, 4)))
    return encoder, host, ft.init_features(host)


FORWARDS = {
    "extract_embeddings": lambda: (ft.extract_embeddings, _extractor()),
    "recognize": lambda: (recognize, _recognizer()),
}


@pytest.mark.parametrize("forward", FORWARDS)
def test_every_product_of_a_forward_runs_on_one_blas_thread(
        forward, pool_of_three, monkeypatch):
    run, args = FORWARDS[forward]()
    seen = []
    matmul = nm.matmul

    def watched(a, b):
        seen.append(pool_of_three())
        return matmul(a, b)

    monkeypatch.setattr(nm, "matmul", watched)
    run(*args)
    assert seen and set(seen) == {1}
    assert pool_of_three() == 3
    seen.clear()

    def failing(a, b):
        seen.append(pool_of_three())
        raise NumericsError("non-finite result from op 'matmul'")

    monkeypatch.setattr(nm, "matmul", failing)
    with pytest.raises(NumericsError):
        run(*args)
    assert (seen, pool_of_three()) == ([1], 3)


@pytest.mark.parametrize("forward", FORWARDS)
def test_one_pool_set_and_restore_per_forward(forward, monkeypatch):
    run, args = FORWARDS[forward]()
    blas = nm._openblas_threads()
    sizes = []

    def counting(n):
        sizes.append(n)
        blas.set(n)

    monkeypatch.setattr(nm, "_openblas_threads",
                        lambda: nm._BlasThreads(blas.get, counting))
    run(*args)
    assert sizes == [1, blas.get()]  # one per product when pinned per op
