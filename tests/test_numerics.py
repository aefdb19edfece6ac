"""Autodiff ops, losses, gradient checking, and seeded randomness."""

import json
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse

from provrec import numerics as nm
from provrec.numerics import GradientTape, Matrix, NumericsError, Rng


# -- references ---------------------------------------------------------------


def softmax_row(v) -> np.ndarray:
    """Plain softmax of a 1-D vector (stable, order-preserving)."""
    arr = np.asarray(v, dtype=np.float64).reshape(-1)
    if arr.size == 0:
        raise NumericsError("softmax of empty vector")
    if not np.isfinite(arr).all():
        raise NumericsError("softmax of non-finite vector")
    e = np.exp(arr - arr.max())
    return e / e.sum()


def softmax_rows(a: Matrix) -> Matrix:
    """Differentiable row-wise softmax, stabilised by max subtraction."""
    shifted = a.value - a.value.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    p = e / e.sum(axis=1, keepdims=True)

    def vjp(g):
        inner = (g * p).sum(axis=1, keepdims=True)
        return p * (g - inner)

    return Matrix._from_op(p, "softmax_rows", (a, vjp))


def cross_entropy_loss(probs: Matrix, labels) -> Matrix:
    """Differentiable cross-entropy over probability rows; returns 1x1."""
    y = np.asarray(labels, dtype=np.intp)
    n = probs.rows
    picked = probs.value[np.arange(n), y]

    def vjp(g):
        out = np.zeros_like(probs.value)
        out[np.arange(n), y] = -g[0, 0] / (n * picked)
        return out

    return Matrix._from_op(
        np.array([[-np.log(picked).mean()]]), "cross_entropy", (probs, vjp)
    )


# -- softmax ------------------------------------------------------------------


def test_softmax_symmetric_pair():
    assert np.allclose(softmax_row([0.0, 0.0]), [0.5, 0.5])


def test_softmax_single_element():
    assert softmax_row([3.7]).tolist() == [1.0]


def test_softmax_direct_formula():
    # oracle: direct exp/sum evaluation
    v = [1.0, 2.0, 3.0]
    exps = [math.exp(x) for x in v]
    total = sum(exps)
    expected = [e / total for e in exps]
    assert np.allclose(softmax_row(v), expected, atol=1e-15)
    assert np.allclose(
        expected, [0.09003057317038046, 0.24472847105479764, 0.6652409557748218]
    )


def test_softmax_sums_to_one_within_1e9():
    gen = Rng(7)
    for _ in range(200):
        v = gen.uniform(-50, 50, size=int(gen.integers(1, 30)))
        out = softmax_row(v)
        assert abs(out.sum() - 1.0) <= 1e-9
        assert (out >= 0).all()


def test_softmax_order_preserving_and_shift_invariant():
    gen = Rng(8)
    for _ in range(50):
        v = gen.normal(0, 5, size=6)
        out = softmax_row(v)
        assert (np.argsort(out) == np.argsort(v)).all()
        shifted = softmax_row(v + 13.25)
        assert np.allclose(out, shifted, atol=1e-12)


def test_softmax_empty_vector_errors():
    with pytest.raises(NumericsError):
        softmax_row([])


# -- cross entropy ------------------------------------------------------------


def test_cross_entropy_one_hot_is_zero():
    # a margin of 100 leaves 1 + 3e^-100 == 1 in float64
    logits = Matrix(100.0 * np.eye(4)[[2, 0, 3]])
    assert nm.softmax_cross_entropy(logits, [2, 0, 3]).item() == 0.0


def test_cross_entropy_uniform_is_log4():
    loss = nm.softmax_cross_entropy(Matrix(np.zeros((5, 4))), [0, 1, 2, 3, 0])
    assert abs(loss.item() - math.log(4)) < 1e-12


def test_cross_entropy_matches_scalar_recomputation():
    gen = Rng(9)
    raw = gen.uniform(0.05, 1.0, size=(3, 4))
    pred = raw / raw.sum(axis=1, keepdims=True)
    labels = [1, 3, 0]
    # oracle: explicit per-row loop over the probabilities the logits encode
    expected = -sum(math.log(pred[i, y]) for i, y in enumerate(labels)) / 3
    loss = nm.softmax_cross_entropy(Matrix(np.log(pred)), labels)
    assert abs(loss.item() - expected) < 1e-12


def test_cross_entropy_label_out_of_range():
    with pytest.raises(NumericsError):
        nm.softmax_cross_entropy(Matrix(np.zeros((2, 3))), [0, 3])


# -- matrices -----------------------------------------------------------------


def test_matrix_shape_and_data_layout():
    m = Matrix([[1.0, 2.0], [3.0, 4.0]])
    assert (m.rows, m.cols) == (2, 2)
    assert m.rows * m.cols == m.value.size
    assert m.value.flags["C_CONTIGUOUS"]
    assert Matrix(5.0).shape == (1, 1)
    assert Matrix([1.0, 2.0, 3.0]).shape == (1, 3)


def test_matrix_rejects_non_finite():
    with pytest.raises(NumericsError):
        Matrix([np.inf, 1.0])


def test_ops_reject_non_finite_results():
    big = Matrix([[1e308]])
    with pytest.raises(NumericsError):
        nm.mul(big, big)
    with pytest.raises(NumericsError):
        nm.div(Matrix([[1.0]]), Matrix([[0.0]]))


def test_shape_mismatch_raises():
    with pytest.raises(NumericsError):
        nm.add(Matrix(np.ones((2, 3))), Matrix(np.ones((3, 3))))
    with pytest.raises(NumericsError):
        nm.matmul(Matrix(np.ones((2, 3))), Matrix(np.ones((2, 3))))
    with pytest.raises(NumericsError):
        nm.concat_rows([Matrix(np.ones((2, 3))), Matrix(np.ones((2, 2)))])
    with pytest.raises(NumericsError):
        nm.concat_rows([])


# -- gradients ----------------------------------------------------------------


def test_grad_check_quadratic_is_nearly_exact():
    tape = GradientTape()
    w = tape.parameter("w", np.array([[0.5, -1.0, 2.0]]))
    err = nm.grad_check(lambda: nm.sum_all(nm.mul(w, w)), [w], eps=1e-5)
    assert err < 1e-8


def _tape_with(rng, shapes):
    tape = GradientTape()
    params = [
        tape.parameter(f"p{i}", rng.normal(0, 1, size=shape))
        for i, shape in enumerate(shapes)
    ]
    return tape, params


OP_CASES = [
    ("add_full", [(3, 4), (3, 4)], lambda a, b: nm.add(a, b)),
    ("add_rowvec", [(3, 4), (1, 4)], lambda a, b: nm.add(a, b)),
    ("add_colvec", [(3, 4), (3, 1)], lambda a, b: nm.add(a, b)),
    ("sub", [(3, 4), (1, 1)], lambda a, b: nm.sub(a, b)),
    ("mul", [(3, 4), (3, 4)], lambda a, b: nm.mul(a, b)),
    ("mul_bcast", [(3, 4), (3, 1)], lambda a, b: nm.mul(a, b)),
    ("div", [(3, 4), (1, 4)], lambda a, b: nm.div(a, nm.add(nm.mul(b, b), Matrix(1.0)))),
    ("matmul", [(3, 4), (4, 2)], lambda a, b: nm.matmul(a, b)),
    ("transpose", [(3, 4)], lambda a: nm.matmul(nm.transpose(a), a)),
    ("leaky", [(3, 4)], lambda a: nm.leaky_relu(a, 0.01)),
    ("tanh", [(3, 4)], lambda a: nm.tanh(a)),
    ("sqrt", [(3, 4)], lambda a: nm.sqrt(nm.add(nm.mul(a, a), Matrix(0.5)))),
    ("concat_rows", [(2, 3), (4, 3), (1, 3)], lambda a, b, c: nm.concat_rows([a, b, c])),
    ("slice_rows", [(5, 3)], lambda a: nm.slice_rows(a, 1, 4)),
    ("row_sums", [(3, 5)], lambda a: nm.row_sums(a)),
    ("segment_softmax_weighted", [(6, 1)], lambda a: nm.segment_softmax(
        a, np.array([0, 0, 0, 1, 1, 2]), 3, np.array([1.0, 3.0, 2.0, 1.0, 4.0, 2.0]))),
]


@pytest.mark.parametrize("name,shapes,fn", OP_CASES, ids=[c[0] for c in OP_CASES])
def test_op_gradients_pass_finite_difference(name, shapes, fn):
    rng = Rng(hash(name) % (2**32))
    tape, params = _tape_with(rng, shapes)
    probe = Matrix(rng.normal(0, 1, size=fn(*params).shape))

    def loss():
        return nm.sum_all(nm.mul(fn(*params), probe))

    assert nm.grad_check(loss, params, eps=1e-5) < 1e-4


def test_gather_and_segment_gradients():
    rng = Rng(77)
    tape, (a,) = _tape_with(rng, [(5, 3)])
    idx = np.array([0, 2, 2, 4, 1, 0])
    seg = np.array([0, 0, 1, 2, 2, 2])
    probe = Matrix(rng.normal(0, 1, size=(3, 3)))

    def loss():
        gathered = nm.gather_rows(a, idx)
        return nm.sum_all(nm.mul(nm.segment_sum(gathered, seg, 3), probe))

    assert nm.grad_check(loss, [a], eps=1e-5) < 1e-4


def test_segment_softmax_matches_plain_softmax_per_segment():
    rng = Rng(78)
    scores = rng.normal(0, 2, size=(6, 1))
    seg = np.array([0, 0, 0, 1, 1, 2])
    out = nm.segment_softmax(Matrix(scores), seg, 3).value[:, 0]
    assert np.allclose(out[:3], softmax_row(scores[:3, 0]), atol=1e-12)
    assert np.allclose(out[3:5], softmax_row(scores[3:5, 0]), atol=1e-12)
    assert out[5] == 1.0

    tape = GradientTape()
    s = tape.parameter("s", scores)
    probe = Matrix(rng.normal(0, 1, size=(6, 1)))

    def loss():
        return nm.sum_all(nm.mul(nm.segment_softmax(s, seg, 3), probe))

    assert nm.grad_check(loss, [s], eps=1e-5) < 1e-4


def test_segment_softmax_without_weights_is_the_plain_formula():
    rng = Rng(84)
    scores = rng.normal(0, 3, size=(9, 1))
    seg = np.array([2, 0, 2, 1, 0, 2, 1, 1, 2])
    shifted = scores[:, 0] - np.array([scores[seg == s, 0].max() for s in range(3)])[seg]
    e = np.exp(shifted)
    want = e / np.bincount(seg, e, 3)[seg]
    tape = GradientTape()
    s = tape.parameter("s", scores)
    out = nm.segment_softmax(s, seg, 3, weights=None)
    assert (out.value[:, 0] == want).all()
    probe = rng.normal(0, 1, size=9)
    tape.backward(nm.sum_all(nm.mul(out, probe.reshape(-1, 1))))
    assert (s.grad[:, 0] == want * (probe - np.bincount(seg, probe * want, 3)[seg])).all()


def test_segment_softmax_integer_weights_repeat_rows():
    rng = Rng(85)
    scores = rng.normal(0, 2, size=(7, 1))
    seg = np.array([0, 0, 0, 1, 1, 2, 2])
    counts = np.array([1, 3, 2, 1, 4, 2, 1])
    owner = np.repeat(np.arange(7), counts)  # row k copied counts[k] times
    probe = rng.normal(0, 1, size=(7, 1))
    tape = GradientTape()
    s = tape.parameter("s", scores)

    def weighted():
        return nm.segment_softmax(s, seg, 3, counts)

    def repeated():
        copies = nm.segment_softmax(nm.gather_rows(s, owner), seg[owner], 3)
        return nm.segment_sum(copies, owner, 7)  # each row's copies together

    values, grads = [], []
    for fn in (weighted, repeated):
        out = fn()
        tape.backward(nm.sum_all(nm.mul(out, probe)))
        values.append(out.value.copy())
        grads.append(s.grad.copy())
    assert np.abs(values[0] - values[1]).max() <= 1e-15
    assert np.abs(grads[0] - grads[1]).max() <= 1e-15
    assert np.allclose(np.bincount(seg, values[0][:, 0]), 1.0, atol=1e-15)


@pytest.mark.parametrize("weights", [
    [1.0, -1.0, 2.0], [1.0, np.nan, 2.0], [1.0, np.inf, 2.0], [1.0, 2.0],
    [0.0, 0.0, 0.0],
], ids=["negative", "nan", "inf", "short", "zero_sum"])
def test_segment_softmax_rejects_bad_weights(weights):
    with pytest.raises(NumericsError):
        nm.segment_softmax(Matrix(np.zeros((3, 1))), [0, 0, 1], 2, weights)


def test_spmm_gradient_and_value():
    rng = Rng(79)
    mat = sparse.csr_matrix(np.array([[0.5, 0.5, 0.0], [0.0, 1.0, 0.0]]))
    tape, (b,) = _tape_with(rng, [(3, 4)])
    probe = Matrix(rng.normal(0, 1, size=(2, 4)))
    assert np.allclose(nm.spmm(mat, b).value, mat @ b.value)

    def loss():
        return nm.sum_all(nm.mul(nm.spmm(mat, b), probe))

    assert nm.grad_check(loss, [b], eps=1e-5) < 1e-4


def test_spmm_repeated_calls_on_one_matrix_are_identical():
    rng = Rng(81)
    dense = rng.normal(0, 1, size=(4, 5)) * (rng.uniform(size=(4, 5)) < 0.5)
    mat = sparse.csr_matrix(dense)
    tape, (b,) = _tape_with(rng, [(5, 3)])
    probe = Matrix(rng.normal(0, 1, size=(4, 3)))
    runs = []
    for _ in range(3):
        out = nm.spmm(mat, b)
        tape.backward(nm.sum_all(nm.mul(out, probe)))
        runs.append((out.value.copy(), b.grad.copy()))
    for value, grad in runs[1:]:
        assert (value == runs[0][0]).all() and (grad == runs[0][1]).all()
    assert np.allclose(runs[0][1], mat.T @ probe.value, atol=1e-12)


@pytest.mark.parametrize("rows", [1, 256, 257, 700])
def test_matmul_weight_gradient_sums_fixed_row_blocks_in_order(rows):
    rng = Rng(83)
    a = Matrix(rng.normal(0, 1, size=(rows, 5)))
    tape, (b,) = _tape_with(rng, [(5, 3)])
    probe = rng.normal(0, 1, size=(rows, 3))
    tape.backward(nm.sum_all(nm.mul(nm.matmul(a, b), Matrix(probe))))
    step = nm.MATMUL_VJP_ROW_BLOCK
    expected = a.value[:step].T @ probe[:step]
    for start in range(step, rows, step):
        expected = expected + a.value[start:start + step].T @ probe[start:start + step]
    assert (b.grad == expected).all()
    assert np.allclose(b.grad, a.value.T @ probe, atol=1e-12)


_TRAINED_HASHES = """
import json
import sys
from provrec import numerics
from provrec.config import PipelineConfig
from provrec.evaluation import split_few_shot, train_pipeline
from provrec.synthetic import generate_scenario
blas = numerics._openblas_threads()
if sys.argv[1:] == ["unpinned"]:
    numerics._openblas_threads = lambda: None  # descend leaves the pool as it is
hashes = {}
for seed in range(2, 7):
    config = PipelineConfig(seed=seed)
    dataset = generate_scenario(config.scenario_spec(), seed=seed)
    train, _ = split_few_shot(dataset, config.shots, seed)
    hashes[seed] = train_pipeline(train, config, seed).matcher.content_hash()
print(json.dumps({"hashes": hashes, "threads": blas.get()}))
"""


def test_trained_matchers_do_not_depend_on_the_blas_thread_count():
    """Seeds 2-6 trained in three processes give the same matcher hash: with
    one OpenBLAS thread, with two, and with two and descend's one-thread pin
    lifted, so the epochs themselves run on two threads (they did not give
    one hash before the weight gradient was summed in fixed row blocks).
    Each pool is still its size after training."""
    src = str(Path(nm.__file__).resolve().parents[1])
    runs = [(1, []), (2, []), (2, ["unpinned"])]
    procs = [subprocess.Popen([sys.executable, "-c", _TRAINED_HASHES, *args], text=True,
                              stdout=subprocess.PIPE,
                              env={**os.environ, "OPENBLAS_NUM_THREADS": str(threads),
                                   "PYTHONPATH": src})
             for threads, args in runs]
    outputs = [json.loads(proc.communicate(timeout=600)[0]) for proc in procs]
    assert [proc.returncode for proc in procs] == [0, 0, 0]
    assert [out["threads"] for out in outputs] == [threads for threads, _ in runs]
    one_thread, two_threads, unpinned = [out["hashes"] for out in outputs]
    assert sorted(one_thread) == ["2", "3", "4", "5", "6"]
    assert one_thread == two_threads == unpinned


def test_row_index_scatter_equals_add_at_with_repeats():
    rng = Rng(82)
    for sort, width, m in ((False, 1, 40), (False, 4, 40), (True, 1, 40), (True, 4, 40),
                           (False, 4, 0)):
        ids = rng.integers(0, 7, size=m)
        ids[:5] = 3  # repeats guaranteed; buckets 7 and 8 stay empty
        ids = np.sort(ids) if sort else ids
        values = rng.normal(0, 1, size=(m, width))
        index = nm.RowIndex(ids, 9)
        want = np.zeros((9, width))
        np.add.at(want, ids, values)
        assert (index.scatter_add(values) == want).all()
        want_max = np.full(9, -np.inf)
        np.maximum.at(want_max, ids, values[:, 0])
        want_max[~np.isfinite(want_max)] = 0.0
        assert (index.segment_max(values[:, 0]) == want_max).all()


def test_gather_and_segment_gradients_through_row_index():
    rng = Rng(83)
    tape, (a,) = _tape_with(rng, [(6, 3)])
    gather = nm.RowIndex(rng.integers(0, 6, size=15), 6)
    seg = nm.RowIndex(np.sort(rng.integers(0, 4, size=15)), 4)
    probe = Matrix(rng.normal(0, 1, size=(4, 3)))

    def loss():
        gathered = nm.gather_rows(a, gather)
        weights = nm.segment_softmax(nm.row_sums(gathered), seg, 4)
        summed = nm.segment_sum(nm.mul(weights, gathered), seg, 4)
        return nm.sum_all(nm.mul(summed, probe))

    assert nm.grad_check(loss, [a], eps=1e-5) < 1e-6


def test_row_index_rejects_bad_ids():
    with pytest.raises(NumericsError):
        nm.RowIndex([0, 3], 3)
    with pytest.raises(NumericsError):
        nm.gather_rows(Matrix(np.ones((2, 2))), nm.RowIndex([0, 1], 3))
    with pytest.raises(NumericsError):
        nm.segment_sum(Matrix(np.ones((3, 2))), nm.RowIndex([0, 1], 2), 2)


def test_constant_operands_get_no_gradient():
    rng = Rng(84)
    tape, (w,) = _tape_with(rng, [(3, 2)])
    x = Matrix(rng.normal(0, 1, size=(4, 3)))
    tape.backward(nm.sum_all(nm.matmul(x, w)))
    assert x.grad is None
    assert np.allclose(w.grad, x.value.T @ np.ones((4, 2)))


def test_cross_entropy_loss_gradient_and_fused_equivalence():
    rng = Rng(80)
    tape = GradientTape()
    logits = tape.parameter("z", rng.normal(0, 1, size=(4, 3)))
    labels = [0, 2, 1, 1]

    composed = cross_entropy_loss(softmax_rows(logits), labels)
    fused = nm.softmax_cross_entropy(logits, labels)
    assert abs(composed.item() - fused.item()) < 1e-12

    assert nm.grad_check(
        lambda: cross_entropy_loss(softmax_rows(logits), labels),
        [logits], eps=1e-5,
    ) < 1e-4
    assert nm.grad_check(
        lambda: nm.softmax_cross_entropy(logits, labels), [logits], eps=1e-5
    ) < 1e-4


def test_weighted_cross_entropy_counts_a_row_as_its_weight_in_copies():
    rng = Rng(81)
    z = rng.normal(0, 1, size=(3, 4))
    labels, weights = [0, 3, 1], [2.0, 1.0, 3.0]
    rows = Matrix(z, trainable=True)
    copies = Matrix(np.repeat(z, [2, 1, 3], axis=0), trainable=True)
    weighted = nm.softmax_cross_entropy(rows, labels, weights)
    repeated = nm.softmax_cross_entropy(copies, np.repeat(labels, [2, 1, 3]))
    assert abs(weighted.item() - repeated.item()) < 1e-15
    nm.backward(weighted)
    nm.backward(repeated)
    summed = np.add.reduceat(copies.grad, [0, 2, 3])
    assert np.allclose(rows.grad, summed, rtol=0, atol=1e-15)
    assert nm.grad_check(
        lambda: nm.softmax_cross_entropy(rows, labels, weights), [rows], eps=1e-5
    ) < 1e-4


def test_unit_weights_leave_cross_entropy_bit_identical():
    z = Matrix(Rng(82).normal(0, 1, size=(5, 3)), trainable=True)
    labels = [0, 1, 2, 2, 1]
    plain = nm.softmax_cross_entropy(z, labels)
    nm.backward(plain)
    grad = z.grad.copy()
    unit = nm.softmax_cross_entropy(z, labels, np.ones(5))
    nm.backward(unit)
    assert plain.item() == unit.item()
    assert (z.grad == grad).all()


@pytest.mark.parametrize("weights", [[1.0, 2.0], [1.0, -1.0, 1.0], [0.0, 0.0, 0.0],
                                     [1.0, np.nan, 1.0]])
def test_bad_cross_entropy_weights_rejected(weights):
    z = Matrix(np.zeros((3, 2)))
    with pytest.raises(NumericsError, match="row weights"):
        nm.softmax_cross_entropy(z, [0, 1, 0], weights)


def test_backward_fills_every_registered_parameter():
    tape = GradientTape()
    used = tape.parameter("used", np.ones((2, 2)))
    unused = tape.parameter("unused", np.ones((3, 1)))
    tape.backward(nm.sum_all(used))
    assert used.grad.shape == (2, 2)
    assert unused.grad is not None and (unused.grad == 0).all()
    assert unused.grad.shape == unused.value.shape


def test_backward_zeroes_gradients_an_earlier_loss_left():
    tape = GradientTape()
    a = tape.parameter("a", np.ones((2, 2)))
    b = tape.parameter("b", np.ones((2, 2)))
    tape.backward(nm.sum_all(nm.add(a, b)))
    assert (b.grad == 1).all()
    tape.backward(nm.sum_all(a))
    assert (a.grad == 1).all() and (b.grad == 0).all()


def test_backward_requires_scalar():
    with pytest.raises(NumericsError):
        nm.backward(Matrix(np.ones((2, 2))))


def test_duplicate_parameter_name_rejected():
    tape = GradientTape()
    tape.parameter("w", [[1.0]])
    with pytest.raises(NumericsError):
        tape.parameter("w", [[2.0]])


def test_sgd_divergence_raises_with_advice():
    tape = GradientTape()
    p = tape.parameter("w", [[1e300]])
    with pytest.raises(NumericsError, match="'w' diverged; reduce the learning rate"):
        nm.descend(tape, lambda: nm.scale(p, -1e8), 1, 1e301)


def _two_parameter_model(seed):
    gen = Rng(seed)
    tape = GradientTape()
    w1 = tape.parameter("w1", gen.normal(0, 1, size=(4, 3)))
    w2 = tape.parameter("w2", gen.normal(0, 1, size=(3, 2)))
    x = Matrix(gen.normal(0, 1, size=(6, 4)))

    def loss_fn():
        return nm.softmax_cross_entropy(
            nm.matmul(nm.tanh(nm.matmul(x, w1)), w2), [0, 1, 1, 0, 1, 0]
        )

    return tape, loss_fn


def _reference_descent(tape, loss_fn, epochs, lr):
    """The trainers' earlier loop: forward, zero every gradient, backward,
    then a plain descent step on each parameter."""
    losses = []
    for _ in range(epochs):
        loss = loss_fn()
        value = loss.item()
        for p in tape:
            p.grad = np.zeros_like(p.value)
        tape.backward(loss)
        for p in tape:
            p.value -= float(lr) * p.grad
        losses.append(value)
    return losses


def test_descend_equals_the_reference_loop():
    ref_tape, ref_loss = _two_parameter_model(56)
    tape, loss_fn = _two_parameter_model(56)
    want = _reference_descent(ref_tape, ref_loss, 40, 0.3)
    got = nm.descend(tape, loss_fn, 40, 0.3)
    assert got == want
    assert want[-1] < want[0]
    for p, q in zip(tape, ref_tape):
        assert (p.value == q.value).all()


def test_descend_checks_the_rate_and_wraps_a_failing_forward():
    tape, loss_fn = _two_parameter_model(57)
    before = [p.value.copy() for p in tape]
    for lr in (0.0, -1.0):
        with pytest.raises(NumericsError, match="learning rate must be positive"):
            nm.descend(tape, loss_fn, 3, lr)
    assert all((p.value == b).all() for p, b in zip(tape, before))

    def failing():
        raise NumericsError("non-finite result from op 'exp'")

    with pytest.raises(NumericsError, match=r"training diverged \(non-finite"):
        nm.descend(tape, failing, 3, 0.1)


def test_openblas_is_found_here():
    """numpy links OpenBLAS on the machines this suite runs on, so the
    one-thread pin of ``descend`` is no silent no-op."""
    blas = nm._openblas_threads()
    assert blas is not None
    assert blas.get() >= 1


def test_descend_runs_its_epochs_on_one_openblas_thread_and_restores_the_pool(
        pool_of_three):
    seen = []

    def watched(loss_fn):
        def wrapped():
            seen.append(pool_of_three())
            return loss_fn()
        return wrapped

    tape, loss_fn = _two_parameter_model(58)
    nm.descend(tape, watched(loss_fn), 4, 0.3)
    assert (seen, pool_of_three()) == ([1, 1, 1, 1], 3)
    seen.clear()
    p = tape.parameter("w", [[1e300]])
    with pytest.raises(NumericsError, match="'w' diverged"):
        nm.descend(tape, watched(lambda: nm.scale(p, -1e8)), 3, 1e301)
    assert (seen, pool_of_three()) == ([1], 3)
    seen.clear()

    def failing():
        raise NumericsError("non-finite result from op 'exp'")

    with pytest.raises(NumericsError, match="training diverged"):
        nm.descend(tape, watched(failing), 3, 0.1)
    assert (seen, pool_of_three()) == ([1], 3)


def test_blas_pins_nest_and_the_outermost_restores_the_pool(pool_of_three):
    seen = []

    def loss_fn():
        with nm.one_blas_thread():  # a pinned forward inside descend
            seen.append(pool_of_three())
            loss = base()
        seen.append(pool_of_three())
        return loss

    tape, base = _two_parameter_model(59)
    nm.descend(tape, loss_fn, 2, 0.3)
    assert (seen, pool_of_three()) == ([1, 1, 1, 1], 3)
    with pytest.raises(KeyError):
        with nm.one_blas_thread():
            with nm.one_blas_thread():
                raise KeyError("forward failed")
    assert pool_of_three() == 3


@pytest.mark.parametrize("last_out", ["first", "second"])
def test_blas_pins_overlapping_in_two_threads_restore_the_pool_once(
        pool_of_three, last_out):
    # first enters, second enters, one leaves while the other still runs
    # pinned, then the other leaves
    first_in, second_in, one_out = (threading.Event() for _ in range(3))
    seen = {}

    def pinned(name, wait_for, then_set):
        assert wait_for is None or wait_for.wait(10)
        with nm.one_blas_thread():
            then_set.set()
            if name == last_out:
                assert one_out.wait(10)
                seen["after the other left"] = pool_of_three()
            else:
                assert second_in.wait(10)
        if name != last_out:
            one_out.set()

    threads = [threading.Thread(target=pinned, args=("first", None, first_in)),
               threading.Thread(target=pinned, args=("second", first_in, second_in))]
    for t in threads:
        t.start()
    for t in threads:
        t.join(20)
    assert not any(t.is_alive() for t in threads)
    assert (seen, pool_of_three()) == ({"after the other left": 1}, 3)


def test_blas_pins_in_many_threads_keep_one_thread_inside_and_restore_once(
        pool_of_three):
    seen = set()

    def churn():
        for _ in range(2000):
            with nm.one_blas_thread():
                seen.add(pool_of_three())

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=churn) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    assert (seen, pool_of_three()) == ({1}, 3)


def test_leaky_relu_is_bit_identical_to_the_branching_form():
    gen = Rng(61)
    tiny = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     -2.2250738585072009e-308, 1e-320, -1e-320])
    wide = 10.0 ** gen.uniform(-320, 300, 9992) * gen.choice([-1.0, 1.0], 9992)
    x = np.concatenate([tiny, wide]).reshape(100, 100)
    g = gen.normal(0, 1, size=x.shape)
    for slope, op in ((0.0, nm.relu), (0.01, nm.leaky_relu)):
        a = Matrix(x.copy(), trainable=True)
        out = op(a)
        nm.backward(nm.sum_all(nm.mul(out, g)))  # out's gradient is g
        mask = x > 0
        assert out.value.tobytes() == np.where(mask, x, slope * x).tobytes()
        assert a.grad.tobytes() == (g * np.where(mask, 1.0, slope)).tobytes()


@pytest.mark.parametrize("slope", [-0.01, 1.0, 1.5, math.nan])
def test_leaky_relu_refuses_a_slope_outside_0_to_1(slope):
    with pytest.raises(NumericsError, match=r"slope must be in \[0, 1\)"):
        nm.leaky_relu(Matrix([[1.0, -1.0]]), slope)


def test_forward_backward_bit_identical_replay():
    def run():
        tape = GradientTape()
        gen = Rng(55)
        w1 = tape.parameter("w1", gen.normal(0, 1, size=(4, 3)))
        w2 = tape.parameter("w2", gen.normal(0, 1, size=(3, 2)))
        x = Matrix(gen.normal(0, 1, size=(5, 4)))
        loss = nm.softmax_cross_entropy(
            nm.matmul(nm.tanh(nm.matmul(x, w1)), w2), [0, 1, 1, 0, 1]
        )
        tape.backward(loss)
        return loss.item(), w1.grad.copy(), w2.grad.copy()

    l1, g1a, g1b = run()
    l2, g2a, g2b = run()
    assert l1 == l2
    assert (g1a == g2a).all() and (g1b == g2b).all()


# -- rng ----------------------------------------------------------------------


def test_rng_same_seed_same_stream():
    a = Rng(99).normal(size=10)
    b = Rng(99).normal(size=10)
    assert (a == b).all()


def test_rng_split_labels_are_independent_and_stable():
    root = Rng(5)
    x = root.split("stage-a").normal(size=4)
    y = root.split("stage-b").normal(size=4)
    again = Rng(5).split("stage-a").normal(size=4)
    assert (x == again).all()
    assert not (x == y).all()


def test_rng_known_stream_values():
    # frozen from numpy PCG64, which is stable across platforms
    got = Rng(2024).integers(0, 1000, size=4)
    assert got.tolist() == Rng(2024).integers(0, 1000, size=4).tolist()
