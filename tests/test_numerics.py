"""Autodiff ops, losses, gradient checking, and seeded randomness."""

import math

import numpy as np
import pytest
from scipy import sparse

from provrec import numerics as nm
from provrec.numerics import GradientTape, Matrix, NumericsError, Rng


# -- softmax ------------------------------------------------------------------


def test_softmax_symmetric_pair():
    assert np.allclose(nm.softmax_row([0.0, 0.0]), [0.5, 0.5])


def test_softmax_single_element():
    assert nm.softmax_row([3.7]).tolist() == [1.0]


def test_softmax_direct_formula():
    # oracle: direct exp/sum evaluation
    v = [1.0, 2.0, 3.0]
    exps = [math.exp(x) for x in v]
    total = sum(exps)
    expected = [e / total for e in exps]
    assert np.allclose(nm.softmax_row(v), expected, atol=1e-15)
    assert np.allclose(
        expected, [0.09003057317038046, 0.24472847105479764, 0.6652409557748218]
    )


def test_softmax_sums_to_one_within_1e9():
    gen = Rng(7)
    for _ in range(200):
        v = gen.uniform(-50, 50, size=int(gen.integers(1, 30)))
        out = nm.softmax_row(v)
        assert abs(out.sum() - 1.0) <= 1e-9
        assert (out >= 0).all()


def test_softmax_order_preserving_and_shift_invariant():
    gen = Rng(8)
    for _ in range(50):
        v = gen.normal(0, 5, size=6)
        out = nm.softmax_row(v)
        assert (np.argsort(out) == np.argsort(v)).all()
        shifted = nm.softmax_row(v + 13.25)
        assert np.allclose(out, shifted, atol=1e-12)


def test_softmax_empty_vector_errors():
    with pytest.raises(NumericsError):
        nm.softmax_row([])


# -- cross entropy ------------------------------------------------------------


def test_cross_entropy_one_hot_is_zero():
    pred = np.eye(4)[[2, 0, 3]]
    assert nm.cross_entropy(pred, [2, 0, 3]) == 0.0


def test_cross_entropy_uniform_is_log4():
    pred = np.full((5, 4), 0.25)
    assert abs(nm.cross_entropy(pred, [0, 1, 2, 3, 0]) - math.log(4)) < 1e-12


def test_cross_entropy_matches_scalar_recomputation():
    gen = Rng(9)
    raw = gen.uniform(0.05, 1.0, size=(3, 4))
    pred = raw / raw.sum(axis=1, keepdims=True)
    labels = [1, 3, 0]
    # oracle: explicit per-row loop
    expected = -sum(math.log(pred[i, y]) for i, y in enumerate(labels)) / 3
    assert abs(nm.cross_entropy(pred, labels) - expected) < 1e-12


def test_cross_entropy_label_out_of_range():
    with pytest.raises(NumericsError):
        nm.cross_entropy(np.full((2, 3), 1 / 3), [0, 3])


def test_cross_entropy_rejects_unnormalised_rows():
    with pytest.raises(NumericsError):
        nm.cross_entropy(np.array([[0.9, 0.3]]), [0])


# -- matrices -----------------------------------------------------------------


def test_matrix_shape_and_data_layout():
    m = Matrix([[1.0, 2.0], [3.0, 4.0]])
    assert (m.rows, m.cols) == (2, 2)
    assert m.rows * m.cols == m.data.size
    assert m.data.flags["C_CONTIGUOUS"]
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
        nm.log(Matrix([[0.0]]))


def test_shape_mismatch_raises():
    with pytest.raises(NumericsError):
        nm.add(Matrix(np.ones((2, 3))), Matrix(np.ones((3, 3))))
    with pytest.raises(NumericsError):
        nm.matmul(Matrix(np.ones((2, 3))), Matrix(np.ones((2, 3))))


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
    ("exp", [(3, 4)], lambda a: nm.exp(nm.scale(a, 0.3))),
    ("log", [(3, 4)], lambda a: nm.log(nm.add(nm.mul(a, a), Matrix(0.5)))),
    ("sqrt", [(3, 4)], lambda a: nm.sqrt(nm.add(nm.mul(a, a), Matrix(0.5)))),
    ("softmax_rows", [(4, 5)], lambda a: nm.softmax_rows(a)),
    ("concat", [(3, 2), (3, 4)], lambda a, b: nm.concat_cols(a, b)),
    ("slice", [(3, 5)], lambda a: nm.slice_cols(a, 1, 4)),
    ("slice_rows", [(5, 3)], lambda a: nm.slice_rows(a, 1, 4)),
    ("row_sums", [(3, 5)], lambda a: nm.row_sums(a)),
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
    assert np.allclose(out[:3], nm.softmax_row(scores[:3, 0]), atol=1e-12)
    assert np.allclose(out[3:5], nm.softmax_row(scores[3:5, 0]), atol=1e-12)
    assert out[5] == 1.0

    tape = GradientTape()
    s = tape.parameter("s", scores)
    probe = Matrix(rng.normal(0, 1, size=(6, 1)))

    def loss():
        return nm.sum_all(nm.mul(nm.segment_softmax(s, seg, 3), probe))

    assert nm.grad_check(loss, [s], eps=1e-5) < 1e-4


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


def test_row_index_scatter_equals_add_at_with_repeats():
    rng = Rng(82)
    for sort, width in ((False, 1), (False, 4), (True, 1), (True, 4)):
        ids = rng.integers(0, 7, size=40)
        ids[:5] = 3  # repeats guaranteed; buckets 7 and 8 stay empty
        ids = np.sort(ids) if sort else ids
        values = rng.normal(0, 1, size=(40, width))
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

    composed = nm.cross_entropy_loss(nm.softmax_rows(logits), labels)
    fused = nm.softmax_cross_entropy(logits, labels)
    assert abs(composed.item() - fused.item()) < 1e-12

    assert nm.grad_check(
        lambda: nm.cross_entropy_loss(nm.softmax_rows(logits), labels),
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
