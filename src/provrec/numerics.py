"""Dense float64 matrices with reverse-mode gradients, shared losses, seeded
randomness, and the range check every config runs on its fields.

Every trained component in this package (the node-type encoder, the
hierarchical attention encoder, the twin-branch matcher) runs on these
primitives. Operations build an implicit computation graph as a side effect;
``backward`` walks it in reverse and accumulates gradients. Any non-finite
intermediate raises immediately instead of propagating NaNs.
"""

from __future__ import annotations

import base64
import binascii
import contextlib
import ctypes
import functools
import hashlib
import math
import threading
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np
from scipy import sparse


class NumericsError(ValueError):
    """Numeric domain violation: non-finite values, bad shapes, bad labels."""


# ---------------------------------------------------------------------------
# seeded randomness
# ---------------------------------------------------------------------------


class Rng:
    """Deterministic random stream derived from a 64-bit seed.

    Streams are split per stage with :meth:`split`; the same seed and label
    path always produce the same stream, on every platform (PCG64 is
    platform-stable). All randomness in the package flows from one root
    ``Rng`` split by fixed labels.
    """

    def __init__(self, seed: int, _entropy: tuple[int, ...] | None = None):
        self.seed = int(seed)
        self._entropy = tuple(_entropy) if _entropy is not None else (self.seed,)
        self.generator = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(self._entropy))
        )

    def split(self, label: str) -> "Rng":
        """Child stream for one named stage; independent of sibling labels."""
        digest = hashlib.sha256(label.encode("utf-8")).digest()
        words = tuple(int.from_bytes(digest[i : i + 4], "big") for i in (0, 4, 8, 12))
        return Rng(self.seed, self._entropy + words)

    # thin delegation for the handful of draws the package uses
    def integers(self, low, high=None, size=None):
        return self.generator.integers(low, high=high, size=size)

    def uniform(self, low=0.0, high=1.0, size=None):
        return self.generator.uniform(low, high, size=size)

    def normal(self, loc=0.0, scale=1.0, size=None):
        return self.generator.normal(loc, scale, size=size)

    def choice(self, a, size=None, replace=True):
        return self.generator.choice(a, size=size, replace=replace)

    def permutation(self, x):
        return self.generator.permutation(x)


# ---------------------------------------------------------------------------
# config field ranges
# ---------------------------------------------------------------------------


class FieldError(ValueError):
    """A config field outside its range; ``field`` names it."""

    def __init__(self, field: str, problem: str):
        super().__init__(f"{field} {problem}")
        self.field, self.problem = field, problem


class Range(NamedTuple):
    """The values one config field takes: a phrase naming them and the test
    of a value. Bools are not numbers here, and NaN passes no test."""

    phrase: str
    holds: Callable[[object], bool]


def is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def at_least(low: int) -> Range:
    return Range(f"an integer at least {low}", lambda v: type(v) is int and v >= low)


POSITIVE = Range("a finite number above 0", lambda v: is_number(v) and 0 < v < math.inf)
SEED = at_least(0)


def check_fields(config, ranges: dict[str, Range]) -> None:
    """Refuse the first field of ``config`` named in ``ranges`` whose value
    is outside its range, with :class:`FieldError`."""
    for name, (phrase, holds) in ranges.items():
        value = getattr(config, name)
        if not holds(value):
            raise FieldError(name, f"must be {phrase}, not {value!r}")


# ---------------------------------------------------------------------------
# checkpoint arrays
# ---------------------------------------------------------------------------


def encode_array(value: np.ndarray) -> str:
    """Base64 text of ``value``'s little-endian float64 bytes in C order."""
    raw = np.ascontiguousarray(value, dtype="<f8").tobytes()
    return base64.b64encode(raw).decode("ascii")


def decode_array(value, shape: Sequence[int] | None) -> np.ndarray:
    """The float64 array of ``shape`` that :func:`encode_array` wrote.

    ``value`` may also be a (nested) list of numbers, as version-1
    checkpoints stored arrays; their shortest round-trip reprs read back bit
    for bit. ``shape`` None takes a 1-D array of any length. Text that is not
    base64, a byte or value count that does not fill ``shape`` and
    non-finite values raise :class:`NumericsError`.
    """
    if isinstance(value, str):
        try:
            raw = base64.b64decode(value, validate=True)
        except binascii.Error as exc:
            raise NumericsError(f"array text is not base64: {exc}") from None
        if len(raw) % 8:
            raise NumericsError(f"{len(raw)} bytes are not whole float64 values")
        flat = np.frombuffer(raw, dtype="<f8").astype(np.float64)
    else:
        flat = np.array(value, dtype=np.float64).reshape(-1)
    if shape is None:
        shape = flat.shape
    elif flat.size != math.prod(shape):
        raise NumericsError(f"{flat.size} values do not fill shape {tuple(shape)}")
    if not np.isfinite(flat).all():
        raise NumericsError("array holds non-finite values")
    return flat.reshape(shape)


# ---------------------------------------------------------------------------
# matrices and the implicit operation graph
# ---------------------------------------------------------------------------


def _as_value(value) -> np.ndarray:
    arr = np.array(value, dtype=np.float64, order="C")
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    elif arr.ndim == 1:
        arr = arr.reshape(1, -1)
    elif arr.ndim != 2:
        raise NumericsError(f"Matrix values must be at most 2-D, got shape {arr.shape}")
    return arr


class Matrix:
    """2-D float64 value participating in reverse-mode differentiation.

    Data is row-major. Scalars are 1x1, vectors are 1xN rows. Results of
    every operation must be finite; NaN/Inf raises :class:`NumericsError`.
    """

    __slots__ = ("value", "grad", "trainable", "name", "_edges")

    def __init__(self, value, *, trainable: bool = False, name: str | None = None):
        self.value = _as_value(value)
        if not np.isfinite(self.value).all():
            raise NumericsError(f"non-finite values in Matrix {name or ''}")
        self.grad: np.ndarray | None = None
        self.trainable = trainable
        self.name = name
        # (input, vjp) pairs: vjp maps this matrix's gradient to the input's share
        self._edges: tuple[tuple[Matrix, Callable[[np.ndarray], np.ndarray]], ...] = ()

    @classmethod
    def _from_op(cls, value: np.ndarray, op: str, *operands) -> "Matrix":
        """Result of ``op``; each operand pairs an input with the function
        mapping the output gradient to that input's gradient contribution.

        Inputs that are constants (not trainable and not computed from
        anything trainable) are dropped with their function, so the reverse
        pass never computes their gradients and a forward over constants
        records nothing.
        """
        out = cls.__new__(cls)
        arr = np.ascontiguousarray(value, dtype=np.float64)
        if not np.isfinite(arr).all():
            raise NumericsError(f"non-finite result from op '{op}'")
        out.value = arr
        out.grad = None
        out.trainable = False
        out.name = None
        out._edges = tuple([o for o in operands if o[0].trainable or o[0]._edges])
        return out

    @property
    def rows(self) -> int:
        return self.value.shape[0]

    @property
    def cols(self) -> int:
        return self.value.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.value.shape

    def item(self) -> float:
        if self.value.size != 1:
            raise NumericsError(f"item() on non-scalar matrix of shape {self.shape}")
        return float(self.value[0, 0])

    def __repr__(self) -> str:
        tag = f" name={self.name!r}" if self.name else ""
        return f"Matrix(shape={self.shape}{tag})"


def _wrap(x) -> Matrix:
    return x if isinstance(x, Matrix) else Matrix(x)


def _reduce_to(grad: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Sum a broadcast gradient back down to the operand's shape."""
    out = grad
    if shape[0] == 1 and out.shape[0] > 1:
        out = out.sum(axis=0, keepdims=True)
    if shape[1] == 1 and out.shape[1] > 1:
        out = out.sum(axis=1, keepdims=True)
    return out


def _binary_value(a: Matrix, b: Matrix, fn, op: str) -> np.ndarray:
    try:
        # overflow/invalid are surfaced as NumericsError by the finite check
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return fn(a.value, b.value)
    except ValueError as exc:
        raise NumericsError(f"shape mismatch in '{op}': {a.shape} vs {b.shape}") from exc


class RowIndex:
    """Integer ids into ``size`` rows (or segment buckets), checked once.

    Gathers along the ids and sums back onto the rows reuse one instance:
    the one-hot scatter matrix and the sorted runs are built on first use and
    kept, so an index made once serves every epoch of a training run.
    Scattered sums add each row's contributions in the order the ids list
    them, as ``np.add.at`` would.
    """

    __slots__ = ("ids", "size", "_sorted", "_scatter", "_runs")

    def __init__(self, ids, size: int):
        ids = np.asarray(ids, dtype=np.intp)
        if ids.ndim != 1:
            raise NumericsError("row index must be 1-D")
        if ids.size and (ids.min() < 0 or ids.max() >= size):
            raise NumericsError(f"row index out of range for {size} rows")
        self.ids = ids
        self.size = int(size)
        self._sorted: tuple[np.ndarray, np.ndarray] | None = None
        self._scatter = None
        self._runs = None

    def __len__(self) -> int:
        return self.ids.size

    def _sorted_runs(self) -> tuple[np.ndarray, np.ndarray]:
        """The stable sort order of the ids and where each row's run starts
        in it: row r's ids are ``order[indptr[r]:indptr[r + 1]]``."""
        if self._sorted is None:
            indptr = np.zeros(self.size + 1, dtype=np.intp)
            np.cumsum(np.bincount(self.ids, minlength=self.size), out=indptr[1:])
            self._sorted = (np.argsort(self.ids, kind="stable"), indptr)
        return self._sorted

    def scatter_add(self, values: np.ndarray) -> np.ndarray:
        """(size, c) array whose row r sums the rows of ``values`` with id r.

        One column goes through ``np.bincount``; wider values through the
        one-hot CSR matrix, whose call overhead pays off across columns.
        """
        if values.shape[1] == 1:
            return np.bincount(self.ids, values[:, 0], self.size).reshape(-1, 1)
        if self._scatter is None:
            self._scatter = sparse.csr_matrix(
                (np.ones(self.ids.size), *self._sorted_runs()),
                shape=(self.size, self.ids.size),
            )
        return self._scatter @ values

    def segment_max(self, values: np.ndarray) -> np.ndarray:
        """Per-bucket maximum of a 1-D ``values``; 0 for empty buckets."""
        order, indptr = self._sorted_runs()
        if self._runs is None:
            present = np.flatnonzero(indptr[1:] > indptr[:-1])  # buckets with rows
            self._runs = (present, indptr[present])
        present, starts = self._runs
        out = np.zeros(self.size)
        out[present] = np.maximum.reduceat(values[order], starts)
        return out


class RowWeights:
    """Finite, non-negative row weights with a positive sum, checked once.

    Weighted softmaxes and losses take an instance as it is, so weights kept
    beside a batch (its class sizes and pair counts) are not checked again on
    every forward. ``values`` is the float64 array.
    """

    __slots__ = ("values",)

    def __init__(self, weights):
        w = np.asarray(weights, dtype=np.float64).reshape(-1)
        if not np.isfinite(w).all() or (w < 0).any() or w.sum() <= 0:
            raise NumericsError("expected finite non-negative row weights with a positive sum")
        self.values = w

    def __len__(self) -> int:
        return self.values.size


def _row_index(index, size: int) -> RowIndex:
    if isinstance(index, RowIndex):
        if index.size != size:
            raise NumericsError(f"row index spans {index.size} rows, expected {size}")
        return index
    return RowIndex(index, size)


def _segments(segments, num_segments: int, rows: int) -> RowIndex:
    seg = _row_index(segments, num_segments)
    if len(seg) != rows:
        raise NumericsError("segment ids must align with rows")
    return seg


def add(a, b) -> Matrix:
    a, b = _wrap(a), _wrap(b)
    value = _binary_value(a, b, np.add, "add")
    return Matrix._from_op(value, "add", (a, lambda g: _reduce_to(g, a.shape)),
                           (b, lambda g: _reduce_to(g, b.shape)))


def sub(a, b) -> Matrix:
    a, b = _wrap(a), _wrap(b)
    value = _binary_value(a, b, np.subtract, "sub")
    return Matrix._from_op(value, "sub", (a, lambda g: _reduce_to(g, a.shape)),
                           (b, lambda g: _reduce_to(-g, b.shape)))


def mul(a, b) -> Matrix:
    a, b = _wrap(a), _wrap(b)
    value = _binary_value(a, b, np.multiply, "mul")
    return Matrix._from_op(
        value, "mul", (a, lambda g: _reduce_to(g * b.value, a.shape)),
        (b, lambda g: _reduce_to(g * a.value, b.shape)),
    )


def div(a, b) -> Matrix:
    a, b = _wrap(a), _wrap(b)
    value = _binary_value(a, b, np.divide, "div")
    return Matrix._from_op(
        value, "div", (a, lambda g: _reduce_to(g / b.value, a.shape)),
        (b, lambda g: _reduce_to(-g * a.value / (b.value * b.value), b.shape)),
    )


def scale(a, k: float) -> Matrix:
    a = _wrap(a)
    k = float(k)
    return Matrix._from_op(a.value * k, "scale", (a, lambda g: g * k))


# Rows per block of the weight-gradient product ``a.T @ g``. OpenBLAS splits
# a long reduction differently by thread count, so the blocks are summed in
# a fixed order to make weights the same for every pool size. 256 is below
# the 384 rows where 1- and 2-thread sums were first seen to differ.
MATMUL_VJP_ROW_BLOCK = 256


def _blocked_tmatmul(a: np.ndarray, g: np.ndarray) -> np.ndarray:
    """``a.T @ g`` as the in-order sum over blocks of ``MATMUL_VJP_ROW_BLOCK`` rows."""
    step = MATMUL_VJP_ROW_BLOCK
    out = a[:step].T @ g[:step]
    for start in range(step, a.shape[0], step):
        out += a[start:start + step].T @ g[start:start + step]
    return out


def matmul(a, b) -> Matrix:
    a, b = _wrap(a), _wrap(b)
    if a.cols != b.rows:
        raise NumericsError(f"matmul dimension mismatch: {a.shape} @ {b.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        value = a.value @ b.value
    return Matrix._from_op(value, "matmul", (a, lambda g: g @ b.value.T),
                           (b, lambda g: _blocked_tmatmul(a.value, g)))


def spmm(s, b) -> Matrix:
    """Constant sparse matrix times dense matrix; gradient flows to ``b`` only.

    A CSR ``s`` keeps the transpose its gradient needs, built on the first
    backward pass, so a matrix reused every epoch is transposed once; do not
    modify ``s`` in place after using it here.
    """
    b = _wrap(b)
    if not (sparse.issparse(s) and s.format == "csr"):
        s = sparse.csr_matrix(s)
    if s.shape[1] != b.rows:
        raise NumericsError(f"spmm dimension mismatch: {s.shape} @ {b.shape}")

    def vjp(g):
        st = getattr(s, "_provrec_transpose", None)
        if st is None:
            st = s.T.tocsr()
            s._provrec_transpose = st
        return st @ g

    return Matrix._from_op(s @ b.value, "spmm", (b, vjp))


def transpose(a) -> Matrix:
    a = _wrap(a)
    return Matrix._from_op(a.value.T, "transpose", (a, lambda g: g.T))


def gather_rows(a, index) -> Matrix:
    """Select rows by integer index (array or :class:`RowIndex`); backward
    scatter-adds."""
    a = _wrap(a)
    idx = _row_index(index, a.rows)
    return Matrix._from_op(a.value[idx.ids], "gather_rows", (a, idx.scatter_add))


def segment_sum(a, segments, num_segments: int) -> Matrix:
    """Sum rows of ``a`` into ``num_segments`` buckets given per-row ids
    (an array or a :class:`RowIndex` of that size)."""
    a = _wrap(a)
    seg = _segments(segments, num_segments, a.rows)
    return Matrix._from_op(
        seg.scatter_add(a.value), "segment_sum", (a, lambda g: g[seg.ids])
    )


def concat_rows(parts: Sequence) -> Matrix:
    """Stack matrices of one width top to bottom; each part's gradient is its
    own row slice of the output gradient."""
    parts = [_wrap(p) for p in parts]
    if not parts:
        raise NumericsError("concat_rows needs at least one part")
    if len({p.cols for p in parts}) != 1:
        raise NumericsError(f"concat_rows width mismatch: {[p.shape for p in parts]}")
    stops = np.cumsum([p.rows for p in parts])
    value = np.concatenate([p.value for p in parts], axis=0)
    return Matrix._from_op(value, "concat_rows", *(
        (p, lambda g, lo=stop - p.rows, hi=stop: g[lo:hi])
        for p, stop in zip(parts, stops)
    ))


def slice_rows(a, start: int, stop: int) -> Matrix:
    a = _wrap(a)

    def vjp(g):
        out = np.zeros_like(a.value)
        out[start:stop] = g
        return out

    return Matrix._from_op(a.value[start:stop], "slice_rows", (a, vjp))


def leaky_relu(a, slope: float = 0.01) -> Matrix:
    # branch-free: np.where on a mixed-sign mask mispredicts. Both forms give
    # the same bits for 0 <= slope < 1, since (1 - slope) + slope rounds to 1.
    if not 0.0 <= slope < 1.0:
        raise NumericsError(f"leaky_relu slope must be in [0, 1), not {slope!r}")
    a = _wrap(a)
    mask = a.value > 0
    value = np.maximum(a.value, slope * a.value)
    return Matrix._from_op(
        value, "leaky_relu", (a, lambda g: g * (mask * (1.0 - slope) + slope))
    )


def relu(a) -> Matrix:
    return leaky_relu(a, slope=0.0)


def tanh(a) -> Matrix:
    a = _wrap(a)
    t = np.tanh(a.value)
    return Matrix._from_op(t, "tanh", (a, lambda g: g * (1.0 - t * t)))


def sqrt(a) -> Matrix:
    """Elementwise square root. Its gradient at 0 is taken as 0: the
    derivative is unbounded there, and in ``sqrt(sum of squares)`` 0 is a
    subgradient of the Euclidean norm at the origin."""
    a = _wrap(a)
    if (a.value < 0).any():
        raise NumericsError("sqrt of negative value")
    r = np.sqrt(a.value)

    def vjp(g):
        return np.divide(g, 2.0 * r, out=np.zeros_like(g), where=r > 0)

    return Matrix._from_op(r, "sqrt", (a, vjp))


def sum_all(a) -> Matrix:
    a = _wrap(a)
    return Matrix._from_op(np.array([[a.value.sum()]]), "sum_all",
                           (a, lambda g: np.full_like(a.value, g[0, 0])))


def row_sums(a) -> Matrix:
    """Sum across each row: (n, c) -> (n, 1)."""
    a = _wrap(a)
    c = a.cols
    return Matrix._from_op(a.value.sum(axis=1, keepdims=True), "row_sums",
                           (a, lambda g: np.repeat(g, c, axis=1)))


def _row_weights(weights, n: int) -> np.ndarray:
    """``weights`` as n finite, non-negative row weights, positive in total."""
    if not isinstance(weights, RowWeights):
        weights = RowWeights(weights)
    if len(weights) != n:
        raise NumericsError(f"expected {n} row weights, got {len(weights)}")
    return weights.values


def segment_softmax(scores, segments, num_segments: int, weights=None) -> Matrix:
    """Softmax of an (m, 1) score column within each segment bucket.

    ``segments`` is as for :func:`segment_sum`. Scores are shifted by their
    segment's max before exponentiating (softmax is shift-invariant within
    a segment, so the gradient is unchanged). With ``weights`` (an array,
    checked as for :func:`softmax_cross_entropy`, or a :class:`RowWeights`,
    checked when made) row k gets ``w_k e^{s_k} / Σ_j w_j
    e^{s_j}``, so a row of weight c counts as c equal rows. That is the
    plain softmax of ``s + log w``, so the gradient is unchanged too.
    """
    scores = _wrap(scores)
    if scores.cols != 1:
        raise NumericsError("segment_softmax expects a column of scores")
    seg = _segments(segments, num_segments, scores.rows)
    shifted = scores.value[:, 0] - seg.segment_max(scores.value[:, 0])[seg.ids]
    e = np.exp(shifted).reshape(-1, 1)
    if weights is not None:
        e *= _row_weights(weights, scores.rows).reshape(-1, 1)
    p = e / seg.scatter_add(e)[seg.ids]

    def vjp(g):
        return p * (g - seg.scatter_add(g * p)[seg.ids])

    return Matrix._from_op(p, "segment_softmax", (scores, vjp))


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------


def _check_labels(labels, n_rows: int, n_cols: int) -> np.ndarray:
    y = np.asarray(labels, dtype=np.intp).reshape(-1)
    if y.shape != (n_rows,):
        raise NumericsError(f"expected {n_rows} labels, got {y.shape}")
    if y.size and (y.min() < 0 or y.max() >= n_cols):
        raise NumericsError(f"label out of range for {n_cols} classes")
    return y


def softmax_cross_entropy(logits: Matrix, labels, weights=None) -> Matrix:
    """Fused row softmax + cross-entropy on logits (log-sum-exp form).

    The loss is the mean over rows. With ``weights`` (one finite,
    non-negative value per row, positive in total) it is the weighted mean
    ``sum(w * ce) / sum(w)``, so a row of weight k counts as k equal rows.
    """
    logits = _wrap(logits)
    y = _check_labels(labels, logits.rows, logits.cols)
    n = logits.rows
    w = np.ones(n) if weights is None else _row_weights(weights, n)
    total = w.sum()
    z = logits.value
    m = z.max(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(z - m).sum(axis=1))
    value = float(((lse - z[np.arange(n), y]) * w).sum() / total)
    p = np.exp(z - m)
    p /= p.sum(axis=1, keepdims=True)

    def vjp(g):
        out = p.copy()
        out[np.arange(n), y] -= 1.0
        return out * (w[:, None] * (g[0, 0] / total))

    return Matrix._from_op(
        np.array([[value]]), "softmax_cross_entropy", (logits, vjp)
    )


# ---------------------------------------------------------------------------
# reverse pass, parameter registry, optimisation
# ---------------------------------------------------------------------------


def _topo_order(root: Matrix) -> list[Matrix]:
    order: list[Matrix] = []
    seen: set[int] = set()
    stack: list[tuple[Matrix, bool]] = [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent, _ in node._edges:
            if id(parent) not in seen:
                stack.append((parent, False))
    return order


def backward(loss: Matrix) -> None:
    """Populate ``.grad`` on every node reachable from a 1x1 loss.

    Grads of the reachable nodes are overwritten, not accumulated across
    calls; run one backward per forward graph.
    """
    if loss.shape != (1, 1):
        raise NumericsError(f"backward needs a scalar loss, got shape {loss.shape}")
    order = _topo_order(loss)
    for node in order:
        node.grad = None
    loss.grad = np.ones((1, 1))
    for node in reversed(order):
        if node.grad is None:
            continue
        for parent, vjp in node._edges:
            contribution = vjp(node.grad)
            if parent.grad is None:
                # a fresh array is adopted; one that aliases a gradient (the
                # incoming one or a view of it) is copied before it is summed into
                aliased = contribution is node.grad or contribution.base is not None
                parent.grad = contribution.copy() if aliased else contribution
            else:
                parent.grad += contribution


class GradientTape:
    """Registry of trainable parameters plus the reverse-pass entry point.

    Single-threaded per training run. After :meth:`backward`, every
    registered parameter carries a gradient of its own shape (zeros when the
    parameter does not reach the loss).
    """

    def __init__(self):
        self._params: dict[str, Matrix] = {}

    def parameter(self, name: str, value) -> Matrix:
        if name in self._params:
            raise NumericsError(f"duplicate parameter name {name!r}")
        p = Matrix(value, trainable=True, name=name)
        self._params[name] = p
        return p

    def __iter__(self):
        return iter(self._params.values())

    def backward(self, loss: Matrix) -> None:
        for p in self._params.values():
            p.grad = None  # a parameter this loss does not reach gets zeros
        backward(loss)
        for p in self._params.values():
            if p.grad is None:
                p.grad = np.zeros_like(p.value)


class _BlasThreads(NamedTuple):
    get: Callable[[], int]
    set: Callable[[int], None]


@functools.cache
def _openblas_threads() -> _BlasThreads | None:
    """The get and set functions of the thread count of numpy's OpenBLAS, or
    None when numpy's BLAS is not an OpenBLAS.

    The library is looked for among those the process has mapped (Linux),
    numpy's own copy first, then in numpy's ``numpy.libs`` directory; its
    functions are named ``scipy_openblas_*`` in numpy's wheels and
    ``openblas_*`` in a plain OpenBLAS, with a ``64_`` suffix in 64-bit-int
    builds.
    """
    libs_dir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    try:
        with open("/proc/self/maps", encoding="utf-8", errors="replace") as fh:
            mapped = [line.split(maxsplit=5)[-1].strip() for line in fh]
    except OSError:
        mapped = []
    found = [p for p in dict.fromkeys(mapped) if "openblas" in Path(p).name.lower()]
    found.sort(key=lambda p: Path(p).parent != libs_dir)
    found += map(str, sorted(libs_dir.glob("*openblas*")))
    for path in found:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
                if get and set_:
                    set_.argtypes, set_.restype = [ctypes.c_int], None
                    return _BlasThreads(get, set_)
    return None


_pin_lock = threading.Lock()
_pin_depth = 0  # open one_blas_thread blocks, over all threads
_pin_caller = 0  # the pool size the outermost block restores


@contextlib.contextmanager
def one_blas_thread():
    """Run the block on one OpenBLAS thread and give the caller its pool size
    back when the last open block exits, also on error.

    OpenBLAS's idle worker busy-waits after each threaded GEMM, and the GEMMs
    of this package's models are too small to gain wall time from a second
    thread. The pool size is process-wide, so blocks nest and may overlap
    across threads: the first to enter saves the caller's size and the last
    to leave restores it. Without OpenBLAS the block runs as it is.
    """
    global _pin_depth, _pin_caller
    blas = _openblas_threads()
    if blas is None:
        yield
        return
    with _pin_lock:
        if _pin_depth == 0:
            _pin_caller = blas.get()
            blas.set(1)
        _pin_depth += 1
    try:
        yield
    finally:
        with _pin_lock:
            _pin_depth -= 1
            if _pin_depth == 0:
                blas.set(_pin_caller)


def descend(
    tape: GradientTape, loss_fn: Callable[[], Matrix], epochs: int, lr: float
) -> list[float]:
    """Full-batch gradient descent on every parameter of ``tape``; returns the
    loss of each epoch. ``loss_fn`` rebuilds the forward from the current
    parameter values. A forward or a step that goes non-finite raises
    :class:`NumericsError` advising a smaller learning rate.

    The epochs run on one OpenBLAS thread, as every model forward does
    (:func:`one_blas_thread`); the caller's thread count is restored on
    return and on error.
    """
    if lr <= 0:
        raise NumericsError("learning rate must be positive")
    losses: list[float] = []
    with one_blas_thread():
        for _ in range(epochs):
            try:
                loss = loss_fn()
            except NumericsError as exc:
                raise NumericsError(
                    f"training diverged ({exc}); reduce the learning rate"
                ) from None
            tape.backward(loss)
            for p in tape:
                with np.errstate(over="ignore", invalid="ignore"):
                    p.value -= lr * p.grad
                if not np.isfinite(p.value).all():
                    raise NumericsError(
                        f"parameter {p.name!r} diverged; reduce the learning rate"
                    )
            losses.append(loss.item())
    return losses


def grad_check(
    loss_fn: Callable[[], Matrix],
    params: Iterable[Matrix] | GradientTape,
    eps: float = 1e-5,
) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``loss_fn`` must rebuild the forward graph from the current parameter
    values on every call and return a 1x1 matrix. The reported error is
    ``|analytic - numeric| / max(1, |analytic|)`` maximised over every entry
    of every parameter.
    """
    plist: Sequence[Matrix] = list(params)
    loss = loss_fn()
    if not isinstance(loss, Matrix) or loss.shape != (1, 1):
        raise NumericsError("loss_fn must return a scalar Matrix")
    backward(loss)
    analytic = [
        p.grad.copy() if p.grad is not None else np.zeros_like(p.value) for p in plist
    ]
    worst = 0.0
    for p, ana in zip(plist, analytic):
        flat = p.value.reshape(-1)
        flat_ana = ana.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            up = loss_fn().item()
            flat[i] = orig - eps
            down = loss_fn().item()
            flat[i] = orig
            numeric = (up - down) / (2.0 * eps)
            err = abs(flat_ana[i] - numeric) / max(1.0, abs(flat_ana[i]))
            worst = max(worst, err)
    return worst
