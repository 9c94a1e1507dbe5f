"""Dense float64 tensors on a dynamic tape with reverse-mode differentiation.

Everything is desk-scale: values are small numpy arrays (scalars, vectors,
matrices), the tape is rebuilt per sequence, and backward is a single reverse
walk over the tape. A forward op computes only its value; any factor that
only its derivative needs (a sigmoid, a relu mask, a slice offset) is
computed in the reverse walk, so a forward that is never differentiated pays
nothing for it. Each op has one reverse rule, a module-level function
``rule(node, adj)`` shared by every node of that op: it reads its operands
from ``node.parents``, ``node.value`` and the parents' values, and hands
each parent its share of ``adj``. A node therefore carries no closure, only
a reference to its op's rule. Adjoints are computed in fresh per-call buffers
and never mutated in place; every node sums its adjoint as the walk reaches
it. The results are added into ``Node.grad``, so repeated ``backward`` calls
accumulate. ``add`` and ``mul`` take two nodes of one shape; an array enters
the tape through ``Tape.const``. The package only records forward graphs
(``model.forward``): training takes its gradients from ``model.backward`` by
hand, and only the tests walk a tape, as the slow reference of that backward.

Tape lifetime: every node holds its tape and the tape lists every node, so a
tape is one large reference cycle. Left alone, the cyclic garbage collector
walks it again and again while it grows and frees it only in a late full
collection. ``tape_scope()`` bounds that lifetime: inside it the collector is
paused, and on exit every tape created inside is released (its node list is
dropped), so reference counting frees the nodes at once, and with them
only what each holds: its value array, its parents tuple and, for the
slicing ops, its index. A released tape
raises ``ValueError`` on a new node or on ``backward``. The scope pauses the
process-wide collector, in line with the rule that a tape belongs to one
thread.
"""

from __future__ import annotations

import contextlib
import gc

import numpy as np

__all__ = [
    "Tape", "Node", "backward", "tape_scope",
    "add", "mul", "tanh", "sigmoid", "relu", "softplus", "linear", "matvec",
    "vsum", "concat", "vslice", "row", "reshape", "transpose",
    "matmul", "add_col", "concat_rows", "rowslice", "softmax_cols",
]


class Node:
    """One value in the computation graph.

    ``value`` and ``grad`` always share a shape; ``parents`` point backwards
    to the inputs of the producing operation, so the tape order is already
    topological. After ``backward``, a leaf's ``grad`` is a private array
    that callers may add into in place; an interior node's ``grad`` is its
    adjoint itself, no copy, which may be shared with other nodes and must be
    treated as read-only.

    ``op`` names the producing operation and ``_bw`` is its shared reverse
    rule, called as ``_bw(node, adj)``; leaves and constants have none.
    ``_arg`` holds the index of the slicing ops (``vslice``, ``row``,
    ``rowslice``) and is None on every other node.
    """

    __slots__ = ("tape", "value", "parents", "op", "_grad", "_bw", "_arg", "_adj")

    def __init__(self, tape, value, parents=(), op="leaf", bw=None, arg=None):
        self.tape = tape
        self.value = value
        self.parents = parents
        self.op = op
        self._grad = None
        self._bw = bw
        self._arg = arg
        self._adj = None
        nodes = tape._nodes
        if nodes is None:
            raise ValueError(_RELEASED)
        nodes.append(self)

    @property
    def grad(self) -> np.ndarray:
        if self._grad is None:
            self._grad = np.zeros_like(self.value)
        return self._grad

    def __repr__(self):
        return f"Node(op={self.op!r}, shape={self.value.shape})"


_RELEASED = "tape was released at the end of its tape_scope"

# the tapes created in each open tape_scope, innermost scope last
_scopes = []


class Tape:
    """Ordered record of Nodes, rebuilt per sequence (define-by-run).

    A tape and its nodes belong to one thread. A tape created inside
    ``tape_scope()`` lives until the scope exits; after that it is released
    and accepts neither new nodes nor ``backward``.
    """

    __slots__ = ("_nodes",)

    def __init__(self):
        self._nodes = []
        if _scopes:
            _scopes[-1].append(self)

    def _live_nodes(self) -> list:
        if self._nodes is None:
            raise ValueError(_RELEASED)
        return self._nodes

    def __len__(self):
        return len(self._live_nodes())

    def nodes(self):
        return list(self._live_nodes())

    def leaf(self, data, op: str = "leaf") -> Node:
        return Node(self, np.asarray(data, dtype=np.float64, order="C"), (), op)

    def const(self, data) -> Node:
        return Node(self, np.asarray(data, dtype=np.float64, order="C"), (), "const")


@contextlib.contextmanager
def tape_scope():
    """Pause the cyclic GC and release every tape created inside on exit.

    Results the caller keeps must be plain values (floats, arrays): nodes of
    a released tape are freed by reference counting once unreachable. The
    collector is re-enabled only if this scope paused it, so nested scopes
    and callers that disabled it themselves keep their setting.
    """
    paused = gc.isenabled()
    if paused:
        gc.disable()
    tapes = []
    _scopes.append(tapes)
    try:
        yield
    finally:
        _scopes.pop()
        for tape in tapes:
            tape._nodes = None
        if paused:
            gc.enable()


def _same_tape(*nodes) -> Tape:
    tape = nodes[0].tape
    for n in nodes[1:]:
        if n.tape is not tape:
            raise ValueError("operands belong to different tapes")
    return tape


def _acc(node: Node, g: np.ndarray):
    # adjoint buffers are never mutated in place, so aliasing is safe
    node._adj = g if node._adj is None else node._adj + g


def backward(tape: Tape, root: Node):
    """Accumulate d(root)/d(node) into every node's grad; root must be scalar."""
    if root.value.shape != ():
        raise ValueError(f"backward root must be scalar, got shape {root.value.shape}")
    nodes = tape._live_nodes()
    for n in nodes:
        n._adj = None
    root._adj = np.ones((), dtype=np.float64)
    # non-finite adjoints are reported by the caller's gradient check, by name
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for n in reversed(nodes):
            if n._adj is not None and n._bw is not None:
                n._bw(n, n._adj)
        for n in nodes:
            adj = n._adj
            if adj is not None:
                if n._grad is not None:
                    n._grad = n._grad + adj
                else:
                    # a leaf's grad may be added into in place; an interior one is not
                    n._grad = adj.copy() if n._bw is None else adj
                n._adj = None


# ---------------------------------------------------------------------------
# elementwise operations


def _operands(x, y, op: str) -> Tape:
    """The tape of a binary op on two nodes of one shape and one tape."""
    if x.__class__ is not Node or y.__class__ is not Node:
        raise ValueError(f"{op} takes two nodes, got {type(x).__name__} and {type(y).__name__}")
    tape = x.tape
    if y.tape is not tape:
        raise ValueError("operands belong to different tapes")
    if x.value.shape != y.value.shape:
        raise ValueError(f"{op}: shape mismatch {x.value.shape} vs {y.value.shape}")
    return tape


def _add_bw(node: Node, adj: np.ndarray):
    x, y = node.parents
    _acc(x, adj)
    _acc(y, adj)


def add(x: Node, y: Node) -> Node:
    return Node(_operands(x, y, "add"), x.value + y.value, (x, y), "add", _add_bw)


def _mul_bw(node: Node, adj: np.ndarray):
    x, y = node.parents
    _acc(x, adj * y.value)
    _acc(y, adj * x.value)


def mul(x: Node, y: Node) -> Node:
    return Node(_operands(x, y, "mul"), x.value * y.value, (x, y), "mul", _mul_bw)


def _tanh_bw(node: Node, adj: np.ndarray):
    val = node.value
    _acc(node.parents[0], adj * (1.0 - val * val))


def tanh(x: Node) -> Node:
    return Node(x.tape, np.tanh(x.value), (x,), "tanh", _tanh_bw)


def _sigmoid_val(v: np.ndarray) -> np.ndarray:
    # 1 / (1 + e^-v) = exp(-softplus(-v)): no overflow, and full relative
    # precision where the value underflows towards 0 (unlike 0.5*(1+tanh(v/2)))
    return np.exp(-np.logaddexp(0.0, -v))


def _sigmoid_bw(node: Node, adj: np.ndarray):
    val = node.value
    _acc(node.parents[0], adj * val * (1.0 - val))


def sigmoid(x: Node) -> Node:
    return Node(x.tape, _sigmoid_val(x.value), (x,), "sigmoid", _sigmoid_bw)


def _relu_bw(node: Node, adj: np.ndarray):
    x = node.parents[0]
    _acc(x, adj * (x.value > 0.0))


def relu(x: Node) -> Node:
    return Node(x.tape, np.maximum(x.value, 0.0), (x,), "relu", _relu_bw)


def _softplus_bw(node: Node, adj: np.ndarray):
    x = node.parents[0]
    _acc(x, adj * _sigmoid_val(x.value))


def softplus(x: Node) -> Node:
    xv = x.value
    # log1p(exp(-|x|)) + max(x, 0): stable for large |x|, strictly positive
    val = np.log1p(np.exp(-np.abs(xv))) + np.maximum(xv, 0.0)
    return Node(x.tape, val, (x,), "softplus", _softplus_bw)


# ---------------------------------------------------------------------------
# linear algebra and structural operations


def _linear_bw(node: Node, adj: np.ndarray):
    W, x, b = node.parents
    _acc(W, adj[:, None] @ x.value[None, :])
    _acc(x, W.value.T @ adj)
    _acc(b, adj)


def linear(W: Node, x: Node, b: Node) -> Node:
    """W @ x + b for W (out, in), x (in,), b (out,)."""
    tape = _same_tape(W, x, b)
    Wv, xv, bv = W.value, x.value, b.value
    if Wv.ndim != 2 or xv.ndim != 1 or bv.ndim != 1:
        raise ValueError("linear expects matrix, vector, vector")
    if Wv.shape[1] != xv.shape[0] or Wv.shape[0] != bv.shape[0]:
        raise ValueError(f"linear: incompatible shapes {Wv.shape}, {xv.shape}, {bv.shape}")
    return Node(tape, Wv @ xv + bv, (W, x, b), "linear", _linear_bw)


def _matvec_bw(node: Node, adj: np.ndarray):
    A, x = node.parents
    _acc(A, adj[:, None] @ x.value[None, :])
    _acc(x, A.value.T @ adj)


def matvec(A: Node, x: Node) -> Node:
    tape = _same_tape(A, x)
    Av, xv = A.value, x.value
    if Av.ndim != 2 or xv.ndim != 1 or Av.shape[1] != xv.shape[0]:
        raise ValueError(f"matvec: incompatible shapes {Av.shape}, {xv.shape}")
    return Node(tape, Av @ xv, (A, x), "matvec", _matvec_bw)


def _vsum_bw(node: Node, adj: np.ndarray):
    x = node.parents[0]
    _acc(x, np.broadcast_to(adj, x.value.shape))


def vsum(x: Node) -> Node:
    return Node(x.tape, np.asarray(np.sum(x.value)), (x,), "vsum", _vsum_bw)


def _concat_bw(node: Node, adj: np.ndarray):
    # hand each part its leading-axis block of the concatenation's adjoint
    off = 0
    for p in node.parents:
        end = off + p.value.shape[0]
        _acc(p, adj[off:end])
        off = end


def concat(parts) -> Node:
    """Concatenate 1-d nodes."""
    parts = tuple(parts)
    tape = _same_tape(*parts)
    for p in parts:
        if p.value.ndim != 1:
            raise ValueError("concat expects vectors")
    val = np.concatenate([p.value for p in parts])
    return Node(tape, val, parts, "concat", _concat_bw)


def _slice_bw(node: Node, adj: np.ndarray):
    # vslice, row and rowslice: the parent's adjoint is zero outside the
    # node's index (its _arg)
    x = node.parents[0]
    g = np.zeros(x.value.shape)
    g[node._arg] = adj
    _acc(x, g)


def vslice(x: Node, start: int, stop: int) -> Node:
    if x.value.ndim != 1:
        raise ValueError("vslice expects a vector")
    n = x.value.shape[0]
    if not (0 <= start <= stop <= n):
        raise ValueError(f"vslice [{start}:{stop}] out of range for length {n}")
    index = slice(start, stop)
    return Node(x.tape, x.value[index], (x,), "vslice", _slice_bw, index)


def row(A: Node, i: int) -> Node:
    if A.value.ndim != 2:
        raise ValueError("row expects a matrix")
    if not (0 <= i < A.value.shape[0]):
        raise ValueError(f"row {i} out of range")
    return Node(A.tape, A.value[i], (A,), "row", _slice_bw, i)


# ---------------------------------------------------------------------------
# batched matrix operations (one node covers all channels of a token)


def _reshape_bw(node: Node, adj: np.ndarray):
    x = node.parents[0]
    _acc(x, adj.reshape(x.value.shape))


def reshape(x: Node, shape) -> Node:
    return Node(x.tape, x.value.reshape(tuple(shape)), (x,), "reshape", _reshape_bw)


def _transpose_bw(node: Node, adj: np.ndarray):
    _acc(node.parents[0], adj.T)


def transpose(x: Node) -> Node:
    if x.value.ndim != 2:
        raise ValueError("transpose expects a matrix")
    return Node(x.tape, x.value.T, (x,), "transpose", _transpose_bw)


def _matmul_bw(node: Node, adj: np.ndarray):
    A, B = node.parents
    _acc(A, adj @ B.value.T)
    _acc(B, A.value.T @ adj)


def matmul(A: Node, B: Node) -> Node:
    tape = _same_tape(A, B)
    Av, Bv = A.value, B.value
    if Av.ndim != 2 or Bv.ndim != 2 or Av.shape[1] != Bv.shape[0]:
        raise ValueError(f"matmul: incompatible shapes {Av.shape}, {Bv.shape}")
    return Node(tape, Av @ Bv, (A, B), "matmul", _matmul_bw)


def _add_col_bw(node: Node, adj: np.ndarray):
    A, b = node.parents
    _acc(A, adj)
    _acc(b, adj.sum(axis=1))


def add_col(A: Node, b: Node) -> Node:
    """A + b[:, None]: add a bias vector to every column."""
    tape = _same_tape(A, b)
    Av, bv = A.value, b.value
    if Av.ndim != 2 or bv.ndim != 1 or Av.shape[0] != bv.shape[0]:
        raise ValueError(f"add_col: incompatible shapes {Av.shape}, {bv.shape}")
    return Node(tape, Av + bv[:, None], (A, b), "add_col", _add_col_bw)


def concat_rows(parts) -> Node:
    """Concatenate matrices along axis 0 (equal column counts)."""
    parts = tuple(parts)
    tape = _same_tape(*parts)
    cols = parts[0].value.shape[1]
    for p in parts:
        if p.value.ndim != 2 or p.value.shape[1] != cols:
            raise ValueError("concat_rows expects matrices with equal column counts")
    val = np.concatenate([p.value for p in parts], axis=0)
    return Node(tape, val, parts, "concat_rows", _concat_bw)


def rowslice(A: Node, start: int, stop: int) -> Node:
    if A.value.ndim != 2:
        raise ValueError("rowslice expects a matrix")
    n = A.value.shape[0]
    if not (0 <= start <= stop <= n):
        raise ValueError(f"rowslice [{start}:{stop}] out of range for {n} rows")
    index = slice(start, stop)
    return Node(A.tape, A.value[index], (A,), "rowslice", _slice_bw, index)


def _softmax_cols_bw(node: Node, adj: np.ndarray):
    val = node.value
    _acc(node.parents[0], val * (adj - (val * adj).sum(axis=0, keepdims=True)))


def softmax_cols(S: Node) -> Node:
    """Column-wise softmax of a matrix with max-subtraction per column."""
    Sv = S.value
    if Sv.ndim != 2 or Sv.shape[0] == 0:
        raise ValueError("softmax_cols expects a matrix with at least one row")
    e = np.exp(Sv - Sv.max(axis=0, keepdims=True))
    return Node(S.tape, e / e.sum(axis=0, keepdims=True), (S,), "softmax_cols", _softmax_cols_bw)
