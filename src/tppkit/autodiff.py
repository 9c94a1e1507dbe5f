"""Dense float64 tensors on a dynamic tape with reverse-mode differentiation.

Everything is desk-scale: values are small numpy arrays (scalars, vectors,
matrices), the tape is rebuilt per sequence, and backward is a single reverse
walk over the tape. A forward op computes only its value; any factor that
only its derivative needs (a sigmoid, a relu mask, a slice offset) is
computed in the reverse walk, so a forward that is never differentiated pays
nothing for it. Adjoints are computed in fresh per-call buffers and never
mutated in place; every node sums its adjoint as the walk reaches it. The
results are added into ``Node.grad``, so repeated ``backward`` calls
accumulate. The package only records forward graphs (``model.forward``):
training takes its gradients from ``model.backward`` by hand, and only the
tests walk a tape, as the slow reference of that backward.

Tape lifetime: every node holds its tape and the tape lists every node, so a
tape is one large reference cycle. Left alone, the cyclic garbage collector
walks it again and again while it grows and frees it only in a late full
collection. ``tape_scope()`` bounds that lifetime: inside it the collector is
paused, and on exit every tape created inside is released (its node list is
dropped), so reference counting frees the nodes at once. A released tape
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
    "vsum", "concat", "stack", "vslice", "row", "reshape", "transpose",
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
    """

    __slots__ = ("tape", "value", "parents", "op", "_grad", "_bw", "_adj")

    def __init__(self, tape, value, parents=(), op="leaf", bw=None):
        self.tape = tape
        self.value = value
        self.parents = parents
        self.op = op
        self._grad = None
        self._bw = bw
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

    @property
    def shape(self):
        return self.value.shape

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
                n._bw(n._adj)
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


def _coerce(tape: Tape, x):
    if isinstance(x, Node):
        return x
    return tape.const(np.asarray(x, dtype=np.float64))


def _operands(x, y, op: str):
    """(tape, x, y) of a binary op: constants wrapped as nodes, tapes and shapes checked."""
    if x.__class__ is Node and y.__class__ is Node:
        tape = x.tape
        if y.tape is not tape:
            raise ValueError("operands belong to different tapes")
    else:
        tape = _same_tape(*(n for n in (x, y) if isinstance(n, Node)))
        x, y = _coerce(tape, x), _coerce(tape, y)
    xs, ys = x.value.shape, y.value.shape
    if xs != ys and xs != () and ys != ():
        raise ValueError(f"{op}: shape mismatch {xs} vs {ys}")
    return tape, x, y


def _reduce_to(g: np.ndarray, shape) -> np.ndarray:
    # undo scalar broadcast in the backward pass
    if g.shape == shape:
        return g
    return np.sum(g).reshape(shape) if shape == () else g

def add(x, y) -> Node:
    tape, x, y = _operands(x, y, "add")
    val = x.value + y.value

    def bw(adj):
        _acc(x, _reduce_to(adj, x.value.shape))
        _acc(y, _reduce_to(adj, y.value.shape))

    return Node(tape, val, (x, y), "add", bw)


def mul(x, y) -> Node:
    tape, x, y = _operands(x, y, "mul")
    xv, yv = x.value, y.value
    val = xv * yv

    def bw(adj):
        _acc(x, _reduce_to(adj * yv, xv.shape))
        _acc(y, _reduce_to(adj * xv, yv.shape))

    return Node(tape, val, (x, y), "mul", bw)


def tanh(x: Node) -> Node:
    val = np.tanh(x.value)

    def bw(adj):
        _acc(x, adj * (1.0 - val * val))

    return Node(x.tape, val, (x,), "tanh", bw)


def _sigmoid_val(v: np.ndarray) -> np.ndarray:
    # 1 / (1 + e^-v) = exp(-softplus(-v)): no overflow, and full relative
    # precision where the value underflows towards 0 (unlike 0.5*(1+tanh(v/2)))
    return np.exp(-np.logaddexp(0.0, -v))


def sigmoid(x: Node) -> Node:
    val = _sigmoid_val(x.value)

    def bw(adj):
        _acc(x, adj * val * (1.0 - val))

    return Node(x.tape, val, (x,), "sigmoid", bw)


def relu(x: Node) -> Node:
    xv = x.value

    def bw(adj):
        _acc(x, adj * (xv > 0.0))

    return Node(x.tape, np.maximum(xv, 0.0), (x,), "relu", bw)


def softplus(x: Node) -> Node:
    xv = x.value
    # log1p(exp(-|x|)) + max(x, 0): stable for large |x|, strictly positive
    val = np.log1p(np.exp(-np.abs(xv))) + np.maximum(xv, 0.0)

    def bw(adj):
        _acc(x, adj * _sigmoid_val(xv))

    return Node(x.tape, val, (x,), "softplus", bw)


# ---------------------------------------------------------------------------
# linear algebra and structural operations


def linear(W: Node, x: Node, b: Node) -> Node:
    """W @ x + b for W (out, in), x (in,), b (out,)."""
    tape = _same_tape(W, x, b)
    Wv, xv, bv = W.value, x.value, b.value
    if Wv.ndim != 2 or xv.ndim != 1 or bv.ndim != 1:
        raise ValueError("linear expects matrix, vector, vector")
    if Wv.shape[1] != xv.shape[0] or Wv.shape[0] != bv.shape[0]:
        raise ValueError(f"linear: incompatible shapes {Wv.shape}, {xv.shape}, {bv.shape}")
    val = Wv @ xv + bv

    def bw(adj):
        _acc(W, adj[:, None] @ xv[None, :])
        _acc(x, Wv.T @ adj)
        _acc(b, adj)

    return Node(tape, val, (W, x, b), "linear", bw)


def matvec(A: Node, x: Node) -> Node:
    tape = _same_tape(A, x)
    Av, xv = A.value, x.value
    if Av.ndim != 2 or xv.ndim != 1 or Av.shape[1] != xv.shape[0]:
        raise ValueError(f"matvec: incompatible shapes {Av.shape}, {xv.shape}")
    val = Av @ xv

    def bw(adj):
        _acc(A, adj[:, None] @ xv[None, :])
        _acc(x, Av.T @ adj)

    return Node(tape, val, (A, x), "matvec", bw)


def vsum(x: Node) -> Node:
    val = np.asarray(np.sum(x.value))

    def bw(adj):
        _acc(x, np.broadcast_to(adj, x.value.shape))

    return Node(x.tape, val, (x,), "vsum", bw)


def _split_acc(parts, adj: np.ndarray):
    # hand each part its leading-axis block of a concatenation's adjoint
    off = 0
    for p in parts:
        end = off + p.value.shape[0]
        _acc(p, adj[off:end])
        off = end


def concat(parts) -> Node:
    """Concatenate 1-d nodes."""
    parts = list(parts)
    tape = _same_tape(*parts)
    for p in parts:
        if p.value.ndim != 1:
            raise ValueError("concat expects vectors")
    val = np.concatenate([p.value for p in parts])
    return Node(tape, val, tuple(parts), "concat", lambda adj: _split_acc(parts, adj))


def stack(rows) -> Node:
    """Stack same-shaped nodes along a new leading axis."""
    rows = list(rows)
    if not rows:
        raise ValueError("stack of empty list")
    tape = _same_tape(*rows)
    val = np.stack([r.value for r in rows])

    def bw(adj):
        for i, r in enumerate(rows):
            _acc(r, adj[i])

    return Node(tape, val, tuple(rows), "stack", bw)


def vslice(x: Node, start: int, stop: int) -> Node:
    if x.value.ndim != 1:
        raise ValueError("vslice expects a vector")
    n = x.value.shape[0]
    if not (0 <= start <= stop <= n):
        raise ValueError(f"vslice [{start}:{stop}] out of range for length {n}")
    val = x.value[start:stop]

    def bw(adj):
        g = np.zeros(n)
        g[start:stop] = adj
        _acc(x, g)

    return Node(x.tape, val, (x,), "vslice", bw)


def row(A: Node, i: int) -> Node:
    if A.value.ndim != 2:
        raise ValueError("row expects a matrix")
    if not (0 <= i < A.value.shape[0]):
        raise ValueError(f"row {i} out of range")
    val = A.value[i]

    def bw(adj):
        g = np.zeros(A.value.shape)
        g[i] = adj
        _acc(A, g)

    return Node(A.tape, val, (A,), "row", bw)


# ---------------------------------------------------------------------------
# batched matrix operations (one node covers all channels of a token)


def reshape(x: Node, shape) -> Node:
    shape = tuple(shape)
    val = x.value.reshape(shape)

    def bw(adj):
        _acc(x, adj.reshape(x.value.shape))

    return Node(x.tape, val, (x,), "reshape", bw)


def transpose(x: Node) -> Node:
    if x.value.ndim != 2:
        raise ValueError("transpose expects a matrix")
    val = x.value.T

    def bw(adj):
        _acc(x, adj.T)

    return Node(x.tape, val, (x,), "transpose", bw)


def matmul(A: Node, B: Node) -> Node:
    tape = _same_tape(A, B)
    Av, Bv = A.value, B.value
    if Av.ndim != 2 or Bv.ndim != 2 or Av.shape[1] != Bv.shape[0]:
        raise ValueError(f"matmul: incompatible shapes {Av.shape}, {Bv.shape}")
    val = Av @ Bv

    def bw(adj):
        _acc(A, adj @ Bv.T)
        _acc(B, Av.T @ adj)

    return Node(tape, val, (A, B), "matmul", bw)


def add_col(A: Node, b: Node) -> Node:
    """A + b[:, None]: add a bias vector to every column."""
    tape = _same_tape(A, b)
    Av, bv = A.value, b.value
    if Av.ndim != 2 or bv.ndim != 1 or Av.shape[0] != bv.shape[0]:
        raise ValueError(f"add_col: incompatible shapes {Av.shape}, {bv.shape}")
    val = Av + bv[:, None]

    def bw(adj):
        _acc(A, adj)
        _acc(b, adj.sum(axis=1))

    return Node(tape, val, (A, b), "add_col", bw)


def concat_rows(parts) -> Node:
    """Concatenate matrices along axis 0 (equal column counts)."""
    parts = list(parts)
    tape = _same_tape(*parts)
    cols = parts[0].value.shape[1]
    for p in parts:
        if p.value.ndim != 2 or p.value.shape[1] != cols:
            raise ValueError("concat_rows expects matrices with equal column counts")
    val = np.concatenate([p.value for p in parts], axis=0)
    return Node(tape, val, tuple(parts), "concat_rows", lambda adj: _split_acc(parts, adj))


def rowslice(A: Node, start: int, stop: int) -> Node:
    if A.value.ndim != 2:
        raise ValueError("rowslice expects a matrix")
    n = A.value.shape[0]
    if not (0 <= start <= stop <= n):
        raise ValueError(f"rowslice [{start}:{stop}] out of range for {n} rows")
    val = A.value[start:stop]

    def bw(adj):
        g = np.zeros(A.value.shape)
        g[start:stop] = adj
        _acc(A, g)

    return Node(A.tape, val, (A,), "rowslice", bw)


def softmax_cols(S: Node) -> Node:
    """Column-wise softmax of a matrix with max-subtraction per column."""
    Sv = S.value
    if Sv.ndim != 2 or Sv.shape[0] == 0:
        raise ValueError("softmax_cols expects a matrix with at least one row")
    e = np.exp(Sv - Sv.max(axis=0, keepdims=True))
    val = e / e.sum(axis=0, keepdims=True)

    def bw(adj):
        _acc(S, val * (adj - (val * adj).sum(axis=0, keepdims=True)))

    return Node(S.tape, val, (S,), "softmax_cols", bw)
