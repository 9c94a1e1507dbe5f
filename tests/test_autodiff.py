import gc
import math
import warnings

import numpy as np
import pytest

import tppkit.autodiff as ad
from helpers import assert_grads_close, max_rel_err, numerical_grad


def test_softplus_and_relu_values():
    t = ad.Tape()
    assert ad.softplus(t.leaf(0.0)).value == pytest.approx(math.log(2.0), abs=1e-12)
    assert ad.relu(t.leaf(-3.5)).value == 0.0
    assert ad.relu(t.leaf(2.0)).value == 2.0


def test_softplus_strictly_positive():
    t = ad.Tape()
    for v in (-700.0, -50.0, -1.0, 0.0, 1.0, 50.0, 700.0):
        assert ad.softplus(t.leaf(v)).value > 0.0


def test_softplus_derivative_matches_sigmoid():
    t = ad.Tape()
    x = t.leaf(1.2)
    y = ad.softplus(x)
    ad.backward(t, y)
    sig = 1.0 / (1.0 + math.exp(-1.2))
    assert abs(x.grad - sig) / sig < 1e-12
    fd = numerical_grad(lambda v: np.log1p(np.exp(v[()])), np.asarray(1.2))
    assert abs(x.grad - fd) / abs(fd) < 1e-6


def _sigmoid_reference(x):
    xl = np.asarray(x, dtype=np.longdouble)
    return 1.0 / (1.0 + np.exp(-xl))


def _sigmoid_and_softplus_grad(x):
    t = ad.Tape()
    sig = ad.sigmoid(t.leaf(x)).value
    leaf = t.leaf(x)
    ad.backward(t, ad.vsum(ad.softplus(leaf)))
    return sig, leaf.grad


def test_sigmoid_relative_accuracy_down_to_underflow():
    # relative, not absolute, accuracy: a sigmoid built on tanh rounds to 0
    # below about -37 and would zero the gradient of rates near underflow
    x = np.linspace(-700.0, 700.0, 14001)
    ref = _sigmoid_reference(x)
    for got in _sigmoid_and_softplus_grad(x):
        assert float(np.max(np.abs((got - ref) / ref))) <= 1e-14
    for v in (-40.0, -700.0):
        assert _sigmoid_and_softplus_grad(np.array([v]))[1][0] > 0.0


def test_sigmoid_extremes_finite_and_silent():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for got in _sigmoid_and_softplus_grad(np.array([-745.0, 745.0])):
            assert np.all(np.isfinite(got)) and np.all((got >= 0.0) & (got <= 1.0))


def test_relu_gradient_zero_at_and_below_zero():
    t = ad.Tape()
    x = t.leaf([-2.0, -0.0, 0.0, 1e-300, 3.0])
    ad.backward(t, ad.vsum(ad.relu(x)))
    assert np.array_equal(x.grad, [0.0, 0.0, 0.0, 1.0, 1.0])


def test_linear_identity_and_hand_arithmetic():
    t = ad.Tape()
    W = t.leaf(np.eye(2))
    x = t.leaf([3.0, -1.0])
    b = t.leaf([0.0, 0.0])
    assert np.allclose(ad.linear(W, x, b).value, [3.0, -1.0])

    W2 = t.leaf([[1.0, 2.0], [0.0, 1.0]])
    x2 = t.leaf([1.0, 1.0])
    b2 = t.leaf([1.0, 0.0])
    assert np.allclose(ad.linear(W2, x2, b2).value, [4.0, 1.0])


def test_linear_dimension_mismatch():
    t = ad.Tape()
    W = t.leaf(np.zeros((2, 3)))
    x = t.leaf(np.zeros(2))
    b = t.leaf(np.zeros(2))
    with pytest.raises(ValueError):
        ad.linear(W, x, b)


def test_linear_gradient_wrt_weights():
    rng = np.random.default_rng(7)
    Wv = rng.normal(size=(4, 3))
    xv = rng.normal(size=3)
    bv = rng.normal(size=4)

    def run(W):
        t = ad.Tape()
        y = ad.linear(t.leaf(W), t.leaf(xv), t.leaf(bv))
        return float(np.sum(y.value))

    t = ad.Tape()
    Wn = t.leaf(Wv)
    out = ad.vsum(ad.linear(Wn, t.leaf(xv), t.leaf(bv)))
    ad.backward(t, out)
    assert_grads_close(Wn.grad, numerical_grad(run, Wv.copy()))


def test_softmax_symmetry_and_stability():
    t = ad.Tape()
    s = ad.softmax_cols(t.leaf([[-5.0, 0.0, 123.4]] * 3)).value
    assert np.allclose(s, 1 / 3, atol=1e-15)
    s = ad.softmax_cols(t.leaf([[1000.0, 0.0], [0.0, 1000.0]])).value
    assert np.all(np.isfinite(s))
    assert s[0, 0] == pytest.approx(1.0) and s[1, 1] == pytest.approx(1.0)
    assert s[1, 0] == pytest.approx(0.0, abs=1e-300)
    assert s[0, 1] == pytest.approx(0.0, abs=1e-300)


def test_softmax_simplex():
    rng = np.random.default_rng(0)
    t = ad.Tape()
    for _ in range(50):
        v = rng.normal(scale=5.0, size=(rng.integers(1, 9), rng.integers(1, 4)))
        s = ad.softmax_cols(t.leaf(v)).value
        assert np.all(np.abs(np.sum(s, axis=0) - 1.0) < 1e-12)
        assert np.all(s > 0.0) and np.all(s < 1.0 + 1e-15)


def test_softmax_empty_errors():
    t = ad.Tape()
    with pytest.raises(ValueError):
        ad.softmax_cols(t.leaf(np.zeros((0, 2))))
    with pytest.raises(ValueError):
        ad.softmax_cols(t.leaf(np.zeros(3)))


def test_softmax_jacobian_finite_differences():
    xv = np.array([[0.2, 1.5], [-0.4, 0.3], [1.0, -2.0]])
    for i in range(3):
        for j in range(2):
            def comp(v, i=i, j=j):
                e = np.exp(v - np.max(v, axis=0))
                return (e / e.sum(axis=0))[i, j]

            t = ad.Tape()
            x = t.leaf(xv)
            onehot = np.zeros(xv.shape)
            onehot[i, j] = 1.0
            ad.backward(t, ad.vsum(ad.mul(ad.softmax_cols(x), onehot)))
            assert_grads_close(x.grad, numerical_grad(comp, xv.copy()))


def test_backward_requires_scalar_root():
    t = ad.Tape()
    x = t.leaf([1.0, 2.0])
    with pytest.raises(ValueError):
        ad.backward(t, ad.tanh(x))


def many_use_weight(seed=5, n_matvec=60):
    """One leaf weight W used by many matvecs, a linear, matmul as A and B, and a mul.

    Returns (tape, W node, scalar root, the sum of W's per-use adjoint
    products written out, and the root as a numpy function of W).
    """
    rng = np.random.default_rng(seed)
    Wv = rng.normal(size=(3, 3))
    xs, cs = rng.normal(size=(n_matvec, 3)), rng.normal(size=(n_matvec, 3))
    u, b, c = rng.normal(size=3), rng.normal(size=3), rng.normal(size=3)
    B0, D = rng.normal(size=(3, 2)), rng.normal(size=(3, 2))
    A0, E = rng.normal(size=(2, 3)), rng.normal(size=(2, 3))
    G = rng.normal(size=(3, 3))

    def f(W):
        return (sum(np.dot(ci, np.tanh(W @ xi)) for xi, ci in zip(xs, cs))
                + np.dot(c, W @ u + b) + np.sum(D * (W @ B0))
                + np.sum(E * (A0 @ W)) + np.sum(G * W))

    t = ad.Tape()
    W = t.leaf(Wv)
    terms = [ad.vsum(ad.mul(t.const(ci), ad.tanh(ad.matvec(W, t.const(xi)))))
             for xi, ci in zip(xs, cs)]
    terms.append(ad.vsum(ad.mul(t.const(c), ad.linear(W, t.const(u), t.const(b)))))
    terms.append(ad.vsum(ad.mul(t.const(D), ad.matmul(W, t.const(B0)))))
    terms.append(ad.vsum(ad.mul(t.const(E), ad.matmul(t.const(A0), W))))
    terms.append(ad.vsum(ad.mul(W, t.const(G))))
    root = terms[0]
    for term in terms[1:]:
        root = ad.add(root, term)

    expected = G + D @ B0.T + A0.T @ E + np.outer(c, u)
    for xi, ci in zip(xs, cs):
        expected = expected + np.outer(ci * (1.0 - np.tanh(Wv @ xi) ** 2), xi)
    return t, W, root, expected, f


def test_backward_accumulates_exactly():
    t = ad.Tape()
    x = t.leaf(2.0)
    y = t.leaf(3.0)
    z = ad.mul(x, y)
    ad.backward(t, z)
    g1x, g1y = x.grad.copy(), y.grad.copy()
    ad.backward(t, z)
    assert x.grad == 2.0 * g1x
    assert y.grad == 2.0 * g1y

    # a weight whose matrix-product adjoints are reduced at the end of backward
    t, W, root, _, _ = many_use_weight()
    ad.backward(t, root)
    g1 = W.grad.copy()
    ad.backward(t, root)
    assert np.array_equal(W.grad, 2.0 * g1)


def test_weight_used_many_times_sums_every_use():
    t, W, root, expected, f = many_use_weight()
    ad.backward(t, root)
    assert np.max(np.abs(W.grad - expected)) <= 1e-12 * np.max(np.abs(expected))
    assert_grads_close(W.grad, numerical_grad(f, W.value.copy()))


def test_backward_tanh_matvec_matches_fd():
    rng = np.random.default_rng(3)
    Wv = rng.normal(size=(3, 3))
    xv = rng.normal(size=3)

    def run(W):
        return float(np.sum(np.tanh(W @ xv)))

    t = ad.Tape()
    W = t.leaf(Wv)
    out = ad.vsum(ad.tanh(ad.matvec(W, t.leaf(xv))))
    ad.backward(t, out)
    assert_grads_close(W.grad, numerical_grad(run, Wv.copy()))


def test_add_shape_mismatch_errors():
    t = ad.Tape()
    with pytest.raises(ValueError):
        ad.add(t.leaf([1.0, 2.0]), t.leaf([1.0, 2.0, 3.0]))


def test_scalar_broadcast_gradients():
    def run(c):
        return float(np.sum(np.array([1.0, 2.0, 3.0]) * c[()]))

    t = ad.Tape()
    c = t.leaf(2.0)
    out = ad.vsum(ad.mul(t.leaf([1.0, 2.0, 3.0]), c))
    ad.backward(t, out)
    assert_grads_close(c.grad, numerical_grad(run, np.asarray(2.0)))


def sumsq(x):
    return ad.vsum(ad.mul(x, x))


def test_structural_ops_gradients():
    rng = np.random.default_rng(11)
    av = rng.normal(size=5)
    bv = rng.normal(size=3)
    Av = rng.normal(size=(4, 5))

    def run_concat(a):
        v = np.concatenate([a, bv])
        return float(np.sum(v**2))

    t = ad.Tape()
    a = t.leaf(av)
    out = sumsq(ad.concat([a, t.leaf(bv)]))
    ad.backward(t, out)
    assert_grads_close(a.grad, numerical_grad(run_concat, av.copy()))

    def run_transpose_matmul(A):
        return float(np.sum(np.tanh(A.T @ Bv)))

    Bv = rng.normal(size=(4, 2))
    t = ad.Tape()
    A = t.leaf(Av)
    out = ad.vsum(ad.tanh(ad.matmul(ad.transpose(A), t.leaf(Bv))))
    ad.backward(t, out)
    assert_grads_close(A.grad, numerical_grad(run_transpose_matmul, Av.copy()))

    def run_slice(a):
        return float(np.sum(a[1:4] ** 2))

    t = ad.Tape()
    a = t.leaf(av)
    out = sumsq(ad.vslice(a, 1, 4))
    ad.backward(t, out)
    assert_grads_close(a.grad, numerical_grad(run_slice, av.copy()))

    def run_row(A):
        return float(np.sum(A[2] ** 2))

    t = ad.Tape()
    A = t.leaf(Av)
    out = sumsq(ad.row(A, 2))
    ad.backward(t, out)
    assert_grads_close(A.grad, numerical_grad(run_row, Av.copy()))


def test_composed_functions_match_fd_many_seeds():
    # randomized composition sweep covering every provided op
    for seed in range(100):
        rng = np.random.default_rng(seed)
        Wv = rng.normal(size=(3, 4))
        xv = rng.normal(size=4)
        bv = rng.normal(size=3)

        def run(theta):
            W = theta[:12].reshape(3, 4)
            x = theta[12:16]
            b = theta[16:]
            h = np.tanh(W @ x + b)
            s = 1.0 / (1.0 + np.exp(-h))
            sp = np.log1p(np.exp(-np.abs(h))) + np.maximum(h, 0.0)
            e = np.exp(h - np.max(h))
            sm = e / e.sum()
            r = np.maximum(h, 0.0)
            return float(np.sum(s * sp) + np.sum(sm * r) + (np.sum(np.tanh(h) * h) + 1.0))

        theta = np.concatenate([Wv.ravel(), xv, bv])

        t = ad.Tape()
        W, x, b = t.leaf(Wv), t.leaf(xv), t.leaf(bv)
        h = ad.tanh(ad.linear(W, x, b))
        total = ad.add(
            ad.vsum(ad.mul(ad.sigmoid(h), ad.softplus(h))),
            ad.add(
                ad.vsum(ad.mul(ad.reshape(ad.softmax_cols(ad.reshape(h, (3, 1))), (3,)),
                               ad.relu(h))),
                ad.add(ad.vsum(ad.mul(ad.tanh(h), h)), 1.0),
            ),
        )
        ad.backward(t, total)
        analytic = np.concatenate([W.grad.ravel(), x.grad, b.grad])
        numeric = numerical_grad(run, theta.copy())
        assert max_rel_err(analytic, numeric) < 1e-4


def test_tape_topological_order():
    t = ad.Tape()
    x = t.leaf([1.0, 2.0])
    y = ad.tanh(x)
    z = ad.vsum(ad.mul(y, y))
    order = t.nodes()
    pos = {id(n): i for i, n in enumerate(order)}
    for n in order:
        for p in n.parents:
            assert pos[id(p)] < pos[id(n)]
    assert order[-1] is z


def test_tape_scope_releases_its_tapes():
    with ad.tape_scope():
        t = ad.Tape()
        x = t.leaf([1.0, 2.0])
        root = ad.vsum(ad.mul(x, x))
        ad.backward(t, root)
        assert np.allclose(x.grad, [2.0, 4.0])
    # a released tape fails loudly instead of giving zero gradients
    with pytest.raises(ValueError, match="released"):
        ad.backward(t, root)
    with pytest.raises(ValueError, match="released"):
        ad.tanh(x)
    with pytest.raises(ValueError, match="released"):
        t.const(1.0)
    with pytest.raises(ValueError, match="released"):
        len(t)
    # a tape made outside any scope is untouched
    u = ad.Tape()
    ad.backward(u, ad.vsum(u.leaf([3.0])))
    assert len(u) == 2


def test_tape_scope_nesting_and_gc_state():
    assert gc.isenabled()
    with ad.tape_scope():
        assert not gc.isenabled()
        outer = ad.Tape()
        a = outer.leaf(1.0)
        with ad.tape_scope():
            inner = ad.Tape()
            inner.leaf(2.0)
        assert not gc.isenabled()
        with pytest.raises(ValueError, match="released"):
            inner.leaf(3.0)
        ad.tanh(a)  # the outer tape lives until its own scope exits
        assert len(outer) == 2
    assert gc.isenabled()
    with pytest.raises(ValueError, match="released"):
        outer.leaf(4.0)

    # restored after an exception, and left off for a caller who turned it off
    with pytest.raises(RuntimeError):
        with ad.tape_scope():
            raise RuntimeError("boom")
    assert gc.isenabled()
    gc.disable()
    try:
        with ad.tape_scope():
            ad.Tape().leaf(1.0)
        assert not gc.isenabled()
    finally:
        gc.enable()
