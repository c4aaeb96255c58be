"""Tape engine checks: every primitive against central finite differences,
the backward sweep's contract and determinism.
The checks also cover the test-side `grad`, `jacobian` and `transpose`
(oracle) and the per-node primitives the library's fused builds replaced
(column graph): log, sqrt, reciprocal, mul, neg, shift, matmul, reshape,
tanh, exp, softplus, sigmoid and cols."""

import zlib

import numpy as np
import pytest

import column_graph as col
import oracle
from oracle import grad, jacobian, transpose
from smmfit import diffcore as dc


FD_RTOL = 1e-5


def assert_close(a, b, rtol, atol=1e-10):
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    scale = np.maximum(np.abs(b), 1.0)
    assert np.all(np.abs(a - b) <= rtol * scale + atol), (
        f"max abs err {np.abs(a - b).max():.3e} vs {a} {b}")


# -- grad: worked examples ----------------------------------------------------

def test_grad_square():
    g = grad(lambda x: col.mul(x, x), [3.0])
    assert g.shape == (1,)
    assert abs(g[0] - 6.0) < 1e-12


def test_grad_constant():
    g = grad(lambda x: x.tape.constant(4.2), [1.0, 2.0, 3.0])
    assert np.all(g == 0.0)


def test_grad_rejects_nonscalar():
    with pytest.raises(oracle.NonScalarOutputError):
        grad(lambda x: x, [1.0, 2.0])


def run_scalar(build, x):
    """Evaluate a tape-scalar function at a plain numpy point."""
    tape = dc.Tape()
    xt = tape.input(np.asarray(x, dtype=np.float64).reshape(1, -1))
    return build(xt).value.item()


# -- grad: one finite-difference sweep per primitive --------------------------

PRIMITIVE_CASES = {
    "add": (4, lambda x: dc.sumsq(dc.add(col.cols(x, 0, 2),
                                          col.cols(x, 2, 4)))),
    "add_broadcast_row": (6, lambda x: dc.sumsq(dc.add(
        col.reshape(col.cols(x, 0, 4), (2, 2)), col.cols(x, 4, 6)))),
    "mul": (4, lambda x: dc.sumsq(col.mul(col.cols(x, 0, 2),
                                          col.cols(x, 2, 4)))),
    "mul_broadcast_scalar": (5, lambda x: dc.sumsq(col.mul(
        col.cols(x, 0, 4), col.cols(x, 4, 5)))),
    "mul_broadcast_col": (6, lambda x: dc.sumsq(col.mul(
        col.reshape(col.cols(x, 0, 4), (2, 2)),
        transpose(col.cols(x, 4, 6))))),
    "neg": (3, lambda x: dc.sumsq(col.neg(x))),
    "scale": (3, lambda x: dc.sumsq(dc.scale(x, -1.7))),
    "shift": (3, lambda x: dc.sumsq(col.shift(x, 0.9))),
    "matmul": (12, lambda x: dc.sumsq(col.matmul(
        col.reshape(col.cols(x, 0, 6), (2, 3)),
        col.reshape(col.cols(x, 6, 12), (3, 2))))),
    "transpose": (6, lambda x: dc.sumsq(transpose(col.reshape(x, (2, 3))))),
    "reshape": (6, lambda x: dc.sumsq(col.reshape(x, (3, 2)))),
    "tanh": (4, lambda x: dc.sum_all(col.tanh(x))),
    "exp": (4, lambda x: dc.sum_all(col.exp(x))),
    "softplus": (4, lambda x: dc.sum_all(col.softplus(x))),
    "sigmoid": (4, lambda x: dc.sum_all(col.sigmoid(x))),
    "sumsq": (5, lambda x: dc.sumsq(x)),
    "cols_pad": (6, lambda x: dc.sumsq(col.cols(col.reshape(x, (2, 3)),
                                                0, 2))),
}

POSITIVE_CASES = {
    "log": (4, lambda x: dc.sum_all(col.log(x))),
    "sqrt": (4, lambda x: dc.sum_all(col.sqrt(x))),
    "reciprocal": (4, lambda x: dc.sumsq(col.reciprocal(x))),
}


@pytest.mark.parametrize("name", sorted(PRIMITIVE_CASES))
def test_primitive_grad_matches_fd(name):
    n, build = PRIMITIVE_CASES[name]
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    for _ in range(5):
        x0 = rng.uniform(-2.0, 2.0, size=n)
        assert_close(grad(build, x0),
                     oracle.fd(lambda x: run_scalar(build, x), x0), FD_RTOL)


@pytest.mark.parametrize("name", sorted(POSITIVE_CASES))
def test_positive_primitive_grad_matches_fd(name):
    n, build = POSITIVE_CASES[name]
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    for _ in range(5):
        x0 = rng.uniform(0.1, 2.0, size=n)
        assert_close(grad(build, x0),
                     oracle.fd(lambda x: run_scalar(build, x), x0), FD_RTOL)


def test_sigmoid_matches_the_masked_form_bit_for_bit():
    # the branch-free form computes every element by the expression the
    # masked form picked for it
    def masked(x):
        out = np.empty_like(x)
        pos = x >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        out[~pos] = ex / (1.0 + ex)
        return out

    rng = np.random.default_rng(3)
    edge = np.array([0.0, -0.0, 1e-300, -1e-300, 36.0, -36.0, 745.2, -745.2,
                     800.0, -800.0, np.inf, -np.inf])
    for x in [edge, *(rng.normal(size=(7, 5)) * s for s in (1, 30, 800)),
              rng.uniform(-800, 800, size=(32, 1))]:
        assert dc._sigmoid_np(x).tobytes() == masked(x).tobytes()


def test_grad_deep_composite_matches_fd():
    # several layers of mixed primitives in one graph
    def f(x):
        a = col.tanh(col.reshape(x, (2, 3)))
        b = col.matmul(a, transpose(a))
        c = col.softplus(dc.add(b, x.tape.constant(np.eye(2))))
        return dc.add(dc.sum_all(col.log(col.shift(c, 2.0))),
                      dc.sumsq(col.sigmoid(a)))

    rng = np.random.default_rng(7)
    for _ in range(5):
        x0 = rng.uniform(-2.0, 2.0, size=6)
        assert_close(grad(f, x0),
                     oracle.fd(lambda x: run_scalar(f, x), x0), FD_RTOL)


# -- jacobian -----------------------------------------------------------------

def test_jacobian_linear_map():
    A = np.array([[1.0, 2.0], [3.0, 4.0]])

    def f(x):
        return col.matmul(x, transpose(x.tape.constant(A)))

    J = jacobian(f, [0.3, -0.7])
    assert_close(J, A, 1e-12)


def test_jacobian_identity():
    J = jacobian(lambda x: x, [1.0, 2.0, 3.0])
    assert_close(J, np.eye(3), 1e-12)


def test_jacobian_matches_fd_rows():
    def f(x):
        sq1 = col.shift(col.mul(x, x), 1.0)
        return col.concat_cols([dc.sumsq(col.sigmoid(x)),
                                dc.sum_all(col.log(sq1))])

    rng = np.random.default_rng(11)
    x0 = rng.uniform(-2.0, 2.0, size=4)
    J = jacobian(f, x0)
    for i in range(2):
        def fi(x, i=i):
            tape = dc.Tape()
            xt = tape.input(x.reshape(1, -1))
            return f(xt).value[0, i]
        assert_close(J[i], oracle.fd(fi, x0), FD_RTOL)


# -- the backward sweep's contract --------------------------------------------

def test_gradients_appends_one_node_per_leaf():
    # the adjoints come back as plain arrays, one per leaf and shaped like
    # it, and the sweep leaves the tape as it was
    tape = dc.Tape()
    a = tape.input([[1.0, 2.0]])
    b = tape.input([[3.0]])
    c = tape.input([[0.5, -1.0]])
    y = dc.add(dc.sumsq(col.tanh(col.mul(a, b))), dc.sum_all(col.log(
        dc.add(col.matmul(transpose(a), a), tape.constant(np.eye(2))))))
    before = len(tape.nodes)
    grads = tape.gradients(y, [a, b, c])
    assert len(tape.nodes) == before
    assert all(type(g) is np.ndarray for g in grads)
    assert [g.shape for g in grads] == [(1, 2), (1, 1), (1, 2)]
    assert np.all(grads[2] == 0.0)
    assert_close(grads[0], grad(lambda x: dc.add(
        dc.sumsq(col.tanh(col.mul(x, x.tape.constant(3.0)))),
        dc.sum_all(col.log(dc.add(col.matmul(transpose(x), x),
                                  x.tape.constant(np.eye(2)))))), [1.0, 2.0]),
                 1e-12)


def test_gradients_with_respect_to_intermediate_node():
    tape = dc.Tape()
    x = tape.input([[0.3, -1.2]])
    h = col.tanh(x)
    (gh, gx) = tape.gradients(dc.sumsq(h), [h, x])
    assert_close(gh, 2.0 * h.value, 1e-12)
    assert_close(gx, 2.0 * h.value * (1.0 - h.value ** 2), 1e-12)


def test_sqrt_backward_at_zero_raises():
    with pytest.raises(dc.DiffcoreError):
        grad(lambda x: dc.sum_all(col.sqrt(x)), [0.0])


def test_gradients_unused_leaf_is_zero():
    tape = dc.Tape()
    a = tape.input([[1.0, 2.0]])
    b = tape.input([[3.0]])
    (ga, gb) = tape.gradients(dc.sumsq(a), [a, b])
    assert_close(ga, [2.0, 4.0], 1e-12)
    assert np.all(gb == 0.0)


def test_gradients_sum_trick_gives_per_row():
    # summing a per-row scalar over the batch yields row-wise input gradients
    tape = dc.Tape()
    X = tape.input([[1.0, 2.0], [0.5, -1.0], [3.0, 0.0]])
    y = dc.sum_all(col.mul(X, X))
    (gX,) = tape.gradients(y, [X])
    assert_close(gX, 2.0 * X.value, 1e-12)


# -- determinism and error machinery ------------------------------------------

def _grad_bits(seed):
    rng = np.random.default_rng(seed)
    x0 = rng.uniform(-2.0, 2.0, size=6)

    def f(x):
        a = col.tanh(col.reshape(x, (2, 3)))
        return dc.add(dc.sumsq(col.matmul(a, transpose(a))),
                      dc.sum_all(col.softplus(x)))

    return grad(f, x0).tobytes()


def test_backward_bitwise_deterministic():
    assert _grad_bits(5) == _grad_bits(5)


def test_shape_mismatch_rejected():
    tape = dc.Tape()
    a = tape.input(np.zeros((2, 3)))
    b = tape.input(np.zeros((3, 3)))
    with pytest.raises(ValueError):
        dc.add(a, b)
    with pytest.raises(ValueError):
        col.matmul(a, a)
