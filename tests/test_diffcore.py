"""Tape engine checks: every primitive against central finite differences,
the backward sweep's contract, determinism, and Cholesky failure behavior."""

import zlib

import numpy as np
import pytest

from smmfit import diffcore as dc


FD_STEP = 1e-6
FD_RTOL = 1e-5


def fd_grad(f, x, h=FD_STEP):
    """Central-difference gradient of a plain-array scalar function."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros(x.size)
    for i in range(x.size):
        e = np.zeros(x.size)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


def assert_close(a, b, rtol, atol=1e-10):
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    scale = np.maximum(np.abs(b), 1.0)
    assert np.all(np.abs(a - b) <= rtol * scale + atol), (
        f"max abs err {np.abs(a - b).max():.3e} vs {a} {b}")


# -- grad: worked examples ----------------------------------------------------

def test_grad_square():
    g = dc.grad(lambda x: dc.mul(x, x), [3.0])
    assert g.shape == (1,)
    assert abs(g[0] - 6.0) < 1e-12


def test_grad_constant():
    g = dc.grad(lambda x: x.tape.constant(4.2), [1.0, 2.0, 3.0])
    assert np.all(g == 0.0)


def test_grad_rejects_nonscalar():
    with pytest.raises(dc.NonScalarOutputError):
        dc.grad(lambda x: x, [1.0, 2.0])


def run_scalar(build, x):
    """Evaluate a tape-scalar function at a plain numpy point."""
    tape = dc.Tape()
    xt = tape.input(np.asarray(x, dtype=np.float64).reshape(1, -1))
    return build(xt).item()


# -- grad: one finite-difference sweep per primitive --------------------------

PRIMITIVE_CASES = {
    "add": (4, lambda x: dc.sumsq(dc.add(dc.cols(x, 0, 2), dc.cols(x, 2, 4)))),
    "add_broadcast_row": (6, lambda x: dc.sumsq(dc.add(
        dc.reshape(dc.cols(x, 0, 4), (2, 2)), dc.cols(x, 4, 6)))),
    "mul": (4, lambda x: dc.sumsq(dc.mul(dc.cols(x, 0, 2), dc.cols(x, 2, 4)))),
    "mul_broadcast_scalar": (5, lambda x: dc.sumsq(dc.mul(
        dc.cols(x, 0, 4), dc.cols(x, 4, 5)))),
    "mul_broadcast_col": (6, lambda x: dc.sumsq(dc.mul(
        dc.reshape(dc.cols(x, 0, 4), (2, 2)),
        dc.transpose(dc.cols(x, 4, 6))))),
    "neg": (3, lambda x: dc.sumsq(dc.neg(x))),
    "scale": (3, lambda x: dc.sumsq(dc.scale(x, -1.7))),
    "shift": (3, lambda x: dc.sumsq(dc.shift(x, 0.9))),
    "matmul": (12, lambda x: dc.sumsq(dc.matmul(
        dc.reshape(dc.cols(x, 0, 6), (2, 3)),
        dc.reshape(dc.cols(x, 6, 12), (3, 2))))),
    "transpose": (6, lambda x: dc.sumsq(dc.transpose(dc.reshape(x, (2, 3))))),
    "reshape": (6, lambda x: dc.sumsq(dc.reshape(x, (3, 2)))),
    "tanh": (4, lambda x: dc.sum_all(dc.tanh(x))),
    "exp": (4, lambda x: dc.sum_all(dc.exp(x))),
    "softplus": (4, lambda x: dc.sum_all(dc.softplus(x))),
    "sigmoid": (4, lambda x: dc.sum_all(dc.sigmoid(x))),
    "sumsq": (5, lambda x: dc.sumsq(x)),
    "cols_pad": (6, lambda x: dc.sumsq(dc.cols(dc.reshape(x, (2, 3)), 0, 2))),
}

POSITIVE_CASES = {
    "log": (4, lambda x: dc.sum_all(dc.log(x))),
    "sqrt": (4, lambda x: dc.sum_all(dc.sqrt(x))),
    "reciprocal": (4, lambda x: dc.sumsq(dc.reciprocal(x))),
}


@pytest.mark.parametrize("name", sorted(PRIMITIVE_CASES))
def test_primitive_grad_matches_fd(name):
    n, build = PRIMITIVE_CASES[name]
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    for _ in range(5):
        x0 = rng.uniform(-2.0, 2.0, size=n)
        assert_close(dc.grad(build, x0),
                     fd_grad(lambda x: run_scalar(build, x), x0), FD_RTOL)


@pytest.mark.parametrize("name", sorted(POSITIVE_CASES))
def test_positive_primitive_grad_matches_fd(name):
    n, build = POSITIVE_CASES[name]
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    for _ in range(5):
        x0 = rng.uniform(0.1, 2.0, size=n)
        assert_close(dc.grad(build, x0),
                     fd_grad(lambda x: run_scalar(build, x), x0), FD_RTOL)


def test_grad_deep_composite_matches_fd():
    # several layers of mixed primitives in one graph
    def f(x):
        a = dc.tanh(dc.reshape(x, (2, 3)))
        b = dc.matmul(a, dc.transpose(a))
        c = dc.softplus(dc.add(b, x.tape.constant(np.eye(2))))
        return dc.add(dc.sum_all(dc.log(dc.shift(c, 2.0))),
                      dc.sumsq(dc.sigmoid(a)))

    rng = np.random.default_rng(7)
    for _ in range(5):
        x0 = rng.uniform(-2.0, 2.0, size=6)
        assert_close(dc.grad(f, x0),
                     fd_grad(lambda x: run_scalar(f, x), x0), FD_RTOL)


# -- jacobian -----------------------------------------------------------------

def test_jacobian_linear_map():
    A = np.array([[1.0, 2.0], [3.0, 4.0]])

    def f(x):
        return dc.matmul(x, dc.transpose(x.tape.constant(A)))

    J = dc.jacobian(f, [0.3, -0.7])
    assert_close(J, A, 1e-12)


def test_jacobian_identity():
    J = dc.jacobian(lambda x: x, [1.0, 2.0, 3.0])
    assert_close(J, np.eye(3), 1e-12)


def test_jacobian_matches_fd_rows():
    def f(x):
        sq1 = dc.shift(dc.mul(x, x), 1.0)
        return dc.concat_cols([dc.sumsq(dc.sigmoid(x)),
                               dc.sum_all(dc.log(sq1))])

    rng = np.random.default_rng(11)
    x0 = rng.uniform(-2.0, 2.0, size=4)
    J = dc.jacobian(f, x0)
    for i in range(2):
        def fi(x, i=i):
            tape = dc.Tape()
            xt = tape.input(x.reshape(1, -1))
            return f(xt).value[0, i]
        assert_close(J[i], fd_grad(fi, x0), FD_RTOL)


# -- the backward sweep's contract --------------------------------------------

def test_backward_through_adjoint_raises():
    # inner: d/dx (theta x^2) = 2 theta x.  Adjoints are first order, so an
    # outer backward through one must fail loudly rather than return zero.
    def f(theta):
        tape = theta.tape
        x = tape.input([[3.0]])
        y = dc.mul(theta, dc.mul(x, x))
        (gx,) = tape.gradients(y, [x])
        return gx

    with pytest.raises(dc.NonDifferentiablePrimitiveError):
        dc.grad(f, [0.5])


def test_gradients_appends_one_node_per_leaf():
    tape = dc.Tape()
    a = tape.input([[1.0, 2.0]])
    b = tape.input([[3.0]])
    c = tape.input([[0.5, -1.0]])
    y = dc.add(dc.sumsq(dc.tanh(dc.mul(a, b))), dc.sum_all(dc.log(
        dc.add(dc.matmul(dc.transpose(a), a), tape.constant(np.eye(2))))))
    before = len(tape.nodes)
    grads = tape.gradients(y, [a, b, c])
    assert len(tape.nodes) == before + 3
    assert [g.op for g in grads] == ["adjoint"] * 3
    assert all(g.parents == (y,) for g in grads)
    assert np.all(grads[2].value == 0.0)


def test_gradients_with_respect_to_intermediate_node():
    tape = dc.Tape()
    x = tape.input([[0.3, -1.2]])
    h = dc.tanh(x)
    (gh, gx) = tape.gradients(dc.sumsq(h), [h, x])
    assert_close(gh.value, 2.0 * h.value, 1e-12)
    assert_close(gx.value, 2.0 * h.value * (1.0 - h.value ** 2), 1e-12)


def test_sqrt_backward_at_zero_raises():
    with pytest.raises(dc.DiffcoreError):
        dc.grad(lambda x: dc.sum_all(dc.sqrt(x)), [0.0])


def test_gradients_unused_leaf_is_zero():
    tape = dc.Tape()
    a = tape.input([[1.0, 2.0]])
    b = tape.input([[3.0]])
    (ga, gb) = tape.gradients(dc.sumsq(a), [a, b])
    assert_close(ga.value, [2.0, 4.0], 1e-12)
    assert np.all(gb.value == 0.0)


def test_gradients_sum_trick_gives_per_row():
    # summing a per-row scalar over the batch yields row-wise input gradients
    tape = dc.Tape()
    X = tape.input([[1.0, 2.0], [0.5, -1.0], [3.0, 0.0]])
    y = dc.sum_all(dc.mul(X, X))
    (gX,) = tape.gradients(y, [X])
    assert_close(gX.value, 2.0 * X.value, 1e-12)


# -- cholesky_np --------------------------------------------------------------

def chol_logdet(a):
    return 2.0 * float(np.sum(np.log(np.diag(dc.cholesky_np(a)))))


def test_logdet_diag():
    assert abs(chol_logdet(np.diag([2.0, 3.0])) - np.log(6.0)) < 1e-12


def test_logdet_identity():
    for n in (1, 2, 3, 5):
        assert abs(chol_logdet(np.eye(n))) < 1e-12


def test_logdet_2x2_by_hand():
    # det [[2,1],[1,2]] = 3
    a = np.array([[2.0, 1.0], [1.0, 2.0]])
    assert abs(chol_logdet(a) - np.log(3.0)) < 1e-12


def test_logdet_requires_symmetry():
    with pytest.raises(ValueError):
        chol_logdet(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_pd_failure_matches_eigenvalue_oracle():
    rng = np.random.default_rng(101)
    for n in (2, 3):
        for _ in range(200):
            B = rng.uniform(-2.0, 2.0, size=(n, n))
            A = 0.5 * (B + B.T)
            lo = np.linalg.eigvalsh(A)[0]
            if abs(lo) < 1e-10:
                continue
            if lo > 0:
                chol_logdet(A)
            else:
                with pytest.raises(dc.NotPositiveDefiniteError):
                    chol_logdet(A)


def test_pd_failure_pivot_index():
    with pytest.raises(dc.NotPositiveDefiniteError) as e:
        chol_logdet(np.diag([-1.0, 5.0]))
    assert e.value.pivot == 0
    with pytest.raises(dc.NotPositiveDefiniteError) as e:
        # leading 1x1 minor fine, second pivot 1 - 4 = -3
        chol_logdet(np.array([[1.0, 2.0], [2.0, 1.0]]))
    assert e.value.pivot == 1
    assert e.value.value < 0.0


# -- determinism and error machinery ------------------------------------------

def _grad_bits(seed):
    rng = np.random.default_rng(seed)
    x0 = rng.uniform(-2.0, 2.0, size=6)

    def f(x):
        a = dc.tanh(dc.reshape(x, (2, 3)))
        return dc.add(dc.sumsq(dc.matmul(a, dc.transpose(a))),
                      dc.sum_all(dc.softplus(x)))

    return dc.grad(f, x0).tobytes()


def test_backward_bitwise_deterministic():
    assert _grad_bits(5) == _grad_bits(5)


def test_non_differentiable_primitive_error():
    tape = dc.Tape()
    x = tape.input([[1.0]])
    # a node recorded without a derivative rule must fail loudly, not silently
    y = tape._append(x.value * 3.0, (x,), "opaque", True)
    with pytest.raises(dc.NonDifferentiablePrimitiveError):
        tape.gradients(y, [x])


def test_shape_mismatch_rejected():
    tape = dc.Tape()
    a = tape.input(np.zeros((2, 3)))
    b = tape.input(np.zeros((3, 3)))
    with pytest.raises(ValueError):
        dc.add(a, b)
    with pytest.raises(ValueError):
        dc.matmul(a, a)
