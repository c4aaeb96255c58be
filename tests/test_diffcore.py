"""Tape engine checks: each primitive the loss graphs use (`add` with
its row and scalar broadcasts, `scale`, `sum_all`, `sumsq`, `mean_all`
and `custom`) against central finite differences, the backward sweep's
contract and determinism, and the numpy sigmoid the net blocks share."""

import zlib

import numpy as np
import pytest

import oracle
from smmfit import diffcore as dc


FD_RTOL = 1e-5


def assert_close(a, b, rtol, atol=1e-10):
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    scale = np.maximum(np.abs(b), 1.0)
    assert np.all(np.abs(a - b) <= rtol * scale + atol), (
        f"max abs err {np.abs(a - b).max():.3e} vs {a} {b}")


def cube(a):
    """An elementwise cube as one custom node."""
    return dc.custom([a], a.value ** 3, lambda g: (g * (3.0 * a.value ** 2),),
                     "cube")


def product(a, b):
    """An elementwise product of two same-shape leaves as one custom node."""
    return dc.custom([a, b], a.value * b.value,
                     lambda g: (g * b.value, g * a.value), "product")


# -- one finite-difference sweep per primitive --------------------------------

# name: (leaf shapes, scalar built from the leaves)
PRIMITIVE_CASES = {
    "add": ([(2, 3), (2, 3)], lambda a, b: dc.sumsq(dc.add(a, b))),
    "add_broadcast_row": ([(2, 3), (1, 3)],
                          lambda a, b: dc.sumsq(dc.add(a, b))),
    "add_broadcast_scalar": ([(2, 3), (1, 1)],
                             lambda a, b: dc.sumsq(dc.add(b, a))),
    "scale": ([(1, 3)], lambda a: dc.sumsq(dc.scale(a, -1.7))),
    "sum_all": ([(2, 3)], lambda a: dc.sumsq(dc.sum_all(a))),
    "sumsq": ([(1, 5)], lambda a: dc.sumsq(a)),
    "mean_all": ([(3, 2)], lambda a: dc.sumsq(dc.mean_all(a))),
    "custom": ([(2, 2), (2, 2)],
               lambda a, b: dc.sum_all(cube(product(a, b)))),
}


def assert_grads_match_fd(build, xs):
    """The tape's adjoint of each leaf of the scalar ``build`` at the
    points ``xs`` against central differences."""
    tape = dc.Tape()
    leaves = [tape.input(x) for x in xs]
    grads = tape.gradients(build(*leaves), leaves)
    for k, x in enumerate(xs):
        def f(v, k=k):
            t = dc.Tape()
            return build(*[t.input(y) for y in xs[:k] + [v.reshape(x.shape)]
                           + xs[k + 1:]]).value.item()

        assert grads[k].shape == x.shape
        assert_close(grads[k], oracle.fd(f, x.ravel()), FD_RTOL)


@pytest.mark.parametrize("name", sorted(PRIMITIVE_CASES))
def test_primitive_grad_matches_fd(name):
    shapes, build = PRIMITIVE_CASES[name]
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    for _ in range(5):
        assert_grads_match_fd(build, [rng.uniform(-2.0, 2.0, size=s)
                                      for s in shapes])


def test_grad_deep_composite_matches_fd():
    # several layers in one graph, a node read by two consumers
    def f(a, b):
        c = cube(product(a, b))
        return dc.add(dc.sumsq(dc.add(c, dc.scale(a, 0.5))),
                      dc.scale(dc.mean_all(cube(c)), -0.2))

    rng = np.random.default_rng(7)
    for _ in range(5):
        assert_grads_match_fd(f, [rng.uniform(-1.0, 1.0, size=(2, 3))
                                  for _ in range(2)])


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


# -- the backward sweep's contract --------------------------------------------

def test_gradients_appends_one_node_per_leaf():
    # the adjoints come back as plain arrays, one per leaf and shaped like
    # it, and the sweep leaves the tape as it was
    tape = dc.Tape()
    a = tape.input([[1.0, 2.0]])
    b = tape.input([[3.0]])
    c = tape.input([[0.5, -1.0]])
    y = dc.add(dc.sumsq(dc.add(a, b)), dc.mean_all(cube(a)))
    before = len(tape.nodes)
    grads = tape.gradients(y, [a, b, c])
    assert len(tape.nodes) == before
    assert all(type(g) is np.ndarray for g in grads)
    assert [g.shape for g in grads] == [(1, 2), (1, 1), (1, 2)]
    assert np.all(grads[2] == 0.0)
    # d/da [(a + b)²] + 3a²/2 and d/db Σ 2(a + b)
    assert_close(grads[0], 2.0 * np.array([4.0, 5.0]) + 1.5 * np.array(
        [1.0, 4.0]), 1e-12)
    assert_close(grads[1], [18.0], 1e-12)


def test_gradients_with_respect_to_intermediate_node():
    tape = dc.Tape()
    x = tape.input([[0.3, -1.2]])
    h = cube(x)
    (gh, gx) = tape.gradients(dc.sumsq(h), [h, x])
    assert_close(gh, 2.0 * h.value, 1e-12)
    assert_close(gx, 2.0 * h.value * 3.0 * x.value ** 2, 1e-12)


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
    y = dc.sumsq(X)
    (gX,) = tape.gradients(y, [X])
    assert_close(gX, 2.0 * X.value, 1e-12)


# -- determinism and error machinery ------------------------------------------

def _grad_bits(seed):
    x0 = np.random.default_rng(seed).uniform(-2.0, 2.0, size=(2, 3))
    tape = dc.Tape()
    x = tape.input(x0)
    y = dc.add(dc.sumsq(cube(x)), dc.scale(dc.mean_all(x), 0.3))
    return tape.gradients(y, [x])[0].tobytes()


def test_backward_bitwise_deterministic():
    assert _grad_bits(5) == _grad_bits(5)


def test_shape_mismatch_rejected():
    tape = dc.Tape()
    a = tape.input(np.zeros((2, 3)))
    b = tape.input(np.zeros((3, 3)))
    with pytest.raises(ValueError):
        dc.add(a, b)
