"""Tape engine checks on its one operation, `custom`: adjoints against
central finite differences, the backward sweep's contract and
determinism."""

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
    return dc.custom([a], a.value ** 3, lambda g: (g * (3.0 * a.value ** 2),))


def product(a, b):
    """An elementwise product of two same-shape nodes as one custom node."""
    return dc.custom([a, b], a.value * b.value,
                     lambda g: (g * b.value, g * a.value))


def total(a):
    """The sum of a node's entries as one 1 x 1 custom node."""
    return dc.custom([a], a.value.sum(), lambda g: (g * np.ones_like(a.value),))


# -- finite differences -------------------------------------------------------

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


@pytest.mark.parametrize("name", ["custom"])
def test_primitive_grad_matches_fd(name):
    # `custom` is the engine's one operation
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    for _ in range(5):
        assert_grads_match_fd(lambda a, b: total(cube(product(a, b))),
                              [rng.uniform(-2.0, 2.0, size=(2, 2))
                               for _ in range(2)])


def test_grad_deep_composite_matches_fd():
    # several layers in one graph, nodes read by two consumers
    def f(a, b):
        c = cube(product(a, b))
        return total(product(cube(c), product(c, a)))

    rng = np.random.default_rng(7)
    for _ in range(5):
        assert_grads_match_fd(f, [rng.uniform(-1.0, 1.0, size=(2, 3))
                                  for _ in range(2)])


# -- the backward sweep's contract --------------------------------------------

def test_gradients_appends_one_node_per_leaf():
    # the adjoints come back as plain arrays, one per leaf and shaped like
    # it, and the sweep leaves the tape as it was
    tape = dc.Tape()
    a = tape.input([[1.0, 2.0]])
    b = tape.input([[3.0]])
    c = tape.input([[0.5, -1.0]])
    ab = dc.custom([a, b], a.value * b.value,
                   lambda g: (g * b.value, np.array([[np.sum(g * a.value)]])))
    y = total(product(ab, ab))
    before = len(tape.nodes)
    grads = tape.gradients(y, [a, b, c])
    assert len(tape.nodes) == before
    assert all(type(g) is np.ndarray for g in grads)
    assert [g.shape for g in grads] == [(1, 2), (1, 1), (1, 2)]
    assert np.all(grads[2] == 0.0)
    # d/da Σ (a b)² = 2 a b² and d/db = 2 b Σ a²
    assert_close(grads[0], [18.0, 36.0], 1e-12)
    assert_close(grads[1], [30.0], 1e-12)


def test_gradients_with_respect_to_intermediate_node():
    tape = dc.Tape()
    x = tape.input([[0.3, -1.2]])
    h = cube(x)
    (gh, gx) = tape.gradients(total(product(h, h)), [h, x])
    assert_close(gh, 2.0 * h.value, 1e-12)
    assert_close(gx, 2.0 * h.value * 3.0 * x.value ** 2, 1e-12)


def test_gradients_unused_leaf_is_zero():
    tape = dc.Tape()
    a = tape.input([[1.0, 2.0]])
    b = tape.input([[3.0]])
    (ga, gb) = tape.gradients(total(product(a, a)), [a, b])
    assert_close(ga, [2.0, 4.0], 1e-12)
    assert np.all(gb == 0.0)


def test_gradients_sum_trick_gives_per_row():
    # summing a per-row scalar over the batch yields row-wise input gradients
    tape = dc.Tape()
    X = tape.input([[1.0, 2.0], [0.5, -1.0], [3.0, 0.0]])
    (gX,) = tape.gradients(total(product(X, X)), [X])
    assert_close(gX, 2.0 * X.value, 1e-12)


# -- determinism --------------------------------------------------------------

def _grad_bits(seed):
    x0 = np.random.default_rng(seed).uniform(-2.0, 2.0, size=(2, 3))
    tape = dc.Tape()
    x = tape.input(x0)
    c = cube(x)
    y = total(product(product(c, x), c))
    return tape.gradients(y, [x])[0].tobytes()


def test_backward_bitwise_deterministic():
    assert _grad_bits(5) == _grad_bits(5)
