"""Minimal tensor type and reverse-mode differentiation on an explicit tape.

Values are rank-2 float64 arrays (vectors are 1 x n rows, scalars 1 x 1).
Every operation appends one node to a Tape; node order is the topological
order, so the backward pass is a single reverse sweep over the node list.

A node holds only a weak reference to its tape, and every backward rule
captures arrays and parent nodes, never its own node, so a tape is an
acyclic structure that reference counting frees as soon as it is dropped.

Differentiation is first order.  Each node's backward rule is a plain
numpy function from its adjoint array to its parents' adjoint arrays, so
the sweep accumulates arrays and records nothing on the tape except one
node per requested adjoint.  Rules skip the arithmetic for parents that
need no gradient.  The adjoint nodes have no derivative rule:
differentiating through one raises NonDifferentiablePrimitiveError.
"""

from __future__ import annotations

import weakref

import numpy as np


class DiffcoreError(Exception):
    """Base class for engine errors."""


class NotPositiveDefiniteError(DiffcoreError):
    """A factorization hit a nonpositive pivot.

    ``pivot`` is the zero-based index of the first failing pivot.
    """

    def __init__(self, pivot: int, value: float):
        self.pivot = pivot
        self.value = value
        super().__init__(f"matrix not positive definite: pivot {pivot} = {value:.6g}")


class NonScalarOutputError(DiffcoreError):
    """grad() was handed a function whose output is not 1 x 1."""


class NonDifferentiablePrimitiveError(DiffcoreError):
    """Backward pass reached a primitive with no derivative rule."""


def _as_value(x) -> np.ndarray:
    """Coerce scalars / 1-D / 2-D input to a C-order float64 rank-2 array."""
    a = np.asarray(x, dtype=np.float64)
    if a.ndim == 0:
        a = a.reshape(1, 1)
    elif a.ndim == 1:
        a = a.reshape(1, -1)
    elif a.ndim != 2:
        raise ValueError(f"rank-{a.ndim} arrays are not supported")
    return np.ascontiguousarray(a)


class Tensor:
    """A node on a tape: a rank-2 value plus the record of how it was made."""

    __slots__ = ("tape", "idx", "value", "parents", "op", "bwd", "requires_grad")

    def __init__(self, tape, idx, value, parents, op, requires_grad):
        self.tape = tape
        self.idx = idx
        self.value = value
        self.parents = parents
        self.op = op
        self.bwd = None
        self.requires_grad = requires_grad

    @property
    def shape(self):
        return self.value.shape

    def item(self) -> float:
        if self.value.size != 1:
            raise ValueError(f"item() on shape {self.value.shape}")
        return float(self.value[0, 0])

    def __repr__(self):
        return f"Tensor(op={self.op!r}, shape={self.value.shape})"


class Tape:
    """Ordered record of primitive operations plus adjoint bookkeeping."""

    def __init__(self):
        self.nodes: list[Tensor] = []
        # what every node holds: a strong reference would make each tape a
        # cycle that only the cyclic collector frees
        self._ref = weakref.proxy(self)

    def _append(self, value, parents, op, requires_grad) -> Tensor:
        t = Tensor(self._ref, len(self.nodes), value, parents, op,
                   requires_grad)
        self.nodes.append(t)
        return t

    def constant(self, x) -> Tensor:
        return self._append(_as_value(x), (), "constant", False)

    def input(self, x) -> Tensor:
        """A leaf whose adjoint will be tracked."""
        return self._append(_as_value(x), (), "input", True)

    def gradients(self, output: Tensor, leaves):
        """Adjoints of ``leaves`` for a backward pass seeded at ``output``.

        The sweep visits each node at most once, in strict reverse order,
        and accumulates plain arrays.  Each returned adjoint (zeros for a
        leaf the output does not depend on) is appended as one node whose
        parent is ``output`` and which has no derivative rule, so it can
        enter further computation but not a second backward pass.
        """
        if output.tape is not self._ref:
            raise ValueError("output was recorded on a different tape")
        leaves = list(leaves)
        keep = {leaf.idx for leaf in leaves}
        adjoint: list[np.ndarray | None] = [None] * (output.idx + 1)
        adjoint[output.idx] = np.ones_like(output.value)
        for i in range(output.idx, -1, -1):
            g = adjoint[i]
            if g is None:
                continue
            node = self.nodes[i]
            if not node.parents:
                continue
            if i not in keep:
                adjoint[i] = None  # no longer needed; frees it early
            if node.bwd is None:
                if any(p.requires_grad for p in node.parents):
                    raise NonDifferentiablePrimitiveError(
                        f"primitive {node.op!r} has no derivative rule"
                    )
                continue
            contribs = node.bwd(g)
            for p, c in zip(node.parents, contribs):
                if c is None or not p.requires_grad:
                    continue
                prev = adjoint[p.idx]
                adjoint[p.idx] = c if prev is None else prev + c
        out = []
        for leaf in leaves:
            a = adjoint[leaf.idx] if leaf.idx <= output.idx else None
            if a is None:
                a = np.zeros_like(leaf.value)
            out.append(self._append(a, (output,), "adjoint",
                                    output.requires_grad))
        return out


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Reduce an adjoint back to the shape of a broadcast operand."""
    if g.shape == shape:
        return g
    if shape == (1, 1):
        return np.array([[g.sum()]])
    if shape[0] == 1:
        return g.sum(axis=0, keepdims=True)
    if shape[1] == 1:
        return g.sum(axis=1, keepdims=True)
    raise ValueError(f"cannot reduce {g.shape} to {shape}")


def _t(a: np.ndarray) -> np.ndarray:
    # a contiguous transpose, as the forward transpose stores it
    return np.ascontiguousarray(a.T)


def _broadcast_ok(sa, sb) -> bool:
    if sa == sb or sa == (1, 1) or sb == (1, 1):
        return True
    if sa[1] == sb[1] and (sa[0] == 1 or sb[0] == 1):
        return True
    if sa[0] == sb[0] and (sa[1] == 1 or sb[1] == 1):
        return True
    return False


def _binary(a: Tensor, b: Tensor, op: str):
    if a.tape is not b.tape:
        raise ValueError(f"{op}: operands on different tapes")
    if not _broadcast_ok(a.shape, b.shape):
        raise ValueError(f"{op}: incompatible shapes {a.shape} and {b.shape}")


def add(a: Tensor, b: Tensor) -> Tensor:
    _binary(a, b, "add")
    out = a.tape._append(a.value + b.value, (a, b), "add",
                         a.requires_grad or b.requires_grad)
    out.bwd = lambda g: (_unbroadcast(g, a.shape) if a.requires_grad else None,
                         _unbroadcast(g, b.shape) if b.requires_grad else None)
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    _binary(a, b, "mul")
    out = a.tape._append(a.value * b.value, (a, b), "mul",
                         a.requires_grad or b.requires_grad)
    out.bwd = lambda g: (
        _unbroadcast(g * b.value, a.shape) if a.requires_grad else None,
        _unbroadcast(g * a.value, b.shape) if b.requires_grad else None)
    return out


def neg(a: Tensor) -> Tensor:
    out = a.tape._append(-a.value, (a,), "neg", a.requires_grad)
    out.bwd = lambda g: (-g,)
    return out


def scale(a: Tensor, c: float) -> Tensor:
    """Multiply by a plain float (not differentiated with respect to c)."""
    out = a.tape._append(a.value * c, (a,), "scale", a.requires_grad)
    out.bwd = lambda g: (g * c,)
    return out


def shift(a: Tensor, c: float) -> Tensor:
    """Add a plain float elementwise."""
    out = a.tape._append(a.value + c, (a,), "shift", a.requires_grad)
    out.bwd = lambda g: (g,)
    return out


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.tape is not b.tape:
        raise ValueError("matmul: operands on different tapes")
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul: {a.shape} @ {b.shape}")
    out = a.tape._append(a.value @ b.value, (a, b), "matmul",
                         a.requires_grad or b.requires_grad)
    out.bwd = lambda g: (g @ _t(b.value) if a.requires_grad else None,
                         _t(a.value) @ g if b.requires_grad else None)
    return out


def transpose(a: Tensor) -> Tensor:
    out = a.tape._append(_t(a.value), (a,), "transpose", a.requires_grad)
    out.bwd = lambda g: (_t(g),)
    return out


def reshape(a: Tensor, shape) -> Tensor:
    r, c = shape
    out = a.tape._append(a.value.reshape(r, c), (a,), "reshape", a.requires_grad)
    out.bwd = lambda g: (g.reshape(a.shape),)
    return out


def tanh(a: Tensor) -> Tensor:
    o = np.tanh(a.value)
    out = a.tape._append(o, (a,), "tanh", a.requires_grad)
    out.bwd = lambda g: (g * (-(o * o) + 1.0),)
    return out


def exp(a: Tensor) -> Tensor:
    o = np.exp(a.value)
    if not np.all(np.isfinite(o)):
        raise DiffcoreError("exp overflow")
    out = a.tape._append(o, (a,), "exp", a.requires_grad)
    out.bwd = lambda g: (g * o,)
    return out


def log(a: Tensor) -> Tensor:
    if np.any(a.value <= 0.0):
        raise DiffcoreError("log of nonpositive value")
    out = a.tape._append(np.log(a.value), (a,), "log", a.requires_grad)
    out.bwd = lambda g: (g * (1.0 / a.value),)
    return out


def sqrt(a: Tensor) -> Tensor:
    if np.any(a.value < 0.0):
        raise DiffcoreError("sqrt of negative value")
    o = np.sqrt(a.value)
    out = a.tape._append(o, (a,), "sqrt", a.requires_grad)
    out.bwd = lambda g: (g * (_reciprocal_np(o) * 0.5),)
    return out


def _reciprocal_np(x: np.ndarray) -> np.ndarray:
    if np.any(x == 0.0):
        raise DiffcoreError("reciprocal of zero")
    return 1.0 / x


def reciprocal(a: Tensor) -> Tensor:
    o = _reciprocal_np(a.value)
    out = a.tape._append(o, (a,), "reciprocal", a.requires_grad)
    out.bwd = lambda g: (-(g * (o * o)),)
    return out


def _softplus_np(x: np.ndarray) -> np.ndarray:
    # overflow-safe log(1 + e^x)
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def _sigmoid_np(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def softplus(a: Tensor) -> Tensor:
    out = a.tape._append(_softplus_np(a.value), (a,), "softplus", a.requires_grad)
    out.bwd = lambda g: (g * _sigmoid_np(a.value),)
    return out


def sigmoid(a: Tensor) -> Tensor:
    o = _sigmoid_np(a.value)
    out = a.tape._append(o, (a,), "sigmoid", a.requires_grad)
    out.bwd = lambda g: (g * (o * (-o + 1.0)),)
    return out


def sum_all(a: Tensor) -> Tensor:
    out = a.tape._append(np.array([[a.value.sum()]]), (a,), "sum_all",
                         a.requires_grad)
    out.bwd = lambda g: (g * np.ones_like(a.value),)
    return out


def sumsq(a: Tensor) -> Tensor:
    """Squared Frobenius norm, as a 1 x 1 tensor."""
    out = a.tape._append(np.array([[float(np.sum(a.value * a.value))]]), (a,),
                         "sumsq", a.requires_grad)
    out.bwd = lambda g: (g * (a.value * 2.0),)
    return out


def mean_all(a: Tensor) -> Tensor:
    return scale(sum_all(a), 1.0 / a.value.size)


def cols(a: Tensor, j0: int, j1: int) -> Tensor:
    out = a.tape._append(np.ascontiguousarray(a.value[:, j0:j1]), (a,), "cols",
                         a.requires_grad)

    def bwd(g):
        v = np.zeros(a.shape)
        v[:, j0:j1] = g
        return (v,)

    out.bwd = bwd
    return out


def concat_cols(parts) -> Tensor:
    parts = list(parts)
    tape = parts[0].tape
    v = np.concatenate([p.value for p in parts], axis=1)
    out = tape._append(v, tuple(parts), "concat_cols",
                       any(p.requires_grad for p in parts))

    def bwd(g):
        res, j = [], 0
        for p in parts:
            w = p.shape[1]
            res.append(np.ascontiguousarray(g[:, j:j + w])
                       if p.requires_grad else None)
            j += w
        return tuple(res)

    out.bwd = bwd
    return out


def custom(parents, value, bwd, op: str = "custom") -> Tensor:
    """One node with a caller-supplied value and backward rule.

    ``bwd(g)`` maps the node's adjoint to one adjoint (or None) per entry
    of ``parents``, and must not refer to the node it belongs to.  A
    parent may be listed more than once: the sweep adds its adjoints in
    list order, so a fused block can hand over each use of a parent
    separately, in the order a graph of smaller nodes would add them.
    """
    parents = tuple(parents)
    tape = parents[0].tape
    if any(p.tape is not tape for p in parents):
        raise ValueError(f"{op}: parents on different tapes")
    out = tape._append(_as_value(value), parents, op,
                       any(p.requires_grad for p in parents))
    out.bwd = bwd
    return out


# -- Cholesky factor ----------------------------------------------------------

def cholesky_np(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of a symmetric matrix.

    Raises NotPositiveDefiniteError with the index of the first
    nonpositive pivot; the symmetry precondition is checked up front.
    """
    a = np.asarray(a, dtype=np.float64)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError(f"expected square matrix, got {a.shape}")
    tol = 1e-8 * max(1.0, float(np.abs(a).max()))
    if not np.allclose(a, a.T, atol=tol):
        raise ValueError("matrix is not symmetric")
    L = np.zeros_like(a)
    for k in range(n):
        d = a[k, k] - L[k, :k] @ L[k, :k]
        if d <= 0.0:
            raise NotPositiveDefiniteError(k, float(d))
        L[k, k] = np.sqrt(d)
        for i in range(k + 1, n):
            L[i, k] = (a[i, k] - L[i, :k] @ L[k, :k]) / L[k, k]
    return L


# -- functional differentiation API ------------------------------------------

def grad(f, x) -> np.ndarray:
    """Gradient of a scalar-valued tape function at a point.

    ``f`` receives a (1, n) input Tensor and must return a 1 x 1 Tensor.
    """
    tape = Tape()
    xt = tape.input(np.asarray(x, dtype=np.float64).reshape(1, -1))
    y = f(xt)
    if not isinstance(y, Tensor):
        raise NonScalarOutputError("function did not return a Tensor")
    if y.shape != (1, 1):
        raise NonScalarOutputError(f"expected scalar output, got shape {y.shape}")
    (g,) = tape.gradients(y, [xt])
    return g.value.ravel().copy()


def jacobian(f, x) -> np.ndarray:
    """Jacobian of a vector-valued tape function; row i is the gradient of
    output component i."""
    tape = Tape()
    xt = tape.input(np.asarray(x, dtype=np.float64).reshape(1, -1))
    y = f(xt)
    if y.shape[0] != 1:
        y = transpose(y)
    m, n = y.shape[1], xt.shape[1]
    J = np.empty((m, n))
    for i in range(m):
        (g,) = tape.gradients(cols(y, i, i + 1), [xt])
        J[i] = g.value.ravel()
    return J
