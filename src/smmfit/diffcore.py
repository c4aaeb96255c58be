"""Minimal tensor type and reverse-mode differentiation on an explicit tape.

Values are rank-2 float64 arrays (vectors are 1 x n rows, scalars 1 x 1).
Every operation appends one node to a Tape; node order is the topological
order, so the backward pass is a single reverse sweep over the node list.

A node holds only a weak reference to its tape, and every backward rule
captures arrays and parent nodes, never its own node, so a tape is an
acyclic structure that reference counting frees as soon as it is dropped.

Differentiation is first order.  Each node's backward rule is a plain
numpy function from its adjoint array to its parents' adjoint arrays, so
the sweep accumulates arrays, records nothing on the tape and returns
plain arrays.  Rules skip the arithmetic for parents that need no
gradient.

The primitives here are the few the loss graphs use for their loss
arithmetic (`add`, `scale`, `sum_all`, `sumsq`, `mean_all`); every other
node but the leaves is a `custom` node with a caller-supplied value and
first-order backward rule: in each loss, one per numpy stage on the
parameters.  Only training's loss graphs use the tape.
"""

from __future__ import annotations

import weakref

import numpy as np


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


class Tape:
    """Ordered record of primitive operations."""

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
        """Adjoints of ``leaves`` for a backward pass seeded at ``output``,
        one array per leaf (zeros for a leaf the output does not reach).

        The sweep visits each node at most once, in strict reverse order,
        accumulates plain arrays and appends nothing to the tape.
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
            contribs = node.bwd(g)
            for p, c in zip(node.parents, contribs):
                if c is None or not p.requires_grad:
                    continue
                prev = adjoint[p.idx]
                adjoint[p.idx] = c if prev is None else prev + c
        out = []
        for leaf in leaves:
            a = adjoint[leaf.idx] if leaf.idx <= output.idx else None
            out.append(np.zeros_like(leaf.value) if a is None else a)
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


def _broadcast_ok(sa, sb) -> bool:
    if sa == sb or sa == (1, 1) or sb == (1, 1):
        return True
    if sa[1] == sb[1] and (sa[0] == 1 or sb[0] == 1):
        return True
    if sa[0] == sb[0] and (sa[1] == 1 or sb[1] == 1):
        return True
    return False


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.tape is not b.tape:
        raise ValueError("add: operands on different tapes")
    if not _broadcast_ok(a.shape, b.shape):
        raise ValueError(f"add: incompatible shapes {a.shape} and {b.shape}")
    out = a.tape._append(a.value + b.value, (a, b), "add",
                         a.requires_grad or b.requires_grad)
    out.bwd = lambda g: (_unbroadcast(g, a.shape) if a.requires_grad else None,
                         _unbroadcast(g, b.shape) if b.requires_grad else None)
    return out


def scale(a: Tensor, c: float) -> Tensor:
    """Multiply by a plain float (not differentiated with respect to c)."""
    out = a.tape._append(a.value * c, (a,), "scale", a.requires_grad)
    out.bwd = lambda g: (g * c,)
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


def custom(parents, value, bwd, op: str = "custom") -> Tensor:
    """One node with a caller-supplied value and backward rule.

    ``bwd(g)`` maps the node's adjoint to one adjoint (or None) per entry
    of ``parents``, and must not refer to the node it belongs to.  A
    parent listed more than once gets its adjoints added in list order.
    """
    parents = tuple(parents)
    tape = parents[0].tape
    if any(p.tape is not tape for p in parents):
        raise ValueError(f"{op}: parents on different tapes")
    out = tape._append(_as_value(value), parents, op,
                       any(p.requires_grad for p in parents))
    out.bwd = bwd
    return out

