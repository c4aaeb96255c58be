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
plain arrays.

The one operation is `custom`: a node with a caller-supplied value and
first-order backward rule.  Each of training's losses is one such node
on the parameters' input row.
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

    __slots__ = ("tape", "idx", "value", "parents", "bwd")

    def __init__(self, tape, idx, value, parents):
        self.tape = tape
        self.idx = idx
        self.value = value
        self.parents = parents
        self.bwd = None


class Tape:
    """Ordered record of operations."""

    def __init__(self):
        self.nodes: list[Tensor] = []
        # what every node holds: a strong reference would make each tape a
        # cycle that only the cyclic collector frees
        self._ref = weakref.proxy(self)

    def _append(self, value, parents) -> Tensor:
        t = Tensor(self._ref, len(self.nodes), value, parents)
        self.nodes.append(t)
        return t

    def input(self, x) -> Tensor:
        """A leaf whose adjoint will be tracked."""
        return self._append(_as_value(x), ())

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
                if c is None:
                    continue
                prev = adjoint[p.idx]
                adjoint[p.idx] = c if prev is None else prev + c
        out = []
        for leaf in leaves:
            a = adjoint[leaf.idx] if leaf.idx <= output.idx else None
            out.append(np.zeros_like(leaf.value) if a is None else a)
        return out


def custom(parents, value, bwd) -> Tensor:
    """One node with a caller-supplied value and backward rule.

    ``bwd(g)`` maps the node's adjoint to one adjoint (or None) per entry
    of ``parents``, and must not refer to the node it belongs to.  A
    parent listed more than once gets its adjoints added in list order.
    """
    parents = tuple(parents)
    tape = parents[0].tape
    if any(p.tape is not tape for p in parents):
        raise ValueError("custom: parents on different tapes")
    out = tape._append(_as_value(value), parents)
    out.bwd = bwd
    return out
