"""Network parameterization of a structured mechanical model.

Three small MLPs: a mass net producing the lower-triangular Cholesky
factor of M(q) (softplus + ε on the diagonal keeps it positive
definite), a potential net for V(q), and an optional force net on
(q, q̇).  Each component carries an explicit output log-scale so the
model class is exactly closed under multiplication by a positive
scalar.

A model is one flat parameter vector (`FlatParams`); its `ParamLayout`
names the slot of every weight, bias and the log-scale block.  The
batched tape builders slice the nets out of that vector.  The MLP,
Cholesky-factor and potential builders take optional forward-mode
directions and return one spatial derivative per direction beside their
value; with none they build the value alone.  M(q) and its derivatives
come from the Gram of the factor (`gram`), inside the fused nodes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import diffcore as dc


class ConservativeForceError(Exception):
    """force() was called on a conservative model."""


@dataclass
class ArchConfig:
    """Architecture of the three component nets."""

    n: int = 2
    hidden: tuple = (32, 32)
    activation: str = "tanh"
    eps: float = 1e-3
    conservative: bool = True

    def __post_init__(self):
        self.hidden = tuple(int(h) for h in self.hidden)
        if self.n < 1 or any(h < 1 for h in self.hidden):
            raise ValueError("dimensions must be positive")
        if self.activation != "tanh":
            raise ValueError(f"unsupported activation {self.activation!r}")

    @property
    def tri(self) -> int:
        # lower-triangle size, diagonal included
        return self.n * (self.n + 1) // 2

    def net_dims(self, net: str):
        if net == "mass":
            return self.n, self.tri
        if net == "potential":
            return self.n, 1
        if net == "force":
            return 2 * self.n, self.n
        raise KeyError(net)

    @property
    def nets(self):
        names = ["mass", "potential"]
        if not self.conservative:
            names.append("force")
        return names


class ParamLayout:
    """Flat-vector layout: one contiguous slot per weight, bias, and the
    log-scale block, in fixed order.  The single source of truth for how
    the optimizer's vector maps onto the nets."""

    def __init__(self, arch: ArchConfig):
        self.arch = arch
        self.slots = []  # (key, shape, start, end)
        off = 0
        for net in arch.nets:
            dims = self._layer_dims(net)
            for i, (din, dout) in enumerate(dims):
                for kind, shape in (("W", (din, dout)), ("b", (1, dout))):
                    size = shape[0] * shape[1]
                    self.slots.append((f"{net}.{i}.{kind}", shape, off, off + size))
                    off += size
        nscale = 2 if arch.conservative else 3
        self.slots.append(("log_scales", (1, nscale), off, off + nscale))
        self.total = off + nscale
        self._index = {key: (shape, s, e) for key, shape, s, e in self.slots}

    def _layer_dims(self, net: str):
        din, dout = self.arch.net_dims(net)
        widths = [din, *self.arch.hidden, dout]
        return list(zip(widths[:-1], widths[1:]))

    def slot(self, key: str):
        return self._index[key]

    def n_layers(self, net: str) -> int:
        return len(self._layer_dims(net))


@dataclass
class FlatParams:
    """A parameter vector tied to the layout that decodes it."""

    values: np.ndarray
    layout: ParamLayout

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64).ravel()
        if self.values.size != self.layout.total:
            raise ValueError("length does not match layout")


def init_params(rng, arch: ArchConfig) -> FlatParams:
    """Scaled-uniform U(±1/√fan_in) weights and biases, zero log-scales.

    Slots are drawn in layout order, each layer's W then its b.
    """
    gen = np.random.default_rng(rng) if isinstance(rng, (int, np.integer)) else rng
    layout = ParamLayout(arch)
    values = np.zeros(layout.total)
    for key, shape, s, e in layout.slots:
        if key == "log_scales":
            continue
        if key.endswith(".W"):
            # a layer's bias shares its weight's bound
            bound = 1.0 / np.sqrt(shape[0])
        values[s:e] = gen.uniform(-bound, bound, size=shape).reshape(-1)
    return FlatParams(values, layout)


# -- batched tape builders ----------------------------------------------------

def log_scale_t(theta, layout: ParamLayout, which: int):
    _, s, e = layout.slot("log_scales")
    return dc.cols(theta, s + which, s + which + 1)


def mlp_t(theta, layout: ParamLayout, net: str, X, dirs=()):
    """Batched MLP forward as a tape graph, weights sliced out of theta,
    plus its directional derivative along each of ``dirs``.

    The JVP chain reuses the forward activations (tanh' = 1 - a^2), so each
    direction costs about one extra forward pass and no reverse sweep.
    """
    a, das = X, list(dirs)
    last = layout.n_layers(net) - 1
    for i in range(last + 1):
        shape, s, e = layout.slot(f"{net}.{i}.W")
        W = dc.reshape(dc.cols(theta, s, e), shape)
        _, s, e = layout.slot(f"{net}.{i}.b")
        b = dc.cols(theta, s, e)
        a = dc.add(dc.matmul(a, W), b)
        das = [dc.matmul(da, W) for da in das]
        if i < last:
            a = dc.tanh(a)
            if das:
                sech2 = dc.shift(dc.neg(dc.mul(a, a)), 1.0)
                das = [dc.mul(sech2, da) for da in das]
    return a, das


def chol_entries_t(theta, layout: ParamLayout, Q, dirs=()):
    """Scaled Cholesky columns {(i,j): (B,1)} with e^{s_M/2} folded in, so
    M = Σ_k L̃[i,k] L̃[j,k] directly, and one such dict per direction."""
    arch = layout.arch
    out, douts = mlp_t(theta, layout, "mass", Q, dirs)
    half = dc.exp(dc.scale(log_scale_t(theta, layout, 0), 0.5))
    ent = {}
    dent = [{} for _ in douts]
    t = 0
    for i in range(arch.n):
        for j in range(i + 1):
            col = dc.cols(out, t, t + 1)
            if i == j:
                ent[(i, j)] = dc.mul(dc.shift(dc.softplus(col), arch.eps), half)
                gate = dc.sigmoid(col) if douts else None
                for d, do in zip(dent, douts):
                    d[(i, j)] = dc.mul(dc.mul(gate, dc.cols(do, t, t + 1)), half)
            else:
                ent[(i, j)] = dc.mul(col, half)
                for d, do in zip(dent, douts):
                    d[(i, j)] = dc.mul(dc.cols(do, t, t + 1), half)
            t += 1
    return ent, dent


def mass_entries_t(theta, layout: ParamLayout, Q) -> np.ndarray:
    """Batched M(q) values as a (B, n, n) array: the Gram of the scaled
    factor's entries, as `gram` computes it."""
    n = layout.arch.n
    L, _ = chol_entries_t(theta, layout, Q)
    G, _ = gram({k: L[k].value for k in tri_keys(n)}, [], n)
    M = np.empty((Q.shape[0], n, n))
    for i in range(n):
        for j in range(n):
            M[:, i, j] = G[sym(i, j)][:, 0]
    return M


def potential_t(theta, layout: ParamLayout, Q, dirs=()):
    """Batched V(q) as a (B,1) tape tensor, and its spatial derivatives."""
    out, douts = mlp_t(theta, layout, "potential", Q, dirs)
    g = dc.exp(log_scale_t(theta, layout, 1))
    return dc.mul(out, g), [dc.mul(do, g) for do in douts]


def force_t(theta, layout: ParamLayout, Q, Qdot):
    """Batched F(q, q̇) as a (B,n) tape tensor."""
    if layout.arch.conservative:
        raise ConservativeForceError("model has no force net")
    X = dc.concat_cols([Q, Qdot])
    out, _ = mlp_t(theta, layout, "force", X)
    return dc.mul(out, dc.exp(log_scale_t(theta, layout, 2)))


# -- fused blocks -------------------------------------------------------------
#
# A fused block is one tape node that does the work of many (B, 1) column
# nodes.  Its forward runs the same ufuncs on the same contiguous columns
# in the same order as the column graph it replaces.  Its backward replays
# that graph's sweep in reverse node order and adds every adjoint in the
# order the sweep added it, so values and gradients keep every bit.  A
# parent that no later node consumes gets one summed adjoint; a parent
# that a later node also consumes is listed once per use instead.

def tri_keys(n: int):
    """(i, j) for j <= i, row by row: the order entries are built in."""
    return [(i, j) for i in range(n) for j in range(i + 1)]


def sym(i: int, j: int):
    """The stored key of symmetric entry (i, j)."""
    return (i, j) if j <= i else (j, i)


def accumulate(adj: dict, key, c) -> None:
    """Add ``c`` into ``adj[key]`` as the backward sweep adds adjoints."""
    prev = adj.get(key)
    adj[key] = c if prev is None else prev + c


def gram(L, dL, n: int, with_M: bool = True):
    """M = L Lᵀ and dM = dL Lᵀ + L dLᵀ per direction, from (B, 1) entry
    arrays keyed (i, j) with j <= i, summed over k in increasing order
    as the per-entry column graph adds its products."""
    M = {}
    dM = [{} for _ in dL]
    for i in range(n):
        for j in range(i + 1):
            if with_M:
                acc = None
                for k in range(j + 1):
                    t = L[i, k] * L[j, k]
                    acc = t if acc is None else acc + t
                M[i, j] = acc
            for dl, dm in zip(dL, dM):
                acc = None
                for k in range(j + 1):
                    t = dl[i, k] * L[j, k] + L[i, k] * dl[j, k]
                    acc = t if acc is None else acc + t
                dm[i, j] = acc
    return M, dM


@lru_cache(maxsize=None)
def gram_schedule(n: int, ndirs: int, with_M: bool):
    """The Gram's products in backward order: (direction or None for M,
    entry, (i, k), (j, k))."""
    steps = []
    for i in reversed(range(n)):
        for j in reversed(range(i + 1)):
            for d in reversed(range(ndirs)):
                steps += [(d, (i, j), (i, k), (j, k))
                          for k in reversed(range(j + 1))]
            if with_M:
                steps += [(None, (i, j), (i, k), (j, k))
                          for k in reversed(range(j + 1))]
    return tuple(steps)


def gram_uses(n: int, ndirs: int, with_M: bool):
    """The L entry behind each contribution gram_bwd returns, in order."""
    return [key for _, _, ik, jk in gram_schedule(n, ndirs, with_M)
            for key in (ik, jk)]


def gram_bwd(L, dL, gM, gdM, n: int, with_M: bool = True):
    """Backward of gram: L's contributions one per use (as gram_uses keys
    them; None where the product's adjoint is None) and dL's summed
    adjoints per direction."""
    uses = []
    gdL = [{} for _ in dL]
    for d, e, ik, jk in gram_schedule(n, len(dL), with_M):
        G = gM.get(e) if d is None else gdM[d].get(e)
        if G is None:
            uses += [None, None]
        elif d is None:
            # t = L[i,k] * L[j,k]
            uses += [G * L[jk], G * L[ik]]
        else:
            # t = dl[i,k] * L[j,k] + L[i,k] * dl[j,k]; the second product
            # is the later node, so its adjoints come first
            dl, a = dL[d], gdL[d]
            uses.append(G * dl[jk])
            accumulate(a, jk, G * L[ik])
            accumulate(a, ik, G * L[jk])
            uses.append(G * dl[ik])
    return uses, gdL


def sum_uses(keys, uses) -> dict:
    """One summed adjoint per key from per-use contributions."""
    adj = {}
    for key, c in zip(keys, uses):
        if c is not None:
            accumulate(adj, key, c)
    return adj


def chol_solve_t(L, rhs):
    """Solve L Lᵀ x = b for a (B, n) right-hand side as one tape node.

    ``L`` maps (i, j), j <= i, to (B, 1) tensors.  Forward and back
    substitution run column by column, as n (B, 1) columns.
    """
    n = rhs.shape[1]
    keys = tri_keys(n)
    Lv = {k: L[k].value for k in keys}
    r = [dc._reciprocal_np(Lv[i, i]) for i in range(n)]
    y, yacc = [], []
    for i in range(n):
        acc = np.ascontiguousarray(rhs.value[:, i:i + 1])
        for j in range(i):
            acc = acc + -(Lv[i, j] * y[j])
        yacc.append(acc)
        y.append(acc * r[i])
    x, xacc = [None] * n, [None] * n
    for i in reversed(range(n)):
        acc = y[i]
        for j in range(i + 1, n):
            acc = acc + -(Lv[j, i] * x[j])
        xacc[i] = acc
        x[i] = acc * r[i]

    def bwd(g):
        adj = {}
        gx = [np.ascontiguousarray(g[:, i:i + 1]) for i in range(n)]
        gy = [None] * n
        # back substitution, last node first: row 0 was built last
        for i in range(n):
            a = gx[i] * r[i]
            accumulate(adj, (i, i), -((gx[i] * xacc[i]) * (r[i] * r[i])))
            for j in reversed(range(i + 1, n)):
                gp = -a
                accumulate(adj, (j, i), gp * x[j])
                gx[j] = gx[j] + gp * Lv[j, i]
            gy[i] = a
        # forward substitution
        gb = [None] * n
        for i in reversed(range(n)):
            a = gy[i] * r[i]
            accumulate(adj, (i, i), -((gy[i] * yacc[i]) * (r[i] * r[i])))
            for j in reversed(range(i)):
                gp = -a
                accumulate(adj, (i, j), gp * y[j])
                gy[j] = gy[j] + gp * Lv[i, j]
            gb[i] = a
        return (*(adj[k] for k in keys), np.concatenate(gb, axis=1))

    return dc.custom([L[k] for k in keys] + [rhs], np.concatenate(x, axis=1),
                     bwd, "chol_solve")


# -- checkpoint files ---------------------------------------------------------

def save_params(params: FlatParams, path, seed: int | None = None) -> None:
    """JSON checkpoint: architecture, flat parameter vector, seed."""
    arch = params.layout.arch
    blob = {
        "arch": {
            "n": arch.n,
            "hidden": list(arch.hidden),
            "activation": arch.activation,
            "eps": arch.eps,
            "conservative": arch.conservative,
        },
        "layout": [{"key": k, "shape": list(shape), "start": s, "end": e}
                   for k, shape, s, e in params.layout.slots],
        "flat": [float(v) for v in params.values],
        "seed": seed,
    }
    with open(path, "w") as fh:
        json.dump(blob, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_params(path):
    """Returns (FlatParams, seed)."""
    with open(path) as fh:
        blob = json.load(fh)
    a = blob["arch"]
    arch = ArchConfig(n=a["n"], hidden=tuple(a["hidden"]),
                      activation=a["activation"], eps=a["eps"],
                      conservative=a["conservative"])
    layout = ParamLayout(arch)
    stored = [(d["key"], tuple(d["shape"]), d["start"], d["end"])
              for d in blob["layout"]]
    if stored != [(k, tuple(s), a_, b_) for k, s, a_, b_ in layout.slots]:
        raise ValueError("layout descriptor does not match architecture")
    values = np.array(blob["flat"], dtype=np.float64)
    return FlatParams(values, layout), blob.get("seed")
