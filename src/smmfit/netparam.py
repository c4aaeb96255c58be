"""Network parameterization of a structured mechanical model.

Three small MLPs: a mass net producing the lower-triangular Cholesky
factor of M(q) (softplus + ε on the diagonal keeps it positive
definite), a potential net for V(q), and an optional force net on
(q, q̇).  Each component carries an explicit output log-scale so the
model class is exactly closed under multiplication by a positive
scalar.

A model is one flat parameter vector (`FlatParams`); its `ParamLayout`
names the slot of every weight, bias and the log-scale block.  Each
batched net build (`chol_entries_t`, `potential_t`, `force_t`) is one
tape node that slices its net out of that vector, runs the MLP and its
output head in numpy and replays the per-node graph's reverse sweep in
its backward, so losses and gradients keep every bit.  The Cholesky and
potential builds take optional forward-mode directions and return one
spatial derivative per direction; with none they build the value alone.
M(q) and its derivatives come from the Gram of the factor (`gram`),
inside the fused nodes; `mass_entries_t` gives M(q) values with no tape.
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
        self.layers = {}  # per net, each layer's (W, b) as (shape, start, end)
        off = 0
        for net in arch.nets:
            self.layers[net] = []
            for i, (din, dout) in enumerate(self._layer_dims(net)):
                layer = []
                for kind, shape in (("W", (din, dout)), ("b", (1, dout))):
                    size = shape[0] * shape[1]
                    self.slots.append((f"{net}.{i}.{kind}", shape, off, off + size))
                    layer.append((shape, off, off + size))
                    off += size
                self.layers[net].append(tuple(layer))
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


# -- fused net builds ---------------------------------------------------------
#
# Each net build (an MLP and its output head) is one tape node.  Its
# forward runs the numpy expressions of the per-node graph it replaces (a
# node per weight slice, matmul, tanh, product and head entry), in that
# graph's order.  Its backward replays that graph's reverse sweep: every
# adjoint is the same expression, added in the order the sweep added it,
# and an output whose adjoint the sweep never reached (the value of a
# build that only serves its directions) contributes nothing.  The node
# returns one full-size theta adjoint with the build's slots filled, and
# an adjoint for its input only when the input needs one.

def _t(a: np.ndarray) -> np.ndarray:
    # a contiguous transpose for the matmul adjoints
    return np.ascontiguousarray(a.T)


def _add(prev, c):
    # how the sweep adds a contribution into an adjoint
    return c if prev is None else prev + c


def _mlp_np(theta_v, layout: ParamLayout, net: str, x, dirs):
    """The net at the rows of ``x``, and its directional derivative along
    each of ``dirs``: (out, douts, per-layer record for `_mlp_bwd`).

    The JVP chain reuses the forward activations (tanh' = 1 - a^2), so
    each direction costs about one extra forward pass.
    """
    a, das = x, list(dirs)
    layers = []
    last = len(layout.layers[net]) - 1
    for i, ((shape, sW, eW), (_, sb, eb)) in enumerate(layout.layers[net]):
        W = np.ascontiguousarray(theta_v[:, sW:eW]).reshape(shape)
        b = np.ascontiguousarray(theta_v[:, sb:eb])
        z = a @ W + b
        es = [da @ W for da in das]
        o = s = None
        if i < last:
            o = np.tanh(z)
            if es:
                s = -(o * o) + 1.0
        layers.append((a, das, W, b.shape, es, o, s))
        a, das = (o, [s * e for e in es]) if i < last else (z, es)
    return a, das, layers


def _mlp_bwd(layers, g_out, g_douts, want_x: bool, want_w: bool):
    """Reverse sweep of `_mlp_np` from the adjoints of its output and its
    directions (None where the sweep reached none): (adjoint of x or
    None, (gW, gb) per layer)."""
    last = len(layers) - 1
    ga, gda = g_out, list(g_douts)
    grads = []
    for i in reversed(range(last + 1)):
        a, das, W, bshape, es, o, s = layers[i]
        if i < last:
            ge = [None] * len(es)
            gs = None
            for d in reversed(range(len(es))):
                gp = gda[d]
                if gp is None:
                    continue
                # p = s * e
                gs = _add(gs, dc._unbroadcast(gp * es[d], s.shape))
                ge[d] = dc._unbroadcast(gp * s, es[d].shape)
            if gs is not None:
                # s = -(o * o) + 1.0: the shift, the negation, then o * o,
                # whose two factors are the same node
                gaa = -gs
                c = dc._unbroadcast(gaa * o, o.shape)
                ga = _add(ga, c) + c
            gz = None
            if ga is not None:
                gz = ga * (s if s is not None else -(o * o) + 1.0)
        else:
            gz, ge = ga, gda
        Wt = _t(W) if i > 0 or want_x else None
        gW = gb = ga = None
        gda = [None] * len(es)
        for d in reversed(range(len(es))):
            if ge[d] is None:
                continue
            if i > 0:
                gda[d] = ge[d] @ Wt
            if want_w:
                gW = _add(gW, _t(das[d]) @ ge[d])
        if gz is not None:
            if want_w:
                gb = dc._unbroadcast(gz, bshape)
            if i > 0 or want_x:
                ga = gz @ Wt
            if want_w:
                gW = _add(gW, _t(a) @ gz)
        grads.append((gW, gb))
    return ga, grads[::-1]


def _theta_adjoint(shape, layout: ParamLayout, net: str, grads, scale_slot,
                   g_scale):
    """One full-size theta adjoint with a build's W, b and log-scale slots
    filled (zeros where the sweep reached none)."""
    g = np.zeros(shape)
    for slots, cs in zip(layout.layers[net], grads):
        for (_, s, e), c in zip(slots, cs):
            if c is not None:
                g[:, s:e] = c.reshape(1, -1)
    if g_scale is not None:
        _, s, _ = layout.slot("log_scales")
        g[:, s + scale_slot:s + scale_slot + 1] = g_scale
    return g


def _log_scale_np(theta_v, layout: ParamLayout, which: int) -> np.ndarray:
    _, s, _ = layout.slot("log_scales")
    return np.ascontiguousarray(theta_v[:, s + which:s + which + 1])


def _sum11(g: np.ndarray) -> np.ndarray:
    # the adjoint of a (1, 1) factor
    return dc._unbroadcast(g, (1, 1))


def _colsums(P: np.ndarray) -> np.ndarray:
    """Each column's sum, as `.sum()` of that (B, 1) column adds it: over
    a contiguous run of B numbers."""
    return np.ascontiguousarray(P.T).sum(axis=1)


def _chol_head_np(theta_v, layout: ParamLayout, out, douts):
    """The scaled Cholesky entries as (B, tri) columns in `tri_keys`
    order, softplus + eps on the diagonal and e^{s_M/2} folded in, and
    their directions: (entries, per-direction entries, record for the
    backward).

    Entry by entry this is the per-entry graph: the diagonal's softplus
    and sigmoid gate run on its columns, and every other step is one
    elementwise product, here taken over all columns at once.
    """
    arch = layout.arch
    # the diagonal's columns among the tri_keys
    diag = [i * (i + 3) // 2 for i in range(arch.n)]
    half = dc._exp_np(_log_scale_np(theta_v, layout, 0) * 0.5)
    dg = out[:, diag]
    pre = out.copy()
    pre[:, diag] = dc._softplus_np(dg) + arch.eps
    gate = dc._sigmoid_np(dg) if douts else None
    pres = []
    for do in douts:
        # gate * dcol on the diagonal, the plain direction elsewhere
        xg = np.array(np.broadcast_to(do, out.shape))
        xg[:, diag] = gate * do[:, diag]
        pres.append(xg)
    return pre * half, [xg * half for xg in pres], \
        (half, dg, pre, gate, pres, douts, diag)


def _chol_head_bwd(g, record):
    """Reverse sweep of `_chol_head_np` from the packed adjoint of its
    entries and directions: (adjoint of the net output, of each direction
    output, of s_M)."""
    half, dg, pre, gate, pres, douts, diag = record
    T = pre.shape[1]
    D = len(douts)
    # the (1, 1) sums of the products with half, in the sweep's order:
    # entry by entry from the last, each entry's directions last first
    sums = _colsums(g * np.concatenate([pre, *pres], axis=1))
    order = [T * (d + 1) + t for t in reversed(range(T))
             for d in [*reversed(range(D)), -1]]
    ghalf = np.add.accumulate(sums[order])[-1:].reshape(1, 1)
    gh = g * half
    g_do = []
    ggate = None
    for d in reversed(range(D)):
        ggm = gh[:, T * (d + 1) + np.array(diag)]
        ggate = _add(ggate, ggm * douts[d][:, diag])
        gdo = gh[:, T * (d + 1):T * (d + 2)].copy()
        gdo[:, diag] = ggm * gate
        if douts[d].shape[0] == 1:
            gdo = _colsums(gdo).reshape(1, T)
        g_do.append(gdo)
    g_out = gh[:, :T].copy()
    gsh = g_out[:, diag]
    if D:
        g_out[:, diag] = ggate * (gate * (-gate + 1.0)) + gsh * gate
    else:
        g_out[:, diag] = gsh * dc._sigmoid_np(dg)
    # half = exp(s_M * 0.5)
    return g_out, g_do[::-1], (ghalf * half) * 0.5


def _column_nodes(node, start: int, width: int):
    return [dc.cols(node, k, k + 1) for k in range(start, start + width)]


def _packed(cols, B: int) -> np.ndarray:
    return np.concatenate([c if c.shape[0] == B else np.broadcast_to(c, (B, 1))
                           for c in cols], axis=1)


def _unpacked(g: np.ndarray):
    # a (1, 1) entry gets its (B, 1) column; its consumers reduce it
    return [np.ascontiguousarray(g[:, k:k + 1]) for k in range(g.shape[1])]


def chol_entries_t(theta, layout: ParamLayout, Q, dirs=()):
    """Scaled Cholesky columns {(i,j): (B,1)} with e^{s_M/2} folded in, so
    M = Σ_k L̃[i,k] L̃[j,k] directly, and one such dict per direction.

    The mass net and its head are one tape node; the entries are column
    slices of its packed output.
    """
    keys = tri_keys(layout.arch.n)
    T = len(keys)
    tv = theta.value
    out, douts, layers = _mlp_np(tv, layout, "mass", Q.value,
                                 [d.value for d in dirs])
    ent, dent, record = _chol_head_np(tv, layout, out, douts)
    want_x, want_w = Q.requires_grad, theta.requires_grad

    def bwd(g):
        g_out, g_do, g_s = _chol_head_bwd(g, record)
        gx, grads = _mlp_bwd(layers, g_out, g_do, want_x, want_w)
        gt = _theta_adjoint(tv.shape, layout, "mass", grads, 0, g_s) \
            if want_w else None
        return gt, gx

    node = dc.custom([theta, Q], np.concatenate([ent, *dent], axis=1), bwd,
                     "mass_net")
    cols = [dict(zip(keys, _column_nodes(node, T * d, T)))
            for d in range(1 + len(dent))]
    return cols[0], cols[1:]


def mass_entries_t(params: FlatParams, Q) -> np.ndarray:
    """Batched M(q) values as a (B, n, n) array, with no tape: the Gram of
    the scaled factor's entries, as `gram` computes it."""
    layout = params.layout
    n = layout.arch.n
    tv = params.values.reshape(1, -1)
    Q = np.asarray(Q, dtype=np.float64)
    out, _, _ = _mlp_np(tv, layout, "mass", Q, [])
    ent, _, _ = _chol_head_np(tv, layout, out, [])
    G, _ = gram({k: ent[:, t:t + 1] for t, k in enumerate(tri_keys(n))},
                [], n)
    M = np.empty((Q.shape[0], n, n))
    for i in range(n):
        for j in range(n):
            M[:, i, j] = G[sym(i, j)][:, 0]
    return M


def potential_t(theta, layout: ParamLayout, Q, dirs=()):
    """Batched V(q) as a (B,1) tape tensor, or with directions its spatial
    derivatives, (B,1) each, in place of the value: (V or None, dV).

    The potential net and its e^{s_V} scale are one tape node.  The value
    is left out when directions are asked for, since no caller then reads
    it, and its adjoint would only be zero.
    """
    tv = theta.value
    out, douts, layers = _mlp_np(tv, layout, "potential", Q.value,
                                 [d.value for d in dirs])
    g = dc._exp_np(_log_scale_np(tv, layout, 1))
    vals = [do * g for do in douts] if douts else [out * g]
    want_x, want_w = Q.requires_grad, theta.requires_grad

    def bwd(gp):
        cols = _unpacked(gp)
        gg = None
        if douts:
            g_out, g_do = None, [None] * len(douts)
            for d in reversed(range(len(douts))):
                g_do[d] = dc._unbroadcast(cols[d] * g, douts[d].shape)
                gg = _add(gg, _sum11(cols[d] * douts[d]))
        else:
            g_out, g_do = cols[0] * g, []
            gg = _sum11(cols[0] * out)
        gx, grads = _mlp_bwd(layers, g_out, g_do, want_x, want_w)
        gt = _theta_adjoint(tv.shape, layout, "potential", grads, 1,
                            gg * g) if want_w else None
        return gt, gx

    node = dc.custom([theta, Q], _packed(vals, out.shape[0]), bwd,
                     "potential_net")
    if not douts:
        return node, []
    return None, _column_nodes(node, 0, len(douts))


def force_t(theta, layout: ParamLayout, Q, Qdot):
    """Batched F(q, q̇) as a (B,n) tape tensor: the force net and its
    e^{s_F} scale as one node on the concatenated (q, q̇)."""
    if layout.arch.conservative:
        raise ConservativeForceError("model has no force net")
    X = dc.concat_cols([Q, Qdot])
    tv = theta.value
    out, _, layers = _mlp_np(tv, layout, "force", X.value, [])
    g = dc._exp_np(_log_scale_np(tv, layout, 2))
    want_x, want_w = X.requires_grad, theta.requires_grad

    def bwd(gF):
        gx, grads = _mlp_bwd(layers, gF * g, [], want_x, want_w)
        gt = _theta_adjoint(tv.shape, layout, "force", grads, 2,
                            _sum11(gF * out) * g) if want_w else None
        return gt, gx

    return dc.custom([theta, X], out * g, bwd, "force_net")


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
