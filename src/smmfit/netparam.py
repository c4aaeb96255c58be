"""Network parameterization of a structured mechanical model.

Three small MLPs: a mass net producing the lower-triangular Cholesky
factor of M(q) (softplus + ε on the diagonal keeps it positive
definite), a potential net for V(q), and an optional force net on
(q, q̇).  Each component carries an explicit output log-scale so the
model class is exactly closed under multiplication by a positive
scalar.

A model is one flat parameter vector (`FlatParams`); its `ParamLayout`
names the slot of every weight, bias and the log-scale block.  Each
batched net build (`chol_entries_t`, `potential_grad_t`, `force_t`) is
one tape node that slices its net out of that vector, runs the MLP and
its output head in numpy, and takes the plain reverse-mode adjoint in
its backward.  The Cholesky build can also carry the factor's
derivatives along each coordinate axis, packed into the same node after
its entries; the potential build always gives ∇V(q), which is all the
dynamics read of V.  M(q) and its derivatives come from the Gram of the
factor (`gram`, with its adjoint `gram_bwd`) inside the fused blocks,
which work on the (B,) columns of the packed nodes; `mass_entries_t`
gives M(q) values with no tape.
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
# forward runs the net in numpy, carrying the forward-mode derivatives
# along the coordinate axes beside the values; its backward is the
# reverse-mode adjoint of that forward.  The node returns one full-size
# theta adjoint with the build's slots filled, and an adjoint for its
# input only when the input needs one.

def transposed(a: np.ndarray) -> np.ndarray:
    """A contiguous transpose: a (B, m) array's m columns as (B,) rows,
    or rows back to columns."""
    return np.ascontiguousarray(a.T)


@lru_cache(maxsize=None)
def _axes(n: int):
    """The coordinate axes as (1, n) rows: the directions of ∂/∂q_k."""
    return tuple(np.eye(n)[k:k + 1] for k in range(n))


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
                s = 1.0 - o * o
        layers.append((a, das, W, b.shape, es, o, s))
        a, das = (o, [s * e for e in es]) if i < last else (z, es)
    return a, das, layers


def _mlp_bwd(layers, g_out, g_douts, want_x: bool, want_w: bool):
    """Adjoint of `_mlp_np` from the adjoints of its output (None when
    only the directions are used) and of its directions: (adjoint of x or
    None, (gW, gb) per layer)."""
    ga, gda = g_out, list(g_douts)
    grads = []
    for i in reversed(range(len(layers))):
        a, das, W, bshape, es, o, s = layers[i]
        gz, ge = ga, gda
        if o is not None:
            # o = tanh(z); its derivative s = 1 - o² also scales each
            # direction (s * e), and ds/do = -2 o
            if s is None:
                s = 1.0 - o * o
            ge = [dc._unbroadcast(gp * s, e.shape) for gp, e in zip(gda, es)]
            go = ga
            if gda:
                c = -2.0 * o * sumprod(gda, es)
                go = c if go is None else go + c
            gz = None if go is None else go * s
        Wt = transposed(W) if i > 0 or want_x else None
        gW = gb = ga = None
        if gz is not None:
            if want_w:
                gW, gb = transposed(a) @ gz, dc._unbroadcast(gz, bshape)
            if Wt is not None:
                ga = gz @ Wt
        if want_w:
            for da, g_e in zip(das, ge):
                c = transposed(da) @ g_e
                gW = c if gW is None else gW + c
        gda = [g_e @ Wt for g_e in ge] if i > 0 else []
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
    _, s, _ = layout.slot("log_scales")
    g[:, s + scale_slot:s + scale_slot + 1] = g_scale
    return g


def _log_scale_np(theta_v, layout: ParamLayout, which: int) -> np.ndarray:
    _, s, _ = layout.slot("log_scales")
    return np.ascontiguousarray(theta_v[:, s + which:s + which + 1])


def _chol_head_np(theta_v, layout: ParamLayout, out, douts):
    """The scaled Cholesky entries in `tri_keys` order, then their
    derivatives along each direction, packed as (B, tri·(1 + D)):
    softplus + eps on the diagonal, the sigmoid gate on each direction's
    diagonal and e^{s_M/2} on every entry.  Returns (packed, record for
    `_chol_head_bwd`)."""
    arch = layout.arch
    # the diagonal's columns among the tri_keys
    diag = [i * (i + 3) // 2 for i in range(arch.n)]
    half = dc._exp_np(_log_scale_np(theta_v, layout, 0) * 0.5)
    dg = out[:, diag]
    # softplus' is the gate
    gate = dc._sigmoid_np(dg) if douts else None
    parts = [out.copy()]
    parts[0][:, diag] = dc._softplus_np(dg) + arch.eps
    for do in douts:
        part = np.array(np.broadcast_to(do, out.shape))
        part[:, diag] = gate * do[:, diag]
        parts.append(part)
    pre = np.concatenate(parts, axis=1)
    return pre * half, (half, dg, gate, pre, douts, diag)


def _chol_head_bwd(g, record):
    """Adjoint of `_chol_head_np` from the packed adjoint of its entries:
    (adjoint of the net output, of each direction output, of s_M)."""
    half, dg, gate, pre, douts, diag = record
    if gate is None:
        gate = dc._sigmoid_np(dg)
    T = pre.shape[1] // (1 + len(douts))
    g_s = np.sum(g * pre) * half * 0.5
    gh = g * half
    g_out = gh[:, :T].copy()
    g_out[:, diag] *= gate
    g_do = []
    for d, do in enumerate(douts):
        gd = gh[:, T * (d + 1):T * (d + 2)].copy()
        g_diag = gd[:, diag]
        g_out[:, diag] += g_diag * do[:, diag] * (gate * (1.0 - gate))
        gd[:, diag] = g_diag * gate
        g_do.append(dc._unbroadcast(gd, do.shape))
    return g_out, g_do, g_s


def chol_entries_t(theta, layout: ParamLayout, Q, jac: bool = False):
    """The scaled Cholesky factor with e^{s_M/2} folded in, so that
    M = L̃ L̃ᵀ directly, as one (B, tri) tape node: the entries in
    `tri_keys` order.  With ``jac`` the node is (B, tri·(1 + n)), the
    entries followed by their derivatives along each coordinate q_k.
    The mass net and its head are the one node."""
    tv = theta.value
    dirs = _axes(layout.arch.n) if jac else ()
    out, douts, layers = _mlp_np(tv, layout, "mass", Q.value, dirs)
    packed, record = _chol_head_np(tv, layout, out, douts)
    want_x, want_w = Q.requires_grad, theta.requires_grad

    def bwd(g):
        g_out, g_do, g_s = _chol_head_bwd(g, record)
        gx, grads = _mlp_bwd(layers, g_out, g_do, want_x, want_w)
        gt = _theta_adjoint(tv.shape, layout, "mass", grads, 0, g_s) \
            if want_w else None
        return gt, gx

    return dc.custom([theta, Q], packed, bwd, "mass_net")


def mass_entries_t(params: FlatParams, Q) -> np.ndarray:
    """Batched M(q) values as a (B, n, n) array, with no tape: the Gram of
    the scaled factor's entries, as `gram` computes it."""
    layout = params.layout
    n = layout.arch.n
    tv = params.values.reshape(1, -1)
    Q = np.asarray(Q, dtype=np.float64)
    out, _, _ = _mlp_np(tv, layout, "mass", Q, [])
    packed, _ = _chol_head_np(tv, layout, out, [])
    G, _ = gram(transposed(packed), n)
    M = np.empty((Q.shape[0], n, n))
    for i in range(n):
        for j in range(n):
            M[:, i, j] = G[tri_index(i, j)]
    return M


def potential_grad_t(theta, layout: ParamLayout, Q):
    """Batched ∇V(q) as one (B, n) tape node: the potential net's
    derivatives along each coordinate q_k, times its e^{s_V} scale."""
    tv = theta.value
    _, douts, layers = _mlp_np(tv, layout, "potential", Q.value,
                               _axes(layout.arch.n))
    g = dc._exp_np(_log_scale_np(tv, layout, 1))
    B = Q.shape[0]
    raw = np.concatenate([np.broadcast_to(do, (B, 1)) for do in douts],
                         axis=1)
    want_x, want_w = Q.requires_grad, theta.requires_grad

    def bwd(gp):
        graw = gp * g
        g_do = [dc._unbroadcast(graw[:, d:d + 1], do.shape)
                for d, do in enumerate(douts)]
        gx, grads = _mlp_bwd(layers, None, g_do, want_x, want_w)
        gt = _theta_adjoint(tv.shape, layout, "potential", grads, 1,
                            np.sum(gp * raw) * g) if want_w else None
        return gt, gx

    return dc.custom([theta, Q], raw * g, bwd, "potential_net")


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
                            np.sum(gF * out) * g) if want_w else None
        return gt, gx

    return dc.custom([theta, X], out * g, bwd, "force_net")


# -- fused blocks -------------------------------------------------------------
#
# A fused block is one tape node that does the work of many small ones on
# (B,) columns, the rows of its parents' transposed values.  A symmetric
# n x n matrix (M, ∂M/∂q_k, the inverse of the shifted M, an adjoint) is
# held as its `tri_keys` entries, and the adjoint of an entry off the
# diagonal covers both places it stands in.  Each block's backward is the
# plain first-order adjoint of its forward and returns one adjoint per
# parent; `gram_bwd` is the adjoint of the Gram that all of them share.

def tri_keys(n: int):
    """(i, j) for j <= i, row by row: the order entries are built in."""
    return [(i, j) for i in range(n) for j in range(i + 1)]


def tri_index(i: int, j: int) -> int:
    """The position of symmetric entry (i, j) among the `tri_keys`."""
    if j > i:
        i, j = j, i
    return i * (i + 1) // 2 + j


def sumprod(a, b):
    """Σ_k a[k] b[k] over two sequences of arrays, added in order."""
    acc = a[0] * b[0]
    for x, y in zip(a[1:], b[1:]):
        acc = acc + x * y
    return acc


def sym_outer(a, b):
    """The entries of a bᵀ + b aᵀ off the diagonal and a_i b_i on it, so
    that ⟨S, a bᵀ⟩ = sumprod(S, sym_outer(a, b)) for a symmetric S."""
    return [a[i] * b[i] if i == j else a[i] * b[j] + a[j] * b[i]
            for i, j in tri_keys(len(a))]


def matvec(S, x):
    """S x for a symmetric S."""
    n = len(x)
    return [sumprod([S[tri_index(i, j)] for j in range(n)], x)
            for i in range(n)]


def gram(P, n: int, ndirs: int = 0, with_M: bool = True):
    """M = L Lᵀ and dM = dL Lᵀ + L dLᵀ for the first ``ndirs``
    directions, from the rows of a packed factor (L's entries, then each
    direction's), summed over k in increasing order."""
    T = n * (n + 1) // 2
    rows = list(P)
    L = rows[:T]
    dL = [rows[T * (d + 1):T * (d + 2)] for d in range(ndirs)]
    M = [None] * T
    dM = [[None] * T for _ in dL]
    for t, (i, j) in enumerate(tri_keys(n)):
        ik = [tri_index(i, k) for k in range(j + 1)]
        jk = [tri_index(j, k) for k in range(j + 1)]
        Li, Lj = [L[k] for k in ik], [L[k] for k in jk]
        if with_M:
            M[t] = sumprod(Li, Lj)
        for dl, dm in zip(dL, dM):
            dm[t] = sumprod([dl[k] for k in ik], Lj) \
                + sumprod(Li, [dl[k] for k in jk])
    return M, dM


def gram_bwd(P, n: int, gM, gdM) -> np.ndarray:
    """The adjoint of `gram`, as rows shaped like ``P``: from the adjoint
    of M's entries (None where M is not used) and of each direction's
    dM (zeros for directions with none)."""
    T = n * (n + 1) // 2
    G = np.zeros_like(P)
    L, gL = P[:T], G[:T]
    dirs = [(P[T * (d + 1):T * (d + 2)], G[T * (d + 1):T * (d + 2)], gd)
            for d, gd in enumerate(gdM)]
    for t, (i, j) in enumerate(tri_keys(n)):
        for k in range(j + 1):
            ik, jk = tri_index(i, k), tri_index(j, k)
            if gM is not None:
                gL[ik] += gM[t] * L[jk]
                gL[jk] += gM[t] * L[ik]
            for dl, gdl, gd in dirs:
                gdl[ik] += gd[t] * L[jk]
                gdl[jk] += gd[t] * L[ik]
                gL[ik] += gd[t] * dl[jk]
                gL[jk] += gd[t] * dl[ik]
    return G


def _substitute(L, r, b):
    """x with L Lᵀ x = b by forward, then back substitution; ``r`` holds
    the reciprocals of L's diagonal."""
    n = len(b)
    y = []
    for i in range(n):
        acc = b[i]
        for j in range(i):
            acc = acc - L[tri_index(i, j)] * y[j]
        y.append(acc * r[i])
    x = [None] * n
    for i in reversed(range(n)):
        acc = y[i]
        for j in range(i + 1, n):
            acc = acc - L[tri_index(j, i)] * x[j]
        x[i] = acc * r[i]
    return x


def chol_solve_t(L, rhs):
    """Solve L Lᵀ x = b for a (B, n) right-hand side as one tape node,
    ``L`` a packed factor node (`chol_entries_t`).

    The backward solves once more for the adjoint of b and hands
    -(gb xᵀ + x gbᵀ) to the Gram's adjoint.
    """
    n = rhs.shape[1]
    P = transposed(L.value)
    r = [dc._reciprocal_np(P[tri_index(i, i)]) for i in range(n)]
    x = _substitute(P, r, transposed(rhs.value))

    def bwd(g):
        gb = _substitute(P, r, transposed(g))
        gM = sym_outer([-c for c in gb], x)
        return transposed(gram_bwd(P, n, gM, [])), transposed(np.array(gb))

    return dc.custom([L, rhs], transposed(np.array(x)), bwd, "chol_solve")


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
    """Returns (FlatParams, seed); a file that is not a checkpoint
    `save_params` wrote raises ValueError naming it."""
    try:
        with open(path) as fh:
            blob = json.load(fh)
        a = blob["arch"]
        arch = ArchConfig(n=a["n"], hidden=tuple(a["hidden"]),
                          activation=a["activation"], eps=a["eps"],
                          conservative=a["conservative"])
        layout = ParamLayout(arch)
        stored = [(d["key"], tuple(d["shape"]), d["start"], d["end"])
                  for d in blob["layout"]]
        if stored != [(k, tuple(s), a_, b_)
                      for k, s, a_, b_ in layout.slots]:
            raise ValueError("layout descriptor does not match architecture")
        values = np.array(blob["flat"], dtype=np.float64)
        return FlatParams(values, layout), blob.get("seed")
    except (KeyError, TypeError, ValueError) as err:
        raise ValueError(f"{path}: not a checkpoint "
                         f"({type(err).__name__}: {err})") from None
