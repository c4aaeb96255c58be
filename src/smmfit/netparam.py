"""Network parameterization of a structured mechanical model.

Three small tanh MLPs: a mass net producing the lower-triangular
Cholesky factor of M(q) (softplus + `MASS_EPS` on the diagonal keeps it
positive definite), a potential net for V(q), and an optional force net
on (q, q̇).  Each component carries an explicit output log-scale so the
model class is exactly closed under multiplication by a positive
scalar.

A model is one flat parameter vector (`FlatParams`); its `ParamLayout`
names the slot of every weight, bias and the log-scale block.  Each
batched net build (`mass_t`, `potential_grad_t`, `force_t`) slices its
net out of that vector, runs the MLP and its output head in numpy, and
returns the value with its plain reverse-mode adjoint as a function;
training's numpy stages call them, and nothing here builds a tape.
The mass block is the one place the model's M(q) comes from: it gives
the factor L of M = L Lᵀ and, with ``jac``, ∂M/∂q from the factor's
forward-mode derivatives along each coordinate axis, as (n, n, B) and
(n, n, n, B) arrays; callers form M with `gram` where they read it.
The potential build gives ∇V(q), all the dynamics read of V, by one
reverse sweep from the net's scalar output, so its cost does not grow
with n.  The solve block `chol_solve_t` substitutes with mechanics'
`cho_solve`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import diffcore as dc
from .mechanics import cho_solve


class ConservativeForceError(Exception):
    """force() was called on a conservative model."""


# fixed; checkpoints record them, and `load_params` refuses others
ACTIVATION = "tanh"
MASS_EPS = 1e-3


@dataclass
class ArchConfig:
    """Architecture of the three component nets."""

    n: int = 2
    hidden: tuple = (32, 32)
    conservative: bool = True

    def __post_init__(self):
        self.hidden = tuple(int(h) for h in self.hidden)
        if self.n < 1 or any(h < 1 for h in self.hidden):
            raise ValueError("dimensions must be positive")

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


# -- net builds ---------------------------------------------------------------
#
# Each net build (an MLP and its output head) is a numpy block that
# returns its value and its adjoint, the reverse-mode adjoint of its
# forward as a function: the mass block with ``jac`` carries forward-mode
# derivatives along the coordinate axes beside the values, and the
# potential build adds one reverse sweep for ∇V.  The adjoint adds the
# build's slots into a caller's theta adjoint and gives an adjoint for
# the input only when asked.

def transposed(a: np.ndarray) -> np.ndarray:
    """A contiguous transpose: a (B, m) array's m columns as (B,) rows,
    or rows back to columns."""
    return np.ascontiguousarray(a.T)


@lru_cache(maxsize=None)
def _axes(n: int):
    """The coordinate axes as (1, n) rows: the directions of ∂/∂q_k."""
    return tuple(np.eye(n)[k:k + 1] for k in range(n))


def _mlp_np(theta_v, layout: ParamLayout, net: str, x, dirs, top=True):
    """The net at the rows of ``x``, and its directional derivative along
    each of ``dirs``: (out, douts, per-layer record for `_mlp_bwd`).
    Without ``top`` the pass stops at the last hidden layer.

    The JVP chain reuses the forward activations (tanh' = 1 - a^2), so
    each direction costs about one extra forward pass.
    """
    a, das = x, list(dirs)
    layers = []
    specs = layout.layers[net]
    last = len(specs) - 1
    for i, ((shape, sW, eW), (_, sb, eb)) in enumerate(
            specs if top else specs[:-1]):
        W = theta_v[:, sW:eW].reshape(shape)
        b = theta_v[:, sb:eb]
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


def sumprod(a, b):
    """Σ_k a[k] b[k] over two sequences of arrays, added in order."""
    acc = a[0] * b[0]
    for x, y in zip(a[1:], b[1:]):
        acc = acc + x * y
    return acc


def _mlp_bwd(layers, g_out, g_douts, want_x: bool, want_w: bool):
    """Adjoint of `_mlp_np` from the adjoints of its output and of its
    directions: (adjoint of x or None, (gW, gb) per layer)."""
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
            if gda:
                ga = ga - 2.0 * o * sumprod(gda, es)
            gz = ga * s
        Wt = transposed(W) if i > 0 or want_x else None
        gW = gb = ga = None
        if want_w:
            gW, gb = transposed(a) @ gz, dc._unbroadcast(gz, bshape)
            for da, g_e in zip(das, ge):
                gW = gW + transposed(da) @ g_e
        if Wt is not None:
            ga = gz @ Wt
        gda = [g_e @ Wt for g_e in ge] if i > 0 else []
        grads.append((gW, gb))
    return ga, grads[::-1]


def _theta_adjoint(gt, layout: ParamLayout, net: str, grads, scale_slot,
                   g_scale):
    """Add a build's W, b and log-scale adjoints into the theta adjoint
    ``gt``, unless it is None."""
    if gt is None:
        return
    for slots, cs in zip(layout.layers[net], grads):
        for (_, s, e), c in zip(slots, cs):
            if c is not None:
                gt[:, s:e] += c.reshape(1, -1)
    _, s, _ = layout.slot("log_scales")
    gt[:, s + scale_slot:s + scale_slot + 1] += g_scale


def _log_scale_np(theta_v, layout: ParamLayout, which: int) -> np.ndarray:
    _, s, _ = layout.slot("log_scales")
    return theta_v[:, s + which:s + which + 1]


def _chol_head_np(theta_v, layout: ParamLayout, out, douts):
    """The scaled Cholesky entries (the lower triangle row by row), then
    their derivatives along each direction, packed as (B, tri·(1 + D)):
    softplus + eps on the diagonal, the sigmoid gate on each direction's
    diagonal and e^{s_M/2} on every entry.  Returns (packed, record for
    `_chol_head_bwd`)."""
    # the diagonal's columns in that order
    diag = [i * (i + 3) // 2 for i in range(layout.arch.n)]
    half = dc._exp_np(_log_scale_np(theta_v, layout, 0) * 0.5)
    dg = out[:, diag]
    # softplus' is the gate
    gate = dc._sigmoid_np(dg) if douts else None
    parts = [out.copy()]
    parts[0][:, diag] = dc._softplus_np(dg) + MASS_EPS
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


def mass_t(theta_v, layout: ParamLayout, Q, jac: bool, want_x: bool):
    """The mass block at the rows of ``Q``: (L, ∂M) as (n, n, B) and
    (D, n, n, B) arrays, and its adjoint.  L is the scaled Cholesky
    factor, e^{s_M/2} folded in, so M = L Lᵀ (`gram`; not formed here, as
    the velocity block reads L alone); ∂M/∂q_k is at [k] with ``jac``,
    else ∂M is empty.  ``adjoint(gM, gdM, gt)`` takes M's and ∂M's
    adjoints (None where unused), adds the theta adjoint into ``gt`` (if
    not None) and returns Q's adjoint (with ``want_x``).  Without ``jac``
    it also takes ``rows``, indices into Q: then gM holds those rows
    alone and the backward runs on them, as it would after a forward at
    ``Q[rows]``."""
    n = layout.arch.n
    dirs = _axes(n) if jac else ()
    out, douts, layers = _mlp_np(theta_v, layout, "mass", Q, dirs)
    P, record = _chol_head_np(theta_v, layout, out, douts)
    L, dL = _factor(P, n)

    def adjoint(gM, gdM, gt, rows=None):
        Lr, dLr, rec, lay = (L, dL, record, layers) if rows is None \
            else _mass_rows(L, dL, record, layers, rows)
        g_out, g_do, g_s = _chol_head_bwd(
            _packed(*_gram_bwd(Lr, dLr, gM, gdM)), rec)
        gx, grads = _mlp_bwd(lay, g_out, g_do, want_x, gt is not None)
        _theta_adjoint(gt, layout, "mass", grads, 0, g_s)
        return gx

    return (L, _dgram(L, dL) if jac else dL), adjoint


def _mass_rows(L, dL, record, layers, rows):
    """A mass block forward without directions at ``rows`` of its Q: the
    factor, its empty directions, the head's record and the MLP's."""
    half, dg, gate, pre, douts, diag = record
    # `take` keeps the row axis last in memory, as a forward at the rows
    # lays it out; fancy indexing on the last axis would put it first
    a = layers[0][0].take(rows, 0)
    taken = []
    for _, das, W, bshape, es, o, s in layers:
        # each layer's input is the layer below's output, gathered once
        o = None if o is None else o.take(rows, 0)
        taken.append((a, das, W, bshape, es, o, s))
        a = o
    return (L.take(rows, -1), dL.take(rows, -1),
            (half, dg.take(rows, 0), gate, pre.take(rows, 0), douts, diag),
            taken)


def mass_entries_t(params: FlatParams, Q) -> np.ndarray:
    """Batched M(q) values as an entry-major (n, n, B) array: the Gram
    of the scaled factor."""
    (L, _), _ = mass_t(params.values.reshape(1, -1), params.layout,
                       np.asarray(Q, dtype=np.float64), False, False)
    return gram(L)


def potential_grad_t(theta_v, layout: ParamLayout, Q, want_x: bool):
    """∇V at the rows of ``Q`` as a (B, n) array, and its adjoint
    ``adjoint(g, gt)``, which adds the theta adjoint into ``gt`` (if not
    None) and returns Q's adjoint (with ``want_x``): one reverse sweep of
    the potential net from its scalar output, times its e^{s_V} scale.
    Down the tanh layers o_i it runs
    r_H = W_Hᵀ, gz_i = r_{i+1} ⊙ (1 - o_i²), r_i = gz_i W_iᵀ, so
    ∇V = r_0 e^{s_V} costs about one more forward whatever n is; the
    forward stops below the unused output layer.  The adjoint is the
    sweep's in layer order (each W's and o_i's), then the value's."""
    _, _, hidden = _mlp_np(theta_v, layout, "potential", Q, (), top=False)
    # W_H is (h, 1), so its slot is already the row W_Hᵀ
    (_, sW, eW), _ = layout.layers["potential"][-1]
    r = theta_v[:, sW:eW]
    sweep = []
    for _, _, W, _, _, o, _ in reversed(hidden):
        s = 1.0 - o * o
        gz = r * s
        sweep.append((r, s, gz))
        r = gz @ transposed(W)
    sweep.reverse()
    raw = np.broadcast_to(r, Q.shape)
    g = dc._exp_np(_log_scale_np(theta_v, layout, 1))

    def adjoint(gp, gt):
        want_w = gt is not None
        gr, gWs, gos = gp * g, [], []
        for (_, _, W, _, _, o, _), (r, s, gz) in zip(hidden, sweep):
            gWs.append(transposed(gr) @ gz if want_w else None)
            ggz = gr @ W
            gr = ggz * s
            gos.append(-2.0 * o * ggz * r)
        grads = [(transposed(gr.sum(0, keepdims=True)), None)]
        ga = None
        for i in reversed(range(len(hidden))):
            a, _, W, bshape, _, _, _ = hidden[i]
            gz = (gos[i] if ga is None else gos[i] + ga) * sweep[i][1]
            if want_w:
                grads.append((gWs[i] + transposed(a) @ gz,
                              dc._unbroadcast(gz, bshape)))
            ga = gz @ transposed(W) if i > 0 or want_x else None
        _theta_adjoint(gt, layout, "potential", grads[::-1], 1,
                       np.sum(gp * raw) * g)
        return ga

    return raw * g, adjoint


def force_t(theta_v, layout: ParamLayout, X, want_x: bool):
    """F at the rows of the concatenated (q, q̇) ``X`` as a (B, n) array:
    the force net times its e^{s_F} scale, and its adjoint (as
    `potential_grad_t`'s)."""
    if layout.arch.conservative:
        raise ConservativeForceError("model has no force net")
    out, _, layers = _mlp_np(theta_v, layout, "force", X, [])
    g = dc._exp_np(_log_scale_np(theta_v, layout, 2))

    def adjoint(gF, gt):
        gx, grads = _mlp_bwd(layers, gF * g, [], want_x, gt is not None)
        _theta_adjoint(gt, layout, "force", grads, 2,
                       np.sum(gF * out) * g)
        return gx

    return out * g, adjoint


# -- matrix algebra -----------------------------------------------------------
#
# Every matrix the blocks and training's stages share is an entry-major
# array, so that each entry is a contiguous (B,) row: L, M, the shifted
# factor S and matrix adjoints are (n, n, B), the factor's directions
# and ∂M/∂q are (D, n, n, B) and vectors are (n, B).  Only `mass_t`
# sees the mass head's packed (B, tri·(1 + D)) value, which `_factor`
# and `_packed` map to these arrays and back.  Adjoints are full n x n
# matrices with the textbook formulas (Giles 2008); `_gram_bwd` is the
# Gram's.

@lru_cache(maxsize=None)
def _tril(n: int) -> np.ndarray:
    """The lower triangle's flat positions i·n + j in an n x n matrix,
    row by row: the packed order."""
    i, j = np.tril_indices(n)
    return i * n + j


def _factor(P, n: int):
    """(L, dL) from a packed factor value ``P`` (B, tri·(1 + D)): L as
    (n, n, B) and the D directions as (D, n, n, B), zero above the
    diagonal."""
    tril = _tril(n)
    B = P.shape[0]
    A = np.zeros((P.shape[1] // len(tril), n * n, B))
    A[:, tril] = P.T.reshape(len(A), len(tril), B)
    A = A.reshape(-1, n, n, B)
    return A[0], A[1:]


def _packed(L, dL) -> np.ndarray:
    """The (B, tri·(1 + D)) packed value of the lower triangles of L and
    of each direction in ``dL``: the inverse of `_factor`."""
    n, _, B = L.shape
    A = np.concatenate([L[None], dL]).reshape(-1, n * n, B)
    return transposed(A.take(_tril(n), axis=1).reshape(-1, B))


def gram(L):
    """M = L Lᵀ."""
    return (L[:, None] * L).sum(2)


def _dgram(L, dL):
    """dM = dL Lᵀ + L dLᵀ for each direction in ``dL``."""
    C = (dL[:, :, None] * L).sum(3)
    return C + C.swapaxes(1, 2)


def _gram_bwd(L, dL, gM, gdM):
    """The adjoint of `gram` and `_dgram`, (gL, gdL), from the adjoint of M
    (None where M is not used) and of dM (None where no direction is)."""
    gL = np.zeros_like(L) if gM is None \
        else ((gM + gM.swapaxes(0, 1))[:, :, None] * L).sum(1)
    if gdM is None:
        return gL, np.zeros_like(dL)
    G = (gdM + gdM.swapaxes(1, 2))[:, :, :, None]
    return gL + (G * dL[:, None]).sum((0, 2)), (G * L).sum(2)


def chol_solve_t(L, b):
    """x with L Lᵀ x = b for an (n, B) ``b``, ``L`` an (n, n, B) factor,
    and its adjoint: from x's adjoint to (M = L Lᵀ's, b's), solving once
    more for gb; M's adjoint is -gb xᵀ."""
    n = len(b)
    r = dc._reciprocal_np(L.reshape(n * n, -1)[::n + 1])
    x = cho_solve(L, r, b)

    def adjoint(g):
        gb = cho_solve(L, r, g)
        return -gb[:, None] * x, gb

    return x, adjoint


# -- checkpoint files ---------------------------------------------------------

def save_params(params: FlatParams, path, seed: int | None = None) -> None:
    """JSON checkpoint: architecture, flat parameter vector, seed."""
    arch = params.layout.arch
    blob = {
        "arch": {
            "n": arch.n,
            "hidden": list(arch.hidden),
            "activation": ACTIVATION,
            "eps": MASS_EPS,
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
                          conservative=a["conservative"])
        if (a["activation"], a["eps"]) != (ACTIVATION, MASS_EPS):
            raise ValueError(f"activation and eps are not the fixed "
                             f"{ACTIVATION!r} and {MASS_EPS!r}")
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
