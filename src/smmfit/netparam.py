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
Every build reads θ as the flat (P,) `FlatParams.values` and adds its
slots into a flat (P,) adjoint.  The model's own numerics are checked
here: a scale e^s that overflows or a zero pivot of the factor raises
`ModelNumericsError`.
Every build is feature-major: it takes its points as the columns of a
(width, B) array and returns values and input adjoints with B last, the
layout of the entry-major matrices below, so no block transposes.
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
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .mechanics import cho_solve


class ConservativeForceError(Exception):
    """force() was called on a conservative model."""


class ModelNumericsError(Exception):
    """A scale e^s overflowed or a factor pivot was zero: the model's
    numbers at these parameters are not finite."""


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


def init_params(seed: int, arch: ArchConfig) -> FlatParams:
    """Scaled-uniform U(±1/√fan_in) weights and biases, zero log-scales.

    Slots are drawn in layout order, each layer's W then its b.
    """
    gen = np.random.default_rng(seed)
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
# build's slots into a caller's flat theta adjoint and gives an adjoint
# for the input only when asked.
#
# Every net array is feature-major, (width, rows), C-contiguous, as are
# the blocks' inputs, values and input adjoints: a layer computes
# z = Wᵀ a from a view of W's (in, out) slot and adds its bias as an
# (out, 1) column, its weight adjoint a gzᵀ lands in that slot's shape,
# and its bias adjoint is gz summed along the rows.

def transposed(a: np.ndarray) -> np.ndarray:
    """A contiguous transpose: a (B, m) array of rows as an (m, B)
    feature-major array, or back."""
    return np.ascontiguousarray(a.T)


@lru_cache(maxsize=None)
def _axes(n: int):
    """The coordinate axes as (n, 1) columns: the directions of ∂/∂q_k."""
    return tuple(np.eye(n)[k][:, None] for k in range(n))


def _exp_np(x):
    """e^x of a scalar log-scale, by numpy's exp (whose bits differ from
    math.exp's); an overflow raises."""
    with np.errstate(over="ignore"):
        o = np.exp(x)
    if not math.isfinite(o):
        raise ModelNumericsError("exp overflow")
    return o


def _softplus_np(x: np.ndarray) -> np.ndarray:
    # overflow-safe log(1 + e^x)
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def _sigmoid_np(x: np.ndarray) -> np.ndarray:
    # 1/(1 + e^-x) for x >= 0 and e^x/(1 + e^x) below, never overflowing
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


def _column_sum(g: np.ndarray, shape) -> np.ndarray:
    """The adjoint ``g`` of a (width, 1) column that was broadcast along
    the rows, summed back to that column; else ``g`` itself."""
    return g if g.shape == shape else g.sum(1, keepdims=True)


def _mlp_np(theta, layout: ParamLayout, net: str, x, dirs, top=True):
    """The net at the columns of ``x`` (in, R), and its directional
    derivative along each of ``dirs``: (out, douts, per-layer record for
    `_mlp_bwd`).  Without ``top`` the pass stops at the last hidden layer.

    The JVP chain reuses the forward activations (tanh' = 1 - a^2), so
    each direction costs about one extra forward pass.
    """
    a, das = x, list(dirs)
    layers = []
    specs = layout.layers[net]
    last = len(specs) - 1
    for i, ((shape, sW, eW), (_, sb, eb)) in enumerate(
            specs if top else specs[:-1]):
        W = theta[sW:eW].reshape(shape)
        Wt = W.T
        z = Wt @ a
        z += theta[sb:eb, None]
        es = [Wt @ da for da in das]
        o = s = None
        if i < last:
            o = np.tanh(z)
            if es:
                s = 1.0 - o * o
        layers.append((a, das, W, es, o, s))
        a, das = (o, [s * e for e in es]) if i < last else (z, es)
    return a, das, layers


def sumprod(a, b):
    """Σ_k a[k] b[k] over two sequences of arrays, added in order."""
    acc = a[0] * b[0]
    for x, y in zip(a[1:], b[1:]):
        acc = acc + x * y
    return acc


def _mlp_bwd(layers, g_out, g_douts, want_x: bool):
    """Adjoint of `_mlp_np` from the adjoints of its output and of its
    directions: (adjoint of x or None, each layer's gW then its gb)."""
    ga, gda = g_out, list(g_douts)
    grads = []
    for i in reversed(range(len(layers))):
        a, das, W, es, o, s = layers[i]
        gz, ge = ga, gda
        if o is not None:
            # o = tanh(z); its derivative s = 1 - o² also scales each
            # direction (s * e), and ds/do = -2 o
            if s is None:
                s = 1.0 - o * o
            ge = [_column_sum(gp * s, e.shape) for gp, e in zip(gda, es)]
            if gda:
                ga = ga - 2.0 * o * sumprod(gda, es)
            gz = ga * s
        gW = a @ gz.T
        for da, g_e in zip(das, ge):
            gW += da @ g_e.T
        grads += (gz.sum(1), gW)
        ga = W @ gz if i > 0 or want_x else None
        gda = [W @ g_e for g_e in ge] if i > 0 else []
    return ga, grads[::-1]


def _theta_adjoint(gt, layout: ParamLayout, net: str, grads, scale_slot,
                   g_scale):
    """Add a build's W, b and log-scale adjoints into the theta adjoint
    ``gt``.  ``grads`` holds the adjoints of the net's first slots in
    layout order, each layer's W then its b: they are one run of theta,
    added in one operation."""
    (_, s, _), _ = layout.layers[net][0]
    flat = np.concatenate([c.reshape(-1) for c in grads])
    gt[s:s + flat.size] += flat
    _, s, _ = layout.slot("log_scales")
    gt[s + scale_slot] += g_scale


def _log_scale_np(theta, layout: ParamLayout, which: int):
    _, s, _ = layout.slot("log_scales")
    return theta[s + which]


@lru_cache(maxsize=None)
def _diag(n: int) -> np.ndarray:
    """The rows i(i + 3)/2 of the diagonal in the packed lower triangle."""
    return np.array([i * (i + 3) // 2 for i in range(n)])


def _chol_head_np(theta, layout: ParamLayout, out, douts):
    """The scaled Cholesky entries (the lower triangle row by row), then
    their derivatives along each direction, packed as (tri·(1 + D), R):
    softplus + eps on the diagonal, the sigmoid gate on each direction's
    diagonal and e^{s_M/2} on every entry.  Returns (packed, record for
    `_chol_head_bwd`)."""
    diag = _diag(layout.arch.n)
    half = _exp_np(_log_scale_np(theta, layout, 0) * 0.5)
    T, R = out.shape
    # `take` gathers rows faster than fancy indexing, to the same array
    dg = out.take(diag, 0)
    # softplus' is the gate
    gate = _sigmoid_np(dg) if douts else None
    pre = np.empty((T * (1 + len(douts)), R))
    pre[:T] = out
    pre[diag] = _softplus_np(dg) + MASS_EPS
    for d, do in enumerate(douts, 1):
        part = pre[T * d:T * (d + 1)]
        part[:] = do
        part[diag] = gate * do.take(diag, 0)
    return pre * half, (half, dg, gate, pre, douts, diag)


def _chol_head_bwd(g, record):
    """Adjoint of `_chol_head_np` from the packed adjoint of its entries:
    (adjoint of the net output, of each direction output, of s_M)."""
    half, dg, gate, pre, douts, diag = record
    if gate is None:
        gate = _sigmoid_np(dg)
    T = len(pre) // (1 + len(douts))
    g_s = (g * pre).sum() * half * 0.5
    gh = g * half
    # each block of gh is a row block, so it is adjusted in place
    g_out = gh[:T]
    g_out[diag] = g_out.take(diag, 0) * gate
    g_do = []
    dgate = gate * (1.0 - gate) if douts else None
    for d, do in enumerate(douts, 1):
        gd = gh[T * d:T * (d + 1)]
        g_diag = gd.take(diag, 0)
        g_out[diag] = g_out.take(diag, 0) + g_diag * do.take(diag, 0) * dgate
        gd[diag] = g_diag * gate
        g_do.append(_column_sum(gd, do.shape))
    return g_out, g_do, g_s


def mass_t(theta, layout: ParamLayout, Q, jac: bool, want_x: bool):
    """The mass block at the columns of an (n, R) ``Q``: (L, ∂M) as
    (n, n, R) and (D, n, n, R) arrays, and its adjoint.  L is the scaled
    Cholesky factor, e^{s_M/2} folded in, so M = L Lᵀ (`gram`; not formed
    here, as the velocity block reads L alone); ∂M/∂q_k is at [k] with
    ``jac``, else ∂M is empty.  ``adjoint(gM, gdM, gt)`` takes M's and
    ∂M's adjoints (None where unused), adds the theta adjoint into ``gt``
    and returns Q's (n, R) adjoint (with ``want_x``).
    Without ``jac`` it also takes ``rows``, indices into Q's columns: then
    gM holds those rows alone and the backward runs on them, as it would
    after a forward at ``Q[:, rows]``."""
    n = layout.arch.n
    dirs = _axes(n) if jac else ()
    out, douts, layers = _mlp_np(theta, layout, "mass", Q, dirs)
    P, record = _chol_head_np(theta, layout, out, douts)
    L, dL = _factor(P, n)

    def adjoint(gM, gdM, gt, rows=None):
        Lr, dLr, rec, lay = (L, dL, record, layers) if rows is None \
            else _mass_rows(L, dL, record, layers, rows)
        g_out, g_do, g_s = _chol_head_bwd(
            _packed(*_gram_bwd(Lr, dLr, gM, gdM)), rec)
        gx, grads = _mlp_bwd(lay, g_out, g_do, want_x)
        _theta_adjoint(gt, layout, "mass", grads, 0, g_s)
        return gx

    return (L, _dgram(L, dL) if jac else dL), adjoint


def _mass_rows(L, dL, record, layers, rows):
    """A mass block forward without directions at ``rows`` of its Q: the
    factor, its empty directions, the head's record and the MLP's."""
    half, dg, gate, pre, douts, diag = record
    # `take` keeps the row axis last in memory, as a forward at the rows
    # lays it out; fancy indexing on the last axis would put it first
    a = layers[0][0].take(rows, 1)
    taken = []
    for _, das, W, es, o, s in layers:
        # each layer's input is the layer below's output, gathered once
        o = None if o is None else o.take(rows, 1)
        taken.append((a, das, W, es, o, s))
        a = o
    return (L.take(rows, -1), dL.take(rows, -1),
            (half, dg.take(rows, 1), gate, pre.take(rows, 1), douts, diag),
            taken)


def mass_entries_t(params: FlatParams, Q) -> np.ndarray:
    """Batched M(q) values at the rows of a (B, n) ``Q`` as an
    entry-major (n, n, B) array: the Gram of the scaled factor."""
    (L, _), _ = mass_t(params.values, params.layout,
                       transposed(np.asarray(Q, dtype=np.float64)), False,
                       False)
    return gram(L)


def potential_grad_t(theta, layout: ParamLayout, Q, want_x: bool):
    """∇V at the columns of an (n, R) ``Q`` as an (n, R) array, and its
    adjoint ``adjoint(g, gt)``, which adds the theta adjoint into ``gt``
    and returns Q's adjoint (with ``want_x``): one reverse sweep of the
    potential net from its scalar output, times its e^{s_V} scale.  Down
    the tanh layers o_i it runs
    r_H = W_H, gz_i = r_{i+1} ⊙ (1 - o_i²), r_i = W_i gz_i, so
    ∇V = r_0 e^{s_V} costs about one more forward whatever n is; the
    forward stops below the unused output layer.  The adjoint is the
    sweep's in layer order (each W's and o_i's), then the value's."""
    _, _, hidden = _mlp_np(theta, layout, "potential", Q, (), top=False)
    # W_H is (h, 1), so its slot is already the column W_H
    (_, sW, eW), _ = layout.layers["potential"][-1]
    r = theta[sW:eW, None]
    sweep = []
    for _, _, W, _, o, _ in reversed(hidden):
        s = 1.0 - o * o
        gz = r * s
        sweep.append((r, s, gz))
        r = W @ gz
    sweep.reverse()
    # r is a column only when the net has no hidden layer
    raw = r if r.shape == Q.shape else np.broadcast_to(r, Q.shape)
    g = _exp_np(_log_scale_np(theta, layout, 1))

    def adjoint(gp, gt):
        gr, gWs, gos = gp * g, [], []
        for (_, _, W, _, o, _), (r, s, gz) in zip(hidden, sweep):
            gWs.append(gr @ gz.T)
            ggz = W.T @ gr
            gr = ggz * s
            gos.append(-2.0 * o * ggz * r)
        # W_H's; ∇V reads no output bias, so the run stops before b_H
        grads = [gr.sum(1)]
        ga = None
        for i in reversed(range(len(hidden))):
            a, _, W, _, _, _ = hidden[i]
            gz = (gos[i] if ga is None else gos[i] + ga) * sweep[i][1]
            grads += (gz.sum(1), gWs[i] + a @ gz.T)
            ga = W @ gz if i > 0 or want_x else None
        _theta_adjoint(gt, layout, "potential", grads[::-1], 1,
                       (gp * raw).sum() * g)
        return ga

    return raw * g, adjoint


def force_t(theta, layout: ParamLayout, X, want_x: bool):
    """F at the columns of the stacked (q, q̇) ``X``, (2n, R), as an
    (n, R) array: the force net times its e^{s_F} scale, and its adjoint
    (as `potential_grad_t`'s)."""
    if layout.arch.conservative:
        raise ConservativeForceError("model has no force net")
    out, _, layers = _mlp_np(theta, layout, "force", X, [])
    g = _exp_np(_log_scale_np(theta, layout, 2))

    def adjoint(gF, gt):
        gx, grads = _mlp_bwd(layers, gF * g, [], want_x)
        _theta_adjoint(gt, layout, "force", grads, 2,
                       (gF * out).sum() * g)
        return gx

    return out * g, adjoint


# -- matrix algebra -----------------------------------------------------------
#
# Every matrix the blocks and training's stages share is an entry-major
# array, so that each entry is a contiguous (B,) row, in the layout of
# the nets' own (width, B) arrays: L, M, the shifted factor S and matrix
# adjoints are (n, n, B), the factor's directions and ∂M/∂q are
# (D, n, n, B) and vectors are (n, B).  Only `mass_t` sees the mass
# head's packed (tri·(1 + D), B) value, which `_factor` and `_packed`
# map to these arrays and back by row blocks.  Adjoints are full n x n
# matrices with the textbook formulas (Giles 2008); `_gram_bwd` is the
# Gram's.

@lru_cache(maxsize=None)
def _tril(n: int) -> np.ndarray:
    """The lower triangle's flat positions i·n + j in an n x n matrix,
    row by row: the packed order."""
    i, j = np.tril_indices(n)
    return i * n + j


def _factor(P, n: int):
    """(L, dL) from a packed factor value ``P`` (tri·(1 + D), B): L as
    (n, n, B) and the D directions as (D, n, n, B), zero above the
    diagonal."""
    tril = _tril(n)
    B = P.shape[1]
    A = np.zeros((len(P) // len(tril), n * n, B))
    A[:, tril] = P.reshape(len(A), len(tril), B)
    A = A.reshape(-1, n, n, B)
    return A[0], A[1:]


def _packed(L, dL) -> np.ndarray:
    """The (tri·(1 + D), B) packed value of the lower triangles of L and
    of each direction in ``dL``: the inverse of `_factor`."""
    n, _, B = L.shape
    A = np.concatenate([L[None], dL]).reshape(-1, n * n, B)
    return A.take(_tril(n), axis=1).reshape(-1, B)


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
    pivots = L.reshape(n * n, -1)[::n + 1]
    if (pivots == 0.0).any():
        raise ModelNumericsError("reciprocal of zero")
    r = 1.0 / pivots
    x = cho_solve(L, r, b)

    def adjoint(g):
        gb = cho_solve(L, r, g)
        return -gb[:, None] * x, gb

    return x, adjoint


# -- checkpoint files ---------------------------------------------------------

def save_params(params: FlatParams, path, seed: int) -> None:
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
