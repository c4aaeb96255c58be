"""Fitting objectives and the training loop.

Three ways to fit learned mechanics to smoothed data: the discrete
Euler-Lagrange residual with a log-det barrier on the mass matrix,
acceleration regression, and next-state regression through an RK4 step.
Plus Adam, the decay schedule, shuffled batching that never crosses
trajectory boundaries, and validation-based checkpoint selection.

Spatial derivatives of the nets (needed inside every acceleration and
DEL evaluation) are built forward-mode by the netparam tape builders, one
direction per coordinate.  That keeps the tape shallow even through the
four RK4 stages; a single reverse sweep at the end then yields exact
parameter gradients.  The mass-matrix Gram, the Euler-Lagrange terms, the
Cholesky solve and the barrier's shifted factorization each run inside
one fused tape node (see netparam's fused blocks) whose backward replays
the per-entry column graph, so every loss and gradient keeps its bits.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import diffcore as dc
from . import mechanics as mech
from .integrators import IntegrationBlowupError, rk4_step
from .netparam import (FlatParams, SmmParams, accumulate, chol_entries_t,
                       chol_solve_t, flatten_params, force_t, gram, gram_bwd,
                       gram_uses, mass_entries_t, potential_t, sum_uses, sym,
                       tri_keys)

_log = logging.getLogger("smmfit.training")

METHODS = ("del", "accel", "nextstate")

MU_DEFAULT = 0.01
ALPHA_FRACTION = 0.5
DIVERGENCE_BUDGET = 25
MAX_BACKTRACK = 20
BETA1 = 0.9
BETA2 = 0.999
EPS_ADAM = 1e-8
SCHEDULE_HORIZON = 500.0


class BarrierViolationError(Exception):
    """M - alpha*I lost positive definiteness somewhere in the batch."""

    def __init__(self, pivot: int, value: float):
        super().__init__(f"barrier pivot {pivot} reached {value:.3e}")
        self.pivot = pivot
        self.value = value


class TrainingDivergedError(Exception):
    """Too many consecutive rejected steps; carries the record so far."""

    def __init__(self, record):
        super().__init__(f"{record.invalid_steps} invalid steps, "
                         f"budget exhausted at epoch {len(record.train_losses)}")
        self.record = record


# -- batches ------------------------------------------------------------------

_BATCH_KEYS = {
    "del": ("q1", "q2", "q3"),
    "accel": ("q", "qdot", "qddot"),
    "nextstate": ("q", "qdot", "qnext", "qdotnext"),
}


@dataclass
class Batch:
    """Training tuples of one kind, as parallel row arrays."""

    kind: str
    data: dict
    h: float | None = None

    def __post_init__(self):
        if self.kind not in _BATCH_KEYS:
            raise ValueError(f"unknown batch kind {self.kind!r}")
        keys = _BATCH_KEYS[self.kind]
        if set(self.data) != set(keys):
            raise ValueError(f"{self.kind} batch needs fields {keys}")
        self.data = {k: np.asarray(self.data[k], dtype=np.float64)
                     for k in keys}
        rows = {v.shape for v in self.data.values()}
        if len(rows) != 1:
            raise ValueError("batch arrays differ in shape")
        if self.kind == "del" and (self.h is None or self.h <= 0):
            raise ValueError("del batch requires a positive step size")

    def __len__(self) -> int:
        return next(iter(self.data.values())).shape[0]

    @property
    def n(self) -> int:
        return next(iter(self.data.values())).shape[1]

    def take(self, idx) -> "Batch":
        return Batch(self.kind, {k: v[idx] for k, v in self.data.items()},
                     self.h)


def assemble_tuples(trajectories, kind: str) -> Batch:
    """Concatenate per-trajectory tuple arrays; tuples are sliced within
    each trajectory first, so none spans a boundary."""
    trajectories = list(trajectories)
    if not trajectories:
        raise ValueError("no trajectories to assemble")
    hs = {float(t.h) for t in trajectories}
    if len(hs) != 1:
        raise ValueError(f"mixed step sizes {sorted(hs)}")
    h = hs.pop()
    parts = {k: [] for k in _BATCH_KEYS[kind]}
    for t in trajectories:
        if kind == "del":
            parts["q1"].append(t.q[:-2])
            parts["q2"].append(t.q[1:-1])
            parts["q3"].append(t.q[2:])
        elif kind == "accel":
            parts["q"].append(t.q)
            parts["qdot"].append(t.qdot)
            parts["qddot"].append(t.qddot)
        else:
            parts["q"].append(t.q[:-1])
            parts["qdot"].append(t.qdot[:-1])
            parts["qnext"].append(t.q[1:])
            parts["qdotnext"].append(t.qdot[1:])
    return Batch(kind, {k: np.concatenate(v) for k, v in parts.items()}, h)


def make_batches(rng, count: int, batch_size: int):
    """Shuffled index batches covering every tuple once."""
    if batch_size < 1:
        raise ValueError("batch size must be positive")
    perm = rng.permutation(count)
    return [perm[i:i + batch_size] for i in range(0, count, batch_size)]


# -- dynamics on the tape -----------------------------------------------------

def _flat(params) -> FlatParams:
    return params if isinstance(params, FlatParams) else flatten_params(params)


def _accel_t(tape, theta, layout, X, Xd):
    """Batched accelerations at (X, Xd) as a (B, n) tensor."""
    n = layout.arch.n
    dirs = [tape.constant(np.eye(n)[k:k + 1]) for k in range(n)]
    L, dL = chol_entries_t(theta, layout, X, dirs)
    _, dV = potential_t(theta, layout, X, dirs)
    # the nets, then the xd columns before force_t's concat: the sweep adds
    # the adjoints of theta, X and Xd in reverse tape order, so this order
    # fixes their bits
    xd = [dc.cols(Xd, j, j + 1) for j in range(n)]
    F = None
    if not layout.arch.conservative:
        F = force_t(theta, layout, X, Xd)
    return chol_solve_t(L, _euler_lagrange_rhs_t(L, dL, dV, xd, F))


def _euler_lagrange_rhs_t(L, dL, dV, xd, F):
    """The right-hand side of M q̈ = τ as one (B, n) fused node.

    τ_i = 1/2 q̇ᵀ (∂M/∂q_i) q̇ - ∂V/∂q_i - Σ_k (∂M/∂q_k q̇)_i q̇_k (+ F_i),
    with ∂M the Gram of the scaled factor L and its directions dL.  The
    Cholesky solve after it also consumes L, so L is listed once per use.
    """
    n = len(xd)
    keys = tri_keys(n)
    Lv = {k: L[k].value for k in keys}
    dLv = [{k: d[k].value for k in keys} for d in dL]
    _, dM = gram(Lv, dLv, n, with_M=False)
    xv = [c.value for c in xd]
    prods = {}
    cols = []
    for i in range(n):
        quad = curv = None
        for k in range(n):
            for j in range(n):
                a = dM[i][sym(k, j)] * xv[k]
                t = a * xv[j]
                quad = t if quad is None else quad + t
                b = dM[k][sym(i, j)] * xv[j]
                t = b * xv[k]
                curv = t if curv is None else curv + t
                prods[i, k, j] = a, b
        cols.append(quad * 0.5 + -dV[i].value + -curv)
    if F is not None:
        cols = [c + np.ascontiguousarray(F.value[:, i:i + 1])
                for i, c in enumerate(cols)]
    uses = gram_uses(n, n, False)

    def bwd(g):
        g = [np.ascontiguousarray(g[:, i:i + 1]) for i in range(n)]
        gF = None
        if F is not None:
            for i in reversed(range(n)):
                v = np.zeros(F.shape)
                v[:, i:i + 1] = g[i]
                gF = v if gF is None else gF + v
        with_x = xd[0].requires_grad
        gdM = [{} for _ in range(n)]
        gx, gdV = {}, [None] * n
        for i in reversed(range(n)):
            gcurv, gdV[i], gquad = -g[i], -g[i], g[i] * 0.5
            for k in reversed(range(n)):
                for j in reversed(range(n)):
                    a, b = prods[i, k, j]
                    gb = gcurv * xv[k]
                    if with_x:
                        accumulate(gx, k, gcurv * b)
                    accumulate(gdM[k], sym(i, j), gb * xv[j])
                    if with_x:
                        accumulate(gx, j, gb * dM[k][sym(i, j)])
                    ga = gquad * xv[j]
                    if with_x:
                        accumulate(gx, j, gquad * a)
                    accumulate(gdM[i], sym(k, j), ga * xv[k])
                    if with_x:
                        accumulate(gx, k, ga * dM[i][sym(k, j)])
        gL, gdL = gram_bwd(Lv, dLv, {}, gdM, n, with_M=False)
        return (*gL, *(d.get(k) for d in gdL for k in keys), *gdV,
                *(gx.get(j) for j in range(n)),
                *(() if F is None else (gF,)))

    parents = [L[k] for k in uses] + [d[k] for d in dL for k in keys] \
        + list(dV) + list(xd) + ([] if F is None else [F])
    return dc.custom(parents, np.concatenate(cols, axis=1), bwd,
                     "euler_lagrange_rhs")


def _del_residual_t(arm_a, arm_b, h: float):
    """The discrete Euler-Lagrange residual as one (B, n) fused node.

    Each arm is (L, dL, dV, F, v) at one pair midpoint: the scaled factor,
    its directions, dV/dq, the force (or None) and the pair velocity.  Row
    i is h/2 (∂L_a + ∂L_b)_i + (M_a v_a - M_b v_b)_i (+ h/2 (F_a + F_b)_i)
    with ∂L_k = 1/2 vᵀ (∂M/∂q_k) v - ∂V/∂q_k.
    """
    n = len(arm_a[2])
    keys = tri_keys(n)
    c = h / 2.0
    arms, terms = [], []
    for L, dL, dV, F, v in (arm_a, arm_b):
        Lv = {k: L[k].value for k in keys}
        dLv = [{k: d[k].value for k in keys} for d in dL]
        M, dM = gram(Lv, dLv, n)
        vc = [np.ascontiguousarray(v[:, j:j + 1]) for j in range(n)]
        gL, p = [], []
        for k in range(n):
            quad = None
            for i in range(n):
                for j in range(n):
                    t = dM[k][sym(i, j)] * vc[i] * vc[j]
                    quad = t if quad is None else quad + t
            gL.append(quad * 0.5 + -dV[k].value)
        for i in range(n):
            acc = None
            for j in range(n):
                t = M[sym(i, j)] * vc[j]
                acc = t if acc is None else acc + t
            p.append(acc)
        arms.append((Lv, dLv, vc, F))
        terms.append((gL, p))
    (gLa, pa), (gLb, pb) = terms
    Fa, Fb = arm_a[3], arm_b[3]
    cols = []
    for i in range(n):
        d = (gLa[i] + gLb[i]) * c
        d = d + (pa[i] + -pb[i])
        if Fa is not None:
            d = d + (np.ascontiguousarray(Fa.value[:, i:i + 1])
                     + np.ascontiguousarray(Fb.value[:, i:i + 1])) * c
        cols.append(d)
    uses = gram_uses(n, n, True)

    def bwd(g):
        g = [np.ascontiguousarray(g[:, i:i + 1]) for i in range(n)]
        gF = [None, None]
        ggL = [[None] * n, [None] * n]
        gp = [[None] * n, [None] * n]
        for i in reversed(range(n)):
            if Fa is not None:
                gf = g[i] * c
                for side in (1, 0):
                    v = np.zeros(Fa.shape)
                    v[:, i:i + 1] = gf
                    gF[side] = v if gF[side] is None else gF[side] + v
            gp[0][i], gp[1][i] = g[i], -g[i]
            ggL[0][i] = ggL[1][i] = g[i] * c
        out = []
        for side, (Lv, dLv, vc, F) in enumerate(arms):
            gM, gdM, gdV = {}, [{} for _ in range(n)], [None] * n
            for i in reversed(range(n)):
                for j in reversed(range(n)):
                    accumulate(gM, sym(i, j), gp[side][i] * vc[j])
            for k in reversed(range(n)):
                gdV[k] = -ggL[side][k]
                gq = ggL[side][k] * 0.5
                for i in reversed(range(n)):
                    for j in reversed(range(n)):
                        accumulate(gdM[k], sym(i, j), gq * vc[j] * vc[i])
            gL, gdL = gram_bwd(Lv, dLv, gM, gdM, n)
            gL = sum_uses(uses, gL)
            out += [gL[k] for k in keys] + [d.get(k) for d in gdL
                                            for k in keys] + gdV
            if F is not None:
                out.append(gF[side])
        return tuple(out)

    parents = []
    for L, dL, dV, F, _ in (arm_a, arm_b):
        parents += [L[k] for k in keys] + [d[k] for d in dL for k in keys] \
            + list(dV) + ([] if F is None else [F])
    return dc.custom(parents, np.concatenate(cols, axis=1), bwd,
                     "del_residual")


def _shifted_logdet_t(L, n: int, shift: float):
    """log det(M - shift I) per row as one (B, 1) fused node, M the Gram
    of the scaled factor L.

    The shifted factor is built entry by entry; any nonpositive pivot
    means the barrier is violated.
    """
    keys = tri_keys(n)
    Lv = {k: L[k].value for k in keys}
    M, _ = gram(Lv, [], n)
    S, accs, recips = {}, {}, {}
    ld = None
    for i in range(n):
        for j in range(i + 1):
            acc = M[i, j]
            if i == j and shift != 0.0:
                acc = acc + -shift
            for k in range(j):
                acc = acc + -(S[i, k] * S[j, k])
            accs[i, j] = acc
            if i == j:
                if not np.all(np.isfinite(acc)) or np.any(acc <= 0.0):
                    raise BarrierViolationError(i, float(np.nanmin(acc)))
                S[i, i] = np.sqrt(acc)
                ld = np.log(acc) if ld is None else ld + np.log(acc)
            else:
                recips[i, j] = dc._reciprocal_np(S[j, j])
                S[i, j] = acc * recips[i, j]
    uses = gram_uses(n, 0, True)

    def bwd(g):
        gS, gM = {}, {}
        for i in reversed(range(n)):
            for j in reversed(range(i + 1)):
                acc = accs[i, j]
                if i == j:
                    a = g * (1.0 / acc)
                    gs = gS.get((i, i))
                    if gs is not None:
                        a = a + gs * (dc._reciprocal_np(S[i, i]) * 0.5)
                else:
                    gs = gS.get((i, j))
                    if gs is None:
                        continue
                    r = recips[i, j]
                    a = gs * r
                    accumulate(gS, (j, j), -((gs * acc) * (r * r)))
                for k in reversed(range(j)):
                    gp = -a
                    accumulate(gS, (i, k), gp * S[j, k])
                    accumulate(gS, (j, k), gp * S[i, k])
                gM[i, j] = a
        gL, _ = gram_bwd(Lv, [], gM, [], n)
        gL = sum_uses(uses, gL)
        return tuple(gL.get(k) for k in keys)

    return dc.custom([L[k] for k in keys], ld, bwd, "shifted_logdet")


# -- loss graphs --------------------------------------------------------------

def _del_graph(flat: FlatParams, batch: Batch, mu: float, alpha: float,
               with_barrier: bool = True):
    if batch.kind != "del":
        raise ValueError(f"need a del batch, got {batch.kind!r}")
    layout = flat.layout
    n = layout.arch.n
    q1, q2, q3 = batch.data["q1"], batch.data["q2"], batch.data["q3"]
    h = batch.h
    tape = dc.Tape()
    theta = tape.input(flat.values.reshape(1, -1))
    dirs = [tape.constant(np.eye(n)[k:k + 1]) for k in range(n)]

    def arm(qa, qb):
        # the nets at the pair midpoint, and the pair velocity
        X = tape.constant((qa + qb) / 2.0)
        v = (qb - qa) / h
        L, dL = chol_entries_t(theta, layout, X, dirs)
        _, dV = potential_t(theta, layout, X, dirs)
        F = None
        if not layout.arch.conservative:
            F = force_t(theta, layout, X, tape.constant(v))
        return L, dL, dV, F, v

    res = _del_residual_t(arm(q1, q2), arm(q2, q3), h)
    rho = dc.scale(dc.sumsq(res), 1.0 / len(batch))
    ld_mean = None
    loss = rho
    if with_barrier:
        L, _ = chol_entries_t(theta, layout, tape.constant(q2))
        ld_mean = dc.mean_all(_shifted_logdet_t(L, n, alpha))
        loss = dc.add(rho, dc.scale(ld_mean, -mu))
    return tape, theta, loss, rho, ld_mean


def _accel_graph(flat: FlatParams, batch: Batch):
    if batch.kind != "accel":
        raise ValueError(f"need an accel batch, got {batch.kind!r}")
    tape = dc.Tape()
    theta = tape.input(flat.values.reshape(1, -1))
    X = tape.constant(batch.data["q"])
    Xd = tape.constant(batch.data["qdot"])
    A = _accel_t(tape, theta, flat.layout, X, Xd)
    E = dc.add(A, tape.constant(-batch.data["qddot"]))
    loss = dc.scale(dc.sumsq(E), 1.0 / batch.data["q"].size)
    return tape, theta, loss, A


def _nextstate_graph(flat: FlatParams, batch: Batch, h: float):
    if batch.kind != "nextstate":
        raise ValueError(f"need a nextstate batch, got {batch.kind!r}")
    layout = flat.layout
    tape = dc.Tape()
    theta = tape.input(flat.values.reshape(1, -1))
    X = tape.constant(batch.data["q"])
    Xd = tape.constant(batch.data["qdot"])

    def acc(Xs, Vs):
        A = _accel_t(tape, theta, layout, Xs, Vs)
        if not np.all(np.isfinite(A.value)):
            raise IntegrationBlowupError("non-finite RK4 stage acceleration")
        return A

    A1 = acc(X, Xd)
    X2 = dc.add(X, dc.scale(Xd, 0.5 * h))
    V2 = dc.add(Xd, dc.scale(A1, 0.5 * h))
    A2 = acc(X2, V2)
    X3 = dc.add(X, dc.scale(V2, 0.5 * h))
    V3 = dc.add(Xd, dc.scale(A2, 0.5 * h))
    A3 = acc(X3, V3)
    X4 = dc.add(X, dc.scale(V3, h))
    V4 = dc.add(Xd, dc.scale(A3, h))
    A4 = acc(X4, V4)
    kq = dc.add(dc.add(Xd, dc.scale(dc.add(V2, V3), 2.0)), V4)
    kv = dc.add(dc.add(A1, dc.scale(dc.add(A2, A3), 2.0)), A4)
    Qp = dc.add(X, dc.scale(kq, h / 6.0))
    Vp = dc.add(Xd, dc.scale(kv, h / 6.0))
    Eq = dc.add(Qp, tape.constant(-batch.data["qnext"]))
    Ev = dc.add(Vp, tape.constant(-batch.data["qdotnext"]))
    E = dc.concat_cols([Eq, Ev])
    loss = dc.scale(dc.sumsq(E), 1.0 / (2.0 * batch.data["q"].size))
    return tape, theta, loss, (Qp, Vp)


# -- public losses ------------------------------------------------------------

def del_loss(params, batch: Batch, mu: float = MU_DEFAULT,
             alpha: float = 0.0) -> float:
    """Mean squared DEL residual minus mu times the mean log-det barrier."""
    _, _, loss, _, _ = _del_graph(_flat(params), batch, mu, alpha,
                                  with_barrier=mu != 0.0)
    return loss.value.item()


def del_loss_grad(params, batch: Batch, mu: float = MU_DEFAULT,
                  alpha: float = 0.0):
    tape, theta, loss, _, _ = _del_graph(_flat(params), batch, mu, alpha,
                                         with_barrier=mu != 0.0)
    g = tape.gradients(loss, [theta])[0]
    return loss.value.item(), g.value.ravel().copy()


def del_loss_terms(params, batch: Batch, alpha: float = 0.0):
    """(mean residual, mean logdet(M - alpha I)) as plain floats."""
    _, _, _, rho, ld = _del_graph(_flat(params), batch, 1.0, alpha)
    return rho.value.item(), ld.value.item()


def accel_loss(params, batch: Batch) -> float:
    """Mean squared error of predicted accelerations, over all entries."""
    _, _, loss, _ = _accel_graph(_flat(params), batch)
    return loss.value.item()


def accel_loss_grad(params, batch: Batch):
    tape, theta, loss, _ = _accel_graph(_flat(params), batch)
    g = tape.gradients(loss, [theta])[0]
    return loss.value.item(), g.value.ravel().copy()


def nextstate_loss(params, batch: Batch, h: float) -> float:
    """Mean squared one-step error, position and velocity weighted equally."""
    _, _, loss, _ = _nextstate_graph(_flat(params), batch, h)
    return loss.value.item()


def nextstate_loss_grad(params, batch: Batch, h: float):
    tape, theta, loss, _ = _nextstate_graph(_flat(params), batch, h)
    g = tape.gradients(loss, [theta])[0]
    return loss.value.item(), g.value.ravel().copy()


def nextstate_predictions(params, batch: Batch, h: float):
    """RK4 one-step predictions as value arrays (the graph's own forward)."""
    _, _, _, (Qp, Vp) = _nextstate_graph(_flat(params), batch, h)
    return Qp.value.copy(), Vp.value.copy()


def predicted_accelerations(params, q, qdot) -> np.ndarray:
    """Batched model accelerations at the given states."""
    flat = _flat(params)
    tape = dc.Tape()
    theta = tape.constant(flat.values.reshape(1, -1))
    X = tape.constant(np.asarray(q, dtype=np.float64))
    Xd = tape.constant(np.asarray(qdot, dtype=np.float64))
    return _accel_t(tape, theta, flat.layout, X, Xd).value.copy()


def accel_rmse(params, batch: Batch) -> float:
    """Root mean squared acceleration error; the validation metric."""
    pred = predicted_accelerations(params, batch.data["q"], batch.data["qdot"])
    return float(np.sqrt(np.mean((pred - batch.data["qddot"]) ** 2)))


def barrier_grad(params, configs, alpha: float) -> np.ndarray:
    """Gradient of the mean logdet(M - alpha I) over the given configs."""
    flat = _flat(params)
    configs = np.asarray(configs, dtype=np.float64)
    tape = dc.Tape()
    theta = tape.input(flat.values.reshape(1, -1))
    L, _ = chol_entries_t(theta, flat.layout, tape.constant(configs))
    ld = _shifted_logdet_t(L, flat.layout.arch.n, alpha)
    g = tape.gradients(dc.mean_all(ld), [theta])[0]
    return g.value.ravel().copy()


# -- reference losses for analytic systems ------------------------------------

def system_del_mean(system, batch: Batch) -> float:
    """Mean squared DEL residual of an analytic system on del tuples."""
    vals = [mech.del_residual(system, mech.ConfigTriple(
        batch.data["q1"][i], batch.data["q2"][i], batch.data["q3"][i],
        batch.h)) for i in range(len(batch))]
    return float(np.mean(vals))


def system_accel_mse(system, batch: Batch) -> float:
    q, qd, qdd = (batch.data["q"], batch.data["qdot"], batch.data["qddot"])
    pred = np.array([mech.acceleration(system, q[i], qd[i])
                     for i in range(len(batch))])
    return float(np.mean((pred - qdd) ** 2))


def system_nextstate_mse(system, batch: Batch, h: float) -> float:
    def acc(qq, vv):
        return mech.acceleration(system, qq, vv)

    err = 0.0
    for i in range(len(batch)):
        qn, vn = rk4_step(acc, batch.data["q"][i], batch.data["qdot"][i], h)
        err += np.sum((qn - batch.data["qnext"][i]) ** 2)
        err += np.sum((vn - batch.data["qdotnext"][i]) ** 2)
    return float(err / (2.0 * batch.data["q"].size))


# -- optimizer ----------------------------------------------------------------

def lr_schedule(xi0: float, k: int) -> float:
    """Decayed rate 500 xi0 / (500 + k) at epoch k."""
    if k < 0:
        raise ValueError("epoch index must be nonnegative")
    return SCHEDULE_HORIZON * xi0 / (SCHEDULE_HORIZON + k)


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    step: int = 0
    beta1: float = BETA1
    beta2: float = BETA2
    eps: float = EPS_ADAM


def adam_init(size: int) -> AdamState:
    return AdamState(m=np.zeros(size), v=np.zeros(size))


def adam_step(state: AdamState, values: np.ndarray, grads: np.ndarray,
              xi: float):
    """One bias-corrected Adam update; returns (new state, new values)."""
    t = state.step + 1
    m = state.beta1 * state.m + (1.0 - state.beta1) * grads
    v = state.beta2 * state.v + (1.0 - state.beta2) * grads * grads
    mhat = m / (1.0 - state.beta1 ** t)
    vhat = v / (1.0 - state.beta2 ** t)
    new = values - xi * mhat / (np.sqrt(vhat) + state.eps)
    return AdamState(m, v, t, state.beta1, state.beta2, state.eps), new


# -- barrier bookkeeping ------------------------------------------------------

def mass_eigenvalues(params, configs) -> np.ndarray:
    """Eigenvalues of M(q) for every row of configs, shape (N, n)."""
    flat = _flat(params)
    n = flat.layout.arch.n
    configs = np.asarray(configs, dtype=np.float64).reshape(-1, n)
    tape = dc.Tape()
    theta = tape.constant(flat.values.reshape(1, -1))
    ent, _, _ = mass_entries_t(theta, flat.layout, tape.constant(configs))
    M = np.empty((configs.shape[0], n, n))
    for i in range(n):
        for j in range(n):
            M[:, i, j] = ent[(i, j)].value[:, 0]
    return np.linalg.eigvalsh(M)


def choose_alpha(params0, configs, fraction: float = ALPHA_FRACTION) -> float:
    """Barrier floor: a fraction of the smallest initial mass eigenvalue."""
    if not 0.0 < fraction < 1.0:
        raise ValueError("fraction must sit strictly inside (0, 1)")
    return fraction * float(mass_eigenvalues(params0, configs).min())


# -- the epoch loop -----------------------------------------------------------

@dataclass
class TrainConfig:
    xi0: float = 1e-3
    epochs: int = 500
    batch_size: int = 256
    mu: float = MU_DEFAULT
    alpha_fraction: float = ALPHA_FRACTION
    seed: int = 0
    divergence_budget: int = DIVERGENCE_BUDGET

    def __post_init__(self):
        if self.xi0 <= 0:
            raise ValueError("initial learning rate must be positive")
        if self.epochs < 0 or self.batch_size < 1:
            raise ValueError("bad epoch count or batch size")


@dataclass
class TrainRecord:
    """Per-epoch curves plus which checkpoint won validation."""

    method: str
    xi0: float
    seed: int
    mu: float
    alpha: float | None
    train_losses: list = field(default_factory=list)
    val_errors: list = field(default_factory=list)
    lrs: list = field(default_factory=list)
    best_epoch: int = 0
    invalid_steps: int = 0
    checkpoint: str | None = None


def save_record(record: TrainRecord, path) -> None:
    doc = {k: getattr(record, k) for k in (
        "method", "xi0", "seed", "mu", "alpha", "train_losses",
        "val_errors", "lrs", "best_epoch", "invalid_steps", "checkpoint")}
    Path(path).write_text(json.dumps(doc, indent=1))


def load_record(path) -> TrainRecord:
    doc = json.loads(Path(path).read_text())
    return TrainRecord(**doc)


def _split_trajs(dataset):
    trajs = list(dataset.trajectories)
    # unlabelled trajectories ("" as `smmfit smooth` writes it) train
    train = [t for t in trajs if t.split in ("train", "", None)]
    val = [t for t in trajs if t.split == "val"]
    if not train:
        raise ValueError("dataset has no training trajectories")
    if not val:
        _log.info("no validation trajectories; validating on the %d "
                  "training trajectories", len(train))
    return train, val or train


def train(method: str, params0: SmmParams, dataset, config: TrainConfig):
    """Minimize the chosen loss; return (record, best-validation params).

    A step is rejected when its loss cannot be evaluated (barrier or
    integration failure), its gradient is non-finite, or it would push any
    training-set mass matrix below the barrier floor.  An infeasible
    proposal backs off geometrically in the learning rate until it clears
    the floor; a step that never clears is skipped, and too many
    consecutive skips abort the run.  One halving is not enough here:
    near the floor the optimizer's momentum keeps proposing the same
    slightly-infeasible move and the loop deadlocks.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    rng = np.random.default_rng(config.seed)
    train_trajs, val_trajs = _split_trajs(dataset)
    tuples = assemble_tuples(train_trajs, method)
    val_batch = assemble_tuples(val_trajs, "accel")
    layout = flatten_params(params0).layout
    values = layout.flatten(params0)

    alpha = None
    train_configs = None
    if method == "del":
        train_configs = np.concatenate([t.q for t in train_trajs])
        alpha = choose_alpha(params0, train_configs, config.alpha_fraction)

    record = TrainRecord(method=method, xi0=config.xi0, seed=config.seed,
                         mu=config.mu, alpha=alpha)

    def flat_view(vals):
        return FlatParams(vals, layout)

    def evaluate(vals):
        try:
            err = accel_rmse(flat_view(vals), val_batch)
        except dc.DiffcoreError:
            return np.inf
        return err if np.isfinite(err) else np.inf

    def loss_grad(vals, batch):
        fp = flat_view(vals)
        if method == "del":
            return del_loss_grad(fp, batch, config.mu, alpha)
        if method == "accel":
            return accel_loss_grad(fp, batch)
        return nextstate_loss_grad(fp, batch, tuples.h)

    def feasible(vals):
        if alpha is None:
            return True
        try:
            eigs = mass_eigenvalues(flat_view(vals), train_configs)
        except dc.DiffcoreError:
            return False
        return bool(np.all(np.isfinite(eigs)) and eigs.min() > alpha)

    val0 = evaluate(values)
    record.val_errors.append(val0)
    best = (val0, values.copy(), 0)
    adam = adam_init(values.size)
    consecutive = 0

    for epoch in range(config.epochs):
        xi = lr_schedule(config.xi0, epoch)
        losses = []
        for idx in make_batches(rng, len(tuples), config.batch_size):
            batch = tuples.take(idx)
            try:
                loss, grad = loss_grad(values, batch)
            except (BarrierViolationError, IntegrationBlowupError,
                    dc.DiffcoreError) as err:
                loss, grad = np.inf, None
                _log.warning("batch loss unavailable: %s", err)
            ok = grad is not None and np.isfinite(loss) \
                and np.all(np.isfinite(grad))
            accepted = False
            if ok:
                for j in range(MAX_BACKTRACK + 1):
                    st, vals = adam_step(adam, values, grad, xi * 0.5 ** j)
                    if feasible(vals):
                        adam, values = st, vals
                        accepted = True
                        break
            if accepted:
                consecutive = 0
                losses.append(loss)
            else:
                consecutive += 1
                record.invalid_steps += 1
                if consecutive >= config.divergence_budget:
                    raise TrainingDivergedError(record)
        record.train_losses.append(float(np.mean(losses)) if losses
                                   else np.nan)
        record.lrs.append(xi)
        val = evaluate(values)
        record.val_errors.append(val)
        if val < best[0]:
            best = (val, values.copy(), epoch + 1)

    record.best_epoch = best[2]
    return record, layout.unflatten(best[1])
