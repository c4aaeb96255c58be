"""Fitting objectives and the training loop.

Three ways to fit learned mechanics to smoothed data: the discrete
Euler-Lagrange residual with a log-det barrier on the mass matrix,
acceleration regression, and next-state regression through an RK4 step.
Plus Adam, the decay schedule, shuffled batching that never crosses
trajectory boundaries, and validation-based checkpoint selection.

Every loss differentiates the model one way: a numpy stage on the flat
parameter vector theta that calls netparam's net blocks (the mass block
`mass_t`, which gives the factor L of M and ∂M/∂q from its forward-mode
derivatives along each coordinate axis, ∇V by one reverse sweep of the
potential net, the force net) and returns its value and its plain
first-order adjoint into a flat theta adjoint.  Each loss is one more
numpy stage over its stages (`_del_loss`, `_accel_loss`,
`_nextstate_loss`): it returns the loss value and an adjoint that adds
the loss's theta gradient into a flat (P,) array, in a tape's
arithmetic and a tape's order (`_mean_square`).  Only `_loss_grad`
uses the tape: two nodes, theta's (1, P) row and the loss, whose
backward runs the loss's adjoint.
Every M(q) of the model comes from `mass_t`.  The stages run in the
blocks' feature-major layout: configurations, velocities, ∇V, forces,
accelerations and residuals are (n, B) arrays, as L and ∂M are (n, n, B)
and (n, n, n, B), so a tuple set's (N, n) rows are transposed once
(`Batch.columns`), a batch gathers its tuples' columns from them, and
`predicted_accelerations` transposes its result back to rows.  `train`
passes each loss its whole tuple set and the batch's indices, so a step
cuts no batch.  The acceleration stage
(`_accel_np`) is two blocks: a position block that reads q only
(`_position_np`: the mass block with its axis directions and the ∇V
sweep) and a velocity block (`_velocity_np`: τ, the force net,
`chol_solve_t`).  The acceleration loss runs both on the same rows,
and validation runs them with no tape.  The RK4 stage (`_rk4_np`) runs
the position block twice on 2B rows, for stages 1-2 and for stages 3-4,
and the velocity block once per stage; its backward takes velocity
adjoints 4 and 3, the stages 3-4 position adjoint, velocity adjoints 2
and 1, then the stages 1-2 position adjoint.  The DEL residual stage
(`_del_np`) at q_k uses the pairs (q_k-1, q_k) and (q_k, q_k+1);
neighbouring tuples of a trajectory share a pair, so it
runs the position block and the force net once, at the midpoints of the
distinct pairs of its batch, and gathers each tuple's two arms from
them.  `train` finds the distinct pairs of its whole tuple set once
(`_pair_table`) and restricts them to each batch by the sorted
distinct pair ids of its tuples (`_pairs_of`), which give the rows a
batch's own table would, in the same order.  The barrier stage (`_barrier_np`) and the
feasibility check share one factorization per accepted theta: the check
is the pivot test of mechanics' `cholesky` on M - alpha I at every
training configuration (`_shifted_mass`), and the barrier gathers its
batch's q2 rows from the last passing check's factor and runs the mass
block's backward on those rows alone.
"""

from __future__ import annotations

import ctypes
import json
import logging
import math
import sys
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from . import diffcore as dc
from .integrators import IntegrationBlowupError
from .mechanics import NotPositiveDefiniteError, cholesky
from .netparam import (FlatParams, ModelNumericsError, chol_solve_t,
                       force_t, gram, mass_entries_t, mass_t,
                       potential_grad_t, transposed)

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
        self.data = {k: np.ascontiguousarray(self.data[k], dtype=np.float64)
                     for k in keys}
        rows = {v.shape for v in self.data.values()}
        if len(rows) != 1:
            raise ValueError("batch arrays differ in shape")
        if self.kind == "del" and (self.h is None
                                   or not 0 < self.h < np.inf):
            raise ValueError("del batch requires a finite positive step size")

    def __len__(self) -> int:
        return next(iter(self.data.values())).shape[0]

    @cached_property
    def columns(self) -> dict:
        """The fields as feature-major (n, N) arrays, transposed once."""
        return {k: transposed(v) for k, v in self.data.items()}

    def gather(self, keys, idx=None) -> list:
        """The fields ``keys`` of the tuples ``idx`` (all without) as
        feature-major (n, B) arrays: columns of `columns`, which equal a
        transpose of those tuples' rows."""
        cols = self.columns
        return [cols[k] if idx is None else cols[k].take(idx, 1)
                for k in keys]


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


# -- dynamics ---------------------------------------------------------------

def _position_np(theta, layout, X, want_x: bool):
    """The position block: what the dynamics read of q alone, at the
    columns of an (n, R) ``X``.  It runs the mass block with its
    coordinate directions (`mass_t`) and the ∇V sweep, and returns
    (L, ∂M, ∇V) as (n, n, R), (n, n, n, R) and (n, R) arrays, and its
    adjoint.  ``adjoint((gM, gdM, gdV), gt)`` takes the adjoints of M,
    ∂M and ∇V in that layout, adds the theta adjoint into ``gt`` and
    returns X's adjoint parts (potential net's, mass net's), each None
    without ``want_x``."""
    (Lm, dM), mass_adj = mass_t(theta, layout, X, True, want_x)
    dV, pot_adj = potential_grad_t(theta, layout, X, want_x)

    def adjoint(gpos, gt):
        gM, gdM, gdV = gpos
        return pot_adj(gdV, gt), mass_adj(gM, gdM, gt)

    return (Lm, dM, dV), adjoint


def _velocity_np(theta, layout, pos, X, V, want_xv: bool):
    """The velocity block: the accelerations at the columns of (n, R)
    arrays (X, V) as an (n, R) array from the position block's
    (L, ∂M, ∇V) at X, by solving L Lᵀ q̈ = τ with
    τ_i = 1/2 q̇ᵀ (∂M/∂q_i) q̇ - ∂V/∂q_i - (D q̇)_i (+ F_i),
    D = Σ_k q̇_k ∂M/∂q_k.  ``adjoint(g, gt)`` adds the force net's theta
    adjoint into ``gt`` and returns the position block's (gM, gdM, gdV)
    and, with ``want_xv``, X's adjoint from the force net (else None, and
    None without one) and the list of V's adjoint parts: τ's, then the
    force net's."""
    n = len(X)
    Lm, dM, dV = pos
    F = None
    if not layout.arch.conservative:
        F, force_adj = force_t(theta, layout, np.concatenate([X, V]),
                               want_xv)
    xx = V[:, None] * V
    D = (V[:, None, None] * dM).sum(0)
    tau = (dM * xx).sum((1, 2)) * 0.5 - dV - (D * V).sum(1)
    if F is not None:
        tau = tau + F
    a, solve_adj = chol_solve_t(Lm, tau)

    def adjoint(g, gt):
        # quad_i = <∂M/∂q_i, V Vᵀ> and the curvature term D V
        gM, gb = solve_adj(g)
        gD = -gb[:, None] * V
        gdM = (gb * 0.5)[:, None, None] * xx + V[:, None, None] * gD
        gx, gv = None, []
        if want_xv:
            gxx = (gb[:, None, None] * dM).sum(0) * 0.5
            gv.append((gxx * V).sum(1) * 2.0 - (D * gb).sum(1)
                      + (dM * gD).sum((1, 2)))
        if F is not None:
            gxf = force_adj(gb, gt)
            if gxf is not None:
                gx = gxf[:n]
                gv.append(gxf[n:])
        return (gM, gdM, -gb), gx, gv

    return a, adjoint


def _accel_np(theta, layout, X, V):
    """Batched accelerations at the columns of (n, B) arrays (X, V) as an
    (n, B) array, and their adjoint ``adjoint(g, gt)``, which adds the
    theta adjoint into ``gt``: the position and velocity blocks on the
    same columns, the solve's and τ's adjoints of M and ∂M going through
    one Gram adjoint."""
    pos, pos_adj = _position_np(theta, layout, X, False)
    A, vel_adj = _velocity_np(theta, layout, pos, X, V, False)

    def adjoint(g, gt):
        pos_adj(vel_adj(g, gt)[0], gt)

    return A, adjoint


def _del_np(theta, layout, h: float, pairs):
    """The discrete Euler-Lagrange residual of a del batch of step ``h`` as
    an (n, B) array, and its adjoint (as `_accel_np`'s).

    ``pairs`` is the batch's pair table (`_pair_table`): its distinct
    configuration pairs as (2n, U) columns, and each tuple's first pair
    ``ia[i]`` and second ``ib[i]`` among them.  The position block
    (`_position_np`) and the force net run once at the midpoint of each
    pair with pair velocity v.  Tuple i's column is
    h/2 (∂L[ia] + ∂L[ib])_i + (M v[ia] - M v[ib])_i (+ h/2 (F[ia] + F[ib])_i)
    with ∂L_k = 1/2 vᵀ (∂M/∂q_k) v - ∂V/∂q_k and M v formed once per pair.
    The adjoint adds the tuples' adjoints onto the pairs first.
    """
    n = layout.arch.n
    cols, (ia, ib) = pairs
    qa, qb = cols[:n], cols[n:]
    X = (qa + qb) / 2.0
    v = (qb - qa) / h
    (Lm, dM, dV), pos_adj = _position_np(theta, layout, X, False)
    F = None
    if not layout.arch.conservative:
        F, force_adj = force_t(theta, layout, np.concatenate([X, v]),
                               False)
    U = v.shape[1]
    c = h / 2.0
    vv = v[:, None] * v
    dL = (dM * vv).sum((1, 2)) * 0.5 - dV
    Mv = (gram(Lm) * v).sum(1)
    # `take` keeps each gathered (n, B) array's rows contiguous
    res = (dL.take(ia, 1) + dL.take(ib, 1)) * c \
        + (Mv.take(ia, 1) - Mv.take(ib, 1))
    if F is not None:
        res = res + (F.take(ia, 1) + F.take(ib, 1)) * c

    def adjoint(g, gt):
        # tuple i's adjoint lands on its pairs ia[i] and ib[i]
        ga = np.array([np.bincount(ia, r, U) for r in g])
        gb = np.array([np.bincount(ib, r, U) for r in g])
        gs = ga + gb
        gdM = (gs * (c * 0.5))[:, None, None] * vv
        gM = (ga - gb)[:, None] * v
        if F is not None:
            force_adj(gs * c, gt)
        pos_adj((gM, gdM, -gs * c), gt)

    return res, adjoint


def _pair_table(batch: Batch):
    """(the distinct configuration pairs of a del batch's tuples as
    (2n, U) columns, in `_distinct_rows`' order, and the tuples' pair ids
    as a (2, B) array: first pairs (q1, q2), then second pairs (q2, q3)).
    A trajectory cut in order shares all but one of them."""
    q1, q2, q3 = batch.data["q1"], batch.data["q2"], batch.data["q3"]
    rows, inv = _distinct_rows(np.concatenate([np.hstack([q1, q2]),
                                               np.hstack([q2, q3])]))
    return transposed(rows), inv.reshape(2, -1)


def _pairs_of(table, idx):
    """The pair table of the tuples ``idx`` of a set whose table is
    ``table``.  `_distinct_rows` orders rows by their bits, so the set's
    rows that the tuples use, in the set's order, are the table that
    `_pair_table` gives the tuples alone."""
    cols, ids = table
    mine = ids.take(idx, 1)
    # the sorted distinct ids by a mark per pair: np.unique's own overhead
    # is twice this at a batch's size
    used = np.zeros(cols.shape[1], dtype=bool)
    used[mine] = True
    used = used.nonzero()[0]
    return cols.take(used, 1), np.searchsorted(used, mine)


def _distinct_rows(rows):
    """(the distinct rows of a (R, m) float array, each row's index among
    them).  Rows count as one only when bit-identical, so -0.0 and 0.0
    stay apart."""
    keys = rows.view(np.int64)
    order = np.lexsort(keys.T)
    s = keys[order]
    new = np.empty(len(order), dtype=bool)
    new[:1] = True
    np.any(s[1:] != s[:-1], axis=1, out=new[1:])
    inv = np.empty(len(order), dtype=np.intp)
    inv[order] = np.cumsum(new) - 1
    return rows[order[new]], inv


def _shifted_mass(theta, layout, Q, shift: float):
    """The barrier's mass state at the columns of an (n, N) ``Q``: (S,
    1/Sᵢᵢ, the pivots Sᵢᵢ²) of the factor S of M - shift I (`cholesky`)
    and the mass block's adjoint.  Raises NotPositiveDefiniteError at the
    first nonpositive pivot: the barrier is violated at that column."""
    (Lm, _), mass_adj = mass_t(theta, layout, Q, False, False)
    return (*cholesky(gram(Lm), shift), mass_adj)


def _barrier_np(mass, rows):
    """log det(M - shift I) at the rows ``rows`` of a mass state
    (`_shifted_mass`) as a (1, B) array, the sum of their log pivots, and
    its adjoint (as `_del_np`'s), which reads (M - shift I)⁻¹ = S⁻ᵀ S⁻¹
    from S and runs the mass block's backward on those rows alone."""
    S, r, d, mass_adj = mass
    S, r = S.take(rows, -1), r.take(rows, -1)
    n = len(r)

    def adjoint(g, gt):
        # R = S⁻¹, lower triangular, column by column
        R = np.zeros_like(S)
        for j in range(n):
            R[j, j] = r[j]
            for i in range(j + 1, n):
                acc = S[i, j] * r[j]
                for k in range(j + 1, i):
                    acc = acc + S[i, k] * R[k, j]
                R[i, j] = -acc * r[i]
        gM = (R[:, :, None] * R[:, None]).sum(0) * g[0]
        mass_adj(gM, None, gt, rows)

    return np.log(d.take(rows, -1)).sum(0, keepdims=True), adjoint


def _rk4_np(theta, layout, X, Xd, h: float):
    """The RK4 step from the columns of (n, B) arrays (X, Xd) as the
    predicted (Qp, Vp) stacked in a (2n, B) array, and its adjoint (as
    `_accel_np`'s).

    Every stage position is known before its stage needs it: X and
    X + q̇ h/2 before the step, X + V2 h/2 once A1 exists and X + V3 h
    once A2 does.  So the position block runs twice on 2B columns, once
    for stages 1-2 and once for stages 3-4, and the velocity block once
    per stage on its half of the columns; each stage's accelerations are
    checked finite before anything reads them.  The backward runs
    velocity adjoints 4 and 3, the stages 3-4 position adjoint (giving
    X3's and X4's adjoints), velocity adjoints 2 and 1, then the stages
    1-2 position adjoint; a stage velocity's adjoints add as a
    per-operation tape would: RK4 consumers, τ, force net."""
    (n, B), hh = X.shape, 0.5 * h
    halves = (np.s_[..., :B], np.s_[..., B:])

    def positions(Xa, Xb, want_x):
        pos, adjoint = _position_np(theta, layout,
                                    np.concatenate([Xa, Xb], 1), want_x)
        return [tuple(p[r] for p in pos) for r in halves], adjoint

    def velocity(pos, Xs, Vs, want_xv):
        A, adjoint = _velocity_np(theta, layout, pos, Xs, Vs, want_xv)
        if not np.isfinite(A).all():
            raise IntegrationBlowupError("non-finite RK4 stage acceleration")
        return A, adjoint

    X2 = X + Xd * hh
    (p1, p2), adj12 = positions(X, X2, False)
    A1, adj1 = velocity(p1, X, Xd, False)
    V2 = Xd + A1 * hh
    A2, adj2 = velocity(p2, X2, V2, True)
    V3 = Xd + A2 * hh
    X3, X4 = X + V2 * hh, X + V3 * h
    (p3, p4), adj34 = positions(X3, X4, True)
    A3, adj3 = velocity(p3, X3, V3, True)
    V4 = Xd + A3 * h
    A4, adj4 = velocity(p4, X4, V4, True)
    Qp = X + ((Xd + (V2 + V3) * 2.0) + V4) * (h / 6.0)
    Vp = Xd + ((A1 + (A2 + A3) * 2.0) + A4) * (h / 6.0)

    def joined(ga, gb):
        return tuple(np.concatenate(p, -1) for p in zip(ga, gb))

    def adjoint(g, gt):
        gk = g * (h / 6.0)
        gkq, gkv = gk[:n], gk[n:]
        gA23, gV23 = gkv * 2.0, gkq * 2.0
        gp4, gxf4, gv = adj4(gkv, gt)
        gV4 = sum(gv, gkq)
        gp3, gxf3, gv3 = adj3(gA23 + gV4 * h, gt)
        gxv, gxm = adj34(joined(gp3, gp4), gt)
        # X's adjoint parts per stage: force, potential, mass nets
        gX3, gX4 = ((gxv[r] if gxf is None else gxf + gxv[r]) + gxm[r]
                    for gxf, r in zip((gxf3, gxf4), halves))
        gV3 = sum(gv3, gV23 + gX4 * h)
        gp2, _, gv = adj2(gA23 + gV3 * hh, gt)
        gp1, _, _ = adj1(gkv + sum(gv, gV23 + gX3 * hh) * hh, gt)
        adj12(joined(gp1, gp2), gt)

    return np.concatenate([Qp, Vp]), adjoint


# -- losses -------------------------------------------------------------------
#
# Each loss runs its stages' forward and returns (value, adjoint), whose
# ``adjoint(gt)`` adds the loss's theta gradient into a flat (P,) ``gt``.
# The arithmetic and its order are a tape's: a mean square is
# Σr² · (1/count) and seeds its stage with (1/count) · (r · 2.0).

def _mean_square(stage, count):
    """The mean square of a stage's value over ``count`` entries as a
    loss (value, adjoint)."""
    r, adjoint = stage
    c = 1.0 / count
    return float((r * r).sum()) * c, lambda gt: adjoint(c * (r * 2.0), gt)


def _del_loss(flat: FlatParams, batch: Batch, mu: float, alpha: float,
              inputs=None):
    """The DEL loss; arguments as `del_loss_grad`'s."""
    if batch.kind != "del":
        raise ValueError(f"need a del batch, got {batch.kind!r}")
    idx, table, mass = inputs or (None, _pair_table(batch), None)
    pairs = table if idx is None else _pairs_of(table, idx)
    B = pairs[1].shape[1]
    loss, res_adj = _mean_square(
        _del_np(flat.values, flat.layout, batch.h, pairs), B)
    if mu == 0.0:  # an unweighted barrier is not built
        return loss, res_adj
    if mass is None:  # the factor at the tuples' own q2 rows
        q2 = batch.data["q2"]
        q2 = q2 if idx is None else q2.take(idx, 0)
        mass = (_shifted_mass(flat.values, flat.layout, transposed(q2),
                              alpha), np.arange(B))
    ld, ld_adj = _barrier_np(*mass)
    c = 1.0 / ld.size

    def adjoint(gt):
        # each stage into its own zeros, added barrier first
        ld_adj(np.full(ld.shape, -mu * c), gt)
        gr = np.zeros_like(gt)
        res_adj(gr)
        gt += gr

    return loss + float(ld.sum()) * c * -mu, adjoint


def _accel_loss(flat: FlatParams, batch: Batch, idx=None):
    """The acceleration loss of the tuples ``idx`` of ``batch`` (all
    without): the stage's (n, B) accelerations less the data, mean
    squared."""
    if batch.kind != "accel":
        raise ValueError(f"need an accel batch, got {batch.kind!r}")
    X, V, A = batch.gather(("q", "qdot", "qddot"), idx)
    P, adjoint = _accel_np(flat.values, flat.layout, X, V)
    return _mean_square((P - A, adjoint), A.size)


def _nextstate_loss(flat: FlatParams, batch: Batch, h: float, idx=None):
    """The RK4 loss of the tuples ``idx`` of ``batch`` (all without): the
    step's (2n, B) prediction (`_rk4_np`) less the data, mean squared."""
    if batch.kind != "nextstate":
        raise ValueError(f"need a nextstate batch, got {batch.kind!r}")
    X, Xd, Qn, Vn = batch.gather(("q", "qdot", "qnext", "qdotnext"), idx)
    P, adjoint = _rk4_np(flat.values, flat.layout, X, Xd, h)
    return _mean_square((P - np.concatenate([Qn, Vn]), adjoint),
                        2.0 * X.size)


# -- public losses ------------------------------------------------------------

def _loss_grad(flat: FlatParams, loss):
    """(loss, gradient) of a loss's (value, adjoint), on a two-node tape:
    theta's (1, P) row and the loss, whose backward runs the adjoint.  The
    loss is the tape's output, so its own adjoint is 1."""
    value, adjoint = loss

    def bwd(g):
        gt = np.zeros(flat.values.size)
        adjoint(gt)
        return (gt.reshape(1, -1),)

    tape = dc.Tape()
    theta = tape.input(flat.values.reshape(1, -1))
    g = tape.gradients(dc.custom([theta], value, bwd), [theta])[0]
    return value, g.ravel()


def del_loss_grad(params: FlatParams, batch: Batch,
                  mu: float = MU_DEFAULT, alpha: float = 0.0, inputs=None):
    """(loss, gradient): mean squared DEL residual minus mu times the mean
    log-det barrier log det(M - alpha I) at the tuples' q2.

    ``inputs`` is what `train` already holds for its tuple set ``batch``:
    (the indices of the tuples that make the loss, the set's pair table,
    (the mass state at θ, the rows of those tuples' q2 there) or None).
    Then the loss is the one of a batch of those tuples, whose rows the
    barrier reads only without a mass state.  Without ``inputs`` both
    come from the batch alone: `_pair_table` and, when mu is not 0, a
    mass state at its q2 rows.  Either way the residual and barrier
    stages are the same code."""
    return _loss_grad(params, _del_loss(params, batch, mu, alpha, inputs))


def accel_loss_grad(params: FlatParams, batch: Batch, idx=None):
    """(loss, gradient): mean squared acceleration error over all entries
    of the tuples ``idx`` of ``batch`` (all without), which is the loss of
    a batch of those tuples: `train` passes its tuple set and each
    batch's indices."""
    return _loss_grad(params, _accel_loss(params, batch, idx))


def nextstate_loss_grad(params: FlatParams, batch: Batch, h: float,
                        idx=None):
    """(loss, gradient): mean squared one-step RK4 error, position and
    velocity weighted equally, of the tuples ``idx`` of ``batch`` (as
    `accel_loss_grad`'s)."""
    return _loss_grad(params, _nextstate_loss(params, batch, h, idx))


def predicted_accelerations(params: FlatParams, q, qdot) -> np.ndarray:
    """Batched model accelerations at the rows of (B, n) states as a
    (B, n) array, with no tape."""
    X, V = (transposed(np.asarray(a, dtype=np.float64)) for a in (q, qdot))
    return transposed(_accel_np(params.values, params.layout, X, V)[0])


def accel_rmse(params: FlatParams, batch: Batch) -> float:
    """Root mean squared acceleration error; the validation metric.  The
    errors are averaged in the order of the batch's rows."""
    X, V, A = batch.gather(("q", "qdot", "qddot"))
    err = transposed(_accel_np(params.values, params.layout, X, V)[0] - A)
    return math.sqrt((err * err).mean())


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


def adam_init(size: int) -> AdamState:
    return AdamState(m=np.zeros(size), v=np.zeros(size))


def adam_step(state: AdamState, values: np.ndarray, grads: np.ndarray,
              xi: float):
    """One bias-corrected Adam update; returns (new state, new values).
    The step is xi m̂ / (√v̂ + eps), each temporary updated in place."""
    t = state.step + 1
    m = BETA1 * state.m
    m += (1.0 - BETA1) * grads
    v = BETA2 * state.v
    v += (1.0 - BETA2) * grads * grads
    den = v / (1.0 - BETA2 ** t)
    np.sqrt(den, out=den)
    den += EPS_ADAM
    step = m / (1.0 - BETA1 ** t)
    step *= xi
    step /= den
    return AdamState(m, v, t), values - step


# -- barrier bookkeeping ------------------------------------------------------

def mass_eigenvalues(params: FlatParams, configs) -> np.ndarray:
    """Eigenvalues of M(q) for every row of configs, shape (N, n)."""
    M = mass_entries_t(params, configs)
    return np.linalg.eigvalsh(M.transpose(2, 0, 1))


def choose_alpha(params0: FlatParams, configs, fraction: float) -> float:
    """Barrier floor: a fraction of the smallest initial mass eigenvalue."""
    return fraction * float(mass_eigenvalues(params0, configs).min())


# -- the epoch loop -----------------------------------------------------------

def keep_freed_heap():
    """Keep the heap a training step frees for the next one (glibc): else
    each step's pages go back to the kernel and fault in again, 15-25% of a
    B = 256 RK4 step.  A set trim threshold freezes glibc's dynamic mmap
    threshold, so that one is set to its 64-bit ceiling.  The setting holds
    for the whole process."""
    if sys.platform.startswith("linux"):
        mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
        if mallopt is not None:
            mallopt.argtypes, mallopt.restype = (ctypes.c_int,) * 2, ctypes.c_int
            mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
            mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


@dataclass
class TrainConfig:
    xi0: float = 1e-3
    epochs: int = 500
    batch_size: int = 256
    mu: float = MU_DEFAULT
    alpha_fraction: float = ALPHA_FRACTION
    seed: int = 0

    def __post_init__(self):
        # NaN fails every comparison, so each bound is stated as what holds
        if not 0 < self.xi0 < np.inf:
            raise ValueError("initial learning rate must be finite and "
                             "positive")
        if self.epochs < 0 or self.batch_size < 1:
            raise ValueError("bad epoch count or batch size")
        if not 0 <= self.mu < np.inf:
            raise ValueError("barrier weight mu must be finite and "
                             "non-negative")
        if not 0.0 < self.alpha_fraction < 1.0:
            raise ValueError("alpha_fraction must sit strictly inside (0, 1)")
        # the seed goes to np.random.default_rng, which takes no negative
        if not isinstance(self.seed, (int, np.integer)) \
                or isinstance(self.seed, bool) or self.seed < 0:
            raise ValueError("need an integer --seed >= 0")


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


def _split_trajs(trajs):
    # unlabelled trajectories ("" as `smmfit smooth` writes it) train
    train = [t for t in trajs if t.split in ("train", "", None)]
    val = [t for t in trajs if t.split == "val"]
    if not train:
        raise ValueError("dataset has no training trajectories")
    if not val:
        _log.info("no validation trajectories; validating on the %d "
                  "training trajectories", len(train))
    return train, val or train


def train(method: str, params0: FlatParams, trajectories,
          config: TrainConfig):
    """Minimize the chosen loss over a list of smoothed trajectories,
    each labelled by its ``split``; return (record, best-validation
    params).

    A step is rejected when its loss cannot be evaluated (barrier or
    integration failure), its gradient is non-finite, or it would push any
    training-set mass matrix below the barrier floor.  An infeasible
    proposal backs off geometrically in the learning rate until it clears
    the floor; a step that never clears is skipped, and too many
    consecutive skips abort the run.  One halving is not enough here:
    near the floor the optimizer's momentum keeps proposing the same
    slightly-infeasible move and the loop deadlocks.

    For ``del`` the floor check is one mass pass and factorization of
    M - alpha I over every training configuration, made at θ₀ and for
    each proposal; the accepted one's is kept, and the next steps'
    barriers read their q2 rows from it, as θ moves only when a step is
    accepted.  The DEL tuples' distinct pairs are found once per run.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    keep_freed_heap()
    rng = np.random.default_rng(config.seed)
    train_trajs, val_trajs = _split_trajs(trajectories)
    tuples = assemble_tuples(train_trajs, method)
    val_batch = assemble_tuples(val_trajs, "accel")
    layout, values = params0.layout, params0.values

    alpha = None
    if method == "del":
        train_configs = np.concatenate([t.q for t in train_trajs])
        alpha = choose_alpha(params0, train_configs, config.alpha_fraction)
        # the mass state's columns; tuple i's q2 is column q2_rows[i], as
        # assemble_tuples cuts each trajectory's q[1:-1]
        configs = transposed(train_configs)
        ends = np.cumsum([len(t.q) for t in train_trajs])
        q2_rows = np.concatenate([np.arange(e - len(t.q) + 1, e - 1)
                                  for t, e in zip(train_trajs, ends)])
        table = _pair_table(tuples)

    record = TrainRecord(method=method, xi0=config.xi0, seed=config.seed,
                         mu=config.mu, alpha=alpha)

    def evaluate(vals):
        try:
            err = accel_rmse(FlatParams(vals, layout), val_batch)
        except ModelNumericsError:
            return np.inf
        return err if math.isfinite(err) else np.inf

    def loss_grad(vals, idx):
        fp = FlatParams(vals, layout)
        if method == "del":
            # the loss takes only the tuples' q2 rows, and only when no
            # mass state is held
            return del_loss_grad(fp, tuples, config.mu, alpha, (
                idx, table, None if mass is None else (mass, q2_rows[idx])))
        if method == "accel":
            return accel_loss_grad(fp, tuples, idx)
        return nextstate_loss_grad(fp, tuples, tuples.h, idx)

    def mass_state(vals):
        # the barrier's own pivot test at every training configuration;
        # one that passes is the barrier stage's factor until the next
        try:
            return _shifted_mass(vals, layout, configs, alpha)
        except (NotPositiveDefiniteError, ModelNumericsError):
            return None

    # the state at θ₀ (None if θ₀ fails the test: each batch's loss then
    # factors its own q2 rows), and after that at each accepted θ
    mass = None if alpha is None else mass_state(values)
    val0 = evaluate(values)
    record.val_errors.append(val0)
    best = (val0, values.copy(), 0)
    adam = adam_init(values.size)
    consecutive = 0

    for epoch in range(config.epochs):
        xi = lr_schedule(config.xi0, epoch)
        losses = []
        for idx in make_batches(rng, len(tuples), config.batch_size):
            try:
                loss, grad = loss_grad(values, idx)
            except (NotPositiveDefiniteError, IntegrationBlowupError,
                    ModelNumericsError) as err:
                loss, grad = np.inf, None
                _log.warning("batch loss unavailable: %s", err)
            ok = grad is not None and math.isfinite(loss) \
                and np.isfinite(grad).all()
            accepted = False
            if ok:
                for j in range(MAX_BACKTRACK + 1):
                    st, vals = adam_step(adam, values, grad, xi * 0.5 ** j)
                    state = None if alpha is None else mass_state(vals)
                    if alpha is None or state is not None:
                        adam, values, mass = st, vals, state
                        accepted = True
                        break
            if accepted:
                consecutive = 0
                losses.append(loss)
            else:
                consecutive += 1
                record.invalid_steps += 1
                if consecutive >= DIVERGENCE_BUDGET:
                    raise TrainingDivergedError(record)
        record.train_losses.append(float(np.mean(losses)) if losses
                                   else np.nan)
        record.lrs.append(xi)
        val = evaluate(values)
        record.val_errors.append(val)
        if val < best[0]:
            best = (val, values.copy(), epoch + 1)

    record.best_epoch = best[2]
    return record, FlatParams(best[1], layout)
