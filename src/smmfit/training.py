"""Fitting objectives and the training loop.

Three ways to fit learned mechanics to smoothed data: the discrete
Euler-Lagrange residual with a log-det barrier on the mass matrix,
acceleration regression, and next-state regression through an RK4 step.
Plus Adam, the decay schedule, shuffled batching that never crosses
trajectory boundaries, and validation-based checkpoint selection.

Every loss differentiates the model one way: a numpy stage on theta
that calls netparam's net blocks (the mass factor with its forward-mode
derivatives along each coordinate axis, ∇V by one reverse sweep of the
potential net, the force net) and returns its value and its plain
first-order adjoint, which the tape holds as one node with theta as its
only parent (`_stage_t`).  The acceleration stage (`_accel_np`) adds the
Euler-Lagrange right-hand side and the Cholesky solve; the acceleration
loss is one node over it, the RK4 loss one node over four of them with
an explicit reverse sweep, and validation runs it with no tape.  The
DEL residual stage (`_del_np`) at q_k uses the pairs (q_k-1, q_k) and
(q_k, q_k+1); neighbouring tuples of a trajectory share a pair, so it
runs the nets once per distinct pair of its batch and gathers each
tuple's two arms from them.  The barrier stage (`_barrier_np`) and the
feasibility check share one test of M - alpha I: the pivots of
mechanics' `cholesky`.
"""

from __future__ import annotations

import ctypes
import json
import logging
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import diffcore as dc
from .integrators import IntegrationBlowupError
from .mechanics import NotPositiveDefiniteError, cholesky
from .netparam import (FlatParams, chol_entries_t, chol_solve_t, dgram,
                       factor, force_t, gram, gram_bwd, mass_entries_t,
                       packed, potential_grad_t, transposed)

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
        if self.kind == "del" and (self.h is None or self.h <= 0):
            raise ValueError("del batch requires a positive step size")

    def __len__(self) -> int:
        return next(iter(self.data.values())).shape[0]

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


# -- dynamics ---------------------------------------------------------------

def _accel_np(theta_v, layout, X, V, want_x=False, want_v=False):
    """Batched accelerations at the rows of (X, V) as a (B, n) array, and
    their adjoint: one numpy stage solving L Lᵀ q̈ = τ with
    τ_i = 1/2 q̇ᵀ (∂M/∂q_i) q̇ - ∂V/∂q_i - (D q̇)_i (+ F_i),
    D = Σ_k q̇_k ∂M/∂q_k.  ``adjoint(g, gt)`` adds the theta adjoint into
    ``gt`` and returns X's adjoint (None without ``want_x``; the force,
    potential and mass nets' parts added in that order) and the list of
    V's adjoint parts: τ's (with ``want_v``), then the force net's."""
    n = X.shape[1]
    P, mass_adj = chol_entries_t(theta_v, layout, X, True, want_x)
    dV, pot_adj = potential_grad_t(theta_v, layout, X, want_x)
    F = None
    if not layout.arch.conservative:
        F, force_adj = force_t(theta_v, layout, np.concatenate([X, V], 1),
                               want_x or want_v)
    Lm, dLm = factor(P, n)
    dM = dgram(Lm, dLm)
    x = transposed(V)
    xx = x[:, None] * x
    D = (x[:, None, None] * dM).sum(0)
    tau = (dM * xx).sum((1, 2)) * 0.5 - transposed(dV) - (D * x).sum(1)
    if F is not None:
        tau = tau + transposed(F)
    a, solve_adj = chol_solve_t(Lm, tau)

    def adjoint(g, gt):
        # the solve's and τ's adjoints of M and ∂M go through one Gram
        # adjoint; quad_i = <∂M/∂q_i, x xᵀ> and the curvature term D x
        gM, gb = solve_adj(transposed(g))
        gD = -gb[:, None] * x
        gdM = (gb * 0.5)[:, None, None] * xx + x[:, None, None] * gD
        gx, gv = None, []
        if want_v:
            gxx = (gb[:, None, None] * dM).sum(0) * 0.5
            gv.append(transposed((gxx * x).sum(1) * 2.0 - (D * gb).sum(1)
                                 + (dM * gD).sum((1, 2))))
        gtau = transposed(gb)
        if F is not None:
            gxf = force_adj(gtau, gt)
            if gxf is not None:
                gx = gxf[:, :n]
                gv.append(gxf[:, n:])
        gxv = pot_adj(-gtau, gt)
        gxm = mass_adj(packed(*gram_bwd(Lm, dLm, gM, gdM)), gt)
        if want_x:
            gx = (gxv if F is None else gx + gxv) + gxm
        return (gx if want_x else None), gv

    return transposed(a), adjoint


def _stage_t(theta, stage, op: str):
    """One tape node on theta from a numpy stage's (value, adjoint), whose
    ``adjoint(g, gt)`` adds the theta adjoint into ``gt``."""
    value, adjoint = stage

    def bwd(g):
        gt = np.zeros(theta.shape)
        adjoint(g, gt)
        return (gt,)

    return dc.custom([theta], value, bwd, op)


def _del_np(theta_v, layout, batch: Batch):
    """The discrete Euler-Lagrange residual of a del batch as a (B, n)
    array, and its adjoint (as `_accel_np`'s, returning nothing).

    The nets run once at the midpoint of each of the batch's distinct
    configuration pairs (`_distinct_rows`) with pair velocity v; tuple
    i's first pair is ``ia[i]`` and its second ``ib[i]``.  Row i is
    h/2 (∂L[ia] + ∂L[ib])_i + (M v[ia] - M v[ib])_i (+ h/2 (F[ia] + F[ib])_i)
    with ∂L_k = 1/2 vᵀ (∂M/∂q_k) v - ∂V/∂q_k and M v formed once per pair.
    The adjoint adds the row adjoints onto the pairs first.
    """
    n, h, B = layout.arch.n, batch.h, len(batch)
    q1, q2, q3 = batch.data["q1"], batch.data["q2"], batch.data["q3"]
    # the tuples' pairs (q1, q2) then (q2, q3): a trajectory cut in order
    # shares all but one of them
    pairs, inv = _distinct_rows(np.concatenate([np.hstack([q1, q2]),
                                                np.hstack([q2, q3])]))
    ia, ib = inv[:B], inv[B:]
    qa, qb = pairs[:, :n], pairs[:, n:]
    X = (qa + qb) / 2.0
    v = (qb - qa) / h
    P, mass_adj = chol_entries_t(theta_v, layout, X, True, False)
    dV, pot_adj = potential_grad_t(theta_v, layout, X, False)
    F = None
    if not layout.arch.conservative:
        F, force_adj = force_t(theta_v, layout, np.concatenate([X, v], 1),
                               False)
    U = len(v)
    c = h / 2.0
    Lm, dLm = factor(P, n)
    M, dM = gram(Lm), dgram(Lm, dLm)
    vr = transposed(v)
    vv = vr[:, None] * vr
    dL = (dM * vv).sum((1, 2)) * 0.5 - transposed(dV)
    Mv = (M * vr).sum(1)
    res = transposed((dL[:, ia] + dL[:, ib]) * c + (Mv[:, ia] - Mv[:, ib]))
    if F is not None:
        res = res + (F[ia] + F[ib]) * c

    def adjoint(g, gt):
        # row i's adjoint lands on its pairs ia[i] and ib[i]
        gr = transposed(g)
        ga = np.array([np.bincount(ia, r, U) for r in gr])
        gb = np.array([np.bincount(ib, r, U) for r in gr])
        gs = ga + gb
        gdM = (gs * (c * 0.5))[:, None, None] * vv
        gM = (ga - gb)[:, None] * vr
        gp = transposed(gs) * c
        if F is not None:
            force_adj(gp, gt)
        pot_adj(-gp, gt)
        mass_adj(packed(*gram_bwd(Lm, dLm, gM, gdM)), gt)

    return res, adjoint


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


def _barrier_np(theta_v, layout, Q, shift: float):
    """log det(M - shift I) at the rows of ``Q`` as a (B, 1) array, and its
    adjoint (as `_del_np`'s): the sum of the log pivots of the shifted
    factor S of M (`cholesky`), whose nonpositive pivot means the barrier
    is violated.  The adjoint reads (M - shift I)⁻¹ = S⁻ᵀ S⁻¹ from S.
    """
    n = layout.arch.n
    P, mass_adj = chol_entries_t(theta_v, layout, Q, False, False)
    Lm, dLm = factor(P, n)
    S, r, d = cholesky(gram(Lm), shift)

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
        gM = (R[:, :, None] * R[:, None]).sum(0) * g[:, 0]
        mass_adj(packed(*gram_bwd(Lm, dLm, gM, None)), gt)

    return np.log(d).sum(0)[:, None], adjoint


# -- loss graphs --------------------------------------------------------------

def _del_graph(flat: FlatParams, batch: Batch, mu: float, alpha: float):
    if batch.kind != "del":
        raise ValueError(f"need a del batch, got {batch.kind!r}")
    tape = dc.Tape()
    theta = tape.input(flat.values.reshape(1, -1))
    res = _stage_t(theta, _del_np(theta.value, flat.layout, batch),
                   "del_residual")
    rho = dc.scale(dc.sumsq(res), 1.0 / len(batch))
    ld_mean = None
    loss = rho
    if mu != 0.0:  # an unweighted barrier is not built
        ld = _stage_t(theta, _barrier_np(theta.value, flat.layout,
                                         batch.data["q2"], alpha),
                      "shifted_logdet")
        ld_mean = dc.mean_all(ld)
        loss = dc.add(rho, dc.scale(ld_mean, -mu))
    return tape, theta, loss, rho, ld_mean


def _accel_graph(flat: FlatParams, batch: Batch):
    if batch.kind != "accel":
        raise ValueError(f"need an accel batch, got {batch.kind!r}")
    tape = dc.Tape()
    theta = tape.input(flat.values.reshape(1, -1))
    A = _stage_t(theta, _accel_np(theta.value, flat.layout, batch.data["q"],
                                  batch.data["qdot"]), "accel")
    E = dc.add(A, tape.constant(-batch.data["qddot"]))
    loss = dc.scale(dc.sumsq(E), 1.0 / batch.data["q"].size)
    return tape, theta, loss


def _nextstate_graph(flat: FlatParams, batch: Batch, h: float):
    """The RK4 step's (B, 2n) residual as one tape node on theta, its
    mean square as the loss, and the predicted (Qp, Vp) arrays.  The
    backward sweeps the four stages in reverse, adding a stage velocity's
    adjoints as a per-operation tape would: RK4 consumers, τ, force net."""
    if batch.kind != "nextstate":
        raise ValueError(f"need a nextstate batch, got {batch.kind!r}")
    layout = flat.layout
    tape = dc.Tape()
    theta = tape.input(flat.values.reshape(1, -1))
    X, Xd = batch.data["q"], batch.data["qdot"]
    hh = 0.5 * h

    def acc(Xs, Vs, want_x, want_v):
        A, adjoint = _accel_np(theta.value, layout, Xs, Vs, want_x, want_v)
        if not np.all(np.isfinite(A)):
            raise IntegrationBlowupError("non-finite RK4 stage acceleration")
        return A, adjoint

    A1, adj1 = acc(X, Xd, False, False)
    V2 = Xd + A1 * hh
    A2, adj2 = acc(X + Xd * hh, V2, False, True)
    V3 = Xd + A2 * hh
    A3, adj3 = acc(X + V2 * hh, V3, True, True)
    V4 = Xd + A3 * h
    A4, adj4 = acc(X + V3 * h, V4, True, True)
    Qp = X + ((Xd + (V2 + V3) * 2.0) + V4) * (h / 6.0)
    Vp = Xd + ((A1 + (A2 + A3) * 2.0) + A4) * (h / 6.0)

    def adjoint(g, gt):
        gkq, gkv = np.hsplit(g * (h / 6.0), 2)
        gA23, gV23 = gkv * 2.0, gkq * 2.0
        gX4, gv = adj4(gkv, gt)
        gV4 = sum(gv, gkq)
        gX3, gv = adj3(gA23 + gV4 * h, gt)
        gV3 = sum(gv, gV23 + gX4 * h)
        _, gv = adj2(gA23 + gV3 * hh, gt)
        adj1(gkv + sum(gv, gV23 + gX3 * hh) * hh, gt)

    E = _stage_t(theta, (np.concatenate([Qp - batch.data["qnext"],
                                         Vp - batch.data["qdotnext"]], 1),
                         adjoint), "nextstate")
    loss = dc.scale(dc.sumsq(E), 1.0 / (2.0 * X.size))
    return tape, theta, loss, (Qp, Vp)


# -- public losses ------------------------------------------------------------

def del_loss_grad(params: FlatParams, batch: Batch,
                  mu: float = MU_DEFAULT, alpha: float = 0.0):
    """(loss, gradient): mean squared DEL residual minus mu times the mean
    log-det barrier."""
    tape, theta, loss, _, _ = _del_graph(params, batch, mu, alpha)
    g = tape.gradients(loss, [theta])[0]
    return loss.value.item(), g.ravel().copy()


def accel_loss_grad(params: FlatParams, batch: Batch):
    """(loss, gradient): mean squared acceleration error over all entries."""
    tape, theta, loss = _accel_graph(params, batch)
    g = tape.gradients(loss, [theta])[0]
    return loss.value.item(), g.ravel().copy()


def nextstate_loss_grad(params: FlatParams, batch: Batch, h: float):
    """(loss, gradient): mean squared one-step RK4 error, position and
    velocity weighted equally."""
    tape, theta, loss, _ = _nextstate_graph(params, batch, h)
    g = tape.gradients(loss, [theta])[0]
    return loss.value.item(), g.ravel().copy()


def predicted_accelerations(params: FlatParams, q, qdot) -> np.ndarray:
    """Batched model accelerations at the given states, with no tape."""
    return _accel_np(params.values.reshape(1, -1), params.layout,
                     np.ascontiguousarray(q, dtype=np.float64),
                     np.ascontiguousarray(qdot, dtype=np.float64))[0]


def accel_rmse(params: FlatParams, batch: Batch) -> float:
    """Root mean squared acceleration error; the validation metric."""
    pred = predicted_accelerations(params, batch.data["q"], batch.data["qdot"])
    return float(np.sqrt(np.mean((pred - batch.data["qddot"]) ** 2)))


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
    """One bias-corrected Adam update; returns (new state, new values)."""
    t = state.step + 1
    m = BETA1 * state.m + (1.0 - BETA1) * grads
    v = BETA2 * state.v + (1.0 - BETA2) * grads * grads
    mhat = m / (1.0 - BETA1 ** t)
    vhat = v / (1.0 - BETA2 ** t)
    new = values - xi * mhat / (np.sqrt(vhat) + EPS_ADAM)
    return AdamState(m, v, t), new


# -- barrier bookkeeping ------------------------------------------------------

def mass_eigenvalues(params: FlatParams, configs) -> np.ndarray:
    """Eigenvalues of M(q) for every row of configs, shape (N, n)."""
    M = mass_entries_t(params, configs)
    return np.linalg.eigvalsh(M.transpose(2, 0, 1))


def choose_alpha(params0: FlatParams, configs,
                 fraction: float = ALPHA_FRACTION) -> float:
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
        if self.xi0 <= 0:
            raise ValueError("initial learning rate must be positive")
        if self.epochs < 0 or self.batch_size < 1:
            raise ValueError("bad epoch count or batch size")
        if self.mu < 0:
            raise ValueError("barrier weight mu must be non-negative")
        if not 0.0 < self.alpha_fraction < 1.0:
            raise ValueError("alpha_fraction must sit strictly inside (0, 1)")


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
    train_configs = None
    if method == "del":
        train_configs = np.concatenate([t.q for t in train_trajs])
        alpha = choose_alpha(params0, train_configs, config.alpha_fraction)

    record = TrainRecord(method=method, xi0=config.xi0, seed=config.seed,
                         mu=config.mu, alpha=alpha)

    def evaluate(vals):
        try:
            err = accel_rmse(FlatParams(vals, layout), val_batch)
        except dc.DiffcoreError:
            return np.inf
        return err if np.isfinite(err) else np.inf

    def loss_grad(vals, batch):
        fp = FlatParams(vals, layout)
        if method == "del":
            return del_loss_grad(fp, batch, config.mu, alpha)
        if method == "accel":
            return accel_loss_grad(fp, batch)
        return nextstate_loss_grad(fp, batch, tuples.h)

    def feasible(vals):
        # the barrier's own pivot test at every training configuration
        if alpha is None:
            return True
        try:
            cholesky(mass_entries_t(FlatParams(vals, layout), train_configs),
                     alpha)
        except (NotPositiveDefiniteError, dc.DiffcoreError):
            return False
        return True

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
            except (NotPositiveDefiniteError, IntegrationBlowupError,
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
