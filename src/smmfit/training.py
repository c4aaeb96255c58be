"""Fitting objectives and the training loop.

Three ways to fit learned mechanics to smoothed data: the discrete
Euler-Lagrange residual with a log-det barrier on the mass matrix,
acceleration regression, and next-state regression through an RK4 step.
Plus Adam, the decay schedule, shuffled batching that never crosses
trajectory boundaries, and validation-based checkpoint selection.

Spatial derivatives of the nets (needed inside every acceleration and
DEL evaluation) come from the netparam net builds, each one tape node:
the mass factor's forward-mode derivatives along each coordinate axis,
and ∇V by one reverse sweep of the potential net.  That keeps the tape
short even through the four RK4 stages; a single reverse sweep at the
end then yields exact parameter gradients.  The mass-matrix Gram, the
Euler-Lagrange terms, the Cholesky solve and the barrier's shifted
factorization each run inside one fused tape node too (see netparam's
fused blocks); each takes the packed factor, dV and force nodes whole,
unpacks the factor into (n, n, B) arrays, and its backward is the plain
first-order matrix adjoint of its forward.  The
DEL residual at q_k uses the pairs (q_k-1, q_k) and (q_k, q_k+1), and
neighbouring tuples of a trajectory share a pair, so the DEL loss builds
the nets once per distinct pair of its batch and its residual node
gathers each tuple's two arms from them.  The barrier's feasibility
check reads M(q) from the numpy forward with no tape.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import diffcore as dc
from .integrators import IntegrationBlowupError
from .netparam import (FlatParams, chol_entries_t, chol_solve_t, factor,
                       force_t, gram, gram_bwd, mass_entries_t, packed,
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

def _accel_t(theta, layout, X, Xd):
    """Batched accelerations at (X, Xd) as a (B, n) tensor."""
    L = chol_entries_t(theta, layout, X, jac=True)
    dV = potential_grad_t(theta, layout, X)
    F = None if layout.arch.conservative else force_t(theta, layout, X, Xd)
    return chol_solve_t(L, _euler_lagrange_rhs_t(L, dV, Xd, F))


def _euler_lagrange_rhs_t(L, dV, Xd, F):
    """The right-hand side of M q̈ = τ as one (B, n) fused node.

    τ_i = 1/2 q̇ᵀ (∂M/∂q_i) q̇ - ∂V/∂q_i - (D q̇)_i (+ F_i) with
    D = Σ_k q̇_k ∂M/∂q_k, the ∂M the Gram directions of the packed factor
    node ``L``, ``dV`` the packed (B, n) potential derivatives and ``F``
    the force node or None.
    """
    n = Xd.shape[1]
    Lm, dLm = factor(L.value, n)
    _, dM = gram(Lm, dLm)
    x = transposed(Xd.value)
    xx = x[:, None] * x
    D = (x[:, None, None] * dM).sum(0)
    quad = (dM * xx).sum((1, 2))
    tau = transposed(quad * 0.5 - transposed(dV.value) - (D * x).sum(1))
    if F is not None:
        tau = tau + F.value

    def bwd(g):
        # quad_i = <∂M/∂q_i, x xᵀ> and the curvature term D x: the adjoint
        # of D first, then of each ∂M/∂q_k, then of x through all three
        gr = transposed(g)
        gD = -gr[:, None] * x
        gdM = (gr * 0.5)[:, None, None] * xx + x[:, None, None] * gD
        gx = None
        if Xd.requires_grad:
            gxx = (gr[:, None, None] * dM).sum(0) * 0.5
            gx = transposed((gxx * x).sum(1) * 2.0 - (D * gr).sum(1)
                            + (dM * gD).sum((1, 2)))
        return (packed(*gram_bwd(Lm, dLm, None, gdM)), -g, gx,
                *(() if F is None else (g,)))

    parents = [L, dV, Xd] + ([] if F is None else [F])
    return dc.custom(parents, tau, bwd, "euler_lagrange_rhs")


def _del_residual_t(pairs, ia, ib, h: float):
    """The discrete Euler-Lagrange residual as one (B, n) fused node.

    ``pairs`` is (L, dV, F, v) over the batch's distinct configuration
    pairs, at each pair's midpoint: the packed factor node with its
    coordinate derivatives, the ∇V node, the force node (or None) and the
    pair velocity array.  Tuple i's first pair is ``ia[i]`` and its second
    ``ib[i]``.  Row i is
    h/2 (∂L[ia] + ∂L[ib])_i + (M v[ia] - M v[ib])_i (+ h/2 (F[ia] + F[ib])_i)
    with ∂L_k = 1/2 vᵀ (∂M/∂q_k) v - ∂V/∂q_k and M v formed once per pair.
    The backward adds the row adjoints onto the pairs first.
    """
    L, dV, F, v = pairs
    U, n = v.shape
    c = h / 2.0
    Lm, dLm = factor(L.value, n)
    M, dM = gram(Lm, dLm)
    vr = transposed(v)
    vv = vr[:, None] * vr
    dL = (dM * vv).sum((1, 2)) * 0.5 - transposed(dV.value)
    Mv = (M * vr).sum(1)
    res = transposed((dL[:, ia] + dL[:, ib]) * c + (Mv[:, ia] - Mv[:, ib]))
    if F is not None:
        res = res + (F.value[ia] + F.value[ib]) * c

    def bwd(g):
        # row i's adjoint lands on its pairs ia[i] and ib[i]
        gr = transposed(g)
        ga = np.array([np.bincount(ia, r, U) for r in gr])
        gb = np.array([np.bincount(ib, r, U) for r in gr])
        gs = ga + gb
        gdM = (gs * (c * 0.5))[:, None, None] * vv
        gM = (ga - gb)[:, None] * vr
        gp = transposed(gs) * c
        out = (packed(*gram_bwd(Lm, dLm, gM, gdM)), -gp)
        return out if F is None else out + (gp,)

    parents = [L, dV] + ([] if F is None else [F])
    return dc.custom(parents, res, bwd, "del_residual")


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


def _shifted_logdet_t(L, n: int, shift: float):
    """log det(M - shift I) per row as one (B, 1) fused node, M the Gram
    of the packed factor node ``L``.

    The shifted factor S is built entry by entry; any nonpositive pivot
    means the barrier is violated.  The backward reads
    (M - shift I)⁻¹ = S⁻ᵀ S⁻¹ from S.
    """
    Lm, dLm = factor(L.value, n)
    M, _ = gram(Lm, dLm)
    S = np.zeros_like(M)
    r = np.empty((n, M.shape[2]))
    ld = None
    for i in range(n):
        for j in range(i + 1):
            acc = M[i, j]
            if i == j and shift != 0.0:
                acc = acc - shift
            for k in range(j):
                acc = acc - S[i, k] * S[j, k]
            if i == j:
                if not np.all(np.isfinite(acc)) or np.any(acc <= 0.0):
                    raise BarrierViolationError(i, float(np.nanmin(acc)))
                S[i, i] = np.sqrt(acc)
                r[i] = 1.0 / S[i, i]
                ld = np.log(acc) if ld is None else ld + np.log(acc)
            else:
                S[i, j] = acc * r[j]

    def bwd(g):
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
        return (packed(*gram_bwd(Lm, dLm, gM, None)),)

    return dc.custom([L], ld[:, None], bwd, "shifted_logdet")


# -- loss graphs --------------------------------------------------------------

def _del_graph(flat: FlatParams, batch: Batch, mu: float, alpha: float):
    if batch.kind != "del":
        raise ValueError(f"need a del batch, got {batch.kind!r}")
    layout = flat.layout
    n = layout.arch.n
    q1, q2, q3 = batch.data["q1"], batch.data["q2"], batch.data["q3"]
    h = batch.h
    tape = dc.Tape()
    theta = tape.input(flat.values.reshape(1, -1))

    # the tuples' pairs (q1, q2) then (q2, q3): a trajectory cut in order
    # shares all but one of them, so the nets run once per distinct pair
    B = len(batch)
    pairs, inv = _distinct_rows(np.concatenate([np.hstack([q1, q2]),
                                                np.hstack([q2, q3])]))
    qa, qb = pairs[:, :n], pairs[:, n:]
    X = tape.constant((qa + qb) / 2.0)
    v = (qb - qa) / h
    L = chol_entries_t(theta, layout, X, jac=True)
    dV = potential_grad_t(theta, layout, X)
    F = None
    if not layout.arch.conservative:
        F = force_t(theta, layout, X, tape.constant(v))
    res = _del_residual_t((L, dV, F, v), inv[:B], inv[B:], h)
    rho = dc.scale(dc.sumsq(res), 1.0 / B)
    ld_mean = None
    loss = rho
    if mu != 0.0:  # an unweighted barrier is not built
        L = chol_entries_t(theta, layout, tape.constant(q2))
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
    A = _accel_t(theta, flat.layout, X, Xd)
    E = dc.add(A, tape.constant(-batch.data["qddot"]))
    loss = dc.scale(dc.sumsq(E), 1.0 / batch.data["q"].size)
    return tape, theta, loss


def _nextstate_graph(flat: FlatParams, batch: Batch, h: float):
    if batch.kind != "nextstate":
        raise ValueError(f"need a nextstate batch, got {batch.kind!r}")
    layout = flat.layout
    tape = dc.Tape()
    theta = tape.input(flat.values.reshape(1, -1))
    X = tape.constant(batch.data["q"])
    Xd = tape.constant(batch.data["qdot"])

    def acc(Xs, Vs):
        A = _accel_t(theta, layout, Xs, Vs)
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
    """Batched model accelerations at the given states."""
    tape = dc.Tape()
    theta = tape.constant(params.values.reshape(1, -1))
    X = tape.constant(np.asarray(q, dtype=np.float64))
    Xd = tape.constant(np.asarray(qdot, dtype=np.float64))
    return _accel_t(theta, params.layout, X, Xd).value.copy()


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
    n = params.layout.arch.n
    configs = np.asarray(configs, dtype=np.float64).reshape(-1, n)
    return np.linalg.eigvalsh(mass_entries_t(params, configs))


def choose_alpha(params0: FlatParams, configs,
                 fraction: float = ALPHA_FRACTION) -> float:
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
        if alpha is None:
            return True
        try:
            eigs = mass_eigenvalues(FlatParams(vals, layout), train_configs)
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
