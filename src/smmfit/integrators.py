"""Trajectory generation and dataset files.

A variational integrator advances position-only trajectories by solving
DEL(q_prev, q_curr, q_next) = 0 with Newton's method; rest-start draws
that fail to converge or leave their energy band are redrawn.  Plus
Gaussian observation noise and CSV/JSON trajectory files.

Rollouts run in lockstep: each step advances every live trajectory with
one row-batched Newton solve, in which every row converges, backtracks
and fails on its own and gets the bits of a one-trajectory solve.
"""

from __future__ import annotations

import csv
import json
import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .mechanics import (LagrangianSystem, del_arm, del_jacobian_q3,
                        del_vector, rowdot)

_log = logging.getLogger("smmfit.integrators")


class IntegrationBlowupError(Exception):
    """An integrator produced a non-finite state."""


class NewtonConvergenceError(Exception):
    """The DEL root solve did not reach tolerance."""

    def __init__(self, iterations: int, residual: float):
        self.iterations = iterations
        self.residual = residual
        super().__init__(
            f"Newton stalled after {iterations} iterations, "
            f"residual {residual:.3e}")


class DrawsExhaustedError(Exception):
    """Every draw of a trajectory slot was rejected."""


NEWTON_TOL = 1e-10
NEWTON_MAX_ITER = 50
# rest-start angle bound and draws per slot of `sample_rest_trajectories`
ANGLE_RANGE = np.pi / 2
MAX_TRIES = 25


@dataclass
class Trajectory:
    """Configurations over time at a fixed step, plus how they were made:
    ``sigma`` is the observation noise level, None for clean data."""

    configs: np.ndarray
    h: float
    system: str = ""
    seed: int | None = None
    sigma: float | None = None

    def __post_init__(self):
        self.configs = np.asarray(self.configs, dtype=np.float64)
        if self.configs.ndim != 2 or self.configs.shape[0] < 3:
            raise ValueError("configs must be T x n with T >= 3")
        if not 0 < self.h < np.inf:
            raise ValueError("step size must be finite and positive")
        if not np.all(np.isfinite(self.configs)):
            raise ValueError("non-finite configuration")

    @property
    def T(self) -> int:
        return self.configs.shape[0]

    @property
    def n(self) -> int:
        return self.configs.shape[1]


# attempts each unfinished slot rolls out per lockstep round of
# `sample_rest_trajectories`.  Median pool times over data seeds 40-55 of
# the 8-slot undamped, 4-slot undamped and 4-slot damped benchmark pools
# (T = 100), for 1/2/3/4 attempts: 198/140/135/152, 179/106/147/117 and
# 98/102/96/128 ms; 2 and 3 tie within the machine's spread, and 1 runs
# one more round per rejected draw.
ATTEMPTS_PER_ROUND = 2


def _newton_directions(J: np.ndarray, r: np.ndarray):
    """J⁻¹r of each row, and the indices of rows whose J is singular
    (their direction is NaN).  A stacked solve raises for the whole stack,
    so a raise is followed by one solve per row."""
    try:
        return np.linalg.solve(J, r[:, :, None])[:, :, 0], []
    except np.linalg.LinAlgError:
        pass
    dq = np.full(r.shape, np.nan)
    singular = []
    for i in range(r.shape[0]):
        try:
            dq[i] = np.linalg.solve(J[i], r[i][:, None])[:, 0]
        except np.linalg.LinAlgError:
            singular.append(i)
    return dq, singular


def variational_step(sys: LagrangianSystem, q_prev, q_curr, h: float):
    """Advance each row's discrete trajectory by solving DEL = 0 for q_next.

    Newton iteration with the analytic DEL Jacobian, initial guess
    2 q_curr − q_prev, infinity-norm tolerance 1e-10, at most 50 steps.
    Steps are backtracked (Armijo on the residual norm) so the solve
    stays on the root branch nearest the guess; an unguarded iteration
    can silently hop to a spurious DEL root with enormous velocity when
    the dynamics are fast relative to h.

    ``q_prev`` and ``q_curr`` are (K, n).  Each row has its own
    convergence test and step length.  Returns (q_next, failed):
    ``failed`` maps the index of each row that did not converge to its
    NewtonConvergenceError or IntegrationBlowupError, and that row of
    q_next means nothing.  An ``h`` that is not finite and positive, or
    ``q_prev`` and ``q_curr`` of different shapes, raise ValueError.
    """
    q_prev = np.asarray(q_prev, dtype=np.float64)
    q_curr = np.asarray(q_curr, dtype=np.float64)
    if q_prev.shape != q_curr.shape:
        raise ValueError("triple configurations differ in shape")
    if not 0 < h < np.inf:
        raise ValueError(f"step size must be finite and positive, got {h}")
    # the (q_prev, q_curr) arm of the DEL vector is fixed during the step
    left = del_arm(sys, q_prev, q_curr, h)
    q3 = 2.0 * q_curr - q_prev
    r = del_vector(sys, left, q_curr, q3, h)
    residual = np.abs(r).max(axis=1)
    failed = {}
    live = np.arange(q3.shape[0])
    for _ in range(NEWTON_MAX_ITER):
        live = live[~(residual[live] <= NEWTON_TOL)]
        if not live.size:
            return q3, failed
        J = del_jacobian_q3(sys, q_curr[live], q3[live], h)
        dq, singular = _newton_directions(J, r[live])
        finite = np.all(np.isfinite(dq), axis=1)
        if not finite.all():
            for i in np.flatnonzero(~finite):
                failed[int(live[i])] = (
                    NewtonConvergenceError(NEWTON_MAX_ITER,
                                           float(residual[live[i]]))
                    if i in singular else
                    IntegrationBlowupError("non-finite Newton direction"))
            live, dq = live[finite], dq[finite]
        # Armijo backtracking, each row halving its own step length; a
        # row's norm is sqrt(r·r), as np.linalg.norm takes it
        r0 = r[live]
        rows, lam, norm0 = live, np.ones(live.size), np.sqrt(rowdot(r0, r0))
        while rows.size:
            cand = q3[rows] - lam[:, None] * dq
            rc = del_vector(sys, tuple(x[rows] for x in left),
                            q_curr[rows], cand, h)
            better = np.sqrt(rowdot(rc, rc)) <= (1.0 - 1e-4 * lam) * norm0
            took = rows[better]
            q3[took], r[took] = cand[better], rc[better]
            residual[took] = np.abs(rc[better]).max(axis=1)
            worse = ~better
            rows, dq, norm0 = rows[worse], dq[worse], norm0[worse]
            lam = 0.5 * lam[worse]
            # residual norm has a local minimum above tolerance: no root
            # on this branch (step too large for the state)
            stalled = lam < 2.0 ** -20
            for i in rows[stalled]:
                failed[int(i)] = NewtonConvergenceError(
                    NEWTON_MAX_ITER, float(residual[i]))
            keep = ~stalled
            rows, dq, norm0, lam = rows[keep], dq[keep], norm0[keep], lam[keep]
        if failed:
            live = live[[i not in failed for i in live]]
    for i in live[~(residual[live] <= NEWTON_TOL)]:
        failed[int(i)] = NewtonConvergenceError(NEWTON_MAX_ITER,
                                                float(residual[i]))
    return q3, failed


def simulate(sys: LagrangianSystem, q0, h: float, T: int):
    """Variational-integrator rollouts from rest, one per row of ``q0``
    (K, n), all advanced in lockstep.

    The first two configurations both equal the row's q0, making the
    initial discrete midpoint velocity exactly zero.  Returns
    (configs, failed): configs is (K, T, n); ``failed`` maps each row
    whose step failed to its NewtonConvergenceError or
    IntegrationBlowupError.  A failed row leaves the lockstep, and its
    configurations from the failed step on are NaN.
    """
    if T < 3:
        raise ValueError("need at least 3 time-steps")
    q0 = np.asarray(q0, dtype=np.float64)
    if q0.ndim != 2:
        raise ValueError(f"q0 must be K x n, got shape {q0.shape}")
    K, n = q0.shape
    configs = np.full((K, T, n), np.nan)
    configs[:, 0] = q0
    configs[:, 1] = q0
    failed = {}
    live = np.arange(K)
    for t in range(2, T):
        if not live.size:
            break
        q, lost = variational_step(sys, configs[live, t - 2],
                                   configs[live, t - 1], h)
        for i, err in lost.items():
            failed[int(live[i])] = err
        keep = np.ones(live.size, bool)
        keep[list(lost)] = False
        live = live[keep]
        configs[live, t] = q[keep]
    return configs, failed


def midpoint_energy(sys: LagrangianSystem, configs: np.ndarray, h: float) -> np.ndarray:
    """Discrete energy series ½v_tᵀM(m_t)v_t + V(m_t) on midpoint states
    m_t = (q_t + q_{t+1})/2, v_t = (q_{t+1} − q_t)/h.

    ``configs`` is (..., T, n), any number of trajectories; the result
    is (..., T − 1), from one batched call of each system hook.
    """
    configs = np.asarray(configs, dtype=np.float64)
    n = configs.shape[-1]
    v = np.diff(configs, axis=-2) / h
    m = 0.5 * (configs[..., :-1, :] + configs[..., 1:, :])
    vr, mr = v.reshape(-1, n), m.reshape(-1, n)
    kinetic = np.matmul(np.matmul((0.5 * vr)[:, None, :],
                                  sys.mass_matrix(mr)),
                        vr[:, :, None])[:, 0, 0]
    return (kinetic + sys.potential(mr)).reshape(v.shape[:-1])


def energy_drift_ok(sys: LagrangianSystem, configs: np.ndarray,
                    h: float) -> np.ndarray:
    """Validity gate for generated data, per trajectory of ``configs``
    (..., T, n), by ``sys.damped``.

    Undamped: the discrete energy must stay within 5% of (|E₀| + 1) of its
    start, the oscillation band of a healthy variational rollout.  Damped:
    10-step window means of the energy must be non-increasing.  A rollout
    outside these bands had Newton skirt a solvability fold and pump
    energy; its tail is not a sample of the system being studied.
    """
    E = midpoint_energy(sys, configs, h)
    if sys.damped:
        nwin = E.shape[-1] // 10
        win = E[..., :10 * nwin].reshape(E.shape[:-1] + (nwin, 10)) \
            .mean(axis=-1)
        return np.all(np.diff(win, axis=-1) <= 1e-9, axis=-1)
    return np.abs(E - E[..., :1]).max(axis=-1) \
        <= 0.05 * (np.abs(E[..., 0]) + 1.0)


def sample_rest_trajectories(sys: LagrangianSystem, count: int, h: float,
                             T: int, seed: int,
                             system: str) -> list[Trajectory]:
    """Draw rest-start trajectories, angles uniform in ±ANGLE_RANGE.

    Each slot gets its own seed stream.  A draw whose rollout fails to
    converge or fails the energy gate is rejected and redrawn (the flat
    midpoint step has no solution for the hottest initial conditions);
    the returned trajectories record the seed of the accepted draw.  A
    slot whose `MAX_TRIES` draws are all rejected raises
    DrawsExhaustedError naming the first such slot.

    The draws run in rounds: every unfinished slot rolls out its next
    `ATTEMPTS_PER_ROUND` attempts in one lockstep `simulate` call and
    keeps the first that passes, in seed order.  So each slot accepts
    the draw a one-at-a-time search would; attempts after it are
    discarded and not counted as rejected.
    """
    root = np.random.SeedSequence(seed)
    streams = [slot_seq.spawn(MAX_TRIES) for slot_seq in root.spawn(count)]
    out = [None] * count
    rejected = tried = 0
    while None in out:
        if tried == MAX_TRIES:
            raise DrawsExhaustedError(
                f"trajectory slot {out.index(None)}: all {MAX_TRIES} draws "
                "failed to converge or left the energy band")
        take = min(ATTEMPTS_PER_ROUND, MAX_TRIES - tried)
        slots = [k for k in range(count) if out[k] is None]
        seqs = [streams[k][tried + j] for k in slots for j in range(take)]
        q0 = np.array([np.random.default_rng(s).uniform(
            -ANGLE_RANGE, ANGLE_RANGE, size=sys.n) for s in seqs])
        configs, failed = simulate(sys, q0, h, T)
        passed = np.zeros(len(seqs), bool)
        done = [i for i in range(len(seqs)) if i not in failed]
        if done:
            passed[done] = energy_drift_ok(sys, configs[done], h)
        for a, k in enumerate(slots):
            hits = np.flatnonzero(passed[a * take:(a + 1) * take])
            if hits.size:
                i = a * take + hits[0]
                out[k] = Trajectory(
                    configs=configs[i], h=h, system=system,
                    seed=int(seqs[i].generate_state(1)[0]))
                rejected += tried + int(hits[0])
        tried += take
    _log.info("rejected %d of %d trajectory draws", rejected, rejected + count)
    return out


def add_noise(traj: Trajectory, sigma: float, rng) -> Trajectory:
    """Add zero-mean Gaussian noise drawn from the Generator ``rng`` to
    every configuration entry; the result keeps ``traj.seed``."""
    if not 0 <= sigma < np.inf:  # NaN fails it too
        raise ValueError("sigma must be finite and non-negative")
    noise = rng.normal(0.0, sigma, size=traj.configs.shape) if sigma > 0 \
        else np.zeros_like(traj.configs)
    return Trajectory(configs=traj.configs + noise, h=traj.h,
                      system=traj.system, seed=traj.seed, sigma=sigma)


# -- trajectory files ---------------------------------------------------------

def write_csv(path, header, rows):
    """A header row, then each row's numbers at full precision."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([f"{x:.17g}" for x in row])


def read_csv(path):
    """(header, data array) of a file `write_csv` wrote.

    A file with fewer than 3 data rows (the shortest trajectory), a row
    whose length differs from the header's, or a cell that is not a
    finite number raises ValueError naming the file.
    """
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header = rows[0] if rows else []
    if header[:1] != ["t"]:
        raise ValueError(f"{path}: unexpected header {header!r}")
    if len(rows) < 4:
        raise ValueError(f"{path}: {len(rows) - 1} data rows, need at least 3")
    if any(len(row) != len(header) for row in rows):
        raise ValueError(f"{path}: rows differ in length from the header")
    try:
        data = np.array([[float(x) for x in row] for row in rows[1:]])
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None
    bad = ~np.all(np.isfinite(data), axis=1)
    if bad.any():
        # the header is line 1
        raise ValueError(f"{path}: non-finite cell on line "
                         f"{int(np.argmax(bad)) + 2}")
    return header, data


def _sidecar(path) -> Path:
    return Path(path).with_suffix(".json")


def write_sidecar(path, meta: dict) -> None:
    """The JSON sidecar of a data file: same stem, `.json` suffix."""
    with open(_sidecar(path), "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_sidecar(path) -> dict:
    """The sidecar of data file ``path``; its step ``h`` must be a
    positive number, or ValueError names the file."""
    with open(_sidecar(path)) as fh:
        try:
            meta = json.load(fh)
        except json.JSONDecodeError as err:
            raise ValueError(f"{path}: sidecar {_sidecar(path).name} is not "
                             f"JSON: {err}") from None
    h = meta.get("h") if isinstance(meta, dict) else None
    if isinstance(h, bool) or not isinstance(h, (int, float)) \
            or not 0 < h < np.inf:
        raise ValueError(f"{path}: sidecar {_sidecar(path).name} needs a "
                         f"positive step h, got {h!r}")
    return meta


def save_trajectory(traj: Trajectory, path) -> None:
    """Write `t,q1,...,qn` CSV plus a JSON sidecar with h/seed/system/sigma."""
    header = ["t"] + [f"q{i + 1}" for i in range(traj.n)]
    rows = ([i * traj.h] + list(traj.configs[i]) for i in range(traj.T))
    write_csv(path, header, rows)
    write_sidecar(path, {"h": traj.h, "seed": traj.seed,
                         "system": traj.system, "sigma": traj.sigma})


def load_trajectory(path) -> Trajectory:
    """Read a trajectory CSV + sidecar; a header other than `t,q1,...,qn`
    raises ValueError naming the file."""
    header, data = read_csv(path)
    if len(header) < 2 or header[1:] != [f"q{i}" for i in
                                         range(1, len(header))]:
        hint = "; it looks already smoothed" if "qdot1" in header else ""
        raise ValueError(f"{path}: header {','.join(header)} is not "
                         f"t,q1,...,qn{hint}")
    meta = read_sidecar(path)
    return Trajectory(configs=data[:, 1:], h=meta["h"],
                      system=meta.get("system", ""), seed=meta.get("seed"),
                      sigma=meta.get("sigma"))
