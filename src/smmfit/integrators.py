"""Trajectory generation and dataset files.

Two integrators: classical RK4 on the first-order (q, q̇) system for the
next-state baseline, and a variational integrator that advances
position-only trajectories by solving DEL(q_prev, q_curr, q_next) = 0
with Newton's method.  Plus Gaussian observation noise and CSV/JSON
trajectory files.
"""

from __future__ import annotations

import csv
import json
import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .mechanics import ConfigTriple, LagrangianSystem, del_jacobian_q3, del_vector

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


NEWTON_TOL = 1e-10
NEWTON_MAX_ITER = 50


@dataclass
class Trajectory:
    """Configurations over time at a fixed step, plus how they were made."""

    configs: np.ndarray
    h: float
    system: str = ""
    seed: int | None = None

    def __post_init__(self):
        self.configs = np.asarray(self.configs, dtype=np.float64)
        if self.configs.ndim != 2 or self.configs.shape[0] < 3:
            raise ValueError("configs must be T x n with T >= 3")
        if self.h <= 0:
            raise ValueError("step size must be positive")
        if not np.all(np.isfinite(self.configs)):
            raise ValueError("non-finite configuration")

    @property
    def T(self) -> int:
        return self.configs.shape[0]

    @property
    def n(self) -> int:
        return self.configs.shape[1]


@dataclass
class ObservedTrajectory:
    """Noisy position observations of a trajectory."""

    observations: np.ndarray
    noise_sigma: float
    h: float
    system: str = ""
    seed: int | None = None

    def __post_init__(self):
        self.observations = np.asarray(self.observations, dtype=np.float64)
        if self.observations.ndim != 2:
            raise ValueError("observations must be T x n")
        if self.h <= 0:
            raise ValueError("step size must be positive")

    @property
    def T(self) -> int:
        return self.observations.shape[0]

    @property
    def n(self) -> int:
        return self.observations.shape[1]


def rk4_step(accel_fn, q, qdot, h: float):
    """One classical Runge-Kutta step of q̈ = accel_fn(q, q̇)."""
    q = np.asarray(q, dtype=np.float64)
    qdot = np.asarray(qdot, dtype=np.float64)

    def f(state_q, state_v):
        return state_v, np.asarray(accel_fn(state_q, state_v), dtype=np.float64)

    k1q, k1v = f(q, qdot)
    k2q, k2v = f(q + 0.5 * h * k1q, qdot + 0.5 * h * k1v)
    k3q, k3v = f(q + 0.5 * h * k2q, qdot + 0.5 * h * k2v)
    k4q, k4v = f(q + h * k3q, qdot + h * k3v)
    q_next = q + (h / 6.0) * (k1q + 2 * k2q + 2 * k3q + k4q)
    v_next = qdot + (h / 6.0) * (k1v + 2 * k2v + 2 * k3v + k4v)
    if not (np.all(np.isfinite(q_next)) and np.all(np.isfinite(v_next))):
        raise IntegrationBlowupError("non-finite state after RK4 step")
    return q_next, v_next


def variational_step(sys: LagrangianSystem, q_prev, q_curr, h: float) -> np.ndarray:
    """Advance the discrete trajectory by solving DEL = 0 for q_next.

    Newton iteration with the analytic DEL Jacobian, initial guess
    2 q_curr − q_prev, infinity-norm tolerance 1e-10, at most 50 steps.
    Steps are backtracked (Armijo on the residual norm) so the solve
    stays on the root branch nearest the guess; an unguarded iteration
    can silently hop to a spurious DEL root with enormous velocity when
    the dynamics are fast relative to h.
    """
    q_prev = np.asarray(q_prev, dtype=np.float64)
    q_curr = np.asarray(q_curr, dtype=np.float64)
    q3 = 2.0 * q_curr - q_prev
    r = del_vector(sys, ConfigTriple(q_prev, q_curr, q3, h))
    residual = float(np.abs(r).max())
    for _ in range(NEWTON_MAX_ITER):
        if residual <= NEWTON_TOL:
            return q3
        J = del_jacobian_q3(sys, ConfigTriple(q_prev, q_curr, q3, h))
        try:
            dq = np.linalg.solve(J, r)
        except np.linalg.LinAlgError:
            raise NewtonConvergenceError(NEWTON_MAX_ITER, residual)
        if not np.all(np.isfinite(dq)):
            raise IntegrationBlowupError("non-finite Newton direction")
        norm0 = float(np.linalg.norm(r))
        lam = 1.0
        while True:
            cand = q3 - lam * dq
            rc = del_vector(sys, ConfigTriple(q_prev, q_curr, cand, h))
            if float(np.linalg.norm(rc)) <= (1.0 - 1e-4 * lam) * norm0:
                q3, r = cand, rc
                residual = float(np.abs(r).max())
                break
            lam *= 0.5
            if lam < 2.0 ** -20:
                # residual norm has a local minimum above tolerance:
                # no root on this branch (step too large for the state)
                raise NewtonConvergenceError(NEWTON_MAX_ITER, residual)
    if residual <= NEWTON_TOL:
        return q3
    raise NewtonConvergenceError(NEWTON_MAX_ITER, residual)


def simulate(sys: LagrangianSystem, q0, h: float, T: int,
             system: str = "", seed: int | None = None) -> Trajectory:
    """Variational-integrator rollout from rest.

    The first two configurations both equal q0, making the initial
    discrete midpoint velocity exactly zero.
    """
    if T < 3:
        raise ValueError("need at least 3 time-steps")
    q0 = np.asarray(q0, dtype=np.float64).ravel()
    configs = np.empty((T, q0.size))
    configs[0] = q0
    configs[1] = q0
    for t in range(2, T):
        configs[t] = variational_step(sys, configs[t - 2], configs[t - 1], h)
    return Trajectory(configs=configs, h=h, system=system, seed=seed)


def midpoint_energy(sys: LagrangianSystem, configs: np.ndarray, h: float) -> np.ndarray:
    """Discrete energy series ½v_tᵀM(m_t)v_t + V(m_t) on midpoint states
    m_t = (q_t + q_{t+1})/2, v_t = (q_{t+1} − q_t)/h."""
    configs = np.asarray(configs, dtype=np.float64)
    v = np.diff(configs, axis=0) / h
    m = 0.5 * (configs[:-1] + configs[1:])
    return np.array([0.5 * v[t] @ sys.mass_matrix(m[t]) @ v[t] + sys.potential(m[t])
                     for t in range(v.shape[0])])


def energy_drift_ok(sys: LagrangianSystem, traj: Trajectory,
                    damped: bool = False) -> bool:
    """Validity gate for generated data.

    Undamped: the discrete energy must stay within 5% of (|E₀| + 1) of its
    start, the oscillation band of a healthy variational rollout.  Damped:
    10-step window means of the energy must be non-increasing.  A rollout
    outside these bands had Newton skirt a solvability fold and pump
    energy; its tail is not a sample of the system being studied.
    """
    E = midpoint_energy(sys, traj.configs, traj.h)
    if damped:
        nwin = len(E) // 10
        win = E[:10 * nwin].reshape(nwin, 10).mean(axis=1)
        return bool(np.all(np.diff(win) <= 1e-9))
    return bool(np.abs(E - E[0]).max() <= 0.05 * (abs(E[0]) + 1.0))


def sample_rest_trajectories(sys: LagrangianSystem, count: int, h: float, T: int,
                             seed: int, system: str = "", damped: bool = False,
                             angle_range: float = np.pi / 2,
                             max_tries: int = 25) -> list[Trajectory]:
    """Draw rest-start trajectories with angles uniform in [−range, range).

    Each slot gets its own seed stream.  A draw whose rollout fails to
    converge or fails the energy gate is rejected and redrawn (the flat
    midpoint step has no solution for the hottest initial conditions);
    the returned trajectories record the seed of the accepted draw.
    """
    out = []
    rejected = 0
    root = np.random.SeedSequence(seed)
    for slot_seq in root.spawn(count):
        accepted = None
        for attempt_seq in slot_seq.spawn(max_tries):
            attempt_seed = int(attempt_seq.generate_state(1)[0])
            rng = np.random.default_rng(attempt_seq)
            q0 = rng.uniform(-angle_range, angle_range, size=sys.n)
            try:
                traj = simulate(sys, q0, h, T, system=system, seed=attempt_seed)
            except (NewtonConvergenceError, IntegrationBlowupError):
                rejected += 1
                continue
            if energy_drift_ok(sys, traj, damped=damped):
                accepted = traj
                break
            rejected += 1
        if accepted is None:
            raise NewtonConvergenceError(NEWTON_MAX_ITER, float("nan"))
        out.append(accepted)
    _log.info("rejected %d of %d trajectory draws", rejected, rejected + count)
    return out


def add_noise(traj: Trajectory, sigma: float, rng) -> ObservedTrajectory:
    """Add zero-mean Gaussian noise to every configuration entry.

    ``rng`` is an integer seed (recorded in the result) or a Generator.
    """
    if sigma < 0:
        raise ValueError("sigma must be non-negative")
    if isinstance(rng, (int, np.integer)):
        seed = int(rng)
        gen = np.random.default_rng(seed)
    else:
        seed = traj.seed
        gen = rng
    noise = gen.normal(0.0, sigma, size=traj.configs.shape) if sigma > 0 \
        else np.zeros_like(traj.configs)
    return ObservedTrajectory(observations=traj.configs + noise,
                              noise_sigma=sigma, h=traj.h,
                              system=traj.system, seed=seed)


# -- trajectory files ---------------------------------------------------------

def write_csv(path, header, rows):
    """A header row, then each row's numbers at full precision."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([f"{x:.17g}" for x in row])


def read_csv(path):
    """(header, data array) of a file `write_csv` wrote."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header[0] != "t":
            raise ValueError(f"unexpected header {header!r}")
        data = np.array([[float(x) for x in row] for row in reader])
    return header, data


def _sidecar(path) -> Path:
    return Path(path).with_suffix(".json")


def write_sidecar(path, meta: dict) -> None:
    """The JSON sidecar of a data file: same stem, `.json` suffix."""
    with open(_sidecar(path), "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_sidecar(path) -> dict:
    with open(_sidecar(path)) as fh:
        return json.load(fh)


def save_trajectory(traj, path) -> None:
    """Write `t,q1,...,qn` CSV plus a JSON sidecar with h/seed/system/sigma."""
    data = traj.observations if isinstance(traj, ObservedTrajectory) else traj.configs
    header = ["t"] + [f"q{i + 1}" for i in range(data.shape[1])]
    rows = ([i * traj.h] + list(data[i]) for i in range(data.shape[0]))
    write_csv(path, header, rows)
    write_sidecar(path, {
        "h": traj.h,
        "seed": traj.seed,
        "system": traj.system,
        "sigma": traj.noise_sigma if isinstance(traj, ObservedTrajectory) else None,
    })


def load_trajectory(path):
    """Read a trajectory CSV + sidecar; the sidecar's sigma field decides
    whether it is a clean Trajectory or an ObservedTrajectory."""
    _, data = read_csv(path)
    meta = read_sidecar(path)
    configs = data[:, 1:]
    if meta.get("sigma") is None:
        return Trajectory(configs=configs, h=meta["h"],
                          system=meta.get("system", ""), seed=meta.get("seed"))
    return ObservedTrajectory(observations=configs, noise_sigma=meta["sigma"],
                              h=meta["h"], system=meta.get("system", ""),
                              seed=meta.get("seed"))
