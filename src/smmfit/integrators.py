"""Trajectory generation and dataset files.

A variational integrator advances position-only trajectories by solving
DEL(q_prev, q_curr, q_next) = 0 with Newton's method; rest-start draws
that fail to converge or leave their energy band are redrawn.  Plus
Gaussian observation noise and CSV/JSON trajectory files.
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


def add_noise(traj: Trajectory, sigma: float, rng) -> Trajectory:
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
    return Trajectory(configs=traj.configs + noise, h=traj.h,
                      system=traj.system, seed=seed, sigma=sigma)


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
        meta = json.load(fh)
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
    """Read a trajectory CSV + sidecar."""
    _, data = read_csv(path)
    meta = read_sidecar(path)
    return Trajectory(configs=data[:, 1:], h=meta["h"],
                      system=meta.get("system", ""), seed=meta.get("seed"),
                      sigma=meta.get("sigma"))
