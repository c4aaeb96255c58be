"""Reference code the tests compare `smmfit` against: reverse-mode
`grad`/`jacobian`, central-difference hooks (`fd`, `FdSystem`), the
continuous and midpoint discrete Lagrangian and force, an RK4 step, the
`system_*` scores of any system, readouts of the library's loss graphs,
a plain-numpy single-point SMM model read out of a `FlatParams`
vector, and the smoother's former matrix-form Kalman filter and EM
(`matrix_kalman_filter`, `matrix_em_fit`), which take the observation
row C as a product where the library selects the position.  `SmmSystem` takes M and V derivatives from `grad`/`jacobian`
sweeps over the per-node tape builders of `column_graph`, an independent
path from the library's fused builds the losses use.

Systems here have one-point hooks: q is an (n,) vector.  The library's
mechanics takes (K, n) rows; `Rows` adapts a one-point system to it.
The one-point mechanics path (`ScalarDP`, `acceleration`, `del_vector`,
`del_jacobian_q3`, `variational_step`, `simulate`, `midpoint_energy`,
`energy_drift_ok`, `sample_rest_trajectories`) is the library's former
code, kept as the bit-exact reference for the row-batched path; its
`cholesky` and `cho_solve`, which `acceleration` uses, work entry by
entry in the order of the library's one factor and solve.
"""

from functools import partial

import numpy as np

from column_graph import cols, concat_cols, mass_entries_t, potential_t
from smmfit import diffcore as dc
from smmfit import mechanics as mech
from smmfit import smoother as smo
from smmfit import training as tr
from smmfit.integrators import (DrawsExhaustedError, IntegrationBlowupError,
                                NEWTON_MAX_ITER, NEWTON_TOL,
                                NewtonConvergenceError, Trajectory)
from smmfit.netparam import ConservativeForceError, FlatParams

FD_STEP = 1e-6


# -- reverse mode --------------------------------------------------------------

class NonScalarOutputError(dc.DiffcoreError):
    """grad() was handed a function whose output is not 1 x 1."""


def transpose(a):
    return dc.custom([a], np.ascontiguousarray(a.value.T),
                     lambda g: (np.ascontiguousarray(g.T),), "transpose")


def grad(f, x) -> np.ndarray:
    """Gradient of a scalar-valued tape function at a point.

    ``f`` receives a (1, n) input Tensor and must return a 1 x 1 Tensor.
    """
    tape = dc.Tape()
    xt = tape.input(np.asarray(x, dtype=np.float64).reshape(1, -1))
    y = f(xt)
    if not isinstance(y, dc.Tensor):
        raise NonScalarOutputError("function did not return a Tensor")
    if y.shape != (1, 1):
        raise NonScalarOutputError(f"expected scalar output, got shape {y.shape}")
    (g,) = tape.gradients(y, [xt])
    return g.ravel().copy()


def jacobian(f, x) -> np.ndarray:
    """Jacobian of a vector-valued tape function; row i is the gradient of
    output component i."""
    tape = dc.Tape()
    xt = tape.input(np.asarray(x, dtype=np.float64).reshape(1, -1))
    y = f(xt)
    if y.shape[0] != 1:
        y = transpose(y)
    m, n = y.shape[1], xt.shape[1]
    J = np.empty((m, n))
    for i in range(m):
        (g,) = tape.gradients(cols(y, i, i + 1), [xt])
        J[i] = g.ravel()
    return J


# -- central differences -------------------------------------------------------

def fd(f, x, axis=0, step=FD_STEP):
    """Central differences of ``f`` at ``x``, one per coordinate of ``x``,
    stacked along ``axis`` of the result."""
    x = np.asarray(x, dtype=np.float64)
    d = np.array([(np.asarray(f(x + e)) - np.asarray(f(x - e))) / (2 * step)
                  for e in step * np.eye(x.size)])
    return np.moveaxis(d, 0, axis)


class FdSystem(mech.LagrangianSystem):
    """A system whose derivative hooks are central differences of its
    mass_matrix, potential and force; conservative unless a subclass
    overrides force."""

    def force(self, q, qdot):
        return np.zeros(self.n)

    def mass_jacobian(self, q):
        return fd(self.mass_matrix, q)

    def potential_gradient(self, q):
        return fd(self.potential, q)

    def mass_hessian(self, q):
        return fd(self.mass_jacobian, q, axis=1)

    def potential_hessian(self, q):
        return fd(self.potential_gradient, q, axis=1)

    def force_jacobian_q(self, q, qdot):
        return fd(lambda x: self.force(x, qdot), q, axis=1)

    def force_jacobian_qdot(self, q, qdot):
        return fd(lambda x: self.force(q, x), qdot, axis=1)


class FreeParticle(FdSystem):
    # L = half |qdot|^2
    n = 2

    def mass_matrix(self, q):
        return np.eye(2)

    def potential(self, q):
        return 0.0


def fd_max_rel_err(loss_of_values, values, gradient, idx, eps=FD_STEP):
    """Worst relative gap between ``gradient`` and central differences of
    the loss over the parameter indices ``idx``."""
    worst = 0.0
    for i in idx:
        vp = values.copy()
        vm = values.copy()
        vp[i] += eps
        vm[i] -= eps
        diff = (loss_of_values(vp) - loss_of_values(vm)) / (2.0 * eps)
        denom = max(abs(diff), abs(gradient[i]), 1e-10)
        worst = max(worst, abs(diff - gradient[i]) / denom)
    return worst


def loss_gradient_cases(params, rng, B=6, h=0.05):
    """The barrier floor, and (loss of a parameter vector, library
    gradient) for each method on random batches of B nearby tuples."""
    n, layout = params.layout.arch.n, params.layout
    q1 = rng.uniform(-0.5, 0.5, (B, n))
    dq = rng.uniform(-0.05, 0.05, (B, n))
    dq2 = rng.uniform(-0.05, 0.05, (B, n))
    bdel = tr.Batch("del", {"q1": q1, "q2": q1 + dq, "q3": q1 + dq + dq2}, h)
    bacc = tr.Batch("accel", {"q": q1, "qdot": rng.uniform(-1, 1, (B, n)),
                              "qddot": rng.uniform(-1, 1, (B, n))})
    bnext = tr.Batch("nextstate",
                     {"q": q1, "qdot": rng.uniform(-1, 1, (B, n)),
                      "qnext": q1 + dq,
                      "qdotnext": rng.uniform(-1, 1, (B, n))}, h)
    alpha = tr.choose_alpha(params, np.concatenate([q1, q1 + dq]))
    return alpha, [
        (lambda v: tr.del_loss_grad(FlatParams(v, layout), bdel, 0.01,
                                    alpha)[0],
         tr.del_loss_grad(params, bdel, mu=0.01, alpha=alpha)[1]),
        (lambda v: tr.accel_loss_grad(FlatParams(v, layout), bacc)[0],
         tr.accel_loss_grad(params, bacc)[1]),
        (lambda v: tr.nextstate_loss_grad(FlatParams(v, layout), bnext,
                                          h)[0],
         tr.nextstate_loss_grad(params, bnext, h)[1]),
    ]


class Rows(mech.LagrangianSystem):
    """The row hooks the library reads, from a system with one-point
    hooks, called a row at a time."""

    def __init__(self, inner):
        self.inner = inner
        self.n = inner.n

    def _map(self, hook, *rows):
        hook = getattr(self.inner, hook)
        return np.array([hook(*point) for point in zip(*rows)],
                        dtype=np.float64)

    def mass_matrix(self, q):
        return self._map("mass_matrix", q)

    def potential(self, q):
        return self._map("potential", q)

    def force(self, q, qdot):
        return self._map("force", q, qdot)

    def mass_jacobian(self, q):
        return self._map("mass_jacobian", q)

    def potential_gradient(self, q):
        return self._map("potential_gradient", q)

    def mass_hessian(self, q):
        return self._map("mass_hessian", q)

    def potential_hessian(self, q):
        return self._map("potential_hessian", q)

    def force_jacobian_q(self, q, qdot):
        return self._map("force_jacobian_q", q, qdot)

    def force_jacobian_qdot(self, q, qdot):
        return self._map("force_jacobian_qdot", q, qdot)


# -- the one-point mechanics path ----------------------------------------------

class ScalarDP(mech.LagrangianSystem):
    """One-point hooks of a `mechanics.DoublePendulum`, with its
    parameters: the closed forms as expressions in scalars."""

    def __init__(self, dp):
        for name in ("m1", "m2", "l1", "l2", "g", "eta", "damped", "n",
                     "I1", "I2", "_c"):
            setattr(self, name, getattr(dp, name))

    def mass_matrix(self, q):
        c2 = np.cos(q[1])
        i11 = self.I1 + self.I2 + self.m2 * self.l1 ** 2 + self._c * c2
        i12 = self.I2 + 0.5 * self._c * c2
        return np.array([[i11, i12], [i12, self.I2]])

    def potential(self, q):
        return float(-0.5 * self.m1 * self.g * self.l1 * np.cos(q[0])
                     - self.m2 * self.g * (self.l1 * np.cos(q[0])
                                           + 0.5 * self.l2 * np.cos(q[0] + q[1])))

    def force(self, q, qdot):
        if not self.damped:
            return np.zeros(2)
        return -self.eta * np.asarray(qdot, dtype=np.float64)

    def mass_jacobian(self, q):
        s2 = np.sin(q[1])
        dM = np.zeros((2, 2, 2))
        dM[1] = -self._c * s2 * np.array([[1.0, 0.5], [0.5, 0.0]])
        return dM

    def potential_gradient(self, q):
        a = (0.5 * self.m1 + self.m2) * self.g * self.l1
        b = 0.5 * self.m2 * self.g * self.l2
        s01 = np.sin(q[0] + q[1])
        return np.array([a * np.sin(q[0]) + b * s01, b * s01])

    def mass_hessian(self, q):
        c2 = np.cos(q[1])
        B = np.zeros((2, 2, 2, 2))
        B[1, 1] = -self._c * c2 * np.array([[1.0, 0.5], [0.5, 0.0]])
        return B

    def potential_hessian(self, q):
        a = (0.5 * self.m1 + self.m2) * self.g * self.l1
        b = 0.5 * self.m2 * self.g * self.l2
        c01 = b * np.cos(q[0] + q[1])
        return np.array([[a * np.cos(q[0]) + c01, c01], [c01, c01]])

    def force_jacobian_q(self, q, qdot):
        return np.zeros((2, 2))

    def force_jacobian_qdot(self, q, qdot):
        if not self.damped:
            return np.zeros((2, 2))
        return -np.diag(self.eta)


def scalar_dp(damped=False) -> ScalarDP:
    return ScalarDP(mech.DoublePendulum(damped=damped))


def cholesky(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of one symmetric matrix, from its lower
    triangle, entry by entry in the library's order: each entry below the
    diagonal times its column's reciprocal pivot."""
    a = np.asarray(a, dtype=np.float64)
    n = a.shape[0]
    L = np.zeros_like(a)
    for i in range(n):
        for j in range(i + 1):
            acc = a[i, j]
            for k in range(j):
                acc = acc - L[i, k] * L[j, k]
            if i == j:
                if not 0.0 < acc < np.inf:
                    raise mech.NotPositiveDefiniteError(i, float(acc))
                L[i, i] = np.sqrt(acc)
            else:
                L[i, j] = acc * (1.0 / L[j, j])
    return L


def cho_solve(L, b) -> np.ndarray:
    """x with L Lᵀ x = b for one vector: forward then back substitution,
    entry by entry, each step times the reciprocal pivot."""
    n = len(b)
    r = 1.0 / np.diag(L)
    y = np.empty(n)
    for i in range(n):
        acc = b[i]
        for j in range(i):
            acc = acc - L[i, j] * y[j]
        y[i] = acc * r[i]
    for i in reversed(range(n)):
        acc = y[i]
        for j in range(i + 1, n):
            acc = acc - L[j, i] * y[j]
        y[i] = acc * r[i]
    return y


def lagrangian_q_gradient(sys, q, qdot) -> np.ndarray:
    dM = sys.mass_jacobian(q)
    return 0.5 * np.einsum("kij,i,j->k", dM, qdot, qdot) \
        - sys.potential_gradient(q)


def acceleration(sys, q, qdot) -> np.ndarray:
    q = np.asarray(q, dtype=np.float64)
    qdot = np.asarray(qdot, dtype=np.float64)
    M = sys.mass_matrix(q)
    dM = sys.mass_jacobian(q)
    dLdq = 0.5 * np.einsum("kij,i,j->k", dM, qdot, qdot) \
        - sys.potential_gradient(q)
    convective = np.einsum("kij,j,k->i", dM, qdot, qdot)
    rhs = sys.force(q, qdot) + dLdq - convective
    return cho_solve(cholesky(M), rhs)


def del_vector(sys, triple) -> np.ndarray:
    h = triple.h
    ma, va = 0.5 * (triple.q1 + triple.q2), (triple.q2 - triple.q1) / h
    mb, vb = 0.5 * (triple.q2 + triple.q3), (triple.q3 - triple.q2) / h
    d2 = 0.5 * h * lagrangian_q_gradient(sys, ma, va) \
        + sys.mass_matrix(ma) @ va
    d1 = 0.5 * h * lagrangian_q_gradient(sys, mb, vb) \
        - sys.mass_matrix(mb) @ vb
    fd = 0.5 * h * (sys.force(ma, va) + sys.force(mb, vb))
    return d2 + d1 + fd


def del_jacobian_q3(sys, triple) -> np.ndarray:
    h = triple.h
    m = 0.5 * (triple.q2 + triple.q3)
    v = (triple.q3 - triple.q2) / h
    M = sys.mass_matrix(m)
    A = sys.mass_jacobian(m)
    B = sys.mass_hessian(m)
    H = sys.potential_hessian(m)
    Av = np.einsum("kij,j->ki", A, v)
    J = (h / 8.0) * np.einsum("klij,i,j->kl", B, v, v)
    J += 0.5 * Av
    J -= (h / 4.0) * H
    J -= 0.5 * Av.T
    J -= M / h
    J += (h / 4.0) * sys.force_jacobian_q(m, v)
    J += 0.5 * sys.force_jacobian_qdot(m, v)
    return J


def variational_step(sys, q_prev, q_curr, h: float) -> np.ndarray:
    """One point's Newton solve of DEL = 0; raises where the library
    reports a failed row."""
    q_prev = np.asarray(q_prev, dtype=np.float64)
    q_curr = np.asarray(q_curr, dtype=np.float64)
    q3 = 2.0 * q_curr - q_prev
    r = del_vector(sys, mech.ConfigTriple(q_prev, q_curr, q3, h))
    residual = float(np.abs(r).max())
    for _ in range(NEWTON_MAX_ITER):
        if residual <= NEWTON_TOL:
            return q3
        J = del_jacobian_q3(sys, mech.ConfigTriple(q_prev, q_curr, q3, h))
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
            rc = del_vector(sys, mech.ConfigTriple(q_prev, q_curr, cand, h))
            if float(np.linalg.norm(rc)) <= (1.0 - 1e-4 * lam) * norm0:
                q3, r = cand, rc
                residual = float(np.abs(r).max())
                break
            lam *= 0.5
            if lam < 2.0 ** -20:
                raise NewtonConvergenceError(NEWTON_MAX_ITER, residual)
    if residual <= NEWTON_TOL:
        return q3
    raise NewtonConvergenceError(NEWTON_MAX_ITER, residual)


def simulate(sys, q0, h: float, T: int, system: str = "",
             seed: int | None = None) -> Trajectory:
    """One rollout from rest; raises on the first failed step."""
    q0 = np.asarray(q0, dtype=np.float64).ravel()
    configs = np.empty((T, q0.size))
    configs[0] = q0
    configs[1] = q0
    for t in range(2, T):
        configs[t] = variational_step(sys, configs[t - 2], configs[t - 1], h)
    return Trajectory(configs=configs, h=h, system=system, seed=seed)


def midpoint_energy(sys, configs: np.ndarray, h: float) -> np.ndarray:
    configs = np.asarray(configs, dtype=np.float64)
    v = np.diff(configs, axis=0) / h
    m = 0.5 * (configs[:-1] + configs[1:])
    return np.array([0.5 * v[t] @ sys.mass_matrix(m[t]) @ v[t]
                     + sys.potential(m[t]) for t in range(v.shape[0])])


def energy_drift_ok(sys, traj: Trajectory, damped: bool = False) -> bool:
    E = midpoint_energy(sys, traj.configs, traj.h)
    if damped:
        nwin = len(E) // 10
        win = E[:10 * nwin].reshape(nwin, 10).mean(axis=1)
        return bool(np.all(np.diff(win) <= 1e-9))
    return bool(np.abs(E - E[0]).max() <= 0.05 * (abs(E[0]) + 1.0))


def sample_rest_trajectories(sys, count: int, h: float, T: int, seed: int,
                             system: str = "", damped: bool = False,
                             angle_range: float = np.pi / 2,
                             max_tries: int = 25):
    """One draw at a time, slot after slot: (trajectories, rejected
    draws)."""
    out = []
    rejected = 0
    root = np.random.SeedSequence(seed)
    for slot, slot_seq in enumerate(root.spawn(count)):
        accepted = None
        for attempt_seq in slot_seq.spawn(max_tries):
            attempt_seed = int(attempt_seq.generate_state(1)[0])
            rng = np.random.default_rng(attempt_seq)
            q0 = rng.uniform(-angle_range, angle_range, size=sys.n)
            try:
                traj = simulate(sys, q0, h, T, system=system,
                                seed=attempt_seed)
            except (NewtonConvergenceError, IntegrationBlowupError):
                rejected += 1
                continue
            if energy_drift_ok(sys, traj, damped=damped):
                accepted = traj
                break
            rejected += 1
        if accepted is None:
            raise DrawsExhaustedError(
                f"trajectory slot {slot}: all {max_tries} draws failed to "
                "converge or left the energy band")
        out.append(accepted)
    return out, rejected


# -- mechanics references ------------------------------------------------------

def lagrangian(system, q, qdot) -> float:
    q = np.asarray(q, dtype=np.float64)
    qdot = np.asarray(qdot, dtype=np.float64)
    return float(0.5 * qdot @ system.mass_matrix(q) @ qdot
                 - system.potential(q))


def discrete_lagrangian(system, q1, q2, h) -> float:
    """Midpoint rule: h · L((q1+q2)/2, (q2−q1)/h)."""
    q1 = np.asarray(q1, dtype=np.float64)
    q2 = np.asarray(q2, dtype=np.float64)
    return h * lagrangian(system, 0.5 * (q1 + q2), (q2 - q1) / h)


def discrete_force(system, q1, q2, h) -> np.ndarray:
    """Midpoint rule: h · F((q1+q2)/2, (q2−q1)/h)."""
    q1 = np.asarray(q1, dtype=np.float64)
    q2 = np.asarray(q2, dtype=np.float64)
    return h * system.force(0.5 * (q1 + q2), (q2 - q1) / h)


def del_residual(system, triple) -> float:
    d = del_vector(system, triple)
    return float(d @ d)


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


def exact_traj(system, q0, h, T, split=""):
    """RK4 rollout from rest with the system's accelerations recorded at
    each state, as smoothed data."""
    acc = partial(acceleration, system)
    q = np.zeros((T, len(q0)))
    qd = np.zeros_like(q)
    q[0] = q0
    for t in range(T - 1):
        q[t + 1], qd[t + 1] = rk4_step(acc, q[t], qd[t], h)
    qdd = np.array([acc(q[t], qd[t]) for t in range(T)])
    return smo.SmoothedTrajectory(q=q, qdot=qd, qddot=qdd, h=h, split=split)


def system_del_mean(system, batch):
    """Mean squared DEL residual of a system on del tuples."""
    vals = [del_residual(system, mech.ConfigTriple(
        batch.data["q1"][i], batch.data["q2"][i], batch.data["q3"][i],
        batch.h)) for i in range(len(batch))]
    return float(np.mean(vals))


def system_accel_mse(system, batch):
    q, qd, qdd = (batch.data["q"], batch.data["qdot"], batch.data["qddot"])
    pred = np.array([acceleration(system, q[i], qd[i])
                     for i in range(len(batch))])
    return float(np.mean((pred - qdd) ** 2))


def system_nextstate_mse(system, batch, h):
    acc = partial(acceleration, system)
    err = 0.0
    for i in range(len(batch)):
        qn, vn = rk4_step(acc, batch.data["q"][i], batch.data["qdot"][i], h)
        err += np.sum((qn - batch.data["qnext"][i]) ** 2)
        err += np.sum((vn - batch.data["qdotnext"][i]) ** 2)
    return float(err / (2.0 * batch.data["q"].size))


# -- the numpy SMM model -------------------------------------------------------

def slot(params, key):
    """A writable (rows, cols) view of one layout slot of the vector."""
    shape, s, e = params.layout.slot(key)
    return params.values[s:e].reshape(shape)


def last_bias(params, net):
    return slot(params, f"{net}.{len(params.layout.layers[net]) - 1}.b")


def scale_params(params, gamma: float):
    """Shift every log-scale by ln γ: M, V, F all scale pointwise by γ."""
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    scaled = FlatParams(params.values.copy(), params.layout)
    slot(scaled, "log_scales")[:] += np.log(gamma)
    return scaled


def mlp(params, net, x):
    """tanh on hidden layers, linear output, at one input row."""
    a = np.asarray(x, dtype=np.float64).reshape(1, -1)
    last = len(params.layout.layers[net]) - 1
    for i in range(last + 1):
        a = a @ slot(params, f"{net}.{i}.W") + slot(params, f"{net}.{i}.b")
        if i < last:
            a = np.tanh(a)
    return a[0]


def log_scale(params, which):
    return slot(params, "log_scales")[0, which]


def chol_factor(params, q):
    """Unscaled lower-triangular factor L(q) from the mass net output."""
    arch = params.layout.arch
    out = mlp(params, "mass", q)
    L = np.zeros((arch.n, arch.n))
    t = 0
    for i in range(arch.n):
        for j in range(i + 1):
            L[i, j] = dc._softplus_np(out[t]) + arch.eps if i == j else out[t]
            t += 1
    return L


def mass_matrix(params, q):
    """exp(s_M) · L(q) L(q)ᵀ."""
    L = chol_factor(params, q)
    return np.exp(log_scale(params, 0)) * (L @ L.T)


def potential(params, q):
    return float(np.exp(log_scale(params, 1)) * mlp(params, "potential", q)[0])


def potential_gradient(params, q):
    """∇V(q): the potential net's input Jacobian, carried layer by layer
    beside its activations."""
    a = np.asarray(q, dtype=np.float64).reshape(1, -1)
    J = np.eye(a.shape[1])
    last = len(params.layout.layers["potential"]) - 1
    for i in range(last + 1):
        W = slot(params, f"potential.{i}.W")
        a = a @ W + slot(params, f"potential.{i}.b")
        J = J @ W
        if i < last:
            a = np.tanh(a)
            J = J * (1.0 - a * a)
    return np.exp(log_scale(params, 1)) * J[:, 0]


def force(params, q, qdot):
    if params.layout.arch.conservative:
        raise ConservativeForceError("model has no force net")
    x = np.concatenate([np.asarray(q, dtype=np.float64).ravel(),
                        np.asarray(qdot, dtype=np.float64).ravel()])
    return np.exp(log_scale(params, 2)) * mlp(params, "force", x)


class SmmSystem(FdSystem):
    """LagrangianSystem view of learned parameters, with reverse-mode
    tape derivatives of M and V."""

    def __init__(self, params):
        self.params = params
        self.n = params.layout.arch.n

    def mass_matrix(self, q):
        return mass_matrix(self.params, q)

    def potential(self, q):
        return potential(self.params, q)

    def force(self, q, qdot):
        if self.params.layout.arch.conservative:
            return super().force(q, qdot)
        return force(self.params, q, qdot)

    def _theta(self, tape):
        return tape.constant(self.params.values.reshape(1, -1))

    def potential_gradient(self, q):
        def f(qt):
            return potential_t(self._theta(qt.tape), self.params.layout,
                               qt)[0]

        return grad(f, np.asarray(q, dtype=np.float64))

    def mass_jacobian(self, q):
        n = self.n

        def f(qt):
            ent, _, _ = mass_entries_t(self._theta(qt.tape),
                                       self.params.layout, qt)
            return concat_cols([ent[(i, j)] for i in range(n)
                                for j in range(n)])

        J = jacobian(f, np.asarray(q, dtype=np.float64))
        dM = np.empty((n, n, n))
        for k in range(n):
            dM[k] = J[:, k].reshape(n, n)
        return dM


# -- readouts of the library's loss graphs -------------------------------------

def del_loss_terms(params, batch, alpha=0.0):
    """(mean residual, mean logdet(M - alpha I)) as plain floats."""
    _, _, _, rho, ld = tr._del_graph(params, batch, 1.0, alpha)
    return rho.value.item(), ld.value.item()


def nextstate_predictions(params, batch, h):
    """RK4 one-step predictions as value arrays (the graph's own forward)."""
    _, _, _, (Qp, Vp) = tr._nextstate_graph(params, batch, h)
    return Qp, Vp


def barrier_grad(params, configs, alpha):
    """Gradient of the mean logdet(M - alpha I) over the given configs,
    from the barrier stage's adjoint."""
    Q = np.asarray(configs, dtype=np.float64)
    _, adjoint = tr._barrier_np(params.values.reshape(1, -1), params.layout,
                                Q, alpha)
    g = np.zeros((1, params.layout.total))
    adjoint(np.full((len(Q), 1), 1.0 / len(Q)), g)
    return g.ravel()


# -- matrix-form Kalman filter and EM ------------------------------------------

E1 = np.array([[1.0, 0.0, 0.0]])


def matrix_kalman_filter(model, y, C=E1) -> smo.FilterResult:
    """The filter with c P cᵀ, P cᵀ, C m and I − K c as products for a
    general (1, d) observation row, raising at the first degenerate step."""
    Y = np.asarray(y, dtype=np.float64)
    T, K = Y.shape
    A, Q = model.A, model.Q
    c = np.asarray(C, dtype=np.float64).ravel()
    ccol = c[:, None]
    d = A.shape[0]
    R = np.broadcast_to(np.asarray(model.R, dtype=np.float64), (K,))
    means = np.empty((T, K, d))
    covs = np.empty((T, K, d, d))
    pred_means = np.empty((T, K, d))
    pred_covs = np.empty((T, K, d, d))
    eye = np.eye(d)
    loglik = np.zeros(K)
    m = np.broadcast_to(model.m0, (K, d)).copy()
    P = np.broadcast_to(model.P0, (K, d, d)).copy()
    for t in range(T):
        if t > 0:
            m = np.matmul(A, m[:, :, None])[:, :, 0]
            P = np.matmul(np.matmul(A, P), A.T) + Q
        pred_means[t] = m
        pred_covs[t] = P
        s = np.matmul(np.matmul(c, P)[:, None, :], ccol)[:, 0, 0] + R
        bad = (s <= 0) | ~np.isfinite(s)
        if bad.any():
            k = int(np.flatnonzero(bad)[0])
            raise smo.NumericalDegeneracyError(
                f"innovation variance {s[k]} at t={t} in series {k}")
        innov = Y[t] - np.matmul(m[:, None, :], ccol)[:, 0, 0]
        loglik += -0.5 * (np.log(2.0 * np.pi * s) + innov * innov / s)
        Kg = np.matmul(P, ccol)[:, :, 0] / s[:, None]
        m = m + Kg * innov[:, None]
        IKC = eye - Kg[:, :, None] * c
        P = (np.matmul(np.matmul(IKC, P), IKC.swapaxes(-1, -2))
             + (Kg[:, :, None] * Kg[:, None, :]) * R[:, None, None])
        means[t] = m
        covs[t] = P
    return smo.FilterResult(means, covs, pred_means, pred_covs, loglik)


def matrix_em_fit(y, dt, iters=smo.EM_ITERS, gain_tol=smo.EM_GAIN_TOL):
    """`smo.em_fit` on `matrix_kalman_filter`, with the M-step's C m and
    C P Cᵀ as a matmul and an einsum over (K, T, ...) copies."""
    Y = np.asarray(y, dtype=np.float64)
    T, K = Y.shape
    yk = np.ascontiguousarray(Y.T)
    r0 = np.var(np.diff(yk, axis=1), axis=1) if T > 1 else np.ones(K)
    A = smo.transition_matrix(dt)
    Q = smo.FIXED_Q
    c = E1.ravel()
    R = np.maximum(r0, smo.R_FLOOR)
    v0 = (Y[1] - Y[0]) / dt if T > 1 else np.zeros(K)
    m0 = np.stack([Y[0], v0, np.zeros(K)], axis=1)
    P0 = np.broadcast_to(np.diag([1.0, 1.0, 10.0]), (K, 3, 3)).copy()
    fit_R, fit_m0, fit_P0 = np.empty(K), np.empty((K, 3)), np.empty((K, 3, 3))
    out = smo.SmoothResult(np.empty((T, K, 3)), np.empty((T, K, 3, 3)),
                           np.empty(K))
    logliks = [[] for _ in range(K)]
    iterations = [0] * K
    active = np.arange(K)
    for it in range(iters + 1):
        model = smo.LdsModel(A=A, Q=Q, R=R, m0=m0, P0=P0)
        filt = matrix_kalman_filter(model, Y[:, active])
        gain = np.full(active.size, np.inf)
        if it > 0:
            assert np.all(filt.loglik >= prev - smo.EM_SLACK)
            gain = filt.loglik - prev
        for j, k in enumerate(active):
            logliks[k].append(filt.loglik[j])
        smooth = smo.rts_smooth(model, filt)
        done = gain < gain_tol if it < iters else np.ones(active.size, bool)
        if done.any():
            k = active[done]
            fit_R[k], fit_m0[k], fit_P0[k] = R[done], m0[done], P0[done]
            out.means[:, k] = smooth.means[:, done]
            out.covs[:, k] = smooth.covs[:, done]
            out.loglik[k] = smooth.loglik[done]
            for i in k:
                iterations[i] = it + 1
        keep = ~done
        if not keep.any():
            break
        active = active[keep]
        prev = filt.loglik[keep]
        means = np.ascontiguousarray(smooth.means[:, keep].transpose(1, 0, 2))
        covs = np.ascontiguousarray(
            smooth.covs[:, keep].transpose(1, 0, 2, 3))
        resid = yk[active] - np.matmul(means, c)
        cpc = np.einsum("i,ktij,j->kt", c, covs, c)
        R = np.maximum(np.mean(resid ** 2 + cpc, axis=1), smo.R_FLOOR)
        m0 = means[:, 0]
        P0 = covs[:, 0]
    model = smo.LdsModel(A=A, Q=Q, R=fit_R, m0=fit_m0, P0=fit_P0)
    return smo.EmResult(model, logliks, iterations, out)
