"""Reference code the tests compare `smmfit` against.

- The SMM point model of a raw parameter vector, real or complex, over
  rows of points: M and ∂M/∂q, V and ∇V, F, the dynamics, the DEL
  residual, the log-det barrier, the RK4 step and the losses.  It is the
  one oracle for the model: a gradient along a direction is one complex
  step (`complex_step`), with no tape.  `SmmSystem` is its one-point view.
- Central differences (`fd`, `FdSystem`, `fd_max_rel_err`) and the
  acceptance sweep's loss-gradient cases.
- The one-point mechanics path (`ScalarDP`, `acceleration`,
  `del_vector`, `del_jacobian_q3`, `variational_step`, `simulate`,
  `midpoint_energy`, `energy_drift_ok`, `sample_rest_trajectories`),
  the library's former code and the bit-exact reference for its rows;
  its `cholesky` and `cho_solve` work entry by entry in the library's
  order.  `Rows` adapts a one-point system to the library's (K, n) rows.
- Mechanics references (the continuous and midpoint discrete Lagrangian
  and force, an RK4 step, the `system_*` scores of any system) and
  readouts of the library's loss graphs and barrier stage.
- The smoother's former matrix-form Kalman filter and EM, which take
  the observation row C as a product where the library selects the
  position.
"""

from functools import lru_cache, partial

import numpy as np

from smmfit import mechanics as mech
from smmfit import smoother as smo
from smmfit import training as tr
from smmfit.integrators import (DrawsExhaustedError, IntegrationBlowupError,
                                NEWTON_MAX_ITER, NEWTON_TOL,
                                NewtonConvergenceError, Trajectory)
from smmfit.netparam import MASS_EPS, ConservativeForceError, FlatParams

FD_STEP = 1e-6


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

    HOOKS = ("mass_matrix", "potential", "force", "mass_jacobian",
             "potential_gradient", "mass_hessian", "potential_hessian",
             "force_jacobian_q", "force_jacobian_qdot")

    def __init__(self, inner):
        self.inner = inner
        self.n = inner.n

    def __getattr__(self, hook):
        if hook not in self.HOOKS:
            raise AttributeError(hook)
        one = getattr(self.inner, hook)
        return lambda *rows: np.array([one(*point) for point in zip(*rows)],
                                      dtype=np.float64)


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


def cholesky(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of one symmetric matrix, or of each in a
    (B, n, n) stack, real or complex, from its lower triangle, entry by
    entry in the library's order: each entry below the diagonal times its
    column's reciprocal pivot.  A pivot whose real part is not positive
    and finite in any row raises as the library's factor does: its index,
    and its value in the first such row."""
    A = np.asarray(a).T * 1.0
    L = np.zeros_like(A.T)
    # A[j, i] is a[..., i, j]: a scalar for one matrix, a row for a stack
    T = L.T
    for i in range(len(A)):
        for j in range(i + 1):
            acc = A[j, i]
            for k in range(j):
                acc = acc - T[k, i] * T[k, j]
            if i == j:
                piv = acc.real
                ok = (piv > 0.0) & (piv < np.inf)
                if not ok.all():
                    raise mech.NotPositiveDefiniteError(
                        i, float(np.ravel(piv)[np.ravel(ok).argmin()]))
                T[i, i] = np.sqrt(acc)
            else:
                T[j, i] = acc * (1.0 / T[j, j])
    return L


def cho_solve(L, b) -> np.ndarray:
    """x with L Lᵀ x = b for one vector, or for each row of a (B, n) b
    with L a (B, n, n) stack: forward then back substitution, entry by
    entry, each step times the reciprocal pivot."""
    T, bt = np.asarray(L).T, np.asarray(b).T
    n = len(bt)
    r = [1.0 / T[i, i] for i in range(n)]
    y = [None] * n
    for i in range(n):
        acc = bt[i]
        for j in range(i):
            acc = acc - T[j, i] * y[j]
        y[i] = acc * r[i]
    for i in reversed(range(n)):
        acc = y[i]
        for j in range(i + 1, n):
            acc = acc - T[i, j] * y[j]
        y[i] = acc * r[i]
    return np.array(y).T


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
        return state_v, np.asarray(accel_fn(state_q, state_v))

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


# -- the point model -----------------------------------------------------------
#
# Every function is analytic in theta and in the rows, so one complex step
# Im f(θ + i t δ) / t gives ⟨∇f(θ), δ⟩ to rounding, without the
# cancellation that limits central differences to about 1e-6: elementwise
# functions through `_first_order`, squares as E * E, factors entry by
# entry, derivatives in q carried forward, and no np.abs, np.maximum or
# LAPACK call on a complex array.

CS_STEP = 1e-30


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


def _first_order(f, df):
    """f on a real or complex array, as f(x) + i y f'(x) at z = x + i y:
    the analytic f to rounding while |y| is below about 1e-8, as every
    imaginary part of a complex step is.  Right after a complex matrix
    product, numpy's complex exp, log1p and tanh ran 10-40 times slower
    than this."""
    def lifted(z):
        if not np.iscomplexobj(z):
            return f(z)
        return f(z.real) + 1j * (z.imag * df(z.real))
    return lifted


def _sig(x):
    return 1.0 / (1.0 + np.exp(-x))


_exp = _first_order(np.exp, np.exp)
_log = _first_order(np.log, lambda x: 1.0 / x)
_tanh = _first_order(np.tanh, lambda x: 1.0 / np.cosh(x) ** 2)
_softplus = _first_order(lambda x: np.log1p(np.exp(x)), _sig)
_sigmoid = _first_order(_sig, lambda x: _sig(x) * (1.0 - _sig(x)))


def log_scale(theta, layout, which):
    return theta[layout.slot("log_scales")[1] + which]


def mlp(theta, layout, net, X, jac=False):
    """The net at the rows of ``X`` (B, d), tanh on hidden layers and a
    linear output: (out (B, m), and with ``jac`` its Jacobian in X as
    (B, d, m), carried forward beside the activations, else None)."""
    d = X.shape[1]
    a, J = X, np.eye(d)[None] if jac else None
    last = len(layout.layers[net]) - 1
    for i, ((shape, s, e), (_, sb, eb)) in enumerate(layout.layers[net]):
        W = theta[s:e].reshape(shape)
        a = a @ W + theta[sb:eb]
        if jac:
            J = (J.reshape(-1, shape[0]) @ W).reshape(-1, d, shape[1])
        if i < last:
            a = _tanh(a)
            if jac:
                J = J * (1.0 - a * a)[:, None]
    return a, J


@lru_cache(maxsize=None)
def _tril(n):
    """The lower triangle's (i, j) in packed order, and its diagonal's
    places in that order."""
    i, j = np.tril_indices(n)
    return i, j, np.flatnonzero(i == j)


def mass_matrix(theta, layout, Q, jac=False):
    """M(q) = e^{s_M} L Lᵀ at the rows of ``Q``, (B, n, n), L the mass
    net's lower factor with softplus + eps on its diagonal; and with
    ``jac`` ∂M/∂q as (B, n, n, n), ∂M/∂q_k at [:, k], else None.  Each
    is a view of an entry-major array, rows on its last axis, so that
    every entry is one contiguous row."""
    n = layout.arch.n
    out, J = mlp(theta, layout, "mass", Q, jac)
    i, j, d = _tril(n)
    s = _exp(log_scale(theta, layout, 0))
    E = out.T.copy()
    E[d] = _softplus(E[d]) + MASS_EPS
    L = np.zeros((n, n, len(Q)), E.dtype)
    L[i, j] = E
    M = s * (L[:, None] * L).sum(2)
    if not jac:
        return M.transpose(2, 0, 1), None
    # softplus' is the sigmoid
    G = J.transpose(1, 2, 0).copy()
    G[:, d] *= _sigmoid(out.T[d])
    dL = np.zeros((n, n, n, len(Q)), G.dtype)
    dL[:, i, j] = G
    C = (dL[:, :, None] * L).sum(3)
    return M.transpose(2, 0, 1), (s * (C + C.swapaxes(1, 2))).transpose(
        3, 0, 1, 2)


def potential(theta, layout, Q, jac=False):
    """V(q) at the rows of ``Q``, (B,), and with ``jac`` ∇V as (B, n)."""
    out, J = mlp(theta, layout, "potential", Q, jac)
    s = _exp(log_scale(theta, layout, 1))
    return s * out[:, 0], None if J is None else s * J[..., 0]


def force(theta, layout, Q, Qdot):
    """F(q, q̇) at the rows of (Q, Qdot), (B, n)."""
    if layout.arch.conservative:
        raise ConservativeForceError("model has no force net")
    out, _ = mlp(theta, layout, "force", np.concatenate([Q, Qdot], 1))
    return _exp(log_scale(theta, layout, 2)) * out


def _dynamics(theta, layout, Q, V):
    """M, ∂M/∂q and ∂L/∂q at the rows of (Q, V)."""
    M, dM = mass_matrix(theta, layout, Q, True)
    _, dV = potential(theta, layout, Q, True)
    vv = V[:, :, None] * V[:, None]
    return M, dM, 0.5 * (dM * vv[:, None]).sum((2, 3)) - dV


def accelerations(theta, layout, Q, Qdot):
    """q̈ at the rows of (Q, Qdot), (B, n): M q̈ = ∂L/∂q - (∂(M q̇)/∂q) q̇
    (+ F)."""
    M, dM, tau = _dynamics(theta, layout, Q, Qdot)
    D = (dM * Qdot[:, :, None, None]).sum(1)
    tau = tau - (D * Qdot[:, None]).sum(2)
    if not layout.arch.conservative:
        tau = tau + force(theta, layout, Q, Qdot)
    return cho_solve(cholesky(M), tau)


def del_residuals(theta, layout, batch):
    """The DEL vector of each tuple of a del batch, (B, n): the midpoint
    arms h/2 ∂L/∂q ± M v of (q1, q2) and of (q2, q3), plus h/2 (F + F)."""
    h = batch.h
    q1, q2, q3 = (batch.data[k] for k in ("q1", "q2", "q3"))
    out = 0.0
    for qa, qb, sign in ((q1, q2, 1.0), (q2, q3, -1.0)):
        X, v = (qa + qb) / 2.0, (qb - qa) / h
        M, _, dL = _dynamics(theta, layout, X, v)
        out = out + 0.5 * h * dL + sign * (M * v[:, None]).sum(2)
        if not layout.arch.conservative:
            out = out + 0.5 * h * force(theta, layout, X, v)
    return out


def log_dets(theta, layout, Q, shift):
    """log det(M(q) - shift I) at the rows of ``Q``, (B,)."""
    M, _ = mass_matrix(theta, layout, Q)
    S = cholesky(M - shift * np.eye(layout.arch.n))
    return 2.0 * _log(np.diagonal(S, axis1=1, axis2=2)).sum(1)


def rk4_predictions(theta, layout, batch):
    """The RK4 step's (Qp, Vp) from each state of a nextstate batch."""
    return rk4_step(partial(accelerations, theta, layout), batch.data["q"],
                    batch.data["qdot"], batch.h)


def loss(theta, layout, batch, mu=0.0, alpha=0.0):
    """The loss of a batch of either kind: the mean squared DEL residual
    minus mu times the mean log det(M(q2) - alpha I), or the mean squared
    error of the accelerations or of the RK4 step's (Qp, Vp)."""
    data = batch.data
    if batch.kind == "del":
        d = del_residuals(theta, layout, batch)
        ld = np.mean(log_dets(theta, layout, data["q2"], alpha)) if mu else 0
        return np.sum(d * d) / len(batch) - mu * ld
    if batch.kind == "accel":
        E = accelerations(theta, layout, data["q"], data["qdot"]) \
            - data["qddot"]
    else:
        Qp, Vp = rk4_predictions(theta, layout, batch)
        E = np.concatenate([Qp - data["qnext"], Vp - data["qdotnext"]], 1)
    return np.sum(E * E) / E.size


def complex_step(f, x, direction):
    """⟨∇f(x), direction⟩ for every output of ``f`` by one complex step:
    Im f(x + i t·direction) / t, with t = `CS_STEP`."""
    return np.imag(f(x + (1j * CS_STEP) * direction)) / CS_STEP


def directions(layout, rng, count=4):
    """``count`` random directions in theta, then one random direction
    inside each layout slot: every W, b and the log-scales."""
    out = [rng.normal(size=layout.total) for _ in range(count)]
    for _, _, s, e in layout.slots:
        d = np.zeros(layout.total)
        d[s:e] = rng.normal(size=e - s)
        out.append(d)
    return out


def _row(q):
    return np.asarray(q, dtype=np.float64).reshape(1, -1)


class SmmSystem(FdSystem):
    """LagrangianSystem view of learned parameters: one-point hooks of
    the point model, ∂M/∂q and ∇V its forward-mode derivatives, the
    second derivatives FdSystem's central differences of those."""

    def __init__(self, params):
        self.theta, self.layout = params.values, params.layout
        self.n = params.layout.arch.n

    def mass_matrix(self, q):
        return mass_matrix(self.theta, self.layout, _row(q))[0][0]

    def mass_jacobian(self, q):
        return mass_matrix(self.theta, self.layout, _row(q), True)[1][0]

    def potential(self, q):
        return float(potential(self.theta, self.layout, _row(q))[0][0])

    def potential_gradient(self, q):
        return potential(self.theta, self.layout, _row(q), True)[1][0]

    def force(self, q, qdot):
        if self.layout.arch.conservative:
            return super().force(q, qdot)
        return force(self.theta, self.layout, _row(q), _row(qdot))[0]


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
    mass = tr._shifted_mass(params.values.reshape(1, -1), params.layout, Q,
                            alpha)
    _, adjoint = tr._barrier_np(mass, np.arange(len(Q)))
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
