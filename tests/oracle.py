"""Plain-numpy single-point SMM model: the test oracle for the batched
tape builders in `smmfit.netparam` and the losses in `smmfit.training`.

Weights and biases are read out of a `FlatParams` vector through its
layout's slots.  `SmmSystem` takes M and V derivatives from reverse-mode
`dc.grad`/`dc.jacobian` sweeps over the builders, an independent path
from the forward-mode directions the losses use.  The `system_*`
functions score any `LagrangianSystem` row by row through `mechanics`.
"""

import numpy as np

from smmfit import diffcore as dc
from smmfit import mechanics as mech
from smmfit.integrators import rk4_step
from smmfit.netparam import (ConservativeForceError, mass_entries_t,
                             potential_t)


def slot(params, key):
    """A writable (rows, cols) view of one layout slot of the vector."""
    shape, s, e = params.layout.slot(key)
    return params.values[s:e].reshape(shape)


def last_bias(params, net):
    return slot(params, f"{net}.{params.layout.n_layers(net) - 1}.b")


def mlp(params, net, x):
    """tanh on hidden layers, linear output, at one input row."""
    a = np.asarray(x, dtype=np.float64).reshape(1, -1)
    last = params.layout.n_layers(net) - 1
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


def force(params, q, qdot):
    if params.layout.arch.conservative:
        raise ConservativeForceError("model has no force net")
    x = np.concatenate([np.asarray(q, dtype=np.float64).ravel(),
                        np.asarray(qdot, dtype=np.float64).ravel()])
    return np.exp(log_scale(params, 2)) * mlp(params, "force", x)


class SmmSystem(mech.LagrangianSystem):
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
            return np.zeros(self.n)
        return force(self.params, q, qdot)

    def _theta(self, tape):
        return tape.constant(self.params.values.reshape(1, -1))

    def potential_gradient(self, q):
        def f(qt):
            return potential_t(self._theta(qt.tape), self.params.layout,
                               qt)[0]

        return dc.grad(f, np.asarray(q, dtype=np.float64))

    def mass_jacobian(self, q):
        n = self.n

        def f(qt):
            ent, _, _ = mass_entries_t(self._theta(qt.tape),
                                       self.params.layout, qt)
            return dc.concat_cols([ent[(i, j)] for i in range(n)
                                   for j in range(n)])

        J = dc.jacobian(f, np.asarray(q, dtype=np.float64))
        dM = np.empty((n, n, n))
        for k in range(n):
            dM[k] = J[:, k].reshape(n, n)
        return dM


def system_del_mean(system, batch):
    """Mean squared DEL residual of a system on del tuples."""
    vals = [mech.del_residual(system, mech.ConfigTriple(
        batch.data["q1"][i], batch.data["q2"][i], batch.data["q3"][i],
        batch.h)) for i in range(len(batch))]
    return float(np.mean(vals))


def system_accel_mse(system, batch):
    q, qd, qdd = (batch.data["q"], batch.data["qdot"], batch.data["qddot"])
    pred = np.array([mech.acceleration(system, q[i], qd[i])
                     for i in range(len(batch))])
    return float(np.mean((pred - qdd) ** 2))


def system_nextstate_mse(system, batch, h):
    def acc(qq, vv):
        return mech.acceleration(system, qq, vv)

    err = 0.0
    for i in range(len(batch)):
        qn, vn = rk4_step(acc, batch.data["q"][i], batch.data["qdot"][i], h)
        err += np.sum((qn - batch.data["qnext"][i]) ** 2)
        err += np.sum((vn - batch.data["qdotnext"][i]) ** 2)
    return float(err / (2.0 * batch.data["q"].size))
