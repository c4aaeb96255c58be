"""The per-entry column graph the fused SMM nodes replace: the bit-exact
oracle for `tests/test_fused.py`.

Every M, dM, L and Cholesky-solve entry here is its own (B, 1) tape node,
as the library built them before the fused nodes.  The fused nodes must
reproduce these losses and gradients bit for bit.
"""

import numpy as np

from smmfit import diffcore as dc
from smmfit.integrators import IntegrationBlowupError
from smmfit.netparam import force_t, mass_entries_t, potential_t
from smmfit.training import BarrierViolationError


def chol_solve_t(L_ent, rhs_cols):
    """Solve L Lᵀ x = b for batched per-entry columns."""
    n = len(rhs_cols)
    y = []
    for i in range(n):
        acc = rhs_cols[i]
        for j in range(i):
            acc = dc.add(acc, dc.neg(dc.mul(L_ent[(i, j)], y[j])))
        y.append(dc.mul(acc, dc.reciprocal(L_ent[(i, i)])))
    x = [None] * n
    for i in range(n - 1, -1, -1):
        acc = y[i]
        for j in range(i + 1, n):
            acc = dc.add(acc, dc.neg(dc.mul(L_ent[(j, i)], x[j])))
        x[i] = dc.mul(acc, dc.reciprocal(L_ent[(i, i)]))
    return x


def accel_cols(tape, theta, layout, X, Xd):
    """Batched acceleration columns at (X, Xd)."""
    n = layout.arch.n
    dirs = [tape.constant(np.eye(n)[k:k + 1]) for k in range(n)]
    M, dM, L = mass_entries_t(theta, layout, X, dirs)
    _, dV = potential_t(theta, layout, X, dirs)
    xd = [dc.cols(Xd, j, j + 1) for j in range(n)]
    rhs = []
    for i in range(n):
        quad = None
        curv = None
        for k in range(n):
            for j in range(n):
                qt = dc.mul(dc.mul(dM[i][(k, j)], xd[k]), xd[j])
                quad = qt if quad is None else dc.add(quad, qt)
                ct = dc.mul(dc.mul(dM[k][(i, j)], xd[j]), xd[k])
                curv = ct if curv is None else dc.add(curv, ct)
        r = dc.add(dc.scale(quad, 0.5), dc.neg(dV[i]))
        rhs.append(dc.add(r, dc.neg(curv)))
    if not layout.arch.conservative:
        F = force_t(theta, layout, X, Xd)
        rhs = [dc.add(r, dc.cols(F, i, i + 1)) for i, r in enumerate(rhs)]
    return chol_solve_t(L, rhs)


def shifted_cholesky(ent, n, shift):
    """Factor entries of M - shift I and the (B, 1) log-det column."""
    L = {}
    ld = None
    for i in range(n):
        for j in range(i + 1):
            acc = ent[(i, j)]
            if i == j and shift != 0.0:
                acc = dc.shift(acc, -shift)
            for k in range(j):
                acc = dc.add(acc, dc.neg(dc.mul(L[(i, k)], L[(j, k)])))
            if i == j:
                piv = acc.value
                if not np.all(np.isfinite(piv)) or np.any(piv <= 0.0):
                    raise BarrierViolationError(i, float(np.nanmin(piv)))
                L[(i, i)] = dc.sqrt(acc)
                ld = dc.log(acc) if ld is None else dc.add(ld, dc.log(acc))
            else:
                L[(i, j)] = dc.mul(acc, dc.reciprocal(L[(j, j)]))
    return L, ld


def del_graph(flat, batch, mu, alpha, with_barrier=True):
    """(tape, theta, loss, rho, mean log-det) of the DEL loss."""
    layout = flat.layout
    n = layout.arch.n
    q1, q2, q3 = batch.data["q1"], batch.data["q2"], batch.data["q3"]
    h = batch.h
    tape = dc.Tape()
    theta = tape.input(flat.values.reshape(1, -1))
    dirs = [tape.constant(np.eye(n)[k:k + 1]) for k in range(n)]

    def arm(qa, qb):
        X = tape.constant((qa + qb) / 2.0)
        v = (qb - qa) / h
        M, dM, _ = mass_entries_t(theta, layout, X, dirs)
        _, dV = potential_t(theta, layout, X, dirs)
        vc = [tape.constant(v[:, j:j + 1]) for j in range(n)]
        gL, p = [], []
        for k in range(n):
            quad = None
            for i in range(n):
                for j in range(n):
                    t = dc.mul(dc.mul(dM[k][(i, j)], vc[i]), vc[j])
                    quad = t if quad is None else dc.add(quad, t)
            gL.append(dc.add(dc.scale(quad, 0.5), dc.neg(dV[k])))
        for i in range(n):
            acc = None
            for j in range(n):
                t = dc.mul(M[(i, j)], vc[j])
                acc = t if acc is None else dc.add(acc, t)
            p.append(acc)
        F = None
        if not layout.arch.conservative:
            F = force_t(theta, layout, X, tape.constant(v))
        return gL, p, F

    gLa, pa, Fa = arm(q1, q2)
    gLb, pb, Fb = arm(q2, q3)
    out = []
    for i in range(n):
        d = dc.scale(dc.add(gLa[i], gLb[i]), h / 2.0)
        d = dc.add(d, dc.add(pa[i], dc.neg(pb[i])))
        if Fa is not None:
            fi = dc.add(dc.cols(Fa, i, i + 1), dc.cols(Fb, i, i + 1))
            d = dc.add(d, dc.scale(fi, h / 2.0))
        out.append(d)
    rho = dc.scale(dc.sumsq(dc.concat_cols(out)), 1.0 / len(batch))
    ld_mean = None
    loss = rho
    if with_barrier:
        ent, _, _ = mass_entries_t(theta, layout, tape.constant(q2))
        _, ld = shifted_cholesky(ent, n, alpha)
        ld_mean = dc.mean_all(ld)
        loss = dc.add(rho, dc.scale(ld_mean, -mu))
    return tape, theta, loss, rho, ld_mean


def accel_graph(flat, batch):
    tape = dc.Tape()
    theta = tape.input(flat.values.reshape(1, -1))
    X = tape.constant(batch.data["q"])
    Xd = tape.constant(batch.data["qdot"])
    A = dc.concat_cols(accel_cols(tape, theta, flat.layout, X, Xd))
    E = dc.add(A, tape.constant(-batch.data["qddot"]))
    loss = dc.scale(dc.sumsq(E), 1.0 / batch.data["q"].size)
    return tape, theta, loss, A


def nextstate_graph(flat, batch, h):
    layout = flat.layout
    tape = dc.Tape()
    theta = tape.input(flat.values.reshape(1, -1))
    X = tape.constant(batch.data["q"])
    Xd = tape.constant(batch.data["qdot"])

    def acc(Xs, Vs):
        A = dc.concat_cols(accel_cols(tape, theta, layout, Xs, Vs))
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


def loss_grad(graph):
    """(loss value, gradient) from a (tape, theta, loss, ...) graph."""
    tape, theta, loss = graph[:3]
    g = tape.gradients(loss, [theta])[0]
    return loss.value.item(), g.value.ravel().copy()


def predicted_accelerations(flat, q, qdot):
    tape = dc.Tape()
    theta = tape.constant(flat.values.reshape(1, -1))
    A = dc.concat_cols(accel_cols(tape, theta, flat.layout, tape.constant(q),
                                  tape.constant(qdot)))
    return A.value.copy()


def barrier_grad(flat, configs, alpha):
    tape = dc.Tape()
    theta = tape.input(flat.values.reshape(1, -1))
    ent, _, _ = mass_entries_t(theta, flat.layout, tape.constant(configs))
    _, ld = shifted_cholesky(ent, flat.layout.arch.n, alpha)
    g = tape.gradients(dc.mean_all(ld), [theta])[0]
    return g.value.ravel().copy()
