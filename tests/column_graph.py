"""The per-node graph the fused SMM nodes replace: the independent
reverse-mode oracle for `tests/test_fused.py`.

Every weight slice, matmul, tanh and product of the three nets, every
head entry and every M, dM, L and Cholesky-solve entry here is its own
tape node, as the library built them before its fused net builds and
fused blocks, with the primitives (log, sqrt, reciprocal, tanh, matmul,
softplus, cols, concat_cols, ...) the library no longer needs, rebuilt on
`dc.custom`.  The fused nodes must match these losses and gradients to
rounding.
"""

import numpy as np

from smmfit import diffcore as dc
from smmfit.integrators import IntegrationBlowupError
from smmfit.mechanics import NotPositiveDefiniteError
from smmfit.netparam import ConservativeForceError


# -- primitives ---------------------------------------------------------------

def _t(a):
    return np.ascontiguousarray(a.T)


def log(a):
    if np.any(a.value <= 0.0):
        raise dc.DiffcoreError("log of nonpositive value")
    return dc.custom([a], np.log(a.value), lambda g: (g * (1.0 / a.value),),
                     "log")


def sqrt(a):
    if np.any(a.value < 0.0):
        raise dc.DiffcoreError("sqrt of negative value")
    o = np.sqrt(a.value)
    return dc.custom([a], o, lambda g: (g * (dc._reciprocal_np(o) * 0.5),),
                     "sqrt")


def reciprocal(a):
    o = dc._reciprocal_np(a.value)
    return dc.custom([a], o, lambda g: (-(g * (o * o)),), "reciprocal")


def mul(a, b):
    if not dc._broadcast_ok(a.shape, b.shape):
        raise ValueError(f"mul: incompatible shapes {a.shape} and {b.shape}")
    return dc.custom([a, b], a.value * b.value, lambda g: (
        dc._unbroadcast(g * b.value, a.shape),
        dc._unbroadcast(g * a.value, b.shape)), "mul")


def concat_cols(parts):
    parts = list(parts)
    edges = np.cumsum([0] + [p.shape[1] for p in parts])
    return dc.custom(parts, np.concatenate([p.value for p in parts], axis=1),
                     lambda g: tuple(np.ascontiguousarray(g[:, a:b])
                                     for a, b in zip(edges[:-1], edges[1:])),
                     "concat_cols")


def cols(a, j0, j1):
    def bwd(g):
        v = np.zeros(a.shape)
        v[:, j0:j1] = g
        return (v,)

    return dc.custom([a], np.ascontiguousarray(a.value[:, j0:j1]), bwd,
                     "cols")


def neg(a):
    return dc.custom([a], -a.value, lambda g: (-g,), "neg")


def shift(a, c):
    """Add a plain float elementwise."""
    return dc.custom([a], a.value + c, lambda g: (g,), "shift")


def matmul(a, b):
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul: {a.shape} @ {b.shape}")
    return dc.custom([a, b], a.value @ b.value, lambda g: (
        g @ _t(b.value) if a.requires_grad else None,
        _t(a.value) @ g if b.requires_grad else None), "matmul")


def reshape(a, shape):
    return dc.custom([a], a.value.reshape(shape),
                     lambda g: (g.reshape(a.shape),), "reshape")


def tanh(a):
    o = np.tanh(a.value)
    return dc.custom([a], o, lambda g: (g * (-(o * o) + 1.0),), "tanh")


def exp(a):
    o = dc._exp_np(a.value)
    return dc.custom([a], o, lambda g: (g * o,), "exp")


def softplus(a):
    return dc.custom([a], dc._softplus_np(a.value),
                     lambda g: (g * dc._sigmoid_np(a.value),), "softplus")


def sigmoid(a):
    o = dc._sigmoid_np(a.value)
    return dc.custom([a], o, lambda g: (g * (o * (-o + 1.0)),), "sigmoid")


# -- the nets, one node per operation -----------------------------------------

def log_scale_t(theta, layout, which):
    _, s, e = layout.slot("log_scales")
    return cols(theta, s + which, s + which + 1)


def mlp_t(theta, layout, net, X, dirs=()):
    """Batched MLP forward as a tape graph, weights sliced out of theta,
    plus its directional derivative along each of ``dirs``."""
    a, das = X, list(dirs)
    last = len(layout.layers[net]) - 1
    for i in range(last + 1):
        shape, s, e = layout.slot(f"{net}.{i}.W")
        W = reshape(cols(theta, s, e), shape)
        _, s, e = layout.slot(f"{net}.{i}.b")
        b = cols(theta, s, e)
        a = dc.add(matmul(a, W), b)
        das = [matmul(da, W) for da in das]
        if i < last:
            a = tanh(a)
            if das:
                sech2 = shift(neg(mul(a, a)), 1.0)
                das = [mul(sech2, da) for da in das]
    return a, das


def chol_entries_t(theta, layout, Q, dirs=()):
    """Scaled Cholesky columns {(i,j): (B,1)} with e^{s_M/2} folded in,
    and one such dict per direction."""
    arch = layout.arch
    out, douts = mlp_t(theta, layout, "mass", Q, dirs)
    half = exp(dc.scale(log_scale_t(theta, layout, 0), 0.5))
    ent = {}
    dent = [{} for _ in douts]
    t = 0
    for i in range(arch.n):
        for j in range(i + 1):
            col = cols(out, t, t + 1)
            if i == j:
                ent[(i, j)] = mul(shift(softplus(col), arch.eps), half)
                gate = sigmoid(col) if douts else None
                for d, do in zip(dent, douts):
                    d[(i, j)] = mul(mul(gate, cols(do, t, t + 1)), half)
            else:
                ent[(i, j)] = mul(col, half)
                for d, do in zip(dent, douts):
                    d[(i, j)] = mul(cols(do, t, t + 1), half)
            t += 1
    return ent, dent


def potential_t(theta, layout, Q, dirs=()):
    """Batched V(q) as a (B,1) tape tensor, and its spatial derivatives."""
    out, douts = mlp_t(theta, layout, "potential", Q, dirs)
    g = exp(log_scale_t(theta, layout, 1))
    return mul(out, g), [mul(do, g) for do in douts]


def force_t(theta, layout, Q, Qdot):
    """Batched F(q, q̇) as a (B,n) tape tensor."""
    if layout.arch.conservative:
        raise ConservativeForceError("model has no force net")
    X = concat_cols([Q, Qdot])
    out, _ = mlp_t(theta, layout, "force", X)
    return mul(out, exp(log_scale_t(theta, layout, 2)))


# -- M, the solve and the losses, one node per entry --------------------------

def mass_entries_t(theta, layout, Q, dirs=()):
    """M(q) entries {(i, j): (B, 1)} for all i, j, their spatial
    derivatives per direction, and the scaled factor, one node per
    product and sum."""
    n = layout.arch.n
    L, dL = chol_entries_t(theta, layout, Q, dirs)
    M = {}
    dM = [{} for _ in dL]
    for i in range(n):
        for j in range(i + 1):
            acc = None
            for k in range(j + 1):
                t = mul(L[(i, k)], L[(j, k)])
                acc = t if acc is None else dc.add(acc, t)
            M[(i, j)] = M[(j, i)] = acc
            for d, dl in zip(dM, dL):
                dacc = None
                for k in range(j + 1):
                    t = dc.add(mul(dl[(i, k)], L[(j, k)]),
                               mul(L[(i, k)], dl[(j, k)]))
                    dacc = t if dacc is None else dc.add(dacc, t)
                d[(i, j)] = d[(j, i)] = dacc
    return M, dM, L


def chol_solve_t(L_ent, rhs_cols):
    """Solve L Lᵀ x = b for batched per-entry columns."""
    n = len(rhs_cols)
    y = []
    for i in range(n):
        acc = rhs_cols[i]
        for j in range(i):
            acc = dc.add(acc, neg(mul(L_ent[(i, j)], y[j])))
        y.append(mul(acc, reciprocal(L_ent[(i, i)])))
    x = [None] * n
    for i in range(n - 1, -1, -1):
        acc = y[i]
        for j in range(i + 1, n):
            acc = dc.add(acc, neg(mul(L_ent[(j, i)], x[j])))
        x[i] = mul(acc, reciprocal(L_ent[(i, i)]))
    return x


def accel_cols(tape, theta, layout, X, Xd):
    """Batched acceleration columns at (X, Xd)."""
    n = layout.arch.n
    dirs = [tape.constant(np.eye(n)[k:k + 1]) for k in range(n)]
    M, dM, L = mass_entries_t(theta, layout, X, dirs)
    _, dV = potential_t(theta, layout, X, dirs)
    xd = [cols(Xd, j, j + 1) for j in range(n)]
    rhs = []
    for i in range(n):
        quad = None
        curv = None
        for k in range(n):
            for j in range(n):
                qt = mul(mul(dM[i][(k, j)], xd[k]), xd[j])
                quad = qt if quad is None else dc.add(quad, qt)
                ct = mul(mul(dM[k][(i, j)], xd[j]), xd[k])
                curv = ct if curv is None else dc.add(curv, ct)
        r = dc.add(dc.scale(quad, 0.5), neg(dV[i]))
        rhs.append(dc.add(r, neg(curv)))
    if not layout.arch.conservative:
        F = force_t(theta, layout, X, Xd)
        rhs = [dc.add(r, cols(F, i, i + 1)) for i, r in enumerate(rhs)]
    return chol_solve_t(L, rhs)


def shifted_cholesky(ent, n, alpha):
    """Factor entries of M - alpha I and the (B, 1) log-det column."""
    L = {}
    ld = None
    for i in range(n):
        for j in range(i + 1):
            acc = ent[(i, j)]
            if i == j and alpha != 0.0:
                acc = shift(acc, -alpha)
            for k in range(j):
                acc = dc.add(acc, neg(mul(L[(i, k)], L[(j, k)])))
            if i == j:
                # the pivot's value in the first row where it fails
                piv = acc.value.ravel()
                bad = np.flatnonzero(~((piv > 0.0) & np.isfinite(piv)))
                if bad.size:
                    raise NotPositiveDefiniteError(i, float(piv[bad[0]]))
                L[(i, i)] = sqrt(acc)
                ld = log(acc) if ld is None else dc.add(ld, log(acc))
            else:
                L[(i, j)] = mul(acc, reciprocal(L[(j, j)]))
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
                    t = mul(mul(dM[k][(i, j)], vc[i]), vc[j])
                    quad = t if quad is None else dc.add(quad, t)
            gL.append(dc.add(dc.scale(quad, 0.5), neg(dV[k])))
        for i in range(n):
            acc = None
            for j in range(n):
                t = mul(M[(i, j)], vc[j])
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
        d = dc.add(d, dc.add(pa[i], neg(pb[i])))
        if Fa is not None:
            fi = dc.add(cols(Fa, i, i + 1), cols(Fb, i, i + 1))
            d = dc.add(d, dc.scale(fi, h / 2.0))
        out.append(d)
    rho = dc.scale(dc.sumsq(concat_cols(out)), 1.0 / len(batch))
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
    A = concat_cols(accel_cols(tape, theta, flat.layout, X, Xd))
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
        A = concat_cols(accel_cols(tape, theta, layout, Xs, Vs))
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
    E = concat_cols([Eq, Ev])
    loss = dc.scale(dc.sumsq(E), 1.0 / (2.0 * batch.data["q"].size))
    return tape, theta, loss, (Qp, Vp)


def loss_grad(graph):
    """(loss value, gradient) from a (tape, theta, loss, ...) graph."""
    tape, theta, loss = graph[:3]
    g = tape.gradients(loss, [theta])[0]
    return loss.value.item(), g.ravel().copy()


def predicted_accelerations(flat, q, qdot):
    tape = dc.Tape()
    theta = tape.constant(flat.values.reshape(1, -1))
    A = concat_cols(accel_cols(tape, theta, flat.layout, tape.constant(q),
                               tape.constant(qdot)))
    return A.value.copy()


def barrier_grad(flat, configs, alpha):
    tape = dc.Tape()
    theta = tape.input(flat.values.reshape(1, -1))
    ent, _, _ = mass_entries_t(theta, flat.layout, tape.constant(configs))
    _, ld = shifted_cholesky(ent, flat.layout.arch.n, alpha)
    g = tape.gradients(dc.mean_all(ld), [theta])[0]
    return g.ravel().copy()
