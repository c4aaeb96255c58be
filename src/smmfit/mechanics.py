"""Lagrangian mechanics kernel, on rows.

Continuous side: the forced Euler-Lagrange acceleration of
L(q, q̇) = ½ q̇ᵀM(q)q̇ − V(q).  Discrete side: the discrete
Euler-Lagrange (DEL) vector of the midpoint-rule discrete Lagrangian and
force over three consecutive configurations, and its Jacobian in the
last configuration for the variational integrator's Newton solve.

Also the analytic double pendulum used as ground truth, and the
library's one Cholesky factor and solve on (n, n, B) stacks, which both
this acceleration and training's model solve and barrier use.

Every hook and dynamics function takes a (K, n) array of configurations
(and velocities), one row per point, and returns one result per row.
The batched forms run each row's arithmetic as a one-point expression
would: elementwise ufuncs, einsum with a leading batch index, stacked
matmul and the entry-by-entry Cholesky solve; so every row gets the bits
it would get alone.  No reduction runs across rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np


class NotPositiveDefiniteError(Exception):
    """A factorization hit a nonpositive or non-finite pivot.

    ``pivot`` is the zero-based index of the first failing pivot, and
    ``row`` the first row of the stack that fails it.
    """

    def __init__(self, pivot: int, value: float, row: int):
        self.pivot = pivot
        self.value = value
        self.row = row
        super().__init__(f"matrix not positive definite: pivot {pivot} = {value:.6g}")


class LagrangianSystem:
    """A mechanical system defined by M(q), V(q) and a generalized force.

    Subclasses provide mass_matrix, potential and force, and the
    derivative hooks the dynamics read in closed form: mass_jacobian
    (dM[:, k] = ∂M/∂q_k, shape (K, n, n, n)), potential_gradient,
    mass_hessian (B[:, k, l] = ∂²M/∂q_k∂q_l, shape (K, n, n, n, n)),
    potential_hessian, force_jacobian_q and force_jacobian_qdot.  Every
    hook takes (K, n) rows of q (and q̇) and returns (K, ...) arrays:
    M is (K, n, n), V is (K,), F and ∇V are (K, n), ∇²V and the force
    Jacobians are (K, n, n).  ``damped`` is true when F dissipates
    energy; it picks the energy gate of generated data.
    """

    n: int
    damped: bool


def rowdot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x·y of each row pair of two (K, m) arrays."""
    return np.matmul(x[:, None, :], y[:, :, None])[:, 0, 0]


def cholesky(M: np.ndarray, shift: float):
    """(S, 1/S_ii, the pivots S_ii²) of the lower Cholesky factor S of
    M - shift I, entry by entry, for an (n, n, B) stack of symmetric M of
    which only the lower triangle is read.  M - shift I is positive
    definite exactly when every pivot is positive; the first that is not
    (or not finite) in any row raises NotPositiveDefiniteError with its
    index, the first such row and its value there."""
    n, _, B = M.shape
    S = np.zeros(M.shape)
    r, d = np.empty((2, n, B))
    for i in range(n):
        for j in range(i + 1):
            acc = M[i, j] - shift if i == j else M[i, j]
            for k in range(j):
                acc = acc - S[i, k] * S[j, k]
            if i == j:
                ok = (acc > 0.0) & (acc < np.inf)
                if not ok.all():
                    k = int(ok.argmin())
                    raise NotPositiveDefiniteError(i, float(acc[k]), k)
                np.sqrt(acc, out=S[i, i])
                np.divide(1.0, S[i, i], out=r[i])
                d[i] = acc
            else:
                np.multiply(acc, r[j], out=S[i, j])
    return S, r, d


def cho_solve(L: np.ndarray, r: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x with L Lᵀ x = b for (n, B) b, by forward then back substitution
    entry by entry, L lower (n, n, B) and r its reciprocal pivots."""
    n = len(b)
    y = np.empty(b.shape)
    for i in range(n):
        acc = b[i]
        for j in range(i):
            acc = acc - L[i, j] * y[j]
        np.multiply(acc, r[i], out=y[i])
    for i in reversed(range(n)):
        acc = y[i]
        for j in range(i + 1, n):
            acc = acc - L[j, i] * y[j]
        np.multiply(acc, r[i], out=y[i])
    return y


def _lagrangian_q_gradient(sys, dM, q, qdot) -> np.ndarray:
    """∂L/∂q with components ½ q̇ᵀ(∂M/∂q_k)q̇ − ∂V/∂q_k; dM = ∂M/∂q."""
    return 0.5 * np.einsum("bkij,bi,bj->bk", dM, qdot, qdot) \
        - sys.potential_gradient(q)


def acceleration(sys: LagrangianSystem, q, qdot) -> np.ndarray:
    """Forced Euler-Lagrange acceleration M⁻¹[F + ∂L/∂q − (∂²L/∂q̇∂q)q̇]
    at each row of q and q̇."""
    q = np.asarray(q, dtype=np.float64)
    qdot = np.asarray(qdot, dtype=np.float64)
    dM = sys.mass_jacobian(q)
    dLdq = _lagrangian_q_gradient(sys, dM, q, qdot)
    # (∂²L/∂q̇∂q) q̇, using ∂(M q̇)/∂q_k = (∂M/∂q_k) q̇
    convective = np.einsum("bkij,bj,bk->bi", dM, qdot, qdot)
    rhs = sys.force(q, qdot) + dLdq - convective
    S, r, _ = cholesky(sys.mass_matrix(q).transpose(1, 2, 0), 0.0)
    return np.ascontiguousarray(cho_solve(S, r, rhs.T).T)


def del_arm(sys: LagrangianSystem, a, b, h: float) -> tuple:
    """One configuration pair's terms of the DEL vector, at the midpoint
    state m = (a+b)/2, v = (b−a)/h of each row: (½h ∂L/∂q, ∂L/∂q̇ = M v,
    F(m, v)).  D₂L_d(a, b) is the first plus the second term, D₁L_d(a, b)
    the first minus the second."""
    m, v = 0.5 * (a + b), (b - a) / h
    return (0.5 * h * _lagrangian_q_gradient(sys, sys.mass_jacobian(m), m, v),
            np.matmul(sys.mass_matrix(m), v[:, :, None])[:, :, 0],
            sys.force(m, v))


def del_vector(sys: LagrangianSystem, left: tuple, q2, q3,
               h: float) -> np.ndarray:
    """Discrete Euler-Lagrange vector
    D₂L_d(q1,q2) + D₁L_d(q2,q3) + ½(F_d(q1,q2) + F_d(q2,q3))
    of the midpoint rule L_d(a, b) = h L((a+b)/2, (b−a)/h), and likewise
    F_d(a, b) = h F((a+b)/2, (b−a)/h), one row per row of q2 and q3.

    Its slot derivatives reduce to
    D₁L_d = (h/2)∂L/∂q − ∂L/∂q̇ and D₂L_d = (h/2)∂L/∂q + ∂L/∂q̇,
    each evaluated at that pair's midpoint state, with ∂L/∂q̇ = M q̇.
    ``left`` is the `del_arm` of (q1, q2), which a Newton solve for q3
    forms once; q1 enters through it alone.
    """
    ga, pa, fa = left
    gb, pb, fb = del_arm(sys, q2, q3, h)
    return (ga + pa) + (gb - pb) + 0.5 * h * (fa + fb)


def del_jacobian_q3(sys: LagrangianSystem, q2, q3, h: float) -> np.ndarray:
    """Analytic ∂ del_vector / ∂q3 of each row, for the Newton solve.

    Only D₁L_d(q2,q3) and F_d(q2,q3) depend on q3; chain rule through the
    midpoint (∂m/∂q3 = I/2) and the velocity (∂v/∂q3 = I/h) gives, with
    A_k = ∂M/∂q_k, B_kl = ∂²M/∂q_k∂q_l, H = ∇²V at the (q2,q3) midpoint:

      J[k,l] = (h/8) vᵀB_kl v + ½(A_k v)_l − (h/4) H[k,l]
               − ½(A_l v)_k − M[k,l]/h + (h/4) F_q[k,l] + ½ F_v[k,l]
    """
    m = 0.5 * (q2 + q3)
    v = (q3 - q2) / h
    Av = np.einsum("bkij,bj->bki", sys.mass_jacobian(m), v)
    J = (h / 8.0) * np.einsum("bklij,bi,bj->bkl", sys.mass_hessian(m), v, v)
    J += 0.5 * Av
    J -= (h / 4.0) * sys.potential_hessian(m)
    J -= 0.5 * Av.transpose(0, 2, 1)
    J -= sys.mass_matrix(m) / h
    J += (h / 4.0) * sys.force_jacobian_q(m, v)
    J += 0.5 * sys.force_jacobian_qdot(m, v)
    return J


@dataclass
class DoublePendulum(LagrangianSystem):
    """Planar double pendulum of uniform unit rods of unit mass, hinged
    end to end, under g = 10.

    Configuration is (q1, q2): first rod angle from vertical, second rod
    angle relative to the first.  When ``damped``, joint damping −η ∘ q̇.
    """

    damped: bool = False
    n: ClassVar[int] = 2
    m1: ClassVar[float] = 1.0
    m2: ClassVar[float] = 1.0
    l1: ClassVar[float] = 1.0
    l2: ClassVar[float] = 1.0
    g: ClassVar[float] = 10.0
    eta: ClassVar[np.ndarray] = np.array([0.5, 0.5])
    eta.setflags(write=False)
    I1: ClassVar[float] = m1 * l1 ** 2 / 3.0
    I2: ClassVar[float] = m2 * l2 ** 2 / 3.0
    _c: ClassVar[float] = m2 * l1 * l2

    # each hook runs the one-point expression on columns of the rows

    def mass_matrix(self, q):
        c2 = np.cos(q[:, 1])
        i11 = self.I1 + self.I2 + self.m2 * self.l1 ** 2 + self._c * c2
        i12 = self.I2 + 0.5 * self._c * c2
        M = np.empty((q.shape[0], 2, 2))
        M[:, 0, 0] = i11
        M[:, 0, 1] = M[:, 1, 0] = i12
        M[:, 1, 1] = self.I2
        return M

    def potential(self, q):
        return (-0.5 * self.m1 * self.g * self.l1 * np.cos(q[:, 0])
                - self.m2 * self.g * (self.l1 * np.cos(q[:, 0])
                                      + 0.5 * self.l2 * np.cos(q[:, 0]
                                                               + q[:, 1])))

    def force(self, q, qdot):
        if not self.damped:
            return np.zeros(q.shape)
        return -self.eta * np.asarray(qdot, dtype=np.float64)

    def mass_jacobian(self, q):
        s2 = np.sin(q[:, 1])
        dM = np.zeros((q.shape[0], 2, 2, 2))
        dM[:, 1] = (-self._c * s2)[:, None, None] * _DM_PATTERN
        return dM

    def potential_gradient(self, q):
        a = (0.5 * self.m1 + self.m2) * self.g * self.l1
        b = 0.5 * self.m2 * self.g * self.l2
        s01 = np.sin(q[:, 0] + q[:, 1])
        dV = np.empty(q.shape)
        dV[:, 0] = a * np.sin(q[:, 0]) + b * s01
        dV[:, 1] = b * s01
        return dV

    def mass_hessian(self, q):
        c2 = np.cos(q[:, 1])
        B = np.zeros((q.shape[0], 2, 2, 2, 2))
        B[:, 1, 1] = (-self._c * c2)[:, None, None] * _DM_PATTERN
        return B

    def potential_hessian(self, q):
        a = (0.5 * self.m1 + self.m2) * self.g * self.l1
        b = 0.5 * self.m2 * self.g * self.l2
        c01 = b * np.cos(q[:, 0] + q[:, 1])
        H = np.empty((q.shape[0], 2, 2))
        H[:, 0, 0] = a * np.cos(q[:, 0]) + c01
        H[:, 0, 1] = H[:, 1, 0] = H[:, 1, 1] = c01
        return H

    def force_jacobian_q(self, q, qdot):
        return np.zeros((q.shape[0], 2, 2))

    def force_jacobian_qdot(self, q, qdot):
        if not self.damped:
            return np.zeros((q.shape[0], 2, 2))
        return np.broadcast_to(-np.diag(self.eta), (q.shape[0], 2, 2))


# ∂M/∂q2 of the double pendulum over −m2 l1 l2 sin q2 (∂²M/∂q2² over
# −m2 l1 l2 cos q2)
_DM_PATTERN = np.array([[1.0, 0.5], [0.5, 0.0]])

