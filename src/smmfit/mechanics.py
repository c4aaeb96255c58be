"""Lagrangian mechanics kernel.

Continuous side: the forced Euler-Lagrange acceleration of
L(q, q̇) = ½ q̇ᵀM(q)q̇ − V(q).  Discrete side: the discrete
Euler-Lagrange (DEL) vector of the midpoint-rule discrete Lagrangian and
force over a configuration triple, and its Jacobian in the last
configuration for the variational integrator's Newton solve.

Also the analytic double pendulum used as ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .diffcore import cholesky_np


class LagrangianSystem:
    """A mechanical system defined by M(q), V(q) and a generalized force.

    Subclasses provide mass_matrix, potential and force, and the
    derivative hooks the dynamics read in closed form: mass_jacobian
    (dM[k] = ∂M/∂q_k, shape (n, n, n)), potential_gradient, mass_hessian
    (B[k, l] = ∂²M/∂q_k∂q_l, shape (n, n, n, n)), potential_hessian,
    force_jacobian_q and force_jacobian_qdot.
    """

    n: int


@dataclass
class ConfigTriple:
    """Three consecutive configurations q1, q2, q3 at step h."""

    q1: np.ndarray
    q2: np.ndarray
    q3: np.ndarray
    h: float

    def __post_init__(self):
        self.q1 = np.asarray(self.q1, dtype=np.float64).ravel()
        self.q2 = np.asarray(self.q2, dtype=np.float64).ravel()
        self.q3 = np.asarray(self.q3, dtype=np.float64).ravel()
        if not (self.q1.shape == self.q2.shape == self.q3.shape):
            raise ValueError("triple configurations differ in dimension")
        if self.h <= 0:
            raise ValueError(f"step size must be positive, got {self.h}")


def _solve_spd(M: np.ndarray, b: np.ndarray) -> np.ndarray:
    # Cholesky solve; raises NotPositiveDefiniteError if M is not PD
    L = cholesky_np(M)
    return np.linalg.solve(L.T, np.linalg.solve(L, b))


def _lagrangian_q_gradient(sys, q, qdot) -> np.ndarray:
    """∂L/∂q with components ½ q̇ᵀ(∂M/∂q_k)q̇ − ∂V/∂q_k."""
    dM = sys.mass_jacobian(q)
    return 0.5 * np.einsum("kij,i,j->k", dM, qdot, qdot) - sys.potential_gradient(q)


def acceleration(sys: LagrangianSystem, q, qdot) -> np.ndarray:
    """Forced Euler-Lagrange acceleration M⁻¹[F + ∂L/∂q − (∂²L/∂q̇∂q)q̇]."""
    q = np.asarray(q, dtype=np.float64)
    qdot = np.asarray(qdot, dtype=np.float64)
    M = sys.mass_matrix(q)
    dM = sys.mass_jacobian(q)
    dLdq = 0.5 * np.einsum("kij,i,j->k", dM, qdot, qdot) - sys.potential_gradient(q)
    # (∂²L/∂q̇∂q) q̇, using ∂(M q̇)/∂q_k = (∂M/∂q_k) q̇
    convective = np.einsum("kij,j,k->i", dM, qdot, qdot)
    rhs = sys.force(q, qdot) + dLdq - convective
    return _solve_spd(M, rhs)


def del_vector(sys: LagrangianSystem, triple: ConfigTriple) -> np.ndarray:
    """Discrete Euler-Lagrange vector
    D₂L_d(q1,q2) + D₁L_d(q2,q3) + ½(F_d(q1,q2) + F_d(q2,q3))
    of the midpoint rule L_d(a, b) = h L((a+b)/2, (b−a)/h), and likewise
    F_d(a, b) = h F((a+b)/2, (b−a)/h).

    Its slot derivatives reduce to
    D₁L_d = (h/2)∂L/∂q − ∂L/∂q̇ and D₂L_d = (h/2)∂L/∂q + ∂L/∂q̇,
    each evaluated at that pair's midpoint state, with ∂L/∂q̇ = M q̇.
    """
    h = triple.h
    ma, va = 0.5 * (triple.q1 + triple.q2), (triple.q2 - triple.q1) / h
    mb, vb = 0.5 * (triple.q2 + triple.q3), (triple.q3 - triple.q2) / h
    d2 = 0.5 * h * _lagrangian_q_gradient(sys, ma, va) + sys.mass_matrix(ma) @ va
    d1 = 0.5 * h * _lagrangian_q_gradient(sys, mb, vb) - sys.mass_matrix(mb) @ vb
    fd = 0.5 * h * (sys.force(ma, va) + sys.force(mb, vb))
    return d2 + d1 + fd


def del_jacobian_q3(sys: LagrangianSystem, triple: ConfigTriple) -> np.ndarray:
    """Analytic ∂ del_vector / ∂q3, for the Newton solve.

    Only D₁L_d(q2,q3) and F_d(q2,q3) depend on q3; chain rule through the
    midpoint (∂m/∂q3 = I/2) and the velocity (∂v/∂q3 = I/h) gives, with
    A_k = ∂M/∂q_k, B_kl = ∂²M/∂q_k∂q_l, H = ∇²V at the (q2,q3) midpoint:

      J[k,l] = (h/8) vᵀB_kl v + ½(A_k v)_l − (h/4) H[k,l]
               − ½(A_l v)_k − M[k,l]/h + (h/4) F_q[k,l] + ½ F_v[k,l]
    """
    h = triple.h
    m = 0.5 * (triple.q2 + triple.q3)
    v = (triple.q3 - triple.q2) / h
    n = m.size
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


@dataclass
class DoublePendulum(LagrangianSystem):
    """Planar double pendulum of uniform rods, hinged end to end.

    Configuration is (q1, q2): first rod angle from vertical, second rod
    angle relative to the first.  Optional joint damping −η ∘ q̇.
    """

    m1: float = 1.0
    m2: float = 1.0
    l1: float = 1.0
    l2: float = 1.0
    g: float = 10.0
    eta: np.ndarray = field(default_factory=lambda: np.array([0.5, 0.5]))
    damped: bool = False
    n: int = 2

    def __post_init__(self):
        self.eta = np.asarray(self.eta, dtype=np.float64).ravel()
        for name in ("m1", "m2", "l1", "l2", "g"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.eta.shape != (2,) or np.any(self.eta <= 0):
            raise ValueError("eta must be two positive entries")
        self.I1 = self.m1 * self.l1 ** 2 / 3.0
        self.I2 = self.m2 * self.l2 ** 2 / 3.0
        self._c = self.m2 * self.l1 * self.l2

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


def dp_system(m1: float = 1.0, m2: float = 1.0, l1: float = 1.0,
              l2: float = 1.0, g: float = 10.0, eta=(0.5, 0.5),
              damped: bool = False) -> DoublePendulum:
    """Analytic double pendulum with the experiment's default parameters."""
    return DoublePendulum(m1=m1, m2=m2, l1=l1, l2=l2, g=g,
                          eta=np.asarray(eta, dtype=np.float64), damped=damped)
