"""Mechanics kernel checks against hand-derived double-pendulum values."""

import numpy as np
import pytest

import oracle
from oracle import FreeParticle
from smmfit import mechanics as mech
from smmfit.diffcore import NotPositiveDefiniteError


DP = mech.dp_system()


class ConstantLagrangian(oracle.FdSystem):
    # L identically beta: zero kinetic term, constant potential
    n = 2

    def mass_matrix(self, q):
        return np.zeros((2, 2))

    def potential(self, q):
        return -3.7


class NumericDP(mech.DoublePendulum):
    """Double pendulum forced through the finite-difference hooks."""

    mass_jacobian = oracle.FdSystem.mass_jacobian
    potential_gradient = oracle.FdSystem.potential_gradient


# -- lagrangian ---------------------------------------------------------------

def test_lagrangian_at_rest_is_minus_potential():
    rng = np.random.default_rng(0)
    for _ in range(10):
        q = rng.uniform(-np.pi, np.pi, size=2)
        assert abs(oracle.lagrangian(DP, q, np.zeros(2)) + DP.potential(q)) < 1e-12


def test_lagrangian_dp_hand_values():
    assert abs(oracle.lagrangian(DP, [0.0, 0.0], [0.0, 0.0]) - 20.0) < 1e-12
    # half * I11(0) + 20 with I11(0) = 8/3
    assert abs(oracle.lagrangian(DP, [0.0, 0.0], [1.0, 0.0]) - (0.5 * 8 / 3 + 20)) < 1e-12


# -- acceleration -------------------------------------------------------------

def test_acceleration_equilibrium():
    assert np.allclose(mech.acceleration(DP, [0.0, 0.0], [0.0, 0.0]), 0.0,
                       atol=1e-12)


def test_acceleration_hand_solved():
    # M(q2=0) qdd = -grad V at q = (pi/2, 0) gives (-90/7, 120/7)
    qdd = mech.acceleration(DP, [np.pi / 2, 0.0], [0.0, 0.0])
    assert np.allclose(qdd, [-90.0 / 7.0, 120.0 / 7.0], atol=1e-10)


def test_acceleration_damped_at_rest_matches_undamped():
    damped = mech.dp_system(damped=True)
    rng = np.random.default_rng(1)
    for _ in range(5):
        q = rng.uniform(-np.pi, np.pi, size=2)
        assert np.allclose(mech.acceleration(damped, q, np.zeros(2)),
                           mech.acceleration(DP, q, np.zeros(2)), atol=1e-12)


def test_acceleration_fd_hooks_agree_with_closed_form():
    numeric = NumericDP()
    rng = np.random.default_rng(2)
    for _ in range(10):
        q = rng.uniform(-np.pi, np.pi, size=2)
        qd = rng.uniform(-2.0, 2.0, size=2)
        assert np.allclose(mech.acceleration(numeric, q, qd),
                           mech.acceleration(DP, q, qd), rtol=1e-6, atol=1e-6)


def test_acceleration_pd_failure_propagates():
    class BadMass(FreeParticle):
        def mass_matrix(self, q):
            return np.array([[1.0, 0.0], [0.0, -1.0]])

    with pytest.raises(NotPositiveDefiniteError):
        mech.acceleration(BadMass(), [0.0, 0.0], [1.0, 0.0])


# -- the oracle's discrete Lagrangian and force --------------------------------
#
# test_del_vector_matches_its_definition rests on these references.


def test_discrete_lagrangian_free_particle():
    fp = FreeParticle()
    # unit displacement in one coordinate over unit time: L_d = 1/2
    assert abs(oracle.discrete_lagrangian(fp, [0.0, 0.0], [1.0, 0.0], 1.0) - 0.5) < 1e-12
    # both coordinates advancing doubles it
    assert abs(oracle.discrete_lagrangian(fp, [0.0, 0.0], [1.0, 1.0], 1.0) - 1.0) < 1e-12


def test_discrete_lagrangian_stationary_pair():
    rng = np.random.default_rng(3)
    for _ in range(5):
        q = rng.uniform(-np.pi, np.pi, size=2)
        h = rng.uniform(0.01, 0.2)
        got = oracle.discrete_lagrangian(DP, q, q, h)
        assert abs(got + h * DP.potential(q)) < 1e-12


def test_discrete_lagrangian_dp_value():
    assert abs(oracle.discrete_lagrangian(DP, [0.0, 0.0], [0.0, 0.0], 0.05) - 1.0) < 1e-12


def test_discrete_force_conservative_zero():
    assert np.all(oracle.discrete_force(DP, [0.1, 0.2], [0.3, -0.1], 0.05) == 0.0)


def test_discrete_force_damped_hand_value():
    damped = mech.dp_system(damped=True)
    fd = oracle.discrete_force(damped, [0.0, 0.0], [0.1, 0.0], 0.05)
    # (q2-q1)/h = (2, 0); F = -eta*qdot = (-1, 0); times h
    assert np.allclose(fd, [-0.05, 0.0], atol=1e-12)
    assert np.all(oracle.discrete_force(damped, [0.4, 0.4], [0.4, 0.4], 0.05) == 0.0)


# -- DEL vector and residual --------------------------------------------------

def test_del_free_particle_straight_line():
    fp = FreeParticle()
    rng = np.random.default_rng(4)
    for _ in range(5):
        q1 = rng.uniform(-1, 1, size=2)
        step = rng.uniform(-1, 1, size=2)
        t = mech.ConfigTriple(q1, q1 + step, q1 + 2 * step, 0.05)
        assert np.allclose(mech.del_vector(fp, t), 0.0, atol=1e-12)


def test_del_constant_lagrangian():
    sys = ConstantLagrangian()
    rng = np.random.default_rng(5)
    for _ in range(5):
        t = mech.ConfigTriple(rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2),
                              rng.uniform(-1, 1, 2), 0.05)
        assert np.allclose(mech.del_vector(sys, t), 0.0, atol=1e-10)


def test_del_residual_is_squared_norm():
    rng = np.random.default_rng(6)
    t = mech.ConfigTriple(rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2),
                          rng.uniform(-1, 1, 2), 0.05)
    d = mech.del_vector(DP, t)
    assert abs(oracle.del_residual(DP, t) - d @ d) < 1e-12


@pytest.mark.parametrize("damped", [False, True])
def test_del_vector_matches_its_definition(damped):
    # D2 L_d(q1, q2) + D1 L_d(q2, q3) + (F_d(q1, q2) + F_d(q2, q3)) / 2 with
    # the slot derivatives of the midpoint L_d taken by central differences
    sys, h = mech.dp_system(damped=damped), 0.05
    rng = np.random.default_rng(12)
    for _ in range(100):
        q1, q2, q3 = np.cumsum(rng.uniform(-0.1, 0.1, (3, 2)), axis=0) \
            + rng.uniform(-1, 1, 2)
        want = oracle.fd(lambda q: oracle.discrete_lagrangian(sys, q1, q, h),
                         q2) \
            + oracle.fd(lambda q: oracle.discrete_lagrangian(sys, q, q3, h),
                        q2) \
            + 0.5 * (oracle.discrete_force(sys, q1, q2, h)
                     + oracle.discrete_force(sys, q2, q3, h))
        got = mech.del_vector(sys, mech.ConfigTriple(q1, q2, q3, h))
        assert np.abs(got - want).max() <= 1e-7 * max(np.abs(want).max(), 1)


class ScaledSystem(mech.LagrangianSystem):
    """(gamma M, gamma V, gamma F) wrapper around an inner system."""

    def __init__(self, inner, gamma):
        self.inner = inner
        self.gamma = gamma
        self.n = inner.n

    def mass_matrix(self, q):
        return self.gamma * self.inner.mass_matrix(q)

    def potential(self, q):
        return self.gamma * self.inner.potential(q)

    def force(self, q, qdot):
        return self.gamma * self.inner.force(q, qdot)

    def mass_jacobian(self, q):
        return self.gamma * self.inner.mass_jacobian(q)

    def potential_gradient(self, q):
        return self.gamma * self.inner.potential_gradient(q)


class ShiftedPotential(ScaledSystem):
    """(M, V + beta, F): gamma = 1 scales nothing, bit for bit."""

    def __init__(self, inner, beta):
        super().__init__(inner, 1.0)
        self.beta = beta

    def potential(self, q):
        return self.inner.potential(q) + self.beta


def test_del_gauge_scaling():
    damped = mech.dp_system(damped=True)
    rng = np.random.default_rng(7)
    for gamma in (2.0, 10.0, 0.5):
        scaled = ScaledSystem(damped, gamma)
        for _ in range(5):
            t = mech.ConfigTriple(rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2),
                                  rng.uniform(-1, 1, 2), 0.05)
            assert np.allclose(mech.del_vector(scaled, t),
                               gamma * mech.del_vector(damped, t),
                               rtol=1e-12, atol=1e-12)
            assert np.isclose(oracle.del_residual(scaled, t),
                              gamma ** 2 * oracle.del_residual(damped, t),
                              rtol=1e-10)


def test_del_and_acceleration_invariant_to_potential_shift():
    shifted = ShiftedPotential(DP, 123.456)
    rng = np.random.default_rng(8)
    for _ in range(5):
        t = mech.ConfigTriple(rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2),
                              rng.uniform(-1, 1, 2), 0.05)
        assert np.array_equal(mech.del_vector(shifted, t), mech.del_vector(DP, t))
        q = rng.uniform(-np.pi, np.pi, size=2)
        qd = rng.uniform(-2, 2, size=2)
        assert np.array_equal(mech.acceleration(shifted, q, qd),
                              mech.acceleration(DP, q, qd))


def test_del_jacobian_q3_matches_direct_fd():
    t = mech.ConfigTriple([0.3, -0.2], [0.35, -0.1], [0.42, 0.05], 0.05)
    h = 1e-6
    for sys in (DP, mech.dp_system(damped=True)):
        J = mech.del_jacobian_q3(sys, t)
        for k in range(2):
            e = np.zeros(2)
            e[k] = h
            col = (mech.del_vector(sys, mech.ConfigTriple(t.q1, t.q2, t.q3 + e, t.h))
                   - mech.del_vector(sys, mech.ConfigTriple(t.q1, t.q2, t.q3 - e, t.h))) / (2 * h)
            assert np.allclose(J[:, k], col, rtol=1e-4, atol=1e-6)


# -- triple validation --------------------------------------------------------

def test_config_triple_validation():
    with pytest.raises(ValueError):
        mech.ConfigTriple([0.0], [0.0, 0.0], [0.0, 0.0], 0.05)
    with pytest.raises(ValueError):
        mech.ConfigTriple([0.0, 0.0], [0.0, 0.0], [0.0, 0.0], 0.0)


# -- analytic double pendulum -------------------------------------------------

def test_dp_mass_matrix_hand_value():
    assert np.allclose(DP.mass_matrix(np.array([0.7, 0.0])),
                       [[8 / 3, 5 / 6], [5 / 6, 1 / 3]], atol=1e-12)


def test_dp_potential_hand_value():
    assert abs(DP.potential(np.array([0.0, 0.0])) + 20.0) < 1e-12


def test_dp_mass_matrix_symmetric_pd_sweep():
    for q2 in np.linspace(-np.pi, np.pi, 101):
        M = DP.mass_matrix(np.array([0.0, q2]))
        assert np.array_equal(M, M.T)
        assert np.linalg.eigvalsh(M)[0] > 0.0


def test_dp_closed_form_derivatives_match_fd():
    rng = np.random.default_rng(9)
    for _ in range(10):
        q = rng.uniform(-np.pi, np.pi, size=2)
        assert np.allclose(DP.mass_jacobian(q),
                           oracle.FdSystem.mass_jacobian(DP, q), atol=1e-7)
        assert np.allclose(DP.potential_gradient(q),
                           oracle.FdSystem.potential_gradient(DP, q), atol=1e-6)
        assert np.allclose(DP.potential_hessian(q),
                           oracle.FdSystem.potential_hessian(DP, q), atol=1e-4)
        assert np.allclose(DP.mass_hessian(q),
                           oracle.FdSystem.mass_hessian(DP, q), atol=1e-4)


def test_dp_damped_force_jacobians_match_fd():
    damped = mech.dp_system(damped=True)
    q = np.array([0.3, -0.4])
    qd = np.array([1.2, -0.7])
    assert np.allclose(damped.force_jacobian_q(q, qd),
                       oracle.FdSystem.force_jacobian_q(damped, q, qd),
                       atol=1e-8)
    assert np.allclose(damped.force_jacobian_qdot(q, qd),
                       oracle.FdSystem.force_jacobian_qdot(damped, q, qd),
                       atol=1e-8)


def test_dp_system_rejects_bad_parameters():
    with pytest.raises(ValueError):
        mech.dp_system(m1=0.0)
    with pytest.raises(ValueError):
        mech.dp_system(g=-10.0)
    with pytest.raises(ValueError):
        mech.dp_system(eta=(0.5, 0.0))
