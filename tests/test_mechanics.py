"""Mechanics kernel checks against hand-derived double-pendulum values,
and of the row-batched path against the one-point oracle, bit for bit;
the library's one Cholesky factor and solve, and their failure
behaviour."""

import numpy as np
import pytest

import oracle
from oracle import FreeParticle
from smmfit import mechanics as mech
from smmfit.mechanics import NotPositiveDefiniteError


DP = mech.DoublePendulum()
SDP = oracle.ScalarDP(DP)


class ConstantLagrangian(oracle.FdSystem):
    # L identically beta: zero kinetic term, constant potential
    n = 2

    def mass_matrix(self, q):
        return np.zeros((2, 2))

    def potential(self, q):
        return -3.7


class NumericDP(oracle.ScalarDP):
    """Double pendulum forced through the finite-difference hooks."""

    mass_jacobian = oracle.FdSystem.mass_jacobian
    potential_gradient = oracle.FdSystem.potential_gradient


def rows(*points):
    return np.array(points, dtype=np.float64)


def random_triples(rng, K, h=0.05):
    q1, q2, q3 = np.cumsum(rng.uniform(-0.1, 0.1, (3, K, 2)), axis=0) \
        + rng.uniform(-1, 1, (K, 2))
    return mech.ConfigTriple(q1, q2, q3, h)


# -- lagrangian ---------------------------------------------------------------

def test_lagrangian_at_rest_is_minus_potential():
    rng = np.random.default_rng(0)
    for _ in range(10):
        q = rng.uniform(-np.pi, np.pi, size=2)
        assert abs(oracle.lagrangian(SDP, q, np.zeros(2)) + SDP.potential(q)) < 1e-12


def test_lagrangian_dp_hand_values():
    assert abs(oracle.lagrangian(SDP, [0.0, 0.0], [0.0, 0.0]) - 20.0) < 1e-12
    # half * I11(0) + 20 with I11(0) = 8/3
    assert abs(oracle.lagrangian(SDP, [0.0, 0.0], [1.0, 0.0]) - (0.5 * 8 / 3 + 20)) < 1e-12


# -- acceleration -------------------------------------------------------------

def test_acceleration_equilibrium():
    assert np.allclose(mech.acceleration(DP, rows([0.0, 0.0]), rows([0.0, 0.0])),
                       0.0, atol=1e-12)


def test_acceleration_hand_solved():
    # M(q2=0) qdd = -grad V at q = (pi/2, 0) gives (-90/7, 120/7)
    qdd = mech.acceleration(DP, rows([np.pi / 2, 0.0]), rows([0.0, 0.0]))
    assert np.allclose(qdd, [[-90.0 / 7.0, 120.0 / 7.0]], atol=1e-10)


def test_acceleration_damped_at_rest_matches_undamped():
    damped = mech.DoublePendulum(damped=True)
    q = np.random.default_rng(1).uniform(-np.pi, np.pi, size=(5, 2))
    assert np.allclose(mech.acceleration(damped, q, np.zeros((5, 2))),
                       mech.acceleration(DP, q, np.zeros((5, 2))), atol=1e-12)


def test_acceleration_fd_hooks_agree_with_closed_form():
    numeric = oracle.Rows(NumericDP(DP))
    rng = np.random.default_rng(2)
    q = rng.uniform(-np.pi, np.pi, size=(10, 2))
    qd = rng.uniform(-2.0, 2.0, size=(10, 2))
    assert np.allclose(mech.acceleration(numeric, q, qd),
                       mech.acceleration(DP, q, qd), rtol=1e-6, atol=1e-6)


def test_acceleration_pd_failure_propagates():
    class BadMass(FreeParticle):
        def mass_matrix(self, q):
            return np.array([[1.0, 0.0], [0.0, -1.0]])

    with pytest.raises(NotPositiveDefiniteError):
        mech.acceleration(oracle.Rows(BadMass()), rows([0.0, 0.0]),
                          rows([1.0, 0.0]))


# -- the row-batched path against the one-point oracle -----------------------

HOOKS_Q = ("mass_matrix", "potential", "mass_jacobian", "potential_gradient",
           "mass_hessian", "potential_hessian")
HOOKS_QV = ("force", "force_jacobian_q", "force_jacobian_qdot")


@pytest.mark.parametrize("damped", [False, True])
def test_row_hooks_equal_one_point_hooks(damped):
    sys = mech.DoublePendulum(damped=damped)
    one = oracle.ScalarDP(sys)
    rng = np.random.default_rng(40)
    q = rng.uniform(-np.pi, np.pi, (64, 2))
    qd = rng.uniform(-3, 3, (64, 2))
    for name in HOOKS_Q + HOOKS_QV:
        args = (q,) if name in HOOKS_Q else (q, qd)
        got = getattr(sys, name)(*args)
        want = np.array([getattr(one, name)(*a) for a in zip(*args)])
        assert got.shape == want.shape, name
        assert np.array_equal(got, want), name
        # signed zeros too
        assert np.array_equal(np.signbit(got), np.signbit(want)), name


@pytest.mark.parametrize("damped", [False, True])
def test_row_functions_equal_one_point_oracle(damped):
    sys = mech.DoublePendulum(damped=damped)
    one = oracle.ScalarDP(sys)
    rng = np.random.default_rng(41)
    t = random_triples(rng, 64)
    q = rng.uniform(-np.pi, np.pi, (64, 2))
    qd = rng.uniform(-3, 3, (64, 2))
    d = mech.del_vector(sys, t)
    left = mech.del_arm(sys, t.q1, t.q2, t.h)
    assert np.array_equal(mech.del_vector(sys, t, left), d)
    J = mech.del_jacobian_q3(sys, t)
    a = mech.acceleration(sys, q, qd)
    for i in range(64):
        ti = mech.ConfigTriple(t.q1[i], t.q2[i], t.q3[i], t.h)
        assert np.array_equal(d[i], oracle.del_vector(one, ti))
        assert np.array_equal(J[i], oracle.del_jacobian_q3(one, ti))
        assert np.array_equal(a[i], oracle.acceleration(one, q[i], qd[i]))


def test_rows_adapter_runs_one_point_systems():
    # a one-point system through Rows gives the oracle's per-point values
    sys = NumericDP(mech.DoublePendulum(damped=True))
    rng = np.random.default_rng(42)
    t = random_triples(rng, 6)
    d = mech.del_vector(oracle.Rows(sys), t)
    for i in range(6):
        ti = mech.ConfigTriple(t.q1[i], t.q2[i], t.q3[i], t.h)
        assert np.array_equal(d[i], oracle.del_vector(sys, ti))


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
        got = oracle.discrete_lagrangian(SDP, q, q, h)
        assert abs(got + h * SDP.potential(q)) < 1e-12


def test_discrete_lagrangian_dp_value():
    assert abs(oracle.discrete_lagrangian(SDP, [0.0, 0.0], [0.0, 0.0], 0.05) - 1.0) < 1e-12


def test_discrete_force_conservative_zero():
    assert np.all(oracle.discrete_force(SDP, [0.1, 0.2], [0.3, -0.1], 0.05) == 0.0)


def test_discrete_force_damped_hand_value():
    damped = oracle.ScalarDP(mech.DoublePendulum(damped=True))
    fd = oracle.discrete_force(damped, [0.0, 0.0], [0.1, 0.0], 0.05)
    # (q2-q1)/h = (2, 0); F = -eta*qdot = (-1, 0); times h
    assert np.allclose(fd, [-0.05, 0.0], atol=1e-12)
    assert np.all(oracle.discrete_force(damped, [0.4, 0.4], [0.4, 0.4], 0.05) == 0.0)


# -- DEL vector and residual --------------------------------------------------

def test_del_free_particle_straight_line():
    rng = np.random.default_rng(4)
    q1 = rng.uniform(-1, 1, size=(5, 2))
    step = rng.uniform(-1, 1, size=(5, 2))
    t = mech.ConfigTriple(q1, q1 + step, q1 + 2 * step, 0.05)
    assert np.allclose(mech.del_vector(oracle.Rows(FreeParticle()), t), 0.0,
                       atol=1e-12)


def test_del_constant_lagrangian():
    rng = np.random.default_rng(5)
    t = mech.ConfigTriple(rng.uniform(-1, 1, (5, 2)), rng.uniform(-1, 1, (5, 2)),
                          rng.uniform(-1, 1, (5, 2)), 0.05)
    assert np.allclose(mech.del_vector(oracle.Rows(ConstantLagrangian()), t),
                       0.0, atol=1e-10)


def test_del_residual_is_squared_norm():
    rng = np.random.default_rng(6)
    t = mech.ConfigTriple(rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2),
                          rng.uniform(-1, 1, 2), 0.05)
    d = oracle.del_vector(SDP, t)
    assert abs(oracle.del_residual(SDP, t) - d @ d) < 1e-12


@pytest.mark.parametrize("damped", [False, True])
def test_del_vector_matches_its_definition(damped):
    # D2 L_d(q1, q2) + D1 L_d(q2, q3) + (F_d(q1, q2) + F_d(q2, q3)) / 2 with
    # the slot derivatives of the midpoint L_d taken by central differences
    sys, h = mech.DoublePendulum(damped=damped), 0.05
    one = oracle.ScalarDP(sys)
    t = random_triples(np.random.default_rng(12), 100, h)
    got = mech.del_vector(sys, t)
    for i in range(100):
        q1, q2, q3 = t.q1[i], t.q2[i], t.q3[i]
        want = oracle.fd(lambda q: oracle.discrete_lagrangian(one, q1, q, h),
                         q2) \
            + oracle.fd(lambda q: oracle.discrete_lagrangian(one, q, q3, h),
                        q2) \
            + 0.5 * (oracle.discrete_force(one, q1, q2, h)
                     + oracle.discrete_force(one, q2, q3, h))
        assert np.abs(got[i] - want).max() <= 1e-7 * max(np.abs(want).max(), 1)


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
    damped = mech.DoublePendulum(damped=True)
    rng = np.random.default_rng(7)
    for gamma in (2.0, 10.0, 0.5):
        scaled = ScaledSystem(damped, gamma)
        t = mech.ConfigTriple(rng.uniform(-1, 1, (5, 2)),
                              rng.uniform(-1, 1, (5, 2)),
                              rng.uniform(-1, 1, (5, 2)), 0.05)
        ds, d = mech.del_vector(scaled, t), mech.del_vector(damped, t)
        assert np.allclose(ds, gamma * d, rtol=1e-12, atol=1e-12)
        assert np.allclose(np.sum(ds ** 2, axis=1),
                           gamma ** 2 * np.sum(d ** 2, axis=1), rtol=1e-10)


def test_del_and_acceleration_invariant_to_potential_shift():
    shifted = ShiftedPotential(DP, 123.456)
    rng = np.random.default_rng(8)
    t = mech.ConfigTriple(rng.uniform(-1, 1, (5, 2)), rng.uniform(-1, 1, (5, 2)),
                          rng.uniform(-1, 1, (5, 2)), 0.05)
    assert np.array_equal(mech.del_vector(shifted, t), mech.del_vector(DP, t))
    q = rng.uniform(-np.pi, np.pi, size=(5, 2))
    qd = rng.uniform(-2, 2, size=(5, 2))
    assert np.array_equal(mech.acceleration(shifted, q, qd),
                          mech.acceleration(DP, q, qd))


def test_del_jacobian_q3_matches_direct_fd():
    t = mech.ConfigTriple(rows([0.3, -0.2]), rows([0.35, -0.1]),
                          rows([0.42, 0.05]), 0.05)
    h = 1e-6
    for sys in (DP, mech.DoublePendulum(damped=True)):
        J = mech.del_jacobian_q3(sys, t)[0]
        for k in range(2):
            e = np.zeros((1, 2))
            e[0, k] = h
            col = (mech.del_vector(sys, mech.ConfigTriple(t.q1, t.q2, t.q3 + e, t.h))
                   - mech.del_vector(sys, mech.ConfigTriple(t.q1, t.q2, t.q3 - e, t.h))) / (2 * h)
            assert np.allclose(J[:, k], col[0], rtol=1e-4, atol=1e-6)


# -- triple validation --------------------------------------------------------

def test_config_triple_validation():
    with pytest.raises(ValueError):
        mech.ConfigTriple(rows([0.0, 0.0]), rows([0.0, 0.0], [0.0, 0.0]),
                          rows([0.0, 0.0]), 0.05)
    with pytest.raises(ValueError):
        mech.ConfigTriple(rows([0.0, 0.0]), rows([0.0, 0.0]), rows([0.0, 0.0]),
                          0.0)


# -- analytic double pendulum -------------------------------------------------

def test_dp_mass_matrix_hand_value():
    assert np.allclose(DP.mass_matrix(rows([0.7, 0.0])),
                       [[[8 / 3, 5 / 6], [5 / 6, 1 / 3]]], atol=1e-12)


def test_dp_potential_hand_value():
    assert np.allclose(DP.potential(rows([0.0, 0.0])), [-20.0], atol=1e-12)


def test_dp_mass_matrix_symmetric_pd_sweep():
    q = np.stack([np.zeros(101), np.linspace(-np.pi, np.pi, 101)], axis=1)
    M = DP.mass_matrix(q)
    assert np.array_equal(M, M.transpose(0, 2, 1))
    assert np.linalg.eigvalsh(M)[:, 0].min() > 0.0


def test_dp_closed_form_derivatives_match_fd():
    q = np.random.default_rng(9).uniform(-np.pi, np.pi, size=(10, 2))
    for i in range(10):
        assert np.allclose(DP.mass_jacobian(q)[i],
                           oracle.FdSystem.mass_jacobian(SDP, q[i]), atol=1e-7)
        assert np.allclose(DP.potential_gradient(q)[i],
                           oracle.FdSystem.potential_gradient(SDP, q[i]),
                           atol=1e-6)
        assert np.allclose(DP.potential_hessian(q)[i],
                           oracle.FdSystem.potential_hessian(SDP, q[i]),
                           atol=1e-4)
        assert np.allclose(DP.mass_hessian(q)[i],
                           oracle.FdSystem.mass_hessian(SDP, q[i]), atol=1e-4)


def test_dp_damped_force_jacobians_match_fd():
    damped = mech.DoublePendulum(damped=True)
    one = oracle.ScalarDP(damped)
    q = np.array([0.3, -0.4])
    qd = np.array([1.2, -0.7])
    assert np.allclose(damped.force_jacobian_q(q[None], qd[None])[0],
                       oracle.FdSystem.force_jacobian_q(one, q, qd),
                       atol=1e-8)
    assert np.allclose(damped.force_jacobian_qdot(q[None], qd[None])[0],
                       oracle.FdSystem.force_jacobian_qdot(one, q, qd),
                       atol=1e-8)


def test_dp_system_rejects_bad_parameters():
    with pytest.raises(ValueError):
        mech.DoublePendulum(m1=0.0)
    with pytest.raises(ValueError):
        mech.DoublePendulum(g=-10.0)
    with pytest.raises(ValueError):
        mech.DoublePendulum(eta=(0.5, 0.0))
    with pytest.raises(TypeError):
        mech.DoublePendulum(n=3)


# -- cholesky and cho_solve ---------------------------------------------------

def stack(A):
    """A (K, n, n) stack as the entry-major (n, n, K) array `cholesky`
    takes."""
    return np.ascontiguousarray(np.asarray(A, dtype=np.float64)
                                .transpose(1, 2, 0))


def random_spd(rng, K, n):
    B = rng.uniform(-1.0, 1.0, size=(K, n, n))
    return np.matmul(B, B.transpose(0, 2, 1)) + 0.1 * np.eye(n)


def chol_logdet(a):
    _, _, d = mech.cholesky(stack(a[None]), 0.0)
    return float(np.sum(np.log(d)))


def test_logdet_diag():
    assert abs(chol_logdet(np.diag([2.0, 3.0])) - np.log(6.0)) < 1e-12


def test_logdet_identity():
    for n in (1, 2, 3, 5):
        assert abs(chol_logdet(np.eye(n))) < 1e-12


def test_logdet_2x2_by_hand():
    # det [[2,1],[1,2]] = 3
    a = np.array([[2.0, 1.0], [1.0, 2.0]])
    assert abs(chol_logdet(a) - np.log(3.0)) < 1e-12


def test_pd_failure_matches_eigenvalue_oracle():
    rng = np.random.default_rng(101)
    for n in (2, 3):
        for _ in range(200):
            B = rng.uniform(-2.0, 2.0, size=(n, n))
            A = 0.5 * (B + B.T)
            lo = np.linalg.eigvalsh(A)[0]
            if abs(lo) < 1e-10:
                continue
            if lo > 0:
                chol_logdet(A)
            else:
                with pytest.raises(NotPositiveDefiniteError):
                    chol_logdet(A)


def test_pd_failure_pivot_index():
    with pytest.raises(NotPositiveDefiniteError) as e:
        chol_logdet(np.diag([-1.0, 5.0]))
    assert e.value.pivot == 0
    with pytest.raises(NotPositiveDefiniteError) as e:
        # leading 1x1 minor fine, second pivot 1 - 4 = -3
        chol_logdet(np.array([[1.0, 2.0], [2.0, 1.0]]))
    assert e.value.pivot == 1
    assert e.value.value < 0.0


@pytest.mark.parametrize("n", [1, 2, 3])
def test_cholesky_matches_numpy_with_and_without_shift(n):
    rng = np.random.default_rng(100 + n)
    A = random_spd(rng, 200, n)
    alpha = 0.5 * np.linalg.eigvalsh(A)[:, 0].min()
    for shift in (0.0, alpha):
        S, r, d = mech.cholesky(stack(A), shift)
        want = np.linalg.cholesky(A - shift * np.eye(n))
        np.testing.assert_allclose(S.transpose(2, 0, 1), want, rtol=1e-14,
                                   atol=1e-15)
        diag = np.diagonal(S).T
        assert np.array_equal(r, 1.0 / diag)
        np.testing.assert_allclose(d, diag * diag, rtol=1e-15)


def test_cholesky_rows_equal_one_column_calls():
    rng = np.random.default_rng(103)
    for n in (1, 2, 3):
        M = stack(random_spd(rng, 40, n))
        S, r, d = mech.cholesky(M, 0.05)
        for k in range(40):
            Sk, rk, dk = mech.cholesky(M[:, :, k:k + 1], 0.05)
            assert np.array_equal(Sk[:, :, 0], S[:, :, k])
            assert np.array_equal(rk[:, 0], r[:, k])
            assert np.array_equal(dk[:, 0], d[:, k])


def test_cholesky_rows_equal_one_matrix_oracle():
    rng = np.random.default_rng(102)
    for n in (1, 2, 3):
        A = random_spd(rng, 50, n)
        S, _, _ = mech.cholesky(stack(A), 0.0)
        for k, a in enumerate(A):
            assert np.array_equal(S[:, :, k], oracle.cholesky(a))


def test_cholesky_rows_raise_for_one_bad_row():
    A = np.stack([np.eye(2), np.array([[1.0, 2.0], [2.0, 1.0]]), np.eye(2)])
    with pytest.raises(NotPositiveDefiniteError) as e:
        mech.cholesky(stack(A), 0.0)
    assert e.value.pivot == 1 and e.value.value == -3.0
    # row 17 of 40 fails only at its last pivot; the others are fine,
    # also with the shift below
    rng = np.random.default_rng(104)
    A = random_spd(rng, 40, 3) + 10.0 * np.eye(3)
    A[17] = [[4.0, 2.0, 0.0], [2.0, 2.0, 1.0], [0.0, 1.0, 0.5]]
    # pivots 4, 2 - 1 = 1, 0.5 - 0 - 1 = -0.5
    with pytest.raises(NotPositiveDefiniteError) as e:
        mech.cholesky(stack(A), 0.0)
    assert (e.value.pivot, e.value.value) == (2, -0.5)
    # the shift is taken off every pivot before the test
    A[17] = 2.0 * np.eye(3)
    with pytest.raises(NotPositiveDefiniteError) as e:
        mech.cholesky(stack(A), 2.0)
    assert (e.value.pivot, e.value.value) == (0, 0.0)


@pytest.mark.parametrize("entry,pivot", [((0, 0), 0), ((1, 1), 1),
                                         ((1, 0), 1), ((2, 1), 2)])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_cholesky_raises_for_a_non_finite_entry(entry, pivot, bad):
    A = random_spd(np.random.default_rng(105), 5, 3)
    A[3][entry] = bad
    with pytest.raises(NotPositiveDefiniteError) as e:
        mech.cholesky(stack(A), 0.0)
    assert e.value.pivot == pivot and not 0.0 < e.value.value < np.inf


def test_cho_solve_matches_dense_solve():
    rng = np.random.default_rng(106)
    for n in (1, 2, 3):
        A = random_spd(rng, 30, n)
        b = rng.normal(size=(30, n))
        S, r, _ = mech.cholesky(stack(A), 0.0)
        x = mech.cho_solve(S, r, np.ascontiguousarray(b.T))
        want = np.linalg.solve(A, b[:, :, None])[:, :, 0]
        np.testing.assert_allclose(x.T, want, rtol=1e-12, atol=1e-12)
