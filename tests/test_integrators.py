"""Integrator checks: the oracle's RK4 order, Newton-solved variational
steps, energy behavior of rollouts, lockstep generation against the
one-point oracle, observation noise, trajectory files."""

import logging

import numpy as np
import pytest

import oracle
from oracle import rk4_step
from smmfit import integrators as integ
from smmfit import mechanics as mech


DP = mech.DoublePendulum()
midpoint_energy = integ.midpoint_energy


def rollout(sys, q0, h, T, **kw):
    """One trajectory through the lockstep `simulate`; it must not fail."""
    configs, failed = integ.simulate(sys, np.array([q0], dtype=float), h, T)
    assert failed == {}
    return integ.Trajectory(configs[0], h, **kw)


def scalar_rollout(sys, q0, h, T):
    """The oracle's steps one at a time: (configs, NaN from a failed step
    on, and that step's error or None)."""
    configs = np.full((T, len(q0)), np.nan)
    configs[0] = configs[1] = q0
    for t in range(2, T):
        try:
            configs[t] = oracle.variational_step(sys, configs[t - 2],
                                                 configs[t - 1], h)
        except (integ.NewtonConvergenceError,
                integ.IntegrationBlowupError) as err:
            return configs, err
    return configs, None


# -- the oracle's rk4_step ----------------------------------------------------

def test_rk4_free_motion():
    q, v = rk4_step(lambda q, v: np.zeros(1), [0.0], [1.0], 0.1)
    assert np.allclose(q, [0.1], atol=1e-15)
    assert np.allclose(v, [1.0], atol=1e-15)


def test_rk4_harmonic_quarter_period():
    # qdd = -q from (1, 0); q(pi/2) = cos(pi/2) = 0
    q, v = np.array([1.0]), np.array([0.0])
    h = 0.001
    steps = int(round((np.pi / 2) / h))
    for _ in range(steps):
        q, v = rk4_step(lambda q, v: -q, q, v, h)
    # residual time pi/2 - steps*h
    q, v = rk4_step(lambda q, v: -q, q, v, np.pi / 2 - steps * h)
    assert abs(q[0]) < 1e-9


def test_rk4_zero_step_identity():
    q, v = rk4_step(lambda q, v: -q, [0.3, 0.4], [1.0, -1.0], 0.0)
    assert np.array_equal(q, [0.3, 0.4])
    assert np.array_equal(v, [1.0, -1.0])


def test_rk4_fourth_order_scaling():
    # global error on the harmonic oscillator over one unit of time
    def err(h):
        q, v = np.array([1.0]), np.array([0.0])
        for _ in range(int(round(1.0 / h))):
            q, v = rk4_step(lambda q, v: -q, q, v, h)
        return abs(q[0] - np.cos(1.0))

    assert err(0.02) / err(0.01) >= 12.0


def test_rk4_blowup_error():
    with pytest.raises(integ.IntegrationBlowupError):
        rk4_step(lambda q, v: np.array([np.inf]), [0.0], [1.0], 0.1)


# -- variational_step ---------------------------------------------------------

def test_variational_step_free_particle_exact():
    q1 = np.array([[0.1, -0.2], [0.5, 0.5]])
    q2 = np.array([[0.3, 0.1], [0.4, 0.7]])
    q3, failed = integ.variational_step(oracle.Rows(oracle.FreeParticle()),
                                        q1, q2, 0.05)
    assert failed == {}
    assert np.array_equal(q3, 2 * q2 - q1)


def test_variational_step_equilibrium_fixed_point():
    q3, failed = integ.variational_step(DP, np.zeros((1, 2)), np.zeros((1, 2)),
                                        0.05)
    assert failed == {}
    assert np.allclose(q3, 0.0, atol=1e-12)


def test_variational_step_checks_its_step_and_shapes():
    q = np.zeros((1, 2))
    with pytest.raises(ValueError, match="differ in shape"):
        integ.variational_step(DP, q, np.zeros((2, 2)), 0.05)
    for h in (0.0, -0.05, np.nan, np.inf):
        with pytest.raises(ValueError, match="finite and positive"):
            integ.variational_step(DP, q, q, h)


def test_variational_step_del_consistency():
    rng = np.random.default_rng(10)
    for sys in (DP, mech.DoublePendulum(damped=True)):
        q1 = rng.uniform(-np.pi / 2, np.pi / 2, size=(10, 2))
        q2 = q1 + rng.uniform(-0.05, 0.05, size=(10, 2))
        q3, failed = integ.variational_step(sys, q1, q2, 0.05)
        assert failed == {}
        d = oracle.del_rows(sys, oracle.Triple(q1, q2, q3, 0.05))
        assert np.linalg.norm(d, axis=1).max() <= 1e-9


@pytest.mark.parametrize("damped", [False, True])
def test_variational_step_rows_equal_one_point_oracle(damped):
    # each row converges, backtracks and fails on its own: the fast
    # velocities make some rows backtrack or stall
    sys = mech.DoublePendulum(damped=damped)
    one = oracle.ScalarDP(sys)
    rng = np.random.default_rng(15)
    q1 = rng.uniform(-np.pi, np.pi, size=(48, 2))
    q2 = q1 + rng.uniform(-2.0, 2.0, size=(48, 2))
    q3, failed = integ.variational_step(sys, q1, q2, 0.05)
    for i in range(48):
        try:
            want = oracle.variational_step(one, q1[i], q2[i], 0.05)
        except (integ.NewtonConvergenceError,
                integ.IntegrationBlowupError) as err:
            assert type(failed[i]) is type(err) and str(failed[i]) == str(err)
            continue
        assert i not in failed and np.array_equal(q3[i], want)
    assert 0 < len(failed) < 48


class SingularWhereFar(oracle.FdSystem):
    """A free particle for q1 < 5; beyond, no kinetic term and a linear
    potential, so the DEL residual is nonzero and its Jacobian zero."""

    n = 2

    def mass_matrix(self, q):
        return np.eye(2) if q[0] < 5 else np.zeros((2, 2))

    def potential(self, q):
        return 0.0 if q[0] < 5 else float(q[0] + q[1])


def test_singular_jacobian_rejects_only_its_row():
    one = SingularWhereFar()
    q1 = np.array([[0.1, 0.2], [6.0, 6.0], [-0.3, 0.4], [7.0, 6.0]])
    q2 = q1 + np.array([[0.01, -0.02], [0.0, 0.0], [0.03, 0.01], [0.0, 0.0]])
    r = oracle.del_rows(oracle.Rows(one), oracle.Triple(
        q1, q2, 2 * q2 - q1, 0.05))
    assert np.abs(r[[1, 3]]).min() > 0.0
    q3, failed = integ.variational_step(oracle.Rows(one), q1, q2, 0.05)
    assert sorted(failed) == [1, 3]
    for i in (1, 3):
        with pytest.raises(integ.NewtonConvergenceError) as err:
            oracle.variational_step(one, q1[i], q2[i], 0.05)
        assert isinstance(failed[i], integ.NewtonConvergenceError)
        assert str(failed[i]) == str(err.value)
    for i in (0, 2):
        assert np.array_equal(q3[i], oracle.variational_step(one, q1[i], q2[i],
                                                             0.05))


# -- simulate -----------------------------------------------------------------

def test_simulate_rest_start_and_shape():
    configs, failed = integ.simulate(DP, [[0.4, -0.3], [0.1, 0.2]], 0.05, 200)
    assert failed == {} and configs.shape == (2, 200, 2)
    assert np.array_equal(configs[:, 0], configs[:, 1])
    assert np.array_equal(configs[:, 0], [[0.4, -0.3], [0.1, 0.2]])


def test_simulate_deterministic():
    a = rollout(DP, [0.7, 0.2], 0.05, 120)
    b = rollout(DP, [0.7, 0.2], 0.05, 120)
    assert np.array_equal(a.configs, b.configs)


def test_simulate_del_residuals_small():
    q = rollout(DP, [0.9, -0.5], 0.05, 100).configs
    d = oracle.del_rows(DP, oracle.Triple(q[:-2], q[1:-1], q[2:], 0.05))
    assert np.linalg.norm(d, axis=1).max() <= 10 * integ.NEWTON_TOL


@pytest.mark.parametrize("damped", [False, True])
def test_simulate_rows_equal_one_point_oracle(damped):
    # hot starts included: a failed row leaves the lockstep at the step
    # the one-point rollout raises, with the same error, and NaN after
    sys = mech.DoublePendulum(damped=damped)
    one = oracle.ScalarDP(sys)
    q0 = np.random.default_rng(0).uniform(-np.pi, np.pi, (40, 2))
    configs, failed = integ.simulate(sys, q0, 0.05, 100)
    for i in range(40):
        want, err = scalar_rollout(one, q0[i], 0.05, 100)
        assert np.array_equal(configs[i], want, equal_nan=True)
        if err is None:
            assert i not in failed
        else:
            assert type(failed[i]) is type(err) and str(failed[i]) == str(err)
    # damping keeps every rest start of 100 steps solvable
    assert len(failed) == 0 if damped else 0 < len(failed) < 40


def test_simulate_undamped_energy_bounded():
    # energy oscillates inside a narrow band on sampler-accepted rollouts
    for traj in integ.sample_rest_trajectories(DP, 6, 0.05, 200, seed=21,
                                               system="undamped"):
        E = midpoint_energy(DP, traj.configs, traj.h)
        assert np.abs(E - E[0]).max() <= 0.05 * (abs(E[0]) + 1.0)


def test_simulate_moderate_start_energy_bounded():
    # raw simulate, no gate: moderate-energy rest starts stay in band
    q0 = np.random.default_rng(11).uniform(-1.0, 1.0, size=(5, 2))
    configs, failed = integ.simulate(DP, q0, 0.05, 200)
    assert failed == {}
    E = midpoint_energy(DP, configs, 0.05)
    assert np.all(np.abs(E - E[:, :1]).max(axis=1)
                  <= 0.05 * (np.abs(E[:, 0]) + 1.0))


def test_simulate_hot_start_detected_or_bounded():
    # the hottest rest starts can hit a solvability fold of the flat
    # midpoint step; the solver must fail loudly there, never silently
    # return a trajectory that left its energy band by more than the
    # gate threshold allows
    configs, failed = integ.simulate(DP, [[-1.44207421, -1.51887323]], 0.05,
                                     200)
    if failed:
        assert isinstance(failed[0], (integ.NewtonConvergenceError,
                                      integ.IntegrationBlowupError))
        return
    assert np.all(np.isfinite(midpoint_energy(DP, configs, 0.05)))


def test_simulate_damped_energy_decreasing():
    damped = mech.DoublePendulum(damped=True)
    q0 = np.random.default_rng(12).uniform(-np.pi / 2, np.pi / 2, size=(3, 2))
    configs, failed = integ.simulate(damped, q0, 0.05, 200)
    assert failed == {}
    assert np.all(integ.energy_drift_ok(damped, configs, 0.05))


@pytest.mark.parametrize("damped", [False, True])
def test_energies_and_gate_equal_one_point_oracle(damped):
    # one batched call for a set of trajectories, each row the bits of
    # the one-trajectory series; undamped hot starts fail the undamped
    # gate, and every undamped rollout fails the damped one
    sys = mech.DoublePendulum(damped=damped)
    one = oracle.ScalarDP(sys)
    q0 = np.random.default_rng(16).uniform(-2.0, 2.0, (12, 2))
    runs = [integ.simulate(s, q0, 0.05, 100)
            for s in (DP, mech.DoublePendulum(damped=True))]
    configs = np.concatenate([c[[i for i in range(12) if i not in failed]]
                              for c, failed in runs])
    E = midpoint_energy(sys, configs, 0.05)
    ok = integ.energy_drift_ok(sys, configs, 0.05)
    for i, c in enumerate(configs):
        traj = integ.Trajectory(c, 0.05)
        assert np.array_equal(E[i], oracle.midpoint_energy(one, c, 0.05))
        assert ok[i] == oracle.energy_drift_ok(one, traj, damped=damped)
    assert np.array_equal(midpoint_energy(sys, configs[0], 0.05), E[0])
    assert 0 < ok.sum() < len(configs)


# -- sample_rest_trajectories -------------------------------------------------

def test_sample_rest_trajectories_contract():
    trajs = integ.sample_rest_trajectories(DP, 4, 0.05, 200, seed=3,
                                           system="dp_undamped")
    assert len(trajs) == 4
    for tr in trajs:
        assert tr.configs.shape == (200, 2)
        assert np.array_equal(tr.configs[0], tr.configs[1])
        assert np.all(np.abs(tr.configs[0]) < np.pi / 2)
        assert tr.system == "dp_undamped" and tr.seed is not None
        assert integ.energy_drift_ok(DP, tr.configs, tr.h)
    # distinct slots draw distinct starts
    starts = {tuple(tr.configs[0]) for tr in trajs}
    assert len(starts) == 4


def test_sample_rest_trajectories_deterministic():
    a, b = (integ.sample_rest_trajectories(DP, 3, 0.05, 120, seed=9,
                                           system="undamped")
            for _ in range(2))
    for x, y in zip(a, b):
        assert np.array_equal(x.configs, y.configs)
        assert x.seed == y.seed


def _draws_line(caplog):
    lines = [r.getMessage() for r in caplog.records
             if r.name == "smmfit.integrators"]
    assert len(lines) == 1
    return lines[0]


# (slots, damped) of the three benchmark workloads' pools, T = 100
POOL_SHAPES = {"desk-sweep": (4, False), "protocol-pool": (8, False),
               "damped-minibatch": (4, True)}


@pytest.mark.parametrize("shape", sorted(POOL_SHAPES))
def test_lockstep_pools_equal_one_point_oracle(shape, caplog):
    count, damped = POOL_SHAPES[shape]
    sys = mech.DoublePendulum(damped=damped)
    one = oracle.ScalarDP(sys)
    caplog.set_level(logging.INFO, logger="smmfit.integrators")
    for seed in range(10):
        caplog.clear()
        got = integ.sample_rest_trajectories(sys, count, 0.05, 100, seed,
                                             system="s")
        want, rejected = oracle.sample_rest_trajectories(
            one, count, 0.05, 100, seed, system="s", damped=damped)
        assert [t.seed for t in got] == [t.seed for t in want]
        for a, b in zip(got, want):
            assert np.array_equal(a.configs, b.configs)
            assert a.system == b.system == "s" and a.h == b.h
        assert _draws_line(caplog) == (f"rejected {rejected} of "
                                       f"{rejected + count} trajectory draws")


def test_protocol_pool_seed_0_counts_its_rejected_draws(caplog):
    caplog.set_level(logging.INFO, logger="smmfit.integrators")
    integ.sample_rest_trajectories(DP, 8, 0.05, 100, 0, "undamped")
    assert _draws_line(caplog) == "rejected 2 of 10 trajectory draws"


def test_exhausted_tries_raise_as_one_at_a_time(caplog, monkeypatch):
    caplog.set_level(logging.INFO, logger="smmfit.integrators")
    monkeypatch.setattr(integ, "ANGLE_RANGE", np.pi)
    monkeypatch.setattr(integ, "MAX_TRIES", 2)
    with pytest.raises(integ.DrawsExhaustedError) as want:
        oracle.sample_rest_trajectories(oracle.ScalarDP(DP), 3, 0.05, 60,
                                        seed=0, angle_range=np.pi,
                                        max_tries=2)
    with pytest.raises(integ.DrawsExhaustedError) as got:
        integ.sample_rest_trajectories(DP, 3, 0.05, 60, seed=0,
                                       system="undamped")
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith("trajectory slot ")
    assert "all 2 draws" in str(got.value)
    assert not caplog.records


def test_acceleration_matches_fd_of_integrated_path():
    # second difference of a high-accuracy RK4 path around a state
    rng = np.random.default_rng(13)
    h = 1e-4
    one = oracle.ScalarDP(DP)

    def acc(a, b):
        return mech.acceleration(DP, a[None], b[None])[0]

    for _ in range(5):
        q = rng.uniform(-np.pi / 2, np.pi / 2, size=2)
        qd = rng.uniform(-1.0, 1.0, size=2)
        qp, _ = rk4_step(acc, q, qd, h)
        qm, _ = rk4_step(acc, q, qd, -h)
        fd = (qp - 2 * q + qm) / h ** 2
        ref = oracle.acceleration(one, q, qd)
        assert np.linalg.norm(fd - ref) <= 1e-3 * max(np.linalg.norm(ref), 1.0)


# -- add_noise ----------------------------------------------------------------

def test_add_noise_zero_sigma():
    traj = rollout(DP, [0.2, 0.1], 0.05, 50)
    obs = integ.add_noise(traj, 0.0, np.random.default_rng(99))
    assert np.array_equal(obs.configs, traj.configs)


@pytest.mark.parametrize("sigma", [-0.1, np.nan, np.inf])
def test_add_noise_rejects_a_bad_sigma(sigma):
    # NaN would pass a `sigma < 0` test and then add no noise
    traj = integ.Trajectory(np.zeros((3, 2)), 0.05)
    with pytest.raises(ValueError, match="finite and non-negative"):
        integ.add_noise(traj, sigma, np.random.default_rng(1))


def test_add_noise_sample_std():
    traj = integ.Trajectory(np.zeros((200, 2)), 0.05)
    obs = integ.add_noise(traj, 0.1, np.random.default_rng(42))
    s = np.std(obs.configs)
    assert abs(s - 0.1) <= 0.015


def test_add_noise_seed_repeatable():
    # the noisy copy keeps the seed of the draw it was made from
    traj = rollout(DP, [0.2, 0.1], 0.05, 50, seed=5)
    a = integ.add_noise(traj, 0.1, np.random.default_rng(7))
    b = integ.add_noise(traj, 0.1, np.random.default_rng(7))
    assert np.array_equal(a.configs, b.configs)
    assert a.seed == 5 and a.sigma == 0.1


# -- validation and files -----------------------------------------------------

def test_trajectory_validation():
    with pytest.raises(ValueError):
        integ.Trajectory(np.zeros((2, 2)), 0.05)
    for h in (-0.05, np.nan, np.inf):
        with pytest.raises(ValueError):
            integ.Trajectory(np.zeros((5, 2)), h)
    bad = np.zeros((5, 2))
    bad[3, 1] = np.nan
    with pytest.raises(ValueError):
        integ.Trajectory(bad, 0.05)


def test_trajectory_roundtrip(tmp_path):
    traj = rollout(DP, [0.3, -0.6], 0.05, 60, system="dp_undamped", seed=3)
    p = tmp_path / "traj.csv"
    integ.save_trajectory(traj, p)
    back = integ.load_trajectory(p)
    assert np.array_equal(back.configs, traj.configs)
    assert back.h == traj.h and back.system == "dp_undamped" and back.seed == 3
    assert back.sigma is None


def test_observed_roundtrip(tmp_path):
    traj = rollout(DP, [0.3, -0.6], 0.05, 60, system="dp_damped", seed=3)
    obs = integ.add_noise(traj, 0.1, np.random.default_rng(11))
    p = tmp_path / "obs.csv"
    integ.save_trajectory(obs, p)
    back = integ.load_trajectory(p)
    assert np.array_equal(back.configs, obs.configs)
    assert back.sigma == 0.1 and back.seed == 3


def test_csv_header_matches_contract(tmp_path):
    traj = rollout(DP, [0.1, 0.2], 0.05, 10)
    p = tmp_path / "traj.csv"
    integ.save_trajectory(traj, p)
    header = p.read_text().splitlines()[0]
    assert header == "t,q1,q2"
