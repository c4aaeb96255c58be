"""Integrator checks: the oracle's RK4 order, Newton-solved variational
steps, energy behavior of rollouts, observation noise, trajectory files."""

import numpy as np
import pytest

import oracle
from oracle import rk4_step
from smmfit import integrators as integ
from smmfit import mechanics as mech


DP = mech.dp_system()
midpoint_energy = integ.midpoint_energy


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
    q1 = np.array([0.1, -0.2])
    q2 = np.array([0.3, 0.1])
    q3 = integ.variational_step(oracle.FreeParticle(), q1, q2, 0.05)
    assert np.array_equal(q3, 2 * q2 - q1)


def test_variational_step_equilibrium_fixed_point():
    q3 = integ.variational_step(DP, np.zeros(2), np.zeros(2), 0.05)
    assert np.allclose(q3, 0.0, atol=1e-12)


def test_variational_step_del_consistency():
    rng = np.random.default_rng(10)
    for sys in (DP, mech.dp_system(damped=True)):
        for _ in range(10):
            q1 = rng.uniform(-np.pi / 2, np.pi / 2, size=2)
            q2 = q1 + rng.uniform(-0.05, 0.05, size=2)
            q3 = integ.variational_step(sys, q1, q2, 0.05)
            d = mech.del_vector(sys, mech.ConfigTriple(q1, q2, q3, 0.05))
            assert np.linalg.norm(d) <= 1e-9


# -- simulate -----------------------------------------------------------------

def test_simulate_rest_start_and_shape():
    traj = integ.simulate(DP, [0.4, -0.3], 0.05, 200, system="dp", seed=5)
    assert traj.configs.shape == (200, 2)
    assert np.array_equal(traj.configs[0], traj.configs[1])
    assert np.array_equal(traj.configs[0], [0.4, -0.3])
    assert traj.h == 0.05 and traj.seed == 5


def test_simulate_deterministic():
    a = integ.simulate(DP, [0.7, 0.2], 0.05, 120)
    b = integ.simulate(DP, [0.7, 0.2], 0.05, 120)
    assert np.array_equal(a.configs, b.configs)


def test_simulate_del_residuals_small():
    traj = integ.simulate(DP, [0.9, -0.5], 0.05, 100)
    worst = 0.0
    for t in range(traj.T - 2):
        d = mech.del_vector(DP, mech.ConfigTriple(
            traj.configs[t], traj.configs[t + 1], traj.configs[t + 2], traj.h))
        worst = max(worst, np.linalg.norm(d))
    assert worst <= 10 * integ.NEWTON_TOL


def test_simulate_undamped_energy_bounded():
    # energy oscillates inside a narrow band on sampler-accepted rollouts
    for traj in integ.sample_rest_trajectories(DP, 6, 0.05, 200, seed=21):
        E = midpoint_energy(DP, traj.configs, traj.h)
        assert np.abs(E - E[0]).max() <= 0.05 * (abs(E[0]) + 1.0)


def test_simulate_moderate_start_energy_bounded():
    # raw simulate, no gate: moderate-energy rest starts stay in band
    rng = np.random.default_rng(11)
    for _ in range(5):
        q0 = rng.uniform(-1.0, 1.0, size=2)
        traj = integ.simulate(DP, q0, 0.05, 200)
        E = midpoint_energy(DP, traj.configs, traj.h)
        assert np.abs(E - E[0]).max() <= 0.05 * (abs(E[0]) + 1.0)


def test_simulate_hot_start_detected_or_bounded():
    # the hottest rest starts can hit a solvability fold of the flat
    # midpoint step; the solver must fail loudly there, never silently
    # return a trajectory that left its energy band by more than the
    # gate threshold allows
    q0 = np.array([-1.44207421, -1.51887323])
    try:
        traj = integ.simulate(DP, q0, 0.05, 200)
    except (integ.NewtonConvergenceError, integ.IntegrationBlowupError):
        return
    E = midpoint_energy(DP, traj.configs, traj.h)
    assert np.all(np.isfinite(E))


def test_simulate_damped_energy_decreasing():
    damped = mech.dp_system(damped=True)
    rng = np.random.default_rng(12)
    for _ in range(3):
        q0 = rng.uniform(-np.pi / 2, np.pi / 2, size=2)
        traj = integ.simulate(damped, q0, 0.05, 200)
        assert integ.energy_drift_ok(damped, traj, damped=True)


def test_sample_rest_trajectories_contract():
    trajs = integ.sample_rest_trajectories(DP, 4, 0.05, 200, seed=3,
                                           system="dp_undamped")
    assert len(trajs) == 4
    for tr in trajs:
        assert tr.configs.shape == (200, 2)
        assert np.array_equal(tr.configs[0], tr.configs[1])
        assert np.all(np.abs(tr.configs[0]) < np.pi / 2)
        assert tr.system == "dp_undamped" and tr.seed is not None
        assert integ.energy_drift_ok(DP, tr)
    # distinct slots draw distinct starts
    starts = {tuple(tr.configs[0]) for tr in trajs}
    assert len(starts) == 4


def test_sample_rest_trajectories_deterministic():
    a = integ.sample_rest_trajectories(DP, 3, 0.05, 120, seed=9)
    b = integ.sample_rest_trajectories(DP, 3, 0.05, 120, seed=9)
    for x, y in zip(a, b):
        assert np.array_equal(x.configs, y.configs)
        assert x.seed == y.seed


def test_acceleration_matches_fd_of_integrated_path():
    # second difference of a high-accuracy RK4 path around a state
    rng = np.random.default_rng(13)
    h = 1e-4
    for _ in range(5):
        q = rng.uniform(-np.pi / 2, np.pi / 2, size=2)
        qd = rng.uniform(-1.0, 1.0, size=2)
        accel = lambda a, b: mech.acceleration(DP, a, b)
        qp, _ = rk4_step(accel, q, qd, h)
        qm, _ = rk4_step(accel, q, qd, -h)
        fd = (qp - 2 * q + qm) / h ** 2
        ref = mech.acceleration(DP, q, qd)
        assert np.linalg.norm(fd - ref) <= 1e-3 * max(np.linalg.norm(ref), 1.0)


# -- add_noise ----------------------------------------------------------------

def test_add_noise_zero_sigma():
    traj = integ.simulate(DP, [0.2, 0.1], 0.05, 50)
    obs = integ.add_noise(traj, 0.0, 99)
    assert np.array_equal(obs.configs, traj.configs)


def test_add_noise_sample_std():
    traj = integ.Trajectory(np.zeros((200, 2)), 0.05)
    obs = integ.add_noise(traj, 0.1, 42)
    s = np.std(obs.configs)
    assert abs(s - 0.1) <= 0.015


def test_add_noise_seed_repeatable():
    traj = integ.simulate(DP, [0.2, 0.1], 0.05, 50)
    a = integ.add_noise(traj, 0.1, 7)
    b = integ.add_noise(traj, 0.1, 7)
    assert np.array_equal(a.configs, b.configs)
    assert a.seed == 7 and a.sigma == 0.1


# -- validation and files -----------------------------------------------------

def test_trajectory_validation():
    with pytest.raises(ValueError):
        integ.Trajectory(np.zeros((2, 2)), 0.05)
    with pytest.raises(ValueError):
        integ.Trajectory(np.zeros((5, 2)), -0.05)
    bad = np.zeros((5, 2))
    bad[3, 1] = np.nan
    with pytest.raises(ValueError):
        integ.Trajectory(bad, 0.05)


def test_trajectory_roundtrip(tmp_path):
    traj = integ.simulate(DP, [0.3, -0.6], 0.05, 60, system="dp_undamped", seed=3)
    p = tmp_path / "traj.csv"
    integ.save_trajectory(traj, p)
    back = integ.load_trajectory(p)
    assert np.array_equal(back.configs, traj.configs)
    assert back.h == traj.h and back.system == "dp_undamped" and back.seed == 3
    assert back.sigma is None


def test_observed_roundtrip(tmp_path):
    traj = integ.simulate(DP, [0.3, -0.6], 0.05, 60, system="dp_damped", seed=3)
    obs = integ.add_noise(traj, 0.1, 11)
    p = tmp_path / "obs.csv"
    integ.save_trajectory(obs, p)
    back = integ.load_trajectory(p)
    assert np.array_equal(back.configs, obs.configs)
    assert back.sigma == 0.1 and back.seed == 11


def test_csv_header_matches_contract(tmp_path):
    traj = integ.simulate(DP, [0.1, 0.2], 0.05, 10)
    p = tmp_path / "traj.csv"
    integ.save_trajectory(traj, p)
    header = p.read_text().splitlines()[0]
    assert header == "t,q1,q2"
