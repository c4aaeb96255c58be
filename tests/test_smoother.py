"""Kalman/RTS/EM checks against closed-form and sampled-data oracles."""

import warnings
from dataclasses import replace

import numpy as np
import pytest

from smmfit import integrators as integ
from smmfit import mechanics as mech
from smmfit import smoother as smo

import oracle

E1 = oracle.E1.ravel()


def triple_model(dt, R, m0=(0.0, 0.0, 0.0), P0=None):
    return smo.LdsModel(A=smo.transition_matrix(dt),
                        Q=smo.FIXED_Q, R=R,
                        m0=np.asarray(m0, dtype=np.float64),
                        P0=np.diag([1.0, 1.0, 10.0]) if P0 is None else P0)


# -- transition_matrix --------------------------------------------------------

def test_transition_matrix_closed_form():
    A = smo.transition_matrix(0.05)
    want = [[1.0, 0.05, 0.00125], [0.0, 1.0, 0.05], [0.0, 0.0, 1.0]]
    assert np.abs(A - np.array(want)).max() <= 1e-15


def test_transition_matrix_zero_dt():
    assert np.array_equal(smo.transition_matrix(0.0), np.eye(3))


def test_transition_matrix_series_oracle():
    G = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
    for dt in (0.01, 0.05, 0.7):
        expm = np.eye(3)
        term = np.eye(3)
        for k in range(1, 11):
            term = term @ (G * dt) / k
            expm = expm + term
        assert np.abs(smo.transition_matrix(dt) - expm).max() <= 1e-14


# -- kalman_filter ------------------------------------------------------------

def test_filter_huge_r_ignores_observations():
    model = triple_model(0.05, R=1e9, m0=(0.5, 1.0, -0.2))
    rng = np.random.default_rng(30)
    y = rng.normal(0.0, 1.0, size=(50, 1))
    filt = smo.kalman_filter(model, y)
    # prior propagation: x_{t+1} = A x_t from m0
    m = model.m0.copy()
    for t in range(50):
        if t > 0:
            m = model.A @ m
        assert np.abs(filt.means[t, 0] - m).max() <= 1e-3


def test_filter_single_step_bayes_update():
    model = triple_model(0.05, R=0.25, m0=(0.3, 0.0, 0.0))
    y = np.array([1.1])
    filt = smo.kalman_filter(model, y[:, None])
    c = E1
    s = c @ model.P0 @ c + model.R
    K = model.P0 @ c / s
    want_m = model.m0 + K * (y[0] - c @ model.m0)
    IKC = np.eye(3) - np.outer(K, c)
    want_P = IKC @ model.P0 @ IKC.T + np.outer(K, K) * model.R
    assert np.allclose(filt.means[0, 0], want_m, atol=1e-14)
    assert np.allclose(filt.covs[0, 0], want_P, atol=1e-14)
    want_ll = -0.5 * (np.log(2 * np.pi * s) + (y[0] - c @ model.m0) ** 2 / s)
    assert abs(filt.loglik[0] - want_ll) < 1e-12


def test_filter_tiny_r_tracks_constant():
    model = triple_model(0.05, R=1e-10)
    y = np.full((60, 1), 2.5)
    filt = smo.kalman_filter(model, y)
    assert np.abs(filt.means[30:, 0, 0] - 2.5).max() <= 1e-6


def test_filter_rejects_bad_innovation():
    model = triple_model(0.05, R=1e-12)
    model.R = 0.0  # force degenerate variance past the constructor
    model.P0 = np.zeros((3, 3))
    with pytest.raises(smo.NumericalDegeneracyError):
        smo.kalman_filter(model, np.zeros((3, 1)))


def random_model(K, seed):
    rng = np.random.default_rng(seed)

    def spd(*shape):
        B = rng.normal(size=shape + (3, 3))
        return np.matmul(B, B.swapaxes(-1, -2)) + 0.1 * np.eye(3)

    return smo.LdsModel(A=smo.transition_matrix(rng.uniform(0.01, 0.1)),
                        Q=spd(), R=rng.uniform(1e-3, 1.0, size=K),
                        m0=rng.normal(size=(K, 3)), P0=spd(K))


def random_series(T, K, seed):
    rng = np.random.default_rng(seed)
    return np.cumsum(rng.normal(0.0, 0.1, size=(T, K)), axis=0)


@pytest.mark.parametrize("K", [1, 5, 16])
@pytest.mark.parametrize("T", [3, 40, 100])
def test_filter_equals_matrix_oracle(K, T):
    # reading C = e1 as selections keeps every bit of the products
    model = random_model(K, seed=100 * K + T)
    y = random_series(T, K, seed=T + K)
    got = smo.kalman_filter(model, y)
    want = oracle.matrix_kalman_filter(model, y)
    for name in ("means", "covs", "pred_means", "pred_covs", "loglik"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


@pytest.mark.parametrize("R, where", [
    ([0.04, -0.3, 0.04, -0.1, -1e-3], "t=1 in series 1"),
    ([-1e-3, 0.04, -0.3, 0.04, -0.1], "t=1 in series 2"),
])
def test_filter_degeneracy_names_first_t_then_first_series(R, where):
    # a negative R drives s <= 0 at t=1 (R <= -0.1) or t=2 (R = -1e-3);
    # the error names the first bad t, then the first bad series there,
    # and the series that run on past it raise no RuntimeWarning
    model = triple_model(0.05, R=1.0)
    model.R = np.array(R)
    y = random_series(30, 5, seed=4)
    with pytest.raises(smo.NumericalDegeneracyError) as want:
        oracle.matrix_kalman_filter(model, y)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(smo.NumericalDegeneracyError) as got:
            smo.kalman_filter(model, y)
    assert str(got.value) == str(want.value)
    assert str(got.value).endswith(where)


@pytest.mark.parametrize("T, message", [
    (1, "non-finite filtered state at t=0 in series 1"),
    (3, "innovation variance nan at t=1 in series 1"),
])
def test_filter_names_a_non_finite_filtered_state(T, message):
    # an infinite acceleration variance in series 1's P0: the update's
    # 0 · inf leaves NaN in the filtered covariance at t=0, which the
    # innovation variance shows only from t=1 on, so with T = 1 only the
    # check of the filtered states sees it
    P0 = np.stack([np.diag([1.0, 1.0, 10.0]), np.diag([1.0, 1.0, np.inf])])
    model = triple_model(0.05, R=0.01, P0=P0)
    y = random_series(T, 2, seed=5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(smo.NumericalDegeneracyError) as got:
            smo.kalman_filter(model, y)
    assert str(got.value) == message


# -- rts_smooth ---------------------------------------------------------------

def test_rts_boundary_condition():
    model = triple_model(0.05, R=0.01)
    rng = np.random.default_rng(31)
    y = np.cumsum(rng.normal(size=40))[:, None] * 0.1
    filt = smo.kalman_filter(model, y)
    sm = smo.rts_smooth(model, filt)
    assert np.array_equal(sm.means[-1], filt.means[-1])
    assert np.array_equal(sm.covs[-1], filt.covs[-1])


def test_rts_constant_acceleration_recovery():
    a = 3.0
    dt = 0.05
    t = np.arange(120) * dt
    y = 0.5 * a * t[:, None] ** 2
    model = triple_model(dt, R=1e-8)
    filt = smo.kalman_filter(model, y)
    sm = smo.rts_smooth(model, filt)
    mid = slice(30, 90)
    assert np.abs(sm.means[mid, 0, 2] - a).max() <= 0.01 * a


def test_rts_variance_reduction_and_psd():
    model = triple_model(0.05, R=0.04)
    rng = np.random.default_rng(32)
    y = np.sin(np.arange(80) * 0.1) + rng.normal(0, 0.2, size=80)
    filt = smo.kalman_filter(model, y[:, None])
    sm = smo.rts_smooth(model, filt)
    for t in range(80):
        P = sm.covs[t, 0]
        assert np.trace(P) <= np.trace(filt.covs[t, 0]) + 1e-12
        assert np.linalg.eigvalsh(0.5 * (P + P.T))[0] >= -1e-10
        assert np.abs(P - P.T).max() <= 1e-10


def rts_one_gain_at_a_time(model, filt):
    """The backward pass solving for each gain inside the recursion."""
    fm, fc, pm, pc = filt.means, filt.covs, filt.pred_means, filt.pred_covs
    ms, Ps = np.empty_like(fm), np.empty_like(fc)
    ms[-1], Ps[-1] = fm[-1], fc[-1]
    for t in range(fm.shape[0] - 2, -1, -1):
        G = np.linalg.solve(pc[t + 1],
                            np.matmul(fc[t], model.A.T).transpose(0, 2, 1))
        G = G.transpose(0, 2, 1)
        dm = (ms[t + 1] - pm[t + 1])[:, :, None]
        ms[t] = fm[t] + np.matmul(G, dm)[:, :, 0]
        Ps[t] = fc[t] + np.matmul(np.matmul(G, Ps[t + 1] - pc[t + 1]),
                                  G.transpose(0, 2, 1))
    return ms, Ps


def test_rts_stacked_gains_equal_one_gain_at_a_time():
    model = triple_model(0.05, R=0.04)
    y = _four_series()
    filt = smo.kalman_filter(model, y)
    sm = smo.rts_smooth(model, filt)
    ms, Ps = rts_one_gain_at_a_time(model, filt)
    assert np.array_equal(sm.means, ms) and np.array_equal(sm.covs, Ps)


def test_rts_names_the_singular_covariance_met_first():
    # the backward recursion meets the largest singular t + 1 first
    model = triple_model(0.05, R=0.04)
    filt = smo.kalman_filter(model, _four_series())
    filt.pred_covs[5, 2] = 0.0
    filt.pred_covs[12, 1] = 0.0
    with pytest.raises(smo.NumericalDegeneracyError,
                       match=r"singular predicted covariance at t=12$"):
        smo.rts_smooth(model, filt)


# -- em_fit -------------------------------------------------------------------

def sample_lds(model, T, seed):
    rng = np.random.default_rng(seed)
    x = rng.multivariate_normal(model.m0, model.P0)
    ys = np.empty(T)
    for t in range(T):
        if t > 0:
            x = model.A @ x + rng.multivariate_normal(np.zeros(3), model.Q)
        ys[t] = E1 @ x + rng.normal(0.0, np.sqrt(model.R))
    return ys


def test_em_recovers_known_r():
    truth = triple_model(0.05, R=0.01)
    y = sample_lds(truth, 400, seed=33)
    res = smo.em_fit(y[:, None], 0.05)
    assert 0.005 <= res.model.R[0] <= 0.02


def test_em_loglik_monotone_and_q_fixed():
    rng = np.random.default_rng(34)
    configs, _ = integ.simulate(mech.DoublePendulum(), [[0.6, -0.4]], 0.05, 200)
    y = configs[0, :, :1] + rng.normal(0, 0.1, size=(200, 1))
    res = smo.em_fit(y, 0.05)
    assert np.all(np.diff(res.logliks[0]) >= -smo.EM_SLACK)
    assert np.array_equal(res.model.Q, smo.FIXED_Q)
    assert res.iterations[0] == len(res.logliks[0])


def test_em_requires_iterations():
    with pytest.raises(ValueError):
        smo.em_fit(np.zeros((10, 1)), 0.05, iters=0)


def _four_series():
    rng = np.random.default_rng(44)
    t = np.arange(100) * 0.05
    return np.stack([np.sin(t),
                     np.sin(t) + rng.normal(0.0, 0.05, size=100),
                     0.5 * t ** 2 - t + rng.normal(0.0, 0.01, size=100),
                     np.cos(2 * t) + rng.normal(0.0, 0.1, size=100)], axis=1)


@pytest.mark.parametrize("gain_tol, stops", [
    (smo.EM_GAIN_TOL, [smo.EM_ITERS + 1] * 4),
    (1e-2, [smo.EM_ITERS + 1, 14, smo.EM_ITERS + 1, 14]),
])
def test_em_batch_equals_series(gain_tol, stops):
    # a (T, K) batch gives every series the bits of its own one-column run,
    # also when series leave the batch at different iterations
    y = _four_series()
    batch = smo.em_fit(y, 0.05, gain_tol=gain_tol)
    assert batch.iterations == stops
    for k in range(y.shape[1]):
        one = smo.em_fit(y[:, k:k + 1], 0.05, gain_tol=gain_tol)
        assert np.array_equal(batch.smooth.means[:, k], one.smooth.means[:, 0])
        assert np.array_equal(batch.smooth.covs[:, k], one.smooth.covs[:, 0])
        assert batch.model.R[k] == one.model.R[0]
        assert np.array_equal(batch.model.m0[k], one.model.m0[0])
        assert np.array_equal(batch.model.P0[k], one.model.P0[0])
        assert batch.iterations[k] == one.iterations[0]
        assert batch.logliks[k] == one.logliks[0]


@pytest.mark.parametrize("K", [1, 5, 16])
@pytest.mark.parametrize("T", [3, 40, 100])
def test_em_equals_matrix_oracle(K, T):
    # the M-step's selections keep the bits of its matmul and einsum;
    # gain_tol 1e-3 lets series leave the batch at different iterations
    y = random_series(T, K, seed=7 * K + T)
    got = smo.em_fit(y, 0.05, gain_tol=1e-3)
    want = oracle.matrix_em_fit(y, 0.05, gain_tol=1e-3)
    assert got.iterations == want.iterations
    assert got.logliks == want.logliks
    for name in ("R", "m0", "P0"):
        assert np.array_equal(getattr(got.model, name),
                              getattr(want.model, name)), name
    for name in ("means", "covs", "loglik"):
        assert np.array_equal(getattr(got.smooth, name),
                              getattr(want.smooth, name)), name


# -- smooth_trajectory --------------------------------------------------------

def _clean_traj(seed=35, T=200):
    rng = np.random.default_rng(seed)
    q0 = rng.uniform(-1.0, 1.0, size=2)
    configs, failed = integ.simulate(mech.DoublePendulum(), q0[None], 0.05, T)
    assert failed == {}
    return integ.Trajectory(configs[0], 0.05)


def test_smooth_noiseless_position_rmse():
    traj = _clean_traj()
    sm = smo.smooth_trajectory(traj.configs, traj.h)
    rmse = np.sqrt(np.mean((sm.q - traj.configs) ** 2))
    assert rmse <= 1e-3


def test_smooth_noiseless_velocity_tracks_central_difference():
    traj = _clean_traj()
    sm = smo.smooth_trajectory(traj.configs, traj.h)
    vtruth = (traj.configs[2:] - traj.configs[:-2]) / (2 * traj.h)
    rmse = np.sqrt(np.mean((sm.qdot[1:-1] - vtruth) ** 2))
    assert rmse <= 0.2


def test_smooth_denoises():
    traj = _clean_traj(36)
    obs = integ.add_noise(traj, 0.1, 37)
    sm = smo.smooth_trajectory(obs.configs, obs.h)
    rmse_raw = np.sqrt(np.mean((obs.configs - traj.configs) ** 2))
    rmse_sm = np.sqrt(np.mean((sm.q - traj.configs) ** 2))
    assert rmse_sm < rmse_raw


def test_smooth_shapes_and_determinism():
    traj = _clean_traj(38, T=80)
    obs = integ.add_noise(traj, 0.1, 39)
    a = smo.smooth_trajectory(obs.configs, obs.h)
    b = smo.smooth_trajectory(obs.configs, obs.h)
    assert a.q.shape == a.qdot.shape == a.qddot.shape == (80, 2)
    assert np.array_equal(a.q, b.q)
    assert np.array_equal(a.qdot, b.qdot)
    assert np.array_equal(a.qddot, b.qddot)
    assert len(a.fits) == 2 and a.fits[0]["R"] > 0


def test_smoothed_file_roundtrip(tmp_path):
    traj = _clean_traj(42, T=50)
    obs = integ.add_noise(traj, 0.1, 43)
    sm = replace(smo.smooth_trajectory(obs.configs, obs.h), split="train")
    p = tmp_path / "smoothed.csv"
    smo.save_smoothed(sm, p)
    header = p.read_text().splitlines()[0]
    assert header == "t,q1,qdot1,qddot1,q2,qdot2,qddot2"
    back = smo.load_smoothed(p)
    assert np.array_equal(back.q, sm.q)
    assert np.array_equal(back.qdot, sm.qdot)
    assert np.array_equal(back.qddot, sm.qddot)
    assert back.split == "train" and back.h == sm.h
    assert back.fits[0]["iterations"] == sm.fits[0]["iterations"]
