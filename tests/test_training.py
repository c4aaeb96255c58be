"""Loss, gradient, optimizer, and epoch-loop checks for the three objectives."""

import json
import logging

import numpy as np
import pytest

from smmfit import integrators as integ
from smmfit import mechanics as mech
from smmfit import netparam as netp
from smmfit import smoother as smo
from smmfit import training as tr

import oracle

SYS = mech.DoublePendulum()
SDP = oracle.ScalarDP(SYS)


def rollout(q0, h, T):
    configs, failed = integ.simulate(SYS, np.array([q0]), h, T)
    assert failed == {}
    return integ.Trajectory(configs[0], h)


ARCH8 = netp.ArchConfig(n=2, hidden=(8, 8))


@pytest.fixture(scope="module")
def gentle():
    # calibration data for the end-to-end smoke: rest starts within 0.4 rad
    rng = np.random.default_rng(21)
    starts = rng.uniform(-0.4, 0.4, size=(3, 2))
    splits = ["train", "train", "val"]
    return [oracle.exact_traj(SDP, starts[i], 0.05, 100, splits[i])
            for i in range(3)]


@pytest.fixture(scope="module")
def tiny():
    rng = np.random.default_rng(40)
    starts = rng.uniform(-0.5, 0.5, size=(2, 2))
    return [oracle.exact_traj(SDP, starts[0], 0.05, 30, "train"),
            oracle.exact_traj(SDP, starts[1], 0.05, 30, "val")]


def del_batch(trajs):
    return tr.assemble_tuples([t for t in trajs if t.split != "val"], "del")


# -- lr_schedule --------------------------------------------------------------

def test_lr_schedule_values():
    assert tr.lr_schedule(3e-4, 0) == 3e-4
    assert tr.lr_schedule(3e-4, 500) == 1.5e-4
    assert tr.lr_schedule(1e-2, 1500) == 2.5e-3


def test_lr_schedule_negative_step():
    with pytest.raises(ValueError):
        tr.lr_schedule(1e-3, -1)


# -- adam_step ----------------------------------------------------------------

def test_adam_zero_gradient_is_identity():
    state = tr.adam_init(7)
    values = np.linspace(-1.0, 1.0, 7)
    state2, out = tr.adam_step(state, values, np.zeros(7), 1e-2)
    assert np.array_equal(out, values)
    assert state2.step == 1


def test_adam_first_step_moves_by_lr():
    rng = np.random.default_rng(41)
    g = rng.normal(0.0, 1.0, size=20)
    g[np.abs(g) < 0.1] = 0.5  # keep gradients well above eps_adam
    values = rng.normal(0.0, 1.0, size=20)
    _, out = tr.adam_step(tr.adam_init(20), values, g, 1e-3)
    step = out - values
    assert np.abs(step + 1e-3 * np.sign(g)).max() <= 1e-3 * 1e-6


def test_adam_trace_determinism():
    rng = np.random.default_rng(42)
    grads = rng.normal(0.0, 1.0, size=(5, 11))
    traces = []
    for _ in range(2):
        state = tr.adam_init(11)
        values = np.zeros(11)
        seen = []
        for k in range(5):
            state, values = tr.adam_step(state, values, grads[k],
                                         tr.lr_schedule(1e-2, k))
            seen.append(values.copy())
        traces.append(np.array(seen))
    assert np.array_equal(traces[0], traces[1])


# -- Batch / assemble_tuples / make_batches -----------------------------------

def test_batch_validation():
    q = np.zeros((4, 2))
    with pytest.raises(ValueError):
        tr.Batch("nope", {"q": q})
    with pytest.raises(ValueError):
        tr.Batch("accel", {"q": q, "qdot": q})
    with pytest.raises(ValueError):
        tr.Batch("accel", {"q": q, "qdot": q, "qddot": np.zeros((3, 2))})
    with pytest.raises(ValueError):
        tr.Batch("del", {"q1": q, "q2": q, "q3": q})  # no step size


def test_batch_take_subsets_rows():
    q = np.arange(12.0).reshape(6, 2)
    b = tr.Batch("accel", {"q": q, "qdot": q + 100, "qddot": q + 200})
    sub = b.take(np.array([4, 1]))
    assert len(b) == 6
    assert np.array_equal(sub.data["qdot"], q[[4, 1]] + 100)
    assert sub.kind == "accel"


def test_tuples_never_span_trajectories():
    # configs encode (trajectory id, time index); any cross-boundary tuple
    # would mix id blocks or break the +1 time adjacency
    rng = np.random.default_rng(43)
    for _ in range(20):
        trajs = []
        for tid in range(rng.integers(2, 5)):
            T = int(rng.integers(3, 13))
            q = np.full((T, 2), 1000.0 * (tid + 1)) \
                + np.arange(T, dtype=np.float64)[:, None]
            z = np.zeros_like(q)
            trajs.append(smo.SmoothedTrajectory(q=q, qdot=z, qddot=z, h=0.05))
        total = sum(t.T for t in trajs)

        b = tr.assemble_tuples(trajs, "del")
        assert len(b) == total - 2 * len(trajs)
        assert np.array_equal(b.data["q2"], b.data["q1"] + 1.0)
        assert np.array_equal(b.data["q3"], b.data["q1"] + 2.0)
        assert np.array_equal(np.floor(b.data["q1"] / 1000.0),
                              np.floor(b.data["q3"] / 1000.0))

        b = tr.assemble_tuples(trajs, "nextstate")
        assert len(b) == total - len(trajs)
        assert np.array_equal(b.data["qnext"], b.data["q"] + 1.0)

        b = tr.assemble_tuples(trajs, "accel")
        assert len(b) == total


def test_assemble_rejects_mixed_step_sizes():
    z = np.zeros((5, 2))
    a = smo.SmoothedTrajectory(q=z, qdot=z, qddot=z, h=0.05)
    b = smo.SmoothedTrajectory(q=z, qdot=z, qddot=z, h=0.02)
    with pytest.raises(ValueError):
        tr.assemble_tuples([a, b], "accel")


def test_make_batches_partitions_indices():
    rng = np.random.default_rng(44)
    batches = tr.make_batches(rng, 100, 32)
    assert [len(b) for b in batches] == [32, 32, 32, 4]
    assert np.array_equal(np.sort(np.concatenate(batches)), np.arange(100))
    again = tr.make_batches(np.random.default_rng(44), 100, 32)
    assert all(np.array_equal(x, y) for x, y in zip(batches, again))
    with pytest.raises(ValueError):
        tr.make_batches(rng, 10, 0)


# -- del_loss -----------------------------------------------------------------

def test_del_loss_ground_truth_variational_triples():
    # triples generated by the variational integrator satisfy its own
    # discrete equations to solver tolerance
    traj = rollout([0.9, -0.5], 0.05, 60)
    c = traj.configs
    b = tr.Batch("del", {"q1": c[:-2], "q2": c[1:-1], "q3": c[2:]}, traj.h)
    assert oracle.system_del_mean(SDP, b) <= 1e-12


def test_del_loss_matches_per_row_reference(tiny):
    b = del_batch(tiny)
    params = netp.init_params(1, ARCH8)
    got = tr.del_loss_grad(params, b, mu=0.0)[0]
    want = oracle.system_del_mean(oracle.SmmSystem(params), b)
    assert got == pytest.approx(want, rel=1e-12)


def test_del_loss_degenerate_scaling_kills_residual(tiny):
    # shrinking every component toward the constant Lagrangian zeroes the
    # residual term, which is what the barrier exists to rule out
    b = del_batch(tiny)
    params = oracle.scale_params(netp.init_params(1, ARCH8), 1e-8)
    assert tr.del_loss_grad(params, b, mu=0.0)[0] <= 1e-12


def test_del_loss_gamma_squared_homogeneity(tiny):
    b = del_batch(tiny)
    params = netp.init_params(2, ARCH8)
    scaled = oracle.scale_params(params, 10.0)
    l0, g0 = tr.del_loss_grad(params, b, mu=0.0)
    l1, g1 = tr.del_loss_grad(scaled, b, mu=0.0)
    assert l1 == pytest.approx(100.0 * l0, rel=1e-9)
    np.testing.assert_allclose(g1, 100.0 * g0, rtol=1e-9,
                               atol=1e-9 * np.abs(g0).max())


def test_del_loss_mu_zero_equals_residual_term(tiny):
    b = del_batch(tiny)
    params = netp.init_params(3, ARCH8)
    configs = np.concatenate([t.q for t in tiny if t.split != "val"])
    alpha = tr.choose_alpha(params, configs)
    rho, ld = oracle.del_loss_terms(params, b, alpha)
    assert tr.del_loss_grad(params, b, mu=0.0, alpha=alpha)[0] \
        == pytest.approx(rho)
    full = tr.del_loss_grad(params, b, mu=0.01, alpha=alpha)[0]
    assert full == pytest.approx(rho - 0.01 * ld, rel=1e-12)


def test_barrier_term_grows_by_n_log_gamma_per_decade(tiny):
    # logdet(gamma M - alpha I) ~ n ln(gamma) + logdet M for large gamma;
    # successive decades approach an increment of n ln 10
    b = del_batch(tiny)
    params = netp.init_params(2, ARCH8)
    configs = np.concatenate([t.q for t in tiny if t.split != "val"])
    alpha = tr.choose_alpha(params, configs)
    ld = {}
    for gamma in (10.0, 100.0, 1000.0):
        _, ld[gamma] = oracle.del_loss_terms(
            oracle.scale_params(params, gamma), b, alpha)
    want = 2 * np.log(10.0)
    assert abs(ld[100.0] - ld[10.0] - want) <= 0.05 * want
    assert abs(ld[1000.0] - ld[100.0] - want) <= 0.01 * want


def test_del_loss_barrier_violation_raises(tiny):
    b = del_batch(tiny)
    params = netp.init_params(2, ARCH8)
    configs = np.concatenate([t.q for t in tiny if t.split != "val"])
    alpha = tr.choose_alpha(params, configs)
    shrunk = oracle.scale_params(params, 0.3)  # pushes min eig below alpha
    with pytest.raises(mech.NotPositiveDefiniteError):
        tr.del_loss_grad(shrunk, b, mu=0.01, alpha=alpha)


# -- gradient checks ----------------------------------------------------------

def sampled_indices(layout_size, count, seed):
    rng = np.random.default_rng(seed)
    return rng.choice(layout_size, size=count, replace=False)


def test_del_gradient_matches_finite_differences(tiny):
    b = del_batch(tiny).take(np.arange(8))
    params = netp.init_params(4, ARCH8)
    configs = np.concatenate([t.q for t in tiny if t.split != "val"])
    alpha = tr.choose_alpha(params, configs)
    _, grad = tr.del_loss_grad(params, b, mu=0.01, alpha=alpha)

    def loss(v):
        return tr.del_loss_grad(netp.FlatParams(v, params.layout), b,
                                mu=0.01, alpha=alpha)[0]

    idx = sampled_indices(params.values.size, 25, 45)
    assert oracle.fd_max_rel_err(loss, params.values.copy(), grad, idx) <= 1e-4


def test_accel_gradient_matches_finite_differences(tiny):
    b = tr.assemble_tuples([tiny[0]], "accel").take(np.arange(8))
    params = netp.init_params(4, ARCH8)
    _, grad = tr.accel_loss_grad(params, b)

    def loss(v):
        return tr.accel_loss_grad(netp.FlatParams(v, params.layout), b)[0]

    idx = sampled_indices(params.values.size, 25, 46)
    assert oracle.fd_max_rel_err(loss, params.values.copy(), grad, idx) <= 1e-4


def test_nextstate_gradient_matches_finite_differences(tiny):
    b = tr.assemble_tuples([tiny[0]], "nextstate").take(np.arange(8))
    params = netp.init_params(4, ARCH8)
    _, grad = tr.nextstate_loss_grad(params, b, 0.05)

    def loss(v):
        return tr.nextstate_loss_grad(netp.FlatParams(v, params.layout), b,
                                      0.05)[0]

    idx = sampled_indices(params.values.size, 25, 47)
    assert oracle.fd_max_rel_err(loss, params.values.copy(), grad, idx) <= 1e-4


@pytest.mark.parametrize("conservative", [True, False])
def test_loss_gradients_match_finite_differences_n3(conservative):
    # three coordinates: a 6-column mass-net output and a 3x3 Cholesky solve
    arch = netp.ArchConfig(n=3, hidden=(8, 8), conservative=conservative)
    params = netp.init_params(31, arch)
    alpha, cases = oracle.loss_gradient_cases(
        params, np.random.default_rng(300 + conservative))
    assert alpha > 0.0
    idx = sampled_indices(params.layout.total, 12, 48 + conservative)
    for loss, grad in cases:
        assert oracle.fd_max_rel_err(loss, params.values.copy(), grad,
                                     idx) <= 1e-4


# -- accel_loss ---------------------------------------------------------------

def test_accel_loss_on_own_predictions_is_zero(tiny):
    params = netp.init_params(5, ARCH8)
    q = tiny[0].q[:10]
    qd = tiny[0].qdot[:10]
    targets = tr.predicted_accelerations(params, q, qd)
    b = tr.Batch("accel", {"q": q, "qdot": qd, "qddot": targets})
    assert tr.accel_loss_grad(params, b)[0] == 0.0


def test_accel_loss_ground_truth_vs_finite_difference_targets():
    # second differences of a fine noise-free trajectory approximate the
    # analytic accelerations to integrator-accuracy level
    traj = rollout([0.8, -0.4], 0.002, 400)
    c = traj.configs
    h = traj.h
    qd = (c[2:] - c[:-2]) / (2.0 * h)
    qdd = (c[2:] - 2.0 * c[1:-1] + c[:-2]) / h ** 2
    b = tr.Batch("accel", {"q": c[1:-1], "qdot": qd, "qddot": qdd})
    assert oracle.system_accel_mse(SDP, b) <= 1e-4


def test_accel_loss_invariant_under_joint_scaling(tiny):
    b = tr.assemble_tuples([tiny[0]], "accel")
    params = netp.init_params(5, ARCH8)
    base = tr.accel_loss_grad(params, b)[0]
    scaled = tr.accel_loss_grad(oracle.scale_params(params, 25.0), b)[0]
    assert scaled == pytest.approx(base, rel=1e-9)


def test_accel_loss_matches_per_row_reference(tiny):
    b = tr.assemble_tuples([tiny[0]], "accel").take(np.arange(12))
    params = netp.init_params(5, ARCH8)
    got = tr.accel_loss_grad(params, b)[0]
    want = oracle.system_accel_mse(oracle.SmmSystem(params), b)
    assert got == pytest.approx(want, rel=1e-12)
    assert tr.accel_rmse(params, b) == pytest.approx(np.sqrt(got), rel=1e-12)


# -- nextstate_loss -----------------------------------------------------------

def test_nextstate_loss_on_own_predictions_is_zero(tiny):
    params = netp.init_params(6, ARCH8)
    b0 = tr.assemble_tuples([tiny[0]], "nextstate").take(np.arange(10))
    qn, vn = oracle.nextstate_predictions(params, b0, 0.05)
    b = tr.Batch("nextstate", {"q": b0.data["q"], "qdot": b0.data["qdot"],
                               "qnext": qn, "qdotnext": vn})
    assert tr.nextstate_loss_grad(params, b, 0.05)[0] == 0.0


def test_nextstate_loss_zero_step_is_data_mismatch(tiny):
    params = netp.init_params(6, ARCH8)
    b = tr.assemble_tuples([tiny[0]], "nextstate")
    got = tr.nextstate_loss_grad(params, b, 0.0)[0]
    want = (np.sum((b.data["qnext"] - b.data["q"]) ** 2)
            + np.sum((b.data["qdotnext"] - b.data["qdot"]) ** 2)) \
        / (2.0 * b.data["q"].size)
    assert got == pytest.approx(want, rel=1e-12)


def test_nextstate_ground_truth_on_smoothed_clean_data():
    # generator (variational) and predictor (RK4) disagree slightly, and the
    # smoother adds its own bias, so the floor is small but nonzero
    rng = np.random.default_rng(35)
    traj = rollout(rng.uniform(-1.0, 1.0, size=2), 0.05, 200)
    st = smo.smooth_trajectory(traj.configs, traj.h)
    b = tr.assemble_tuples([st], "nextstate")
    mse = oracle.system_nextstate_mse(SDP, b, traj.h)
    assert 0.0 < mse < 1e-3


def test_nextstate_predictions_match_rk4_reference(tiny):
    params = netp.init_params(6, ARCH8)
    b = tr.assemble_tuples([tiny[0]], "nextstate").take(np.arange(8))
    qn, vn = oracle.nextstate_predictions(params, b, 0.05)
    qr, vr = oracle.rk4_predictions(params.values, params.layout, b)
    np.testing.assert_allclose(qn, qr, rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(vn, vr, rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("qdot,h,stage", [
    pytest.param(qdot, h, stage, id=f"{qdot}-{h}")
    for qdot, h, stage in [(1e160, 0.05, 1), (0.0, 1e200, 2), (0.0, 1e60, 3)]])
def test_nextstate_blowup_raises(tiny, qdot, h, stage, monkeypatch):
    # a huge velocity makes the first stage's τ infinite; a huge step the
    # second stage's velocity, and a smaller one the third stage's τ after
    # two finite stages.  The stage that goes non-finite raises before any
    # later block runs: every block sees finite rows, and the last block
    # run is that stage's velocity block
    params = netp.init_params(6, ARCH8)
    b = tr.assemble_tuples([tiny[0]], "nextstate").take(np.arange(8))
    b.data["qdot"][3] += qdot
    calls = []
    position, velocity = tr._position_np, tr._velocity_np

    def seen_position(theta_v, layout, X, want_x):
        calls.append(("position", np.all(np.isfinite(X)), True))
        return position(theta_v, layout, X, want_x)

    def seen_velocity(theta_v, layout, pos, X, V, want_xv):
        A, adjoint = velocity(theta_v, layout, pos, X, V, want_xv)
        calls.append(("velocity", np.all(np.isfinite(X))
                      and np.all(np.isfinite(V)), np.all(np.isfinite(A))))
        return A, adjoint

    monkeypatch.setattr(tr, "_position_np", seen_position)
    monkeypatch.setattr(tr, "_velocity_np", seen_velocity)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(integ.IntegrationBlowupError,
                           match="non-finite RK4 stage"):
            tr.nextstate_loss_grad(params, b, h)
    blocks, rows_finite, out_finite = zip(*calls)
    assert blocks.count("velocity") == stage
    assert blocks.count("position") == (1 if stage < 3 else 2)
    assert all(rows_finite) and blocks[-1] == "velocity"
    assert all(out_finite[:-1]) and not out_finite[-1]


def test_train_counts_a_blowup_step_as_invalid(tiny, caplog):
    # only tuple 0 starts at the huge velocity (it is no tuple's next
    # state), so the one batch holding it is rejected in each epoch
    t = tiny[0]
    qdot = t.qdot.copy()
    qdot[0] = 1e160
    bad = smo.SmoothedTrajectory(q=t.q, qdot=qdot, qddot=t.qddot, h=t.h,
                                 split="train")
    caplog.set_level(logging.WARNING, logger="smmfit.training")
    with np.errstate(over="ignore", invalid="ignore"):
        rec, _ = tr.train("nextstate", netp.init_params(8, ARCH8),
                          [bad, tiny[1]],
                          tr.TrainConfig(xi0=1e-3, epochs=2, batch_size=8,
                                         seed=9))
    assert rec.invalid_steps == 2
    assert np.all(np.isfinite(rec.train_losses))
    assert sum("non-finite RK4 stage" in r.getMessage()
               for r in caplog.records) == 2


# -- barrier gradient decay ---------------------------------------------------

def test_barrier_gradient_norm_shrinks_with_scale(tiny):
    # scaling the model up moves it away from the barrier; the barrier
    # gradient norm must fall monotonically over three decades
    params = netp.init_params(2, ARCH8)
    configs = np.concatenate([t.q for t in tiny if t.split != "val"])
    alpha = tr.choose_alpha(params, configs)
    norms = [np.linalg.norm(oracle.barrier_grad(
        oracle.scale_params(params, g), configs, alpha))
             for g in (1.0, 10.0, 100.0, 1000.0)]
    assert all(a > b for a, b in zip(norms, norms[1:]))


# -- choose_alpha / mass_eigenvalues ------------------------------------------

def test_choose_alpha_is_half_the_minimum_eigenvalue(tiny):
    params = netp.init_params(7, ARCH8)
    configs = np.concatenate([t.q for t in tiny])
    eigs = tr.mass_eigenvalues(params, configs)
    assert tr.choose_alpha(params, configs) == pytest.approx(0.5 * eigs.min())
    assert tr.choose_alpha(params, configs, fraction=0.25) \
        == pytest.approx(0.25 * eigs.min())


def test_barrier_finite_at_initialization(tiny):
    b = del_batch(tiny)
    params = netp.init_params(7, ARCH8)
    configs = np.concatenate([t.q for t in tiny if t.split != "val"])
    alpha = tr.choose_alpha(params, configs)
    assert alpha < tr.mass_eigenvalues(params, configs).min()
    rho, ld = oracle.del_loss_terms(params, b, alpha)
    assert np.isfinite(rho) and np.isfinite(ld)


def test_mass_eigenvalues_against_dense_solver(tiny):
    params = netp.init_params(7, ARCH8)
    configs = np.concatenate([t.q for t in tiny])[:20]
    got = tr.mass_eigenvalues(params, configs)
    assert got.shape == (20, 2)
    M, _ = oracle.mass_matrix(params.values, params.layout, configs)
    np.testing.assert_allclose(got, np.linalg.eigvalsh(M), rtol=1e-10)


def test_feasibility_pivots_agree_with_eigenvalues_and_the_barrier():
    # train's feasibility rule, the pivots of M - alpha I at every
    # configuration, decides as eigvalsh > alpha does and as the barrier
    # node raises, just above and just below the smallest eigenvalue
    rng = np.random.default_rng(24)
    decisions = 0
    for draw in range(120):
        n = 1 + draw % 3
        params = netp.init_params(draw, netp.ArchConfig(n=n, hidden=(8, 8)))
        configs = rng.uniform(-np.pi, np.pi, size=(40, n))
        eigs = tr.mass_eigenvalues(params, configs)
        for alpha in eigs.min() * np.array([1.0 - 1e-3, 1.0 + 1e-3]):
            want = bool(eigs.min() > alpha)
            try:
                mech.cholesky(netp.mass_entries_t(params, configs), alpha)
                by_pivots = True
            except mech.NotPositiveDefiniteError:
                by_pivots = False
            try:
                oracle.barrier_grad(params, configs, alpha)
                by_barrier = True
            except mech.NotPositiveDefiniteError:
                by_barrier = False
            assert by_pivots == by_barrier == want
            decisions += want
    assert decisions == 120


def test_train_config_checks_mu_and_alpha_fraction():
    # the fraction of choose_alpha's eigenvalue is checked here, once
    for bad in (dict(mu=-1.0), dict(alpha_fraction=0.0),
                dict(alpha_fraction=1.0), dict(alpha_fraction=1.5)):
        with pytest.raises(ValueError):
            tr.TrainConfig(**bad)
    tr.TrainConfig(mu=0.0, alpha_fraction=0.999)


# -- train --------------------------------------------------------------------

def test_train_zero_epochs_returns_initial_params(tiny):
    params = netp.init_params(8, ARCH8)
    rec, best = tr.train("accel", params, tiny,
                         tr.TrainConfig(xi0=1e-3, epochs=0))
    assert rec.best_epoch == 0 and len(rec.val_errors) == 1
    assert np.array_equal(best.values, params.values)


def test_train_keeps_the_freed_heap_for_library_callers(tiny, monkeypatch):
    # a caller of train that never runs the CLI gets the heap setting too
    calls = []
    monkeypatch.setattr(tr, "keep_freed_heap", lambda: calls.append(1))
    tr.train("accel", netp.init_params(8, ARCH8), tiny,
             tr.TrainConfig(epochs=0))
    assert calls == [1]


def test_train_rejects_unknown_method(tiny):
    with pytest.raises(ValueError):
        tr.train("sgd", netp.init_params(8, ARCH8),
                 tiny, tr.TrainConfig())


def test_train_identical_seed_identical_record(tiny):
    params = netp.init_params(8, ARCH8)
    runs = [tr.train("del", params, tiny,
                     tr.TrainConfig(xi0=1e-3, epochs=3, seed=9))
            for _ in range(2)]
    a, b = runs[0][0], runs[1][0]
    assert a.train_losses == b.train_losses
    assert a.val_errors == b.val_errors
    assert a.lrs == b.lrs and a.best_epoch == b.best_epoch
    assert a.alpha == b.alpha
    assert np.array_equal(runs[0][1].values, runs[1][1].values)


def test_train_desk_scale_smoke(gentle):
    # two noise-free training trajectories, 100 epochs: validation
    # acceleration error must fall at least 10x from its initial value
    # (calibrated margin: observed factor is about 20)
    params = netp.init_params(5, netp.ArchConfig(n=2, hidden=(32, 32)))
    config = tr.TrainConfig(xi0=1e-2, epochs=100, seed=5)
    rec, best = tr.train("del", params, gentle, config)

    assert len(rec.val_errors) == 101
    assert rec.lrs == [tr.lr_schedule(1e-2, k) for k in range(100)]
    assert rec.val_errors[rec.best_epoch] == min(rec.val_errors)
    assert rec.val_errors[0] / min(rec.val_errors) >= 10.0

    # barrier held at the selected checkpoint
    configs = np.concatenate([t.q for t in gentle if t.split == "train"])
    eigs = tr.mass_eigenvalues(best, configs)
    assert eigs.min() > rec.alpha


def test_train_del_step_runs_no_batch_barrier_pass(tiny, monkeypatch):
    # a del step runs the mass block once inside its loss, the position
    # pass on its batch's U distinct pairs; the barrier reads the factor
    # of the accepted step's feasibility pass over the N training
    # configurations, and train finds the distinct pairs once
    configs = tiny[0].q
    calls, in_loss, distinct = [], [False], tr._distinct_rows
    block, loss_grad = tr.mass_t, tr.del_loss_grad

    def counting(theta_v, layout, Q, jac, want_x):
        calls.append((in_loss[0], len(Q), jac))
        return block(theta_v, layout, Q, jac, want_x)

    tables = []

    def counting_rows(rows):
        tables.append(len(rows))
        return distinct(rows)

    pairs = []

    def step(params, batch, *args):
        q1, q2, q3 = (batch.data[k] for k in ("q1", "q2", "q3"))
        pairs.append(len(distinct(np.concatenate([np.hstack([q1, q2]),
                                                  np.hstack([q2, q3])]))[0]))
        in_loss[0] = True
        try:
            return loss_grad(params, batch, *args)
        finally:
            in_loss[0] = False

    monkeypatch.setattr(tr, "mass_t", counting)
    monkeypatch.setattr(tr, "_distinct_rows", counting_rows)
    monkeypatch.setattr(tr, "del_loss_grad", step)
    rec, _ = tr.train("del", netp.init_params(8, ARCH8), tiny,
                      tr.TrainConfig(xi0=1e-3, epochs=2, batch_size=8))
    steps = len(pairs)
    assert steps == 8 and rec.invalid_steps == 0
    assert tables == [2 * (len(configs) - 2)]
    assert [c[1:] for c in calls if c[0]] == [(u, True) for u in pairs]
    # the check at θ₀ and one per accepted step (choose_alpha's pass goes
    # through netparam's own mass_entries_t)
    assert [c[1:] for c in calls if not c[0] and not c[2]] \
        == [(len(configs), False)] * (steps + 1)


@pytest.mark.parametrize("mu", [0.0, 0.01])
@pytest.mark.parametrize("n,B", [(n, B) for n in (1, 2, 3) for B in (1, 7, 32)])
def test_train_del_loss_equals_the_direct_loss(n, B, mu, monkeypatch):
    # the loss and gradient train takes with its pair table and mass state
    # against a direct del_loss_grad on the same batch and θ: bit for bit
    # without the barrier (the same pairs in the same order), to rounding
    # with it (the factor comes from an N-row mass pass, not a B-row one).
    # The training set repeats a trajectory, and a copy of it has a -0.0
    # in place of a 0.0, so its pairs there stay apart
    rng = np.random.default_rng([n, 30])
    q = np.cumsum(rng.normal(scale=0.05, size=(12, n)), axis=0)
    q[3, 0] = 0.0
    signed = q.copy()
    signed[3, 0] = -0.0

    def traj(q, split):
        return smo.SmoothedTrajectory(q=q, qdot=np.ones_like(q),
                                      qddot=np.zeros_like(q), h=0.05,
                                      split=split)

    trajs = [traj(q, "train"), traj(q, "train"), traj(signed, "train"),
             traj(q + 0.1, "val")]
    arch = netp.ArchConfig(n=n, hidden=(8, 8), conservative=n != 2)
    loss_grad, pairs = tr.del_loss_grad, []

    def both(params, batch, *args):
        got = loss_grad(params, batch, *args)
        inputs = args[-1]
        assert inputs[1] is not None
        pairs.append(len(inputs[0][0]) < 2 * len(batch))
        want = loss_grad(params, batch, *args[:-1])
        if mu == 0.0:
            assert got[0] == want[0] and np.array_equal(got[1], want[1])
        else:
            assert abs(got[0] - want[0]) <= 1e-12 * abs(want[0])
            assert np.abs(got[1] - want[1]).max() \
                <= 1e-12 * np.abs(want[1]).max()
        return got

    monkeypatch.setattr(tr, "del_loss_grad", both)
    rec, _ = tr.train("del", netp.init_params(n, arch), trajs,
                      tr.TrainConfig(xi0=1e-3, epochs=2, batch_size=B, mu=mu))
    assert len(pairs) == 2 * -(-30 // B) and rec.invalid_steps == 0
    # batches of more than one tuple share pairs in the run
    assert any(pairs) == (B > 1)


def test_train_divergence_budget(tiny, caplog):
    # an absurd learning rate blows the parameters up; every later step is
    # rejected and the run must abort with the record attached
    params = netp.init_params(8, ARCH8)
    caplog.set_level(logging.ERROR, logger="smmfit.training")
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(tr.TrainingDivergedError) as err:
            tr.train("accel", params, tiny,
                     tr.TrainConfig(xi0=1e6, epochs=40, seed=9))
    assert err.value.record.invalid_steps == tr.DIVERGENCE_BUDGET


def test_record_round_trip(tmp_path, tiny):
    params = netp.init_params(8, ARCH8)
    rec, _ = tr.train("nextstate", params, tiny,
                      tr.TrainConfig(xi0=1e-3, epochs=2, seed=9))
    path = tmp_path / "record.json"
    tr.save_record(rec, path)
    assert tr.TrainRecord(**json.loads(path.read_text())) == rec
