"""End-to-end acceptance gate.

Eight checks covering the contract of the whole package: integrator
self-consistency, gradient exactness, gauge properties, the barrier's
role, smoother quality, the headline method comparison, energy behavior,
and bitwise reproducibility.  Each test prints a single summary line.
"""

import json
import time

import numpy as np
import pytest

from smmfit import expcli as cli
from smmfit import integrators as integ
from smmfit import mechanics as mech
from smmfit import netparam as netp
from smmfit import smoother as smo
from smmfit import training as tr

import oracle

SYS = mech.DoublePendulum()


def report(tag, ok, detail):
    line = f"[acceptance] {tag}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def experiment(tmp_path_factory):
    """The headline sweep: 3 seeds x 3 methods x 3 rates on noisy data.

    Two workers give the serial run's result bytes
    (`test_run_experiment_workers_match_serial`) in less wall time."""
    out = tmp_path_factory.mktemp("sweep") / "exp"
    config = cli.ExperimentConfig(system="undamped", sigma=0.1, seeds=3,
                                  n_trajectories=16, split=(8, 4, 4), T=100,
                                  epochs=150, workers=2, out=str(out))
    t0 = time.perf_counter()
    table = cli.run_experiment(config)
    wall = time.perf_counter() - t0
    return config, table, out, wall


def test_1_integrator_satisfies_its_own_residual_check():
    # every generated trajectory must satisfy the stepping equation it
    # was produced from, at solver precision
    t0 = time.perf_counter()
    trajs = integ.sample_rest_trajectories(SYS, 4, 0.05, 200, seed=0,
                                           system="undamped")
    worst = 0.0
    for traj in trajs:
        q = traj.configs
        d = oracle.del_rows(SYS, oracle.Triple(q[:-2], q[1:-1], q[2:],
                                               traj.h))
        worst = max(worst, np.abs(d).max())
    dt = time.perf_counter() - t0
    report("integrator self-consistency",
           worst <= 1e-9 and dt < 5.0,
           f"max residual inf-norm {worst:.2e} over {len(trajs)} "
           f"trajectories of 200 steps in {dt:.2f}s (limits 1e-9, 5s)")


def test_2_loss_gradients_match_finite_differences():
    t0 = time.perf_counter()
    overall = 0.0
    for k in range(20):
        rng = np.random.default_rng(100 + k)
        arch = netp.ArchConfig(n=2, hidden=(8, 8), conservative=bool(k % 2))
        params = netp.init_params(200 + k, arch)
        _, cases = oracle.loss_gradient_cases(params, rng)
        idx = rng.choice(params.layout.total, size=12, replace=False)
        for loss, g in cases:
            overall = max(overall, oracle.fd_max_rel_err(
                loss, params.values, g, idx))
    dt = time.perf_counter() - t0
    report("gradient correctness",
           overall < 1e-4 and dt < 60.0,
           f"worst relative error {overall:.2e} across 20 nets x 3 losses "
           f"in {dt:.1f}s (limits 1e-4, 60s)")


def test_3_gauge_and_scale_properties():
    rng = np.random.default_rng(30)
    arch = netp.ArchConfig(n=2, hidden=(8, 8), conservative=False)
    params = netp.init_params(11, arch)
    sys_p = oracle.Rows(oracle.SmmSystem(params))

    shifted = netp.FlatParams(params.values.copy(), params.layout)
    oracle.last_bias(shifted, "potential")[:] += 0.7
    sys_s = oracle.Rows(oracle.SmmSystem(shifted))

    gamma = 10.0
    sys_g = oracle.Rows(oracle.SmmSystem(oracle.scale_params(params, gamma)))

    B = 12
    q2 = rng.uniform(-0.8, 0.8, (B, 2))
    dq = rng.uniform(-0.05, 0.05, (B, 2))
    dq2 = rng.uniform(-0.05, 0.05, (B, 2))
    qd = rng.uniform(-1.5, 1.5, (B, 2))
    h = 0.05

    t3 = oracle.Triple(q2 - dq, q2, q2 + dq2, h)
    d0 = oracle.del_rows(sys_p, t3)
    a0 = mech.acceleration(sys_p, q2, qd)
    shift_err = max(np.abs(oracle.del_rows(sys_s, t3) - d0).max(),
                    np.abs(mech.acceleration(sys_s, q2, qd) - a0).max())
    dg = oracle.del_rows(sys_g, t3)
    scale_del_err = (np.abs(dg - gamma * d0).max(axis=1)
                     / np.maximum(np.abs(gamma * d0).max(axis=1), 1e-12)).max()
    ag = mech.acceleration(sys_g, q2, qd)
    scale_acc_err = (np.abs(ag - a0).max(axis=1)
                     / np.maximum(np.abs(a0).max(axis=1), 1e-12)).max()

    alpha = tr.choose_alpha(params, q2, tr.ALPHA_FRACTION)
    norms = [float(np.linalg.norm(oracle.barrier_grad(
        oracle.scale_params(params, g), q2, alpha)))
        for g in (1.0, 10.0, 100.0, 1000.0)]
    monotone = all(a > b for a, b in zip(norms, norms[1:]))

    report("gauge and scale properties",
           shift_err <= 1e-12 and scale_del_err <= 1e-9
           and scale_acc_err <= 1e-9 and monotone,
           f"potential shift residual {shift_err:.1e} (limit 1e-12); "
           f"scaling: residual x gamma rel err {scale_del_err:.1e}, "
           f"acceleration rel err {scale_acc_err:.1e} (limit 1e-9); "
           f"barrier gradient norms {[f'{v:.3f}' for v in norms]} monotone")


def test_4_barrier_prevents_degenerate_solutions(experiment):
    # without the barrier a near-constant model keeps a vanishing
    # residual while predicting nothing; with it, every fitted model in
    # the sweep stays above its eigenvalue floor on its training set
    rng = np.random.default_rng(21)
    starts = rng.uniform(-0.4, 0.4, (3, 2))
    trajs = [oracle.exact_traj(oracle.ScalarDP(SYS), q, 0.05, 100, s)
             for q, s in zip(starts, ["train", "train", "val"])]
    arch = netp.ArchConfig(n=2, hidden=(32, 32))
    tuples = tr.assemble_tuples(trajs[:2], "del")
    val_batch = tr.assemble_tuples(trajs[2:], "accel")

    degen0 = oracle.scale_params(netp.init_params(5, arch), 1e-3)
    rec0, degen_params = tr.train("del", degen0, trajs,
                                  tr.TrainConfig(xi0=1e-3, epochs=50,
                                                 seed=5, mu=0.0))
    degen_loss = rec0.train_losses[-1]
    degen_rmse = tr.accel_rmse(degen_params, val_batch)
    degen_eig = tr.mass_eigenvalues(degen_params, tuples.data["q2"]).min()
    zero_rmse = float(np.sqrt(np.mean(val_batch.data["qddot"] ** 2)))

    rec1, healthy = tr.train("del", netp.init_params(5, arch), trajs,
                             tr.TrainConfig(xi0=1e-2, epochs=100, seed=5))
    healthy_loss = tr.del_loss_grad(healthy, tuples, mu=0.0)[0]
    healthy_rmse = tr.accel_rmse(healthy, val_batch)

    part_a = (degen_loss < 1e-6
              and degen_loss < 1e-4 * healthy_loss
              and degen_rmse > 10.0 * healthy_rmse
              and degen_rmse > 0.8 * zero_rmse
              and degen_eig < rec1.alpha)

    # the sweep's discrete-residual cells: reload each checkpoint and
    # re-sweep its training-set mass eigenvalues against its floor
    config, table, out, _ = experiment
    _, observed = cli.generate_pool(config)
    pool = cli.smooth_pool(observed, config.h)
    checked = 0
    worst_margin = np.inf
    for rec_path in sorted((out / "records").glob("*_del_*.json")):
        doc = json.loads(rec_path.read_text())
        if not doc.get("checkpoint"):
            continue
        params, _ = netp.load_params(out / doc["checkpoint"])
        assignment = cli.split_trajectories(config.n_trajectories,
                                            config.split, doc["seed"])
        labeled = cli.label_split(pool, assignment)
        train_trajs = [t for t in labeled if t.split == "train"]
        q2 = tr.assemble_tuples(train_trajs, "del").data["q2"]
        margin = tr.mass_eigenvalues(params, q2).min() - doc["alpha"]
        worst_margin = min(worst_margin, margin)
        checked += 1
    part_b = checked == 9 and worst_margin > 0

    report("degenerate-solution guard",
           part_a and part_b,
           f"unregularized: residual {degen_loss:.1e} "
           f"(regularized fit {healthy_loss:.1e}) yet test error "
           f"{degen_rmse:.2f} vs zero-predictor {zero_rmse:.2f} and "
           f"regularized {healthy_rmse:.2f}, min mass eigenvalue "
           f"{degen_eig:.1e} under the regularized floor {rec1.alpha:.3f}; "
           f"regularized sweep: {checked} fitted models above their "
           f"floors (worst margin {worst_margin:.3f})")


def test_5_smoother_recovers_states_at_main_noise_level(monkeypatch):
    # four fresh trajectories never touched by any training run, in the
    # moderate-energy regime where the fixed-bandwidth state-space model
    # is a valid description of the signal
    monkeypatch.setattr(integ, "ANGLE_RANGE", 0.4)
    trajs = integ.sample_rest_trajectories(SYS, 4, 0.05, 200, seed=90,
                                           system="undamped")
    worst_pos = worst_vel_gap = 0.0
    all_ok = True
    for i, traj in enumerate(trajs):
        obs = integ.add_noise(traj, 0.1, np.random.default_rng([90, i]))
        st = smo.smooth_trajectory(obs.configs, traj.h)
        q = traj.configs
        pos = float(np.sqrt(np.mean((st.q - q) ** 2)))
        raw = float(np.sqrt(np.mean((obs.configs - q) ** 2)))
        v_true = (q[2:] - q[:-2]) / (2 * traj.h)
        vel = float(np.sqrt(np.mean((st.qdot[1:-1] - v_true) ** 2)))
        fd = (obs.configs[2:] - obs.configs[:-2]) / (2 * traj.h)
        fdv = float(np.sqrt(np.mean((fd - v_true) ** 2)))
        mono = all(np.all(np.diff(f["logliks"]) >= -1e-8) for f in st.fits)
        all_ok &= pos < 0.1 and pos < raw and vel < fdv and mono
        worst_pos = max(worst_pos, pos)
        worst_vel_gap = max(worst_vel_gap, vel / fdv)
    report("smoother quality at sigma=0.1",
           all_ok,
           f"4 held-out trajectories: worst position RMSE {worst_pos:.3f} "
           f"rad (limit 0.1, always below raw), worst velocity ratio vs "
           f"differenced raw {worst_vel_gap:.2f} (< 1), EM monotone")


def test_6_residual_training_matches_best_regression(experiment):
    config, table, out, wall = experiment
    best = {}
    for m in config.methods:
        for xi0 in config.lrs:
            vals = [c.rmse for c in table.cells
                    if (c.method, c.xi0) == (m, xi0) and np.isfinite(c.rmse)]
            if not vals:
                continue
            med = float(np.median(vals))
            if m not in best or med < best[m][0]:
                best[m] = (med, xi0)
    baseline = min(best["accel"][0], best["nextstate"][0])
    ratio = best["del"][0] / baseline
    report("discrete-residual training vs regression baselines",
           ratio <= 1.1 and wall < 1800.0,
           f"median test RMSE at best rate: residual {best['del'][0]:.3f} "
           f"(rate {best['del'][1]:g}), acceleration {best['accel'][0]:.3f}, "
           f"next-state {best['nextstate'][0]:.3f}; ratio to best baseline "
           f"{ratio:.3f} (limit 1.1); sweep took {wall / 60:.1f} min "
           f"(limit 30)")


def test_7_integrator_energy_behavior():
    damped_sys = mech.DoublePendulum(damped=True)
    rng = np.random.default_rng(14)
    starts = rng.uniform(-1.0, 1.0, (4, 2))
    tu, failed = integ.simulate(SYS, starts, 0.05, 200)
    ok = not failed
    E = integ.midpoint_energy(SYS, tu, 0.05)
    worst_drift = (np.abs(E - E[:, :1]).max(axis=1)
                   / (np.abs(E[:, 0]) + 1.0)).max()
    ok &= bool(np.all(integ.energy_drift_ok(SYS, tu, 0.05)))
    td, failed = integ.simulate(damped_sys, starts, 0.05, 200)
    ok &= not failed
    Ed = integ.midpoint_energy(damped_sys, td, 0.05)
    nwin = Ed.shape[1] // 10
    win = Ed[:, :10 * nwin].reshape(-1, nwin, 10).mean(axis=2)
    worst_rise = float(np.diff(win, axis=1).max())
    ok &= bool(np.all(integ.energy_drift_ok(damped_sys, td, 0.05)))
    report("energy behavior over 200 steps",
           ok,
           f"undamped relative drift <= {worst_drift:.4f} (band 0.05); "
           f"damped windowed energy max rise {worst_rise:.2e} "
           f"(non-increasing)")


def test_8_experiment_is_deterministic(tmp_path):
    config = cli.ExperimentConfig(n_trajectories=4, split=(2, 1, 1), T=40,
                                  seeds=1, epochs=3, sigma=0.1,
                                  methods=("del", "accel"), lrs=(1e-2,),
                                  out=str(tmp_path / "exp"))

    def result_bytes():
        return {name: (tmp_path / "exp" / name).read_bytes()
                for name in ("results.csv", "results.json")}

    cli.run_experiment(config)
    first = result_bytes()
    cli.run_experiment(config)
    identical = result_bytes() == first
    report("run-to-run determinism",
           identical,
           "two sweeps from one configuration produced byte-identical "
           "results files")
