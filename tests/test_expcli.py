"""Experiment-harness checks: splits, evaluation, artifacts, CLI verbs."""

import json
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from smmfit import expcli as cli
from smmfit import integrators as integ
from smmfit import mechanics as mech
from smmfit import netparam as netp
from smmfit import smoother as smo
from smmfit import training as tr


def desk_config(**over):
    base = dict(n_trajectories=4, split=(2, 1, 1), T=40, seeds=1,
                epochs=3, methods=("accel",), lrs=(1e-2,), out="results")
    base.update(over)
    return cli.ExperimentConfig(**base)


# -- configuration ------------------------------------------------------------

def test_config_defaults_are_full_protocol():
    c = cli.ExperimentConfig()
    assert c.n_trajectories == 16 and c.split == (8, 4, 4)
    assert c.T == 200 and c.h == 0.05 and c.sigma == 0.1
    assert c.seeds == 10 and c.epochs == 500 and c.batch_size == 256
    assert c.lrs == (1e-2, 1e-3, 1e-5)
    assert c.methods == ("del", "accel", "nextstate")


def test_paper_protocol_resets_desk_scale_fields():
    desk = desk_config(sigma=0.4)
    full = cli.paper_protocol(desk)
    assert full.n_trajectories == 16 and full.split == (8, 4, 4)
    assert full.T == 200 and full.seeds == 10 and full.epochs == 500
    assert full.batch_size == 256 and full.sigma == 0.1
    assert full.lrs == (1e-2, 1e-3, 1e-5)
    assert full.system == desk.system and full.out == desk.out


def test_config_validation():
    with pytest.raises(cli.ConfigError):
        cli.ExperimentConfig(system="triple")
    with pytest.raises(cli.ConfigError):
        cli.ExperimentConfig(split=(8, 4, 3))
    with pytest.raises(cli.ConfigError):
        cli.ExperimentConfig(sigma=-0.1)
    with pytest.raises(cli.ConfigError):
        cli.ExperimentConfig(methods=("del", "sgd"))
    with pytest.raises(cli.ConfigError):
        cli.ExperimentConfig(lrs=())
    with pytest.raises(cli.ConfigError):
        cli.config_from_dict({"noise": 0.1})


def test_config_file_round_trip(tmp_path):
    c = desk_config(sigma=0.05, system="damped")
    c.save(tmp_path / "config.json")
    assert cli.load_config(tmp_path / "config.json") == c


def test_experiment_config_from_flags(tmp_path):
    desk_config().save(tmp_path / "c.json")
    parser = cli.build_parser()
    args = parser.parse_args(["experiment", "--config",
                              str(tmp_path / "c.json"), "--paper-protocol",
                              "--sigma", "0.4", "--out", "o"])
    c = cli._experiment_config(args)
    assert c.n_trajectories == 16 and c.epochs == 500  # protocol restored
    assert c.sigma == 0.4 and c.out == "o"  # explicit flags win

    args = parser.parse_args(["experiment", "--trajectories", "8",
                              "--out", "o"])
    c = cli._experiment_config(args)
    assert c.split == (4, 2, 2) and c.n_trajectories == 8


# -- split_trajectories -------------------------------------------------------

def test_split_deterministic_and_disjoint():
    a = cli.split_trajectories(16, (8, 4, 4), seed=3)
    b = cli.split_trajectories(16, (8, 4, 4), seed=3)
    for key in ("train", "val", "test"):
        assert np.array_equal(a[key], b[key])
    joined = np.concatenate([a["train"], a["val"], a["test"]])
    assert np.array_equal(np.sort(joined), np.arange(16))
    assert len(a["train"]) == 8 and len(a["val"]) == 4 and len(a["test"]) == 4


def test_split_varies_across_seeds():
    seen = {tuple(cli.split_trajectories(16, (8, 4, 4), s)["train"])
            for s in range(10)}
    assert len(seen) >= 9


def test_split_size_mismatch():
    with pytest.raises(cli.ConfigError):
        cli.split_trajectories(15, (8, 4, 4), seed=0)


# -- evaluation ---------------------------------------------------------------

@pytest.fixture(scope="module")
def smoothed_pool():
    config = desk_config(T=60, sigma=0.1)
    _, observed = cli.generate_pool(config)
    return config, cli.smooth_pool(observed, config.h)


def test_smooth_pool_equals_per_trajectory_smoothing():
    config = desk_config(n_trajectories=3, split=(1, 1, 1), T=50, sigma=0.1)
    _, observed = cli.generate_pool(config)
    pool = cli.smooth_pool(observed, config.h)
    assert len(pool) == 3
    for st, obs in zip(pool, observed):
        one = smo.smooth_trajectory(obs.observations, config.h)
        assert np.array_equal(st.q, one.q)
        assert np.array_equal(st.qdot, one.qdot)
        assert np.array_equal(st.qddot, one.qddot)
        assert st.h == one.h and st.split == one.split == ""
        assert st.fits == one.fits


def test_eval_batch_targets_are_analytic(smoothed_pool):
    config, pool = smoothed_pool
    system = cli.make_system(config)
    b = cli.eval_batch(system, pool[:2])
    # the analytic system scores zero against its own targets by definition
    assert tr.system_accel_mse(system, b) == 0.0
    assert len(b) == 2 * config.T


def test_evaluate_finite_and_permutation_invariant(smoothed_pool):
    config, pool = smoothed_pool
    params = netp.init_params(0, cli.make_arch(config))
    b = cli.eval_batch(cli.make_system(config), pool[:2])
    res = cli.evaluate(params, b)
    assert np.isfinite(res.rmse) and res.failed == 0
    perm = np.random.default_rng(1).permutation(len(b))
    again = cli.evaluate(params, b.take(perm))
    assert again.rmse == pytest.approx(res.rmse, rel=1e-12)


def test_evaluate_flags_degenerate_model(smoothed_pool):
    # a nearly constant Lagrangian predicts nothing useful; the error must
    # be large compared to the data scale, not silently small
    config, pool = smoothed_pool
    params = netp.scale_params(netp.init_params(0, cli.make_arch(config)),
                               1e-8)
    b = cli.eval_batch(cli.make_system(config), pool[:2])
    res = cli.evaluate(params, b)
    assert res.rmse > 1.0


@pytest.mark.parametrize("which,value", [
    (None, np.nan),   # every parameter NaN
    (0, 2000.0),      # exp(s_M) overflows
    (0, -3000.0),     # exp(s_M) underflows to a zero Cholesky pivot
    (1, 2000.0),      # exp(s_V) overflows
], ids=["nan", "sM_2000", "sM_-3000", "sV_2000"])
def test_evaluate_counts_failed_rows(smoothed_pool, which, value):
    config, pool = smoothed_pool
    params = netp.init_params(0, cli.make_arch(config))
    flat = netp.flatten_params(params)
    if which is None:
        flat.values[:] = value
    else:
        _, s, _ = flat.layout.slot("log_scales")
        flat.values[s + which] = value
    b = cli.eval_batch(cli.make_system(config), pool[:1])
    with np.errstate(invalid="ignore", over="ignore", under="ignore"):
        res = cli.evaluate(flat.layout.unflatten(flat.values), b)
    assert res.failed == len(b)
    assert np.isnan(res.rmse)


# -- results table ------------------------------------------------------------

def make_cell(method, xi0, seed, rmse):
    return cli.Cell(system="undamped", sigma=0.1, method=method, xi0=xi0,
                    seed=seed, rmse=rmse)


def test_aggregate_recomputation_oracle():
    rng = np.random.default_rng(2)
    cells = [make_cell(m, x, s, rng.uniform(0.5, 3.0))
             for m in ("del", "accel") for x in (1e-2, 1e-3)
             for s in range(5)]
    table = cli.ResultsTable(cells)
    for agg in table.aggregates():
        vals = np.array([c.rmse for c in cells
                         if (c.method, c.xi0) == (agg.method, agg.xi0)])
        assert agg.values == list(vals)
        assert agg.mean == pytest.approx(vals.mean(), rel=1e-15)
        assert agg.stderr == pytest.approx(
            vals.std(ddof=1) / np.sqrt(len(vals)), rel=1e-12)


def test_aggregate_skips_failed_cells():
    cells = [make_cell("del", 1e-2, 0, 1.0),
             make_cell("del", 1e-2, 1, float("nan")),
             make_cell("del", 1e-2, 2, 3.0)]
    agg = cli.ResultsTable(cells).aggregates()[0]
    assert agg.count == 2 and agg.mean == pytest.approx(2.0)
    assert cli.ResultsTable(cells).any_failed


def test_emit_plot_data_single_cell(tmp_path):
    table = cli.ResultsTable([make_cell("del", 1e-2, 0, 1.5)])
    written = cli.emit_plot_data(table, tmp_path)
    rows = (tmp_path / "plotdata_undamped_0.1.csv").read_text().splitlines()
    assert rows[0] == "method,xi0,mean,stderr"
    assert len(rows) == 2 and rows[1].startswith("del,0.01,1.5")
    tree = ET.parse(written[1])
    assert tree.getroot().tag.endswith("svg")


def test_emit_plot_data_empty_table(tmp_path):
    with pytest.raises(cli.NoDataError):
        cli.emit_plot_data(cli.ResultsTable([]), tmp_path)


# -- run_experiment -----------------------------------------------------------

def test_run_experiment_desk_scale(tmp_path):
    # the full sweep at desk scale: every cell lands, artifacts appear,
    # aggregates reproduce from the per-seed values
    config = cli.ExperimentConfig(n_trajectories=4, split=(2, 1, 1), T=100,
                                  seeds=3, epochs=100, sigma=0.1,
                                  out=str(tmp_path / "exp"))
    table = cli.run_experiment(config)

    assert len(table.cells) == 3 * 3 * 3
    assert not table.any_failed
    assert all(np.isfinite(c.rmse) for c in table.cells)

    out = tmp_path / "exp"
    for name in ("config.json", "results.csv", "results.json",
                 "plotdata_undamped_0.1.csv", "figure_undamped_0.1.svg"):
        assert (out / name).exists()
    assert len(list((out / "records").glob("*.json"))) == 27
    assert len(list((out / "checkpoints").glob("*.json"))) == 27

    doc = json.loads((out / "results.json").read_text())
    assert doc["config"] == config.to_dict()
    for agg in doc["aggregates"]:
        vals = [v for v in agg["values"] if v is not None]
        assert agg["mean"] == pytest.approx(np.mean(vals), rel=1e-12)

    back = cli.load_results(out / "results.json")
    assert [c.rmse for c in back.cells] == [c.rmse for c in table.cells]

    # a checkpoint reloads and reproduces its recorded test error
    cell = table.cells[0]
    name = cli._cell_name(config, cell.seed, cell.method, cell.xi0)
    params, _ = netp.load_params(out / "checkpoints" / f"{name}.json")
    assignment = cli.split_trajectories(4, (2, 1, 1), cell.seed)
    _, observed = cli.generate_pool(config)
    pool = cli.smooth_pool(observed, config.h)
    test_trajs = [cli.label_split(pool, assignment)[i]
                  for i in assignment["test"]]
    res = cli.evaluate(params, cli.eval_batch(cli.make_system(config),
                                              test_trajs))
    assert res.rmse == pytest.approx(cell.rmse, rel=1e-12)


def test_run_experiment_bitwise_deterministic(tmp_path):
    config = desk_config(out=str(tmp_path / "exp"))

    def snapshot():
        return {str(p.relative_to(tmp_path)): p.read_bytes()
                for p in (tmp_path / "exp").rglob("*") if p.is_file()}

    cli.run_experiment(config)
    first = snapshot()
    cli.run_experiment(config)
    assert snapshot() == first


def test_run_experiment_workers_match_serial(tmp_path):
    # the process pool gives the serial run's bytes; only the recorded
    # config fields `out` and `workers` differ
    def run(workers):
        out = tmp_path / f"w{workers}"
        cli.run_experiment(desk_config(
            T=30, epochs=2, methods=("del", "accel"), lrs=(1e-2, 1e-3),
            hidden=(8, 8), workers=workers, out=str(out)))
        files = {}
        for p in out.rglob("*"):
            if not p.is_file():
                continue
            data = p.read_bytes()
            if p.name in ("config.json", "results.json"):
                lines = data.splitlines(keepends=True)
                assert sum(f'"out": "{out}"'.encode() in ln
                           for ln in lines) == 1
                assert sum(f'"workers": {workers}'.encode() in ln
                           for ln in lines) == 1
                data = b"".join(ln for ln in lines if b'"out": ' not in ln
                                and b'"workers": ' not in ln)
            files[str(p.relative_to(out))] = data
        return files

    serial = run(1)
    assert len([k for k in serial if k.startswith("checkpoints/")]) == 4
    assert run(2) == serial


# -- CLI verbs ----------------------------------------------------------------

def test_cli_pipeline_verbs(tmp_path, capsys):
    raw = tmp_path / "raw"
    sm = tmp_path / "sm"
    fit = tmp_path / "fit"
    assert cli.main(["generate", "--count", "3", "--steps", "40",
                     "--sigma", "0.1", "--seed", "4",
                     "--out", str(raw)]) == 0
    files = sorted(raw.glob("traj_*.csv"))
    assert len(files) == 3

    assert cli.main(["smooth", *map(str, files), "--out", str(sm)]) == 0
    for i, split in enumerate(["train", "train", "val"]):
        side = sm / f"traj_{i:02d}.json"
        doc = json.loads(side.read_text())
        doc["split"] = split
        side.write_text(json.dumps(doc))

    smoothed = sorted(map(str, sm.glob("traj_*.csv")))
    assert cli.main(["train", *smoothed, "--method", "accel",
                     "--lr", "1e-2", "--epochs", "5", "--seed", "1",
                     "--out", str(fit)]) == 0
    assert (fit / "params.json").exists() and (fit / "record.json").exists()

    assert cli.main(["evaluate", smoothed[2], "--params",
                     str(fit / "params.json")]) == 0
    assert "test acceleration RMSE" in capsys.readouterr().out


def test_cli_readme_pipeline_unlabelled_splits(tmp_path, capsys,
                                               monkeypatch):
    # the README's generate -> smooth -> train -> evaluate commands, with
    # the sidecars left as `smooth` wrote them; only --epochs is cut down
    monkeypatch.chdir(tmp_path)
    assert cli.main(["generate", "--count", "4", "--steps", "200",
                     "--sigma", "0.1", "--seed", "4",
                     "--out", "data/raw"]) == 0
    raw = sorted(map(str, (tmp_path / "data/raw").glob("traj_*.csv")))
    assert cli.main(["smooth", *raw, "--out", "data/smoothed"]) == 0
    smoothed = sorted(map(str, (tmp_path / "data/smoothed").glob("traj_*.csv")))
    assert len(smoothed) == 4
    assert all(json.loads(p.read_text())["split"] == "" for p in
               (tmp_path / "data/smoothed").glob("traj_*.json"))
    assert cli.main(["train", *smoothed, "--method", "del", "--lr", "1e-2",
                     "--epochs", "2", "--out", "fit"]) == 0
    assert cli.main(["evaluate", "data/smoothed/traj_03.csv",
                     "--params", "fit/params.json"]) == 0
    assert "test acceleration RMSE" in capsys.readouterr().out


@pytest.fixture(scope="module")
def smoothed_pair(tmp_path_factory):
    base = tmp_path_factory.mktemp("pair")
    assert cli.main(["generate", "--count", "2", "--steps", "40",
                     "--sigma", "0.1", "--seed", "5",
                     "--out", str(base / "raw")]) == 0
    raw = sorted(map(str, (base / "raw").glob("traj_*.csv")))
    assert cli.main(["smooth", *raw, "--out", str(base / "sm")]) == 0
    return base / "sm"


def test_cli_train_without_training_data_exit_code(smoothed_pair, tmp_path,
                                                   capsys):
    files = []
    for src in sorted(smoothed_pair.glob("traj_*.csv")):
        dst = tmp_path / src.name
        dst.write_bytes(src.read_bytes())
        doc = json.loads(src.with_suffix(".json").read_text())
        doc["split"] = "test"
        dst.with_suffix(".json").write_text(json.dumps(doc))
        files.append(str(dst))
    assert cli.main(["train", *files, "--method", "accel", "--epochs", "1",
                     "--out", str(tmp_path / "fit")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "no training trajectories" in err


def test_cli_train_divergence_exit_code(smoothed_pair, tmp_path, capsys,
                                        monkeypatch):
    def diverge(method, params0, dataset, config):
        raise tr.TrainingDivergedError(tr.TrainRecord(
            method=method, xi0=config.xi0, seed=config.seed, mu=config.mu,
            alpha=None))

    monkeypatch.setattr(tr, "train", diverge)
    files = sorted(map(str, smoothed_pair.glob("traj_*.csv")))
    assert cli.main(["train", *files, "--method", "accel",
                     "--out", str(tmp_path / "fit")]) == 3
    assert capsys.readouterr().err.startswith("error:")


def test_cli_missing_input_file_exit_code(smoothed_pair, tmp_path, capsys):
    files = sorted(map(str, smoothed_pair.glob("traj_*.csv")))
    missing = str(tmp_path / "nofile.csv")
    assert cli.main(["evaluate", missing, "--params",
                     str(tmp_path / "nofile.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "nofile.json" in err
    assert cli.main(["train", *files, missing, "--method", "accel",
                     "--epochs", "1", "--out", str(tmp_path / "fit")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "nofile.csv" in err
    assert not (tmp_path / "fit").exists()
    assert cli.main(["smooth", missing, "--out",
                     str(tmp_path / "smoothed")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "nofile.csv" in err
    assert not (tmp_path / "smoothed").exists()


@pytest.mark.parametrize("flag,value", [("--hidden", "0"), ("--lr", "0"),
                                        ("--batch", "0")])
def test_cli_train_bad_option_exit_code(smoothed_pair, tmp_path, capsys,
                                        flag, value):
    files = sorted(map(str, smoothed_pair.glob("traj_*.csv")))
    assert cli.main(["train", *files, "--method", "accel", "--epochs", "1",
                     flag, value, "--out", str(tmp_path / "fit")]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / "fit").exists()


def test_cli_smooth_batches_files_like_per_file_smoothing(tmp_path):
    for name, steps in (("a", "40"), ("b", "30")):
        assert cli.main(["generate", "--count", "3" if name == "a" else "1",
                         "--steps", steps, "--sigma", "0.1", "--seed", "8",
                         "--out", str(tmp_path / name)]) == 0
    raw = sorted(map(str, (tmp_path / "a").glob("traj_*.csv")))
    for suffix in (".csv", ".json"):
        (tmp_path / "b" / f"traj_00{suffix}").rename(
            tmp_path / "b" / f"short{suffix}")
    other = str(tmp_path / "b" / "short.csv")
    # three files share T and h; the fourth, shorter one smooths apart
    assert cli.main(["smooth", *raw[:2], other, raw[2],
                     "--out", str(tmp_path / "all")]) == 0
    for i, name in enumerate(raw):
        assert cli.main(["smooth", name, "--out",
                         str(tmp_path / f"one{i}")]) == 0
        for suffix in (".csv", ".json"):
            file = f"traj_{i:02d}{suffix}"
            assert (tmp_path / "all" / file).read_bytes() \
                == (tmp_path / f"one{i}" / file).read_bytes()


def test_cli_experiment_and_plot(tmp_path):
    out = tmp_path / "exp"
    assert cli.main(["experiment", "--trajectories", "4", "--steps", "40",
                     "--seeds", "1", "--epochs", "2", "--sigma", "0.1",
                     "--out", str(out)]) == 0
    replot = tmp_path / "replot"
    assert cli.main(["plot", "--results", str(out / "results.json"),
                     "--out", str(replot)]) == 0
    assert (replot / "plotdata_undamped_0.1.csv").read_bytes() \
        == (out / "plotdata_undamped_0.1.csv").read_bytes()


def test_cli_config_error_exit_code(tmp_path):
    assert cli.main(["experiment", "--config",
                     str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{\"split\": [9, 4, 4]}")
    assert cli.main(["experiment", "--config", str(bad)]) == 2
