"""Experiment-harness checks: splits, evaluation, artifacts, CLI verbs."""

import json
import platform
import re
import resource
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from smmfit import expcli as cli
from smmfit import integrators as integ
from smmfit import netparam as netp
from smmfit import smoother as smo
from smmfit import training as tr

import oracle


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


@pytest.mark.parametrize("field,value", [("alpha_fraction", 1.5),
                                         ("hidden", [0]), ("mu", -1.0),
                                         ("sigma", float("nan")),
                                         ("sigma", float("inf")),
                                         ("h", float("inf")),
                                         ("h", float("nan")),
                                         ("mu", float("nan")),
                                         ("mu", float("inf")),
                                         ("lrs", [float("nan")]),
                                         ("lrs", [float("inf")]),
                                         ("epochs", 2.5), ("epochs", True),
                                         ("seeds", 1.5), ("T", 60.5),
                                         ("batch_size", 32.5),
                                         ("data_seed", 1.5),
                                         ("workers", 1.5),
                                         ("n_trajectories", 4.0),
                                         ("split", [2, 1.0, 1]),
                                         ("hidden", [8.5, 8]),
                                         ("data_seed", -1),
                                         ("lrs", [True]), ("mu", True),
                                         ("sigma", True), ("h", True),
                                         ("alpha_fraction", False),
                                         ("lrs", ["0.01"])])
def test_bad_training_config_exits_2_before_writing(tmp_path, capsys,
                                                    field, value):
    # the training and net settings' own checks run when the config loads;
    # a non-finite h, sigma, mu or rate fails a check (NaN compares false
    # to every bound), and so do a count that is not an integer, a bool or
    # string where a real number belongs, and a negative data seed
    doc = {**desk_config().to_dict(), field: value}
    (tmp_path / "c.json").write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert cli.main(["experiment", "--config", str(tmp_path / "c.json"),
                     "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert not out.exists()
    # the config's own checks, not a failure further on
    items = value if isinstance(value, list) else [value]
    if field in ("h", "sigma", "mu", "lrs", "alpha_fraction") \
            and any(isinstance(x, (bool, str)) for x in items):
        assert "must be real numbers" in err
    elif field in ("h", "sigma", "mu", "lrs"):
        assert "finite" in err
    elif (field, value) == ("data_seed", -1):
        assert "non-negative" in err
    elif (field, value) not in (("alpha_fraction", 1.5), ("hidden", [0])):
        assert "must be integers" in err


@pytest.mark.parametrize("field,value", [
    ("lrs", [0.001, 0.0010000001]), ("lrs", [0.01, 0.001, 0.01]),
    ("methods", ["del", "accel", "del"])])
def test_cells_that_share_a_file_name_exit_2_before_writing(
        tmp_path, capsys, field, value):
    # rates that print alike under %g, or a method or rate listed twice,
    # would give two cells one record and checkpoint file
    doc = {**desk_config().to_dict(), field: value}
    (tmp_path / "c.json").write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert cli.main(["experiment", "--config", str(tmp_path / "c.json"),
                     "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cells ") and "_s0" in err
    assert not out.exists()
    with pytest.raises(cli.ConfigError, match="would share the files of"):
        cli.ExperimentConfig(**{field: value})


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
        one = smo.smooth_trajectory(obs.configs, config.h)
        assert np.array_equal(st.q, one.q)
        assert np.array_equal(st.qdot, one.qdot)
        assert np.array_equal(st.qddot, one.qddot)
        assert st.h == one.h and st.split == one.split == ""
        assert st.fits == one.fits


def test_eval_batch_targets_are_analytic(smoothed_pool):
    config, pool = smoothed_pool
    system = cli.make_system(config)
    b = cli.eval_batch(system, pool[:2])
    # the analytic system scores zero against its own targets by definition:
    # one batched call gives each row the bits of the one-point oracle
    assert oracle.system_accel_mse(oracle.ScalarDP(system), b) == 0.0
    assert len(b) == 2 * config.T


def test_evaluate_finite_and_permutation_invariant(smoothed_pool):
    config, pool = smoothed_pool
    params = netp.init_params(0, cli.make_arch(config))
    b = cli.eval_batch(cli.make_system(config), pool[:2])
    res = cli.evaluate(params, b)
    assert np.isfinite(res.rmse) and res.failed == 0
    perm = np.random.default_rng(1).permutation(len(b))
    again = cli.evaluate(params, oracle.take(b, perm))
    assert again.rmse == pytest.approx(res.rmse, rel=1e-12)


def test_evaluate_flags_degenerate_model(smoothed_pool):
    # a nearly constant Lagrangian predicts nothing useful; the error must
    # be large compared to the data scale, not silently small
    config, pool = smoothed_pool
    params = oracle.scale_params(netp.init_params(0, cli.make_arch(config)),
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
    flat = netp.init_params(0, cli.make_arch(config))
    if which is None:
        flat.values[:] = value
    else:
        _, s, _ = flat.layout.slot("log_scales")
        flat.values[s + which] = value
    b = cli.eval_batch(cli.make_system(config), pool[:1])
    with np.errstate(invalid="ignore", over="ignore", under="ignore"):
        res = cli.evaluate(flat, b)
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
    assert [c.failed for c in cells] == [False, True, False]


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
    assert not any(c.failed for c in table.cells)
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


def test_readme_python_example_runs(capsys):
    # the README's library example, exactly as written
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    assert " at epoch " in capsys.readouterr().out


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
    def diverge(method, params0, trajectories, config):
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


@pytest.mark.parametrize("case", ["smooth", "train", "evaluate_params",
                                  "plot", "sidecar"])
def test_cli_input_that_is_a_directory_exits_2(smoothed_pair, tmp_path,
                                               capsys, case):
    # a directory read as a file is a usage error naming the path
    (tmp_path / "raw").mkdir()
    raw, out = str(tmp_path / "raw"), str(tmp_path / "out")
    data = sorted(smoothed_pair.glob("traj_*.csv"))[0]
    (tmp_path / "d.csv").write_bytes(data.read_bytes())
    (tmp_path / "d.json").mkdir()
    argv = {"smooth": ["smooth", raw, "--out", out],
            "train": ["train", raw, "--method", "accel", "--out", out],
            "evaluate_params": ["evaluate", str(data), "--params", raw],
            "plot": ["plot", "--results", raw, "--out", out],
            "sidecar": ["train", str(tmp_path / "d.csv"), "--method",
                        "accel", "--out", out]}[case]
    assert cli.main(argv) == 2
    named = str(tmp_path / "d.json") if case == "sidecar" else raw
    assert capsys.readouterr().err.startswith(f"error: cannot read {named}: ")
    assert not (tmp_path / "out").exists()


def test_cli_smooth_overflow_exits_2_naming_its_group(tmp_path, capsys):
    # a finite series whose filter overflows fails its (T, h) group alone
    spikes = np.where(np.arange(20) % 2, 1e300, 0.0)[:, None]
    files = []
    for name, configs in (("calm", np.zeros((30, 1))), ("spiky", spikes),
                          ("spiky2", spikes)):
        path = tmp_path / f"{name}.csv"
        integ.save_trajectory(integ.Trajectory(configs, 0.05), path)
        files.append(str(path))
    assert cli.main(["smooth", *files, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot smooth {files[1]}, {files[2]}: ")
    assert files[0] not in err


def test_cli_smooth_writes_nothing_when_a_group_fails(tmp_path, capsys):
    # the calm group smooths first and the spiky one fails: no file of
    # either group is written, and only the error line is printed
    spikes = np.where(np.arange(25) % 2, 1e300, 0.0)[:, None]
    files = []
    for name, configs in (("calm", np.zeros((30, 1))), ("spiky", spikes)):
        path = tmp_path / f"{name}.csv"
        integ.save_trajectory(integ.Trajectory(configs, 0.05), path)
        files.append(str(path))
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["smooth", *files, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == (f"error: cannot smooth {files[1]}: "
                                    "innovation variance inf at t=0 in "
                                    "series 0")
    assert "Warning" not in err
    assert not out.exists()


def test_cli_smooth_rejects_colliding_output_names(tmp_path, capsys):
    # outputs are named by their input's basename and sidecars by its stem
    for name, steps in (("a", "40"), ("b", "30")):
        assert cli.main(["generate", "--count", "1", "--steps", steps,
                         "--seed", "8", "--out", str(tmp_path / name)]) == 0
    a, b = (str(tmp_path / d / "traj_00.csv") for d in "ab")
    (tmp_path / "b" / "traj_00.csv").rename(tmp_path / "b" / "traj_00.dat")
    for pair in ([a, b], [a, b.replace(".csv", ".dat")], [a, a]):
        assert cli.main(["smooth", *pair, "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "same files" in err
        assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("case", ["header_only", "short", "ragged",
                                  "non_numeric", "non_finite", "no_h",
                                  "zero_h", "unsmoothed", "smoothed_twice",
                                  "sidecar_not_json"])
def test_cli_malformed_data_file_exit_code(tmp_path, capsys, case):
    # smooth, train and evaluate name a malformed data file in an error
    # line and exit 2 before writing anything
    def data_file(name, header, meta):
        cells = ["0.5"] * len(header)
        rows = {"header_only": [], "short": [cells] * 2,
                "ragged": [cells, cells[:-1], cells],
                "non_numeric": [cells, ["0", "abc", *cells[2:]], cells],
                "non_finite": [cells, cells, ["0", "nan", *cells[2:]],
                               cells]}.get(case, [cells] * 4)
        meta = {"no_h": {}, "zero_h": {**meta, "h": 0}}.get(case, meta)
        path = tmp_path / f"{name}.csv"
        path.write_text("".join(",".join(r) + "\n" for r in [header, *rows]))
        (tmp_path / f"{name}.json").write_text(
            "{h: 1}" if case == "sidecar_not_json" else json.dumps(meta))
        return str(path)

    raw = data_file("raw", ["t", "q1", "q2"], {"h": 0.05, "sigma": 0.1})
    sm = data_file("sm", ["t"] + [f"{k}{j}" for j in (1, 2)
                                  for k in ("q", "qdot", "qddot")],
                   {"h": 0.05, "split": ""})
    runs = [(["smooth", raw, "--out", "out"], raw)]
    if case == "unsmoothed":
        # generate output handed to the verbs that read smoothed data
        sm, runs = raw, []
    params = tmp_path / "params.json"
    netp.save_params(netp.init_params(0, netp.ArchConfig(hidden=(4,))),
                     params, seed=0)
    runs += [(["train", sm, "--method", "accel", "--out", "out"], sm),
             (["evaluate", sm, "--params", str(params)], sm)]
    if case == "smoothed_twice":
        # smooth output handed back to smooth
        runs = [(["smooth", sm, "--out", "out"], sm)]
    out = str(tmp_path / "out")
    for argv, name in runs:
        argv = [out if a == "out" else a for a in argv]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and name in err
        assert not (tmp_path / "out").exists()
        if case == "non_finite":
            assert "line 4" in err
        if case == "unsmoothed":
            assert "smmfit smooth" in err
        if case == "smoothed_twice":
            assert "already smoothed" in err
        if case == "sidecar_not_json":
            assert f"sidecar {Path(name).stem}.json is not JSON" in err


@pytest.mark.parametrize("flag,value", [("--sigma", "-1"), ("--steps", "2"),
                                        ("--count", "0"), ("--h", "0"),
                                        ("--sigma", "nan"), ("--sigma", "inf"),
                                        ("--h", "inf"), ("--h", "nan"),
                                        ("--seed", "-1")])
def test_cli_generate_bad_option_exit_code(tmp_path, capsys, flag, value):
    assert cli.main(["generate", flag, value, "--out",
                     str(tmp_path / "raw")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert not (tmp_path / "raw").exists()
    if value in ("nan", "inf"):
        assert "finite" in err


@pytest.mark.parametrize("flag,value", [("--hidden", "0"), ("--lr", "0"),
                                        ("--batch", "0"), ("--lr", "nan"),
                                        ("--lr", "inf"), ("--seed", "-1")])
def test_cli_train_bad_option_exit_code(smoothed_pair, tmp_path, capsys,
                                        flag, value):
    files = sorted(map(str, smoothed_pair.glob("traj_*.csv")))
    assert cli.main(["train", *files, "--method", "accel", "--epochs", "1",
                     flag, value, "--out", str(tmp_path / "fit")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert not (tmp_path / "fit").exists()
    if flag == "--seed":
        assert "--seed >= 0" in err


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
    out = tmp_path / "exp"
    assert cli.main(["experiment", "--seed", "-1", "--out", str(out)]) == 2
    assert not out.exists()


def test_cli_exhausted_draws_exit_code(tmp_path, capsys):
    # at h = 2 no rest start has a Newton root within the energy band:
    # the error names the slot and its draws, and generate writes nothing
    out = tmp_path / "raw"
    assert cli.main(["generate", "--count", "1", "--steps", "20", "--h",
                     "2.0", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: trajectory slot 0: all 25 draws")
    assert not out.exists()


def test_cli_experiment_with_exhausted_draws_leaves_no_out(tmp_path, capsys):
    config = tmp_path / "config.json"
    desk_config(h=2.0, T=20).save(config)
    out = tmp_path / "exp"
    assert cli.main(["experiment", "--config", str(config), "--out",
                     str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: trajectory slot 0:")
    assert not out.exists()


@pytest.mark.parametrize("file_n,checkpoint_n", [(1, 2), (1, 1), (3, 3)])
def test_cli_evaluate_rejects_a_wrong_coordinate_count(tmp_path, capsys,
                                                       file_n, checkpoint_n):
    # the file must match both the checkpoint and the pendulum (n = 2)
    rng = np.random.default_rng(file_n)
    q = rng.uniform(-1.0, 1.0, size=(10, file_n))
    data = tmp_path / "sm.csv"
    smo.save_smoothed(smo.SmoothedTrajectory(q=q, qdot=q, qddot=q, h=0.05),
                      data)
    params = tmp_path / "params.json"
    netp.save_params(netp.init_params(0, netp.ArchConfig(
        n=checkpoint_n, hidden=(4,))), params, seed=0)
    assert cli.main(["evaluate", str(data), "--params", str(params)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {data}: {file_n} coordinates")


# a results cell whose sigma is a string, which plot used to format as
# a number
SIGMA_STRING = json.dumps({"cells": [dict(
    system="undamped", sigma="0.1", method="del", xi0=0.01, seed=0,
    rmse=0.5, failed_rows=0, reason="", best_epoch=1)]})


@pytest.mark.parametrize("verb,text", [("evaluate", '{"arch": {}}'),
                                       ("plot", "not json"),
                                       ("plot", "{}"),
                                       ("plot", SIGMA_STRING)],
                         ids=["checkpoint_without_n", "results_not_json",
                              "results_without_cells",
                              "results_sigma_a_string"])
def test_cli_malformed_checkpoint_or_results_exit_code(smoothed_pair,
                                                       tmp_path, capsys,
                                                       verb, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    data = str(sorted(smoothed_pair.glob("traj_*.csv"))[0])
    argv = {"evaluate": ["evaluate", data, "--params", str(bad)],
            "plot": ["plot", "--results", str(bad)]}[verb]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: not a ")


def test_cli_evaluate_rejects_mixed_step_sizes(tmp_path, capsys):
    # the test batch has one step size, as train's batches do
    q = np.random.default_rng(3).uniform(-1.0, 1.0, size=(10, 2))
    files = []
    for name, h in (("a", 0.05), ("b", 0.1)):
        path = tmp_path / f"{name}.csv"
        smo.save_smoothed(smo.SmoothedTrajectory(q=q, qdot=q, qddot=q, h=h),
                          path)
        files.append(str(path))
    params = tmp_path / "params.json"
    netp.save_params(netp.init_params(0, netp.ArchConfig(hidden=(4,))),
                     params, seed=0)
    assert cli.main(["evaluate", *files, "--params", str(params)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "[0.05, 0.1]" in err


@pytest.mark.parametrize("verb", ["generate", "smooth", "train",
                                  "experiment", "plot"])
def test_cli_out_that_is_a_file_exits_2_before_any_work(
        smoothed_pair, tmp_path, capsys, monkeypatch, verb):
    # every verb that writes checks --out, and the parents it would make,
    # before it draws, reads, smooths or trains anything
    def no_work(*args, **kwargs):
        raise AssertionError("work began before --out was checked")

    for mod, name in ((cli.integ, "sample_rest_trajectories"),
                      (cli.integ, "load_trajectory"),
                      (smo, "load_smoothed"), (smo, "smooth_trajectory"),
                      (tr, "train"), (cli, "load_results")):
        monkeypatch.setattr(mod, name, no_work)
    taken = tmp_path / "taken"
    taken.write_text("x")
    data = sorted(map(str, smoothed_pair.glob("traj_*.csv")))
    for out in (taken, taken / "sub"):
        argv = {"generate": ["generate"],
                "smooth": ["smooth", *data],
                "train": ["train", *data, "--method", "accel"],
                "experiment": ["experiment", "--trajectories", "4",
                               "--steps", "20", "--seeds", "1"],
                "plot": ["plot", "--results", str(data[0])]}[verb]
        assert cli.main([*argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (f"error: output directory {out}: "
                                           f"{taken} is not a directory\n")
    assert taken.read_text() == "x"


def test_cli_train_refuses_an_unknown_split(smoothed_pair, tmp_path, capsys):
    # "validation" is no role: train used to drop the file and validate on
    # its training data
    files = sorted(map(str, smoothed_pair.glob("traj_*.csv")))
    bad = tmp_path / "val.csv"
    bad.write_bytes(Path(files[1]).read_bytes())
    doc = json.loads(Path(files[1]).with_suffix(".json").read_text())
    bad.with_suffix(".json").write_text(json.dumps({**doc,
                                                    "split": "validation"}))
    out = tmp_path / "fit"
    assert cli.main(["train", files[0], str(bad), "--method", "accel",
                     "--epochs", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: sidecar split 'validation'")
    assert not out.exists()


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="heap trimming is glibc's")
def test_cli_keeps_the_heap_a_step_frees():
    # a step's arrays, freed at its end, stay in the heap for the next
    # step instead of going back to the kernel and faulting in again
    tr.keep_freed_heap()

    def minor_faults():
        return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

    step = [np.ones(8192) for _ in range(200)]  # 200 arrays of 64 KiB
    del step
    before = minor_faults()
    step = [np.ones(8192) for _ in range(200)]
    assert minor_faults() - before < 400


def test_cli_sets_the_heap_before_any_verb(monkeypatch, tmp_path):
    # generation and smoothing run before train(), so main sets it first
    calls = []
    monkeypatch.setattr(tr, "keep_freed_heap", lambda: calls.append(1))
    assert cli.main(["plot", "--results", str(tmp_path / "none.json")]) == 2
    assert calls == [1]
