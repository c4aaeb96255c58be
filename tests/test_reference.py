"""`smmfit experiment` at seed 0 of every perfbench workload against the
benchmark's stored reference, judged by `tools/reference_sweep.py` with
perfbench's own `cell_ok`, so a change that moves results past the
benchmark's gate fails here too.  Only reads `perfbench/`; every run
writes under pytest's tmp_path."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = sorted(p.stem for p in (ROOT / "perfbench" / "workloads")
                   .glob("*.json"))


def load_sweep():
    spec = importlib.util.spec_from_file_location(
        "reference_sweep", ROOT / "tools" / "reference_sweep.py")
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    return sweep


@pytest.mark.parametrize("workload", WORKLOADS)
def test_experiment_passes_the_perfbench_reference(workload, tmp_path,
                                                   capsys):
    from smmfit import expcli

    pool_functions = expcli.generate_pool, expcli.smooth_pool
    assert load_sweep().sweep(workload, range(1), tmp_path) == 0
    # the data digest wraps the pool functions for the run alone
    assert (expcli.generate_pool, expcli.smooth_pool) == pool_functions
    assert f"{workload}: data sha256 " in capsys.readouterr().out


@pytest.mark.parametrize("seeds", [("5", "3"), ("4", "4")])
def test_sweep_rejects_an_empty_seed_range(seeds, monkeypatch, capsys):
    # an empty range judges no cell, so it must not exit 0 as a pass
    sweep = load_sweep()

    def no_experiment(*args):
        raise AssertionError("an empty seed range ran a workload")

    monkeypatch.setattr(sweep, "sweep", no_experiment)
    with pytest.raises(SystemExit) as exit_:
        sweep.main(["--seeds", *seeds])
    assert exit_.value.code == 2
    assert "STOP must be greater than FIRST" in capsys.readouterr().err
