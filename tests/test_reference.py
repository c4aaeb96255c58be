"""`smmfit experiment` at seed 0 of every perfbench workload against the
benchmark's stored reference, judged by perfbench's own `cell_ok`, so a
change that moves results past the benchmark's gate fails here too.
Only reads `perfbench/`; every run writes under pytest's tmp_path."""

import importlib.util
import json
from pathlib import Path

import pytest

from smmfit import expcli

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = sorted((ROOT / "perfbench" / "workloads").glob("*.json"))


def load_run():
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", ROOT / "perfbench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run


def cells_with_last_loss(out):
    """The result cells, each joined with its record's last-epoch train
    loss, as perfbench joins them."""
    records = [json.loads(p.read_text())
               for p in sorted((out / "records").glob("*.json"))]
    last_loss = {(r["method"], r["xi0"], r["seed"]):
                 r["train_losses"][-1] if r["train_losses"] else None
                 for r in records}
    return [{**c, "train_loss": last_loss.get((c["method"], c["xi0"],
                                               c["seed"]))}
            for c in json.loads((out / "results.json").read_text())["cells"]]


@pytest.mark.parametrize("config", WORKLOADS, ids=lambda p: p.stem)
def test_experiment_passes_the_perfbench_reference(config, tmp_path):
    run = load_run()
    reference = run.load_reference(config.stem, 0)
    assert reference is not None
    out = tmp_path / "out"
    assert expcli.main(["experiment", "--config", str(config), "--seed", "0",
                        "--out", str(out)]) == 0
    cells = cells_with_last_loss(out)
    assert len(cells) == len(reference["cells"])
    failed = [(c, e) for c, e in zip(cells, reference["cells"])
              if not run.cell_ok(c, e, reference["rmse_rtol"])]
    assert failed == []
