"""The benchmark's own checks, on a tiny damped workload.

    python3 -m pytest perfbench -q
"""

import json
import math
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import probe  # noqa: E402
import run  # noqa: E402

# damped, so the force net and its builder are on the traced path too
TINY = dict(system="damped", n_trajectories=4, split=[2, 1, 1], T=20,
            h=0.05, sigma=0.1, seeds=1, methods=["del", "accel", "nextstate"],
            lrs=[0.01], epochs=2, batch_size=16, hidden=[4, 4], workers=1)


def tiny_config(tmp_path):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(TINY))
    return path


def declared(kind):
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc[kind]}


def test_every_declared_metric_is_emitted_with_its_unit(tmp_path):
    config = tiny_config(tmp_path)
    for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
        result, report = run.run_workload(
            "tiny", config, 0, 0.0, trace, tmp_path / f"work{trace}", None)
        assert result["correct"], report["repetitions"]
        assert result["failed"] == 0 and result["attempted"] >= 3
        emitted = {k: m["unit"] for k, m in result["metrics"].items()}
        assert emitted == declared(kind)
        assert all(isinstance(m["value"], (int, float))
                   for m in result["metrics"].values())
    # the traced repetition computed the same results.json bytes
    digests = {r["digest"] for r in report["repetitions"]}
    assert {r["mode"] for r in report["repetitions"]} == {"traced",
                                                          "untraced"}
    assert len(digests) == 1
    spans = (tmp_path / "workTrue" / "trace.jsonl").read_text().splitlines()
    first = json.loads(spans[0])
    assert set(first) == {"id", "name", "start", "end", "parent", "info",
                          "run"}


def test_traced_run_restores_every_wrapped_attribute(tmp_path):
    mods = probe.import_smmfit()
    spaces = [*mods.values(), mods["diffcore"].Tape]
    before = [dict(vars(ns)) for ns in spaces]
    tracer = probe.Tracer()
    probe.install(tracer, mods, traced=True)
    changed = sum(vars(ns).get(k) is not v
                  for ns, snap in zip(spaces, before) for k, v in snap.items())
    assert changed == len(tracer._saved) > 20
    argv = ["experiment", "--config", str(tiny_config(tmp_path)),
            "--seed", "1", "--out", str(tmp_path / "out")]
    try:
        assert mods["expcli"].main(argv) == 0
    finally:
        tracer.restore()
    for ns, snap in zip(spaces, before):
        assert all(vars(ns).get(k) is v for k, v in snap.items()), ns

    spans = tracer.dump()
    names = {s["name"] for s in spans}
    assert {"expcli.main", "diffcore.Tape.gradients", "netparam.force_t",
            "smoother.kalman_filter"} <= names
    ids = {s["id"] for s in spans}
    assert all(s["end"] >= s["start"] and s["parent"] in ids | {None}
               for s in spans)


def test_forced_mismatch_raises_failed_share(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "MIN_UNTRACED", 1)
    config = tiny_config(tmp_path)
    (tmp_path / "ref").mkdir()
    rep = run.run_rep(config, 2, "untraced", tmp_path / "ref", 0)
    cells = [{k: c[k] for k in run.CELL_KEYS} for c in rep["cells"]]
    reference = {"rmse_rtol": 1e-6, "cells": cells}

    result, _ = run.run_workload("tiny", config, 2, 0.0, False,
                                 tmp_path / "good", reference)
    assert result["correct"]
    assert result["metrics"]["passed_share"]["value"] == 1.0

    # off in the test RMSE, or only in the training that led to it
    good = list(cells)
    for key in ("rmse", "train_loss"):
        cells = list(good)
        cells[1] = {**cells[1], key: cells[1][key] * (1 + 1e-4)}
        reference["cells"] = cells
        result, report = run.run_workload("tiny", config, 2, 0.0, False,
                                          tmp_path / f"bad-{key}", reference)
        assert not result["correct"]
        assert result["failed"] == len(report["repetitions"]) >= 1
        assert result["metrics"]["passed_share"]["value"] < 1.0
        assert report["failed_share"] > 0.0


def test_reference_clock_drops_calibration_and_scales_by_speed():
    # units of 2 ms every 50 ms: the machine runs at half reference speed
    unit = 2 * run.REF_UNIT_S
    samples = [[k * 0.05, k * 0.05 + unit] for k in range(1, 5)]
    clock = run.reference_clock(samples)
    # between units: half the elapsed time
    assert math.isclose(clock(0.09) - clock(0.06), 0.015)
    # across a unit: the unit itself counts nothing
    assert math.isclose(clock(0.11) - clock(0.09), (0.02 - unit) / 2)
    # before the first and after the last unit, that unit's speed
    assert math.isclose(clock(0.04) - clock(0.0), 0.02)
    assert math.isclose(clock(0.5) - clock(0.3), 0.1)
