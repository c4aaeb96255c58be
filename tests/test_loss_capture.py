"""`tools/loss_capture.py`, rule 0's capture-and-match gate for a change
that moves bits, on the losses and the smoother's EM fits: a checkout
matches its own capture exactly, a capture moved past ``--rtol`` or
missing an entry fails, and a 1-ulp move passes the default rtol but not
``--rtol 0``, the gate for a change meant to keep bits."""

import importlib.util
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


def load_tool():
    spec = importlib.util.spec_from_file_location(
        "loss_capture", ROOT / "tools" / "loss_capture.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_a_checkout_matches_its_own_capture(tmp_path, capsys):
    tool = load_tool()
    path = tmp_path / "capture.npz"
    assert tool.main(["--save", str(path)]) == 0
    assert tool.main(["--compare", str(path)]) == 0
    out = capsys.readouterr().out
    assert "nextstate.grad: worst relative difference 0 " in out
    assert out.rstrip().endswith(": ok")
    with np.load(path) as f:
        want = {k: f[k] for k in f.files}
    # every quantity of the loss grid: n x force net x seeds x batch
    # sizes, then the smoother's: means, R, m0 and P0 per (K, T) case
    # and one log-likelihood trace per series
    cases = len(tool.NS) * 2 * len(tool.SEEDS) * len(tool.SIZES)
    fits = len(tool.SERIES) * len(tool.STEPS)
    assert len(want) == 10 * cases + 4 * fits \
        + sum(tool.SERIES) * len(tool.STEPS)
    assert f"{len(want)} of {len(want)} arrays bit-identical" in out

    got = dict(want)
    key = next(k for k in want if k.endswith("/nextstate.loss"))
    got[key] = np.nextafter(want[key], np.inf)
    assert tool.compare(got, want, 1e-10) == 0
    assert tool.compare(got, want, 0.0) == 1
    assert f"{len(want) - 1} of {len(want)} arrays bit-identical" \
        in capsys.readouterr().out
    key = next(k for k in want if k.endswith("/del_mu0.01.grad"))
    got[key] = want[key] * (1.0 + 1e-9)
    assert tool.compare(got, want, 1e-10) == 1
    assert tool.compare(got, want, 1e-8) == 0
    del got[key]
    assert tool.compare(got, want, 1e-8) == 1
    assert "in only one of" in capsys.readouterr().out
