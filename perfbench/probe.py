"""One benchmark repetition: a fresh process that runs `smmfit experiment`.

The parent (`run.py`) starts this script once per repetition, so every
repetition pays import, generation and smoothing the way a user's
`smmfit experiment` call does.  The script wraps public smmfit functions
from the outside, at the module attribute each caller looks up, records a
span around every wrapped call, runs `expcli.main`, puts every attribute
back, and writes one JSON report next to (never inside) the experiment's
output directory.

Untraced mode wraps only `expcli.smooth_pool` and `expcli.run_cell`, the
two stamps the end-to-end metrics need.  Traced mode wraps every layer.

Both modes also time a fixed calibration unit of work every 25 ms, from
a SIGALRM handler in the main thread (`Calibrator`).  The parent uses
those samples to turn stamps into reference seconds, so a machine whose
speed drifts while the program runs reports the same times.  The handler
touches no smmfit state.

Times come from `time.perf_counter`, which on Linux reads the system-wide
CLOCK_MONOTONIC, so the parent can subtract its own spawn stamp.

    python3 perfbench/probe.py --config W.json --seed 0 --out DIR \
        --report FILE --mode traced
"""

import argparse
import array
import json
import resource
import signal
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
CALIBRATION_INTERVAL_S = 0.025


class Calibrator:
    """Times a fixed unit of work at a fixed interval while a program runs.

    The unit mixes interpreter work and small numpy calls, as smmfit's
    training and smoothing loops do.  Stamps go to a flat float array, so
    the samples keep no objects the garbage collector tracks, and the
    program's collections run when they would without them.
    """

    def __init__(self):
        self.stamps = array.array("d")
        self._m = np.random.default_rng(0).standard_normal((8, 8)) / 4

    def unit(self):
        s = 0
        for i in range(6000):
            s += i * i % 7
        m = self._m
        for _ in range(120):
            m = np.tanh(m @ self._m) + self._m
        return s

    def _sample(self, signum, frame):
        t = time.perf_counter()
        self.unit()
        self.stamps.extend((t, time.perf_counter()))

    @property
    def samples(self):
        """[start, end] of every unit, in `time.perf_counter` seconds."""
        s = self.stamps.tolist()
        return [s[i:i + 2] for i in range(0, len(s), 2)]

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, CALIBRATION_INTERVAL_S,
                         CALIBRATION_INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


class Tracer:
    """Spans around wrapped callables, kept in memory until `dump`.

    A span is [id, name, start, end, parent id, info]; `info` holds exact
    counts read from the call's arguments or result.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self._stack = []
        self._saved = []

    def wrap(self, owner, attr, name, before=None, after=None):
        """Replace ``owner.attr`` with a spanning wrapper.

        ``before(args)`` and ``after(args, result)`` return dicts merged
        into the span's info.
        """
        original = getattr(owner, attr)
        clock, spans, stack = self.clock, self.spans, self._stack

        def wrapper(*args, **kwargs):
            span = [len(spans), name, 0.0, 0.0,
                    stack[-1] if stack else None, None]
            spans.append(span)
            info = before(args) if before else None
            stack.append(span[0])
            span[2] = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if after:
                info = {**(info or {}), **after(args, result)}
            span[5] = info
            return result

        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self):
        """Put back every wrapped attribute, newest first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def dump(self):
        return [{"id": s[0], "name": s[1], "start": s[2], "end": s[3],
                 "parent": s[4], "info": s[5]} for s in self.spans]


def _method(args):
    return {"method": args[3]}


def install(tracer, mods, traced):
    """Wrap the stamp points, plus every layer when ``traced``.

    ``mods`` maps short module names to the imported smmfit modules.
    """
    cli = mods["expcli"]
    tracer.wrap(cli, "smooth_pool", "expcli.smooth_pool")
    tracer.wrap(cli, "run_cell", "expcli.run_cell", before=_method)
    if not traced:
        return
    tr, smo, integ = mods["training"], mods["smoother"], mods["integrators"]
    for attr in ("main", "generate_pool", "eval_batch", "evaluate",
                 "write_results", "emit_plot_data"):
        tracer.wrap(cli, attr, f"expcli.{attr}")
    tracer.wrap(integ, "sample_rest_trajectories",
                "integrators.sample_rest_trajectories",
                after=lambda a, r: {"returned": len(r)})
    tracer.wrap(integ, "simulate", "integrators.simulate")
    tracer.wrap(integ, "variational_step", "integrators.variational_step")
    tracer.wrap(smo, "smooth_trajectory", "smoother.smooth_trajectory",
                after=lambda a, r: {"iterations":
                                    [f["iterations"] for f in r.fits]})
    tracer.wrap(smo, "kalman_filter", "smoother.kalman_filter")
    tracer.wrap(smo, "rts_smooth", "smoother.rts_smooth")
    for attr in ("train", "accel_rmse", "mass_eigenvalues", "choose_alpha",
                 "adam_step", "save_record"):
        tracer.wrap(tr, attr, f"training.{attr}")
    for method in tr.METHODS:
        tracer.wrap(tr, f"{method}_loss_grad", f"training.{method}_loss_grad")
    # the net builders as training looks them up, not netparam's own names
    for attr in ("mass_entries_t", "force_t", "chol_solve_t"):
        tracer.wrap(tr, attr, f"netparam.{attr}")
    tracer.wrap(mods["netparam"], "save_params", "netparam.save_params")
    tracer.wrap(mods["diffcore"].Tape, "gradients", "diffcore.Tape.gradients",
                before=lambda a: {"forward_nodes": len(a[0].nodes)},
                after=lambda a, r: {"backward_nodes": len(a[0].nodes)})
    tracer.wrap(mods["mechanics"], "acceleration", "mechanics.acceleration")


def import_smmfit():
    """Import smmfit from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "smmfit" / "__init__.py").is_file():
        raise SystemExit(f"error: no smmfit sources under {src}")
    sys.path.insert(0, str(src))
    import smmfit
    from smmfit import (diffcore, expcli, integrators, mechanics, netparam,
                        smoother, training)
    if Path(smmfit.__file__).resolve().parent != src / "smmfit":
        raise SystemExit(f"error: smmfit imported from {smmfit.__file__}")
    return dict(diffcore=diffcore, expcli=expcli, integrators=integrators,
                mechanics=mechanics, netparam=netparam, smoother=smoother,
                training=training)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--report", required=True)
    p.add_argument("--mode", choices=("traced", "untraced"), required=True)
    args = p.parse_args(argv)

    calibrator = Calibrator()
    calibrator.start()
    mods = import_smmfit()
    tracer = Tracer()
    install(tracer, mods, args.mode == "traced")
    argv = ["experiment", "--config", args.config, "--seed", str(args.seed),
            "--out", args.out]
    try:
        rc = mods["expcli"].main(argv)
        main_end = time.perf_counter()
    finally:
        calibrator.stop()
        tracer.restore()
    report = {"rc": rc, "main_end": main_end,
              "em_iters": mods["smoother"].EM_ITERS,
              "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              "calibration": calibrator.samples,
              "spans": tracer.dump()}
    Path(args.report).write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
