"""Capture the model's losses, gradients and predictions and the
smoother's EM fits on fixed grids, or check a checkout against such a
capture.

    python3 tools/loss_capture.py --src PARENT/src --save before.npz
    python3 tools/loss_capture.py --compare before.npz [--rtol 1e-10]

This is the first half of ROADMAP rule 0's gate for a change that moves
bits: capture at the parent, then match the change to 1e-10 relative.
A change meant to keep bits runs ``--compare F.npz --rtol 0``, which
passes only when every array is bit-identical to the capture.
The grid is n = 1, 2, 3, conservative and damped (force net on), B = 1,
7, 32, 196 and 256 tuples, and two parameter seeds; the nets are the
library default (32, 32).  Each case records the `del` loss and gradient
at mu = 0 and 0.01 (alpha from `choose_alpha` over the batch's
configurations), the `accel` and `nextstate` losses and gradients, and
`predicted_accelerations` and `mass_entries_t` at the accel batch's rows.
The smoother's grid is K = 1, 8 and 16 random-walk series of T = 3, 40
and 100 steps at h = 0.05; each case records `em_fit`'s smoothed means,
its model's R, m0 and P0, and each series' log-likelihood trace.  Only
public functions are called, so any checkout since the three losses and
`em_fit` took their present signatures can be captured.

``--src`` names the `src` directory whose smmfit is imported (default:
this checkout's).  ``--compare`` prints, per quantity, the worst over the
grid of max |got - want| / max |want| and the case where it fell, then
how many arrays are bit-identical to the capture, and exits 1 when one
exceeds ``--rtol`` or a capture entry is missing or differs in shape;
else 0.  BLAS runs on one thread, as in perfbench.
"""

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# perfbench's thread settings, made before numpy is first imported
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
H = 0.05
NS = (1, 2, 3)
SIZES = (1, 7, 32, 196, 256)
SEEDS = (0, 1)
SERIES = (1, 8, 16)
STEPS = (3, 40, 100)


def import_smmfit(src: Path):
    """smmfit's netparam, training and smoother modules from ``src``."""
    src = src.resolve()
    sys.path.insert(0, str(src))
    import smmfit
    from smmfit import netparam, smoother, training
    if Path(smmfit.__file__).resolve().parent != src / "smmfit":
        raise SystemExit(f"error: smmfit imported from {smmfit.__file__}, "
                         f"not {src}")
    return netparam, training, smoother


def capture(netparam, training, smoother) -> dict:
    """Every quantity of every grid case, keyed "case/quantity"."""
    import numpy as np

    out = {}
    for n in NS:
        for conservative in (True, False):
            arch = netparam.ArchConfig(n=n, conservative=conservative)
            for seed in SEEDS:
                params = netparam.init_params(seed, arch)
                for B in SIZES:
                    case = f"n{n}_{'cons' if conservative else 'damped'}" \
                        f"_s{seed}_B{B}"
                    rng = np.random.default_rng([n, int(conservative),
                                                 seed, B])
                    walk = np.cumsum(rng.normal(scale=0.1, size=(B + 2, n)),
                                     axis=0)
                    q, qd, qdd = (rng.normal(size=(B, n)) for _ in range(3))
                    dels = training.Batch("del", {"q1": walk[:-2],
                                                  "q2": walk[1:-1],
                                                  "q3": walk[2:]}, H)
                    acc = training.Batch("accel", {"q": q, "qdot": qd,
                                                   "qddot": qdd})
                    nxt = training.Batch("nextstate", {
                        "q": q, "qdot": qd, "qnext": q + H * qd,
                        "qdotnext": qd + H * qdd}, H)
                    alpha = training.choose_alpha(params, walk,
                                                  training.ALPHA_FRACTION)
                    results = {
                        "del_mu0": training.del_loss_grad(params, dels, 0.0,
                                                          alpha),
                        "del_mu0.01": training.del_loss_grad(params, dels,
                                                             0.01, alpha),
                        "accel": training.accel_loss_grad(params, acc),
                        "nextstate": training.nextstate_loss_grad(params,
                                                                  nxt, H)}
                    for name, (loss, grad) in results.items():
                        out[f"{case}/{name}.loss"] = np.array([loss])
                        out[f"{case}/{name}.grad"] = grad
                    out[f"{case}/predicted_accelerations"] = \
                        training.predicted_accelerations(params, q, qd)
                    out[f"{case}/mass_entries_t"] = \
                        netparam.mass_entries_t(params, q)
    for K in SERIES:
        for T in STEPS:
            case = f"em_K{K}_T{T}"
            rng = np.random.default_rng([K, T])
            y = np.cumsum(rng.normal(scale=0.1, size=(T, K)), axis=0)
            fit = smoother.em_fit(y, H)
            out[f"{case}/means"] = fit.means
            for name in ("R", "m0", "P0"):
                out[f"{case}/{name}"] = np.asarray(getattr(fit.model, name))
            for k, trace in enumerate(fit.logliks):
                out[f"{case}_s{k}/logliks"] = np.array(trace)
    return out


def compare(got: dict, want: dict, rtol: float) -> int:
    """Print the worst relative difference per quantity; 1 if any exceeds
    ``rtol`` or the entries do not match, else 0."""
    import numpy as np

    bad = 0
    missing = sorted(set(want) ^ set(got))
    for key in missing:
        print(f"{key}: in only one of the capture and this checkout")
        bad += 1
    worst = {}
    same = 0
    for key in sorted(set(want) & set(got)):
        case, quantity = key.split("/")
        g, w = got[key], want[key]
        if g.shape != w.shape:
            print(f"{key}: shape {g.shape}, capture has {w.shape}")
            bad += 1
            continue
        same += g.tobytes() == w.tobytes()
        scale = np.abs(w).max()
        d = np.abs(g - w).max()
        d = d / scale if scale else d
        if not np.isfinite(d):
            d = 0.0 if np.array_equal(g, w, equal_nan=True) else np.inf
        if quantity not in worst or d > worst[quantity][0]:
            worst[quantity] = (d, case)
    for quantity, (d, case) in sorted(worst.items()):
        flag = "  ABOVE RTOL" if d > rtol else ""
        print(f"{quantity}: worst relative difference {d:.3g} ({case}){flag}")
        bad += d > rtol
    print(f"{same} of {len(want)} arrays bit-identical")
    print(f"{len(want)} captured arrays, rtol {rtol:g}: "
          + ("FAIL" if bad else "ok"))
    return 1 if bad else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--src", type=Path, default=ROOT / "src")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--save", type=Path, metavar="F.npz")
    mode.add_argument("--compare", type=Path, metavar="F.npz")
    p.add_argument("--rtol", type=float, default=1e-10)
    args = p.parse_args(argv)
    os.environ.update({var: "1" for var in THREAD_VARS})
    import numpy as np

    got = capture(*import_smmfit(args.src))
    if args.save:
        with open(args.save, "wb") as fh:
            np.savez(fh, **got)
        print(f"saved {len(got)} arrays to {args.save}")
        return 0
    with np.load(args.compare) as f:
        want = {k: f[k] for k in f.files}
    return compare(got, want, args.rtol)


if __name__ == "__main__":
    sys.exit(main())
