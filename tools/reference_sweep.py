"""Judge seeds of every benchmark workload against perfbench's stored
reference cells, in one process.

    python3 tools/reference_sweep.py --seeds 0 40

For each workload of BENCHMARK.json and each seed in [first, stop), the
script runs `smmfit experiment` through `expcli.main` on the workload's
config, as `perfbench/probe.py` does, into a temporary directory.  It
joins each cell of the run's results.json with the last training loss of
the cell's record, as `perfbench/run.py` does, and judges it against
`perfbench/reference.json` with perfbench's own `run.cell_ok`.  It prints
every failed cell and, per workload, the worst relative difference of
rmse and of train_loss from the reference.  It then prints one sha256
per workload over every output file of its seeds, in path order, with
the run's output directory (which config.json and results.json record)
replaced by a fixed token, and beside it one sha256 per workload and
training method over that method's records and the checkpoints they
name, hashed the same way, and one sha256 per workload over each seed's
generated observations and smoothed pool (configurations, smoothed
states and fit info), taken from the `expcli.generate_pool` and
`expcli.smooth_pool` calls of the run itself, wrapped at their module
attributes as the probe wraps them.  Two checkouts write byte-identical
result files exactly when their digest lines match, so the byte-identity
check of a change is one run in each checkout and a `diff` of the
outputs; a change to one loss shows by the per-method lines that the
other losses' outputs stayed byte-identical, and the data line whether
generation or smoothing moved.  It reads `perfbench/` and writes nothing
outside its temporary directory.
The exit code is 1 when a cell failed or a seed has no reference, 2 when
STOP is not greater than FIRST, else 0.

A change that may move result bits must pass this check without
re-recording the reference (ROADMAP rule 0).
"""

import argparse
import contextlib
import hashlib
import importlib.util
import json
import logging
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_run():
    """perfbench's harness module (`perfbench/run.py`), which imports no
    numpy."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", ROOT / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


run = load_run()


def cells(out: Path):
    """The run's cells, each with its record's last training loss."""
    last_loss = {}
    for path in sorted((out / "records").glob("*.json")):
        r = json.loads(path.read_text())
        last_loss[(r["method"], r["xi0"], r["seed"])] = \
            r["train_losses"][-1] if r["train_losses"] else None
    doc = json.loads((out / "results.json").read_text())
    return [{**c, "train_loss": last_loss.get((c["method"], c["xi0"],
                                               c["seed"]))}
            for c in doc["cells"]]


def rel_diff(got, want):
    if got is None or want is None:
        return 0.0
    return abs(got - want) / abs(want) if want else abs(got)


def add_file(digest, path: Path, out: Path, tmp: Path) -> None:
    """Hash one output file's path and bytes, with the run's output
    directory replaced by a fixed token."""
    digest.update(f"{path.relative_to(tmp)}\0".encode())
    digest.update(path.read_bytes().replace(str(out).encode(), b"OUT")
                  + b"\0")


@contextlib.contextmanager
def hashing_data(expcli, data):
    """Within the block, ``expcli.generate_pool`` and
    ``expcli.smooth_pool`` feed each call's noisy observations and
    smoothed pool to ``data``."""
    generate, smooth = expcli.generate_pool, expcli.smooth_pool

    def generate_pool(config):
        clean, observed = generate(config)
        for traj in observed:
            data.update(traj.configs.tobytes())
        return clean, observed

    def smooth_pool(observed, h):
        pool = smooth(observed, h)
        for st in pool:
            for x in (st.q, st.qdot, st.qddot):
                data.update(x.tobytes())
            data.update(json.dumps(st.fits).encode())
        return pool

    expcli.generate_pool, expcli.smooth_pool = generate_pool, smooth_pool
    try:
        yield
    finally:
        expcli.generate_pool, expcli.smooth_pool = generate, smooth


def sweep(name: str, seeds, tmp: Path) -> int:
    """Run and judge one workload's seeds; return the failed-cell count."""
    from smmfit import expcli

    config = run.BENCH / "workloads" / f"{name}.json"
    failed = 0
    worst = dict.fromkeys(run.CLOSE_KEYS, (0.0, None))
    digest, data = hashlib.sha256(), hashlib.sha256()
    per_method = {}
    for seed in seeds:
        reference = run.load_reference(name, seed)
        if reference is None:
            print(f"{name} seed {seed}: no reference cells")
            failed += 1
            continue
        out = tmp / f"{name}-s{seed}"
        with hashing_data(expcli, data):
            expcli.main(["experiment", "--config", str(config), "--seed",
                         str(seed), "--out", str(out)])
        got = cells(out) if (out / "results.json").is_file() else []
        for path in sorted(p for p in out.rglob("*") if p.is_file()):
            add_file(digest, path, out, tmp)
        for path in sorted((out / "records").glob("*.json")):
            record = json.loads(path.read_text())
            mine = per_method.setdefault(record["method"], hashlib.sha256())
            add_file(mine, path, out, tmp)
            if record["checkpoint"]:
                add_file(mine, out / record["checkpoint"], out, tmp)
        shutil.rmtree(out, ignore_errors=True)
        if len(got) != len(reference["cells"]):
            print(f"{name} seed {seed}: {len(got)} cells, reference has "
                  f"{len(reference['cells'])}")
            failed += len(reference["cells"])
            continue
        for cell, want in zip(got, reference["cells"]):
            for key in run.CLOSE_KEYS:
                d = rel_diff(cell[key], want[key])
                if d > worst[key][0]:
                    worst[key] = (d, seed)
            if not run.cell_ok(cell, want, reference["rmse_rtol"]):
                failed += 1
                print(f"{name} seed {seed}: failed cell "
                      + json.dumps({k: [cell[k], want[k]]
                                    for k in run.CELL_KEYS
                                    if cell[k] != want[k]}))
    print(f"{name}: seeds {seeds.start}-{seeds.stop - 1}, {failed} failed "
          "cells; worst relative difference "
          + ", ".join(f"{k} {d:.2g} (seed {s})"
                      for k, (d, s) in worst.items()), flush=True)
    print(f"{name}: sha256 {digest.hexdigest()} of the output files of "
          f"seeds {seeds.start}-{seeds.stop - 1}", flush=True)
    print(f"{name}: data sha256 {data.hexdigest()} of the observations and "
          f"smoothed pools of seeds {seeds.start}-{seeds.stop - 1}",
          flush=True)
    for method, mine in sorted(per_method.items()):
        print(f"{name}: {method} sha256 {mine.hexdigest()} of its records "
              f"and checkpoints of seeds {seeds.start}-{seeds.stop - 1}",
              flush=True)
    return failed


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=int, nargs=2, required=True,
                   metavar=("FIRST", "STOP"))
    args = p.parse_args(argv)
    if args.seeds[1] <= args.seeds[0]:
        # an empty range would judge no cell and pass
        p.error(f"--seeds {args.seeds[0]} {args.seeds[1]}: STOP must be "
                "greater than FIRST")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    # this checkout's smmfit, with one BLAS thread as every perfbench
    # repetition runs; set before numpy is first imported
    sys.path.insert(0, str(ROOT / "src"))
    os.environ.update({var: "1" for var in run.THREAD_VARS})
    # expcli.main logs each cell at INFO; keep warnings only
    logging.basicConfig(level=logging.WARNING)
    with tempfile.TemporaryDirectory(prefix="reference-sweep-") as tmp:
        failed = sum(sweep(w["name"], range(*args.seeds), Path(tmp))
                     for w in bench["workloads"])
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
