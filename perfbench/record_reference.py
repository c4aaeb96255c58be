"""Store per-cell reference results for every workload and seed.

    python3 perfbench/record_reference.py --seeds 0 32

Runs each workload of BENCHMARK.json once per seed in [first, last), the
way `run.py` runs it, and writes the `run.CELL_KEYS` of every cell (the
results.json fields plus the last epoch's training loss from the cell's
record) to `perfbench/reference.json`.  Existing entries for
other seeds are kept.  A seed whose run fails is not stored.
"""

import argparse
import json
import sys

import run


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=int, nargs=2, required=True,
                   metavar=("FIRST", "STOP"))
    p.add_argument("--workload", action="append",
                   help="only these workloads (default: all)")
    args = p.parse_args(argv)

    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    names = args.workload or [w["name"] for w in bench["workloads"]]
    doc = json.loads(run.REFERENCE.read_text())
    workdir = run.WORK / "record-reference"
    workdir.mkdir(parents=True, exist_ok=True)
    for name in names:
        config = run.BENCH / "workloads" / f"{name}.json"
        stored = doc["workloads"].setdefault(name, {})
        for seed in range(*args.seeds):
            rep = run.run_rep(config, seed, "untraced", workdir, 0)
            if rep["error"] or rep["rc"] != 0 or "cells" not in rep:
                print(f"{name} seed {seed}: failed, not stored "
                      f"({rep['error'] or rep.get('rc')})", file=sys.stderr)
                continue
            stored[str(seed)] = [{k: c[k] for k in run.CELL_KEYS}
                                 for c in rep["cells"]]
            rmse = [c["rmse"] for c in rep["cells"]]
            print(f"{name} seed {seed}: wall {rep['wall']:.2f} s, "
                  f"mean rmse {sum(rmse) / len(rmse):.6g}")
        doc["workloads"][name] = dict(sorted(stored.items(),
                                             key=lambda kv: int(kv[0])))
        run.REFERENCE.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
