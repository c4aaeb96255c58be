"""Experiment harness and command line over the library.

The pipeline is simulate -> add noise -> smooth -> train (method x rate
x seed) -> evaluate on test data, with every stage seeded so a config
maps to one set of output bytes.  Trajectory generation and smoothing
happen once per experiment; seeds randomize the split assignment and the
net initialization, not the data pool.
"""

import argparse
import csv
import json
import logging
import sys
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import diffcore as dc
from . import integrators as integ
from . import mechanics as mech
from . import netparam as netp
from . import smoother as smo
from . import training as tr

_log = logging.getLogger("smmfit.expcli")

SYSTEMS = ("undamped", "damped")
LR_GRID = (1e-2, 1e-3, 1e-5)


class ConfigError(Exception):
    """Invalid experiment configuration or CLI usage."""


class NoDataError(Exception):
    """Asked to aggregate or plot an empty results table."""


# -- configuration ------------------------------------------------------------

@dataclass
class ExperimentConfig:
    """Defaults are the full protocol; desk-scale runs override them."""

    system: str = "undamped"
    n_trajectories: int = 16
    split: tuple = (8, 4, 4)
    T: int = 200
    h: float = 0.05
    sigma: float = 0.1
    seeds: int = 10
    methods: tuple = tr.METHODS
    lrs: tuple = LR_GRID
    epochs: int = 500
    batch_size: int = 256
    hidden: tuple = (32, 32)
    mu: float = tr.MU_DEFAULT
    alpha_fraction: float = tr.ALPHA_FRACTION
    data_seed: int = 0
    workers: int = 1
    out: str = "results"

    def __post_init__(self):
        self.split = tuple(int(s) for s in self.split)
        self.methods = tuple(self.methods)
        self.lrs = tuple(float(x) for x in self.lrs)
        self.hidden = tuple(int(h) for h in self.hidden)
        if self.system not in SYSTEMS:
            raise ConfigError(f"system must be one of {SYSTEMS}")
        if sum(self.split) != self.n_trajectories:
            raise ConfigError(f"split {self.split} does not sum to "
                              f"{self.n_trajectories} trajectories")
        if len(self.split) != 3 or any(s < 1 for s in self.split):
            raise ConfigError("split needs three positive sizes")
        if self.T < 3 or self.h <= 0:
            raise ConfigError("need T >= 3 and positive step size")
        if self.sigma < 0:
            raise ConfigError("noise level must be non-negative")
        if self.seeds < 1 or self.workers < 1:
            raise ConfigError("seeds and workers must be positive")
        bad = [m for m in self.methods if m not in tr.METHODS]
        if bad or not self.methods:
            raise ConfigError(f"methods must be drawn from {tr.METHODS}")
        if not self.lrs:
            raise ConfigError("need at least one learning rate")
        # the training and net settings check themselves
        try:
            for xi0 in self.lrs:
                self.train_config(xi0, 0)
            make_arch(self)
        except ValueError as err:
            raise ConfigError(str(err)) from err

    def train_config(self, xi0: float, seed: int) -> tr.TrainConfig:
        """The training settings of one (rate, seed) cell."""
        return tr.TrainConfig(xi0=xi0, epochs=self.epochs,
                              batch_size=self.batch_size, mu=self.mu,
                              alpha_fraction=self.alpha_fraction, seed=seed)

    def to_dict(self) -> dict:
        d = asdict(self)
        for k in ("split", "methods", "lrs", "hidden"):
            d[k] = list(d[k])
        return d

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2,
                                         sort_keys=True) + "\n")


def config_from_dict(doc: dict) -> ExperimentConfig:
    known = set(ExperimentConfig.__dataclass_fields__)
    unknown = set(doc) - known
    if unknown:
        raise ConfigError(f"unknown config fields {sorted(unknown)}")
    try:
        return ExperimentConfig(**doc)
    except (TypeError, ValueError) as err:
        raise ConfigError(str(err)) from err


def load_config(path) -> ExperimentConfig:
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    if not isinstance(doc, dict):
        raise ConfigError("config file must hold a JSON object")
    return config_from_dict(doc)


def paper_protocol(config: ExperimentConfig) -> ExperimentConfig:
    """Reset the protocol-defining fields to their published values, the
    defaults of ExperimentConfig."""
    full = ExperimentConfig()
    return replace(config, **{k: getattr(full, k) for k in (
        "n_trajectories", "split", "T", "h", "sigma", "seeds", "lrs",
        "epochs", "batch_size")})


def make_system(config: ExperimentConfig):
    return mech.DoublePendulum(damped=config.system == "damped")


def make_arch(config: ExperimentConfig) -> netp.ArchConfig:
    # the force net exists exactly when there is a friction force to learn
    return netp.ArchConfig(n=2, hidden=config.hidden,
                           conservative=config.system == "undamped")


# -- splits and evaluation ----------------------------------------------------

def split_trajectories(n: int, split, seed: int) -> dict:
    """Seeded permutation of range(n) cut into train/val/test index arrays."""
    split = tuple(split)
    if sum(split) != n:
        raise ConfigError(f"split {split} does not sum to {n}")
    perm = np.random.default_rng(seed).permutation(n)
    a, b = split[0], split[0] + split[1]
    return {"train": np.sort(perm[:a]), "val": np.sort(perm[a:b]),
            "test": np.sort(perm[b:])}


def label_split(pool, assignment) -> list:
    labeled = [None] * len(pool)
    for name, idx in assignment.items():
        for i in idx:
            labeled[i] = replace(pool[i], split=name)
    return labeled


def eval_batch(system, trajs) -> tr.Batch:
    """Accel batch at the given states with analytic-dynamics targets."""
    b = tr.assemble_tuples(trajs, "accel")
    q, qdot = b.data["q"], b.data["qdot"]
    return tr.Batch("accel", {"q": q, "qdot": qdot,
                              "qddot": mech.acceleration(system, q, qdot)})


@dataclass
class EvalResult:
    rmse: float
    failed: int = 0


def evaluate(params, batch: tr.Batch) -> EvalResult:
    """Test RMSE; rows whose prediction fails are counted, not hidden."""
    q, qd, target = batch.data["q"], batch.data["qdot"], batch.data["qddot"]
    try:
        pred = tr.predicted_accelerations(params, q, qd)
    except dc.DiffcoreError:
        # raised only for a non-finite exp(log-scale) or a zero Cholesky
        # pivot (exp(s_M) underflowed), which fail every row alike
        pred = np.full_like(target, np.nan)
    ok = np.all(np.isfinite(pred), axis=1)
    failed = int(q.shape[0] - ok.sum())
    if not ok.any():
        return EvalResult(float("nan"), failed)
    rmse = float(np.sqrt(np.mean((pred[ok] - target[ok]) ** 2)))
    return EvalResult(rmse, failed)


# -- the experiment -----------------------------------------------------------

@dataclass
class Cell:
    system: str
    sigma: float
    method: str
    xi0: float
    seed: int
    rmse: float
    failed_rows: int = 0
    reason: str = ""
    best_epoch: int = 0

    @property
    def failed(self) -> bool:
        return bool(self.reason) or self.failed_rows > 0 \
            or not np.isfinite(self.rmse)


@dataclass
class Aggregate:
    method: str
    xi0: float
    mean: float
    stderr: float
    count: int
    values: list


@dataclass
class ResultsTable:
    cells: list = field(default_factory=list)

    def aggregates(self) -> list:
        order, groups = [], {}
        for c in self.cells:
            key = (c.method, c.xi0)
            if key not in groups:
                groups[key] = []
                order.append(key)
            groups[key].append(c.rmse)
        out = []
        for method, xi0 in order:
            vals = groups[(method, xi0)]
            good = [v for v in vals if np.isfinite(v)]
            mean = float(np.mean(good)) if good else float("nan")
            stderr = float(np.std(good, ddof=1) / np.sqrt(len(good))) \
                if len(good) > 1 else float("nan")
            out.append(Aggregate(method, xi0, mean, stderr, len(good), vals))
        return out


def generate_pool(config: ExperimentConfig):
    """Clean trajectories plus their noisy observations, deterministically."""
    system = make_system(config)
    clean = integ.sample_rest_trajectories(
        system, config.n_trajectories, config.h, config.T,
        seed=config.data_seed, system=config.system,
        damped=config.system == "damped")
    observed = [integ.add_noise(t, config.sigma,
                                np.random.default_rng([config.data_seed, i]))
                for i, t in enumerate(clean)]
    return clean, observed


def smooth_pool(observed, h: float) -> list:
    """Smooth every coordinate of every trajectory in one batched call.

    The pool's trajectories share T and h, so their observations stack
    column-wise into one (T, sum of n) array.
    """
    return _smooth_stacked([o.configs for o in observed], h)


def _smooth_stacked(series, h: float) -> list:
    """Smooth (T, n_i) arrays sharing T and h in one smooth_trajectory
    call; one SmoothedTrajectory per array."""
    st = smo.smooth_trajectory(np.hstack(series), h)
    pool, a = [], 0
    for x in series:
        b = a + x.shape[1]
        pool.append(smo.SmoothedTrajectory(
            q=st.q[:, a:b].copy(), qdot=st.qdot[:, a:b].copy(),
            qddot=st.qddot[:, a:b].copy(), h=h, fits=st.fits[a:b]))
        a = b
    return pool


def _seed_split(config: ExperimentConfig, pool, seed: int):
    """The seed's (train and val, test) trajectories, labelled."""
    assignment = split_trajectories(config.n_trajectories, config.split, seed)
    labeled = label_split(pool, assignment)
    return ([t for t in labeled if t.split != "test"],
            [t for t in labeled if t.split == "test"])


def run_cell(config: ExperimentConfig, pool, seed: int, method: str,
             xi0: float, test_batch: tr.Batch):
    """One (seed, method, rate) training plus its evaluation on the
    seed's test batch."""
    fit_trajs, _ = _seed_split(config, pool, seed)
    assert all(t.split in ("train", "val") for t in fit_trajs)

    params0 = netp.init_params(seed, make_arch(config))
    tconf = config.train_config(xi0, seed)
    base = dict(system=config.system, sigma=config.sigma, method=method,
                xi0=xi0, seed=seed)
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            record, best = tr.train(method, params0, fit_trajs, tconf)
    except tr.TrainingDivergedError as err:
        cell = Cell(rmse=float("nan"), reason="diverged", **base)
        return cell, err.record, None

    res = evaluate(best, test_batch)
    reason = "" if np.isfinite(res.rmse) else "evaluation failed"
    cell = Cell(rmse=res.rmse, failed_rows=res.failed, reason=reason,
                best_epoch=record.best_epoch, **base)
    return cell, record, best


def _cell_task(payload):
    return run_cell(*payload)


def _cell_name(config, seed, method, xi0) -> str:
    return f"{config.system}_{config.sigma:g}_{method}_{xi0:g}_s{seed}"


def run_experiment(config: ExperimentConfig) -> ResultsTable:
    _log.info("generating %d %s trajectories (T=%d, sigma=%g)",
              config.n_trajectories, config.system, config.T, config.sigma)
    _, observed = generate_pool(config)
    pool = smooth_pool(observed, config.h)
    # --out only once the data exists: a failed draw leaves nothing behind
    out = Path(config.out)
    (out / "records").mkdir(parents=True, exist_ok=True)
    (out / "checkpoints").mkdir(exist_ok=True)
    config.save(out / "config.json")

    specs = []
    for seed in range(config.seeds):
        # the test targets depend on the seed's split only, not the cell
        test_batch = eval_batch(make_system(config),
                                _seed_split(config, pool, seed)[1])
        specs += [(config, pool, seed, method, xi0, test_batch)
                  for method in config.methods for xi0 in config.lrs]
    if config.workers > 1:
        # imported here: a serial run need not load multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=config.workers) as ex:
            results = list(ex.map(_cell_task, specs))
    else:
        results = [_cell_task(s) for s in specs]

    table = ResultsTable()
    for spec, (cell, record, best) in zip(specs, results):
        seed, method, xi0 = spec[2:5]
        name = _cell_name(config, seed, method, xi0)
        if best is not None:
            record.checkpoint = f"checkpoints/{name}.json"
            netp.save_params(best, out / record.checkpoint, seed=seed)
        tr.save_record(record, out / "records" / f"{name}.json")
        table.cells.append(cell)
        _log.info("%s: rmse=%s best_epoch=%d%s", name, f"{cell.rmse:.4g}",
                  cell.best_epoch, f" ({cell.reason})" if cell.reason else "")

    write_results(table, config, out)
    emit_plot_data(table, out)
    return table


# -- artifacts ----------------------------------------------------------------

def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def write_results(table: ResultsTable, config: ExperimentConfig,
                  out_dir) -> None:
    out_dir = Path(out_dir)
    with open(out_dir / "results.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["system", "sigma", "method", "xi0", "seed", "rmse",
                    "failed_rows", "best_epoch", "reason"])
        for c in table.cells:
            w.writerow([c.system, f"{c.sigma:g}", c.method, f"{c.xi0:g}",
                        c.seed, _fmt(c.rmse), c.failed_rows, c.best_epoch,
                        c.reason])
    doc = {
        "config": config.to_dict(),
        "cells": [_jsonable(asdict(c)) for c in table.cells],
        "aggregates": [_jsonable(asdict(a)) for a in table.aggregates()],
    }
    (out_dir / "results.json").write_text(
        json.dumps(doc, indent=1, sort_keys=True) + "\n")


def _jsonable(doc):
    if isinstance(doc, dict):
        return {k: _jsonable(v) for k, v in doc.items()}
    if isinstance(doc, list):
        return [_jsonable(v) for v in doc]
    if isinstance(doc, float) and not np.isfinite(doc):
        return None
    return doc


def _unjson(x) -> float:
    return float("nan") if x is None else float(x)


def load_results(path) -> ResultsTable:
    """The table of a `results.json`; a file that is not one raises
    ValueError naming it."""
    try:
        doc = json.loads(Path(path).read_text())
        cells = [Cell(system=c["system"], sigma=c["sigma"],
                      method=c["method"], xi0=c["xi0"], seed=c["seed"],
                      rmse=_unjson(c["rmse"]), failed_rows=c["failed_rows"],
                      reason=c["reason"], best_epoch=c["best_epoch"])
                 for c in doc["cells"]]
    except (KeyError, TypeError, ValueError) as err:
        raise ValueError(f"{path}: not a results file "
                         f"({type(err).__name__}: {err})") from None
    return ResultsTable(cells)


def emit_plot_data(table: ResultsTable, out_dir) -> list:
    """One CSV + one SVG bar chart per (system, sigma) present."""
    if not table.cells:
        raise NoDataError("results table is empty")
    out_dir = Path(out_dir)
    written = []
    seen = []
    for c in table.cells:
        key = (c.system, c.sigma)
        if key not in seen:
            seen.append(key)
    for system, sigma in seen:
        sub = ResultsTable([c for c in table.cells
                            if (c.system, c.sigma) == (system, sigma)])
        aggs = sub.aggregates()
        stem = f"{system}_{sigma:g}"
        csv_path = out_dir / f"plotdata_{stem}.csv"
        with open(csv_path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["method", "xi0", "mean", "stderr"])
            for a in aggs:
                w.writerow([a.method, f"{a.xi0:g}", _fmt(a.mean),
                            _fmt(a.stderr)])
        svg_path = out_dir / f"figure_{stem}.svg"
        svg_path.write_text(_svg_chart(aggs, f"{system}  sigma={sigma:g}"))
        written += [csv_path, svg_path]
    return written


_BAR_COLORS = ("#4878cf", "#ee854a", "#6acc64", "#d65f5f")


def _svg_chart(aggs, title: str) -> str:
    """Grouped bars (method groups, one bar per rate) with stderr whiskers."""
    methods, rates = [], []
    for a in aggs:
        if a.method not in methods:
            methods.append(a.method)
        if a.xi0 not in rates:
            rates.append(a.xi0)
    lookup = {(a.method, a.xi0): a for a in aggs}

    width, height = 640, 400
    left, right, top, bottom = 70, 20, 50, 60
    plot_w, plot_h = width - left - right, height - top - bottom
    tops = [a.mean + (a.stderr if np.isfinite(a.stderr) else 0.0)
            for a in aggs if np.isfinite(a.mean)]
    ymax = 1.1 * max(tops) if tops else 1.0

    def sy(v):
        return top + plot_h * (1.0 - v / ymax)

    group_w = plot_w / len(methods)
    bar_w = 0.8 * group_w / len(rates)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2}" y="24" text-anchor="middle" '
        f'font-size="15">{title}</text>',
        f'<text x="16" y="{top + plot_h / 2}" text-anchor="middle" '
        f'font-size="12" transform="rotate(-90 16 {top + plot_h / 2})">'
        f'test acceleration RMSE</text>',
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{top + plot_h}" '
        f'stroke="black"/>',
        f'<line x1="{left}" y1="{top + plot_h}" x2="{left + plot_w}" '
        f'y2="{top + plot_h}" stroke="black"/>',
    ]
    for k in range(5):
        v = ymax * k / 4
        y = sy(v)
        parts.append(f'<line x1="{left - 4}" y1="{y:.2f}" x2="{left}" '
                     f'y2="{y:.2f}" stroke="black"/>')
        parts.append(f'<text x="{left - 8}" y="{y + 4:.2f}" '
                     f'text-anchor="end" font-size="11">{v:.3g}</text>')
    for mi, method in enumerate(methods):
        gx = left + mi * group_w
        parts.append(f'<text x="{gx + group_w / 2:.2f}" '
                     f'y="{top + plot_h + 20}" text-anchor="middle" '
                     f'font-size="13">{method}</text>')
        for ri, xi0 in enumerate(rates):
            a = lookup.get((method, xi0))
            x = gx + 0.1 * group_w + ri * bar_w
            color = _BAR_COLORS[ri % len(_BAR_COLORS)]
            if a is None or not np.isfinite(a.mean):
                parts.append(f'<text x="{x + bar_w / 2:.2f}" '
                             f'y="{top + plot_h - 6}" text-anchor="middle" '
                             f'font-size="10" fill="{color}">n/a</text>')
                continue
            y = sy(a.mean)
            parts.append(f'<rect x="{x:.2f}" y="{y:.2f}" '
                         f'width="{bar_w:.2f}" '
                         f'height="{top + plot_h - y:.2f}" fill="{color}"/>')
            if np.isfinite(a.stderr) and a.stderr > 0:
                cx = x + bar_w / 2
                y0, y1 = sy(a.mean - a.stderr), sy(a.mean + a.stderr)
                parts.append(f'<line x1="{cx:.2f}" y1="{y0:.2f}" '
                             f'x2="{cx:.2f}" y2="{y1:.2f}" stroke="black"/>')
                for yy in (y0, y1):
                    parts.append(f'<line x1="{cx - 4:.2f}" y1="{yy:.2f}" '
                                 f'x2="{cx + 4:.2f}" y2="{yy:.2f}" '
                                 f'stroke="black"/>')
    for ri, xi0 in enumerate(rates):
        lx = left + plot_w - 110
        ly = top + 10 + 16 * ri
        color = _BAR_COLORS[ri % len(_BAR_COLORS)]
        parts.append(f'<rect x="{lx}" y="{ly}" width="10" height="10" '
                     f'fill="{color}"/>')
        parts.append(f'<text x="{lx + 16}" y="{ly + 9}" font-size="11">'
                     f'rate {xi0:g}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# -- CLI ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="smmfit",
        description="Fit structured mechanical models to trajectory data.")
    sub = p.add_subparsers(dest="verb", required=True)

    g = sub.add_parser("generate", help="simulate noisy trajectories")
    g.add_argument("--system", choices=SYSTEMS, default="undamped")
    g.add_argument("--count", type=int, default=4)
    g.add_argument("--steps", type=int, default=200)
    g.add_argument("--h", type=float, default=0.05)
    g.add_argument("--sigma", type=float, default=0.0)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)

    s = sub.add_parser("smooth", help="Kalman-smooth trajectory files")
    s.add_argument("data", nargs="+")
    s.add_argument("--out", required=True)

    t = sub.add_parser("train", help="fit one model to smoothed files")
    t.add_argument("data", nargs="+")
    t.add_argument("--method", choices=tr.METHODS, required=True)
    t.add_argument("--lr", type=float, default=1e-3)
    t.add_argument("--epochs", type=int, default=500)
    t.add_argument("--batch", type=int, default=256)
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--hidden", type=int, nargs="+", default=[32, 32])
    t.add_argument("--damped", action="store_true")
    t.add_argument("--out", required=True)

    e = sub.add_parser("evaluate", help="test RMSE of a checkpoint")
    e.add_argument("data", nargs="+")
    e.add_argument("--params", required=True)
    e.add_argument("--system", choices=SYSTEMS, default="undamped")

    x = sub.add_parser("experiment", help="full seeded sweep")
    x.add_argument("--config", help="JSON config file")
    x.add_argument("--paper-protocol", action="store_true",
                   help="reset data/optimization scales to the full protocol")
    x.add_argument("--system", choices=SYSTEMS)
    x.add_argument("--sigma", type=float)
    x.add_argument("--seeds", type=int)
    x.add_argument("--trajectories", type=int)
    x.add_argument("--steps", type=int)
    x.add_argument("--epochs", type=int)
    x.add_argument("--workers", type=int)
    x.add_argument("--seed", type=int, help="data generation seed")
    x.add_argument("--out")

    f = sub.add_parser("plot", help="re-emit plot data from results.json")
    f.add_argument("--results", required=True)
    f.add_argument("--out")
    return p


def _experiment_config(args) -> ExperimentConfig:
    config = load_config(args.config) if args.config else ExperimentConfig()
    if args.paper_protocol:
        config = paper_protocol(config)
    over = {}
    for flag, name in (("system", "system"), ("sigma", "sigma"),
                       ("seeds", "seeds"), ("trajectories", "n_trajectories"),
                       ("steps", "T"), ("epochs", "epochs"),
                       ("workers", "workers"), ("seed", "data_seed"),
                       ("out", "out")):
        v = getattr(args, flag)
        if v is not None:
            over[name] = v
    if "n_trajectories" in over:
        n = over["n_trajectories"]
        if n != sum(config.split):
            # keep the protocol's 2:1:1 proportions
            v = max(1, n // 4)
            over["split"] = (n - 2 * v, v, v)
    return replace(config, **over) if over else config


def _read(load, paths) -> list:
    """Each file through ``load``; a malformed file is a usage error."""
    try:
        return [load(p) for p in paths]
    except ValueError as err:
        raise ConfigError(str(err)) from err


def cmd_generate(args) -> int:
    if args.count < 1 or args.steps < 3 or args.h <= 0 or args.sigma < 0:
        raise ConfigError("need --count >= 1, --steps >= 3, --h > 0 and "
                          "--sigma >= 0")
    system = mech.DoublePendulum(damped=args.system == "damped")
    trajs = integ.sample_rest_trajectories(
        system, args.count, args.h, args.steps, seed=args.seed,
        system=args.system, damped=args.system == "damped")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for i, traj in enumerate(trajs):
        item = traj
        if args.sigma > 0:
            item = integ.add_noise(traj, args.sigma,
                                   np.random.default_rng([args.seed, i]))
        integ.save_trajectory(item, out / f"traj_{i:02d}.csv")
    _log.info("wrote %d trajectories to %s", len(trajs), out)
    return 0


def cmd_smooth(args) -> int:
    # each output takes its input's name, and its sidecar that name's stem
    seen = {}
    for name in args.data:
        stem = Path(name).stem
        if stem in seen:
            raise ConfigError(f"{seen[stem]} and {name} would write the same "
                              f"files in {args.out}")
        seen[stem] = name
    trajs = _read(integ.load_trajectory, args.data)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    # files sharing T and h smooth as one batch of series
    groups = {}
    for name, traj in zip(args.data, trajs):
        groups.setdefault((traj.T, traj.h), []).append((name, traj.configs))
    for (_, h), files in groups.items():
        smoothed = _smooth_stacked([data for _, data in files], h)
        for (name, _), st in zip(files, smoothed):
            smo.save_smoothed(st, out / Path(name).name)
    _log.info("smoothed %d files into %s", len(args.data), out)
    return 0


def cmd_train(args) -> int:
    trajs = _read(smo.load_smoothed, args.data)
    try:
        arch = netp.ArchConfig(n=trajs[0].n, hidden=tuple(args.hidden),
                               conservative=not args.damped)
        params0 = netp.init_params(args.seed, arch)
        tconf = tr.TrainConfig(xi0=args.lr, epochs=args.epochs,
                               batch_size=args.batch, seed=args.seed)
        record, best = tr.train(args.method, params0, trajs, tconf)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except tr.TrainingDivergedError as err:
        print(f"error: training diverged: {err}", file=sys.stderr)
        return 3
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    record.checkpoint = "params.json"
    netp.save_params(best, out / "params.json", seed=args.seed)
    tr.save_record(record, out / "record.json")
    _log.info("best validation RMSE %.4g at epoch %d",
              min(record.val_errors), record.best_epoch)
    return 0


def cmd_evaluate(args) -> int:
    params, _ = _read(netp.load_params, [args.params])[0]
    trajs = _read(smo.load_smoothed, args.data)
    system = mech.DoublePendulum(damped=args.system == "damped")
    n = params.layout.arch.n
    for name, traj in zip(args.data, trajs):
        if traj.n != n or traj.n != system.n:
            raise ConfigError(f"{name}: {traj.n} coordinates, but the "
                              f"checkpoint has {n} and the pendulum "
                              f"{system.n}")
    res = evaluate(params, eval_batch(system, trajs))
    print(f"test acceleration RMSE {res.rmse:.6g} "
          f"({res.failed} failed rows)")
    return 0 if res.failed == 0 and np.isfinite(res.rmse) else 3


def cmd_experiment(args) -> int:
    config = _experiment_config(args)
    table = run_experiment(config)
    failed = [c for c in table.cells if c.failed]
    for c in failed:
        _log.warning("failed cell %s xi0=%g seed=%d: %s",
                     c.method, c.xi0, c.seed, c.reason or
                     f"{c.failed_rows} rows failed")
    _log.info("wrote results for %d cells to %s", len(table.cells),
              config.out)
    return 3 if failed else 0


def cmd_plot(args) -> int:
    table = _read(load_results, [args.results])[0]
    out = Path(args.out) if args.out else Path(args.results).parent
    out.mkdir(parents=True, exist_ok=True)
    written = emit_plot_data(table, out)
    _log.info("wrote %s", ", ".join(p.name for p in written))
    return 0


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO,
                        format="%(levelname)s %(message)s")
    # before generation and smoothing, which run ahead of any train()
    tr.keep_freed_heap()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        handler = {"generate": cmd_generate, "smooth": cmd_smooth,
                   "train": cmd_train, "evaluate": cmd_evaluate,
                   "experiment": cmd_experiment, "plot": cmd_plot}[args.verb]
        return handler(args)
    except (ConfigError, NoDataError, integ.DrawsExhaustedError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except FileNotFoundError as err:
        print(f"error: no such file: {err.filename}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
