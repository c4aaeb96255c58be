"""Kalman smoothing front end for noisy joint-angle observations.

Each coordinate is smoothed independently with a 3-state
(position, velocity, acceleration) triple-integrator linear-Gaussian
model.  The process covariance is fixed; the observation variance and
the initial-state distribution are fitted by EM with closed-form
M-steps.  The RTS backward pass yields the (q̃, q̃̇, q̃̈) series used as
regression targets and residual evaluation points.

The filter, the smoother and EM run K independent series at once on a
(T, K) observation array.  Each series carries one state row per time
step, `[m₀ m₁ m₂ | P₀₀ P₀₁ P₀₂ P₁₁ P₁₂ P₂₂]`: its mean and the six
entries of its symmetric covariance.  A linear map x ↦ G x of the state
acts on the row as one 9×9 matrix (G on the mean, G P Gᵀ on the six
entries), so a predict step and an RTS step are one stacked product per
series.  The update is the Joseph form with C = e₁ and the optimal gain,
entry by entry; the RTS gains for every t come from one entry-major
Cholesky solve.  Each stacked product runs the same per-matrix kernel
the one-series expression does, every other operation is elementwise,
and every per-series reduction runs over a contiguous axis, so each
series gets the bits it would get alone.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .integrators import read_csv, read_sidecar, write_csv, write_sidecar
from .mechanics import NotPositiveDefiniteError, cho_solve, cholesky

_log = logging.getLogger("smmfit.smoother")

FIXED_Q = np.diag([1e-3, 1e-3, 1.0])
R_FLOOR = 1e-12
EM_ITERS = 50
EM_GAIN_TOL = 1e-6
EM_SLACK = 1e-8

# a state row's covariance entries (i, j), i <= j, in row order
_IU = np.triu_indices(3)
# each full-matrix entry's place in the row
_FULL = 3 + np.array([[0, 1, 2], [1, 3, 4], [2, 4, 5]])
# The Joseph update on whole rows, f = c ⊙ x + g ⊙ w, with c `_KEEP`, g
# the gain K = P[:, 0] / s read at `_GAIN`, and w = (y, R or 0) − c ⊙ x
# read at `_ARM`: the mean m_j + K_j (y − m₀), row 0 of P as R K_j, and
# P_ij − K_i P_0j below it
_KEEP = np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0])
_GAIN = _FULL[0, [0, 1, 2, 0, 1, 2, 1, 1, 2]]
_ARM = np.array([0, 0, 0, 0, 0, 0, _FULL[0, 1], _FULL[0, 2], _FULL[0, 2]])
# G P Gᵀ on the six entries: input (k, l) across, where an off-diagonal
# P_kl stands for P_lk too
_IN_K, _IN_L = _IU
_CROSS = np.flatnonzero(_IN_K != _IN_L)


class NumericalDegeneracyError(Exception):
    """A filter/smoother covariance collapsed or went singular."""


class EmMonotonicityError(Exception):
    """EM log-likelihood decreased beyond slack; indicates a bug."""

    def __init__(self, iteration: int, before: float, after: float):
        self.iteration = iteration
        self.before = before
        self.after = after
        super().__init__(
            f"log-likelihood fell from {before:.9g} to {after:.9g} "
            f"at EM iteration {iteration}")


def transition_matrix(dt: float) -> np.ndarray:
    """exp of the triple-integrator generator times dt, in closed form."""
    if dt < 0:
        raise ValueError("dt must be non-negative")
    return np.array([[1.0, dt, 0.5 * dt * dt],
                     [0.0, 1.0, dt],
                     [0.0, 0.0, 1.0]])


def covariances(rows: np.ndarray) -> np.ndarray:
    """The (..., 3, 3) symmetric covariances of (..., 9) state rows."""
    return rows[..., _FULL]


def _row_map(G: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write into `out` (..., 9, 9) the map of a state row through each
    G of an entry-major (3, 3, ...) stack: G on the mean and G P Gᵀ on
    the six covariance entries, with zero blocks between them."""
    out[..., :3, 3:] = 0.0
    out[..., 3:, :3] = 0.0
    out[..., :3, :3] = np.moveaxis(G, (0, 1), (-2, -1))
    # one output entry (a, b) at a time keeps the temporaries small
    for i, (a, b) in enumerate(zip(*_IU)):
        cov = G[a, _IN_K] * G[b, _IN_L]
        cov[_CROSS] += G[a, _IN_L[_CROSS]] * G[b, _IN_K[_CROSS]]
        out[..., 3 + i, 3:] = np.moveaxis(cov, 0, -1)
    return out


@dataclass
class LdsModel:
    """Per-coordinate linear dynamical system.

    A and the process covariance `FIXED_Q` are shared by the K series,
    which observe their position (C = e₁).  R, m0 and P0 hold one entry
    per series, (K,), (K, 3) and (K, 3, 3), or one value that broadcasts
    to them.
    """

    A: np.ndarray
    R: float | np.ndarray
    m0: np.ndarray
    P0: np.ndarray

    def __post_init__(self):
        self.A = np.asarray(self.A, dtype=np.float64)
        self.m0 = np.asarray(self.m0, dtype=np.float64)
        self.P0 = np.asarray(self.P0, dtype=np.float64)
        if np.any(np.asarray(self.R) <= 0):
            raise ValueError("R must be positive")


@dataclass
class FilterResult:
    rows: np.ndarray         # T x K x 9, posterior state rows at t|t
    pred_rows: np.ndarray    # T x K x 9, at t|t-1 ((m0, P0) at t=0)
    loglik: np.ndarray       # (K,)


@dataclass
class SmoothResult:
    rows: np.ndarray         # T x K x 9, state rows at t|T


def kalman_filter(model: LdsModel, y: np.ndarray) -> FilterResult:
    """Forward pass with Joseph-form updates and exact innovation likelihood.

    The state at the first observation is the prior (m0, P0) itself; the
    transition applies between observations.  `y` is (T, K): T
    observations of each of K series, filtered at once.  With C = e₁ and
    the optimal gain K = P[:, 0] / s, the Joseph form
    (I − K c) P (I − K c)ᵀ + R K Kᵀ leaves R K in row 0 and
    P_ij − K_i P_0j below it.  A degenerate series runs on to the end;
    the error then names the first bad t and series, of an innovation
    variance that is not positive and finite first, then of a
    non-finite filtered state row.
    """
    Y = np.asarray(y, dtype=np.float64)
    T, K = Y.shape
    R = np.broadcast_to(np.asarray(model.R, dtype=np.float64), (K,))
    # one (9, 9) by (9, 1) product per series: one (K, 9) by (9, 9)
    # product would round K = 1 differently.  Each series has its own
    # copy of the map, which matmul runs faster than a broadcast one
    step = _row_map(model.A, np.empty((K, 9, 9)))
    q = np.zeros(9)
    q[3:] = FIXED_Q[_IU]
    # w's terms that do not depend on the prediction: y, R and 0
    obs = np.zeros((T, K, 9))
    obs[:, :, :3] = Y[:, :, None]
    obs[:, :, 3:6] = R[:, None]
    rows, pred = np.empty((2, T, K, 9))
    S = np.empty((T, K))
    pred[0, :, :3] = model.m0
    pred[0, :, 3:] = model.P0[..., _IU[0], _IU[1]]
    rows_v, pred_v = rows.reshape(T, K, 9, 1), pred.reshape(T, K, 9, 1)
    with np.errstate(all="ignore"):
        for t in range(T):
            x = pred[t]
            if t > 0:
                np.matmul(step, rows_v[t - 1], out=pred_v[t])
                np.add(x, q, out=x)
            s = np.add(x[:, 3], R, out=S[t])
            g = x.take(_GAIN, axis=1) / s[:, None]
            w = obs[t] - x.take(_ARM, axis=1) * _KEEP
            np.add(x * _KEEP, g * w, out=rows[t])
        innov = Y - pred[:, :, 0]
    bad = (S <= 0) | ~np.isfinite(S)
    if bad.any():
        t, k = np.argwhere(bad)[0]
        raise NumericalDegeneracyError(
            f"innovation variance {S[t, k]} at t={t} in series {k}")
    bad = ~np.isfinite(rows).all(axis=2)
    if bad.any():
        t, k = np.argwhere(bad)[0]
        raise NumericalDegeneracyError(
            f"non-finite filtered state at t={t} in series {k}")
    # summed in t order from 0.0, as a running sum down a zero first row:
    # a pairwise sum (terms.sum(0) at K = 1) would move bits
    terms = np.zeros((T + 1, K))
    terms[1:] = -0.5 * (np.log(2.0 * np.pi * S) + innov * innov / S)
    loglik = np.add.accumulate(terms)[-1]
    return FilterResult(rows, pred, loglik)


def _gains(A: np.ndarray, f: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Gᵀ = P_{t+1|t}⁻¹ A P_t|t, the transposed RTS gain, for each column
    of entry-major (3, 3, N) stacks f of P_t|t and p of P_{t+1|t}: A P_t|t
    entry by entry, then one Cholesky solve.  Raises
    NotPositiveDefiniteError at the first pivot of p that fails."""
    AP = sum(A[:, k, None, None] * f[k] for k in range(3))
    L, r, _ = cholesky(p, 0.0)
    return cho_solve(L, r, AP)


def rts_smooth(model: LdsModel, filt: FilterResult) -> SmoothResult:
    """Rauch-Tung-Striebel backward pass.

    The gains G_t = P_t|t Aᵀ P_{t+1|t}⁻¹ depend on the filter output
    alone, so all (T − 1) K of them come from one stacked solve before
    the backward recursion, in the order the recursion meets them; a
    predicted covariance that is not positive definite raises at the
    first failing pivot, naming the t the recursion meets first there.
    """
    T, K, _ = filt.rows.shape
    N = (T - 1) * K

    def entry_major(rows):
        return np.moveaxis(rows, 2, 0)[_FULL].reshape(3, 3, N)

    try:
        # P_t|t and P_{t+1|t}, t = T − 2 down to 0
        Gt = _gains(model.A, entry_major(filt.rows[-2::-1]),
                    entry_major(filt.pred_rows[:0:-1]))
    except NotPositiveDefiniteError as err:
        raise NumericalDegeneracyError(
            "singular predicted covariance at "
            f"t={T - 1 - err.row // K}") from None
    step = _row_map(Gt.swapaxes(0, 1), np.empty((N, 9, 9)))
    step = step.reshape(T - 1, K, 9, 9)
    rows = np.empty_like(filt.rows)
    rows[-1] = filt.rows[-1]
    rows_v = rows.reshape(T, K, 9, 1)
    pred_v = filt.pred_rows.reshape(T, K, 9, 1)
    d = np.empty((K, 9, 1))
    for i, t in enumerate(range(T - 2, -1, -1)):
        np.subtract(rows_v[t + 1], pred_v[t + 1], out=d)
        np.matmul(step[i], d, out=rows_v[t])
        rows[t] += filt.rows[t]
    return SmoothResult(rows)


@dataclass
class EmResult:
    model: LdsModel
    logliks: list           # one list per series
    iterations: list        # E-steps run, one count per series
    means: np.ndarray       # T x K x 3, the smoothed m_t|T


def em_fit(y: np.ndarray, dt: float) -> EmResult:
    """Fit R, m0, P0 by EM with the process covariance held at FIXED_Q.

    Closed-form M-steps:
      R  = (1/T) Σ_t [(y_t − m_t|T[0])² + P_t|T[0, 0]]
      m0 = m_1|T,  P0 = P_1|T
    The log-likelihood trace must be non-decreasing (1e-8 slack); a drop
    beyond that is a bug in the updates, not a data property.

    `y` is (T, K): K series fitted at once.  Each series stops on its
    own gain test (`EM_GAIN_TOL`) or after `EM_ITERS` M-steps; a finished
    series keeps the model and smoothed means of its last E-step and
    leaves the batch.  A series too large for the initial R's squares
    gets an infinite R, which the filter reports.
    """
    Y = np.asarray(y, dtype=np.float64)
    T, K = Y.shape
    # per-series means run over a contiguous last axis, as for one series
    yk = np.ascontiguousarray(Y.T)
    with np.errstate(all="ignore"):
        r0 = np.var(np.diff(yk, axis=1), axis=1)
    A = transition_matrix(dt)
    R = np.maximum(r0, R_FLOOR)
    v0 = (Y[1] - Y[0]) / dt
    m0 = np.stack([Y[0], v0, np.zeros(K)], axis=1)
    P0 = np.broadcast_to(np.diag([1.0, 1.0, 10.0]), (K, 3, 3)).copy()

    fit_R, fit_m0, fit_P0 = np.empty(K), np.empty((K, 3)), np.empty((K, 3, 3))
    means = np.empty((T, K, 3))
    logliks: list[list] = [[] for _ in range(K)]
    iterations = [0] * K
    active = np.arange(K)
    for it in range(EM_ITERS + 1):
        model = LdsModel(A=A, R=R, m0=m0, P0=P0)
        filt = kalman_filter(model, Y[:, active])
        gain = np.full(active.size, np.inf)
        if it > 0:
            fell = np.flatnonzero(filt.loglik < prev - EM_SLACK)
            if fell.size:
                j = fell[0]
                raise EmMonotonicityError(it, prev[j], filt.loglik[j])
            gain = filt.loglik - prev
        for j, k in enumerate(active):
            logliks[k].append(filt.loglik[j])
        smooth = rts_smooth(model, filt)

        # after `EM_ITERS` M-steps every series stops on an E-step, so
        # the returned means match the returned model
        done = (gain < EM_GAIN_TOL) | (it == EM_ITERS)
        if done.any():
            k = active[done]
            fit_R[k], fit_m0[k], fit_P0[k] = R[done], m0[done], P0[done]
            means[:, k] = smooth.rows[:, done, :3]
            for i in k:
                iterations[i] = it + 1
        keep = ~done
        if not keep.any():
            break
        active = active[keep]
        prev = filt.loglik[keep]
        # C-order (K, T), so each series' mean runs as it would alone
        pos = np.ascontiguousarray(smooth.rows[:, keep, 0].T)
        var = np.ascontiguousarray(smooth.rows[:, keep, 3].T)
        R = np.maximum(np.mean((yk[active] - pos) ** 2 + var, axis=1),
                       R_FLOOR)
        start = smooth.rows[0, keep]
        m0, P0 = start[:, :3], covariances(start)

    model = LdsModel(A=A, R=fit_R, m0=fit_m0, P0=fit_P0)
    return EmResult(model, logliks, iterations, means)


@dataclass
class SmoothedTrajectory:
    """Per-trajectory smoothed states plus per-coordinate fit info."""

    q: np.ndarray        # T x n
    qdot: np.ndarray     # T x n
    qddot: np.ndarray    # T x n
    h: float
    split: str = ""
    fits: list = field(default_factory=list)  # per-coordinate dicts

    def __post_init__(self):
        for arr in (self.q, self.qdot, self.qddot):
            if arr.shape != self.q.shape:
                raise ValueError("smoothed series shapes disagree")
            if not np.all(np.isfinite(arr)):
                raise ValueError("non-finite smoothed state")

    @property
    def T(self) -> int:
        return self.q.shape[0]

    @property
    def n(self) -> int:
        return self.q.shape[1]


def smooth_trajectory(observations: np.ndarray,
                      h: float) -> SmoothedTrajectory:
    """EM + RTS on all n coordinates as one batch of series.

    The columns need not be one trajectory's coordinates: any (T, n)
    array of series sharing the step `h` smooths in one call.
    """
    y = np.asarray(observations, dtype=np.float64)
    if y.ndim != 2:
        raise ValueError("observations must be T x n")
    res = em_fit(y, h)
    capped = sum(it > EM_ITERS for it in res.iterations)
    _log.info("%d of %d EM series ran all %d iterations", capped,
              len(res.iterations), EM_ITERS)
    fits = [{
        "R": float(res.model.R[j]),
        "m0": res.model.m0[j].tolist(),
        "P0": res.model.P0[j].tolist(),
        "iterations": res.iterations[j],
        "logliks": [float(v) for v in res.logliks[j]],
    } for j in range(y.shape[1])]
    means = res.means
    return SmoothedTrajectory(q=np.ascontiguousarray(means[:, :, 0]),
                              qdot=np.ascontiguousarray(means[:, :, 1]),
                              qddot=np.ascontiguousarray(means[:, :, 2]),
                              h=h, fits=fits)


def _smoothed_header(n: int) -> list:
    return ["t"] + [f"{k}{j + 1}" for j in range(n)
                    for k in ("q", "qdot", "qddot")]


def save_smoothed(straj: SmoothedTrajectory, path) -> None:
    """CSV `t, q_i, qdot_i, qddot_i` per coordinate + JSON fit sidecar."""
    header = _smoothed_header(straj.n)
    block = np.stack([straj.q, straj.qdot, straj.qddot], axis=2)
    block = block.reshape(straj.T, -1)
    rows = ([t * straj.h] + list(block[t]) for t in range(straj.T))
    write_csv(path, header, rows)
    write_sidecar(path, {"h": straj.h, "split": straj.split,
                         "fits": straj.fits})


def load_smoothed(path) -> SmoothedTrajectory:
    """Read a CSV + sidecar `save_smoothed` wrote; a header that is not
    `t` and (q_j, qdot_j, qddot_j) triples, or a sidecar split other than
    "", train, val and test, raises ValueError naming the file."""
    header, data = read_csv(path)
    n = (len(header) - 1) // 3
    if n < 1 or header != _smoothed_header(n):
        raise ValueError(f"{path}: header {','.join(header)} is not t and "
                         "q_j, qdot_j, qddot_j per coordinate; run "
                         "`smmfit smooth` on raw data first")
    q = data[:, 1 + 3 * np.arange(n)]
    qdot = data[:, 2 + 3 * np.arange(n)]
    qddot = data[:, 3 + 3 * np.arange(n)]
    meta = read_sidecar(path)
    split = meta.get("split", "")
    if split not in ("", "train", "val", "test"):
        raise ValueError(f"{path}: sidecar split {split!r} is not one of "
                         "'', 'train', 'val' and 'test'")
    return SmoothedTrajectory(q=q, qdot=qdot, qddot=qddot, h=meta["h"],
                              split=split,
                              fits=meta.get("fits", []))
