"""Kalman smoothing front end for noisy joint-angle observations.

Each coordinate is smoothed independently with a 3-state
(position, velocity, acceleration) triple-integrator linear-Gaussian
model.  The process covariance is fixed; the observation variance and
the initial-state distribution are fitted by EM with closed-form
M-steps.  The RTS backward pass yields the (q̃, q̃̇, q̃̈) series used as
regression targets and residual evaluation points.

The filter, the smoother and EM run K independent series at once: a
(T, K) observation array makes every time step one stacked numpy call
on (K, 3, 3) arrays.  Each stacked call runs the same per-matrix
BLAS/LAPACK kernel the one-series expression does, and every per-series
reduction runs over a contiguous axis, so each series gets the bits it
would get alone.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np


_log = logging.getLogger("smmfit.smoother")

FIXED_Q = np.diag([1e-3, 1e-3, 1.0])
R_FLOOR = 1e-12
EM_ITERS = 50
EM_GAIN_TOL = 1e-6
EM_SLACK = 1e-8


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


@dataclass
class LdsModel:
    """Per-coordinate linear dynamical system.

    A, C and Q are shared.  For K series at once, R is (K,), m0 is
    (K, 3) and P0 is (K, 3, 3); a single series has a float R, (3,) m0
    and (3, 3) P0.
    """

    A: np.ndarray
    C: np.ndarray
    Q: np.ndarray
    R: float | np.ndarray
    m0: np.ndarray
    P0: np.ndarray

    def __post_init__(self):
        self.A = np.asarray(self.A, dtype=np.float64)
        self.C = np.asarray(self.C, dtype=np.float64).reshape(1, -1)
        self.Q = np.asarray(self.Q, dtype=np.float64)
        self.m0 = np.asarray(self.m0, dtype=np.float64)
        self.P0 = np.asarray(self.P0, dtype=np.float64)
        if np.any(np.asarray(self.R) <= 0):
            raise ValueError("R must be positive")


@dataclass
class FilterResult:
    # shapes for one series; K series add a series axis after T
    means: np.ndarray        # T x 3, posterior m_t|t
    covs: np.ndarray         # T x 3 x 3
    pred_means: np.ndarray   # T x 3, m_t|t-1 (m0 at t=0)
    pred_covs: np.ndarray    # T x 3 x 3 (P0 at t=0)
    loglik: float            # (K,) for K series


@dataclass
class SmoothResult:
    # shapes for one series; K series add a series axis after T
    means: np.ndarray        # T x 3, m_t|T
    covs: np.ndarray         # T x 3 x 3
    cross_covs: np.ndarray   # (T-1) x 3 x 3, Cov(x_t, x_{t+1} | y_{1:T})
    loglik: float            # (K,) for K series


def _bt(X: np.ndarray) -> np.ndarray:
    """Transpose each matrix of a (K, d, d) stack."""
    return X.transpose(0, 2, 1)


def kalman_filter(model: LdsModel, y: np.ndarray) -> FilterResult:
    """Forward pass with Joseph-form updates and exact innovation likelihood.

    The state at the first observation is the prior (m0, P0) itself; the
    transition applies between observations.  `y` holds T observations
    of one series, or is (T, K) for K series filtered at once.
    """
    y = np.asarray(y, dtype=np.float64)
    single = y.ndim == 1
    Y = y.reshape(y.shape[0], -1)
    T, K = Y.shape
    A, Q = model.A, model.Q
    c = model.C.ravel()
    ccol = c[:, None]
    d = A.shape[0]
    R = np.broadcast_to(np.asarray(model.R, dtype=np.float64), (K,))
    means = np.empty((T, K, d))
    covs = np.empty((T, K, d, d))
    pred_means = np.empty((T, K, d))
    pred_covs = np.empty((T, K, d, d))
    eye = np.eye(d)
    loglik = np.zeros(K)
    m = np.broadcast_to(model.m0, (K, d)).copy()
    P = np.broadcast_to(model.P0, (K, d, d)).copy()
    for t in range(T):
        if t > 0:
            m = np.matmul(A, m[:, :, None])[:, :, 0]
            P = np.matmul(np.matmul(A, P), A.T) + Q
        pred_means[t] = m
        pred_covs[t] = P
        s = np.matmul(np.matmul(c, P)[:, None, :], ccol)[:, 0, 0] + R
        bad = (s <= 0) | ~np.isfinite(s)
        if bad.any():
            k = int(np.flatnonzero(bad)[0])
            raise NumericalDegeneracyError(
                f"innovation variance {s[k]} at t={t} in series {k}")
        innov = Y[t] - np.matmul(m[:, None, :], ccol)[:, 0, 0]
        loglik += -0.5 * (np.log(2.0 * np.pi * s) + innov * innov / s)
        Kg = np.matmul(P, ccol)[:, :, 0] / s[:, None]
        m = m + Kg * innov[:, None]
        IKC = eye - Kg[:, :, None] * c
        P = (np.matmul(np.matmul(IKC, P), _bt(IKC))
             + (Kg[:, :, None] * Kg[:, None, :]) * R[:, None, None])
        means[t] = m
        covs[t] = P
    if single:
        return FilterResult(means[:, 0], covs[:, 0], pred_means[:, 0],
                            pred_covs[:, 0], loglik[0])
    return FilterResult(means, covs, pred_means, pred_covs, loglik)


def rts_smooth(model: LdsModel, filt: FilterResult) -> SmoothResult:
    """Rauch-Tung-Striebel backward pass with lag-one cross-covariances."""
    A = model.A
    single = filt.means.ndim == 2
    fm, fc, pm, pc = (a[:, None] if single else a for a in
                      (filt.means, filt.covs, filt.pred_means,
                       filt.pred_covs))
    T, K, d = fm.shape
    ms = np.empty((T, K, d))
    Ps = np.empty((T, K, d, d))
    cross = np.empty((max(T - 1, 0), K, d, d))
    ms[-1] = fm[-1]
    Ps[-1] = fc[-1]
    for t in range(T - 2, -1, -1):
        P_pred = pc[t + 1]
        try:
            # G = P_t|t A' P_pred^{-1}, via solve on the symmetric P_pred
            G = _bt(np.linalg.solve(P_pred, _bt(np.matmul(fc[t], A.T))))
        except np.linalg.LinAlgError:
            raise NumericalDegeneracyError(f"singular predicted covariance at t={t + 1}")
        dm = (ms[t + 1] - pm[t + 1])[:, :, None]
        ms[t] = fm[t] + np.matmul(G, dm)[:, :, 0]
        Ps[t] = fc[t] + np.matmul(np.matmul(G, Ps[t + 1] - P_pred), _bt(G))
        cross[t] = np.matmul(G, Ps[t + 1])
    if single:
        return SmoothResult(ms[:, 0], Ps[:, 0], cross[:, 0], filt.loglik)
    return SmoothResult(ms, Ps, cross, filt.loglik)


@dataclass
class EmResult:
    model: LdsModel
    logliks: list           # one list per series for K series
    iterations: int | list  # E-steps run; one count per series for K series
    smooth: SmoothResult


def em_fit(y: np.ndarray, dt: float, q_fixed: np.ndarray = FIXED_Q,
           iters: int = EM_ITERS, gain_tol: float = EM_GAIN_TOL) -> EmResult:
    """Fit R, m0, P0 by EM with the process covariance held fixed.

    Closed-form M-steps:
      R  = (1/T) Σ_t [(y_t − C m_t|T)² + C P_t|T Cᵀ]
      m0 = m_1|T,  P0 = P_1|T
    The log-likelihood trace must be non-decreasing (1e-8 slack); a drop
    beyond that is a bug in the updates, not a data property.

    A (T, K) `y` fits K series at once.  Each series stops on its own
    gain test; a finished series keeps the model and smooth of its last
    E-step and leaves the batch.
    """
    if iters < 1:
        raise ValueError("need at least one EM iteration")
    y = np.asarray(y, dtype=np.float64)
    single = y.ndim == 1
    Y = y.reshape(y.shape[0], -1)
    T, K = Y.shape
    # per-series means run over a contiguous last axis, as for one series
    yk = np.ascontiguousarray(Y.T)
    r0 = np.var(np.diff(yk, axis=1), axis=1) if T > 1 else np.ones(K)
    A = transition_matrix(dt)
    C = np.array([[1.0, 0.0, 0.0]])
    Q = np.asarray(q_fixed, dtype=np.float64)
    c = C.ravel()
    R = np.maximum(r0, R_FLOOR)
    v0 = (Y[1] - Y[0]) / dt if T > 1 else np.zeros(K)
    m0 = np.stack([Y[0], v0, np.zeros(K)], axis=1)
    P0 = np.broadcast_to(np.diag([1.0, 1.0, 10.0]), (K, 3, 3)).copy()

    fit_R, fit_m0, fit_P0 = np.empty(K), np.empty((K, 3)), np.empty((K, 3, 3))
    out = SmoothResult(np.empty((T, K, 3)), np.empty((T, K, 3, 3)),
                       np.empty((max(T - 1, 0), K, 3, 3)), np.empty(K))
    logliks: list[list] = [[] for _ in range(K)]
    iterations = [0] * K
    active = np.arange(K)
    for it in range(iters + 1):
        model = LdsModel(A=A, C=C, Q=Q, R=R, m0=m0, P0=P0)
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

        # after `iters` M-steps every series stops on an E-step, so the
        # returned smooth matches the returned model
        done = gain < gain_tol if it < iters else np.ones(active.size, bool)
        if done.any():
            k = active[done]
            fit_R[k], fit_m0[k], fit_P0[k] = R[done], m0[done], P0[done]
            out.means[:, k] = smooth.means[:, done]
            out.covs[:, k] = smooth.covs[:, done]
            out.cross_covs[:, k] = smooth.cross_covs[:, done]
            out.loglik[k] = smooth.loglik[done]
            for i in k:
                iterations[i] = it + 1
        keep = ~done
        if not keep.any():
            break
        active = active[keep]
        prev = filt.loglik[keep]
        means = np.ascontiguousarray(smooth.means[:, keep].transpose(1, 0, 2))
        covs = np.ascontiguousarray(
            smooth.covs[:, keep].transpose(1, 0, 2, 3))
        resid = yk[active] - np.matmul(means, c)
        cpc = np.einsum("i,ktij,j->kt", c, covs, c)
        R = np.maximum(np.mean(resid ** 2 + cpc, axis=1), R_FLOOR)
        m0 = means[:, 0]
        P0 = covs[:, 0]

    if single:
        model = LdsModel(A=A, C=C, Q=Q, R=float(fit_R[0]), m0=fit_m0[0],
                         P0=fit_P0[0])
        smooth = SmoothResult(out.means[:, 0], out.covs[:, 0],
                              out.cross_covs[:, 0], out.loglik[0])
        return EmResult(model, logliks[0], iterations[0], smooth)
    model = LdsModel(A=A, C=C, Q=Q, R=fit_R, m0=fit_m0, P0=fit_P0)
    return EmResult(model, logliks, iterations, out)


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


@dataclass
class SmoothedDataset:
    trajectories: list


def smooth_trajectory(observations: np.ndarray, h: float,
                      split: str = "") -> SmoothedTrajectory:
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
    means = res.smooth.means
    return SmoothedTrajectory(q=np.ascontiguousarray(means[:, :, 0]),
                              qdot=np.ascontiguousarray(means[:, :, 1]),
                              qddot=np.ascontiguousarray(means[:, :, 2]),
                              h=h, split=split, fits=fits)


def save_smoothed(straj: SmoothedTrajectory, path) -> None:
    """CSV `t, q_i, qdot_i, qddot_i` per coordinate + JSON fit sidecar."""
    import csv
    import json
    from pathlib import Path

    path = Path(path)
    header = ["t"]
    for j in range(straj.n):
        header += [f"q{j + 1}", f"qdot{j + 1}", f"qddot{j + 1}"]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for t in range(straj.T):
            row = [t * straj.h]
            for j in range(straj.n):
                row += [straj.q[t, j], straj.qdot[t, j], straj.qddot[t, j]]
            w.writerow([f"{x:.17g}" for x in row])
    meta = {"h": straj.h, "split": straj.split, "fits": straj.fits}
    with open(path.with_suffix(".json"), "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_smoothed(path) -> SmoothedTrajectory:
    import csv
    import json
    from pathlib import Path

    path = Path(path)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        data = np.array([[float(x) for x in row] for row in reader])
    n = (len(header) - 1) // 3
    q = data[:, 1 + 3 * np.arange(n)]
    qdot = data[:, 2 + 3 * np.arange(n)]
    qddot = data[:, 3 + 3 * np.arange(n)]
    with open(path.with_suffix(".json")) as fh:
        meta = json.load(fh)
    return SmoothedTrajectory(q=q, qdot=qdot, qddot=qddot, h=meta["h"],
                              split=meta.get("split", ""),
                              fits=meta.get("fits", []))
