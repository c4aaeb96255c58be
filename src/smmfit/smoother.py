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

from .integrators import read_csv, read_sidecar, write_csv, write_sidecar

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

    A and Q are shared by the K series, which observe their position
    (C = e₁).  R, m0 and P0 hold one entry per series, (K,), (K, 3) and
    (K, 3, 3), or one value that broadcasts to them.
    """

    A: np.ndarray
    Q: np.ndarray
    R: float | np.ndarray
    m0: np.ndarray
    P0: np.ndarray

    def __post_init__(self):
        self.A = np.asarray(self.A, dtype=np.float64)
        self.Q = np.asarray(self.Q, dtype=np.float64)
        self.m0 = np.asarray(self.m0, dtype=np.float64)
        self.P0 = np.asarray(self.P0, dtype=np.float64)
        if np.any(np.asarray(self.R) <= 0):
            raise ValueError("R must be positive")


@dataclass
class FilterResult:
    means: np.ndarray        # T x K x 3, posterior m_t|t
    covs: np.ndarray         # T x K x 3 x 3
    pred_means: np.ndarray   # T x K x 3, m_t|t-1 (m0 at t=0)
    pred_covs: np.ndarray    # T x K x 3 x 3 (P0 at t=0)
    loglik: np.ndarray       # (K,)


@dataclass
class SmoothResult:
    means: np.ndarray        # T x K x 3, m_t|T
    covs: np.ndarray         # T x K x 3 x 3
    loglik: np.ndarray       # (K,)


def _bt(X: np.ndarray) -> np.ndarray:
    """Transpose each matrix of a stack."""
    return X.swapaxes(-1, -2)


def kalman_filter(model: LdsModel, y: np.ndarray) -> FilterResult:
    """Forward pass with Joseph-form updates and exact innovation likelihood.

    The state at the first observation is the prior (m0, P0) itself; the
    transition applies between observations.  `y` is (T, K): T
    observations of each of K series, filtered at once.  With C = e₁,
    c P cᵀ, P cᵀ and C m are P[:, 0, 0], P[:, :, 0] and m[:, 0]: the
    products' values on finite covariances.  A degenerate series runs on
    to the end; the error then names the first bad t and series, of an
    innovation variance that is not positive and finite first, then of a
    non-finite filtered mean or covariance.
    """
    Y = np.asarray(y, dtype=np.float64)
    T, K = Y.shape
    A, Q = model.A, model.Q
    At = np.ascontiguousarray(A.T)
    d = A.shape[0]
    R = np.broadcast_to(np.asarray(model.R, dtype=np.float64), (K,))
    means, pred_means = np.empty((2, T, K, d))
    covs, pred_covs = np.empty((2, T, K, d, d))
    S, innov = np.empty((2, T, K))
    eye = np.eye(d)
    # I − K c: the identity but for column 0, which each step rewrites
    IKC = np.broadcast_to(eye, (K, d, d)).copy()
    Rb = R[:, None, None]
    pred_means[:1], pred_covs[:1] = model.m0, model.P0
    with np.errstate(all="ignore"):
        for t in range(T):
            m, P = pred_means[t], pred_covs[t]
            if t > 0:
                np.matmul(A, means[t - 1][:, :, None], out=m[:, :, None])
                np.add(np.matmul(np.matmul(A, covs[t - 1]), At), Q, out=P)
            s = np.add(P[:, 0, 0], R, out=S[t])
            e = np.subtract(Y[t], m[:, 0], out=innov[t])
            Kg = P[:, :, 0] / s[:, None]
            np.add(m, Kg * e[:, None], out=means[t])
            np.subtract(eye[:, 0], Kg, out=IKC[:, :, 0])
            np.add(np.matmul(np.matmul(IKC, P), _bt(IKC)),
                   (Kg[:, :, None] * Kg[:, None, :]) * Rb, out=covs[t])
    bad = (S <= 0) | ~np.isfinite(S)
    if bad.any():
        t, k = np.argwhere(bad)[0]
        raise NumericalDegeneracyError(
            f"innovation variance {S[t, k]} at t={t} in series {k}")
    bad = ~(np.isfinite(means).all(axis=2)
            & np.isfinite(covs).all(axis=(2, 3)))
    if bad.any():
        t, k = np.argwhere(bad)[0]
        raise NumericalDegeneracyError(
            f"non-finite filtered state at t={t} in series {k}")
    terms = -0.5 * (np.log(2.0 * np.pi * S) + innov * innov / S)
    loglik = np.zeros(K)
    for term in terms:  # in t order from 0.0; a pairwise sum moves bits
        loglik += term
    return FilterResult(means, covs, pred_means, pred_covs, loglik)


def rts_smooth(model: LdsModel, filt: FilterResult) -> SmoothResult:
    """Rauch-Tung-Striebel backward pass.

    The gains G_t = P_t|t Aᵀ P_{t+1|t}⁻¹ depend on the filter output
    alone, so all T − 1 of them come from one stacked solve before the
    backward recursion.
    """
    A = model.A
    fm, fc, pm, pc = filt.means, filt.covs, filt.pred_means, filt.pred_covs
    T, K, d = fm.shape
    # G = P_t|t A' P_pred^{-1}, via solve on the symmetric P_pred
    try:
        G = _bt(np.linalg.solve(pc[1:], _bt(np.matmul(fc[:-1], A.T))))
    except np.linalg.LinAlgError:
        # name the singular t+1 the backward recursion meets first
        for t in range(T - 2, -1, -1):
            try:
                np.linalg.solve(pc[t + 1], _bt(np.matmul(fc[t], A.T)))
            except np.linalg.LinAlgError:
                raise NumericalDegeneracyError(
                    f"singular predicted covariance at t={t + 1}") from None
        raise
    ms = np.empty((T, K, d))
    Ps = np.empty((T, K, d, d))
    ms[-1] = fm[-1]
    Ps[-1] = fc[-1]
    for t in range(T - 2, -1, -1):
        dm = (ms[t + 1] - pm[t + 1])[:, :, None]
        ms[t] = fm[t] + np.matmul(G[t], dm)[:, :, 0]
        Ps[t] = fc[t] + np.matmul(np.matmul(G[t], Ps[t + 1] - pc[t + 1]),
                                  _bt(G[t]))
    return SmoothResult(ms, Ps, filt.loglik)


@dataclass
class EmResult:
    model: LdsModel
    logliks: list           # one list per series
    iterations: list        # E-steps run, one count per series
    smooth: SmoothResult


def em_fit(y: np.ndarray, dt: float, iters: int = EM_ITERS,
           gain_tol: float = EM_GAIN_TOL) -> EmResult:
    """Fit R, m0, P0 by EM with the process covariance held at FIXED_Q.

    Closed-form M-steps:
      R  = (1/T) Σ_t [(y_t − m_t|T[0])² + P_t|T[0, 0]]
      m0 = m_1|T,  P0 = P_1|T
    The log-likelihood trace must be non-decreasing (1e-8 slack); a drop
    beyond that is a bug in the updates, not a data property.

    `y` is (T, K): K series fitted at once.  Each series stops on its
    own gain test; a finished series keeps the model and smooth of its
    last E-step and leaves the batch.
    """
    if iters < 1:
        raise ValueError("need at least one EM iteration")
    Y = np.asarray(y, dtype=np.float64)
    T, K = Y.shape
    # per-series means run over a contiguous last axis, as for one series
    yk = np.ascontiguousarray(Y.T)
    r0 = np.var(np.diff(yk, axis=1), axis=1) if T > 1 else np.ones(K)
    A = transition_matrix(dt)
    Q = FIXED_Q
    R = np.maximum(r0, R_FLOOR)
    v0 = (Y[1] - Y[0]) / dt if T > 1 else np.zeros(K)
    m0 = np.stack([Y[0], v0, np.zeros(K)], axis=1)
    P0 = np.broadcast_to(np.diag([1.0, 1.0, 10.0]), (K, 3, 3)).copy()

    fit_R, fit_m0, fit_P0 = np.empty(K), np.empty((K, 3)), np.empty((K, 3, 3))
    out = SmoothResult(np.empty((T, K, 3)), np.empty((T, K, 3, 3)),
                       np.empty(K))
    logliks: list[list] = [[] for _ in range(K)]
    iterations = [0] * K
    active = np.arange(K)
    for it in range(iters + 1):
        model = LdsModel(A=A, Q=Q, R=R, m0=m0, P0=P0)
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
            out.loglik[k] = smooth.loglik[done]
            for i in k:
                iterations[i] = it + 1
        keep = ~done
        if not keep.any():
            break
        active = active[keep]
        prev = filt.loglik[keep]
        # C-order (K, T), so each series' mean runs as it would alone
        pos = np.ascontiguousarray(smooth.means[:, keep, 0].T)
        var = np.ascontiguousarray(smooth.covs[:, keep, 0, 0].T)
        R = np.maximum(np.mean((yk[active] - pos) ** 2 + var, axis=1),
                       R_FLOOR)
        m0, P0 = smooth.means[0, keep], smooth.covs[0, keep]

    model = LdsModel(A=A, Q=Q, R=fit_R, m0=fit_m0, P0=fit_P0)
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
    means = res.smooth.means
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
    `t` and (q_j, qdot_j, qddot_j) triples raises ValueError naming the
    file."""
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
    return SmoothedTrajectory(q=q, qdot=qdot, qddot=qddot, h=meta["h"],
                              split=meta.get("split", ""),
                              fits=meta.get("fits", []))
