"""The loss stages and net builds against `oracle`'s point model: each
loss value to rtol 1e-12, each gradient along random directions and one
per layout slot against its complex step, to `GRAD_RTOL` of Σ|g_i δ_i|;
each stage alone as well as in its loss.  Also the RK4 schedule against
four acceleration stages, one net run per distinct DEL pair, the node
count of each loss graph, the fused builds' error checks, and the tape's
reference-counting contract."""

import gc
import warnings

import numpy as np
import pytest

import oracle
from smmfit import diffcore as dc
from smmfit import mechanics as mech
from smmfit import netparam as netp
from smmfit import training as tr

H = 0.05
# worst gap seen: 4.2e-14 over these directions, 1.3e-13 over another
# draw of them (x86_64, OpenBLAS 0.3.31)
GRAD_RTOL = 1e-12


def setup(n, conservative, B, seed=0):
    arch = netp.ArchConfig(n=n, hidden=(16, 16) if n == 2 else (8, 8),
                           conservative=conservative)
    flat = netp.init_params(seed, arch)
    _, s, _ = flat.layout.slot("log_scales")
    flat.values[s] = 0.3
    if not conservative:
        flat.values[s + 2] = 0.4
    rng = np.random.default_rng([n, B, int(conservative)])
    q1, q2, q3, qd, qdd = (rng.normal(size=(B, n)) for _ in range(5))
    batches = {
        "del": tr.Batch("del", {"q1": q1, "q2": q2, "q3": q3}, H),
        "accel": tr.Batch("accel", {"q": q1, "qdot": qd, "qddot": qdd}),
        "nextstate": tr.Batch("nextstate", {"q": q1, "qdot": qd,
                                            "qnext": q2, "qdotnext": q3}, H),
    }
    alpha = tr.choose_alpha(flat, np.vstack([q1, q2, q3]))
    return flat, batches, alpha


def assert_close(got, want):
    # the library and the point model add in their own order
    for g, w in zip(got, want):
        w = np.asarray(w)
        np.testing.assert_allclose(g, w, rtol=1e-12,
                                   atol=1e-12 * np.abs(w).max())


def assert_gradient(f, x, grad, dirs):
    """<grad, δ> against the complex step of ``f`` at ``x``, per δ."""
    for d in dirs:
        got, want = np.sum(grad * d), oracle.complex_step(f, x, d)
        assert abs(got - want) <= GRAD_RTOL * np.abs(grad * d).sum(), \
            (got, want)


def assert_loss(f, theta, got, dirs):
    """A library (loss, gradient) against the point model's loss ``f``."""
    assert_close([got[0]], [f(theta)])
    assert_gradient(f, theta, got[1], dirs)


CASES = [(n, cons, B) for n in (1, 2, 3) for cons in (True, False)
         for B in (1, 7, 32, 196)]


@pytest.mark.parametrize("n,conservative,B", CASES)
def test_fused_losses_and_gradients_are_bit_exact(n, conservative, B):
    # the pass mark is rounding, not bit identity.  The barrier is checked
    # alone too: in the DEL loss μ = 0.01 scales its gradient far down
    flat, b, alpha = setup(n, conservative, B)
    theta, layout = flat.values, flat.layout
    rng = np.random.default_rng([n, B, int(conservative), 1])
    dirs = oracle.directions(layout, rng)
    for mu in (0.01, 0.0):
        assert_loss(lambda t: oracle.loss(t, layout, b["del"], mu, alpha),
                    theta, tr.del_loss_grad(flat, b["del"], mu, alpha),
                    dirs if mu == 0.0 else dirs[:4])
    q2 = b["del"].data["q2"]
    for shift in (alpha, 0.0):
        assert_gradient(lambda t: np.mean(oracle.log_dets(t, layout, q2,
                                                          shift)),
                        theta, oracle.barrier_grad(flat, q2, shift),
                        dirs if shift else dirs[:4])
    assert_loss(lambda t: oracle.loss(t, layout, b["accel"]), theta,
                tr.accel_loss_grad(flat, b["accel"]), dirs)
    assert_loss(lambda t: oracle.loss(t, layout, b["nextstate"]), theta,
                tr.nextstate_loss_grad(flat, b["nextstate"], H), dirs)


@pytest.mark.parametrize("method", tr.METHODS)
def test_complex_step_matches_central_differences(method):
    # the oracle's anchor: its complex step against central differences
    # along random directions in θ (along one slot, the differences'
    # rounding of about 1e-16 |f| / step can swamp a small derivative)
    flat, b, alpha = setup(2, False, 7)

    def loss(t):
        return oracle.loss(t, flat.layout, b[method], 0.01, alpha)

    for d in np.random.default_rng(3).normal(size=(4, flat.layout.total)):
        want = oracle.complex_step(loss, flat.values, d)
        got = oracle.fd(lambda s: loss(flat.values + s * d), [0.0])[0]
        assert abs(got - want) <= 1e-6 * max(abs(got), abs(want))


def rk4_chain(flat, batch, h):
    """The RK4 step as four `_accel_np` calls, each on its own stage's
    rows: the loss, Qp, Vp and the stage positions of stages 1-2 and
    3-4."""
    theta_v = flat.values.reshape(1, -1)
    X, Xd = batch.data["q"], batch.data["qdot"]
    hh = 0.5 * h

    def acc(Xs, Vs):
        return tr._accel_np(theta_v, flat.layout, Xs, Vs)[0]

    X2 = X + Xd * hh
    A1 = acc(X, Xd)
    V2 = Xd + A1 * hh
    A2 = acc(X2, V2)
    V3 = Xd + A2 * hh
    X3, X4 = X + V2 * hh, X + V3 * h
    A3 = acc(X3, V3)
    V4 = Xd + A3 * h
    A4 = acc(X4, V4)
    Qp = X + ((Xd + (V2 + V3) * 2.0) + V4) * (h / 6.0)
    Vp = Xd + ((A1 + (A2 + A3) * 2.0) + A4) * (h / 6.0)
    # the loss arithmetic of the tape's sumsq and scale
    E = np.concatenate([Qp - batch.data["qnext"],
                        Vp - batch.data["qdotnext"]], 1)
    loss = np.array([[float(np.sum(E * E))]]) * (1.0 / (2.0 * X.size))
    return loss, Qp, Vp, [(X, X2), (X3, X4)]


def rows_stable(flat, pairs):
    """Whether the position block on two stages' stacked rows gives each
    stage the bits of the block on its own rows."""
    theta_v = flat.values.reshape(1, -1)
    for Xa, Xb in pairs:
        both, _ = tr._position_np(theta_v, flat.layout,
                                  np.concatenate([Xa, Xb]), False)
        halves = (slice(None, len(Xa)), slice(len(Xa), None))
        for rows, Xs in zip(halves, (Xa, Xb)):
            own, _ = tr._position_np(theta_v, flat.layout, Xs, False)
            if not all(np.array_equal(p[..., rows], o)
                       for p, o in zip(both, own)):
                return False
    return True


@pytest.mark.parametrize("n,conservative,B", CASES)
def test_rk4_schedule_matches_four_accel_stages(n, conservative, B):
    # the schedule runs the position block once on stages 1-2's rows and
    # once on stages 3-4's; every row's arithmetic is a lone stage's, so
    # the loss and predictions are the four-call chain's bit for bit
    # wherever BLAS rounds each row of a product the same at B and 2B
    # rows.  It does not always: numpy multiplies a single row by gemv,
    # and a BLAS kernel may round a batch's tail rows, past its last full
    # block of rows, its own way.  There rounding is the pass mark
    flat, b, _ = setup(n, conservative, B)
    *want, pairs = rk4_chain(flat, b["nextstate"], H)
    _, _, loss, (Qp, Vp) = tr._nextstate_graph(flat, b["nextstate"], H)
    got = [loss.value, Qp, Vp]
    if rows_stable(flat, pairs):
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
    else:
        assert_close(got, want)


def trajectory_batch(n, T):
    # a random walk cut into its T - 2 DEL tuples, in order: tuple i's
    # second pair (q_i+1, q_i+2) is tuple i+1's first
    rng = np.random.default_rng([n, T])
    q = np.cumsum(rng.normal(scale=0.05, size=(T, n)), axis=0)
    return tr.Batch("del", {"q1": q[:-2], "q2": q[1:-1], "q3": q[2:]}, H), q


CUTS = {"in_order": lambda m: np.arange(m),
        "shuffled_subset": lambda m: np.random.default_rng(m)
        .permutation(m)[:m // 3],
        "one_tuple_twice": lambda m: np.array([4, 5, 9, 4])}


@pytest.mark.parametrize("cut", sorted(CUTS))
@pytest.mark.parametrize("n,conservative", [(n, cons) for n in (2, 3)
                                            for cons in (True, False)])
def test_fused_del_on_shared_pairs(n, conservative, cut):
    # trajectory cuts share pairs between tuples, which the residual stage
    # builds once; the point model builds each tuple's two pairs apart
    flat, _, _ = setup(n, conservative, 7)
    full, q = trajectory_batch(n, 60)
    batch = full.take(CUTS[cut](len(full)))
    alpha = tr.choose_alpha(flat, q)
    dirs = oracle.directions(flat.layout, np.random.default_rng(len(batch)))
    for mu in (0.01, 0.0):
        assert_loss(lambda t: oracle.loss(t, flat.layout, batch, mu, alpha),
                    flat.values, tr.del_loss_grad(flat, batch, mu, alpha),
                    dirs if mu == 0.0 else dirs[:4])


def test_del_builds_the_nets_once_per_distinct_pair(monkeypatch):
    # T points give T - 2 tuples on T - 1 distinct pairs; the barrier
    # build at q2 keeps one row per tuple.  Pairs are one only when
    # bit-identical: a repeated tuple shares both of its pairs, and a -0.0
    # in place of a 0.0 in q1 parts the first.  The mass block is wrapped
    # where the stages look it up, as the traced benchmark wraps force_t;
    # the residual reaches it only through the position block
    flat, _, alpha = setup(2, False, 7)
    T = 40
    batch, _ = trajectory_batch(2, T)
    rows = []
    block = tr.mass_t

    def counting(theta_v, layout, Q, jac, want_x):
        rows.append(len(Q))
        return block(theta_v, layout, Q, jac, want_x)

    monkeypatch.setattr(tr, "mass_t", counting)

    def mass_rows(batch):
        rows.clear()
        tr.del_loss_grad(flat, batch, 0.01, alpha)
        return list(rows)

    assert mass_rows(batch) == [T - 1, T - 2]
    one = batch.take([3])
    one.data["q1"][0, 0] = 0.0
    assert mass_rows(one.take([0, 0])) == [2, 2]
    twin = one.take([0, 0])
    twin.data["q1"][1, 0] = -0.0
    assert mass_rows(twin) == [3, 2]


@pytest.mark.parametrize("x_grad", [True, False])
@pytest.mark.parametrize("n,B", [(n, B) for n in (1, 2, 3) for B in (1, 7, 32)])
def test_potential_build_matches_the_point_model(n, B, x_grad):
    # ∇V and, for an adjoint G of ∇V, the reverse sweep's adjoints of θ
    # and X against complex steps of <G, ∇V> in θ and in X
    flat, _, _ = setup(n, True, B)
    theta, layout = flat.values, flat.layout
    _, s, _ = layout.slot("log_scales")
    theta[s + 1] = -0.2
    rng = np.random.default_rng([n, B, 5])
    Q = rng.normal(size=(B, n))
    dV, adjoint = netp.potential_grad_t(theta.reshape(1, -1), layout, Q,
                                        x_grad)
    # G takes ∇V's signs: along s_V the derivative is <G, ∇V> itself, a
    # sum that must not cancel far below its terms
    G = dV * rng.uniform(0.5, 1.5, size=(B, n))
    g_theta = np.zeros((1, layout.total))
    g_x = adjoint(G, g_theta)
    assert (g_x is None) != x_grad
    assert_close([dV], [oracle.potential(theta, layout, Q, True)[1]])
    assert_gradient(
        lambda t: np.sum(G * oracle.potential(t, layout, Q, True)[1]),
        theta, g_theta.ravel(), oracle.directions(layout, rng))
    if x_grad:
        assert_gradient(
            lambda X: np.sum(G * oracle.potential(theta, layout, X, True)[1]),
            Q, g_x, [rng.normal(size=Q.shape) for _ in range(4)])


@pytest.mark.parametrize("n,conservative,B", CASES)
def test_fused_values_are_bit_exact(n, conservative, B):
    # the pass mark is rounding (assert_close), not bit identity
    flat, b, alpha = setup(n, conservative, B)
    theta, layout = flat.values, flat.layout
    q, qd = b["accel"].data["q"], b["accel"].data["qdot"]
    assert_close([tr.predicted_accelerations(flat, q, qd)],
                 [oracle.accelerations(theta, layout, q, qd)])
    q2 = b["del"].data["q2"]
    assert_close(oracle.del_loss_terms(flat, b["del"], alpha),
                 (oracle.loss(theta, layout, b["del"]),
                  np.mean(oracle.log_dets(theta, layout, q2, alpha))))
    assert_close(oracle.nextstate_predictions(flat, b["nextstate"], H),
                 oracle.rk4_predictions(theta, layout, b["nextstate"]))
    M, _ = oracle.mass_matrix(theta, layout, q2)
    assert_close([tr.mass_eigenvalues(flat, q2)], [np.linalg.eigvalsh(M)])


@pytest.mark.parametrize("conservative,want", [
    (False, {"del": 9, "accel": 6, "nextstate": 4}),
    (True, {"del": 9, "accel": 6, "nextstate": 4})])
def test_loss_graphs_build_one_node_per_net(conservative, want):
    # n = 2: every loss is one node per numpy stage on theta, theta its
    # only parent, plus the loss arithmetic: the DEL loss's residual and
    # barrier stages, the acceleration stage, the RK4 residual over four
    # acceleration stages; no net build and no column slice is a node
    flat, b, alpha = setup(2, conservative, 7)
    got = {"del": tr._del_graph(flat, b["del"], 0.01, alpha)[0],
           "accel": tr._accel_graph(flat, b["accel"])[0],
           "nextstate": tr._nextstate_graph(flat, b["nextstate"], H)[0]}
    assert {k: len(tape.nodes) for k, tape in got.items()} == want
    ops = {node.op for tape in got.values() for node in tape.nodes}
    assert not ops & {"cols", "mass_net", "potential_net", "force_net"}
    stages = [node for tape in got.values() for node in tape.nodes
              if node.op in ("del_residual", "shifted_logdet", "accel",
                             "nextstate")]
    assert len(stages) == 4
    assert all(len(node.parents) == 1 and node.parents[0].op == "input"
               for node in stages)


@pytest.mark.parametrize("n,conservative,B",
                         [case for case in CASES if case[2] <= 32])
def test_predicted_accelerations_run_the_accel_node_without_a_tape(
        n, conservative, B, monkeypatch):
    # validation and evaluation read the accel loss's own forward, bit
    # for bit, and construct no tape
    flat, b, _ = setup(n, conservative, B)
    q, qd = b["accel"].data["q"], b["accel"].data["qdot"]
    tape = tr._accel_graph(flat, b["accel"])[0]
    want = next(node.value for node in tape.nodes if node.op == "accel")

    def no_tape(self):
        raise AssertionError("predicted_accelerations built a tape")

    monkeypatch.setattr(dc.Tape, "__init__", no_tape)
    assert np.array_equal(tr.predicted_accelerations(flat, q, qd), want)


def test_fused_barrier_raises_at_the_same_pivot():
    flat, b, _ = setup(3, True, 7)
    q2 = b["del"].data["q2"]
    eigs = tr.mass_eigenvalues(flat, q2)
    alpha = float(np.median(eigs))
    # the one-matrix order of the oracle's factor, on the library's M
    M = tr.mass_entries_t(flat, q2).transpose(2, 0, 1)
    with pytest.raises(mech.NotPositiveDefiniteError) as want:
        oracle.cholesky(M - alpha * np.eye(3))
    with pytest.raises(mech.NotPositiveDefiniteError) as got:
        oracle.barrier_grad(flat, q2, alpha)
    assert (got.value.pivot, got.value.value) \
        == (want.value.pivot, want.value.value)
    with pytest.raises(mech.NotPositiveDefiniteError):
        tr.del_loss_grad(flat, b["del"], 0.01, alpha)


def test_fused_solve_keeps_the_reciprocal_of_zero_check():
    # exp(s_M / 2) underflows to 0, so every Cholesky pivot is exactly 0
    flat, b, _ = setup(2, False, 7)
    _, s, _ = flat.layout.slot("log_scales")
    flat.values[s] = -3000.0
    q, qd = b["accel"].data["q"], b["accel"].data["qdot"]
    with pytest.raises(dc.DiffcoreError, match="reciprocal of zero"):
        tr.predicted_accelerations(flat, q, qd)
    with pytest.raises(dc.DiffcoreError, match="reciprocal of zero"):
        tr.accel_loss_grad(flat, b["accel"])


@pytest.mark.parametrize("which", [0, 1, 2])
def test_fused_builds_keep_the_exp_overflow_check(which):
    # a log-scale of 3000 overflows the mass, potential or force scale;
    # the check raises without numpy's overflow warning first
    flat, b, alpha = setup(2, False, 7)
    _, s, _ = flat.layout.slot("log_scales")
    flat.values[s + which] = 3000.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(dc.DiffcoreError, match="exp overflow"):
            tr.accel_loss_grad(flat, b["accel"])
        with pytest.raises(dc.DiffcoreError, match="exp overflow"):
            tr.del_loss_grad(flat, b["del"], 0.01, alpha)


def test_custom_node_adds_repeated_parents_in_list_order():
    tape = dc.Tape()
    x = tape.input([[1.0, 2.0]])
    parts = [np.array([[1e16, 0.0]]), np.array([[1.0, 0.0]]),
             np.array([[-1e16, 0.0]])]
    y = dc.custom([x, x, x], x.value * 3.0, lambda g: tuple(parts))
    (gx,) = tape.gradients(dc.sum_all(y), [x])
    # (1e16 + 1) - 1e16 rounds to 0; adding the large terms first gives 1
    assert gx[0, 0] == 0.0
    assert (parts[0] + parts[2] + parts[1])[0, 0] == 1.0
    assert y.requires_grad and y.op == "custom"
    with pytest.raises(ValueError):
        dc.custom([x, dc.Tape().input([[1.0]])], x.value, lambda g: (g, g))


def test_tapes_are_freed_by_reference_counting():
    flat, b, alpha = setup(2, False, 7)
    q, qd = b["accel"].data["q"], b["accel"].data["qdot"]
    q2 = b["del"].data["q2"]
    calls = [
        lambda: tr.del_loss_grad(flat, b["del"], 0.01, alpha),
        lambda: tr.accel_loss_grad(flat, b["accel"]),
        lambda: tr.nextstate_loss_grad(flat, b["nextstate"], H),
        lambda: tr.predicted_accelerations(flat, q, qd),
        lambda: oracle.barrier_grad(flat, q2, alpha),
        lambda: tr.mass_eigenvalues(flat, q2),
    ]
    gc.collect()
    gc.disable()
    try:
        for call in calls:
            call()
            assert gc.collect() == 0
    finally:
        gc.enable()
