"""The fused SMM nodes and net builds against the per-node graph, an
independent reverse-mode path, to rounding; the node count of each loss
graph; and the tape's reference-counting contract."""

import gc
import warnings

import numpy as np
import pytest

import column_graph as col
import oracle
from smmfit import diffcore as dc
from smmfit import mechanics as mech
from smmfit import netparam as netp
from smmfit import training as tr

H = 0.05


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
    # the fused nodes add in their own order: equal up to rounding
    for g, w in zip(got, want):
        w = np.asarray(w)
        np.testing.assert_allclose(g, w, rtol=1e-12,
                                   atol=1e-12 * np.abs(w).max())


CASES = [(n, cons, B) for n in (1, 2, 3) for cons in (True, False)
         for B in (1, 7, 32, 196)]


@pytest.mark.parametrize("n,conservative,B", CASES)
def test_fused_losses_and_gradients_are_bit_exact(n, conservative, B):
    # the pass mark is rounding (assert_close), not bit identity
    flat, b, alpha = setup(n, conservative, B)
    for mu in (0.01, 0.0):
        assert_close(tr.del_loss_grad(flat, b["del"], mu, alpha),
                     col.loss_grad(col.del_graph(flat, b["del"], mu, alpha,
                                                 with_barrier=mu != 0.0)))
    assert_close(tr.accel_loss_grad(flat, b["accel"]),
                 col.loss_grad(col.accel_graph(flat, b["accel"])))
    assert_close(tr.nextstate_loss_grad(flat, b["nextstate"], H),
                 col.loss_grad(col.nextstate_graph(flat, b["nextstate"], H)))


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
    # trajectory cuts share pairs between tuples, which the graph builds
    # once; the per-node graph builds each tuple's two pairs apart
    flat, _, _ = setup(n, conservative, 7)
    full, q = trajectory_batch(n, 60)
    batch = full.take(CUTS[cut](len(full)))
    alpha = tr.choose_alpha(flat, q)
    for mu in (0.01, 0.0):
        assert_close(tr.del_loss_grad(flat, batch, mu, alpha),
                     col.loss_grad(col.del_graph(flat, batch, mu, alpha,
                                                 with_barrier=mu != 0.0)))


def test_del_builds_the_nets_once_per_distinct_pair(monkeypatch):
    # T points give T - 2 tuples on T - 1 distinct pairs; the barrier
    # build at q2 keeps one row per tuple.  Pairs are one only when
    # bit-identical: a repeated tuple shares both of its pairs, and a -0.0
    # in place of a 0.0 in q1 parts the first.  The mass block is wrapped
    # where the stages look it up, as the traced benchmark wraps force_t
    flat, _, alpha = setup(2, False, 7)
    T = 40
    batch, _ = trajectory_batch(2, T)
    rows = []
    block = tr.chol_entries_t

    def counting(theta_v, layout, Q, jac, want_x):
        rows.append(len(Q))
        return block(theta_v, layout, Q, jac, want_x)

    monkeypatch.setattr(tr, "chol_entries_t", counting)

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
def test_potential_build_matches_the_per_node_graph(n, B, x_grad):
    # ∇V and the adjoints of θ and X for a random adjoint G of ∇V: the
    # fused build's reverse sweep against the per-node graph's
    # forward-mode derivatives along the coordinate axes
    flat, _, _ = setup(n, True, B)
    _, s, _ = flat.layout.slot("log_scales")
    flat.values[s + 1] = -0.2
    rng = np.random.default_rng([n, B, 5])
    Q, G = rng.normal(size=(B, n)), rng.normal(size=(B, n))
    dV, adjoint = netp.potential_grad_t(flat.values.reshape(1, -1),
                                        flat.layout, Q, x_grad)
    g_theta = np.zeros((1, flat.layout.total))
    g_x = adjoint(G, g_theta)
    assert (g_x is None) != x_grad
    tape = dc.Tape()
    theta = tape.input(flat.values.reshape(1, -1))
    X = tape.input(Q) if x_grad else tape.constant(Q)
    dirs = [tape.constant(np.eye(n)[k:k + 1]) for k in range(n)]
    want = col.concat_cols(col.potential_t(theta, flat.layout, X, dirs)[1])
    pairing = dc.custom([want], np.array([[np.sum(want.value * G)]]),
                        lambda g: (g * G,))
    want_theta, want_x = tape.gradients(pairing, [theta, X])
    assert_close([dV, g_theta], [want.value, want_theta])
    if x_grad:
        assert_close([g_x], [want_x])


@pytest.mark.parametrize("n,conservative,B", CASES)
def test_fused_values_are_bit_exact(n, conservative, B):
    # the pass mark is rounding (assert_close), not bit identity
    flat, b, alpha = setup(n, conservative, B)
    q, qd = b["accel"].data["q"], b["accel"].data["qdot"]
    assert_close([tr.predicted_accelerations(flat, q, qd)],
                 [col.predicted_accelerations(flat, q, qd)])
    q2 = b["del"].data["q2"]
    for shift in (alpha, 0.0):
        assert_close([oracle.barrier_grad(flat, q2, shift)],
                     [col.barrier_grad(flat, q2, shift)])
    _, _, _, rho, ld = col.del_graph(flat, b["del"], 1.0, alpha)
    assert_close(oracle.del_loss_terms(flat, b["del"], alpha),
                 (rho.value.item(), ld.value.item()))
    _, _, _, (Qp, Vp) = col.nextstate_graph(flat, b["nextstate"], H)
    assert_close(oracle.nextstate_predictions(flat, b["nextstate"], H),
                 (Qp.value, Vp.value))
    tape = dc.Tape()
    M, _, _ = col.mass_entries_t(tape.constant(flat.values.reshape(1, -1)),
                                 flat.layout, tape.constant(q2))
    M = np.stack([np.hstack([M[i, j].value for j in range(n)])
                  for i in range(n)], axis=1)
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
    with pytest.raises(mech.NotPositiveDefiniteError) as want:
        col.barrier_grad(flat, q2, alpha)
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
        col.predicted_accelerations(flat, q, qd)
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
        lambda: oracle.grad(lambda x: dc.sumsq(col.tanh(x)), [0.5, -1.0]),
        lambda: oracle.jacobian(lambda x: col.sigmoid(col.exp(x)),
                                [0.5, -1.0]),
    ]
    gc.collect()
    gc.disable()
    try:
        for call in calls:
            call()
            assert gc.collect() == 0
    finally:
        gc.enable()
