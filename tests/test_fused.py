"""The fused SMM nodes against the per-entry column graph, bit for bit,
plus the tape's reference-counting contract."""

import gc

import numpy as np
import pytest

import column_graph as col
from smmfit import diffcore as dc
from smmfit import netparam as netp
from smmfit import training as tr

H = 0.05


def setup(n, conservative, B, seed=0):
    arch = netp.ArchConfig(n=n, hidden=(16, 16) if n == 2 else (8, 8),
                           conservative=conservative)
    params = netp.init_params(seed, arch)
    params.log_scales[0] = 0.3
    if not conservative:
        params.log_scales[2] = 0.4
    flat = netp.flatten_params(params)
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


def assert_same(got, want):
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


CASES = [(n, cons, B) for n in (2, 3) for cons in (True, False)
         for B in (1, 7, 32)]


@pytest.mark.parametrize("n,conservative,B", CASES)
def test_fused_losses_and_gradients_are_bit_exact(n, conservative, B):
    flat, b, alpha = setup(n, conservative, B)
    for mu in (0.01, 0.0):
        assert_same(tr.del_loss_grad(flat, b["del"], mu, alpha),
                    col.loss_grad(col.del_graph(flat, b["del"], mu, alpha,
                                                with_barrier=mu != 0.0)))
    assert_same(tr.accel_loss_grad(flat, b["accel"]),
                col.loss_grad(col.accel_graph(flat, b["accel"])))
    assert_same(tr.nextstate_loss_grad(flat, b["nextstate"], H),
                col.loss_grad(col.nextstate_graph(flat, b["nextstate"], H)))


@pytest.mark.parametrize("n,conservative,B", CASES)
def test_fused_values_are_bit_exact(n, conservative, B):
    flat, b, alpha = setup(n, conservative, B)
    q, qd = b["accel"].data["q"], b["accel"].data["qdot"]
    assert np.array_equal(tr.predicted_accelerations(flat, q, qd),
                          col.predicted_accelerations(flat, q, qd))
    q2 = b["del"].data["q2"]
    for shift in (alpha, 0.0):
        assert np.array_equal(tr.barrier_grad(flat, q2, shift),
                              col.barrier_grad(flat, q2, shift))
    _, _, _, rho, ld = col.del_graph(flat, b["del"], 1.0, alpha)
    assert tr.del_loss_terms(flat, b["del"], alpha) \
        == (rho.value.item(), ld.value.item())
    _, _, _, (Qp, Vp) = col.nextstate_graph(flat, b["nextstate"], H)
    assert_same(tr.nextstate_predictions(flat, b["nextstate"], H),
                (Qp.value, Vp.value))


def test_fused_barrier_raises_at_the_same_pivot():
    flat, b, _ = setup(3, True, 7)
    q2 = b["del"].data["q2"]
    eigs = tr.mass_eigenvalues(flat, q2)
    alpha = float(np.median(eigs))
    with pytest.raises(tr.BarrierViolationError) as want:
        col.barrier_grad(flat, q2, alpha)
    with pytest.raises(tr.BarrierViolationError) as got:
        tr.barrier_grad(flat, q2, alpha)
    assert (got.value.pivot, got.value.value) \
        == (want.value.pivot, want.value.value)
    with pytest.raises(tr.BarrierViolationError):
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


def test_custom_node_adds_repeated_parents_in_list_order():
    tape = dc.Tape()
    x = tape.input([[1.0, 2.0]])
    parts = [np.array([[1e16, 0.0]]), np.array([[1.0, 0.0]]),
             np.array([[-1e16, 0.0]])]
    y = dc.custom([x, x, x], x.value * 3.0, lambda g: tuple(parts))
    (gx,) = tape.gradients(dc.sum_all(y), [x])
    # (1e16 + 1) - 1e16 rounds to 0; adding the large terms first gives 1
    assert gx.value[0, 0] == 0.0
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
        lambda: tr.barrier_grad(flat, q2, alpha),
        lambda: tr.mass_eigenvalues(flat, q2),
        lambda: dc.grad(lambda x: dc.sumsq(dc.tanh(x)), [0.5, -1.0]),
        lambda: dc.jacobian(lambda x: dc.sigmoid(dc.exp(x)), [0.5, -1.0]),
    ]
    gc.collect()
    gc.disable()
    try:
        for call in calls:
            call()
            assert gc.collect() == 0
    finally:
        gc.enable()
