"""Structured-model parameterization checks: PD construction, scale
closure, flat layout, builders against the numpy oracle, checkpoints."""

import numpy as np
import pytest

from smmfit import diffcore as dc
from smmfit import mechanics as mech
from smmfit import netparam as npar

import oracle


ARCH = npar.ArchConfig(n=2, hidden=(8, 8), conservative=True)
ARCH_F = npar.ArchConfig(n=2, hidden=(8, 8), conservative=False)


def zero_params(arch):
    layout = npar.ParamLayout(arch)
    return npar.FlatParams(np.zeros(layout.total), layout)


def rows(x):
    return np.atleast_2d(np.asarray(x, dtype=np.float64))


def theta(p):
    return p.values.reshape(1, -1)


def mass_batch(p, Q):
    """M(q) per row of Q from the library's value path, shape (B, n, n)."""
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    return npar.mass_entries_t(p, Q).transpose(2, 0, 1)


def potential_grad_batch(p, Q):
    """∇V(q) per row of Q from the library's potential build, (B, n)."""
    return npar.potential_grad_t(theta(p), p.layout, rows(Q), False)[0]


def force_batch(p, Q, Qd):
    X = np.concatenate([rows(Q), rows(Qd)], 1)
    return npar.force_t(theta(p), p.layout, X, False)[0]


# -- mass matrix --------------------------------------------------------------

def test_mass_matrix_zero_net_value():
    # softplus(0) = ln 2; diagonal of L is ln 2 + eps, M = L L^T
    p = zero_params(ARCH)
    M = mass_batch(p, [0.3, -0.8])[0]
    want = (np.log1p(np.exp(0.0)) + 1e-3) ** 2
    assert abs(want - 0.4818403082793213) < 1e-15
    assert np.allclose(M, np.diag([want, want]), atol=1e-15)


def test_mass_matrix_symmetric_pd_sweep():
    rng = np.random.default_rng(14)
    for seed in range(5):
        p = npar.init_params(seed, ARCH)
        M = mass_batch(p, rng.uniform(-2 * np.pi, 2 * np.pi, size=(200, 2)))
        assert np.abs(M - M.transpose(0, 2, 1)).max() <= 1e-14
        assert np.linalg.eigvalsh(M)[:, 0].min() > 0.0


def test_mass_matrix_init_eigenvalue_floor():
    rng = np.random.default_rng(15)
    p = npar.init_params(3, ARCH)
    M = mass_batch(p, rng.uniform(-np.pi, np.pi, size=(100, 2)))
    assert np.linalg.eigvalsh(M)[:, 0].min() >= npar.MASS_EPS ** 2


def test_mass_matrix_scale_doubles():
    p = npar.init_params(1, ARCH)
    p2 = oracle.scale_params(p, 2.0)
    Q = np.random.default_rng(16).uniform(-np.pi, np.pi, size=(20, 2))
    assert np.allclose(mass_batch(p2, Q), 2.0 * mass_batch(p, Q), rtol=1e-12)


# -- potential and force ------------------------------------------------------

def test_potential_zero_net_bias():
    # V = 4.25 everywhere: the bias moves V, not its gradient
    p = zero_params(ARCH)
    oracle.last_bias(p, "potential")[:] = 4.25
    assert np.abs(potential_grad_batch(p, [0.1, 0.2])).max() < 1e-15


def test_potential_log_scale():
    p = npar.init_params(2, ARCH)
    p3 = oracle.scale_params(p, 3.0)
    Q = np.random.default_rng(17).uniform(-np.pi, np.pi, size=(100, 2))
    assert np.allclose(potential_grad_batch(p3, Q),
                       3.0 * potential_grad_batch(p, Q), rtol=1e-12)


def test_force_conservative_contract():
    p = npar.init_params(0, ARCH)
    with pytest.raises(npar.ConservativeForceError):
        force_batch(p, [0.0, 0.0], [1.0, 0.0])


def test_force_zero_net_bias_and_scale():
    p = zero_params(ARCH_F)
    oracle.last_bias(p, "force")[:] = [0.5, -1.5]
    assert np.allclose(force_batch(p, [0.1, 0.2], [0.3, 0.4]), [[0.5, -1.5]],
                       atol=1e-15)
    p = npar.init_params(4, ARCH_F)
    p3 = oracle.scale_params(p, 3.0)
    rng = np.random.default_rng(18)
    Q = rng.uniform(-1, 1, size=(20, 2))
    Qd = rng.uniform(-2, 2, size=(20, 2))
    assert np.allclose(force_batch(p3, Q, Qd), 3.0 * force_batch(p, Q, Qd),
                       rtol=1e-12)


def test_scale_params_identity_and_domain():
    p = npar.init_params(5, ARCH)
    p1 = oracle.scale_params(p, 1.0)
    q = np.array([0.4, -0.9])
    assert np.array_equal(potential_grad_batch(p1, q),
                          potential_grad_batch(p, q))
    assert np.array_equal(mass_batch(p1, q), mass_batch(p, q))
    with pytest.raises(ValueError):
        oracle.scale_params(p, 0.0)
    with pytest.raises(ValueError):
        oracle.scale_params(p, -2.0)


# -- init and flat layout -----------------------------------------------------

def test_init_params_seed_repeatable():
    a = npar.init_params(7, ARCH_F)
    b = npar.init_params(7, ARCH_F)
    assert np.array_equal(a.values, b.values)
    c = npar.init_params(8, ARCH_F)
    assert not np.array_equal(a.values, c.values)
    assert np.all(oracle.slot(a, "log_scales") == 0.0)


def test_init_params_draws_slots_in_layout_order():
    # net by net, layer by layer, W then b, each U(±1/√fan_in): the draw
    # order every checkpoint's bytes depend on
    for arch in (ARCH, ARCH_F, npar.ArchConfig(n=3, hidden=(5, 7, 3))):
        gen = np.random.default_rng(9)
        want = []
        for net in arch.nets:
            din, dout = arch.net_dims(net)
            widths = [din, *arch.hidden, dout]
            for a, b in zip(widths[:-1], widths[1:]):
                bound = 1.0 / np.sqrt(a)
                want += [gen.uniform(-bound, bound, size=(a, b)).ravel(),
                         gen.uniform(-bound, bound, size=b)]
        want.append(np.zeros(2 if arch.conservative else 3))
        assert np.array_equal(npar.init_params(9, arch).values,
                              np.concatenate(want))


def test_flat_perturbation_touches_one_weight():
    layout = npar.ParamLayout(ARCH)
    # the slots tile the vector in order, each as large as its shape
    ends = 0
    for _, shape, s, e in layout.slots:
        assert s == ends and e - s == shape[0] * shape[1]
        ends = e
    assert ends == layout.total
    p = npar.init_params(10, ARCH)
    rng = np.random.default_rng(19)
    for idx in rng.integers(0, layout.total, size=10):
        p2 = npar.FlatParams(p.values.copy(), layout)
        p2.values[idx] += 1.0
        # the slot views changed in exactly one array entry
        changed = sum(np.count_nonzero(oracle.slot(p, key)
                                       != oracle.slot(p2, key))
                      for key, *_ in layout.slots)
        assert changed == 1


def test_flat_params_validation():
    layout = npar.ParamLayout(ARCH)
    with pytest.raises(ValueError):
        npar.FlatParams(np.zeros(layout.total + 1), layout)


# -- tape builders against the numpy oracle ----------------------------------

def test_tape_potential_matches_numpy():
    for arch in (ARCH, ARCH_F):
        p = npar.init_params(11, arch)
        Q = np.random.default_rng(20).uniform(-np.pi, np.pi, size=(32, 2))
        want = oracle.potential(p.values, p.layout, Q, True)[1]
        assert np.abs(potential_grad_batch(p, Q) - want).max() <= 1e-12


def test_tape_mass_entries_match_numpy():
    p = npar.init_params(12, ARCH)
    Q = np.random.default_rng(21).uniform(-np.pi, np.pi, size=(32, 2))
    M, _ = oracle.mass_matrix(p.values, p.layout, Q)
    assert np.abs(mass_batch(p, Q) - M).max() <= 1e-12


def test_tape_directions_match_reverse_mode():
    # the mass block's forward-mode dM/dq_k (the Gram of its factor's
    # directions) and the potential build's fused reverse sweep for
    # dV/dq_k, against the point model's forward-mode derivatives
    p = npar.init_params(16, ARCH)
    Q = np.random.default_rng(25).uniform(-np.pi, np.pi, size=(6, 2))
    (_, dM), _ = npar.mass_t(theta(p), p.layout, Q, True, False)
    dM = dM.transpose(3, 0, 1, 2)
    want_M = oracle.mass_matrix(p.values, p.layout, Q, True)[1]
    want_V = oracle.potential(p.values, p.layout, Q, True)[1]
    assert np.abs(potential_grad_batch(p, Q) - want_V).max() <= 1e-12
    assert np.abs(dM - want_M).max() <= 1e-12


def test_tape_builders_without_directions_build_values_only(monkeypatch):
    # each net build is numpy values and makes no tape node: without its
    # Jacobian the mass block's ∂M is empty and its factor is the jac
    # build's, bit for bit; the potential build holds ∇V
    def no_node(*args, **kwargs):
        raise AssertionError("a net build made a tape node")

    monkeypatch.setattr(dc, "custom", no_node)
    monkeypatch.setattr(dc.Tape, "__init__", no_node)
    p = npar.init_params(17, ARCH)
    X = np.random.default_rng(27).uniform(-2, 2, size=(3, 2))
    (L, dM), _ = npar.mass_t(theta(p), p.layout, X, False, False)
    dV = potential_grad_batch(p, X)
    assert L.shape == (2, 2, 3) and dM.shape == (0, 2, 2, 3)
    assert dV.shape == (3, 2)
    (L2, dM2), _ = npar.mass_t(theta(p), p.layout, X, True, False)
    assert dM2.shape == (2, 2, 2, 3)
    assert np.array_equal(L2, L)


def test_tape_force_matches_numpy():
    p = npar.init_params(13, ARCH_F)
    rng = np.random.default_rng(22)
    Q = rng.uniform(-np.pi, np.pi, size=(16, 2))
    Qd = rng.uniform(-2, 2, size=(16, 2))
    want = oracle.force(p.values, p.layout, Q, Qd)
    assert np.abs(force_batch(p, Q, Qd) - want).max() <= 1e-12


def test_chol_solve_t_matches_dense_solve():
    # x = M⁻¹ b, and the adjoint of x gives gb = M⁻¹ g and gM = -gb xᵀ
    p = npar.init_params(14, ARCH)
    rng = np.random.default_rng(23)
    Q = rng.uniform(-np.pi, np.pi, size=(8, 2))
    B, G = rng.uniform(-1, 1, size=(2, 8, 2))
    (L, _), _ = npar.mass_t(theta(p), p.layout, Q, False, False)
    xs, adjoint = npar.chol_solve_t(L, B.T)
    gM, gb = adjoint(G.T)
    for b, M in enumerate(oracle.mass_matrix(p.values, p.layout, Q)[0]):
        want = np.linalg.solve(M, B[b])
        assert np.abs(xs[:, b] - want).max() <= 1e-10
        g = np.linalg.solve(M, G[b])
        assert np.abs(gb[:, b] - g).max() <= 1e-10
        assert np.abs(gM[:, :, b] + np.outer(g, want)).max() <= 1e-10


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("with_M,with_dM", [(True, True), (True, False),
                                            (False, True)])
def test_gram_bwd_is_the_adjoint_of_gram(n, with_M, with_dM):
    # <_gram_bwd(L, dL, gM, gdM), (δL, δdL)> = <(gM, gdM), δgram>; gram is
    # bilinear in (L, dL), so the central difference is exact to rounding
    rng = np.random.default_rng([n, with_M, with_dM])
    D, B, T = n, 5, n * (n + 1) // 2

    def draw_factor():
        return npar._factor(rng.normal(size=(B, T * (1 + D))), n)

    L, dL = draw_factor()
    eL, edL = draw_factor()
    gM = rng.normal(size=(n, n, B)) if with_M else None
    gdM = rng.normal(size=(D, n, n, B)) if with_dM else None
    gL, gdL = npar._gram_bwd(L, dL, gM, gdM)
    lhs = np.sum(npar._packed(gL, gdL) * npar._packed(eL, edL))

    def pairing(t):
        Lt, dLt = L + t * eL, dL + t * edL
        return (np.sum(gM * npar.gram(Lt)) if with_M else 0.0) \
            + (np.sum(gdM * npar._dgram(Lt, dLt)) if with_dM else 0.0)

    rhs = pairing(0.5) - pairing(-0.5)
    assert abs(lhs - rhs) <= 1e-12 * (abs(lhs) + abs(rhs))


@pytest.mark.parametrize("n,D", [(1, 0), (1, 1), (2, 2), (3, 0), (3, 3)])
def test_packed_inverts_factor(n, D):
    T = n * (n + 1) // 2
    P = np.random.default_rng([n, D]).normal(size=(4, T * (1 + D)))
    L, dL = npar._factor(P, n)
    assert L.shape == (n, n, 4) and dL.shape == (D, n, n, 4)
    assert np.all(np.triu(L.transpose(2, 0, 1), 1) == 0.0)
    assert np.array_equal(npar._packed(L, dL), P)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_gram_without_directions_gives_the_general_m(n):
    # M and its derivatives are apart: `gram` forms M = L Lᵀ alone, and
    # `_dgram` of no directions is empty
    T = n * (n + 1) // 2
    L, dL = npar._factor(np.random.default_rng(n).normal(size=(5, 2 * T)), n)
    M = npar.gram(L)
    want = np.einsum("ikb,jkb->ijb", L, L)
    np.testing.assert_allclose(M, want, rtol=1e-15, atol=1e-15)
    assert npar._dgram(L, dL[:0]).shape == (0, n, n, 5)
    C = np.einsum("ikb,jkb->ijb", dL[0], L)
    np.testing.assert_allclose(npar._dgram(L, dL)[0], C + C.transpose(1, 0, 2),
                               rtol=1e-14, atol=1e-14)


# -- the oracle's SmmSystem adapter ------------------------------------------

def test_smm_system_derivative_hooks_match_fd():
    p = npar.init_params(15, ARCH)
    sys = oracle.SmmSystem(p)
    rng = np.random.default_rng(24)
    for _ in range(5):
        q = rng.uniform(-np.pi, np.pi, size=2)
        gV = sys.potential_gradient(q)
        gV_fd = oracle.fd(sys.potential, q)
        assert np.allclose(gV, gV_fd, rtol=1e-5, atol=1e-7)
        dM = sys.mass_jacobian(q)
        dM_fd = oracle.fd(sys.mass_matrix, q)
        assert np.allclose(dM, dM_fd, rtol=1e-5, atol=1e-7)


def test_smm_system_del_residual_gamma_squared():
    rng = np.random.default_rng(25)
    for arch in (ARCH, ARCH_F):
        p = npar.init_params(16, arch)
        for gamma in (3.0, 10.0):
            a = oracle.SmmSystem(p)
            b = oracle.SmmSystem(oracle.scale_params(p, gamma))
            for _ in range(5):
                t = mech.ConfigTriple(rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2),
                                      rng.uniform(-1, 1, 2), 0.05)
                assert np.isclose(oracle.del_residual(b, t),
                                  gamma ** 2 * oracle.del_residual(a, t),
                                  rtol=1e-9)


def test_smm_system_acceleration_scale_invariant():
    # accelerations do not change under joint scaling of M, V, F
    p = npar.init_params(17, ARCH_F)
    a = oracle.Rows(oracle.SmmSystem(p))
    b = oracle.Rows(oracle.SmmSystem(oracle.scale_params(p, 25.0)))
    rng = np.random.default_rng(26)
    q = rng.uniform(-1, 1, size=(5, 2))
    qd = rng.uniform(-1, 1, size=(5, 2))
    assert np.allclose(mech.acceleration(a, q, qd),
                       mech.acceleration(b, q, qd), rtol=1e-9, atol=1e-11)


# -- checkpoint files ---------------------------------------------------------

def test_checkpoint_roundtrip_bitwise(tmp_path):
    for arch in (ARCH, ARCH_F):
        p = npar.init_params(18, arch)
        path = tmp_path / f"ckpt_{arch.conservative}.json"
        npar.save_params(p, path, seed=18)
        back, seed = npar.load_params(path)
        assert np.array_equal(back.values, p.values)
        assert seed == 18
        assert back.layout.arch == arch


def test_checkpoint_layout_mismatch_rejected(tmp_path):
    import json
    p = npar.init_params(19, ARCH)
    path = tmp_path / "ckpt.json"
    npar.save_params(p, path)
    blob = json.loads(path.read_text())
    blob["layout"][0]["shape"] = [3, 3]
    path.write_text(json.dumps(blob))
    with pytest.raises(ValueError):
        npar.load_params(path)


@pytest.mark.parametrize("field,value",
                         [("eps", 0.01), ("activation", "relu")])
def test_checkpoint_with_another_eps_or_activation_rejected(tmp_path, field,
                                                            value):
    # ε and tanh are fixed: a file that records other values describes a
    # model this library does not build, so it is refused, naming the file
    import json
    path = tmp_path / "ckpt.json"
    npar.save_params(npar.init_params(20, ARCH), path)
    blob = json.loads(path.read_text())
    assert (blob["arch"]["activation"], blob["arch"]["eps"]) == ("tanh", 0.001)
    blob["arch"][field] = value
    path.write_text(json.dumps(blob))
    with pytest.raises(ValueError, match=f"^{path}: not a checkpoint"):
        npar.load_params(path)
