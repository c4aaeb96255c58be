"""Structured-model parameterization checks: PD construction, scale
closure, flat layout, duplicate-forward agreement, checkpoints."""

import numpy as np
import pytest

from smmfit import diffcore as dc
from smmfit import mechanics as mech
from smmfit import netparam as npar


ARCH = npar.ArchConfig(n=2, hidden=(8, 8), conservative=True)
ARCH_F = npar.ArchConfig(n=2, hidden=(8, 8), conservative=False)


def zero_params(arch):
    p = npar.init_params(0, arch)
    for net in (p.mass_net, p.potential_net, p.force_net):
        if net is None:
            continue
        for W in net.weights:
            W[:] = 0.0
        for b in net.biases:
            b[:] = 0.0
    return p


# -- mass_matrix --------------------------------------------------------------

def test_mass_matrix_zero_net_value():
    # softplus(0) = ln 2; diagonal of L is ln 2 + eps, M = L L^T
    p = zero_params(ARCH)
    M = npar.mass_matrix(p, [0.3, -0.8])
    want = (np.log1p(np.exp(0.0)) + 1e-3) ** 2
    assert abs(want - 0.4818403082793213) < 1e-15
    assert np.allclose(M, np.diag([want, want]), atol=1e-15)


def test_mass_matrix_symmetric_pd_sweep():
    rng = np.random.default_rng(14)
    for seed in range(5):
        p = npar.init_params(seed, ARCH)
        for _ in range(200):
            q = rng.uniform(-2 * np.pi, 2 * np.pi, size=2)
            M = npar.mass_matrix(p, q)
            assert np.abs(M - M.T).max() <= 1e-14
            assert np.linalg.eigvalsh(M)[0] > 0.0


def test_mass_matrix_init_eigenvalue_floor():
    rng = np.random.default_rng(15)
    p = npar.init_params(3, ARCH)
    for _ in range(100):
        q = rng.uniform(-np.pi, np.pi, size=2)
        assert np.linalg.eigvalsh(npar.mass_matrix(p, q))[0] >= ARCH.eps ** 2


def test_mass_matrix_scale_doubles():
    p = npar.init_params(1, ARCH)
    p2 = npar.scale_params(p, 2.0)
    rng = np.random.default_rng(16)
    for _ in range(20):
        q = rng.uniform(-np.pi, np.pi, size=2)
        assert np.allclose(npar.mass_matrix(p2, q), 2.0 * npar.mass_matrix(p, q),
                           rtol=1e-12)


# -- potential and force ------------------------------------------------------

def test_potential_zero_net_bias():
    p = zero_params(ARCH)
    p.potential_net.biases[-1][:] = 4.25
    assert abs(npar.potential(p, [0.1, 0.2]) - 4.25) < 1e-15


def test_potential_log_scale():
    p = npar.init_params(2, ARCH)
    p3 = npar.scale_params(p, 3.0)
    rng = np.random.default_rng(17)
    for _ in range(100):
        q = rng.uniform(-np.pi, np.pi, size=2)
        assert np.isclose(npar.potential(p3, q), 3.0 * npar.potential(p, q),
                          rtol=1e-12)


def test_force_conservative_contract():
    p = npar.init_params(0, ARCH)
    with pytest.raises(npar.ConservativeForceError):
        npar.force(p, [0.0, 0.0], [1.0, 0.0])


def test_force_zero_net_bias_and_scale():
    p = zero_params(ARCH_F)
    p.force_net.biases[-1][:] = [0.5, -1.5]
    assert np.allclose(npar.force(p, [0.1, 0.2], [0.3, 0.4]), [0.5, -1.5],
                       atol=1e-15)
    p = npar.init_params(4, ARCH_F)
    p3 = npar.scale_params(p, 3.0)
    rng = np.random.default_rng(18)
    for _ in range(20):
        q = rng.uniform(-1, 1, size=2)
        qd = rng.uniform(-2, 2, size=2)
        assert np.allclose(npar.force(p3, q, qd), 3.0 * npar.force(p, q, qd),
                           rtol=1e-12)


def test_scale_params_identity_and_domain():
    p = npar.init_params(5, ARCH)
    p1 = npar.scale_params(p, 1.0)
    q = np.array([0.4, -0.9])
    assert npar.potential(p1, q) == npar.potential(p, q)
    assert np.array_equal(npar.mass_matrix(p1, q), npar.mass_matrix(p, q))
    with pytest.raises(ValueError):
        npar.scale_params(p, 0.0)
    with pytest.raises(ValueError):
        npar.scale_params(p, -2.0)


# -- init and flat layout -----------------------------------------------------

def test_init_params_seed_repeatable():
    a = npar.init_params(7, ARCH_F)
    b = npar.init_params(7, ARCH_F)
    layout = npar.ParamLayout(ARCH_F)
    assert np.array_equal(layout.flatten(a), layout.flatten(b))
    c = npar.init_params(8, ARCH_F)
    assert not np.array_equal(layout.flatten(a), layout.flatten(c))
    assert np.all(a.log_scales == 0.0)


def test_flatten_roundtrip_bitwise():
    for arch in (ARCH, ARCH_F):
        p = npar.init_params(9, arch)
        layout = npar.ParamLayout(arch)
        vec = layout.flatten(p)
        back = layout.flatten(layout.unflatten(vec))
        assert np.array_equal(vec, back)


def test_flat_perturbation_touches_one_weight():
    layout = npar.ParamLayout(ARCH)
    p = npar.init_params(10, ARCH)
    vec = layout.flatten(p)
    rng = np.random.default_rng(19)
    for idx in rng.integers(0, layout.total, size=10):
        v2 = vec.copy()
        v2[idx] += 1.0
        q2 = layout.unflatten(v2)
        diff = np.abs(layout.flatten(q2) - vec)
        assert np.count_nonzero(diff) == 1
        # and the structured view changed in exactly one array entry
        changed = 0
        for a, b in [(p.mass_net.weights, q2.mass_net.weights),
                     (p.mass_net.biases, q2.mass_net.biases),
                     (p.potential_net.weights, q2.potential_net.weights),
                     (p.potential_net.biases, q2.potential_net.biases),
                     ([p.log_scales], [q2.log_scales])]:
            for x, y in zip(a, b):
                changed += np.count_nonzero(np.asarray(x) != np.asarray(y))
        assert changed == 1


def test_flat_params_validation():
    layout = npar.ParamLayout(ARCH)
    with pytest.raises(ValueError):
        npar.FlatParams(np.zeros(layout.total + 1), layout)


# -- duplicate-forward oracle: tape builders vs numpy path --------------------

def test_tape_potential_matches_numpy():
    for arch in (ARCH, ARCH_F):
        p = npar.init_params(11, arch)
        layout = npar.ParamLayout(arch)
        theta = layout.flatten(p)
        rng = np.random.default_rng(20)
        Q = rng.uniform(-np.pi, np.pi, size=(32, 2))
        tape = dc.Tape()
        tt = tape.input(theta.reshape(1, -1))
        out, _ = npar.potential_t(tt, layout, tape.constant(Q))
        want = np.array([npar.potential(p, q) for q in Q])
        assert np.abs(out.value.ravel() - want).max() <= 1e-12


def test_tape_mass_entries_match_numpy():
    p = npar.init_params(12, ARCH)
    layout = npar.ParamLayout(ARCH)
    theta = layout.flatten(p)
    rng = np.random.default_rng(21)
    Q = rng.uniform(-np.pi, np.pi, size=(32, 2))
    tape = dc.Tape()
    tt = tape.input(theta.reshape(1, -1))
    ent, _, _ = npar.mass_entries_t(tt, layout, tape.constant(Q))
    for b, q in enumerate(Q):
        M = npar.mass_matrix(p, q)
        for i in range(2):
            for j in range(2):
                assert abs(ent[(i, j)].value[b, 0] - M[i, j]) <= 1e-12


def test_tape_directions_match_reverse_mode():
    # forward-mode dM/dq_k and dV/dq_k against SmmSystem's reverse sweeps
    p = npar.init_params(16, ARCH)
    layout = npar.ParamLayout(ARCH)
    sys = npar.SmmSystem(p)
    Q = np.random.default_rng(25).uniform(-np.pi, np.pi, size=(6, 2))
    tape = dc.Tape()
    tt = tape.constant(layout.flatten(p).reshape(1, -1))
    dirs = [tape.constant(np.eye(2)[k:k + 1]) for k in range(2)]
    _, dM, _ = npar.mass_entries_t(tt, layout, tape.constant(Q), dirs)
    _, dV = npar.potential_t(tt, layout, tape.constant(Q), dirs)
    for b, q in enumerate(Q):
        want_M, want_V = sys.mass_jacobian(q), sys.potential_gradient(q)
        for k in range(2):
            assert abs(dV[k].value[b, 0] - want_V[k]) <= 1e-12
            for i in range(2):
                for j in range(2):
                    assert abs(dM[k][(i, j)].value[b, 0]
                               - want_M[k, i, j]) <= 1e-12


def test_tape_builders_without_directions_build_values_only():
    layout = npar.ParamLayout(ARCH)
    tape = dc.Tape()
    theta = layout.flatten(npar.init_params(17, ARCH))
    tt = tape.constant(theta.reshape(1, -1))
    M, dM, _ = npar.mass_entries_t(tt, layout, tape.constant(np.zeros((3, 2))))
    V, dV = npar.potential_t(tt, layout, tape.constant(np.zeros((3, 2))))
    assert dM == [] and dV == [] and M[(0, 1)] is M[(1, 0)]
    # no tanh' chain and no softplus' gate when no direction asks for them
    assert not {"sigmoid", "neg"} & {node.op for node in tape.nodes}


def test_tape_force_matches_numpy():
    p = npar.init_params(13, ARCH_F)
    layout = npar.ParamLayout(ARCH_F)
    theta = layout.flatten(p)
    rng = np.random.default_rng(22)
    Q = rng.uniform(-np.pi, np.pi, size=(16, 2))
    Qd = rng.uniform(-2, 2, size=(16, 2))
    tape = dc.Tape()
    tt = tape.input(theta.reshape(1, -1))
    out = npar.force_t(tt, layout, tape.constant(Q), tape.constant(Qd))
    want = np.array([npar.force(p, q, qd) for q, qd in zip(Q, Qd)])
    assert np.abs(out.value - want).max() <= 1e-12


def test_chol_solve_t_matches_dense_solve():
    p = npar.init_params(14, ARCH)
    layout = npar.ParamLayout(ARCH)
    theta = layout.flatten(p)
    rng = np.random.default_rng(23)
    Q = rng.uniform(-np.pi, np.pi, size=(8, 2))
    B = rng.uniform(-1, 1, size=(8, 2))
    tape = dc.Tape()
    tt = tape.input(theta.reshape(1, -1))
    L, _ = npar.chol_entries_t(tt, layout, tape.constant(Q))
    xs = npar.chol_solve_t(L, tape.constant(B))
    for b, q in enumerate(Q):
        want = np.linalg.solve(npar.mass_matrix(p, q), B[b])
        assert np.abs(xs.value[b] - want).max() <= 1e-10


# -- SmmSystem adapter --------------------------------------------------------

def test_smm_system_derivative_hooks_match_fd():
    p = npar.init_params(15, ARCH)
    sys = npar.SmmSystem(p)
    rng = np.random.default_rng(24)
    for _ in range(5):
        q = rng.uniform(-np.pi, np.pi, size=2)
        gV = sys.potential_gradient(q)
        gV_fd = mech.LagrangianSystem.potential_gradient(sys, q)
        assert np.allclose(gV, gV_fd, rtol=1e-5, atol=1e-7)
        dM = sys.mass_jacobian(q)
        dM_fd = mech.LagrangianSystem.mass_jacobian(sys, q)
        assert np.allclose(dM, dM_fd, rtol=1e-5, atol=1e-7)


def test_smm_system_del_residual_gamma_squared():
    rng = np.random.default_rng(25)
    for arch in (ARCH, ARCH_F):
        p = npar.init_params(16, arch)
        for gamma in (3.0, 10.0):
            a = npar.SmmSystem(p)
            b = npar.SmmSystem(npar.scale_params(p, gamma))
            for _ in range(5):
                t = mech.ConfigTriple(rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2),
                                      rng.uniform(-1, 1, 2), 0.05)
                assert np.isclose(mech.del_residual(b, t),
                                  gamma ** 2 * mech.del_residual(a, t),
                                  rtol=1e-9)


def test_smm_system_acceleration_scale_invariant():
    # accelerations do not change under joint scaling of M, V, F
    p = npar.init_params(17, ARCH_F)
    a = npar.SmmSystem(p)
    b = npar.SmmSystem(npar.scale_params(p, 25.0))
    rng = np.random.default_rng(26)
    for _ in range(5):
        q = rng.uniform(-1, 1, size=2)
        qd = rng.uniform(-1, 1, size=2)
        assert np.allclose(mech.acceleration(a, q, qd),
                           mech.acceleration(b, q, qd), rtol=1e-9, atol=1e-11)


# -- checkpoint files ---------------------------------------------------------

def test_checkpoint_roundtrip_bitwise(tmp_path):
    for arch in (ARCH, ARCH_F):
        p = npar.init_params(18, arch)
        path = tmp_path / f"ckpt_{arch.conservative}.json"
        npar.save_params(p, path, seed=18)
        back, seed = npar.load_params(path)
        layout = npar.ParamLayout(arch)
        assert np.array_equal(layout.flatten(back), layout.flatten(p))
        assert seed == 18
        assert back.arch == arch


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
