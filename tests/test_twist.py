"""Twisting: composition law, the shear isomorphism of doubles, invariance of
the first structure equation under twisting, membership in the moduli set."""

import numpy as np
import pytest

from dynlie import lie, linalg, qbia, twist


def invariant_phi(g, scale=0.25):
    return linalg.antisymmetrize3(scale * lie.invariant_triple_tensor(
        g, g.killing_form()))


def rskew(n, rng, s=1.0):
    m = rng.standard_normal((n, n)) * s
    return 0.5 * (m - m.T)


def cocommutative_sl2():
    g = lie.sl2_data()
    return qbia.QuasiBialgebra(g, np.zeros((3, 3, 3)), invariant_phi(g))


def test_zero_twist_is_identity():
    G = cocommutative_sl2()
    Gt = twist.apply_twist(G, np.zeros((3, 3)))
    assert np.array_equal(Gt.varpi, G.varpi)
    assert np.array_equal(Gt.phi, G.phi)


def test_twist_preserves_validity():
    rng = np.random.default_rng(20)
    G = cocommutative_sl2()
    for _ in range(8):
        Gt = twist.apply_twist(G, rskew(3, rng, rng.uniform(0.1, 2.0)))
        rep = qbia.check_quasi_bialgebra(Gt)
        assert rep["passed"], rep


def test_twist_composition():
    rng = np.random.default_rng(21)
    G = cocommutative_sl2()
    t1 = rskew(3, rng)
    t2 = rskew(3, rng)
    a = twist.apply_twist(twist.apply_twist(G, t1), t2)
    b = twist.apply_twist(G, t1 + t2)
    tol = 1e-12
    assert np.max(np.abs(a.varpi - b.varpi)) < tol
    assert np.max(np.abs(a.phi - b.phi)) < tol


def test_twist_inverse():
    rng = np.random.default_rng(22)
    G = cocommutative_sl2()
    t = rskew(3, rng)
    back = twist.apply_twist(twist.apply_twist(G, t), -t)
    tol = 1e-13
    assert np.max(np.abs(back.varpi - G.varpi)) < tol
    assert np.max(np.abs(back.phi - G.phi)) < tol


def test_rejects_non_skew():
    G = cocommutative_sl2()
    t = np.zeros((3, 3))
    t[0, 1] = 1.0
    with pytest.raises(twist.NotSkew):
        twist.apply_twist(G, t)
    with pytest.raises(twist.NotSkew):
        twist.apply_twist(G, np.zeros((2, 2)))


def test_twist_matches_graph_extraction():
    # independent definition of the twist: extract the quasi-triple whose
    # dual complement is the graph {t xi + xi}; must agree exactly
    rng = np.random.default_rng(23)
    G = cocommutative_sl2()
    d = qbia.build_double(G)
    for _ in range(5):
        t = rskew(3, rng, rng.uniform(0.2, 1.5))
        graph = np.vstack([t, np.eye(3)])
        Gx = qbia.quasi_triple_extract(d, np.arange(3), graph)
        Gt = twist.apply_twist(G, t)
        assert np.max(np.abs(Gx.varpi - Gt.varpi)) < 1e-13
        assert np.max(np.abs(Gx.phi - Gt.phi)) < 1e-13


def test_tau_map_is_isomorphism():
    rng = np.random.default_rng(24)
    G = cocommutative_sl2()
    t = rskew(3, rng, 0.8)
    d0 = qbia.build_double(G)
    dt = qbia.build_double(twist.apply_twist(G, t))
    tau, rep = twist.tau_map(t, dt, d0)
    assert rep["passed"]
    assert rep["bracket_residual"] < 1e-13
    assert rep["isometry_residual"] < 1e-13
    expected = np.eye(6)
    expected[:3, 3:] = t
    assert np.array_equal(tau, expected)
    # inverse shear undoes it
    tau_back, rep_back = twist.tau_map(-t, d0, dt)
    assert rep_back["passed"]
    assert np.max(np.abs(tau_back @ tau - np.eye(6))) == 0.0


def test_tau_map_detects_mismatch():
    rng = np.random.default_rng(25)
    G = cocommutative_sl2()
    t = rskew(3, rng, 0.8)
    d0 = qbia.build_double(G)
    _, rep = twist.tau_map(t, d0, d0)   # wrong source double
    assert not rep["passed"]


def test_first_condition_invariance_cocycle():
    # holds whenever varpi satisfies the cocycle identity, for any phi,
    # including phi that breaks the structure equations themselves
    rng = np.random.default_rng(26)
    g = lie.sl2_data()
    t0 = rskew(3, rng)
    varpi = np.einsum('ika,ab->ikb', g.ad, t0) + np.einsum(
        'ka,iba->ikb', t0, g.ad)
    phi = linalg.antisymmetrize3(rng.standard_normal((3, 3, 3)))
    G = qbia.QuasiBialgebra(g, varpi, phi, check=False)
    for _ in range(5):
        t = rskew(3, rng)
        err = twist.first_condition_invariance(G, t)
        assert err < 1e-12, err
    err = twist.first_condition_invariance(G, rskew(3, rng), samples=6, seed=1)
    assert err < 1e-12


def test_first_condition_invariance_zero_twist():
    G = cocommutative_sl2()
    assert twist.first_condition_invariance(G, np.zeros((3, 3))) == 0.0


def test_rejects_a_nan_twist():
    # a NaN skew residual is no skew residual within the bound: before,
    # the membership report read NaN beside a twisted-phi residual of 0
    G = cocommutative_sl2()
    dec = lie.ReductiveDecomposition(G.g, [0], [1, 2])
    nan = np.full((3, 3), np.nan)
    with np.errstate(invalid="ignore"):
        with pytest.raises(twist.NotSkew):
            twist.moduli_membership(G, dec, nan)
        with pytest.raises(twist.NotSkew):
            twist.first_condition_invariance(G, nan)
        with pytest.raises(twist.NotSkew):
            twist.apply_twist(G, nan)


def test_moduli_membership_cartan():
    # the standard skew rotation in the root plane is a member for the
    # Cartan split of sl2, and the twisted structure stays canonical
    G = cocommutative_sl2()
    dec = lie.ReductiveDecomposition(G.g, [0], [1, 2])
    rho = np.zeros((3, 3))
    rho[1, 2] = 0.5
    rho[2, 1] = -0.5
    rep = twist.moduli_membership(G, dec, rho)
    assert rep["member"], rep
    assert rep["kills_sub_annihilator_residual"] == 0.0
    assert rep["equivariance_residual"] < 1e-14
    Gr = twist.apply_twist(G, rho)
    crep = qbia.check_compatibility(Gr, dec)
    assert crep["compatible"] and crep["canonical"]


def test_moduli_membership_rejects():
    G = cocommutative_sl2()
    dec = lie.ReductiveDecomposition(G.g, [0], [1, 2])
    bad = np.zeros((3, 3))
    bad[0, 1] = 1.0
    bad[1, 0] = -1.0    # does not kill the annihilator of the subalgebra
    rep = twist.moduli_membership(G, dec, bad)
    assert not rep["member"]
    assert rep["kills_sub_annihilator_residual"] > 0.1
    rng = np.random.default_rng(27)
    noneq = np.zeros((3, 3))
    noneq[1, 2] = 0.5 + 0.4
    noneq[2, 1] = -noneq[1, 2]
    # still skew and still killing the annihilator; scale is fine, so break
    # equivariance with an asymmetric perturbation in the complement block
    noneq2 = noneq.copy()
    del rng
    rep2 = twist.moduli_membership(G, dec, noneq2)
    # any multiple of the rotation is equivariant for the Cartan action,
    # so this one is a member too; check the flag agrees
    assert rep2["equivariance_residual"] < 1e-14
    assert rep2["member"]


def test_moduli_twisted_phi_obstruction():
    # on the full split (sub = everything) membership forces t = 0
    G = cocommutative_sl2()
    dec = lie.ReductiveDecomposition(G.g, [0, 1, 2], [])
    rep = twist.moduli_membership(G, dec, np.zeros((3, 3)))
    assert rep["member"]
    rho = np.zeros((3, 3))
    rho[1, 2] = 0.5
    rho[2, 1] = -0.5
    rep = twist.moduli_membership(G, dec, rho)
    assert not rep["member"]
