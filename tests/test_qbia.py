"""Quasi-bialgebra core: double construction vs closed-form conditions,
extraction round trips, morphisms, inversion, the adjoint of the double."""

import numpy as np
import pytest
import scipy.linalg

from dynlie import catalog, lie, linalg, qbia, twist


def invariant_phi(g, scale=0.25):
    return linalg.antisymmetrize3(scale * lie.invariant_triple_tensor(
        g, g.killing_form()))


def rskew(n, rng, s=1.0):
    m = rng.standard_normal((n, n)) * s
    return 0.5 * (m - m.T)


def cocommutative_sl2():
    g = lie.sl2_data()
    return qbia.QuasiBialgebra(g, np.zeros((3, 3, 3)), invariant_phi(g))


# ---------------------------------------------------------------------------
# bootstrap sign pins


def test_semidirect_double_jacobi_exact():
    # varpi = 0, phi = 0: the double is the coadjoint semidirect product and
    # must satisfy Jacobi exactly; this pins the coadjoint sign convention
    g = lie.sl2_data()
    z = np.zeros((3, 3, 3))
    d = qbia.build_double(qbia.QuasiBialgebra(g, z, z))
    assert d.jacobi_residual() == 0.0


def test_invariant_phi_double_jacobi():
    # cocommutative with invariant phi: pins the orientation of the phi term
    G = cocommutative_sl2()
    assert qbia.build_double(G).jacobi_residual() < 1e-14
    rep = qbia.check_quasi_bialgebra(G)
    assert rep["passed"]


def test_abelian_double():
    g = lie.LieAlgebraData(np.zeros((3, 3, 3)))
    z = np.zeros((3, 3, 3))
    d = qbia.build_double(qbia.QuasiBialgebra(g, z, z))
    assert d.jacobi_residual() == 0.0
    assert np.array_equal(d.d.c, np.zeros((6, 6, 6)))


def test_double_blocks_reproduce_inputs():
    rng = np.random.default_rng(2)
    G = twist.apply_twist(cocommutative_sl2(), rskew(3, rng, 0.6))
    d = qbia.build_double(G)
    cd = d.d.c
    assert np.array_equal(cd[:3, :3, :3], G.g.c)
    assert np.array_equal(cd[3:, 3:, :3], G.phi)
    # [e_i, e^b] base part is varpi_{e_i} column b
    for i in range(3):
        for b in range(3):
            assert np.array_equal(cd[i, 3 + b, :3], G.varpi[i][:, b])
            assert np.array_equal(cd[i, 3 + b, 3:], -G.g.c[i, :, b])


def test_pairing_invariance_and_lagrangian():
    rng = np.random.default_rng(3)
    G = twist.apply_twist(cocommutative_sl2(), rskew(3, rng))
    d = qbia.build_double(G)
    assert d.pairing_invariance_residual() == 0.0
    iso, clo = d.lagrangian_residuals()
    assert iso == 0.0 and clo == 0.0


# ---------------------------------------------------------------------------
# closed-form conditions vs double Jacobi


def algebra_pool():
    sl2 = lie.sl2_data().c
    c4 = np.zeros((4, 4, 4))
    c4[:3, :3, :3] = sl2
    aff = np.zeros((4, 4, 4))
    aff[0, 1, 1] = 1.0
    aff[1, 0, 1] = -1.0
    aff[2, 3, 3] = 1.0
    aff[3, 2, 3] = -1.0
    return [sl2, c4, aff]


def test_equivalence_on_random_candidates():
    # valid structures, then mutations of every ingredient; verdicts of the
    # closed-form report and of the double Jacobi residual must agree
    rng = np.random.default_rng(77)
    pool = algebra_pool()
    tol = 1e-10
    for trial in range(60):
        g = lie.LieAlgebraData(pool[rng.integers(len(pool))])
        n = g.dim
        k = g.killing_form()
        phi = (invariant_phi(g) if abs(np.linalg.det(k)) > 1e-8
               else np.zeros((n, n, n)))
        G = twist.apply_twist(
            qbia.QuasiBialgebra(g, np.zeros((n, n, n)), phi),
            rskew(n, rng, rng.uniform(0.2, 1.0)))
        cc, w, ph = G.g.c.copy(), G.varpi.copy(), G.phi.copy()
        kind = trial % 4
        if kind == 1:
            i, j = 0, 1
            eps = 1e-3 * rng.standard_normal(n)
            cc[i, j] += eps
            cc[j, i] -= eps
            g = lie.LieAlgebraData(cc, check=False)
        else:
            g = G.g
        if kind == 2:
            w[rng.integers(n)] += rskew(n, rng, 1e-3)
        if kind == 3:
            ph = linalg.antisymmetrize3(ph + 1e-3 * rng.standard_normal((n, n, n)))
        Gc = qbia.QuasiBialgebra(g, w, ph, check=False)
        rep = qbia.check_quasi_bialgebra(Gc, tol=tol)
        dj = qbia.build_double(Gc).jacobi_residual()
        assert rep["passed"] == (dj <= tol), (trial, kind, rep, dj)


def test_cocommutative_noninvariant_phi_fails():
    # a 3-tensor that the algebra action moves must break the first equation
    c4 = algebra_pool()[1]
    g = lie.LieAlgebraData(c4)
    rng = np.random.default_rng(8)
    phi = linalg.antisymmetrize3(rng.standard_normal((4, 4, 4)))
    G = qbia.QuasiBialgebra(g, np.zeros((4, 4, 4)), phi, check=False)
    rep = qbia.check_quasi_bialgebra(G)
    assert rep["first_equation_residual"] > 1e-3
    assert not rep["passed"]
    assert qbia.build_double(G).jacobi_residual() > 1e-3


def test_constructor_validates_inputs():
    g = lie.sl2_data()
    z = np.zeros((3, 3, 3))
    bad_w = z.copy()
    bad_w[0, 0, 1] = 1.0   # not skew
    with pytest.raises(ValueError):
        qbia.QuasiBialgebra(g, bad_w, z)
    bad_phi = z.copy()
    bad_phi[0, 1, 2] = 1.0  # not alternating as given
    with pytest.raises(ValueError):
        qbia.QuasiBialgebra(g, z, bad_phi)
    nonco = z.copy()
    nonco[0] = np.array([[0, 1, 0], [-1, 0, 0], [0, 0, 0]])
    with pytest.raises(ValueError):
        qbia.QuasiBialgebra(g, nonco, z)   # fails the cocycle identity
    qbia.QuasiBialgebra(g, nonco, z, check=False)  # but is a legal candidate


# ---------------------------------------------------------------------------
# extraction


def test_structure_is_read_only_and_keeps_its_double(monkeypatch):
    g = lie.sl2_data()
    phi = lie.invariant_triple_tensor(g, g.killing_form())
    G = qbia.QuasiBialgebra(g, np.zeros((3, 3, 3)), phi)
    for tensor in (G.varpi, G.phi, G.g.c):
        with pytest.raises(ValueError):
            tensor[0, 1, 2] = 1.0
    # phi stays alternating as stored
    assert linalg.alternating_residual(G.phi) == 0.0
    builds = []
    orig = qbia.build_double
    monkeypatch.setattr(qbia, "build_double",
                        lambda H: builds.append(H) or orig(H))
    assert G.double is G.double and G.double.source is G
    assert builds == [G]
    # the module function builds a new double, equal to the kept one
    assert np.array_equal(orig(G).d.c, G.double.d.c)


def test_invert_and_extract_take_the_split_at_construction():
    g = lie.sl2_data()
    phi = lie.invariant_triple_tensor(g, g.killing_form())
    dec = lie.ReductiveDecomposition(g, [0], [1, 2])
    G = qbia.QuasiBialgebra(g, np.zeros((3, 3, 3)), phi, decomp=dec)
    assert qbia.invert(G).decomp is dec
    other = lie.ReductiveDecomposition(g, [0, 1, 2], [])
    assert qbia.invert(G, decomp=other).decomp is other
    back = qbia.quasi_triple_extract(G.double, [0, 1, 2], [3, 4, 5],
                                     decomp=dec)
    assert back.decomp is dec
    assert qbia.quasi_triple_extract(G.double, [0, 1, 2],
                                     [3, 4, 5]).decomp is None


def test_round_trip_extraction_exact():
    rng = np.random.default_rng(4)
    G = twist.apply_twist(cocommutative_sl2(), rskew(3, rng))
    d = qbia.build_double(G)
    G2 = qbia.quasi_triple_extract(d, np.arange(3), np.arange(3, 6))
    assert np.array_equal(G2.g.c, G.g.c)
    assert np.array_equal(G2.varpi, G.varpi)
    assert np.array_equal(G2.phi, G.phi)


def test_extract_graph_complement_is_twist():
    # the complement {t xi + xi} reproduces the twist formulas; this is the
    # cross-module identity that pins every sign in apply_twist
    rng = np.random.default_rng(5)
    G = cocommutative_sl2()
    t = rskew(3, rng, 0.7)
    d = qbia.build_double(G)
    graph = np.vstack([t, np.eye(3)])
    Gx = qbia.quasi_triple_extract(d, np.arange(3), graph)
    Gt = twist.apply_twist(G, t)
    assert np.max(np.abs(Gx.g.c - Gt.g.c)) < 1e-13
    assert np.max(np.abs(Gx.varpi - Gt.varpi)) < 1e-13
    assert np.max(np.abs(Gx.phi - Gt.phi)) < 1e-13


def test_extract_rejects_bad_blocks():
    G = cocommutative_sl2()
    d = qbia.build_double(G)
    with pytest.raises(qbia.NotLagrangian):
        # mixes a base vector with its own dual partner: not isotropic
        qbia.quasi_triple_extract(d, np.array([0, 1, 3]), np.arange(3, 6))
    with pytest.raises(qbia.NotIsotropicComplement):
        bad = np.vstack([np.eye(3) * 0.3, np.eye(3)])  # graph of non-skew map
        qbia.quasi_triple_extract(d, np.arange(3), bad)
    with pytest.raises(qbia.NotIsotropicComplement):
        # complement equal to the base block: isotropic but not transverse
        qbia.quasi_triple_extract(d, np.arange(3), np.arange(3))


def test_extract_closure_guard():
    # span(h, e, h*) is isotropic but not a subalgebra ([e, h*] leaves it);
    # closure failure must be flagged, not silently projected away
    G = cocommutative_sl2()
    d = qbia.build_double(G)
    blk = np.array([0, 1, 3])
    try:
        qbia.quasi_triple_extract(d, blk, np.array([2, 4, 5]))
    except (qbia.NotLagrangian, qbia.NotIsotropicComplement):
        pass
    else:
        raise AssertionError("expected an extraction error")


# ---------------------------------------------------------------------------
# inversion and transport


def test_inversion_involution_and_J():
    rng = np.random.default_rng(6)
    G = twist.apply_twist(cocommutative_sl2(), rskew(3, rng))
    Gi = qbia.invert(G)
    assert np.array_equal(Gi.varpi, -G.varpi)
    assert np.array_equal(Gi.phi, G.phi)
    back = qbia.invert(Gi)
    assert np.array_equal(back.varpi, G.varpi)
    assert qbia.check_J_iso(G) == 0.0


def test_inversion_fixes_cocommutative():
    G = cocommutative_sl2()
    assert np.array_equal(qbia.invert(G).varpi, G.varpi)


def test_transport_identity():
    G = cocommutative_sl2()
    Gw = qbia.transport(G, np.eye(3))
    assert np.array_equal(Gw.g.c, G.g.c)
    assert np.array_equal(Gw.varpi, G.varpi)
    assert np.array_equal(Gw.phi, G.phi)


def test_transport_random_map_is_morphism():
    rng = np.random.default_rng(7)
    G = twist.apply_twist(cocommutative_sl2(), rskew(3, rng, 0.5))
    w = rng.standard_normal((3, 3)) + 2.0 * np.eye(3)
    Gw = qbia.transport(G, w)
    rep = qbia.check_morphism(w, G, Gw)
    assert rep["passed"], rep


def test_transport_automorphism_flag():
    g = lie.sl2_data()
    G = cocommutative_sl2()
    a = scipy.linalg.expm(g.ad_matrix(np.array([0.2, -0.3, 0.4])))
    Ga = qbia.transport(G, a, is_automorphism=True)
    assert Ga.g is G.g
    assert qbia.check_morphism(a, G, Ga)["passed"]
    with pytest.raises(ValueError):
        qbia.transport(G, np.diag([1.0, 2.0, 3.0]), is_automorphism=True)


def test_transport_rejects_singular():
    G = cocommutative_sl2()
    w = np.zeros((3, 3))
    with pytest.raises(qbia.SingularMap):
        qbia.transport(G, w)


def einsum_transport(G, w):
    """transport's tensors as the one-einsum contractions (the reference
    for the pairwise ones)."""
    winv = np.linalg.inv(w)
    c = np.einsum("ai,bj,abm,km->ijk", winv, winv, G.g.c, w)
    mixed = np.einsum("ai,akb->ikb", winv, G.varpi)
    varpi = np.einsum("ka,iab,mb->ikm", w, mixed, w)
    phi = np.einsum("ia,jb,kc,abc->ijk", w, w, w, G.phi)
    return (0.5 * (c - c.transpose(1, 0, 2)),
            0.5 * (varpi - varpi.transpose(0, 2, 1)),
            linalg.antisymmetrize3(phi))


def close(got, want, rel=1e-14):
    return np.max(np.abs(got - want)) <= rel * np.max(np.abs(want))


@pytest.mark.parametrize("which", ["sl2-twisted", "ev-sl3"])
def test_pairwise_transport_matches_the_einsums(which):
    rng = np.random.default_rng(73)
    if which == "ev-sl3":
        G = catalog.get("ev-sl3").G
    else:
        G = twist.apply_twist(cocommutative_sl2(), rskew(3, rng, 0.5))
    n = G.dim
    w = rng.standard_normal((n, n)) + 2.0 * np.eye(n)
    Gw = qbia.transport(G, w)
    for got, want in zip((Gw.g.c, Gw.varpi, Gw.phi), einsum_transport(G, w)):
        assert close(got, want)


def test_pairwise_extraction_matches_the_einsums():
    # the dual split of ev-sl3's double (16 x 8 blocks) and a graph
    # complement, whose frame is not a coordinate selection
    rng = np.random.default_rng(74)
    entry = catalog.get("ev-sl3")
    G, n = entry.G, entry.G.dim
    d = qbia.build_double(G)
    sub, comp = list(entry.decomp.sub), list(entry.decomp.comp)
    t = rskew(n, rng, 0.3)
    cases = [(sub + [n + b for b in comp], [n + z for z in sub] + comp),
             (np.arange(n), np.vstack([t, np.eye(n)]))]
    for g_block, h_block in cases:
        got = qbia.quasi_triple_extract(d, g_block, h_block)
        bg = qbia._column_basis(2 * n, g_block)
        frame = qbia._column_basis(2 * n, h_block)
        frame = frame @ np.linalg.inv(bg.T @ d.pairing @ frame)
        qf = d.pairing @ frame
        br = {key: np.einsum("ia,jb,ijm->mab", x, y, d.d.c)
              for key, x, y in (("gg", bg, bg), ("gh", bg, frame),
                                ("hh", frame, frame))}
        c = np.einsum("mk,mij->ijk", qf, br["gg"])
        w = np.einsum("mk,mib->ikb", qf, br["gh"])
        phi = linalg.antisymmetrize3(np.einsum("ma,mbk->abk", qf, br["hh"]))
        assert close(got.g.c, 0.5 * (c - c.transpose(1, 0, 2)))
        assert close(got.varpi, 0.5 * (w - w.transpose(0, 2, 1)))
        assert close(got.phi, phi)


@pytest.mark.parametrize("slot, bad", [
    ("varpi", np.nan), ("phi", np.nan), ("phi", np.inf), ("phi", -np.inf),
    ("varpi", np.inf)])
def test_non_finite_tensors_are_refused(slot, bad):
    # NaN residuals would pass the skew and alternating tests, and inf in
    # phi made alternating_residual warn; the error comes first now
    G = cocommutative_sl2()
    tensors = {"varpi": G.varpi.copy(), "phi": G.phi.copy()}
    t = tensors[slot]
    t[0, 1, 2] = bad
    t[0, 2, 1] = -bad
    if slot == "phi":
        for i, j, k in ((1, 2, 0), (2, 0, 1)):
            t[i, j, k] = bad
        for i, j, k in ((1, 0, 2), (2, 1, 0)):
            t[i, j, k] = -bad
    with pytest.raises(ValueError, match="finite"):
        qbia.QuasiBialgebra(G.g, tensors["varpi"], tensors["phi"],
                            check=False)


def test_check_morphism_identity_and_garbage():
    G = cocommutative_sl2()
    assert qbia.check_morphism(np.eye(3), G, G)["passed"]
    rng = np.random.default_rng(9)
    rep = qbia.check_morphism(rng.standard_normal((3, 3)), G, G)
    assert rep["bracket_residual"] > 1e-3
    assert not rep["passed"]


# ---------------------------------------------------------------------------
# adjoint action of the double


def test_adjoint_double_at_zero():
    G = cocommutative_sl2()
    d = qbia.build_double(G)
    assert np.array_equal(qbia.adjoint_double(np.zeros(3), d), np.eye(6))


def test_adjoint_double_block_structure():
    rng = np.random.default_rng(10)
    t = rskew(3, rng, 0.6)
    G = twist.apply_twist(cocommutative_sl2(), t)
    d = qbia.build_double(G)
    u = rng.standard_normal(3) * 0.5
    big = qbia.adjoint_double(u, d)
    g = G.g
    assert np.max(np.abs(big[3:, :3])) < 1e-14
    dual = scipy.linalg.expm(-g.ad_matrix(u).T)
    assert np.max(np.abs(big[3:, 3:] - dual)) < 1e-12


def test_group_cocycle_block_exact_formula():
    # varpi of a twisted cocommutative structure is exact with potential t;
    # the group cocycle then has the closed form Ad t Ad^T - t
    rng = np.random.default_rng(11)
    t = rskew(3, rng, 0.8)
    G = twist.apply_twist(cocommutative_sl2(), t)
    d = qbia.build_double(G)
    g = G.g
    tol = 1e-9
    for _ in range(5):
        u = rng.standard_normal(3) * 0.7
        pi = qbia.group_cocycle_block(u, d)
        ad = scipy.linalg.expm(g.ad_matrix(u))
        err = np.max(np.abs(pi - (ad @ t @ ad.T - t)))
        assert err < tol


def test_group_cocycle_vanishes_cocommutative():
    G = cocommutative_sl2()
    d = qbia.build_double(G)
    pi = qbia.group_cocycle_block(np.array([0.3, 0.1, -0.2]), d)
    assert np.max(np.abs(pi)) < 1e-14


# ---------------------------------------------------------------------------
# compatibility with a reductive split


def test_compatibility_cartan_sl2():
    G = cocommutative_sl2()
    dec = lie.ReductiveDecomposition(G.g, [0], [1, 2])
    rep = qbia.check_compatibility(G, dec)
    assert rep["compatible"] and rep["canonical"]


def test_compatibility_counterexample():
    # phi with a two-subalgebra-index component on sl2 + center
    c4 = np.zeros((4, 4, 4))
    c4[:3, :3, :3] = lie.sl2_data().c
    g = lie.LieAlgebraData(c4)
    dec = lie.ReductiveDecomposition(g, [0, 3], [1, 2])
    phi = np.zeros((4, 4, 4))
    phi[0, 3, 1] = 1.0   # two sub indices (0, 3), one comp index
    phi = linalg.antisymmetrize3(phi)
    G = qbia.QuasiBialgebra(g, np.zeros((4, 4, 4)), phi, check=False)
    rep = qbia.check_compatibility(G, dec)
    assert rep["two_sub_phi_residual"] > 0.1
    assert not rep["compatible"]


def test_compatibility_canonical_vs_plain():
    # a comp-comp-comp component spoils canonicity but not compatibility
    c4 = np.zeros((4, 4, 4))
    c4[:3, :3, :3] = lie.sl2_data().c
    g = lie.LieAlgebraData(c4)
    dec = lie.ReductiveDecomposition(g, [0], [1, 2, 3])
    phi = np.zeros((4, 4, 4))
    phi[1, 2, 3] = 1.0
    phi = linalg.antisymmetrize3(phi)
    G = qbia.QuasiBialgebra(g, np.zeros((4, 4, 4)), phi, check=False)
    rep = qbia.check_compatibility(G, dec)
    assert rep["compatible"]
    assert not rep["canonical"]


def test_double_residuals_match_the_three_operand_contractions():
    # the lagrangian and invariance residuals are read by contraction with
    # the pairing and by slicing; on every catalog double they equal the
    # residuals of the multi-operand einsum forms bit for bit
    from dynlie import catalog

    for name in catalog.names():
        dbl = qbia.build_double(catalog.get(name).G)
        t = np.einsum("ijm,mk->ijk", dbl.d.c, dbl.pairing)
        inv = qbia._max_abs(t + np.transpose(t, (0, 2, 1)))
        b = dbl.split.inj1
        iso = qbia._max_abs(b.T @ dbl.pairing @ b)
        clo = qbia._max_abs(
            np.einsum("ia,jb,ijm->abm", b, b, dbl.d.c)[:, :, dbl.n:])
        assert dbl.pairing_invariance_residual() == inv, name
        assert dbl.lagrangian_residuals() == (iso, clo), name
