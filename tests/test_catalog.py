"""Tests for the catalog of verified example structures."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynlie import catalog, dynamics, lie, qbia, twist

RNG_SEED = 20260815


def sl3_from_matrices():
    """Independent rebuild of the rank-2 table from 3x3 commutators."""
    def unit(i, j):
        m = np.zeros((3, 3))
        m[i, j] = 1.0
        return m

    basis = [unit(0, 0) - unit(1, 1), unit(1, 1) - unit(2, 2),
             unit(0, 1), unit(1, 2), unit(0, 2),
             unit(1, 0), unit(2, 1), unit(2, 0)]
    flat = np.array([b.flatten() for b in basis]).T
    c = np.zeros((8, 8, 8))
    for i in range(8):
        for j in range(8):
            comm = basis[i] @ basis[j] - basis[j] @ basis[i]
            sol, _, _, _ = np.linalg.lstsq(flat, comm.flatten(), rcond=None)
            err = np.abs(flat @ sol - comm.flatten()).max()
            assert err < 1e-12
            c[i, j, :] = sol
    assert np.abs(c - np.round(c)).max() < 1e-12
    return np.round(c)


def test_registry_contains_required_entries():
    have = set(catalog.names())
    need = {"abelian", "sl2-cartan", "sl2-involution", "su2-lagrangian",
            "ev-sl2", "ev-sl2-gamma", "ev-sl3", "symmetric-sl2",
            "so3-identity"}
    assert need <= have


def test_every_entry_loads_with_passing_fixtures():
    for name in catalog.names():
        entry = catalog.get(name)
        assert entry.fixtures, name
        for fx in entry.fixtures:
            assert fx["passed"], (name, fx)
        rep = qbia.check_quasi_bialgebra(entry.G)
        assert rep["passed"], name


def test_entry_structures_are_read_only():
    for name in catalog.names():
        G = catalog.get(name).G
        for tensor in (G.g.c, G.varpi, G.phi):
            with pytest.raises(ValueError):
                tensor[0, 0, 0] = 1.0


@pytest.mark.parametrize("rank, gamma", [(1, ()), (1, (0,)), (2, (0,))])
def test_ev_associator_is_zeroed_before_the_structure_is_built(rank, gamma):
    # the entry's tensors are bitwise those of twisting a structure and
    # then zeroing the associator off its support in place
    entry = catalog.build_EV(rank, gamma)
    g, decomp, roots, pair, positive, simple = catalog._ev_root_data(rank)
    n = g.dim
    G0 = qbia.QuasiBialgebra(
        g, np.zeros((n, n, n)),
        0.25 * lie.invariant_triple_tensor(g, g.killing_form()))
    twisted = twist.apply_twist(G0, np.array(entry.params["rho"]))
    phi = twisted.phi.copy()
    gens = [simple[i][0] for i in gamma]
    phi[~catalog._ev_phi_support(decomp.dim_sub, roots, pair, gens)] = 0.0
    assert np.array_equal(entry.G.g.c, g.c)
    assert np.array_equal(entry.G.varpi, twisted.varpi)
    assert np.array_equal(entry.G.phi, phi)


def test_get_rebuilds_fresh_objects():
    first = catalog.get("abelian")
    first.fixtures.clear()
    second = catalog.get("abelian")
    assert len(second.fixtures) == 3


def test_unknown_entry_raises():
    with pytest.raises(catalog.UnknownEntry):
        catalog.get("definitely-not-registered")
    assert issubclass(catalog.UnknownEntry, KeyError)


def test_sl3_table_matches_defining_representation():
    oracle = sl3_from_matrices()
    frozen = catalog.sl3_chevalley().c
    err = np.abs(frozen - oracle).max()
    assert err == 0.0


def test_sl3_jacobi_residual():
    g = catalog.sl3_chevalley()
    assert g.jacobi_residual() < 1e-13


def test_ev_basis_normalization():
    # Cartan part orthonormal, opposite root vectors pairing to one
    g, decomp, roots, pair, _, _ = catalog._ev_root_data(2)
    B = g.killing_form()
    expected = np.zeros((8, 8))
    expected[0, 0] = expected[1, 1] = 1.0
    for s, t in pair.items():
        expected[s, t] = 1.0
    err = np.abs(B - expected).max()
    assert err < 1e-12
    # root covectors read off against the frozen coordinates
    eye = np.eye(8)
    for s, gamma in roots.items():
        for i in decomp.sub:
            err = abs(g.bracket(eye[i], eye[s])[s] - gamma[i])
            assert err < 1e-12


def test_build_abelian_dimensions():
    entry = catalog.build_abelian(4, 2)
    assert entry.G.dim == 4
    assert entry.decomp.dim_sub == 2
    field = dynamics.canonical_field(entry.G, entry.decomp)
    p = np.array([0.7, -0.4])
    assert np.abs(field.value(p)).max() == 0.0


def test_ev_singular_mu_raises():
    with pytest.raises(catalog.SingularMu):
        catalog.build_EV(1, (0,), mu=[0.0])


def test_ev_gamma_index_out_of_range():
    with pytest.raises(ValueError):
        catalog.build_EV(1, (3,))


def test_ev_cartan_block_must_be_skew():
    with pytest.raises(twist.NotSkew):
        catalog.build_EV(2, (0,), C0=[[0.0, 1.0], [0.0, 0.0]])


def test_ev_nonzero_cartan_block_skips_membership():
    C0 = [[0.0, 0.3], [-0.3, 0.0]]
    entry = catalog.build_EV(2, (0,), C0=C0)
    names = [fx["name"] for fx in entry.fixtures]
    assert "twist-is-canonical" in names
    assert "moduli-membership" not in names
    assert entry.params["C0"] == C0


def test_ev_full_gamma_dual_cocycle_exact():
    for rank, full in ((1, (0,)), (2, (0, 1))):
        entry = catalog.build_EV(rank, full)
        names = [fx["name"] for fx in entry.fixtures]
        assert "dual-cocycle-exact" in names
        assert "dual-cocycle-not-exact" not in names


def test_ev_partial_gamma_dual_cocycle_not_exact():
    for rank, part in ((1, ()), (2, (1,))):
        entry = catalog.build_EV(rank, part)
        fx = {f["name"]: f for f in entry.fixtures}
        assert fx["dual-cocycle-not-exact"]["residual"] > 1e-6


@settings(max_examples=20, deadline=None)
@given(st.floats(0.4, 3.0))
def test_ev_entry_verifies_along_the_offset_ray(m):
    entry = catalog.build_EV(1, (0,), mu=[m])
    for fx in entry.fixtures:
        assert fx["passed"], fx


def test_ev_shifted_field_solves_untwisted_flow():
    # the canonical field of the twisted structure, translated by the
    # twist itself, satisfies the flow equations of the original
    for name in ("ev-sl2", "ev-sl2-gamma"):
        entry = catalog.get(name)
        rho = np.array(entry.params["rho"])
        base = twist.apply_twist(entry.G, -rho)
        assert np.abs(base.varpi).max() < 1e-14
        field = dynamics.canonical_field(entry.G, entry.decomp)
        shifted = dynamics.shifted_field(field, rho, target=base)
        worst = 0.0
        for p in dynamics.sample_domain_points(shifted, 5, seed=3):
            rep = dynamics.cdybe_residual(shifted, p)
            worst = max(worst, rep["cyclic_residual"],
                        rep["vector_residual"])
        assert worst < 1e-10


def test_entry_verification_rejects_failing_fixture():
    entry = catalog.get("abelian")
    bad = dict(entry.fixtures[0])
    bad.update(residual=1.0, passed=False, name="planted-failure")
    with pytest.raises(catalog.EntryVerificationError) as exc:
        catalog.CatalogEntry("abelian", {}, entry.G, entry.decomp,
                             entry.fixtures + [bad])
    assert "planted-failure" in str(exc.value)


def test_entry_verification_rejects_broken_structure():
    rng = np.random.default_rng(RNG_SEED)
    c = rng.standard_normal((3, 3, 3))
    c = c - c.transpose(1, 0, 2)
    g = lie.LieAlgebraData(c, check=False)
    G = qbia.QuasiBialgebra(g, np.zeros((3, 3, 3)), np.zeros((3, 3, 3)),
                            check=False)
    decomp = lie.ReductiveDecomposition(g, [0], [1, 2], check=False)
    with pytest.raises(catalog.EntryVerificationError):
        catalog.CatalogEntry("broken", {}, G, decomp, [],
                             compatibility=None)


def test_symmetric_entries_record_signature_behaviour():
    flip = catalog.get("symmetric-sl2")
    names = [fx["name"] for fx in flip.fixtures]
    assert "signatures-differ" in names
    same = catalog.get("so3-identity")
    names = [fx["name"] for fx in same.fixtures]
    assert "dual-equals-base" in names


def _mp_ev_phi(rank, Gamma, mp):
    """The associator of build_EV(rank, Gamma) at the working precision of
    mp, from exact data: the integer structure constants, the normalizing
    basis change, the Killing form and the coth coefficients."""
    if rank == 1:
        c0 = lie.sl2_data().c
        P = mp.diag([1 / (2 * mp.sqrt(2)), mp.mpf(1) / 2, mp.mpf(1) / 2])
        simple = [[1 / mp.sqrt(2)]]
    else:
        c0 = sl3_from_matrices()
        P = mp.zeros(8, 8)
        P[0, 0] = 1 / mp.sqrt(12)
        P[0, 1], P[1, 1] = mp.mpf(1) / 6, mp.mpf(1) / 3
        for s in range(2, 8):
            P[s, s] = 1 / mp.sqrt(6)
        simple = [[1 / mp.sqrt(3), 0], [-1 / (2 * mp.sqrt(3)), mp.mpf(1) / 2]]
    n = c0.shape[0]
    _, decomp, roots, pair, positive, simple_f = catalog._ev_root_data(rank)
    k = decomp.dim_sub
    Pinv = P ** -1
    c = np.full((n, n, n), mp.mpf(0), dtype=object)
    for a, b, m in np.argwhere(c0 != 0):
        for i in range(n):
            for j in range(n):
                if P[a, i] != 0 and P[b, j] != 0:
                    for kk in range(n):
                        c[i, j, kk] += (P[a, i] * P[b, j] * int(c0[a, b, m])
                                        * Pinv[kk, m])
    kill = mp.matrix(n, n)
    for i in range(n):
        for j in range(n):
            kill[i, j] = sum(c[i, b, a] * c[j, a, b]
                             for a in range(n) for b in range(n))
    binv = kill ** -1
    binv = np.array([[binv[i, j] for j in range(n)] for i in range(n)])
    # the untwisted associator 1/4 <e^i, [B^-1 e^j, B^-1 e^k]>
    phi = np.einsum("aj,bk,abi->ijk", binv, binv, c) / 4
    # the twist's coefficients, chosen as build_EV does with its default
    # offset mu = weight * (sum of the simple roots)
    weight = 2 if rank == 1 else 6
    mu = [weight * sum(g[d] for g in simple) for d in range(k)]
    gens = [simple_f[i][0] for i in Gamma]
    simple_mat = np.stack([g for g, _ in simple_f], axis=1)
    t = np.full((n, n), mp.mpf(0), dtype=object)
    for s, gamma in roots.items():
        if catalog._in_root_span(gamma, gens):
            coords = np.linalg.lstsq(simple_mat, gamma, rcond=None)[0]
            x = sum(int(round(coords[i])) * simple[i][d] * mu[d]
                    for i in range(len(simple)) for d in range(k))
            t[s, pair[s]] = 1 / (2 * mp.tanh(-x / 2))
        else:
            t[s, pair[s]] = mp.mpf(1) / 2 if s in positive else -mp.mpf(1) / 2
    p = np.einsum("ia,jb,ijk->abk", t, t, c)
    return phi + p + p.transpose(1, 2, 0) + p.transpose(2, 0, 1)


@pytest.mark.parametrize("rank, Gamma", [(1, ()), (1, (0,)), (2, ()),
                                         (2, (0,)), (2, (0, 1))])
def test_ev_associator_zeros_are_exact(rank, Gamma):
    # every entry that build_EV sets to zero is below 1e-45 in a 50-digit
    # build of the same twist, and every entry it keeps is not; the kept
    # entries agree with that build to roundoff
    mp = pytest.importorskip("mpmath").mp
    G = catalog.build_EV(rank, Gamma).G
    with mp.workdps(50):
        ref = _mp_ev_phi(rank, Gamma, mp)
        exact_zero = np.vectorize(lambda v: abs(v) < mp.mpf("1e-45"))(ref)
        ref = ref.astype(float)
    assert np.array_equal(G.phi == 0.0, exact_zero)
    assert np.max(np.abs(G.phi - ref)) <= 1e-15
