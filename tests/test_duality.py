"""Tests for the dual structure, the chart algebroid with its flat
trivialization, the two-sided duality identity, and the involution dual."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from dynlie import (catalog, duality, dynamics, lie, linalg, qbia, spectral,
                    twist)

TOL = 1e-10


def invariant_structure():
    g = lie.sl2_data()
    binv = np.linalg.inv(g.killing_form())
    phi = 0.25 * np.einsum("ja,kb,abi->ijk", binv, binv, g.c)
    return qbia.QuasiBialgebra(g, np.zeros((3, 3, 3)),
                               linalg.antisymmetrize3(phi))


def cartan_split(G):
    return lie.ReductiveDecomposition(G.g, [0], [1, 2])


def abelian_structure(n=3):
    g = lie.LieAlgebraData(np.zeros((n, n, n)))
    return qbia.QuasiBialgebra(g, np.zeros((n, n, n)), np.zeros((n, n, n)))


def rand_section(rng, k, n, scale=0.5):
    return duality.polynomial_section(
        dynamics.PolynomialMap(k, k, coeff0=rng.standard_normal(k),
                               coeff1=scale * rng.standard_normal((k, k))),
        dynamics.PolynomialMap(k, n, coeff0=rng.standard_normal(n),
                               coeff1=scale * rng.standard_normal((n, k))))


# -- the invariant three-form --------------------------------------------------


def test_invariant_three_form_is_invariant():
    g = lie.sl2_data()
    omega = lie.invariant_triple_tensor(g, g.killing_form())
    err = linalg.alternating_residual(omega)
    assert err == 0.0
    zero = np.zeros((3, 3, 3))
    err = qbia._max_abs(qbia.first_condition_tensor(g, zero, omega))
    assert err < TOL


@given(st.floats(-2.0, 2.0))
@settings(max_examples=20, deadline=None)
def test_three_form_multiples_all_satisfy_structure_equations(c):
    g = lie.sl2_data()
    omega = lie.invariant_triple_tensor(g, g.killing_form())
    G = qbia.QuasiBialgebra(g, np.zeros((3, 3, 3)), c * omega)
    rep = qbia.check_quasi_bialgebra(G)
    assert rep["passed"]


# -- the dual structure --------------------------------------------------------


def test_dual_of_abelian_is_abelian():
    G = abelian_structure()
    dec = lie.ReductiveDecomposition(G.g, [0, 1], [2])
    star = duality.dual_qbia(G, dec)
    err = max(qbia._max_abs(star.g.c), qbia._max_abs(star.varpi),
              qbia._max_abs(star.phi))
    assert err == 0.0


def test_dual_is_valid_and_canonical():
    G = invariant_structure()
    star = duality.dual_qbia(G, cartan_split(G))
    assert qbia.check_quasi_bialgebra(star)["passed"]
    rep = qbia.check_compatibility(star, star.decomp)
    assert rep["canonical"]
    # subalgebra slots come first in the dual's basis
    assert star.decomp.dim_sub == 1
    assert list(star.decomp.sub) == [0]


def test_dual_field_satisfies_dynamical_system():
    G = invariant_structure()
    star = duality.dual_qbia(G, cartan_split(G))
    f = dynamics.canonical_field(star, star.decomp)
    worst = 0.0
    for p in dynamics.sample_domain_points(f, 6, seed=2, scale=0.4):
        rep = dynamics.cdybe_residual(f, p, samples=4)
        worst = max(worst, rep["cyclic_residual"], rep["vector_residual"])
    assert worst < 1e-8


def test_dual_precondition_cocycle_on_subalgebra():
    G = invariant_structure()
    rng = np.random.default_rng(0)
    t = rng.standard_normal((3, 3))
    Gt = twist.apply_twist(G, t - t.T)
    with pytest.raises(duality.PreconditionFailed):
        duality.dual_qbia(Gt, cartan_split(Gt))


def test_dual_precondition_three_tensor_on_complement():
    g4 = lie.LieAlgebraData(np.zeros((4, 4, 4)))
    phi4 = np.zeros((4, 4, 4))
    phi4[1, 2, 3] = 1.0
    G4 = qbia.QuasiBialgebra(g4, np.zeros((4, 4, 4)),
                             6.0 * linalg.antisymmetrize3(phi4), check=False)
    dec4 = lie.ReductiveDecomposition(g4, [0], [1, 2, 3])
    with pytest.raises(duality.PreconditionFailed):
        duality.dual_qbia(G4, dec4)


def test_double_dual_returns_original_up_to_sign_map():
    G = invariant_structure()
    err = duality.double_dual_check(G, cartan_split(G))
    assert err < TOL
    err = duality.double_dual_check(
        abelian_structure(), lie.ReductiveDecomposition(
            abelian_structure().g, [0, 1], [2]))
    assert err == 0.0


# -- the chart algebroid -------------------------------------------------------


def test_anchor_formula_exact():
    G = invariant_structure()
    f = dynamics.canonical_field(G, cartan_split(G))
    rng = np.random.default_rng(1)
    p = np.array([0.3])
    z = rng.standard_normal(1)
    xi = rng.standard_normal(3)
    want = xi[[0]] - z * np.einsum("abm,m->b", f.sub_c, p)[0]
    err = np.max(np.abs(duality.nu_anchor((z, xi), p, f) - want))
    assert err == 0.0


def test_bracket_of_constant_sections_reduces_to_fiber_term():
    # full split: the bracket of constant sections with vanishing covector
    # part, taken at the origin, is minus the subalgebra bracket
    G = invariant_structure()
    f = dynamics.canonical_field(G)
    rng = np.random.default_rng(2)
    z1, z2 = rng.standard_normal(3), rng.standard_normal(3)
    s1 = duality.constant_section(z1, np.zeros(3))
    s2 = duality.constant_section(z2, np.zeros(3))
    zb, xib = duality.nu_bracket(s1, s2, f).value(np.zeros(3))
    err = max(np.max(np.abs(zb + G.g.bracket(z1, z2))), np.max(np.abs(xib)))
    assert err < 1e-14


def test_bracket_on_abelian_constant_sections_vanishes():
    G = abelian_structure()
    dec = lie.ReductiveDecomposition(G.g, [0], [1, 2])
    f = dynamics.canonical_field(G, dec)
    s1 = duality.constant_section([1.0], [0.3, -0.2, 0.5])
    s2 = duality.constant_section([-0.7], [0.1, 0.8, 0.0])
    zb, xib = duality.nu_bracket(s1, s2, f).value(np.array([0.4]))
    err = max(np.max(np.abs(zb)), np.max(np.abs(xib)))
    assert err == 0.0


def test_bracket_antisymmetry_and_jacobi():
    G = invariant_structure()
    f = dynamics.canonical_field(G, cartan_split(G))
    rng = np.random.default_rng(3)
    secs = [rand_section(rng, 1, 3) for _ in range(3)]
    p = np.array([0.27])
    v12 = duality.nu_bracket(secs[0], secs[1], f).value(p)
    v21 = duality.nu_bracket(secs[1], secs[0], f).value(p)
    err = max(np.max(np.abs(v12[0] + v21[0])), np.max(np.abs(v12[1] + v21[1])))
    assert err < 1e-12
    tot_z = np.zeros(1)
    tot_xi = np.zeros(3)
    for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        inner = duality.nu_bracket(secs[b], secs[c], f)
        zb, xib = duality.nu_bracket(secs[a], inner, f).value(p)
        tot_z = tot_z + zb
        tot_xi = tot_xi + xib
    err = max(np.max(np.abs(tot_z)), np.max(np.abs(tot_xi)))
    assert err < 1e-8


def test_bracket_leibniz_rule():
    G = invariant_structure()
    f = dynamics.canonical_field(G, cartan_split(G))
    rng = np.random.default_rng(4)
    s1 = rand_section(rng, 1, 3)
    s2 = rand_section(rng, 1, 3)

    def scaled(q):
        z, xi = s2.value(q)
        fac = 1.0 + 0.3 * q[0]
        return fac * z, fac * xi

    p = np.array([0.2])
    lhs = duality.nu_bracket(s1, duality.AlgebroidSection(scaled), f).value(p)
    br = duality.nu_bracket(s1, s2, f).value(p)
    a1 = duality.nu_anchor(s1.value(p), p, f)
    fac = 1.0 + 0.3 * p[0]
    dg = 0.3 * a1[0]
    z2, xi2 = s2.value(p)
    err = max(np.max(np.abs(lhs[0] - fac * br[0] - dg * z2)),
              np.max(np.abs(lhs[1] - fac * br[1] - dg * xi2)))
    assert err < 1e-10


# -- horizontal lift and fiber isomorphism -------------------------------------


def test_theta_anchor_and_value_at_origin():
    G = invariant_structure()
    triv = duality.TrivializationMap(G, cartan_split(G))
    alpha = np.array([0.7])
    z0, xi0 = triv.theta_connection(np.zeros(1), alpha)
    err = max(np.max(np.abs(z0)), np.max(np.abs(xi0 - triv.inj @ alpha)))
    assert err == 0.0
    p = np.array([0.31])
    z, xi = triv.theta_connection(p, alpha)
    err = np.max(np.abs(duality.nu_anchor((z, xi), p, triv.field) - alpha))
    assert err < 1e-14


def test_theta_flatness():
    G = invariant_structure()
    triv = duality.TrivializationMap(G, cartan_split(G))
    worst = 0.0
    for p in dynamics.sample_domain_points(triv.field, 5, seed=5, scale=0.4):
        worst = max(worst, triv.flatness_residual(p))
    assert worst < 1e-9


def test_phi_iso_identity_at_origin_and_closed_forms():
    G = invariant_structure()
    triv = duality.TrivializationMap(G, cartan_split(G))
    rep0 = duality.phi_p_iso(np.zeros(1), triv)
    err = np.max(np.abs(rep0["matrix"] - np.eye(3)))
    assert err == 0.0
    p = np.array([0.41])
    rep = duality.phi_p_iso(p, triv)
    assert rep["closed_form_residual"] < 1e-12
    assert rep["membership_residual"] < 1e-12
    assert rep["intertwining_residual"] < 1e-9


def test_psi_compatibility_constant_and_linear():
    G = invariant_structure()
    triv = duality.TrivializationMap(G, cartan_split(G))
    rng = np.random.default_rng(6)
    worst = 0.0
    for p in dynamics.sample_domain_points(triv.field, 4, seed=6, scale=0.4):
        alpha = rng.standard_normal(1)
        const = dynamics.PolynomialMap(1, 3, coeff0=rng.standard_normal(3))
        linear = dynamics.PolynomialMap(
            1, 3, coeff1=rng.standard_normal((3, 1)))
        singles = [triv.psi_compatibility_residual(p, xmap, alpha)
                   for xmap in (const, linear)]
        # the list form brackets the lift with both sections in one pass
        assert triv.psi_compatibility_residual(
            p, [const, linear], alpha) == max(singles)
        worst = max(worst, *singles)
    assert worst < 1e-9


# -- the trivialization ---------------------------------------------------------


def test_trivialization_roundtrip_and_origin_formula():
    G = invariant_structure()
    triv = duality.TrivializationMap(G, cartan_split(G))
    rng = np.random.default_rng(7)
    worst = 0.0
    for p in dynamics.sample_domain_points(triv.field, 6, seed=7, scale=0.4):
        alpha = rng.standard_normal(1)
        x0 = rng.standard_normal(3)
        z, eta = triv.trivialization_T(p, alpha, x0)
        a2, x2 = triv.T_inverse(p, z, eta)
        worst = max(worst, np.max(np.abs(a2 - alpha)),
                    np.max(np.abs(x2 - x0)))
        z3, eta3 = rng.standard_normal(1), rng.standard_normal(3)
        a4, x4 = triv.T_inverse(p, z3, eta3)
        z5, eta5 = triv.trivialization_T(p, a4, x4)
        worst = max(worst, np.max(np.abs(z5 - z3)),
                    np.max(np.abs(eta5 - eta3)))
    assert worst < TOL
    alpha = np.array([0.9])
    x0 = np.array([0.4, -0.2, 0.8])
    z, eta = triv.trivialization_T(np.zeros(1), alpha, x0)
    want_eta = triv.inj @ alpha - triv.compinj @ x0[1:]
    err = max(np.max(np.abs(z + x0[:1])), np.max(np.abs(eta - want_eta)))
    assert err == 0.0


def test_trivialization_is_bracket_and_anchor_morphism():
    G = invariant_structure()
    triv = duality.TrivializationMap(G, cartan_split(G))
    rep = triv.check(samples=4, seed=8)
    assert rep["passed"]
    assert rep["anchor_residual"] < 1e-12
    assert rep["bracket_residual"] < 1e-8
    assert rep["membership_residual"] < 1e-9


def test_trivialization_rejects_points_outside_domain():
    # the rotation algebra has imaginary adjoint spectrum, so the odd-kernel
    # poles are reachable along real base directions; full split, so the
    # empty-complement degenerate path is exercised too
    g = so3_data()
    binv = np.linalg.inv(g.killing_form())
    phi = 0.25 * np.einsum("ja,kb,abi->ijk", binv, binv, g.c)
    G = qbia.QuasiBialgebra(g, np.zeros((3, 3, 3)),
                            linalg.antisymmetrize3(phi))
    triv = duality.TrivializationMap(G)
    rep = triv.check(samples=3, seed=12)
    assert rep["passed"]
    bad = np.array([4.0 * np.pi, 0.0, 0.0])
    with pytest.raises(dynamics.OutOfDomain):
        triv.trivialization_T(bad, np.ones(3), np.ones(3))


# -- the duality identity --------------------------------------------------------


def test_duality_identity_on_cartan_entry():
    G = invariant_structure()
    err = duality.duality_theorem_check(G, cartan_split(G), samples=20,
                                        seed=9)
    assert err < 1e-9


def test_duality_identity_on_abelian():
    G = abelian_structure()
    dec = lie.ReductiveDecomposition(G.g, [0], [1, 2])
    err = duality.duality_theorem_check(G, dec, samples=5, seed=10)
    assert err == 0.0


def test_derivative_identities_in_double():
    G = invariant_structure()
    f = dynamics.canonical_field(G, cartan_split(G))
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(5):
        rep = duality.differential_identities(
            f, 0.4 * rng.standard_normal(1), rng.standard_normal(1),
            rng.standard_normal(1))
        worst = max(worst, *rep.values())
    assert worst < 1e-9


# -- semisimple algebras with an involution ---------------------------------------


def so3_data():
    c = np.zeros((3, 3, 3))
    c[0, 1, 2] = 1.0
    c[1, 0, 2] = -1.0
    c[1, 2, 0] = 1.0
    c[2, 1, 0] = -1.0
    c[2, 0, 1] = 1.0
    c[0, 2, 1] = -1.0
    return lie.LieAlgebraData(c, ["x", "y", "z"])


def test_symmetric_dual_signatures_differ():
    g = lie.sl2_data()
    sigma = np.array([[-1.0, 0, 0], [0, 0, -1.0], [0, -1.0, 0]])
    rep = duality.symmetric_dual(g, sigma)
    assert rep["cocommutative_residual"] < 1e-12
    assert rep["associator_residual"] < 1e-12
    assert rep["compatibility"]["canonical"]
    assert rep["dual_model_residual"] < TOL
    assert rep["double_dual_residual"] < TOL
    assert rep["dual_semisimple"]
    assert rep["base_signature"] != rep["dual_signature"]
    assert rep["base_signature"] == (2, 1, 0)
    assert rep["dual_signature"] == (0, 3, 0)


def test_symmetric_dual_identity_involution_degenerates():
    g = so3_data()
    rep = duality.symmetric_dual(g, np.eye(3))
    err = max(qbia._max_abs(rep["dual"].g.c - rep["algebra"].c),
              qbia._max_abs(rep["dual"].varpi))
    assert err == 0.0
    assert rep["base_signature"] == rep["dual_signature"]


def test_symmetric_dual_rejects_non_involution():
    g = lie.sl2_data()
    with pytest.raises(duality.NotInvolution):
        duality.symmetric_dual(g, 2.0 * np.eye(3))
    # involutive linear map that does not preserve the bracket
    bad = np.diag([1.0, -1.0, 1.0])
    with pytest.raises(duality.NotInvolution):
        duality.symmetric_dual(g, bad)


def test_symmetric_dual_rejects_non_semisimple():
    g = lie.LieAlgebraData(np.zeros((2, 2, 2)))
    with pytest.raises(duality.NotSemisimple):
        duality.symmetric_dual(g, np.eye(2))


def test_check_reuses_the_flow_of_each_base_point(monkeypatch):
    # the field keeps the domain check's expm(-ad_big(p)) for value, and
    # value and derivatives per base point; without that record this check
    # made 250 scipy.linalg.expm calls, with it 74; the bound is half of 250
    entry = catalog.get("sl2-cartan")
    triv = duality.TrivializationMap(entry.G, entry.decomp)
    calls = []
    orig = scipy.linalg.expm

    def expm(a):
        calls.append(a.shape)
        return orig(a)

    monkeypatch.setattr(scipy.linalg, "expm", expm)
    assert triv.check(samples=1)["passed"]
    assert len(calls) <= 125


# -- the point record of the trivialization -------------------------------------


def test_check_computes_each_flow_of_a_base_point_once(monkeypatch):
    # one record per base point holds exp(+-ad(p)) and its Frechet
    # derivatives per direction; without it this check made 74 expm and 46
    # expm_frechet calls
    entry = catalog.get("sl2-cartan")
    triv = duality.TrivializationMap(entry.G, entry.decomp)
    calls = []
    for owner, name in ((scipy.linalg, "expm"), (linalg, "expm_frechet")):
        orig = getattr(owner, name)

        def counted(*args, _orig=orig, **kwargs):
            calls.append(args[0].shape)
            return _orig(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    assert triv.check(samples=1)["passed"]
    assert len(calls) <= 10


def _count_matrix_kernels(monkeypatch):
    """Lists that record each later call of linalg.expm_frechet (its
    matrix and direction bytes), np.linalg.eig and scipy.linalg.expm."""
    calls = {"expm_frechet": [], "eig": [], "expm": []}

    def counted(owner, name, record):
        orig = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name].append(record(*args))
            return orig(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counted(linalg, "expm_frechet", lambda a, e: (
        a.tobytes(), [d.tobytes() for d in (e if e.ndim == 3 else [e])]))
    counted(np.linalg, "eig", lambda a: a.shape)
    counted(scipy.linalg, "expm", lambda a: a.shape)
    return calls


def test_check_shares_the_fields_frechet_pairs(monkeypatch):
    # on the model route every matrix function of ad_big(p) comes from the
    # field's spectral model: no Frechet kernel, eig or scipy expm runs in
    # a check (before, an ev-sl3 check(samples=1) made one stacked kernel
    # call for exp(+ad(p)), and 5 eig calls of the AnalyticFunctions)
    for name in ("sl2-cartan", "symmetric-sl2", "ev-sl2-gamma",
                 "su2-lagrangian", "ev-sl3"):
        entry = catalog.get(name)
        triv = duality.TrivializationMap(entry.G, entry.decomp)
        assert triv.field.route in ("commuting", "cubic")
        calls = _count_matrix_kernels(monkeypatch)
        assert triv.check(samples=1)["passed"]
        assert calls == {"expm_frechet": [], "eig": [], "expm": []}, name
        monkeypatch.undo()
    # on the general route the derivative of phi_p still reads the field's
    # flow derivative from the field's jet (one stacked kernel call on
    # -a), so the kernel runs once more, for exp(+a), in one stacked call
    # over both base directions, and no (matrix, direction) input repeats;
    # computed apart, this check made 6 expm_frechet calls on 4 distinct
    # inputs
    entry = catalog.get("ev-sl3")
    triv = duality.TrivializationMap(entry.G, entry.decomp)
    triv.field._models = spectral.GENERAL
    calls = _count_matrix_kernels(monkeypatch)["expm_frechet"]
    assert triv.check(samples=1)["passed"]
    (p,) = [rec["p"] for rec in triv.field._records.values()]
    plus = triv.field._big_ad(p).tobytes()
    assert [len(dirs) for a, dirs in calls if a == plus] == [2]
    assert [len(dirs) for _, dirs in calls] == [2, 2]
    inputs = [a + d for a, dirs in calls for d in dirs]
    assert len(inputs) == len(set(inputs)) == 4


def _map_on_ray(name, r, route):
    """A map of the entry on the model route or the general route, the
    point at |p| = r on a seeded ray, and a seeded direction."""
    entry = catalog.get(name)
    triv = duality.TrivializationMap(entry.G, entry.decomp)
    if route == "general":
        triv.field._models = spectral.GENERAL
    rng = np.random.default_rng(41)
    d = rng.standard_normal(triv.k)
    return triv, r * d / np.linalg.norm(d), rng.standard_normal(triv.k)


def _flows_on_ray(name, r, route):
    """The _PointFlows record at _map_on_ray's point, and its direction."""
    triv, p, beta = _map_on_ray(name, r, route)
    return triv._flows(p), beta


def _flows_outputs(flows, beta):
    eye = np.eye(len(beta))
    return [*flows.bundle(), *flows.bundle(beta),
            flows.apply(linalg.TRIV_REM), flows.apply(linalg.INV_SINHC),
            flows.exp(), *flows.exp_frechet(eye)]


@pytest.mark.parametrize("r", [0.1, 1.0, 5.0])
@pytest.mark.parametrize("name", catalog.names())
def test_flows_of_the_model_route_match_the_general_route(name, r):
    # the model's closed forms against the eig route of the
    # AnalyticFunctions, scipy's expm and linalg.expm_frechet
    model, beta = _flows_on_ray(name, r, "model")
    general, _ = _flows_on_ray(name, r, "general")
    assert general._model is spectral.GENERAL[0]
    got, want = _flows_outputs(model, beta), _flows_outputs(general, beta)
    assert len(got) == len(want) == 11 + len(beta)
    for x, y in zip(got, want):
        assert np.max(np.abs(x - y)) <= 1e-13 * np.max(np.abs(y))


@pytest.mark.parametrize("name", ["sl2-cartan", "ev-sl3", "su2-lagrangian"])
def test_flows_of_the_general_route_are_the_direct_evaluations(name):
    # the general model hands the trivialization exactly what the
    # AnalyticFunctions, scipy's expm and linalg.expm_frechet give along
    # each basis direction e_b, and along beta their contraction
    flows, beta = _flows_on_ray(name, 1.0, "general")
    a = np.array(flows.a)
    eye = np.eye(len(beta))
    das = [flows._field._big_ad(e) for e in eye]
    fns = (linalg.SINH_REM, linalg.SINHC, linalg.SINH)
    dfs = [[fn.frechet(a, da) for da in das] for fn in fns]
    dexp = [linalg.expm_frechet(a, da) for da in das]

    def along(jet):
        return dynamics._combine(beta, lambda b: jet[b], a.shape)

    want = ([fn.apply(a) for fn in fns] + [scipy.linalg.expm(a)]
            + [along(jet) for jet in dfs]
            + [along(dexp), linalg.TRIV_REM.apply(a),
               linalg.INV_SINHC.apply(a), scipy.linalg.expm(a)]
            + dexp + [d for jet in dfs for d in jet])
    got = (_flows_outputs(flows, beta)
           + [d for fn in fns for d in flows.frechet(fn, eye)])
    assert len(got) == len(want)
    for x, y in zip(got, want):
        assert np.array_equal(x, y)


@pytest.mark.parametrize("route", ["model", "general"])
@pytest.mark.parametrize("name", ["sl2-cartan", "ev-sl3", "su2-lagrangian"])
def test_derivatives_at_a_point_are_contractions_of_one_jet(
        name, route, monkeypatch):
    # the first derivative requests at a point build every jet whole, one
    # model call per function; a derivative along any other direction is
    # the contraction of the jets and calls no model
    triv, p, beta = _map_on_ray(name, 1.0, route)
    flows = triv._flows(p)
    flows.bundle(beta)
    triv._phi_data(p, beta)
    calls = []
    for model in triv.field._models:
        for attr in ("frechet", "exp_neg_derivative", "f_derivative"):
            orig = getattr(model, attr)
            monkeypatch.setattr(model, attr, lambda *a, orig=orig, attr=attr:
                                calls.append(attr) or orig(*a))
    rng = np.random.default_rng(42)
    betas = rng.standard_normal((5, triv.k))
    for b in betas:
        flows.bundle(b)
        flows.exp_frechet(b, -1)
        triv._phi_data(p, b)
    flows.bundle(betas)
    assert calls == []


@pytest.mark.parametrize("route", ["model", "general"])
@pytest.mark.parametrize("name", ["sl2-cartan", "ev-sl3", "su2-lagrangian"])
def test_derivatives_along_beta_combine_the_basis_derivatives(name, route):
    # bitwise: the derivative along beta is dynamics._combine of the
    # derivatives along the basis directions
    triv, p, beta = _map_on_ray(name, 1.0, route)
    flows = triv._flows(p)
    eye = np.eye(triv.k)

    def along(basis):
        return dynamics._combine(beta, lambda b: basis[b], basis[0].shape)

    basis = flows.bundle(eye)
    got = flows.bundle(beta)
    assert len(got) == 4
    for i, m in enumerate(got):
        assert np.array_equal(m, along([row[i] for row in basis]))
    assert np.array_equal(flows.exp_frechet(beta, -1),
                          along(flows.exp_frechet(eye, -1)))
    assert np.array_equal(triv._phi_data(p, beta)[2],
                          along([triv._phi_data(p, e)[2] for e in eye]))


def _record_outputs(triv, p, seed):
    """Every evaluator that reads the point record, at p."""
    rng = np.random.default_rng(seed)
    k, n = triv.k, triv.n
    alpha = rng.standard_normal(k)
    x0 = rng.standard_normal(n)
    beta = rng.standard_normal(k)
    section = rand_section(rng, k, n)
    z, eta = triv.trivialization_T(p, alpha, x0)
    iso = duality.phi_p_iso(p, triv)
    return [z, eta, *triv.T_inverse(p, z, eta),
            *triv.theta_connection(p, alpha),
            *triv.theta_section(alpha).derivative(p, beta),
            *triv.compose_section(section).derivative(p, beta),
            *triv._phi_data(p, beta), *triv._phi_data(p),
            iso["matrix"], iso["closed_form_residual"],
            iso["membership_residual"], iso["intertwining_residual"]]


@pytest.mark.parametrize("name", ["sl2-cartan", "su2-lagrangian"])
def test_point_record_revisited_matches_a_fresh_map(name):
    entry = catalog.get(name)
    triv = duality.TrivializationMap(entry.G, entry.decomp)
    p, q = dynamics.sample_domain_points(triv.field, 2, seed=24, scale=0.4)
    seen = [_record_outputs(triv, p, 1), _record_outputs(triv, q, 2),
            _record_outputs(triv, p, 1)]
    for outs, pt, seed in zip(seen, (p, q, p), (1, 2, 1)):
        fresh = _record_outputs(
            duality.TrivializationMap(entry.G, entry.decomp), pt, seed)
        assert len(outs) == len(fresh)
        for x, y in zip(outs, fresh):
            assert np.array_equal(x, y)


def test_point_record_is_read_only_and_outputs_are_owned():
    entry = catalog.get("su2-lagrangian")
    triv = duality.TrivializationMap(entry.G, entry.decomp)
    p = dynamics.sample_domain_points(triv.field, 1, seed=25, scale=0.4)[0]
    before = [np.copy(x) for x in _record_outputs(triv, p, 3)]
    for x in _record_outputs(triv, p, 3):
        if isinstance(x, np.ndarray):
            x[...] = np.nan
    after = _record_outputs(triv, p, 3)
    for x, y in zip(before, after):
        assert np.array_equal(x, y)
    flows = triv._flows(p)
    beta = np.ones(triv.k)

    def derivatives():
        return [flows.frechet(linalg.SINH, beta), flows.exp_frechet(beta, -1),
                flows.exp_frechet(beta), triv._phi_data(p, beta)[2]]

    # a derivative is a contraction of a kept jet: an owned array, whose
    # writes never reach the record
    before = [np.copy(m) for m in derivatives()]
    for m in derivatives():
        m[...] = np.nan
    for x, y in zip(before, derivatives()):
        assert np.array_equal(x, y)
    kept = [flows.a, flows.exp_neg, flows.exp(), flows.apply(linalg.SINHC)]
    kept += [m for out in flows._mats.values()
             for m in (out if isinstance(out, tuple) else (out,))
             if isinstance(m, np.ndarray)]
    assert len(kept) > 10
    for m in kept:
        with pytest.raises(ValueError):
            m[(0,) * m.ndim] = 1.0
    # the field's own evaluations never create the record's slot (a field
    # built apart: canonical_field would return the map's own field)
    field = dynamics.CanonicalField(entry.G, entry.decomp)
    field.value(p)
    field.derivative(p, beta)
    assert "flows" not in field._at(p)


# -- one structure, built once -------------------------------------------------

TRIV_ENTRIES = ("sl2-cartan", "symmetric-sl2", "ev-sl2-gamma",
                "su2-lagrangian", "ev-sl3")


@pytest.mark.parametrize("name", TRIV_ENTRIES)
def test_a_map_on_a_kept_field_checks_as_one_on_a_fresh_structure(name):
    # every map of entry.G shares one field, whose point records persist
    # from check to check: the reports are bitwise those of a map on a
    # freshly built structure, also when a check repeats its points
    entry = catalog.get(name)
    for samples in (1, 2):
        for seed in range(5):
            fresh = catalog.get(name)
            want = duality.TrivializationMap(fresh.G, fresh.decomp).check(
                samples=samples, seed=seed)
            for _ in range(2):
                triv = duality.TrivializationMap(entry.G, entry.decomp)
                assert triv.check(samples=samples, seed=seed) == want


def test_a_second_map_on_a_structure_builds_nothing(monkeypatch):
    entry = catalog.get("ev-sl3")
    first = duality.TrivializationMap(entry.G, entry.decomp)
    calls = []
    for owner, attr in ((qbia, "build_double"),
                        (qbia, "check_compatibility"),
                        (dynamics, "vertex_bracket"),
                        (dynamics.CanonicalField, "__init__")):
        orig = getattr(owner, attr)
        monkeypatch.setattr(owner, attr,
                            lambda *a, orig=orig, attr=attr:
                            calls.append(attr) or orig(*a))
    second = duality.TrivializationMap(entry.G, entry.decomp)
    assert calls == []
    assert second.field is first.field
    assert second.double is entry.G.double is first.field.double
    assert second.fiber_c is first.fiber_c
    with pytest.raises(ValueError):
        second.fiber_c[0, 0, 0] = 1.0


def test_duals_carry_their_split_from_construction(monkeypatch):
    # dual_qbia and symmetric_dual hand the split to the constructor, and
    # never set it on a built structure
    built = {}
    orig = qbia.QuasiBialgebra.__init__

    def spy(self, g, varpi, phi, decomp=None, check=True):
        orig(self, g, varpi, phi, decomp, check)
        built[id(self)] = decomp

    monkeypatch.setattr(qbia.QuasiBialgebra, "__init__", spy)
    G = invariant_structure()
    star = duality.dual_qbia(G, cartan_split(G))
    assert star.decomp is not None and star.decomp.algebra is star.g
    assert built[id(star)] is star.decomp
    g = lie.sl2_data()
    sigma = np.array([[-1.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, -1.0, 0.0]])
    rep = duality.symmetric_dual(g, sigma)
    assert rep["structure"].decomp is rep["decomp"]
    assert built[id(rep["structure"])] is rep["decomp"]
    assert built[id(rep["dual"])] is rep["dual"].decomp is not None


# -- checks with no sample points -------------------------------------------------


@pytest.mark.parametrize("samples", [0, -2])
def test_check_without_sample_points_raises(samples):
    entry = catalog.get("sl2-cartan")
    triv = duality.TrivializationMap(entry.G, entry.decomp)
    with pytest.raises(ValueError):
        triv.check(samples=samples)


@pytest.mark.parametrize("samples", [0, -2])
def test_duality_check_without_sample_points_raises(samples):
    entry = catalog.get("sl2-cartan")
    with pytest.raises(ValueError) as info:
        duality.duality_theorem_check(entry.G, entry.decomp, samples=samples)
    assert not isinstance(info.value, dynamics.OutOfDomain)


# -- pair brackets in one pass against the per-pair formulas -----------------------


def _ref_nu_bracket(s1, s2, field, p):
    """The algebroid bracket of one pair, term by term: each section
    differentiated along the other's anchor."""
    G = field.G
    z1, xi1 = s1.value(p)
    z2, xi2 = s2.value(p)
    a1 = duality.nu_anchor((z1, xi1), p, field)
    a2 = duality.nu_anchor((z2, xi2), p, field)
    dz2, dxi2 = s2.derivative(p, a1)
    dz1, dxi1 = s1.derivative(p, a2)
    dl = np.stack([field.derivative(p, e) for e in np.eye(field.base_dim)])
    grad = np.einsum("aij,i,j->a", dl, xi1, xi2)
    zout = (dz2 - dz1
            - np.einsum("a,b,abm->m", z1, z2, field.sub_c) + grad)
    lmat = field.value(p)
    adm = G.g.ad_matrix
    iz1 = field.inj @ z1
    iz2 = field.inj @ z2
    wvec = np.einsum("a,iab,b->i", xi1, G.varpi, xi2)
    xiout = (dxi2 - dxi1
             + adm(iz1).T @ xi2 - adm(iz2).T @ xi1
             + wvec
             + adm(lmat @ xi1).T @ xi2 - adm(lmat @ xi2).T @ xi1)
    return zout, xiout


def _ref_bracket_morphism(triv, p, s1, s2):
    """Bracket-morphism residual of one pair of trivial-bundle sections,
    with the trivial bracket taken along the other section's base part."""
    lhs = _ref_nu_bracket(triv.compose_section(s1), triv.compose_section(s2),
                          triv.field, p)
    a1, x1 = s1.value(p)
    a2, x2 = s2.value(p)
    da2, dx2 = s2.derivative(p, a1)
    da1, dx1 = s1.derivative(p, a2)
    base = da2 - da1
    fiber = dx2 - dx1 + np.einsum("i,j,ijm->m", x1, x2, triv.fiber_c)
    rhs = triv.trivialization_T(p, base, fiber)
    return max(qbia._max_abs(lhs[0] - rhs[0]), qbia._max_abs(lhs[1] - rhs[1]))


def _ref_flatness(triv, p):
    lifts = [triv.theta_section(e) for e in np.eye(triv.k)]
    worst = 0.0
    for i in range(triv.k):
        for j in range(i + 1, triv.k):
            zb, xb = _ref_nu_bracket(lifts[i], lifts[j], triv.field, p)
            worst = max(worst, qbia._max_abs(zb), qbia._max_abs(xb))
    return worst


def _check_sections(triv, rng):
    k, n = triv.k, triv.n
    sections = [duality.constant_section(e, np.zeros(n)) for e in np.eye(k)]
    sections += [duality.constant_section(np.zeros(k), e) for e in np.eye(n)]
    sections += [rand_section(rng, k, n) for _ in range(3)]
    return sections


def _close(got, want):
    scale = max(qbia._max_abs(got), qbia._max_abs(want))
    return qbia._max_abs(np.asarray(got) - want) <= 1e-12 * (1.0 + scale)


@pytest.mark.parametrize("name", catalog.names())
def test_pair_brackets_match_the_per_pair_formulas(name):
    entry = catalog.get(name)
    triv = duality.TrivializationMap(entry.G, entry.decomp)
    rng = np.random.default_rng(26)
    for p in dynamics.sample_domain_points(triv.field, 2, seed=26, scale=0.4):
        sections = _check_sections(triv, rng)
        composed = [triv.compose_section(s) for s in sections]
        zb, xb = triv._section_brackets(p, composed)
        pairs = [(i, j) for i in range(len(sections))
                 for j in range(i + 1, len(sections))]
        for i, j in pairs:
            zr, xr = _ref_nu_bracket(composed[i], composed[j], triv.field, p)
            assert _close(zb[i, j], zr) and _close(xb[i, j], xr)
            # the kernel's two-section case is the same bracket
            z2, x2 = duality.nu_bracket(composed[i], composed[j],
                                        triv.field).value(p)
            assert _close(z2, zr) and _close(x2, xr)
        ref = max(_ref_bracket_morphism(triv, p, sections[i], sections[j])
                  for i, j in pairs)
        assert _close(triv.bracket_morphism_residual(p, sections), ref)
        assert _close(triv.flatness_residual(p), _ref_flatness(triv, p))


@pytest.mark.parametrize("name", ["sl2-cartan", "su2-lagrangian", "ev-sl3"])
def test_bracket_residual_sees_a_wrong_fiber_bracket(name):
    entry = catalog.get(name)
    triv = duality.TrivializationMap(entry.G, entry.decomp)
    triv.fiber_c = triv.fiber_c.copy()
    triv.fiber_c[0, 1, 1] += 1e-3
    triv.fiber_c[1, 0, 1] -= 1e-3
    rep = triv.check(samples=1)
    assert rep["bracket_residual"] > 1e-4
    assert not rep["passed"]


def test_check_differentiates_each_section_along_basis_directions(
        monkeypatch):
    # the per-pair brackets differentiated both sections of every pair
    # along the other's anchor: 474 derivative calls on ev-sl3 for one
    # point; along the base basis directions once per section it is 86
    entry = catalog.get("ev-sl3")
    triv = duality.TrivializationMap(entry.G, entry.decomp)
    calls = []
    orig = duality.AlgebroidSection.derivative

    def derivative(self, p, beta):
        calls.append(1)
        return orig(self, p, beta)

    monkeypatch.setattr(duality.AlgebroidSection, "derivative", derivative)
    assert triv.check(samples=1)["passed"]
    assert len(calls) <= 158


# -- stacked section jets and the per-point fiber isomorphism -------------------


def _count_section_derivatives(monkeypatch, name):
    entry = catalog.get(name)
    triv = duality.TrivializationMap(entry.G, entry.decomp)
    calls = []
    orig = duality.AlgebroidSection.derivative

    def derivative(self, p, beta):
        calls.append(1)
        return orig(self, p, beta)

    monkeypatch.setattr(duality.AlgebroidSection, "derivative", derivative)
    assert triv.check(samples=1)["passed"]
    return len(calls)


def test_check_pushes_the_section_jets_through_the_map_stacked(monkeypatch):
    # composing every trivial section with the map differentiated it once
    # through the composite and once inside it: 86 derivative calls on
    # ev-sl3 for one point; the bound is half of 86
    assert _count_section_derivatives(monkeypatch, "ev-sl3") <= 43


@pytest.mark.parametrize("samples", [1, 2])
def test_check_builds_the_fiber_isomorphism_once_per_point(monkeypatch,
                                                           samples):
    # the vertical sections and the expected value of the compatibility
    # residual built the phi matrix 6 times at one point
    entry = catalog.get("ev-sl3")
    triv = duality.TrivializationMap(entry.G, entry.decomp)
    points = []
    orig = duality.TrivializationMap._phi_matrix

    def phi_matrix(self, p, flows):
        points.append(np.copy(p))
        return orig(self, p, flows)

    monkeypatch.setattr(duality.TrivializationMap, "_phi_matrix", phi_matrix)
    rep = triv.check(samples=samples)
    assert rep["passed"]
    assert len(points) == rep["points"] == samples
    if samples == 2:
        assert not np.array_equal(points[0], points[1])


@pytest.mark.parametrize("name", catalog.names())
def test_fiber_algebra_is_the_certified_dual_at_the_origin(name):
    # the map reads the fiber bracket off the formula alone; the certified
    # construction at the origin gives the same constants
    entry = catalog.get(name)
    triv = duality.TrivializationMap(entry.G, entry.decomp)
    origin = np.zeros(triv.k)
    assert np.array_equal(triv.field.value(origin), np.zeros((triv.n,) * 2))
    dual = dynamics.vertex_dual(origin, triv.field)
    assert dual.report["passed"], dual.report
    assert np.array_equal(triv.fiber_c, dual.c)


@pytest.mark.parametrize("name", ["sl2-cartan", "ev-sl3"])
def test_phi_data_matches_the_column_by_column_construction(name):
    entry = catalog.get(name)
    triv = duality.TrivializationMap(entry.G, entry.decomp)
    field = triv.field
    n, k = triv.n, triv.k
    rng = np.random.default_rng(28)
    p = dynamics.sample_domain_points(field, 1, seed=28, scale=0.4)[0]
    beta = rng.standard_normal(k)
    lm, dlm = field.value(p), field.derivative(p, beta)
    cols = np.zeros((2 * n, n))
    dcols = np.zeros((2 * n, n))
    for idx in range(k):
        xi = triv.inj @ np.einsum("bm,m->b", field.sub_c[idx], p)
        dxi = triv.inj @ np.einsum("bm,m->b", field.sub_c[idx], beta)
        cols[:, idx] = np.concatenate([triv.inj[:, idx] + lm @ xi, xi])
        dcols[:, idx] = np.concatenate([dlm @ xi + lm @ dxi, dxi])
    for j, b in enumerate(triv.comp):
        xi = np.eye(n)[b]
        cols[:, k + j] = np.concatenate([lm @ xi, xi])
        dcols[:, k + j] = np.concatenate([dlm @ xi, np.zeros(n)])
    rows = list(triv.sub) + [n + int(b) for b in triv.comp]
    em = scipy.linalg.expm(-field._big_ad(p))
    dem = scipy.linalg.expm_frechet(-field._big_ad(p),
                                    -field._big_ad(beta))[1]
    mat, leak, dmat = triv._phi_data(p, beta)
    assert _close(mat, (em @ cols)[rows])
    assert _close(dmat, (dem @ cols + em @ dcols)[rows])
    assert leak <= duality.TRIV_TOLS["membership_residual"]
    # the record answers again with the same arrays, as owned copies
    again = triv._phi_data(p, beta)
    assert np.array_equal(again[0], mat) and np.array_equal(again[2], dmat)
    assert again[0] is not mat and again[0].flags.writeable


def test_central_difference_fallback_evaluates_the_section_twice():
    calls = []

    def value(p):
        calls.append(np.copy(p))
        return np.array([np.sin(p[0]) * p[1]]), np.array([p[0] ** 3, p[1]])

    section = duality.AlgebroidSection(value)
    p = np.array([0.3, -1.2])
    beta = np.array([0.7, 0.4])
    da, db = section.derivative(p, beta)
    assert len(calls) == 2
    del calls[:]
    ref_a = linalg.finite_diff(lambda q: section.value(q)[0], p, beta)
    ref_b = linalg.finite_diff(lambda q: section.value(q)[1], p, beta)
    assert np.array_equal(da, ref_a) and np.array_equal(db, ref_b)
    assert da.shape == (1,) and db.shape == (2,)
