"""Tests for dynamical fields: the closed-form constructions, the two forms
of the dynamical Yang-Baxter system, base-point duals, and gauge actions."""

import numpy as np
import scipy.linalg
import pytest
from hypothesis import given, settings, strategies as st

from dynlie import dynamics as dyn
from dynlie import catalog, lie, linalg, qbia, spectral, twist

TOL = 1e-10


def invariant_structure(g=None):
    """sl2 (or g) with vanishing cocycle and the invariant 3-tensor built
    from the Killing form; cocommutative and valid."""
    g = lie.sl2_data() if g is None else g
    binv = np.linalg.inv(g.killing_form())
    phi = 0.25 * np.einsum("ja,kb,abi->ijk", binv, binv, g.c)
    return qbia.QuasiBialgebra(g, np.zeros((g.dim,) * 3),
                               linalg.antisymmetrize3(phi))


def field_by_name(name):
    """A fresh canonical field of a catalog entry, or of "sl3-invariant":
    the invariant structure on sl3 over its full split, whose adjoint
    families are neither commuting nor cubic, so it takes the general
    route.  A catalog entry's field is built apart (CanonicalField), with
    no point records: canonical_field would return the field that the
    entry's builder kept on its structure, with the records of its
    fixture points."""
    if name == "sl3-invariant":
        return dyn.canonical_field(invariant_structure(catalog.sl3_chevalley()))
    entry = catalog.get(name)
    return dyn.CanonicalField(entry.G, entry.decomp)


def general_route(field):
    """The field with its spectral models replaced by the general model:
    the general route, the reference the model route is compared with."""
    field._models = spectral.GENERAL
    return field


def field_on_route(name, route):
    """The canonical field of field_by_name(name) on the model route (as
    built) or on the general route."""
    field = field_by_name(name)
    return general_route(field) if route == "general" else field


def on_both_routes(names):
    """Parametrize (name, route) over the names on both routes: the model
    route's case is named by the name, the general route's by
    name-general."""
    return pytest.mark.parametrize("name, route", [
        pytest.param(name, route,
                     id=name if route == "model" else name + "-general")
        for name in names for route in ("model", "general")])


def cartan_split(G):
    return lie.ReductiveDecomposition(G.g, [0], [1, 2])


def rskew(n, rng, scale=0.3):
    m = scale * rng.standard_normal((n, n))
    return m - m.T


# -- polynomial jets ---------------------------------------------------------


def test_polynomial_map_against_finite_differences():
    rng = np.random.default_rng(0)
    f = dyn.PolynomialMap(2, 3, coeff0=rng.standard_normal(3),
                          coeff1=rng.standard_normal((3, 2)),
                          coeff2=rng.standard_normal((3, 2, 2)))
    p = rng.standard_normal(2)
    a = rng.standard_normal(2)
    h = 1e-6
    fd_jac = (f.value(p + h * a) - f.value(p - h * a)) / (2 * h)
    err = np.max(np.abs(f.jacobian(p) @ a - fd_jac))
    assert err < 1e-8
    fd_hess = (f.jacobian(p + h * a) - f.jacobian(p - h * a)) / (2 * h)
    err = np.max(np.abs(f.jacobian_derivative(p, a) - fd_hess))
    assert err < 1e-8


# -- elementary field kinds --------------------------------------------------


def test_zero_and_constant_fields():
    G = invariant_structure()
    f0 = dyn.zero_field(G)
    p = np.array([0.1, -0.2, 0.3])
    assert np.max(np.abs(f0.value(p))) == 0.0
    assert np.max(np.abs(f0.derivative(p, p))) == 0.0
    t = rskew(3, np.random.default_rng(1))
    fc = dyn.constant_field(G, t)
    assert np.max(np.abs(fc.value(p) - t)) == 0.0
    with pytest.raises(ValueError):
        dyn.constant_field(G, np.eye(3))


def test_polynomial_field_evaluation_and_derivative():
    G = invariant_structure()
    dec = cartan_split(G)
    rng = np.random.default_rng(2)
    t1 = np.stack([rskew(3, rng)])
    t2 = np.stack([np.stack([rskew(3, rng)])])
    f = dyn.polynomial_field(G, dec, coeff1=t1, coeff2=t2)
    p = np.array([0.4])
    expect = 0.4 * t1[0] + 0.16 * t2[0, 0]
    assert np.max(np.abs(f.value(p) - expect)) < 1e-14
    fd = linalg.finite_diff(f.value, p, np.array([1.0]))
    err = np.max(np.abs(f.derivative(p, np.array([1.0])) - fd))
    assert err < 1e-9


# -- the odd-function field on the full base ---------------------------------


def test_cocom_field_requires_vanishing_cocycle():
    g = lie.LieAlgebraData(np.zeros((2, 2, 2)))
    w = np.zeros((2, 2, 2))
    w[0, 0, 1] = 1.0
    w[0, 1, 0] = -1.0
    G = qbia.QuasiBialgebra(g, w, np.zeros((2, 2, 2)))
    with pytest.raises(ValueError):
        dyn.cocom_field(G)


def test_cocom_field_solves_system():
    G = invariant_structure()
    f = dyn.cocom_field(G)
    rng = np.random.default_rng(3)
    for _ in range(6):
        p = 0.5 * rng.standard_normal(3)
        rep = dyn.cdybe_residual(f, p)
        assert rep["passed"]
        assert rep["cyclic_residual"] < 1e-12
        assert rep["vector_residual"] < 1e-12
        assert rep["forms_agreement"] < 1e-12
        assert rep["derivative_fd_residual"] < 1e-6


def test_cocom_field_equivariance():
    G = invariant_structure()
    f = dyn.cocom_field(G)
    rng = np.random.default_rng(4)
    p = 0.4 * rng.standard_normal(3)
    for a in range(3):
        err = dyn.equivariance_residual(f, p, np.eye(3)[a])
        assert err < 1e-12


# -- the closed-form field on a reductive split ------------------------------


def test_canonical_field_basics():
    G = invariant_structure()
    dec = cartan_split(G)
    f = dyn.canonical_field(G, dec)
    p = np.array([0.3])
    lmat = f.value(p)
    assert linalg.skew_residual(lmat) < 1e-12
    # annihilator of the complement maps into the subalgebra and vice versa
    err_sub = np.max(np.abs((lmat @ np.array([1.0, 0, 0]))[[1, 2]]))
    err_perp = np.max(np.abs((lmat @ np.array([0, 0.7, -0.2]))[0]))
    assert err_sub < TOL and err_perp < TOL
    rep = dyn.cdybe_residual(f, p)
    assert rep["passed"] and rep["cyclic_residual"] < 1e-12
    err = dyn.equivariance_residual(f, p, np.array([1.0]))
    assert err < 1e-12


def test_canonical_matches_independent_closed_form():
    G = invariant_structure()
    dec = cartan_split(G)
    f = dyn.canonical_field(G, dec)
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(10):
        p = 0.6 * rng.standard_normal(1)
        worst = max(worst, np.max(np.abs(
            f.value(p) - dyn.compatible_closed_form(G, dec, p))))
    assert worst < TOL


def test_canonical_full_split_matches_cocom():
    G = invariant_structure()
    f_full = dyn.canonical_field(G)
    f = dyn.cocom_field(G)
    rng = np.random.default_rng(6)
    for _ in range(5):
        p = 0.4 * rng.standard_normal(3)
        err = np.max(np.abs(f_full.value(p) - f.value(p)))
        assert err < TOL
        a = rng.standard_normal(3)
        err = np.max(np.abs(f_full.derivative(p, a) - f.derivative(p, a)))
        assert err < TOL


def test_canonical_rejects_incompatible_structure():
    g = lie.sl2_data()
    c4 = np.zeros((4, 4, 4))
    c4[:3, :3, :3] = g.c
    g4 = lie.LieAlgebraData(c4)
    phi4 = np.zeros((4, 4, 4))
    phi4[1, 2, 3] = 1.0
    phi4 = 6.0 * linalg.antisymmetrize3(phi4)
    G4 = qbia.QuasiBialgebra(g4, np.zeros((4, 4, 4)), phi4, check=False)
    dec4 = lie.ReductiveDecomposition(g4, [0], [1, 2, 3])
    with pytest.raises(dyn.NotCanonicalCompatible):
        dyn.canonical_field(G4, dec4)
    # a refused split keeps no field
    assert G4._canonical is None


# -- domain ------------------------------------------------------------------


def test_domain_boundary_and_out_of_domain_error():
    G = invariant_structure()
    f = dyn.cocom_field(G)
    # along this dual direction the flow generator has eigenvalues +-i/4,
    # so the first pole is hit at scale 4*pi
    direction = np.array([0.0, 1.0, -1.0])
    ok = dyn.in_domain(12.0 * direction, f)
    assert ok["in_domain"] and ok["spectral_margin"] > 0.1
    bad = dyn.in_domain(4.0 * np.pi * direction, f)
    assert not bad["in_domain"]
    assert bad["failing"] == "spectral-margin"
    with pytest.raises(dyn.OutOfDomain):
        f.value(4.0 * np.pi * direction)
    assert issubclass(dyn.OutOfDomain, linalg.DomainViolation)


def test_domain_trivial_for_jet_fields():
    G = invariant_structure()
    f = dyn.zero_field(G)
    rep = dyn.in_domain(1e3 * np.ones(3), f)
    assert rep["in_domain"]


def test_zero_and_constant_fields_stay_exact_far_out():
    # p_a p_b overflows here; the fields have no quadratic term to evaluate
    G = invariant_structure()
    p = np.array([1e200, -1e200, 1e200])
    t = rskew(3, np.random.default_rng(1))
    for f, want in ((dyn.zero_field(G), np.zeros((3, 3))),
                    (dyn.constant_field(G, t), t)):
        assert np.array_equal(f.value(p), want)
        assert np.array_equal(f.derivative(p, p), np.zeros((3, 3)))


@on_both_routes(["sl2-cartan", "ev-sl3", "su2-lagrangian"])
@pytest.mark.parametrize("norm", [1e5, 1e300])
def test_overflowing_flow_is_reported_out_of_domain(name, norm, route):
    f = field_on_route(name, route)
    p = np.full(f.base_dim, norm)
    rep = dyn.in_domain(p, f)
    assert not rep["in_domain"]
    assert rep["failing"] == "block-condition"
    assert rep["block_condition"] == np.inf
    with pytest.raises(dyn.OutOfDomain):
        f.value(p)
    # in a stacked pass the overflowed slice is refused alone
    inside = dyn.sample_domain_points(f, 1, seed=0)[0]
    recs = f._domain_records(np.array([inside, p, inside]))
    assert [rec["report"] for rec in recs] == [dyn.in_domain(inside, f), rep,
                                               dyn.in_domain(inside, f)]
    with pytest.raises(dyn.OutOfDomain):
        f._probe(np.array([inside, p]))


def field_of_kind(kind):
    """A field of each kind over the rank-one split of the invariant sl2
    structure ("zero" is the polynomial kind)."""
    G = invariant_structure()
    if kind == "zero":
        return dyn.zero_field(G)
    if kind == "cocom":
        return dyn.cocom_field(G)
    base = dyn.canonical_field(G, cartan_split(G))
    return {"canonical": base,
            "shifted": dyn.shifted_field(
                base, rskew(3, np.random.default_rng(5))),
            "gauged": dyn.gauge_transform(
                base, equivariant_gauge(0.4, 0.15))}[kind]


# the in_domain cases keep the bare kind as their id
@pytest.mark.parametrize("kind, entry", [
    pytest.param(kind, entry,
                 id=kind if entry == "in_domain" else kind + "-" + entry)
    for kind in ("zero", "cocom", "canonical", "shifted", "gauged")
    for entry in ("in_domain", "value", "derivative", "_probe")])
def test_in_domain_rejects_a_point_of_the_wrong_shape(kind, entry):
    f = field_of_kind(kind)
    k = f.base_dim
    call = {"in_domain": lambda p: dyn.in_domain(p, f),
            "value": f.value,
            "derivative": lambda p: f.derivative(p, np.zeros(k)),
            "_probe": f._probe}[entry]
    # a 2-d argument of _probe is a stack of points
    points = ((np.zeros(k + 1), np.zeros(k + 2)) if entry == "_probe"
              else (np.zeros(k + 1), np.zeros((1, k)), np.zeros((k, k))))
    for p in points:
        with pytest.raises(ValueError, match="base point must have"):
            call(p)
    if entry == "derivative":
        for alpha in (np.zeros(k + 1), np.zeros((1, k))):
            with pytest.raises(ValueError, match="direction must have"):
                f.derivative(np.zeros(k), alpha)
    if entry == "_probe":
        for q in (np.zeros((2, k + 1)), np.zeros((2, 2, k))):
            with pytest.raises(ValueError, match="base points must have"):
                f._probe(q)


def test_route_of_derived_and_polynomial_fields():
    # a shifted or gauged field evaluates through its base's records, a
    # polynomial field through none
    G = invariant_structure()
    entry = catalog.get("su2-lagrangian")
    cubic = dyn.canonical_field(entry.G, entry.decomp)
    base = dyn.canonical_field(G, cartan_split(G))
    t = rskew(3, np.random.default_rng(6))
    gauged = dyn.gauge_transform(base, equivariant_gauge(0.4, 0.15))
    # a field apart from the entry's kept one, which stays on its model
    general = general_route(dyn.CanonicalField(entry.G, entry.decomp))
    for field, want in ((dyn.zero_field(G), None),
                        (dyn.constant_field(G, t), None),
                        (dyn.cocom_field(G), "general"),
                        (base, "commuting"),
                        (cubic, "cubic"),
                        (dyn.shifted_field(cubic, 0), "cubic"),
                        (gauged, "commuting"),
                        (dyn.shifted_field(general, 0), "general")):
        assert field.route == want, field
        with pytest.raises(AttributeError):
            field.route = "general"


def sequential_sample(field, count, seed=0, scale=0.5):
    """sample_domain_points as it tested its candidates one at a time."""
    rng = np.random.default_rng(seed)
    pts = []
    s = scale
    tries = 0
    while len(pts) < count:
        p = s * rng.standard_normal(field.base_dim)
        if dyn.in_domain(p, field)["in_domain"]:
            pts.append(p)
        else:
            tries += 1
            if tries % 10 == 0:
                s *= 0.7
        if tries > 500:
            raise RuntimeError("could not sample enough in-domain points")
    return pts, tries


@pytest.mark.parametrize("name, count, seed, scale, rejected", [
    ("sl2-cartan", 6, 7, 0.3, 0),
    ("ev-sl3", 5, 0, 60.0, 4),
    ("su2-lagrangian", 6, 1, 60.0, 11),
    ("su2-lagrangian", 6, 0, 60.0, 23),
    ("so3-identity", 4, 0, 60.0, 18)])
def test_stacked_sampling_is_bitwise_the_sequential_one(
        name, count, seed, scale, rejected, monkeypatch):
    # with 11, 18 and 23 rejections the scale shrinks once or twice
    # mid-stack, and the later draws are tested again at the new scale
    want, tries = sequential_sample(field_by_name(name), count, seed, scale)
    assert tries == rejected
    field = field_by_name(name)
    passes = count_calls(monkeypatch, dyn.CanonicalField, "_domain_records")
    got = dyn.sample_domain_points(field, count, seed, scale)
    assert [p.tobytes() for p in got] == [p.tobytes() for p in want]
    # one domain pass per stack of candidates, not one per candidate: each
    # rejection draws one more candidate, and each shrink tests at most
    # count of them again
    assert len(passes) <= 1 + rejected
    tested = sum(len(points) for _, points in passes)
    assert tested <= count + rejected + (rejected // 10) * count
    if not rejected:
        assert [len(points) for _, points in passes] == [count]


def test_stacked_sampling_gives_up_as_the_sequential_one():
    # a field whose domain holds nowhere: both raise after 500 rejections
    G = invariant_structure()

    class Nowhere(dyn.PolynomialField):
        def _reports(self, ps):
            return [dict(rep, in_domain=False)
                    for rep in super()._reports(ps)]

    field = Nowhere(G, cartan_split(G), np.zeros((3, 3)), None, None)
    with pytest.raises(RuntimeError):
        sequential_sample(field, 3)
    with pytest.raises(RuntimeError):
        dyn.sample_domain_points(field, 3)


def test_sample_domain_points_deterministic():
    G = invariant_structure()
    f = dyn.cocom_field(G)
    a = dyn.sample_domain_points(f, 5, seed=7)
    b = dyn.sample_domain_points(f, 5, seed=7)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert all(dyn.in_domain(p, f)["in_domain"] for p in a)


# -- residual reports --------------------------------------------------------


def test_cdybe_passed_reads_the_flow_tolerance_table(monkeypatch):
    G = invariant_structure()
    f = dyn.canonical_field(G, cartan_split(G))
    p = np.array([0.3])
    rep = dyn.cdybe_residual(f, p)
    assert rep["passed"]
    # a bound just below the residual (which may be exactly 0) fails it
    monkeypatch.setitem(dyn.FLOW_TOLS, "cyclic_residual",
                        np.nextafter(rep["cyclic_residual"], -np.inf))
    assert not dyn.cdybe_residual(f, p)["passed"]


def test_cdybe_detects_perturbation():
    G = invariant_structure()
    dec = cartan_split(G)
    f = dyn.canonical_field(G, dec)
    bump = np.zeros((3, 3))
    bump[1, 2] = 0.05
    bump[2, 1] = -0.05
    broken = dyn.shifted_field(f, bump)
    rep = dyn.cdybe_residual(broken, np.array([0.3]))
    assert not rep["passed"]
    assert rep["cyclic_residual"] > 1e-4


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_two_system_forms_agree_for_arbitrary_fields(seed):
    # the cyclic-tensor form and the vector form are algebraically equal
    # for every skew field, solution or not
    G = invariant_structure()
    dec = cartan_split(G)
    rng = np.random.default_rng(seed)
    f = dyn.polynomial_field(
        G, dec,
        coeff0=rskew(3, rng),
        coeff1=np.stack([rskew(3, rng)]),
        coeff2=np.stack([np.stack([rskew(3, rng)])]))
    p = 0.5 * rng.standard_normal(1)
    rep = dyn.cdybe_residual(f, p, samples=4, seed=seed % 97)
    assert rep["forms_agreement"] < 1e-9


# -- twist-shift correspondence ----------------------------------------------


def test_twist_shift_correspondence():
    G = invariant_structure()
    dec = cartan_split(G)
    f = dyn.canonical_field(G, dec)
    rng = np.random.default_rng(8)
    for _ in range(5):
        t = rskew(3, rng)
        Gt = twist.apply_twist(G, t)
        shifted = dyn.shifted_field(f, -t, target=Gt)
        rep = dyn.cdybe_residual(shifted, np.array([0.25]), samples=4)
        assert rep["cyclic_residual"] < 1e-9
        assert rep["vector_residual"] < 1e-9


# -- base-point dual algebras -------------------------------------------------


def test_vertex_dual_at_origin_and_generic_point():
    G = invariant_structure()
    dec = cartan_split(G)
    f = dyn.canonical_field(G, dec)
    for q0 in (np.zeros(1), np.array([0.35])):
        out = dyn.vertex_dual(q0, f)
        assert out.dim == 3
        rep = out.report
        assert rep["passed"], rep
        assert rep["jacobi_residual"] < TOL
        assert rep["isotropy_residual"] < TOL
        assert rep["bracket_agreement"] < TOL


def test_vertex_dual_full_base():
    G = invariant_structure()
    f = dyn.cocom_field(G)
    rng = np.random.default_rng(9)
    out = dyn.vertex_dual(0.3 * rng.standard_normal(3), f)
    assert out.report["passed"], out.report


def test_vertex_dual_abelian_with_cocycle():
    g = lie.LieAlgebraData(np.zeros((2, 2, 2)))
    w = np.zeros((2, 2, 2))
    w[0, 0, 1] = 1.0
    w[0, 1, 0] = -1.0
    G = qbia.QuasiBialgebra(g, w, np.zeros((2, 2, 2)))
    out = dyn.vertex_dual(np.array([0.2, -0.4]), dyn.zero_field(G))
    assert out.report["passed"], out.report


# -- gauge action -------------------------------------------------------------


def equivariant_gauge(scale1, scale2):
    """On the rank-one split only the first basis direction centralizes the
    subalgebra, so equivariant gauges take values along it."""
    c1 = np.zeros((3, 1))
    c1[0, 0] = scale1
    c2 = np.zeros((3, 1, 1))
    c2[0, 0, 0] = scale2
    return dyn.PolynomialMap(1, 3, coeff1=c1, coeff2=c2)


def test_gauge_zero_is_identity():
    G = invariant_structure()
    dec = cartan_split(G)
    f = dyn.canonical_field(G, dec)
    fg = dyn.gauge_transform(f, dyn.PolynomialMap(1, 3))
    p = np.array([0.3])
    assert np.max(np.abs(fg.value(p) - f.value(p))) < 1e-14
    assert np.max(np.abs(fg.derivative(p, np.ones(1))
                         - f.derivative(p, np.ones(1)))) < 1e-14


def test_gauge_preserves_system():
    G = invariant_structure()
    dec = cartan_split(G)
    f = dyn.canonical_field(G, dec)
    fg = dyn.gauge_transform(f, equivariant_gauge(0.4, 0.15))
    rep = dyn.cdybe_residual(fg, np.array([0.27]))
    assert rep["passed"]
    assert rep["cyclic_residual"] < 1e-10
    assert rep["derivative_fd_residual"] < 1e-6


def test_gauge_preserves_system_with_exact_cocycle():
    # twisting produces an exact cocycle, which the gauge's group-cocycle
    # term must absorb through the recovered potential
    G = invariant_structure()
    dec = cartan_split(G)
    f = dyn.canonical_field(G, dec)
    t = np.zeros((3, 3))
    t[1, 2] = 0.31
    t[2, 1] = -0.31
    Gt = twist.apply_twist(G, t)
    shifted = dyn.shifted_field(f, -t, target=Gt)
    fg = dyn.gauge_transform(shifted, equivariant_gauge(0.4, 0.15))
    assert np.max(np.abs(fg.potential - t)) < 1e-9
    rep = dyn.cdybe_residual(fg, np.array([0.27]))
    assert rep["passed"]
    assert rep["cyclic_residual"] < 1e-10


def test_gauge_action_law_nested_equals_flat():
    G = invariant_structure()
    dec = cartan_split(G)
    f = dyn.canonical_field(G, dec)
    s1 = equivariant_gauge(0.4, 0.0)
    s2 = equivariant_gauge(0.0, 0.15)
    nested = dyn.gauge_transform(dyn.gauge_transform(f, s1), s2)
    flat = dyn.gauge_transform(f, [s2, s1])
    p = np.array([0.3])
    a = np.ones(1)
    assert np.max(np.abs(nested.value(p) - flat.value(p))) < 1e-12
    assert np.max(np.abs(nested.derivative(p, a)
                         - flat.derivative(p, a))) < 1e-12


def test_gauge_roundtrip_inverse_factor():
    G = invariant_structure()
    dec = cartan_split(G)
    f = dyn.canonical_field(G, dec)
    s = equivariant_gauge(0.4, 0.15)
    sneg = dyn.PolynomialMap(1, 3, coeff1=-s.c1, coeff2=-s.c2)
    back = dyn.gauge_transform(dyn.gauge_transform(f, s), sneg)
    p = np.array([0.3])
    assert np.max(np.abs(back.value(p) - f.value(p))) < 1e-12


def test_gauge_rejects_bad_maps():
    G = invariant_structure()
    dec = cartan_split(G)
    f = dyn.canonical_field(G, dec)
    # value along a root vector does not centralize the subalgebra
    bad = np.zeros((3, 1))
    bad[1, 0] = 0.4
    with pytest.raises(dyn.NonEquivariantSigma):
        dyn.gauge_transform(f, dyn.PolynomialMap(1, 3, coeff1=bad))
    with pytest.raises(ValueError):
        dyn.gauge_transform(f, dyn.PolynomialMap(1, 3, coeff0=np.ones(3)))
    # no potential exists for a non-exact cocycle
    g = lie.LieAlgebraData(np.zeros((2, 2, 2)))
    w = np.zeros((2, 2, 2))
    w[0, 0, 1] = 1.0
    w[0, 1, 0] = -1.0
    Gw = qbia.QuasiBialgebra(g, w, np.zeros((2, 2, 2)))
    with pytest.raises(dyn.UnsupportedCocycle):
        dyn.gauge_transform(dyn.zero_field(Gw),
                            dyn.PolynomialMap(2, 2, coeff1=0.1 * np.eye(2)))


def test_gauged_domain_refuses_points_where_the_gauge_flow_overflows():
    # the gauge factor grows like p^2: its flow overflows past |p| ~ 47
    # while the base field is still in its domain
    G = invariant_structure()
    base = dyn.canonical_field(G, cartan_split(G))
    field = dyn.gauge_transform(base, equivariant_gauge(0.4, 0.15))
    for r in (48.0, 60.0, 100.0, -60.0):
        p = np.array([r])
        assert dyn.in_domain(p, base)["in_domain"]
        rep = dyn.in_domain(p, field)
        assert not rep["in_domain"] and rep["failing"] == "gauge-flow"
        for evaluate in (field.value, field._probe,
                         lambda q: field.derivative(q, np.ones(1))):
            with pytest.raises(dyn.OutOfDomain, match="gauge-flow"):
                evaluate(p)
    # inside, the values are those of the gauge flow
    for r in (0.3, 8.0, 30.0, 45.0, -48.0):
        p = np.array([r])
        assert dyn.in_domain(p, field) == dyn.in_domain(p, base)
        pre, theta, _, _ = field._gauge_data(p)
        lb = base.value(p)
        assert np.array_equal(field.value(p), pre @ lb @ pre.T + theta)
    assert dyn.cdybe_residual(field, np.array([45.0]))["passed"]


def test_cdybe_residual_reads_one_double_per_field(monkeypatch):
    G = invariant_structure()
    dec = cartan_split(G)
    base = dyn.canonical_field(G, dec)
    t = np.zeros((3, 3))
    t[1, 2], t[2, 1] = 0.31, -0.31
    Gt = twist.apply_twist(G, t)
    rng = np.random.default_rng(7)
    fields = [dyn.zero_field(G, dec),
              dyn.polynomial_field(G, dec, coeff0=rskew(3, rng),
                                   coeff1=np.stack([rskew(3, rng)])),
              dyn.shifted_field(base, -t, target=Gt),
              dyn.gauge_transform(base, equivariant_gauge(0.4, 0.15)),
              dyn.cocom_field(G), base]
    builds = count_calls(monkeypatch, qbia, "build_double")
    for field in fields:
        del builds[:]
        p = np.full(field.base_dim, 0.27)
        reps = [dyn.cdybe_residual(field, p) for _ in range(3)]
        assert reps[1] == reps[0] and reps[2] == reps[0]
        # built on first use by the kinds that need it nowhere else
        assert len(builds) <= 1
        assert field.double is field.G.double
        assert field.double.source is field.G
    assert fields[2].double.source is Gt
    # a derived field of the base's structure shares the base's double
    assert fields[3].double is base.double


# -- symmetry and transport checks --------------------------------------------


def test_inversion_symmetry():
    G = invariant_structure()
    dec = cartan_split(G)
    err = dyn.inversion_symmetry_check(G, dec, samples=15, seed=10)
    assert err < 1e-9


def test_morphism_transport():
    G = invariant_structure()
    dec = cartan_split(G)
    ident = np.eye(3)
    assert dyn.morphism_transport_check(ident, G, dec, G, dec) < TOL
    # inner automorphism generated by the subalgebra fixes it pointwise
    ups = scipy.linalg.expm(0.6 * G.g.ad_matrix(np.array([1.0, 0.0, 0.0])))
    err = dyn.morphism_transport_check(ups, G, dec, G, dec, samples=8, seed=11)
    assert err < 1e-9
    with pytest.raises(ValueError):
        dyn.morphism_transport_check(np.diag([1.0, 2.0, 3.0]), G, dec, G, dec)


def test_morphism_transport_with_empty_complement():
    # the full split leaves no complement, so the complement leakage is an
    # empty matrix; it must read as zero, not fail the reduction
    entry = catalog.get("so3-identity")
    assert len(entry.decomp.comp) == 0
    assert dyn.morphism_transport_check(np.eye(3), entry.G, entry.decomp,
                                        entry.G, entry.decomp) == 0.0


def test_adjoint_flow_transport_identity():
    G = invariant_structure()
    dec = cartan_split(G)
    rng = np.random.default_rng(12)
    for _ in range(5):
        p = 0.6 * rng.standard_normal(1)
        xi = np.zeros(3)
        xi[1:] = rng.standard_normal(2)
        rep = dyn.adjoint_transport_identity(G, dec, p, xi)
        assert rep["membership_residual"] < TOL
        assert rep["identity_residual"] < TOL
        assert rep["offdiag_identity_residual"] < TOL


# -- evaluation inside the domain ---------------------------------------------


@pytest.mark.parametrize("name", ["su2-lagrangian", "so3-identity"])
def test_in_domain_point_near_series_radius_evaluates(name):
    # spectral radius of the small double's ad(p) is 2.97, just inside the
    # 0.95 pi series guard, where matrix powers overflow long before the
    # series converges; the point is in the domain and must evaluate
    entry = catalog.get(name)
    field = dyn.canonical_field(entry.G, entry.decomp)
    p = np.array([-0.00965, 4.1003, 4.3104])
    assert dyn.in_domain(p, field)["in_domain"]
    assert dyn.cdybe_residual(field, p)["passed"]
    for z in np.eye(field.base_dim):
        assert dyn.equivariance_residual(field, p, z) <= 1e-8


# -- the record of the last base point -----------------------------------------


def cached_kinds():
    G = invariant_structure()
    entry = catalog.get("su2-lagrangian")
    return [dyn.cocom_field(G), dyn.canonical_field(G, cartan_split(G)),
            dyn.canonical_field(entry.G, entry.decomp)]


@pytest.mark.parametrize("which", [0, 1, 2])
def test_point_record_hands_out_copies(which):
    f = cached_kinds()[which]
    rng = np.random.default_rng(40 + which)
    p = dyn.sample_domain_points(f, 1, seed=which)[0]
    alpha = rng.standard_normal(f.base_dim)
    rep, val, der = dyn.in_domain(p, f), f.value(p), f.derivative(p, alpha)
    kept = dict(rep), val.copy(), der.copy()
    rep["in_domain"] = False
    rep["spectral_margin"] = -1.0
    val[...] = 7.0
    der[...] = 7.0
    assert dyn.in_domain(p, f) == kept[0]
    assert np.array_equal(f.value(p), kept[1])
    assert np.array_equal(f.derivative(p, alpha), kept[2])


def test_point_record_is_replaced_by_a_new_point(monkeypatch):
    G = invariant_structure()
    f = dyn.canonical_field(G, cartan_split(G))
    p1, p2 = np.array([0.3]), np.array([-0.7])
    calls = count_calls(monkeypatch, dyn.CanonicalField, "_domain_records")
    # the domain check's flow is the one value uses, once per point
    v1 = f.value(p1)
    assert dyn.in_domain(p1, f)["in_domain"]
    assert np.array_equal(f.value(p1), v1)
    assert len(calls) == 1
    v2 = f.value(p2)
    assert len(calls) == 2
    assert not np.array_equal(v1, v2)
    assert np.array_equal(f.value(p1), v1)
    assert len(calls) == 3


@pytest.mark.parametrize("which", [0, 1, 2])
def test_point_record_matches_a_fresh_field(which):
    f = cached_kinds()[which]
    k = f.base_dim
    rng = np.random.default_rng(50 + which)
    pts = dyn.sample_domain_points(f, 3, seed=which, scale=0.8)
    alphas = list(np.eye(k)) + [rng.standard_normal(k)]
    # forward then back, so records are rebuilt after other points
    for p in pts + pts[::-1]:
        fresh = cached_kinds()[which]
        assert dyn.in_domain(p, f) == dyn.in_domain(p, fresh)
        assert np.array_equal(f.value(p), fresh.value(p))
        for alpha in alphas:
            assert np.array_equal(f.derivative(p, alpha),
                                  fresh.derivative(p, alpha))
        assert np.array_equal(f.value(p), fresh.value(p))


def test_point_record_matches_a_fresh_field_at_a_rejected_point():
    G = invariant_structure()
    f = dyn.cocom_field(G)
    bad = 4.0 * np.pi * np.array([0.0, 1.0, -1.0])
    f.value(np.array([0.1, 0.2, 0.3]))
    rep = dyn.in_domain(bad, f)
    assert rep == dyn.in_domain(bad, dyn.cocom_field(G))
    assert rep["failing"] == "spectral-margin"
    for _ in range(2):
        with pytest.raises(dyn.OutOfDomain) as err:
            f.value(bad)
        with pytest.raises(dyn.OutOfDomain) as fresh_err:
            dyn.cocom_field(G).value(bad)
        assert str(err.value) == str(fresh_err.value)
        with pytest.raises(dyn.OutOfDomain):
            f.derivative(bad, np.ones(3))


# -- the vector form as a tensor, and the flow sweep ---------------------------


def reference_vector_form(field, p, samples=8, seed=0):
    """vector_residual and forms_agreement computed pair by pair: each term
    of the vector form re-derived through the double's bracket on embedded
    covectors, against the cyclic 3-tensor contracted with the same pair."""
    G = field.G
    g = G.g
    n = G.dim
    lmat = field.value(p)
    dl = np.zeros((n, n, n))
    for pos, i in enumerate(field.sub):
        e = np.zeros(field.base_dim)
        e[pos] = 1.0
        dl[i] = field.derivative(p, e)
    e3 = (dl.transpose(0, 2, 1)
          - np.einsum('ai,bj,abk->ijk', lmat, lmat, g.c)
          - np.einsum('ai,akj->ijk', lmat, G.varpi))
    cyclic = e3 + e3.transpose(1, 2, 0) + e3.transpose(2, 0, 1) - G.phi
    dbl = qbia.build_double(G)
    istar = field.inj.T
    dl_stack = dl[field.sub]

    def vec_form(xi, eta):
        lxi, leta = lmat @ xi, lmat @ eta
        dl_xi = np.einsum('a,aij->ij', istar @ xi, dl_stack)
        dl_eta = np.einsum('a,aij->ij', istar @ eta, dl_stack)
        grad = np.einsum('aij,i,j->a', dl_stack, xi, eta)
        b1 = dbl.d.bracket(dbl.embed(x=lxi), dbl.embed(xi=eta))
        b2 = dbl.d.bracket(dbl.embed(xi=xi), dbl.embed(x=leta))
        b3 = dbl.d.bracket(dbl.embed(xi=xi), dbl.embed(xi=eta))
        return (dl_xi @ eta - dl_eta @ xi - field.inj @ grad
                - g.bracket(lxi, leta)
                + lmat @ b1[n:] + lmat @ b2[n:] - b1[:n] - b2[:n]
                + lmat @ b3[n:] - b3[:n])

    eye = np.eye(n)
    vector_residual = 0.0
    agreement = 0.0
    for i in range(n):
        for j in range(n):
            v = vec_form(eye[i], eye[j])
            vector_residual = max(vector_residual, float(np.max(np.abs(v))))
            agreement = max(agreement,
                            float(np.max(np.abs(v - cyclic[i, j, :]))))
    rng = np.random.default_rng(seed)
    for _ in range(samples):
        xi = rng.standard_normal(n)
        eta = rng.standard_normal(n)
        v = vec_form(xi, eta)
        ref = np.einsum('ijk,i,j->k', cyclic, xi, eta)
        scalefac = 1.0 + float(np.linalg.norm(xi) * np.linalg.norm(eta))
        vector_residual = max(vector_residual,
                              float(np.max(np.abs(v))) / scalefac)
        agreement = max(agreement,
                        float(np.max(np.abs(v - ref))) / scalefac)
    return vector_residual, agreement


@pytest.mark.parametrize("name", catalog.names())
def test_vector_form_tensor_matches_pairwise_reference(name):
    entry = catalog.get(name)
    field = dyn.canonical_field(entry.G, entry.decomp)
    for p in dyn.sample_domain_points(field, 2, seed=3, scale=0.4):
        rep = dyn.cdybe_residual(field, p)
        vec_ref, agree_ref = reference_vector_form(field, p)
        tol = 1e-12 * (1.0 + float(np.max(np.abs(field.value(p))))) ** 2
        assert abs(rep["vector_residual"] - vec_ref) <= tol
        assert abs(rep["forms_agreement"] - agree_ref) <= tol


def test_vector_form_detects_perturbation():
    G = invariant_structure()
    f = dyn.canonical_field(G, cartan_split(G))
    bump = np.zeros((3, 3))
    bump[1, 2] = 0.05
    bump[2, 1] = -0.05
    broken = dyn.shifted_field(f, bump)
    rep = dyn.cdybe_residual(broken, np.array([0.3]))
    assert rep["vector_residual"] > 1e-4
    vec_ref, agree_ref = reference_vector_form(broken, np.array([0.3]))
    assert abs(rep["vector_residual"] - vec_ref) <= 1e-12
    assert abs(rep["forms_agreement"] - agree_ref) <= 1e-12


def derived_kinds():
    """A polynomial, a shifted and a gauged field over the rank-one split of
    the invariant sl2 structure."""
    G = invariant_structure()
    dec = cartan_split(G)
    base = dyn.canonical_field(G, dec)
    rng = np.random.default_rng(65)
    return [dyn.polynomial_field(G, dec, coeff0=rskew(3, rng),
                                 coeff1=rskew(3, rng)[None]),
            dyn.shifted_field(base, rskew(3, rng)),
            dyn.gauge_transform(base, equivariant_gauge(0.4, 0.15))]


def per_point_sweep(make_field, points):
    """flow_sweep's result from cdybe_residual and equivariance_residual
    at each point alone, on a fresh field per point."""
    want = dict.fromkeys(dyn.FLOW_TOLS, 0.0)
    for p in points:
        field = make_field()
        rep = dyn.cdybe_residual(field, p)
        rep["equivariance"] = max(dyn.equivariance_residual(field, p, z)
                                  for z in np.eye(field.base_dim))
        for key in want:
            want[key] = max(want[key], rep[key])
    return want


@pytest.mark.parametrize("name", catalog.names())
def test_flow_sweep_is_the_per_point_maximum(name, monkeypatch):
    # the stacked sweep is bitwise the per-point reports
    entry = catalog.get(name)
    # fields built apart: canonical_field returns the structure's kept one
    make = lambda: dyn.CanonicalField(entry.G, entry.decomp)
    for count in (2, 3):
        # sampled on another copy, so the swept field keeps no record
        points = dyn.sample_domain_points(make(), count, seed=11, scale=0.8)
        want = per_point_sweep(make, points)
        field = make()
        k = field.base_dim
        passes = count_calls(monkeypatch, dyn.CanonicalField,
                             "_domain_records")
        values = count_calls(monkeypatch, dyn.CanonicalField,
                             "_closed_form_values")
        assert dyn.flow_sweep(field, points) == want
        monkeypatch.undo()
        # one domain pass and one value call for the points, then one
        # pass for all their finite-difference probes
        assert [len(ps) for _, ps in passes] == [count, 4 * k * count]
        assert [len(recs) for _, recs in values] == [count, 4 * k * count]
        assert list(field._records) == [p.tobytes() for p in points]
    with pytest.raises(ValueError):
        dyn.flow_sweep(make(), [])


@pytest.mark.parametrize("which", [0, 1, 2])
def test_stacked_flow_sweep_of_derived_and_polynomial_fields(which):
    points = dyn.sample_domain_points(derived_kinds()[which], 3, seed=12,
                                      scale=0.6)
    want = per_point_sweep(lambda: derived_kinds()[which], points)
    assert dyn.flow_sweep(derived_kinds()[which], points) == want
    assert dyn.flow_sweep(derived_kinds()[which], points[:2]) == (
        per_point_sweep(lambda: derived_kinds()[which], points[:2]))


def test_flow_checks_leave_the_point_record_at_the_point(monkeypatch):
    # the finite-difference probes are one stacked pass that keeps no
    # record, so the one record of p serves every check that follows
    entry = catalog.get("ev-sl3")
    field = dyn.canonical_field(entry.G, entry.decomp)
    p = np.array([0.3, -0.2])
    passes = count_calls(monkeypatch, dyn.CanonicalField, "_domain_records")
    dyn.cdybe_residual(field, p)
    for z in np.eye(field.base_dim):
        dyn.equivariance_residual(field, p, z)
    assert [len(points) for _, points in passes] == [1, 4 * field.base_dim]
    assert np.array_equal(passes[0][1], [p])
    assert list(field._records) == [p.tobytes()]
    rec = field._records[p.tobytes()]
    assert dyn.in_domain(p, field)["in_domain"]
    assert len(passes) == 2 and list(field._records) == [p.tobytes()]
    assert field._records[p.tobytes()] is rec


# -- the derivative jet of the point record -----------------------------------


def count_calls(monkeypatch, owner, attr):
    """Count the calls of owner.attr; returns the list of call arguments."""
    calls = []
    orig = getattr(owner, attr)

    def counted(*args):
        calls.append(args)
        return orig(*args)

    monkeypatch.setattr(owner, attr, counted)
    return calls


def test_canonical_field_is_kept_per_structure_and_split():
    G = invariant_structure()
    dec = cartan_split(G)
    field = dyn.canonical_field(G, dec)
    assert dyn.canonical_field(G, dec) is field
    assert field.double is G.double
    # another split, the full one here, replaces the kept field
    full = dyn.canonical_field(G)
    assert full is not field and full.base_dim == 3
    assert dyn.canonical_field(G) is full
    again = dyn.canonical_field(G, dec)
    assert again is not field and again.base_dim == 1
    # the key is the split object: equal indices in another object miss
    assert dyn.canonical_field(G, cartan_split(G)) is not again
    # decomp=None resolves to the structure's own split first
    Gd = qbia.QuasiBialgebra(G.g, G.varpi, G.phi, decomp=dec)
    assert dyn.canonical_field(Gd) is dyn.canonical_field(Gd, dec)
    kept = dyn.canonical_field(Gd)
    assert dyn.canonical_field(Gd, full.decomp) is not kept


@pytest.mark.parametrize("name", ["ev-sl3", "su2-lagrangian", "sl2-cartan",
                                  "sl3-invariant"])
def test_value_and_jet_read_the_record_bitwise(name):
    # the record's value and jet are bitwise value and the stack of
    # derivative along each e_b, and they are copies
    field = field_by_name(name)
    k = field.base_dim
    for p in dyn.sample_domain_points(field, 3, seed=5, scale=0.6):
        lmat, dl = field._value_and_jet(p)
        assert np.array_equal(lmat, field.value(p))
        want = np.stack([field.derivative(p, e) for e in np.eye(k)])
        assert np.array_equal(dl, want)
        dl[...] = np.nan
        assert np.array_equal(field._value_and_jet(p)[1], want)
    with pytest.raises(dyn.OutOfDomain):
        field._value_and_jet(np.full(k, 1e3))


@pytest.mark.parametrize("name", catalog.names())
def test_derivative_is_linear_in_the_basis_jet(name, monkeypatch):
    entry = catalog.get(name)
    field = dyn.canonical_field(entry.G, entry.decomp)
    k, n = field.base_dim, field.G.dim
    frechet = count_calls(monkeypatch, linalg, "expm_frechet")
    rng = np.random.default_rng(60)
    for p in dyn.sample_domain_points(field, 3, seed=7, scale=1.0):
        # along 0 the derivative is exact zeros and nothing is computed
        del frechet[:]
        dl0 = field.derivative(p, np.zeros(k))
        assert np.array_equal(dl0, np.zeros((n, n)))
        assert not frechet
        rec = field._at(p)
        assert rec["jet"] is None
        # a single direction is a stack of one
        for e in np.eye(k):
            assert np.array_equal(field.derivative(p, e),
                                  field._closed_form_derivative(
                                      rec, e[None],
                                      field._family_ads(e[None]))[0][0])
        for _ in range(3):
            alpha = rng.standard_normal(k)
            direct = field._closed_form_derivative(
                rec, alpha[None], field._family_ads(alpha[None]))[0][0]
            err = np.max(np.abs(field.derivative(p, alpha) - direct))
            assert err <= 1e-13 * (1.0 + np.max(np.abs(direct)))
        with pytest.raises(ValueError):
            field.derivative(p, np.ones(k + 1))


@on_both_routes(catalog.names())
def test_stacked_jet_is_bitwise_each_direction_alone(name, route):
    field = field_on_route(name, route)
    k = field.base_dim
    rng = np.random.default_rng(62)
    for p in dyn.sample_domain_points(field, 2, seed=9, scale=1.5):
        field._require_domain(p)
        rec = field._at(p)
        alphas = np.vstack([np.eye(k), rng.standard_normal((2, k))])
        dls, dbigs = field._closed_form_derivative(
            rec, alphas, field._family_ads(alphas))
        for i, alpha in enumerate(alphas):
            dl, dbig = field._closed_form_derivative(
                rec, alpha[None], field._family_ads(alpha[None]))
            assert np.array_equal(dls[i], dl[0])
            assert np.array_equal(dbigs[i], dbig[0])
        # the record's jet is the pass over the base basis
        jet = field._jet(rec)
        assert np.array_equal(jet[0], dls[:k])
        assert np.array_equal(jet[1], dbigs[:k])


@pytest.mark.parametrize("name", catalog.names())
def test_model_route_matches_the_general_route(name):
    # near the origin both routes are accurate, so they agree to roundoff;
    # further out the general route's solve(M, N) loses digits (see
    # test_oracle.py)
    model = field_by_name(name)
    general = general_route(field_by_name(name))
    assert model.route in ("commuting", "cubic")
    assert general.route == "general"
    k = model.base_dim
    rng = np.random.default_rng(63)
    for r in (0.01, 0.3, 1.0, 2.5, 5.0):
        u = rng.standard_normal(k)
        p = r * u / np.linalg.norm(u)
        want = dyn.in_domain(p, general)
        got = dyn.in_domain(p, model)
        assert got["in_domain"] == want["in_domain"]
        assert got["failing"] == want["failing"]
        if not want["in_domain"]:
            continue
        for key in ("spectral_margin", "block_condition"):
            assert abs(got[key] - want[key]) <= 1e-13 * want[key], key
        pairs = [(model.value(p), general.value(p))]
        rm, rg = model._at(p), general._at(p)
        pairs += list(zip(model._jet(rm), general._jet(rg)))
        pairs.append((rm["big"], rg["big"]))
        for got_m, want_m in pairs:
            err = np.max(np.abs(got_m - want_m))
            assert err <= 1e-13 * (1.0 + np.max(np.abs(want_m)))


@pytest.mark.parametrize("name", ["sl2-cartan", "su2-lagrangian",
                                  "so3-identity", "sl3-invariant"])
def test_domain_report_gives_the_bounded_condition(name):
    # cubic fields report cond(TM) of the bounded system where they take
    # it (mu >= spectral.GRADED_MU); it stays near 2 while cond(M), which
    # the domain rule reads, grows to the edge
    field = field_by_name(name)
    e0 = np.eye(field.base_dim)[0]
    for r in (0.1, 1.0, 5.0, 20.0, 40.0):
        rep = dyn.in_domain(r * e0, field)
        assert set(rep) == {"in_domain", "spectral_margin", "block_condition",
                            "bounded_condition", "failing"}
        if field.route == "cubic" and r >= 2.0 * spectral.GRADED_MU:
            assert 1.0 <= rep["bounded_condition"] <= 4.0
            if r >= 20.0:
                assert rep["block_condition"] > 1e4
        else:
            assert np.isnan(rep["bounded_condition"])


@pytest.mark.parametrize("name", ["sl2-cartan", "ev-sl3", "su2-lagrangian",
                                  "sl3-invariant"])
def test_sweep_op_builds_one_record_and_one_frechet_pair_per_direction(
        name, monkeypatch):
    # one op of the sweep: the domain check, both forms of the flow
    # equations, then equivariance along every base basis direction
    field = field_by_name(name)
    k = field.base_dim
    # points sampled on another copy of the field, which keeps their
    # records: a sweep op's field has not seen its point
    points = dyn.sample_domain_points(field_by_name(name), 2, seed=8,
                                      scale=1.0)
    passes = count_calls(monkeypatch, dyn.CanonicalField, "_domain_records")
    frechet = count_calls(monkeypatch, linalg, "expm_frechet")
    for p in points:
        del passes[:], frechet[:]
        assert dyn.in_domain(p, field)["in_domain"]
        assert dyn.cdybe_residual(field, p)["passed"]
        for z in np.eye(k):
            assert dyn.equivariance_residual(field, p, z) <= 1e-8
        # the record of p, then one pass over the 4k finite-difference
        # probes
        assert [len(points) for _, points in passes] == [1, 4 * k]
        # the flow's derivatives along all k base directions come from one
        # kernel call on the general route, and from the spectral model's
        # closed form with no kernel call on the model route
        n2 = 2 * field.G.dim
        want = [(k, n2, n2)] if field.route == "general" else []
        assert [e.shape for _, e in frechet] == want


def test_probe_equals_value_and_leaves_the_record():
    G = invariant_structure()
    dec = cartan_split(G)
    base = dyn.canonical_field(G, dec)
    fields = cached_kinds() + [
        dyn.shifted_field(base, rskew(3, np.random.default_rng(61))),
        dyn.gauge_transform(base, equivariant_gauge(0.4, 0.15)),
        dyn.polynomial_field(G, dec, coeff0=rskew(3, np.random.default_rng(62)))]
    for field in fields:
        p, q = dyn.sample_domain_points(field, 2, seed=9)
        field.value(p)
        owner = getattr(field, "base", field)
        # every field here but the polynomial one evaluates through a record
        kept = getattr(owner, "_records", None)
        assert (kept is None) == isinstance(field, dyn.PolynomialField)
        kept = dict(kept or {})
        probe = field._probe(q)
        after = getattr(owner, "_records", {})
        assert list(after) == list(kept)
        assert all(after[key] is rec for key, rec in kept.items())
        assert np.array_equal(probe, field.value(q))


def test_finite_difference_probe_outside_the_domain_raises():
    # a point just inside the block-condition edge whose forward probe
    # p + h e_0 lies outside it
    entry = catalog.get("su2-lagrangian")
    field = dyn.canonical_field(entry.G, entry.decomp)
    e0 = np.eye(field.base_dim)[0]
    inside, outside = 1.0, 1.0
    while dyn.in_domain(outside * e0, field)["in_domain"]:
        inside, outside = outside, 1.25 * outside
    while outside - inside > 0.25 * linalg.CBRT_EPS * (1.0 + inside):
        mid = 0.5 * (inside + outside)
        if dyn.in_domain(mid * e0, field)["in_domain"]:
            inside = mid
        else:
            outside = mid
    p = inside * e0
    step = linalg.CBRT_EPS * (1.0 + inside)
    assert dyn.in_domain(p, field)["in_domain"]
    assert not dyn.in_domain(p + step * e0, field)["in_domain"]
    with pytest.raises(dyn.OutOfDomain):
        dyn.cdybe_residual(field, p)
    with pytest.raises(dyn.OutOfDomain):
        field._probe(p + step * e0)


def ray_points(field, seed, cap=64.0, rays=2):
    """In-domain points along seeded rays: norms from 0.01 up by 1.5x while
    the ray stays in the domain (and below cap), then a point just inside
    the edge when the ray leaves it."""
    rng = np.random.default_rng(seed)
    pts = []
    for _ in range(rays):
        u = rng.standard_normal(field.base_dim)
        u /= np.linalg.norm(u)
        inside, t = None, 0.01
        while t <= cap and dyn.in_domain(t * u, field)["in_domain"]:
            pts.append(t * u)
            inside, t = t, 1.5 * t
        if t <= cap and inside is not None:
            for _ in range(10):
                mid = 0.5 * (inside + t)
                if dyn.in_domain(mid * u, field)["in_domain"]:
                    inside = mid
                else:
                    t = mid
            pts.append(inside * u)
    return np.array(pts)


@on_both_routes(catalog.names())
def test_stacked_pass_is_bitwise_the_value_at_each_point(name, route):
    field = field_on_route(name, route)
    pts = ray_points(field, seed=70)
    assert len(pts) > 10
    reports = [rec["report"] for rec in field._domain_records(pts)]
    stacked = field._probe(pts)
    for q, rep, val in zip(pts, reports, stacked):
        assert rep == dyn.in_domain(q, field)
        assert np.array_equal(val, field.value(q))


def test_stacked_pass_is_bitwise_the_value_for_every_kind():
    G = invariant_structure()
    base = dyn.canonical_field(G, cartan_split(G))
    for field, cap in (
            (dyn.cocom_field(G), 64.0),
            (dyn.shifted_field(base, rskew(3, np.random.default_rng(72))), 64.0),
            # the gauge factor grows like p^2 and its flow overflows far out
            (dyn.gauge_transform(base, equivariant_gauge(0.4, 0.15)), 8.0)):
        pts = ray_points(field, seed=71, cap=cap)
        assert len(pts) > 10
        for q, val in zip(pts, field._probe(pts)):
            assert np.array_equal(val, field.value(q))


def test_stacked_pass_raises_for_the_first_point_outside_the_domain():
    entry = catalog.get("su2-lagrangian")
    field = dyn.canonical_field(entry.G, entry.decomp)
    e0 = np.eye(field.base_dim)[0]
    inside = list(dyn.sample_domain_points(field, 2, seed=73))
    # a finite block condition past the edge, and an overflowed flow
    far, overflowed = 60.0 * e0, 1e5 * e0
    messages = []
    for q in (far, overflowed):
        with pytest.raises(dyn.OutOfDomain) as err:
            field.value(q)
        messages.append(str(err.value))
    assert messages[0] != messages[1]
    for order, want in (((far, overflowed), messages[0]),
                        ((overflowed, far), messages[1])):
        with pytest.raises(dyn.OutOfDomain) as err:
            field._probe(np.array(inside + list(order)))
        assert str(err.value) == want


def test_zero_small_double_slices_make_no_eig_call(monkeypatch):
    # 7 of the 9 entries have an abelian subalgebra: the small double's
    # ad(p) is 0 at every point; the other two have a cubic small double.
    # Every entry's spectral model gives F in closed form, with no eig; on
    # the general route the margin and F share one eig call on the distinct
    # slices of the stack: the zero matrix alone on the abelian entries
    abelian = 0
    for name in catalog.names():
        for route in ("model", "general"):
            field = field_on_route(name, route)
            k = field.base_dim
            p = dyn.sample_domain_points(field, 1, seed=74)[0]
            field.value(p)
            probes = p + 1e-3 * np.concatenate([np.eye(k), -np.eye(k)])
            zero = not np.any(field.small_double.d.ad[k:])
            calls = count_calls(monkeypatch, np.linalg, "eig")
            field._probe(probes)
            monkeypatch.undo()
            if route == "general":
                sizes = [len(args[0]) for args in calls]
                assert sizes == ([1] if zero else [2 * k]), name
            else:
                assert field.route != "general" and not calls, name
        abelian += zero
    assert abelian == 7


def flow_tensors(field, p):
    """The cyclic and vector forms of the flow equations at p as 3-tensors,
    formed exactly as cdybe_residual forms them."""
    G = field.G
    n = G.dim
    lmat = field.value(p)
    dl = np.zeros((n, n, n))
    for i, e in zip(field.sub, np.eye(field.base_dim)):
        dl[i] = field.derivative(p, e)
    e3 = (dl.transpose(0, 2, 1)
          - np.einsum('ai,bj,abk->ijk', lmat, lmat, G.g.c)
          - np.einsum('ai,akj->ijk', lmat, G.varpi))
    cyclic = e3 + e3.transpose(1, 2, 0) + e3.transpose(2, 0, 1) - G.phi
    cd = field.double.d.c
    brk = (np.einsum('ai,ajm->ijm', lmat, cd[:n, n:])
           + np.einsum('bj,ibm->ijm', lmat, cd[n:, :n]) + cd[n:, n:])
    vec = (dl.transpose(0, 2, 1) - dl.transpose(2, 0, 1)
           - dl.transpose(1, 2, 0)
           - np.einsum('ai,bj,abk->ijk', lmat, lmat, cd[:n, :n, :n])
           + np.einsum('km,ijm->ijk', lmat, brk[:, :, n:]) - brk[:, :, :n])
    return cyclic, vec


@pytest.mark.parametrize("samples", [-1, 0, 4])
@pytest.mark.parametrize("name", ["sl2-cartan", "ev-sl3", "su2-lagrangian"])
def test_sampled_pairs_are_bitwise_the_pair_loop(name, samples):
    entry = catalog.get(name)
    field = dyn.canonical_field(entry.G, entry.decomp)
    for p in dyn.sample_domain_points(field, 2, seed=75, scale=0.8):
        rep = dyn.cdybe_residual(field, p, samples=samples, seed=76)
        cyclic, vec = flow_tensors(field, p)
        vector_residual = qbia._max_abs(vec)
        agreement = qbia._max_abs(vec - cyclic)
        rng = np.random.default_rng(76)
        for _ in range(samples):
            xi = rng.standard_normal(field.G.dim)
            eta = rng.standard_normal(field.G.dim)
            v = np.einsum('ijk,i,j->k', vec, xi, eta)
            ref = np.einsum('ijk,i,j->k', cyclic, xi, eta)
            scalefac = 1.0 + float(np.linalg.norm(xi) * np.linalg.norm(eta))
            vector_residual = max(vector_residual,
                                  float(np.max(np.abs(v))) / scalefac)
            agreement = max(agreement,
                            float(np.max(np.abs(v - ref))) / scalefac)
        assert rep["vector_residual"] == vector_residual
        assert rep["forms_agreement"] == agreement


def test_fd_check_converges_where_the_central_difference_did_not():
    # sl2-involution is periodic in the far field; at |p| = 56.7 the
    # central difference alone is off the exact derivative by 5.1e-6
    entry = catalog.get("sl2-involution")
    field = dyn.canonical_field(entry.G, entry.decomp)
    for p in (np.array([56.7]), np.array([-56.7])):
        assert dyn.in_domain(p, field)["in_domain"]
        rep = dyn.cdybe_residual(field, p)
        assert rep["derivative_fd_residual"] <= 1e-10


@pytest.mark.parametrize("name", ["sl2-cartan", "ev-sl3", "su2-lagrangian"])
def test_fd_check_fails_a_wrong_derivative(name, monkeypatch):
    entry = catalog.get(name)
    field = dyn.canonical_field(entry.G, entry.decomp)
    p = dyn.sample_domain_points(field, 1, seed=77)[0]
    assert dyn.cdybe_residual(field, p)["derivative_fd_residual"] <= 1e-6
    right = field.derivative
    bump = rskew(field.G.dim, np.random.default_rng(78), scale=1e-4)
    for wrong in (lambda q, alpha: 1.001 * right(q, alpha),
                  lambda q, alpha: right(q, alpha) + bump):
        monkeypatch.setattr(field, "derivative", wrong)
        rep = dyn.cdybe_residual(field, p)
        assert rep["derivative_fd_residual"] > 1e-6


def _ref_vertex_dual(q0, field):
    """The dual algebra at q0 pair by pair: the bracket formula on each
    ordered basis pair and one least-squares expansion per pair.  Returns
    the structure constants and the six report residuals."""
    G = field.G
    g = G.g
    n = G.dim
    l0 = field.value(q0)
    l0 = 0.5 * (l0 - l0.T)
    sub, comp = field.sub, field.comp
    k = len(sub)
    w = G.varpi
    inj = field.inj
    zs, xis = [], []
    for a in range(k):
        zs.append(np.eye(k)[a])
        xis.append(inj @ np.einsum('bm,m->b', field.sub_c[a], q0))
    for b in comp:
        zs.append(np.zeros(k))
        xis.append(np.eye(n)[b])

    def wmap(x):
        return np.einsum('i,iab->ab', x, w)

    def bracket_star(z1, xi1, z2, xi2):
        iz1, iz2 = inj @ z1, inj @ z2
        l1, l2 = l0 @ xi1, l0 @ xi2
        wvec = np.array([xi1 @ w[i] @ xi2 for i in range(n)])
        ad = g.ad_matrix
        gpart = (inj @ np.einsum('a,b,abm->m', z1, z2, field.sub_c)
                 + wmap(iz1) @ xi2 + ad(iz1) @ l2 + l0 @ (ad(iz1).T @ xi2)
                 - wmap(iz2) @ xi1 - ad(iz2) @ l1 - l0 @ (ad(iz2).T @ xi1)
                 + g.bracket(l1, l2)
                 + l0 @ (ad(l1).T @ xi2) - l0 @ (ad(l2).T @ xi1)
                 + wmap(l1) @ xi2 - wmap(l2) @ xi1
                 - np.einsum('im,i->m', l0, wvec)
                 + np.einsum('abm,a,b->m', G.phi, xi1, xi2))
        xipart = (-ad(iz1).T @ xi2 + ad(iz2).T @ xi1 - wvec
                  - ad(l1).T @ xi2 + ad(l2).T @ xi1)
        return gpart, xipart

    dim = k + len(comp)
    cstar = np.zeros((dim, dim, dim))
    closure = 0.0
    for a in range(dim):
        for b in range(dim):
            gpart, xipart = bracket_star(zs[a], xis[a], zs[b], xis[b])
            closure = max(closure, qbia._max_abs(np.delete(gpart, sub)))
            znew = gpart[sub]
            rem = xipart - sum(znew[pos] * xis[pos] for pos in range(k))
            closure = max(closure, qbia._max_abs(rem[sub]))
            cstar[a, b, :k] = znew
            cstar[a, b, k:] = rem[comp]
    skew = qbia._max_abs(cstar + cstar.transpose(1, 0, 2))
    cstar = 0.5 * (cstar - cstar.transpose(1, 0, 2))
    jac = lie.LieAlgebraData(cstar, check=False).jacobi_residual()
    dtw = qbia.build_double(twist.apply_twist(G, l0))
    basis = np.array([dtw.embed(x=inj @ zs[a], xi=xis[a])
                      for a in range(dim)])
    iso = qbia._max_abs(basis @ dtw.pairing @ basis.T)
    agree = 0.0
    dbl_closure = 0.0
    for a in range(dim):
        for b in range(dim):
            v = dtw.d.bracket(basis[a], basis[b])
            coef, _, _, _ = np.linalg.lstsq(basis.T, v, rcond=None)
            dbl_closure = max(dbl_closure, qbia._max_abs(basis.T @ coef - v))
            agree = max(agree, qbia._max_abs(coef - cstar[a, b]))
    return cstar, {"antisymmetry_residual": skew, "jacobi_residual": jac,
                   "formula_closure_residual": closure,
                   "isotropy_residual": iso,
                   "double_closure_residual": dbl_closure,
                   "bracket_agreement": agree}


@pytest.mark.parametrize("name", catalog.names())
def test_vertex_dual_matches_the_per_pair_construction(name):
    entry = catalog.get(name)
    f = dyn.canonical_field(entry.G, entry.decomp)
    for q0 in dyn.sample_domain_points(f, 2, seed=27, scale=0.4):
        out = dyn.vertex_dual(q0, f)
        cstar, ref = _ref_vertex_dual(q0, f)
        scale = 1.0 + qbia._max_abs(cstar)
        assert qbia._max_abs(out.c - cstar) <= 1e-12 * scale
        for key, value in ref.items():
            assert abs(out.report[key] - value) <= 1e-12 * scale, key
        assert out.report["passed"] == (max(ref.values()) <= dyn.CERT_TOL)
