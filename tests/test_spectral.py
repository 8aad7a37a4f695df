"""Tests for the closed-form spectral models of adjoint families."""

import math

import mpmath as mp
import numpy as np
import pytest

from dynlie import catalog, dynamics as dyn, lie, linalg, qbia, spectral


def _coeffs_mp(s):
    """g1, g2, g1', g2', h, h' at s != 0 in mpmath, by their closed forms
    in mu = sqrt(s) and numerical differentiation in s."""
    def mu(x):
        return mp.sqrt(x) if x >= 0 else mp.mpc(0, mp.sqrt(-x))

    def g1(x):
        return mp.re(mp.sinh(mu(x)) / mu(x))

    def g2(x):
        return mp.re((mp.cosh(mu(x)) - 1) / x)

    def h(x):
        return mp.re((mp.coth(mu(x)) - 1 / mu(x)) / mu(x))

    with mp.workdps(40):
        s = mp.mpf(s)
        return [float(v) for v in (g1(s), g2(s), mp.diff(g1, s),
                                   mp.diff(g2, s), h(s), mp.diff(h, s))]


@pytest.mark.parametrize("s", [-30.0, -2.0, -1.0 - 1e-12, -1.0 + 1e-12, -0.3,
                               1e-6, 0.4, 1.0 - 1e-12, 1.0 + 1e-12, 3.0,
                               40.0, 600.0])
def test_cubic_coefficients_match_mpmath(s):
    # both sides of the switch between the Taylor series and the closed
    # forms at |s| = SERIES_S, on both signs of s
    got = spectral.cubic_coeffs(np.array([s]))[0]
    assert got[spectral.S] == s
    for value, want in zip(got[1:], _coeffs_mp(s)):
        assert abs(value - want) <= 1e-13 * abs(want)


# the AnalyticFunctions of the trivialization, with exp, by their mpmath
# closed forms
_EXP = linalg.AnalyticFunction(
    "exp", [1.0 / math.factorial(k) for k in range(170)], np.inf, np.exp,
    np.exp)
_MP_FUNCTIONS = [
    (linalg.SINH_REM, lambda z: (mp.sinh(z) - z) / z ** 2, 0),
    (linalg.SINHC, lambda z: mp.sinh(z) / z, 1),
    (linalg.SINH, mp.sinh, 0),
    (linalg.TRIV_REM, lambda z: 1 / z - 1 / mp.sinh(z), 0),
    (linalg.INV_SINHC, lambda z: z / mp.sinh(z), 1),
    (_EXP, mp.exp, 1),
]


def _interpolation_mp(f, f0, s):
    """c1, c2, c1', c2' of f at s != 0 in mpmath: Sylvester's
    interpolation through f(0) and f(+-mu), mu = sqrt(s), and numerical
    differentiation in s."""
    def mu(x):
        return mp.sqrt(x) if x >= 0 else mp.mpc(0, mp.sqrt(-x))

    def c1(x):
        return mp.re((f(mu(x)) - f(-mu(x))) / (2 * mu(x)))

    def c2(x):
        return mp.re((f(mu(x)) + f(-mu(x)) - 2 * f0) / (2 * x))

    with mp.workdps(40):
        s = mp.mpf(s)
        return [float(v) for v in (c1(s), c2(s), mp.diff(c1, s),
                                   mp.diff(c2, s))]


@pytest.mark.parametrize("s", [-30.0, -2.0, -1.0 - 1e-12, -1.0 + 1e-12, -0.3,
                               1e-6, 0.4, 1.0 - 1e-12, 1.0 + 1e-12, 3.0,
                               40.0, 600.0])
def test_interpolation_coefficients_match_mpmath(s):
    # the generic coefficients of every function the trivialization applies
    # on a cubic family, on both sides of |s| = SERIES_S and both signs of
    # s; a coefficient that vanishes by parity must come out exactly 0
    for fn, f, f0 in _MP_FUNCTIONS:
        got = spectral.interpolation_coeffs(fn, np.array([s]))[0]
        for value, want in zip(got, _interpolation_mp(f, f0, s)):
            assert abs(value - want) <= 1e-13 * abs(want), (fn, value, want)


def _families(name):
    if name == "sl3-invariant":
        g = catalog.sl3_chevalley()
        binv = np.linalg.inv(g.killing_form())
        phi = 0.25 * np.einsum("ja,kb,abi->ijk", binv, binv, g.c)
        G = qbia.QuasiBialgebra(g, np.zeros((8, 8, 8)),
                                linalg.antisymmetrize3(phi))
        field = dyn.canonical_field(G)
    else:
        entry = catalog.get(name)
        field = dyn.canonical_field(entry.G, entry.decomp)
    return field, field._basis_ads


@pytest.mark.parametrize("name,kinds", [
    ("abelian", ("commuting", "commuting")),
    ("ev-sl3", ("commuting", "commuting")),
    ("sl2-involution", ("commuting", "commuting")),
    ("su2-lagrangian", ("cubic", "cubic")),
    ("so3-identity", ("cubic", "cubic")),
    ("sl3-invariant", (None, None)),
])
def test_build_accepts_only_what_its_check_passes(name, kinds):
    _, families = _families(name)
    models = [spectral.build(basis) for basis in families]
    assert tuple(getattr(m, "kind", None) for m in models) == kinds
    # a model depends on its basis alone, and a rebuilt structure reuses it
    assert [spectral.build(basis.copy()) for basis in families] == models


@pytest.mark.parametrize("name", ["sl2-involution", "ev-sl3",
                                  "su2-lagrangian"])
def test_model_flow_and_margin_match_mpmath_and_eig(name):
    # the flow against a 30-digit mpmath expm (scipy's expm is itself off
    # by up to 1e-12 relative on these matrices), the margin against the
    # eigenvalues of the small double's adjoint
    field, (big, small) = _families(name)
    mbig, msmall = spectral.build(big), spectral.build(small)
    rng = np.random.default_rng(90)
    ps = rng.standard_normal((4, field.base_dim)) * np.array(
        [0.01, 1.0, 8.0, 20.0])[:, None]
    a = spectral.combine(ps, big)
    got = mbig.exp_neg(mbig.data(ps, a), a)
    a_small = spectral.combine(ps, small)
    margin = msmall.margin(msmall.data(ps, a_small))
    for x, e, xs, m in zip(a, got, a_small, margin):
        with mp.workdps(30):
            want = mp.expm(-mp.matrix(x.tolist()))
            want = np.array(want.tolist(), dtype=float)
        assert np.max(np.abs(e - want)) <= 1e-14 * np.max(np.abs(want))
        dense = np.min(linalg._dist_to_ipi_nonzero(np.linalg.eigvals(xs)))
        assert abs(m - dense) <= 1e-12


def test_the_bounded_system_has_the_ratio_of_the_flow():
    # at moderate norm both forms of M^-1 N are accurate
    field, (big, _) = _families("su2-lagrangian")
    model = spectral.build(big)
    n = field.G.dim
    ps = np.array([[1.5, -2.0, 0.5], [4.0, 1.0, -3.0]])
    a = spectral.combine(ps, big)
    d = model.data(ps, a)
    g = model.graded(d, a, n)
    e = model.exp_neg(d, a)
    for tm, tn, x in zip(g["tm"], g["tn"], e):
        want = np.linalg.solve(x[:n, :n], x[:n, n:])
        got = np.linalg.solve(tm, tn)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        assert np.linalg.cond(tm) < 4.0


def test_an_indefinite_cubic_family_matches_the_general_route():
    # sl2 with its invariant 3-tensor over the full split: both adjoint
    # families are cubic with s(p) of either sign, so the margin comes from
    # mu = i sqrt(-s) where s < 0, and the flow from the trigonometric forms
    g = lie.sl2_data()
    binv = np.linalg.inv(g.killing_form())
    phi = 0.25 * np.einsum("ja,kb,abi->ijk", binv, binv, g.c)
    phi = linalg.antisymmetrize3(phi)
    model = dyn.canonical_field(
        qbia.QuasiBialgebra(g, np.zeros((3, 3, 3)), phi))
    # the general route, the reference, on a second copy of the structure
    # (canonical_field keeps one field per structure)
    general = dyn.canonical_field(
        qbia.QuasiBialgebra(g, np.zeros((3, 3, 3)), phi))
    general._models = spectral.GENERAL
    assert model.route == "cubic"
    rng = np.random.default_rng(91)
    signs = set()
    for r in (0.1, 1.0, 3.0, 8.0, 20.0):
        p = r * rng.standard_normal(3)
        small = model._models[1]
        d = small.data(p[None], spectral.combine(p[None], small.basis))
        signs.add(float(np.sign(d[0, spectral.S])))
        got, want = dyn.in_domain(p, model), dyn.in_domain(p, general)
        assert got["in_domain"] == want["in_domain"]
        assert abs(got["spectral_margin"] - want["spectral_margin"]) <= 1e-12
        if not want["in_domain"]:
            continue
        for x, y in [(model.value(p), general.value(p))] + [
                (model.derivative(p, e), general.derivative(p, e))
                for e in np.eye(3)]:
            assert np.max(np.abs(x - y)) <= 1e-11 * (1.0 + np.max(np.abs(y)))
    assert signs == {-1.0, 1.0}
