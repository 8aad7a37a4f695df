"""Matrix-function layer: frozen scalar values, the eigen route against a
high-precision oracle, the series fallback, derivative identities, and the
error paths."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from dynlie import catalog, dynamics, linalg
from dynlie.lie import sl2_data

# reference values, frozen from independent scalar evaluations
SINHC_AT_2 = 1.8134302039235093          # sinh(2)/2
F_AT_1 = 0.31303528549933124             # coth(1) - 1
EXPM1_OVER_AT_M1 = 0.6321205588285577    # (e^z - 1)/z at z = -1
TANH_AT_08 = 0.664036770267849
INV_SINHC_AT_09 = 0.8767514230020035
TRIV_REM_AT_07 = 0.11032533710513137


# matrix functions only the tests use, built on linalg's coefficient tables
EXP = linalg.AnalyticFunction(
    "exp", linalg._entire_coeffs(linalg._inv_factorial), np.inf, np.exp, np.exp)

COSH = linalg.AnalyticFunction(
    "cosh",
    linalg._entire_coeffs(
        lambda k: linalg._inv_factorial(k) if k % 2 == 0 else 0.0),
    np.inf, np.cosh, np.sinh)

DEXP_FACTOR = linalg.AnalyticFunction(
    "(1-exp(-z))/z",
    linalg._entire_coeffs(
        lambda k: (-1.0) ** k * linalg._inv_factorial(k + 1)),
    np.inf,
    lambda z: (1.0 - np.exp(-z)) / z,
    lambda z: (np.exp(-z) * (z + 1.0) - 1.0) / z ** 2)


def matfun_F(a):
    """F(a) for F(z) = coth(z) - 1/z, with F(0) = 0 on kernel directions."""
    return linalg.F_MEROMORPHIC.apply(a)


def dexp_factor(x, algebra):
    """The entire factor (1 - e^{-ad_x})/ad_x of the differential of exp."""
    return DEXP_FACTOR.apply(algebra.ad_matrix(x))


def random_matrix(rng, n, scale=1.0):
    return rng.standard_normal((n, n)) * scale / np.sqrt(n)


def test_scalar_values():
    tol = 1e-13
    assert abs(linalg.SINHC.f(2.0) - SINHC_AT_2) < tol
    assert abs(linalg.F_MEROMORPHIC.f(1.0) - F_AT_1) < tol
    assert abs(linalg.EXPM1_OVER.f(-1.0) - EXPM1_OVER_AT_M1) < tol
    assert abs(linalg.TANH.f(0.8) - TANH_AT_08) < tol
    assert abs(linalg.INV_SINHC.f(0.9) - INV_SINHC_AT_09) < tol
    assert abs(linalg.TRIV_REM.f(0.7) - TRIV_REM_AT_07) < tol


def test_zeta_table_matches_mpmath_oracle():
    mpmath = pytest.importorskip("mpmath")
    terms = linalg._POLE_TERMS // 2
    with mpmath.workdps(50):
        oracle = [float(mpmath.zeta(2 * m)) for m in range(1, terms + 1)]
    assert len(linalg.ZETA_EVEN) == 26
    # past zeta(52) every zeta(2m) the pole tables use rounds to exactly 1
    assert oracle[26:] == [1.0] * (terms - 26)
    assert [linalg._zeta_even(m) for m in range(1, terms + 1)] == oracle


def test_pole_tables_are_bitwise_those_built_from_scipy_zeta(monkeypatch):
    # the tables were once built with scipy.special.zeta; the frozen zeta
    # table must reproduce them to the last bit, loop and factors unchanged
    from scipy import special
    monkeypatch.setattr(linalg, "_zeta_even", lambda m: special.zeta(2 * m))
    coth = lambda m: np.pi ** (-2.0 * m)
    tanh = lambda m: (4.0 / np.pi ** 2) ** m - np.pi ** (-2.0 * m)
    triv = lambda m: np.pi ** (-2.0 * m) - 2.0 * (2.0 * np.pi) ** (-2.0 * m)
    inv_sinhc = -linalg._pole_coeffs(False, triv)
    inv_sinhc[0] = 1.0
    for table, ref in [(linalg.F_COEFFS, linalg._pole_coeffs(True, coth)),
                       (linalg.TANH_COEFFS, linalg._pole_coeffs(True, tanh)),
                       (linalg.TRIV_REM_COEFFS, linalg._pole_coeffs(True, triv)),
                       (linalg.INV_SINHC_COEFFS, inv_sinhc)]:
        assert table.tobytes() == ref.tobytes()


def test_scalar_series_branch_near_zero():
    # below the series cutoff the Taylor route is used; the leading terms of
    # coth(z) - 1/z are z/3 - z^3/45 + 2 z^5/945 - z^7/4725
    z = 0.05
    ref = z / 3 - z ** 3 / 45 + 2 * z ** 5 / 945 - z ** 7 / 4725
    assert abs(linalg.F_MEROMORPHIC.f(z) - ref) < 1e-15
    assert linalg.F_MEROMORPHIC.f(0.0) == 0.0
    assert linalg.EXPM1_OVER.f(0.0) == 1.0
    assert linalg.INV_SINHC.f(0.0) == 1.0


@pytest.mark.parametrize("fn", [linalg.F_MEROMORPHIC, linalg.TANH,
                                linalg.SINHC, linalg.SINH_REM, EXP])
def test_scalar_branches_each_run_on_their_own_entries(fn):
    # entries on both sides of SCALAR_SERIES_CUTOFF, plus one far up the
    # imaginary axis where the 30-term polynomial overflows while the
    # closed form stays finite
    z = np.array([0.0, 0.05 - 0.1j, 0.2, 0.3j, 1.7, -2.5 + 0.4j, 1e13j])
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        for method in (fn.f, fn.df):
            whole = method(z)
            one_by_one = np.concatenate([method(z[i:i + 1])
                                         for i in range(len(z))])
            assert np.array_equal(whole, one_by_one)
            assert np.all(np.isfinite(whole))


def test_exp_apply_matches_scipy():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(20):
        a = random_matrix(rng, 5, 1.5)
        worst = max(worst, np.max(np.abs(EXP.apply(a)
                                         - scipy.linalg.expm(a))))
    assert worst < 1e-12


def test_exp_of_zero():
    assert np.array_equal(EXP.apply(np.zeros((4, 4))), np.eye(4))


def test_sinh_doubling():
    # sinh(2A) = 2 sinh(A) cosh(A) ties three independent evaluations together
    rng = np.random.default_rng(11)
    tol = 1e-11
    for _ in range(10):
        a = random_matrix(rng, 6, 1.0)
        lhs = linalg.SINH.apply(2.0 * a)
        rhs = 2.0 * linalg.SINH.apply(a) @ COSH.apply(a)
        assert np.max(np.abs(lhs - rhs)) < tol


def test_f_is_odd():
    rng = np.random.default_rng(12)
    tol = 1e-11
    for _ in range(10):
        a = random_matrix(rng, 5, 1.2)
        err = np.max(np.abs(matfun_F(-a) + matfun_F(a)))
        assert err < tol


def test_f_on_diagonalizable_vs_series():
    # symmetric input takes the eigenvector route; the same matrix shrunk
    # inside the series radius must agree with the pure series route
    rng = np.random.default_rng(13)
    a = rng.standard_normal((5, 5))
    a = 0.3 * (a + a.T)
    via_apply = matfun_F(a)
    via_series = linalg.entire_series_apply(linalg.F_COEFFS, a, radius=np.pi)
    assert np.max(np.abs(via_apply - via_series)) < 1e-11


def test_frechet_vs_finite_difference():
    rng = np.random.default_rng(14)
    a = random_matrix(rng, 5, 1.0)
    e = random_matrix(rng, 5, 1.0)
    h = 1e-6
    fd = (matfun_F(a + h * e) - matfun_F(a - h * e)) / (2 * h)
    an = linalg.F_MEROMORPHIC.frechet(a, e)
    assert np.max(np.abs(fd - an)) < 1e-6


def test_frechet_linearity_and_product_rule_free():
    rng = np.random.default_rng(15)
    a = random_matrix(rng, 4, 0.8)
    e1 = random_matrix(rng, 4)
    e2 = random_matrix(rng, 4)
    d12 = linalg.SINH.frechet(a, e1 + 0.5 * e2)
    d1 = linalg.SINH.frechet(a, e1)
    d2 = linalg.SINH.frechet(a, e2)
    assert np.max(np.abs(d12 - d1 - 0.5 * d2)) < 1e-11


def test_spectrum_of_rotation():
    j = np.array([[0.0, -1.0], [1.0, 0.0]])
    w = np.sort_complex(linalg.spectrum(j))
    assert np.max(np.abs(w - np.array([-1j, 1j]))) < 1e-14


def test_radius_guard():
    big = 10.0 * np.eye(3)
    with pytest.raises(linalg.RadiusExceeded):
        linalg.entire_series_apply(linalg.F_COEFFS, big, radius=np.pi)


def test_non_square_rejected():
    with pytest.raises(linalg.NonSquare):
        EXP.apply(np.zeros((2, 3)))


@pytest.mark.parametrize("fn", [EXP, linalg.F_MEROMORPHIC])
def test_zero_size_matrix(fn):
    empty = np.zeros((0, 0))
    assert fn.apply(empty).shape == (0, 0)
    assert fn.frechet(empty, empty).shape == (0, 0)


def test_singular_set_detection():
    # eigenvalues at +-i*pi sit exactly on the poles of coth
    a = np.array([[0.0, -np.pi], [np.pi, 0.0]])
    with pytest.raises(linalg.SpectrumOnSingularSet):
        matfun_F(a)


def test_offdiag_inverse_identity_random():
    # the two expressions for the off-diagonal block of a block inverse
    # agree for any invertible matrix with invertible diagonal blocks
    rng = np.random.default_rng(16)
    split = linalg.BlockSplit(6, np.arange(3), np.arange(3, 6))
    for _ in range(25):
        f = rng.standard_normal((6, 6)) + 3.0 * np.eye(6)
        res = linalg.offdiag_inverse_identity_residual(f, split)
        assert res < 1e-10


def test_offdiag_singular_block_raises():
    split = linalg.BlockSplit(4, np.arange(2), np.arange(2, 4))
    f = np.zeros((4, 4))
    f[0, 2] = f[1, 3] = 1.0
    f[2, 0] = f[3, 1] = 1.0   # swaps the blocks; diagonal blocks vanish
    with pytest.raises(linalg.SingularBlock):
        linalg.offdiag_inverse_identity_residual(f, split)


def test_d_ad_power_vs_finite_difference():
    g = sl2_data()
    rng = np.random.default_rng(17)
    tol = 1e-6
    for n in (1, 2, 3, 4):
        x = rng.standard_normal(3)
        u = rng.standard_normal(3)
        v = rng.standard_normal(3)

        def field(y, n=n, v=v):
            a = g.ad_matrix(y)
            out = v.copy()
            for _ in range(n):
                out = a @ out
            return out

        fd = linalg.finite_diff(field, x, u)
        an = linalg.d_ad_power(x, u, v, n, g)
        err = np.max(np.abs(fd - an))
        assert err < tol


def test_antisymmetrize3_projects_and_fixes():
    rng = np.random.default_rng(18)
    t = rng.standard_normal((4, 4, 4))
    a = linalg.antisymmetrize3(t)
    assert linalg.alternating_residual(a) == 0.0
    # idempotent, bitwise on the second pass
    assert np.array_equal(linalg.antisymmetrize3(a), a)
    # pairing with a symmetric tensor dies
    sym = np.einsum("i,j,k->ijk", *rng.standard_normal((3, 4)))
    sym = sym + sym.transpose(1, 0, 2)
    assert abs(np.tensordot(a, sym, axes=3)) < 1e-12


def reference_antisymmetrize3(t):
    """antisymmetrize3 as the six-permutation test and triple loop."""
    t = np.asarray(t, dtype=float)
    perms = [((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
             ((0, 2, 1), -1), ((2, 1, 0), -1), ((1, 0, 2), -1)]
    if all(np.array_equal(np.transpose(t, p), s * t) for p, s in perms):
        return t.copy()
    raw = sum(s * np.transpose(t, p) for p, s in perms) / 6.0
    out = np.zeros_like(raw)
    n = t.shape[0]
    for a in range(n):
        for b in range(a + 1, n):
            for k in range(b + 1, n):
                v = raw[a, b, k]
                out[a, b, k] = out[b, k, a] = out[k, a, b] = v
                out[b, a, k] = out[a, k, b] = out[k, b, a] = -v
    return out


@pytest.mark.parametrize("n", range(9))
def test_antisymmetrize3_is_bitwise_the_triple_loop(n):
    rng = np.random.default_rng(70 + n)
    t = rng.standard_normal((n, n, n))
    alt = reference_antisymmetrize3(t)
    near = alt.copy()
    if n >= 3:
        near[0, 1, 2] += 1e-15
    # alternating under the swap of the first two slots, not the cycle
    swap = t - t.transpose(1, 0, 2)
    for x in (t, alt, near, swap, -alt, 1e300 * alt):
        got = linalg.antisymmetrize3(x)
        assert got.tobytes() == reference_antisymmetrize3(x).tobytes()
        assert got is not x
    assert np.array_equal(linalg.antisymmetrize3(alt), alt)


def test_pairwise_basis_change_matches_the_einsum():
    rng = np.random.default_rng(72)
    for n in (3, 8):
        c = rng.standard_normal((n, n, n))
        p = rng.standard_normal((n, n)) + 2.0 * np.eye(n)
        q = np.linalg.inv(p)
        want = np.einsum("ai,bj,abm,km->ijk", p, p, c, q)
        got = linalg.contract3(c, p, q)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_stacked_finite_differences_are_bitwise_each_point_alone():
    rng = np.random.default_rng(71)
    mats = rng.standard_normal((3, 4, 4))

    def field(q):
        # a stacked evaluator: one 4 x 4 matrix per point
        return np.sin(q @ mats.reshape(3, 16)).reshape(-1, 4, 4)

    ps = 3.0 * rng.standard_normal((5, 3))
    stacked = linalg.finite_diff(field, ps)
    assert stacked.shape == (5, 3, 4, 4)
    for p, got in zip(ps, stacked):
        assert got.tobytes() == linalg.finite_diff(field, p).tobytes()


def test_dexp_factor_finite_difference():
    # exp(x + s u) = exp(x) exp(s (factor @ u) + O(s^2)), so in the adjoint
    # representation expm(-ad_x) d/ds expm(ad_{x+su}) = ad(factor @ u)
    g = sl2_data()
    rng = np.random.default_rng(19)
    x = 0.4 * rng.standard_normal(3)
    u = rng.standard_normal(3)
    adx = g.ad_matrix(x)
    adu = g.ad_matrix(u)
    h = 1e-6
    fd = (scipy.linalg.expm(adx + h * adu) - scipy.linalg.expm(adx - h * adu)) / (2 * h)
    factor = dexp_factor(x, g)
    lhs = scipy.linalg.expm(-adx) @ fd
    rhs = g.ad_matrix(factor @ u)
    assert np.max(np.abs(lhs - rhs)) < 1e-5


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.floats(min_value=-1.5, max_value=1.5))
def test_entire_series_scalar_consistency(n, s):
    a = s * np.eye(n)
    out = linalg.entire_series_apply(EXP.coeffs, a)
    assert np.max(np.abs(out - np.exp(s) * np.eye(n))) < 1e-12


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=0.01, max_value=2.9))
def test_f_scalar_matches_coth(z):
    ref = np.cosh(z) / np.sinh(z) - 1.0 / z
    assert abs(linalg.F_MEROMORPHIC.f(z) - ref) < 1e-12


# -- one route per call ------------------------------------------------------


def test_repeated_matrix_is_decomposed_on_every_call(monkeypatch):
    rng = np.random.default_rng(22)
    a, b, e = (random_matrix(rng, 4) for _ in range(3))
    state = dict(vars(linalg.SINHC))
    first = linalg.SINHC.apply(a)
    d_first = linalg.SINHC.frechet(a, e)
    linalg.SINHC.apply(b)
    calls = []
    eig = np.linalg.eig
    monkeypatch.setattr(np.linalg, "eig", lambda m: calls.append(m) or eig(m))
    # nothing is kept between calls: each one decomposes a again, and the
    # results are bitwise those of the first evaluation
    assert np.array_equal(linalg.SINHC.apply(a), first)
    assert np.array_equal(linalg.SINHC.frechet(a, e), d_first)
    assert np.array_equal(linalg.SINHC.apply(a), first)
    assert len(calls) == 3
    assert vars(linalg.SINHC).keys() == state.keys()
    assert all(vars(linalg.SINHC)[key] is value for key, value in state.items())
    a[0, 0] += 1.0
    assert not np.array_equal(linalg.SINHC.apply(a), first)
    assert len(calls) == 4


@pytest.mark.parametrize("fn", [linalg.F_MEROMORPHIC, linalg.SINHC,
                                linalg.TANH])
def test_stacked_apply_is_bitwise_each_slice_alone(fn, monkeypatch):
    rng = np.random.default_rng(25)
    a = random_matrix(rng, 4)
    sym = a + a.T
    # a real spectrum, a complex one, the series route, and a repeat
    stack = np.stack([sym, a - a.T + 0.3 * sym, jordan(0.6, 4), sym])
    calls = []
    eig = np.linalg.eig
    monkeypatch.setattr(np.linalg, "eig", lambda m: calls.append(m) or eig(m))
    out = fn.apply(stack)
    # one eig call on the distinct slices
    assert [m.shape for m in calls] == [(3, 4, 4)]
    data = linalg.eigen_data(stack)
    assert [m.shape for m in calls] == [(3, 4, 4)] * 2
    # the caller's eigen data stand in for the call's own eig
    assert np.array_equal(fn.apply(stack, data), out)
    e = random_matrix(rng, 4)
    fn.frechet(stack[0], e, data[0])
    assert len(calls) == 2
    for x, fx, ex in zip(stack, out, data):
        assert np.array_equal(fx, fn.apply(x))
        assert np.array_equal(fx, fn.apply(x, ex))
        assert np.array_equal(fn.frechet(x, e, ex), fn.frechet(x, e))
        assert np.array_equal(ex, linalg.eigen_data(x)[0])
        assert np.array_equal(ex[0], np.linalg.eigvals(x))
    assert fn.apply(np.zeros((2, 0, 0))).shape == (2, 0, 0)
    with pytest.raises(linalg.NonSquare):
        fn.apply(np.zeros((2, 3, 4)))


def test_finite_diff_along_every_basis_direction():
    p = np.array([0.7, -1.3, 0.4])
    calls = []

    def field(qs):
        calls.append(qs.copy())
        return np.stack([np.sin(10.0 * qs[:, 0]) * qs[:, 1], qs[:, 2] ** 3],
                        axis=1)

    exact = np.array([[10.0 * np.cos(7.0) * p[1], 0.0],
                      [np.sin(7.0), 0.0],
                      [0.0, 3.0 * p[2] ** 2]])
    d = linalg.finite_diff(field, p)
    # every probe in one call: +-h e_b for each b, then +-h/2 e_b
    h = linalg.CBRT_EPS * (1.0 + np.linalg.norm(p))
    eye = np.eye(3)
    want = [p + s * e for scale in (h, 0.5 * h) for e in eye
            for s in (scale, -scale)]
    assert len(calls) == 1 and np.array_equal(calls[0], want)
    # the Richardson step removes the h^2 error of the central difference
    central = np.array([linalg.finite_diff(lambda q: field(q[None])[0], p, e)
                        for e in eye])
    assert np.max(np.abs(central - exact)) > 1e-8
    assert np.max(np.abs(d - exact)) < 1e-9


@pytest.fixture
def series_calls(monkeypatch):
    """Records the matrices `entire_series_apply` is called on."""
    calls = []
    inner = linalg.entire_series_apply

    def spy(coeffs, a, radius=np.inf):
        calls.append(a)
        return inner(coeffs, a, radius=radius)

    monkeypatch.setattr(linalg, "entire_series_apply", spy)
    return calls


def jordan(lam, n):
    return lam * np.eye(n) + np.eye(n, k=1)


def _mp_matfuns(mp, fs, a):
    """[f(a) for f in fs] from one 50-digit eigendecomposition of a.

    mpmath's shifted QR can cycle on the +-lambda spectra of ad matrices,
    so it runs on b = q a q^-1 for a fixed random q; f(a) = q^-1 f(b) q
    holds exactly.
    """
    q = np.random.default_rng(0).standard_normal(a.shape) + 3.0 * np.eye(len(a))
    outs = []
    with mp.workdps(50):
        qm = mp.matrix(q.tolist())
        qinv = mp.inverse(qm)
        w, v = mp.eig(qm * mp.matrix(a.tolist()) * qinv)
        left, right = qinv * v, mp.inverse(v) * qm
        for f in fs:
            fa = left * mp.diag([f(z) for z in w]) * right
            out = np.array([[complex(x) for x in row] for row in fa.tolist()])
            assert np.max(np.abs(out.imag)) < 1e-30 * (1.0 + np.max(np.abs(out)))
            outs.append(out.real)
    return outs


def _mp_functions(mp):
    # below |z| = 1e-12 the Taylor polynomials are exact to far beyond 50
    # digits; they take over at the removable singularity z = 0, where
    # F(0) = 0, sinh(z)/z -> 1 and (sinh z - z)/z^2 -> 0
    def near_zero(series, closed):
        return lambda z: series(z) if abs(z) < mp.mpf(10) ** -12 else closed(z)

    return {
        linalg.F_MEROMORPHIC: near_zero(lambda z: z / 3 - z ** 3 / 45,
                                        lambda z: mp.coth(z) - 1 / z),
        linalg.SINHC: near_zero(lambda z: 1 + z ** 2 / 6 + z ** 4 / 120,
                                lambda z: mp.sinh(z) / z),
        linalg.SINH_REM: near_zero(lambda z: z / 6 + z ** 3 / 120,
                                   lambda z: (mp.sinh(z) - z) / z ** 2),
        linalg.SINH: mp.sinh,
    }


def _in_domain_point(field, norm, rng, tries=50):
    for _ in range(tries):
        u = rng.standard_normal(field.base_dim)
        p = norm * u / np.linalg.norm(u)
        if dynamics.in_domain(p, field)["in_domain"]:
            return p
    raise AssertionError("no in-domain point at norm %g" % norm)


@pytest.mark.parametrize("name", catalog.names())
def test_eigen_route_matches_mpmath_oracle(name, series_calls):
    # norms on both sides of the 0.95 pi series radius; only the eigen
    # route runs, held to 1e-10 (1 + |ref|) in the 2-norm
    mp = pytest.importorskip("mpmath").mp
    scalar = _mp_functions(mp)
    entry = catalog.get(name)
    field = dynamics.canonical_field(entry.G, entry.decomp)
    rng = np.random.default_rng(20)
    for norm in (0.3, 2.5, 6.0):
        p = _in_domain_point(field, norm, rng)
        small = field.small_double.d.ad_matrix(field.small_double.embed(xi=p))
        big = field._big_ad(p)
        for a, fns in ((small, [linalg.F_MEROMORPHIC]),
                       (big, [linalg.SINHC, linalg.SINH_REM, linalg.SINH])):
            refs = _mp_matfuns(mp, [scalar[fn] for fn in fns], a)
            for fn, ref in zip(fns, refs):
                err = np.linalg.norm(fn.apply(a) - ref, 2)
                assert err <= 1e-10 * (1.0 + np.linalg.norm(ref, 2)), (
                    fn.name, norm, err)
    assert series_calls == []


@pytest.mark.parametrize("n", [2, 3])
def test_series_fallback_exp_on_jordan_block(n, series_calls):
    j = jordan(0.7, n)
    _, v = np.linalg.eig(j)
    assert np.linalg.cond(v) >= linalg.EIG_COND_LIMIT
    out = EXP.apply(j)
    assert len(series_calls) == 1
    assert np.max(np.abs(out - scipy.linalg.expm(j))) < 1e-14


def test_series_fallback_f_on_jordan_block_matches_closed_form(series_calls):
    lam = 1.3
    f = np.cosh(lam) / np.sinh(lam) - 1.0 / lam
    df = 1.0 / lam ** 2 - 1.0 / np.sinh(lam) ** 2
    out = linalg.F_MEROMORPHIC.apply(jordan(lam, 2))
    assert len(series_calls) == 1
    assert np.max(np.abs(out - np.array([[f, df], [0.0, f]]))) < 1e-14


@pytest.mark.parametrize("n", [2, 3])
def test_series_fallback_exp_frechet_on_jordan_block(n, series_calls):
    rng = np.random.default_rng(21)
    j = jordan(-0.4, n)
    e = rng.standard_normal((n, n))
    out = EXP.frechet(j, e)
    assert [a.shape for a in series_calls] == [(2 * n, 2 * n)]
    _, ref = scipy.linalg.expm_frechet(j, e)
    assert np.max(np.abs(out - ref)) < 1e-13


def test_series_fallback_runs_on_every_call(series_calls):
    rng = np.random.default_rng(23)
    j = jordan(0.55, 3)
    e1, e2 = rng.standard_normal((2, 3, 3))
    first = linalg.SINHC.apply(j)
    d1 = linalg.SINHC.frechet(j, e1)
    d2 = linalg.SINHC.frechet(j, e2)
    assert len(series_calls) == 3
    kept = first.copy(), d1.copy()
    # a caller that changes a result in place changes no later result
    first[0, 0] += 1.0
    d1[0, 0] += 1.0
    assert np.array_equal(linalg.SINHC.apply(j), kept[0])
    assert np.array_equal(linalg.SINHC.frechet(j, e1), kept[1])
    assert np.array_equal(linalg.SINHC.frechet(j, e2), d2)
    assert len(series_calls) == 6


def test_series_fallback_past_its_radius_fails():
    # 3.2 lies past the 0.95 pi series guard and away from the poles +- i pi
    with pytest.raises(linalg.EvaluationFailed):
        linalg.F_MEROMORPHIC.apply(jordan(3.2, 2))


# -- the Frechet derivative of exp -------------------------------------------


def test_expm_frechet_stacks_directions_and_matches_scipy():
    rng = np.random.default_rng(70)
    # 1-norms from below scipy's lowest Pade degree to far past its largest,
    # where the scaling and squaring run
    for n in (3, 8):
        for norm in (1e-3, 0.1, 0.5, 1.2, 3.0, 45.0):
            a = rng.standard_normal((n, n))
            a *= norm / np.max(np.sum(np.abs(a), axis=0))
            e = rng.standard_normal((3, n, n))
            d = linalg.expm_frechet(a, e)
            assert d.shape == e.shape
            for x, dx in zip(e, d):
                # each slice is bitwise scipy's derivative along it alone
                ref = scipy.linalg.expm_frechet(a, x, compute_expm=False)
                assert np.array_equal(dx, ref)
                assert np.array_equal(linalg.expm_frechet(a, x), ref)


def test_expm_frechet_rejects_bad_input():
    a = np.eye(3)
    for bad_a, bad_e in ((np.where(a == 1.0, np.nan, 0.0), a),
                         (a, np.full((2, 3, 3), np.inf))):
        with pytest.raises(ValueError):
            linalg.expm_frechet(bad_a, bad_e)
    with pytest.raises(linalg.NonSquare):
        linalg.expm_frechet(a, np.zeros((2, 2)))
    # a non-finite result is refused: exp overflows at a, the derivative
    # does along a huge direction, or the 1-norm of a does
    with np.errstate(over="ignore", invalid="ignore"):
        for big_a, big_e in ((800.0 * a, a), (a, np.full((3, 3), 1e308)),
                             (np.full((3, 3), 1e308), a)):
            with pytest.raises(linalg.EvaluationFailed):
                linalg.expm_frechet(big_a, big_e)


@pytest.mark.parametrize("fn", [linalg.F_MEROMORPHIC, linalg.SINHC])
def test_stacked_frechet_is_bitwise_each_direction_alone(fn, series_calls):
    rng = np.random.default_rng(71)
    a = random_matrix(rng, 4)
    # a real spectrum, a complex one, and the series route
    for m, series in ((a + a.T, 0), (a - a.T + 0.3 * (a + a.T), 0),
                      (jordan(0.6, 4), 3)):
        e = rng.standard_normal((3, 4, 4))
        del series_calls[:]
        out = fn.frechet(m, e)
        # the series route runs once per direction, the eigen route never
        assert len(series_calls) == series
        assert out.shape == e.shape
        for x, dx in zip(e, out):
            assert np.array_equal(dx, fn.frechet(m, x))
