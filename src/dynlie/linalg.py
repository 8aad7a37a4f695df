"""Dense, basis-indexed linear algebra underneath the rest of the package.

Linear maps are plain numpy arrays acting on coordinate columns, 3-tensors
are arrays T[i, j, k].  The main machinery here is the evaluation of
analytic functions of matrices together with their exact Frechet
derivatives, which the dynamical-field code uses instead of finite
differences.  Each call takes one route: the eigendecomposition when the
eigenvector matrix is well conditioned (cond(V) < EIG_COND_LIMIT), the
Taylor series otherwise.  The series is that fallback and the reference
the tests compare against; the two routes are not compared at run time.
A call keeps nothing once it returns.  The Frechet derivative of exp
itself (expm_frechet) is scipy's, one call per direction.
"""

import math

import numpy as np
import scipy.linalg

EPS = float(np.finfo(float).eps)
CBRT_EPS = EPS ** (1.0 / 3.0)

# series evaluation
SERIES_TRUNC_TOL = 1e-16
RADIUS_GUARD = 0.95
POWER_OVERFLOW_LIMIT = 1e280

# eigendecomposition route
EIG_COND_LIMIT = 1e8
SINGULAR_SET_TOL = 1e-8
DD_CLOSE_TOL = 1e-6

# block inversions
BLOCK_COND_LIMIT = 1e12

# scalar evaluation switches to the truncated Taylor polynomial below this
# modulus, to dodge cancellation in expressions like (sinh z - z)/z^2
SCALAR_SERIES_CUTOFF = 0.25
SCALAR_SERIES_TERMS = 30


class NonSquare(ValueError):
    pass


class RadiusExceeded(ValueError):
    pass


class SpectrumOnSingularSet(ValueError):
    pass


class EvaluationFailed(RuntimeError):
    pass


class SingularBlock(ValueError):
    pass


class DomainViolation(ValueError):
    pass


def assert_finite(a):
    """Raise if the array contains NaN or Inf; return it unchanged."""
    a = np.asarray(a)
    if not np.all(np.isfinite(a)):
        raise EvaluationFailed("non-finite entries in result")
    return a


def _check_square(a):
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NonSquare("expected a square matrix, got shape %s" % (a.shape,))
    return a


class BlockSplit:
    """Partition of the index range of an ambient space into two ordered blocks.

    Carries the injection matrices (columns are coordinate vectors) and their
    transposes as projections along the complementary block.
    """

    def __init__(self, dim, first, second):
        first = np.asarray(first, dtype=int)
        second = np.asarray(second, dtype=int)
        merged = np.sort(np.concatenate([first, second]))
        if not np.array_equal(merged, np.arange(dim)):
            raise ValueError("index sets do not partition range(%d)" % dim)
        self.dim = int(dim)
        self.first = first
        self.second = second
        self.inj1 = injection(dim, first)
        self.inj2 = injection(dim, second)
        self.proj1 = self.inj1.T
        self.proj2 = self.inj2.T

    def __repr__(self):
        return "BlockSplit(%d, %s, %s)" % (
            self.dim, list(self.first), list(self.second))


def injection(dim, indices):
    """The dim x len(indices) matrix sending the k-th block coordinate to
    slot indices[k] of the ambient space."""
    indices = np.asarray(indices, dtype=int)
    e = np.zeros((dim, len(indices)))
    e[indices, np.arange(len(indices))] = 1.0
    return e


def indicator_diag(dim, indices):
    """Diagonal 0/1 matrix supported on the given ambient indices."""
    d = np.zeros(dim)
    d[np.asarray(indices, dtype=int)] = 1.0
    return np.diag(d)


def spectrum(a):
    """Complex eigenvalues of a square matrix, with multiplicity."""
    return np.linalg.eigvals(_check_square(a))


def skew_residual(m):
    m = np.asarray(m)
    return float(np.max(np.abs(m + m.T))) if m.size else 0.0


_PERM_SIGNS = [((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
               ((0, 2, 1), -1), ((2, 1, 0), -1), ((1, 0, 2), -1)]


def alternating_residual(t):
    """How far a 3-tensor is from being totally antisymmetric."""
    t = np.asarray(t)
    return float(max(np.max(np.abs(np.transpose(t, p) - s * t))
                     for p, s in _PERM_SIGNS))


def antisymmetrize3(t):
    """Project a 3-tensor onto its totally antisymmetric part.

    The result is alternating exactly as stored (every entry is copied from
    the representative with increasing indices, by one fancy-indexed
    assignment per permutation), so exact round-trip identities downstream
    are safe.  Input that is already exactly alternating is returned
    unchanged; that is decided on the two generators of the permutations,
    the swap of the first two slots (sign -1) and the cycle (sign +1),
    which is exact, as the test on all six is.
    """
    t = np.asarray(t, dtype=float)
    if (np.array_equal(np.transpose(t, (1, 0, 2)), -t)
            and np.array_equal(np.transpose(t, (1, 2, 0)), t)):
        return t.copy()
    raw = sum(s * np.transpose(t, p) for p, s in _PERM_SIGNS) / 6.0
    out = np.zeros_like(raw)
    i = np.arange(t.shape[0])
    a, b, k = np.nonzero((i[:, None, None] < i[None, :, None])
                         & (i[None, :, None] < i[None, None, :]))
    v = raw[a, b, k]
    out[a, b, k] = out[b, k, a] = out[k, a, b] = v
    out[b, a, k] = out[a, k, b] = out[k, b, a] = -v
    return out


def contract3(t, p, q):
    """out[i, j, k] = sum over a, b, m of p[a, i] p[b, j] t[a, b, m] q[k, m]:
    the bracket-like 3-tensor t in another basis, contracted pairwise in
    O(n^4) (over m, then b, then a) instead of one n^6 einsum.  For the
    catalog's basis changes this order is bitwise the einsum."""
    u = t @ np.asarray(q).T
    u = np.einsum("bj,abk->ajk", p, u)
    return np.einsum("ai,ajk->ijk", p, u)


def entire_series_apply(coeffs, a, radius=np.inf):
    """Evaluate sum_k coeffs[k] a^k by direct summation.

    Truncates once the operator-norm bound on the tail falls below
    SERIES_TRUNC_TOL * (1 + |result|).  For a series with finite convergence
    radius the spectral radius of a must stay below RADIUS_GUARD * radius.
    """
    a = _check_square(a)
    coeffs = np.asarray(coeffs, dtype=float)
    if np.isfinite(radius):
        rho = float(np.max(np.abs(np.linalg.eigvals(a)))) if a.size else 0.0
        if rho >= RADIUS_GUARD * radius:
            raise RadiusExceeded(
                "spectral radius %.6g not below %.2f * radius %.6g"
                % (rho, RADIUS_GUARD, radius))
    # suffix[k] = max_{j >= k} |c_j|, for the tail bound
    suffix = np.maximum.accumulate(np.abs(coeffs)[::-1])[::-1]
    n = a.shape[0]
    result = np.zeros_like(a, dtype=np.result_type(a, float))
    power = np.eye(n, dtype=result.dtype)
    for k in range(len(coeffs)):
        if coeffs[k] != 0.0:
            result = result + coeffs[k] * power
        if k + 1 >= len(coeffs):
            break
        if suffix[k + 1] == 0.0:
            return assert_finite(result)
        power = power @ a
        pnorm = np.linalg.norm(power, 2)
        if pnorm > POWER_OVERFLOW_LIMIT:
            raise EvaluationFailed("matrix powers overflow in series evaluation")
        if suffix[k + 1] * pnorm <= SERIES_TRUNC_TOL * (1.0 + np.linalg.norm(result, 2)):
            return assert_finite(result)
    raise EvaluationFailed("series did not converge within %d terms" % len(coeffs))


# ---------------------------------------------------------------------------
# Taylor coefficient tables.  Everything is expanded at 0.  The families with
# poles on the imaginary axis are generated through zeta(2m), which keeps the
# coefficients stable far beyond where raw Bernoulli numbers overflow:
#
#   coth z - 1/z      = sum_{m>=1} (-1)^{m+1} 2 zeta(2m)/pi^{2m} z^{2m-1}
#   tanh z            = sum_{m>=1} (-1)^{m+1} 2 (4^m-1) zeta(2m)/pi^{2m} z^{2m-1}
#   z/sinh z          = 1 + sum_{m>=1} (-1)^m 2 (4^m-2) zeta(2m)/(2 pi)^{2m} z^{2m}
#   1/z - 1/sinh z    = sum_{m>=1} (-1)^{m+1} 2 (4^m-2) zeta(2m)/(2 pi)^{2m} z^{2m-1}
#
# zeta(2m) comes from the frozen table ZETA_EVEN: zeta(2), ..., zeta(52) as
# the nearest doubles, and exactly 1.0 from m = 27 on, where zeta(2m) - 1
# (5.6e-17 at m = 27) is under half an ulp of 1.  tests/test_linalg.py checks
# every entry, and the 1.0 tail out to m = _POLE_TERMS // 2, against a
# 50-digit mpmath zeta.
# ---------------------------------------------------------------------------

ZETA_EVEN = (
    1.6449340668482264, 1.0823232337111381, 1.0173430619844492,
    1.0040773561979444, 1.000994575127818, 1.000246086553308,
    1.0000612481350588, 1.0000152822594086, 1.000003817293265,
    1.0000009539620338, 1.0000002384505027, 1.000000059608189,
    1.0000000149015549, 1.000000003725334, 1.0000000009313275,
    1.000000000232831, 1.0000000000582077, 1.000000000014552,
    1.000000000003638, 1.0000000000009095, 1.0000000000002274,
    1.0000000000000568, 1.0000000000000142, 1.0000000000000036,
    1.0000000000000009, 1.0000000000000002,
)


def _zeta_even(m):
    """zeta(2m) rounded to the nearest double, for m >= 1."""
    return ZETA_EVEN[m - 1] if m <= len(ZETA_EVEN) else 1.0


_ENTIRE_TERMS = 220
_POLE_TERMS = 1200


def _entire_coeffs(term):
    c = np.zeros(_ENTIRE_TERMS)
    for k in range(_ENTIRE_TERMS):
        c[k] = term(k)
    return c


def _inv_factorial(k):
    try:
        return 1.0 / math.factorial(k)
    except OverflowError:
        return 0.0


# (e^z - 1)/z
EXPM1_OVER_COEFFS = _entire_coeffs(lambda k: _inv_factorial(k + 1))
SINH_COEFFS = _entire_coeffs(lambda k: _inv_factorial(k) if k % 2 == 1 else 0.0)
# sinh(z)/z
SINHC_COEFFS = _entire_coeffs(lambda k: _inv_factorial(k + 1) if k % 2 == 0 else 0.0)
# (sinh z - z)/z^2
SINH_REM_COEFFS = _entire_coeffs(
    lambda k: _inv_factorial(k + 2) if k % 2 == 1 else 0.0)


def _pole_coeffs(odd, factor):
    """Coefficient table c[k] with c nonzero on odd (or even) k only,
    value (-1)^{m+1} * 2 * factor(m) * zeta(2m), m the family index."""
    c = np.zeros(_POLE_TERMS)
    for m in range(1, _POLE_TERMS // 2 + 1):
        k = 2 * m - 1 if odd else 2 * m
        if k >= _POLE_TERMS:
            break
        c[k] = (-1.0) ** (m + 1) * 2.0 * factor(m) * _zeta_even(m)
    return c


F_COEFFS = _pole_coeffs(True, lambda m: np.pi ** (-2.0 * m))
TANH_COEFFS = _pole_coeffs(
    True, lambda m: (4.0 / np.pi ** 2) ** m - np.pi ** (-2.0 * m))
TRIV_REM_COEFFS = _pole_coeffs(
    True, lambda m: np.pi ** (-2.0 * m) - 2.0 * (2.0 * np.pi) ** (-2.0 * m))
INV_SINHC_COEFFS = -_pole_coeffs(
    False, lambda m: np.pi ** (-2.0 * m) - 2.0 * (2.0 * np.pi) ** (-2.0 * m))
INV_SINHC_COEFFS[0] = 1.0


def _dist_to_ipi_nonzero(w):
    """Distance from each eigenvalue to { i pi k : k integer, k != 0 }."""
    w = np.atleast_1d(np.asarray(w, dtype=complex))
    k = np.rint(w.imag / np.pi)
    k_up = np.where(k == 0, 1.0, k)
    k_dn = np.where(k == 0, -1.0, k)
    return np.minimum(np.abs(w - 1j * np.pi * k_up),
                      np.abs(w - 1j * np.pi * k_dn))


def _dist_to_ipi_half(w):
    """Distance to { i pi (k + 1/2) : k integer } (poles of tanh)."""
    w = np.atleast_1d(np.asarray(w, dtype=complex))
    k = np.rint(w.imag / np.pi - 0.5)
    return np.abs(w - 1j * np.pi * (k + 0.5))


class AnalyticFunction:
    """A scalar analytic function packaged for the matrix functional calculus.

    Carries the Taylor table at 0 with its convergence radius, a closed-form
    complex evaluator used away from 0, and the scalar derivative (for the
    divided-difference matrices of the Frechet derivative).  `apply` takes a
    matrix or a stack of them, `frechet` one matrix with one direction or a
    stack of them.  A call eigendecomposes its distinct matrices with one
    eig call, and keeps nothing once it returns.  Each matrix takes the
    eigen route when cond(V) < EIG_COND_LIMIT and the series otherwise.
    """

    def __init__(self, name, coeffs, radius, fz, dfz, singular_distance=None):
        self.name = name
        self.coeffs = np.asarray(coeffs, dtype=float)
        self.radius = float(radius)
        self._fz = fz
        self._dfz = dfz
        self._singular_distance = singular_distance
        self._poly = self.coeffs[:SCALAR_SERIES_TERMS][::-1]
        dc = self.coeffs[1:] * np.arange(1, len(self.coeffs))
        self._dpoly = dc[:SCALAR_SERIES_TERMS][::-1]

    def __repr__(self):
        return "AnalyticFunction(%r)" % self.name

    def f(self, z):
        return self._scalar(z, self._poly, self._fz)

    def df(self, z):
        return self._scalar(z, self._dpoly, self._dfz)

    @staticmethod
    def _scalar(z, poly, closed):
        """The Taylor polynomial on entries with |z| < SCALAR_SERIES_CUTOFF,
        the closed form on the others; each runs on its own entries only,
        and not at all when it has none."""
        z = np.atleast_1d(np.asarray(z, dtype=complex))
        small = np.abs(z) < SCALAR_SERIES_CUTOFF
        out = np.empty_like(z)
        if small.any():
            out[small] = np.polyval(poly, z[small])
        if not small.all():
            out[~small] = closed(z[~small])
        return out

    @staticmethod
    def _eig(d):
        """The eigen data {w, v} of each slice of the eigen_data stack d, in
        order, one dict per distinct slice: real when its spectrum is."""
        keys = [x.tobytes() for x in d]
        real = (~np.any(d[:, 0].imag, axis=-1)).tolist()
        parts = (np.ascontiguousarray(d.real) if any(real) else None, d)
        distinct = {}
        for i, key in enumerate(keys):
            if key not in distinct:
                x = parts[0 if real[i] else 1][i]
                distinct[key] = {"w": x[0], "v": x[1:]}
        return [distinct[key] for key in keys]

    def check_spectrum(self, w):
        """Raise SpectrumOnSingularSet when an eigenvalue in w (any shape)
        lies within SINGULAR_SET_TOL of a singularity of the function."""
        if self._singular_distance is not None:
            dist = float(np.min(self._singular_distance(np.ravel(w))))
            if dist < SINGULAR_SET_TOL:
                raise SpectrumOnSingularSet(
                    "%s: eigenvalue within %.3g of a singularity"
                    % (self.name, dist))

    def _decompose(self, a, eig=None):
        """Eigen data of each slice of the stack a: its `_eig` entry with
        vinv and fw = f(w) added, or None when cond(V) is not below
        EIG_COND_LIMIT (the caller then takes the series).  eig is
        eigen_data(a) when the caller has it.

        The singular-set check runs on the eigenvalues of every slice
        before any route is chosen.  cond(V) and inv(V) take one call per
        eigenvector dtype, and f(w) one call for the whole stack.
        """
        entries = self._eig(eigen_data(a) if eig is None else eig)
        unique = _unique(entries)
        w = np.array([e["w"] for e in unique], dtype=complex)
        self.check_spectrum(w)
        conds = _per_dtype(np.linalg.cond, [e["v"] for e in unique])
        good = [i for i, c in enumerate(conds) if c < EIG_COND_LIMIT]
        fw = self.f(w[good].ravel()).reshape(len(good), w.shape[1])
        vinvs = _per_dtype(np.linalg.inv, [unique[i]["v"] for i in good])
        for i, fw_i, vinv in zip(good, fw, vinvs):
            unique[i]["fw"], unique[i]["vinv"] = fw_i, vinv
        return [e if "fw" in e else None for e in entries]

    def _series(self, a):
        """entire_series_apply(coeffs, a), with RadiusExceeded turned into
        EvaluationFailed."""
        try:
            return entire_series_apply(self.coeffs, a, radius=self.radius)
        except RadiusExceeded as exc:
            raise EvaluationFailed(
                "%s: matrix is not reliably diagonalizable and the series "
                "radius check failed" % self.name) from exc

    @staticmethod
    def _realify(fa):
        """The real part of f of real matrices (a stack or one), after
        checking that each imaginary part is roundoff."""
        scale = 1.0 + np.linalg.norm(fa, axis=(-2, -1))
        if np.any(np.max(np.abs(fa.imag), axis=(-2, -1)) > 1e-8 * scale):
            raise EvaluationFailed("unexpected imaginary part in real matrix function")
        return fa.real

    def apply(self, a, eig=None):
        """f(a) for a square matrix, or f of each slice of a stack of them
        (m x N x N): eigen route per slice when cond(V) < EIG_COND_LIMIT,
        else the series.  Each slice is bitwise f of that slice alone.
        eig is a's eigen data when the caller has it: eigen_data(a), or
        eigen_data(a[None])[0] for a matrix; without it the call
        decomposes a."""
        a = np.asarray(a, dtype=float)
        stack = _check_stack(a)
        if not a.size:
            return np.zeros(a.shape)
        eigs = self._decompose(stack, eig if eig is None or a.ndim == 3
                               else eig[None])
        good = _unique(e for e in eigs if e is not None)
        if good:
            v = np.array([e["v"] for e in good])
            fw = np.array([e["fw"] for e in good])
            vinv = np.array([e["vinv"] for e in good])
            fa = (v * fw[:, None, :]) @ vinv
            self._realify(fa)
            for e, fa_e in zip(good, fa):
                e["fa"] = fa_e
        if None in eigs:
            out = np.array([self._series(x) if e is None else e["fa"].real
                            for x, e in zip(stack, eigs)])
        else:
            # the real part stays a strided view of the complex product:
            # numpy multiplies that layout without BLAS, and callers'
            # products with the result keep their rounding
            out = np.array([e["fa"] for e in eigs]).real
        return assert_finite(out.reshape(a.shape))

    def frechet(self, a, e, eig=None):
        """Directional derivative D f(a)[e] along one direction e (N x N)
        or along each slice of a stack of them (k x N x N), exact up to
        roundoff; each slice is bitwise the call on that slice alone.  eig
        is a's eigen data as in `apply`.

        Eigen route: Daleckii-Krein divided differences, one contraction
        for the whole stack.  Fallback: series evaluation on the
        block-triangular [[a, e], [0, a]] of each slice, whose top-right
        block is the termwise derivative of the series.
        """
        a = _check_square(np.asarray(a, dtype=float))
        e = np.asarray(e, dtype=float)
        if e.shape[-2:] != a.shape or e.ndim not in (2, 3):
            raise NonSquare("direction shape %s does not match matrix shape %s"
                            % (e.shape, a.shape))
        if not a.size:
            return np.zeros(e.shape)
        dec = self._decompose(a[None], None if eig is None else eig[None])[0]
        if dec is not None:
            dd = self._divided_differences(dec["w"], dec["fw"])
            v, vinv = dec["v"], dec["vinv"]
            out = v @ ((vinv @ e @ v) * dd) @ vinv
            return assert_finite(self._realify(out))
        n = a.shape[0]
        zero = np.zeros_like(a)
        out = [self._series(np.block([[a, x], [zero, a]]))[:n, n:]
               for x in (e if e.ndim == 3 else e[None])]
        return assert_finite(np.array(out).reshape(e.shape))

    def _divided_differences(self, w, fw):
        scale = 1.0 + float(np.max(np.abs(w))) if w.size else 1.0
        dw = w[:, None] - w[None, :]
        close = np.abs(dw) < DD_CLOSE_TOL * scale
        num = fw[:, None] - fw[None, :]
        mid = 0.5 * (w[:, None] + w[None, :])
        quot = np.where(close, 1.0, num / np.where(close, 1.0, dw))
        return np.where(close, self.df(mid.ravel()).reshape(mid.shape), quot)


def eigen_data(a):
    """The eigendecomposition of each slice of the stack a (m x N x N), as
    one complex stack (m x N+1 x N): row 0 the eigenvalues and the rows
    below the eigenvector matrix, as np.linalg.eig gives them for the slice
    alone.  One eig call on the distinct slices."""
    a = _check_stack(np.asarray(a, dtype=float))
    n = a.shape[-1]
    if not a.size:
        return np.zeros((len(a), n + 1, n), dtype=complex)
    keys = [x.tobytes() for x in a]
    first = {}
    for i, key in enumerate(keys):
        first.setdefault(key, i)
    w, v = np.linalg.eig(a[list(first.values())])
    slot = {key: j for j, key in enumerate(first)}
    out = np.concatenate([w[:, None, :], v], axis=1).astype(complex)
    return out[[slot[key] for key in keys]]


def _check_stack(a):
    """a as a stack of square matrices (a matrix is a stack of one)."""
    if a.ndim == 2:
        return _check_square(a)[None]
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise NonSquare("expected a square matrix or a stack of them, got "
                        "shape %s" % (a.shape,))
    return a


def _unique(entries):
    """The distinct dicts among entries, in first-seen order."""
    return list({id(e): e for e in entries}.values())


def _per_dtype(fn, arrays):
    """[fn(x) for x in arrays] by one stacked call of fn per dtype, so each
    result is that of the array alone (a stack takes one dtype)."""
    out = [None] * len(arrays)
    for dtype in {x.dtype for x in arrays}:
        idx = [i for i, x in enumerate(arrays) if x.dtype == dtype]
        for i, r in zip(idx, fn(np.stack([arrays[i] for i in idx]))):
            out[i] = r
    return out


def _coth(z):
    return np.cosh(z) / np.sinh(z)


EXPM1_OVER = AnalyticFunction(
    "(exp(z)-1)/z", EXPM1_OVER_COEFFS, np.inf,
    lambda z: np.expm1(z) / z,
    lambda z: (np.exp(z) * (z - 1.0) + 1.0) / z ** 2)

SINH = AnalyticFunction("sinh", SINH_COEFFS, np.inf, np.sinh, np.cosh)

SINHC = AnalyticFunction(
    "sinh(z)/z", SINHC_COEFFS, np.inf,
    lambda z: np.sinh(z) / z,
    lambda z: (z * np.cosh(z) - np.sinh(z)) / z ** 2)

SINH_REM = AnalyticFunction(
    "(sinh(z)-z)/z^2", SINH_REM_COEFFS, np.inf,
    lambda z: (np.sinh(z) - z) / z ** 2,
    lambda z: (np.cosh(z) - 1.0) / z ** 2 - 2.0 * (np.sinh(z) - z) / z ** 3)

F_MEROMORPHIC = AnalyticFunction(
    "coth(z)-1/z", F_COEFFS, np.pi,
    lambda z: _coth(z) - 1.0 / z,
    lambda z: 1.0 / z ** 2 - 1.0 / np.sinh(z) ** 2,
    singular_distance=_dist_to_ipi_nonzero)

TANH = AnalyticFunction(
    "tanh", TANH_COEFFS, np.pi / 2.0,
    np.tanh,
    lambda z: 1.0 / np.cosh(z) ** 2,
    singular_distance=_dist_to_ipi_half)

INV_SINHC = AnalyticFunction(
    "z/sinh(z)", INV_SINHC_COEFFS, np.pi,
    lambda z: z / np.sinh(z),
    lambda z: (np.sinh(z) - z * np.cosh(z)) / np.sinh(z) ** 2,
    singular_distance=_dist_to_ipi_nonzero)

TRIV_REM = AnalyticFunction(
    "1/z-1/sinh(z)", TRIV_REM_COEFFS, np.pi,
    lambda z: 1.0 / z - 1.0 / np.sinh(z),
    lambda z: np.cosh(z) / np.sinh(z) ** 2 - 1.0 / z ** 2,
    singular_distance=_dist_to_ipi_nonzero)


def expm_frechet(a, e):
    """The Frechet derivative of exp at a along one direction e (N x N), or
    along each slice of a stack of them (k x N x N, stacked alike): one
    scipy.linalg.expm_frechet call per direction.  Non-finite input raises
    ValueError and a non-finite result EvaluationFailed.
    """
    a = _check_square(np.asarray(a, dtype=float))
    e = np.asarray(e, dtype=float)
    if e.shape[-2:] != a.shape or e.ndim not in (2, 3):
        raise NonSquare("direction shape %s does not match matrix shape %s"
                        % (e.shape, a.shape))
    if not (np.isfinite(a).all() and np.isfinite(e).all()):
        raise ValueError("expm_frechet: array must not contain infs or NaNs")
    try:
        # looked up per call, so that a wrapper on scipy.linalg sees it
        out = np.array([scipy.linalg.expm_frechet(a, x, compute_expm=False,
                                                  check_finite=False)
                        for x in (e if e.ndim == 3 else e[None])])
    except (ValueError, OverflowError) as exc:
        # scipy's LU solve refuses a derivative part that overflowed, and
        # its scaling step a 1-norm of a that does
        raise EvaluationFailed("expm_frechet: non-finite result") from exc
    return assert_finite(out.reshape(e.shape))


def offdiag_inverse_identity_residual(f, split):
    """Residual of the two expressions for the off-diagonal block of an
    automorphism inverse:  (p f i)^{-1} p f i'  vs  -p f^{-1} i' (p' f^{-1} i')^{-1}.

    Both diagonal blocks must be safely invertible (condition number below
    BLOCK_COND_LIMIT), else SingularBlock is raised.
    """
    f = _check_square(np.asarray(f, dtype=float))
    if f.shape[0] != split.dim:
        raise NonSquare("matrix dimension does not match the split")
    finv = np.linalg.inv(f)
    d1 = split.proj1 @ f @ split.inj1
    d2 = split.proj2 @ finv @ split.inj2
    for name, d in (("p f i", d1), ("p' f^-1 i'", d2)):
        if np.linalg.cond(d) >= BLOCK_COND_LIMIT:
            raise SingularBlock("block %s is numerically singular" % name)
    lhs = np.linalg.solve(d1, split.proj1 @ f @ split.inj2)
    rhs = -(split.proj1 @ finv @ split.inj2) @ np.linalg.inv(d2)
    return float(np.max(np.abs(lhs - rhs))) if lhs.size else 0.0


def d_ad_power(x, u, v, n, algebra):
    """Exact directional derivative of x -> ad_x^n v in direction u:

        sum_{i=0}^{n-1} C(n, i+1) [ad_x^i u, ad_x^{n-i-1} v].
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    adx = algebra.ad_matrix(x)
    au = [np.asarray(u, dtype=float)]
    av = [np.asarray(v, dtype=float)]
    for _ in range(n - 1):
        au.append(adx @ au[-1])
        av.append(adx @ av[-1])
    out = np.zeros(len(au[0]))
    for i in range(n):
        out = out + math.comb(n, i + 1) * algebra.bracket(au[i], av[n - 1 - i])
    return out


def finite_diff(field, p, direction=None):
    """Central difference (field(p + h d) - field(p - h d)) / 2h.

    The step is h = cbrt(eps) * (1 + |p|).  Without a direction, field is
    a stacked evaluator (a stack of points in, the stack of their values
    out), and the result is the stack of derivatives along every basis
    direction e_b, each one Richardson step (4 D(h/2) - D(h)) / 3 on the
    central differences D of step h and h/2.  Its 4k probes go to field as
    one stack: first p + h e_b, p - h e_b for each b in order, then the
    same at h/2.  p may also be a stack of points (m x k): then each point
    takes its own step, as it would alone, all 4mk probes go to field as
    one stack, point after point, and the result is the stack of each
    point's derivatives, bitwise those of the point alone.  Any
    DomainViolation raised by the evaluator (including domain errors of
    dynamical fields, which subclass it) propagates.
    """
    p = np.asarray(p, dtype=float)
    if direction is None:
        ps = p if p.ndim == 2 else p[None]
        m, k = ps.shape
        # one norm per point, taken as for that point alone
        steps = np.array([CBRT_EPS * (1.0 + np.linalg.norm(q)) for q in ps])
        # probes[i, j, b, s] = ps[i] + offsets[i, j, s] e_b
        offsets = steps[:, None, None] * np.array([[1.0, -1.0], [0.5, -0.5]])
        probes = (ps[:, None, None, None, :]
                  + offsets[:, :, None, :, None] * np.eye(k)[:, None, :])
        vals = np.asarray(field(probes.reshape(4 * m * k, k)), dtype=float)
        vals = vals.reshape((m, 2, k, 2) + vals.shape[1:])
        steps = steps.reshape((m, 1) + (1,) * (vals.ndim - 4))
        d_h = (vals[:, 0, :, 0] - vals[:, 0, :, 1]) / (2.0 * steps)
        d_half = (vals[:, 1, :, 0] - vals[:, 1, :, 1]) / steps
        out = (4.0 * d_half - d_h) / 3.0
        return out if p.ndim == 2 else out[0]
    step = CBRT_EPS * (1.0 + np.linalg.norm(p))
    direction = np.asarray(direction, dtype=float)
    fp = np.asarray(field(p + step * direction), dtype=float)
    fm = np.asarray(field(p - step * direction), dtype=float)
    return (fp - fm) / (2.0 * step)
