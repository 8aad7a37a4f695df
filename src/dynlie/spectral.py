"""Closed-form spectral models of linear matrix families A(p) = sum_b p_b A_b.

The canonical field evaluates matrix functions of two such families at every
base point: the double's adjoint ad_big(p) (its flow exp(-A)) and the small
double's adjoint (the meromorphic F and the spectral margin).  For many
structures their spectra are known in closed form, and two shapes are
modelled here:

* a commuting frame: the A_b commute and one eigenvector matrix V of a
  generic combination diagonalizes all of them, so the eigenvalues are
  linear in p, f(A) = V f(lambda(p)) V^-1, and along any direction of the
  family D f(A)[dA] = f'(A) dA;
* a cubic family: A(p)^3 = s(p) A(p) with s(p) = p^T Q p, so the
  eigenvalues are 0 and +-mu, mu = sqrt(s), and any f(A) is
  f(0) I + c1(s) A + c2(s) A^2 (Sylvester's interpolation form; for exp,
  the Rodrigues formula; Higham, Functions of Matrices, 2008, ch. 1), with
  an exact derivative through c1'(s), c2'(s) and ds = 2 p^T Q dp.

A model is accepted only after a check on the family (`build`): the frame
needs its commutators and its diagonalization residual within MODEL_TOL of
the family's scale and cond(V) below FRAME_COND_LIMIT; the cubic form needs
the identity at k(k+1)/2 + 4 seeded points, with Q fitted by least squares
and then re-checked.  A family that passes neither has no model.

On a cubic family the flow's top block rows [M N] = W exp(-A) (W = [I 0])
also have a bounded form (`graded`): exp(-A) = e^mu P- + P0 + e^-mu P+
with known projectors, and a left factor T that scales the rows along
range(W P-) by e^-mu turns W exp(-A) into bounded blocks [TM TN] with the
same ratio M^-1 N = (TM)^-1 TN (the decoupling of Ascher, Mattheij &
Russell, Numerical Solution of BVPs for ODEs, 1988, ch. 6, made exact by
the projectors).  Its derivative is bounded as well (`graded_derivative`).

Every model also evaluates any linalg.AnalyticFunction f of its family
(`apply`, and `frechet` along a stack of family directions), which is how
duality.TrivializationMap gets its functions of ad_big(p): V f(lambda(p))
V^-1 and V f'(lambda(p)) V^-1 dA on a frame; f(0) I + c1(s) A + c2(s) A^2
on a cubic family, with c1, c2 and their s-derivatives from f's Taylor
coefficients where |s| < SERIES_S and from f, f' at +-sqrt(s) elsewhere
(`interpolation_coeffs`).  The field's own F and flow keep their
evaluators (`f`, `exp_neg` and their derivatives, the coefficient table's
columns).

A family that passes neither check takes a general model
(`GeneralModel`; `GENERAL` is the pair a field starts with), which has the
same interface and evaluates each point numerically: scipy's expm for the
flow and linalg.expm_frechet (scipy's, per direction) for its derivative,
and the eig of A(p) for the margin, F and any other f.  The small double's
general model carries that eig in each point's data, so one eig per pass
serves its margin and F.

Every evaluator takes a stack of points and works slice by slice with
elementwise operations and stacked products, so each slice is bitwise the
call on that point alone.
"""

import math

import numpy as np
import scipy.linalg

from . import linalg

MODEL_TOL = 1e-12
FRAME_COND_LIMIT = 1e3
CUBIC_EXTRA_POINTS = 4
MODEL_SEED = 0
# |s| below which the cubic coefficient functions come from their Taylor
# series; SERIES_TERMS terms reach 1e-19 there (h has radius pi^2 in s)
SERIES_S = 1.0
SERIES_TERMS = 20
# a cubic flow with mu = sqrt(s) at least this large takes the bounded form
# of M^-1 N.  Against tests/oracle.py on su2-lagrangian, both forms are at
# roundoff for 0.75 <= mu <= 2; below, the projectors' division by s costs
# the bounded form digits (value off by 2.8e-15 at mu = 0.05) while the
# plain solve holds (cond(M) < 1.6 for mu <= 1); above, the plain solve
# loses digits with cond(M) (jet off by 8.6e-13 at mu = 8)
GRADED_MU = 1.0
RANK_TOL = 1e-8


def combine(ps, basis):
    """sum_b ps[:, b] * basis[b] for a stack of points ps (m x k), summed
    in order of b, so every slice is the sum for its point alone."""
    shape = (-1,) + (1,) * (np.ndim(basis) - 1)
    out = ps[:, 0].reshape(shape) * basis[0]
    for b in range(1, len(basis)):
        out = out + ps[:, b].reshape(shape) * basis[b]
    return out


def _dot(x, y):
    """sum_a x[:, a] y[:, a], in order of a."""
    out = x[:, 0] * y[:, 0]
    for a in range(1, x.shape[1]):
        out = out + x[:, a] * y[:, a]
    return out


def _inv_fact(j):
    return 1.0 / math.factorial(j)


# Columns of the cubic coefficient table, all functions of s with
# mu = sqrt(s): exp(-A) = I - g1 A + g2 A^2 and F(A) = h A when A^3 = s A,
# with g1 = sinh(mu)/mu, g2 = (cosh(mu) - 1)/mu^2, h = F(mu)/mu,
# F(z) = coth z - 1/z, and their s-derivatives.
S, G1, G2, DG1, DG2, H, DH = range(7)
# Taylor coefficients in s of g1, g2, g1', g2', h, h' (one row per power)
_SERIES = np.array([
    [_inv_fact(2 * j + 1), _inv_fact(2 * j + 2),
     (j + 1) * _inv_fact(2 * j + 3), (j + 1) * _inv_fact(2 * j + 4),
     linalg.F_COEFFS[2 * j + 1], (j + 1) * linalg.F_COEFFS[2 * j + 3]]
    for j in range(SERIES_TERMS)])
_POWERS = np.arange(SERIES_TERMS)[:, None]


def _guarded(fn, x):
    """fn(x), inf where it overflows."""
    try:
        return fn(x)
    except OverflowError:
        return math.inf


def _closed_row(x):
    """g1, g2, g1', g2', h, h' at one s = x with |x| >= SERIES_S, by their
    closed forms in m = sqrt(|x|): mu = m for x > 0, mu = i m for x < 0,
    so sinh, cosh, tanh of mu become i sin, cos, i tan of m.  A row that
    does not exist (an overflowed flow, a pole of F) holds inf or nan."""
    if not math.isfinite(x):
        return (math.nan,) * 6
    m = math.sqrt(abs(x))
    if x > 0.0:
        sign, sn, cs, tn = 1.0, _guarded(math.sinh, m), _guarded(
            math.cosh, m), math.tanh(m)
        half = _guarded(math.sinh, 0.5 * m)
    else:
        sign, sn, cs, tn = -1.0, math.sin(m), math.cos(m), math.tan(m)
        half = math.sin(0.5 * m)
    try:
        g1 = sn / m
        g2 = 2.0 * sign * half * half / x
        h = sign * (1.0 / tn - 1.0 / m) / m
        return (g1, g2, (cs - g1) / (2.0 * x), (g1 - 2.0 * g2) / (2.0 * x),
                h, (1.0 / x - sign / (sn * sn) - h) / (2.0 * x))
    except ZeroDivisionError:
        return (math.nan,) * 6


# columns of interpolation_coeffs: f(A) = f(0) I + c1 A + c2 A^2 when
# A^3 = s A, and the s-derivatives of c1 and c2
C1, C2, DC1, DC2 = range(4)


def interpolation_coeffs(fn, s):
    """c1, c2, c1', c2' of the AnalyticFunction fn at each s (m x 4,
    columns C1, C2, DC1, DC2), so that fn(A) = fn(0) I + c1(s) A + c2(s) A^2
    whenever A^3 = s A; each row depends on its s alone.

    Where |s| < SERIES_S they are series in s from fn's Taylor coefficients
    a_i: c1 = sum_j a_(2j+1) s^j and c2 = sum_j a_(2j+2) s^j (A^(2j+1) =
    s^j A, A^(2j+2) = s^j A^2).  Elsewhere they are Sylvester's
    interpolation through fn at the eigenvalues 0 and +-mu, mu = sqrt(s)
    (imaginary for s < 0): c1 = (f(mu) - f(-mu))/(2 mu) and
    c2 = (f(mu) + f(-mu) - 2 f(0))/(2 s), with their s-derivatives from f'
    at +-mu.  Raises linalg.SpectrumOnSingularSet where +-mu lies on a
    singularity of fn."""
    s = np.asarray(s, dtype=float)
    mu = np.sqrt(s.astype(complex))
    fn.check_spectrum(np.concatenate([mu, -mu]))
    out = np.empty(s.shape + (4,))
    small = np.abs(s) < SERIES_S
    if small.any():
        a, t = fn.coeffs, 2 * SERIES_TERMS
        j = np.arange(1, SERIES_TERMS + 1)
        table = np.stack([a[1:t:2], a[2:t + 1:2], j * a[3:t + 2:2],
                          j * a[4:t + 3:2]], axis=1)
        out[small] = np.sum(s[small, None, None] ** _POWERS * table, axis=1)
    if not small.all():
        x, m = s[~small], mu[~small]
        z = np.concatenate([m, -m])
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            fz, dz = fn.f(z), fn.df(z)
            fp, fm = np.split(fz, 2)
            dp, dm = np.split(dz, 2)
            c1 = (fp - fm) / (2.0 * m)
            c2 = (fp + fm - 2.0 * fn.coeffs[0]) / (2.0 * x)
            out[~small] = np.stack(
                [c1, c2, (0.5 * (dp + dm) - c1) / (2.0 * x),
                 ((dp - dm) / (4.0 * m) - c2) / x], axis=1).real
    return out


def cubic_coeffs(s):
    """The coefficient table at each s (m x 7, columns S, G1, ..., DH):
    the Taylor series where |s| < SERIES_S, the closed forms elsewhere,
    one point at a time (these are a few scalars, for which numpy's
    per-call cost dominates); each row depends on its s alone."""
    out = np.empty(s.shape + (7,))
    out[:, S] = s
    small = np.abs(s) < SERIES_S
    if small.any():
        powers = s[small, None, None] ** _POWERS
        out[small, 1:] = np.sum(powers * _SERIES, axis=1)
    if not small.all():
        out[~small, 1:] = [_closed_row(x) for x in s[~small].tolist()]
    return out


# ---------------------------------------------------------------------------
# the models
#
# Every model takes the points through `data(ps, a)` (a the family's
# matrices A(p) at the points ps), the per-point numbers the other
# evaluators read (a stack; a record keeps its slice): the eigenvalues of
# A(p) for a frame, the coefficient table for a cubic family, and for a
# general model the eigendecomposition of A(p) (linalg.eigen_data) or A(p)
# itself.  Per point, `margin` gives the spectral margin,
# `exp_neg` the flow exp(-A), `f` the meromorphic F(A) and `systems` the
# system whose ratio is M^-1 N, and `apply` any AnalyticFunction fn(A); at
# one point, `exp_neg_derivative`, `f_derivative`, `perp_derivative` and
# `frechet` differentiate them along a stack of directions.


class _Model:
    """The evaluators every model shares: the system of the flow's top
    block rows [M N] = W exp(-A), W = [I 0], and the derivative of its
    ratio M^-1 N."""

    def systems(self, d, a, e, n):
        """The system whose ratio is M^-1 N at each point of the stack (e
        the flows exp(-A)), as one dict per point with the blocks "tm" and
        "tn": here M and N themselves."""
        return [{"tm": x[:n, :n], "tn": x[:n, n:]} for x in e]

    def perp_derivative(self, system, perp, diag, das, dbig):
        """Derivatives of perp = (M^-1 N) diag at one point along the stack
        das of directions of A, dbig the flow's derivatives along them:
        M^-1 (dN diag - dM perp), by one solve for all directions."""
        m, n = len(das), perp.shape[0]
        sol = np.linalg.solve(system["tm"], np.concatenate(
            [dbig[:, :n, n:] @ diag, dbig[:, :n, :n] @ perp]))
        return sol[:m] - sol[m:]


class GeneralModel(_Model):
    """A family with no closed form, evaluated point by point: the flow
    from scipy's expm and its derivative from linalg.expm_frechet, the
    margin and every function f of the family (F among them) from the eig
    of A(p).  A decomposed model's data are linalg.eigen_data of the
    matrices A(p), one eig per pass that the margin and every f read (the
    margin bitwise the eigenvalues F is built from); otherwise the data are
    the matrices, and each f decomposes them on its call."""

    kind = "general"

    def __init__(self, decomposed):
        self.decomposed = decomposed

    def data(self, ps, a):
        return linalg.eigen_data(a) if self.decomposed else a

    def _eig(self, d):
        return d if self.decomposed else None

    def margin(self, d):
        w = (d if self.decomposed else linalg.eigen_data(d))[:, 0]
        return np.min(linalg._dist_to_ipi_nonzero(w), axis=-1)

    def exp_neg(self, d, a):
        # an overflowed flow is refused by the domain rule, as on the
        # closed models
        with np.errstate(over="ignore", invalid="ignore"):
            return scipy.linalg.expm(-a)

    def exp_neg_derivative(self, p, d, a, e, alphas, das):
        return linalg.expm_frechet(-a, -das)

    def f(self, d, a):
        return linalg.F_MEROMORPHIC.apply(a, self._eig(d))

    def f_derivative(self, p, d, a, alphas, das):
        return linalg.F_MEROMORPHIC.frechet(a, das, self._eig(d))

    def apply(self, fn, d, a):
        return fn.apply(a, self._eig(d))

    def frechet(self, fn, p, d, a, alphas, das):
        return fn.frechet(a, das, self._eig(d))


# the general models of a field's (double, small double) families: the
# double's flow needs no eig, the small double's margin and F share one
GENERAL = (GeneralModel(decomposed=False), GeneralModel(decomposed=True))


class FrameModel(_Model):
    """A commuting family diagonalized by one eigenvector matrix V: the
    eigenvalues of A(p) are sum_b p_b lam[b], lam[b] those of A_b in V's
    order."""

    kind = "commuting"

    def __init__(self, basis, v, vinv, lam):
        self.basis = basis
        self.v, self.vinv, self.lam = v, vinv, lam
        self.zero = not np.any(basis)

    def data(self, ps, a):
        return combine(ps, self.lam)

    def margin(self, d):
        """Distance of each point's spectrum to the poles i pi k, k != 0."""
        if self.zero:
            return np.full(len(d), np.pi)
        return np.min(linalg._dist_to_ipi_nonzero(d), axis=-1)

    def _spectral(self, fw):
        out = (self.v * fw[:, None, :]) @ self.vinv
        return out.real if np.iscomplexobj(out) else out

    def exp_neg(self, d, a):
        """exp(-A(p)) = I + V expm1(-lambda(p)) V^-1 for the stack d (a the
        A(p)): exactly I at p = 0."""
        eye = np.eye(a.shape[-1])
        if self.zero:
            return np.broadcast_to(eye, a.shape).copy()
        with np.errstate(over="ignore", invalid="ignore"):
            return eye + self._spectral(np.expm1(-d))

    def exp_neg_derivative(self, p, d, a, e, alphas, das):
        """Derivatives of exp(-A) at one point p (A = a, exp(-A) = e) along
        the stack das of family directions: -dA exp(-A), exact because
        every direction commutes with A."""
        return -(das @ e)

    def f(self, d, a):
        """F(A(p)), F(z) = coth z - 1/z, for the stack d."""
        if self.zero:
            return np.zeros(a.shape)
        return self._spectral(
            linalg.F_MEROMORPHIC.f(d.ravel()).reshape(d.shape))

    def f_derivative(self, p, d, a, alphas, das):
        """D F(A(p))[dA] = F'(A(p)) dA along the stack das."""
        if self.zero:
            return np.zeros(das.shape)
        return self._spectral(linalg.F_MEROMORPHIC.df(d)[None]) @ das

    def apply(self, fn, d, a):
        """fn(A(p)) = V fn(lambda(p)) V^-1 for the stack d (a the A(p))."""
        if self.zero:
            return fn.coeffs[0] * np.broadcast_to(np.eye(a.shape[-1]), a.shape)
        fn.check_spectrum(d)
        return linalg.assert_finite(
            self._spectral(fn.f(d.ravel()).reshape(d.shape)))

    def frechet(self, fn, p, d, a, alphas, das):
        """D fn(A(p))[dA] = V fn'(lambda(p)) V^-1 dA at one point along the
        stack das, exact because every direction commutes with A."""
        if self.zero:
            return np.zeros(das.shape)
        fn.check_spectrum(d)
        return linalg.assert_finite(self._spectral(fn.df(d)[None]) @ das)


class CubicModel(_Model):
    """A family with A(p)^3 = s(p) A(p), s(p) = p^T Q p."""

    kind = "cubic"

    def __init__(self, basis, q, rank=None):
        self.basis = basis
        self.q = q
        # rank of the projector P- (None: no point with s > 0 was seen)
        self.rank = rank

    def data(self, ps, a):
        with np.errstate(over="ignore", invalid="ignore"):
            return cubic_coeffs(_dot(ps, combine(ps, self.q)))

    def _ds(self, p, alphas):
        """2 alpha^T Q p for each alpha of the stack."""
        return 2.0 * _dot(alphas, np.broadcast_to(self.q @ p, alphas.shape))

    def margin(self, d):
        """Distance of 0 and +-sqrt(s) to the poles i pi k, k != 0: the
        spectrum of A(p) is {0, +-mu} (0 is an eigenvalue of every ad).
        For s >= 0 that is pi, the distance of 0."""
        s = d[:, S]
        out = np.full(len(s), np.pi)
        neg = s < 0.0
        if neg.any():
            mu = 1j * np.sqrt(-s[neg])
            out[neg] = np.minimum(np.pi, linalg._dist_to_ipi_nonzero(mu))
        return out

    def mu(self, d):
        """sqrt(s) where s > 0, else 0."""
        return np.sqrt(np.maximum(d[:, S], 0.0))

    def exp_neg(self, d, a):
        """exp(-A(p)) = I - g1 A + g2 A^2 for the stack d (a the A(p))."""
        with np.errstate(over="ignore", invalid="ignore"):
            return (np.eye(a.shape[-1]) - d[:, G1, None, None] * a
                    + d[:, G2, None, None] * (a @ a))

    def exp_neg_derivative(self, p, d, a, e, alphas, das):
        """Derivatives of exp(-A) at one point p (A = a) along the stack das
        of family directions alphas: the derivative of the Rodrigues
        form."""
        ds = self._ds(p, alphas)[:, None, None]
        return (-d[DG1] * ds * a - d[G1] * das + d[DG2] * ds * (a @ a)
                + d[G2] * (das @ a + a @ das))

    def f(self, d, a):
        return d[:, H, None, None] * a

    def f_derivative(self, p, d, a, alphas, das):
        return d[DH] * self._ds(p, alphas)[:, None, None] * a + d[H] * das

    def apply(self, fn, d, a):
        """fn(A(p)) = fn(0) I + c1 A + c2 A^2 for the stack d (a the A(p)),
        c1 and c2 from interpolation_coeffs."""
        c = interpolation_coeffs(fn, d[:, S])
        return linalg.assert_finite(
            fn.coeffs[0] * np.eye(a.shape[-1]) + c[:, C1, None, None] * a
            + c[:, C2, None, None] * (a @ a))

    def frechet(self, fn, p, d, a, alphas, das):
        """Derivatives of fn(A) at one point p (A = a) along the stack das of
        family directions alphas: those of the interpolation form, with
        ds = 2 alpha^T Q p."""
        c = interpolation_coeffs(fn, d[None, S])[0]
        ds = self._ds(p, alphas)[:, None, None]
        return linalg.assert_finite(
            c[DC1] * ds * a + c[C1] * das + c[DC2] * ds * (a @ a)
            + c[C2] * (das @ a + a @ das))

    def systems(self, d, a, e, n):
        """[M N] where mu < GRADED_MU (or the bounded form does not exist:
        no rank), else the bounded system of `graded`, whose dict adds its
        condition cond(TM) under "condition"."""
        out = super().systems(d, a, e, n)
        graded = (np.flatnonzero(self.mu(d) >= GRADED_MU) if self.rank
                  else [])
        if len(graded):
            g = self.graded(d[graded], a[graded], n)
            conds = np.linalg.cond(g["tm"]).tolist()
            for j, (i, cond) in enumerate(zip(graded, conds)):
                out[i] = {key: tuple(x[j] for x in v)
                          if isinstance(v, tuple) else v[j]
                          for key, v in g.items()}
                out[i]["condition"] = cond
        return out

    def perp_derivative(self, system, perp, diag, das, dbig):
        """Through the bounded system where the point has one
        (graded_derivative), else through [M N]."""
        if "mu" in system:
            return graded_derivative(system, perp, diag, das)
        return super().perp_derivative(system, perp, diag, das, dbig)

    def graded(self, d, a, n):
        """The bounded form of the top block rows of exp(-A(p)) for the
        stack d (a the A(p), every s(p) > 0), as a dict of stacks: "tm",
        "tn" (the bounded blocks [TM TN] = T W exp(-A)), and what
        graded_derivative reads.

        With P+- = (A^2 +- mu A)/(2s), P0 = I - A^2/s and W P- = U S V^T,
        U = [U1 U2] split after the rank r of P-, T stacks e^-mu U1^T over
        U2^T, so that T W exp(-A) = [U1^T W (P- + e P0 + e^2 P+);
        U2^T W (P0 + e P+)], e = e^-mu; U2^T W P- is exactly 0 and dropped.
        B = P- V1 S1^-1 is the basis of range(P-) with W B = U1."""
        r = self.rank
        s = d[:, S, None, None]
        mu = np.sqrt(s)
        a2 = a @ a
        pp = (a2 + mu * a) / (2.0 * s)
        pm = (a2 - mu * a) / (2.0 * s)
        p0 = np.eye(a.shape[-1]) - a2 / s
        u, sig, vh = np.linalg.svd(pm[:, :n], full_matrices=True)
        u1t = u[:, :, :r].transpose(0, 2, 1)
        u2t = u[:, :, r:].transpose(0, 2, 1)
        e = np.exp(-mu)
        lm, l0, lp = u1t @ pm[:, :n], u1t @ p0[:, :n], u1t @ pp[:, :n]
        k0, kp = u2t @ p0[:, :n], u2t @ pp[:, :n]
        twe = np.concatenate([lm + e * (l0 + e * lp), k0 + e * kp], axis=1)
        basis = pm @ (vh[:, :r].transpose(0, 2, 1) / sig[:, None, :r])
        return {"tm": twe[:, :, :n], "tn": twe[:, :, n:], "mu": mu[:, 0, 0],
                "u1t": u1t, "basis": basis, "p": (pm, p0, pp),
                "l": (lm, l0, lp), "k": (k0, kp)}


def graded_derivative(g, perp, diag, das):
    """Derivatives of perp = (M^-1 N) diag at one point along the stack das
    of directions of A, from the point's slice g of `graded`.

    d(M^-1 N) = M^-1 W dE Z with Z = [-M^-1 N; I], and M^-1 = (TM)^-1 T.
    dE = sum_ij g[l_i, l_j] P_i dA P_j Z (Daleckii-Krein, g the divided
    differences of e^-z over the eigenvalues -mu, 0, mu of the P-, P0, P+
    terms).  The terms that grow like e^mu meet either the row factor
    e^-mu of T or P- Z, which is small: W exp(-A) Z = 0 and W is injective
    on range(P-), so e^mu P- Z = -B U1^T W (P0 + e P+) Z.  Every
    coefficient below is then bounded, with e = e^-mu and
    phi(x) = (1 - e^-x)/x."""
    n = perp.shape[0]
    pm, p0, pp = g["p"]
    mu = g["mu"]
    e = math.exp(-mu)
    phi1 = -math.expm1(-mu) / mu
    phi2 = -math.expm1(-2.0 * mu) / (2.0 * mu)
    z = np.concatenate([-perp, diag])
    z0, zp = p0 @ z, pp @ z
    zm = -g["basis"] @ (g["u1t"] @ (z0 + e * zp)[:n])
    top = (-e * zm - phi1 * z0 - phi2 * zp,
           -e * (phi1 * zm + z0 + phi1 * zp),
           -e * (phi2 * zm + phi1 * z0 + e * zp))
    bottom = (-phi1 * zm - z0 - phi1 * zp,
              -phi2 * zm - phi1 * z0 - e * zp)
    rows = np.concatenate([
        sum(lt @ das @ y for lt, y in zip(g["l"], top)),
        sum(kt @ das @ y for kt, y in zip(g["k"], bottom))], axis=1)
    return np.linalg.solve(g["tm"], rows)


# ---------------------------------------------------------------------------
# building and checking a model


def _frame(basis, scale):
    comm = max((np.max(np.abs(x @ y - y @ x)) for x in basis for y in basis),
               default=0.0)
    if comm > MODEL_TOL * scale ** 2:
        return None
    weights = np.random.default_rng(MODEL_SEED).standard_normal(len(basis))
    _, v = np.linalg.eig(np.tensordot(weights, basis, axes=1))
    cond = np.linalg.cond(v)
    if not cond < FRAME_COND_LIMIT:
        return None
    vinv = np.linalg.inv(v)
    diag = vinv @ basis @ v
    lam = np.diagonal(diag, axis1=1, axis2=2).copy()
    off = diag - lam[:, :, None] * np.eye(basis.shape[-1])
    if np.max(np.abs(off)) > MODEL_TOL * cond * scale:
        return None
    if not np.any(lam.imag):
        v, vinv, lam = v.real, vinv.real, lam.real
    return FrameModel(basis, v, vinv, lam)


def _cubic(basis):
    k = len(basis)
    pts = np.random.default_rng(MODEL_SEED).standard_normal(
        (k * (k + 1) // 2 + CUBIC_EXTRA_POINTS, k))
    a = combine(pts, basis)
    a3 = a @ a @ a
    aa = np.sum(a * a, axis=(1, 2))
    if not np.all(aa > 0.0):
        return None
    s = np.sum(a3 * a, axis=(1, 2)) / aa
    iu = np.triu_indices(k)
    design = (pts[:, :, None] * pts[:, None, :])[:, iu[0], iu[1]]
    design[:, iu[0] != iu[1]] *= 2.0
    coef = np.linalg.lstsq(design, s, rcond=None)[0]
    q = np.zeros((k, k))
    q[iu] = coef
    q = q + np.triu(q, 1).T
    # entries at the fit's roundoff level are zero; the check below then
    # holds the identity with this Q
    q[np.abs(q) <= MODEL_TOL * np.max(np.abs(q))] = 0.0
    model = CubicModel(basis, q)
    s_fit = model.data(pts, a)[:, S]
    resid = np.max(np.abs(a3 - s_fit[:, None, None] * a), axis=(1, 2))
    bound = MODEL_TOL * (np.max(np.abs(a3), axis=(1, 2))
                         + np.abs(s_fit) * np.max(np.abs(a), axis=(1, 2)))
    if np.any(resid > bound):
        return None
    pos = np.flatnonzero(s_fit > 0.0)
    if len(pos):
        # the rank of P- is its trace; the bounded form needs W = [I 0]
        # injective on its range
        i, n = pos[0], basis.shape[-1] // 2
        mu = math.sqrt(s_fit[i])
        pm = (a[i] @ a[i] - mu * a[i]) / (2.0 * s_fit[i])
        rank = int(round(float(np.trace(pm))))
        sig = np.linalg.svd(pm[:n], compute_uv=False)
        if 0 < rank <= n and sig[rank - 1] > RANK_TOL * sig[0]:
            model.rank = rank
    return model


_MODELS = {}
MODEL_MEMO = 64


def build(basis):
    """The model of the family with basis matrices basis (k x N x N): a
    FrameModel when its check passes, else a CubicModel when that check
    passes, else None.  A model depends on the basis alone and is never
    changed, so the last MODEL_MEMO bases keep theirs: a structure that is
    rebuilt in one process (a TrivializationMap per check, each command
    of cli.main called in process) is checked once."""
    basis = np.asarray(basis, dtype=float)
    key = (basis.shape, basis.tobytes())
    if key in _MODELS:
        return _MODELS[key]
    scale = float(np.max(np.abs(basis))) if basis.size else 0.0
    if scale == 0.0:
        dim = basis.shape[-1]
        model = FrameModel(basis, np.eye(dim), np.eye(dim),
                           np.zeros(basis.shape[:2]))
    else:
        model = _frame(basis, scale) or _cubic(basis)
    if len(_MODELS) >= MODEL_MEMO:
        _MODELS.clear()
    _MODELS[key] = model
    return model
