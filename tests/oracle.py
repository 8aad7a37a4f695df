"""A high-precision oracle for the canonical field and its derivative jet.

Everything here runs in fixed-point arithmetic on Python integers with
BITS fractional bits (about 67 decimal digits; the representation that
mpmath's own kernels use, here on numpy object arrays so that a matrix
product is one call), from the structure tensors of a quasi-bialgebra
(c, varpi, phi) and the index sets of its split.  It calls no dynlie code;
mpmath supplies the Bernoulli numbers of F's Taylor series.  Every double
input is exact in this format.  At a base point p it forms

* the double's bracket on g + g* from the defining table, and the adjoint
  A = ad(p) of the covector p (supported on the subalgebra's slots);
* the flow E = expm(-A) (Taylor series after scaling, then squaring), its
  top blocks M, N and the ratio M^-1 N (Gaussian elimination with partial
  pivoting);
* the small double of (subalgebra, 0, phi restricted), its adjoint at p,
  and F = coth z - 1/z of it by argument halving and a Taylor series;
* the value l = inj F[:k, k:] inj^T - M^-1 N diag(comp);
* the jet dl/dp_b by central differences with step JET_STEP = 1e-25,
  whose truncation error (JET_STEP^2) and roundoff (2^-BITS / JET_STEP,
  times cond(M)) both sit far below double precision.
"""

import math

import mpmath as mp
import numpy as np

BITS = 224
ONE = 1 << BITS
DPS = 67
JET_STEP = (10 ** 25, 1)  # the step 1e-25 as (denominator, numerator)


def fix(x):
    """The double x as a fixed-point integer (exact)."""
    return int(math.ldexp(float(x), BITS))


def _float(a):
    """Fixed-point integers to the nearest doubles."""
    return np.array([[x / ONE for x in row] for row in a], dtype=float)


def _mul(a, b):
    return a.dot(b) >> BITS


def _eye(n):
    out = np.zeros((n, n), dtype=object)
    for i in range(n):
        out[i, i] = ONE
    return out


def _norm1(a):
    return max(sum(abs(x) for x in a[:, j]) for j in range(a.shape[1]))


def _expm(a):
    """exp(a): scale by 2^s to 1-norm <= 1/2, Taylor series until a term
    drops below 2^-(BITS - 16), then s squarings."""
    n = a.shape[0]
    s = max(0, (_norm1(a) // ONE).bit_length() + 1)
    x = a >> s
    term = out = _eye(n)
    for k in range(1, BITS):
        term = _mul(term, x) // k
        out = out + term
        if max(abs(v) for v in term.flat) < 1 << 16:
            break
    for _ in range(s):
        out = _mul(out, out)
    return out


def _solve(a, b):
    """a^-1 b by Gaussian elimination with partial pivoting."""
    n = a.shape[0]
    aug = np.concatenate([a, b], axis=1)
    for k in range(n):
        piv = max(range(k, n), key=lambda i: abs(aug[i, k]))
        aug[[k, piv]] = aug[[piv, k]]
        for i in range(k + 1, n):
            factor = (aug[i, k] << BITS) // aug[k, k]
            aug[i] = aug[i] - ((factor * aug[k]) >> BITS)
    x = np.zeros(b.shape, dtype=object)
    for i in range(n - 1, -1, -1):
        rest = aug[i, n:] - _mul(aug[i:i + 1, i + 1:n], x[i + 1:])[0]
        x[i] = (rest << BITS) // aug[i, i]
    return x


def _f_series_coeffs():
    """4^i B_2i / (2i)!, i >= 1, as fixed-point integers, until their terms
    drop below the precision for an argument of 1-norm 1/4."""
    out = []
    with mp.workdps(DPS + 20):
        for i in range(1, BITS):
            c = mp.mpf(4) ** i * mp.bernoulli(2 * i) / mp.factorial(2 * i)
            if abs(c) * mp.mpf(4) ** (1 - 2 * i) < mp.mpf(2) ** -BITS:
                break
            out.append(int(mp.nint(c * ONE)))
    return out


_F_COEFFS = _f_series_coeffs()


def _f(a):
    """coth(a) - a^-1 by argument halving: F(z) = sum_{j=1}^m
    2^-j tanh(z / 2^j) + 2^-m F(z / 2^m), tanh(z/2) = (e^z + 1)^-1 (e^z - 1),
    with m such that |a / 2^m|_1 <= 1/4, where the Taylor series
    sum_i 4^i B_2i z^(2i-1) / (2i)! (radius pi) is summed.  The
    exponentials are one expm and squarings."""
    n = a.shape[0]
    norm = _norm1(a)
    if not norm:
        return np.zeros((n, n), dtype=object)
    m = max(0, (4 * norm // ONE).bit_length())
    b = a >> m
    b2 = _mul(b, b)
    power = b
    out = np.zeros((n, n), dtype=object)
    for c in _F_COEFFS:
        out = out + ((c * power) >> BITS)
        power = _mul(power, b2)
    out = out >> m
    if m:
        eye = _eye(n)
        e = _expm(b << 1)
        for j in range(m, 0, -1):
            # e = exp(a / 2^(j-1)); tanh(a / 2^j) = (e + 1)^-1 (e - 1)
            out = out + (_solve(e + eye, e - eye) >> j)
            e = _mul(e, e)
    return out


def _double_tensor(c, w, phi):
    """Nonzero structure constants cd[i, j, k] of the double g + g*,
    n = len(c), with [x, y]_k = sum_ij x_i y_j cd[i, j, k], as fixed-point
    integers."""
    n = len(c)
    cd = {}
    for i in range(n):
        for j in range(n):
            for k in range(n):
                # [e_i, e_j], [e_i, e^j], [e^j, e_i], [e^i, e^j]
                cd[i, j, k] = c[i, j, k]
                cd[i, n + j, k] = w[i, k, j]
                cd[i, n + j, n + k] = -c[i, k, j]
                cd[n + j, i, k] = -w[i, k, j]
                cd[n + j, i, n + k] = c[i, k, j]
                cd[n + i, n + j, k] = phi[i, j, k]
                cd[n + i, n + j, n + k] = w[k, j, i]
    return {key: fix(v) for key, v in cd.items() if v}, 2 * n


def _ad(cd, dim, x):
    """ad_x, x a dict of its nonzero fixed-point coordinates."""
    a = np.zeros((dim, dim), dtype=object)
    for (i, j, k), v in cd.items():
        if i in x:
            a[k, j] += x[i] * v
    return a >> BITS


class FieldOracle:
    """The canonical field of (G, decomp) in fixed-point arithmetic."""

    def __init__(self, G, decomp):
        c = np.asarray(G.g.c, dtype=float)
        n = c.shape[0]
        sub = list(range(n)) if decomp is None else [int(i) for i in decomp.sub]
        comp = [] if decomp is None else [int(i) for i in decomp.comp]
        self.n, self.k, self.sub, self.comp = n, len(sub), sub, comp
        self.big, self.dim = _double_tensor(c, np.asarray(G.varpi, float),
                                            np.asarray(G.phi, float))
        csub = c[np.ix_(sub, sub, sub)]
        self.small, self.dim_small = _double_tensor(
            csub, np.zeros_like(csub),
            np.asarray(G.phi, float)[np.ix_(sub, sub, sub)])

    def big_ad(self, p):
        """ad(p) of the double at the point p, rounded to doubles."""
        return _float(_ad(self.big, self.dim, {
            self.n + s: fix(x) for s, x in zip(self.sub, p)}))

    def _value(self, q):
        n, k = self.n, self.k
        e = _expm(-_ad(self.big, self.dim,
                       {n + s: x for s, x in zip(self.sub, q)}))
        ratio = _solve(e[:n, :n], e[:n, n:])
        f = _f(_ad(self.small, self.dim_small,
                   {k + b: x for b, x in enumerate(q)}))
        out = np.zeros((n, n), dtype=object)
        for j in self.comp:
            out[:, j] = -ratio[:, j]
        for a, i in enumerate(self.sub):
            for b, j in enumerate(self.sub):
                out[i, j] += f[a, k + b]
        return out

    def value(self, p):
        """The field value at p, rounded to doubles."""
        return _float(self._value([fix(x) for x in p]))

    def jet(self, p):
        """dl/dp_b for every base direction b, rounded to doubles."""
        q = [fix(x) for x in p]
        den, num = JET_STEP
        step = (num * ONE) // den
        out = []
        for b in range(self.k):
            up, dn = list(q), list(q)
            up[b] += step
            dn[b] -= step
            diff = self._value(up) - self._value(dn)
            out.append([[x / (2 * step) for x in row] for row in diff])
        return np.array(out, dtype=float)
