"""Quasi-bialgebra structures and their doubles.

A quasi-bialgebra here is a finite-dimensional Lie algebra together with a
cocycle tensor (one skew matrix per basis direction, acting on covector
coordinates) and an alternating 3-tensor.  These data induce a bracket on
the direct sum of the algebra and its dual; the structure is consistent
exactly when that bracket satisfies Jacobi.  This module builds the double,
evaluates the equivalent closed-form conditions so the two routes can be
checked against each other, and provides the derived constructions used
downstream: extraction from a lagrangian/complement pair, inversion,
transport along invertible maps, morphism certification, and the adjoint
action of the double.
"""

import numpy as np
import scipy.linalg

from .lie import LieAlgebraData
from .linalg import (
    BlockSplit,
    alternating_residual,
    antisymmetrize3,
    contract3,
    injection,
)

SKEW_TOL = 1e-12
ALTERNATING_TOL = 1e-12
COCYCLE_TOL = 1e-10
STRUCT_TOL = 1e-10
LAGRANGIAN_TOL = 1e-10
MORPHISM_TOL = 1e-9
AD_POWER_MAX = 4
COND_LIMIT = 1e12


class NotLagrangian(ValueError):
    """The proposed half-dimensional block is not isotropic or not closed."""


class NotIsotropicComplement(ValueError):
    """The proposed complement is not isotropic or not transverse."""


class SingularMap(ValueError):
    """A linear map that must be invertible is singular to working precision."""


def _max_abs(a):
    a = np.asarray(a)
    return float(np.abs(a).max()) if a.size else 0.0


class QuasiBialgebra:
    """Lie algebra + cocycle tensor + alternating 3-tensor.

    varpi[i] is the skew matrix of the cocycle evaluated on the i-th basis
    vector; varpi[i][k, b] is the k-th vector component of the image of the
    b-th dual basis covector.  phi[a, b, k] is the component of the 3-tensor
    against the dual basis triple (a, b, k).

    Both tensors are stored in canonical form (slices exactly skew, phi
    exactly alternating); inputs must be finite (else ValueError) and are
    only required to be within SKEW_TOL / ALTERNATING_TOL of that.  With
    check=True the cocycle identity is
    verified as well; check=False admits arbitrary candidates, which is what
    the double-vs-closed-form comparison needs.

    A structure is immutable: varpi and phi (and the algebra's c) are
    read-only, and the reductive split decomp is given at construction.
    So it owns what is derived from it: its double (`double`, built on
    first read), and the last canonical field that
    dynamics.canonical_field built on it (kept in `_canonical`, with the
    split it was built for).
    """

    def __init__(self, g, varpi, phi, decomp=None, check=True):
        n = g.dim
        varpi = np.asarray(varpi, dtype=float)
        phi = np.asarray(phi, dtype=float)
        if varpi.shape != (n, n, n):
            raise ValueError("cocycle tensor must have shape (n, n, n)")
        if phi.shape != (n, n, n):
            raise ValueError("3-tensor must have shape (n, n, n)")
        # a NaN residual would pass the checks below
        if not (np.all(np.isfinite(varpi)) and np.all(np.isfinite(phi))):
            raise ValueError("cocycle tensor and 3-tensor must be finite")
        sk = _max_abs(varpi + np.transpose(varpi, (0, 2, 1)))
        if sk > SKEW_TOL:
            raise ValueError("cocycle slices are not skew: residual %.3g" % sk)
        alt = alternating_residual(phi) if n else 0.0
        if alt > ALTERNATING_TOL:
            raise ValueError("3-tensor is not alternating: residual %.3g" % alt)
        self.g = g
        self.varpi = 0.5 * (varpi - np.transpose(varpi, (0, 2, 1)))
        self.phi = antisymmetrize3(phi)
        self.varpi.setflags(write=False)
        self.phi.setflags(write=False)
        self.decomp = decomp
        self._double = None
        # (split, field) of dynamics.canonical_field's last build on G
        self._canonical = None
        if check:
            res = cocycle_identity_residual(g, self.varpi)
            if not res <= COCYCLE_TOL:
                raise ValueError("cocycle identity residual %.3g exceeds %.1g"
                                 % (res, COCYCLE_TOL))

    @property
    def dim(self):
        return self.g.dim

    @property
    def double(self):
        """The double of the structure (build_double), built on first read
        and kept.  (Not a cached_property: its write through the instance
        __dict__ slows every later attribute read about twofold on CPython
        3.11.)"""
        if self._double is None:
            self._double = build_double(self)
        return self._double

    def cocycle_map(self, x):
        """Skew matrix of the cocycle on the vector x (dual coords -> coords)."""
        return np.einsum("i,ikb->kb", np.asarray(x, dtype=float), self.varpi)

    def __repr__(self):
        return "QuasiBialgebra(dim=%d)" % self.dim


def cocycle_identity_residual(g, varpi):
    """Residual of the cocycle law for a candidate tensor.

    The map sending a vector to its skew matrix must intertwine the bracket
    with the natural action on skew matrices, slice by slice.
    """
    lhs = np.einsum("ijm,mkb->ijkb", g.c, varpi)
    half = (np.einsum("ika,jab->ijkb", g.ad, varpi)
            + np.einsum("jka,iba->ijkb", varpi, g.ad))
    rhs = half - half.transpose(1, 0, 2, 3)
    return _max_abs(lhs - rhs)


def first_condition_tensor(g, varpi, phi):
    """Difference of the two sides of the first structure equation.

    Slab x of the result is the derivative of phi along ad_{e_x} minus the
    cyclic quadratic cocycle term; all slabs vanish iff the first closed-form
    condition holds.  The twist module relies on this tensor being twist
    invariant, so it is exposed as a standalone function.
    """
    act = (np.einsum("xal,lbk->xabk", g.ad, phi)
           + np.einsum("xbl,alk->xabk", g.ad, phi)
           + np.einsum("xkl,abl->xabk", g.ad, phi))
    t1 = np.einsum("xmb,mak->xabk", varpi, varpi)
    t2 = np.einsum("xmk,mba->xabk", varpi, varpi)
    t3 = np.einsum("xma,mkb->xabk", varpi, varpi)
    return act - (t1 + t2 + t3)


def second_condition_tensor(varpi, phi):
    """Cyclic compatibility of the 3-tensor with the dual-side bracket."""
    t0 = (np.einsum("ijm,mlk->ijkl", phi, varpi)
          + np.einsum("mji,mkl->ijkl", varpi, phi))
    return t0 + t0.transpose(1, 2, 0, 3) + t0.transpose(2, 0, 1, 3)


def check_quasi_bialgebra(G, tol=STRUCT_TOL):
    """Closed-form test equivalent to Jacobi on the double.

    Returns a report with the four residual families; `passed` holds exactly
    when build_double(G) has Jacobi residual within the same tolerance.
    """
    report = {
        "jacobi_residual": G.g.jacobi_residual(),
        "cocycle_residual": cocycle_identity_residual(G.g, G.varpi),
        "first_equation_residual": _max_abs(
            first_condition_tensor(G.g, G.varpi, G.phi)),
        "second_equation_residual": _max_abs(
            second_condition_tensor(G.varpi, G.phi)),
    }
    report["passed"] = all(v <= tol for v in report.values())
    return report


class DoubleAlgebra:
    """Direct sum of an algebra and its dual with the induced bracket.

    Carries the hyperbolic pairing (identity off-diagonal blocks) and the
    split into the original block and the dual block.  The pairing is
    invariant and the original block lagrangian by construction; both are
    asserted here because every downstream computation leans on them.
    """

    def __init__(self, d, split, pairing, source=None):
        self.d = d
        self.split = split
        self.pairing = np.asarray(pairing, dtype=float)
        self.source = source
        self.n = len(split.first)
        if _max_abs(self.pairing - self.pairing.T) > 0.0:
            raise ValueError("pairing must be symmetric as stored")
        res = self.pairing_invariance_residual()
        if not res <= STRUCT_TOL:
            raise ValueError("pairing invariance residual %.3g" % res)
        iso, clo = self.lagrangian_residuals()
        if not (iso <= LAGRANGIAN_TOL and clo <= LAGRANGIAN_TOL):
            raise ValueError("base block is not lagrangian: %.3g / %.3g"
                             % (iso, clo))

    def pairing_invariance_residual(self):
        t = self.d.c @ self.pairing
        return _max_abs(t + np.transpose(t, (0, 2, 1)))

    def lagrangian_residuals(self):
        """(isotropy, closure) residuals of the base block."""
        n = self.n
        b = self.split.inj1
        first = self.split.first
        iso = _max_abs(b.T @ self.pairing @ b)
        # the injection selects coordinates, so the bracket of the base
        # block is a slice of the structure constants
        clo = _max_abs(self.d.c[np.ix_(first, first)][:, :, n:])
        return iso, clo

    def jacobi_residual(self):
        return self.d.jacobi_residual()

    def embed(self, x=None, xi=None):
        """Ambient vector with base part x and dual part xi; for stacks of
        parts, the stack of vectors."""
        v = np.zeros(np.shape(xi if x is None else x)[:-1] + (2 * self.n,))
        if x is not None:
            v[..., :self.n] = x
        if xi is not None:
            v[..., self.n:] = xi
        return v

    def __repr__(self):
        return "DoubleAlgebra(n=%d)" % self.n


def build_double(G):
    """Assemble the bracket on algebra + dual induced by a candidate.

    The four blocks follow the defining bracket table; the result is exactly
    antisymmetric by construction, and its Jacobi residual certifies (or
    refutes) the quasi-bialgebra conditions.  Jacobi failure is reported by
    the returned object, never raised.
    """
    n = G.dim
    c, w, phi = G.g.c, G.varpi, G.phi
    cd = np.zeros((2 * n, 2 * n, 2 * n))
    cd[:n, :n, :n] = c
    cd[:n, n:, :n] = w.transpose(0, 2, 1)
    cd[:n, n:, n:] = -c.transpose(0, 2, 1)
    cd[n:, :n, :] = -np.transpose(cd[:n, n:, :], (1, 0, 2))
    cd[n:, n:, :n] = phi
    cd[n:, n:, n:] = w.transpose(2, 1, 0)
    names = G.g.basis_names + [nm + "*" for nm in G.g.basis_names]
    d = LieAlgebraData(cd, basis_names=names, check=False)
    q = np.zeros((2 * n, 2 * n))
    q[:n, n:] = np.eye(n)
    q[n:, :n] = np.eye(n)
    split = BlockSplit(2 * n, np.arange(n), np.arange(n, 2 * n))
    return DoubleAlgebra(d, split, q, source=G)


def _column_basis(dim, block):
    block = np.asarray(block)
    if block.ndim == 1:
        return injection(dim, block.astype(int))
    return np.asarray(block, dtype=float)


def quasi_triple_extract(double, g_block, h_complement, basis_names=None,
                         decomp=None):
    """Quasi-bialgebra carried by a lagrangian block and isotropic complement.

    g_block and h_complement are index lists into the double's basis or
    explicit column-basis matrices, each spanning half the double.  The
    complement is rescaled by the inverse pairing Gram matrix so the
    resulting dual frame pairs to the identity; the bracket, cocycle, and
    3-tensor are then read off componentwise.  Extracting from
    build_double(G) with the dual block as complement returns G exactly.
    The result carries the split decomp.
    """
    d = double.d
    q = double.pairing
    dim2 = d.dim
    bg = _column_basis(dim2, g_block)
    bh = _column_basis(dim2, h_complement)
    n = bg.shape[1]
    if 2 * n != dim2 or bh.shape[1] != n:
        raise ValueError("each block must span half of the double")
    iso_g = _max_abs(bg.T @ q @ bg)
    if not iso_g <= LAGRANGIAN_TOL:
        raise NotLagrangian("base block isotropy residual %.3g" % iso_g)
    iso_h = _max_abs(bh.T @ q @ bh)
    if not iso_h <= LAGRANGIAN_TOL:
        raise NotIsotropicComplement("complement isotropy residual %.3g" % iso_h)
    if np.linalg.cond(np.hstack([bg, bh])) > COND_LIMIT:
        raise NotIsotropicComplement("complement is not transverse")

    omega = bg.T @ q @ bh
    frame = bh @ np.linalg.inv(omega)   # pairs with bg columns to identity
    qf = q @ frame

    def brackets(x, y):
        # [x_a, y_b] in the double's basis, br[m, a, b]: the three-operand
        # einsum "ia,jb,ijm->mab" contracted pairwise, over j and then i
        return np.einsum("ia,imb->mab", x, np.einsum("ijm,jb->imb", d.c, y))

    br_gg = brackets(bg, bg)
    clo = _max_abs(np.einsum("ma,mij->aij", q @ bg, br_gg))
    if not clo <= LAGRANGIAN_TOL:
        raise NotLagrangian("base block closure residual %.3g" % clo)

    c_new = np.einsum("mk,mij->ijk", qf, br_gg)
    c_new = 0.5 * (c_new - c_new.transpose(1, 0, 2))
    br_gh = brackets(bg, frame)
    w_new = np.einsum("mk,mib->ikb", qf, br_gh)
    w_new = 0.5 * (w_new - w_new.transpose(0, 2, 1))
    br_hh = brackets(frame, frame)
    phi_new = antisymmetrize3(np.einsum("ma,mbk->abk", qf, br_hh))

    g_new = LieAlgebraData(c_new, basis_names=basis_names, check=False)
    return QuasiBialgebra(g_new, w_new, phi_new, decomp=decomp)


def invert(G, decomp=None):
    """Same bracket and 3-tensor, cocycle negated.  An involution.  The
    result carries the split decomp, or G's split when decomp is None."""
    return QuasiBialgebra(G.g, -G.varpi, G.phi,
                          decomp=G.decomp if decomp is None else decomp,
                          check=False)


def check_J_iso(G):
    """Residual of the dual-sign flip as an isomorphism of doubles.

    The map fixing the base block and negating the dual block must send the
    double bracket of G to the double bracket of invert(G).
    """
    c1 = G.double.d.c
    c2 = invert(G).double.d.c
    n = G.dim
    s = np.concatenate([np.ones(n), -np.ones(n)])
    lhs = c1 * s[None, None, :]
    rhs = s[:, None, None] * s[None, :, None] * c2
    return _max_abs(lhs - rhs)


def transport(G, w, is_automorphism=False):
    """Push the whole structure forward along an invertible map.

    Bracket, cocycle, and 3-tensor are all moved by w so that w becomes a
    certified morphism from G to the result (check_morphism passes).  With
    is_automorphism=True the map is required to preserve the bracket, which
    is then reused unchanged.  Each tensor is contracted pairwise, in
    O(n^4).
    """
    w = np.asarray(w, dtype=float)
    n = G.dim
    if w.shape != (n, n):
        raise ValueError("transport map must be %d x %d" % (n, n))
    if not np.all(np.isfinite(w)) or np.linalg.cond(w) > COND_LIMIT:
        raise SingularMap("transport map is singular to working precision")
    winv = np.linalg.inv(w)
    c = G.g.c
    if is_automorphism:
        res = _max_abs(np.einsum("km,ijm->ijk", w, c)
                       - np.einsum("ai,bj,abk->ijk", w, w, c))
        if not res <= MORPHISM_TOL:
            raise ValueError("map is not an automorphism: residual %.3g" % res)
        g_new = G.g
    else:
        c_new = contract3(c, winv, w)
        c_new = 0.5 * (c_new - c_new.transpose(1, 0, 2))
        g_new = LieAlgebraData(c_new, basis_names=G.g.basis_names, check=False)
    mixed = np.einsum("ai,akb->ikb", winv, G.varpi)
    w_new = w @ mixed @ w.T
    w_new = 0.5 * (w_new - w_new.transpose(0, 2, 1))
    phi_new = antisymmetrize3(contract3(G.phi, w.T, w))
    return QuasiBialgebra(g_new, w_new, phi_new)


def check_morphism(upsi, G1, G2):
    """Residuals certifying a linear map as a quasi-bialgebra morphism.

    Reports the bracket, cocycle, and 3-tensor intertwining residuals, plus
    the four projected power identities relating the adjoint of a covector
    in the two doubles: powers of ad taken in either double, compressed to
    the four blocks, must intertwine through the map and its transpose.
    Power identities are evaluated on every dual basis covector plus four
    seeded random ones, for matrix powers 1..AD_POWER_MAX.
    """
    psi = np.asarray(upsi, dtype=float)
    n1, n2 = G1.dim, G2.dim
    if psi.shape != (n2, n1):
        raise ValueError("morphism candidate must map dim %d to dim %d" % (n1, n2))
    bracket = _max_abs(np.einsum("km,ijm->ijk", psi, G1.g.c)
                       - np.einsum("ai,bj,abk->ijk", psi, psi, G2.g.c))
    cocycle = _max_abs(np.einsum("ka,iab,mb->ikm", psi, G1.varpi, psi)
                       - np.einsum("ai,akb->ikb", psi, G2.varpi))
    associator = _max_abs(np.einsum("ia,jb,kc,abc->ijk", psi, psi, psi, G1.phi)
                          - G2.phi)

    d1 = G1.double
    d2 = G2.double
    rng = np.random.default_rng(0)
    covectors = [np.eye(n2)[:, j] for j in range(n2)]
    covectors += [rng.standard_normal(n2) for _ in range(4)]
    power_res = np.zeros(4)
    for xi in covectors:
        a1 = d1.d.ad_matrix(d1.embed(xi=psi.T @ xi))
        a2 = d2.d.ad_matrix(d2.embed(xi=xi))
        p1 = np.eye(2 * n1)
        p2 = np.eye(2 * n2)
        for _ in range(AD_POWER_MAX):
            p1 = p1 @ a1
            p2 = p2 @ a2
            r = [
                _max_abs(psi @ p1[:n1, :n1] - p2[:n2, :n2] @ psi),
                _max_abs(p1[n1:, n1:] @ psi.T - psi.T @ p2[n2:, n2:]),
                _max_abs(p1[n1:, :n1] - psi.T @ p2[n2:, :n2] @ psi),
                _max_abs(psi @ p1[:n1, n1:] @ psi.T - p2[:n2, n2:]),
            ]
            power_res = np.maximum(power_res, r)

    report = {
        "bracket_residual": bracket,
        "cocycle_residual": cocycle,
        "associator_residual": associator,
        "power_identity_residuals": [float(v) for v in power_res],
    }
    report["passed"] = (max(bracket, cocycle, associator) <= MORPHISM_TOL
                        and float(np.max(power_res)) <= MORPHISM_TOL)
    return report


def adjoint_double(u, double):
    """exp of the double's adjoint of a base-algebra vector."""
    v = double.embed(x=u)
    return scipy.linalg.expm(double.d.ad_matrix(v))


def group_cocycle_block(u, double):
    """Group cocycle at exp(u), read off the adjoint of the double.

    The adjoint of a base vector is block upper triangular; the cocycle is
    the off-diagonal block composed with the inverse of the dual diagonal
    block.  For an exact algebra cocycle with potential t this equals
    Ad t Ad^T - t.
    """
    big = adjoint_double(u, double)
    n = double.n
    return big[:n, n:] @ np.linalg.inv(big[n:, n:])


def check_compatibility(G, decomp=None):
    """Residuals of a structure against a reductive split of the algebra.

    Four conditions: the cocycle vanishes on the subalgebra; the pairing of
    the complement's annihilator with its own cocycle images vanishes; the
    3-tensor has no component with exactly two subalgebra indices; and (for
    the canonical case) no component with all indices in the complement.
    """
    if decomp is None:
        decomp = G.decomp
    if decomp is None:
        raise ValueError("no reductive decomposition supplied")
    n = G.dim
    sub = np.asarray(decomp.sub, dtype=int)
    mask = np.zeros(n)
    mask[sub] = 1.0
    count = mask[:, None, None] + mask[None, :, None] + mask[None, None, :]
    report = {
        "sub_cocycle_residual": _max_abs(G.varpi[sub]),
        "perp_pairing_residual": _max_abs(G.varpi[:, sub][:, :, sub]),
        "two_sub_phi_residual": _max_abs(G.phi[count == 2.0]),
        "comp_phi_residual": _max_abs(G.phi[count == 0.0]),
    }
    report["compatible"] = all(report[k] <= STRUCT_TOL for k in
                               ("sub_cocycle_residual", "perp_pairing_residual",
                                "two_sub_phi_residual"))
    report["canonical"] = (report["compatible"]
                           and report["comp_phi_residual"] <= STRUCT_TOL)
    return report
