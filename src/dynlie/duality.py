"""Dual structures over a reductive split and the flat chart of the algebroid.

The double of a structure whose cocycle vanishes on the subalgebra and whose
3-tensor has no purely-complement component contains a second lagrangian
subalgebra: the subalgebra together with the annihilator of the subalgebra.
Extracting along it and negating the cocycle yields the dual structure
(dual_qbia); doing it twice returns the original up to the sign involution
that fixes the subalgebra and negates the complement (double_dual_check).

Over the chart where the closed-form field is defined, pairs (subalgebra
part, covector part) form a Lie algebroid: nu_anchor and nu_bracket evaluate
its anchor and bracket on sections.  TrivializationMap straightens that
algebroid onto a trivial product bundle: theta_connection is the flat
horizontal lift, phi_p_iso the fiberwise isomorphism onto the zero fiber,
trivialization_T / T_inverse the bundle map and its inverse.  The bracket
formula exists once, as a kernel over every pair of S sections at a base
point (_pair_brackets); nu_bracket is its two-section case.  The map's
flatness, bracket-morphism and vertical-compatibility residuals bracket all
pairs in one pass: each section is evaluated once and gives its jet along
the base basis directions once, and the derivative along another section's
anchor is the contraction of that (exact, since every exact section
derivative is linear in the direction).  Sections pushed through the map
get their jets from the trivial sections' jets as stacked rows.
The trivializations of a structure and of its dual agree up to explicit
signs; duality_theorem_check measures that identity.  symmetric_dual runs
the whole construction for the complexification double of a semisimple
algebra with an involution.
"""

import numpy as np

from . import dynamics, lie, linalg, qbia

DUAL_TOL = 1e-10
SEMISIMPLE_COND_LIMIT = 1e10
CHOP_TOL = 1e-12

# Bounds on TrivializationMap.check's residuals, keyed like its report and
# in its order; the report's `passed` reads all of them.
TRIV_TOLS = {
    "anchor_residual": 1e-10,
    "roundtrip_residual": 1e-10,
    "flatness_residual": 1e-9,
    "membership_residual": 1e-9,
    "bracket_residual": 1e-8,
    "psi_residual": 1e-9,
}
# seeded linear sections among check's bracket-morphism sections
LINEAR_SECTIONS = 3


class PreconditionFailed(ValueError):
    """The structure fails a hypothesis the construction requires."""


class NotInvolution(ValueError):
    """The supplied map is not an involutive automorphism."""


class NotSemisimple(ValueError):
    """The trace form is singular to working precision."""


def _resolve_decomp(G, decomp):
    if decomp is None:
        decomp = G.decomp
    if decomp is None:
        raise ValueError("no reductive decomposition supplied")
    return decomp


# ---------------------------------------------------------------------------
# the dual structure


def dual_qbia(G, decomp=None):
    """Dual structure over the subalgebra, read off the double.

    Preconditions: the cocycle vanishes on the subalgebra and the 3-tensor
    has no component supported entirely on the complement.  The dual lives
    on the span of the subalgebra basis followed by the covectors
    annihilating it; when the input is canonically compatible the result is
    certified canonically compatible for the block split (subalgebra slots
    first) and carries that split as its decomposition.
    """
    decomp = _resolve_decomp(G, decomp)
    rep = qbia.check_compatibility(G, decomp)
    failing = []
    if rep["sub_cocycle_residual"] > DUAL_TOL:
        failing.append("cocycle on subalgebra %.3e"
                       % rep["sub_cocycle_residual"])
    if rep["comp_phi_residual"] > DUAL_TOL:
        failing.append("3-tensor on complement %.3e"
                       % rep["comp_phi_residual"])
    if failing:
        raise PreconditionFailed("; ".join(failing))
    n = G.dim
    k = decomp.dim_sub
    sub = [int(i) for i in decomp.sub]
    comp = [int(b) for b in decomp.comp]
    gidx = sub + [n + b for b in comp]
    hidx = [n + z for z in sub] + comp
    names = ([G.g.basis_names[i] for i in sub]
             + [G.g.basis_names[b] + "'" for b in comp])
    ext = qbia.quasi_triple_extract(G.double, gidx, hidx, basis_names=names)
    try:
        split = lie.ReductiveDecomposition(ext.g, list(range(k)),
                                           list(range(k, n)))
    except ValueError:
        split = None
    star = qbia.invert(ext, decomp=split)
    if rep["canonical"]:
        if star.decomp is None:
            raise PreconditionFailed("dual of a canonically compatible "
                                     "structure lost its reductive split")
        srep = qbia.check_compatibility(star, star.decomp)
        if not srep["canonical"]:
            raise PreconditionFailed(
                "dual lost canonical compatibility: %s" % srep)
    return star


def _op_map(decomp, n):
    """Sign map fixing the subalgebra and negating the complement, composed
    with the reordering that lists subalgebra slots first."""
    w = np.zeros((n, n))
    for a, i in enumerate(decomp.sub):
        w[a, i] = 1.0
    for j, b in enumerate(decomp.comp):
        w[decomp.dim_sub + j, b] = -1.0
    return w


def double_dual_check(G, decomp=None):
    """Componentwise residual between the twice-dualized structure and the
    push-forward of the original along the subalgebra-fixing sign map.  A
    caller that holds the dual already passes it to _roundtrip_residual
    instead, which builds only the second dual."""
    decomp = _resolve_decomp(G, decomp)
    return _roundtrip_residual(G, decomp, dual_qbia(G, decomp))


def _roundtrip_residual(G, decomp, star):
    """double_dual_check's residual, given star = dual_qbia(G, decomp)."""
    if star.decomp is None:
        raise PreconditionFailed("dual carries no reductive split")
    star2 = dual_qbia(star, star.decomp)
    model = qbia.transport(G, _op_map(decomp, G.dim))
    return max(qbia._max_abs(star2.g.c - model.g.c),
               qbia._max_abs(star2.varpi - model.varpi),
               qbia._max_abs(star2.phi - model.phi))


# ---------------------------------------------------------------------------
# sections, anchor, bracket


class AlgebroidSection:
    """Section of a two-component bundle over base points.

    Wraps a value callable returning a pair of vectors and (optionally) a
    jet callable returning their derivatives along the base basis
    directions, stacks (k, a), (k, b); derivative(p, beta) is the jet's
    dynamics._combine.  Without a jet callable, a derivative is a central
    difference of the value, both vectors from the same two evaluations,
    and the jet the stack of those along each e_b.
    """

    def __init__(self, value_fn, jet_fn=None):
        self._value = value_fn
        self._jet = jet_fn

    def value(self, p):
        a, b = self._value(np.asarray(p, dtype=float))
        return np.asarray(a, dtype=float), np.asarray(b, dtype=float)

    def jet(self, p):
        p = np.asarray(p, dtype=float)
        if self._jet is None:
            ders = [self.derivative(p, e) for e in np.eye(len(p))]
            return tuple(np.array(d) for d in zip(*ders))
        a, b = self._jet(p)
        return np.asarray(a, dtype=float), np.asarray(b, dtype=float)

    def derivative(self, p, beta):
        p = np.asarray(p, dtype=float)
        beta = np.asarray(beta, dtype=float)
        if self._jet is not None:
            return tuple(dynamics._combine(beta, d) for d in self.jet(p))
        split = []

        def joined(q):
            a, b = self.value(q)
            split.append(len(a))
            return np.concatenate([a, b])

        d = linalg.finite_diff(joined, p, beta)
        return d[:split[0]], d[split[0]:]


def polynomial_section(first, second):
    """Section from two polynomial maps; evaluation and jet exact (the
    transposed Jacobians)."""
    def val(p):
        return first.value(p), second.value(p)

    def jet(p):
        return first.jacobian(p).T, second.jacobian(p).T

    return AlgebroidSection(val, jet)


def constant_section(first, second):
    """Constant section with a zero jet; every call hands out new arrays."""
    first = np.asarray(first, dtype=float).copy()
    second = np.asarray(second, dtype=float).copy()
    return AlgebroidSection(
        lambda p: (first.copy(), second.copy()),
        lambda p: (np.zeros((len(p), len(first))),
                   np.zeros((len(p), len(second)))))


def nu_anchor(s, p, field):
    """Base direction moved by an algebroid element over p: the covector
    restricted to the subalgebra, minus the coadjoint action of the
    subalgebra part on the base point.  s is a section or a (z, xi) pair;
    a pair may hold stacked rows, giving one anchor per row."""
    p = np.asarray(p, dtype=float)
    if isinstance(s, AlgebroidSection):
        z, xi = s.value(p)
    else:
        z, xi = (np.asarray(v, dtype=float) for v in s)
    coad = np.einsum("...a,abm,m->...b", z, field.sub_c, p)
    return xi[..., field.sub] - coad


def _pair_brackets(field, p, z, xi, dz, dxi):
    """Algebroid bracket of every pair of S sections at p, in one pass.

    z (S, k) and xi (S, n) hold the section values; dz (S, S, k) and
    dxi (S, S, n) hold at [i, j] the derivative of section j along the
    anchor of section i.  Returns the brackets [s_i, s_j] as arrays of
    shapes (S, S, k) and (S, S, n).  First component: derivatives of each
    subalgebra part along the other's anchor image, minus the subalgebra
    bracket, plus the pairing of the covector parts through the field's
    base derivative (the field's value and jet at p).
    Second component: derivatives of the covector parts plus coadjoint
    terms of the subalgebra parts and of the field images, plus the
    cocycle pairing.
    """
    G = field.G
    lmat, dl = field.value(p), field.jet(p)
    grad = np.einsum("aij,xi,yj->xya", dl, xi, xi)
    zout = (dz - dz.transpose(1, 0, 2)
            - np.einsum("xa,yb,abm->xym", z, z, field.sub_c) + grad)

    # matrix-vector products are stacked as such (not as one matrix
    # product) so that every pair rounds exactly as a lone pair does
    def coad(v):
        # coad(v)[x, y] = ad(v[x]).T @ xi[y]
        adt = np.einsum("xi,ikj->xkj", v, G.g.ad).transpose(0, 2, 1)
        return np.matmul(adt[:, None], xi[None, :, :, None])[..., 0]

    iz = z @ field.inj.T
    lxi = np.matmul(lmat, xi[..., None])[..., 0]
    t_sub = coad(iz)
    t_field = coad(lxi)
    wvec = np.einsum("xa,iab,yb->xyi", xi, G.varpi, xi)
    xiout = (dxi - dxi.transpose(1, 0, 2)
             + t_sub - t_sub.transpose(1, 0, 2)
             + wvec
             + t_field - t_field.transpose(1, 0, 2))
    return zout, xiout


def nu_bracket(s1, s2, field):
    """Bracket of two sections of the chart algebroid, as a lazy section:
    the pair kernel above on the two sections, each differentiated along
    the other's anchor.  Derivatives of the returned section use the
    central-difference fallback.
    """
    def val(p):
        field._require_domain(p)
        z1, xi1 = s1.value(p)
        z2, xi2 = s2.value(p)
        a1 = nu_anchor((z1, xi1), p, field)
        a2 = nu_anchor((z2, xi2), p, field)
        dz = np.zeros((2, 2, field.base_dim))
        dxi = np.zeros((2, 2, field.G.dim))
        dz[0, 1], dxi[0, 1] = s2.derivative(p, a1)
        dz[1, 0], dxi[1, 0] = s1.derivative(p, a2)
        zout, xiout = _pair_brackets(field, p, np.stack([z1, z2]),
                                     np.stack([xi1, xi2]), dz, dxi)
        return zout[0, 1], xiout[0, 1]

    return AlgebroidSection(val)


def _jets(p, sections):
    """Values (S, a), (S, b) of the sections at p and their jets (k, S, a),
    (k, S, b) along the k base basis directions: one value and one jet call
    per section."""
    vals = [s.value(p) for s in sections]
    jets = [s.jet(p) for s in sections]
    return (np.stack([v[0] for v in vals]), np.stack([v[1] for v in vals]),
            np.stack([j[0] for j in jets], axis=1),
            np.stack([j[1] for j in jets], axis=1))


def _along(directions, jet):
    """Derivative [i, j] of section j along directions[i], by linearity
    from its derivatives jet[b, j] along the base basis directions."""
    return np.einsum("ib,bj...->ij...", directions, jet)


def _jet_brackets(field, p, z, xi, dz, dxi):
    """Brackets of every pair of sections from their jets at p (shapes as
    _jets returns them): each section differentiated along the others'
    anchors by contraction of its basis-direction derivatives."""
    anchors = nu_anchor((z, xi), p, field)
    return _pair_brackets(field, p, z, xi, _along(anchors, dz),
                          _along(anchors, dxi))


# ---------------------------------------------------------------------------
# the trivialization


def _read_only(m):
    m = m.view()
    m.setflags(write=False)
    return m


class _PointFlows:
    """What the trivialization computes from one base point p of a canonical
    field (see TrivializationMap): matrix functions of a = ad(p) and the
    fiber isomorphism at p, and the jets of their Frechet derivatives along
    the base basis directions e_b.  Each entry is computed on first use; its
    arrays are read-only.  Only jets are computed: D f(a)[ad(beta)] is
    linear in beta, so a derivative along beta is the jet's contraction.

    Every matrix comes from the field's spectral model of ad_big
    (field._models[0]) and the record's data of p ("data_big"), so on the
    model route a point pays no eig, expm or expm_frechet call:
    - f(a) for an AnalyticFunction f is the model's `apply`, and its jet one
      `frechet` call along every e_b, with the field's basis ads (closed
      forms on a commuting frame or a cubic family; f.apply / f.frechet on
      the general route);
    - exp(a) and its jet are the model's flow exp(-A) and one derivative
      call at -p along every -e_b (scipy's expm and linalg.expm_frechet on
      the general route);
    - exp(-a) and its jet are the field's flow and the flow part of the
      record's jet (field._jet), by whichever route the field takes
      (LMatrixField.route).
    """

    # the functions of a that the bundle map applies besides exp(a)
    FNS = (linalg.SINH_REM, linalg.SINHC, linalg.SINH)

    def __init__(self, field, rec):
        self._field = field
        self._rec = rec
        self._model = field._models[0]
        self.a = _read_only(rec["ad_big"])
        self.exp_neg = _read_only(rec["big"])
        self._eye = np.eye(field.base_dim)
        self._mats = {}

    def memo(self, key, compute):
        """compute() kept under key for the point, its arrays read-only."""
        out = self._mats.get(key)
        if out is None:
            out = compute()
            for m in out if isinstance(out, tuple) else (out,):
                if isinstance(m, np.ndarray):
                    m.setflags(write=False)
            self._mats[key] = out
        return out

    def _minus(self):
        """The point -p as the model reads it: -p, its data and
        A(-p) = -a, each a stack of one."""
        def compute():
            p, a = -self._rec["p"][None], -self.a[None]
            return p, self._model.data(p, a), a
        return self.memo("minus", compute)

    def exp(self):
        """exp(a): the model's flow exp(-A) at -p."""
        return self.memo(
            "exp", lambda: self._model.exp_neg(*self._minus()[1:])[0])

    def apply(self, fn):
        """fn(a) for an AnalyticFunction fn."""
        return self.memo(fn, lambda: self._model.apply(
            fn, self._rec["data_big"][None], self.a[None])[0])

    def exp_neg_jet(self):
        """The jet of exp(-a), the field's flow: the flow part of the
        record's jet (field._jet)."""
        return self._field._jet(self._rec)[1]

    def bundle(self):
        """The matrices (SINH_REM, SINHC, SINH, exp) of a that the bundle
        map applies."""
        return tuple(self.apply(fn) for fn in self.FNS) + (self.exp(),)

    def bundle_jet(self):
        """The jets (k, N, N) of the bundle matrices along the base basis
        directions: one model `frechet` call per function with the field's
        basis ads, and for exp(a) one derivative of the model's flow at -p
        along every -e_b."""
        def compute():
            rec, das = self._rec, self._field._basis_ads[0]
            jets = [self._model.frechet(fn, rec["p"], rec["data_big"],
                                        self.a, self._eye, das)
                    for fn in self.FNS]
            p, d, a = self._minus()
            jets.append(self._model.exp_neg_derivative(
                p[0], d[0], a[0], self.exp(), -self._eye, -das))
            return tuple(jets)
        return self.memo("bundle jet", compute)


class TrivializationMap:
    """Chart straightening of the algebroid onto a trivial product bundle.

    Built on the closed-form field of a canonically compatible pair.  The
    zero fiber is coordinatized by subalgebra coordinates followed by the
    coordinates along covectors annihilating the subalgebra;
    trivialization_T(p, alpha, x0) produces the algebroid element over p and
    T_inverse(p, z, eta) recovers (alpha, x0).  Every evaluator requires the
    base point to lie in the field's domain.

    The evaluators read what they need of the point p from one record per
    base point (_PointFlows), kept in the field's record of the point and
    so keyed on the point's shape and bytes and replaced with it when
    another point comes in.  It holds exp(a) and exp(-a) (the field's
    flow), f(a) for each analytic function used, the matrix of the fiber
    isomorphism phi_p with its leakage, and the jets of the Frechet
    derivatives of the bundle matrices (bundle_jet) and of the phi_p matrix
    (_phi_jet) along the k base basis directions, each built whole.  The
    functions of a and exp(a), with their jets, come from the field's
    spectral model of ad_big (closed forms on the model route, the eig
    route, scipy's expm and linalg.expm_frechet on the general route);
    exp(-a) and its jet are the field's own flow and jet, so they are never
    computed twice (see _PointFlows).  Each entry is computed on first use;
    its arrays are read-only, and _phi_data and the sections hand out owned
    arrays.

    flatness_residual, bracket_morphism_residual and
    psi_compatibility_residual take every pair of their sections at once:
    each section is evaluated once and hands out its jet once, which serves
    every pair.  The mapped sections of the first two are never evaluated
    one by one: the jets of the trivial-bundle sections (the lifts are the
    images of the constant sections (e_a, 0)) go through the map as stacked
    rows, the values in one pass and the jets in one pass per basis
    direction (_push_jet: Frechet matrices of the bundle map on the values
    plus the bundle map on the derivatives).  The right side of the bracket
    morphism goes through the map as one stack of rows too.

    The fiber algebra (fiber_c) is the dual algebra at the origin, where
    the field vanishes; it comes from the bracket formula alone
    (dynamics.vertex_bracket), whose certificate there is against the
    field's own double.

    The map builds no structure of its own: the field is
    dynamics.canonical_field(G, decomp), which G keeps, and the double
    and the fiber algebra are the ones G and the field keep.  So a second
    map on the same structure and split shares the first one's field, its
    point records included, and builds nothing.
    """

    def __init__(self, G, decomp=None):
        self.field = dynamics.canonical_field(G, decomp)
        self.G = G
        self.decomp = self.field.decomp
        self.double = G.double
        self.n = G.dim
        self.k = self.field.base_dim
        self.sub = self.field.sub
        self.comp = self.field.comp
        self.inj = self.field.inj
        self.compinj = linalg.injection(self.n, self.comp)
        # rows of the zero fiber's block inside the double, and the others
        self._target = np.concatenate([self.sub, self.n + self.comp])
        self._off_target = np.concatenate([self.comp, self.n + self.sub])
        self.fiber_c = self.field.fiber_c

    # -- shared pieces ------------------------------------------------------

    @staticmethod
    def _embed(v, dual=False):
        """Rows of the double holding v in the base part (in the dual part
        if dual) and zero in the other; a 1-d v gives one row."""
        zero = np.zeros_like(v)
        return np.concatenate([zero, v] if dual else [v, zero], axis=-1)

    def _sdual(self, alpha):
        return self._embed(np.asarray(alpha, dtype=float) @ self.inj.T,
                           dual=True)

    def _flows(self, p):
        """The _PointFlows record of base point p, which must lie in the
        field's domain."""
        field = self.field
        rec = field._live_record(field._check_point(p))
        if "flows" not in rec:
            rec["flows"] = _PointFlows(field, rec)
        return rec["flows"]

    def _coads(self, p):
        # row a holds the coadjoint action of the a-th subalgebra vector on p
        return np.einsum("abm,m->ab", self.field.sub_c, p)

    # -- horizontal lift ----------------------------------------------------

    def theta_connection(self, p, alpha):
        """Horizontal lift of a base covector direction: the fiber pair over
        p whose anchor is the direction and whose lifts bracket to zero.  It
        is the image of (alpha, 0) under the bundle map."""
        return self.trivialization_T(p, alpha, np.zeros(self.n))

    def theta_section(self, alpha):
        """The horizontal lift of alpha at every base point, with exact
        derivatives: the image of the constant section (alpha, 0)."""
        return self.compose_section(constant_section(alpha, np.zeros(self.n)))

    # -- fiber isomorphism onto the zero fiber ------------------------------

    def _phi_matrix(self, p, flows):
        """Columns (2n, n) of the fiber basis over p inside the double (the
        constrained subalgebra-type elements, then the annihilator
        covectors), the matrix of the fiber isomorphism onto the zero fiber,
        and the leakage outside its target block."""
        n, k = self.n, self.k
        xi = np.hstack([self.inj @ self._coads(p).T, self.compinj])
        cols = np.vstack([self.field.value(p) @ xi, xi])
        cols[:n, :k] += self.inj
        flow = flows.exp_neg @ cols
        return cols, flow[self._target], qbia._max_abs(flow[self._off_target])

    def _phi_data(self, p):
        """Matrix of the fiber isomorphism onto the zero fiber, as a copy,
        and the leakage outside the target block; kept in the point's
        record."""
        flows = self._flows(p)
        p = np.asarray(p, dtype=float)
        _, mat, leak = flows.memo("phi", lambda: self._phi_matrix(p, flows))
        return mat.copy(), leak

    def _phi_jet(self, p):
        """The jet of the _phi_data matrix, read-only and kept in the
        point's record: from the field's value and jet at p, each read
        once, and the jet of its flow exp(-a)."""
        flows = self._flows(p)
        cols = flows.memo("phi", lambda: self._phi_matrix(p, flows))[0]

        def compute():
            n, k = self.n, self.k
            lmat, dl = self.field.value(p), self.field.jet(p)
            out = []
            for e, dlb, dflow in zip(np.eye(k), dl, flows.exp_neg_jet()):
                dxi = np.zeros((n, n))
                dxi[:, :k] = self.inj @ self._coads(e).T
                dcols = np.vstack([dlb @ cols[n:] + lmat @ dxi, dxi])
                dflow = dflow @ cols + flows.exp_neg @ dcols
                out.append(dflow[self._target])
            return np.stack(out)
        return flows.memo("phi jet", compute)

    def fiber_element(self, p, v):
        """Algebroid element over p with the given fiber-basis coordinates:
        subalgebra part plus the covector forced by the constraint."""
        v = np.asarray(v, dtype=float)
        z = v[:self.k]
        eta = self.inj @ (z @ self._coads(p)) + self.compinj @ v[self.k:]
        return z, eta

    def vertical_section(self, xmap):
        """Anchor-kernel section whose zero-fiber image is minus the given
        polynomial fiber map."""
        def val(p):
            mat, _ = self._phi_data(p)
            return self.fiber_element(p, -np.linalg.solve(mat, xmap.value(p)))

        def jet(p):
            k, eye = self.k, np.eye(self.k)
            mat, _ = self._phi_data(p)
            v = -np.linalg.solve(mat, xmap.value(p))
            jac, coads = xmap.jacobian(p), self._coads(p)
            # a solve per direction: a solve of all of them at once need
            # not round as the lone solves do
            dv = np.array([-np.linalg.solve(mat, jac @ e + dmat @ v)
                           for e, dmat in zip(eye, self._phi_jet(p))])
            deta = [self.inj @ (d[:k] @ coads + v[:k] @ self._coads(e))
                    + self.compinj @ d[k:] for e, d in zip(eye, dv)]
            return dv[:, :k], np.array(deta)

        return AlgebroidSection(val, jet)

    # -- the bundle map and its inverse --------------------------------------

    def trivialization_T(self, p, alpha, x0):
        """Algebroid element over p attached to a base covector direction
        and a zero-fiber value (subalgebra coords then annihilator coords)."""
        z, eta, _ = self._forward(p, alpha, x0)
        return z, eta

    def _forward(self, p, alpha, x0):
        """trivialization_T on one argument pair, or on stacked rows alpha
        (R, k), x0 (R, n) giving z (R, k), eta (R, n); also returns the
        largest leakage outside the target blocks."""
        z, eta, v1, v2 = self._push(self._flows(p).bundle(), alpha, x0)
        stray = v1.copy()
        stray[..., list(self.sub)] = 0.0
        leak = max(qbia._max_abs(stray), qbia._max_abs(v2[..., :self.n]))
        return z, eta, leak

    def _push(self, mats, alpha, x0):
        """The linear map behind trivialization_T with the matrices mats
        (see _PointFlows.bundle) in place of the functions of ad(p), on one
        argument pair or on stacked rows; returns z, eta and the parts v1,
        v2 whose entries outside the target blocks vanish."""
        rem, sinhc, sinh, ex = mats
        n, k = self.n, self.k
        x0 = np.asarray(x0, dtype=float)
        # transposes turn stacked rows into columns and are no-ops on 1-d
        # arguments
        sa = self._sdual(alpha).T
        ze = self._embed(x0[..., :k] @ self.inj.T).T
        xie = self._embed(x0[..., k:] @ self.compinj.T, dual=True).T
        v1 = (rem @ sa - sinhc @ ze).T
        v2 = (sinhc @ sa - sinh @ ze).T
        flow = (ex @ xie).T
        return v1[..., :n][..., self.sub], v2[..., n:] - flow[..., n:], v1, v2

    def _push_jet(self, flows, a0, x0, da0, dx0):
        """Jet of the image of trivial-bundle sections with values (a0, x0)
        and jets (da0, dx0): along each e_b, the bundle map's Frechet
        matrices on the values plus the bundle map on the derivatives."""
        mats = flows.bundle()
        dz, deta = [], []
        for dmats, da, dx in zip(zip(*flows.bundle_jet()), da0, dx0):
            z1, eta1, _, _ = self._push(dmats, a0, x0)
            z2, eta2, _, _ = self._push(mats, da, dx)
            dz.append(z1 + z2)
            deta.append(eta1 + eta2)
        return np.array(dz), np.array(deta)

    def T_inverse(self, p, z, eta):
        """Base covector direction and zero-fiber value reproducing the
        given algebroid element over p.  Inverse of trivialization_T."""
        alpha, x0, _ = self._inverse(p, z, eta)
        return alpha, x0

    def _inverse(self, p, z, eta):
        p = np.asarray(p, dtype=float)
        z = np.asarray(z, dtype=float)
        eta = np.asarray(eta, dtype=float)
        flows = self._flows(p)
        n = self.n
        ahat = eta[self.sub]
        xi = eta.copy()
        xi[list(self.sub)] = 0.0
        alpha = ahat - np.einsum("a,abm,m->b", z, self.field.sub_c, p)
        v = flows.apply(linalg.TRIV_REM) @ self._sdual(ahat)
        blk = flows.exp()[n:, n:]
        if np.linalg.cond(blk) > dynamics.BLOCK_COND_LIMIT:
            raise linalg.SingularBlock(
                "covector block of the flow is singular to working precision")
        w = np.linalg.solve(blk, xi)
        x0 = np.concatenate([v[:n][self.sub] - z, -w[self.comp]])
        stray = v.copy()
        stray[list(self.sub)] = 0.0
        leak = max(qbia._max_abs(stray), qbia._max_abs(w[self.sub]))
        return alpha, x0, leak

    def compose_section(self, section):
        """Push a trivial-bundle section through the map, with an exact jet
        (the section must provide an exact jet itself)."""
        def val(p):
            a0, x0 = section.value(p)
            return self.trivialization_T(p, a0, x0)

        def jet(p):
            return self._push_jet(self._flows(p), *section.value(p),
                                  *section.jet(p))

        return AlgebroidSection(val, jet)

    # -- residual services ---------------------------------------------------

    def _section_brackets(self, p, sections):
        """Algebroid brackets [s_i, s_j] of every pair of the sections at p,
        shapes (S, S, k) and (S, S, n).  Each section is evaluated once and
        hands out its jet once; the derivative along another section's
        anchor is the contraction of that."""
        return _jet_brackets(self.field, p, *_jets(p, sections))

    def _mapped_brackets(self, p, a0, x0, da0, dx0):
        """Brackets [T s_i, T s_j] of every pair of trivial-bundle sections
        pushed through the map, from the sections' values a0 (S, k), x0
        (S, n) and jets da0 (k, S, k), dx0 (k, S, n): the values go through
        the map as one stack of rows, the jets as one stack per basis
        direction (_push_jet)."""
        flows = self._flows(p)
        z, eta, _, _ = self._push(flows.bundle(), a0, x0)
        return _jet_brackets(self.field, p, z, eta,
                             *self._push_jet(flows, a0, x0, da0, dx0))

    def flatness_residual(self, p):
        """Largest bracket component over all pairs of basis horizontal
        lifts at p (zero for a flat lift), every pair in one pass.  The lift
        of e_a is the image of the constant section (e_a, 0)."""
        k, n = self.k, self.n
        zb, xb = self._mapped_brackets(p, np.eye(k), np.zeros((k, n)),
                                       np.zeros((k, k, k)),
                                       np.zeros((k, k, n)))
        pairs = np.triu_indices(k, 1)
        return max(qbia._max_abs(zb[pairs]), qbia._max_abs(xb[pairs]))

    def psi_compatibility_residual(self, p, xmap, alpha):
        """Residual of the bracket of a horizontal lift with a vertical
        section against the vertical section of the derivative.

        xmap is one polynomial fiber map or a list of them; for a list the
        residual is the largest over its maps.  The lift of alpha and the
        vertical sections of all the maps are bracketed in one pass
        (_section_brackets), so the lift is evaluated and differentiated
        once; the result is bitwise the maximum of the one-map calls."""
        p = np.asarray(p, dtype=float)
        alpha = np.asarray(alpha, dtype=float)
        xmaps = xmap if isinstance(xmap, list) else [xmap]
        zb, xb = self._section_brackets(
            p, [self.theta_section(alpha)]
            + [self.vertical_section(x) for x in xmaps])
        mat, _ = self._phi_data(p)
        worst = 0.0
        for j, x in enumerate(xmaps, start=1):
            want = self.fiber_element(
                p, -np.linalg.solve(mat, x.jacobian(p) @ alpha))
            worst = max(worst, qbia._max_abs(zb[0, j] - want[0]),
                        qbia._max_abs(xb[0, j] - want[1]))
        return worst

    def bracket_morphism_residual(self, p, sections):
        """Largest residual of the map as a bracket morphism over every pair
        of the given trivial-bundle sections at p.

        The sections are evaluated once and hand out their jets once.  The
        left side brackets their images in the algebroid, every pair in one
        pass, with the images' jets pushed through the map from those
        (_mapped_brackets).  The right side is
        the trivial bundle's bracket of each pair, built from the same jets:
        the vector-field bracket of the base parts, and the base derivatives
        of the fiber parts plus the fiber algebra bracket fiber_c.  All pairs
        then go through the map as stacked rows.  The sections must provide
        exact jets.
        """
        p = np.asarray(p, dtype=float)
        a0, x0, da0, dx0 = _jets(p, sections)
        zl, xl = self._mapped_brackets(p, a0, x0, da0, dx0)
        base = _along(a0, da0)
        fiber = _along(a0, dx0)
        base = base - base.transpose(1, 0, 2)
        fiber = (fiber - fiber.transpose(1, 0, 2)
                 + np.einsum("ia,jb,abm->ijm", x0, x0, self.fiber_c))
        pairs = np.triu_indices(len(sections), 1)
        zr, xr, _ = self._forward(p, base[pairs], fiber[pairs])
        return max(qbia._max_abs(zl[pairs] - zr),
                   qbia._max_abs(xl[pairs] - xr))

    def check(self, samples=6, seed=0):
        """Certification sweep over sampled domain points.

        Reports the anchor residuals of lifts and of mapped elements, the
        two round-trip residuals, flatness, the block-membership leakage,
        the bracket-morphism residual over constant plus LINEAR_SECTIONS
        seeded linear sections, and the vertical-compatibility residual
        (for a constant and a linear fiber map, one
        psi_compatibility_residual pass per point), each the largest over
        the points; `passed` holds each to its TRIV_TOLS bound.  Fewer than
        one sample point raises ValueError: the sweep would certify
        nothing.
        """
        if samples < 1:
            raise ValueError("a trivialization check needs at least one "
                             "sample point")
        n, k = self.n, self.k
        rng = np.random.default_rng(seed)
        pts = dynamics.sample_domain_points(self.field, samples, seed=seed,
                                            scale=0.4)
        report = dict.fromkeys(TRIV_TOLS, 0.0)
        report["points"] = len(pts)
        sections = [constant_section(e, np.zeros(n)) for e in np.eye(k)]
        sections += [constant_section(np.zeros(k), e) for e in np.eye(n)]
        for _ in range(LINEAR_SECTIONS):
            amap = dynamics.PolynomialMap(
                k, k, coeff1=0.5 * rng.standard_normal((k, k)))
            xmap = dynamics.PolynomialMap(
                k, n, coeff0=rng.standard_normal(n),
                coeff1=0.5 * rng.standard_normal((n, k)))
            sections.append(polynomial_section(amap, xmap))
        for p in pts:
            alpha = rng.standard_normal(k)
            x0 = rng.standard_normal(n)
            z, eta, leak_f = self._forward(p, alpha, x0)
            zt, xt = self.theta_connection(p, alpha)
            back_a, back_x, leak_i = self._inverse(p, z, eta)
            ze = rng.standard_normal(k)
            ee = rng.standard_normal(n)
            z2, eta2 = self.trivialization_T(p, *self.T_inverse(p, ze, ee))
            fmaps = [dynamics.PolynomialMap(k, n,
                                            coeff0=rng.standard_normal(n)),
                     dynamics.PolynomialMap(
                         k, n, coeff1=rng.standard_normal((n, k)))]
            # one running max per key; max drops a NaN that is not its
            # first argument, so the order of each key's values is fixed
            for key, value in (
                    ("membership_residual", leak_f),
                    ("anchor_residual", qbia._max_abs(
                        nu_anchor((z, eta), p, self.field) - alpha)),
                    ("anchor_residual", qbia._max_abs(
                        nu_anchor((zt, xt), p, self.field) - alpha)),
                    ("membership_residual", leak_i),
                    ("roundtrip_residual", qbia._max_abs(back_a - alpha)),
                    ("roundtrip_residual", qbia._max_abs(back_x - x0)),
                    ("roundtrip_residual", qbia._max_abs(z2 - ze)),
                    ("roundtrip_residual", qbia._max_abs(eta2 - ee)),
                    ("flatness_residual", self.flatness_residual(p)),
                    ("bracket_residual",
                     self.bracket_morphism_residual(p, sections)),
                    ("psi_residual",
                     self.psi_compatibility_residual(p, fmaps, alpha))):
                report[key] = max(report[key], value)
        report["passed"] = all(report[key] <= tol
                               for key, tol in TRIV_TOLS.items())
        return report


def phi_p_iso(p, triv):
    """Fiber isomorphism onto the zero fiber, certified.

    Returns the matrix in the bases (constrained subalgebra-type elements
    then annihilator covectors over p) -> (zero-fiber coordinates), the
    residual against the closed forms of its two blocks (inverse odd kernel
    on the subalgebra block, inverse covector flow block on the annihilator
    block), the leakage outside the target blocks, and the residual of the
    map as a Lie algebra isomorphism between the two fiber algebras.
    """
    p = np.asarray(p, dtype=float)
    flows = triv._flows(p)
    n, k = triv.n, triv.k
    mat, leak = triv._phi_data(p)
    closed = np.zeros_like(mat)
    iv = flows.apply(linalg.INV_SINHC)
    for idx in range(k):
        w = iv @ triv.double.embed(x=triv.inj[:, idx])
        closed[:k, idx] = w[:n][triv.sub]
        closed[k:, idx] = w[n:][triv.comp]
    blk = flows.exp()[n:, n:]
    for j, b in enumerate(triv.comp):
        w = np.linalg.solve(blk, np.eye(n)[b])
        closed[:k, k + j] = 0.0
        closed[k:, k + j] = w[triv.comp]
    cp = dynamics.vertex_dual(p, triv.field).c
    inter = qbia._max_abs(
        np.einsum("km,ijm->ijk", mat, cp)
        - np.einsum("ai,bj,abk->ijk", mat, mat, triv.fiber_c))
    return {"matrix": mat,
            "closed_form_residual": qbia._max_abs(mat - closed),
            "membership_residual": leak,
            "intertwining_residual": inter}


# ---------------------------------------------------------------------------
# the duality identity


def duality_theorem_check(G, decomp=None, samples=20, seed=0):
    """Largest deviation between the sign-twisted trivialization of a
    structure and the trivialization of its dual, over sampled points.

    Both sides are evaluated on matched arguments: a base covector
    direction, a subalgebra element, and a complement element (fed as an
    annihilator coordinate on the dual side); the dual-side output is
    carried back through the plain extraction frame identifying the dual's
    double with the original double (the cocycle flip of the dual structure
    already absorbs the sign of the involution relating the two sides).
    The structure's side reads its functions of ad(p) from the point record
    of its own TrivializationMap.  Fewer than one sample point raises
    ValueError.
    """
    if samples < 1:
        raise ValueError("a duality check needs at least one sample point")
    decomp = _resolve_decomp(G, decomp)
    triv = TrivializationMap(G, decomp)
    star = dual_qbia(G, decomp)
    if star.decomp is None:
        raise PreconditionFailed("dual carries no reductive split")
    triv_star = TrivializationMap(star, star.decomp)
    dbl = triv.double
    n = G.dim
    k = decomp.dim_sub
    inj = decomp.inj_sub
    cinj = decomp.inj_comp
    sub = list(decomp.sub)
    rng = np.random.default_rng(seed)
    worst = 0.0
    used = 0
    for _ in range(4 * samples):
        if used == samples:
            break
        p = 0.4 * rng.standard_normal(k)
        if not dynamics.in_domain(p, triv.field)["in_domain"]:
            continue
        if not dynamics.in_domain(p, triv_star.field)["in_domain"]:
            continue
        alpha = rng.standard_normal(k)
        z = rng.standard_normal(k)
        u = rng.standard_normal(n - k)
        flows = triv._flows(p)
        sa = dbl.embed(xi=inj @ alpha)
        ze = dbl.embed(x=inj @ z)
        ue = dbl.embed(x=cinj @ u)
        sinhc = flows.apply(linalg.SINHC)
        first = flows.apply(linalg.SINH_REM) @ sa - sinhc @ ze
        second = sinhc @ sa - flows.apply(linalg.SINH) @ ze
        flow = flows.exp_neg @ ue
        lhs_first = first[:n][sub]
        lhs_second = second - dbl.embed(x=flow[:n])
        zs, etas = triv_star.trivialization_T(p, alpha,
                                              np.concatenate([z, u]))
        rhs_second = dbl.embed(x=cinj @ etas[k:], xi=inj @ etas[:k])
        worst = max(worst,
                    qbia._max_abs(lhs_first - zs),
                    qbia._max_abs(lhs_second - rhs_second))
        used += 1
    if used == 0:
        raise dynamics.OutOfDomain(
            "no sample points inside both chart domains")
    return worst


# ---------------------------------------------------------------------------
# derivative identities of the dual-parameter adjoint


def differential_identities(field, p, alpha, beta):
    """Residuals of three closed-form derivative identities in the double.

    power_rule: the binomial expansion of the derivative of an iterated
    bracket power against the plain product-rule expansion, for powers 1
    to 4.  odd_kernel / even_kernel: the directional derivatives of the odd
    and even flow kernels of the dual-parameter adjoint, antisymmetrized
    over the two directions, against their double-bracket expansions.
    """
    d = field.double.d
    emb = field.double.embed
    inj = field.inj
    sp = emb(xi=inj @ np.asarray(p, dtype=float))
    sa = emb(xi=inj @ np.asarray(alpha, dtype=float))
    sb = emb(xi=inj @ np.asarray(beta, dtype=float))
    adp = d.ad_matrix(sp)
    ada = d.ad_matrix(sa)
    adb = d.ad_matrix(sb)
    r1 = 0.0
    for m in range(1, 5):
        lhs = linalg.d_ad_power(sp, sa, sb, m, d)
        rhs = np.zeros_like(lhs)
        for i in range(m):
            w = sb.copy()
            for _ in range(m - 1 - i):
                w = adp @ w
            w = ada @ w
            for _ in range(i):
                w = adp @ w
            rhs = rhs + w
        r1 = max(r1, qbia._max_abs(lhs - rhs))
    sh = linalg.SINHC.apply(adp)
    ch = linalg.EXPM1_OVER.apply(adp) - sh
    sha = linalg.SINHC.frechet(adp, ada)
    shb = linalg.SINHC.frechet(adp, adb)
    lhs2 = sha @ sb - shb @ sa
    rhs2 = d.bracket(ch @ sa, sh @ sb) + d.bracket(sh @ sa, ch @ sb)
    cha = linalg.EXPM1_OVER.frechet(adp, ada) - sha
    chb = linalg.EXPM1_OVER.frechet(adp, adb) - shb
    lhs3 = cha @ sb - chb @ sa
    rhs3 = d.bracket(sh @ sa, sh @ sb) + d.bracket(ch @ sa, ch @ sb)
    return {"power_rule_residual": r1,
            "odd_kernel_residual": qbia._max_abs(lhs2 - rhs2),
            "even_kernel_residual": qbia._max_abs(lhs3 - rhs3)}


# ---------------------------------------------------------------------------
# the semisimple / involution construction


def _signature(mat):
    w = np.linalg.eigvalsh(0.5 * (mat + mat.T))
    scale = max(1.0, float(np.max(np.abs(w))) if w.size else 0.0)
    pos = int(np.sum(w > 1e-8 * scale))
    neg = int(np.sum(w < -1e-8 * scale))
    return (pos, neg, len(w) - pos - neg)


def symmetric_dual(g, sigma):
    """Dual structure of a semisimple algebra with an involution.

    Realifies the complexification as a double with the imaginary part of
    the trace form as pairing, extracts the cocommutative structure carried
    by the real block (certified: zero cocycle, 3-tensor equal to minus the
    invariant three-form of the trace form), and dualizes over the fixed
    subalgebra of the involution.  Reports the trace-form signatures of the
    base and dual algebras, semisimplicity of the dual, a direct model of
    the dual algebra inside the realified double, and the double-dual
    residual.
    """
    sigma = np.asarray(sigma, dtype=float)
    n = g.dim
    if sigma.shape != (n, n):
        raise ValueError("involution candidate must be %d x %d" % (n, n))
    if qbia._max_abs(sigma @ sigma - np.eye(n)) > DUAL_TOL:
        raise NotInvolution("square differs from the identity")
    auto = qbia._max_abs(np.einsum("ai,bj,abm->ijm", sigma, sigma, g.c)
                         - np.einsum("ml,ijl->ijm", sigma, g.c))
    if not auto <= DUAL_TOL:
        raise NotInvolution("not a bracket automorphism: residual %.3e"
                            % auto)
    b = g.killing_form()
    if not np.all(np.isfinite(b)) or np.linalg.cond(b) > SEMISIMPLE_COND_LIMIT:
        raise NotSemisimple("trace form is singular to working precision")

    # basis adapted to the eigenspaces of the involution
    pp = 0.5 * (np.eye(n) + sigma)
    k = int(round(np.trace(pp)))
    uu, _, _ = np.linalg.svd(pp)
    lb = uu[:, :k]
    uu, _, _ = np.linalg.svd(np.eye(n) - pp)
    mb = uu[:, :n - k]
    pchg = np.hstack([lb, mb])
    pinv = np.linalg.inv(pchg)
    c2 = linalg.contract3(g.c, pchg, pinv)
    c2 = 0.5 * (c2 - c2.transpose(1, 0, 2))
    c2[np.abs(c2) < CHOP_TOL] = 0.0
    g2 = lie.LieAlgebraData(c2)
    decomp2 = lie.ReductiveDecomposition(g2, list(range(k)),
                                         list(range(k, n)))
    b2 = g2.killing_form()
    b2 = 0.5 * (b2 + b2.T)

    # realified complexification: basis (e; ie), pairing Im of the trace form
    n2 = 2 * n
    cc = np.zeros((n2, n2, n2))
    cc[:n, :n, :n] = c2
    cc[:n, n:, n:] = c2
    cc[n:, :n, n:] = c2
    cc[n:, n:, :n] = -c2
    names = g2.basis_names + ["i" + nm for nm in g2.basis_names]
    dcplx = lie.LieAlgebraData(cc, basis_names=names)
    q = np.zeros((n2, n2))
    q[:n, n:] = b2
    q[n:, :n] = b2
    split = linalg.BlockSplit(n2, list(range(n)), list(range(n, n2)))
    dd = qbia.DoubleAlgebra(dcplx, split, q)
    gsym = qbia.quasi_triple_extract(dd, list(range(n)), list(range(n, n2)),
                                     basis_names=g2.basis_names,
                                     decomp=decomp2)

    omega = lie.invariant_triple_tensor(g2, b2)
    star = dual_qbia(gsym, decomp2)

    # direct model: dual basis inside the realified double
    binv = np.linalg.inv(b2)
    fr = np.zeros((n2, n))
    for a in range(k):
        fr[a, a] = 1.0
    for j, bidx in enumerate(decomp2.comp):
        fr[n:, k + j] = binv[:, bidx]
    model = 0.0
    for i in range(n):
        for j in range(n):
            v = dd.d.bracket(fr[:, i], fr[:, j])
            coef, _, _, _ = np.linalg.lstsq(fr, v, rcond=None)
            model = max(model, qbia._max_abs(fr @ coef - v),
                        qbia._max_abs(coef - star.g.c[i, j]))

    bstar = star.g.killing_form()
    dual_ss = bool(np.all(np.isfinite(bstar))
                   and np.linalg.cond(bstar) < SEMISIMPLE_COND_LIMIT)
    return {
        "algebra": g2,
        "basis_change": pchg,
        "structure": gsym,
        "decomp": decomp2,
        "dual": star,
        "double": dd,
        "cocommutative_residual": qbia._max_abs(gsym.varpi),
        "associator_residual": qbia._max_abs(gsym.phi + omega),
        "compatibility": qbia.check_compatibility(gsym, decomp2),
        "dual_model_residual": model,
        "double_dual_residual": double_dual_check(gsym, decomp2),
        "base_signature": _signature(b),
        "dual_signature": _signature(bstar),
        "dual_semisimple": dual_ss,
    }
