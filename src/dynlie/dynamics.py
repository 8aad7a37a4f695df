"""Dynamical fields of skew maps from covectors to vectors.

The central object is the closed-form field attached to a quasi-bialgebra
canonically compatible with a reductive split: on the annihilator of the
complement it evaluates the coth-remainder function of the small double's
adjoint, and on the annihilator of the subalgebra it is a ratio of blocks of
the big double's adjoint flow.  The module also provides residual reports for
the generalized dynamical Yang-Baxter system (in two independent forms), the
base-point dual algebra, and the gauge action of equivariant exponential maps.
"""

import functools

import numpy as np

from . import lie, linalg, qbia, spectral, twist
# after the package's modules, so that linalg loads scipy first: with
# this module loading it first, the trivialize benchmark's set-up in a
# fresh process measured about 10 % slower (perfbench/run.py
# --setup-only, medians over several checkouts of each order)
import scipy.linalg

SPECTRAL_MARGIN = 1e-6
BLOCK_COND_LIMIT = 1e10
SKEW_TOL = 1e-10
CERT_TOL = 1e-10
EXACT_COCYCLE_TOL = 1e-9
EQUIVARIANCE_CHECK_TOL = 1e-8
# the bounded_condition of a domain report without a bounded system
NO_CONDITION = np.nan

# Bounds on the flow-equation residuals at one base point, keyed like the
# cdybe_residual report; "equivariance" bounds equivariance_residual.  The
# report's `passed` reads the cyclic, vector and skew bounds.
FLOW_TOLS = {
    "skew_residual": SKEW_TOL,
    "cyclic_residual": 1e-8,
    "vector_residual": 1e-8,
    "forms_agreement": 1e-8,
    "derivative_fd_residual": 1e-6,
    "equivariance": 1e-8,
}


class OutOfDomain(linalg.DomainViolation):
    """Base point outside the field's domain of analyticity."""


class NotCanonicalCompatible(ValueError):
    pass


class NonEquivariantSigma(ValueError):
    pass


class UnsupportedCocycle(ValueError):
    pass


class PolynomialMap:
    """Polynomial map from base coordinates to vectors, degree at most two.

    coeff0 has shape (m,), coeff1 (m, k), coeff2 (m, k, k); the quadratic
    coefficients are symmetrized in the base indices on input.
    """

    def __init__(self, dim_in, dim_out, coeff0=None, coeff1=None, coeff2=None):
        self.dim_in = int(dim_in)
        self.dim_out = int(dim_out)
        self.c0 = (np.zeros(dim_out) if coeff0 is None
                   else np.asarray(coeff0, dtype=float))
        self.c1 = (np.zeros((dim_out, dim_in)) if coeff1 is None
                   else np.asarray(coeff1, dtype=float))
        c2 = (np.zeros((dim_out, dim_in, dim_in)) if coeff2 is None
              else np.asarray(coeff2, dtype=float))
        self.c2 = 0.5 * (c2 + c2.transpose(0, 2, 1))

    def value(self, p):
        p = np.asarray(p, dtype=float)
        return self.c0 + self.c1 @ p + np.einsum('mab,a,b->m', self.c2, p, p)

    def jacobian(self, p):
        p = np.asarray(p, dtype=float)
        return self.c1 + 2.0 * np.einsum('mab,b->ma', self.c2, p)

    def jacobian_derivative(self, p, alpha):
        alpha = np.asarray(alpha, dtype=float)
        return 2.0 * np.einsum('mab,b->ma', self.c2, alpha)


def _raise_outside(rep):
    """Raise OutOfDomain for a domain report that refuses its point."""
    if not rep["in_domain"]:
        raise OutOfDomain("point outside domain: %s (spectral margin %.3e,"
                          " block condition %.3e)"
                          % (rep["failing"], rep["spectral_margin"],
                             rep["block_condition"]))


def _combine(alpha, basis_value, shape):
    """Sum of alpha_b * basis_value(b) over the nonzero alpha_b, in order
    of b; zeros of the given shape for alpha = 0."""
    out = None
    for b in np.flatnonzero(alpha):
        term = alpha[b] * basis_value(b)
        out = term if out is None else out + term
    return np.zeros(shape) if out is None else out


class LMatrixField:
    """A field of linear maps from covectors to vectors over a base that
    lives in the coordinates dual to the chosen subalgebra; one subclass
    per kind, each built by its factory below.  `value`, `derivative`,
    `_probe` and `in_domain` check their arguments and call the kind's
    _evaluate, _derivative and _reports; values and domain reports are
    taken for a stack of base points, and a single point is the stack of
    one.  Every evaluation is expected to be skew; skewness is part of what
    the residual reports certify, so `value` returns the raw matrix.
    """

    def __init__(self, G, decomp=None):
        self.G = G
        self.decomp = decomp
        n = G.dim
        if decomp is None:
            self.sub = np.arange(n)
            self.comp = np.arange(0)
            self.sub_c = G.g.c
        else:
            self.sub = np.asarray(decomp.sub)
            self.comp = np.asarray(decomp.comp)
            self.sub_c = decomp.sub_algebra().c
        self.base_dim = len(self.sub)
        self.inj = linalg.injection(n, self.sub)

    def __repr__(self):
        return "%s(dim=%d, base_dim=%d)" % (type(self).__name__, self.G.dim,
                                            self.base_dim)

    @property
    def route(self):
        """How the field's matrix functions are evaluated: None where it
        evaluates none (see PointRecordField.route)."""
        return None

    @property
    def double(self):
        """The double of the field's structure G: G.double, which G builds
        on first read and keeps, so every field of one structure reads the
        same double."""
        return self.G.double

    def _check_point(self, p):
        p = np.asarray(p, dtype=float)
        if p.shape != (self.base_dim,):
            raise ValueError("base point must have %d coordinates"
                             % self.base_dim)
        return p

    def _check_points(self, ps):
        ps = np.asarray(ps, dtype=float)
        if ps.ndim != 2 or ps.shape[1] != self.base_dim:
            raise ValueError("base points must have %d coordinates"
                             % self.base_dim)
        return ps

    # -- evaluation ---------------------------------------------------------

    def value(self, p):
        return self._evaluate(self._check_point(p)[None], keep=True)[0]

    def derivative(self, p, alpha):
        """Exact directional derivative of the field at p along alpha."""
        p = self._check_point(p)
        alpha = np.asarray(alpha, dtype=float)
        if alpha.shape != (self.base_dim,):
            raise ValueError("direction must have %d coordinates"
                             % self.base_dim)
        return self._derivative(p, alpha)

    def _probe(self, q):
        """The values at a stack of base points q (m x k), or the value at
        one point, evaluated without reading or replacing a point record:
        the finite-difference probes of the flow residuals, so that the
        records of the points they straddle survive them.  A point outside
        the domain raises value's OutOfDomain."""
        q = np.asarray(q, dtype=float)
        if q.ndim == 1:
            return self._probe(self._check_point(q)[None])[0]
        return self._evaluate(self._check_points(q), keep=False)

    def _require_domain(self, p):
        _raise_outside(in_domain(p, self))

    def _value_and_jet(self, p):
        """The value at p and the stack (k, n, n) of the derivatives along
        the base basis directions e_b, as the algebroid bracket reads them
        (duality._pair_brackets)."""
        return self.value(p), np.stack([self.derivative(p, e)
                                        for e in np.eye(self.base_dim)])


class PolynomialField(LMatrixField):
    """The jet field of polynomial_field, on the whole base; a coefficient
    T1 or T2 that was not given is None and is not evaluated."""

    def __init__(self, G, decomp, t0, t1, t2):
        super().__init__(G, decomp)
        self.t0, self.t1, self.t2 = t0, t1, t2

    def _reports(self, ps):
        return [{"in_domain": True, "spectral_margin": np.inf,
                 "block_condition": 1.0, "bounded_condition": NO_CONDITION,
                 "failing": None} for _ in ps]

    def _evaluate(self, ps, keep):
        return np.array([self._value(p) for p in ps])

    def _value(self, p):
        out = self.t0.copy()
        if self.t1 is not None:
            out += np.einsum('a,aij->ij', p, self.t1)
        if self.t2 is not None:
            out += np.einsum('a,b,abij->ij', p, p, self.t2)
        return out

    def _derivative(self, p, alpha):
        n = self.G.dim
        out = np.zeros((n, n))
        if self.t1 is not None:
            out += np.einsum('a,aij->ij', alpha, self.t1)
        if self.t2 is not None:
            out += 2.0 * np.einsum('a,b,abij->ij', alpha, p, self.t2)
        return out


class PointRecordField(LMatrixField):
    """A field evaluated through records of the base points it was last
    asked about, one per point, keyed on the point's bytes: the domain
    report with the matrices it was computed from, the value, and the
    derivative jet, the stack of D_b = dl/dp_b along every base basis
    direction, computed whole on first use by one model call with the
    basis ads (_basis_ads, the small double's ad of each e_b; CanonicalField
    puts ad_big's before it), which the field builds once at construction.
    derivative(p, alpha) is the sum of alpha_b D_b over the nonzero alpha_b.
    Callers receive copies.

    A request for a stack of points (in_domain, value and the flow residuals
    take one; a single point is the stack of one) reads the kept records of
    its points.  If some are missing, one stacked pass builds those
    (_domain_records), and the request's records then replace the kept ones;
    so flow_sweep's points, or sample_domain_points' last batch, are kept
    together, and alternating between requests that miss recomputes.  The
    values of the records that lack one come from one stacked call too
    (_closed_form_values).  Both go through a pair of spectral models (see
    dynlie.spectral), one per adjoint family; _probe is one pass that reads
    and replaces no record.  Each slice of a pass is bitwise the pass over
    its point alone, on either route.  The pass here gives the upper-right
    block of F of the small family, which is the whole cocom field;
    CanonicalField extends it.
    """

    def __init__(self, G, decomp=None):
        super().__init__(G, decomp)
        self._records = {}
        # _family_ads along the base basis, along which every jet is taken
        self._basis_ads = self._family_ads(np.eye(self.base_dim))
        # (double, small double) spectral models of the adjoint families
        self._models = spectral.GENERAL

    @property
    def route(self):
        """The kind of the field's spectral models: "commuting" or "cubic"
        (the model route of a canonical field), or "general"."""
        return self._models[0].kind

    def _reports(self, ps):
        return [dict(rec["report"]) for rec in self._recs(ps)]

    def _evaluate(self, ps, keep):
        """The values at the stack ps from the kept records (keep), the
        records without a value getting theirs from one _closed_form_values
        call, or from one pass whose records are not kept (the probes)."""
        recs = self._recs(ps) if keep else self._domain_records(ps)
        for rec in recs:
            _raise_outside(rec["report"])
        if not keep:
            return self._closed_form_values(recs)
        todo = [rec for rec in recs if rec["value"] is None]
        if todo:
            for rec, value in zip(todo, self._closed_form_values(todo)):
                rec["value"] = value
        return np.array([rec["value"] for rec in recs])

    def _derivative(self, p, alpha):
        self._require_domain(p)
        rec = self._at(p)
        n = self.G.dim
        return _combine(alpha, lambda b: self._jet(rec)[0][b], (n, n))

    def _at(self, p):
        """The record of the validated base point p."""
        rec = self._records.get(p.tobytes())
        return self._recs(p[None])[0] if rec is None else rec

    def _recs(self, ps):
        """The records of the validated stack of base points ps: the kept
        ones, and for the others one _domain_records pass, after which the
        request's records are the kept ones."""
        # each point's key is its p.tobytes(), sliced from the stack's bytes
        raw, step = ps.tobytes(), ps.shape[1] * ps.itemsize
        keys = [raw[i * step:(i + 1) * step] for i in range(len(ps))]
        kept = self._records
        recs = [kept.get(key) for key in keys]
        if None in recs:
            missing = [i for i, rec in enumerate(recs) if rec is None]
            fresh = self._domain_records(
                ps if len(missing) == len(ps) else ps[missing])
            for i, rec in zip(missing, fresh):
                recs[i] = rec
            self._records = dict(zip(keys, recs))
        return recs

    def _live_record(self, p):
        """The record of the validated base point p, which must lie in the
        domain (else OutOfDomain): one record lookup, where _require_domain
        and _at would check the point and copy its report on the way."""
        rec = self._at(p)
        _raise_outside(rec["report"])
        return rec

    def _value_and_jet(self, p):
        """LMatrixField._value_and_jet from the point's record: its value
        and a copy of its jet, which are bitwise `value` and the stack of
        `derivative` along each e_b (_combine along e_b is 1.0 D_b)."""
        p = self._check_point(p)
        lmat = self._evaluate(p[None], keep=True)[0]
        return lmat, self._jet(self._live_record(p))[0].copy()

    def _domain_records(self, ps):
        """One record per point of the stack ps, with the spectral margin
        (see `in_domain`) and the matrices it is computed from: the small
        family's model gives every point its data ("data") and margin by
        one stacked call, one eig on the general route (the data, which F
        reads too) and closed forms on the model route."""
        recs = []
        small = self.small_double
        ads = small.d.ad_matrix(small.embed(xi=ps))
        data = self._models[1].data(ps, ads)
        margins = self._models[1].margin(data).tolist()
        for i, (ad, margin) in enumerate(zip(ads, margins)):
            rep = {"in_domain": True, "spectral_margin": margin,
                   "block_condition": 1.0, "bounded_condition": NO_CONDITION,
                   "failing": None}
            if margin < SPECTRAL_MARGIN:
                rep["in_domain"] = False
                rep["failing"] = "spectral-margin"
            recs.append({"report": rep, "value": None, "jet": None,
                         "ad": ad, "data": data[i], "p": ps[i]})
        return recs

    def _closed_form_values(self, recs):
        """The upper-right k x k block of F of the small family at the
        records' points, as a stack: one call of its model."""
        k = self.base_dim
        r = self._models[1].f(np.stack([rec["data"] for rec in recs]),
                              np.stack([rec["ad"] for rec in recs]))
        return r[:, :k, k:]

    def _closed_form_derivative(self, rec, alphas, das):
        """The derivatives of _closed_form_values along each direction of
        the stack alphas (m x k), whose _family_ads are das, by one call of
        the model, and None (no flow); each slice is bitwise the call on
        that direction alone."""
        k = self.base_dim
        dl = self._models[1].f_derivative(rec["p"], rec["data"], rec["ad"],
                                          alphas, das)
        return dl[:, :k, k:], None

    def _family_ads(self, alphas):
        """The small family's ad along each direction of the stack alphas
        (CanonicalField puts ad_big's before it)."""
        small = self.small_double
        return small.d.ad_matrix(small.embed(xi=alphas))

    def _jet(self, rec):
        """The record's derivative jet: _closed_form_derivative along every
        base basis direction, computed whole on first use."""
        if rec["jet"] is None:
            rec["jet"] = self._closed_form_derivative(
                rec, np.eye(self.base_dim), self._basis_ads)
        return rec["jet"]


class CocomField(PointRecordField):
    """The field of cocom_field: the upper-right block of F_MEROMORPHIC of
    the double's ad(p), where the spectral margin holds; it takes the
    general route."""

    @property
    def small_double(self):
        return self.double


class CanonicalField(PointRecordField):
    """The field of canonical_field: F of the small double's ad(p) on the
    annihilator of the complement, less M^-1 N diag_comp on that of the
    subalgebra, [M N] the top block rows of the flow exp(-ad_big(p)).  The
    record adds the flow ("big"), the system of M^-1 N ("system") and, in
    the jet, the flow's derivatives along each e_b, which
    duality.TrivializationMap reads beside its own slot "flows".

    On the model route ("commuting" or "cubic": both families' closed
    models pass their check) the margin, the flow, F and every derivative
    are closed forms, with no eig, expm or expm_frechet per point, and a
    cubic model reads M^-1 N and its jet through the bounded system of the
    flow where mu >= spectral.GRADED_MU.  Other fields take the general
    route ("general"): eig of the small double's adjoint, scipy's expm of
    ad_big and scipy's expm_frechet along each direction.  The domain rule
    is the same on both routes.
    """

    def __init__(self, G, decomp):
        # set before the base class builds the basis ads, which read it
        sub, k = np.asarray(decomp.sub), decomp.dim_sub
        self.small_double = qbia.QuasiBialgebra(
            decomp.sub_algebra(), np.zeros((k, k, k)),
            G.phi[np.ix_(sub, sub, sub)]).double
        super().__init__(G, decomp)
        self.diag_comp = linalg.indicator_diag(G.dim, self.comp)
        models = tuple(spectral.build(ads) for ads in self._basis_ads)
        if None not in models:
            self._models = models
        self._fiber_c = None

    @property
    def fiber_c(self):
        """Structure constants of the dual algebra at the origin, where the
        field vanishes (vertex_bracket at p = 0): the fiber algebra of
        duality.TrivializationMap, built on first read and kept, read-only."""
        if self._fiber_c is None:
            k, n = self.base_dim, self.G.dim
            c = vertex_bracket(np.zeros(k), self, np.zeros((n, n)))[1]
            c.setflags(write=False)
            self._fiber_c = c
        return self._fiber_c

    def _big_ad(self, p):
        """ad_big(p), or the stack of them for a stack of points."""
        dbl = self.double
        return dbl.d.ad_matrix(dbl.embed(xi=p @ self.inj.T))

    def _domain_records(self, ps):
        """The records of PointRecordField._domain_records with the block
        condition: the double's model gives the points that pass the margin
        their data ("data_big") and flow ("big"), whose block M the domain
        rule reads by one cond call, and the points in the domain the
        system whose ratio is M^-1 N: [M N], or on a cubic model with mu >=
        spectral.GRADED_MU the bounded system [TM TN], whose condition the
        report gives as bounded_condition.  Each step is one stacked call
        of the model: one scipy expm on the general route."""
        recs = super()._domain_records(ps)
        live = [i for i, rec in enumerate(recs) if rec["report"]["in_domain"]]
        if not live:
            return recs
        n = self.G.dim
        big_model = self._models[0]
        ad_big = self._big_ad(ps[live])
        data_big = big_model.data(ps[live], ad_big)
        big = big_model.exp_neg(data_big, ad_big)
        m_blk = big[:, :n, :n]
        # an overflowed flow has no condition number: out of domain
        conds = np.full(len(live), np.inf)
        finite = np.all(np.isfinite(m_blk), axis=(1, 2))
        if finite.any():
            conds[finite] = np.linalg.cond(m_blk[finite])
        inside = []
        for j, (i, cond) in enumerate(zip(live, conds.tolist())):
            rec = recs[i]
            rec["report"]["block_condition"] = cond
            if not cond < BLOCK_COND_LIMIT:
                rec["report"]["in_domain"] = False
                rec["report"]["failing"] = "block-condition"
            else:
                inside.append(j)
            rec["ad_big"], rec["data_big"], rec["big"] = (
                ad_big[j], data_big[j], big[j])
        # the system serves evaluation, so only the points in the
        # domain get one (all of them, mostly: then nothing is copied)
        if inside:
            pick = slice(None) if len(inside) == len(live) else inside
            systems = big_model.systems(data_big[pick], ad_big[pick],
                                        big[pick], n)
            for j, system in zip(inside, systems):
                recs[live[j]]["system"] = system
                recs[live[j]]["report"]["bounded_condition"] = system.get(
                    "condition", NO_CONDITION)
        return recs

    def _closed_form_values(self, recs):
        return (self.inj @ super()._closed_form_values(recs) @ self.inj.T
                - self._perps(recs))

    def _perps(self, recs):
        """M^-1 N diag_comp at each record, by one stacked solve of the
        records' systems ([M N], or [TM TN] where the record has a bounded
        system), and kept in the record."""
        out = np.linalg.solve(np.stack([rec["system"]["tm"] for rec in recs]),
                              np.stack([rec["system"]["tn"] for rec in recs])
                              @ self.diag_comp)
        for rec, perp in zip(recs, out):
            rec["perp"] = perp
        return out

    def _family_ads(self, alphas):
        return self._big_ad(alphas), super()._family_ads(alphas)

    def _closed_form_derivative(self, rec, alphas, das):
        """Derivatives of the value along each direction of the stack
        alphas (m x k), whose _family_ads are das, as a stack, and the stack
        of derivatives of the flow expm(-ad_big(p)) along them that they are
        computed from; each slice is bitwise the call on that direction
        alone.

        Each family's model differentiates its own function along all the
        directions in one call: the flow (linalg.expm_frechet on the general
        route, -dA exp(-A) on a commuting frame, the derivative of the
        Rodrigues form on a cubic family), F of the small double, and
        M^-1 N through the record's system (one solve; a bounded system
        differentiates through spectral.graded_derivative)."""
        k = self.base_dim
        big_model, small_model = self._models
        da_big, da_small = das
        dbig = big_model.exp_neg_derivative(
            rec["p"], rec["data_big"], rec["ad_big"], rec["big"], alphas,
            da_big)
        perp = rec["perp"] if "perp" in rec else self._perps([rec])[0]
        dr = small_model.f_derivative(rec["p"], rec["data"], rec["ad"],
                                      alphas, da_small)
        dperp = big_model.perp_derivative(rec["system"], perp,
                                          self.diag_comp, da_big, dbig)
        return self.inj @ dr[:, :k, k:] @ self.inj.T - dperp, dbig


class DerivedField(LMatrixField):
    """A field made from another, its base (ShiftedField, GaugedField): on
    the base's route and domain; its double is that of its structure G
    (the base's, unless G is another)."""

    def __init__(self, base, G):
        super().__init__(G, base.decomp)
        self.base = base

    @property
    def route(self):
        return self.base.route

    def _reports(self, ps):
        return self.base._reports(ps)


class ShiftedField(DerivedField):
    """The field of shifted_field: base + a constant skew offset."""

    def __init__(self, base, offset, G):
        super().__init__(base, G)
        self.offset = offset

    def _evaluate(self, ps, keep):
        return self.base._evaluate(ps, keep) + self.offset

    def _derivative(self, p, alpha):
        return self.base.derivative(p, alpha)


class GaugedField(DerivedField):
    """The field of gauge_transform: the adjoint flow of the product
    e^{S_1}...e^{S_m} of the gauge factors at p conjugates the base value,
    plus the exact-cocycle block theta (and the potential's terms where the
    cocycle is exact).  Each factor grows with p, so far out its flow
    overflows: the domain is the base's less those points (failing
    "gauge-flow"), so in_domain computes the gauge flow once per call."""

    def __init__(self, base, factors, potential):
        super().__init__(base, base.G)
        self.factors = factors
        self.potential = potential

    def _reports(self, ps):
        reps = super()._reports(ps)
        for p, rep in zip(ps, reps):
            if rep["in_domain"]:
                try:
                    self._gauge_data(p)
                except OutOfDomain:
                    rep["in_domain"], rep["failing"] = False, "gauge-flow"
        return reps

    def _evaluate(self, ps, keep):
        return np.array([self._gauged_value(p, lb) for p, lb
                         in zip(ps, self.base._evaluate(ps, keep))])

    def _derivative(self, p, alpha):
        ad_big, theta, dad, dtheta = self._gauge_data(p, alpha)
        lb = self.base.value(p)
        dlb = self.base.derivative(p, alpha)
        out = (dad @ lb @ ad_big.T + ad_big @ dlb @ ad_big.T
               + ad_big @ lb @ dad.T + dtheta)
        if self.potential is not None:
            t = self.potential
            out = out + dad @ t @ ad_big.T + ad_big @ t @ dad.T
        return out

    def _gauged_value(self, p, lb):
        """The gauged field at p from the base field's value lb there."""
        ad_big, theta, _, _ = self._gauge_data(p)
        out = ad_big @ lb @ ad_big.T + theta
        if self.potential is not None:
            out = out + ad_big @ self.potential @ ad_big.T - self.potential
        return out

    @np.errstate(over="ignore", invalid="ignore")
    def _gauge_data(self, p, alpha=None):
        """Adjoint flow of the gauge product e^{S_1}..e^{S_m} at p, the
        exact-cocycle block theta, and (optionally) their derivatives.
        Raises OutOfDomain where they are not finite; numpy's overflow
        warnings on the way there are silenced."""
        g = self.G.g
        n = self.G.dim
        want_d = alpha is not None
        pre = np.eye(n)
        dpre = np.zeros((n, n))
        dmap = np.zeros((n, self.base_dim))
        ddmap = np.zeros((n, self.base_dim))
        try:
            for f in self.factors:
                s_val = f.value(p)
                ad_s = g.ad_matrix(s_val)
                e_s = scipy.linalg.expm(ad_s)
                g_s = linalg.EXPM1_OVER.apply(ad_s)
                jac = f.jacobian(p)
                dmap = dmap + pre @ g_s @ jac
                if want_d:
                    ds_val = jac @ alpha
                    dad_s = g.ad_matrix(ds_val)
                    de_s = linalg.expm_frechet(ad_s, dad_s)
                    dg_s = linalg.EXPM1_OVER.frechet(ad_s, dad_s)
                    djac = f.jacobian_derivative(p, alpha)
                    ddmap = (ddmap + dpre @ g_s @ jac + pre @ dg_s @ jac
                             + pre @ g_s @ djac)
                    dpre = dpre @ e_s + pre @ de_s
                pre = pre @ e_s
        except linalg.EvaluationFailed:
            pre = np.full((n, n), np.nan)
        istar = self.inj.T
        theta = dmap @ istar @ pre.T - self.inj @ dmap.T
        out = (pre, theta, None, None)
        if want_d:
            out = (pre, theta, dpre, ddmap @ istar @ pre.T
                   + dmap @ istar @ dpre.T - self.inj @ ddmap.T)
        if not all(np.isfinite(x).all() for x in out if x is not None):
            raise OutOfDomain("point outside domain: gauge-flow (the gauge"
                              " flow is not finite)")
        return out


# ---------------------------------------------------------------------------
# field constructors


def zero_field(G, decomp=None):
    return polynomial_field(G, decomp)


def constant_field(G, t, decomp=None):
    return polynomial_field(G, decomp, coeff0=t)


def polynomial_field(G, decomp, coeff0=None, coeff1=None, coeff2=None):
    """Jet field l_p = T0 + p_a T1[a] + p_a p_b T2[a,b], all slices skew.

    A coefficient that is not given is not evaluated, so a field without
    T1 and T2 is exactly constant at every base point.
    """
    n = G.dim
    t0 = np.zeros((n, n)) if coeff0 is None else np.array(coeff0, float)
    t1 = None if coeff1 is None else np.asarray(coeff1, float)
    t2 = None if coeff2 is None else np.asarray(coeff2, float)
    for part in (t0, t1, t2):
        if part is None:
            continue
        for m in np.atleast_3d(part).reshape(-1, n, n):
            if linalg.skew_residual(m) > SKEW_TOL:
                raise ValueError("polynomial coefficients must be skew")
    return PolynomialField(
        G, decomp, t0, t1,
        None if t2 is None else 0.5 * (t2 + t2.transpose(1, 0, 2, 3)))


def cocom_field(G):
    """The odd-function field of the double's adjoint, defined when the
    cocycle vanishes; the subalgebra is all of the base algebra."""
    if qbia._max_abs(G.varpi) > SKEW_TOL:
        raise ValueError("field requires a vanishing cocycle")
    return CocomField(G)


def canonical_field(G, decomp=None):
    """The closed-form field attached to a canonically compatible pair.

    The field takes the model route when the spectral models of both its
    adjoint families pass their checks, else the general route (see
    `CanonicalField`).  decomp defaults to G's split, or to the full split
    when G has none.

    G keeps the last field built on it, with the split it was built for
    (the decomp object after that default; None for the full split): a call
    with the same split returns the kept field, and checks and builds
    nothing; another split replaces it.  Sharing is safe because G is
    immutable and every point record of a field is a pure function of its
    point; it decides only which work is redone."""
    if decomp is None:
        decomp = G.decomp
    kept = G._canonical
    if kept is not None and kept[0] is decomp:
        return kept[1]
    split = decomp
    if split is None:
        split = lie.ReductiveDecomposition(G.g, list(range(G.dim)), [])
    rep = qbia.check_compatibility(G, split)
    if not rep["canonical"]:
        raise NotCanonicalCompatible(str(rep))
    field = CanonicalField(G, split)
    G._canonical = (decomp, field)
    return field


def shifted_field(base, offset, target=None):
    """base + constant offset, measured against `target` (defaults to the
    base's own structure).  Used for the twist-shift correspondence."""
    offset = np.asarray(offset, dtype=float)
    if linalg.skew_residual(offset) > SKEW_TOL:
        raise ValueError("offset must be skew")
    return ShiftedField(base, offset.copy(),
                        target if target is not None else base.G)


def cocycle_fit(G):
    """Least-squares skew potential for the cocycle and the fit residual.

    Returns (t, residual) where t is the best skew matrix with boundary
    closest to the cocycle; a residual at roundoff level means the cocycle
    is exact with potential t.
    """
    n = G.dim
    ad = G.g.ad
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    cols = []
    for a, b in pairs:
        e = np.zeros((n, n))
        e[a, b] = 1.0
        e[b, a] = -1.0
        cols.append(np.stack([ad[i] @ e + e @ ad[i].T
                              for i in range(n)]).ravel())
    mat = np.stack(cols, axis=1)
    coef, _, _, _ = np.linalg.lstsq(mat, G.varpi.ravel(), rcond=None)
    t = np.zeros((n, n))
    for (a, b), v in zip(pairs, coef):
        t[a, b] = v
        t[b, a] = -v
    resid = qbia._max_abs(np.stack([ad[i] @ t + t @ ad[i].T
                                    for i in range(n)]) - G.varpi)
    return t, float(resid)


def _cocycle_potential(G):
    """Skew t with varpi = d t (coboundary), or None for varpi = 0.

    Raises UnsupportedCocycle when the cocycle is neither zero nor exact.
    """
    if qbia._max_abs(G.varpi) <= SKEW_TOL:
        return None
    t, resid = cocycle_fit(G)
    if resid > EXACT_COCYCLE_TOL * (1.0 + qbia._max_abs(G.varpi)):
        raise UnsupportedCocycle(
            "cocycle is not exact (best potential residual %.3e)" % resid)
    return t


def gauge_transform(field, sigma):
    """Act on the field by the pointwise product of exponentials of the
    given polynomial maps (a single map or a list, leftmost applied last).

    The maps must vanish at 0 and be equivariant for the subalgebra action
    on the base; the structure's cocycle must be zero or exact so that the
    group cocycle term has a closed form.
    """
    if isinstance(sigma, PolynomialMap):
        factors = [sigma]
    else:
        factors = list(sigma)
    G = field.G
    n, k = G.dim, field.base_dim
    for f in factors:
        if f.dim_in != k or f.dim_out != n:
            raise ValueError("gauge map must send base points to algebra "
                             "vectors")
        if np.max(np.abs(f.value(np.zeros(k)))) > 1e-12:
            raise ValueError("gauge map must vanish at the origin")
    potential = _cocycle_potential(G)
    out = GaugedField(field, factors, potential)
    err = _sigma_equivariance_residual(out)
    if err > EQUIVARIANCE_CHECK_TOL:
        raise NonEquivariantSigma("gauge map equivariance residual %.3e" % err)
    return out


def _sigma_equivariance_residual(field):
    """max over p = 0 and six seeded p of | dSigma_p(ad*_z p) + [z, Sigma_p] |
    for basis z, over the gauge factors."""
    g = field.G.g
    k = field.base_dim
    rng = np.random.default_rng(0)
    worst = 0.0
    pts = [np.zeros(k)] + [0.4 * rng.standard_normal(k) for _ in range(6)]
    for p in pts:
        for a in range(k):
            z = np.zeros(k)
            z[a] = 1.0
            coad = np.einsum('bm,m->b', field.sub_c[a], p)
            for f in field.factors:
                resid = f.jacobian(p) @ coad + g.bracket(field.inj @ z,
                                                         f.value(p))
                worst = max(worst, float(np.max(np.abs(resid))))
    return worst


# ---------------------------------------------------------------------------
# domain


def in_domain(p, field):
    """Report on the two open conditions defining the field's domain.

    The first predicate asks the relevant adjoint spectrum to stay away
    from the poles i*pi*k (k nonzero) by SPECTRAL_MARGIN; the second asks
    the upper-left block of the double's adjoint flow to have condition
    below BLOCK_COND_LIMIT.  The report also gives bounded_condition, the
    condition of the bounded system TM through which a cubic model reads
    M^-1 N at a point in the domain (NaN where none is built); no
    predicate reads it.  Each kind reports through its _reports, on the
    stack of one: a polynomial field's domain is the whole base, a shifted
    field's is its base's, and a gauged field's also fails ("gauge-flow")
    where its gauge flow is not finite.  Raises ValueError unless p has the
    field's base_dim coordinates.
    """
    return field._reports(field._check_point(p)[None])[0]


def sample_domain_points(field, count, seed=0, scale=0.5):
    """Seeded in-domain base points: p = s z for standard normal draws z,
    kept where the field's domain holds, with the scale s shrunk by 0.7
    after every tenth rejection (RuntimeError at the 501st).

    The candidates are tested as stacks, one domain pass per stack: the
    draws still needed, and after a shrink the rest of them at the new
    scale.  The draws of a stack are bitwise those of drawing one at a
    time, so the points are bitwise those of testing each candidate
    alone; a field with point records keeps those of the last stack."""
    rng = np.random.default_rng(seed)
    pts = []
    s = scale
    tries = 0
    zs = np.zeros((0, field.base_dim))
    while len(pts) < count:
        if not len(zs):
            zs = rng.standard_normal((count - len(pts), field.base_dim))
        ps = s * zs
        for i, rep in enumerate(field._reports(ps)):
            if rep["in_domain"]:
                pts.append(ps[i])
                continue
            tries += 1
            if tries > 500:
                raise RuntimeError("could not sample enough in-domain points")
            if tries % 10 == 0:
                s *= 0.7
                break
        zs = zs[i + 1:]
    return pts


# ---------------------------------------------------------------------------
# closed form for the cocommutative compatible case


def compatible_closed_form(G, decomp, p):
    """Independent evaluation for a cocommutative compatible structure:
    the coth-remainder on the subalgebra's dual slots and tanh on the
    complement's, both of the double's adjoint at the embedded point."""
    if qbia._max_abs(G.varpi) > SKEW_TOL:
        raise ValueError("closed form requires a vanishing cocycle")
    d = G.double
    n = G.dim
    sub = np.arange(n) if decomp is None else decomp.sub
    comp = np.arange(0) if decomp is None else decomp.comp
    sp = linalg.injection(n, sub) @ np.asarray(p, dtype=float)
    a = d.d.ad_matrix(d.embed(xi=sp))
    part_sub = linalg.F_MEROMORPHIC.apply(a)[:n, n:]
    part_comp = linalg.TANH.apply(a)[:n, n:]
    return (part_sub @ linalg.indicator_diag(n, sub)
            + part_comp @ linalg.indicator_diag(n, comp))


# ---------------------------------------------------------------------------
# residual reports


def cdybe_residual(field, p, samples=8, seed=0):
    """Both forms of the dynamical Yang-Baxter system at p.

    The cyclic form is assembled as a full 3-tensor against the structure's
    associator; the vector form, bilinear in its two covectors, is built
    apart from it on every basis pair from the double's structure tensor.
    The directional derivatives use the exact evaluators (for the cocom
    and canonical kinds, the basis entries of the point record's jet) and
    are cross-checked against Richardson-extrapolated central differences
    (linalg.finite_diff along every base direction).  All 4k probes of
    those run as one stacked pass that goes around the point record
    (_probe), so the record of p serves every evaluation here and after;
    a probe outside the domain raises OutOfDomain.  `passed` holds the
    cyclic, vector and skew residuals to FLOW_TOLS.  This is the stack of
    one of flow_sweep's pass.
    """
    return _cdybe_reports(field, field._check_point(p)[None], samples,
                          seed)[0]


def _cdybe_reports(field, ps, samples=8, seed=0):
    """cdybe_residual at each point of the validated stack ps: the values
    by one pass over the points (which keeps their records, so that the
    jets read there), all their 4k finite-difference probes by one
    stacked pass, then the jet and the residuals point by point."""
    lmats = field._evaluate(ps, keep=True)
    fds = linalg.finite_diff(field._probe, ps)
    pairs = None
    if samples > 0:
        pairs = _covector_pairs(samples, seed, field.G.dim)
    return [_cdybe_report(field, p, lmat, fd, pairs)
            for p, lmat, fd in zip(ps, lmats, fds)]


@functools.lru_cache(maxsize=16)
def _covector_pairs(samples, seed, n):
    """The seeded covector pairs (xi_s, eta_s) of the vector form, drawn in
    pair order, and the scale 1 + |xi_s| |eta_s| of each: a function of its
    arguments alone, kept because every cdybe_residual call draws the same
    ones (a fresh generator costs about as much as the bookkeeping of a
    point's records).  The arrays are read-only."""
    pairs = np.random.default_rng(seed).standard_normal((samples, 2, n))
    # |x|^2 per row as a 1 x n by n x 1 product: the dot product that
    # np.linalg.norm takes, so the scale is bitwise that of one pair
    sq = (pairs[:, :, None, :] @ pairs[:, :, :, None])[:, :, 0, 0]
    scalefac = 1.0 + np.sqrt(sq[:, 0]) * np.sqrt(sq[:, 1])
    out = (pairs[:, 0], pairs[:, 1], scalefac)
    for x in out:
        x.setflags(write=False)
    return out


def _cdybe_report(field, p, lmat, fd, pairs):
    """The cdybe_residual report at p, from the value lmat and the finite
    differences fd there and the sampled covector pairs (_covector_pairs,
    or None)."""
    G = field.G
    n = G.dim
    eye = np.eye(field.base_dim)
    dl = np.zeros((n, n, n))
    for i, e in zip(field.sub, eye):
        dl[i] = field.derivative(p, e)

    term1 = dl.transpose(0, 2, 1)
    term2 = np.einsum('ai,bj,abk->ijk', lmat, lmat, G.g.c)
    term3 = np.einsum('ai,akj->ijk', lmat, G.varpi)
    e3 = term1 - term2 - term3
    cyclic = e3 + e3.transpose(1, 2, 0) + e3.transpose(2, 0, 1) - G.phi
    cyclic_residual = qbia._max_abs(cyclic)

    cd = field.double.d.c
    # brk[i, j] = [l e_i, e_j*] + [e_i*, l e_j] + [e_i*, e_j*] in the double
    brk = (np.einsum('ai,ajm->ijm', lmat, cd[:n, n:])
           + np.einsum('bj,ibm->ijm', lmat, cd[n:, :n]) + cd[n:, n:])
    # vec[i, j, k] = dl[i, k, j] - dl[j, k, i] - dl[k, i, j]
    #                - [l e_i, l e_j]_k + (l brk[i, j]*)_k - brk[i, j]_k
    vec = (dl.transpose(0, 2, 1) - dl.transpose(2, 0, 1)
           - dl.transpose(1, 2, 0)
           - np.einsum('ai,bj,abk->ijk', lmat, lmat, cd[:n, :n, :n])
           + np.einsum('km,ijm->ijk', lmat, brk[:, :, n:]) - brk[:, :, :n])
    vector_residual = qbia._max_abs(vec)
    agreement = qbia._max_abs(vec - cyclic)
    if pairs is not None:
        xi, eta, scalefac = pairs
        v = np.einsum('ijk,si,sj->sk', vec, xi, eta)
        ref = np.einsum('ijk,si,sj->sk', cyclic, xi, eta)
        vector_residual = max(vector_residual, float(np.max(
            np.max(np.abs(v), axis=1) / scalefac)))
        agreement = max(agreement, float(np.max(
            np.max(np.abs(v - ref), axis=1) / scalefac)))

    fd_err = 0.0
    for i, fd_i in zip(field.sub, fd):
        fd_err = max(fd_err, float(np.max(np.abs(fd_i - dl[i]))
                                   / (1.0 + np.max(np.abs(fd_i)))))

    skew = linalg.skew_residual(lmat)
    return {"cyclic_residual": cyclic_residual,
            "vector_residual": vector_residual,
            "forms_agreement": agreement,
            "derivative_fd_residual": fd_err,
            "skew_residual": skew,
            "passed": bool(cyclic_residual <= FLOW_TOLS["cyclic_residual"]
                           and vector_residual <= FLOW_TOLS["vector_residual"]
                           and skew <= FLOW_TOLS["skew_residual"])}


def equivariance_residual(field, p, z):
    """Residual of the infinitesimal equivariance equation at p for z in the
    subalgebra (given in subalgebra coordinates)."""
    G = field.G
    g = G.g
    z = np.asarray(z, dtype=float)
    p = np.asarray(p, dtype=float)
    iz = field.inj @ z
    coad = np.einsum('a,abm,m->b', z, field.sub_c, p)
    lmat = field.value(p)
    ad_iz = g.ad_matrix(iz)
    resid = (field.derivative(p, coad) + G.cocycle_map(iz)
             + ad_iz @ lmat + lmat @ ad_iz.T)
    return float(np.max(np.abs(resid)))


def flow_sweep(field, points):
    """Largest value of each FLOW_TOLS residual over the base points: the
    cdybe_residual keys, and "equivariance" along each base direction.
    An empty point list raises ValueError: it would certify nothing.

    The points go through cdybe_residual's pass as one stack: one
    evaluation pass for their values (and, on a field with point records,
    one domain pass for the points not kept yet) and one pass for all
    their finite-difference probes.  The jets and the residuals are taken
    point by point, so each point's report is bitwise cdybe_residual's
    there."""
    if len(points) == 0:
        raise ValueError("a flow sweep needs at least one base point")
    ps = field._check_points(points)
    eye = np.eye(field.base_dim)
    worst = dict.fromkeys(FLOW_TOLS, 0.0)
    for p, rep in zip(ps, _cdybe_reports(field, ps)):
        rep["equivariance"] = max(equivariance_residual(field, p, z)
                                  for z in eye)
        for key in worst:
            worst[key] = max(worst[key], rep[key])
    return worst


# ---------------------------------------------------------------------------
# the dual algebra at a base point


class VertexDualAlgebra:
    """The constraint subspace { z + xi : xi restricted to the subalgebra
    equals the coadjoint action of z on the base point }, with the bracket
    induced at the base point.  Carries its basis as rows inside the double,
    the structure constants, and the certification report."""

    def __init__(self, basis, c, report, q0):
        self.basis = basis
        self.c = c
        self.report = report
        self.q0 = q0

    @property
    def dim(self):
        return self.basis.shape[0]

    def __repr__(self):
        return "VertexDualAlgebra(dim=%d, passed=%s)" % (
            self.dim, self.report["passed"])


def _bilinear(t, u, v):
    """sum_ab u_a v_b t[a, b, :], broadcast over the stacked slots."""
    return np.einsum('...a,...am->...m', u,
                     np.einsum('abm,...b->...am', t, v))


def vertex_bracket(q0, field, l0):
    """Basis and bracket of the dual algebra at the base point q0, from the
    bracket formula alone, given the skew field value l0 at q0.

    Returns the basis as rows inside the double, the structure constants,
    and the formula's antisymmetry and closure residuals.  The formula is
    evaluated once, on every ordered pair of basis elements at the same
    time (stacked contractions over the two slots), so the antisymmetry
    residual compares the formula in both slot orders.  vertex_dual
    certifies the result.
    """
    G = field.G
    g = G.g
    n = G.dim
    sub, comp = field.sub, field.comp
    k = len(sub)
    dim = k + len(comp)
    w = G.varpi
    phi = G.phi
    inj = field.inj

    # basis: one element per subalgebra direction (with the covector forced
    # by the constraint, chosen in the annihilator of the complement), one
    # per complement covector
    zs = np.zeros((dim, k))
    zs[:k] = np.eye(k)
    xis = np.zeros((dim, n))
    xis[:k] = np.einsum('abm,m->ab', field.sub_c, q0) @ inj.T
    xis[np.arange(k, dim), comp] = 1.0

    bil = _bilinear
    c_t = g.c.transpose(0, 2, 1)    # bil(c_t, x, xi) = ad(x).T @ xi
    w_t = w.transpose(0, 2, 1)      # bil(w_t, x, xi) = (x_i w[i]) @ xi
    w_v = w.transpose(1, 2, 0)      # bil(w_v, xi1, xi2)_i = xi1 @ w[i] @ xi2

    def bracket_star(z1, xi1, z2, xi2):
        iz1, iz2 = z1 @ inj.T, z2 @ inj.T
        l1, l2 = xi1 @ l0.T, xi2 @ l0.T
        co_z1, co_z2 = bil(c_t, iz1, xi2), bil(c_t, iz2, xi1)
        co_l1, co_l2 = bil(c_t, l1, xi2), bil(c_t, l2, xi1)
        wvec = bil(w_v, xi1, xi2)
        gpart = (bil(field.sub_c, z1, z2) @ inj.T
                 + bil(w_t, iz1, xi2) + bil(g.c, iz1, l2) + co_z1 @ l0.T
                 - bil(w_t, iz2, xi1) - bil(g.c, iz2, l1) - co_z2 @ l0.T
                 + bil(g.c, l1, l2)
                 + co_l1 @ l0.T - co_l2 @ l0.T
                 + bil(w_t, l1, xi2) - bil(w_t, l2, xi1)
                 - wvec @ l0
                 + bil(phi, xi1, xi2))
        xipart = -co_z1 + co_z2 - wvec - co_l1 + co_l2
        return gpart, xipart

    # entry [a, b] is the bracket of basis elements a and b
    gpart, xipart = bracket_star(zs[:, None], xis[:, None],
                                 zs[None], xis[None])
    # the vector part must sit inside the subalgebra
    closure = qbia._max_abs(np.delete(gpart, sub, axis=-1))
    znew = gpart[..., sub]
    rem = xipart - znew @ xis[:k]
    closure = max(closure, qbia._max_abs(rem[..., sub]))
    cstar = np.concatenate([znew, rem[..., comp]], axis=-1)

    skew = qbia._max_abs(cstar + cstar.transpose(1, 0, 2))
    cstar = 0.5 * (cstar - cstar.transpose(1, 0, 2))
    basis = np.hstack([zs @ inj.T, xis])
    return basis, cstar, skew, closure


def vertex_dual(q0, field):
    """Build and certify the dual algebra at the base point q0.

    The bracket comes from the formula (vertex_bracket).  The certificate
    adds its Jacobi residual and compares it with the double of the
    structure twisted by the field value at q0: the basis must be isotropic
    there, and the double's bracket of every basis pair, expanded in the
    basis by one least-squares solve with dim**2 right-hand sides, must
    close and agree with the formula.
    """
    G = field.G
    q0 = np.asarray(q0, dtype=float)
    l0 = field.value(q0)
    if linalg.skew_residual(l0) > SKEW_TOL:
        raise ValueError("field value at the base point is not skew")
    l0 = 0.5 * (l0 - l0.T)
    basis, cstar, skew, closure = vertex_bracket(q0, field, l0)
    dim = basis.shape[0]
    jac = lie.LieAlgebraData(cstar, check=False).jacobi_residual()

    dtw = twist.apply_twist(G, l0).double
    iso = qbia._max_abs(basis @ dtw.pairing @ basis.T)
    v = _bilinear(dtw.d.c, basis[:, None], basis[None])
    v = v.reshape(dim * dim, -1).T
    coef, _, _, _ = np.linalg.lstsq(basis.T, v, rcond=None)
    dbl_closure = qbia._max_abs(basis.T @ coef - v)
    agree = qbia._max_abs(coef.T.reshape(dim, dim, dim) - cstar)

    report = {"antisymmetry_residual": skew,
              "jacobi_residual": jac,
              "formula_closure_residual": closure,
              "isotropy_residual": iso,
              "double_closure_residual": dbl_closure,
              "bracket_agreement": agree,
              "passed": bool(max(skew, jac, closure, iso, dbl_closure,
                                 agree) <= CERT_TOL)}
    return VertexDualAlgebra(basis, cstar, report, q0.copy())


# ---------------------------------------------------------------------------
# consistency checks for the canonical field


def inversion_symmetry_check(G, decomp, samples=20, seed=0):
    """The canonical field of the sign-inverted structure at p must be the
    negative of the original canonical field at -p."""
    f_plus = canonical_field(G, decomp)
    f_minus = canonical_field(qbia.invert(G), decomp)
    worst = 0.0
    for p in sample_domain_points(f_plus, samples, seed=seed):
        if not in_domain(-p, f_plus)["in_domain"]:
            continue
        worst = max(worst, float(np.max(np.abs(
            f_minus.value(p) + f_plus.value(-p)))))
    return worst


def morphism_transport_check(upsi, G1, decomp1, G2, decomp2, samples=10,
                             seed=0):
    """For a structure morphism fixing the subalgebra pointwise and mapping
    complement into complement, conjugation transports one canonical field
    onto the other.  Returns the max residual over sampled base points."""
    upsi = np.asarray(upsi, dtype=float)
    if qbia._max_abs(upsi @ decomp1.inj_sub - decomp2.inj_sub) > CERT_TOL:
        raise ValueError("morphism must fix the subalgebra pointwise")
    leak = decomp2.proj_sub @ upsi @ decomp1.inj_comp
    if qbia._max_abs(leak) > CERT_TOL:
        raise ValueError("morphism must map complement into complement")
    rep = qbia.check_morphism(upsi, G1, G2)
    if not rep["passed"]:
        raise ValueError("not a structure morphism: %s" % rep)
    f1 = canonical_field(G1, decomp1)
    f2 = canonical_field(G2, decomp2)
    worst = 0.0
    for p in sample_domain_points(f1, samples, seed=seed, scale=0.4):
        lhs = upsi @ f1.value(p) @ upsi.T
        worst = max(worst, qbia._max_abs(lhs - f2.value(p)))
    return worst


def adjoint_transport_identity(G, decomp, p, xi):
    """Flowing (l_p xi + xi) by the double's adjoint at -p lands in the
    covector summand and equals the inverse of the covector block of the
    forward flow applied to xi, for xi annihilating the subalgebra."""
    field = canonical_field(G, decomp)
    p = np.asarray(p, dtype=float)
    xi = np.asarray(xi, dtype=float)
    if np.max(np.abs(xi[field.sub])) > 1e-12:
        raise ValueError("covector must annihilate the subalgebra")
    field._require_domain(p)
    n = G.dim
    a = field._big_ad(p)
    lmat = field.value(p)
    u = field.double.embed(x=lmat @ xi, xi=xi)
    flowed = scipy.linalg.expm(-a) @ u
    member = float(np.max(np.abs(flowed[:n])))
    fwd = scipy.linalg.expm(a)
    rhs = np.linalg.solve(fwd[n:, n:], xi)
    identity = float(np.max(np.abs(flowed[n:] - rhs)))
    split = linalg.BlockSplit(2 * n, np.arange(n), np.arange(n, 2 * n))
    offdiag = linalg.offdiag_inverse_identity_residual(fwd, split)
    return {"membership_residual": member,
            "identity_residual": identity,
            "offdiag_identity_residual": offdiag}
