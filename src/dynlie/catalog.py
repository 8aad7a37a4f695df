"""Curated example structures with certified numerical fixtures.

Every entry bundles a quasi-bialgebra, a reductive split, and a list of
fixtures: named residuals that were computed against an independent check
(a closed-form formula, a frozen constant table, or an exact identity)
and must hold every time the entry is constructed.  Loading an entry
re-runs all of its fixtures, so a catalog entry that constructs at all is
a verified object.

Builders cover four families:

* abelian algebras, where the canonical field vanishes identically,
* cocommutative structures whose associator is built from an invariant
  pairing, so the canonical field has a hyperbolic closed form,
* root-system twists with hyperbolic-cotangent coefficients, whose duals
  have fully explicit bracket, cocycle, and associator tables,
* symmetric-pair duals obtained from an involutive automorphism.
"""

from itertools import permutations

import numpy as np

from . import duality, dynamics, lie, linalg, qbia, twist

FIXTURE_TOL = 1e-10
TABLE_TOL = 1e-10
EXACT_TOL = 1e-12
SWEEP_TOL = 1e-8
NONEXACT_FLOOR = 1e-6
SINGULAR_TOL = 1e-8
SAMPLE_SEED = 7


class UnknownEntry(KeyError):
    """Requested catalog name is not registered."""


class SingularMu(ValueError):
    """Base offset lies on a singular hyperplane of the selected roots."""


class EntryVerificationError(ValueError):
    """A fixture failed while loading a catalog entry."""


def _fixture(name, residual, tol, source, mode="upper"):
    """Package one certified residual.

    mode "upper" passes when residual <= tol; mode "lower" passes when
    residual > tol (used for quantities that must stay bounded away from
    zero, like obstruction norms).
    """
    residual = float(residual)
    passed = residual <= tol if mode == "upper" else residual > tol
    return {"name": name, "residual": residual, "tol": float(tol),
            "mode": mode, "source": source, "passed": bool(passed)}


class CatalogEntry:
    """A verified example: structure, split, parameters, and fixtures.

    Construction re-checks the quasi-bialgebra axioms, the declared
    compatibility level of the split, and every fixture.  Any failure
    raises EntryVerificationError naming the fixture, its residual, and
    the source of its expected value.
    """

    def __init__(self, name, params, G, decomp, fixtures,
                 compatibility="canonical"):
        self.name = name
        self.params = dict(params)
        self.G = G
        self.decomp = decomp
        self.fixtures = list(fixtures)
        self.compatibility = compatibility
        rep = qbia.check_quasi_bialgebra(G)
        if not rep["passed"]:
            worst = max(v for v in rep.values() if isinstance(v, float))
            raise EntryVerificationError(
                "%s: structure axioms fail, worst residual %.3e"
                % (name, worst))
        if compatibility is not None:
            crep = qbia.check_compatibility(G, decomp)
            if not crep[compatibility]:
                raise EntryVerificationError(
                    "%s: split is not %s (residuals %s)"
                    % (name, compatibility,
                       {k: v for k, v in crep.items()
                        if isinstance(v, float)}))
        for fx in self.fixtures:
            if not fx["passed"]:
                raise EntryVerificationError(
                    "%s: fixture '%s' (%s) residual %.3e vs %s %.1e"
                    % (name, fx["name"], fx["source"], fx["residual"],
                       "bound" if fx["mode"] == "upper" else "floor",
                       fx["tol"]))

    def __repr__(self):
        return ("CatalogEntry(%r, dim=%d, fixtures=%d)"
                % (self.name, self.G.dim, len(self.fixtures)))


def _basis_change(c, P):
    """Structure constants in the basis whose columns are P, with entries
    below 1e-14 in magnitude set to zero."""
    out = linalg.contract3(c, P, np.linalg.inv(P))
    out[np.abs(out) < 1e-14] = 0.0
    return out


def _cdybe_sweep(field, points):
    worst = dynamics.flow_sweep(field, points)
    return max(worst[key] for key in ("cyclic_residual", "vector_residual",
                                      "forms_agreement", "skew_residual"))


def build_abelian(n=2, k=1):
    """Abelian algebra with a k-dimensional split: the field vanishes."""
    g = lie.LieAlgebraData(np.zeros((n, n, n)),
                           ["a%d" % i for i in range(n)])
    G = qbia.QuasiBialgebra(g, np.zeros((n, n, n)), np.zeros((n, n, n)))
    decomp = lie.ReductiveDecomposition(g, list(range(k)),
                                        list(range(k, n)))
    field = dynamics.canonical_field(G, decomp)
    points = dynamics.sample_domain_points(field, 3, seed=SAMPLE_SEED)
    flat = max(float(np.max(np.abs(field.value(p)))) for p in points)
    fixtures = [
        _fixture("field-vanishes", flat, 0.0, "identity"),
        _fixture("double-jacobi", G.double.d.jacobi_residual(), 0.0,
                 "identity"),
        _fixture("cdybe-sweep", _cdybe_sweep(field, points), 1e-14,
                 "residual-sweep"),
    ]
    return CatalogEntry("abelian", {"n": n, "k": k}, G, decomp, fixtures)


def build_cocom_compatible(g, decomp, phi, name="cocom-compatible",
                           params=None):
    """Cocommutative structure whose canonical field has a closed form.

    The cocycle is zero and phi must make the split canonical, so the
    field splits into a cotangent-remainder part on the subalgebra block
    and a hyperbolic-tangent part on the complement.  Both the closed
    form and the flow equations are certified at sampled points.
    """
    n = g.dim
    G = qbia.QuasiBialgebra(g, np.zeros((n, n, n)), np.asarray(phi, float))
    field = dynamics.canonical_field(G, decomp)
    points = dynamics.sample_domain_points(field, 3, seed=SAMPLE_SEED,
                                           scale=0.3)
    closed = max(
        float(np.max(np.abs(field.value(p)
                            - dynamics.compatible_closed_form(G, decomp, p))))
        for p in points)
    fixtures = [
        _fixture("closed-form-match", closed, FIXTURE_TOL, "closed-form"),
        _fixture("cdybe-sweep", _cdybe_sweep(field, points), SWEEP_TOL,
                 "residual-sweep"),
    ]
    return CatalogEntry(name, params or {}, G, decomp, fixtures)


def _entry_sl2_cartan():
    g = lie.sl2_data()
    B = g.killing_form()
    phi = 0.25 * lie.invariant_triple_tensor(g, B)
    decomp = lie.ReductiveDecomposition(g, [0], [1, 2])
    return build_cocom_compatible(
        g, decomp, phi, name="sl2-cartan",
        params={"algebra": "sl2", "split": "cartan",
                "associator": "quarter-pairing-form"})


def _entry_sl2_involution():
    # basis adapted to the orthogonal involution: the fixed line is the
    # compact rotation generator, the complement is its pairing-orthogonal
    # plane, and the two blocks bracket back into each other.
    g0 = lie.sl2_data()
    P = np.array([[0.0, 1.0, 0.0],
                  [1.0, 0.0, 1.0],
                  [-1.0, 0.0, 1.0]])
    c = _basis_change(g0.c, P)
    g = lie.LieAlgebraData(c, ["rot", "sym1", "sym2"])
    phi = lie.invariant_triple_tensor(g, g.killing_form())
    decomp = lie.ReductiveDecomposition(g, [0], [1, 2])
    return build_cocom_compatible(
        g, decomp, phi, name="sl2-involution",
        params={"algebra": "sl2", "split": "involution-eigenspaces",
                "associator": "pairing-form"})


def _entry_su2_lagrangian():
    # compact 3-dim algebra plus its imaginary copy; the imaginary part
    # of the complex pairing makes both halves lagrangian.
    c2 = np.zeros((3, 3, 3))
    for i, j, m in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        c2[i, j, m] = 1.0
        c2[j, i, m] = -1.0
    cc = np.zeros((6, 6, 6))
    cc[:3, :3, :3] = c2
    cc[:3, 3:, 3:] = c2
    cc[3:, :3, 3:] = c2
    cc[3:, 3:, :3] = -c2
    names = ["t1", "t2", "t3", "it1", "it2", "it3"]
    g = lie.LieAlgebraData(cc, names)
    B2 = lie.LieAlgebraData(c2).killing_form()
    quad = np.zeros((6, 6))
    quad[:3, 3:] = B2
    quad[3:, :3] = B2
    phi = lie.invariant_triple_tensor(g, quad)
    decomp = lie.ReductiveDecomposition(g, [0, 1, 2], [3, 4, 5])
    return build_cocom_compatible(
        g, decomp, phi, name="su2-lagrangian",
        params={"algebra": "su2-complexified", "split": "lagrangian-halves",
                "associator": "imaginary-pairing-form"})


# Structure constants of the rank-2 special linear algebra in its integral
# basis, frozen from a brute-force commutator computation in the defining
# 3x3 representation (only i < j entries; the table is antisymmetric).
SL3_CHEVALLEY = (
    (0, 2, 2, 2), (0, 3, 3, -1), (0, 4, 4, 1),
    (0, 5, 5, -2), (0, 6, 6, 1), (0, 7, 7, -1),
    (1, 2, 2, -1), (1, 3, 3, 2), (1, 4, 4, 1),
    (1, 5, 5, 1), (1, 6, 6, -2), (1, 7, 7, -1),
    (2, 3, 4, 1), (2, 5, 0, 1), (2, 7, 6, -1),
    (3, 6, 1, 1), (3, 7, 5, 1),
    (4, 5, 3, -1), (4, 6, 2, 1), (4, 7, 0, 1), (4, 7, 1, 1),
    (5, 6, 7, -1),
)


def sl3_chevalley():
    """Rank-2 special linear algebra over the frozen integral table."""
    c = np.zeros((8, 8, 8))
    for i, j, m, v in SL3_CHEVALLEY:
        c[i, j, m] = float(v)
        c[j, i, m] = -float(v)
    names = ["h1", "h2", "raise1", "raise2", "raise12",
             "lower1", "lower2", "lower12"]
    return lie.LieAlgebraData(c, names)


def _ev_root_data(rank):
    """Normalized root-space basis for the rank-1 and rank-2 cases.

    The Cartan part is orthonormal for the invariant pairing and opposite
    root vectors pair to one, so root covectors are read off directly.
    Returns the algebra, split, root coordinates per slot, the slot
    pairing gamma <-> -gamma, the positive slots, and the simple roots.
    """
    if rank == 1:
        g0 = lie.sl2_data()
        P = np.diag([1.0 / (2.0 * np.sqrt(2.0)), 0.5, 0.5])
        c = _basis_change(g0.c, P)
        g = lie.LieAlgebraData(c, ["cart1", "root+1", "root-1"])
        sub = [0]
        alpha = np.array([1.0 / np.sqrt(2.0)])
        roots = {1: alpha, 2: -alpha}
        pair = {1: 2, 2: 1}
        positive = {1}
        simple = [(alpha, 1)]
    elif rank == 2:
        g0 = sl3_chevalley()
        P = np.zeros((8, 8))
        P[0, 0] = 1.0 / np.sqrt(12.0)
        P[0, 1] = 1.0 / 6.0
        P[1, 1] = 1.0 / 3.0
        for s in range(2, 8):
            P[s, s] = 1.0 / np.sqrt(6.0)
        c = _basis_change(g0.c, P)
        g = lie.LieAlgebraData(c, ["cart1", "cart2", "root+1", "root+2",
                                   "root+3", "root-1", "root-2", "root-3"])
        sub = [0, 1]
        g1 = np.array([1.0 / np.sqrt(3.0), 0.0])
        g2 = np.array([-0.5 / np.sqrt(3.0), 0.5])
        roots = {2: g1, 3: g2, 4: g1 + g2,
                 5: -g1, 6: -g2, 7: -(g1 + g2)}
        pair = {2: 5, 3: 6, 4: 7, 5: 2, 6: 3, 7: 4}
        positive = {2, 3, 4}
        simple = [(g1, 2), (g2, 3)]
    else:
        raise ValueError("rank must be 1 or 2, got %r" % (rank,))
    decomp = lie.ReductiveDecomposition(
        g, sub, [s for s in range(g.dim) if s not in sub])
    return g, decomp, roots, pair, positive, simple


def _in_root_span(gamma, gens):
    if not gens:
        return False
    A = np.stack(gens, axis=1)
    sol, _, _, _ = np.linalg.lstsq(A, gamma, rcond=None)
    return float(np.max(np.abs(A @ sol - gamma))) <= 1e-10


def _ev_dual_tables(g, decomp, roots, pair, phivals, star):
    """Residuals of the dual tables against their coefficient formulas.

    The invariant pairing identifies the dual space with the algebra:
    Cartan covectors map to the orthonormal Cartan basis and the covector
    dual to a root vector maps to the opposite root vector.  In these
    coordinates the dual bracket scales root-root brackets by sums of
    the hyperbolic coefficients, opposite pairs by a quarter minus the
    squared coefficient, and Cartan-root brackets pass through unchanged.
    """
    n = g.dim
    k = decomp.dim_sub
    sub = list(decomp.sub)
    comp = list(decomp.comp)
    W = np.zeros((n, n))
    for a, s in enumerate(sub):
        W[a, s] = 1.0
    for s in roots:
        W[k + comp.index(pair[s]), s] = 1.0
    idx = {a: int(np.argmax(W[:, a])) for a in range(n)}
    argix = {s: a for a, s in enumerate(sub)}
    argix.update({s: k + comp.index(s) for s in comp})
    eye = np.eye(n)

    cexp = np.zeros((n, n, n))
    for a in range(n):
        for b in range(n):
            val = g.bracket(eye[a], eye[b])
            if a in roots and b in roots:
                if pair[a] == b:
                    coef = 0.25 - phivals[a] ** 2
                else:
                    coef = phivals[a] + phivals[b]
            elif a in roots or b in roots:
                coef = 1.0
            else:
                coef = 0.0
            cexp[idx[a], idx[b], :] = coef * (W @ val)
    cerr = float(np.max(np.abs(star.g.c - cexp)))

    vexp = np.zeros((n, n, n))
    for a in roots:
        i = idx[a]
        for j in sub:
            vexp[i][:, argix[j]] = phivals[a] * (W @ g.bracket(eye[j], eye[a]))
        for b in roots:
            coef = -phivals[a] if pair[a] == b else -1.0
            vexp[i][:, argix[b]] = coef * (W @ g.bracket(eye[a], eye[b]))
    verr = float(np.max(np.abs(star.varpi - vexp)))

    psub = np.zeros((n, n))
    for s in sub:
        psub[s, s] = 1.0
    pexp = np.zeros((n, n, n))
    for a in roots:
        for b in roots:
            pexp[argix[a], argix[b], :] = W @ (psub @ g.bracket(eye[a], eye[b]))
        for j in sub:
            val = W @ g.bracket(eye[a], eye[j])
            pexp[argix[a], argix[j], :] = val
            pexp[argix[j], argix[a], :] = -val
    perr = float(np.max(np.abs(star.phi - pexp)))
    return cerr, verr, perr


def _ev_phi_support(k, roots, pair, gens):
    """Where the associator of a plain-Cartan root-system twist can be
    nonzero: a boolean mask over its (n, n, n) entries.

    The twist sends the covector e^{pair s} to r_s e_s, and the Cartan
    pairing is orthonormal with opposite root vectors paired to one, so
    the twisted associator is phi0 (1 + 4 (r_a r_b + r_b r_c + r_c r_a))
    entrywise, where phi0 is the untwisted one and slot a carries
    r_{pair a} (0 on the Cartan slots).  phi0 lives on the weight-zero
    triples.  On (h, s, pair s) the factor is 1 - 4 r_s^2, which vanishes
    for the constant coefficients +-1/2 and not for the hyperbolic ones
    (|r_s| > 1/2).  On three roots summing to zero it vanishes always: by
    the addition rule of coth when all three lie in the span of the
    selected roots (at most one can lie outside it), and by the +-1/2
    values otherwise.  So the support is (h, s, pair s), h a Cartan slot
    and s a root in that span, with its permutations.
    """
    n = k + len(roots)
    mask = np.zeros((n, n, n), dtype=bool)
    for s, gamma in roots.items():
        if _in_root_span(gamma, gens):
            for h in range(k):
                for idx in permutations((h, s, pair[s])):
                    mask[idx] = True
    return mask


def build_EV(rank=1, Gamma=(), mu=None, C0=None):
    """Root-system twist with hyperbolic-cotangent coefficients.

    Starting from the cocommutative structure with quarter-pairing
    associator, the twist acts on each root line: roots spanned by the
    selected simple roots (indices in Gamma) get half the hyperbolic
    cotangent of minus half their pairing with the offset mu, all other
    roots get plus or minus one half by positivity.  C0 is an optional
    antisymmetric Cartan block; when it is zero the twisted associator
    holds exact zeros off its support (_ev_phi_support), the twist is
    certified against the membership conditions of the twist variety and
    the dual structure is certified against its explicit coefficient
    tables.

    Raises SingularMu when a selected root pairs to zero with mu.
    """
    g, decomp, roots, pair, positive, simple = _ev_root_data(rank)
    n = g.dim
    k = decomp.dim_sub
    Gamma = tuple(sorted(set(int(i) for i in Gamma)))
    for i in Gamma:
        if not 0 <= i < len(simple):
            raise ValueError("Gamma index %d out of range" % i)
    if mu is None:
        weight = 2.0 if rank == 1 else 6.0
        mu = weight * sum(coords for coords, _ in simple)
    mu = np.asarray(mu, dtype=float).reshape(k)
    gens = [simple[i][0] for i in Gamma]

    phivals = {}
    for s, gamma in roots.items():
        if _in_root_span(gamma, gens):
            x = float(gamma @ mu)
            if abs(x) < SINGULAR_TOL:
                raise SingularMu(
                    "root at slot %d pairs to %.1e with mu" % (s, x))
            phivals[s] = 0.5 / np.tanh(-x / 2.0)
        else:
            phivals[s] = 0.5 if s in positive else -0.5

    rho = np.zeros((n, n))
    for s in roots:
        rho[s, pair[s]] = phivals[s]
    if C0 is not None:
        C0 = np.asarray(C0, dtype=float).reshape(k, k)
        if float(np.max(np.abs(C0 + C0.T))) > 1e-12:
            raise twist.NotSkew("C0 must be antisymmetric")
        rho[:k, :k] = C0
    plain_cartan = C0 is None or float(np.max(np.abs(C0))) == 0.0

    B = g.killing_form()
    phi = 0.25 * lie.invariant_triple_tensor(g, B)
    G0 = qbia.QuasiBialgebra(g, np.zeros((n, n, n)), phi)
    w_r, phi_r = twist.twisted_tensors(G0, rho)
    if plain_cartan:
        # exact zeros where the twisted associator vanishes identically,
        # in place of the roundoff the twist formula leaves there
        phi_r[~_ev_phi_support(k, roots, pair, gens)] = 0.0
    Gr = qbia.QuasiBialgebra(g, w_r, phi_r)
    crep = qbia.check_compatibility(Gr, decomp)
    fixtures = [
        _fixture("twist-is-canonical",
                 max(v for v in crep.values() if isinstance(v, float)),
                 FIXTURE_TOL, "residual-sweep"),
    ]
    if plain_cartan:
        mrep = twist.moduli_membership(G0, decomp, rho)
        fixtures.append(_fixture(
            "moduli-membership",
            max(v for v in mrep.values() if isinstance(v, float)),
            FIXTURE_TOL, "identity"))
        star = duality.dual_qbia(Gr, decomp)
        cerr, verr, perr = _ev_dual_tables(g, decomp, roots, pair,
                                           phivals, star)
        fixtures.append(_fixture("dual-bracket-table", cerr, TABLE_TOL,
                                 "closed-form"))
        fixtures.append(_fixture("dual-cocycle-table", verr, TABLE_TOL,
                                 "closed-form"))
        fixtures.append(_fixture("dual-associator-table", perr, TABLE_TOL,
                                 "closed-form"))
        outside = [s for s in positive
                   if not _in_root_span(roots[s], gens)]
        if outside:
            comp = list(decomp.comp)
            sidx = {s: k + comp.index(pair[s]) for s in roots}
            flat = max(
                float(np.max(np.abs(star.g.c[sidx[a], sidx[pair[a]]])))
                for s in outside for a in (s, pair[s]))
            fixtures.append(_fixture("opposite-root-pairs-commute", flat,
                                     EXACT_TOL, "identity"))
        _, resid = dynamics.cocycle_fit(star)
        if len(Gamma) < len(simple):
            fixtures.append(_fixture("dual-cocycle-not-exact", resid,
                                     NONEXACT_FLOOR, "least-squares",
                                     mode="lower"))
        else:
            fixtures.append(_fixture("dual-cocycle-exact", resid,
                                     FIXTURE_TOL, "least-squares"))
        if rank == 2:
            fixtures.extend(_semidirect_fixtures(
                star, decomp, roots, pair, positive, gens))
    params = {"rank": rank, "Gamma": Gamma, "mu": mu.tolist(),
              "C0": None if C0 is None else C0.tolist(),
              "rho": rho.tolist()}
    name = "ev-rank%d-gamma%s" % (rank, "".join(str(i) for i in Gamma))
    return CatalogEntry(name, params, Gr, decomp, fixtures)


def _semidirect_fixtures(star, decomp, roots, pair, positive, gens):
    """Levi-plus-nilpotent shape of the dual bracket.

    The Cartan block together with the selected root lines closes into a
    subalgebra, the remaining root lines form an ideal, and the positive
    and negative halves of that ideal commute with each other.
    """
    n = star.dim
    k = decomp.dim_sub
    comp = list(decomp.comp)

    def sidx(s):
        return k + comp.index(pair[s])

    inside = [s for s in roots if _in_root_span(roots[s], gens)]
    levi = list(range(k)) + [sidx(s) for s in inside]
    nilp = [sidx(s) for s in positive if s not in inside]
    nilm = [sidx(pair[s]) for s in positive if s not in inside]
    nil = nilp + nilm
    out_levi = [m for m in range(n) if m not in levi]
    out_nil = [m for m in range(n) if m not in nil]
    cs = star.g.c
    closed = qbia._max_abs(cs[np.ix_(levi, levi, out_levi)])
    ideal = max(qbia._max_abs(cs[np.ix_(levi, nil, out_nil)]),
                qbia._max_abs(cs[np.ix_(nil, nil, out_nil)]))
    cross = qbia._max_abs(cs[np.ix_(nilp, nilm)])
    return [
        _fixture("reductive-part-closed", closed, EXACT_TOL, "identity"),
        _fixture("nilpotent-part-ideal", ideal, EXACT_TOL, "identity"),
        _fixture("nilpotent-halves-commute", cross, EXACT_TOL, "identity"),
    ]


def build_symmetric(g, sigma, name="symmetric", params=None,
                    signature_mode="differ"):
    """Wrap the symmetric-pair dual construction as a catalog entry.

    The entry holds the cocommutative structure whose double is the
    realified complexification, split along the eigenspaces of sigma.
    signature_mode "differ" certifies that the invariant pairings of the
    base and dual brackets have different signatures; "equal" certifies
    that the dual reproduces the base structure (the fixed-point split
    with trivial complement).
    """
    rep = duality.symmetric_dual(g, sigma)
    G = rep["structure"]
    fixtures = [
        _fixture("cocommutative", rep["cocommutative_residual"], EXACT_TOL,
                 "identity"),
        _fixture("associator-closed-form", rep["associator_residual"],
                 EXACT_TOL, "closed-form"),
        _fixture("dual-model-match", rep["dual_model_residual"],
                 FIXTURE_TOL, "closed-form"),
        _fixture("double-dual-roundtrip", rep["double_dual_residual"],
                 FIXTURE_TOL, "identity"),
    ]
    base_sig = np.array(rep["base_signature"], dtype=float)
    dual_sig = np.array(rep["dual_signature"], dtype=float)
    gap = float(np.max(np.abs(base_sig - dual_sig)))
    if signature_mode == "differ":
        fixtures.append(_fixture("signatures-differ", gap, 0.5,
                                 "identity", mode="lower"))
    elif signature_mode == "equal":
        star = rep["dual"]
        same = max(float(np.max(np.abs(star.g.c - G.g.c))),
                   float(np.max(np.abs(star.varpi - G.varpi))), gap)
        fixtures.append(_fixture("dual-equals-base", same, EXACT_TOL,
                                 "identity"))
    return CatalogEntry(name, params or {}, G, rep["decomp"], fixtures)


def _entry_symmetric_sl2():
    g = lie.sl2_data()
    sigma = np.array([[-1.0, 0.0, 0.0],
                      [0.0, 0.0, -1.0],
                      [0.0, -1.0, 0.0]])
    return build_symmetric(g, sigma, name="symmetric-sl2",
                           params={"algebra": "sl2",
                                   "involution": "transpose-negation"})


def _entry_so3_identity():
    c = np.zeros((3, 3, 3))
    for i, j, m in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        c[i, j, m] = 1.0
        c[j, i, m] = -1.0
    g = lie.LieAlgebraData(c, ["x", "y", "z"])
    return build_symmetric(g, np.eye(3), name="so3-identity",
                           params={"algebra": "so3",
                                   "involution": "identity"},
                           signature_mode="equal")


def _entry_ev_sl2():
    entry = build_EV(1, ())
    entry.name = "ev-sl2"
    return entry


def _entry_ev_sl2_gamma():
    entry = build_EV(1, (0,))
    entry.name = "ev-sl2-gamma"
    return entry


def _entry_ev_sl3():
    entry = build_EV(2, (0,))
    entry.name = "ev-sl3"
    return entry


_BUILDERS = {
    "abelian": build_abelian,
    "sl2-cartan": _entry_sl2_cartan,
    "sl2-involution": _entry_sl2_involution,
    "su2-lagrangian": _entry_su2_lagrangian,
    "ev-sl2": _entry_ev_sl2,
    "ev-sl2-gamma": _entry_ev_sl2_gamma,
    "ev-sl3": _entry_ev_sl3,
    "symmetric-sl2": _entry_symmetric_sl2,
    "so3-identity": _entry_so3_identity,
}


def names():
    """Registered entry names, in registry order."""
    return list(_BUILDERS)


def get(name):
    """Build and re-verify a catalog entry by name."""
    if name not in _BUILDERS:
        raise UnknownEntry("unknown catalog entry %r (have: %s)"
                           % (name, ", ".join(_BUILDERS)))
    return _BUILDERS[name]()
