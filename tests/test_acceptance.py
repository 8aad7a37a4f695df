"""Acceptance sweeps: every structural claim at its stated tolerance.

Each test prints one pass/fail line; the asserted quantity is always the
worst residual over the whole sweep.
"""

import numpy as np

from dynlie import catalog, cli, duality, dynamics, lie, linalg, qbia, twist

SEED = 424242
COCOM_ENTRIES = ("sl2-cartan", "sl2-involution", "su2-lagrangian")
SWEEP_ENTRIES = COCOM_ENTRIES + ("ev-sl2", "ev-sl2-gamma", "symmetric-sl2")


def _report(num, ok, detail):
    print("criterion %02d: %s (%s)" % (num, "pass" if ok else "fail",
                                       detail))


def rskew(n, rng, scale=1.0):
    m = scale * rng.standard_normal((n, n))
    return m - m.T


def invariant_phi(g):
    return linalg.antisymmetrize3(
        0.25 * lie.invariant_triple_tensor(g, g.killing_form()))


def candidate_pool():
    sl2 = lie.sl2_data().c
    c4 = np.zeros((4, 4, 4))
    c4[:3, :3, :3] = sl2
    aff = np.zeros((4, 4, 4))
    aff[0, 1, 1] = 1.0
    aff[1, 0, 1] = -1.0
    aff[2, 3, 3] = 1.0
    aff[3, 2, 3] = -1.0
    rot = np.zeros((3, 3, 3))
    for i, j, m in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        rot[i, j, m] = 1.0
        rot[j, i, m] = -1.0
    return [sl2, c4, aff, rot, np.zeros((2, 2, 2))]


def test_criterion_01_closed_form_matches_double_jacobi():
    rng = np.random.default_rng(SEED)
    pool = candidate_pool()
    tol = 1e-10
    disagreements = 0
    verdicts = {True: 0, False: 0}
    for trial in range(200):
        g = lie.LieAlgebraData(pool[rng.integers(len(pool))])
        n = g.dim
        k = g.killing_form()
        phi = (invariant_phi(g) if abs(np.linalg.det(k)) > 1e-8
               else np.zeros((n, n, n)))
        G = twist.apply_twist(
            qbia.QuasiBialgebra(g, np.zeros((n, n, n)), phi),
            rskew(n, rng, rng.uniform(0.2, 1.0)))
        cc, w, ph = G.g.c.copy(), G.varpi.copy(), G.phi.copy()
        kind = trial % 4
        if kind == 1:
            eps = 1e-3 * rng.standard_normal(n)
            cc[0, 1] += eps
            cc[1, 0] -= eps
            g = lie.LieAlgebraData(cc, check=False)
        else:
            g = G.g
        if kind == 2:
            w[rng.integers(n)] += rskew(n, rng, 1e-3)
        if kind == 3:
            ph = linalg.antisymmetrize3(
                ph + 1e-3 * rng.standard_normal((n, n, n)))
        Gc = qbia.QuasiBialgebra(g, w, ph, check=False)
        closed = qbia.check_quasi_bialgebra(Gc, tol=tol)["passed"]
        direct = qbia.build_double(Gc).jacobi_residual() <= tol
        verdicts[closed] += 1
        if closed != direct:
            disagreements += 1
    ok = disagreements == 0 and min(verdicts.values()) > 20
    _report(1, ok, "200 candidates, %d disagreements, verdicts %s"
            % (disagreements, dict(verdicts)))
    assert ok


def test_criterion_02_flow_equations_across_the_catalog():
    worst_flow = 0.0
    worst_equi = 0.0
    for name in SWEEP_ENTRIES:
        entry = catalog.get(name)
        field = dynamics.canonical_field(entry.G, entry.decomp)
        eye = np.eye(field.base_dim)
        points = dynamics.sample_domain_points(field, 50, seed=SEED,
                                               scale=0.35)
        for p in points:
            rep = dynamics.cdybe_residual(field, p)
            worst_flow = max(worst_flow, rep["cyclic_residual"],
                             rep["vector_residual"])
            worst_equi = max(
                worst_equi,
                max(dynamics.equivariance_residual(field, p, z)
                    for z in eye))
    ok = worst_flow <= 1e-8 and worst_equi <= 1e-8
    _report(2, ok, "%d entries x 50 points, flow %.3e, equivariance %.3e"
            % (len(SWEEP_ENTRIES), worst_flow, worst_equi))
    assert ok


def test_criterion_03_closed_form_field_values():
    worst = 0.0
    for name in COCOM_ENTRIES:
        entry = catalog.get(name)
        field = dynamics.canonical_field(entry.G, entry.decomp)
        points = dynamics.sample_domain_points(field, 50, seed=SEED,
                                               scale=0.35)
        for p in points:
            direct = dynamics.compatible_closed_form(entry.G, entry.decomp,
                                                     p)
            worst = max(worst,
                        float(np.max(np.abs(field.value(p) - direct))))
    ok = worst <= 1e-10
    _report(3, ok, "3 entries x 50 points, worst gap %.3e" % worst)
    assert ok


def test_criterion_04_residuals_are_twist_covariant():
    entry = catalog.get("sl2-cartan")
    G, dec = entry.G, entry.decomp
    rng = np.random.default_rng(SEED)
    worst = 0.0
    field = dynamics.canonical_field(G, dec)
    for trial in range(20):
        if trial % 2:
            base = dynamics.constant_field(G, rskew(3, rng, 0.7), dec)
        else:
            base = field
        t = rskew(3, rng, 0.5)
        Gt = twist.apply_twist(G, t)
        moved = dynamics.shifted_field(base, -t, target=Gt)
        for p in (0.4 * rng.standard_normal(1) for _ in range(3)):
            r1 = dynamics.cdybe_residual(base, p)
            r2 = dynamics.cdybe_residual(moved, p)
            worst = max(worst,
                        abs(r1["cyclic_residual"] - r2["cyclic_residual"]),
                        abs(r1["vector_residual"] - r2["vector_residual"]))
    ok = worst <= 1e-9
    _report(4, ok, "20 random twists x 3 points, worst gap %.3e" % worst)
    assert ok


def test_criterion_05_root_twisted_fields_solve_the_original_system():
    worst_flow = 0.0
    worst_equi = 0.0
    for name in ("ev-sl2", "ev-sl2-gamma"):
        entry = catalog.get(name)
        rho = np.array(entry.params["rho"])
        base = twist.apply_twist(entry.G, -rho)
        field = dynamics.canonical_field(entry.G, entry.decomp)
        shifted = dynamics.shifted_field(field, rho, target=base)
        eye = np.eye(shifted.base_dim)
        for p in dynamics.sample_domain_points(shifted, 50, seed=SEED,
                                               scale=0.35):
            rep = dynamics.cdybe_residual(shifted, p)
            worst_flow = max(worst_flow, rep["cyclic_residual"],
                             rep["vector_residual"])
            worst_equi = max(
                worst_equi,
                max(dynamics.equivariance_residual(shifted, p, z)
                    for z in eye))
    ok = worst_flow <= 1e-8 and worst_equi <= 1e-8
    _report(5, ok, "2 root twists x 50 points, flow %.3e, equivariance %.3e"
            % (worst_flow, worst_equi))
    assert ok


def _axis_gauge(scale1, scale2):
    # on the rank-one split only the first direction centralizes the
    # subalgebra, so equivariant gauges take values along it
    c1 = np.zeros((3, 1))
    c1[0, 0] = scale1
    c2 = np.zeros((3, 1, 1))
    c2[0, 0, 0] = scale2
    return dynamics.PolynomialMap(1, 3, coeff1=c1, coeff2=c2)


def test_criterion_06_gauge_action_preserves_the_system():
    entry = catalog.get("sl2-cartan")
    field = dynamics.canonical_field(entry.G, entry.decomp)
    rng = np.random.default_rng(SEED)
    worst_flow = 0.0
    worst_law = 0.0
    for _ in range(10):
        a1, a2, b1, b2 = 0.5 * rng.standard_normal(4)
        s1 = _axis_gauge(a1, a2)
        s2 = _axis_gauge(b1, b2)
        gauged = dynamics.gauge_transform(field, s1)
        for p in dynamics.sample_domain_points(gauged, 3, seed=SEED):
            rep = dynamics.cdybe_residual(gauged, p)
            worst_flow = max(worst_flow, rep["cyclic_residual"],
                             rep["vector_residual"])
        nested = dynamics.gauge_transform(gauged, s2)
        flat = dynamics.gauge_transform(field, [s2, s1])
        for p in (0.4 * rng.standard_normal(1) for _ in range(3)):
            dv = np.max(np.abs(nested.value(p) - flat.value(p)))
            dd = np.max(np.abs(nested.derivative(p, np.ones(1))
                               - flat.derivative(p, np.ones(1))))
            worst_law = max(worst_law, float(dv), float(dd))
    ok = worst_flow <= 1e-7 and worst_law <= 1e-8
    _report(6, ok, "10 gauges, flow %.3e, action law %.3e"
            % (worst_flow, worst_law))
    assert ok


def test_criterion_07_trivialization_is_an_algebroid_morphism():
    entry = catalog.get("sl2-cartan")
    triv = duality.TrivializationMap(entry.G, entry.decomp)
    rep = triv.check(samples=6, seed=SEED)
    ok = (rep["anchor_residual"] == 0.0
          and rep["bracket_residual"] <= 1e-8
          and rep["roundtrip_residual"] <= 1e-10
          and rep["flatness_residual"] <= 1e-9)
    _report(7, ok, "anchor %.3e, bracket %.3e, roundtrip %.3e, "
            "flatness %.3e" % (rep["anchor_residual"],
                               rep["bracket_residual"],
                               rep["roundtrip_residual"],
                               rep["flatness_residual"]))
    assert ok


def test_criterion_08_duality_theorem_and_double_dual():
    worst_dual = 0.0
    worst_round = 0.0
    for name in ("sl2-cartan", "symmetric-sl2"):
        entry = catalog.get(name)
        worst_dual = max(worst_dual, duality.duality_theorem_check(
            entry.G, entry.decomp, samples=50, seed=SEED))
        worst_round = max(worst_round, duality.double_dual_check(
            entry.G, entry.decomp))
    ok = worst_dual <= 1e-9 and worst_round <= 1e-10
    _report(8, ok, "2 entries x 50 points, duality %.3e, double dual %.3e"
            % (worst_dual, worst_round))
    assert ok


def test_criterion_09_dual_tables_match_their_formulas(tmp_path):
    worst_table = 0.0
    worst_pair = 0.0
    floors = {}
    for name, rank in (("ev-sl2", 1), ("ev-sl2-gamma", 1), ("ev-sl3", 2)):
        entry = catalog.get(name)
        # drive the public path: emit the structure file, dualize it on
        # disk, then compare the emitted dual against the formulas
        spec_path = tmp_path / ("%s.spec" % name)
        dual_path = tmp_path / ("%s-dual.spec" % name)
        assert cli.main(["catalog", "emit", name,
                         "--out", str(spec_path)]) == 0
        assert cli.main(["dual", str(spec_path), str(dual_path)]) == 0
        star = cli.AlgebraSpecFile.load(str(dual_path)).G
        g, decomp, roots, pair, positive, simple = catalog._ev_root_data(
            rank)
        rho = np.array(entry.params["rho"])
        phivals = {s: rho[s, pair[s]] for s in roots}
        cerr, verr, perr = catalog._ev_dual_tables(g, decomp, roots, pair,
                                                   phivals, star)
        worst_table = max(worst_table, cerr, verr, perr)
        k = decomp.dim_sub
        comp = list(decomp.comp)
        if name == "ev-sl2":
            # with no selected roots the opposite root vectors commute
            i1 = k + comp.index(pair[1])
            i2 = k + comp.index(pair[2])
            worst_pair = max(worst_pair,
                             float(np.max(np.abs(star.g.c[i1, i2]))))
        dual_obj = duality.dual_qbia(entry.G, entry.decomp)
        _, resid = dynamics.cocycle_fit(dual_obj)
        floors[name] = resid
    ok = (worst_table <= 1e-10 and worst_pair <= 1e-10
          and floors["ev-sl2"] > 1e-6 and floors["ev-sl3"] > 1e-6
          and floors["ev-sl2-gamma"] <= 1e-10)
    _report(9, ok, "tables %.3e, pair bracket %.3e, exactness floors %s"
            % (worst_table, worst_pair,
               {k: "%.2e" % v for k, v in floors.items()}))
    assert ok


def test_criterion_10_block_and_derivative_identities():
    rng = np.random.default_rng(SEED)
    worst_off = 0.0
    for _ in range(100):
        n = int(rng.integers(4, 7))
        k = int(rng.integers(1, n))
        split = linalg.BlockSplit(n, np.arange(k), np.arange(k, n))
        f = rng.standard_normal((n, n)) + 3.0 * np.eye(n)
        worst_off = max(worst_off,
                        linalg.offdiag_inverse_identity_residual(f, split))

    algebras = [lie.sl2_data(), catalog.sl3_chevalley()]
    worst_pow = 0.0
    for case in range(100):
        g = algebras[case % 2]
        n = int(rng.integers(1, 5))
        # moderate amplitudes keep the finite-difference oracle truncation
        # well below the comparison tolerance even at fourth powers
        x, u, v = 0.5 * rng.standard_normal((3, g.dim))

        def ad_power(y, n=n, v=v, g=g):
            out = v.copy()
            a = g.ad_matrix(y)
            for _ in range(n):
                out = a @ out
            return out

        fd = linalg.finite_diff(ad_power, x, u)
        an = linalg.d_ad_power(x, u, v, n, g)
        worst_pow = max(worst_pow, float(np.max(np.abs(fd - an))))

    entry = catalog.get("sl2-cartan")
    field = dynamics.canonical_field(entry.G, entry.decomp)
    worst_diff = 0.0
    for _ in range(20):
        rep = duality.differential_identities(
            field, 0.4 * rng.standard_normal(1), rng.standard_normal(1),
            rng.standard_normal(1))
        worst_diff = max(worst_diff, *rep.values())

    ok = worst_off <= 1e-10 and worst_pow <= 1e-6 and worst_diff <= 1e-9
    _report(10, ok, "offdiag %.3e (100), power rule vs fd %.3e (100), "
            "kernel identities %.3e (20)" % (worst_off, worst_pow,
                                             worst_diff))
    assert ok
