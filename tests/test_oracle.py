"""The canonical field and its jet against a 67-digit oracle (oracle.py).

The points lie on seeded rays (one per entry): the cubic entries at
r = 1, 30 and 45 (their domain edge is at 47.4), the commuting entries
ev-sl3 and ev-sl2-gamma at r = 1 and at half their domain edge along the
ray.  The bounds are fixed here, before any point is evaluated: relative to
the oracle's largest entry, the value within VALUE_TOL and the jet within
JET_TOL.  On the cubic entries the field reads M^-1 N through the bounded
system of its spectral model, which holds both bounds out to the edge.  The
commuting entries still solve M^-1 N directly, which loses digits with
cond(M): their half-edge jets miss JET_TOL (the graded frames of the
ROADMAP, a bounded system for commuting frames, are not built), and those
points are kept as strict expected failures.
"""

import functools

import mpmath

import numpy as np
import pytest

from dynlie import catalog, dynamics as dyn

import oracle

VALUE_TOL = 1e-14
JET_TOL = 1e-13
RAY_SEEDS = {"su2-lagrangian": 80, "so3-identity": 81, "ev-sl3": 82,
             "ev-sl2-gamma": 83}
EDGE_CAP = 64.0
MISSES_JET = pytest.mark.xfail(
    strict=True, reason="M^-1 N by a plain solve loses digits with cond(M); "
    "the bounded system (the ROADMAP's graded frames) is built for cubic "
    "entries only")


@functools.lru_cache(maxsize=None)
def _setup(name):
    entry = catalog.get(name)
    field = dyn.canonical_field(entry.G, entry.decomp)
    u = np.random.default_rng(RAY_SEEDS[name]).standard_normal(
        field.base_dim)
    return entry, field, u / np.linalg.norm(u)


def _edge(field, u):
    """Where the ray leaves the domain (EDGE_CAP when it stays inside)."""
    inside, t = 0.0, 0.5
    while t <= EDGE_CAP and dyn.in_domain(t * u, field)["in_domain"]:
        inside, t = t, 1.25 * t
    if t > EDGE_CAP:
        return EDGE_CAP
    for _ in range(30):
        mid = 0.5 * (inside + t)
        if dyn.in_domain(mid * u, field)["in_domain"]:
            inside = mid
        else:
            t = mid
    return inside


@functools.lru_cache(maxsize=None)
def _compare(name, where):
    """Relative errors (value, jet) of the field at the point `where` (a
    norm, or "half-edge") on the entry's ray, against the oracle."""
    entry, field, u = _setup(name)
    r = 0.5 * _edge(field, u) if where == "half-edge" else where
    p = r * u
    assert dyn.in_domain(p, field)["in_domain"]
    ref = oracle.FieldOracle(entry.G, entry.decomp)
    value, jet = ref.value(p), ref.jet(p)
    got = field.value(p)
    got_jet = np.array([field.derivative(p, e)
                        for e in np.eye(field.base_dim)])
    return (np.max(np.abs(got - value)) / np.max(np.abs(value)),
            np.max(np.abs(got_jet - jet)) / np.max(np.abs(jet)))


CUBIC = [(name, r) for name in ("su2-lagrangian", "so3-identity")
         for r in (1.0, 30.0, 45.0)]
COMMUTING = [(name, where) for name in ("ev-sl3", "ev-sl2-gamma")
             for where in (1.0, "half-edge")]


@pytest.mark.parametrize("name,where", CUBIC + COMMUTING)
def test_value_matches_the_oracle(name, where):
    assert _compare(name, where)[0] <= VALUE_TOL


@pytest.mark.parametrize("name,where", CUBIC + [
    pytest.param(name, where, marks=MISSES_JET if where == "half-edge"
                 else ()) for name, where in COMMUTING])
def test_jet_matches_the_oracle(name, where):
    assert _compare(name, where)[1] <= JET_TOL


def test_cubic_entries_take_the_bounded_system_far_out():
    # the far points above are where cond(M) is large and cond(TM) is not
    for name in ("su2-lagrangian", "so3-identity"):
        _, field, u = _setup(name)
        assert field.route == "cubic"
        rep = dyn.in_domain(45.0 * u, field)
        assert rep["block_condition"] > 1e8
        assert rep["bounded_condition"] < 4.0


def test_oracle_double_matches_the_structure():
    # the oracle's own double and embedding against the package's at one
    # point: they share the structure tensors and nothing else
    entry, field, u = _setup("su2-lagrangian")
    ref = oracle.FieldOracle(entry.G, entry.decomp)
    p = 0.7 * u
    want = field._big_ad(p)
    err = np.max(np.abs(ref.big_ad(p) - want))
    assert err <= 1e-15 * np.max(np.abs(want))


def test_oracle_flow_matches_mpmath():
    # the fixed-point exponential and ratio against mpmath's at 60 digits,
    # at the farthest su2-lagrangian point above
    entry, field, u = _setup("su2-lagrangian")
    ref = oracle.FieldOracle(entry.G, entry.decomp)
    q = [oracle.fix(x) for x in 45.0 * u]
    a = oracle._ad(ref.big, ref.dim, {ref.n + s: x for s, x in zip(ref.sub, q)})
    got = oracle._expm(-a)
    n = ref.n
    ratio = oracle._solve(got[:n, :n], got[:n, n:])
    with mpmath.workdps(60):
        e = mpmath.expm(-mpmath.matrix([[mpmath.mpf(x) / oracle.ONE for x in row]
                                        for row in a]))
        want = mpmath.inverse(e[:n, :n]) * e[:n, n:]
        scale = mpmath.mnorm(e, 1)
        assert max(abs(mpmath.mpf(got[i, j]) / oracle.ONE - e[i, j])
                   for i in range(2 * n) for j in range(2 * n)) < 1e-50 * scale
        assert max(abs(mpmath.mpf(ratio[i, j]) / oracle.ONE - want[i, j])
                   for i in range(n) for j in range(n)) < 1e-40
