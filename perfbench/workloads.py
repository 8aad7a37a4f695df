"""Seeded inputs and certified operations for the three benchmark workloads.

Every workload is a list of cycles; a cycle is a fixed mix of operations,
so a run that stops at a cycle boundary always measures the same mix.
The inputs of every cycle are generated at set-up from the seed alone.

* sweep      - flow-equation certification point by point, all catalog
               entries, points stratified by norm out to each entry's
               domain edge.  No input repeats.
* trivialize - `TrivializationMap(...).check(samples=1)` on five entries,
               the same `ad(p)` re-evaluated many times inside each op.
* cli        - the command mix `verify` / `dual` / `lcan --check` /
               `catalog list` through `cli.main`, on emitted spec files.

An op returns a `Result` with its (name, residual, tolerance) pairs and the
program's own verdict.  It raises `Wrong` when the benchmark's check
contradicts what the program reported: an out-of-domain point that is not
rejected, a `passed` flag or exit code that disagrees with the residuals.
Any other exception is an op failure.
"""

import contextlib
import hashlib
import io
import json
import math
import os

import numpy as np

from dynlie import catalog, cli, duality, dynamics

# Tolerances the benchmark holds results to, pinned here so that a change
# to the package's own tables shows as a failure instead of moving the bar.
FLOW_TOLS = {
    "cyclic_residual": 1e-8,
    "vector_residual": 1e-8,
    "forms_agreement": 1e-8,
    "derivative_fd_residual": 1e-6,
    "skew_residual": 1e-10,
    "equivariance": 1e-8,
}
# the subset dynamics.cdybe_residual folds into its own `passed`
FLOW_GATED = ("cyclic_residual", "vector_residual", "skew_residual")
TRIV_TOLS = {
    "anchor_residual": 1e-10,
    "roundtrip_residual": 1e-10,
    "flatness_residual": 1e-9,
    "membership_residual": 1e-9,
    "bracket_residual": 1e-8,
    "psi_residual": 1e-9,
}

TRIV_ENTRIES = ("sl2-cartan", "symmetric-sl2", "ev-sl2-gamma",
                "su2-lagrangian", "ev-sl3")
STRATA = 4            # sweep norm strata per entry and cycle
NEAR_NORM = 0.01      # inner end of the sweep's norm range
EDGE_CAP = 64.0       # norm at which an unbounded domain is cut off
EDGE_OVERSHOOT = 1.05  # the far stratum runs this far past the edge
EDGE_DIRECTIONS = 3
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
LCAN_NORMS = (0.05, 1.0)
POOL_CYCLES = {"sweep": 256, "trivialize": 64, "cli": 256}
COLD_SPEC = "ev-sl3"


class Wrong(Exception):
    """The program's answer contradicts the benchmark's own check."""


class Result:
    def __init__(self, pairs, passed, rejected=False):
        self.pairs = pairs
        self.passed = passed
        self.rejected = rejected


class Op:
    def __init__(self, label, run):
        self.label = label
        self.run = run


class Plan:
    """Set-up product: the op cycles, their input digest, and extras."""

    def __init__(self, workload, seed, cycles, digest, info):
        self.workload = workload
        self.seed = seed
        self.cycles = cycles
        self.digest = digest
        self.info = info

    def cycle(self, c):
        return self.cycles[c % len(self.cycles)]


def _digest(items):
    h = hashlib.sha256()
    for item in items:
        if isinstance(item, np.ndarray):
            h.update(np.ascontiguousarray(item, dtype=float).tobytes())
        else:
            h.update(repr(item).encode())
    return h.hexdigest()[:16]


def _within(pairs):
    return all(r <= tol for _, r, tol in pairs)


# ---------------------------------------------------------------------------
# sweep


def domain_edge(field, rng):
    """Largest norm, over a few seeded rays, at which `in_domain` first
    turns false; EDGE_CAP when it stays true that far."""
    k = field.base_dim
    edge = 0.0
    for _ in range(EDGE_DIRECTIONS):
        u = rng.standard_normal(k)
        u /= np.linalg.norm(u)
        inside, t = 0.0, 0.5
        outside = None
        while t <= EDGE_CAP:
            if not dynamics.in_domain(t * u, field)["in_domain"]:
                outside = t
                break
            inside, t = t, 1.25 * t
        if outside is None:
            return EDGE_CAP
        for _ in range(12):
            mid = 0.5 * (inside + outside)
            if dynamics.in_domain(mid * u, field)["in_domain"]:
                inside = mid
            else:
                outside = mid
        edge = max(edge, inside)
    return edge


def sweep_op(field, p):
    k = field.base_dim

    def run():
        if not dynamics.in_domain(p, field)["in_domain"]:
            try:
                field.value(p)
            except dynamics.OutOfDomain:
                return Result([], True, rejected=True)
            raise Wrong("point outside the domain was evaluated")
        rep = dynamics.cdybe_residual(field, p)
        eq = max(dynamics.equivariance_residual(field, p, z)
                 for z in np.eye(k))
        pairs = [(name, float(rep[name]), FLOW_TOLS[name])
                 for name in FLOW_TOLS if name != "equivariance"]
        pairs.append(("equivariance", float(eq), FLOW_TOLS["equivariance"]))
        own = _within([x for x in pairs if x[0] in FLOW_GATED])
        if own != rep["passed"]:
            raise Wrong("cdybe_residual passed=%s, residuals say %s"
                        % (rep["passed"], own))
        return Result(pairs, rep["passed"])

    return run


def setup_sweep(seed, names=None, pool=POOL_CYCLES["sweep"]):
    names = list(names or catalog.names())
    rng = np.random.default_rng([seed, 1])
    fields, edges, norms, dirs = {}, {}, {}, {}
    for name in names:
        entry = catalog.get(name)
        field = dynamics.canonical_field(entry.G, entry.decomp)
        fields[name] = field
        edges[name] = domain_edge(field, rng)
        lo = math.log(NEAR_NORM)
        hi = math.log(EDGE_OVERSHOOT * edges[name])
        # Stratum s of cycle c sits at (s + x_c) / STRATA of the log-norm
        # range, x_c the golden-ratio sequence: any norm band receives a
        # share of points within one point of its width.  The ladder does
        # not depend on the seed (the directions do), because the cost
        # rises steeply in a narrow band just inside the series radius
        # (su2-lagrangian near norm 5.9 costs 40x a typical op), and the
        # tail latency would otherwise follow where a seed's few points in
        # that band happen to fall.
        x = (GOLDEN * np.arange(1, pool + 1)[:, None]) % 1.0
        norms[name] = np.exp(lo + (np.arange(STRATA) + x) / STRATA * (hi - lo))
        u = rng.standard_normal((pool, STRATA, field.base_dim))
        dirs[name] = u / np.linalg.norm(u, axis=2, keepdims=True)
    cycles = []
    for c in range(pool):
        ops = []
        for s in range(STRATA):
            for name in names:
                p = norms[name][c, s] * dirs[name][c, s]
                ops.append(Op("%s/s%d" % (name, s), sweep_op(fields[name], p)))
        cycles.append(ops)
    digest = _digest([seed] + [(n, edges[n]) for n in names]
                     + [norms[n] for n in names] + [dirs[n] for n in names])
    info = {"edges": {n: round(edges[n], 6) for n in names}}
    return Plan("sweep", seed, cycles, digest, info)


# ---------------------------------------------------------------------------
# trivialize


def triv_op(entry, check_seed):
    def run():
        rep = duality.TrivializationMap(entry.G, entry.decomp).check(
            samples=1, seed=check_seed)
        pairs = [(name, float(rep[name]), tol)
                 for name, tol in TRIV_TOLS.items()]
        if _within(pairs) != rep["passed"]:
            raise Wrong("trivialization passed=%s disagrees with residuals"
                        % rep["passed"])
        return Result(pairs, rep["passed"])

    return run


def setup_trivialize(seed, names=TRIV_ENTRIES, pool=POOL_CYCLES["trivialize"]):
    rng = np.random.default_rng([seed, 2])
    entries = {name: catalog.get(name) for name in names}
    seeds = rng.integers(0, 2 ** 31, size=(pool, len(names)))
    cycles = [[Op(name, triv_op(entries[name], int(seeds[c, i])))
               for i, name in enumerate(names)] for c in range(pool)]
    digest = _digest([seed, tuple(names), seeds])
    return Plan("trivialize", seed, cycles, digest, {})


# ---------------------------------------------------------------------------
# cli


def call_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors exit here
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


class CliExit(RuntimeError):
    """The CLI exited with a code other than the one the op expects."""


def _check_exit(rc, err, allowed):
    if rc not in allowed:
        raise CliExit("exit %s: %s" % (rc, err.strip()[-200:]))


def _report_result(rc, payload):
    pairs = [(r["name"], float(r["residual"]), float(r["tol"]))
             for r in payload["checks"]]
    if _within(pairs) != payload["passed"]:
        raise Wrong("report passed=%s disagrees with its rows"
                    % payload["passed"])
    if rc != (0 if payload["passed"] else 1):
        raise Wrong("exit code %d for a report with passed=%s"
                    % (rc, payload["passed"]))
    return Result(pairs, payload["passed"])


def verify_op(spec, run_seed):
    def run():
        rc, out, err = call_cli(["verify", spec, "--samples", "2",
                                 "--seed", str(run_seed), "--json"])
        _check_exit(rc, err, (0, 1))
        return _report_result(rc, json.loads(out))

    return run


def dual_op(spec, out_path, run_seed):
    def run():
        rc, out, err = call_cli(["dual", spec, out_path, "--samples", "2",
                                 "--seed", str(run_seed), "--json"])
        _check_exit(rc, err, (0, 1))
        body, _, last = out.rstrip("\n").rpartition("\n")
        if last != "wrote %s" % out_path or not os.path.isfile(out_path):
            raise Wrong("dual did not report writing %s" % out_path)
        return _report_result(rc, json.loads(body))

    return run


def lcan_op(spec, n, point):
    arg = ",".join(repr(float(x)) for x in point)

    def run():
        # "--" keeps a leading negative coordinate from reading as an option
        rc, out, err = call_cli(["lcan", spec, "--check", "--", arg])
        _check_exit(rc, err, (0,))
        lines = out.splitlines()
        rows = [ln for ln in lines if not ln.startswith("check ")]
        checks = dict((ln.split()[1], float(ln.split()[2]))
                      for ln in lines if ln.startswith("check "))
        mat = np.array([[float(x) for x in r.split()] for r in rows])
        if mat.shape != (n, n) or set(checks) != set(FLOW_TOLS) - {"equivariance"}:
            raise Wrong("lcan printed a %s matrix and checks %s"
                        % (mat.shape, sorted(checks)))
        pairs = [(name, checks[name], FLOW_TOLS[name]) for name in sorted(checks)]
        return Result(pairs, True)

    return run


def list_op(names):
    def run():
        rc, out, err = call_cli(["catalog", "list"])
        _check_exit(rc, err, (0,))
        listed = [ln.split()[0] for ln in out.splitlines()]
        if listed != names:
            raise Wrong("catalog list printed %s" % listed)
        return Result([], True)

    return run


def emit_spec(name, workdir):
    entry = catalog.get(name)
    path = os.path.join(workdir, "%s.spec" % name)
    cli.AlgebraSpecFile(entry.G, entry.decomp, field_kind="canonical",
                        name=entry.name).save(path)
    return path, entry


def setup_cli(seed, workdir, names=None, pool=POOL_CYCLES["cli"]):
    names = list(names or catalog.names())
    rng = np.random.default_rng([seed, 3])
    specs, dims = {}, {}
    for name in names:
        path, entry = emit_spec(name, workdir)
        specs[name] = path
        field = dynamics.canonical_field(entry.G, entry.decomp)
        dims[name] = (entry.G.dim, field.base_dim)
    run_seeds = rng.integers(0, 2 ** 31, size=(pool, len(names), 2))
    lo, hi = (math.log(x) for x in LCAN_NORMS)
    points = {}
    for name in names:
        k = dims[name][1]
        u = rng.standard_normal((pool, k))
        r = np.exp(lo + (hi - lo) * rng.random(pool))
        points[name] = u / np.linalg.norm(u, axis=1, keepdims=True) * r[:, None]
    cycles = []
    for c in range(pool):
        ops = []
        for i, name in enumerate(names):
            spec = specs[name]
            ops.append(Op("verify/" + name,
                          verify_op(spec, int(run_seeds[c, i, 0]))))
            ops.append(Op("dual/" + name, dual_op(
                spec, os.path.join(workdir, "%s.dual.spec" % name),
                int(run_seeds[c, i, 1]))))
            ops.append(Op("lcan/" + name,
                          lcan_op(spec, dims[name][0], points[name][c])))
        ops.append(Op("catalog-list", list_op(names)))
        cycles.append(ops)
    digest = _digest([seed, tuple(names), run_seeds]
                     + [points[n] for n in names])
    return Plan("cli", seed, cycles, digest, {})


def setup(workload, seed, workdir):
    if workload == "sweep":
        return setup_sweep(seed)
    if workload == "trivialize":
        return setup_trivialize(seed)
    if workload == "cli":
        return setup_cli(seed, workdir)
    raise ValueError("unknown workload %r" % workload)
