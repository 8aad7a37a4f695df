"""Command line front end: spec files, verification reports, evaluators.

The file format is line oriented.  Comments start with '#', blank lines
are skipped, and the first effective line must be the header
``dynlie-spec 1``.  Keys:

* ``name <label>``                optional display name
* ``dim <n>``                     required before any indexed entry
* ``basis <n names>``             optional basis labels
* ``c i j k v``                   bracket coefficients; the (j, i) mirror
                                  is filled with the opposite sign
* ``varpi i a b v``               cocycle coefficients, mirrored in (a, b)
* ``phi i j k v``                 associator coefficients on distinct
                                  indices; all signed permutations follow
* ``sub i ...`` / ``comp j ...``  a declared split (both or neither)
* ``twist i j v``                 optional twist matrix entries
* ``field <kind>``                zero, cocommutative, or canonical

Verification reports list one row per check with its residual, the
tolerance it was held to, and where the expected value comes from.  With
fixed inputs, seed, flags, and tool version the rendered report is byte
identical.

Exit codes: 0 all checks pass, 1 a residual fails, 2 parse or usage
error (a spec or output path that cannot be opened included), 3 domain
violation (spectral margin, block conditioning, or a precondition of the
dual construction).
"""

import argparse
import functools
import json
import re
import sys

import numpy as np

from . import __version__, catalog, duality, dynamics, lie, linalg, qbia, twist

SPEC_VERSION = 1
HEADER = "dynlie-spec"
FIELD_KINDS = ("canonical", "zero", "cocommutative")

# (report row, dynamics.FLOW_TOLS key) of each flow-equation check, in
# report order
FLOW_ROWS = (
    ("flow-skew", "skew_residual"),
    ("flow-cyclic", "cyclic_residual"),
    ("flow-vector", "vector_residual"),
    ("flow-forms-agreement", "forms_agreement"),
    ("flow-derivative-consistency", "derivative_fd_residual"),
    ("flow-equivariance", "equivariance"),
)

DEFAULT_TOLS = {
    "jacobi": 1e-10,
    "cocycle-identity": 1e-10,
    "mixed-obstruction": 1e-10,
    "associator-obstruction": 1e-10,
    "double-jacobi": 1e-10,
    "split-closure": 1e-10,
    "field-preconditions": 1e-10,
    "twist-antisymmetry": 1e-12,
    "twist-axioms": 1e-10,
    "twist-obstruction-invariance": 1e-8,
    **{name: dynamics.FLOW_TOLS[key] for name, key in FLOW_ROWS},
    "double-dual-roundtrip": 1e-10,
}


class SpecParseError(ValueError):
    """Malformed spec file; carries the offending line number."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)


def _parse_float(token, lineno, what):
    try:
        value = float(token)
    except ValueError:
        raise SpecParseError("%s: not a number %r" % (what, token), lineno)
    if not np.isfinite(value):
        raise SpecParseError("%s: not a finite number %r" % (what, token),
                             lineno)
    return value


def _parse_int(token, lineno, what, upper=None):
    try:
        value = int(token)
    except ValueError:
        raise SpecParseError("%s: not an integer %r" % (what, token), lineno)
    if value < 0 or (upper is not None and value >= upper):
        raise SpecParseError("%s: index %d out of range" % (what, value),
                             lineno)
    return value


class AlgebraSpecFile:
    """A structure, an optional split, twist, and field selection."""

    def __init__(self, G, decomp=None, twist_matrix=None, field_kind=None,
                 name=None):
        self.G = G
        self.decomp = decomp
        self.twist_matrix = twist_matrix
        self.field_kind = field_kind
        self.name = name

    @classmethod
    def parse(cls, text):
        n = None
        name = None
        basis = None
        field_kind = None
        sub = None
        comp = None
        tensors = {"c": {}, "varpi": {}, "phi": {}}
        twist_entries = {}
        saw_header = False

        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            tok = line.split()
            key = tok[0]
            if not saw_header:
                if key != HEADER:
                    raise SpecParseError(
                        "expected header '%s %d'" % (HEADER, SPEC_VERSION),
                        lineno)
                version = _parse_int(tok[1] if len(tok) > 1 else "",
                                     lineno, "version")
                if version != SPEC_VERSION:
                    raise SpecParseError(
                        "unsupported version %d (expected %d)"
                        % (version, SPEC_VERSION), lineno)
                saw_header = True
                continue
            if key == "name":
                if name is not None:
                    raise SpecParseError("duplicate name", lineno)
                name = " ".join(tok[1:]) or None
            elif key == "dim":
                if n is not None:
                    raise SpecParseError("duplicate dim", lineno)
                if len(tok) != 2:
                    raise SpecParseError("dim takes one integer", lineno)
                n = _parse_int(tok[1], lineno, "dim")
                if n == 0:
                    raise SpecParseError("dim must be positive", lineno)
            elif key == "basis":
                if n is None:
                    raise SpecParseError("dim must come before basis",
                                         lineno)
                if len(tok) != n + 1:
                    raise SpecParseError(
                        "basis needs %d names, got %d" % (n, len(tok) - 1),
                        lineno)
                basis = tok[1:]
            elif key in tensors:
                if n is None:
                    raise SpecParseError("dim must come before %s" % key,
                                         lineno)
                if len(tok) != 5:
                    raise SpecParseError(
                        "%s takes three indices and a value" % key, lineno)
                i, j, k = (_parse_int(t, lineno, key, upper=n)
                           for t in tok[1:4])
                v = _parse_float(tok[4], lineno, key)
                _record_entry(tensors[key], key, (i, j, k), v, lineno)
            elif key == "twist":
                if n is None:
                    raise SpecParseError("dim must come before twist",
                                         lineno)
                if len(tok) != 4:
                    raise SpecParseError(
                        "twist takes two indices and a value", lineno)
                i = _parse_int(tok[1], lineno, "twist", upper=n)
                j = _parse_int(tok[2], lineno, "twist", upper=n)
                v = _parse_float(tok[3], lineno, "twist")
                if (i, j) in twist_entries:
                    raise SpecParseError(
                        "duplicate twist entry (%d, %d)" % (i, j), lineno)
                twist_entries[(i, j)] = v
            elif key in ("sub", "comp"):
                if n is None:
                    raise SpecParseError("dim must come before %s" % key,
                                         lineno)
                idx = [_parse_int(t, lineno, key, upper=n) for t in tok[1:]]
                if key == "sub":
                    if sub is not None:
                        raise SpecParseError("duplicate sub", lineno)
                    sub = idx
                else:
                    if comp is not None:
                        raise SpecParseError("duplicate comp", lineno)
                    comp = idx
            elif key == "field":
                if field_kind is not None:
                    raise SpecParseError("duplicate field", lineno)
                if len(tok) != 2 or tok[1] not in FIELD_KINDS:
                    raise SpecParseError(
                        "field must be one of %s" % ", ".join(FIELD_KINDS),
                        lineno)
                field_kind = tok[1]
            else:
                raise SpecParseError("unknown key %r" % key, lineno)

        if not saw_header:
            raise SpecParseError("empty file: missing header", 1)
        if n is None:
            raise SpecParseError("missing dim", 1)
        if (sub is None) != (comp is None):
            raise SpecParseError("sub and comp must be given together", 1)
        if sub is not None:
            overlap = set(sub) & set(comp)
            if overlap:
                raise SpecParseError(
                    "sub and comp overlap at %s" % sorted(overlap), 1)
            if len(sub) + len(comp) != n or set(sub) | set(comp) != set(
                    range(n)):
                raise SpecParseError("sub and comp must partition 0..%d"
                                     % (n - 1), 1)

        c = _tensor_from(tensors["c"], n)
        varpi = _tensor_from(tensors["varpi"], n)
        phi = _tensor_from(tensors["phi"], n)
        g = lie.LieAlgebraData(c, basis, check=False)
        decomp = None
        if sub is not None:
            decomp = lie.ReductiveDecomposition(g, sub, comp, check=False)
        G = qbia.QuasiBialgebra(g, varpi, phi, decomp=decomp, check=False)
        tmat = None
        if twist_entries:
            tmat = np.zeros((n, n))
            for (i, j), v in twist_entries.items():
                tmat[i, j] = v
        return cls(G, decomp, tmat, field_kind, name)

    @classmethod
    def load(cls, path):
        with open(path, "r", encoding="utf-8") as fh:
            return cls.parse(fh.read())

    def to_text(self):
        G = self.G
        n = G.dim
        lines = ["%s %d" % (HEADER, SPEC_VERSION)]
        if self.name:
            lines.append("name %s" % self.name)
        lines.append("dim %d" % n)
        names = G.g.basis_names
        if names:
            lines.append("basis %s" % " ".join(str(nm) for nm in names))
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(n):
                    v = G.g.c[i, j, k]
                    if v != 0.0:
                        lines.append("c %d %d %d %.17g" % (i, j, k, v))
        for i in range(n):
            for a in range(n):
                for b in range(a + 1, n):
                    v = G.varpi[i, a, b]
                    if v != 0.0:
                        lines.append("varpi %d %d %d %.17g" % (i, a, b, v))
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    v = G.phi[i, j, k]
                    if v != 0.0:
                        lines.append("phi %d %d %d %.17g" % (i, j, k, v))
        if self.decomp is not None:
            lines.append("sub %s" % " ".join(str(i)
                                             for i in self.decomp.sub))
            lines.append("comp %s" % " ".join(str(i)
                                              for i in self.decomp.comp))
        if self.twist_matrix is not None:
            for i in range(n):
                for j in range(n):
                    v = self.twist_matrix[i, j]
                    if v != 0.0:
                        lines.append("twist %d %d %.17g" % (i, j, v))
        if self.field_kind:
            lines.append("field %s" % self.field_kind)
        return "\n".join(lines) + "\n"

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_text())


def _record_entry(store, key, idx, value, lineno):
    i, j, k = idx
    if key == "phi":
        if len({i, j, k}) != 3:
            raise SpecParseError(
                "phi needs three distinct indices", lineno)
        perms = (((i, j, k), 1.0), ((j, k, i), 1.0), ((k, i, j), 1.0),
                 ((j, i, k), -1.0), ((i, k, j), -1.0), ((k, j, i), -1.0))
    elif key == "c":
        if i == j:
            raise SpecParseError("c is antisymmetric: repeated index",
                                 lineno)
        perms = (((i, j, k), 1.0), ((j, i, k), -1.0))
    else:
        if j == k:
            raise SpecParseError("varpi is antisymmetric: repeated index",
                                 lineno)
        perms = (((i, j, k), 1.0), ((i, k, j), -1.0))
    for pidx, sign in perms:
        want = sign * value
        if pidx in store and store[pidx][0] != want:
            raise SpecParseError(
                "%s entry %s conflicts with line %d"
                % (key, pidx, store[pidx][1]), lineno)
        store[pidx] = (want, lineno)


def _tensor_from(store, n):
    t = np.zeros((n, n, n))
    for (i, j, k), (v, _) in store.items():
        t[i, j, k] = v
    return t


class VerificationReport:
    """Ordered check rows plus run metadata; rendered deterministically."""

    def __init__(self, spec_name, seed, samples):
        self.meta = {"tool": "dynlie %s" % __version__,
                     "spec": spec_name or "(unnamed)",
                     "seed": int(seed), "samples": int(samples)}
        self.rows = []

    def add(self, name, residual, tol, source):
        self.rows.append({"name": name, "residual": float(residual),
                          "tol": float(tol), "source": source,
                          "passed": bool(float(residual) <= float(tol))})

    @property
    def passed(self):
        return all(r["passed"] for r in self.rows)

    def to_text(self):
        lines = ["verification report (%s)" % self.meta["tool"],
                 "spec: %s  seed: %d  samples: %d"
                 % (self.meta["spec"], self.meta["seed"],
                    self.meta["samples"])]
        for r in self.rows:
            lines.append("%-30s %12.5e <= %9.3e %-4s [%s]" % (
                r["name"], r["residual"], r["tol"],
                "ok" if r["passed"] else "FAIL", r["source"]))
        lines.append("result: %s" % ("pass" if self.passed else "fail"))
        return "\n".join(lines) + "\n"

    def to_json(self):
        # JSON has no inf or nan: an overflowed residual is null, and its
        # row fails
        rows = [r if np.isfinite(r["residual"]) else dict(r, residual=None)
                for r in self.rows]
        return json.dumps({"meta": self.meta, "checks": rows,
                           "passed": self.passed},
                          indent=2, sort_keys=True) + "\n"


def _tol(overrides, name):
    return overrides.get(name, DEFAULT_TOLS[name])


def _make_field(spec):
    kind = spec.field_kind or "canonical"
    if kind == "zero":
        return dynamics.zero_field(spec.G, spec.decomp)
    if kind == "cocommutative":
        return dynamics.cocom_field(spec.G)
    return dynamics.canonical_field(spec.G, spec.decomp)


def build_report(spec, seed=0, samples=6, overrides=None):
    """Run every check a spec file gives rise to.

    Raises dynamics.OutOfDomain (exit code 3 at the command level) when
    no sample point of the selected field lies in its domain.
    """
    overrides = overrides or {}
    rep = VerificationReport(spec.name, seed, samples)
    G = spec.G
    axioms = qbia.check_quasi_bialgebra(G)
    rep.add("jacobi", axioms["jacobi_residual"],
            _tol(overrides, "jacobi"), "identity")
    rep.add("cocycle-identity", axioms["cocycle_residual"],
            _tol(overrides, "cocycle-identity"), "identity")
    rep.add("mixed-obstruction", axioms["first_equation_residual"],
            _tol(overrides, "mixed-obstruction"), "identity")
    rep.add("associator-obstruction", axioms["second_equation_residual"],
            _tol(overrides, "associator-obstruction"), "identity")
    rep.add("double-jacobi", G.double.d.jacobi_residual(),
            _tol(overrides, "double-jacobi"), "identity")

    if spec.decomp is not None:
        red = lie.check_reductive(G.g, spec.decomp.sub, spec.decomp.comp)
        rep.add("split-closure",
                max(red["closure_residual"], red["action_residual"]),
                _tol(overrides, "split-closure"), "identity")

    if spec.twist_matrix is not None:
        t = spec.twist_matrix
        rep.add("twist-antisymmetry", float(np.max(np.abs(t + t.T))),
                _tol(overrides, "twist-antisymmetry"), "identity")
        if rep.rows[-1]["passed"]:
            twisted = twist.apply_twist(G, t, check=False)
            trep = qbia.check_quasi_bialgebra(twisted)
            rep.add("twist-axioms",
                    max(v for v in trep.values() if isinstance(v, float)),
                    _tol(overrides, "twist-axioms"), "identity")
            rep.add("twist-obstruction-invariance",
                    twist.first_condition_invariance(G, t),
                    _tol(overrides, "twist-obstruction-invariance"),
                    "identity")

    kind = spec.field_kind or "canonical"
    if kind == "canonical":
        dec = spec.decomp
        if dec is None:
            dec = lie.ReductiveDecomposition(G.g, list(range(G.dim)), [],
                                             check=False)
        crep = qbia.check_compatibility(G, dec)
        precondition = max(v for v in crep.values()
                           if isinstance(v, float))
    elif kind == "cocommutative":
        precondition = float(np.max(np.abs(G.varpi)))
    else:
        precondition = 0.0
    rep.add("field-preconditions", precondition,
            _tol(overrides, "field-preconditions"), "identity")

    if axioms["passed"] and rep.rows[-1]["passed"]:
        field = _make_field(spec)
        points = dynamics.sample_domain_points(field, samples, seed=seed,
                                               scale=0.4)
        worst = dynamics.flow_sweep(field, points)
        for name, key in FLOW_ROWS:
            rep.add(name, worst[key], _tol(overrides, name),
                    "residual-sweep")
    return rep


def _parse_overrides(pairs):
    overrides = {}
    for pair in pairs or ():
        if "=" not in pair:
            raise SpecParseError("tol override must look like name=value: %r"
                                 % pair)
        key, _, val = pair.partition("=")
        if key not in DEFAULT_TOLS:
            raise SpecParseError(
                "unknown check %r (have: %s)"
                % (key, ", ".join(sorted(DEFAULT_TOLS))))
        try:
            overrides[key] = float(val)
        except ValueError:
            raise SpecParseError("bad tolerance %r for %s" % (val, key))
        # inf and nan would also reach verify --json as invalid JSON
        if not (np.isfinite(overrides[key]) and overrides[key] >= 0.0):
            raise SpecParseError("tolerance for %s must be a finite number "
                                 ">= 0, got %r" % (key, val))
    return overrides


def cmd_verify(args):
    spec = AlgebraSpecFile.load(args.spec)
    overrides = _parse_overrides(args.tol_override)
    rep = build_report(spec, seed=args.seed, samples=args.samples,
                       overrides=overrides)
    sys.stdout.write(rep.to_json() if args.json else rep.to_text())
    return 0 if rep.passed else 1


def cmd_lcan(args):
    spec = AlgebraSpecFile.load(args.spec)
    field = _make_field(spec)
    try:
        p = np.array([float(x) for x in args.point.replace(",", " ").split()])
    except ValueError:
        raise SpecParseError("point must be a comma separated float list")
    if not np.all(np.isfinite(p)):
        raise SpecParseError("point coordinates must be finite numbers")
    if p.shape != (field.base_dim,):
        raise SpecParseError("point has %d coordinates, field expects %d"
                             % (p.size, field.base_dim))
    domain = dynamics.in_domain(p, field)
    if not domain["in_domain"]:
        sys.stderr.write("point outside domain: %s (margin %.3e, "
                         "block condition %.3e)\n"
                         % (domain["failing"], domain["spectral_margin"],
                            domain["block_condition"]))
        return 3
    value = field.value(p)
    payload = {"point": p.tolist(), "matrix": value.tolist()}
    checks = {}
    if args.check:
        frep = dynamics.cdybe_residual(field, p)
        checks = {k: v for k, v in frep.items() if isinstance(v, float)}
        payload["checks"] = checks
    if args.json:
        sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True)
                         + "\n")
    else:
        for row in value:
            sys.stdout.write(" ".join("%.17g" % x for x in row) + "\n")
        for key in sorted(checks):
            sys.stdout.write("check %s %.17g\n" % (key, checks[key]))
    return 0


def cmd_dual(args):
    spec = AlgebraSpecFile.load(args.spec)
    if spec.decomp is None:
        raise SpecParseError("dual needs a declared sub/comp split")
    star = duality.dual_qbia(spec.G, spec.decomp)
    out = AlgebraSpecFile(star, star.decomp, field_kind="canonical",
                          name=(spec.name or "spec") + "-dual")
    out.save(args.out)
    rep = build_report(AlgebraSpecFile.load(args.out), seed=args.seed,
                       samples=args.samples)
    # the roundtrip from the dual built above: one more dual_qbia call
    roundtrip = duality._roundtrip_residual(spec.G, spec.decomp, star)
    rep.add("double-dual-roundtrip", roundtrip,
            DEFAULT_TOLS["double-dual-roundtrip"], "identity")
    sys.stdout.write(rep.to_json() if args.json else rep.to_text())
    sys.stdout.write("wrote %s\n" % args.out)
    return 0 if rep.passed else 1


def cmd_catalog(args):
    if args.action == "list":
        for name in catalog.names():
            entry = catalog.get(name)
            sys.stdout.write("%-16s dim=%d fixtures=%d compat=%s\n"
                             % (name, entry.G.dim, len(entry.fixtures),
                                entry.compatibility))
        return 0
    if args.name is None:
        sys.stderr.write("error: emit needs an entry name\n")
        return 2
    entry = catalog.get(args.name)
    out = args.out or ("%s.spec" % entry.name)
    spec = AlgebraSpecFile(entry.G, entry.decomp, field_kind="canonical",
                           name=entry.name)
    spec.save(out)
    sys.stdout.write("wrote %s\n" % out)
    return 0


@functools.cache
def _parser():
    """The argument parser, built on first use and kept for the process."""
    parser = argparse.ArgumentParser(
        prog="dynlie",
        description="verify, evaluate, and dualize quasi-bialgebra specs")
    parser.add_argument("--version", action="version",
                        version="dynlie %s" % __version__)
    subs = parser.add_subparsers(dest="command", required=True)

    pv = subs.add_parser("verify", help="run every check in a spec file")
    pv.add_argument("spec")
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--samples", type=int, default=6)
    pv.add_argument("--tol-override", action="append", metavar="NAME=VAL")
    pv.add_argument("--json", action="store_true")
    pv.set_defaults(func=cmd_verify)

    pl = subs.add_parser("lcan", help="evaluate the selected field")
    pl.add_argument("spec")
    pl.add_argument("point", help="comma separated base point coordinates")
    pl.add_argument("--check", action="store_true",
                    help="append flow equation residuals")
    pl.add_argument("--json", action="store_true")
    pl.set_defaults(func=cmd_lcan)

    pd = subs.add_parser("dual", help="write the dual structure spec")
    pd.add_argument("spec")
    pd.add_argument("out")
    pd.add_argument("--seed", type=int, default=0)
    pd.add_argument("--samples", type=int, default=6)
    pd.add_argument("--json", action="store_true")
    pd.set_defaults(func=cmd_dual)

    pc = subs.add_parser("catalog", help="list or emit library entries")
    pc.add_argument("action", choices=("list", "emit"))
    pc.add_argument("name", nargs="?")
    pc.add_argument("--out")
    pc.set_defaults(func=cmd_catalog)
    return parser


def main(argv=None):
    parser = _parser()
    # argparse reads a token with a leading "-" as an option unless it is a
    # plain number, so a point like "-0.3,0.2" would be rejected.  No option
    # starts with "-" and a digit, and a token that starts with a space is
    # always positional (the point and int parsers ignore the space).
    argv = sys.argv[1:] if argv is None else argv
    args = parser.parse_args([" " + a if re.match(r"-\.?\d", a) else a
                              for a in argv])
    if getattr(args, "samples", 1) < 1:
        parser.error("argument --samples: need at least one sample point")
    # argparse hands "lcan SPEC -- --" a point of [] (CPython 3.11)
    if not isinstance(getattr(args, "point", ""), str):
        parser.error("argument point: expected one point")
    try:
        return args.func(args)
    except SpecParseError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2
    except OSError as exc:
        # a spec or output path that is missing, a directory or unreadable
        sys.stderr.write("error: %s\n" % exc)
        return 2
    except catalog.UnknownEntry as exc:
        sys.stderr.write("error: %s\n" % exc.args[0])
        return 2
    except catalog.SingularMu as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 3
    except duality.PreconditionFailed as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 3
    except dynamics.NotCanonicalCompatible as exc:
        sys.stderr.write("error: field preconditions fail: %s\n" % exc)
        return 3
    except linalg.DomainViolation as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 3
    except ValueError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
