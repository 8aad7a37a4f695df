"""Outcome census of the benchmark's workloads, and a diff of two censuses.

    python3 tools/census.py --workload sweep --seeds 1-3 --cycles 256 > A.jsonl
    python3 tools/census.py --root OTHER_CHECKOUT --workload sweep ... > B.jsonl
    python3 tools/census.py --diff A.jsonl B.jsonl
    python3 tools/census.py --summary A.jsonl

A census runs the first `--cycles` cycles of a workload's plan in process
and untimed, and writes one JSON line per op: workload, seed, cycle, op
index and label, a digest of the op's base point (sweep), its status as
the benchmark classifies it (ok, rejected, failed:<cause>, wrong:<what>),
its (name, residual, tolerance) pairs as exact floats, and (sweep) the
field's domain report at the point.  The plans are the benchmark's own:
perfbench/workloads.py and perfbench/run.py of the checkout given by
`--root` (default: the checkout holding this file) are imported and read,
never changed, so the inputs are those of a benchmark run with the same
seed.

`--diff A B` prints every op whose status or pairs moved, with counts by
entry and stratum and the largest relative move, and exits 1 when any op
moved.  `--summary A` counts the failing ops by seed and label.
"""

import argparse
import collections
import contextlib
import hashlib
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_ROOT = os.path.dirname(HERE)


def load_bench(root=DEFAULT_ROOT):
    """The (run, workloads) modules of the benchmark in the checkout root,
    with its dynlie package on the import path."""
    bench = os.path.join(os.path.abspath(root), "perfbench")
    if bench not in sys.path:
        sys.path.insert(0, bench)
    import run
    run.import_package()
    import workloads
    return run, workloads


def _closure(fn):
    """The free variables of an op's run function, by name."""
    cells = fn.__closure__ or ()
    return {name: cell.cell_contents
            for name, cell in zip(fn.__code__.co_freevars, cells)}


def _domain(point, field):
    """The field's domain report at the point, JSON-ready."""
    from dynlie import dynamics
    rep = dynamics.in_domain(point, field)
    return {key: (value if isinstance(value, (bool, str, type(None)))
                  else float(value)) for key, value in rep.items()}


def census_plan(plan, cycles, execute):
    """One census line per op of the plan's first `cycles` cycles; execute
    is the benchmark's classifier (run.execute)."""
    lines = []
    for c in range(cycles):
        for i, op in enumerate(plan.cycle(c)):
            status, pairs = execute(op)
            free = _closure(op.run)
            line = {"workload": plan.workload, "seed": plan.seed, "cycle": c,
                    "op": i, "label": op.label, "input": None,
                    "status": status,
                    "pairs": [[name, float(r), float(tol)]
                              for name, r, tol in pairs],
                    "domain": None}
            if "p" in free and "field" in free:
                point = free["p"]
                line["input"] = hashlib.sha256(
                    point.tobytes()).hexdigest()[:16]
                line["domain"] = _domain(point, free["field"])
            lines.append(line)
    return lines


def census(workload, seeds, cycles, root=DEFAULT_ROOT):
    run, workloads = load_bench(root)
    lines = []
    with tempfile.TemporaryDirectory() as workdir:
        for seed in seeds:
            # set-up and ops print nothing the census needs
            with contextlib.redirect_stdout(sys.stderr):
                plan = workloads.setup(workload, seed, workdir)
                lines += census_plan(plan, cycles, run.execute)
    return lines


def _key(line):
    return (line["workload"], line["seed"], line["cycle"], line["op"])


def _rel(a, b):
    if a == b:
        return 0.0
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale else 0.0


def diff(a_lines, b_lines):
    """The moved ops of census b against census a: a list of (key, a line
    or None, b line or None, largest relative move of a pair)."""
    a = {_key(x): x for x in a_lines}
    b = {_key(x): x for x in b_lines}
    moved = []
    for key in sorted(set(a) | set(b)):
        x, y = a.get(key), b.get(key)
        if x is None or y is None:
            moved.append((key, x, y, float("nan")))
            continue
        if x["status"] == y["status"] and x["pairs"] == y["pairs"]:
            continue
        rel = max((_rel(p[1], q[1]) for p, q in zip(x["pairs"], y["pairs"])),
                  default=float("nan"))
        moved.append((key, x, y, rel))
    return moved


def _group(label):
    entry, _, stratum = label.partition("/")
    return entry, stratum or "-"


def _state(status):
    return status.split(":")[0]


def print_diff(moved, out=None):
    out = sys.stdout if out is None else out
    by_group = collections.Counter()
    turns = collections.Counter()
    worst = 0.0
    for key, x, y, rel in moved:
        line = x or y
        by_group[_group(line["label"])] += 1
        sa = x["status"] if x else "absent"
        sb = y["status"] if y else "absent"
        turns[(_state(sa), _state(sb))] += 1
        if rel == rel:
            worst = max(worst, rel)
        out.write("%s seed %d cycle %d op %d %s: %s -> %s\n"
                  % (key[0], key[1], key[2], key[3], line["label"], sa, sb))
        if x and y:
            for p, q in zip(x["pairs"], y["pairs"]):
                if p != q:
                    out.write("    %s: %r -> %r (tol %r)\n"
                              % (p[0], p[1], q[1], q[2]))
    out.write("moved ops: %d\n" % len(moved))
    for (entry, stratum), count in sorted(by_group.items()):
        out.write("  %s / %s: %d\n" % (entry, stratum, count))
    for (sa, sb), count in sorted(turns.items()):
        out.write("  %s -> %s: %d\n" % (sa, sb, count))
    out.write("largest relative move of a pair: %.3g\n" % worst)


def summary(lines):
    """Counts of failing ops by (seed, label), and ops per seed."""
    failing = collections.Counter()
    total = collections.Counter()
    for line in lines:
        total[line["seed"]] += 1
        if not line["status"].startswith(("ok", "rejected")):
            failing[(line["seed"], line["label"])] += 1
    return failing, total


def _read(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _seeds(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=("sweep", "trivialize", "cli"))
    parser.add_argument("--seeds", default="1",
                        help="seeds, as a list of ranges: 1-3,7")
    parser.add_argument("--cycles", type=int, default=1)
    parser.add_argument("--root", default=DEFAULT_ROOT,
                        help="checkout whose benchmark and package to run")
    parser.add_argument("--diff", nargs=2, metavar=("A", "B"))
    parser.add_argument("--summary", metavar="A")
    args = parser.parse_args(argv)
    if args.diff:
        moved = diff(_read(args.diff[0]), _read(args.diff[1]))
        print_diff(moved)
        return 1 if moved else 0
    if args.summary:
        failing, total = summary(_read(args.summary))
        for seed in sorted(total):
            print("seed %d: %d ops, %d failing" % (
                seed, total[seed],
                sum(v for (s, _), v in failing.items() if s == seed)))
        for (seed, label), count in sorted(failing.items()):
            print("  seed %d %s: %d" % (seed, label, count))
        return 0
    if not args.workload:
        parser.error("--workload is required for a census run")
    for line in census(args.workload, _seeds(args.seeds), args.cycles,
                       args.root):
        print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
