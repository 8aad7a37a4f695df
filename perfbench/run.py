"""dynlie benchmark: one seeded workload per process, one JSON result line.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 18 --trace 0

Run from the root of a dynlie checkout; the package is imported from its
`src/` directory.  `--trace 0` measures the end-to-end metrics with nothing
wrapped.  `--trace 1` replays a fixed number of cycles untraced, then the
same cycles with every layer wrapped (see spans.py), and reports the
per-layer metrics.  The last line of standard output is the result object;
the line before it records the machine, library versions, thread settings,
seed and input digest.  See README.md for the workloads and metrics.

Times are scaled to a fixed machine speed.  On a shared 2-vCPU VM the
same work drifts by up to 2x in speed within seconds.  So while ops
run, a timer interrupts them every PROBE_PERIOD seconds to time a short
fixed numpy + Python probe kernel.  Each op's time, with the probes taken
out, is multiplied by PROBE_REF_S over the mean probe time during the op
(widened to the nearest probe on each side).  Set-up and cold-start
processes each follow a fresh process that only imports numpy and
scipy.linalg, and are scaled by PROC_REF_S over that process's time.
Raw times are recorded in the detail line.
"""

import os

# Pin BLAS / OpenMP pools before numpy loads; child processes inherit this.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import bisect  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

# Whole cycles a run measures at least.  headroom_dec is the 10th
# percentile of the per-op headroom over exactly these first cycles, so the
# same seed always gives the same value.
MIN_CYCLES = {"sweep": 32, "trivialize": 3, "cli": 8}
# Cycles replayed by a traced run (untraced, then traced): fixed, so the
# per-layer counts repeat exactly for a seed.
TRACE_CYCLES = {"sweep": 4, "trivialize": 1, "cli": 3}
SETUP_REPEATS = 2     # fresh set-up processes besides the run's own
COLD_REPEATS = 7
IMPORT_REPEATS = 3
TAIL_BEYOND = 10      # samples the tail percentile must have beyond it
RESIDUAL_FLOOR = 1e-16  # residuals below floor * tol count as the floor
PROBE_PERIOD = 0.1    # seconds between two speed probes during ops
PROBE_REF_S = 0.006   # probe time that defines the reported speed
# Fresh processes importing numpy and scipy.linalg, run between the timed
# child processes, play the probe's part for set-up and cold start.
PROC_PROBE = [sys.executable, "-c", "import numpy, scipy.linalg"]
PROC_REF_S = 0.55     # process probe time that defines the reported speed
CHILD_TIMEOUT_S = 120
RAW_CAP = 1.5         # a run also stops after RAW_CAP * --seconds raw op time


def current_cpu():
    """The CPU this process is running on (field 39 of /proc/self/stat)."""
    with open("/proc/self/stat") as fh:
        return int(fh.read().rpartition(")")[2].split()[36])


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


def import_package():
    """Import dynlie from this checkout's src/, or exit with code 2."""
    if not os.path.isfile(os.path.join(SRC, "dynlie", "__init__.py")):
        sys.stderr.write("error: no dynlie package under %s\n" % SRC)
        sys.exit(2)
    sys.path.insert(0, SRC)
    sys.path.insert(0, BENCH_DIR)
    import dynlie
    if os.path.dirname(os.path.dirname(os.path.abspath(dynlie.__file__))) != SRC:
        sys.stderr.write("error: dynlie imported from %s, not %s\n"
                         % (dynlie.__file__, SRC))
        sys.exit(2)


# ---------------------------------------------------------------------------
# running ops


def probe_kernel():
    """Fixed work shaped like dynlie's: small LAPACK calls and dict loops.
    Uses numpy only, which the traced run does not wrap."""
    import numpy as np
    rng = np.random.default_rng(0)
    a = 0.3 * rng.standard_normal((8, 8))
    b = 0.3 * rng.standard_normal((16, 16)) + 4.0 * np.eye(16)
    acc = 0.0
    for _ in range(30):
        w, v = np.linalg.eig(a)
        acc += float(np.abs(((v * w) @ np.linalg.inv(v)).real).sum())
        acc += float(np.linalg.solve(b, b[0]).sum())
        acc += float(np.einsum("ij,jk->ik", b, b).trace())
        d = {}
        for j in range(300):
            d[j % 13] = d.get(j % 13, 0.0) + 0.5 * j
        acc += d[3]
    return acc


class Probe:
    """Machine-speed probe.

    `sample()` times probe_kernel once.  Inside `with probe:` a timer also
    samples every PROBE_PERIOD seconds.  `clock()` is wall time with all
    probe time taken out; ops and spans are timed with it.
    """

    def __init__(self):
        probe_kernel()  # first call pays one-off numpy set-up
        self.at = []     # clock() at each sample
        self.took = []   # seconds each sample took
        self.stolen = 0.0

    def clock(self):
        return time.perf_counter() - self.stolen

    def sample(self, *_):
        t0 = time.perf_counter()
        probe_kernel()
        took = time.perf_counter() - t0
        self.at.append(t0 - self.stolen)
        self.took.append(took)
        self.stolen += took
        return took

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD, PROBE_PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old)

    def factor(self, t0, t1):
        """PROBE_REF_S over the mean probe time in [t0, t1] of clock(),
        widened by the nearest sample on each side."""
        lo = max(bisect.bisect_left(self.at, t0) - 1, 0)
        hi = bisect.bisect_right(self.at, t1) + 1
        took = self.took[lo:hi]
        return PROBE_REF_S * len(took) / sum(took)


def execute(op):
    """Run one op; returns (status, pairs).  status is ok, rejected (a
    correct out-of-domain rejection), failed:<cause>, or wrong:<what the
    check contradicted>."""
    import workloads
    try:
        res = op.run()
    except workloads.Wrong as exc:
        return "wrong:%s" % exc, []
    except Exception as exc:  # an op that raises is counted, not fatal
        return "failed:%s: %s" % (type(exc).__name__, str(exc)[:200]), []
    if res.rejected:
        return "rejected", res.pairs
    ok = res.passed and all(r <= tol for _, r, tol in res.pairs)
    return ("ok" if ok else "failed:residual"), res.pairs


class Record:
    def __init__(self, status, pairs, cycle, label, t0, t1):
        self.status = status
        self.pairs = pairs
        self.cycle = cycle
        self.label = label
        self.t0, self.t1 = t0, t1  # Probe.clock() at start and end
        self.raw_s = t1 - t0
        self.seconds = None  # raw_s at the reference speed


def run_cycles(plan, probe, count=None, seconds=None, tracer=None):
    """Run whole cycles from the first on, either `count` of them or until
    `seconds` of op time at the reference speed have passed (and at least
    MIN_CYCLES).  Stopping on scaled time keeps the op count, and with it
    the tail percentile, independent of how loaded the machine is; the raw
    cap bounds the run's length on a very slow machine."""
    records = []
    raw = 0.0
    c = 0
    probe.sample()
    with probe:
        while True:
            for op in plan.cycle(c):
                if tracer is not None:
                    tracer.op_id = len(records)
                t0 = probe.clock()
                status, pairs = execute(op)
                records.append(Record(status, pairs, c, op.label, t0,
                                      probe.clock()))
                raw += records[-1].raw_s
            c += 1
            if count is not None and c >= count:
                break
            if (seconds is not None and c >= MIN_CYCLES[plan.workload]
                    and (raw * PROBE_REF_S * len(probe.took)
                         >= seconds * sum(probe.took)
                         or raw >= RAW_CAP * seconds)):
                break
    probe.sample()
    for r in records:
        r.seconds = r.raw_s * probe.factor(r.t0, r.t1)
    return records


def headroom(pairs):
    return min(math.log10(tol / max(r, RESIDUAL_FLOOR * tol))
               for _, r, tol in pairs)


def tail(values):
    """Highest percentile with at least TAIL_BEYOND samples above it:
    (value, percentile, samples)."""
    xs = sorted(values)
    n = len(xs)
    i = max(n - 1 - TAIL_BEYOND, 0)
    return xs[i], 100.0 * (i + 1) / n, n


def summarize(records, workload):
    statuses = [r.status for r in records]
    failed = sum(1 for st in statuses if not st.startswith(("ok", "rejected")))
    attempted = len(records)
    op_s = sum(r.seconds for r in records)
    raw_op_s = sum(r.raw_s for r in records)
    lat = [r.seconds * 1e3 for r in records]
    heads = [headroom(r.pairs) for r in records
             if r.cycle < MIN_CYCLES[workload] and r.pairs]
    tail_ms, tail_pct, n = tail(lat)
    causes = {}
    for r in records:
        if r.status != "ok":
            key = "%s @ %s" % (r.status, r.label)
            causes[key] = causes.get(key, 0) + 1
    return {
        "attempted": attempted,
        "failed": failed,
        "wrong": sum(1 for st in statuses if st.startswith("wrong")),
        "causes": causes,
        "ops_per_s": (attempted - failed) / op_s,
        "op_p50_ms": statistics.median(lat),
        "op_tail_ms": tail_ms,
        "op_tail_pct": tail_pct,
        "op_samples": n,
        "ok_frac": (attempted - failed) / attempted,
        "failed_frac": failed / attempted,
        "headroom_dec": (statistics.quantiles(heads, n=10,
                                              method="inclusive")[0]
                         if len(heads) > 1 else float("nan")),
        "headroom_min_dec": min(heads) if heads else float("nan"),
        "headroom_ops": len(heads),
        "op_s": op_s,
        "raw_op_s": raw_op_s,
    }


# ---------------------------------------------------------------------------
# fresh-process measurements


def _last_json(text):
    return json.loads(text.strip().splitlines()[-1])


def _timed(cmd):
    """Run one fresh process to completion: (wall seconds, return code,
    stdout).  No timeout is passed to subprocess, whose waits with a
    timeout poll in steps of up to 50 ms; a watchdog kills a hung child."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        out, _ = proc.communicate()
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        watchdog.cancel()
    return time.perf_counter() - t0, proc.returncode, out


def timed_child(cmd, proc_probes):
    """(scaled wall seconds, return code, stdout) of one fresh process.  A
    process probe runs just before it; the child's time is multiplied by
    PROC_REF_S over the probe's, and the probe's time appended to
    proc_probes."""
    probe_s, rc, _ = _timed(PROC_PROBE)
    if rc != 0:
        raise RuntimeError("process probe exited with %d" % rc)
    proc_probes.append(probe_s)
    dt, rc, out = _timed(cmd)
    return dt * PROC_REF_S / probe_s, rc, out


def setup_in_children(workload, seed, proc_probes):
    """Set-up seconds as each fresh process reports them, scaled like its
    wall time, and its input digest: SETUP_REPEATS processes, one at a
    time."""
    out = []
    for _ in range(SETUP_REPEATS):
        _, rc, stdout = timed_child(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(seed), "--setup-only"], proc_probes)
        if rc != 0:
            raise RuntimeError("set-up process exited with %d" % rc)
        row = _last_json(stdout)
        row["scaled_s"] = row["setup_s"] * PROC_REF_S / proc_probes[-1]
        out.append(row)
    return out


def cold_start(workdir, seed, proc_probes):
    """Scaled wall seconds of COLD_REPEATS fresh `python -m dynlie.cli
    verify` processes, one at a time; None if one exits non-zero."""
    import workloads
    spec, _ = workloads.emit_spec(workloads.COLD_SPEC, workdir)
    times = []
    for i in range(COLD_REPEATS):
        dt, rc, _ = timed_child(
            [sys.executable, "-m", "dynlie.cli", "verify", spec,
             "--samples", "2", "--seed", str(seed + i)], proc_probes)
        if rc != 0:
            return None
        times.append(dt)
    return times


def import_times():
    """Cumulative import seconds of dynlie.cli and scipy.linalg, from
    `-X importtime`, median over IMPORT_REPEATS fresh processes."""
    cli_s, scipy_s = [], []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import dynlie.cli"],
            cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S, check=True)
        cum = {}
        for line in proc.stderr.splitlines():
            if line.startswith("import time:") and "|" in line:
                parts = line[len("import time:"):].split("|")
                try:
                    cum[parts[2].strip()] = int(parts[1]) * 1e-6
                except ValueError:
                    continue  # the header line
        cli_s.append(cum["dynlie.cli"])
        scipy_s.append(cum["scipy.linalg"])
    return statistics.median(cli_s), statistics.median(scipy_s)


# ---------------------------------------------------------------------------
# environment record


def blas_threads():
    """Thread count reported by numpy's bundled OpenBLAS, if it exposes one."""
    import ctypes
    import glob

    import numpy
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "libscipy_openblas*"))
    for path in libs:
        try:
            fn = ctypes.CDLL(path).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        fn.restype = ctypes.c_int
        return fn()
    return None


def environment(workload, seed, digest):
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "seed": seed,
        "input_digest": digest,
        "nproc": os.cpu_count(),
        "pinned_cpu": sorted(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "blas_threads": blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


# ---------------------------------------------------------------------------
# modes


def run_untraced(plan, seconds, setup_s, workdir):
    import spans
    snap = spans.snapshot()
    probe = Probe()
    records = run_cycles(plan, probe, seconds=seconds)
    s = summarize(records, plan.workload)
    intact = spans.originals_intact(snap)
    proc_probes = []
    children = setup_in_children(plan.workload, plan.seed, proc_probes)
    same_inputs = all(c["digest"] == plan.digest for c in children)
    cold = cold_start(workdir, plan.seed, proc_probes)
    # the run's own set-up had no probe of its own: take the median one
    setups = ([setup_s * PROC_REF_S / statistics.median(proc_probes)]
              + [c["scaled_s"] for c in children])
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    correct = (s["wrong"] == 0 and intact and same_inputs
               and cold is not None and not math.isnan(s["headroom_dec"]))
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "ops_per_s": metric(s["ops_per_s"], "1/s"),
        "op_p50_ms": metric(s["op_p50_ms"], "ms"),
        "op_tail_ms": metric(s["op_tail_ms"], "ms"),
        "ok_frac": metric(s["ok_frac"], "ratio"),
        "headroom_dec": metric(s["headroom_dec"], "decades"),
        "peak_rss_mb": metric(rss_mb, "MB"),
        "cold_start_s": metric(statistics.median(cold) if cold
                               else float("nan"), "s"),
    }
    detail = {k: s[k] for k in ("attempted", "failed", "wrong", "causes",
                                "failed_frac", "op_tail_pct", "op_samples",
                                "headroom_min_dec", "headroom_ops", "op_s",
                                "raw_op_s")}
    detail.update(
        setup_raw_s=[setup_s] + [c["setup_s"] for c in children],
        setup_scaled_s=setups, cold_start_scaled_s=cold,
        proc_probe_s=proc_probes, probe_s=statistics.median(probe.took),
        probes=len(probe.took), op_speed_factor=s["op_s"] / s["raw_op_s"],
        wrappers_untouched=intact, same_inputs=same_inputs)
    return correct, s["attempted"], s["failed"], metrics, detail


def run_traced(plan):
    import spans
    snap = spans.snapshot()
    probe = Probe()
    count = TRACE_CYCLES[plan.workload]
    base = summarize(run_cycles(plan, probe, count=count), plan.workload)
    tracer = spans.Tracer(clock=probe.clock)
    tracer.install()
    try:
        records = run_cycles(plan, probe, count=count, tracer=tracer)
    finally:
        tracer.remove()
    intact = spans.originals_intact(snap)
    s = summarize(records, plan.workload)
    layers = tracer.summary()
    metrics = {}
    for name in spans.layer_names():
        row = layers[name]
        if name != "cli.render":
            metrics[name + ".calls"] = metric(row["calls"], "count")
        metrics[name + ".self_s"] = metric(row["self_s"], "s")
        if name in spans.KEYED:
            metrics[name + ".unique_frac"] = metric(
                row["unique"] / row["calls"] if row["calls"] else 0.0, "ratio")
    metrics["linalg.series.abandoned"] = metric(
        layers["linalg.series"]["raised"], "count")
    dom = layers["dynamics.in_domain"]
    metrics["dynamics.in_domain.reject_frac"] = metric(
        dom["rejected"] / dom["calls"] if dom["calls"] else 0.0, "ratio")
    import_s, import_scipy_s = import_times()
    metrics["cli.import_s"] = metric(import_s, "s")
    metrics["cli.import_scipy_s"] = metric(import_scipy_s, "s")
    metrics["trace.coverage_frac"] = metric(
        tracer.top_level_time(range(len(records))) / s["raw_op_s"], "ratio")
    metrics["trace.overhead_frac"] = metric(s["op_s"] / base["op_s"] - 1.0,
                                            "ratio")
    same = base["causes"] == s["causes"]
    correct = s["wrong"] == 0 and intact and same
    detail = {"cycles": count, "ops": len(records),
              "untraced_op_s": base["op_s"], "traced_op_s": s["op_s"],
              "spans": len(tracer.start), "wrappers_removed": intact,
              "same_outcomes": same, "causes": s["causes"]}
    return correct, s["attempted"], s["failed"], metrics, detail


class Terminated(BaseException):
    """Raised on SIGTERM.  It unwinds through every `finally`, so the work
    directory is removed and a running child is killed and reaped; it is
    not an Exception, so no op can count it as a failure, and not a
    SystemExit, which the cli workload catches from argparse."""


def _terminate(*_):
    raise Terminated()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep", "trivialize", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time set-up in this fresh process and exit")
    args = parser.parse_args(argv)

    signal.signal(signal.SIGTERM, _terminate)
    # One core for this process and every child, so the speed probes run
    # where the measured work runs: the core the scheduler started us on.
    os.sched_setaffinity(0, {current_cpu()})
    t0 = time.perf_counter()
    import_package()
    import workloads
    workdir = tempfile.mkdtemp(prefix=".work-", dir=BENCH_DIR)
    try:
        plan = workloads.setup(args.workload, args.seed, workdir)
        setup_s = time.perf_counter() - t0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "digest": plan.digest}))
            return 0
        if args.trace:
            correct, attempted, failed, metrics, detail = run_traced(plan)
        else:
            correct, attempted, failed, metrics, detail = run_untraced(
                plan, args.seconds, setup_s, workdir)
    except Terminated:
        return 143
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env = environment(args.workload, args.seed, plan.digest)
    env.update(plan.info)
    env["detail"] = detail
    print(json.dumps(env, sort_keys=True))
    print(json.dumps({"correct": bool(correct), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
