"""Tests of the benchmark itself, at a tiny size.

    python3 -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run

run.import_package()

import spans  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
    BENCHMARK = json.load(fh)


def tiny_sweep(seed=3):
    return workloads.setup_sweep(seed, names=["sl2-cartan", "ev-sl2"], pool=2)


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(run, "MIN_CYCLES", {"sweep": 1, "cli": 1})
    monkeypatch.setattr(run, "TRACE_CYCLES", {"sweep": 1})
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "COLD_REPEATS", 1)
    monkeypatch.setattr(run, "IMPORT_REPEATS", 1)


def units(rows):
    return {row["name"]: row["unit"] for row in rows}


def test_every_named_metric_appears_with_its_unit(tiny, tmp_path):
    # the full set-up, so the fresh set-up processes reproduce its digest
    plan = workloads.setup("sweep", 3, str(tmp_path))
    correct, attempted, _, metrics, detail = run.run_untraced(
        plan, 0.0, 0.5, str(tmp_path))
    assert correct and detail["same_inputs"] and attempted == 36
    assert {k: v["unit"] for k, v in metrics.items()} == units(
        BENCHMARK["end_to_end"])
    assert all(v["value"] > 0 for v in metrics.values())

    correct, _, _, metrics, detail = run.run_traced(tiny_sweep())
    assert correct and detail["wrappers_removed"]
    assert {k: v["unit"] for k, v in metrics.items()} == units(
        BENCHMARK["per_layer"])
    assert metrics["dynamics.cdybe_residual.calls"]["value"] == 8


def test_injected_failing_op_raises_failed_frac():
    def ok():
        return workloads.Result([("r", 1e-12, 1e-8)], True)

    def raises():
        raise RuntimeError("injected")

    def over_tol():
        return workloads.Result([("r", 1e-6, 1e-8)], True)

    def rejected():
        return workloads.Result([], True, rejected=True)

    def contradicts():
        raise workloads.Wrong("injected")

    def plan_of(*fns):
        ops = [workloads.Op(fn.__name__, fn) for fn in fns]
        return workloads.Plan("sweep", 0, [ops], "digest", {})

    probe = run.Probe()
    base = run.summarize(run.run_cycles(plan_of(ok, ok, ok, rejected),
                                        probe, count=1), "sweep")
    assert base["failed_frac"] == 0.0 and base["ok_frac"] == 1.0
    for bad in (raises, over_tol, contradicts):
        s = run.summarize(run.run_cycles(plan_of(ok, ok, bad, rejected),
                                         probe, count=1), "sweep")
        assert s["failed"] == 1 and s["failed_frac"] == 0.25
        assert s["ok_frac"] == 0.75
        assert s["wrong"] == (1 if bad is contradicts else 0)


def test_self_time_on_synthetic_nested_spans():
    ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 9.0, 10.0, 20.0, 21.5])
    tr = spans.Tracer(clock=lambda: next(ticks))
    tr.op_id = 0
    a = tr.begin("cli.build_report")            # [0, 10]
    b = tr.begin("dynamics.cdybe_residual")     # [1, 4]
    c = tr.begin("linalg.apply")                # [2, 3]
    tr.finish(c)
    tr.finish(b)
    d = tr.begin("lie.bracket")                 # [5, 9]
    tr.finish(d)
    tr.finish(a)
    tr.op_id = 1
    e = tr.begin("lie.bracket")                 # [20, 21.5]
    tr.finish(e, raised=True)
    dur, self_t = tr.self_times()
    assert dur == [10.0, 3.0, 1.0, 4.0, 1.5]
    assert self_t == [3.0, 2.0, 1.0, 4.0, 1.5]
    summary = tr.summary()
    assert summary["lie.bracket"]["calls"] == 2
    assert summary["lie.bracket"]["self_s"] == 5.5
    assert summary["lie.bracket"]["raised"] == 1
    assert summary["cli.build_report"]["self_s"] == 3.0
    assert tr.top_level_time([0]) == 10.0
    assert tr.top_level_time([0, 1]) == 11.5


def test_same_seed_same_digest_and_headroom(monkeypatch):
    monkeypatch.setattr(run, "MIN_CYCLES", {"sweep": 2})
    first, second = tiny_sweep(5), tiny_sweep(5)
    assert first.digest == second.digest
    assert tiny_sweep(6).digest != first.digest
    probe = run.Probe()
    heads = [run.summarize(run.run_cycles(p, probe, count=2), "sweep")
             ["headroom_dec"] for p in (first, second)]
    assert heads[0] == heads[1] and heads[0] > 0


def test_tracing_is_installed_only_on_request():
    snap = spans.snapshot()
    assert spans.originals_intact(snap)
    plan = tiny_sweep()
    tr = spans.Tracer()
    tr.install()
    try:
        assert not spans.originals_intact(snap)
        for op in plan.cycle(0):
            op.run()
    finally:
        tr.remove()
    assert spans.originals_intact(snap)
    calls = tr.summary()
    assert calls["dynamics.cdybe_residual"]["calls"] == 8
    assert calls["dynamics.in_domain"]["calls"] > 8


def test_tail_has_ten_samples_beyond_it():
    value, pct, n = run.tail(list(range(100)))
    assert (value, n) == (89, 100) and pct == 90.0
    assert run.tail([5.0, 1.0])[0] == 1.0


def test_exits_nonzero_without_the_package(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in ("run.py", "workloads.py", "spans.py"):
        shutil.copy(os.path.join(run.BENCH_DIR, name), bench / name)
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0 and proc.stdout == ""
