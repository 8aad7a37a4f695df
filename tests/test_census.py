"""The outcome census (tools/census.py) on a two-cycle pool."""

import io
import json
import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "tools"))

import census  # noqa: E402

RUN, WORKLOADS = census.load_bench()


@pytest.fixture(scope="module")
def plan():
    return WORKLOADS.setup_sweep(1, names=["sl2-cartan", "su2-lagrangian"],
                                 pool=2)


def test_a_census_diffed_against_itself_is_empty(plan):
    first = census.census_plan(plan, 2, RUN.execute)
    again = census.census_plan(plan, 2, RUN.execute)
    assert len(first) == 2 * 4 * 2
    assert census.diff(first, again) == []
    line = first[0]
    assert line["label"] == "sl2-cartan/s0" and line["status"] == "ok"
    assert [name for name, _, _ in line["pairs"]] == list(WORKLOADS.FLOW_TOLS)
    assert line["domain"]["in_domain"] is True
    # the lines are JSON, and the residuals survive it exactly
    text = [json.dumps(x) for x in first]
    assert [json.dumps(json.loads(x)) for x in text] == text


def test_a_patched_residual_shows_up(plan, monkeypatch):
    before = census.census_plan(plan, 2, RUN.execute)
    orig = WORKLOADS.dynamics.cdybe_residual

    def patched(field, p, *args, **kwargs):
        rep = orig(field, p, *args, **kwargs)
        if field.route == "cubic":
            rep["cyclic_residual"] = 2.0 * rep["cyclic_residual"] + 1e-12
        return rep

    monkeypatch.setattr(WORKLOADS.dynamics, "cdybe_residual", patched)
    after = census.census_plan(plan, 2, RUN.execute)
    moved = census.diff(before, after)
    evaluated = [x for x in before if x["label"].startswith("su2")
                 and x["status"] != "rejected"]
    assert [key for key, _, _, _ in moved] == [census._key(x)
                                               for x in evaluated]
    out = io.StringIO()
    census.print_diff(moved, out)
    text = out.getvalue()
    assert "ok -> ok: %d" % len(evaluated) in text
    assert "cyclic_residual" in text and "sl2-cartan" not in text


def test_the_command_line_runs_and_diffs(tmp_path, capsys):
    assert census.main(["--workload", "trivialize", "--seeds", "1",
                        "--cycles", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(WORKLOADS.TRIV_ENTRIES)
    a = tmp_path / "a.jsonl"
    a.write_text("\n".join(lines) + "\n")
    assert census.main(["--diff", str(a), str(a)]) == 0
    moved = [json.loads(x) for x in lines]
    moved[0]["status"] = "failed:residual"
    b = tmp_path / "b.jsonl"
    b.write_text("\n".join(json.dumps(x) for x in moved) + "\n")
    capsys.readouterr()
    assert census.main(["--diff", str(a), str(b)]) == 1
    assert "ok -> failed: 1" in capsys.readouterr().out
    assert census.main(["--summary", str(b)]) == 0
    assert "seed 1: 5 ops, 1 failing" in capsys.readouterr().out
