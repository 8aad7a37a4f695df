"""Tests for spec files, verification reports, and the command line."""

import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dynlie import catalog, cli, duality, dynamics, linalg, qbia

GOOD_SPEC = """\
dynlie-spec 1
name demo
dim 3
basis h e f
c 0 1 1 2
c 0 2 2 -2
c 1 2 0 1
phi 0 1 2 -0.015625
sub 0
comp 1 2
field canonical
"""


def test_parse_round_trip_is_byte_identical():
    spec = cli.AlgebraSpecFile.parse(GOOD_SPEC)
    text = spec.to_text()
    again = cli.AlgebraSpecFile.parse(text).to_text()
    assert text == again
    assert spec.name == "demo"
    assert spec.G.g.basis_names == ["h", "e", "f"]
    err = abs(spec.G.g.c[0, 1, 1] - 2.0) + abs(spec.G.g.c[1, 0, 1] + 2.0)
    assert err == 0.0
    assert spec.G.phi[2, 1, 0] == 0.015625


def test_parse_fills_signed_permutations():
    spec = cli.AlgebraSpecFile.parse(GOOD_SPEC)
    phi = spec.G.phi
    err = np.abs(phi + phi.transpose(1, 0, 2)).max()
    err = max(err, np.abs(phi + phi.transpose(0, 2, 1)).max())
    assert err == 0.0


@pytest.mark.parametrize("text,fragment", [
    ("dim 3\n", "header"),
    ("dynlie-spec 2\ndim 3\n", "version"),
    ("dynlie-spec 1\n", "missing dim"),
    ("dynlie-spec 1\nc 0 1 1 2\n", "dim must come before"),
    ("dynlie-spec 1\ndim 2\nc 0 3 1 2\n", "out of range"),
    ("dynlie-spec 1\ndim 2\nc 0 0 1 2\n", "repeated index"),
    ("dynlie-spec 1\ndim 3\nphi 0 1 1 1\n", "distinct"),
    ("dynlie-spec 1\ndim 3\nc 0 1 1 2\nc 1 0 1 2\n", "conflicts"),
    ("dynlie-spec 1\ndim 2\nsub 0\n", "together"),
    ("dynlie-spec 1\ndim 2\nsub 0\ncomp 0 1\n", "overlap"),
    ("dynlie-spec 1\ndim 3\nsub 0\ncomp 1\n", "partition"),
    ("dynlie-spec 1\ndim 2\nbogus 1\n", "unknown key"),
    ("dynlie-spec 1\ndim 2\nc 0 1 0 abc\n", "not a number"),
    ("dynlie-spec 1\ndim 2\nfield wavy\n", "field must be"),
    ("dynlie-spec 1\ndim 2\ndim 2\n", "duplicate"),
])
def test_parse_diagnostics(text, fragment):
    with pytest.raises(cli.SpecParseError) as exc:
        cli.AlgebraSpecFile.parse(text)
    assert fragment in str(exc.value)


def test_parse_errors_carry_line_numbers():
    with pytest.raises(cli.SpecParseError) as exc:
        cli.AlgebraSpecFile.parse("dynlie-spec 1\ndim 2\nc 0 1 0 abc\n")
    assert exc.value.line == 3
    assert "line 3" in str(exc.value)


def test_verify_good_spec_exits_zero(tmp_path, capsys):
    path = tmp_path / "demo.spec"
    path.write_text(GOOD_SPEC)
    code = cli.main(["verify", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "result: pass" in out
    assert "flow-cyclic" in out


def test_verify_reports_are_byte_identical(tmp_path, capsys):
    path = tmp_path / "demo.spec"
    path.write_text(GOOD_SPEC)
    assert cli.main(["verify", str(path), "--seed", "5", "--json"]) == 0
    first = capsys.readouterr().out
    assert cli.main(["verify", str(path), "--seed", "5", "--json"]) == 0
    second = capsys.readouterr().out
    assert first == second


def test_verify_seed_changes_sample_points(tmp_path, capsys):
    path = tmp_path / "demo.spec"
    path.write_text(GOOD_SPEC)
    spec = cli.AlgebraSpecFile.load(str(path))
    r1 = cli.build_report(spec, seed=1)
    r2 = cli.build_report(spec, seed=2)
    assert r1.meta["seed"] != r2.meta["seed"]
    assert r1.passed and r2.passed


def test_verify_flags_broken_jacobi(tmp_path, capsys):
    bad = ("dynlie-spec 1\ndim 3\n"
           "c 0 1 2 1\nc 1 2 0 1\nc 2 0 1 1\nc 0 2 2 1\n")
    path = tmp_path / "bad.spec"
    path.write_text(bad)
    code = cli.main(["verify", str(path)])
    out = capsys.readouterr().out
    assert code == 1
    assert "jacobi" in out and "FAIL" in out


def test_verify_json_writes_an_overflowed_residual_as_null(tmp_path, capsys):
    # the Jacobi products of these finite constants overflow to NaN: the
    # row fails, its residual reads nan in text and null in JSON (which has
    # no NaN), and every finite row is as before
    path = tmp_path / "huge.spec"
    path.write_text("dynlie-spec 1\ndim 2\nc 0 1 1 1e200\n")
    with np.errstate(all="ignore"):
        assert cli.main(["verify", str(path)]) == 1
        text = capsys.readouterr().out
        assert cli.main(["verify", str(path), "--json"]) == 1
        out = capsys.readouterr().out

    def no_constant(name):
        raise AssertionError("not JSON: %s" % name)

    payload = json.loads(out, parse_constant=no_constant)
    rows = {r["name"]: r for r in payload["checks"]}
    assert not payload["passed"]
    for name in ("jacobi", "double-jacobi"):
        assert rows[name]["residual"] is None and not rows[name]["passed"]
        assert re.search(r"^%s +nan <= .* FAIL " % name, text, re.M)
    finite = [r for r in payload["checks"] if r["residual"] is not None]
    assert finite and all(np.isfinite(r["residual"]) for r in finite)


def test_verify_parse_error_exits_two(tmp_path, capsys):
    path = tmp_path / "broken.spec"
    path.write_text("dynlie-spec 1\ndim 2\nc 0 1 0 abc\n")
    code = cli.main(["verify", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "line 3" in err


def test_verify_missing_file_exits_two(tmp_path):
    assert cli.main(["verify", str(tmp_path / "nope.spec")]) == 2


def test_directory_paths_exit_two(tmp_path, capsys):
    # a spec or output path that is a directory is an error line at exit
    # 2, not a traceback at exit 1 (which means a failed residual)
    path = tmp_path / "demo.spec"
    path.write_text(GOOD_SPEC)
    for argv in (["verify", str(tmp_path)], ["dual", str(path), str(tmp_path)],
                 ["lcan", str(tmp_path), "0.1"]):
        assert cli.main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.err.startswith("error: "), argv
        assert "Traceback" not in captured.err


def test_verify_tol_override(tmp_path, capsys):
    path = tmp_path / "demo.spec"
    path.write_text(GOOD_SPEC)
    code = cli.main(["verify", str(path),
                     "--tol-override", "flow-derivative-consistency=1e-30"])
    capsys.readouterr()
    assert code == 1
    code = cli.main(["verify", str(path), "--tol-override", "nope=1"])
    assert code == 2
    # a tolerance must be a finite number >= 0: inf and nan would write
    # invalid JSON, and nan would fail its row
    for val in ("inf", "-inf", "nan", "-1e-8"):
        code = cli.main(["verify", str(path), "--json", "--tol-override",
                         "flow-cyclic=" + val])
        captured = capsys.readouterr()
        assert code == 2, val
        assert captured.out == "" and "flow-cyclic" in captured.err, val
    cli.main(["verify", str(path), "--json", "--tol-override",
              "flow-cyclic=0"])
    rows = json.loads(capsys.readouterr().out)["checks"]
    assert [row["tol"] for row in rows if row["name"] == "flow-cyclic"] == [0.0]


def test_verify_twist_rows(tmp_path, capsys):
    entry = catalog.get("ev-sl2")
    rho = np.array(entry.params["rho"])
    base = cli.AlgebraSpecFile.parse(GOOD_SPEC)
    spec = cli.AlgebraSpecFile(base.G, base.decomp, twist_matrix=rho,
                               field_kind="canonical", name="twisted")
    path = tmp_path / "twisted.spec"
    spec.save(str(path))
    code = cli.main(["verify", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "twist-antisymmetry" in out
    assert "twist-obstruction-invariance" in out


def test_verify_rejects_non_skew_twist(tmp_path, capsys):
    text = GOOD_SPEC + "twist 1 2 0.5\n"
    path = tmp_path / "lopsided.spec"
    path.write_text(text)
    code = cli.main(["verify", str(path)])
    out = capsys.readouterr().out
    assert code == 1
    assert "twist-antisymmetry" in out


def test_verify_field_precondition_row_fails_not_crashes(tmp_path, capsys):
    # nonzero cocycle with no split: the default field cannot exist and
    # the report says so instead of raising
    text = ("dynlie-spec 1\ndim 2\nvarpi 0 0 1 1\n")
    path = tmp_path / "nocanon.spec"
    path.write_text(text)
    code = cli.main(["verify", str(path)])
    out = capsys.readouterr().out
    assert code == 1
    assert "field-preconditions" in out


def test_lcan_zero_point_prints_zero_matrix(tmp_path, capsys):
    path = tmp_path / "demo.spec"
    path.write_text(GOOD_SPEC)
    code = cli.main(["lcan", str(path), "0.0"])
    out = capsys.readouterr().out
    assert code == 0
    rows = [[float(x) for x in line.split()] for line in out.splitlines()]
    assert np.abs(np.array(rows)).max() == 0.0


def test_lcan_prints_seventeen_digit_entries(tmp_path, capsys):
    path = tmp_path / "demo.spec"
    path.write_text(GOOD_SPEC)
    code = cli.main(["lcan", str(path), "0.3", "--check"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.splitlines()
    mat = np.array([[float(x) for x in line.split()] for line in lines[:3]])
    field = dynamics.canonical_field(cli.AlgebraSpecFile.parse(GOOD_SPEC).G,
                                     cli.AlgebraSpecFile.parse(GOOD_SPEC).decomp)
    err = np.abs(mat - field.value(np.array([0.3]))).max()
    assert err == 0.0
    assert any(line.startswith("check cyclic_residual") for line in lines)
    # round-tripping through the printed digits loses nothing
    entry = "%.17g" % mat[1, 2]
    assert float(entry) == mat[1, 2]


def test_lcan_outside_domain_exits_three_naming_predicate(tmp_path, capsys):
    text = ("dynlie-spec 1\ndim 3\n"
            "c 0 1 2 1\nc 1 2 0 1\nc 2 0 1 1\n"
            "phi 0 1 2 0.0625\nfield cocommutative\n")
    path = tmp_path / "rot.spec"
    path.write_text(text)
    code = cli.main(["lcan", str(path),
                     "%.17g,0,0" % (4.0 * np.pi)])
    err = capsys.readouterr().err
    assert code == 3
    assert "spectral-margin" in err


def test_lcan_overflowing_flow_exits_three(tmp_path, capsys):
    path = tmp_path / "sl2-cartan.spec"
    assert cli.main(["catalog", "emit", "sl2-cartan", "--out",
                     str(path)]) == 0
    capsys.readouterr()
    assert cli.main(["lcan", str(path), "--", "1e5"]) == 3
    assert "block-condition" in capsys.readouterr().err


def test_lcan_wrong_point_length_exits_two(tmp_path, capsys):
    path = tmp_path / "demo.spec"
    path.write_text(GOOD_SPEC)
    assert cli.main(["lcan", str(path), "0.1,0.2"]) == 2
    # "--" as the point reaches argparse's own usage error
    with pytest.raises(SystemExit) as exc:
        cli.main(["lcan", str(path), "--", "--"])
    assert exc.value.code == 2
    assert "point" in capsys.readouterr().err


def test_dual_writes_spec_that_verifies(tmp_path, capsys):
    path = tmp_path / "demo.spec"
    path.write_text(GOOD_SPEC)
    out = tmp_path / "demo-dual.spec"
    code = cli.main(["dual", str(path), str(out)])
    text = capsys.readouterr().out
    assert code == 0
    assert "double-dual-roundtrip" in text
    assert out.exists()
    assert cli.main(["verify", str(out)]) == 0
    capsys.readouterr()
    star = cli.AlgebraSpecFile.load(str(out))
    assert star.decomp is not None
    rep = qbia.check_quasi_bialgebra(star.G)
    assert rep["passed"]


@pytest.mark.parametrize("name", ["sl2-cartan", "ev-sl3", "symmetric-sl2"])
def test_dual_builds_each_dual_once(name, tmp_path, capsys, monkeypatch):
    # the roundtrip row reads the dual the command wrote, so the command
    # dualizes twice (the input, then that dual), and its row is
    # double_dual_check's
    entry = catalog.get(name)
    path = tmp_path / "in.spec"
    cli.AlgebraSpecFile(entry.G, entry.decomp, field_kind="canonical",
                        name=name).save(str(path))
    calls = []
    orig = duality.dual_qbia

    def counted(G, decomp=None):
        calls.append(G)
        return orig(G, decomp)

    monkeypatch.setattr(duality, "dual_qbia", counted)
    assert cli.main(["dual", str(path), str(tmp_path / "out.spec"),
                     "--samples", "2", "--json"]) == 0
    out = capsys.readouterr().out
    assert len(calls) == 2
    rows = json.loads(out.rpartition("wrote")[0])["checks"]
    row = [r for r in rows if r["name"] == "double-dual-roundtrip"]
    spec = cli.AlgebraSpecFile.load(str(path))
    monkeypatch.undo()
    assert [r["residual"] for r in row] == [
        duality.double_dual_check(spec.G, spec.decomp)]


def test_dual_without_split_exits_two(tmp_path, capsys):
    text = "dynlie-spec 1\ndim 2\nc 0 1 0 1\n"
    path = tmp_path / "nosplit.spec"
    path.write_text(text)
    assert cli.main(["dual", str(path), str(tmp_path / "o.spec")]) == 2


def test_dual_precondition_failure_exits_three(tmp_path, capsys):
    # cocycle that does not vanish on the subalgebra line
    text = ("dynlie-spec 1\ndim 2\nvarpi 0 0 1 1\nsub 0\ncomp 1\n")
    path = tmp_path / "badsplit.spec"
    path.write_text(text)
    code = cli.main(["dual", str(path), str(tmp_path / "o.spec")])
    err = capsys.readouterr().err
    assert code == 3
    assert "error" in err


def test_catalog_list_names_required_entries(capsys):
    code = cli.main(["catalog", "list"])
    out = capsys.readouterr().out
    assert code == 0
    for name in ("abelian", "sl2-cartan", "ev-sl2", "symmetric-sl2"):
        assert name in out


def test_catalog_emit_unknown_exits_two(tmp_path, capsys):
    code = cli.main(["catalog", "emit", "not-a-thing",
                     "--out", str(tmp_path / "x.spec")])
    assert code == 2
    code = cli.main(["catalog", "emit"])
    assert code == 2


def test_every_catalog_entry_emits_and_reverifies(tmp_path, capsys):
    for name in catalog.names():
        out = tmp_path / ("%s.spec" % name)
        assert cli.main(["catalog", "emit", name, "--out", str(out)]) == 0
        capsys.readouterr()
        code = cli.main(["verify", str(out), "--samples", "3"])
        report = capsys.readouterr().out
        assert code == 0, (name, report)


ROT_SPEC = ("dynlie-spec 1\ndim 3\n"
            "c 0 1 2 1\nc 1 2 0 1\nc 2 0 1 1\n"
            "phi 0 1 2 0.0625\nfield cocommutative\n")


@pytest.mark.parametrize("spec,point", [
    (ROT_SPEC, "-0.3,0.2,0.1"),
    (ROT_SPEC, "-.3,-2e-1,0.1"),
    (GOOD_SPEC, "-3e-1"),
], ids=["comma-list", "leading-dot", "exponent"])
def test_lcan_negative_first_coordinate_parses(tmp_path, capsys, spec, point):
    path = tmp_path / "p.spec"
    path.write_text(spec)
    code = cli.main(["lcan", str(path), point, "--check"])
    out = capsys.readouterr().out
    assert code == 0
    # the "--" form reads the same point and prints the same bytes
    assert cli.main(["lcan", str(path), "--check", "--", point]) == 0
    assert capsys.readouterr().out == out


@pytest.mark.parametrize("command", ["verify", "dual"])
@pytest.mark.parametrize("samples", ["0", "-1"])
def test_sample_count_below_one_is_a_usage_error(tmp_path, capsys, command,
                                                 samples):
    # a sweep over no point would print every flow row as passed
    path = tmp_path / "demo.spec"
    path.write_text(GOOD_SPEC)
    argv = [command, str(path)]
    if command == "dual":
        argv.append(str(tmp_path / "demo-dual.spec"))
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--samples", samples])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "--samples" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("line,value", [
    ("phi 0 1 2 nan", "nan"),
    ("c 0 1 1 inf", "inf"),
    ("twist 0 1 -inf", "-inf"),
])
def test_parse_rejects_non_finite_numbers(line, value):
    text = "dynlie-spec 1\ndim 3\n%s\n" % line
    with pytest.raises(cli.SpecParseError) as exc:
        cli.AlgebraSpecFile.parse(text)
    assert exc.value.line == 3
    assert "not a finite number %r" % value in str(exc.value)


@pytest.mark.parametrize("point", ["nan", "inf", "-inf"])
def test_lcan_rejects_non_finite_point(tmp_path, capsys, point):
    path = tmp_path / "demo.spec"
    path.write_text(GOOD_SPEC)
    assert cli.main(["lcan", str(path), "--", point]) == 2
    captured = capsys.readouterr()
    assert "finite" in captured.err
    assert captured.out == ""


def test_main_builds_its_parser_once_per_process(tmp_path, capsys,
                                                 monkeypatch):
    path = tmp_path / "p.spec"
    path.write_text(ROT_SPEC)
    argv = ["lcan", str(path), "-0.3,0.2,0.1"]
    assert cli.main(argv) == 0
    first = capsys.readouterr().out
    built = []
    monkeypatch.setattr(argparse, "ArgumentParser",
                        lambda *args, **kwargs: built.append(args))
    # later calls reuse the parser, leading-minus point and all
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == first
    assert cli.main(["catalog", "list"]) == 0
    assert built == []


IMPORT_FOOTPRINT_SCRIPT = """\
import sys
from dynlie import cli

spec, dual = sys.argv[1], sys.argv[2]
for argv in (["catalog", "emit", "sl2-cartan", "--out", spec],
             ["verify", spec, "--samples", "2"],
             ["dual", spec, dual, "--samples", "2"],
             ["lcan", spec, "0.3", "--check"],
             ["catalog", "list"]):
    assert cli.main(argv) == 0, argv
print("scipy.special" in sys.modules, "scipy.linalg" in sys.modules)
"""


def test_cli_commands_never_import_scipy_special(tmp_path):
    # a fresh process, so that nothing imported by other tests counts;
    # scipy.linalg must stay imported, because perfbench/run.py's
    # import_times reads its cumulative time without a default until the
    # benchmark learns to do without it (the import blocker of the ROADMAP's
    # benchmark item)
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_FOOTPRINT_SCRIPT,
         str(tmp_path / "sl2-cartan.spec"), str(tmp_path / "dual.spec")],
        env=env, capture_output=True, text=True, check=True)
    assert done.stdout.splitlines()[-1] == "False True"


def _sl3_invariant_spec(path):
    """A spec of sl3 with the Killing-form invariant 3-tensor over its full
    split: neither adjoint family of its canonical field is commuting or
    cubic, so the spectral model's check refuses it."""
    g = catalog.sl3_chevalley()
    binv = np.linalg.inv(g.killing_form())
    phi = 0.25 * np.einsum("ja,kb,abi->ijk", binv, binv, g.c)
    G = qbia.QuasiBialgebra(g, np.zeros((8, 8, 8)),
                            linalg.antisymmetrize3(phi))
    cli.AlgebraSpecFile(G, None, field_kind="canonical",
                        name="sl3-invariant").save(str(path))


@pytest.mark.parametrize("which,route", [("demo", "commuting"),
                                         ("so3-identity", "cubic"),
                                         ("sl3-invariant", "general")])
def test_verify_takes_the_route_the_spectral_model_allows(
        tmp_path, capsys, monkeypatch, which, route):
    path = tmp_path / ("%s.spec" % which)
    if which == "demo":
        path.write_text(GOOD_SPEC)
    elif which == "sl3-invariant":
        _sl3_invariant_spec(path)
    else:
        assert cli.main(["catalog", "emit", which, "--out", str(path)]) == 0
    built = []
    orig = dynamics.canonical_field

    def spy(*args, **kwargs):
        built.append(orig(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(dynamics, "canonical_field", spy)
    capsys.readouterr()
    code = cli.main(["verify", str(path), "--samples", "2"])
    report = capsys.readouterr().out
    assert code == 0 and "result: pass" in report, report
    assert built and {field.route for field in built} == {route}
    with pytest.raises(AttributeError):
        built[0].route = "general"
