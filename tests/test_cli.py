"""Command line answers, reports and exit codes."""

import hashlib
import json
import os
import subprocess
import sys

import pytest

from hlf.checks import SUITES
from hlf.cli import main
from hlf.fields import parse_field
from hlf.opens import LevelsOpen, QuadraticRule, ball_at, deep_ball
from hlf.points import AffinePresentation, BaseRing, projective_line

F5UT = parse_field("Fq(5)((u))((t))")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out.rstrip("\n")


def open_file(tmp_path, name, U, field_text="Fq(5)((u))((t))"):
    p = tmp_path / name
    p.write_text(json.dumps({"field": field_text, "open": U.to_data()}))
    return str(p)


def test_valuation_answer_line(capsys):
    code, out = run(capsys, "val", "--field", "Qp(3){{t}}",
                    "--elem", "3*t^-7 + t^2", "--rank", "2")
    assert (code, out) == (0, "(2, 0)")


def test_valuation_json_report(capsys):
    code, out = run(capsys, "valuation", "--field", "Fq(5)((u))((t))",
                    "--elem", "u^2*t^-3", "--json")
    assert code == 0
    rep = json.loads(out)
    # bottom first: the u slot before the t slot
    assert rep["valuation"] == [2, -3]


def test_member_answers(tmp_path, capsys):
    path = open_file(tmp_path, "U.json", deep_ball(F5UT, 2))
    code, out = run(capsys, "member", "--elem", "0", "--open", "@" + path)
    assert (code, out) == (0, "YES")
    code, out = run(capsys, "member", "--elem", "t^-5", "--open", path)
    assert (code, out) == (0, "NO")


def test_converge_prints_certificate(capsys):
    code, out = run(capsys, "converge", "--field", "Fq(5)((u))((t))",
                    "--seq", "t^(-1)*u^(n)", "--limit", "0",
                    "--topology", "higher")
    assert code == 0
    assert out.splitlines()[0] == "CONVERGES"
    assert out.splitlines()[1].startswith("certificate:")


def test_converge_valuation_topology_witness(capsys):
    code, out = run(capsys, "converge", "--field", "Fq(5)((u))((t))",
                    "--seq", "t^(-1)*u^(n)", "--limit", "0",
                    "--topology", "valuation", "--json")
    assert code == 0
    rep = json.loads(out)
    assert rep["verdict"] == "DIVERGES"
    assert "witness" in rep


def test_units_parshin_route(capsys):
    code, out = run(capsys, "units", "--field", "Fq(5)((u))((t))",
                    "--seq", "1 + t^(-1)*u^(n)", "--limit", "1",
                    "--topology", "parshin")
    assert code == 0
    assert out.splitlines()[0] == "DIVERGES"
    assert "principal unit" in out


def test_units_certificate_line_is_stable(capsys):
    # the two-sided certificate prints its parts, not an object address
    code, out = run(capsys, "units", "--field", "Fq(5)((u))((t))",
                    "--seq", "1 + u*t^(n)", "--limit", "1")
    assert code == 0
    assert out.splitlines() == [
        "CONVERGES",
        "certificate: pair(v_top=1*n+0 past 0, v_top=1*n+0 past 0)"]


_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "src")
_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [_SRC, os.environ.get("PYTHONPATH")])))


def fresh(*argv):
    """Exit code and stdout of `python -m hlf.cli argv` in a new process."""
    proc = subprocess.run([sys.executable, "-m", "hlf.cli", *argv],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, env=_ENV, timeout=60)
    return proc.returncode, proc.stdout


def test_closed_stdout_exits_quietly():
    r, w = os.pipe()
    os.close(r)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "hlf.cli", "units", "--field",
             "Fq(5)((u))((t))", "--seq", "1 + t^(-1)*u^(n)", "--limit", "1",
             "--topology", "parshin", "--json"],
            stdout=w, stderr=subprocess.PIPE, text=True, env=_ENV, timeout=60)
    finally:
        os.close(w)
    assert "Traceback" not in proc.stderr
    assert proc.returncode == 141


def test_points_member_and_map(tmp_path, capsys):
    ring = BaseRing(F5UT, 0)
    hyp = tmp_path / "hyp.json"
    hyp.write_text(json.dumps(
        AffinePresentation(ring, ("X", "Y"), ["X*Y - 1"]).to_data()))
    code, out = run(capsys, "points-member", "--scheme", str(hyp),
                    "--elem", "u, u^-1")
    assert (code, out) == (0, "YES")
    p1 = tmp_path / "p1.json"
    p1.write_text(json.dumps(projective_line(ring).to_data()))
    code, out = run(capsys, "points-map", "--scheme", str(p1),
                    "--elem", "u", "--chart", "0", "--to-chart", "1")
    assert (code, out) == (0, "(u^-1)@1")
    code, out = run(capsys, "points-map", "--scheme", str(p1),
                    "--elem", "0", "--chart", "0", "--to-chart", "1")
    assert (code, out) == (0, "OUT_OF_CHART")


def test_points_map_reports_an_undefined_transition(tmp_path, capsys):
    # the localizer 1 is a unit at X = 0, where the map 1/X is undefined
    p1 = tmp_path / "p1.json"
    p1.write_text(json.dumps({
        "ring": "Fq(5)((u))((t))",
        "charts": [{"vars": ["X"], "gens": []}, {"vars": ["Y"], "gens": []}],
        "overlaps": [{"from": 0, "to": 1, "unit": "1", "map": ["(1)/(X)"]},
                     {"from": 1, "to": 0, "unit": "Y", "map": ["(1)/(Y)"]}]}))
    code = main(["points-map", "--scheme", str(p1), "--elem", "0",
                 "--chart", "0", "--to-chart", "1"])
    err = capsys.readouterr().err
    assert code == 2 and "Traceback" not in err
    assert err.startswith("error: transition 0-1 undefined at")


def test_witness_subgroup_checked(tmp_path, capsys):
    path = open_file(tmp_path, "U.json", deep_ball(F5UT, 2))
    code, out = run(capsys, "witness-subgroup", "--open", path, "--json")
    assert code == 0
    rep = json.loads(out)
    assert rep["checked"] and len(rep["witness"]["elements"]) == 3


def test_witness_subgroup_answers_at_a_huge_cutoff(tmp_path, capsys,
                                                 deadline):
    # the mirror pair sits 2*10^30 levels apart; each membership reads
    # only the levels of its terms
    B = F5UT.residue()
    U = LevelsOpen(F5UT, 10 ** 30, {0: ball_at(B, 1), 2: ball_at(B, 0)},
                   QuadraticRule(1, 0, 1))
    path = open_file(tmp_path, "U.json", U)
    with deadline(0.5):
        code, out = run(capsys, "witness-subgroup", "--open", path)
    assert code == 0
    assert out.splitlines()[0] == "checked"


def test_member_stops_at_the_digit_budget_along_p(tmp_path, capsys, deadline):
    # the open pins the t^0 coefficient of digit 19 over Qp(3){{t}}; under
    # the plain section the digits of the element double in size with each
    # level, so the digit path stops at its budget, never with an answer
    p = tmp_path / "U.json"
    p.write_text(json.dumps({"field": "Qp(3){{t}}", "open": {
        "kind": "levels", "cutoff": 20,
        "window": {"19": {"kind": "levels", "cutoff": 1,
                          "window": {"0": {"kind": "zero"}},
                          "below": {"rule": "full"}}},
        "below": {"rule": "full"}}}))
    assert len(p.read_text()) < 210
    with deadline(2.0):
        code = main(["member", "--elem", "(1 + t)/(1 - t - t^2)",
                     "--open", str(p)])
    out = capsys.readouterr()
    assert code == 2 and out.out == ""
    assert out.err == ("error: the digit at level 11 along 3 needs more than "
                       "4096 integer coefficients\n")


def test_check_is_byte_deterministic(capsys):
    code, first = run(capsys, "check", "axioms", "--seed", "11",
                      "--battery-size", "6")
    assert code == 0
    code, second = run(capsys, "check", "axioms", "--seed", "11",
                       "--battery-size", "6")
    assert code == 0
    assert first == second
    assert json.loads(first)["ok"]


def test_check_times_each_suite_on_stderr(capsys):
    assert main(["check", "--seed", "1"]) == 0
    out = capsys.readouterr()
    # the seed 1 hash that test_acceptance pins: the timings leave stdout alone
    assert hashlib.sha256(out.out.encode()).hexdigest() == \
        "569e3963f7141a0343d46f4062f754cda9c6abf2ed155be853b6045f02634d36"
    (line,) = out.err.splitlines()
    total, _, each = line.partition(" (")
    assert total.startswith("completed in ") and each.endswith("s)")
    assert [part.split()[0] for part in each.split(", ")] == list(SUITES)


def test_run_job_file(tmp_path, capsys):
    path = open_file(tmp_path, "U.json", deep_ball(F5UT, 1))
    job = tmp_path / "job.json"
    job.write_text(json.dumps({"tasks": [
        {"id": "a", "kind": "valuation", "field": "Qp(3){{t}}",
         "elem": "3*t^-7 + t^2", "rank": 2, "expect": "(2, 0)"},
        {"id": "b", "kind": "member", "elem": "0", "open": path,
         "expect": "YES"},
    ]}))
    code, out = run(capsys, "run", str(job))
    assert code == 0
    rep = json.loads(out)
    assert rep["ok"] and all(t["pass"] for t in rep["tasks"])


def test_run_flags_a_missed_expectation(tmp_path, capsys):
    path = open_file(tmp_path, "U.json", deep_ball(F5UT, 1))
    job = tmp_path / "job.json"
    job.write_text(json.dumps({"tasks": [
        {"id": "x", "kind": "member", "elem": "t^-9", "open": path,
         "expect": "YES"}]}))
    code, out = run(capsys, "run", str(job))
    assert code == 1
    assert not json.loads(out)["ok"]


def test_run_records_a_division_by_zero(tmp_path, capsys):
    job = tmp_path / "job.json"
    job.write_text(json.dumps({"tasks": [
        {"id": "bad", "kind": "valuation", "field": "Fq(5)((u))",
         "elem": "1/0"},
        {"id": "good", "kind": "valuation", "field": "Fq(5)((u))",
         "elem": "u^2", "expect": "(2,)"},
    ]}))
    code, out = run(capsys, "run", str(job))
    assert code == 2
    bad, good = json.loads(out)["tasks"]
    assert bad["error"] == "division by zero (at position 1)"
    assert good["pass"]


def test_run_rejects_duplicate_ids(tmp_path, capsys):
    job = tmp_path / "job.json"
    job.write_text(json.dumps({"tasks": [
        {"id": "a", "kind": "valuation", "field": "Qp(3)((t))", "elem": "t"},
        {"id": "a", "kind": "valuation", "field": "Qp(3)((t))", "elem": "t"},
    ]}))
    assert main(["run", str(job)]) == 2


@pytest.mark.parametrize("argv", [
    ("val", "--field", "Nope((t))", "--elem", "t"),
    ("val", "--field", "Qp(3)((t))", "--elem", "t +* 2"),
    ("member", "--elem", "t", "--open", "does-not-exist.json"),
    ("units", "--field", "Qp(3)((t))", "--seq", "t^(n)", "--limit", "0"),
    ("val", "--field", "Fq(5)((u))", "--elem", "1/0"),
])
def test_input_errors_exit_two(argv, capsys):
    assert main(list(argv)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


# Field sizes that once stalled in trial division up to q or in a search
# over every monic of half the degree: each answers at once or exits 2.
@pytest.mark.parametrize("field, code, out, err", [
    ("Fq(1000000007)((t))", 0, "(1,)", ""),
    ("Qp(1000000007)", 2, "", "error: unknown symbol 't' (at position 0)\n"),
    ("Qp(1000000000000000003)((t))", 2, "",
     "error: field size 1000000000000000003 is outside [2, 2^40)\n"),
    ("Fq(9223372036854775808;w^63+w+1)((t))", 2, "",
     "error: field size 9223372036854775808 is outside [2, 2^40)\n"),
])
def test_large_fields_answer_at_once(field, code, out, err, deadline, capsys):
    with deadline(2):
        assert main(["val", "--field", field, "--elem", "t"]) == code
    assert capsys.readouterr() == (out and out + "\n", err)


def test_a_modulus_past_the_field_degree_is_named(capsys):
    assert main(["val", "--field", "Fq(4;w^3+1)((t))", "--elem", "t"]) == 2
    assert capsys.readouterr().err == \
        "error: modulus term 'w^3' is past degree 2\n"


P1_DATA = {
    "ring": "Fq(5)((u))((t))",
    "charts": [{"vars": ["X"], "gens": []}, {"vars": ["Y"], "gens": []}],
    "overlaps": [{"from": 0, "to": 1, "unit": "X", "map": ["(1)/(X)"]},
                 {"from": 1, "to": 0, "unit": "Y", "map": ["(1)/(Y)"]}]}
HYP_DATA = {"ring": "Fq(5)((u))((t))", "vars": ["X", "Y"],
            "gens": ["X*Y - 1"]}
HYP3_DATA = dict(HYP_DATA, ring="Qp(3){{t}}")
#: a point family on XY = 1 whose coordinate 0 already diverges
EARLY_SEQ = "1 + 2*3^(-n+2)*t^(2*n+1),(1)/(1 + 2*3^(-n+2)*t^(2*n+1))"
SEXT_DATA = {"ring": "Fq(5)((u))((t))", "theta": "theta",
             "modulus": "theta^2 - u", "vars": ["Y"], "gens": ["Y^2 - theta"]}


def _malformed(kind):
    """(file name, file data, argv after the file, stderr fragment)."""
    levels = {"kind": "levels", "cutoff": 2}
    full_below = dict(levels, window={}, below={"rule": "full"})

    def opened(fragment, **open_data):
        return ("U.json", {"field": "Fq(5)((u))((t))",
                           "open": dict(full_below, **open_data)},
                ["member", "--elem", "u*t", "--open"], fragment)
    no_vars = dict(P1_DATA, charts=[{"gens": []}, {"vars": ["Y"]}])
    stray = dict(P1_DATA, overlaps=P1_DATA["overlaps"] + [
        {"from": 0, "to": 2, "unit": "X", "map": ["X"]}])
    return {
        "no-window": ("U.json", {"field": "Fq(5)((u))((t))", "open": levels},
                      ["member", "--elem", "t", "--open"],
                      "open descriptor lacks 'window'"),
        "no-vars": ("X.json", no_vars,
                    ["points-member", "--elem", "1", "--scheme"],
                    "chart lacks 'vars'"),
        "missing-chart": ("X.json", stray,
                          ["points-member", "--elem", "1", "--scheme"],
                          "overlap 0-2 names no chart among 0..1"),
        "chart-5": ("X.json", P1_DATA,
                    ["points-member", "--elem", "1", "--chart", "5",
                     "--scheme"], "chart 5 names no chart among 0..1"),
        "chart-minus-1": ("X.json", P1_DATA,
                          ["points-map", "--elem", "1", "--chart", "-1",
                           "--to-chart", "0", "--scheme"],
                          "chart -1 names no chart among 0..1"),
        "window-key": opened("window key 'x' must be an integer",
                             window={"x": {"kind": "full"}}),
        # "01" and "1" would name one level twice, the last one read winning
        "window-key-01": opened(
            "error: window key '01' must be an integer in canonical "
            "decimal form\n",
            window={"1": {"kind": "full"}, "01": {"kind": "zero"}}),
        "window-key-007": opened(
            "error: window key '007' must be an integer in canonical "
            "decimal form\n",
            window={"007": {"kind": "full"}}),
        "window-key-minus-0": opened(
            "error: window key '-0' must be an integer in canonical "
            "decimal form\n",
            window={"-0": {"kind": "full"}}),
        "cutoff-string": opened(
            "open descriptor 'cutoff' must be an integer, not '2'", cutoff="2"),
        "affine-a-string": opened(
            "rule descriptor 'a' must be an integer, not '2'",
            below={"rule": "affine", "a": "2", "b": 0}),
        "affine-a-one": opened(
            "rule descriptor 'a' must be an integer, not '1'",
            below={"rule": "affine", "a": "1", "b": 0}),
        "quadratic-a-string": opened(
            "rule descriptor 'a' must be an integer, not '1'",
            below={"rule": "quadratic", "a": "1", "l": 0, "c": 0}),
        "scale-int": opened(
            "error: quadratic rule descriptor takes no 'scale'; it reads "
            "'a', 'l' and 'c'\n",
            below={"rule": "quadratic", "a": 1, "l": 0, "c": 0, "scale": 5}),
        "window-list": opened(
            "open descriptor 'window' must be an object, not []", window=[]),
        "cycle-int": opened(
            "rule descriptor 'cycle' must be a nonempty list, not 5",
            below={"rule": "periodic", "cycle": 5}),
        "cycle-empty": opened(
            "rule descriptor 'cycle' must be a nonempty list, not []",
            below={"rule": "periodic", "cycle": []}),
        "open-list": ("U.json", [], ["member", "--elem", "t", "--open"],
                      "must hold an object, not []"),
        "open-string": ("U.json", "x", ["member", "--elem", "t", "--open"],
                        "must hold an object, not 'x'"),
        "subgroup-open-list": ("U.json", [], ["witness-subgroup", "--open"],
                               "must hold an object, not []"),
        "subgroup-open-string": ("U.json", "x", ["witness-subgroup", "--open"],
                                 "must hold an object, not 'x'"),
        "job-list": ("job.json", [], ["run"], "must hold an object, not []"),
        "task-int": ("job.json", {"tasks": [5]}, ["run"],
                     "a task must be an object, not 5"),
        "field-int": ("U.json", {"field": 5, "open": full_below},
                      ["member", "--elem", "t", "--open"],
                      "a field descriptor must be a string, not 5"),
        "ring-int": ("X.json", dict(P1_DATA, ring=5),
                     ["points-member", "--elem", "1", "--scheme"],
                     "a base ring must be a string, not 5"),
        "gens-int": ("X.json", dict(HYP_DATA, gens=[1]),
                     ["points-member", "--elem", "1, 1", "--scheme"],
                     "scheme 'gens' must be a list of strings, not [1]"),
        "vars-string": ("X.json", dict(HYP_DATA, vars="XY"),
                        ["points-member", "--elem", "1, 1", "--scheme"],
                        "scheme 'vars' must be a list, not 'XY'"),
        "unit-int": ("X.json", dict(P1_DATA, overlaps=[
                         dict(P1_DATA["overlaps"][0], unit=1),
                         P1_DATA["overlaps"][1]]),
                     ["points-member", "--elem", "1", "--scheme"],
                     "overlap 'unit' must be a string, not 1"),
        "map-string": ("X.json", dict(P1_DATA, overlaps=[
                           dict(P1_DATA["overlaps"][0], map="(1)/(X)"),
                           P1_DATA["overlaps"][1]]),
                       ["points-member", "--elem", "1", "--scheme"],
                       "overlap 'map' must be a list, not '(1)/(X)'"),
        "chart-vars-int": ("X.json", dict(P1_DATA, charts=[
                               {"vars": 1}, {"vars": ["Y"]}]),
                           ["points-member", "--elem", "1", "--scheme"],
                           "chart 'vars' must be a list, not 1"),
        "charts-int": ("X.json", dict(P1_DATA, charts=5),
                       ["points-member", "--elem", "1", "--scheme"],
                       "scheme 'charts' must be a list, not 5"),
        "modulus-int": ("Y.json", dict(SEXT_DATA, modulus=1),
                        ["weil", "--scheme"],
                        "scalar extension scheme 'modulus' must be a "
                        "string, not 1"),
        "chart-int": ("X.json", dict(P1_DATA, charts=[5]),
                      ["points-member", "--elem", "1", "--scheme"],
                      "chart must be an object, not 5"),
        "overlap-int": ("X.json", dict(P1_DATA, overlaps=[5]),
                        ["points-member", "--elem", "1", "--scheme"],
                        "overlap must be an object, not 5"),
        "window-entry-int": opened(
            "open descriptor must be an object, not 5", window={"0": 5}),
        "cycle-entry-int": opened(
            "open descriptor must be an object, not 5",
            below={"rule": "periodic", "cycle": [5]}),
        "below-int": opened("rule descriptor must be an object, not 5",
                            below=5),
        "theta-list": ("Y.json", dict(SEXT_DATA, theta=["theta"]),
                       ["weil", "--scheme"],
                       "scalar extension scheme 'theta' must be a string, "
                       "not ['theta']"),
    }[kind]


@pytest.mark.parametrize("kind", ["no-window", "no-vars", "missing-chart",
                                  "chart-5", "chart-minus-1", "window-key",
                                  "window-key-01", "window-key-007",
                                  "window-key-minus-0",
                                  "cutoff-string", "affine-a-string",
                                  "affine-a-one", "quadratic-a-string",
                                  "scale-int",
                                  "window-list", "cycle-int", "cycle-empty",
                                  "open-list", "open-string",
                                  "subgroup-open-list", "subgroup-open-string",
                                  "job-list", "task-int", "field-int",
                                  "ring-int", "gens-int", "vars-string",
                                  "unit-int", "map-string", "chart-vars-int",
                                  "charts-int", "modulus-int", "theta-list",
                                  "chart-int", "overlap-int",
                                  "window-entry-int", "cycle-entry-int",
                                  "below-int"])
def test_malformed_files_exit_two(kind, tmp_path, capsys):
    name, data, argv, fragment = _malformed(kind)
    path = tmp_path / name
    path.write_text(json.dumps(data))
    assert main(argv + [str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    # a fragment written as the whole line pins the exact text
    assert err == fragment if fragment.startswith("error: ") else fragment in err


#: the longest decimal int() converts (0 where there is no limit)
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
LONG = "1" * (DIGIT_LIMIT + 1)


@pytest.mark.skipif(not DIGIT_LIMIT, reason="int() converts any length here")
@pytest.mark.parametrize("cutoff, key, message", [
    (LONG, "0", "is not valid JSON: Exceeds the limit"),
    ("2", LONG, "window key of %d digits is past the integer digit limit\n"
                % len(LONG))], ids=["cutoff", "window-key"])
def test_integers_past_the_digit_limit_exit_two(cutoff, key, message,
                                                tmp_path, capsys):
    path = tmp_path / "U.json"
    path.write_text('{"field": "Fq(5)((u))((t))", "open": {"kind": "levels", '
                    '"cutoff": %s, "window": {"%s": {"kind": "full"}}, '
                    '"below": {"rule": "full"}}}' % (cutoff, key))
    assert main(["member", "--elem", "u*t", "--open", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err


def test_a_file_that_is_not_utf8_exits_two(tmp_path, capsys):
    path = tmp_path / "X.json"
    path.write_bytes(b'{"ring": "Fq(5)((u))", "vars": ["\xe9"]}')
    assert main(["points-member", "--elem", "1", "--scheme", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read %s: 'utf-8' codec" % path)


def test_run_records_a_malformed_rank(tmp_path, capsys):
    job = tmp_path / "job.json"
    job.write_text(json.dumps({"tasks": [
        {"id": "bad", "kind": "valuation", "field": "Qp(3)((t))",
         "elem": "t", "rank": "x"}]}))
    code, out = run(capsys, "run", str(job))
    assert code == 2
    assert json.loads(out)["tasks"][0]["error"] == \
        "'rank' must be an integer, not 'x'"


@pytest.mark.parametrize("rank", ["0", "-1"])
def test_a_rank_below_one_exits_two(rank, tmp_path, capsys):
    code = main(["val", "--field", "Qp(3)((t))", "--elem", "3^-1*t^-1",
                 "--rank", rank])
    assert code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: rank must be at least 1, not %s\n" % rank
    job = tmp_path / "job.json"
    job.write_text(json.dumps({"tasks": [
        {"id": "r", "kind": "valuation", "field": "Qp(3)((t))",
         "elem": "t", "rank": int(rank)}]}))
    code, out = run(capsys, "run", str(job))
    assert code == 2
    assert json.loads(out)["tasks"][0]["error"] == \
        "rank must be at least 1, not %s" % rank


@pytest.mark.parametrize("size", ["0", "-3"])
def test_a_battery_below_one_exits_two(size, capsys):
    # -3 used to report "count": -45 and "ok": true
    assert main(["check", "axioms", "--battery-size", size]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: battery size must be at least 1, not %s\n" % size


def test_run_records_non_string_inputs(tmp_path, capsys):
    # a wrongly typed field or open fails its own task, not the whole job
    job = tmp_path / "job.json"
    job.write_text(json.dumps({"tasks": [
        {"id": "field", "kind": "valuation", "field": 5, "elem": "t"},
        {"id": "open", "kind": "member", "elem": "t", "open": 5},
        {"id": "good", "kind": "valuation", "field": "Fq(5)((u))",
         "elem": "u^2", "expect": "(2,)"}]}))
    code, out = run(capsys, "run", str(job))
    assert code == 2
    field, open_, good = json.loads(out)["tasks"]
    assert field["error"] == "a field descriptor must be a string, not 5"
    assert open_["error"] == "expected a file path or an object, not 5"
    assert good["pass"]


def run_job(tmp_path, capsys, tasks):
    job = tmp_path / "job.json"
    job.write_text(json.dumps({"tasks": tasks}))
    code = main(["run", str(job)])
    out = capsys.readouterr()
    return code, out.out, out.err


_GOOD_TASK = {"id": "good", "kind": "valuation", "field": "Fq(5)((u))",
              "elem": "u^2", "expect": "(2,)"}


def test_run_records_a_non_string_elem(tmp_path, capsys):
    code, out, _ = run_job(tmp_path, capsys, [
        {"id": "bad", "kind": "valuation", "field": "Qp(3)((t))", "elem": 5},
        _GOOD_TASK])
    assert code == 2
    bad, good = json.loads(out)["tasks"]
    assert bad["error"] == "an element must be a string, not 5"
    assert good["pass"]


def test_run_records_a_non_string_topology(tmp_path, capsys):
    code, out, _ = run_job(tmp_path, capsys, [
        {"id": "bad", "kind": "converge", "field": "Qp(3)((t))",
         "seq": "t^(n)", "topology": True},
        {"id": "unknown", "kind": "converge", "field": "Qp(3)((t))",
         "seq": "t^(n)", "topology": "sideways"},
        _GOOD_TASK])
    assert code == 2
    bad, unknown, good = json.loads(out)["tasks"]
    assert bad["error"] == "a topology must be a string, not True"
    assert unknown["error"] == \
        "topology is 'higher', 'valuation' or 'parshin'"
    assert good["pass"]


def test_run_refuses_a_rank_or_chart_that_is_not_an_int(tmp_path, capsys):
    # a float, bool or numeric string is refused, never truncated
    p1 = tmp_path / "p1.json"
    p1.write_text(json.dumps(projective_line(BaseRing(F5UT, 0)).to_data()))
    val = {"kind": "valuation", "field": "Qp(3)((t))", "elem": "t"}
    pmap = {"kind": "points-map", "scheme": str(p1), "elem": "u"}
    code, out, _ = run_job(tmp_path, capsys, [
        dict(val, id="float", rank=1.9),
        dict(val, id="bool", rank=True),
        dict(val, id="string", rank="1"),
        dict(pmap, id="charts", chart=0.7, to_chart=1),
        dict(pmap, id="to_chart", chart=0, to_chart=True),
        _GOOD_TASK])
    assert code == 2
    *bad, good = json.loads(out)["tasks"]
    assert [t["error"] for t in bad] == [
        "'rank' must be an integer, not 1.9",
        "'rank' must be an integer, not True",
        "'rank' must be an integer, not '1'",
        "'chart' must be an integer, not 0.7",
        "'to_chart' must be an integer, not True"]
    assert good["pass"]


@pytest.mark.parametrize("kind", ["member", "witness-subgroup"])
def test_an_open_over_another_field_than_the_given_one_exits_two(
        kind, tmp_path, capsys):
    # a field given with the open must agree with the file's own field
    path = open_file(tmp_path, "U.json", deep_ball(F5UT, 2))
    elem = ["--elem", "t"] if kind == "member" else []
    code = main([kind, "--field", "Qp(3)((t))", "--open", path] + elem)
    out = capsys.readouterr()
    assert code == 2 and out.out == ""
    assert out.err == ("error: the open lives over Fq(5)((u))((t)), not over "
                       "the given field Qp(3)((t))\n")
    code, out, _ = run_job(tmp_path, capsys, [
        {"id": "bad", "kind": kind, "field": "Qp(3)((t))", "open": path,
         "elem": "t"}, _GOOD_TASK])
    assert code == 2
    bad, good = json.loads(out)["tasks"]
    assert bad["error"].startswith("the open lives over Fq(5)((u))((t))")
    assert good["pass"]
    # the same field written another way is no conflict
    code = main([kind, "--field", " Fq(5)((u))((t)) ", "--open", path] + elem)
    assert code == 0


@pytest.mark.parametrize("bad_id", [[], {}, 1.5, True])
def test_run_refuses_an_id_that_is_not_a_string_or_int(bad_id, tmp_path,
                                                         capsys):
    code, out, err = run_job(tmp_path, capsys, [
        {"id": bad_id, "kind": "valuation", "field": "Qp(3)((t))",
         "elem": "t"}, _GOOD_TASK])
    assert code == 2 and out == ""
    assert err.startswith("error: a task id is a string or an integer")


def test_run_refuses_a_kind_that_is_not_a_string(tmp_path, capsys):
    code, out, err = run_job(tmp_path, capsys, [
        {"id": 1, "kind": [], "field": "Qp(3)((t))", "elem": "t"}])
    assert code == 2 and out == ""
    assert err == "error: task 1 has unknown kind []\n"


def test_run_accepts_integer_ids(tmp_path, capsys):
    code, out, _ = run_job(tmp_path, capsys, [
        {"id": 7, "kind": "valuation", "field": "Qp(3)((t))", "elem": "t"},
        dict(_GOOD_TASK, id="7")])
    assert code == 0
    assert [t["id"] for t in json.loads(out)["tasks"]] == [7, "7"]


# --- check runs import the suites only when they run ---------------------------

def test_importing_the_cli_leaves_the_checks_unimported():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, hlf.cli; print('hlf.checks' in sys.modules)"],
        stdout=subprocess.PIPE, text=True, env=_ENV, timeout=60)
    assert proc.stdout == "False\n"


def test_the_parser_names_the_suites_of_checks():
    from hlf import cli
    assert cli._SUITES == SUITES


def test_an_unknown_suite_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "bogus"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.endswith("hlf check: error: argument suite: invalid choice: "
                        "'bogus' (choose from 'axioms', 'topology', "
                        "'counterexamples', 'points', 'weil')\n")


# --- one parser per process ---------------------------------------------------

def query_argvs(tmp_path):
    """One argv for each of the ten query subcommands, and one more
    points-converge whose coordinate 0 diverges."""
    def put(name, data):
        p = tmp_path / name
        p.write_text(json.dumps(data))
        return str(p)
    ball = [open_file(tmp_path, "B%d.json" % d, deep_ball(F5UT, d))
            for d in range(3)]
    hyp = put("hyp.json", HYP_DATA)
    p1 = put("p1.json", P1_DATA)
    sext = put("sext.json", SEXT_DATA)
    hyp3 = put("hyp3.json", HYP3_DATA)
    f = "Fq(5)((u))((t))"
    return {
        "valuation": ["val", "--field", "Qp(3){{t}}", "--elem",
                      "3*t^-7 + t^2", "--rank", "2"],
        "member": ["member", "--elem", "t^-5", "--open", ball[2]],
        "converge": ["converge", "--field", f, "--seq", "t^(-1)*u^(n)",
                     "--limit", "0", "--topology", "higher"],
        "units": ["units", "--field", f, "--seq", "1 + t^(-1)*u^(n)",
                  "--limit", "1", "--topology", "parshin"],
        "points-member": ["points-member", "--scheme", hyp,
                          "--elem", "u, u^-1"],
        "points-map": ["points-map", "--scheme", p1, "--elem", "u",
                       "--chart", "0", "--to-chart", "1"],
        "points-converge": ["points-converge", "--scheme", hyp,
                            "--seq", "1 + t^(n),(1)/(1 + t^(n))",
                            "--limit", "1,1"],
        "points-converge-early": ["points-converge", "--scheme", hyp3,
                                  "--seq", EARLY_SEQ, "--limit", "1,1"],
        "weil": ["weil", "--scheme", sext, "--elem", "u,1"],
        "witness-subgroup": ["witness-subgroup", "--open", ball[2]],
        "witness-product": ["witness-product", "--open", ball[0],
                            "--open", ball[1], "--open", ball[2]],
    }


def in_process(capsys, argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


@pytest.mark.parametrize("kind", ["valuation", "member", "converge", "units",
                                  "points-member", "points-map",
                                  "points-converge", "weil",
                                  "witness-subgroup", "witness-product"])
def test_in_process_matches_a_fresh_process(kind, tmp_path, capsys):
    argv = query_argvs(tmp_path)[kind]
    for extra in ([], ["--json"]):
        got = in_process(capsys, argv + extra)
        assert got == fresh(*argv, *extra)
        assert got[0] == 0 and got[1]


def test_witness_product_opens_do_not_accumulate(tmp_path, capsys):
    ball = [open_file(tmp_path, "B%d.json" % d, deep_ball(F5UT, d))
            for d in range(3)]
    first = ["witness-product", "--open", ball[0], "--open", ball[1],
             "--open", ball[2]]
    second = ["witness-product", "--open", ball[2], "--open", ball[2],
              "--open", ball[1]]
    for argv in (first, second, first):
        code, out = in_process(capsys, argv)
        assert (code, out) == fresh(*argv)
        assert out.startswith("checked\n")


def test_a_usage_error_leaves_the_next_call_alone(tmp_path, capsys):
    ball = open_file(tmp_path, "B.json", deep_ball(F5UT, 2))
    val = ["val", "--field", "Qp(3){{t}}", "--elem", "3*t^-7 + t^2"]
    product = ["witness-product", "--open", ball, "--open", ball,
               "--open", ball]
    before = [in_process(capsys, val), in_process(capsys, product)]
    for bad in (["val", "--field", "Qp(3){{t}}"],
                ["witness-product", "--open", ball, "--open", ball, "--nope"],
                ["converge", "--field", "Qp(3)((t))", "--seq", "t^(n)",
                 "--topology", "sideways"]):
        with pytest.raises(SystemExit) as exc:
            main(bad)
        assert exc.value.code == 2
        capsys.readouterr()
        assert [in_process(capsys, val), in_process(capsys, product)] == before
    assert before[0] == (0, "(2, 0)\n")


def test_repeated_queries_share_one_parser(deadline, capsys):
    argv = ["val", "--field", "Qp(3){{t}}", "--elem", "3*t^-7 + t^2"]
    main(argv)
    with deadline(0.5):
        for _ in range(500):
            main(argv)
    assert capsys.readouterr().out == "(2, 0)\n" * 501


# --- a subcommand's parser reads its arguments directly ----------------------

def _top_level(argv, capsys):
    """Exit code and output of the full top-level argparse pass."""
    from hlf import cli
    with pytest.raises(SystemExit) as exc:
        cli._build_parser()[0].parse_args(argv)
    return exc.value.code, capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["val", "--field", "Qp(3){{t}}", "--elem", "t", "--bogus"],
    ["valuation", "--field", "Q", "--elem", "1", "--rank", "1", "x", "-z"],
    ["converge", "--field", "Qp(3)((t))", "--seq", "t^n", "--nope", "3"],
    ["witness-product", "--open", "a.json", "--open"],
    ["check", "axioms", "--seed", "x"],
    ["run"],
    ["val", "--field", "Q"],
    [],
    ["bogus", "--field", "Q"],
    ["--json", "val"],
])
def test_a_usage_error_reads_as_the_top_level_pass(argv, capsys):
    code, want = _top_level(argv, capsys)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == code == 2
    assert capsys.readouterr() == want


def test_an_unknown_flag_is_the_top_level_parsers_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["val", "--field", "Q", "--elem", "1", "--bogus", "x"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: hlf [-h]")
    assert err.endswith("\nhlf: error: unrecognized arguments: --bogus x\n")


@pytest.mark.parametrize("argv", [["--help"], ["val", "--help"],
                                  ["weil", "-h"], ["check", "--help"]])
def test_help_reads_as_the_top_level_pass(argv, capsys):
    code, want = _top_level(argv, capsys)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == code == 0
    assert capsys.readouterr() == want


def test_a_subcommand_gets_the_namespace_of_the_top_level_pass(tmp_path):
    from hlf import cli
    ap = cli._build_parser()[0]
    argvs = list(query_argvs(tmp_path).values()) + [
        ["check", "axioms", "--seed", "3"], ["run", "job.json", "--json"],
        ["val", "--elem", "t", "--field", "Q", "--json"]]
    for argv in argvs:
        assert list(vars(cli._parse_args(argv)).items()) \
            == list(vars(ap.parse_args(argv)).items())


def test_a_subcommand_skips_the_top_level_pass(monkeypatch, capsys):
    import argparse
    calls = []
    parse_args = argparse.ArgumentParser.parse_args

    def counted(self, *args, **kw):
        calls.append(self.prog)
        return parse_args(self, *args, **kw)
    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", counted)
    assert run(capsys, "val", "--field", "Qp(3){{t}}",
               "--elem", "3*t^-7") == (0, "(-7, 1)")
    assert calls == []


def test_the_restricted_presentation_is_rendered_once(tmp_path, capsys,
                                                      monkeypatch):
    from hlf.points import Poly
    argv = query_argvs(tmp_path)["weil"]
    texts = []
    text = Poly.text

    def counted(self):
        texts.append(1)
        return text(self)
    monkeypatch.setattr(Poly, "text", counted)
    first = in_process(capsys, argv + ["--json"])
    assert texts
    texts.clear()
    assert in_process(capsys, argv + ["--json"]) == first
    assert in_process(capsys, argv)[0] == 0
    assert texts == []


# --- each distinct file content is built once per process --------------------

_FILE_KINDS = ["member", "points-member", "points-map", "points-converge",
               "weil", "witness-subgroup", "witness-product"]


@pytest.mark.parametrize("kind", _FILE_KINDS)
def test_a_file_read_twice_answers_the_same_bytes(kind, tmp_path, capsys):
    from hlf import cli
    argv = query_argvs(tmp_path)[kind]
    for extra in ([], ["--json"]):
        first = in_process(capsys, argv + extra)
        hits = cli._built.cache_info().hits
        second = in_process(capsys, argv + extra)
        # the second call builds nothing
        assert cli._built.cache_info().hits > hits
        assert first == second == fresh(*argv, *extra)
        assert first[0] == 0 and first[1]


def test_a_rewritten_file_is_loaded_anew(tmp_path, capsys):
    hyp = tmp_path / "hyp.json"
    member = ["points-member", "--scheme", str(hyp), "--elem", "u, 2*u^-1"]
    ball = tmp_path / "U.json"
    inside = ["member", "--elem", "t^-5", "--open", str(ball)]
    for k, answer in ((1, "NO"), (2, "YES"), (1, "NO")):
        hyp.write_text(json.dumps(dict(HYP_DATA, gens=["X*Y - %d" % k])))
        assert in_process(capsys, member) == (0, answer + "\n")
    for depth, answer in ((2, "NO"), (-6, "YES"), (2, "NO")):
        ball.write_text(json.dumps({"field": "Fq(5)((u))((t))",
                                    "open": deep_ball(F5UT, depth).to_data()}))
        assert in_process(capsys, inside) == (0, answer + "\n")


def test_a_malformed_file_fails_on_every_call_until_mended(tmp_path, capsys):
    path = tmp_path / "hyp.json"
    path.write_text(json.dumps(dict(HYP_DATA, gens=[1])))
    member = ["points-member", "--scheme", str(path), "--elem", "u, u^-1"]
    weil = ["weil", "--scheme", str(path)]
    for argv, message in (
            (member, "error: scheme 'gens' must be a list of strings, "
                     "not [1]\n"),
            (weil, "error: scheme 'gens' must be a list of strings, "
                   "not [1]\n")):
        for _ in range(3):
            assert main(argv) == 2
            assert capsys.readouterr() == ("", message)
    path.write_text(json.dumps(HYP_DATA))
    assert in_process(capsys, member) == (0, "YES\n")
    for _ in range(2):
        assert main(weil) == 2
        assert capsys.readouterr().err == \
            "error: weil needs a scalar extension scheme file\n"


#: sha256 of the stdout of `hlf run` on shared_job(), as every task loaded
#: its files afresh before loads were kept per content
SHARED_JOB_SHA256 = \
    "d6c13eb8c9a512c221ac6411251e36cec49c52bfa298b59ac12457c7375cf19a"


def shared_job(tmp_path):
    """Tasks that name one open file, one inline open object, one scheme
    file and one inline scheme object several times each."""
    ball = open_file(tmp_path, "B.json", deep_ball(F5UT, 2))
    sext = tmp_path / "sext.json"
    sext.write_text(json.dumps(SEXT_DATA))
    inline = {"field": "Fq(5)((u))((t))", "open": deep_ball(F5UT, 1).to_data()}
    tasks = []
    for i, elem in enumerate(("t^-5", "0", "u*t^3")):
        tasks += [
            {"id": "file-%d" % i, "kind": "member", "elem": elem,
             "open": ball},
            {"id": "inline-%d" % i, "kind": "member", "elem": elem,
             "open": inline},
            {"id": "product-%d" % i, "kind": "witness-product",
             "open": [inline, ball, ball]},
            {"id": "weil-%d" % i, "kind": "weil", "scheme": str(sext),
             "elem": "u,%d" % i},
            {"id": "sext-%d" % i, "kind": "points-member",
             "scheme": str(sext), "elem": "u,%d" % i},
            {"id": "hyp-%d" % i, "kind": "points-member", "scheme": HYP_DATA,
             "elem": "u^%d, u^-%d" % (i, i), "expect": "YES"},
        ]
    job = tmp_path / "job.json"
    job.write_text(json.dumps({"tasks": tasks}))
    return str(job)


def test_a_job_sharing_files_reports_the_same_bytes(tmp_path, capsys):
    job = shared_job(tmp_path)
    first = in_process(capsys, ["run", job])
    assert in_process(capsys, ["run", job]) == first == fresh("run", job)
    assert first[0] == 0
    assert hashlib.sha256(first[1].encode()).hexdigest() == SHARED_JOB_SHA256


def test_more_files_than_the_bound_still_answer(tmp_path, capsys):
    from hlf import cli
    paths = []
    for k in range(1, cli._BUILT_MAX + 7):
        p = tmp_path / ("hyp%d.json" % k)
        p.write_text(json.dumps(dict(HYP_DATA, gens=["X*Y - %d" % k])))
        paths.append(str(p))
    for _ in range(2):
        for k, path in enumerate(paths, 1):
            for j, answer in ((k, "YES"), (k + 1, "NO")):
                argv = ["points-member", "--scheme", path,
                        "--elem", "u, %d*u^-1" % j]
                assert in_process(capsys, argv) == (0, answer + "\n")
        assert cli._built.cache_info().currsize <= cli._BUILT_MAX


# --- a query computes only what it prints -------------------------------------

#: sha256 of the --json stdout of the points-converge-early query, and of
#: `hlf run` on early_job(), both taken before human mode stopped at the
#: first diverging coordinate
EARLY_JSON_SHA256 = \
    "c648008a2b28b9351922830c33a04f9ee54e67efa1f592210cc284bb0b1286a6"
EARLY_JOB_SHA256 = \
    "073c2c8d38ed7e008a5905f594666ee13018627db69e16a4046b7c11426ddbb1"


def early_job(tmp_path):
    job = tmp_path / "early-job.json"
    job.write_text(json.dumps({"tasks": [
        {"id": "early", "kind": "points-converge",
         "scheme": str(tmp_path / "hyp3.json"), "seq": EARLY_SEQ,
         "limit": "1,1", "expect": "DIVERGES (coordinate 0)"}]}))
    return str(job)


def test_an_early_divergence_reports_every_coordinate(tmp_path, capsys):
    argv = query_argvs(tmp_path)["points-converge-early"]
    assert in_process(capsys, argv) == fresh(*argv) \
        == (0, "DIVERGES (coordinate 0)\n")
    code, out = in_process(capsys, argv + ["--json"])
    assert (code, out) == fresh(*argv, "--json")
    assert hashlib.sha256(out.encode()).hexdigest() == EARLY_JSON_SHA256
    rep = json.loads(out)
    assert rep["against"] == 0
    assert [c["verdict"] for c in rep["coordinates"]] == ["DIVERGES"] * 2
    job = early_job(tmp_path)
    code, out = in_process(capsys, ["run", job])
    assert (code, out) == fresh("run", job)
    assert hashlib.sha256(out.encode()).hexdigest() == EARLY_JOB_SHA256


def _count_decisions(monkeypatch):
    from hlf import points
    calls = []
    real = points.converges

    def counted(*args, **kw):
        calls.append(1)
        return real(*args, **kw)
    monkeypatch.setattr(points, "converges", counted)
    return calls


def test_human_mode_stops_at_the_first_diverging_coordinate(
        tmp_path, capsys, monkeypatch):
    argv = query_argvs(tmp_path)["points-converge-early"]
    calls = _count_decisions(monkeypatch)
    for extra, want in (([], 1), (["--json"], 2)):
        calls.clear()
        assert in_process(capsys, argv + extra)[0] == 0
        assert len(calls) == want
    calls.clear()
    assert in_process(capsys, ["run", early_job(tmp_path)])[0] == 0
    assert len(calls) == 2


def test_an_error_in_a_later_coordinate_shows_only_in_the_report(
        tmp_path, capsys, monkeypatch):
    # no input is known whose coordinate 1 raises once coordinate 0
    # diverges, so the second decision is made to raise
    from hlf import points
    from hlf.errors import UnsupportedFamilyError
    argv = query_argvs(tmp_path)["points-converge-early"]
    calls = _count_decisions(monkeypatch)
    counted = points.converges

    def second_raises(*args, **kw):
        if len(calls) == 1:
            raise UnsupportedFamilyError("coordinate 1 refused")
        return counted(*args, **kw)
    monkeypatch.setattr(points, "converges", second_raises)
    for extra, want in (([], (0, "DIVERGES (coordinate 0)\n", "")),
                        (["--json"], (2, "", "error: coordinate 1 refused\n"))):
        calls.clear()
        assert main(argv + extra) == want[0]
        assert tuple(capsys.readouterr()) == want[1:]
    calls.clear()
    assert main(["run", early_job(tmp_path)]) == 2
    assert json.loads(capsys.readouterr().out)["tasks"] == [
        {"id": "early", "kind": "points-converge",
         "error": "coordinate 1 refused"}]


def test_human_mode_builds_no_report(tmp_path, capsys, monkeypatch):
    import inspect
    from hlf import convergence, opens, points
    argvs = query_argvs(tmp_path)  # writing the open files calls to_data
    made = []

    def counted(name, real):
        def to_data(self):
            made.append(name)
            return real(self)
        return to_data
    for mod in (convergence, opens, points):
        for name, cls in inspect.getmembers(mod, inspect.isclass):
            if "to_data" in vars(cls):
                monkeypatch.setattr(cls, "to_data",
                                    counted(name, vars(cls)["to_data"]))
    for kind in ("member", "converge", "witness-subgroup"):
        assert in_process(capsys, argvs[kind])[0] == 0
        assert made == [], kind
        assert in_process(capsys, argvs[kind] + ["--json"])[0] == 0
        assert made, kind
        made.clear()
