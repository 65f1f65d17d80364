"""Command line front end.

Single queries print a short answer line by default and a JSON report with
--json; job files and check suites always print JSON.  Reports use sorted
keys so identical inputs and seeds give identical bytes; wall time goes to
stderr only.  Exit codes: 0 all pass, 1 expectation or property failure,
2 input error, 141 stdout closed before the output was written (as a
shell reports a process killed by SIGPIPE).

main() may be called many times in one process.  Every call reads its
files again, but an open or scheme file is parsed, built and checked once
per process for each distinct content (path and text, or the JSON text of
an inline job object), a scalar extension together with its Weil
restriction; at most _BUILT_MAX = 64 contents stay built, the least
recently used dropped first.  When the first argument names a
subcommand, that subcommand's parser reads the rest directly, without the
top-level pass, which gives the same namespace, usage errors and exit
codes.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import reprlib
import sys
import time
from gettext import gettext

from .convergence import DIVERGES, converges, unit_converges
from .errors import HlfError, ParseError
from .fields import parse_field
from .opens import open_from_data, product_escape_witness, \
    subgroup_escape_witness
from .parsing import parse_element
from .points import (ChartedScheme, OUT_OF_CHART, Point, PointSeqFamily,
                     member_points, point_seq_converges,
                     presentation_from_data, scheme_from_data)
from .sequences import parse_family
from .valuation import rank_valuation
from .weil import ScalarExtPresentation, scalar_ext_from_data, weil_restrict


#: checks.SUITES, named here so that building the parser leaves hlf.checks
#: unimported until a check runs
_SUITES = ("axioms", "topology", "counterexamples", "points", "weil")

#: the inputs that parsers read as text, with the name of what each holds
_TEXT_INPUTS = {"field": "a field descriptor", "elem": "an element",
                "seq": "a sequence", "limit": "a limit",
                "topology": "a topology"}

#: distinct open and scheme file contents kept built at once
_BUILT_MAX = 64


def _check_text(inp):
    """A job task's text inputs are strings, checked before any parser."""
    for key, what in _TEXT_INPUTS.items():
        v = inp.get(key)
        if v is not None and not isinstance(v, str):
            raise ParseError("%s must be a string, not %s"
                             % (what, reprlib.repr(v)))


def _topology(inp, allowed, message):
    topo = inp.get("topology") or "higher"
    if topo not in allowed:
        raise ParseError(message)
    return topo


def _need(inp, key):
    v = inp.get(key)
    if v is None:
        raise ParseError("missing required input %r" % key)
    return v


def _read_spec(spec):
    """(path, text) of a file path or an @file path, read on every call, or
    (None, its JSON text) of inline data."""
    if isinstance(spec, dict):
        return None, json.dumps(spec)
    if not isinstance(spec, str):
        raise ParseError("expected a file path or an object, not %s"
                         % reprlib.repr(spec))
    path = spec[1:] if spec.startswith("@") else spec
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return path, fh.read()
    except (OSError, UnicodeDecodeError) as err:
        raise ParseError("cannot read %s: %s" % (path, err))


def _parse_object(path, text):
    try:
        data = json.loads(text)
    except ValueError as err:  # bad JSON, or an int past the digit limit
        raise ParseError("%s is not valid JSON: %s" % (path, err))
    if not isinstance(data, dict):
        raise ParseError("%s must hold an object, not %s"
                         % (path, reprlib.repr(data)))
    return data


@functools.lru_cache(maxsize=_BUILT_MAX)
def _built(kind, path, text, field_text=None):
    """What a file of this content holds, parsed, built and checked once per
    distinct (kind, path, text, field_text): (field, open) for "open", the
    presentation or scheme for "scheme", and for "weil" Y, weil_restrict(Y)
    and the restricted generators' texts with the V(...) in A^n line.
    A load that fails raises again on the next call: lru_cache keeps no
    exception.  Every caller gets the same objects and none mutates them."""
    if kind == "weil":
        Y = _built("scheme", path, text)
        if not isinstance(Y, ScalarExtPresentation):
            raise ParseError("weil needs a scalar extension scheme file")
        W = weil_restrict(Y)
        pres = W.presentation
        gens = tuple(g.text() for g in pres.gens)
        return Y, W, gens, "V(%s) in A^%d" % (", ".join(gens) or "0",
                                              pres.arity)
    data = _parse_object(path, text)
    if kind == "open":
        own = data.get("field")
        ftext = own or field_text
        if ftext is None:
            raise ParseError("open descriptor carries no field")
        field = parse_field(ftext)
        if own and field_text not in (None, own) \
                and parse_field(field_text) != field:
            raise ParseError("the open lives over %s, not over the given "
                             "field %s" % (own, field_text))
        return field, open_from_data(field, data.get("open", data))
    if "charts" in data:
        return scheme_from_data(data)
    if "theta" in data:
        return scalar_ext_from_data(data)
    return presentation_from_data(data)


def _load_open(spec, field_text=None):
    return _built("open", *_read_spec(spec), field_text)


def _load_scheme(spec):
    return _built("scheme", *_read_spec(spec))


def _split_coords(field, text):
    return tuple(parse_element(field, part) for part in text.split(","))


def _int_input(inp, key):
    """inp[key], None when absent, refused unless it is an int (not a bool):
    a job file may hold any JSON value there."""
    v = inp.get(key)
    if v is not None and (isinstance(v, bool) or not isinstance(v, int)):
        raise ParseError("%r must be an integer, not %s"
                         % (key, reprlib.repr(v)))
    return v


def _chart_index(X, inp, key):
    """The chart of X that inp[key] names, chart 0 when absent."""
    i = _int_input(inp, key) or 0
    if not 0 <= i < len(X.charts):
        raise ParseError("%s %d names no chart among 0..%d"
                         % (key, i, len(X.charts) - 1))
    return i


def _chart_presentation(X, inp):
    if isinstance(X, ChartedScheme):
        return X.charts[_chart_index(X, inp, "chart")]
    return X


# --- task handlers ------------------------------------------------------------
#
# Each handler returns (report, exit code, answer line).  report() builds the
# JSON report; only --json and job files call it, so an answer line costs no
# report.

def _task_valuation(inp):
    f = parse_field(_need(inp, "field"))
    x = parse_element(f, _need(inp, "elem"))
    r = _int_input(inp, "rank")
    v = rank_valuation(x, r)

    def report():
        rep = {"task": "valuation", "field": inp["field"],
               "elem": inp["elem"], "valuation": list(v)}
        if r is not None:
            rep["rank"] = r
        return rep
    return report, 0, repr(tuple(v))


def _task_member(inp):
    field, U = _load_open(_need(inp, "open"), inp.get("field"))
    x = parse_element(field, _need(inp, "elem"))
    ans = "YES" if U.contains(x) else "NO"
    return lambda: {"task": "member", "field": repr(field),
                    "elem": inp["elem"], "open": U.to_data(),
                    "answer": ans}, 0, ans


def _task_converge(inp):
    f = parse_field(_need(inp, "field"))
    fam = parse_family(f, _need(inp, "seq"))
    limit = inp.get("limit")
    L = parse_element(f, limit) if limit is not None else None
    topo = _topology(inp, ("higher", "valuation", "parshin"),
                     "topology is 'higher', 'valuation' or 'parshin'")
    if topo == "parshin":
        if L is None or L.is_zero():
            raise ParseError("the parshin topology lives on units; "
                             "pass a nonzero --limit")
        v = unit_converges(fam, L, route="decomposition")
    else:
        v = converges(fam, limit=L, topology=topo)

    def report():
        rep = {"task": "converge", "field": inp["field"], "seq": inp["seq"],
               "topology": topo}
        if limit is not None:
            rep["limit"] = limit
        rep.update(v.to_data())
        return rep
    return report, 0, _verdict_lines(v)


def _task_units(inp):
    f = parse_field(_need(inp, "field"))
    fam = parse_family(f, _need(inp, "seq"))
    L = parse_element(f, _need(inp, "limit"))
    topo = _topology(inp, ("higher", "parshin"),
                     "the units task answers the higher and parshin "
                     "readings only")
    route = "decomposition" if topo == "parshin" else "ratio"
    v = unit_converges(fam, L, route=route)
    return lambda: {"task": "units", "field": inp["field"], "seq": inp["seq"],
                    "limit": inp["limit"], "route": route,
                    **v.to_data()}, 0, _verdict_lines(v)


def _verdict_lines(v):
    out = [v.kind]
    if v.certificate is not None:
        out.append("certificate: %r" % v.certificate)
    if v.witness is not None:
        out.append("witness: %r" % v.witness)
    if v.reason is not None:
        out.append("reason: %s" % v.reason)
    return "\n".join(out)


def _task_points_member(inp):
    X = _load_scheme(_need(inp, "scheme"))
    if isinstance(X, ScalarExtPresentation):
        coords = _scalar_coords(X, _need(inp, "elem"))
        ans = X.member(coords)
    else:
        pres = _chart_presentation(X, inp)
        coords = _split_coords(pres.ring.field, _need(inp, "elem"))
        ans = member_points(pres, coords)
    return lambda: {"task": "points-member", "elem": inp["elem"],
                    "answer": ans}, 0, ans


def _scalar_coords(Y, text):
    f = Y.ext.ring.field
    out = []
    for part in text.split(";"):
        comps = _split_coords(f, part)
        out.append(Y.ext.scalar(comps))
    return tuple(out)


def _task_points_map(inp):
    X = _load_scheme(_need(inp, "scheme"))
    if not isinstance(X, ChartedScheme):
        raise ParseError("points-map needs a charted scheme file")
    _need(inp, "chart"), _need(inp, "to_chart")
    i = _chart_index(X, inp, "chart")
    j = _chart_index(X, inp, "to_chart")
    coords = _split_coords(X.ring.field, _need(inp, "elem"))
    res = X.transfer(Point(coords, chart=i), j)
    if res == OUT_OF_CHART:
        return lambda: {"task": "points-map", "result": OUT_OF_CHART}, 0, \
            OUT_OF_CHART
    coords = [str(c) for c in res.coords]
    return lambda: {"task": "points-map", "chart": j, "coords": coords}, 0, \
        "(%s)@%d" % (", ".join(coords), j)


def _task_points_converge(inp):
    X = _load_scheme(_need(inp, "scheme"))
    pres = _chart_presentation(X, inp)
    f = pres.ring.field
    fams = tuple(parse_family(f, part)
                 for part in _need(inp, "seq").split(","))
    coords = _split_coords(f, _need(inp, "limit"))
    v = point_seq_converges(pres, PointSeqFamily(fams, Point(coords)))
    human = v.kind
    if v.kind == DIVERGES and v.against is not None:
        human += " (coordinate %d)" % v.against
    return lambda: {"task": "points-converge", "seq": inp["seq"],
                    "limit": inp["limit"], **v.to_data()}, 0, human


def _task_weil(inp):
    Y, W, gens, head = _built("weil", *_read_spec(_need(inp, "scheme")))
    pres = W.presentation
    rep = {"task": "weil", "ring": pres.ring.describe(),
           "vars": list(pres.variables), "gens": list(gens)}
    lines = [head]
    if inp.get("elem") is not None:
        coords = _scalar_coords(Y, inp["elem"])
        x = W.encode(coords)
        rep["encoded"] = [str(c) for c in x.coords]
        rep["member_source"] = Y.member(coords)
        rep["member_restricted"] = member_points(pres, x.coords)
        lines.append("encoded: (%s)" % ", ".join(rep["encoded"]))
        lines.append("member: %s / %s" % (rep["member_source"],
                                          rep["member_restricted"]))
    return lambda: rep, 0, "\n".join(lines)


def _task_witness_subgroup(inp):
    spec = _need(inp, "open")
    if isinstance(spec, list):
        if len(spec) != 1:
            raise ParseError("witness-subgroup takes one open")
        spec = spec[0]
    field, U = _load_open(spec, inp.get("field"))
    return _witness_answer("witness-subgroup", subgroup_escape_witness(U))


def _task_witness_product(inp):
    spec = _need(inp, "open")
    if not isinstance(spec, list) or len(spec) != 3:
        raise ParseError("witness-product takes three opens: two factors "
                         "and the target")
    loaded = [_load_open(s, inp.get("field")) for s in spec]
    fields = [f for f, _ in loaded]
    if fields[1] != fields[0] or fields[2] != fields[0]:
        raise ParseError("the three opens live over different fields")
    V1, V2, W = (U for _, U in loaded)
    return _witness_answer("witness-product", product_escape_witness(V1, V2, W))


def _witness_answer(task, w):
    if w is None:
        return lambda: {"task": task, "witness": None}, 1, "NONE"
    ok = w.checked()
    human = "%s\n%s" % ("checked" if ok else "FAILED",
                        ", ".join(str(e) for e in w.elems))
    return lambda: {"task": task, "witness": w.to_data(), "checked": ok}, \
        0 if ok else 1, human


_HANDLERS = {"valuation": _task_valuation, "member": _task_member,
             "converge": _task_converge, "units": _task_units,
             "points-member": _task_points_member,
             "points-map": _task_points_map,
             "points-converge": _task_points_converge,
             "weil": _task_weil,
             "witness-subgroup": _task_witness_subgroup,
             "witness-product": _task_witness_product}


# --- commands -----------------------------------------------------------------

def _emit(args, report, human):
    if getattr(args, "json", False):
        print(json.dumps(report(), indent=2, sort_keys=True))
    else:
        print(human)


def _cmd_single(kind):
    def run(args):
        report, code, human = _HANDLERS[kind](vars(args))
        _emit(args, report, human)
        return code
    return run


def _cmd_check(args):
    from . import checks
    seed = args.seed
    t0 = time.time()
    suites, spent = [], []
    for name in [args.suite] if args.suite else checks.SUITES:
        t = time.time()
        suites.append(checks.run_suite(name, seed, args.battery_size))
        spent.append("%s %.2fs" % (name, time.time() - t))
    rep = suites[0] if args.suite else checks.combine(seed, args.battery_size, suites)
    print(json.dumps(rep, indent=2, sort_keys=True))
    print("completed in %.1fs (%s)" % (time.time() - t0, ", ".join(spent)),
          file=sys.stderr)
    return 0 if rep["ok"] else 1


def _cmd_run(args):
    data = _parse_object(*_read_spec(args.job))
    tasks = data.get("tasks")
    if not isinstance(tasks, list):
        raise ParseError("a job file holds a list under 'tasks'")
    for t in tasks:
        if not isinstance(t, dict):
            raise ParseError("a task must be an object, not %s" % reprlib.repr(t))
    ids = [t.get("id") for t in tasks]
    for i in ids:
        if i is not None and type(i) not in (str, int):
            raise ParseError("a task id is a string or an integer, not %s"
                             % reprlib.repr(i))
    if None in ids or len(set(ids)) != len(ids):
        raise ParseError("task ids must be present and unique")
    entries, worst = [], 0
    t0 = time.time()
    for t in tasks:
        kind = t.get("kind")
        if not isinstance(kind, str) or kind not in _HANDLERS:
            raise ParseError("task %r has unknown kind %r" % (t["id"], kind))
        try:
            _check_text(t)
            report, code, human = _HANDLERS[kind](t)
            rep = report()
        except HlfError as err:
            entries.append({"id": t["id"], "kind": kind, "error": str(err)})
            worst = 2
            continue
        entry = {"id": t["id"], "kind": kind, "report": rep}
        if "expect" in t:
            entry["pass"] = human.splitlines()[0] == t["expect"]
            if not entry["pass"]:
                worst = max(worst, 1)
        worst = max(worst, code)
        entries.append(entry)
    print(json.dumps({"tasks": entries, "ok": worst == 0},
                     indent=2, sort_keys=True))
    print("completed in %.1fs" % (time.time() - t0), file=sys.stderr)
    return worst


@functools.cache  # parse_args leaves the parser as it found it
def _build_parser():
    """The top-level parser and its subcommand parsers by name, aliases
    included."""
    ap = argparse.ArgumentParser(
        prog="hlf",
        description="Exact arithmetic, topology and rational point checks "
                    "over higher local fields.")
    sub = ap.add_subparsers(dest="command", required=True)

    def task(name, aliases=(), **flags):
        p = sub.add_parser(name, aliases=list(aliases))
        for flag, kw in flags.items():
            p.add_argument("--" + flag.replace("_", "-"), dest=flag, **kw)
        p.add_argument("--json", action="store_true",
                       help="print the full JSON report")
        return p

    kinds = {"valuation": ("val",), "member": (), "converge": (),
             "units": (), "points-member": (), "points-map": (),
             "points-converge": (), "weil": (), "witness-subgroup": (),
             "witness-product": ()}
    flagsets = {
        "valuation": dict(field=dict(required=True), elem=dict(required=True),
                          rank=dict(type=int)),
        "member": dict(field=dict(), elem=dict(required=True),
                       open=dict(required=True)),
        "converge": dict(field=dict(required=True), seq=dict(required=True),
                         limit=dict(),
                         topology=dict(choices=("higher", "valuation",
                                                "parshin"))),
        "units": dict(field=dict(required=True), seq=dict(required=True),
                      limit=dict(required=True),
                      topology=dict(choices=("higher", "parshin"))),
        "points-member": dict(scheme=dict(required=True),
                              elem=dict(required=True), chart=dict(type=int)),
        "points-map": dict(scheme=dict(required=True),
                           elem=dict(required=True),
                           chart=dict(type=int, required=True),
                           to_chart=dict(type=int, required=True)),
        "points-converge": dict(scheme=dict(required=True),
                                seq=dict(required=True),
                                limit=dict(required=True),
                                chart=dict(type=int)),
        "weil": dict(scheme=dict(required=True), elem=dict()),
        "witness-subgroup": dict(field=dict(), open=dict(required=True)),
        "witness-product": dict(field=dict(),
                                open=dict(required=True, action="append")),
    }
    for kind, aliases in kinds.items():
        p = task(kind, aliases, **flagsets[kind])
        p.set_defaults(fn=_cmd_single(kind))

    pc = sub.add_parser("check")
    pc.add_argument("suite", nargs="?", choices=_SUITES)
    pc.add_argument("--seed", type=int, default=0)
    pc.add_argument("--battery-size", dest="battery_size", type=int,
                    default=100)
    pc.add_argument("--json", action="store_true")
    pc.set_defaults(fn=_cmd_check)

    pr = sub.add_parser("run")
    pr.add_argument("job")
    pr.add_argument("--json", action="store_true")
    pr.set_defaults(fn=_cmd_run)
    return ap, sub.choices


def _parse_args(argv):
    """What the top-level parser gives for argv.  When argv[0] names a
    subcommand, its parser reads the rest directly, as the top-level pass
    would hand it over; leftovers are still the top-level parser's error."""
    ap, subcommands = _build_parser()
    sub = subcommands.get(argv[0]) if argv else None
    if sub is None:
        return ap.parse_args(argv)
    args, extra = sub.parse_known_args(argv[1:],
                                       argparse.Namespace(command=argv[0]))
    if extra:
        ap.error(gettext("unrecognized arguments: %s") % " ".join(extra))
    return args


def main(argv=None):
    args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    try:
        return args.fn(args)
    except HlfError as err:
        print("error: %s" % err, file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader went away; point stdout at devnull so the flush at
        # exit does not raise a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
