"""One workload in a fresh, single-threaded process.

Started by run.py, never imported.  It imports hlf cold, builds the
workload's inputs from the seed, runs the closed loop (one op at a time,
each after the previous one finished) and prints one JSON object with its
set-up times, per-op records and, when traced, the per-layer aggregates.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402

# a depth op that takes longer than this is stopped and counted as failed;
# the slowest op takes ~1 s at the commit that defined the benchmark.  The
# traced pass runs slower under its wrappers and gets a longer limit.
OP_LIMIT_S = 10
TRACED_LIMIT_FACTOR = 4


class OpTimeout(BaseException):
    """Raised from SIGALRM; a BaseException so no handler inside hlf
    swallows it."""


def _on_alarm(signum, frame):
    raise OpTimeout()


def _sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# --- set-up -------------------------------------------------------------------

IMPORTS = {"suites": ("hlf.checks",),
           "queries": ("hlf.cli",),
           "depth": ("hlf.fields", "hlf.parsing", "hlf.expansion",
                     "hlf.opens", "hlf.valuation")}


def setup_suites(args, sizes):
    return {}


def setup_queries(args, sizes):
    workdir = os.path.join(HERE, "out", "work-%d" % os.getpid())
    files = W.write_query_files(workdir)
    return {"workdir": workdir, "files": files,
            "stream": W.query_stream(args.seed, 0, sizes, files)}


def setup_depth(args, sizes):
    return {"ops": parsed_sweep(args.seed, 0, sizes)}


def parsed_sweep(seed, pass_no, sizes):
    from hlf.fields import parse_field
    from hlf.parsing import parse_element
    fields = {}
    ops = W.depth_sweep(seed, pass_no, sizes)
    for op in ops:
        if op.field not in fields:
            fields[op.field] = parse_field(op.field)
        op.x = parse_element(fields[op.field], op.elem)
    return ops


# --- passes -------------------------------------------------------------------
#
# Every pass draws fresh inputs of the same sizes and shapes from the seed
# and the pass number, so no pass replays another's inputs.  Pass 0's are
# made during set-up; later ones between passes, outside any timed op.

def suite_pass(ctx, args, sizes, pass_no):
    return [("suite", name, W.suite_seed(args.seed, pass_no))
            for name in W.SUITE_NAMES]


def run_suite_op(item, ctx, args, sizes, tracer):
    from hlf import checks
    _, name, seed = item
    t0 = time.perf_counter()
    rep = checks.run_suite(name, seed, sizes.battery)
    s = time.perf_counter() - t0
    count = sum(c["count"] for c in rep["checks"])
    failed = sum(c["count"] for c in rep["checks"] if c["failed"])
    return {"label": name, "s": s, "units": count, "failed_units": failed,
            "ok": failed == 0, "seed": seed,
            "sha256": _sha(json.dumps(rep, indent=2, sort_keys=True))}


def query_pass(ctx, args, sizes, pass_no):
    if pass_no:
        ctx["stream"] = W.query_stream(args.seed, pass_no, sizes,
                                       ctx["files"])
    ctx.setdefault("keys", []).extend(q.key() for q in ctx["stream"])
    return list(enumerate(ctx["stream"]))


def run_query_op(item, ctx, args, sizes, tracer):
    from hlf import cli
    index, q = item
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(q.argv)
        error = None
    except Exception as exc:  # a raised error is a failed op, not a crash
        code, error = None, "%s: %s" % (type(exc).__name__, exc)
    s = time.perf_counter() - t0
    text = out.getvalue()
    first = text.split("\n", 1)[0]
    if error is None and (code != q.code or first not in q.accept):
        error = "exit %r, first line %r, expected %r" % (
            code, first, list(q.accept))
    if error is None and q.verify is not None:
        error = q.verify(text)
    rec = {"label": q.kind, "s": s, "units": 1, "ok": error is None,
           "index": index, "sha256": _sha(text)}
    if error is not None:
        rec["error"] = error
    return rec


def depth_pass(ctx, args, sizes, pass_no):
    if pass_no:
        ctx["ops"] = parsed_sweep(args.seed, pass_no, sizes)
    return ctx["ops"]


def _tree_sum(terms, zero):
    while len(terms) > 1:
        terms = [terms[i] + terms[i + 1] if i + 1 < len(terms) else terms[i]
                 for i in range(0, len(terms), 2)]
    return terms[0] if terms else zero


def _rebuild(F, jet):
    """sum d_i * pi^i over the jet's digits."""
    from hlf.elements import Element
    from hlf.expansion import lift
    from hlf.fields import SeriesExt
    from hlf.valuation import monomial_with_valuation
    digits = [(i, d) for i, d in zip(range(jet.start, jet.stop()), jet.coeffs)
              if not d.is_zero()]
    if isinstance(F, SeriesExt) and all(d.den == Element.one(d.field).den
                                        for _, d in digits):
        # Laurent polynomial digits: the sum is one Laurent polynomial
        # in the residue field's parameters and t
        return Element.make(F, {k + (i,): c for i, d in digits
                                for k, c in d.num.items()})
    nv = len(F.params())
    return _tree_sum([lift(F, d) * monomial_with_valuation(
        F, (0,) * (nv - 1) + (i,)) for i, d in digits], Element.zero(F))


def check_jet(x, jet, k, start):
    """Rebuild sum d_i * pi^i from the digits and ask that x minus it sits
    at top valuation >= start + k; also that the jet starts where the
    input was built to start."""
    if len(jet.coeffs) != k or jet.start != start:
        return "jet covers %d digits from %d, expected %d from %d" % (
            len(jet.coeffs), jet.start, k, start)
    rest = x - _rebuild(x.field, jet)
    if not rest.is_zero() and rest.val_vector()[-1] < start + k:
        return "x minus the rebuilt sum has top valuation %d < %d" % (
            rest.val_vector()[-1], start + k)
    return None


def run_depth_op(item, ctx, args, sizes, tracer):
    from hlf.expansion import expand
    from hlf.opens import deep_ball
    op = item
    limit = OP_LIMIT_S * (TRACED_LIMIT_FACTOR if tracer is not None else 1)
    # never past the run's budget either
    limit = max(1, min(limit, int(ctx["stop_at"] - time.perf_counter()) + 1))
    result, error = None, None
    signal.alarm(limit)
    t0 = time.perf_counter()
    try:
        if op.kind == "deep_ball":
            result = deep_ball(op.x.field, op.size).contains(op.x)
        else:
            result = expand(op.x, op.size)
    except OpTimeout:
        error = "timeout"
        if tracer is not None:
            tracer.unwind()
    except Exception as exc:
        error = "%s: %s" % (type(exc).__name__, exc)
    finally:
        s = time.perf_counter() - t0
        signal.alarm(0)
    if error is None:
        if tracer is not None:
            tracer.on = False
        try:
            if op.kind == "deep_ball":
                if result != op.expect:
                    error = "contains said %r, built to be %r" % (
                        result, op.expect)
            else:
                # p-digits start at level 0 (unit constant terms, no power
                # of 3 in front); t-digits start at the shift t^b
                start = 0 if op.kind == "p_digits" else op.shift
                error = check_jet(op.x, result, op.size, start)
        finally:
            if tracer is not None:
                tracer.on = True
    rec = {"label": op.label(), "s": s, "units": 1, "ok": error is None}
    if error is not None:
        rec["error"] = error
        rec["timeout"] = error == "timeout"
    return rec


WORKLOADS = {
    "suites": (setup_suites, suite_pass, run_suite_op),
    "queries": (setup_queries, query_pass, run_query_op),
    "depth": (setup_depth, depth_pass, run_depth_op),
}

LABELS = {"suites": lambda item: item[1],
          "queries": lambda item: item[1].kind,
          "depth": lambda op: op.label()}


# --- main ---------------------------------------------------------------------

def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--spawned", type=float, default=None,
                    help="parent's perf_counter when it started this process")
    ap.add_argument("--spans", default=None, help="where to write the spans")
    ap.add_argument("--passes", type=int, default=1,
                    help="passes over the workload's inputs (untraced)")
    ap.add_argument("--budget", type=float, default=None,
                    help="start no op after this many seconds")
    args = ap.parse_args(argv)
    sizes = W.Sizes(smoke=args.smoke)
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "hlf")):
        print("no hlf sources under %s" % src, file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    setup_fn, pass_fn, op_fn = WORKLOADS[args.workload]

    t_import0 = time.perf_counter()
    for mod in IMPORTS[args.workload]:
        importlib.import_module(mod)
    t_import1 = time.perf_counter()
    ctx = setup_fn(args, sizes)
    t_ready = time.perf_counter()
    start = args.spawned if args.spawned is not None else T_START
    # set-up times scaled to the host's speed right after them
    scale = hostspeed.setup_scale()
    out = {"workload": args.workload, "seed": args.seed,
           "setup": {"s": scale * (t_ready - start),
                     "wall_s": t_ready - start,
                     "import_s": scale * (t_import1 - t_import0),
                     "generate_s": scale * (t_ready - t_import1)}}
    try:
        if not args.setup_only:
            out.update(measure(args, sizes, ctx, pass_fn, op_fn))
        if "keys" in ctx:
            out["repeat_share"] = W.repeat_share(ctx["keys"])
    finally:
        if "workdir" in ctx:
            shutil.rmtree(ctx["workdir"], ignore_errors=True)
    out["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


def measure(args, sizes, ctx, pass_fn, op_fn):
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    signal.signal(signal.SIGALRM, _on_alarm)
    # the work of a run is fixed, so percentiles are taken over the same
    # number of samples on every run and commit; a traced run makes one
    # pass, so its counts repeat exactly for a seed.  A program slow
    # enough to take three times --seconds (or the budget the parent has
    # left) starts no further op: each op it leaves out is recorded as a
    # failed op that was not run.
    passes = 1 if tracer is not None else args.passes
    label = LABELS[args.workload]
    records = []
    # each record's "s" is scaled to the host's speed (hostspeed.py); the
    # time as measured is kept as "wall_s"
    scaler = hostspeed.Scaler()
    allowed = 3 * args.seconds
    if args.budget is not None:
        allowed = min(allowed, args.budget)
    ctx["stop_at"] = time.perf_counter() + allowed
    for pass_no in range(passes):
        for slot, item in enumerate(pass_fn(ctx, args, sizes, pass_no)):
            if records and time.perf_counter() > ctx["stop_at"]:
                rec = {"label": label(item), "s": 0.0, "units": 1,
                       "ok": False, "skipped": True,
                       "error": "not run: the run's time budget was spent"}
            else:
                if tracer is not None:
                    tracer.op = len(records)
                rec = op_fn(item, ctx, args, sizes, tracer)
            rec["pass"], rec["slot"] = pass_no, slot
            records.append(rec)
            scaler.add(rec)
    scaler.flush()
    res = {"records": records, "calibrations": scaler.samples}
    if tracer is not None:
        tracer.on = False
        if args.spans:
            tracer.write(args.spans)
        res["trace"] = {"stats": tracer.stats, "counts": tracer.counts,
                        "root_self": tracer.root_self,
                        "spans_kept": len(tracer.spans),
                        "spans_dropped": tracer.dropped}
    return res


if __name__ == "__main__":
    sys.exit(main())
