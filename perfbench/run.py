"""hlf benchmark: seeded check suites, a CLI query stream and a p-adic
depth sweep, timed from outside the program.

    python3 perfbench/run.py --workload suites --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --all --seed 1      # every workload, both runs
    python3 perfbench/run.py --smoke             # tiny sizes, every path

Run it from the repository root (it reads src/hlf).  Each workload runs in
fresh single-threaded child processes (perfbench/worker.py), one after
another: one that measures, between set-up-only children, so set-up time
is a median.  The measuring child makes several passes, each over fresh
inputs.  Every time is scaled to the host's speed, measured with a fixed
calibration loop around it (perfbench/hostspeed.py), and each metric is a
median over the passes (see summarize).  --trace 1
adds a traced child that makes one pass with spans
around hlf's public functions and reports the per-layer metrics; every
end-to-end number comes from untraced children.  Every op is checked
against an answer built with the input, and the last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  The full
results, stamped with the environment, go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import fnmatch
import hashlib
import json
import math
import os
import platform
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import workloads as W  # noqa: E402

WORKLOADS = ("suites", "queries", "depth")
SETUP_PROBES = 8           # set-up-only children per run, plus the measuring one
RUN_DEADLINE_S = 170       # every child of one run must end by then

# Seconds of timed ops in one pass over a workload's inputs where the
# benchmark was defined (Python 3.11, 2 vCPUs): 5 suites; 1000 queries; the
# depth sweep, whose untimed jet checks add ~40 %.  A run makes
# ceil(--seconds / this) passes, so it measures at least --seconds there
# and the same work on every commit.
NOMINAL_PASS_S = {"suites": 3.0, "queries": 4.3, "depth": 6.0}

END_TO_END = (("setup_s", "s"), ("ops_per_s", "1/s"), ("op_p50_ms", "ms"),
              ("op_tail_ms", "ms"), ("peak_rss_mb", "MB"))


# --- per-layer metric names -----------------------------------------------------

_SPANS = ("coeff.fq_mul", "coeff.fq_inverse", "elements.make",
          "elements.mul", "elements.add", "elements.inverse",
          "parsing.parse_field", "parsing.parse_element",
          "sequences.parse_family", "sequences.evaluate",
          "valuation.rank_valuation", "expansion.expand_t",
          "expansion.expand_p.mixed", "expansion.expand_p.qp",
          "expansion.canonical_fraction", "expansion.residue",
          "expansion.lift", "opens.contains", "opens.intersect",
          "opens.residue_image", "opens.witness", "convergence.converges",
          "convergence.unit_converges", "convergence.entry_index",
          "convergence.witness_checked", "points.point_seq_converges",
          "points.member_points", "weil.weil_restrict", "weil.sext_converges")

_DIGIT_SPANS = ("expansion.expand_t", "expansion.expand_p.mixed",
                "expansion.expand_p.qp")


def _curves(sizes):
    return ([("expansion.p_digits.%d.ms" % k, "p_digits.%d" % k)
             for k in sizes.p_digits] +
            [("expansion.t_digits.f5.%d.ms" % k, "t_digits_f5.%d" % k)
             for k in sizes.t_digits_f5] +
            [("expansion.t_digits.qp.%d.ms" % k, "t_digits_q3.%d" % k)
             for k in sizes.t_digits_q3] +
            [("opens.deep_ball.%d.ms" % d, "deep_ball.%d" % d)
             for d in sizes.ball_depths])


def per_layer_spec(sizes):
    """[(name, unit, better)] in the order they are reported."""
    out = [("setup.import_s", "s", "lower"), ("setup.generate_s", "s", "lower"),
           ("trace.overhead_x", "ratio", "higher")]
    for span in _SPANS:
        out.append((span + ".calls", "count", "lower"))
        out.append((span + ".self_s", "s", "lower"))
        if span in _DIGIT_SPANS:
            out.append((span + ".digits", "count", "lower"))
    out.append(("opens.contains.yes_frac", "ratio", "higher"))
    out.append(("opens.witness.checked_frac", "ratio", "higher"))
    out.append(("convergence.unknown_frac", "ratio", "lower"))
    out += [(name, "ms", "lower") for name, _ in _curves(sizes)]
    out += [("checks.%s.s" % s, "s", "lower") for s in W.SUITE_NAMES]
    out += [("cli.%s.p50_ms" % k, "ms", "lower") for k in W.QUERY_KINDS]
    out.append(("cli.main.self_ms", "ms", "lower"))
    return out


# --- statistics -----------------------------------------------------------------

def tail(samples):
    """(value, percentile, samples beyond): the highest percentile with at
    least ten samples above it; the maximum when there are too few samples
    for that to sit at or above the median."""
    xs = sorted(samples)
    n = len(xs)
    if n >= 21:
        i = n - 11
        return xs[i], 100.0 * (i + 1) / n, n - 1 - i
    return xs[-1], 100.0, 0


def pass_figures(rs):
    """ops_per_s, op_p50_ms and the tail of one pass.  Each op is one
    latency sample; a suite call counts as one op per verified instance,
    each taking the call's time per instance."""
    units, secs = sum(r["units"] for r in rs), sum(r["s"] for r in rs)
    lat = [x for r in rs for x in [1000.0 * r["s"] / r["units"]] * r["units"]]
    lat = lat or [0.0]
    value, pct, beyond = tail(lat)
    return {"ops_per_s": units / secs if secs > 0 else 0.0,
            "op_p50_ms": statistics.median(lat), "op_tail_ms": value,
            "tail_pct": pct, "tail_beyond": beyond, "samples": len(lat)}


# Workloads whose passes match slot by slot: the i-th op of every pass is
# the same suite, or the same sweep point (kind, size and fraction shape)
# under a fresh shift.  Query passes are fresh random streams whose slots
# do not correspond.
SLOTTED = ("suites", "depth")


def summarize(records, workload):
    """End-to-end figures of one measuring child, from times scaled to the
    host's speed: in a SLOTTED workload from the median time of each slot
    over the passes, otherwise the median of each figure over the passes.
    Ops left out for want of time count as failed and carry no time."""
    timed = [r for r in records if not r.get("skipped")]
    by_pass = {}
    for r in timed:
        by_pass.setdefault(r["pass"], []).append(r)
    per = [pass_figures(rs) for _, rs in sorted(by_pass.items())] or \
        [pass_figures([])]
    wall = [sum(r["units"] for r in rs) / sum(r["wall_s"] for r in rs)
            for rs in by_pass.values()] or [0.0]
    if workload in SLOTTED:
        by_slot = {}
        for r in timed:
            by_slot.setdefault(r["slot"], []).append(r)
        mid = [dict(rs[0], s=statistics.median(r["s"] for r in rs))
               for rs in by_slot.values()]
        figures = pass_figures(mid)
    else:
        figures = dict(per[0], **{
            k: statistics.median(f[k] for f in per)
            for k in ("ops_per_s", "op_p50_ms", "op_tail_ms")})
    attempted = sum(r["units"] for r in records)
    failed = sum(r.get("failed_units", 0 if r["ok"] else r["units"])
                 for r in records)
    return dict(figures, wall_ops_per_s=statistics.median(wall),
                passes=len(per), attempted=attempted, failed=failed,
                failed_frac=failed / attempted if attempted else 0.0,
                timeouts=sum(1 for r in records if r.get("timeout")),
                skipped=sum(1 for r in records if r.get("skipped")))


# --- children -------------------------------------------------------------------

class ChildFailed(RuntimeError):
    pass


def passes(args):
    if args.smoke:
        return 1
    return max(1, math.ceil(args.seconds / NOMINAL_PASS_S[args.workload]))


def run_child(args, deadline, setup_only=False, trace=0, spans=None):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    if args.smoke:
        cmd.append("--smoke")
    if spans:
        cmd += ["--spans", spans]
    if not (setup_only or trace):
        cmd += ["--passes", str(passes(args))]
    env = dict(os.environ, PYTHONHASHSEED="0")
    left = deadline - time.perf_counter()
    if left <= 20:
        raise ChildFailed("no time left for %s" % " ".join(cmd[2:]))
    cmd += ["--budget", "%.1f" % (left - 15), "--spawned",
            repr(time.perf_counter())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=left)
    except subprocess.TimeoutExpired:
        raise ChildFailed("worker exceeded the run's deadline")
    if proc.returncode != 0:
        raise ChildFailed("worker exited %d: %s" % (
            proc.returncode, proc.stderr.strip()[-2000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup_probes(args, deadline, n):
    return [run_child(args, deadline, setup_only=True)["setup"]
            for _ in range(n)]


# --- stamps -------------------------------------------------------------------

def _commit():
    try:
        # no search above the checkout for some other repository
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _source_digest():
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src", "hlf")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def stamp(args, sizes):
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(),
            "commit": _commit(), "source_sha256": _source_digest(),
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity") else None,
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "smoke": args.smoke, "sizes": sizes.to_data()}


# --- one workload ---------------------------------------------------------------

def _line(name, value, unit, note=""):
    print("  %-36s %14.6g %-6s %s" % (name, value, unit, note))


def measure(args, deadline):
    """Half the set-up probes, the measuring child, the other half; returns
    the child's output, its summary and the set-up medians.  Probes on both
    sides of the run see more of the host's drift than a burst would."""
    setups = setup_probes(args, deadline, SETUP_PROBES // 2)
    measured = run_child(args, deadline)
    setups += [measured["setup"]]
    setups += setup_probes(args, deadline, SETUP_PROBES - SETUP_PROBES // 2)
    setup = {key: statistics.median(s[key] for s in setups)
             for key in ("s", "wall_s", "import_s", "generate_s")}
    setup["samples"] = len(setups)
    return measured, summarize(measured["records"], args.workload), setup


def end_to_end(args, measured, summ, setup):
    metrics = {"setup_s": setup["s"], "ops_per_s": summ["ops_per_s"],
               "op_p50_ms": summ["op_p50_ms"],
               "op_tail_ms": summ["op_tail_ms"],
               "peak_rss_mb": measured["peak_rss_mb"]}
    print("end-to-end (untraced)")
    print("  (times scaled to the host's speed; as measured: set-up %.4f s, "
          "%.6g ops/s)" % (setup["wall_s"], summ["wall_ops_per_s"]))
    _line("setup_s", metrics["setup_s"], "s",
          "median of %d children; import %.4f s, generate %.4f s" % (
              setup["samples"], setup["import_s"], setup["generate_s"]))
    how = "median time per slot over %d passes" % summ["passes"] \
        if args.workload in SLOTTED else "median of %d passes" % summ["passes"]
    _line("ops_per_s", metrics["ops_per_s"], "1/s", how)
    _line("op_p50_ms", metrics["op_p50_ms"], "ms",
          "n=%d%s; %s" % (
              summ["samples"], " verified instances, each at its suite "
              "call's time per instance" if args.workload == "suites"
              else "", how))
    _line("op_tail_ms", metrics["op_tail_ms"], "ms",
          "p%.1f, %d samples beyond; %s" % (
              summ["tail_pct"], summ["tail_beyond"], how))
    _line("peak_rss_mb", metrics["peak_rss_mb"], "MB", "ru_maxrss")
    _line("failed_frac", summ["failed_frac"], "",
          "%d of %d ops failed, %d timeouts, %d not run" % (
              summ["failed"], summ["attempted"], summ["timeouts"],
              summ["skipped"]))
    if "repeat_share" in measured:
        _line("repeat_share", measured["repeat_share"], "",
              "queries in the stream repeating an earlier one")
    return metrics


def per_layer(args, sizes, deadline, measured, summ, setup):
    os.makedirs(OUT, exist_ok=True)
    spans = os.path.join(OUT, "%s-seed%d.spans.json" % (args.workload,
                                                        args.seed))
    traced = run_child(args, deadline, trace=1, spans=spans)
    tsum = summarize(traced["records"], args.workload)
    tr = traced["trace"]
    stats, counts = tr["stats"], tr["counts"]
    m = {"setup.import_s": setup["import_s"],
         "setup.generate_s": setup["generate_s"],
         "trace.overhead_x":
         tsum["ops_per_s"] / summ["ops_per_s"]}
    for span in _SPANS:
        calls, self_s = stats.get(span, [0, 0.0])
        m[span + ".calls"] = calls
        m[span + ".self_s"] = self_s
        if span in _DIGIT_SPANS:
            m[span + ".digits"] = counts.get(span + ".digits", 0)

    def frac(num, den):
        return num / den if den else 0.0

    m["opens.contains.yes_frac"] = frac(counts.get("opens.contains.yes", 0),
                                        m["opens.contains.calls"])
    m["opens.witness.checked_frac"] = frac(
        counts.get("opens.witness_checked.true", 0),
        stats.get("opens.witness_checked", [0])[0])
    m["convergence.unknown_frac"] = frac(counts.get("convergence.unknown", 0),
                                         counts.get("convergence.verdicts", 0))
    # op-level curves and per-suite / per-kind latencies come from the
    # untraced child: the wrappers would inflate them
    by_label = {}
    for r in measured["records"]:
        if not r.get("skipped"):
            by_label.setdefault(r["label"], []).append(r["s"])

    def median_of(label, scale):
        xs = by_label.get(label)
        return scale * statistics.median(xs) if xs else 0.0

    for name, label in _curves(sizes):
        m[name] = median_of(label, 1000.0)
    for s in W.SUITE_NAMES:
        m["checks.%s.s" % s] = median_of(s, 1.0) \
            if args.workload == "suites" else 0.0
    for k in W.QUERY_KINDS:
        m["cli.%s.p50_ms" % k] = median_of(k, 1000.0) \
            if args.workload == "queries" else 0.0
    mains = tr["root_self"].get("cli.main")
    m["cli.main.self_ms"] = 1000.0 * statistics.median(mains) if mains else 0.0
    print("per-layer (one traced pass; op curves from the untraced child)")
    for name, unit, _ in per_layer_spec(sizes):
        _line(name, m[name], unit)
    print("  spans kept %d, dropped %d; written to %s" % (
        tr["spans_kept"], tr["spans_dropped"], os.path.relpath(spans, ROOT)))
    return traced, tsum, m


def print_digests(workload, records):
    records = [r for r in records if not r.get("skipped")]
    if workload == "suites":
        for r in records:
            print("digest suite %-16s seed=%-6d sha256=%s" % (
                r["label"], r["seed"], r["sha256"]))
    elif workload == "queries":
        by_pass = {}
        for r in records:
            by_pass.setdefault(r["pass"], []).append(r["sha256"])
        for p, shas in sorted(by_pass.items()):
            print("digest query stream pass %d (%d queries, one sha256 each "
                  "in the results file) sha256=%s" % (
                      p, len(shas),
                      hashlib.sha256("".join(shas).encode()).hexdigest()))


def run_workload(args):
    sizes = W.Sizes(smoke=args.smoke)
    st = stamp(args, sizes)
    deadline = time.perf_counter() + RUN_DEADLINE_S
    print("hlf benchmark  workload=%s seed=%d seconds=%s trace=%d%s" % (
        args.workload, args.seed, args.seconds, args.trace,
        " smoke" if args.smoke else ""))
    print("  python %s on %s, commit %s, nproc %s, %d passes" % (
        st["python"], st["platform"], st["commit"][:12], st["nproc"],
        passes(args)))
    print("  sizes %s" % json.dumps(st["sizes"], sort_keys=True))
    measured, summ, setup = measure(args, deadline)
    result = {"stamp": st, "summary": summ, "setup": setup,
              "repeat_share": measured.get("repeat_share")}
    records = measured["records"]
    if args.trace:
        traced, tsum, metrics = per_layer(args, sizes, deadline, measured,
                                          summ, setup)
        result["traced_summary"] = tsum
        records = records + traced["records"]
    else:
        metrics = end_to_end(args, measured, summ, setup)
    print_digests(args.workload, measured["records"])
    failures = [r for r in records if not r["ok"]]
    for r in failures[:10]:
        print("FAILED %s: %s" % (r["label"], r.get("error", "check failed")))
    total = summarize(records, args.workload)
    result.update(metrics=metrics, failures=failures[:50],
                  records=measured["records"])
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, "%s-seed%d-trace%d.json" % (
        args.workload, args.seed, args.trace))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    print("results in %s" % os.path.relpath(path, ROOT))
    units = dict(END_TO_END) if not args.trace else \
        {n: u for n, u, _ in per_layer_spec(sizes)}
    return {"correct": total["failed"] == 0,
            "attempted": total["attempted"], "failed": total["failed"],
            "metrics": {n: {"value": metrics[n], "unit": u}
                        for n, u in units.items()}}


# --- entry ----------------------------------------------------------------------

def _check_names(sizes):
    """The metric names this file prints against BENCHMARK.json."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return []
    with open(path, encoding="utf-8") as fh:
        bench = json.load(fh)
    problems = []
    want_e2e = [(n, u) for n, u in END_TO_END]
    got_e2e = [(m["name"], m["unit"]) for m in bench["end_to_end"]]
    if sorted(want_e2e) != sorted(got_e2e):
        problems.append("end_to_end differs: %r" % got_e2e)
    want_pl = per_layer_spec(W.Sizes())
    got_pl = [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
    if want_pl != got_pl:
        problems.append("per_layer differs from per_layer_spec()")
    if sorted(w["name"] for w in bench["workloads"]) != sorted(WORKLOADS):
        problems.append("workloads differ")
    with open(os.path.join(HERE, "layers.json"), encoding="utf-8") as fh:
        patterns = [m for layer in json.load(fh)["layers"]
                    for m in layer["metrics"]]
    for name, _, _ in want_pl:
        if not any(fnmatch.fnmatchcase(name, re.sub(r"<\w+>", "*", p))
                   for p in patterns):
            problems.append("layers.json does not map %s" % name)
    return problems


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true",
                    help="every workload, untraced and traced")
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes through every path, in a few seconds")
    args = ap.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "hlf")):
        print("error: no hlf sources at %s" % os.path.join(ROOT, "src", "hlf"),
              file=sys.stderr)
        return 2
    if args.workload is None and not (args.all or args.smoke):
        ap.error("give --workload, --all or --smoke")
    try:
        if args.workload is not None and not args.smoke:
            line = run_workload(args)
        else:
            line = run_every(args)
    except ChildFailed as err:
        print("error: %s" % err, file=sys.stderr)
        return 1
    print(json.dumps(line, sort_keys=True))
    return 0


def run_every(args):
    """Every workload, untraced then traced; metric names carry the
    workload as a prefix."""
    if args.smoke:
        args.seconds = 1
    problems = _check_names(W.Sizes(smoke=False)) if args.smoke else []
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for wl in WORKLOADS:
        for trace in (0, 1):
            sub = argparse.Namespace(**vars(args))
            sub.workload, sub.trace = wl, trace
            line = run_workload(sub)
            total["correct"] &= line["correct"]
            total["attempted"] += line["attempted"]
            total["failed"] += line["failed"]
            for name, v in line["metrics"].items():
                total["metrics"]["%s.%s" % (wl, name)] = v
            print()
    for p in problems:
        print("BENCHMARK.json mismatch: %s" % p)
    if problems:
        total["correct"] = False
    return total


if __name__ == "__main__":
    sys.exit(main())
