"""A seeded soundness sweep of converges over all three fields.

Each family has one to three numerator terms c*b^(a*n+b)*t^(c*n+d), with b
the lower uniformizer (u, or 3), over 1 plus one or two such terms in about
a third of the draws.  Every CONVERGES certificate must give entry indices
that do enter random opens, every DIVERGES witness must hold past its start,
and the UNKNOWN answers of the seed are pinned by cause, so a route that
starts answering UNKNOWN shows up here.
"""

import random
import re
from collections import Counter

from hlf.convergence import CONVERGES, DIVERGES, converges
from hlf.fields import parse_field
from hlf.opens import random_open
from hlf.sequences import parse_family

LOWER = {"Fq(5)((u))((t))": "u", "Qp(3)((t))": "3", "Qp(3){{t}}": "3"}
SWEEP_SEED = 0
SWEEP_SIZE = 2000
# the verdicts of the sweep's seed, UNKNOWN by cause
TALLY = {CONVERGES: 636, DIVERGES: 1273,
         "denominator tail beyond a single climbing term": 90,
         "denominator with a unit tail along p": 1}


def _term(rng, lower):
    return "%s %d*%s^(%d*n%+d)*t^(%d*n%+d)" % (
        rng.choice("+-"), rng.choice((1, 2)), lower, rng.randint(-2, 2),
        rng.randint(-3, 3), rng.randint(-2, 2), rng.randint(-3, 3))


def _family_text(rng, lower):
    num = "0 " + " ".join(_term(rng, lower) for _ in range(rng.randint(1, 3)))
    if rng.random() < 0.35:
        den = " ".join(_term(rng, lower) for _ in range(rng.randint(1, 2)))
        return "(%s)/(1 %s)" % (num, den)
    return num


def _cause(reason):
    """An UNKNOWN reason without the levels, routes and terms it names."""
    reason = re.sub(r"^((level -?\d+|direct ratio|inverse ratio"
                    r"|principal part): )+", "", reason)
    return re.sub(r"term .* fails", "term fails", reason)


def _sweep(seed, size):
    rng = random.Random(seed)
    fields = {text: parse_field(text) for text in LOWER}
    tally, faults = Counter(), []
    for _ in range(size):
        text = rng.choice(sorted(LOWER))
        F = fields[text]
        seq = _family_text(rng, LOWER[text])
        fam = parse_family(F, seq)
        v = converges(fam)
        if v.kind == CONVERGES:
            tally[CONVERGES] += 1
            for _ in range(6):
                U = random_open(rng, F)
                n0 = v.certificate.entry_index(U)
                faults += ["%s over %s escapes %r at n=%d" % (seq, text, U, n)
                           for n in range(n0, n0 + 12)
                           if not U.contains(fam.evaluate(n))]
        elif v.kind == DIVERGES:
            tally[DIVERGES] += 1
            w = v.witness
            if not w.checked():
                faults.append("%s over %s: witness unchecked" % (seq, text))
            faults += ["%s over %s enters %r at n=%d" % (seq, text, w.target, n)
                       for n in range(w.start, w.start + 15)
                       if w.target.contains(fam.evaluate(n))]
        else:
            tally[_cause(v.reason)] += 1
    return tally, faults


def test_converges_sweep_is_sound(deadline):
    with deadline(30):
        tally, faults = _sweep(SWEEP_SEED, SWEEP_SIZE)
    assert faults == []
    assert dict(tally) == TALLY
