"""Which true length claims the prover proves, pinned per figure.

For each figure every claim len(P,Q) = c*len(R,S) with c in {1, 2, 1/2}
that the oracle (`scene.distance`) confirms at eight fixed samples is
proved at seed 42.  Every such claim must come back PROVED, except the
ones listed in KNOWN_MISSES, which must not.  A change that loses a
proof fails here, and so does one that gains a proof without updating
the list.

The figures are three fixtures and four nested members of the
benchmark's generated families; the parallelogram and right-triangle
members carry radical circle cuts (P8, P9 and P6), whose triangles are
matched as similar only within a float tolerance.
"""

import itertools
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from gthm import dsl, prove_text, scene as sc
from gthm.exactnum import mul, rel_err

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from gen import family_member  # noqa: E402

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

# figure -> (number of confirmed claims, claims not proved); a claim is
# written "PQ = RS" whatever its coefficient, since a segment pair has
# at most one
RECALL = {
    "parallelogram": (27, set()),
    "imo2012": (3, set()),
    "unreachable": (1, {"BZ = AB"}),
    "parallelogram+4": (37, set()),
    "parallelogram+9": (68, {"EP2 = P1P6", "OP9 = OA", "OP8 = OB", "OP8 = AC",
                             "OP8 = GP6", "OP9 = BC", "OP9 = EG"}),
    "right_triangle+3": (6, set()),
    "right_triangle+6": (8, {"DP6 = DC", "DP6 = P1P2"}),
}

KNOWN_MISSES = {name: {frozenset(c.split(" = ")) for c in misses}
                for name, (_, misses) in RECALL.items()}

COEFFICIENTS = (Fraction(1), Fraction(2), Fraction(1, 2))
ORACLE_SAMPLES = range(8)


def figure(name):
    """The figure's construction text, without its claim."""
    if "+" in name:
        family, k = name.split("+")
        text = family_member(family, int(k), True, random.Random(0), nested=True)
    else:
        text = (FIXTURES / f"{name}.gthm").read_text()
    return "".join(ln + "\n" for ln in text.splitlines()
                   if not ln.startswith("claim"))


def confirmed_claims(body, name):
    """(P, Q, c, R, S) for each segment pair with len(P,Q) = c*len(R,S)
    at every oracle sample, neither length ever zero."""
    model = dsl.validate(dsl.parse(body + "claim len(A,B) = len(A,B)\n", name), name)
    scn = sc.build_scene(model)
    evs = [sc.sample_params(scn, s)[1] for s in ORACLE_SAMPLES]
    segments = list(itertools.combinations(evs[0].points, 2))
    lengths = {seg: [sc.distance(ev.points[seg[0]], ev.points[seg[1]])
                     for ev in evs] for seg in segments}
    out = []
    for s, t in itertools.combinations(segments, 2):
        if any(v == 0 for v in lengths[s] + lengths[t]):
            continue
        for c in COEFFICIENTS:
            if all(rel_err(a, mul(c, b)) <= 1e-9
                   for a, b in zip(lengths[s], lengths[t])):
                out.append((*s, c, *t))
    return out


@pytest.mark.parametrize("name", list(RECALL))
def test_every_confirmed_claim_is_proved_but_the_known_misses(name):
    body = figure(name)
    claims = confirmed_claims(body, name)
    missed = set()
    for p, q, c, r, s in claims:
        factor = "" if c == 1 else f"{c}*"
        result = prove_text(body + f"claim len({p},{q}) = {factor}len({r},{s})\n",
                            name, seed=42, samples=20)
        if result.verdict.status != "PROVED":
            missed.add(frozenset((p + q, r + s)))
    assert len(claims) == RECALL[name][0]
    assert missed == KNOWN_MISSES[name]
