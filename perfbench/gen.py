"""Input generator for the benchmark.

Every request the benchmark sends is a `Request`: a command, a theorem
file, a `--seed` for the program, and the truth of the file's claim.
That truth is stated here by hand, from how the figure is built; it is
never obtained by running any gthm code.  Given the same workload seed
the generator produces the same requests, byte for byte.

Two constructions underlie the generated families:

* the parallelogram OACB of `fixtures/parallelogram.gthm` (8 points),
  whose diagonals bisect each other at D, and
* the right triangle of `fixtures/imo2012.gthm` (11 points), where the
  circle cuts K and L and the meet M make MK = ML.

Each family member is one base construction plus k auxiliary points
(feet, meets and circle cuts) taken from a pool.  Auxiliary
points add nothing the claim needs, so a claim's truth is that of the
base figure; they only enlarge the figure the prover must search,
which is the input property discovery, growth and scheduling scale
with.  A false claim is a true identity `L = R` with the coefficient
of R perturbed to c != 1; since R is a positive length in every
non-degenerate figure, `L = c*R` fails everywhere.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Request:
    command: str          # "prove" or "check"
    name: str             # file name the program reads
    text: str             # theorem source
    seed: int             # the program's --seed
    truth: bool | None    # is the claim true; None for a degenerate figure
    klass: str            # input class, e.g. "parallelogram+3"


_PARALLELOGRAM = """\
param x
param y
param z
point O = origin
point A = baseline(O, x)
line base = through(O, A)
point E = on_segment(O, A, y)
point B = offset_perp(E, base, z)
point C = meet(through(A) parallel(through(O,B)), through(B) parallel(base))
point D = meet(through(A,B), through(O,C))
aux point F = foot(D, base)
aux point G = foot(C, base)
"""

# identities of the parallelogram figure, each (lhs, rhs) with lhs = rhs,
# the fixture's theorem first: the diagonals bisect each other at D
# (OD = CD, BD = AD); opposite sides are equal (OA = BC); D projects to
# the midpoint F of OG, and DF is half the height CG.
_PARALLELOGRAM_TRUE = (
    ("len(O,D)", "len(C,D)"),
    ("len(B,D)", "len(A,D)"),
    ("len(O,A)", "len(B,C)"),
    ("len(O,F)", "len(F,G)"),
    ("2*len(D,F)", "len(C,G)"),
)

# auxiliary points over the parallelogram: each is well defined for
# every sample the base figure admits, coincides with no base point,
# and is built from base points only, so any subset in any order is a
# valid file.  Feet and meets keep the figure rational; the circle cuts,
# last in every pool, bring in radicals.
_PARALLELOGRAM_AUX = (
    "foot(B, through(O,C))",
    "foot(A, through(O,C))",
    "foot(E, through(A,B))",
    "meet(through(E,C), through(O,B))",
    "foot(D, through(O,B))",
    "meet(through(E,D), through(B,C))",
    "foot(G, through(A,C))",
    "meet_circle(base, O, len(O,B), second)",
    "meet_circle(through(O,C), O, len(O,A), second)",
)

_RIGHT_TRIANGLE = """\
param a
param h
param q
point A = origin
point D = baseline(A, a)
line base = through(A, D)
point C = offset_perp(D, base, h)
point B = baseline(D, (h*h)/a)
point X = on_segment(D, C, q)
point K = meet_circle(through(A,X), B, len(B,C), within_segment(A,X))
point L = meet_circle(through(B,X), A, len(A,C), within_segment(B,X))
point M = meet(through(A,L), through(B,K))
aux point N = foot(K, base)
aux point R = foot(M, base)
aux point S = foot(L, base)
"""

# identities of the right-triangle figure, the theorem MK = ML first; K
# and L lie on circles of radius BC about B and AC about A.
_RIGHT_TRIANGLE_TRUE = (
    ("len(K,M)", "len(M,L)"),
    ("len(B,K)", "len(B,C)"),
    ("len(A,L)", "len(A,C)"),
)

_RIGHT_TRIANGLE_AUX = (
    "foot(D, through(A,C))",
    "foot(D, through(B,C))",
    "foot(X, through(A,C))",
    "foot(M, through(A,C))",
    "meet(through(C,M), base)",
    "meet_circle(base, D, len(D,C), second)",
)

# coefficients that turn a true identity into a false one
_PERTURB = ("2", "3", "1/2", "3/2", "2/3")

# name -> (base text with 8 or 11 points, true identities, aux pool)
FAMILIES = {
    "parallelogram": (_PARALLELOGRAM, _PARALLELOGRAM_TRUE,
                      _PARALLELOGRAM_AUX),
    "right_triangle": (_RIGHT_TRIANGLE, _RIGHT_TRIANGLE_TRUE,
                       _RIGHT_TRIANGLE_AUX),
}


def family_member(family: str, k: int, truth: bool, rng: random.Random,
                  nested: bool = False) -> str:
    """Theorem text for `family` plus k auxiliary points, claiming a true
    identity or a perturbed, false one.  By default the seed draws the
    points and picks the identity; a `nested` member takes the first k
    points of the pool and claims the fixture's theorem, so each size is
    the previous one plus one point."""
    base, identities, pool = FAMILIES[family]
    if nested:
        aux = list(pool[:k])
    else:
        # circle cuts only once the feet and meets are used up, so a
        # member's size fixes how many radicals it carries and the seed
        # does not change the run's mix of rational and radical figures
        plain = [c for c in pool if not c.startswith("meet_circle")]
        cuts = pool[len(plain):]
        aux = rng.sample(plain, min(k, len(plain)))
        aux += rng.sample(cuts, k - len(aux))
    lines = [base.rstrip("\n")]
    for i, construction in enumerate(aux, 1):
        lines.append(f"aux point P{i} = {construction}")
    lhs, rhs = identities[0] if nested else rng.choice(identities)
    if not truth:
        rhs = f"{rng.choice(_PERTURB)}*{rhs}"
    lines.append(f"claim {lhs} = {rhs}")
    return "\n".join(lines) + "\n"


def _program_seed(rng: random.Random) -> int:
    return rng.randrange(1, 1_000_000)


# ---------------------------------------------------------------------------
# workloads: each returns one round, a list of requests that holds each
# of the workload's input classes a fixed number of times.  Runs are made
# of whole rounds, so the mix of classes, and with it every share, is
# the same in every run.

# the shipped fixtures, the truth of their claims written by hand, and
# how many program seeds each gets per round.  unreachable is true but
# no rule chain reaches it, so today's prover gives INCONCLUSIVE and it
# counts as undecided, not failed; degenerate has no valid figure at
# all (truth None), so INCONCLUSIVE is the only right answer.  The three
# parallelogram files run at three seeds per round and the others at
# one, so the median and the tail request lie well inside one class of
# proof instead of on the boundary between two, where they would jump.
FIXTURES = (
    ("parallelogram.gthm", True, 3),
    ("parallelogram_bd.gthm", True, 3),
    ("parallelogram_bad.gthm", False, 3),
    ("imo2012.gthm", True, 1),
    ("unreachable.gthm", True, 1),
    ("degenerate.gthm", None, 1),
)


def fixtures_round(fixture_texts: dict[str, str],
                   rng: random.Random) -> list[Request]:
    """`prove` on the six shipped fixtures at fresh program seeds.

    Why: small real figures (at most 11 points) that reach all four
    endings and both rational and radical (imo2012) arithmetic; most of
    each proof is cross-sample edge validation, so this is where the
    validation hot path shows."""
    return [Request("prove", name, fixture_texts[name], _program_seed(rng),
                    truth, name.removesuffix(".gthm"))
            for name, truth, times in FIXTURES for _ in range(times)]


# scaling sizes: the parallelogram at 10, 12, 14 and 16 points (its
# 8-point base is the fixture, timed in `fixtures`) and the right
# triangle at 11 and 16.  Members are nested, so cost growth is due to
# the added points alone: with seeded point draws, one size's proof
# time varied twofold from draw to draw, more than a run of a few
# proofs can average out.  Each size runs with the true theorem and
# with a false variant; the seed draws the perturbation and the program
# seeds, which set the witness and the size of the sampled rationals.
# The sizes put as many requests below the 12- and 10-point proofs,
# which cost about the same, as above them, so the median request lies
# inside that class instead of on the boundary between two.
SCALING_K = {"parallelogram": (2, 4, 6, 8),
             "right_triangle": (0, 5)}


def scaling_round(rng: random.Random) -> list[Request]:
    """`prove` over the generated families at growing point counts.

    Why: discovery, growth and scheduling cost grow with the number of
    points, and the similarity scan's pair cap fires on the larger
    members, turning true theorems INCONCLUSIVE (from 13 points on the
    parallelogram and 12 on the right triangle).  This is where an
    indexed similarity search shows, in time and in decided_share."""
    out = []
    for family, ks in SCALING_K.items():
        for k in ks:
            for truth in (True, False):
                text = family_member(family, k, truth, rng, nested=True)
                out.append(Request("prove",
                                   f"{family}_k{k}_{int(truth)}.gthm", text,
                                   _program_seed(rng), truth,
                                   f"{family}+{k}"))
    return out


# triage sizes: every member of both families, 8 to 17 points for the
# parallelogram and 11 to 17 for the right triangle
TRIAGE_K = {family: tuple(range(len(pool) + 1))
            for family, (_, _, pool) in FAMILIES.items()}


def triage_round(rng: random.Random) -> list[Request]:
    """`check` over one true and one false claim per family member.

    Why: the oracle-only path (scene, exactnum, oracle_verdict) with no
    rules or graph at all.  It evaluates many figures and looks up few
    dimensions in each, the reverse of validation, so a scene-side
    change that helps `fixtures` but costs here shows as a regression."""
    out = []
    for family, ks in TRIAGE_K.items():
        for k in ks:
            for truth in (True, False):
                text = family_member(family, k, truth, rng)
                out.append(Request("check", f"{family}_k{k}_{int(truth)}.gthm",
                                   text, _program_seed(rng), truth,
                                   f"{family}+{k}"))
    return out


WORKLOADS = ("fixtures", "scaling", "triage")


def make_round(workload: str, seed: int, index: int,
               fixture_texts: dict[str, str]) -> list[Request]:
    """Round `index` of `workload` under workload seed `seed`."""
    rng = random.Random(f"{workload}/{seed}/{index}")
    if workload == "fixtures":
        reqs = fixtures_round(fixture_texts, rng)
    elif workload == "scaling":
        reqs = scaling_round(rng)
    elif workload == "triage":
        reqs = triage_round(rng)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(reqs)
    return reqs
