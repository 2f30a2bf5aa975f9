"""Rule discovery against frozen figures.

The parallelogram checks use the fixed assignment x=4, y=1, z=2, where
every coordinate is a small rational: O=(0,0), A=(4,0), E=(1,0),
B=(1,2), C=(5,2), D=(5/2,1), F=(5/2,0), G=(5,0).
"""

import ast
import itertools
import math
import random
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from gthm import dsl, graph, prove_text, rules, scene as sc
from gthm.exactnum import add, as_float, mul, rel_err
from test_point_limit import para_plus

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from gen import family_member  # noqa: E402

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def load(name):
    text = (FIXTURES / name).read_text()
    model = dsl.validate(dsl.parse(text, name), name)
    return model, sc.build_scene(model)


def fixed(**kwargs):
    return sc.ParamAssignment(tuple((k, F(v)) for k, v in kwargs.items()))


@pytest.fixture(scope="module")
def para():
    model, scn = load("parallelogram.gthm")
    a = fixed(x=4, y=1, z=2)
    return model, scn, a, rules.discover(model, scn, a)


@pytest.fixture(scope="module")
def imo():
    model, scn = load("imo2012.gthm")
    a = fixed(a=1, h=2, q="1/2")
    return model, scn, a, rules.discover(model, scn, a)


def edges_to(pool, display, rule=None):
    return [e for e in pool if e.target.display == display
            and (rule is None or e.rule == rule)]


def has_edge(pool, sources, target, rule):
    for e in pool:
        if (e.rule == rule and e.target.display == target
                and sorted(s.display for s in e.sources) == sorted(sources)):
            return e
    return None


# --- dimension canonicalization ---------------------------------------------


def test_length_canonical_order():
    assert rules.length("D", "C") == rules.length("C", "D")
    assert rules.length("C", "D").display == "CD"
    with pytest.raises(ValueError):
        rules.length("C", "C")


def test_ratio_canonical_order():
    ag, cg = rules.length("A", "G"), rules.length("C", "G")
    r1 = rules.make_ratio(ag, cg)
    r2 = rules.make_ratio(cg, ag)
    assert r1 == r2 and r1.display == "AG/CG"


def test_composite_sorts_into_numerator():
    comp = rules.composite(("O", "A"), ("O", "F"))
    assert comp.display == "(AO-FO)"
    r = rules.make_ratio(rules.length("D", "F"), comp)
    assert r.num == comp
    assert r.display == "(AO-FO)/DF"


def test_dims_are_interned():
    assert rules.length("A", "B") is rules.length("B", "A")
    ag, cg = rules.length("A", "G"), rules.length("C", "G")
    assert rules.make_ratio(ag, cg) is rules.make_ratio(cg, ag)
    comp = rules.composite(("O", "A"), ("O", "F"))
    assert comp is rules.composite(("A", "O"), ("F", "O"))
    assert rules.make_ratio(rules.length("D", "F"), comp) is \
        rules.make_ratio(comp, rules.length("F", "D"))


def test_edge_key_is_the_same_for_dims_built_apart():
    def edge():
        ae = rules.length("A", "E")
        return rules.Hyperedge(sources=(ae,), target=rules.length("C", "G"),
                               rule="parallel-transfer", justification="",
                               recipe=("copy", ae))
    e1, e2 = edge(), edge()
    assert e1.key() == (frozenset(e1.sources), e1.target, e1.rule)
    assert e1.key() == e2.key() and hash(e1.key()) == hash(e2.key())
    assert e1 == e2


def test_dims_are_built_only_by_the_interning_factories():
    """Identity equality holds only if every Dim comes from _intern, and
    _intern is reached only through length, composite and make_ratio."""
    src = Path(rules.__file__).parent
    callers = {"Dim": set(), "_intern": set()}
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                        and node.func.id in callers:
                    callers[node.func.id].add((path.name, fn.name))
        top_level = [n for n in tree.body if not isinstance(
            n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
        assert not any(isinstance(c, ast.Call) and isinstance(c.func, ast.Name)
                       and c.func.id in callers
                       for n in top_level for c in ast.walk(n)), path.name
    assert callers["Dim"] == {("rules.py", "_intern")}
    assert callers["_intern"] == {("rules.py", f)
                                  for f in ("length", "composite", "make_ratio")}


def test_every_recipe_op_is_emitted_by_a_rule():
    """The ops `_apply` executes are exactly those of the fixtures'
    pools, so an op no rule emits any more fails here instead of
    lingering in _apply and the validation and degree tables."""
    tree = ast.parse(Path(rules.__file__).read_text())
    apply = next(n for n in tree.body
                 if isinstance(n, ast.FunctionDef) and n.name == "_apply")
    executed = {n.comparators[0].value for n in ast.walk(apply)
                if isinstance(n, ast.Compare) and isinstance(n.left, ast.Name)
                and n.left.id == "op" and isinstance(n.ops[0], ast.Eq)}
    emitted = set()
    for path in sorted(FIXTURES.glob("*.gthm")):
        model, scn = load(path.name)
        try:
            witness = sc.sample_params(scn, 42)
        except sc.DegenerateModel:
            continue
        emitted |= {e.recipe[0] for e in rules.discover(model, scn, witness)}
    assert executed == emitted == {"copy", "add", "sub", "mul", "div", "pyth_hyp",
                                   "pyth_leg", "dist4", "solve2", "lc"}


# --- individual rules at the frozen parallelogram ---------------------------


def test_parallel_transfer_offsets(para):
    model, scn, a, pool = para
    e = has_edge(pool, ["BE"], "CG", "parallel-transfer")
    assert e is not None
    assert has_edge(pool, ["CG"], "BE", "parallel-transfer") is not None
    got = rules.apply_edge(e, {rules.length("B", "E"): F(2)})
    assert got == F(2)


def test_segment_chain_triple(para):
    model, scn, a, pool = para
    assert has_edge(pool, ["AO", "EO"], "AE", "segment-chain") is not None
    assert has_edge(pool, ["AE", "EO"], "AO", "segment-chain") is not None
    assert has_edge(pool, ["AE", "AO"], "EO", "segment-chain") is not None
    e = has_edge(pool, ["AO", "EO"], "AE", "segment-chain")
    got = rules.apply_edge(e, {rules.length("A", "O"): F(4),
                               rules.length("E", "O"): F(1)})
    assert got == F(3)


def test_fused_similarity_ratio(para):
    model, scn, a, pool = para
    e = has_edge(pool, ["BE", "EO"], "AG/CG", "similar-triangles")
    assert e is not None and e.subpriority == 0
    got = rules.apply_edge(e, {rules.length("B", "E"): F(2),
                               rules.length("E", "O"): F(1)})
    assert got == F(1, 2)  # AG/CG = EO/BE under the correspondence


def test_fused_ratio_same_orientation(para):
    model, scn, a, pool = para
    e = has_edge(pool, ["AE", "BE"], "AF/DF", "similar-triangles")
    assert e is not None
    got = rules.apply_edge(e, {rules.length("A", "E"): F(3),
                               rules.length("B", "E"): F(2)})
    assert got == F(3, 2)  # AF/DF = AE/BE


def test_pythagoras_edges(para):
    model, scn, a, pool = para
    e = has_edge(pool, ["DF", "FO"], "DO", "pythagoras")
    assert e is not None
    got = rules.apply_edge(e, {rules.length("D", "F"): F(1),
                               rules.length("F", "O"): F(5, 2)})
    want = sc.dim_value(sc.evaluate(scn, a), rules.length("D", "O"))
    assert rel_err(got, want) == 0.0
    leg = has_edge(pool, ["DO", "FO"], "DF", "pythagoras")
    assert leg is not None


def test_distance_formula_edge(para):
    model, scn, a, pool = para
    e = has_edge(pool, ["CG", "DF", "FO", "GO"], "CD", "distance-formula")
    assert e is not None
    vals = {rules.length("G", "O"): F(5), rules.length("F", "O"): F(5, 2),
            rules.length("C", "G"): F(2), rules.length("D", "F"): F(1)}
    got = rules.apply_edge(e, vals)
    want = sc.dim_value(sc.evaluate(scn, a), rules.length("C", "D"))
    assert rel_err(got, want) == 0.0


def test_distance_formula_measures_from_origin_only(para):
    model, scn, a, pool = para
    # feet distances must be anchored at O, not at other axis points
    for e in edges_to(pool, "CD", "distance-formula"):
        names = {s.display for s in e.sources}
        assert names == {"GO", "FO", "CG", "DF"}


def test_ratio_rewrite_to_origin_difference(para):
    model, scn, a, pool = para
    e = has_edge(pool, ["AF/DF"], "(AO-FO)/DF", "segment-chain")
    assert e is not None
    r = e.sources[0]
    got = rules.apply_edge(e, {r: F(3, 2)})
    assert got == F(3, 2)  # same value, rewritten form


def test_solve2_edges_solve_both_unknowns(para):
    model, scn, a, pool = para
    e_df = has_edge(pool, ["(AO-FO)/DF", "AO", "DF/FO"], "DF", "ratio-solve")
    e_fo = has_edge(pool, ["(AO-FO)/DF", "AO", "DF/FO"], "FO", "ratio-solve")
    assert e_df is not None and e_fo is not None
    comp = rules.composite(("O", "A"), ("O", "F"))
    r2 = rules.make_ratio(comp, rules.length("D", "F"))
    r1 = rules.make_ratio(rules.length("D", "F"), rules.length("F", "O"))
    vals = {r1: F(2, 5), r2: F(3, 2), rules.length("A", "O"): F(4)}
    # OF = OA / (1 + (DF/OF)*(OA-OF)/DF) = 4/(1+3/5) = 5/2
    assert rules.apply_edge(e_fo, vals) == F(5, 2)
    assert rules.apply_edge(e_df, vals) == F(1)


def test_apply_edge_from_ratio(para):
    model, scn, a, pool = para
    e = has_edge(pool, ["AG/CG", "CG"], "AG", "similar-triangles")
    assert e is not None and e.subpriority == 1
    r = rules.make_ratio(rules.length("A", "G"), rules.length("C", "G"))
    assert rules.apply_edge(e, {r: F(1, 2), rules.length("C", "G"): F(2)}) == F(1)


# --- line-circle rule on the circle fixture ---------------------------------


def test_line_circle_edges(imo):
    model, scn, a, pool = imo
    e_an = has_edge(pool, ["AB", "AD", "AX", "BC"], "AN", "line-circle")
    e_kn = has_edge(pool, ["AB", "AD", "AX", "BC", "DX"], "KN", "line-circle")
    assert e_an is not None and e_kn is not None
    e_bs = has_edge(pool, ["AB", "AC", "BD", "BX"], "BS", "line-circle")
    e_ls = has_edge(pool, ["AB", "AC", "BD", "BX", "DX"], "LS", "line-circle")
    assert e_bs is not None and e_ls is not None


def test_line_circle_reproduces_oracle(imo):
    model, scn, a, pool = imo
    e = has_edge(pool, ["AB", "AD", "AX", "BC"], "AN", "line-circle")
    vals = {d: sc.dim_value(sc.evaluate(scn, a), d) for d in e.sources}
    got = rules.apply_edge(e, vals)
    want = sc.dim_value(sc.evaluate(scn, a), rules.length("A", "N"))
    assert rel_err(got, want) <= 1e-12


def test_no_line_circle_for_on_axis_cut():
    model, scn = load("unreachable.gthm")
    a = fixed(x=4, y=3)
    pool = rules.discover(model, scn, a)
    assert not [e for e in pool if e.rule == "line-circle"]


# --- discovery hygiene -------------------------------------------------------


def test_discovery_is_deterministic(para):
    model, scn, a, pool = para
    again = rules.discover(model, scn, a)
    assert [(i, e.sources, e.target, e.rule) for i, e in enumerate(pool)] == \
        [(i, e.sources, e.target, e.rule) for i, e in enumerate(again)]


def test_dedup_by_sources_target_rule(para):
    model, scn, a, pool = para
    keys = [e.key() for e in pool]
    assert len(keys) == len(set(keys))


@pytest.mark.parametrize("figure", ["para", "imo"])
def test_no_rule_reemits_another_rules_edge(figure, request):
    pool = request.getfixturevalue(figure)[3]
    keys = [(e.sources, e.target, e.recipe) for e in pool]
    assert len(keys) == len(set(keys))


def test_priority_order_respected(para):
    model, scn, a, pool = para
    ranks = [rules.PRIORITY[e.rule] for e in pool]
    assert ranks == sorted(ranks)


def test_no_self_loops(para):
    model, scn, a, pool = para
    assert all(e.target not in e.sources for e in pool)


# --- similar triangles against a brute-force reference ----------------------

# the parallelogram fixture plus five feet and meets: 13 points, 286
# triangles, 40,755 triangle pairs
THIRTEEN_AUX = (
    "aux point P1 = foot(B, through(O,C))",
    "aux point P2 = foot(A, through(O,C))",
    "aux point P3 = foot(E, through(A,B))",
    "aux point P4 = meet(through(E,C), through(O,B))",
    "aux point P5 = foot(D, through(O,B))",
)


def thirteen_points(aux=THIRTEEN_AUX):
    lines = (FIXTURES / "parallelogram.gthm").read_text().splitlines()
    claim = [ln for ln in lines if ln.startswith("claim")]
    body = [ln for ln in lines if not ln.startswith("claim")]
    return "\n".join(body + list(aux) + claim) + "\n"


def similarity_spec(t1, t2, perm):
    """The edges of triangle t1 similar to t2, vertex i to vertex
    perm[i]: for each two sides s1, u1 of t1 and their counterparts s2,
    u2, the fused edges (s1 and u1 give the canonical ratio of s2 and
    u2, and back) and, for both ratios, the mul-through edges (the
    ratio and one of its sides give the other side)."""
    just = f"triangle {''.join(t1)} is similar to triangle {''.join(t2)}"
    sides = [(rules.length(t1[i], t1[j]), rules.length(t2[perm[i]], t2[perm[j]]))
             for i, j in itertools.combinations(range(3), 2)]
    out = []
    for (s1, s2), (u1, u2) in itertools.combinations(sides, 2):
        r1, r2 = rules.make_ratio(s1, u1), rules.make_ratio(s2, u2)
        if r1 != r2:
            out.append(rules._edge([s1, u1], r2, "similar-triangles", just,
                                   ("div", s1, u1) if r2.num == s2 else ("div", u1, s1)))
            out.append(rules._edge([s2, u2], r1, "similar-triangles", just,
                                   ("div", s2, u2) if r1.num == s1 else ("div", u2, s2)))
        for r in (r1, r2):
            out.append(rules._edge([r, r.den], r.num, "similar-triangles",
                                   f"the ratio {r.display} and the side "
                                   f"{r.den.display} determine {r.num.display}",
                                   ("mul", r, r.den), subpriority=1))
            out.append(rules._edge([r, r.num], r.den, "similar-triangles",
                                   f"the ratio {r.display} and the side "
                                   f"{r.num.display} determine {r.den.display}",
                                   ("div", r.num, r), subpriority=1))
    return out


def brute_force_similar(model, scn, a):
    """The similarity_spec edges of every triangle pair under every
    vertex correspondence, emitted in scan order; sides are compared by
    squared length, exactly when all six are rational."""
    coords = sc.evaluate(scn, a).points
    names = list(coords)

    def sq(p, q):
        return sc.sq_norm(sc.vsub(coords[p], coords[q]))

    tris = []
    for t in itertools.combinations(names, 3):
        ab, ac, bc = sq(t[0], t[1]), sq(t[0], t[2]), sq(t[1], t[2])
        # Heron: 16 area^2 = (ab + ac + bc)^2 - 2 (ab^2 + ac^2 + bc^2)
        if all(isinstance(s, F) for s in (ab, ac, bc)):
            flat = (ab + ac + bc) ** 2 == 2 * (ab * ab + ac * ac + bc * bc)
        else:
            x, y, z = (as_float(s) for s in (ab, ac, bc))
            flat = abs((x + y + z) ** 2 - 2 * (x * x + y * y + z * z)) <= \
                1e-9 * max(x, y, z) ** 2
        if not flat:
            tris.append((t, (bc, ac, ab)))
    out = []
    for (t1, s1), (t2, s2) in itertools.combinations(tris, 2):
        exact = all(isinstance(s, F) for s in s1 + s2)
        for perm in itertools.permutations(range(3)):
            lhs = [s1[i] * s2[perm[0]] if exact else as_float(s1[i]) * as_float(s2[perm[0]])
                   for i in range(3)]
            rhs = [s1[0] * s2[perm[i]] if exact else as_float(s1[0]) * as_float(s2[perm[i]])
                   for i in range(3)]
            if exact and lhs == rhs or not exact and all(
                    math.isclose(u, v, rel_tol=1e-9) for u, v in zip(lhs, rhs)):
                out.extend(similarity_spec(t1, t2, perm))
    return out


def similar_fixture(name):
    if name == "para":
        model, scn = load("parallelogram.gthm")
        return model, scn, fixed(x=4, y=1, z=2)
    if name == "imo":  # rational triangles similar to radical ones
        model, scn = load("imo2012.gthm")
        return model, scn, fixed(a=1, h=2, q="1/2")
    model = dsl.validate(dsl.parse(thirteen_points(), "p13"), "p13")
    scn = sc.build_scene(model)
    return model, scn, sc.sample_params(scn, 42)


@pytest.mark.parametrize("figure", ["para", "imo", "thirteen"])
def test_similar_triangles_match_brute_force(figure):
    model, scn, a = similar_fixture(figure)
    got = rules.similar_triangles_rule(rules._Witness(model, scn, a))
    want = brute_force_similar(model, scn, a)
    assert got
    assert {(e.sources, e.target, e.recipe, e.subpriority) for e in got} == \
        {(e.sources, e.target, e.recipe, e.subpriority) for e in want}
    assert rules.finalize(got) == rules.finalize(want)


@pytest.mark.parametrize("aux", [THIRTEEN_AUX, THIRTEEN_AUX[::-1]],
                         ids=["declared", "reversed"])
def test_thirteen_point_parallelogram_proved_at_defaults(aux):
    result = prove_text(thirteen_points(aux), "p13")
    assert result.verdict.status == "PROVED"


def stream_of(scn, seed=42):
    return sc.SampleStream(scn, seed, sc.DEFAULT_RANGE,
                           rules.VALIDATION_SAMPLES)


def test_validate_edges_keeps_sound_and_drops_special_case(para):
    # x=4, y=1, z=2 is a pretty figure with extra coincidences (the
    # angle OBG happens to be right there); replay at fresh samples must
    # drop those while keeping the genuinely forced relations
    model, scn, a, pool = para
    kept = rules.validate_edges(pool, stream_of(scn))
    assert 0 < len(kept) < len(pool)
    kept_keys = {e.key() for e in kept}
    assert has_edge(kept, ["BE"], "CG", "parallel-transfer") is not None
    assert has_edge(kept, ["CG", "DF", "FO", "GO"], "CD", "distance-formula") is not None
    assert has_edge(kept, ["DF", "FO"], "DO", "pythagoras") is not None
    bogus = has_edge(pool, ["BO", "GO"], "BG", "pythagoras")
    assert bogus is not None and bogus.key() not in kept_keys
    # generic witnesses carry no such coincidences: everything validates
    generic = sc.sample_params(scn, 42)
    pool_g = rules.discover(model, scn, generic)
    assert rules.validate_edges(pool_g, stream_of(scn)) == pool_g


def test_validate_edges_drops_coincidences(para):
    model, scn, a, pool = para
    # a fabricated edge claiming CG equals AE holds at no sample
    bogus = rules.Hyperedge(
        sources=(rules.length("A", "E"),), target=rules.length("C", "G"),
        rule="parallel-transfer", justification="made up",
        recipe=("copy", rules.length("A", "E")))
    kept = rules.validate_edges([bogus], stream_of(scn))
    assert kept == []


def test_zero_denominator_fails_every_call_and_every_edge_needing_it():
    ev = sc.Evaluation()
    ev.points.update(A=(F(0), F(0)), B=(F(1), F(0)), E=(F(0), F(1)),
                     C=(F(2), F(1)), D=(F(2), F(1)))  # C and D coincide
    ab, ae = rules.length("A", "B"), rules.length("A", "E")
    cd = rules.length("C", "D")
    r = rules.make_ratio(ab, cd)
    nested = rules.make_ratio(r, ae)
    assert r.den is cd
    raised = []
    for dim in (r, r, nested, r):
        with pytest.raises(sc.DivisionByZero,
                           match="zero denominator in AB/CD") as info:
            sc.dim_value(ev, dim)
        raised.append(info.value)
    assert len({id(e) for e in raised}) == len(raised)  # fresh each time
    sound = rules._edge([ae], ab, "segment-chain", "AB = AE", ("copy", ae))
    needing = [
        rules._edge([r], nested, "segment-chain", "from r", ("copy", r)),
        rules._edge([ab], r, "segment-chain", "onto r", ("copy", ab)),
        rules._edge([nested], ab, "segment-chain", "from nested", ("copy", nested)),
    ]
    assert [e for e in [sound, *needing] if rules._replays(e, ev)] == [sound]


def test_recipe_failure_raises_numeric_failure(para):
    model, scn, a, pool = para
    e = has_edge(pool, ["DO", "FO"], "DF", "pythagoras")
    vals = {rules.length("D", "O"): F(1), rules.length("F", "O"): F(5)}
    with pytest.raises(rules.NumericFailure):
        rules.apply_edge(e, vals)  # leg longer than hypotenuse


# --- validation on squared values against the Scalar replay -----------------


def reference_residual(e, ev):
    """The Scalar replay alone: recompute the target from the sources on
    exactnum arithmetic; its relative error, inf when the recipe raises."""
    try:
        target = sc.dim_value(ev, e.target)
        sources = {d: sc.dim_value(ev, d) for d in e.sources}
        got = rules.apply_edge(e, sources)
    except (rules.NumericFailure, sc.GeometryError, ZeroDivisionError):
        return math.inf
    return rel_err(got, target)


def reference_replays(e, ev):
    return reference_residual(e, ev) <= rules.VALIDATION_TOL


def check_replays(e, ev):
    """Assert the squared-value check never keeps what the reference
    drops, the residual is 0.0 where it answers and the reference's
    elsewhere, and the whole replay agrees with the reference; return
    whether the squared-value check answered."""
    want = reference_replays(e, ev)
    answered = rules._holds_on_squares(e, ev)
    assert want or not answered, (e, "kept on squares, dropped by the reference")
    assert rules.residual(e, ev) == (0.0 if answered
                                     else reference_residual(e, ev)), e
    assert rules._replays(e, ev) == want, e
    return answered


# the six fixtures, para+14, and nested generator members: 8 to 22 points
GROWN = ["parallelogram", "parallelogram_bd", "parallelogram_bad", "imo2012",
         "unreachable", "degenerate", "para+14", "parallelogram+4",
         "parallelogram+8", "right_triangle+2", "right_triangle+5"]


def grown_text(figure):
    if figure == "para+14":
        return para_plus(14)
    if "+" in figure:
        family, k = figure.split("+")
        return family_member(family, int(k), True, random.Random(0), nested=True)
    return (FIXTURES / f"{figure}.gthm").read_text()


@pytest.mark.parametrize("seed", [42, 5])
@pytest.mark.parametrize("figure", GROWN)
def test_replays_match_the_scalar_reference_on_every_grown_edge(
        figure, seed, monkeypatch):
    # growth validates only its schedule's edges, so the replays are
    # checked on the whole pool it grows from
    tested = []
    real = graph.validate_edges

    def spy(edges, *args):
        tested.extend(edges)
        return real(edges, *args)

    monkeypatch.setattr(graph, "validate_edges", spy)
    result = prove_text(grown_text(figure), figure, seed=seed)
    if figure == "degenerate":
        assert tested == []  # no figure, so no growth
        return
    model, scn = result.model, result.scene
    pool = rules.discover(model, scn, result.witness)
    assert set(tested) <= set(pool)
    stream = stream_of(scn, seed)
    kept = rules.validate_edges(pool, stream)
    samples = [ev for _, _, ev in stream]
    answered = 0
    for ev in samples:
        answered += sum(check_replays(e, ev) for e in pool)
    assert answered
    assert kept == [e for e in pool
                    if all(reference_replays(e, ev) for ev in samples)]


def crafted_evaluation():
    """A hand-made figure: rational and radical lengths from O, a point
    coinciding with A, a float point standing for a circle cut, and two
    lengths 10^12 and 10^12 + 1 that agree within VALIDATION_TOL."""
    ev = sc.Evaluation()
    ev.points.update(
        O=(F(0), F(0)), A=(F(2), F(0)), B=(F(0), F(3)), C=(F(1), F(1)),
        D=(F(2), F(2)), E=(F(6), F(0)), G=(F(4), F(0)), H=(F(0), F(1)),
        K=(F(-1), F(1)), P=(F(2), F(0)), Q=(F(2), F(3)), R=(F(1), F(3)),
        S=(F(0), F(2)), X=(2.0, 0.0), M=(F(10**12), F(0)), N=(F(0), F(1)),
        W=(F(10**12 + 1), F(1)))
    return ev


L = rules.length


def crafted_edges():
    """(name, edge, kept by the reference, kept on squares) for edges
    built by hand over crafted_evaluation: OA=2, OB=3, OC=sqrt(2),
    OD=sqrt(8), OE=6, OG=4, OH=1, OK=sqrt(2), OQ=sqrt(13), OR=sqrt(10),
    OS=2, AP=0, OX=2.0, OM=10^12, NW=10^12+1."""
    neg = rules.composite(("O", "A"), ("O", "E"))  # OA - OE = -4
    zero = rules.make_ratio(L("O", "A"), L("A", "P"))  # OA/AP, AP = 0
    two = rules.make_ratio(L("O", "A"), L("O", "H"))  # OA/OH = 2
    also_two = rules.make_ratio(L("O", "G"), L("O", "S"))  # OG/OS = 2
    half = rules.make_ratio(L("O", "C"), L("O", "D"))  # OC/OD = 1/2
    root2 = rules.make_ratio(L("O", "D"), L("O", "S"))  # OD/OS = sqrt(2)
    one = rules.make_ratio(L("O", "C"), L("O", "K"))  # OC/OK = 1
    assert (zero.den, two.num, also_two.num, half.num, root2.num) == \
        (L("A", "P"), L("O", "A"), L("O", "G"), L("O", "C"), L("O", "D"))

    def edge(name, sources, target, recipe, ref, squares):
        return name, rules._edge(sources, target, "segment-chain", name,
                                 recipe), ref, squares

    return [
        edge("negative composite copied", [neg], L("O", "G"),
             ("copy", neg), False, False),
        edge("zero-length denominator copied", [zero], L("O", "A"),
             ("copy", zero), False, False),
        edge("ratio over a zero length", [L("O", "A"), L("A", "P")], zero,
             ("div", L("O", "A"), L("A", "P")), False, False),
        edge("zero length times a ratio", [zero, L("A", "P")], L("O", "A"),
             ("mul", zero, L("A", "P")), False, False),
        edge("equal ratios copied", [two], also_two, ("copy", two), True, True),
        edge("ratio copied onto its product", [two], one, ("copy", two),
             False, False),
        edge("radical ratio times a rational side", [root2, L("O", "S")],
             L("O", "D"), ("mul", root2, L("O", "S")), True, True),
        edge("radicals divided to a rational ratio", [L("O", "C"), L("O", "D")],
             half, ("div", L("O", "C"), L("O", "D")), True, True),
        edge("radical side from a ratio", [root2, L("O", "D")], L("O", "S"),
             ("div", L("O", "D"), root2), True, True),
        edge("radical copied onto a rational", [L("O", "C")], L("O", "H"),
             ("copy", L("O", "C")), False, False),
        edge("rational legs, radical hypotenuse", [L("O", "A"), L("O", "B")],
             L("O", "Q"), ("pyth_hyp", L("O", "A"), L("O", "B")), True, True),
        edge("radical legs, radical hypotenuse", [L("O", "C"), L("O", "D")],
             L("O", "R"), ("pyth_hyp", L("O", "C"), L("O", "D")), True, True),
        edge("radical hypotenuse, rational leg", [L("O", "Q"), L("O", "A")],
             L("O", "B"), ("pyth_leg", L("O", "Q"), L("O", "A")), True, True),
        edge("leg longer than the hypotenuse", [L("O", "A"), L("O", "Q")],
             L("O", "B"), ("pyth_leg", L("O", "A"), L("O", "Q")), False, False),
        edge("wrong hypotenuse", [L("O", "A"), L("O", "B")], L("O", "R"),
             ("pyth_hyp", L("O", "A"), L("O", "B")), False, False),
        edge("float copied onto its rational", [L("O", "X")], L("O", "A"),
             ("copy", L("O", "X")), True, False),
        edge("rational copied onto a float", [L("O", "A")], L("O", "X"),
             ("copy", L("O", "A")), True, False),
        edge("float over a rational", [L("O", "X"), L("O", "H")], two,
             ("div", L("O", "X"), L("O", "H")), True, False),
        edge("distinct rationals within the tolerance", [L("M", "O")],
             L("N", "W"), ("copy", L("M", "O")), True, False),
        edge("addition is left to the Scalar replay", [L("O", "A"), L("O", "G")],
             L("O", "E"), ("add", L("O", "A"), L("O", "G")), True, False),
    ]


@pytest.mark.parametrize("name,e,ref,squares", crafted_edges(),
                         ids=[c[0] for c in crafted_edges()])
def test_crafted_edges_replay_as_the_scalar_reference(name, e, ref, squares):
    ev = crafted_evaluation()
    assert reference_replays(e, ev) == ref
    assert check_replays(e, ev) == squares


def test_squares_are_exact_positive_pairs_and_ratios_are_crossed():
    ev = crafted_evaluation()
    half = rules.make_ratio(L("O", "C"), L("O", "D"))
    cases = {L("O", "A"): (4, 1), L("O", "C"): (2, 1), L("O", "X"): (),
             L("A", "P"): (), rules.composite(("O", "A"), ("O", "E")): (),
             rules.composite(("O", "E"), ("O", "A")): (16, 1),
             half: (2 * 1, 1 * 8)}
    for dim, want in cases.items():
        assert sc.dim_square(ev, dim) == want, dim
        assert ev.squares[dim] == want  # memoized


def test_exact_ratio_edges_never_reach_the_scalar_replay(monkeypatch):
    # every value growth meets on this all-rational figure is exact and
    # positive, so each copy, div and mul edge of the closure grown
    # at the witness is settled on squared values.  (Two copy edges the
    # closure never reaches read (CO-DO), a difference of two radicals
    # that exactnum.sub leaves as a float.)
    result = prove_text((FIXTURES / "parallelogram.gthm").read_text(), "p")
    assert result.verdict.status == "PROVED"
    closure = result.graph.edges
    tested = [e.recipe[0] for e in closure]
    ops, real_apply = [], rules.apply_edge

    def spy_apply(e, values):
        ops.append(e.recipe[0])
        return real_apply(e, values)

    monkeypatch.setattr(rules, "apply_edge", spy_apply)
    assert rules.validate_edges(closure, stream_of(result.scene)) == closure
    assert {"copy", "div", "mul"} <= set(tested)
    assert ops and not {"copy", "div", "mul"} & set(ops)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_every_edge_reproduces_oracle_at_random_samples(seed):
    model, scn = load("parallelogram.gthm")
    a = sc.sample_params(scn, seed)
    pool = rules.discover(model, scn, a)
    ev = sc.evaluate(scn, a)
    for e in pool[:80]:
        vals = {d: sc.dim_value(ev, d) for d in e.sources}
        got = rules.apply_edge(e, vals)
        assert rel_err(got, sc.dim_value(ev, e.target)) <= 1e-9


# --- the pair index against the all-triples scans it replaced --------------


class ScanWitness:
    """The witness as the all-triples scans read it: every predicate is
    a fresh scene call."""

    def __init__(self, model, scn, a):
        self.model = model
        self.coords = sc.evaluate(scn, a).points
        self.names = list(self.coords)
        origin, base = self.coords[model.origin], self.coords[model.base_point]
        self.axis = sc.Line(origin, sc.vsub(base, origin))
        self.on_axis = [n for n in self.names if sc.on_line(self.coords[n], self.axis)]
        self.off_axis = [n for n in self.names if n not in self.on_axis]

    def distinct(self, p, q):
        return not sc.coincident(self.coords[p], self.coords[q])

    def collinear(self, p, q, r):
        return sc.points_collinear(self.coords[p], self.coords[q], self.coords[r])

    def between(self, p, m, q):
        return sc.strictly_between(self.coords[p], self.coords[m], self.coords[q])

    def axis_feet(self, p):
        return [v for v in self.on_axis if self.distinct(p, v) and sc.perpendicular(
            sc.vsub(self.coords[p], self.coords[v]), self.axis.direction)]

    def axis_side(self, p):
        c = sc.cross(self.axis.direction, sc.vsub(self.coords[p], self.axis.anchor))
        return 1 if as_float(c) > 0 else -1

    def axis_pos_sign(self, p, ref):
        d = sc.dot(self.axis.direction, sc.vsub(self.coords[p], self.coords[ref]))
        return 1 if as_float(d) > 0 else -1


def scan_chain_edges(w):
    """segment_chain_rule's between-triple edges from every C(n,3) triple."""
    edges = []
    for a, b, c in itertools.combinations(w.names, 3):
        if not (w.distinct(a, b) and w.distinct(b, c) and w.distinct(a, c)):
            continue
        if not w.collinear(a, b, c):
            continue
        if w.between(a, b, c):
            t = (a, b, c)
        elif w.between(b, a, c):
            t = (b, a, c)
        elif w.between(a, c, b):
            t = (a, c, b)
        else:
            continue
        a_, m, b_ = t
        am, mb, ab = L(a_, m), L(m, b_), L(a_, b_)
        just = f"{m} lies between {a_} and {b_} on a straight line"
        edges += [rules._edge([am, mb], ab, "segment-chain", just, ("add", am, mb)),
                  rules._edge([ab, am], mb, "segment-chain", just, ("sub", ab, am)),
                  rules._edge([ab, mb], am, "segment-chain", just, ("sub", ab, mb))]
    return edges


def scan_pythagoras_edges(w):
    """pythagoras_rule from every C(n,3) triple and corner, then the
    distance-formula edges."""
    edges = []
    for a, b, c in itertools.combinations(w.names, 3):
        if not (w.distinct(a, b) and w.distinct(b, c) and w.distinct(a, c)):
            continue
        for corner, p, r in ((a, b, c), (b, a, c), (c, a, b)):
            if not sc.perpendicular(sc.vsub(w.coords[p], w.coords[corner]),
                                    sc.vsub(w.coords[r], w.coords[corner])):
                continue
            leg1, leg2, hyp = L(corner, p), L(corner, r), L(p, r)
            just = f"the angle at {corner} in triangle {p}{corner}{r} is a right angle"
            edges += [rules._edge([leg1, leg2], hyp, "pythagoras", just,
                                  ("pyth_hyp", leg1, leg2)),
                      rules._edge([hyp, leg1], leg2, "pythagoras", just,
                                  ("pyth_leg", hyp, leg1)),
                      rules._edge([hyp, leg2], leg1, "pythagoras", just,
                                  ("pyth_leg", hyp, leg2))]
    origin = w.model.origin
    feet = {u: w.axis_feet(u) for u in w.off_axis}
    for u1, u2 in itertools.combinations(w.off_axis, 2):
        if not w.distinct(u1, u2) or w.axis_side(u1) != w.axis_side(u2):
            continue
        for v1 in feet[u1]:
            for v2 in feet[u2]:
                if v1 == v2 or not w.distinct(v1, v2) or origin in (v1, v2):
                    continue
                if not (w.distinct(origin, v1) and w.distinct(origin, v2)):
                    continue
                if w.axis_pos_sign(v1, origin) != w.axis_pos_sign(v2, origin):
                    continue
                d1, d2, o1, o2 = L(origin, v1), L(origin, v2), L(u1, v1), L(u2, v2)
                just = (f"{u1} and {u2} stand over the reference axis at "
                        f"feet {v1} and {v2} with known offsets")
                edges.append(rules._edge([d1, d2, o1, o2], L(u1, u2), "distance-formula",
                                         just, ("dist4", d1, d2, o1, o2)))
    return [e for e in edges if e is not None]


# the fixtures with a figure (degenerate.gthm has none), para+14, and
# nested generator members with radical (parallelogram+8) and float
# (right_triangle+5/+6) points
INDEXED = ["parallelogram", "parallelogram_bd", "parallelogram_bad", "imo2012",
           "unreachable", "para+14", "parallelogram+8", "right_triangle+5",
           "right_triangle+6"]


@pytest.mark.parametrize("seed", [42, 5])
@pytest.mark.parametrize("figure", INDEXED)
def test_indexed_rules_match_all_triples_scans(figure, seed):
    model = dsl.validate(dsl.parse(grown_text(figure), figure), figure)
    scn = sc.build_scene(model)
    a = sc.sample_params(scn, seed)
    w, ref = rules._Witness(model, scn, a), ScanWitness(model, scn, a)
    chain = rules.segment_chain_rule(w)
    pyth = rules.pythagoras_rule(w)
    assert chain and pyth
    # Hyperedge equality takes in the justification, so this is in
    # order and edge for edge
    assert chain == scan_chain_edges(ref)
    assert pyth == scan_pythagoras_edges(ref)


def test_discover_builds_one_witness_and_one_coincidence_test_per_pair(monkeypatch):
    model = dsl.validate(dsl.parse(para_plus(14), "para+14"), "para+14")
    scn = sc.build_scene(model)
    a = sc.sample_params(scn, 42)
    pairs, witnesses = [], []
    real_coincident, real_init = sc.coincident, rules._Witness.__init__

    def spy_coincident(p, q):
        pairs.append(frozenset((p, q)))
        return real_coincident(p, q)

    def spy_init(self, *args):
        witnesses.append(self)
        real_init(self, *args)

    monkeypatch.setattr(sc, "coincident", spy_coincident)
    monkeypatch.setattr(rules._Witness, "__init__", spy_init)
    assert rules.discover(model, scn, a)
    assert len(witnesses) == 1
    n = len(witnesses[0].names)
    assert n == 22
    assert len(set(witnesses[0].points)) == n  # so coordinates name a pair
    assert len(pairs) <= n * (n - 1) // 2
    assert len(set(pairs)) == len(pairs)


def fresh_screens(w):
    """Every screen as the scans took it: from a fresh scene.vsub."""
    pts = w.points
    return [[None if i == j else sc.screen(sc.vsub(q, p))
             for j, q in enumerate(pts)] for i, p in enumerate(pts)]


class FreshScreenWitness(rules._Witness):
    """The witness with its indexed screens replaced by fresh ones
    before the collinear triples are read off."""

    def _collinear_triples(self):
        self.screens = fresh_screens(self)
        return super()._collinear_triples()


def bits(screens):
    return [[s and tuple(x.hex() for x in s) for s in row] for row in screens]


@pytest.mark.parametrize("seed", [42, 5])
@pytest.mark.parametrize("figure", INDEXED)
def test_indexed_screens_are_the_fresh_screens_bit_for_bit(figure, seed):
    model = dsl.validate(dsl.parse(grown_text(figure), figure), figure)
    scn = sc.build_scene(model)
    w = rules._Witness(model, scn, sc.sample_params(scn, seed))
    assert bits(w.screens) == bits(fresh_screens(w))


@pytest.mark.parametrize("seed", [42, 5])
@pytest.mark.parametrize("figure", INDEXED[:5])
def test_finalize_of_a_subset_is_the_pool_filtered_to_it(figure, seed):
    # an edge's place in the pool is its own, not a rank among the
    # others: finalize hands back the very edges it is given, each once
    model = dsl.validate(dsl.parse(grown_text(figure), figure), figure)
    scn = sc.build_scene(model)
    pool = rules.discover(model, scn, sc.sample_params(scn, seed))
    rng = random.Random(seed)
    for _ in range(5):
        subset = rng.sample(pool, rng.randrange(len(pool) + 1))
        again = rng.sample(subset, len(subset) // 3)
        got = rules.finalize(subset + again + [None])
        chosen = {id(e) for e in subset}
        want = [e for e in pool if id(e) in chosen]
        assert got == want
        assert all(x is y for x, y in zip(got, want))


@pytest.mark.parametrize("seed", [42, 5])
@pytest.mark.parametrize("figure", ["parallelogram+8", "right_triangle+5"])
def test_discover_reads_the_same_edges_off_indexed_screens(figure, seed,
                                                           monkeypatch):
    model = dsl.validate(dsl.parse(grown_text(figure), figure), figure)
    scn = sc.build_scene(model)
    a = sc.sample_params(scn, seed)
    got = rules.discover(model, scn, a)
    monkeypatch.setattr(rules, "_Witness", FreshScreenWitness)
    assert got == rules.discover(model, scn, a)


def nested_ratio_solve(known_ratios, known_lengths):
    """ratio_solve_rule by scanning every plain ratio for each composite."""
    plain = [(r, v) for r, v in known_ratios if r.kind == "ratio"
             and r.num.kind == "length" and r.den.kind == "length"]
    comps = [(r, v) for r, v in known_ratios if r.kind == "ratio"
             and r.num.kind == "composite" and r.den.kind == "length"]
    edges = []
    for r2, v2 in comps:
        m_dim, s_dim, z_dim = L(*r2.num.far), L(*r2.num.near), r2.den
        if m_dim not in known_lengths or s_dim == z_dim:
            continue
        for r1, v1 in plain:
            if {r1.num, r1.den} != {s_dim, z_dim}:
                continue
            s_first = r1.num == s_dim
            det = add(mul(v1, F(1)), v2) if s_first else add(F(1), mul(v1, v2))
            if abs(as_float(det)) < 1e-9:
                continue
            just = (f"solve {s_dim.display} and {z_dim.display} from "
                    f"{r1.display} and {r2.display} given {m_dim.display}")
            for target, which in ((s_dim, "S"), (z_dim, "Z")):
                edges.append(rules._edge(
                    [r1, r2, m_dim], target, "ratio-solve", just,
                    ("solve2", r1, r2, m_dim, s_first, which),
                    subpriority=0))
    return [e for e in edges if e is not None]


@pytest.mark.parametrize("seed", [42, 5])
@pytest.mark.parametrize("figure", INDEXED[:6])
def test_ratio_solve_matches_the_nested_scan(figure, seed, monkeypatch):
    model = dsl.validate(dsl.parse(grown_text(figure), figure), figure)
    scn = sc.build_scene(model)
    calls, real = [], rules.ratio_solve_rule

    def spy(known_ratios, known_lengths):
        calls.append((known_ratios, known_lengths,
                      real(known_ratios, known_lengths)))
        return calls[-1][2]

    monkeypatch.setattr(rules, "ratio_solve_rule", spy)
    rules.discover(model, scn, sc.sample_params(scn, seed))
    (known_ratios, known_lengths, got), = calls
    assert got or figure == "unreachable"
    assert got == nested_ratio_solve(known_ratios, known_lengths)
