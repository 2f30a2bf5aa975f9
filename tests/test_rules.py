"""Rule discovery against frozen figures.

The parallelogram checks use the fixed assignment x=4, y=1, z=2, where
every coordinate is a small rational: O=(0,0), A=(4,0), E=(1,0),
B=(1,2), C=(5,2), D=(5/2,1), F=(5/2,0), G=(5,0).
"""

import ast
import itertools
import math
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from gthm import dsl, prove_text, rules, scene as sc
from gthm.exactnum import as_float, rel_err

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


def test_ratio_canonical_and_inversion_flag():
    ag, cg = rules.length("A", "G"), rules.length("C", "G")
    r1, inv1 = rules.make_ratio(ag, cg)
    r2, inv2 = rules.make_ratio(cg, ag)
    assert r1 == r2 and r1.display == "AG/CG"
    assert (inv1, inv2) == (False, True)


def test_composite_sorts_into_numerator():
    comp = rules.composite(("O", "A"), ("O", "F"))
    assert comp.display == "(AO-FO)"
    r, inv = rules.make_ratio(rules.length("D", "F"), comp)
    assert r.num == comp and inv is True
    assert r.display == "(AO-FO)/DF"


def test_dims_are_interned():
    assert rules.length("A", "B") is rules.length("B", "A")
    ag, cg = rules.length("A", "G"), rules.length("C", "G")
    assert rules.make_ratio(ag, cg)[0] is rules.make_ratio(cg, ag)[0]
    comp = rules.composite(("O", "A"), ("O", "F"))
    assert comp is rules.composite(("A", "O"), ("F", "O"))
    assert rules.make_ratio(rules.length("D", "F"), comp)[0] is \
        rules.make_ratio(comp, rules.length("F", "D"))[0]


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


def test_solve2_edges_share_group(para):
    model, scn, a, pool = para
    e_df = has_edge(pool, ["(AO-FO)/DF", "AO", "DF/FO"], "DF", "ratio-solve")
    e_fo = has_edge(pool, ["(AO-FO)/DF", "AO", "DF/FO"], "FO", "ratio-solve")
    assert e_df is not None and e_fo is not None
    assert e_df.group == e_fo.group
    comp = rules.composite(("O", "A"), ("O", "F"))
    r2, _ = rules.make_ratio(comp, rules.length("D", "F"))
    r1, _ = rules.make_ratio(rules.length("D", "F"), rules.length("F", "O"))
    vals = {r1: F(2, 5), r2: F(3, 2), rules.length("A", "O"): F(4)}
    # OF = OA / (1 + (DF/OF)*(OA-OF)/DF) = 4/(1+3/5) = 5/2
    assert rules.apply_edge(e_fo, vals) == F(5, 2)
    assert rules.apply_edge(e_df, vals) == F(1)


def test_apply_edge_from_ratio(para):
    model, scn, a, pool = para
    e = has_edge(pool, ["AG/CG", "CG"], "AG", "similar-triangles")
    assert e is not None and e.subpriority == 3
    r, _ = rules.make_ratio(rules.length("A", "G"), rules.length("C", "G"))
    assert rules.apply_edge(e, {r: F(1, 2), rules.length("C", "G"): F(2)}) == F(1)


# --- line-circle rule on the circle fixture ---------------------------------


def test_line_circle_edges(imo):
    model, scn, a, pool = imo
    e_an = has_edge(pool, ["AB", "AD", "AX", "BC"], "AN", "line-circle")
    e_kn = has_edge(pool, ["AB", "AD", "AX", "BC", "DX"], "KN", "line-circle")
    assert e_an is not None and e_kn is not None
    assert e_an.group == e_kn.group
    e_bs = has_edge(pool, ["AB", "AC", "BD", "BX"], "BS", "line-circle")
    e_ls = has_edge(pool, ["AB", "AC", "BD", "BX", "DX"], "LS", "line-circle")
    assert e_bs is not None and e_ls is not None
    assert e_bs.group == e_ls.group
    assert e_bs.group != e_an.group


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
    assert [(e.sources, e.target, e.rule, e.group) for e in pool] == \
        [(e.sources, e.target, e.rule, e.group) for e in again]


def test_dedup_by_sources_target_rule(para):
    model, scn, a, pool = para
    keys = [e.key() for e in pool]
    assert len(keys) == len(set(keys))


@pytest.mark.parametrize("figure", ["para", "imo"])
def test_no_rule_reemits_another_rules_edge(figure, request):
    pool = request.getfixturevalue(figure)[3]
    keys = [(e.sources, e.target, e.recipe) for e in pool]
    assert len(keys) == len(set(keys))


def test_group_labels_contiguous_from_one(para):
    model, scn, a, pool = para
    labels = sorted({e.group for e in pool})
    assert labels[0] == 1
    assert labels == list(range(1, labels[-1] + 1))


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


def brute_force_similar(model, scn, a):
    """Every triangle pair under every vertex correspondence, emitted in
    scan order; sides are compared by squared length, exactly when all
    six are rational."""
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
                out.extend(rules._similarity_edges(t1, t2, perm))
    return [e for e in out if e is not None]


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
    got = rules.similar_triangles_rule(model, scn, a)
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


def test_validate_edges_keeps_sound_and_drops_special_case(para):
    # x=4, y=1, z=2 is a pretty figure with extra coincidences (the
    # angle OBG happens to be right there); replay at fresh samples must
    # drop those while keeping the genuinely forced relations
    model, scn, a, pool = para
    kept = rules.validate_edges(pool, model, scn, seed=42)
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
    assert rules.validate_edges(pool_g, model, scn, seed=42) == pool_g


def test_validate_edges_drops_coincidences(para):
    model, scn, a, pool = para
    # a fabricated edge claiming CG equals AE holds at no sample
    bogus = rules.Hyperedge(
        sources=(rules.length("A", "E"),), target=rules.length("C", "G"),
        rule="parallel-transfer", justification="made up",
        recipe=("copy", rules.length("A", "E")))
    kept = rules.validate_edges([bogus], model, scn, seed=42)
    assert kept == []


def test_zero_denominator_fails_every_call_and_every_edge_needing_it():
    ev = sc.Evaluation()
    ev.points.update(A=(F(0), F(0)), B=(F(1), F(0)), E=(F(0), F(1)),
                     C=(F(2), F(1)), D=(F(2), F(1)))  # C and D coincide
    ab, ae = rules.length("A", "B"), rules.length("A", "E")
    cd = rules.length("C", "D")
    r, _ = rules.make_ratio(ab, cd)
    nested, _ = rules.make_ratio(r, ae)
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
