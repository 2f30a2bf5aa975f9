"""Graph growth, scheduling, focusing, and DOT output."""

import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from gthm import dsl, graph as gr, rules, scene as sc, verify as vf
from test_point_limit import para_plus

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from gen import SCALING_K, family_member  # noqa: E402

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def load(name):
    text = (FIXTURES / name).read_text()
    model = dsl.validate(dsl.parse(text, name), name)
    return model, sc.build_scene(model)


def covers(schedule):
    return {s.dim for s in schedule}


def validate_schedule(graph, schedule):
    """Every step's edge must be sourced by earlier steps, and every
    derivable goal must appear."""
    seen = set()
    for step in schedule:
        if step.edge is not None:
            if step.edge.target != step.dim:
                return False
            if not all(s in seen for s in step.edge.sources):
                return False
        if step.dim in seen:
            return False
        seen.add(step.dim)
    return all(g in seen for g in graph.goals if g not in graph.pending)


def stream_of(scn, seed=42, rng_range=sc.DEFAULT_RANGE):
    return sc.SampleStream(scn, seed, rng_range, rules.VALIDATION_SAMPLES)


def pipeline(name, seed=42):
    model, scn = load(name)
    witness = sc.sample_params(scn, seed)
    g = gr.grow_detailed(model, witness, stream_of(scn, seed))
    assert not g.pending
    schedule = gr.topo_order(g)
    return g, schedule, gr.focus(g, schedule)


# --- the worked parallelogram ------------------------------------------------


def test_parallelogram_focused_schedule_is_the_worked_figure():
    g, schedule, focused = pipeline("parallelogram.gthm")
    assert [s.dim.display for s in focused] == [
        "AO", "EO", "BE", "CG", "AE", "AG/CG", "AF/DF", "AG", "GO",
        "(AO-FO)/DF", "DF/FO", "DF", "FO", "CD", "DO"]
    assert sum(1 for s in focused if s.edge is not None) == 12
    assert validate_schedule(g, schedule)


def test_parallelogram_edge_choices():
    g, schedule, focused = pipeline("parallelogram.gthm")
    chosen = {s.dim.display: s.edge for s in focused if s.edge is not None}
    assert chosen["CG"].rule == "parallel-transfer"
    assert chosen["AG"].rule == "similar-triangles"
    assert sorted(x.display for x in chosen["AG"].sources) == ["AG/CG", "CG"]
    assert chosen["CD"].rule == "distance-formula"
    assert chosen["DO"].rule == "pythagoras"
    assert sorted(x.display for x in chosen["DO"].sources) == ["DF", "FO"]
    assert chosen["DF"].rule == "ratio-solve"


def test_parallelogram_full_schedule_covers_focused():
    g, schedule, focused = pipeline("parallelogram.gthm")
    assert covers(focused) <= covers(schedule)
    assert {d.display for d in g.goals} == {"DO", "CD"}
    assert g.pending == ()


def test_bd_variant_proves_too():
    g, schedule, focused = pipeline("parallelogram_bd.gthm")
    names = {s.dim.display for s in focused}
    assert {"BD", "AD"} <= names


# --- the circle figure --------------------------------------------------------


def test_imo_focused_schedule_contains_required_dims():
    g, schedule, focused = pipeline("imo2012.gthm")
    names = {s.dim.display for s in focused}
    for want in ("AC", "BD", "BC", "AX", "BX", "KN", "AN", "LS", "AS",
                 "BN", "MR", "AR", "KM", "LM"):
        assert want in names, f"missing {want}"
    assert validate_schedule(g, schedule)


def test_imo_uses_line_circle_for_the_cut_points():
    g, schedule, focused = pipeline("imo2012.gthm")
    chosen = {s.dim.display: s.edge for s in focused if s.edge is not None}
    assert chosen["AN"].rule == "line-circle"
    assert sorted(x.display for x in chosen["AN"].sources) == \
        ["AB", "AD", "AX", "BC"]
    assert chosen["BS"].rule == "line-circle"
    assert chosen["KM"].rule == "distance-formula"
    assert sorted(x.display for x in chosen["KM"].sources) == \
        ["AN", "AR", "KN", "MR"]


# --- unreachable goals --------------------------------------------------------


def test_unreachable_goal_returns_absent():
    model, scn = load("unreachable.gthm")
    witness = sc.sample_params(scn, 42)
    g = gr.grow_detailed(model, witness, stream_of(scn))
    assert [d.display for d in g.pending] == ["BZ"]
    schedule = gr.topo_order(g)
    assert validate_schedule(g, schedule)  # pending goals are excused
    assert all(s.dim.display != "BZ" for s in schedule)


def test_edge_validation_samples_from_the_run_range(monkeypatch):
    model, scn = load("parallelogram.gthm")
    lo, hi = Fraction(100), Fraction(200)
    witness = sc.sample_params(scn, 42, (lo, hi))
    real = sc.sample_params
    draws = []

    def spy(*args, **kwargs):
        draws.append(real(*args, **kwargs))
        return draws[-1]

    monkeypatch.setattr(sc, "sample_params", spy)
    gr.grow_detailed(model, witness, stream_of(scn, 42, (lo, hi)))
    assert draws
    assert all(lo <= v <= hi for a in draws for _, v in a.items)


# --- admission-time validation ------------------------------------------------


def grow_reference(model, scn, witness, seed=42):
    """Validate the whole discovered pool, then grow by plain BFS rings:
    each ring admits every edge sourced in earlier rings.  The edges
    come back in pool order."""
    pool = rules.discover(model, scn, witness)
    pool = rules.validate_edges(pool, stream_of(scn, seed))
    params = [rules.length(*pair) for _, pair in scn.param_dims]
    goals = gr.goal_dims(model)
    nodes = {d: gr.Node(dim=d, index=i, is_param=True, is_goal=d in goals)
             for i, d in enumerate(params)}
    known, edges = set(params), []
    while True:
        ring = set(known)
        fired = [e for e in pool if e not in edges and e.target not in params
                 and all(s in ring for s in e.sources)]
        for e in fired:
            edges.append(e)
            if e.target not in nodes:
                nodes[e.target] = gr.Node(dim=e.target, index=len(nodes),
                                          is_goal=e.target in goals)
            known.add(e.target)
        if not fired or all(g in known for g in goals):
            admitted = set(edges)
            return nodes, [e for e in pool if e in admitted], known


def thirteen_points():
    """The 13-point parallelogram of tests/test_rules.py."""
    lines = (FIXTURES / "parallelogram.gthm").read_text().splitlines()
    aux = ["aux point P1 = foot(B, through(O,C))",
           "aux point P2 = foot(A, through(O,C))",
           "aux point P3 = foot(E, through(A,B))",
           "aux point P4 = meet(through(E,C), through(O,B))",
           "aux point P5 = foot(D, through(O,B))"]
    return "\n".join([ln for ln in lines if not ln.startswith("claim")] + aux
                     + [ln for ln in lines if ln.startswith("claim")]) + "\n"


def figure(name):
    """Model, a scene and a witness; each call builds a fresh scene."""
    if name == "thirteen":
        model = dsl.validate(dsl.parse(thirteen_points(), "p13"), "p13")
        scn = sc.build_scene(model)
        return model, scn, sc.sample_params(scn, 42)
    model, scn = load(f"{name}.gthm")
    if name == "parallelogram":
        # x=4, y=1, z=2 carries coincidences that validation must drop
        return model, scn, sc.ParamAssignment(
            (("x", Fraction(4)), ("y", Fraction(1)), ("z", Fraction(2))))
    return model, scn, sc.sample_params(scn, 42)


def grow_ring_validated(model, scn, witness, stream=None, admit=None):
    """The reference growth: the closure of the discovered pool with
    each BFS ring's edges validated when reached (`admit`, by default
    rules.validate_edges on `stream`, or on a stream of its own)."""
    if admit is None:
        stream = stream or stream_of(scn)

        def admit(ring):
            return rules.validate_edges(ring, stream)
    return gr.grow(rules.discover(model, scn, witness), params_of(scn),
                   gr.goal_dims(model), admit)


def params_of(scn):
    return tuple(rules.length(*pair) for _, pair in scn.param_dims)


@pytest.mark.parametrize("name", ["parallelogram", "imo2012", "thirteen"])
def test_admission_time_validation_matches_validate_then_grow(name):
    model, scn, witness = figure(name)
    # the reference gets a stream of its own, so it shares no samples
    nodes, edges, known = grow_reference(*figure(name))
    pool = rules.discover(model, scn, witness)
    validated = rules.validate_edges(pool, stream_of(scn))
    g = grow_ring_validated(model, scn, witness)
    assert edges
    assert g.edges == edges
    assert gr.grow(validated, params_of(scn), gr.goal_dims(model), list).edges \
        == edges
    assert gr.grow_detailed(model, witness, stream_of(scn)).reports == []
    assert g.pending == tuple(d for d in g.goals if d not in known)
    assert {d: n for d, n in g.nodes.items() if d not in g.pending} == nodes
    if name == "parallelogram":
        bogus = [e for e in pool if e.rule == "pythagoras"
                 and e.target.display == "BG"
                 and sorted(s.display for s in e.sources) == ["BO", "GO"]]
        assert bogus and bogus[0] not in g.edges
        assert bogus[0] not in validated


def test_growth_validates_each_reached_edge_once(monkeypatch):
    model, scn = load("parallelogram.gthm")
    witness = sc.sample_params(scn, 42)
    pool = rules.discover(model, scn, witness)
    passed, calls, draws = [], [], []
    real_sample = sc.sample_params
    stream = stream_of(scn)

    def spy_validate(ring):
        calls.append(len(ring))
        passed.extend(ring)
        return rules.validate_edges(ring, stream)

    def spy_sample(*args, **kwargs):
        draws.append(args)
        return real_sample(*args, **kwargs)

    monkeypatch.setattr(sc, "sample_params", spy_sample)
    g = grow_ring_validated(model, scn, witness, admit=spy_validate)
    assert not g.pending
    assert len(calls) > 1  # one call per ring
    assert len({e.key() for e in passed}) == len(passed)
    assert len(passed) < len(pool)
    assert len(draws) == rules.VALIDATION_SAMPLES


def topo_reference(graph, position):
    """The quadratic sweep: at each step rescan every unscheduled node
    for a fully sourced in-edge, pop the lowest (index, name), and
    commit to the fully sourced in-edge of lowest pool `position`."""
    scheduled = set(graph.param_dims)
    steps = [gr.ScheduleStep(d, None) for d in graph.param_dims]
    in_edges = {}
    for e in graph.edges:
        in_edges.setdefault(e.target, []).append(e)
    remaining = {d for d in in_edges if d not in scheduled}
    while remaining:
        ready = [d for d in remaining
                 if any(scheduled.issuperset(e.sources) for e in in_edges[d])]
        if not ready:
            break
        nxt = min(ready, key=lambda d: (graph.nodes[d].index, d.display))
        sourced = [e for e in in_edges[nxt] if scheduled.issuperset(e.sources)]
        steps.append(gr.ScheduleStep(nxt, min(sourced, key=position)))
        scheduled.add(nxt)
        remaining.discard(nxt)
    if any(g not in scheduled for g in graph.goals if g not in graph.pending):
        return None
    return steps


@pytest.mark.parametrize("seed", [42, 1, 2])
@pytest.mark.parametrize("name", ["parallelogram", "parallelogram_bd",
                                  "parallelogram_bad", "imo2012",
                                  "unreachable", "thirteen"])
def test_topo_order_matches_quadratic_sweep(name, seed):
    if name == "thirteen":
        model = dsl.validate(dsl.parse(thirteen_points(), "p13"), "p13")
        scn = sc.build_scene(model)
    else:
        model, scn = load(f"{name}.gthm")
    witness = sc.sample_params(scn, seed)
    g = gr.grow_detailed(model, witness, stream_of(scn, seed))
    position = {e: i for i, e in enumerate(rules.discover(model, scn, witness))}
    got, want = gr.topo_order(g), topo_reference(g, position.__getitem__)
    assert got is not None and want is not None
    assert [s.dim for s in got] == [s.dim for s in want]
    assert [s.edge for s in got] == [s.edge for s in want]
    assert len(got) > len(g.param_dims)


# --- determinism and DOT ------------------------------------------------------


def test_pipeline_deterministic_across_runs():
    g1, s1, f1 = pipeline("parallelogram.gthm")
    g2, s2, f2 = pipeline("parallelogram.gthm")
    assert [(s.dim, s.edge) for s in s1] == [(s.dim, s.edge) for s in s2]
    assert gr.to_dot(g1, f1) == gr.to_dot(g2, f2)


def test_dot_structure():
    g, schedule, focused = pipeline("parallelogram.gthm")
    dot = gr.to_dot(g, focused)
    assert dot.startswith("digraph derivation {")
    assert dot.endswith("}\n")
    assert 'fillcolor=gray85' in dot  # parameters
    assert '"CD"' in dot and '"DO"' in dot
    assert 'shape=point' in dot  # multi-source junction vertices
    assert '1: AO' in dot  # schedule step annotations


def test_dot_pending_goal_is_dashed():
    model, scn = load("unreachable.gthm")
    witness = sc.sample_params(scn, 42)
    g = gr.grow_detailed(model, witness, stream_of(scn))
    dot = gr.to_dot(g, g.focused)
    assert 'style=dashed, color=red' in dot
    assert '"BZ"' in dot


# --- the index invariant of grown graphs -----------------------------------


def grown_model(figure):
    """A fixture, para+14, or a nested generator member `family+k:truth`."""
    if figure == "para+14":
        text = para_plus(14)
    elif "+" in figure:
        family, rest = figure.split("+")
        k, truth = rest.split(":")
        text = family_member(family, int(k), truth == "true",
                             random.Random(0), nested=True)
    else:
        text = (FIXTURES / f"{figure}.gthm").read_text()
    return dsl.validate(dsl.parse(text, figure), figure)


# every fixture with a figure at seeds 1-3, para+14, and the nested
# members the benchmark's `scaling` workload proves, true and false
INVARIANT = [(name, seed) for name in ("parallelogram", "parallelogram_bd",
                                       "parallelogram_bad", "imo2012",
                                       "unreachable")
             for seed in (1, 2, 3)]
INVARIANT += [("para+14", 42)]
INVARIANT += [(f"{family}+{k}:{truth}", 42) for family, ks in SCALING_K.items()
              for k in ks for truth in ("true", "false")]


@pytest.mark.parametrize("figure,seed", INVARIANT)
def test_every_derived_node_has_an_in_edge_from_lower_indices(figure, seed):
    # the invariant topo_order reads the schedule off; growth changes
    # must keep it
    model = grown_model(figure)
    scn = sc.build_scene(model)
    check_index_invariant(gr.grow_detailed(model, sc.sample_params(scn, seed),
                                           stream_of(scn, seed)))


@pytest.mark.parametrize("figure,seed", INVARIANT)
def test_each_node_takes_its_least_sort_key_in_edge_from_lower_indices(
        figure, seed):
    # the pool is in rules._sort_key order, so the first admitted edge
    # is the least by a key each edge has alone
    model = grown_model(figure)
    scn = sc.build_scene(model)
    g = gr.grow_detailed(model, sc.sample_params(scn, seed),
                         stream_of(scn, seed))
    index = {d: n.index for d, n in g.nodes.items()}
    derived = [s for s in gr.topo_order(g) if s.edge is not None]
    assert derived
    for step in derived:
        lower = [e for e in g.in_edges(step.dim)
                 if all(index[s] < index[step.dim] for s in e.sources)]
        assert step.edge is min(lower, key=rules._sort_key), step.dim.display


def check_index_invariant(g):
    by_index = sorted(g.nodes.values(), key=lambda n: n.index)
    assert [n.index for n in by_index] == list(range(len(g.nodes)))
    assert [n.dim for n in by_index if n.is_param] == \
        [n.dim for n in by_index[:len(g.param_dims)]]
    assert tuple(n.dim for n in by_index[len(g.nodes) - len(g.pending):]) \
        == g.pending
    derived = [n for n in by_index if not n.is_param and n.dim not in g.pending]
    assert derived
    for node in derived:
        assert any(all(g.nodes[s].index < node.index for s in e.sources)
                   for e in g.in_edges(node.dim)), node.dim.display


def test_topo_order_raises_without_the_index_invariant():
    a, b, c = _name(0), _name(1), _name(2)
    edge = rules.Hyperedge(sources=(c,), target=b, rule="segment-chain",
                           justification="synthetic", recipe=("copy", c))
    back = rules.Hyperedge(sources=(a,), target=c, rule="segment-chain",
                           justification="synthetic", recipe=("copy", a))
    nodes = {a: gr.Node(a, 0, is_param=True), b: gr.Node(b, 1),
             c: gr.Node(c, 2, is_goal=True)}
    graph = gr.DerivationGraph(nodes=nodes, edges=[edge, back], goals=(c,),
                               pending=())
    with pytest.raises(ValueError, match=b.display):
        gr.topo_order(graph)


# --- growth at the witness, validation of the focused schedule -------------


def focused_of(g):
    return gr.focus(g, gr.topo_order(g))


def steps(schedule):
    return [(s.dim, s.edge, s.edge and rules._sort_key(s.edge),
             s.edge and s.edge.rule) for s in schedule]


def assert_same_proof(g, ref):
    """The same focused steps and pending goals as the ring-validated
    reference."""
    assert steps(focused_of(g)) == steps(focused_of(ref))
    assert g.pending == ref.pending


def assert_same_numbering(g, ref):
    """The node numbers and schedule order of the reference too, which
    growth matches once it validates the edges that number the nodes."""
    assert_same_proof(g, ref)
    assert g.nodes == ref.nodes
    assert [s.dim for s in gr.topo_order(g)] == \
        [s.dim for s in gr.topo_order(ref)]


@pytest.mark.parametrize("figure,seed", INVARIANT)
def test_schedule_validation_matches_ring_validation(figure, seed):
    # the reference gets a stream of its own, so it shares no samples
    model = grown_model(figure)
    scn = sc.build_scene(model)
    witness = sc.sample_params(scn, seed)
    streams = (stream_of(scn, seed), stream_of(scn, seed))
    ref = grow_ring_validated(model, scn, witness, streams[1])
    g = gr.grow_detailed(model, witness, streams[0])
    assert_same_proof(g, ref)
    schedules = [None if h.pending else tuple(focused_of(h)) for h in (g, ref)]
    verdicts = [vf.verdict(model, schedule, stream)
                for stream, schedule in zip(streams, schedules)]
    assert verdicts[0] == verdicts[1]


def spy_validation(monkeypatch, rejected=lambda e: False):
    """Replace growth's validation by the real one less `rejected`
    edges; return the list of the edge lists it is handed."""
    calls, real = [], gr.validate_edges

    def validate(edges, *args):
        calls.append(list(edges))
        return [e for e in real(edges, *args) if not rejected(e)]

    monkeypatch.setattr(gr, "validate_edges", validate)
    return calls


def test_without_a_failure_only_the_focused_steps_are_validated(monkeypatch):
    model, scn = load("parallelogram.gthm")
    witness = sc.sample_params(scn, 42)
    calls = spy_validation(monkeypatch)
    g = gr.grow_detailed(model, witness, stream_of(scn, 42))
    assert calls == [[s.edge for s in focused_of(g) if s.edge is not None]]
    assert len(calls[0]) == 12
    assert g.edges == gr.grow(rules.discover(model, scn, witness),
                              params_of(scn), gr.goal_dims(model), list).edges


def test_the_witness_closure_admits_a_coincidence_no_schedule_uses():
    # x=4, y=1, z=2 makes BO, GO -> BG a right triangle that is none at
    # other samples: growth at the witness admits it, validation never
    # meets it, and ring validation drops it
    model, scn, witness = figure("parallelogram")
    g = gr.grow_detailed(model, witness, stream_of(scn, 42))
    ref = grow_ring_validated(*figure("parallelogram"))
    bogus = [e for e in rules.discover(model, scn, witness)
             if e.rule == "pythagoras" and e.target.display == "BG"
             and sorted(s.display for s in e.sources) == ["BO", "GO"]]
    assert bogus and bogus[0] in g.edges and bogus[0] not in ref.edges
    for h in (g, ref):
        assert all(s.edge != bogus[0] for s in gr.topo_order(h))
    assert_same_proof(g, ref)


@pytest.mark.parametrize("dim", ["FO", "DO"])
def test_a_failed_schedule_edge_is_dropped_and_growth_runs_again(
        dim, monkeypatch):
    model, scn = load("parallelogram.gthm")
    witness = sc.sample_params(scn, 42)
    pool = rules.discover(model, scn, witness)
    first = gr.grow_detailed(model, witness, stream_of(scn, 42))
    bad = next(s.edge for s in focused_of(first) if s.dim.display == dim)
    grown = []
    real_grow = gr.grow

    def grow(*args):
        grown.append(real_grow(*args))
        return grown[-1]

    monkeypatch.setattr(gr, "grow", grow)
    calls = spy_validation(monkeypatch, lambda e: e == bad)
    g = gr.grow_detailed(model, witness, stream_of(scn, 42))
    tested = [e for c in calls for e in c]
    assert len(grown) == 2 and g is grown[1]  # a second round runs
    assert calls[0] == [s.edge for s in focused_of(grown[0]) if s.edge]
    assert bad in calls[0]
    assert len(set(tested)) == len(tested)  # no edge validated twice
    monkeypatch.setattr(gr, "grow", real_grow)
    ref_stream = stream_of(scn)
    ref = gr.grow([e for e in pool if e != bad], params_of(scn),
                  gr.goal_dims(model),
                  lambda ring: rules.validate_edges(ring, ref_stream))
    assert bad not in g.edges
    assert_same_numbering(g, ref)
    assert steps(focused_of(g)) != steps(focused_of(first))
    assert not g.pending
    check_index_invariant(g)


@pytest.mark.parametrize("every", [2, 3, 5, 11])
@pytest.mark.parametrize("name", ["parallelogram", "imo2012", "thirteen"])
def test_after_a_failure_growth_gives_the_ring_validated_proof(
        name, every, monkeypatch):
    # a synthetic validation that fails the first focused step of the
    # witness closure, and every `every`-th edge of the pool besides,
    # failing numbering edges and schedule edges alike, round after round
    model, scn, witness = figure(name)
    pool = rules.discover(model, scn, witness)
    position = {e: i for i, e in enumerate(pool, 1)}
    closure = gr.grow(pool, params_of(scn), gr.goal_dims(model), list)
    victim = next(s.edge for s in focused_of(closure) if s.edge is not None)

    def rejected(e):
        return e == victim or position[e] % every == 0

    ref_model, ref_scn, _ = figure(name)
    ref_stream = stream_of(ref_scn)
    ref = grow_ring_validated(
        ref_model, ref_scn, witness,
        admit=lambda ring: [e for e in rules.validate_edges(
            ring, ref_stream) if not rejected(e)])
    calls = spy_validation(monkeypatch, rejected)
    g = gr.grow_detailed(model, witness, stream_of(scn, 42))
    tested = [e for c in calls for e in c]
    assert len(set(tested)) == len(tested)
    assert_same_numbering(g, ref)
    if not g.pending:
        check_index_invariant(g)


def test_a_coincidence_rich_witness_costs_no_more_than_ring_validation(
        monkeypatch):
    # at a = h the right triangle is isosceles: discovery proposes about
    # 16,000 edges, and ring validation drops most it reaches.  Refining
    # the closure one failed schedule edge at a time took over a
    # thousand regrowths here; validating the numbering edges after the
    # first failure takes one
    model = grown_model("right_triangle+5:true")
    scn, ref_scn = sc.build_scene(model), sc.build_scene(model)
    witness = sc.ParamAssignment((("a", Fraction(9)), ("h", Fraction(9)),
                                  ("q", Fraction(15, 2))))
    reached = []
    ref_stream = stream_of(ref_scn)
    ref = grow_ring_validated(
        model, ref_scn, witness,
        admit=lambda ring: reached.extend(ring) or rules.validate_edges(
            ring, ref_stream))
    grown = []
    real_grow = gr.grow
    monkeypatch.setattr(gr, "grow",
                        lambda *args: grown.append(1) or real_grow(*args))
    calls = spy_validation(monkeypatch)
    g = gr.grow_detailed(model, witness, stream_of(scn, 42))
    tested = [e for c in calls for e in c]
    assert len(grown) <= 3
    assert len(set(tested)) == len(tested) < len(reached)
    assert len(reached) - len(ref.edges) > 1000  # edges validation drops
    assert_same_numbering(g, ref)


def test_refinement_ends_when_validation_rejects_everything(monkeypatch):
    model, scn = load("parallelogram.gthm")
    witness = sc.sample_params(scn, 42)
    calls = spy_validation(monkeypatch, lambda e: True)
    g = gr.grow_detailed(model, witness, stream_of(scn, 42))
    tested = [e for c in calls for e in c]
    assert all(calls) and len(set(tested)) == len(tested)
    assert g.edges == []  # the regrown first ring admits nothing
    assert g.pending == g.goals


# --- synthetic pools grown through the closure --------------------------------


def _name(i: int) -> rules.Dim:
    return rules.length("N", f"{i:02d}")


def random_pool(seed: int):
    """A small random AND-OR pool over synthetic length dims, with its
    parameters and goals."""
    rng = random.Random(seed)
    n = rng.randint(2, 30)
    dims = [_name(i) for i in range(n)]
    n_params = rng.randint(1, min(3, n - 1))
    pool = []
    for _ in range(rng.randint(1, 40)):
        target = rng.choice(dims[n_params:])
        k = rng.randint(1, min(3, n - 1))
        sources = rng.sample([d for d in dims if d != target], k)
        pool.append(rules.Hyperedge(
            sources=tuple(sorted(sources, key=lambda d: d.display)),
            target=target, rule="segment-chain", justification="synthetic",
            recipe=("copy", sources[0])))
    goals = tuple(rng.sample(dims, rng.randint(1, 2)))
    return pool, tuple(dims[:n_params]), goals


def random_hypergraph(seed: int):
    """A random pool grown through the closure, with its parameters, and
    the edges the synthetic validation keeps, in pool order: it fails
    every sixth edge of the pool.  Two edges of the pool may be equal,
    so they are told apart by identity."""
    pool, params, goals = random_pool(seed)
    kept = [e for i, e in enumerate(pool, 1) if i % 6 != 0]
    admissible = {id(e) for e in kept}
    graph = gr.grow(pool, params, goals,
                    lambda ring: [e for e in ring if id(e) in admissible])
    return graph, params, kept


def forward_closure(edges, params):
    known = set(params)
    changed = True
    while changed:
        changed = False
        for e in edges:
            if e.target not in known and all(s in known for s in e.sources):
                known.add(e.target)
                changed = True
    return known


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_topo_valid_and_absent_iff_unreachable(seed):
    graph, params, kept = random_hypergraph(seed)
    schedule = gr.topo_order(graph)
    reachable = forward_closure(kept, params)
    assert graph.pending == tuple(g for g in graph.goals if g not in reachable)
    assert validate_schedule(graph, schedule)
    assert not covers(schedule) & set(graph.pending)


def test_topo_order_matches_quadratic_sweep_on_random_pools():
    for seed in range(1000):
        graph, _, kept = random_hypergraph(seed)
        position = {id(e): i for i, e in enumerate(kept)}
        got, want = (gr.topo_order(graph),
                     topo_reference(graph, lambda e: position[id(e)]))
        assert want is not None, f"seed {seed}"
        assert [(s.dim, s.edge) for s in got] == \
            [(s.dim, s.edge) for s in want], f"seed {seed}"


def kahn_reference(graph):
    """Textbook Kahn on a plain digraph, same (index, name) tie-break."""
    preds = {e.target: set(e.sources) for e in graph.edges}
    done = {d for d, n in graph.nodes.items() if n.is_param}
    order = [d for d in sorted(done, key=lambda d: graph.nodes[d].index)]
    remaining = set(preds)
    while remaining:
        ready = [d for d in remaining if preds[d] <= done]
        if not ready:
            break
        nxt = min(ready, key=lambda d: (graph.nodes[d].index, d.display))
        order.append(nxt)
        done.add(nxt)
        remaining.discard(nxt)
    return order


def random_tree(seed: int):
    """A random tree rooted at one parameter, grown through the closure
    from a shuffled pool up to its last node."""
    rng = random.Random(seed)
    n = rng.randint(2, 20)
    dims = [_name(i) for i in range(n)]
    pool = []
    for i in range(1, n):
        parent = dims[rng.randrange(i)]
        pool.append(rules.Hyperedge(
            sources=(parent,), target=dims[i], rule="segment-chain",
            justification="synthetic", recipe=("copy", parent)))
    rng.shuffle(pool)
    return gr.grow(pool, dims[:1], dims[-1:], list)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_matches_textbook_kahn_on_plain_digraphs(seed):
    graph = random_tree(seed)
    assert not graph.pending
    schedule = gr.topo_order(graph)
    assert [s.dim for s in schedule] == kahn_reference(graph)
