#!/usr/bin/env python3
"""Walk the whole pipeline on the parallelogram theorem, stage by stage.

Run from the repository root:

    python demos/walkthrough.py
"""

from fractions import Fraction
from pathlib import Path

from gthm import dsl, emit, graph, rules, scene, verify

FIXTURE = Path(__file__).resolve().parent.parent / "fixtures" / "parallelogram.gthm"


def stage(title):
    print()
    print(f"--- {title} " + "-" * max(0, 60 - len(title)))


source = FIXTURE.read_text()
print("The theorem file:")
print()
for line in source.rstrip().splitlines():
    print(f"    {line}")

stage("parse and validate")
model = dsl.validate(dsl.parse(source, "parallelogram"), "parallelogram")
print(f"parameters      {', '.join(model.params)}")
print(f"points          {', '.join(model.points)}")
print(f"auxiliary       {', '.join(sorted(model.aux))}")
print(f"claim           {emit.claim_text(model)}")

stage("build the scene and sample a witness figure")
scn = scene.build_scene(model)
witness = scene.sample_params(scn, seed=42)
print("witness assignment:", ", ".join(f"{n}={v}" for n, v in witness.items))
ev = scene.evaluate(scn, witness)
for name in model.points:
    x, y = ev.points[name]
    print(f"    {name} = ({x}, {y})")

stage("discover arithmetic rules at the witness")
pool = rules.discover(model, scn, witness)
by_rule = {}
for e in pool:
    by_rule[e.rule] = by_rule.get(e.rule, 0) + 1
print(f"{len(pool)} candidate hyperedges:")
for rule_name in sorted(by_rule):
    print(f"    {by_rule[rule_name]:4d}  {rule_name}")

# the figures that validate the proof's steps and then judge its claim
stream = scene.SampleStream(scn, 42, scene.DEFAULT_RANGE,
                            rules.VALIDATION_SAMPLES)

stage(f"grow the graph, validating its proof at {stream.count} random figures")
g = graph.grow_detailed(model, witness, stream)
assert not g.pending
print(f"{len(g.nodes)} nodes reached, {len(g.edges)} edges admitted at the witness")
alternatives = sum(1 for d in g.nodes if len(g.in_edges(d)) > 1)
print(f"{alternatives} nodes have more than one way to be derived")

stage("schedule and focus on the goals")
full = graph.topo_order(g)
focused = graph.focus(g, full)
print(f"full schedule covers {len(full)} nodes; "
      f"the goals need only {len(focused)}:")
print("    " + ", ".join(s.dim.display for s in focused))

stage("execute the schedule at the worked figure x=4, y=1, z=2")
a = scene.ParamAssignment((("x", Fraction(4)), ("y", Fraction(1)),
                           ("z", Fraction(2))))
values = verify.execute_schedule(scn, focused, a)
for step in focused:
    v = values[step.dim]
    how = "parameter" if step.edge is None else step.edge.rule
    print(f"    {step.dim.display:>12} = {str(v):>10}   ({how})")

stage(f"verdict on the claim at the same {stream.count} figures")
v = verify.verdict(model, focused, stream)
print(f"status       {v.status}")
print(f"reason       {v.reason}")
print(f"certificate  {v.certificate.note}")

stage("the rendered proof")
print(emit.render_text(model, focused, v, theorem="parallelogram"), end="")
