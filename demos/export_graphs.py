#!/usr/bin/env python3
"""Export derivation graphs as Graphviz DOT.

Writes one annotated DOT file per theorem fixture into demos/out/.
Render them with, for example:

    dot -Tsvg demos/out/parallelogram.dot -o parallelogram.svg

Gray boxes are parameters, double borders are the claim's dimensions,
point-shaped junctions bundle the AND-sources of multi-source edges,
and schedule annotations number each node's place in the derivation.

    python demos/export_graphs.py
"""

from pathlib import Path

from gthm import emit, prove_file

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
OUT = Path(__file__).resolve().parent / "out"


def export(name):
    result = prove_file(FIXTURES / name)
    g, focused = result.graph, result.focused
    target = OUT / f"{name.rsplit('.', 1)[0]}.dot"
    target.write_text(emit.render_dot(g, focused))
    print(f"{target}  ({len(g.nodes)} nodes, {len(g.edges)} derivations, "
          f"{len(focused) if focused else 0} scheduled)")


OUT.mkdir(exist_ok=True)
export("parallelogram.gthm")
export("imo2012.gthm")
export("unreachable.gthm")
