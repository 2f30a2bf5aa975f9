"""Automated plane-geometry prover over a derivation hypergraph.

A theorem file declares free parameters, a ruler-and-compass style
construction, and one claim about segment lengths.  The prover samples
a random figure, discovers arithmetic rules relating its dimensions,
grows an AND-OR derivation graph from the parameters, and schedules
it topologically.  Every edge of the schedule is replayed, from the
coordinate values of its sources, at each random figure of one sample
stream, and the claim is then evaluated on the coordinates of those
same figures.  Claims that survive come back PROVED with a proof
script; wrong claims come back REFUTED with the offending samples.

    from gthm import prove_file
    result = prove_file("fixtures/parallelogram.gthm")
    assert result.verdict.status == "PROVED"
    print(result.text)
"""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path
from typing import Optional

from . import dsl, emit, graph, rules, scene, verify
from .record import Record
from .verify import Verdict

__all__ = ["dsl", "scene", "rules", "graph", "verify", "emit",
           "ProofResult", "prove_model", "prove_file", "prove_text",
           "Verdict"]

__version__ = "0.1.0"


class ProofResult(Record):
    """Everything the pipeline produced for one theorem file.

    A degenerate figure leaves witness and graph None.  `schedule` is
    the proof, present only when every goal was derived; `focused` is
    the goals' part of the schedule even when some goal stays pending,
    which is what the DOT view draws."""

    __slots__ = ("model", "theorem", "scene", "witness", "graph", "focused",
                 "schedule", "verdict")

    @property
    def text(self) -> str:
        """The proof script, or the verdict line when there is none."""
        return emit.render_text(self.model, self.schedule, self.verdict,
                                self.theorem)


def prove_model(model: dsl.HypothesisModel, theorem: Optional[str] = None,
                *, seed: int = 42, samples: int = rules.VALIDATION_SAMPLES,
                rng_range: tuple[Fraction, Fraction] = scene.DEFAULT_RANGE,
                ) -> ProofResult:
    """Derive and judge the claim of a validated model: sample a
    witness, grow the graph with the focused schedule it validated at
    the `samples` samples of one stream, and take the verdict on that
    stream.  A figure that cannot be drawn comes back INCONCLUSIVE."""
    scene_ = scene.build_scene(model)
    stream = scene.SampleStream(scene_, seed, rng_range, samples)
    try:
        witness = scene.sample_params(scene_, seed, rng_range)
        g = graph.grow_detailed(model, witness, stream)
        focused = g.focused
        schedule = focused if not g.pending else None
        v = verify.verdict(model, schedule, stream)
    except scene.DegenerateModel as err:
        witness = g = focused = schedule = None
        v = verify.degenerate_verdict(err)
    return ProofResult(model=model, theorem=theorem, scene=scene_,
                       witness=witness, graph=g, focused=focused,
                       schedule=schedule, verdict=v)


def prove_text(source: str, name: str = "<input>", **settings) -> ProofResult:
    """Run the whole pipeline on theorem source text; `settings` are
    the keyword arguments of prove_model."""
    model = dsl.validate(dsl.parse(source, name), name)
    return prove_model(model, name, **settings)


def prove_file(path, **settings) -> ProofResult:
    """Run the whole pipeline on a .gthm file; `settings` are the
    keyword arguments of prove_model."""
    p = Path(path)
    return prove_text(dsl.read_source(p, p.stem), name=p.stem, **settings)
