#!/usr/bin/env python3
"""The three ways a run can end without a proof.

A claim can be wrong (REFUTED), true but underivable by the rule set
(INCONCLUSIVE with no schedule), or posed over a figure that cannot
even be drawn (INCONCLUSIVE, degenerate).  This script shows one
fixture for each ending.

    python demos/endings.py
"""

from pathlib import Path

from gthm import emit, prove_file, scene, verify

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
# the figures that validate a proof's steps and judge its claim
SAMPLES = 20


def run(name):
    print("=" * 64)
    print(name)
    print("=" * 64)
    result = prove_file(FIXTURES / name, samples=SAMPLES)
    v = result.verdict
    if result.graph is None:
        print("cannot draw the figure at any sampled assignment")
    elif result.graph.pending:
        print("claim dimensions never reached:",
              ", ".join(d.display for d in result.graph.pending))
        stream = scene.SampleStream(result.scene, 42, scene.DEFAULT_RANGE,
                                    SAMPLES)
        ok = verify.oracle_verdict(result.model, stream)
        print(f"coordinates alone say the claim is {ok.status}, "
              f"but there is no derivation to certify it")
    else:
        worst = max(r.claim_residual for r in v.samples)
        print(f"claim: {emit.claim_text(result.model)}")
        print(f"worst claim residual across samples: {worst:g}")
    print(f"verdict: {v.status} ({v.reason})")
    print()


# a false claim over a perfectly good figure
run("parallelogram_bad.gthm")

# a true claim whose target segment no rule can price
run("unreachable.gthm")

# a figure that cannot exist at any parameter assignment
run("degenerate.gthm")
