"""Command-line front door: parse, grow, schedule, verify, render.

Three commands share one pipeline:

* prove  runs it end to end and prints the proof script (or JSON, DOT,
         or the sampled scene);
* graph  prints the grown derivation graph as DOT, schedule-annotated
         when a schedule exists;
* check  skips derivation entirely and judges the claim by coordinate
         sampling alone.

Exit status encodes the verdict: 0 PROVED, 1 REFUTED, 2 INCONCLUSIVE,
3 input or usage error.  Fixed input, flags, and seed give
byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import sys
from fractions import Fraction
from pathlib import Path
from typing import Optional

from . import ProofResult, dsl, emit, prove_model, scene as sc, verify as vf
from .record import Record
from .rules import VALIDATION_SAMPLES

EXIT_PROVED = 0
EXIT_REFUTED = 1
EXIT_INCONCLUSIVE = 2
EXIT_INPUT_ERROR = 3

_STATUS_EXIT = {vf.STATUS_PROVED: EXIT_PROVED,
                vf.STATUS_REFUTED: EXIT_REFUTED,
                vf.STATUS_INCONCLUSIVE: EXIT_INCONCLUSIVE}

_EMIT_CHOICES = {"prove": ("text", "json", "dot", "scene"),
                 "graph": ("dot",),
                 "check": ("text", "json")}


class RunConfig(Record):
    __slots__ = ("input_path", "seed", "samples", "emit_format", "rng_range")
    _defaults = (42, VALIDATION_SAMPLES, "text", sc.DEFAULT_RANGE)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; the contract reserves 2 for
    # INCONCLUSIVE, so route usage problems through exit 3 instead
    def error(self, message):
        raise UsageError(message)


# a --range bound: an integer, a decimal or p/q with q > 0.  No
# exponent: Fraction("1e300000") takes time that grows with it
_RANGE_BOUND = re.compile(r"[+-]?(?:\d+(?:\.\d*)?|\.\d+|\d+/0*[1-9]\d*)")


def _parse_range(text: str) -> tuple[Fraction, Fraction]:
    lo_text, sep, hi_text = text.partition(":")
    if not sep:
        raise UsageError(f"--range wants LO:HI, got {text!r}")
    for bound in (lo_text, hi_text):
        if len(bound) > dsl.MAX_RANGE_CHARS or not _RANGE_BOUND.fullmatch(bound):
            raise UsageError(
                f"--range bounds must be integers, decimals or p/q of at "
                f"most {dsl.MAX_RANGE_CHARS} characters, got {text!r}")
    lo, hi = Fraction(lo_text), Fraction(hi_text)
    if not 0 < lo < hi:
        raise UsageError(f"--range wants 0 < LO < HI, got {text!r}")
    return lo, hi


def _env_seed() -> int:
    raw = os.environ.get("GRAATP_SEED")
    if raw is None:
        return 42
    try:
        return int(raw)
    except ValueError:
        raise UsageError(f"GRAATP_SEED must be an integer, got {raw!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gthm",
                     description="derive and check plane-geometry claims")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (("prove", "derive the claim and print a proof"),
                            ("graph", "print the derivation graph as DOT"),
                            ("check", "sample the claim from coordinates")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("input", help="hypothesis file (.gthm)")
        p.add_argument("--seed", type=int, default=None,
                       help="sampling seed (default: $GRAATP_SEED or 42)")
        p.add_argument("--samples", type=int, default=VALIDATION_SAMPLES,
                       help="figures that validate the steps and judge "
                            "the claim")
        p.add_argument("--emit", default=None,
                       choices=("text", "json", "dot", "scene"))
        p.add_argument("--range", default="1:10", metavar="LO:HI",
                       help="parameter sampling range")
    return parser


# main's parser, built on its first call and reused by every later one:
# parsing keeps no state in it
_parser = functools.cache(build_parser)


def _config(args) -> RunConfig:
    emit_format = args.emit or _EMIT_CHOICES[args.command][0]
    if emit_format not in _EMIT_CHOICES[args.command]:
        raise UsageError(
            f"{args.command} cannot emit {emit_format!r}; choose from "
            f"{', '.join(_EMIT_CHOICES[args.command])}")
    if args.samples < 1:
        raise UsageError("--samples must be at least 1")
    if args.samples > dsl.MAX_SAMPLES:
        raise UsageError(f"--samples must be at most {dsl.MAX_SAMPLES}")
    seed = args.seed if args.seed is not None else _env_seed()
    return RunConfig(input_path=Path(args.input), seed=seed,
                     samples=args.samples, emit_format=emit_format,
                     rng_range=_parse_range(args.range))


def _load_model(cfg: RunConfig):
    name = str(cfg.input_path)
    text = dsl.read_source(cfg.input_path, name)
    return dsl.validate(dsl.parse(text, name), name)


def _prove(cfg: RunConfig) -> ProofResult:
    return prove_model(_load_model(cfg), cfg.input_path.stem, seed=cfg.seed,
                       samples=cfg.samples, rng_range=cfg.rng_range)


def cmd_prove(cfg: RunConfig) -> int:
    r = _prove(cfg)
    if cfg.emit_format == "json":
        out = emit.render_json(r.model, r.verdict, r.theorem)
    elif cfg.emit_format == "text" or r.graph is None:
        # a degenerate figure has no graph or witness to draw
        out = r.text
    elif cfg.emit_format == "dot":
        out = emit.render_dot(r.graph, r.focused)
    else:
        out = emit.render_scene(r.model, r.witness, r.theorem)
    sys.stdout.write(out)
    return _STATUS_EXIT[r.verdict.status]


def cmd_graph(cfg: RunConfig) -> int:
    r = _prove(cfg)
    if r.graph is None:
        sys.stderr.write(f"gthm: {r.verdict.reason}\n")
    else:
        sys.stdout.write(emit.render_dot(r.graph, r.focused))
    return _STATUS_EXIT[r.verdict.status]


def cmd_check(cfg: RunConfig) -> int:
    model = _load_model(cfg)
    theorem = cfg.input_path.stem
    stream = sc.SampleStream(sc.build_scene(model), cfg.seed, cfg.rng_range,
                             cfg.samples)
    try:
        v = vf.oracle_verdict(stream)
    except sc.DegenerateModel as err:
        v = vf.degenerate_verdict(err)
    if cfg.emit_format == "json":
        out = emit.render_json(model, v, theorem)
    else:
        out = emit.render_text(model, v, theorem)
    sys.stdout.write(out)
    return _STATUS_EXIT[v.status]


_COMMANDS = {"prove": cmd_prove, "graph": cmd_graph, "check": cmd_check}


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
        cfg = _config(args)
        return _COMMANDS[args.command](cfg)
    except UsageError as err:
        sys.stderr.write(f"gthm: {err}\n")
        return EXIT_INPUT_ERROR
    except (OSError, UnicodeDecodeError) as err:
        sys.stderr.write(f"gthm: cannot read input: {err}\n")
        return EXIT_INPUT_ERROR
    except dsl.DslError as err:
        sys.stderr.write(f"gthm: {err}\n")
        return EXIT_INPUT_ERROR
    except sc.GeometryError as err:
        sys.stderr.write(f"gthm: bad construction: {err}\n")
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
