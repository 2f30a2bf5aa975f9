"""Hypothesis language: parsing and validation.

A theorem file is line-oriented: one statement per line, ``#`` comments,
UTF-8.  Four statement kinds exist (``param``, ``point``, ``line``,
``claim``); point and line constructions use a fixed set of primitives
that is just large enough to phrase classical segment/ratio theorems.
The validator resolves every symbol, enforces the reference-frame
anchoring convention, and returns a :class:`HypothesisModel` ready for
coordinate evaluation.

Each construction's arguments are written once, in `ARGS`: their kinds
in source order.  The parser builds point constructions and picks from
that table through `parse_args`, and `refs` walks it to list the
symbols any construction reads.  The validator checks each of those
references in source order.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, Optional, Union

from .record import Record

MAX_FILE_BYTES = 1 << 20
MAX_LINE_CHARS = 1000
# rule discovery is polynomial in the point count; past this many
# points a file is refused before any figure is built
MAX_POINTS = 32
# each sample is evaluated and kept for the run; past this, --samples is refused
MAX_SAMPLES = 1000
# a --range bound longer than this is refused: parsing it and drawing
# from it costs time that grows with its digits
MAX_RANGE_CHARS = 40


class Span(Record):
    __slots__ = ("line", "col", "end_line", "end_col")

    def __init__(self, line: int, col: int, end_line: int, end_col: int):
        s = self._set
        s[0](self, line)
        s[1](self, col)
        s[2](self, end_line)
        s[3](self, end_col)


_NOSPAN = Span(0, 0, 0, 0)


class DslError(Exception):
    """Base for all diagnostics; always carries a source span."""

    def __init__(self, message: str, span: Span, filename: str = "<input>"):
        self.message = message
        self.span = span
        self.filename = filename
        super().__init__(f"{filename}:{span.line}:{span.col}: {message}")

    def with_filename(self, filename: str) -> "DslError":
        return type(self)(self.message, self.span, filename)


class ParseFailure(DslError):
    pass


class LimitExceeded(DslError):
    pass


class UnknownSymbol(DslError):
    pass


class DuplicateSymbol(DslError):
    pass


class ForwardReference(DslError):
    pass


class MissingFrameAnchor(DslError):
    pass


class BadClaim(DslError):
    pass


# ---------------------------------------------------------------------------
# AST


class Expr(Record):
    __slots__ = ("span",)


class NumLit(Expr):
    __slots__ = ("value",)
    _defaults = (Fraction(0),)


class NameRef(Expr):
    __slots__ = ("name",)
    _defaults = ("",)


class LenExpr(Expr):
    __slots__ = ("p", "q")
    _defaults = ("", "")


class Neg(Expr):
    __slots__ = ("arg",)
    _defaults = (None,)


class BinOp(Expr):
    __slots__ = ("op", "left", "right")
    _defaults = ("", None, None)


class _Spanned(Record):
    """A line, construction, pick or claim part: its last field is its
    source span, which defaults to none."""
    __slots__ = ()
    _defaults = (_NOSPAN,)


class LineRef(_Spanned):
    __slots__ = ("name", "span")


class ThroughPoints(_Spanned):
    __slots__ = ("p", "q", "span")


class ExtendRay(_Spanned):
    # carrier line of the ray from p through q; names the intent that the
    # construction lands beyond q
    __slots__ = ("p", "q", "span")


class ThroughParallel(_Spanned):
    __slots__ = ("p", "base", "span")


LineArg = Union[LineRef, ThroughPoints, ThroughParallel, ExtendRay]


class Origin(_Spanned):
    __slots__ = ("span",)


class Baseline(_Spanned):
    __slots__ = ("p", "dist", "span")


class OnSegment(_Spanned):
    __slots__ = ("p", "q", "dist", "span")


class OffsetPerp(_Spanned):
    __slots__ = ("p", "line", "dist", "span")


class Meet(_Spanned):
    __slots__ = ("l1", "l2", "span")


class PickFirst(_Spanned):
    __slots__ = ("span",)


class PickSecond(_Spanned):
    __slots__ = ("span",)


class PickWithinSegment(_Spanned):
    __slots__ = ("p", "q", "span")


class PickNearest(_Spanned):
    __slots__ = ("p", "span")


Pick = Union[PickFirst, PickSecond, PickWithinSegment, PickNearest]


class MeetCircle(_Spanned):
    __slots__ = ("line", "center", "radius", "pick", "span")


class Foot(_Spanned):
    __slots__ = ("p", "line", "span")


PointExpr = Union[Origin, Baseline, OnSegment, OffsetPerp, Meet, MeetCircle, Foot]

# each construction's argument kinds in source order: "point" a point
# name, "param" a parameter name, "line" a line argument, "dist" a
# distance expression, "pick" a root pick policy; the fields follow the
# same order.  The line forms are listed for `refs` (the parser spells
# `through` out), and so are the expressions that name symbols
ARGS: dict[type, tuple[str, ...]] = {
    Origin: (),
    Baseline: ("point", "dist"),
    OnSegment: ("point", "point", "dist"),
    OffsetPerp: ("point", "line", "dist"),
    Meet: ("line", "line"),
    MeetCircle: ("line", "point", "dist", "pick"),
    Foot: ("point", "line"),
    PickFirst: (),
    PickSecond: (),
    PickWithinSegment: ("point", "point"),
    PickNearest: ("point",),
    ThroughPoints: ("point", "point"),
    ExtendRay: ("point", "point"),
    ThroughParallel: ("point", "line"),
    NameRef: ("param",),
    LenExpr: ("point", "point"),
}

POINT_KEYWORDS: dict[str, type] = {
    "origin": Origin, "baseline": Baseline, "on_segment": OnSegment,
    "offset_perp": OffsetPerp, "meet": Meet, "meet_circle": MeetCircle, "foot": Foot}

PICK_KEYWORDS: dict[str, type] = {
    "first": PickFirst, "second": PickSecond,
    "within_segment": PickWithinSegment, "nearest": PickNearest}


class ClaimTerm(_Spanned):
    __slots__ = ("coef", "p", "q", "span")


class ClaimEq(_Spanned):
    __slots__ = ("lhs", "rhs", "span")  # tuples of ClaimTerm


class Statement(Record):
    # kind "param-decl", "point-construction", "line-construction" or
    # "claim" (no name); payload a PointExpr, LineArg, ClaimEq or None
    __slots__ = ("kind", "name", "payload", "aux", "span")
    _defaults = (False, _NOSPAN)


class HypothesisModel(Record):
    # constructions: the point and line statements, in file order
    __slots__ = ("params", "constructions", "claim", "aux", "points", "lines",
                 "origin", "base_point")


# ---------------------------------------------------------------------------
# Tokenizer

_PUNCT = {"(", ")", ",", "=", "+", "-", "*", "/"}


class Token(Record):
    __slots__ = ("kind", "value", "span")  # kind: IDENT | NUMBER | PUNCT | EOL
    _uncompared = ()

    def __init__(self, kind: str, value: str, span: Span):
        s = self._set
        s[0](self, kind)
        s[1](self, value)
        s[2](self, span)


def _tokenize_line(text: str, lineno: int) -> list[Token]:
    toks: list[Token] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch in " \t\r":
            i += 1
            continue
        if ch == "#":
            break
        col = i + 1
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(Token("IDENT", text[i:j], Span(lineno, col, lineno, j + 1)))
            i = j
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j < n and text[j] == "." and j + 1 < n and text[j + 1].isdigit():
                j += 1
                while j < n and text[j].isdigit():
                    j += 1
            toks.append(Token("NUMBER", text[i:j], Span(lineno, col, lineno, j + 1)))
            i = j
            continue
        if ch in _PUNCT:
            toks.append(Token("PUNCT", ch, Span(lineno, col, lineno, col + 1)))
            i += 1
            continue
        raise ParseFailure(f"unexpected character {ch!r}", Span(lineno, col, lineno, col + 1))
    toks.append(Token("EOL", "", Span(lineno, n + 1, lineno, n + 1)))
    return toks


class _LineParser:
    def __init__(self, tokens: list[Token]):
        self.toks = tokens
        self.i = 0

    @property
    def cur(self) -> Token:
        return self.toks[self.i]

    def advance(self) -> Token:
        t = self.cur
        if t.kind != "EOL":
            self.i += 1
        return t

    def at_punct(self, ch: str) -> bool:
        return self.cur.kind == "PUNCT" and self.cur.value == ch

    def expect_punct(self, ch: str) -> Token:
        if not self.at_punct(ch):
            raise ParseFailure(f"expected {ch!r}", self.cur.span)
        return self.advance()

    def expect_ident(self, what: str = "identifier") -> Token:
        if self.cur.kind != "IDENT":
            raise ParseFailure(f"expected {what}", self.cur.span)
        return self.advance()

    def expect_eol(self) -> None:
        if self.cur.kind != "EOL":
            raise ParseFailure(f"unexpected trailing input {self.cur.value!r}", self.cur.span)

    def parse_args(self, kinds: tuple[str, ...]) -> list:
        """`(`, one argument of each kind separated by `,`, then `)`."""
        self.expect_punct("(")
        args: list = []
        for i, kind in enumerate(kinds):
            if i:
                self.expect_punct(",")
            if kind == "point":
                args.append(self.expect_ident("point name").value)
            elif kind == "line":
                args.append(self.parse_line_arg())
            elif kind == "dist":
                args.append(self.parse_dist())
            else:
                args.append(self.parse_pick())
        self.expect_punct(")")
        return args

    # -- expressions -------------------------------------------------------

    def parse_dist(self) -> Expr:
        left = self.parse_term()
        while self.at_punct("+") or self.at_punct("-"):
            op = self.advance().value
            right = self.parse_term()
            left = BinOp(left.span, op, left, right)
        return left

    def parse_term(self) -> Expr:
        left = self.parse_factor()
        while self.at_punct("*") or self.at_punct("/"):
            op = self.advance().value
            right = self.parse_factor()
            left = BinOp(left.span, op, left, right)
        return left

    def parse_factor(self) -> Expr:
        t = self.cur
        if self.at_punct("-"):
            self.advance()
            return Neg(t.span, self.parse_factor())
        if self.at_punct("("):
            self.advance()
            inner = self.parse_dist()
            self.expect_punct(")")
            return inner
        if t.kind == "NUMBER":
            self.advance()
            return NumLit(t.span, Fraction(t.value))
        if t.kind == "IDENT" and t.value == "len":
            self.advance()
            p, q = self.parse_args(ARGS[LenExpr])
            return LenExpr(t.span, p, q)
        if t.kind == "IDENT":
            self.advance()
            return NameRef(t.span, t.value)
        raise ParseFailure("expected expression", t.span)

    # -- line expressions --------------------------------------------------

    def parse_line_arg(self) -> LineArg:
        t = self.cur
        if t.kind == "IDENT" and t.value == "through":
            return self.parse_through()
        if t.kind == "IDENT" and t.value == "extend_ray":
            self.advance()
            return ExtendRay(*self.parse_args(ARGS[ExtendRay]), t.span)
        if t.kind == "IDENT":
            self.advance()
            return LineRef(t.value, t.span)
        raise ParseFailure("expected a line", t.span)

    def parse_through(self) -> LineArg:
        t = self.expect_ident()
        self.expect_punct("(")
        p = self.expect_ident("point name")
        if self.at_punct(","):
            self.advance()
            q = self.expect_ident("point name")
            self.expect_punct(")")
            return ThroughPoints(p.value, q.value, t.span)
        self.expect_punct(")")
        kw = self.expect_ident("'parallel'")
        if kw.value != "parallel":
            raise ParseFailure("expected 'parallel' after through(P)", kw.span)
        self.expect_punct("(")
        base = self.parse_line_arg()
        self.expect_punct(")")
        return ThroughParallel(p.value, base, t.span)

    # -- point expressions -------------------------------------------------

    def parse_point_expr(self) -> PointExpr:
        t = self.cur
        if t.kind != "IDENT":
            raise ParseFailure("expected a point construction", t.span)
        cls = POINT_KEYWORDS.get(t.value)
        if cls is None:
            raise ParseFailure(f"unknown point construction {t.value!r}", t.span)
        self.advance()
        if cls is Origin and not self.at_punct("("):
            return Origin(t.span)  # the parentheses are optional
        return cls(*self.parse_args(ARGS[cls]), t.span)

    def parse_pick(self) -> Pick:
        t = self.expect_ident("root pick policy")
        cls = PICK_KEYWORDS.get(t.value)
        if cls is None:
            raise ParseFailure(f"unknown pick policy {t.value!r}", t.span)
        kinds = ARGS[cls]
        return cls(*(self.parse_args(kinds) if kinds else ()), t.span)

    # -- claims --------------------------------------------------------

    def parse_claim_side(self) -> tuple[ClaimTerm, ...]:
        terms = [self.parse_claim_term(Fraction(1))]
        while self.at_punct("+") or self.at_punct("-"):
            sign = Fraction(1) if self.advance().value == "+" else Fraction(-1)
            terms.append(self.parse_claim_term(sign))
        return tuple(terms)

    def parse_claim_term(self, sign: Fraction) -> ClaimTerm:
        t = self.cur
        coef = sign
        if t.kind == "NUMBER":
            self.advance()
            coef = sign * Fraction(t.value)
            if self.at_punct("/"):
                self.advance()
                den = self.cur
                if den.kind != "NUMBER":
                    raise ParseFailure("expected a number after '/'", den.span)
                self.advance()
                coef = coef / Fraction(den.value)
            self.expect_punct("*")
        kw = self.expect_ident("'len'")
        if kw.value != "len":
            raise ParseFailure("claims may only mention len(P,Q) terms", kw.span)
        p, q = self.parse_args(("point", "point"))
        return ClaimTerm(coef, p, q, t.span)


def read_source(path, filename: str) -> str:
    """A theorem file's text, decoded as UTF-8.  At most MAX_FILE_BYTES
    + 1 bytes are read, so an oversized or endless input is refused
    without reading it all; undecodable bytes raise UnicodeDecodeError."""
    with open(path, "rb") as f:
        data = f.read(MAX_FILE_BYTES + 1)
    if len(data) > MAX_FILE_BYTES:
        raise LimitExceeded("input exceeds the file size limit", Span(1, 1, 1, 1), filename)
    return data.decode("utf-8")


def parse(text: str, filename: str = "<input>") -> list[Statement]:
    """Tokenize and parse a theorem file into statements, in file order."""
    if len(text.encode("utf-8", errors="replace")) > MAX_FILE_BYTES:
        raise LimitExceeded("input exceeds the file size limit", Span(1, 1, 1, 1), filename)
    stmts: list[Statement] = []
    try:
        for lineno, raw in enumerate(text.splitlines(), start=1):
            if len(raw) > MAX_LINE_CHARS:
                raise LimitExceeded("line exceeds the length limit", Span(lineno, 1, lineno, 2))
            toks = _tokenize_line(raw, lineno)
            if toks[0].kind == "EOL":
                continue
            stmts.append(_parse_statement(_LineParser(toks)))
    except DslError as err:
        raise err.with_filename(filename) from None
    return stmts


def _parse_statement(lp: _LineParser) -> Statement:
    head = lp.expect_ident("statement keyword")
    aux = False
    if head.value == "aux":
        aux = True
        head = lp.expect_ident("'point'")
        if head.value != "point":
            raise ParseFailure("'aux' may only prefix a point construction", head.span)
    if head.value == "param":
        name = lp.expect_ident("parameter name")
        lp.expect_eol()
        return Statement("param-decl", name.value, None, False, head.span)
    if head.value == "point":
        name = lp.expect_ident("point name")
        lp.expect_punct("=")
        payload = lp.parse_point_expr()
        lp.expect_eol()
        return Statement("point-construction", name.value, payload, aux, head.span)
    if head.value == "line":
        name = lp.expect_ident("line name")
        lp.expect_punct("=")
        payload = lp.parse_line_arg()
        if isinstance(payload, LineRef):
            raise ParseFailure("a line must be constructed, not aliased", payload.span)
        lp.expect_eol()
        return Statement("line-construction", name.value, payload, False, head.span)
    if head.value == "claim":
        lhs = lp.parse_claim_side()
        lp.expect_punct("=")
        rhs = lp.parse_claim_side()
        lp.expect_eol()
        return Statement("claim", "", ClaimEq(lhs, rhs, head.span), False, head.span)
    raise ParseFailure(f"unknown statement keyword {head.value!r}", head.span)


# ---------------------------------------------------------------------------
# Validation


class _Scope:
    def __init__(self) -> None:
        self.params: list[str] = []
        self.points: list[str] = []
        self.lines: list[str] = []
        self.all: dict[str, str] = {}  # name -> kind
        self.later: set[str] = set()

    def declare(self, name: str, kind: str, span: Span) -> None:
        if name in self.all:
            raise DuplicateSymbol(f"symbol {name!r} is already declared", span)
        self.all[name] = kind
        {"param": self.params, "point": self.points, "line": self.lines}[kind].append(name)

    def check(self, name: str, kind: str, span: Span) -> None:
        have = self.all.get(name)
        if have is None:
            if name in self.later:
                raise ForwardReference(f"symbol {name!r} is used before its declaration", span)
            raise UnknownSymbol(f"unknown symbol {name!r}", span)
        if have != kind:
            raise UnknownSymbol(f"symbol {name!r} is a {have}, expected a {kind}", span)


def refs(node) -> Iterator[tuple[str, str, Span]]:
    """The symbols a construction, pick, line argument or distance
    expression reads, as (name, kind, span) in source order; kind is
    "param", "point" or "line".  A named line is one reference."""
    if isinstance(node, Neg):
        yield from refs(node.arg)
    elif isinstance(node, BinOp):
        yield from refs(node.left)
        yield from refs(node.right)
    elif isinstance(node, LineRef):
        yield node.name, "line", node.span
    else:  # a NumLit reads nothing; other fields but span are arguments
        for kind, f in zip(ARGS.get(type(node), ()), node._compared):
            arg = getattr(node, f)
            if kind in ("point", "param"):
                yield arg, kind, node.span
            else:
                yield from refs(arg)


def validate(stmts: list[Statement], filename: str = "<input>") -> HypothesisModel:
    """Resolve symbols, enforce frame anchoring, and assemble the model."""
    try:
        return _validate(stmts)
    except DslError as err:
        raise err.with_filename(filename) from None


def _validate(stmts: list[Statement]) -> HypothesisModel:
    scope = _Scope()
    # names declared later: distinguishes a forward reference from a typo
    for s in stmts:
        if s.kind != "claim":
            scope.later.add(s.name)

    constructions: list[Statement] = []
    claim: Optional[Statement] = None
    aux: set[str] = set()
    origin_name: Optional[str] = None
    base_name: Optional[str] = None
    point_count = 0

    for s in stmts:
        if s.kind == "param-decl":
            scope.declare(s.name, "param", s.span)
        elif s.kind == "point-construction":
            if point_count == MAX_POINTS:
                raise LimitExceeded(
                    f"point count exceeds the limit of {MAX_POINTS}", s.span)
            pe = s.payload
            for name, kind, span in refs(pe):
                scope.check(name, kind, span)
            if isinstance(pe, Origin):
                if origin_name is not None:
                    raise DuplicateSymbol("a second origin point is not allowed", s.span)
                if point_count != 0:
                    raise MissingFrameAnchor("the origin must be the first point declared", s.span)
                origin_name = s.name
            elif point_count == 0:
                raise MissingFrameAnchor("the first point must be the origin", s.span)
            elif point_count == 1:
                if not (isinstance(pe, Baseline) and pe.p == origin_name):
                    raise MissingFrameAnchor(
                        "the second point must be baseline(<origin>, d)", s.span)
                base_name = s.name
            scope.declare(s.name, "point", s.span)
            point_count += 1
            if s.aux:
                aux.add(s.name)
            constructions.append(s)
        elif s.kind == "line-construction":
            for name, kind, span in refs(s.payload):
                scope.check(name, kind, span)
            scope.declare(s.name, "line", s.span)
            constructions.append(s)
        elif s.kind == "claim":
            if claim is not None:
                raise BadClaim("a second claim is not allowed", s.span)
            ce = s.payload
            assert isinstance(ce, ClaimEq)
            for term in ce.lhs + ce.rhs:
                scope.check(term.p, "point", term.span)
                scope.check(term.q, "point", term.span)
                if term.p == term.q:
                    raise BadClaim("a claim length needs two distinct points", term.span)
            claim = s
        else:
            raise AssertionError(f"unhandled statement kind {s.kind}")

    if not scope.params:
        span = stmts[0].span if stmts else Span(1, 1, 1, 1)
        raise MissingFrameAnchor("at least one parameter is required", span)
    if origin_name is None or base_name is None:
        span = stmts[0].span if stmts else Span(1, 1, 1, 1)
        raise MissingFrameAnchor("the frame needs an origin and a baseline point", span)
    if claim is None:
        raise MissingFrameAnchor("at least one claim is required", stmts[-1].span)

    return HypothesisModel(
        params=tuple(scope.params),
        constructions=tuple(constructions),
        claim=claim,
        aux=frozenset(aux),
        points=tuple(scope.points),
        lines=tuple(scope.lines),
        origin=origin_name,
        base_point=base_name,
    )
