"""Hypothesis language: parsing and validation.

A theorem file is line-oriented: one statement per line, ``#`` comments,
UTF-8.  Four statement kinds exist (``param``, ``point``, ``line``,
``claim``); point and line constructions use a fixed set of primitives
that is just large enough to phrase classical segment/ratio theorems.
The validator resolves every symbol, enforces the reference-frame
anchoring convention, and returns a :class:`HypothesisModel` ready for
coordinate evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Union

MAX_FILE_BYTES = 1 << 20
MAX_LINE_CHARS = 1000
# rule discovery is polynomial in the point count; past this many
# points a file is refused before any figure is built
MAX_POINTS = 32


@dataclass(frozen=True)
class Span:
    line: int
    col: int
    end_line: int
    end_col: int


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


@dataclass(frozen=True)
class Expr:
    span: Span = field(compare=False, repr=False)


@dataclass(frozen=True)
class NumLit(Expr):
    value: Fraction = Fraction(0)


@dataclass(frozen=True)
class NameRef(Expr):
    name: str = ""


@dataclass(frozen=True)
class LenExpr(Expr):
    p: str = ""
    q: str = ""


@dataclass(frozen=True)
class Neg(Expr):
    arg: Expr = None  # type: ignore[assignment]


@dataclass(frozen=True)
class BinOp(Expr):
    op: str = ""
    left: Expr = None  # type: ignore[assignment]
    right: Expr = None  # type: ignore[assignment]


@dataclass(frozen=True)
class LineRef:
    name: str
    span: Span = field(compare=False, repr=False, default=_NOSPAN)


@dataclass(frozen=True)
class ThroughPoints:
    p: str
    q: str
    span: Span = field(compare=False, repr=False, default=_NOSPAN)


@dataclass(frozen=True)
class ExtendRay:
    # carrier line of the ray from p through q; names the intent that the
    # construction lands beyond q
    p: str
    q: str
    span: Span = field(compare=False, repr=False, default=_NOSPAN)


@dataclass(frozen=True)
class ThroughParallel:
    p: str
    base: "LineArg"
    span: Span = field(compare=False, repr=False, default=_NOSPAN)


LineArg = Union[LineRef, ThroughPoints, ThroughParallel, ExtendRay]


@dataclass(frozen=True)
class Origin:
    span: Span = field(compare=False, repr=False, default=_NOSPAN)


@dataclass(frozen=True)
class Baseline:
    p: str
    dist: Expr
    span: Span = field(compare=False, repr=False, default=_NOSPAN)


@dataclass(frozen=True)
class OnSegment:
    p: str
    q: str
    dist: Expr
    span: Span = field(compare=False, repr=False, default=_NOSPAN)


@dataclass(frozen=True)
class OffsetPerp:
    p: str
    line: LineArg
    dist: Expr
    span: Span = field(compare=False, repr=False, default=_NOSPAN)


@dataclass(frozen=True)
class Meet:
    l1: LineArg
    l2: LineArg
    span: Span = field(compare=False, repr=False, default=_NOSPAN)


@dataclass(frozen=True)
class PickFirst:
    span: Span = field(compare=False, repr=False, default=_NOSPAN)


@dataclass(frozen=True)
class PickSecond:
    span: Span = field(compare=False, repr=False, default=_NOSPAN)


@dataclass(frozen=True)
class PickWithinSegment:
    p: str
    q: str
    span: Span = field(compare=False, repr=False, default=_NOSPAN)


@dataclass(frozen=True)
class PickNearest:
    p: str
    span: Span = field(compare=False, repr=False, default=_NOSPAN)


Pick = Union[PickFirst, PickSecond, PickWithinSegment, PickNearest]


@dataclass(frozen=True)
class MeetCircle:
    line: LineArg
    center: str
    radius: Expr
    pick: Pick
    span: Span = field(compare=False, repr=False, default=_NOSPAN)


@dataclass(frozen=True)
class Foot:
    p: str
    line: LineArg
    span: Span = field(compare=False, repr=False, default=_NOSPAN)


PointExpr = Union[Origin, Baseline, OnSegment, OffsetPerp, Meet, MeetCircle, Foot]


@dataclass(frozen=True)
class ClaimTerm:
    coef: Fraction
    p: str
    q: str
    span: Span = field(compare=False, repr=False, default=_NOSPAN)


@dataclass(frozen=True)
class ClaimEq:
    lhs: tuple[ClaimTerm, ...]
    rhs: tuple[ClaimTerm, ...]
    span: Span = field(compare=False, repr=False, default=_NOSPAN)


@dataclass(frozen=True)
class Statement:
    kind: str  # "param-decl" | "point-construction" | "line-construction" | "claim"
    name: str  # empty for claims
    payload: object  # PointExpr | LineArg | ClaimEq | None
    aux: bool = False
    span: Span = field(compare=False, repr=False, default=_NOSPAN)


@dataclass(frozen=True)
class HypothesisModel:
    params: tuple[str, ...]
    constructions: tuple[Statement, ...]  # points and lines, file order
    claims: tuple[Statement, ...]
    aux: frozenset[str]
    points: tuple[str, ...]
    lines: tuple[str, ...]
    origin: str
    base_point: str


# ---------------------------------------------------------------------------
# Tokenizer

_PUNCT = {"(", ")", ",", "=", "+", "-", "*", "/"}


@dataclass(frozen=True)
class Token:
    kind: str  # IDENT | NUMBER | PUNCT | EOL
    value: str
    span: Span


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

    # -- expressions -------------------------------------------------------

    def parse_dist(self) -> Expr:
        left = self.parse_term()
        while self.at_punct("+") or self.at_punct("-"):
            op = self.advance().value
            right = self.parse_term()
            left = BinOp(span=left.span, op=op, left=left, right=right)
        return left

    def parse_term(self) -> Expr:
        left = self.parse_factor()
        while self.at_punct("*") or self.at_punct("/"):
            op = self.advance().value
            right = self.parse_factor()
            left = BinOp(span=left.span, op=op, left=left, right=right)
        return left

    def parse_factor(self) -> Expr:
        t = self.cur
        if self.at_punct("-"):
            self.advance()
            return Neg(span=t.span, arg=self.parse_factor())
        if self.at_punct("("):
            self.advance()
            inner = self.parse_dist()
            self.expect_punct(")")
            return inner
        if t.kind == "NUMBER":
            self.advance()
            return NumLit(span=t.span, value=Fraction(t.value))
        if t.kind == "IDENT" and t.value == "len":
            self.advance()
            self.expect_punct("(")
            p = self.expect_ident("point name")
            self.expect_punct(",")
            q = self.expect_ident("point name")
            self.expect_punct(")")
            return LenExpr(span=t.span, p=p.value, q=q.value)
        if t.kind == "IDENT":
            self.advance()
            return NameRef(span=t.span, name=t.value)
        raise ParseFailure("expected expression", t.span)

    # -- line expressions --------------------------------------------------

    def parse_line_arg(self) -> LineArg:
        t = self.cur
        if t.kind == "IDENT" and t.value == "through":
            return self.parse_through()
        if t.kind == "IDENT" and t.value == "extend_ray":
            self.advance()
            self.expect_punct("(")
            p = self.expect_ident("point name")
            self.expect_punct(",")
            q = self.expect_ident("point name")
            self.expect_punct(")")
            return ExtendRay(p=p.value, q=q.value, span=t.span)
        if t.kind == "IDENT":
            self.advance()
            return LineRef(name=t.value, span=t.span)
        raise ParseFailure("expected a line", t.span)

    def parse_through(self) -> LineArg:
        t = self.expect_ident()
        self.expect_punct("(")
        p = self.expect_ident("point name")
        if self.at_punct(","):
            self.advance()
            q = self.expect_ident("point name")
            self.expect_punct(")")
            return ThroughPoints(p=p.value, q=q.value, span=t.span)
        self.expect_punct(")")
        kw = self.expect_ident("'parallel'")
        if kw.value != "parallel":
            raise ParseFailure("expected 'parallel' after through(P)", kw.span)
        self.expect_punct("(")
        base = self.parse_line_arg()
        self.expect_punct(")")
        return ThroughParallel(p=p.value, base=base, span=t.span)

    # -- point expressions -------------------------------------------------

    def parse_point_expr(self) -> PointExpr:
        t = self.cur
        if t.kind != "IDENT":
            raise ParseFailure("expected a point construction", t.span)
        name = t.value
        if name == "origin":
            self.advance()
            if self.at_punct("("):
                self.advance()
                self.expect_punct(")")
            return Origin(span=t.span)
        if name == "baseline":
            self.advance()
            self.expect_punct("(")
            p = self.expect_ident("point name")
            self.expect_punct(",")
            d = self.parse_dist()
            self.expect_punct(")")
            return Baseline(p=p.value, dist=d, span=t.span)
        if name == "on_segment":
            self.advance()
            self.expect_punct("(")
            p = self.expect_ident("point name")
            self.expect_punct(",")
            q = self.expect_ident("point name")
            self.expect_punct(",")
            d = self.parse_dist()
            self.expect_punct(")")
            return OnSegment(p=p.value, q=q.value, dist=d, span=t.span)
        if name == "offset_perp":
            self.advance()
            self.expect_punct("(")
            p = self.expect_ident("point name")
            self.expect_punct(",")
            ln = self.parse_line_arg()
            self.expect_punct(",")
            d = self.parse_dist()
            self.expect_punct(")")
            return OffsetPerp(p=p.value, line=ln, dist=d, span=t.span)
        if name == "meet":
            self.advance()
            self.expect_punct("(")
            l1 = self.parse_line_arg()
            self.expect_punct(",")
            l2 = self.parse_line_arg()
            self.expect_punct(")")
            return Meet(l1=l1, l2=l2, span=t.span)
        if name == "meet_circle":
            self.advance()
            self.expect_punct("(")
            ln = self.parse_line_arg()
            self.expect_punct(",")
            center = self.expect_ident("point name")
            self.expect_punct(",")
            r = self.parse_dist()
            self.expect_punct(",")
            pick = self.parse_pick()
            self.expect_punct(")")
            return MeetCircle(line=ln, center=center.value, radius=r, pick=pick, span=t.span)
        if name == "foot":
            self.advance()
            self.expect_punct("(")
            p = self.expect_ident("point name")
            self.expect_punct(",")
            ln = self.parse_line_arg()
            self.expect_punct(")")
            return Foot(p=p.value, line=ln, span=t.span)
        raise ParseFailure(f"unknown point construction {name!r}", t.span)

    def parse_pick(self) -> Pick:
        t = self.expect_ident("root pick policy")
        if t.value == "first":
            return PickFirst(span=t.span)
        if t.value == "second":
            return PickSecond(span=t.span)
        if t.value == "within_segment":
            self.expect_punct("(")
            p = self.expect_ident("point name")
            self.expect_punct(",")
            q = self.expect_ident("point name")
            self.expect_punct(")")
            return PickWithinSegment(p=p.value, q=q.value, span=t.span)
        if t.value == "nearest":
            self.expect_punct("(")
            p = self.expect_ident("point name")
            self.expect_punct(")")
            return PickNearest(p=p.value, span=t.span)
        raise ParseFailure(f"unknown pick policy {t.value!r}", t.span)

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
        self.expect_punct("(")
        p = self.expect_ident("point name")
        self.expect_punct(",")
        q = self.expect_ident("point name")
        self.expect_punct(")")
        return ClaimTerm(coef=coef, p=p.value, q=q.value, span=t.span)


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
        return Statement(kind="param-decl", name=name.value, payload=None, span=head.span)
    if head.value == "point":
        name = lp.expect_ident("point name")
        lp.expect_punct("=")
        payload = lp.parse_point_expr()
        lp.expect_eol()
        return Statement(kind="point-construction", name=name.value, payload=payload,
                         aux=aux, span=head.span)
    if head.value == "line":
        name = lp.expect_ident("line name")
        lp.expect_punct("=")
        payload = lp.parse_line_arg()
        if isinstance(payload, LineRef):
            raise ParseFailure("a line must be constructed, not aliased", payload.span)
        lp.expect_eol()
        return Statement(kind="line-construction", name=name.value, payload=payload, span=head.span)
    if head.value == "claim":
        lhs = lp.parse_claim_side()
        lp.expect_punct("=")
        rhs = lp.parse_claim_side()
        lp.expect_eol()
        return Statement(kind="claim", name="", payload=ClaimEq(lhs=lhs, rhs=rhs, span=head.span),
                         span=head.span)
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


def _check_expr(e: Expr, scope: _Scope) -> None:
    if isinstance(e, NumLit):
        return
    if isinstance(e, NameRef):
        scope.check(e.name, "param", e.span)
        return
    if isinstance(e, LenExpr):
        scope.check(e.p, "point", e.span)
        scope.check(e.q, "point", e.span)
        return
    if isinstance(e, Neg):
        _check_expr(e.arg, scope)
        return
    if isinstance(e, BinOp):
        _check_expr(e.left, scope)
        _check_expr(e.right, scope)
        return
    raise AssertionError(f"unhandled expression {e!r}")


def _check_line_arg(arg: LineArg, scope: _Scope) -> None:
    if isinstance(arg, LineRef):
        scope.check(arg.name, "line", arg.span)
    elif isinstance(arg, (ThroughPoints, ExtendRay)):
        scope.check(arg.p, "point", arg.span)
        scope.check(arg.q, "point", arg.span)
    elif isinstance(arg, ThroughParallel):
        scope.check(arg.p, "point", arg.span)
        _check_line_arg(arg.base, scope)
    else:
        raise AssertionError(f"unhandled line argument {arg!r}")


def _check_point_expr(pe: PointExpr, scope: _Scope) -> None:
    if isinstance(pe, Origin):
        return
    if isinstance(pe, Baseline):
        scope.check(pe.p, "point", pe.span)
        _check_expr(pe.dist, scope)
    elif isinstance(pe, OnSegment):
        scope.check(pe.p, "point", pe.span)
        scope.check(pe.q, "point", pe.span)
        _check_expr(pe.dist, scope)
    elif isinstance(pe, OffsetPerp):
        scope.check(pe.p, "point", pe.span)
        _check_line_arg(pe.line, scope)
        _check_expr(pe.dist, scope)
    elif isinstance(pe, Meet):
        _check_line_arg(pe.l1, scope)
        _check_line_arg(pe.l2, scope)
    elif isinstance(pe, MeetCircle):
        _check_line_arg(pe.line, scope)
        scope.check(pe.center, "point", pe.span)
        _check_expr(pe.radius, scope)
        pick = pe.pick
        if isinstance(pick, PickWithinSegment):
            scope.check(pick.p, "point", pick.span)
            scope.check(pick.q, "point", pick.span)
        elif isinstance(pick, PickNearest):
            scope.check(pick.p, "point", pick.span)
    elif isinstance(pe, Foot):
        scope.check(pe.p, "point", pe.span)
        _check_line_arg(pe.line, scope)
    else:
        raise AssertionError(f"unhandled point expression {pe!r}")


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
    claims: list[Statement] = []
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
            assert isinstance(pe, (Origin, Baseline, OnSegment, OffsetPerp, Meet, MeetCircle, Foot))
            _check_point_expr(pe, scope)
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
            arg = s.payload
            assert isinstance(arg, (ThroughPoints, ThroughParallel, ExtendRay))
            _check_line_arg(arg, scope)
            scope.declare(s.name, "line", s.span)
            constructions.append(s)
        elif s.kind == "claim":
            ce = s.payload
            assert isinstance(ce, ClaimEq)
            for term in ce.lhs + ce.rhs:
                scope.check(term.p, "point", term.span)
                scope.check(term.q, "point", term.span)
                if term.p == term.q:
                    raise BadClaim("a claim length needs two distinct points", term.span)
            claims.append(s)
        else:
            raise AssertionError(f"unhandled statement kind {s.kind}")

    if not scope.params:
        span = stmts[0].span if stmts else Span(1, 1, 1, 1)
        raise MissingFrameAnchor("at least one parameter is required", span)
    if origin_name is None or base_name is None:
        span = stmts[0].span if stmts else Span(1, 1, 1, 1)
        raise MissingFrameAnchor("the frame needs an origin and a baseline point", span)
    if not claims:
        raise MissingFrameAnchor("at least one claim is required", stmts[-1].span)

    return HypothesisModel(
        params=tuple(scope.params),
        constructions=tuple(constructions),
        claims=tuple(claims),
        aux=frozenset(aux),
        points=tuple(scope.points),
        lines=tuple(scope.lines),
        origin=origin_name,
        base_point=base_name,
    )


# ---------------------------------------------------------------------------
# Rendering (inverse of parse, up to whitespace and comments)


def _render_expr(e: Expr) -> str:
    if isinstance(e, NumLit):
        v = e.value
        return str(v.numerator) if v.denominator == 1 else f"({v.numerator}/{v.denominator})"
    if isinstance(e, NameRef):
        return e.name
    if isinstance(e, LenExpr):
        return f"len({e.p},{e.q})"
    if isinstance(e, Neg):
        return f"-{_render_expr(e.arg)}"
    if isinstance(e, BinOp):
        return f"({_render_expr(e.left)} {e.op} {_render_expr(e.right)})"
    raise AssertionError(f"unhandled expression {e!r}")


def _render_line_arg(arg: LineArg) -> str:
    if isinstance(arg, LineRef):
        return arg.name
    if isinstance(arg, ThroughPoints):
        return f"through({arg.p},{arg.q})"
    if isinstance(arg, ExtendRay):
        return f"extend_ray({arg.p},{arg.q})"
    if isinstance(arg, ThroughParallel):
        return f"through({arg.p}) parallel({_render_line_arg(arg.base)})"
    raise AssertionError(f"unhandled line argument {arg!r}")


def _render_pick(pick: Pick) -> str:
    if isinstance(pick, PickFirst):
        return "first"
    if isinstance(pick, PickSecond):
        return "second"
    if isinstance(pick, PickWithinSegment):
        return f"within_segment({pick.p},{pick.q})"
    if isinstance(pick, PickNearest):
        return f"nearest({pick.p})"
    raise AssertionError(f"unhandled pick {pick!r}")


def _render_point_expr(pe: PointExpr) -> str:
    if isinstance(pe, Origin):
        return "origin"
    if isinstance(pe, Baseline):
        return f"baseline({pe.p}, {_render_expr(pe.dist)})"
    if isinstance(pe, OnSegment):
        return f"on_segment({pe.p}, {pe.q}, {_render_expr(pe.dist)})"
    if isinstance(pe, OffsetPerp):
        return f"offset_perp({pe.p}, {_render_line_arg(pe.line)}, {_render_expr(pe.dist)})"
    if isinstance(pe, Meet):
        return f"meet({_render_line_arg(pe.l1)}, {_render_line_arg(pe.l2)})"
    if isinstance(pe, MeetCircle):
        return (f"meet_circle({_render_line_arg(pe.line)}, {pe.center}, "
                f"{_render_expr(pe.radius)}, {_render_pick(pe.pick)})")
    if isinstance(pe, Foot):
        return f"foot({pe.p}, {_render_line_arg(pe.line)})"
    raise AssertionError(f"unhandled point expression {pe!r}")


def _render_claim_side(terms: tuple[ClaimTerm, ...]) -> str:
    parts: list[str] = []
    for i, t in enumerate(terms):
        coef = t.coef
        sign = ""
        if i > 0:
            sign = " + " if coef >= 0 else " - "
            coef = abs(coef)
        elif coef < 0:
            sign = "-"
            coef = abs(coef)
        body = f"len({t.p},{t.q})"
        if coef != 1:
            cs = str(coef.numerator) if coef.denominator == 1 else str(coef)
            body = f"{cs}*{body}"
        parts.append(sign + body)
    return "".join(parts)


def render(model: HypothesisModel) -> str:
    """Write the model back out as theorem-file text."""
    lines = [f"param {p}" for p in model.params]
    for s in model.constructions:
        if s.kind == "point-construction":
            prefix = "aux point" if s.aux else "point"
            lines.append(f"{prefix} {s.name} = {_render_point_expr(s.payload)}")
        else:
            lines.append(f"line {s.name} = {_render_line_arg(s.payload)}")
    for c in model.claims:
        ce = c.payload
        assert isinstance(ce, ClaimEq)
        lines.append(f"claim {_render_claim_side(ce.lhs)} = {_render_claim_side(ce.rhs)}")
    return "\n".join(lines) + "\n"
