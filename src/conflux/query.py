"""Query language: lexer, parser, renderer, and static validation.

A query names a trigger frequency, an aggregation over one attribute, an
observation window, and the data sources to draw from. The concrete grammar
(keywords case-insensitive, whitespace and newlines insignificant):

    query    := "every" INT UNIT "compute" ["the"] AGG ["value"]
                "of" ["the"] IDENT window ["from" sources]
    window   := "of" ["the"] "last" INT UNIT        -- sliding
              | "starting" INT UNIT "ago"           -- landmark
    sources  := historic ["and" stream] | stream
    historic := IDENT "database" IDENT "series" IDENT
    stream   := "streaming" "rabbitmq" "queue" IDENT
    UNIT     := seconds | minutes | hours | days    (singular forms accepted)
    AGG      := min | max | mean

Historic provider names are open identifiers resolved against the catalog at
validation time, so new stores plug in without grammar changes ("streaming"
is effectively reserved at the provider position). The "from" clause may be
omitted entirely; such a query parses but is not executable until validation
can resolve at least one source.

Parsing is deterministic and pure; rendering produces a canonical single
line that re-parses to an equal spec.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .model import TimeUnit, to_millis


class QueryError(ValueError):
    """Base class for query language failures."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class QueryLexicalError(QueryError):
    """Input contains a character sequence that is not a token."""


class QuerySyntaxError(QueryError):
    """Token stream does not match the grammar."""

    def __init__(self, found: str, expected: Sequence[str], line: int, column: int):
        self.found = found
        self.expected = tuple(expected)
        alts = ", ".join(expected)
        super().__init__(f"syntax error at {found!r}, expected one of: {alts}", line, column)


class QuerySemanticError(QueryError):
    """Structurally valid but meaningless (unknown aggregation, bad count)."""


class AggregationFunction(enum.Enum):
    MIN = "min"
    MAX = "max"
    MEAN = "mean"


class WindowKind(enum.Enum):
    SLIDING = "sliding"
    LANDMARK = "landmark"


def _check_count(number: int, unit: TimeUnit, what: str) -> None:
    """A count is at least 1, and ``to_millis`` of it is a timestamp."""
    if number < 1:
        raise ValueError(f"{what} must be at least 1, got {number}")
    try:
        to_millis(number, unit)
    except OverflowError as exc:
        raise ValueError(f"{what} of {exc}") from None


@dataclass(frozen=True)
class Frequency:
    """Trigger recurrence: evaluate the query every ``number`` ``unit``."""

    number: int
    unit: TimeUnit

    def __post_init__(self) -> None:
        _check_count(self.number, self.unit, "frequency")

    @property
    def period_ms(self) -> int:
        return to_millis(self.number, self.unit)


@dataclass(frozen=True)
class WindowSpec:
    """Observation window.

    sliding: extent [trigger - duration, trigger), moving with each trigger.
    landmark: extent [anchor - duration, trigger), anchored at execution
    start and growing with each trigger.
    """

    kind: WindowKind
    number: int
    unit: TimeUnit

    def __post_init__(self) -> None:
        _check_count(self.number, self.unit, "window size")

    @property
    def duration_ms(self) -> int:
        return to_millis(self.number, self.unit)


@dataclass(frozen=True)
class HistoricSource:
    provider: str
    database: str
    series: str


@dataclass(frozen=True)
class StreamSource:
    queue: str


@dataclass(frozen=True)
class SourceSpec:
    """Data sources for a query; either side may be absent.

    A spec with neither side parses (the source of a query can be bound
    later) but fails validation until at least one source resolves.
    """

    historic: HistoricSource | None = None
    stream: StreamSource | None = None

    @property
    def is_empty(self) -> bool:
        return self.historic is None and self.stream is None


@dataclass(frozen=True)
class QuerySpec:
    frequency: Frequency
    aggregation: AggregationFunction
    attribute: str
    window: WindowSpec
    sources: SourceSpec

    def __post_init__(self) -> None:
        if not self.attribute:
            raise ValueError("attribute must be non-empty")


# ---------------------------------------------------------------------------
# Lexer

_TOKEN_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|[0-9]+")

_UNIT_WORDS = {
    "second": TimeUnit.SECONDS,
    "seconds": TimeUnit.SECONDS,
    "minute": TimeUnit.MINUTES,
    "minutes": TimeUnit.MINUTES,
    "hour": TimeUnit.HOURS,
    "hours": TimeUnit.HOURS,
    "day": TimeUnit.DAYS,
    "days": TimeUnit.DAYS,
}

_AGG_WORDS = {f.value: f for f in AggregationFunction}

_UNIT_NAMES = ("seconds", "minutes", "hours", "days")


@dataclass(frozen=True)
class Token:
    text: str  # original spelling
    norm: str  # lowercased, "" for ints and eof
    value: int | None  # set for integer tokens
    line: int
    column: int

    @property
    def is_int(self) -> bool:
        return self.value is not None

    @property
    def is_eof(self) -> bool:
        return self.text == ""


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line = 1
    line_start = 0
    pos = 0
    n = len(text)
    while pos < n:
        ch = text[pos]
        if ch == "\n":
            line += 1
            pos += 1
            line_start = pos
            continue
        if ch.isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise QueryLexicalError(f"unexpected character {ch!r}", line, pos - line_start + 1)
        word = m.group(0)
        col = pos - line_start + 1
        if word[0].isdigit():
            tokens.append(Token(word, "", int(word), line, col))
        else:
            tokens.append(Token(word, word.lower(), None, line, col))
        pos = m.end()
    tokens.append(Token("", "", None, line, (n - line_start) + 1))
    return tokens


# ---------------------------------------------------------------------------
# Parser

class _Parser:
    def __init__(self, tokens: list[Token]):
        self._tokens = tokens
        self._pos = 0

    def _peek(self) -> Token:
        return self._tokens[self._pos]

    def _advance(self) -> Token:
        tok = self._tokens[self._pos]
        if not tok.is_eof:
            self._pos += 1
        return tok

    def _fail(self, expected: Sequence[str]) -> QuerySyntaxError:
        tok = self._peek()
        found = tok.text if not tok.is_eof else "end of input"
        return QuerySyntaxError(found, expected, tok.line, tok.column)

    def _expect_word(self, word: str) -> Token:
        if self._peek().norm != word:
            raise self._fail([word])
        return self._advance()

    def _accept_word(self, word: str) -> bool:
        if self._peek().norm == word:
            self._advance()
            return True
        return False

    def _expect_int(self, what: str) -> tuple[int, Token]:
        tok = self._peek()
        if not tok.is_int:
            raise self._fail([f"integer {what}"])
        self._advance()
        assert tok.value is not None
        return tok.value, tok

    def _expect_ident(self, what: str) -> str:
        tok = self._peek()
        if tok.is_eof or tok.is_int:
            raise self._fail([what])
        self._advance()
        return tok.text

    def _expect_unit(self) -> TimeUnit:
        tok = self._peek()
        unit = _UNIT_WORDS.get(tok.norm)
        if unit is None:
            raise self._fail(_UNIT_NAMES)
        self._advance()
        return unit

    def _build_at(self, tok: Token, cls, *args):
        try:
            return cls(*args)
        except ValueError as exc:
            raise QuerySemanticError(str(exc), tok.line, tok.column) from None

    def parse(self) -> QuerySpec:
        self._expect_word("every")
        n, ntok = self._expect_int("count")
        unit = self._expect_unit()
        frequency = self._build_at(ntok, Frequency, n, unit)

        self._expect_word("compute")
        self._accept_word("the")
        agg_tok = self._peek()
        agg = _AGG_WORDS.get(agg_tok.norm)
        if agg is None:
            raise QuerySemanticError(
                f"unknown aggregation {agg_tok.text!r}, expected one of: min, max, mean",
                agg_tok.line,
                agg_tok.column,
            )
        self._advance()
        self._accept_word("value")
        self._expect_word("of")
        self._accept_word("the")
        attribute = self._expect_ident("attribute name")

        window = self._parse_window()
        sources = self._parse_sources() if self._accept_word("from") else SourceSpec()

        tail = self._peek()
        if not tail.is_eof:
            raise self._fail(["end of query"])
        return QuerySpec(frequency, agg, attribute, window, sources)

    def _parse_window(self) -> WindowSpec:
        if self._accept_word("of"):
            self._accept_word("the")
            self._expect_word("last")
            n, ntok = self._expect_int("count")
            unit = self._expect_unit()
            return self._build_at(ntok, WindowSpec, WindowKind.SLIDING, n, unit)
        if self._accept_word("starting"):
            n, ntok = self._expect_int("count")
            unit = self._expect_unit()
            self._expect_word("ago")
            return self._build_at(ntok, WindowSpec, WindowKind.LANDMARK, n, unit)
        raise self._fail(["of", "starting"])

    def _parse_sources(self) -> SourceSpec:
        if self._peek().norm == "streaming":
            return SourceSpec(stream=self._parse_stream())
        historic = self._parse_historic()
        stream = None
        if self._accept_word("and"):
            stream = self._parse_stream()
        return SourceSpec(historic=historic, stream=stream)

    def _parse_historic(self) -> HistoricSource:
        provider = self._expect_ident("historic provider name")
        self._expect_word("database")
        database = self._expect_ident("database name")
        self._expect_word("series")
        series = self._expect_ident("series name")
        return HistoricSource(provider, database, series)

    def _parse_stream(self) -> StreamSource:
        self._expect_word("streaming")
        self._expect_word("rabbitmq")
        self._expect_word("queue")
        queue = self._expect_ident("queue name")
        return StreamSource(queue)


def parse_query(text: str) -> QuerySpec:
    """Parse query text into a QuerySpec.

    Raises QueryLexicalError, QuerySyntaxError, or QuerySemanticError with
    line/column positions on bad input.
    """
    return _Parser(tokenize(text)).parse()


# ---------------------------------------------------------------------------
# Rendering

def _unit_word(n: int, unit: TimeUnit) -> str:
    word = unit.value
    return word[:-1] if n == 1 else word


def render_query(spec: QuerySpec) -> str:
    """Render a spec as canonical single-line text; re-parses to an equal spec."""
    parts = [
        "every",
        str(spec.frequency.number),
        _unit_word(spec.frequency.number, spec.frequency.unit),
        "compute",
        "the",
        spec.aggregation.value,
        "value",
        "of",
        spec.attribute,
    ]
    w = spec.window
    if w.kind is WindowKind.SLIDING:
        parts += ["of", "the", "last", str(w.number), _unit_word(w.number, w.unit)]
    else:
        parts += ["starting", str(w.number), _unit_word(w.number, w.unit), "ago"]
    src = spec.sources
    if not src.is_empty:
        parts.append("from")
        if src.historic is not None:
            h = src.historic
            parts += [h.provider, "database", h.database, "series", h.series]
            if src.stream is not None:
                parts.append("and")
        if src.stream is not None:
            parts += ["streaming", "rabbitmq", "queue", src.stream.queue]
    return " ".join(parts)


# ---------------------------------------------------------------------------
# Validation

@dataclass(frozen=True)
class Catalog:
    """What the engine currently knows: declared queues and registered series.

    ``series_attributes`` maps (provider, database, series) to the numeric
    attribute names of that series; ``None`` means the series exists but its
    attributes are unknown, which disables the attribute check.
    Stream queues carry no retention bound: a live-only query is answered
    from whatever its stream delivered, however long its window.
    """

    stream_queues: frozenset[str] = frozenset()
    series_attributes: Mapping[tuple[str, str, str], frozenset[str] | None] = field(
        default_factory=dict
    )

    @property
    def providers(self) -> frozenset[str]:
        return frozenset(p for (p, _, _) in self.series_attributes)


def validate(spec: QuerySpec, catalog: Catalog) -> list[str]:
    """Return diagnostics preventing execution against the catalog; [] if runnable.

    Diagnostics are data, not failures; the planner refuses to plan a spec
    whose diagnostics are non-empty.
    """
    diags: list[str] = []
    src = spec.sources
    if src.is_empty:
        diags.append("no data source specified: add a 'from' clause")
    if src.stream is not None and src.stream.queue not in catalog.stream_queues:
        diags.append(f"unknown stream queue: {src.stream.queue}")
    if src.historic is not None:
        h = src.historic
        key = (h.provider, h.database, h.series)
        attrs = catalog.series_attributes.get(key)
        if key not in catalog.series_attributes:
            if h.provider not in catalog.providers:
                diags.append(f"unknown historic provider: {h.provider}")
            else:
                diags.append(f"unknown historic series: {h.provider}/{h.database}/{h.series}")
        elif attrs is not None and spec.attribute not in attrs:
            diags.append(
                f"attribute {spec.attribute!r} not present in series "
                f"{h.provider}/{h.database}/{h.series}"
            )
    return diags
