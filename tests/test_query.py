import pytest
from hypothesis import given
from hypothesis import strategies as st

from conflux.model import TimeUnit
from conflux.query import (
    AggregationFunction,
    Catalog,
    Frequency,
    HistoricSource,
    QueryLexicalError,
    QuerySemanticError,
    QuerySpec,
    QuerySyntaxError,
    SourceSpec,
    StreamSource,
    WindowKind,
    WindowSpec,
    parse_query,
    render_query,
    validate,
)

NEUBOT_SPEED_MEAN = (
    "EVERY 20 seconds compute the mean value of download_speed of the last 10 minutes "
    "FROM influxdb database neubot series speedtest and streaming RabbitMQ queue neubotspeed"
)
NEUBOT_SPEED_MAX = (
    "EVERY 60 seconds compute the max value of download_speed of the last 3 minutes "
    "FROM cassandra database neubot series speedtests and streaming rabbitmq queue neubotspeed"
)
NEUBOT_LONG_MEAN = (
    "EVERY 5 minutes compute the mean of the download_speed of the last 120 days "
    "FROM cassandra database neubot series speedtests and streaming rabbitmq queue neubotspeed"
)
NEUBOT_LANDMARK = (
    "EVERY 30 seconds compute the mean value of upload_speed starting 10 days ago "
    "FROM cassandra database neubot series speedtests and streaming rabbitmq queue neubotspeed"
)
FASTEST_DOWNLOAD = "EVERY 2 minutes compute the max value of download_speed of the last 8 minutes"

ALL_FIVE = [NEUBOT_SPEED_MEAN, NEUBOT_SPEED_MAX, NEUBOT_LONG_MEAN, NEUBOT_LANDMARK, FASTEST_DOWNLOAD]


def test_parse_neubot_speed_mean():
    spec = parse_query(NEUBOT_SPEED_MEAN)
    assert spec == QuerySpec(
        frequency=Frequency(20, TimeUnit.SECONDS),
        aggregation=AggregationFunction.MEAN,
        attribute="download_speed",
        window=WindowSpec(WindowKind.SLIDING, 10, TimeUnit.MINUTES),
        sources=SourceSpec(
            historic=HistoricSource("influxdb", "neubot", "speedtest"),
            stream=StreamSource("neubotspeed"),
        ),
    )


def test_parse_landmark_query():
    spec = parse_query(NEUBOT_LANDMARK)
    assert spec.window == WindowSpec(WindowKind.LANDMARK, 10, TimeUnit.DAYS)
    assert spec.aggregation is AggregationFunction.MEAN
    assert spec.attribute == "upload_speed"
    assert spec.sources.historic == HistoricSource("cassandra", "neubot", "speedtests")


def test_parse_mean_of_the_form():
    # "mean of the download_speed" carries no "value" keyword.
    spec = parse_query(NEUBOT_LONG_MEAN)
    assert spec.aggregation is AggregationFunction.MEAN
    assert spec.attribute == "download_speed"
    assert spec.window == WindowSpec(WindowKind.SLIDING, 120, TimeUnit.DAYS)


def test_parse_stream_only_no_from():
    spec = parse_query(FASTEST_DOWNLOAD)
    assert spec.frequency == Frequency(2, TimeUnit.MINUTES)
    assert spec.aggregation is AggregationFunction.MAX
    assert spec.sources.is_empty


def test_all_five_queries_parse():
    for text in ALL_FIVE:
        spec = parse_query(text)
        assert parse_query(render_query(spec)) == spec


def test_keywords_case_insensitive():
    # Keywords fold; identifiers keep their case.
    relaxed = (
        NEUBOT_SPEED_MEAN.replace("EVERY", "eVeRy")
        .replace("FROM", "from")
        .replace("RabbitMQ", "RABBITMQ")
    )
    assert parse_query(relaxed) == parse_query(NEUBOT_SPEED_MEAN)


def test_whitespace_and_newlines_insignificant():
    folded = NEUBOT_SPEED_MEAN.replace(" FROM", "\n\t FROM").replace(" of the last", "\n of the last")
    assert parse_query(folded) == parse_query(NEUBOT_SPEED_MEAN)


def test_singular_units():
    spec = parse_query("every 1 minute compute the min value of v of the last 1 hour")
    assert spec.frequency == Frequency(1, TimeUnit.MINUTES)
    assert spec.window == WindowSpec(WindowKind.SLIDING, 1, TimeUnit.HOURS)
    assert "every 1 minute" in render_query(spec)


def test_parse_twice_equal():
    assert parse_query(NEUBOT_SPEED_MAX) == parse_query(NEUBOT_SPEED_MAX)


def test_bad_unit_lists_expected():
    with pytest.raises(QuerySyntaxError) as exc:
        parse_query("EVERY 5 bananas compute the mean value of v of the last 2 minutes")
    msg = str(exc.value)
    assert "bananas" in msg
    assert "seconds" in msg and "days" in msg
    assert exc.value.line == 1


def test_unknown_aggregation_is_semantic_error():
    with pytest.raises(QuerySemanticError):
        parse_query("EVERY 5 seconds compute the median value of v of the last 2 minutes")


def test_lexical_error_position():
    with pytest.raises(QueryLexicalError) as exc:
        parse_query("EVERY 5 seconds compute the mean value of v ! of the last 2 minutes")
    assert exc.value.column > 1


def test_zero_frequency_rejected():
    with pytest.raises(QuerySemanticError):
        parse_query("EVERY 0 seconds compute the mean value of v of the last 2 minutes")


def test_truncated_query():
    with pytest.raises(QuerySyntaxError):
        parse_query("EVERY 20 seconds compute the mean value of")


def test_render_canonical_lowercase():
    text = render_query(parse_query(NEUBOT_SPEED_MEAN))
    assert text == (
        "every 20 seconds compute the mean value of download_speed of the last 10 minutes "
        "from influxdb database neubot series speedtest and streaming rabbitmq queue neubotspeed"
    )


def test_render_landmark_contains_starting_ago():
    text = render_query(parse_query(NEUBOT_LANDMARK))
    assert "starting 10 days ago" in text


def test_render_stream_only_elides_historic():
    spec = parse_query(
        "every 2 minutes compute the max value of v of the last 8 minutes "
        "from streaming rabbitmq queue q1"
    )
    text = render_query(spec)
    assert "database" not in text and "series" not in text
    assert "streaming rabbitmq queue q1" in text


# -- validation -------------------------------------------------------------

_SPEEDTEST = ("influxdb", "neubot", "speedtest")
_CATALOG = Catalog(
    stream_queues=frozenset({"neubotspeed"}),
    series_attributes={
        _SPEEDTEST: frozenset({"download_speed", "upload_speed"}),
        ("cassandra", "neubot", "speedtests"): frozenset({"download_speed", "upload_speed"}),
    },
)


def test_validate_resolvable():
    assert validate(parse_query(NEUBOT_SPEED_MEAN), _CATALOG) == []


def test_validate_unknown_queue():
    spec = parse_query(
        "every 2 minutes compute the max value of v of the last 8 minutes "
        "from streaming rabbitmq queue nope"
    )
    assert validate(spec, _CATALOG) == ["unknown stream queue: nope"]


def test_validate_no_source():
    diags = validate(parse_query(FASTEST_DOWNLOAD), _CATALOG)
    assert diags == ["no data source specified: add a 'from' clause"]


def test_validate_unknown_provider_and_series():
    spec = parse_query(
        "every 1 minutes compute the mean value of download_speed of the last 5 minutes "
        "from mongo database neubot series speedtest"
    )
    assert any("unknown historic provider: mongo" in d for d in validate(spec, _CATALOG))
    spec2 = parse_query(
        "every 1 minutes compute the mean value of download_speed of the last 5 minutes "
        "from influxdb database neubot series nope"
    )
    assert any("unknown historic series" in d for d in validate(spec2, _CATALOG))


def test_validate_unknown_attribute():
    spec = parse_query(
        "every 1 minutes compute the mean value of missing of the last 5 minutes "
        "from influxdb database neubot series speedtest"
    )
    # An empty set is a series with no numeric attribute, not an unknown one.
    for catalog in (_CATALOG, Catalog(series_attributes={_SPEEDTEST: frozenset()})):
        assert any("'missing' not present" in d for d in validate(spec, catalog))

# -- round-trip property ----------------------------------------------------

_KEYWORDS = {
    "every", "compute", "the", "value", "of", "last", "starting", "ago", "from",
    "database", "series", "and", "streaming", "rabbitmq", "queue",
    "min", "max", "mean", "second", "seconds", "minute", "minutes",
    "hour", "hours", "day", "days",
}

_idents = st.from_regex(r"[a-z][a-z0-9_]{0,11}", fullmatch=True).filter(
    lambda s: s not in _KEYWORDS
)
_units = st.sampled_from(list(TimeUnit))
_specs = st.builds(
    QuerySpec,
    frequency=st.builds(Frequency, st.integers(1, 999), _units),
    aggregation=st.sampled_from(list(AggregationFunction)),
    attribute=_idents,
    window=st.builds(WindowSpec, st.sampled_from(list(WindowKind)), st.integers(1, 999), _units),
    sources=st.builds(
        SourceSpec,
        historic=st.one_of(st.none(), st.builds(HistoricSource, _idents, _idents, _idents)),
        stream=st.one_of(st.none(), st.builds(StreamSource, _idents)),
    ),
)


@given(_specs)
def test_render_parse_round_trip(spec):
    assert parse_query(render_query(spec)) == spec
