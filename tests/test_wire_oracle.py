"""The one-pass wire decoder against the field-by-field decoder.

``decode_record`` scans a line with json's value scanner and
``Observation.from_dict`` takes one pass over records shaped like
``to_dict`` output, falling back to the field-by-field checks for
anything else.  The oracle below is the field-by-field decoder as it
stood before that fast path: the property tests mutate valid records
(wrong types, bools, non-finite numbers, out-of-range values, missing
and extra keys, bad versions, bad senders, non-object JSON, broken
JSON) and require both decoders to accept exactly the same lines, with
equal observations and identical ``WireError`` messages.

One difference is deliberate: a sender holding a lone surrogate (only
a JSON escape such as ``"\\udcff"`` can carry one) is rejected now.
The old decoder accepted it, and the store then raised
``UnicodeEncodeError`` while hashing it, killing the ingest source.
Hypothesis text strategies generate no surrogates, so the properties
below compare the two decoders everywhere else.
"""

from __future__ import annotations

import json
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.detect.base import (
    OBSERVATION_SCHEMA_VERSION,
    Observation,
    ObservationDecodeError,
)
from repro.service.codec import MAX_SENDER_LENGTH, WireError, decode_record


# ----------------------------------------------------------------------
# Oracle: the field-by-field decoder
# ----------------------------------------------------------------------
def oracle_from_dict(data):
    if not isinstance(data, dict):
        raise ObservationDecodeError(
            f"observation record must be a JSON object, "
            f"got {type(data).__name__}"
        )
    version = data.get("v")
    if version is None:
        raise ObservationDecodeError(
            "observation record has no 'v' schema-version field "
            f"(this build writes v={OBSERVATION_SCHEMA_VERSION})"
        )
    if version != OBSERVATION_SCHEMA_VERSION:
        raise ObservationDecodeError(
            f"unsupported observation schema version {version!r}; "
            f"this build reads v={OBSERVATION_SCHEMA_VERSION}"
        )
    expected = ("v", "b_exp", "b_act", "retries", "time_us")
    missing = [name for name in expected if name not in data]
    if missing:
        raise ObservationDecodeError(
            f"observation record missing field(s): "
            f"{', '.join(missing)} (expected {', '.join(expected)})"
        )
    unknown = [name for name in data if name not in expected]
    if unknown:
        raise ObservationDecodeError(
            f"observation record has unknown field(s): "
            f"{', '.join(sorted(unknown))} (schema "
            f"v={OBSERVATION_SCHEMA_VERSION} has {', '.join(expected)})"
        )
    values = {}
    for name in ("b_exp", "b_act"):
        value = data[name]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ObservationDecodeError(
                f"observation field {name!r} must be a number, "
                f"got {value!r}"
            )
        if not math.isfinite(value):
            raise ObservationDecodeError(
                f"observation field {name!r} must be finite, "
                f"got {value!r}"
            )
        values[name] = float(value)
    for name, minimum in (("retries", 1), ("time_us", 0)):
        value = data[name]
        if isinstance(value, bool) or not isinstance(value, int):
            raise ObservationDecodeError(
                f"observation field {name!r} must be an integer, "
                f"got {value!r}"
            )
        if value < minimum:
            raise ObservationDecodeError(
                f"observation field {name!r} must be >= {minimum}, "
                f"got {value}"
            )
        values[name] = value
    return Observation(**values)


def oracle_decode(line):
    try:
        data = json.loads(line)
    except json.JSONDecodeError as exc:
        raise WireError(f"line is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise WireError(
            f"wire record must be a JSON object, got {type(data).__name__}"
        )
    if "sender" not in data:
        raise WireError(
            "wire record has no 'sender' field (which sender does this "
            "observation judge?)"
        )
    sender = data.pop("sender")
    if not isinstance(sender, str) or not sender:
        raise WireError(
            f"wire field 'sender' must be a non-empty string, "
            f"got {sender!r}"
        )
    if len(sender) > MAX_SENDER_LENGTH:
        raise WireError(
            f"wire field 'sender' exceeds {MAX_SENDER_LENGTH} characters "
            f"({len(sender)})"
        )
    try:
        observation = oracle_from_dict(data)
    except ObservationDecodeError as exc:
        raise WireError(str(exc)) from None
    return sender, observation


# ----------------------------------------------------------------------
# Strategies: valid records, then mutations
# ----------------------------------------------------------------------
finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
weird_values = st.one_of(
    st.booleans(),
    st.none(),
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=-(2 ** 70), max_value=2 ** 70),
    finite,
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 1.0, 1.5]),
    st.text(max_size=4),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=1),
)
senders = st.one_of(
    st.text(min_size=1, max_size=12),
    st.sampled_from(["", "x" * MAX_SENDER_LENGTH,
                     "x" * (MAX_SENDER_LENGTH + 1), "ü", 'a"b', "a\\b"]),
)
FIELDS = ("v", "sender", "b_exp", "b_act", "retries", "time_us")


@st.composite
def valid_records(draw):
    return {
        "v": OBSERVATION_SCHEMA_VERSION,
        "sender": draw(st.text(min_size=1, max_size=12)),
        "b_exp": draw(finite),
        "b_act": draw(finite),
        "retries": draw(st.integers(min_value=1, max_value=10 ** 6)),
        "time_us": draw(st.integers(min_value=0, max_value=2 ** 62)),
    }


@st.composite
def mutated_records(draw):
    record = draw(valid_records())
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        kind = draw(st.sampled_from([
            "replace", "bool", "int-in-float", "float-in-int",
            "non-finite", "range", "delete", "extra", "version", "sender",
        ]))
        if kind == "replace":
            record[draw(st.sampled_from(FIELDS))] = draw(weird_values)
        elif kind == "bool":
            record[draw(st.sampled_from(FIELDS))] = draw(st.booleans())
        elif kind == "int-in-float":
            record[draw(st.sampled_from(["b_exp", "b_act"]))] = draw(
                st.integers(min_value=-(2 ** 64), max_value=2 ** 64)
            )
        elif kind == "float-in-int":
            record[draw(st.sampled_from(["retries", "time_us"]))] = draw(
                st.one_of(finite, st.sampled_from([1.0, 0.0, 2.0]))
            )
        elif kind == "non-finite":
            record[draw(st.sampled_from(["b_exp", "b_act"]))] = draw(
                st.sampled_from([math.nan, math.inf, -math.inf])
            )
        elif kind == "range":
            record[draw(st.sampled_from(["retries", "time_us"]))] = draw(
                st.integers(min_value=-(2 ** 64), max_value=1)
            )
        elif kind == "delete":
            record.pop(draw(st.sampled_from(FIELDS)), None)
        elif kind == "extra":
            record[draw(st.sampled_from(["x", "V", "b_exp ", "seq"]))] = \
                draw(weird_values)
        elif kind == "version":
            record["v"] = draw(st.sampled_from(
                [0, 2, -1, 1.0, True, False, "1", None, [1]]
            ))
        else:
            record["sender"] = draw(st.one_of(senders, weird_values))
    keys = draw(st.permutations(list(record)))
    return {key: record[key] for key in keys}


def encode(value):
    return json.dumps(value, separators=(",", ":"), allow_nan=True)


@st.composite
def wire_lines(draw):
    shape = draw(st.sampled_from(
        ["record", "record", "record", "non-object", "broken", "padded"]
    ))
    if shape == "non-object":
        return encode(draw(st.one_of(
            weird_values, st.lists(weird_values, max_size=3)
        )))
    line = encode(draw(mutated_records()))
    if shape == "broken":
        cut = draw(st.integers(min_value=0, max_value=len(line)))
        junk = draw(st.sampled_from(["", "}", "x", ",", " ", "﻿", "{"]))
        return line[:cut] + junk
    if shape == "padded":
        pad = draw(st.sampled_from([" ", "\t", "\r", "  \t"]))
        return draw(st.sampled_from([pad + line, line + pad,
                                     pad + line + pad]))
    return line


def outcome(decode, *args):
    """``("ok", value, field types)`` or ``("error", type, message)``."""
    try:
        value = decode(*args)
    except (WireError, ObservationDecodeError) as exc:
        return ("error", type(exc).__name__, str(exc))
    observation = value[1] if isinstance(value, tuple) else value
    types = tuple(type(getattr(observation, name)) for name in
                  ("b_exp", "b_act", "retries", "time_us"))
    return ("ok", value, types)


# ----------------------------------------------------------------------
# Properties
# ----------------------------------------------------------------------
class TestDecoderMatchesOracle:
    @given(wire_lines())
    @settings(max_examples=600, deadline=None)
    def test_decode_record_matches_oracle(self, line):
        assert outcome(decode_record, line) == outcome(oracle_decode, line)

    @given(st.one_of(mutated_records(), weird_values))
    @settings(max_examples=400, deadline=None)
    def test_from_dict_matches_oracle(self, data):
        if isinstance(data, dict):
            data.pop("sender", None)
        snapshot = repr(data)
        got = outcome(Observation.from_dict, data)
        assert repr(data) == snapshot  # the decoder never mutates input
        assert got == outcome(oracle_from_dict, data)

    @given(valid_records())
    @settings(max_examples=200, deadline=None)
    def test_valid_records_take_the_happy_path(self, record):
        """Every record ``encode_record`` could write decodes to the
        observation it encodes."""
        line = encode(record)
        sender, observation = decode_record(line)
        assert sender == record["sender"]
        assert observation == Observation(
            record["b_exp"], record["b_act"], record["retries"],
            record["time_us"],
        )

    def test_lone_surrogate_sender_rejected(self):
        line = encode({"v": 1, "sender": "a\udcff", "b_exp": 1.0,
                       "b_act": 2.0, "retries": 1, "time_us": 0})
        assert oracle_decode(line)[0] == "a\udcff"
        assert outcome(decode_record, line) == (
            "error", "WireError",
            "wire field 'sender' is not valid Unicode, got 'a\\udcff'",
        )
        # A non-ASCII sender that encodes is still accepted.
        line = line.replace("\\udcff", "\\u00fc")
        assert decode_record(line)[0] == "a\u00fc"

    def test_hand_picked_edges(self):
        base = {"v": 1, "sender": "s", "b_exp": 1.0, "b_act": 2.0,
                "retries": 1, "time_us": 0}
        cases = [
            "", " ", "{", "[]", "null", "1", '"s"', "NaN",
            encode(base) + " x",
            "﻿" + encode(base),
        ]
        for key, value in [
            ("b_exp", True), ("b_exp", 1), ("b_exp", math.nan),
            ("b_act", -math.inf), ("retries", 1.0), ("retries", 0),
            ("retries", False), ("time_us", -1), ("time_us", 2.0),
            ("v", True), ("v", 1.0), ("v", 2), ("sender", None),
            ("sender", 7), ("sender", ""), ("sender", "y" * 257),
        ]:
            cases.append(encode({**base, key: value}))
        for key in base:
            cases.append(encode({k: v for k, v in base.items() if k != key}))
        cases.append(encode({**base, "extra": 1}))
        for line in cases:
            assert outcome(decode_record, line) \
                == outcome(oracle_decode, line), line
