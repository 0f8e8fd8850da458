"""Wire codec of the detection service: one JSON object per line.

A wire record is the versioned :meth:`Observation.to_dict` payload
plus the one thing the service adds — the sender the observation
judges::

    {"v": 1, "sender": "3", "b_exp": 31.0, "b_act": 12.0,
     "retries": 1, "time_us": 48211}

Records travel as JSONL (one object per ``\\n``-terminated line) over
stdin and TCP.  Decoding is strict end to end: the JSON layer rejects
non-objects and bad senders here, and the observation layer rejects
unknown/missing/mistyped fields in
:meth:`repro.detect.Observation.from_dict` — every failure carries an
actionable message naming the offending token, because a silently
mis-read observation would corrupt verdicts downstream.
"""

from __future__ import annotations

import json
from typing import Iterable, Iterator, Optional, Tuple

from repro.detect.base import (
    OBSERVATION_SCHEMA_VERSION,
    Observation,
    ObservationDecodeError,
)

#: The service speaks the observation schema's version: the sender key
#: is the only field the wire layer adds on top of it.
WIRE_VERSION = OBSERVATION_SCHEMA_VERSION

#: Longest accepted sender key (wire hygiene: a malicious or corrupt
#: line must not be able to intern arbitrarily large keys).
MAX_SENDER_LENGTH = 256


#: json.loads' value scanner, called directly: a wire line is one JSON
#: value with nothing around it (see :func:`decode_record`).
_scan_once = json.JSONDecoder().scan_once

#: Stands for an absent ``sender`` key (a JSON ``null`` is present).
_MISSING = object()


class WireError(ValueError):
    """A wire line is not a valid observation record."""


def encode_record(sender: str, observation: Observation) -> str:
    """One wire line (no trailing newline) for ``observation``."""
    record = observation.to_dict()
    record["sender"] = sender
    return json.dumps(record, separators=(",", ":"), sort_keys=True)


#: What ``encode_record``'s compact sorted JSON puts before the sender
#: value — the anchor :func:`sender_of_line` scans for.
_SENDER_MARKER = '"sender":"'


def sender_of_line(line: str) -> Optional[str]:
    """Best-effort sender key of a wire line, without a JSON parse.

    The multi-worker front-end routes each line by ``crc32(sender)``
    before any worker decodes it; a full :func:`json.loads` per line
    would put the whole decode cost back on the routing process.  This
    scans for the ``"sender":"..."`` span that :func:`encode_record`'s
    compact sorted JSON always produces.  Returns ``None`` when the
    span is absent or contains JSON escapes (a sender with quotes or
    backslashes) — callers then fall back to :func:`decode_record`,
    which settles whether the line is malformed or merely exotic.
    Never wrong, only occasionally undecided: a non-``None`` return
    always equals the sender :func:`decode_record` would yield.
    """
    start = line.find(_SENDER_MARKER)
    if start < 0:
        return None
    start += len(_SENDER_MARKER)
    end = line.find('"', start)
    if end <= start:
        return None
    sender = line[start:end]
    if "\\" in sender or len(sender) > MAX_SENDER_LENGTH:
        return None
    return sender


def decode_record(line: str) -> Tuple[str, Observation]:
    """Parse one wire line into ``(sender, observation)``.

    Raises :class:`WireError` with a message naming what is wrong:
    invalid JSON, a non-object payload, a missing/empty/oversized/
    non-string ``sender`` (or one holding a lone surrogate), or any
    observation-schema violation (reported through
    :class:`~repro.detect.ObservationDecodeError`'s message).
    """
    try:
        data, end = _scan_once(line, 0)
    except (StopIteration, ValueError, TypeError):
        end = -1
    if end != len(line):
        # Not exactly one JSON value: json.loads settles it, accepting
        # surrounding whitespace and wording every rejection.
        try:
            data = json.loads(line)
        except json.JSONDecodeError as exc:
            raise WireError(f"line is not valid JSON: {exc}") from None
    if type(data) is not dict:
        raise WireError(
            f"wire record must be a JSON object, got {type(data).__name__}"
        )
    sender = data.pop("sender", _MISSING)
    if sender is _MISSING:
        raise WireError(
            "wire record has no 'sender' field (which sender does this "
            "observation judge?)"
        )
    if type(sender) is not str or not sender:
        raise WireError(
            f"wire field 'sender' must be a non-empty string, "
            f"got {sender!r}"
        )
    if len(sender) > MAX_SENDER_LENGTH:
        raise WireError(
            f"wire field 'sender' exceeds {MAX_SENDER_LENGTH} characters "
            f"({len(sender)})"
        )
    if not sender.isascii():
        # A JSON escape can smuggle in a lone surrogate, which no
        # placement hash (shard_of, worker_of) can encode.
        try:
            sender.encode("utf-8")
        except UnicodeEncodeError:
            raise WireError(
                f"wire field 'sender' is not valid Unicode, got {sender!r}"
            ) from None
    try:
        observation = Observation.from_dict(data)
    except ObservationDecodeError as exc:
        raise WireError(str(exc)) from None
    return sender, observation


def encode_stream(
    records: Iterable[Tuple[str, Observation]]
) -> Iterator[str]:
    """Encode ``(sender, observation)`` pairs as wire lines."""
    for sender, observation in records:
        yield encode_record(sender, observation)


def decode_lines(lines: Iterable[str]) -> Iterator[Tuple[str, Observation]]:
    """Decode wire lines, skipping blank lines (keep-alives)."""
    for line in lines:
        line = line.strip()
        if line:
            yield decode_record(line)
