"""Compact binary solver-event trace: varint codec, writer, reader.

Wire format (normative spec in docs/TRACE_FORMAT.md):

* header: the 4-byte magic ``b"RPRT"`` followed by the format version
  as an unsigned varint (currently 1);
* record: ``event_id`` varint, ``dt_us`` varint (microseconds since
  the previous record; the first record is relative to the header),
  ``payload_len`` varint, then ``payload_len`` raw payload bytes.
  For every catalogued event the payload is a sequence of unsigned
  varints (:data:`repro.obs.events.EVENT_FIELDS` gives the order).

Varints are LEB128: seven payload bits per byte, low bits first, the
high bit marks continuation.  Writers must emit the canonical minimal
encoding — that is what makes a decode -> re-encode round trip
byte-identical, which the test suite pins.

The reader mirrors the WAL tolerance contract of
:func:`repro.resilience.read_wal`: a torn tail (a record cut mid-frame
by a crash) is dropped and *counted*, never raised, so a trace from a
killed process is still readable up to its last complete record.  A
corrupt header, by contrast, is an error — there is nothing to salvage.
"""

from __future__ import annotations

import io
import time
from dataclasses import dataclass, field
from typing import BinaryIO, List, Optional, Sequence, Tuple, Union

MAGIC = b"RPRT"
VERSION = 1

# An unsigned varint never needs more than 10 bytes for a 64-bit value;
# anything longer is corruption, not data.
_MAX_VARINT_BYTES = 10


class TraceError(ValueError):
    """Raised for unreadable trace headers or invalid varint payloads."""


def encode_uvarint(value: int) -> bytes:
    """Canonical minimal LEB128 encoding of a non-negative integer."""
    if value < 0:
        raise TraceError(f"varints are unsigned, got {value}")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def decode_uvarint(data: bytes, pos: int = 0) -> Tuple[int, int]:
    """Decode one varint at ``pos``; returns ``(value, next_pos)``.

    Raises :class:`TraceError` when the buffer ends mid-varint or the
    varint overruns the 10-byte cap.
    """
    result = _try_uvarint(data, pos)
    if result is None:
        raise TraceError(f"truncated or over-long varint at byte {pos}")
    return result


def _try_uvarint(data: bytes, pos: int) -> Optional[Tuple[int, int]]:
    """Like :func:`decode_uvarint` but returns None instead of raising."""
    value = 0
    shift = 0
    start = pos
    end = len(data)
    while pos < end:
        if pos - start >= _MAX_VARINT_BYTES:
            return None
        byte = data[pos]
        pos += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, pos
        shift += 7
    return None


@dataclass(frozen=True)
class TraceRecord:
    """One decoded trace record (payload kept raw for exact re-encode)."""

    event: int
    dt_us: int
    payload: bytes = b""

    @property
    def fields(self) -> Tuple[int, ...]:
        """The payload decoded as a varint sequence (catalogued events)."""
        out: List[int] = []
        pos = 0
        while pos < len(self.payload):
            value, pos = decode_uvarint(self.payload, pos)
            out.append(value)
        return tuple(out)

    def encode(self) -> bytes:
        """The record's canonical wire bytes (framing + raw payload)."""
        return (encode_uvarint(self.event) + encode_uvarint(self.dt_us)
                + encode_uvarint(len(self.payload)) + self.payload)


def pack_fields(fields: Sequence[int]) -> bytes:
    """Encode a field tuple as a record payload (concatenated varints)."""
    return b"".join(encode_uvarint(value) for value in fields)


@dataclass
class TraceLog:
    """A fully read trace: records plus what the torn tail cost us."""

    version: int = VERSION
    records: List[TraceRecord] = field(default_factory=list)
    truncated_bytes: int = 0


class TraceWriter:
    """Streams trace records to a binary file.

    Timestamps come from ``time.perf_counter_ns`` (monotonic, never the
    wall clock) and are stored as per-record deltas so idle traces stay
    tiny.  The writer is intentionally lock-free: concurrency is the
    :class:`repro.obs.hooks.Tracer` facade's job.
    """

    def __init__(self, target: Union[str, "BinaryIO"]) -> None:
        if isinstance(target, str):
            self._fh: BinaryIO = open(target, "wb")
            self._owns = True
        else:
            self._fh = target
            self._owns = False
        self._fh.write(MAGIC + encode_uvarint(VERSION))
        self._last_us = time.perf_counter_ns() // 1000

    def emit(self, event: int, fields: Sequence[int]) -> None:
        """Append one record, stamping the monotonic delta since the last."""
        now_us = time.perf_counter_ns() // 1000
        dt = now_us - self._last_us
        self._last_us = now_us
        payload = pack_fields(fields)
        self._fh.write(encode_uvarint(event) + encode_uvarint(dt if dt > 0 else 0)
                       + encode_uvarint(len(payload)) + payload)

    def close(self) -> None:
        """Flush, and close the file only if this writer opened it."""
        self._fh.flush()
        if self._owns:
            self._fh.close()

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def write_trace(target: Union[str, "BinaryIO"],
                records: Sequence[TraceRecord],
                version: int = VERSION) -> None:
    """Write a complete trace from decoded records (byte-exact re-encode)."""
    if isinstance(target, str):
        with open(target, "wb") as fh:
            write_trace(fh, records, version)
        return
    target.write(MAGIC + encode_uvarint(version))
    for record in records:
        target.write(record.encode())


def read_trace(source: Union[str, bytes, "BinaryIO"]) -> TraceLog:
    """Read a trace, tolerating a torn tail like ``read_wal`` does.

    Records are decoded until the buffer ends cleanly or a frame is cut
    short / corrupt; the unread remainder is counted in
    ``truncated_bytes`` rather than raised, so a trace from a crashed
    process yields every complete record.  A bad magic or an
    unsupported version raises :class:`TraceError`.
    """
    if isinstance(source, str):
        with open(source, "rb") as fh:
            data = fh.read()
    elif isinstance(source, bytes):
        data = source
    else:
        data = source.read()
    if len(data) < len(MAGIC) or data[: len(MAGIC)] != MAGIC:
        raise TraceError("not a trace file (bad magic)")
    version, pos = decode_uvarint(data, len(MAGIC))
    if version > VERSION:
        raise TraceError(f"trace format version {version} is newer than "
                         f"this reader (supports <= {VERSION})")
    log = TraceLog(version=version)
    end = len(data)
    while pos < end:
        start = pos
        head = _try_uvarint(data, pos)
        if head is None:
            break
        event, pos = head
        head = _try_uvarint(data, pos)
        if head is None:
            pos = start
            break
        dt_us, pos = head
        head = _try_uvarint(data, pos)
        if head is None:
            pos = start
            break
        length, pos = head
        if pos + length > end:
            pos = start
            break
        log.records.append(TraceRecord(event, dt_us, data[pos:pos + length]))
        pos += length
    log.truncated_bytes = end - pos
    return log


def encode_trace(records: Sequence[TraceRecord], version: int = VERSION) -> bytes:
    """The full wire bytes for a record sequence (round-trip testing)."""
    buf = io.BytesIO()
    write_trace(buf, records, version)
    return buf.getvalue()
