"""Deterministic binary value codec: the byte layer of the store.

Pickle would round-trip the same values, but its output embeds
protocol framing chosen by the interpreter and its memo table depends
on object identity, which makes "the bytes on disk" an accident of the
writing process.  The golden-bytes test pinning the segment format
needs the opposite: a codec where equal values always produce equal
bytes, on any supported interpreter.  This module is that codec — a
tiny tagged binary encoding for exactly the value shapes the row
codecs emit:

``None``, ``bool``, ``int`` (zigzag varint, unbounded), ``float``
(IEEE-754 big-endian), ``str`` (UTF-8, length-prefixed), ``bytes``,
``tuple``/``list`` (decoded as ``tuple``), and ``dict`` with string
keys (insertion order preserved — Python dicts are ordered, so equal
construction order means equal bytes).

Varints make the format size-proportional: small intern indices cost
one byte, and nothing anywhere imposes a 64k table limit — an intern
table with 100k entries encodes indices in at most three bytes.
"""

from __future__ import annotations

import struct

__all__ = ["MAX_DEPTH", "PackError", "pack", "unpack"]

_TAG_NONE = 0x00
_TAG_FALSE = 0x01
_TAG_TRUE = 0x02
_TAG_INT = 0x03
_TAG_FLOAT = 0x04
_TAG_STR = 0x05
_TAG_BYTES = 0x06
_TAG_TUPLE = 0x07
_TAG_DICT = 0x08

_FLOAT = struct.Struct(">d")
#: Deepest tuple/dict nesting :func:`unpack` accepts.  Row tuples nest
#: a handful of levels; the cap turns a hostile buffer into a
#: PackError long before the interpreter's recursion limit.
MAX_DEPTH = 64


class PackError(ValueError):
    """A value cannot be packed, or a buffer cannot be unpacked."""


def _write_uvarint(out: bytearray, value: int) -> None:
    while value >= 0x80:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


def _read_uvarint(buf: bytes, offset: int) -> tuple[int, int]:
    result = 0
    shift = 0
    while True:
        byte = buf[offset]
        offset += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, offset
        shift += 7


def _zigzag(value: int) -> int:
    # Arbitrary-precision zigzag: no 64-bit clamp anywhere in the format.
    return value << 1 if value >= 0 else ((-value) << 1) - 1


def _unzigzag(value: int) -> int:
    return (value >> 1) ^ -(value & 1)


def _pack_into(out: bytearray, value: object) -> None:
    # Checks run in order of frequency in row tuples: intern indices and
    # other small ints first.  ``type(True) is bool``, never ``int``.
    kind = type(value)
    if kind is int:
        out.append(_TAG_INT)
        _write_uvarint(out, _zigzag(value))
    elif kind is tuple or kind is list:
        out.append(_TAG_TUPLE)
        _write_uvarint(out, len(value))
        for item in value:
            if type(item) is int and item >= 0:
                # Inlined zigzag + _write_uvarint: ints are most of a
                # row's items.
                out.append(_TAG_INT)
                item <<= 1
                while item >= 0x80:
                    out.append((item & 0x7F) | 0x80)
                    item >>= 7
                out.append(item)
            else:
                _pack_into(out, item)
    elif kind is str:
        encoded = value.encode("utf-8")
        out.append(_TAG_STR)
        _write_uvarint(out, len(encoded))
        out.extend(encoded)
    elif value is None:
        out.append(_TAG_NONE)
    elif kind is bool:
        out.append(_TAG_TRUE if value else _TAG_FALSE)
    elif kind is float:
        out.append(_TAG_FLOAT)
        out.extend(_FLOAT.pack(value))
    elif kind is bytes:
        out.append(_TAG_BYTES)
        _write_uvarint(out, len(value))
        out.extend(value)
    elif kind is dict:
        out.append(_TAG_DICT)
        _write_uvarint(out, len(value))
        for key, item in value.items():
            if type(key) is not str:
                raise PackError(f"dict keys must be str, got {type(key).__name__}")
            _pack_into(out, key)
            _pack_into(out, item)
    else:
        raise PackError(f"cannot pack {kind.__name__}")


def _unpack_from(buf: bytes, offset: int, depth: int) -> tuple[object, int]:
    # Reading past the end raises IndexError; unpack() reports it.
    tag = buf[offset]
    offset += 1
    if tag == _TAG_INT:
        raw, offset = _read_uvarint(buf, offset)
        return _unzigzag(raw), offset
    if tag == _TAG_TUPLE:
        if depth >= MAX_DEPTH:
            raise PackError(f"value nested deeper than {MAX_DEPTH} levels")
        count, offset = _read_uvarint(buf, offset)
        items = []
        append = items.append
        for _ in range(count):
            if buf[offset] == _TAG_INT:
                # Inlined _read_uvarint: ints are most of a row's items.
                raw = buf[offset + 1]
                offset += 2
                if raw >= 0x80:
                    raw &= 0x7F
                    shift = 7
                    while True:
                        byte = buf[offset]
                        offset += 1
                        raw |= (byte & 0x7F) << shift
                        if byte < 0x80:
                            break
                        shift += 7
                append((raw >> 1) ^ -(raw & 1))
            else:
                item, offset = _unpack_from(buf, offset, depth + 1)
                append(item)
        return tuple(items), offset
    if tag == _TAG_STR or tag == _TAG_BYTES:
        length, offset = _read_uvarint(buf, offset)
        end = offset + length
        if end > len(buf):
            raise PackError("truncated string")
        raw = buf[offset:end]
        return (raw.decode("utf-8") if tag == _TAG_STR else bytes(raw)), end
    if tag == _TAG_NONE:
        return None, offset
    if tag == _TAG_TRUE:
        return True, offset
    if tag == _TAG_FALSE:
        return False, offset
    if tag == _TAG_FLOAT:
        end = offset + 8
        if end > len(buf):
            raise PackError("truncated float")
        return _FLOAT.unpack(buf[offset:end])[0], end
    if tag == _TAG_DICT:
        if depth >= MAX_DEPTH:
            raise PackError(f"value nested deeper than {MAX_DEPTH} levels")
        count, offset = _read_uvarint(buf, offset)
        result: dict = {}
        for _ in range(count):
            key, offset = _unpack_from(buf, offset, depth + 1)
            if type(key) is not str:
                raise PackError(f"dict key is {type(key).__name__}, not str")
            value, offset = _unpack_from(buf, offset, depth + 1)
            result[key] = value
        return result, offset
    raise PackError(f"unknown tag 0x{tag:02x}")


def pack(value: object) -> bytes:
    """Encode a value; equal values always yield equal bytes."""
    out = bytearray()
    _pack_into(out, value)
    return bytes(out)


def unpack(buf: bytes) -> object:
    """Decode :func:`pack` output; rejects trailing or missing bytes.

    Raises :class:`PackError`, never another error, on any malformed
    buffer, nesting deeper than :data:`MAX_DEPTH` included.
    """
    try:
        value, offset = _unpack_from(buf, 0, 0)
    except IndexError:
        raise PackError("truncated value") from None
    except UnicodeDecodeError as exc:
        raise PackError(f"string is not UTF-8 ({exc.reason})") from None
    if offset != len(buf):
        raise PackError(f"{len(buf) - offset} trailing bytes after value")
    return value
