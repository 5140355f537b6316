"""Verification checks on vertex coordinates packed into bytes, one axis at a time.

`tour.verify` asks `_packed_checks` for a sequence's entries outside the box,
its illegal links, its taxicab histogram and a key per entry, and takes a
per-link fallback where the packing cannot hold the input.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain
from math import prod
from sys import byteorder

from .board import KNIGHT_SQUARED_LENGTH, Vertex

# Each link is one 3-byte lane: byte 0 sums the per-axis squares capped at 6,
# which is 5 exactly when the link is a knight move; bytes 1-2 sum the per-axis
# absolute steps, the link's taxicab length.  42 * 6 < 256 and 42 * 127 < 2**16,
# so up to 42 axes no lane carries into the next.
_LANE_AXES = 42
_CAPPED_SQUARE = bytes(min((b - 128) ** 2, 6) for b in range(256))
_ABS_STEP = bytes(abs(b - 128) for b in range(256))
_NOT_KNIGHT = bytes(b != KNIGHT_SQUARED_LENGTH for b in range(256))
_INDEX_FORMAT = {1: "B", 2: "H", 4: "I", 8: "Q"}  # lane bytes: memoryview format


def _marked(flags: bytes) -> list[int]:
    """Positions of the 1 bytes of a 0/1 flag string, in increasing order."""
    found = []
    i = flags.find(1)
    while i >= 0:
        found.append(i)
        i = flags.find(1, i + 1)
    return found


def _packed_checks(
    vs: list[Vertex], sides: tuple[int, ...]
) -> tuple[list[int], list[int], dict[int, int], list | memoryview] | None:
    """(outside entries, illegal links, taxicab histogram, keys), one axis at a time.

    Axis a's column is every k-th byte of the packed coordinates.  Read as
    little-endian integers, column[1:] + 0x8080...80 - column[:-1] holds each
    link's signed step on the axis plus 128 in one byte: with every
    coordinate below 128, no byte carries or borrows.  Translated, those
    bytes give each link's capped square and absolute step, which sum in the
    lanes above.  An entry in the box keys by its board index, index * side
    + column summed in lanes of the fewest of 1, 2, 4 or 8 bytes that hold
    the box, with coordinates outside it clamped to 0 so that no lane
    carries.  Other entries, and every entry of a box of over 2**64 cells,
    key by their tuple.  None when a coordinate is not an int in 0..127 or
    the board has more than `_LANE_AXES` axes.
    """
    k = len(sides)
    if k > _LANE_AXES:
        return None
    try:
        rows = bytes(chain.from_iterable(vs))
    except (TypeError, ValueError):
        return None
    if not rows.isascii():  # a coordinate above 127
        return None
    n = len(vs)
    m = n - 1
    w = next((w for w in _INDEX_FORMAT if prod(sides) <= 256**w), 0)
    lanes = bytearray(w * n)
    bias = int.from_bytes(b"\x80" * m, "little")
    spread = bytearray(3 * m)  # one axis's squares and steps, in lane layout
    sums = at = 0
    outside: set[int] = set()
    for a, side in enumerate(sides):
        column = rows[a::k]
        s = min(side, 128)
        outside.update(_marked(column.translate(bytes(s) + b"\x01" * (256 - s))))
        if w:  # each column byte, clamped, is the low byte of its lane
            lanes[w - 1 if byteorder == "big" else 0::w] = column.translate(
                bytes(range(s)) + bytes(256 - s)
            )
            at = at * side + int.from_bytes(lanes, byteorder)
        after = int.from_bytes(column[1:], "little") + bias
        step = (after - int.from_bytes(column[:-1], "little")).to_bytes(m, "little")
        spread[0::3] = step.translate(_CAPPED_SQUARE)
        spread[1::3] = step.translate(_ABS_STEP)
        sums += int.from_bytes(spread, "little")
    packed = sums.to_bytes(3 * m, "little")
    low, high = packed[1::3], packed[2::3]
    if high.count(0) == m:  # every taxicab length fits its low byte
        taxicab, left, t = {}, m, 0
        while left:
            if c := low.count(t):
                taxicab[t] = c
                left -= c
            t += 1
    else:
        taxicab = Counter(lo | hi << 8 for lo, hi in zip(low, high))
    if not w:
        keys = list(zip(*[iter(rows)] * k))
    else:
        keys = memoryview(at.to_bytes(w * n, byteorder)).cast(_INDEX_FORMAT[w])
        if outside:
            keys = keys.tolist()
            for i in outside:
                keys[i] = tuple(rows[i * k:i * k + k])
    return sorted(outside), _marked(packed[0::3].translate(_NOT_KNIGHT)), taxicab, keys
