"""Doubling construction for closed tours on 2 x 2 x ... x 2 boards.

A closed tour on the k-cube extends to the (k+1)-cube: lay the tour on the
0-face as is, lay a mirrored copy on the 1-face, reverse the copy, and join
the loose ends.  Mirroring flips exactly four coordinates, so the junction
link and the closing link each change five coordinates in total (four flips
plus the new axis) and land on squared length 5; flipping is an isometry of
the cube, so every interior link stays legal.  Any 4-element flip mask works;
the default flips the four lowest axes for reproducible output.

Iterating from the embedded 64-vertex base tour yields a closed tour on the
k-cube for every k >= 6.  No tour exists below that: 0/1 coordinates only
admit the five-axis unit move, which needs k >= 5, and on the 5-cube every
cell has exactly one target (its antipode minus nothing to spare), leaving a
perfect matching instead of a connected graph.

The base tour is itself a formula.  Read each vertex as a 6-bit word, first
coordinate highest: entry t is the reflected Gray code t ^ t >> 1,
complemented (XOR 63) at every odd t.  On {0,1}^k a knight move flips
exactly five coordinates, which is a complement followed by one flip back,
so complementing every other word turns the Gray code's one-bit steps into
(k - 1)-bit steps, of squared length 5 only at k = 6.  For even k the
complement keeps each word's parity, so every cell is still visited once.
At k = 5, 7 and 8 the same formula fails verification, with links of
squared length 4, 6 and 7: the threshold k >= 6 seen from the base.

The step works on the tour packed as byte columns, one per axis, each
holding every vertex's 0/1 coordinate on that axis in tour order: a column's
mirrored half is the column reversed, translated 0 <-> 1 on the flipped
axes, and the new axis is n zero bytes then n one bytes.  Vertex tuples are
built once, from the last level's columns.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from itertools import chain

from . import corpus
from .board import _MAX_GRAPH_BYTES, Board, Vertex, _integers
from .tour import Tour, TourKind, _checked

DEFAULT_FLIP_MASK: tuple[int, ...] = (0, 1, 2, 3)

FLIP_MASK_SIZE = 4


def _validate_mask(mask: Iterable[int], dimension: int) -> tuple[int, ...]:
    axes = tuple(sorted(_integers(mask, "flip mask axes")))
    if len(axes) != FLIP_MASK_SIZE or len(set(axes)) != FLIP_MASK_SIZE:
        raise ValueError(f"flip mask needs exactly {FLIP_MASK_SIZE} distinct axes, got {axes}")
    if axes[0] < 0 or axes[-1] >= dimension:
        raise ValueError(f"flip mask {axes} out of range for dimension {dimension}")
    return axes


_FLIP = bytes.maketrans(b"\x00\x01", b"\x01\x00")


def _tour_bytes(k: int) -> int:
    """Bytes that building, verifying and printing a tour of the k-cube take.

    Every cell holds a k-tuple, its slot in the tour, its entry in the
    verifier's position table and about 2k characters of text.  The line is
    fitted above the peak RSS of `construct --k K` less the interpreter's,
    measured at K = 16..20 in text and JSON form: 297 to 354 bytes a cell on
    Python 3.11.
    """
    return 2**k * (12 * k + 160)


def _cube(k: int) -> Board:
    """The board of the k-cube, refused before doubling if its tour is too large."""
    board = Board([2] * k)
    board._cells()  # refuses a cube too large to enumerate
    size = _tour_bytes(k)
    if size > _MAX_GRAPH_BYTES:
        raise ValueError(
            f"a closed tour on the {k}-cube would take about {size} bytes, "
            f"more than the {_MAX_GRAPH_BYTES} this program builds"
        )
    return board


def _columns(vertices: Sequence[Vertex], k: int) -> list[bytes]:
    """The axis columns of a tour whose coordinates are ints 0..255."""
    rows = bytes(chain.from_iterable(vertices))
    return [rows[a::k] for a in range(k)]


def _double(columns: list[bytes], axes: tuple[int, ...]) -> list[bytes]:
    """One doubling step on a tour's axis columns, unchecked."""
    doubled = []
    for a, column in enumerate(columns):
        mirrored = column[::-1]
        doubled.append(column + (mirrored.translate(_FLIP) if a in axes else mirrored))
    n = len(columns[0])
    return doubled + [bytes(n) + b"\x01" * n]


def extend_closed_tour(base: Tour, mask: Iterable[int] | None = None) -> Tour:
    """Extend a closed tour on the k-cube to a closed tour on the (k+1)-cube.

    The base must verify as closed on a full 2 x 2 x ... x 2 board with
    k >= 6; the mask, when given, names the four coordinates to flip on the
    mirrored half.  The result is re-verified before being returned and the
    base is never mutated.
    """
    board = base.board
    if board.holes or any(s != 2 for s in board.sides):
        raise ValueError(f"base tour must live on a full 2 x 2 x ... x 2 board, not {board!r}")
    k = board.dimension
    if k < 6:
        raise ValueError(f"no closed tour exists on a {k}-cube; the base needs k >= 6")
    if base.kind is not TourKind.CLOSED:
        raise ValueError(f"base tour must be closed, not {base.kind.value}")
    result = _cube(k + 1)
    report = base.report()
    if not report.valid:
        raise ValueError(
            f"base tour fails closed verification: {report.first_violation.description}"
        )
    axes = _validate_mask(DEFAULT_FLIP_MASK if mask is None else mask, k)
    vertices = tuple(zip(*_double(_columns(base.vertices, k), axes)))
    return _checked(Tour(result, TourKind.CLOSED, vertices))


def closed_tour_on_hypercube(k: int, masks: Sequence[Iterable[int]] | None = None) -> Tour:
    """Closed tour on the k-cube for any k >= 6 that `_tour_bytes` admits (k <= 21).

    k == 6 returns the embedded base tour; larger k iterates the doubling
    step, flipping the default axes (or masks[i] at step i when given,
    len(masks) == k - 6).  Only the returned tour is verified: the
    intermediate levels are byte columns.
    """
    return _checked(_hypercube_tour(k, masks))


def _hypercube_tour(k: int, masks: Sequence[Iterable[int]] | None = None) -> Tour:
    """The tour closed_tour_on_hypercube returns, before it is verified."""
    if _integers((k,), "k")[0] < 6:
        raise ValueError(
            f"no knight's tour exists on a 2 x 2 x ... x 2 board of dimension {k}; k must be >= 6"
        )
    if masks is not None and len(masks) != k - 6:
        raise ValueError(f"need {k - 6} masks to reach dimension {k}, got {len(masks)}")
    board = _cube(k)
    columns = _columns(corpus.get(corpus.PC_2_6).vertices, 6)
    for level in range(k - 6):
        mask = DEFAULT_FLIP_MASK if masks is None else masks[level]
        columns = _double(columns, _validate_mask(mask, 6 + level))
    return Tour(board, TourKind.CLOSED, tuple(zip(*columns)))
