"""Fast necessary-condition checks for tour existence.

Coloring a vertex by the parity of its coordinate sum makes the knight graph
bipartite: a squared length of 5 forces an odd taxicab length (3 or 5), so
every jump switches color.  The verdicts below are sound in one direction
only: "infeasible" proves no tour of the requested kind exists, "feasible"
merely passes the necessary conditions.

A closed tour also needs every independent set S (no two cells of S
adjacent) to satisfy 2|S| <= n, and, if 2|S| = n, to hold one color: a
Hamiltonian cycle has no two cells of S in a row, so it can only fit n/2 of
them by alternating S and the rest, which puts every cell of S at the same
parity of position along the cycle, and so on one color.  The set checked is
the outer layers of an axis of side 4, the cells at coordinate 0 or 3 on it
(Schwenk's argument for 4 x n, Math. Mag. 64, 1991, on any number of axes).
No move joins the two layers, since it would step 3 on that axis, and none
lies inside a layer exactly when the other sides admit no knight move: no
L-move, so no other side >= 3 beside a further other side >= 2, and no
diagonal5 move, so fewer than five other sides >= 2.  This settles every
closed 4 x n and 2^4 x 4, with or without holes.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable
from enum import Enum

from .board import Board, Vertex, _integers, _Record


class Color(Enum):
    DARK = "dark"
    LIGHT = "light"


def color(v: Vertex) -> Color:
    """Dark iff the coordinate sum is even."""
    return Color.DARK if sum(v) % 2 == 0 else Color.LIGHT


ColorCounts = namedtuple("ColorCounts", "dark light")


def color_counts(board: Board) -> ColorCounts:
    """Dark/light counts over all non-hole vertices."""
    dark = board._dark_mask().bit_count()
    return ColorCounts(dark, board.vertex_count - dark)


_MOVE_SHAPES = ((2, 1), (1, 1, 1, 1, 1))


def move_decompositions(k: int) -> set[tuple[int, ...]]:
    """All multisets of absolute coordinate changes with squares summing to 5.

    Each multiset is returned as a descending tuple of its nonzero entries;
    at most k coordinates may change.  The only positive squares up to 5 are
    1 and 4, so 5 = 4 + 1 = 1 + 1 + 1 + 1 + 1 and there are exactly two
    shapes: the L-move (2, 1) and the diagonal5 move (1, 1, 1, 1, 1).
    """
    if k < 1:
        raise ValueError(f"dimension must be >= 1, got {k}")
    return {shape for shape in _MOVE_SHAPES if len(shape) <= k}


class FeasibilityVerdict(_Record):
    """Outcome of a necessary-condition scan.

    reasons lists the violated conditions (empty iff feasible); notes carry
    non-binding diagnostics.
    """

    def __init__(
        self, feasible: bool, reasons: tuple[str, ...], notes: tuple[str, ...] = ()
    ) -> None:
        super().__init__(feasible, reasons, notes)


def _verdict(reasons: Iterable[str], notes: Iterable[str] = ()) -> FeasibilityVerdict:
    reasons = tuple(reasons)
    return FeasibilityVerdict(not reasons, reasons, tuple(notes))


def _outer_layers(board: Board, axis: int) -> int | None:
    """Bitmask of the non-hole cells at 0 or 3 on an axis of side 4.

    None unless the axis has side 4 and the other sides admit no knight move,
    which is when no two of those cells are adjacent; decided from the sides
    alone.  The mask is one block of 4 * w bits (w the axis weight), a layer
    of w cells at each end, repeated by multiplying with the base-2^(4w)
    repunit, so no cell is visited.
    """
    sides = board.sides
    if sides[axis] != 4:
        return None
    others = sides[:axis] + sides[axis + 1:]
    wide = sum(s >= 2 for s in others)
    if wide >= 5 or wide >= 2 and max(others) >= 3:
        return None
    w = board._weights[axis]
    layer = (1 << w) - 1
    repunit = ((1 << board.box_size) - 1) // ((1 << 4 * w) - 1)
    return (layer | layer << 3 * w) * repunit & board._index_graph()[2]


def closed_tour_necessary(board: Board) -> FeasibilityVerdict:
    """Necessary conditions for a closed tour (Hamiltonian cycle).

    Besides the counts, connectivity and degrees, the outer layers of an axis
    of side 4 refuse the board when they are independent and hold more than
    half the cells, or exactly half in both colors; the module docstring has
    the proof.
    """
    reasons = []
    n = board.vertex_count
    if n == 0:
        return _verdict(["no vertices"])
    if n % 2 == 1:
        reasons.append(f"odd vertex count ({n})")
    dark, light = color_counts(board)
    if dark != light:
        reasons.append(f"dark/light imbalance ({dark} dark, {light} light)")
    if not board.is_connected():
        reasons.append("disconnected")
    min_degree = min(board.degree_histogram())
    if min_degree < 2:
        reasons.append(f"min degree {min_degree} < 2")
    if n < 3:
        reasons.append(f"fewer than 3 vertices ({n})")
    for axis in range(board.dimension):
        layers = _outer_layers(board, axis)
        if layers is None:
            continue
        size = layers.bit_count()
        dark = (layers & board._dark_mask()).bit_count()
        if 2 * size > n or 2 * size == n and 0 < dark < size:
            reasons.append(
                f"outer layers of axis {axis} (side 4): {size} of {n} cells, "
                f"no two adjacent, {dark} dark and {size - dark} light"
            )
            break
    return _verdict(reasons)


def open_tour_necessary(board: Board) -> FeasibilityVerdict:
    """Necessary conditions for an open tour (Hamiltonian path)."""
    reasons = []
    notes = []
    n = board.vertex_count
    if n == 0:
        return _verdict(["no vertices"])
    dark, light = color_counts(board)
    if abs(dark - light) > 1:
        reasons.append(f"dark/light imbalance exceeds 1 ({dark} dark, {light} light)")
    elif dark != light and n > 1:
        majority = "dark" if dark > light else "light"
        notes.append(f"both endpoints must be {majority} (majority color)")
    if not board.is_connected():
        reasons.append("disconnected")
    degree_one = board.degree_histogram().get(1, 0)
    if degree_one > 2:
        reasons.append(f"{degree_one} vertices of degree 1 (at most 2 allowed)")
    return _verdict(reasons, notes)


def classical_closed_tour_condition(sides: Iterable[int]) -> bool:
    """Closed-tour criterion for the classical knight on a box of dimension >= 3.

    True iff the cell count is even, the second-largest side is >= 3 and the
    largest side is >= 4.  Sides are sorted defensively; informational only,
    independent of the squared-length-5 move rule.
    """
    sides = sorted(_integers(sides, "sides"))
    if len(sides) < 3:
        raise ValueError(f"need at least 3 sides, got {len(sides)}")
    if sides[0] < 2:
        raise ValueError(f"all sides must be >= 2, got {tuple(sides)}")
    product = 1
    for s in sides:
        product *= s
    return product % 2 == 0 and sides[-2] >= 3 and sides[-1] >= 4
