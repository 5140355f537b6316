"""Boards for the squared-length-5 knight.

A board is a k-dimensional box {0..n1-1} x ... x {0..nk-1} minus an optional
set of removed cells (holes).  Two cells are knight-adjacent exactly when
their squared Euclidean distance is 5: either one coordinate changes by 2 and
another by 1 (an L-move), or five coordinates change by 1 each (a diagonal5
move).  Every predicate here works in plain integer arithmetic; no floating
point appears anywhere.

A board stores its knight graph once, as one neighbour bitmask per
mixed-radix cell index, in `Board._index_graph()`; every graph query reads the
masks.  They are composed axis by axis, from the cells at each squared length
0..5 within the box of the trailing axes, so no move is enumerated per cell.
`_bits` turns a mask into cell indices: bit by bit on masks of up to 256
bits, and a byte at a time on wider ones, where the bit-by-bit cost per
neighbour grows with the board and a cell has dozens to hundreds of them.
Two size guards run before anything is allocated: a box of more than
`_MAX_CELLS` cells is refused wherever its cells are walked, and one whose
build `_graph_bytes` bounds above `_MAX_GRAPH_BYTES` (n^2/8 bytes of masks for
n cells, plus the composition's tables) is refused before it is built.
"""

from __future__ import annotations

import itertools
import operator
from collections import Counter
from collections.abc import Iterable, Iterator, Sequence

Vertex = tuple[int, ...]

KNIGHT_SQUARED_LENGTH = 5

_MAX_CELLS = 2**22  # larger boxes are refused before any walk over their cells
_MAX_GRAPH_BYTES = 2**30  # larger knight graphs and cube tours are refused before they are built


def squared_distance(a: Vertex, b: Vertex) -> int:
    """Squared Euclidean distance between two same-dimension vertices."""
    if len(a) != len(b):
        raise ValueError(f"dimension mismatch: {len(a)}-tuple vs {len(b)}-tuple")
    return sum((x - y) ** 2 for x, y in zip(a, b))


def taxicab_distance(a: Vertex, b: Vertex) -> int:
    """Sum of absolute coordinate differences."""
    if len(a) != len(b):
        raise ValueError(f"dimension mismatch: {len(a)}-tuple vs {len(b)}-tuple")
    return sum(abs(x - y) for x, y in zip(a, b))


def is_knight_move(a: Vertex, b: Vertex) -> bool:
    """True iff the squared distance between a and b is exactly 5."""
    return squared_distance(a, b) == KNIGHT_SQUARED_LENGTH


def format_sides(sides: Iterable[int]) -> str:
    return " x ".join(str(s) for s in sides)


def format_vertex(v: Vertex) -> str:
    return ",".join(str(c) for c in v)


def _parse_ints(text: str, separator: str, what: str) -> tuple[int, ...]:
    """The separator-delimited integers of text; an empty part is malformed.

    int() ignores the whitespace around each part.
    """
    try:
        return tuple(map(int, text.split(separator)))
    except ValueError:
        raise ValueError(f"malformed {what} {text!r}") from None


def parse_sides(text: str) -> tuple[int, ...]:
    """Parse a 'n1 x n2 x ... x nk' side list."""
    sides = _parse_ints(text, "x", "side list")
    if any(s < 1 for s in sides):
        raise ValueError(f"sides must be >= 1, got {sides}")
    return sides


def parse_vertex(text: str) -> Vertex:
    """Parse a 'c1,c2,...,ck' coordinate list."""
    return _parse_ints(text, ",", "coordinate list")


def _integers(values: Iterable[int], what: str) -> tuple[int, ...]:
    """values as ints; ValueError unless `operator.index` accepts each, as in `_in_box`."""
    values = tuple(values)
    try:
        return tuple(map(operator.index, values))
    except TypeError:
        raise ValueError(f"{what} must be integers, got {values}") from None


def _in_box(v: Vertex, sides: tuple[int, ...], what: str = "vertex") -> bool:
    """True iff every coordinate of v is an integer in 0..side-1.

    A coordinate is an integer when `operator.index` accepts it: an int, a
    bool or another int subclass, never a float, str, Fraction or Decimal,
    whatever its value.
    """
    if len(v) != len(sides):
        raise ValueError(f"{what} {v} has {len(v)} coordinates, board has {len(sides)}")
    try:
        return all(0 <= operator.index(c) < s for c, s in zip(v, sides))
    except TypeError:
        return False


def _check_hole(hole: Iterable[int], sides: tuple[int, ...]) -> Vertex:
    """hole as a tuple of ints; ValueError unless it is a cell of the box."""
    hole = tuple(hole)
    if not _in_box(hole, sides, "hole"):
        raise ValueError(f"hole {hole} lies outside the board")
    return tuple(map(operator.index, hole))


def _byte_bits() -> list[tuple[int, ...]]:
    """Entry b lists the set bits of the byte b, in increasing order.

    Built by doubling: the entries from 2**bit up are those below it plus bit.
    """
    table: list[tuple[int, ...]] = [()]
    for bit in range(8):
        table += [bits + (bit,) for bits in table]
    return table


_BYTE_BITS = _byte_bits()
_WIDE_MASK = 256  # masks of more bits than this are decoded a byte at a time


def _bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of mask (>= 0), in increasing order, found lazily.

    Two decodes, chosen by the mask's own width.  Up to `_WIDE_MASK` bits the
    lowest set bit is isolated and cleared: three big-int operations per set
    bit, each O(width / 30) digits.  A wider mask is read from its
    little-endian bytes: `compress` skips the zero bytes in C, and
    `_BYTE_BITS` lists the bits of each other byte, so the cost per bit does
    not grow with the width.  The switch sits where the two decode a search
    row about equally fast, so boards of up to 256 cells, the small searches
    and the README's commands among them, keep the first decode.
    """
    width = mask.bit_length()
    if width <= _WIDE_MASK:
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low
        return
    data = mask.to_bytes((width + 7) // 8, "little")
    for i in itertools.compress(range(len(data)), data):
        base = i << 3
        for bit in _BYTE_BITS[data[i]]:
            yield base + bit


class _Record:
    """A frozen value: what `@dataclass(frozen=True)` gives, without `dataclasses`.

    The fields are the parameters of the subclass's `__init__`, in order, which
    passes their values on to this one.  `==`, `hash` and `repr` run over them;
    `vars()`, pickling and `copy` see them, in order, in `__dict__`.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1 : code.co_argcount]

    def __init__(self, *values: object) -> None:
        self.__dict__.update(zip(self._fields, values, strict=True))

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values()))
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class _Rows:
    """Neighbour tuples decoded when read: rows[i] lists mask i's bits in order."""

    def __init__(self, masks: list[int]) -> None:
        self.masks = masks

    def __getitem__(self, i: int) -> tuple[int, ...]:
        return tuple(_bits(self.masks[i]))  # IndexError past the end stops iteration


def _graph_bytes(sides: tuple[int, ...]) -> int:
    """Bytes that `Board._index_graph` allocates at most for this box.

    It sums every axis's tables (the build holds two axes' at once).  Row c of
    an axis of side s reaches row c + 2, so its entries are ints of at most
    min(s, c + 3) * width bits: 28 bytes, 4 more per 30-bit digit, and a 9-byte
    list slot.  The outermost axis adds a partial row, two row lists and `full`.
    """
    total, width = 1 << 16, 1  # 64 KiB for list headers and loop temporaries
    for axis, s in reversed(list(enumerate(sides))):
        table = width * sum(37 + min(s, c + 3) * width // 30 * 4 for c in range(s))
        total += table if axis == 0 else 6 * table
        width *= s
    return total + (width // sides[0] + 2) * (46 + width // 30 * 4)


def _spread(masks: list[int], frontier: int) -> int:
    """Union of the neighbour masks of the frontier's cells; one BFS level."""
    grow = 0
    for i in _bits(frontier):
        grow |= masks[i]
    return grow


def _reachable(masks: list[int], origin: int, allowed: int) -> int:
    """Bitmask of vertices reachable from origin inside allowed | {origin}."""
    reach = frontier = 1 << origin
    allowed |= reach
    while frontier:
        frontier = _spread(masks, frontier) & allowed & ~reach
        reach |= frontier
    return reach


class Board:
    """Immutable board whose knight graph is built once and cached.

    Every cell of the box has a mixed-radix index (first coordinate most
    significant), so index order and lexicographic order coincide; holes keep
    their index, they are just never enumerated or visited.  The only stored
    graph is the neighbour masks of `_index_graph()`, over these indices, and
    every graph query below reads them.  Pickling drops the caches.
    """

    __slots__ = ("sides", "holes", "_weights", "_box_size", "_cache")

    def __init__(self, sides: Iterable[int], holes: Iterable[Iterable[int]] = ()) -> None:
        sides = _integers(sides, "sides")
        if not sides:
            raise ValueError("a board needs at least one side")
        if min(sides) < 1:
            raise ValueError(f"sides must be >= 1, got {sides}")
        hole_set = frozenset(_check_hole(h, sides) for h in holes)
        self.sides: tuple[int, ...] = sides
        self.holes: frozenset[Vertex] = hole_set
        weights = [1] * len(sides)
        for i in range(len(sides) - 2, -1, -1):
            weights[i] = weights[i + 1] * sides[i + 1]
        self._weights = tuple(weights)
        self._box_size = weights[0] * sides[0]
        self._cache: dict[str, object] = {}

    def __repr__(self) -> str:
        return f"Board({format_sides(self.sides)}, holes={len(self.holes)})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Board):
            return NotImplemented
        return self.sides == other.sides and self.holes == other.holes

    def __hash__(self) -> int:
        return hash((self.sides, self.holes))

    def __getstate__(self):
        return (self.sides, self.holes)

    def __setstate__(self, state) -> None:
        self.__init__(state[0], state[1])

    @property
    def dimension(self) -> int:
        return len(self.sides)

    @property
    def box_size(self) -> int:
        return self._box_size

    @property
    def vertex_count(self) -> int:
        return self._box_size - len(self.holes)

    def in_box(self, v: Vertex) -> bool:
        """True iff every coordinate of v is an integer in 0..side-1; see `_in_box`."""
        return _in_box(v, self.sides)

    def contains(self, v: Vertex) -> bool:
        """True iff v is a playable (non-hole) cell of this board; its
        coordinates must be integers, as `in_box` says, and count by value."""
        return self.in_box(v) and tuple(map(operator.index, v)) not in self.holes

    def index(self, v: Vertex) -> int:
        """Mixed-radix index of v; defined for every cell of the box."""
        return sum(operator.index(c) * w for c, w in zip(v, self._weights))

    def vertex_at(self, index: int) -> Vertex:
        """The box cell, hole or not, at this mixed-radix index: `index` inverted."""
        if not 0 <= index < self._box_size:
            raise ValueError(f"index {index} out of range for {self!r}")
        return self._vertices_at((index,))[0]

    def _vertices_at(self, indices: Sequence[int]) -> tuple[Vertex, ...]:
        """The cell at each index (each in range): the package's one index-to-vertex decode.

        An axis's coordinates are (index // weight) % side, taken by `map` over
        all the indices rather than by one call per index; only the result
        grows with the number of indices.
        """
        return tuple(zip(*(
            map(operator.mod, map(operator.floordiv, indices, itertools.repeat(w)),
                itertools.repeat(s))
            for w, s in zip(self._weights, self.sides)
        )))

    def _cells(self) -> Iterator[Vertex]:
        """Every cell of the box, holes included, in index order.

        Every walk over the board's cells starts here, so huge boxes fail here.
        """
        if self._box_size > _MAX_CELLS:
            raise ValueError(
                f"the {format_sides(self.sides)} box has {self._box_size} cells, "
                f"more than the {_MAX_CELLS} this program enumerates"
            )
        return itertools.product(*(range(s) for s in self.sides))

    def vertices(self) -> Iterator[Vertex]:
        """All non-hole vertices in lexicographic order."""
        return (v for v in self._cells() if v not in self.holes)

    def _require_vertex(self, v: Vertex) -> Vertex:
        """v's coordinates as ints; ValueError unless v is a playable cell."""
        v = tuple(v)
        if not self.in_box(v):
            raise ValueError(f"vertex {v} lies outside the board")
        cell = tuple(map(operator.index, v))
        if cell in self.holes:
            raise ValueError(f"vertex {v} is a removed cell")
        return cell

    def neighbors(self, v: Vertex) -> tuple[Vertex, ...]:
        """All non-hole knight targets of v, in lexicographic order."""
        i = self.index(self._require_vertex(v))
        return self._vertices_at(self._index_graph()[0][i])

    def adjacency(self) -> dict[Vertex, tuple[Vertex, ...]]:
        """Map from each non-hole vertex to its neighbors, built on each call;
        the non-hole cells are decoded once, by the one decode `_vertices_at`."""
        nbrs, _, full = self._index_graph()
        every = list(_bits(full))
        cells = dict(zip(every, self._vertices_at(every)))
        return {cells[i]: tuple(map(cells.__getitem__, nbrs[i])) for i in every}

    def degree_histogram(self) -> dict[int, int]:
        """Map degree -> number of non-hole vertices with that degree.

        The map is counted once and cached; each call returns a copy of it.
        """
        histogram = self._cache.get("degree_histogram")
        if histogram is None:
            _, masks, full = self._index_graph()
            histogram = dict(sorted(Counter(masks[i].bit_count() for i in _bits(full)).items()))
            self._cache["degree_histogram"] = histogram
        return dict(histogram)

    def is_connected(self) -> bool:
        """True iff the knight graph on non-hole vertices is connected (cached)."""
        if self.vertex_count == 0:
            raise ValueError("board has no vertices")
        connected = self._cache.get("connected")
        if connected is None:
            _, masks, full = self._index_graph()
            connected = _reachable(masks, next(_bits(full)), full) == full
            self._cache["connected"] = connected
        return connected

    def knight_distance(self, a: Vertex, b: Vertex) -> int | None:
        """Minimum number of knight jumps from a to b; None if unreachable."""
        a = self._require_vertex(a)
        b = self._require_vertex(b)
        if a == b:
            return 0
        _, masks, _ = self._index_graph()
        target = 1 << self.index(b)
        seen = frontier = 1 << self.index(a)
        jumps = 0
        while frontier:
            jumps += 1
            grow = _spread(masks, frontier)
            if grow & target:
                return jumps
            frontier = grow & ~seen
            seen |= frontier
        return None

    def _dark_mask(self) -> int:
        """Bitmask of the non-hole cells whose coordinate sum is even (cached).

        Composed axis by axis like `_index_graph`: putting an axis of side s in
        front of a box of `width` cells whose even-sum mask is `mask` gives
        rows c * width + r with even sum where c + sum(r) is even, that is
        `mask` at even c and its complement at odd c.  The two-row pattern is
        doubled until it covers s rows, so the work is linear in the mask.
        """
        mask = self._cache.get("dark_mask")
        if mask is None:
            self._cells()  # refuses huge boxes
            mask, width = 1, 1  # the box of no axes: one cell, sum 0
            for s in reversed(self.sides):
                rows, pattern = 2, mask | (mask ^ ((1 << width) - 1)) << width
                while rows < s:
                    pattern |= pattern << rows * width
                    rows *= 2
                width *= s
                mask = pattern & ((1 << width) - 1)
            for h in self.holes:
                if sum(h) % 2 == 0:
                    mask ^= 1 << self.index(h)
            self._cache["dark_mask"] = mask
        return mask

    def _index_graph(self) -> tuple[_Rows, list[int], int]:
        """The knight graph over mixed-radix indices (cached).

        Returns (neighbour index tuples, neighbour bitmasks, bitmask of all
        non-hole indices), indexed by cell index and empty at holes.  Only the
        masks are stored: a tuple is decoded, in increasing order, when read.

        The masks are composed axis by axis rather than enumerated per cell.
        A move's squared length is the sum of its per-axis squares, each 0, 1
        or 4.  `tables[t][r]` holds the cells of the box of the trailing axes
        at squared length exactly t from cell r; putting an axis of side s in
        front of that box (its cells become c * width + r) gives

            tables'[t][c * width + r] = OR over d in -2..2, 0 <= c + d < s,
                                        d * d <= t, of
                                        tables[t - d * d][r] << (c + d) * width

        and the outermost axis needs only t = 5.  Boxes larger than
        `_MAX_CELLS` cells, or whose masks, tables and row lists `_graph_bytes`
        bounds above `_MAX_GRAPH_BYTES`, are refused before anything is allocated.
        """
        graph = self._cache.get("index_graph")
        if graph is not None:
            return graph
        self._cells()  # refuses huge boxes before the estimate below
        size = _graph_bytes(self.sides)
        if size > _MAX_GRAPH_BYTES:
            raise ValueError(
                f"the knight graph of the {format_sides(self.sides)} box would take "
                f"about {size} bytes, more than the {_MAX_GRAPH_BYTES} this program builds"
            )
        tables = [[1], [0], [0], [0], [0], [0]]  # the box of no axes: one cell
        width = 1
        for axis in range(len(self.sides) - 1, -1, -1):
            s = self.sides[axis]
            grown: list[list[int]] = [[], [], [], [], [], []]
            for t in (5,) if axis == 0 else range(6):
                for c in range(s):
                    terms = [
                        (tables[t - d * d], (c + d) * width)
                        for d in range(-2, 3)
                        if 0 <= c + d < s and d * d <= t
                    ]
                    source, shift = terms[0]
                    row = [m << shift for m in source]
                    for source, shift in terms[1:]:
                        row = [a | m << shift for a, m in zip(row, source)]
                    grown[t] += row
            tables = grown
            width *= s
        masks = tables[5]
        full = (1 << self._box_size) - 1
        if self.holes:
            for h in map(self.index, self.holes):
                full ^= 1 << h
                masks[h] = 0
            for i, m in enumerate(masks):  # in place: no second list of masks
                masks[i] = m & full
        graph = (_Rows(masks), masks, full)
        self._cache["index_graph"] = graph
        return graph


def _parse_hole(body: str, sides: tuple[int, ...]) -> Vertex:
    """Parse the body of a 'hole:' line and check it against the board sides."""
    return _check_hole(parse_vertex(body), sides)


def parse_board_text(text: str) -> Board:
    """Parse a board description: a side header line plus 'hole:' lines.

    Comment lines (leading '#') and blank lines are ignored.
    """
    sides: tuple[int, ...] | None = None
    holes: list[Vertex] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            if sides is None:
                sides = parse_sides(line)
            elif line.startswith("hole:"):
                holes.append(_parse_hole(line[len("hole:"):], sides))
            else:
                raise ValueError(f"expected 'hole: c1,c2,...' lines, got {line!r}")
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    if sides is None:
        raise ValueError("board description has no side header line")
    return Board(sides, holes)


def serialize_board_text(board: Board) -> str:
    """Canonical board description text; holes in lexicographic order."""
    lines = [format_sides(board.sides)]
    lines.extend(f"hole: {format_vertex(h)}" for h in sorted(board.holes))
    return "\n".join(lines) + "\n"
