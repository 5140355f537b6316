"""Walks and tours: verification, move classification, and the tour file format.

A tour claims one of four kinds:

  open         Hamiltonian path; endpoints need not be knight-adjacent.
  closed       Hamiltonian cycle; needs >= 3 vertices and a legal closing link.
  near_closed  closed walk covering the board: first == last, exactly one
               interior vertex visited twice, everything else once.
  path         legal walk with distinct vertices; no coverage requirement
               (used for partial reference chains).

Verification is total: any dimension-consistent input yields a report whose
violations are grouped by check, in the order membership, link legality,
coverage, closure; the first is the report's.  The checks run one axis at
a time on coordinates packed into bytes, summing each link's lengths and each
vertex's board index in lanes of big integers; holes and repeats are found
by index, so by value.  Other input takes a per-link fallback.

A tour file is a header (`board:`, `hole:` and `kind:` lines) followed by
one vertex line per entry.  Its vertex block is canonical when every line
holds exactly k one-digit fields joined by commas and ends in `\n`, with no
blank, comment or other line: 2k bytes per vertex, digits at even offsets.
`serialize_tour` writes and `parse_tour` reads such a block in a few
`bytes` operations; all else goes one line at a time, to the same effect.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable
from enum import Enum
from itertools import chain, compress
from operator import countOf, index

from .board import (
    KNIGHT_SQUARED_LENGTH,
    Board,
    Vertex,
    _parse_hole,
    _Record,
    format_vertex,
    is_knight_move,
    parse_sides,
    parse_vertex,
    serialize_board_text,
    squared_distance,
    taxicab_distance,
)
from ._packed import _marked, _packed_checks


class TourKind(Enum):
    OPEN = "open"
    CLOSED = "closed"
    NEAR_CLOSED = "near_closed"
    PATH = "path"


class MoveKind(Enum):
    L_MOVE = "L_move"
    DIAGONAL5 = "diagonal5"


def classify_move(a: Vertex, b: Vertex) -> MoveKind:
    """L_move for taxicab length 3 (one +-2, one +-1); diagonal5 for 5 unit steps."""
    if not is_knight_move(a, b):
        raise ValueError(
            f"{a} -> {b} is not a knight move (squared length {squared_distance(a, b)})"
        )
    return MoveKind.L_MOVE if taxicab_distance(a, b) == 3 else MoveKind.DIAGONAL5


class Violation(_Record):
    def __init__(self, index: int, description: str) -> None:
        super().__init__(index, description)


class VerificationReport(_Record):
    def __init__(
        self,
        valid: bool,
        violations: tuple[Violation, ...],
        endpoint_squared_distance: int,
        move_taxicab_counts: dict[int, int],
        entry_count: int,
        link_count: int,
    ) -> None:
        super().__init__(
            valid, violations, endpoint_squared_distance, move_taxicab_counts,
            entry_count, link_count,
        )

    @property
    def first_violation(self) -> Violation | None:
        return self.violations[0] if self.violations else None


class Tour(_Record):
    def __init__(self, board: Board, kind: TourKind, vertices: tuple[Vertex, ...]) -> None:
        super().__init__(board, kind, vertices)

    @property
    def link_count(self) -> int:
        return len(self.vertices) - 1

    def report(self, all_violations: bool = False) -> VerificationReport:
        return verify(self.board, self.vertices, self.kind, all_violations=all_violations)

    def serialized(self) -> str:
        return serialize_tour(self.board, self.kind, self.vertices)


def _checked(tour: Tour) -> Tour:
    """tour, once it verifies; every tour the package returns leaves here.

    A result that fails verification is a bug in the code that built it, so
    it raises RuntimeError rather than reaching the caller.
    """
    report = tour.report()
    if not report.valid:
        raise RuntimeError(
            f"internal error: invalid {tour.kind.value} result "
            f"({report.first_violation.description})"
        )
    return tour


def verify(
    board: Board,
    vertices: Iterable[Vertex],
    claimed: TourKind,
    all_violations: bool = False,
) -> VerificationReport:
    """Check a vertex sequence against a board and a claimed kind.

    A vertex is a cell when `Board.in_box` holds for it and it is no hole: a
    coordinate that `operator.index` refuses, such as a float, makes a vertex
    outside the board; one it accepts counts as that int.  Entries are keyed
    by board index (see `_packed`), and only repeated vertices are
    walked in Python; entries outside the box, boxes of over 2**64 cells and
    the per-link fallback key by tuples of values.  Endpoint distance and
    taxicab histogram are always computed.  A claimed kind that is not a
    `TourKind` raises ValueError.
    """
    if not isinstance(claimed, TourKind):
        raise ValueError(f"claimed kind must be a TourKind, not {claimed!r}")
    k, sides, holes = board.dimension, board.sides, board.holes
    vs = list(map(tuple, vertices))
    wrong = next(compress(vs, map(k.__ne__, map(len, vs))), None)
    if wrong is not None:
        raise ValueError(f"vertex {wrong} has {len(wrong)} coordinates, board has {k}")
    if not vs:
        raise ValueError("a tour needs at least one vertex")

    checks = _packed_checks(vs, sides)
    if checks is None:
        keys = list(map(_values, vs))
        outside = [i for i, v in enumerate(vs) if not board.in_box(v)]
        illegal = [
            i for i, (a, b) in enumerate(zip(keys, keys[1:]))
            if squared_distance(a, b) != KNIGHT_SQUARED_LENGTH
        ]
        taxicab_counts = Counter(map(taxicab_distance, keys, keys[1:]))
    else:
        outside, illegal, taxicab_counts, keys = checks
    # a key is an index or a tuple of values: a hole matches either
    hole_keys = holes.union(map(board.index, holes))
    removed = _marked(bytes(map(hole_keys.__contains__, keys))) if holes else []
    where = dict.fromkeys(removed, "is a removed cell")
    # an entry equal to a hole but with a coordinate that is no integer lies outside
    where.update(dict.fromkeys(outside, "lies outside the board"))
    members = [Violation(i, f"vertex {format_vertex(vs[i])} {where[i]}") for i in sorted(where)]
    links = [
        Violation(i, f"link {i}: squared length {_squared(vs[i], vs[i + 1])} (expected 5)")
        for i in illegal
    ]

    n = len(vs)
    first, last = keys[0], keys[-1]
    near = claimed is TourKind.NEAR_CLOSED
    distinct = len(set(keys))
    seen = {}  # visits of each repeated vertex
    repeats: list[Violation] = []
    if distinct < n:  # only the repeated vertices are walked
        seen = {key: 0 for key, c in Counter(keys).items() if c > 1}
        for i in _marked(bytes(map(seen.__contains__, keys))):
            key = keys[i]
            c = seen[key] = seen[key] + 1
            shown = format_vertex(vs[i])
            if c > 1 and not near:
                repeats.append(Violation(i, f"vertex {shown} visited more than once"))
            elif c == 2 and key == first:  # near_closed only from here
                repeats.append(Violation(i, "start vertex revisited before the final return"))
            elif c == 3:
                repeats.append(Violation(i, f"vertex {shown} visited a third time"))

    end, total = n - 1, board.vertex_count
    endpoint = _squared(vs[0], vs[-1])
    tail: list[Violation] = []  # coverage, then closure
    if not near:
        tail += repeats
        if claimed is not TourKind.PATH and n != total:
            tail.append(Violation(end, f"{n} entries for {total} board vertices"))
    elif last != first:
        tail.append(Violation(end, "walk does not return to its start"))
    else:
        if n != total + 2:
            message = f"{n} entries; a near-closed walk on {total} vertices needs {total + 2}"
            tail.append(Violation(end, message))
        # the final return to the start closes the walk; it is not a visit
        tail += [r for r in repeats if r.index != end]
        twice = list(seen.values()).count(2) - (seen.get(first) == 2)
        if twice != 1:
            tail.append(Violation(end, f"{twice} vertices visited twice (exactly one required)"))
        covered = distinct if n > 1 else 0
        if covered != total:
            tail.append(Violation(end, f"covers {covered} of {total} board vertices"))
    if claimed is TourKind.CLOSED:
        if n < 3:
            tail.append(Violation(end, "a closed tour needs at least 3 vertices"))
        if endpoint != KNIGHT_SQUARED_LENGTH:
            tail.append(Violation(end, f"closing link squared length {endpoint} (expected 5)"))

    violations = members + links + tail
    return VerificationReport(
        valid=not violations,
        violations=tuple(violations if all_violations else violations[:1]),
        endpoint_squared_distance=endpoint,
        move_taxicab_counts=dict(sorted(taxicab_counts.items())),
        entry_count=n,
        link_count=end,
    )


def _value(c):
    try:
        return index(c)
    except TypeError:
        return c


def _values(v: Vertex) -> tuple:
    """v, with each coordinate that `operator.index` accepts as that int."""
    return tuple(map(_value, v))


def _squared(a: Vertex, b: Vertex) -> int:
    return squared_distance(_values(a), _values(b))


# The canonical vertex block: one line per vertex, each coordinate one decimal
# digit, so a vertex of k coordinates takes 2k bytes: digits at even offsets,
# k - 1 commas and a newline at odd ones.
_DIGIT_OF = bytes(48 + b if b < 10 else 0 for b in range(256))  # above 9: NUL, not a digit
_VALUE_OF = bytes(b - 48 if 48 <= b < 58 else 128 for b in range(256))  # not a digit: 128
_NOT_IN_BLOCK = bytes(b not in b"0123456789,\n" for b in range(256))


def _separators(n: int, k: int) -> bytes:
    """The odd-offset bytes of a canonical block of n vertices with k coordinates."""
    return (b"," * (k - 1) + b"\n") * n


def _canonical_values(encoded: bytes, start: int, k: int) -> bytes | None:
    """The coordinate values of encoded[start:], which holds only digits,
    commas and newlines, when it is a canonical vertex block; else None."""
    n, rest = divmod(len(encoded) - start, 2 * k)
    if rest or encoded[start + 1::2] != _separators(n, k):
        return None
    values = encoded[start::2].translate(_VALUE_OF)
    return values if values.isascii() else None  # else a comma or newline for a digit


def _canonical_block(vertices: list[Vertex] | tuple[Vertex, ...], k: int) -> str | None:
    """The vertex lines as text when every coordinate is an int 0..9, else None."""
    if any(map(k.__ne__, map(len, vertices))):
        return None
    try:
        rows = bytes(chain.from_iterable(vertices))
    except (TypeError, ValueError):  # not an integer, or outside 0..255
        return None
    digits = rows.translate(_DIGIT_OF)
    if not digits.isdigit():  # a coordinate above 9, or no vertices
        return None
    # a bool or another int subclass may print otherwise than its value
    if countOf(map(type, chain.from_iterable(vertices)), int) != len(rows):
        return None
    block = bytearray(2 * len(rows))
    block[0::2] = digits
    block[1::2] = _separators(len(vertices), k)
    return block.decode("ascii")


class TourParseError(ValueError):
    """Tour file syntax error, carrying the 1-based line number."""

    def __init__(self, line: int, message: str) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line


def parse_tour(text: str) -> tuple[Board, TourKind, list[Vertex]]:
    """Parse the tour file format; round-trips with serialize_tour.

    The text is cut after the line holding its last character that is not a
    digit, a comma or a newline: in a canonical file, the `kind:` line.  The
    lines up to the cut go through the per-line loop, the only source of
    TourParseError.  If the header is complete there and the rest is a
    canonical vertex block, the rest is decoded in bulk; otherwise it goes
    through the per-line loop too.
    """
    sides: tuple[int, ...] | None = None
    holes: list[Vertex] = []
    kind: TourKind | None = None
    vertices: list[Vertex] = []
    lineno = 0
    encoded = text.encode("utf-8", "surrogatepass")
    skew = len(encoded) - len(text)  # what follows the cut is ASCII: one byte a character
    cut = text.find("\n", encoded.translate(_NOT_IN_BLOCK).rfind(1) + 1 - skew) + 1 or len(text)
    for start, stop in ((0, cut), (cut, len(text))):
        if kind is not None:
            values = _canonical_values(encoded, start + skew, len(sides))
            del encoded  # free the bytes before the tuples are built
            if values is not None:
                vertices += list(zip(*[iter(values)] * len(sides)))
                break
        for lineno, raw in enumerate(text[start:stop].splitlines(), lineno + 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                if kind is not None:  # vertex lines are almost every line
                    v = parse_vertex(line)
                    if len(v) != len(sides):
                        raise ValueError(
                            f"vertex {v} has {len(v)} coordinates, board has {len(sides)}"
                        )
                    vertices.append(v)
                elif sides is None:
                    if not line.startswith("board:"):
                        raise ValueError("expected 'board: n1 x n2 x ... x nk'")
                    sides = parse_sides(line[len("board:"):])
                elif line.startswith("hole:"):
                    holes.append(_parse_hole(line[len("hole:"):], sides))
                elif line.startswith("kind:"):
                    value = line[len("kind:"):].strip()
                    if value not in {k.value for k in TourKind}:
                        raise ValueError(f"unknown tour kind {value!r}")
                    kind = TourKind(value)
                else:
                    raise ValueError("expected 'kind: open|closed|near_closed|path'")
            except ValueError as exc:
                raise TourParseError(lineno, str(exc)) from None
    if sides is None:
        raise TourParseError(max(lineno, 1), "missing 'board:' header")
    if kind is None:
        raise TourParseError(max(lineno, 1), "missing 'kind:' line")
    if not vertices:
        raise TourParseError(max(lineno, 1), "tour has no vertices")
    return Board(sides, holes), kind, vertices


def serialize_tour(
    board: Board, kind: TourKind, vertices: list[Vertex] | tuple[Vertex, ...]
) -> str:
    """Canonical tour file text; deterministic, never verifies.

    When every coordinate is an int 0..9 and every vertex has the board's
    dimension, the vertex lines are one canonical block built in `bytes`
    operations; otherwise each line is formatted on its own.
    """
    header = f"board: {serialize_board_text(board)}kind: {kind.value}\n"
    block = _canonical_block(vertices, board.dimension)
    if block is None:
        block = "".join(f"{format_vertex(v)}\n" for v in vertices)
    return header + block
