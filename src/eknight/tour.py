"""Walks and tours: verification, move classification, and the tour file format.

A tour claims one of four kinds:

  open         Hamiltonian path; endpoints need not be knight-adjacent.
  closed       Hamiltonian cycle; needs >= 3 vertices and a legal closing link.
  near_closed  closed walk covering the board: first == last, exactly one
               interior vertex visited twice, everything else once.
  path         legal walk with distinct vertices; no coverage requirement
               (used for partial reference chains).

Verification is total and takes one pass: any dimension-consistent input
yields a report whose violations are grouped by check, in the order
membership, link legality, coverage, closure; the first is the report's.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass
from enum import Enum
from operator import lt, mul, sub

from .board import (
    KNIGHT_SQUARED_LENGTH,
    Board,
    Vertex,
    _parse_hole,
    format_vertex,
    is_knight_move,
    parse_sides,
    parse_vertex,
    serialize_board_text,
    squared_distance,
    taxicab_distance,
)


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


@dataclass(frozen=True)
class Violation:
    index: int
    description: str


@dataclass(frozen=True)
class VerificationReport:
    valid: bool
    violations: tuple[Violation, ...]
    endpoint_squared_distance: int
    move_taxicab_counts: dict[int, int]
    entry_count: int
    link_count: int

    @property
    def first_violation(self) -> Violation | None:
        return self.violations[0] if self.violations else None


@dataclass(frozen=True)
class Tour:
    board: Board
    kind: TourKind
    vertices: tuple[Vertex, ...]

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
    """Check a vertex sequence against a board and a claimed kind in one pass.

    One walk checks each entry's dimension, membership, incoming link and
    multiplicity, with one count table for every kind; the report order is
    the module docstring's.  Endpoint squared distance and the per-link
    taxicab histogram are always computed, even for invalid sequences.
    """
    k, sides, holes = board.dimension, board.sides, board.holes
    near = claimed is TourKind.NEAR_CLOSED
    members: list[Violation] = []
    links: list[Violation] = []
    repeats: list[Violation] = []
    taxicab_counts: Counter[int] = Counter()
    counts: dict[Vertex, int] = {}
    i = -1
    for i, v in enumerate(map(tuple, vertices)):
        if len(v) != k:
            raise ValueError(f"vertex {v} has {len(v)} coordinates, board has {k}")
        if min(v) < 0 or not all(map(lt, v, sides)):
            members.append(Violation(i, f"vertex {format_vertex(v)} lies outside the board"))
        elif v in holes:
            members.append(Violation(i, f"vertex {format_vertex(v)} is a removed cell"))
        if i:
            d = list(map(sub, v, prev))
            taxicab_counts[sum(map(abs, d))] += 1
            sq = sum(map(mul, d, d))
            if sq != KNIGHT_SQUARED_LENGTH:
                links.append(Violation(i - 1, f"link {i - 1}: squared length {sq} (expected 5)"))
        else:
            first = v
        prev = v
        c = counts[v] = counts.get(v, 0) + 1
        if c > 1 and not near:
            repeats.append(Violation(i, f"vertex {format_vertex(v)} visited more than once"))
        elif c == 2 and v == first:  # near_closed only from here
            repeats.append(Violation(i, "start vertex revisited before the final return"))
        elif c == 3:
            repeats.append(Violation(i, f"vertex {format_vertex(v)} visited a third time"))
    n = i + 1
    if not n:
        raise ValueError("a tour needs at least one vertex")

    end, total = n - 1, board.vertex_count
    endpoint = squared_distance(first, prev)
    tail: list[Violation] = []  # coverage, then closure
    if not near:
        tail += repeats
        if claimed is not TourKind.PATH and n != total:
            tail.append(Violation(end, f"{n} entries for {total} board vertices"))
    elif prev != first:
        tail.append(Violation(end, "walk does not return to its start"))
    else:
        if n != total + 2:
            message = f"{n} entries; a near-closed walk on {total} vertices needs {total + 2}"
            tail.append(Violation(end, message))
        # the final return to the start closes the walk; it is not a visit
        tail += [r for r in repeats if r.index != end]
        twice = sum(c == 2 for v, c in counts.items() if v != first)
        if twice != 1:
            tail.append(Violation(end, f"{twice} vertices visited twice (exactly one required)"))
        covered = len(counts) if n > 1 else 0
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


class TourParseError(ValueError):
    """Tour file syntax error, carrying the 1-based line number."""

    def __init__(self, line: int, message: str) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line


def parse_tour(text: str) -> tuple[Board, TourKind, list[Vertex]]:
    """Parse the tour file format; round-trips with serialize_tour."""
    sides: tuple[int, ...] | None = None
    holes: list[Vertex] = []
    kind: TourKind | None = None
    vertices: list[Vertex] = []
    lineno = 0
    for lineno, raw in enumerate(text.splitlines(), 1):
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
    """Canonical tour file text; deterministic, never verifies."""
    lines = [f"board: {serialize_board_text(board)}kind: {kind.value}"]
    lines.extend(format_vertex(v) for v in vertices)
    return "\n".join(lines) + "\n"
