"""Walks and tours: verification, move classification, and the tour file format.

A tour claims one of four kinds:

  open         Hamiltonian path; endpoints need not be knight-adjacent.
  closed       Hamiltonian cycle; needs >= 3 vertices and a legal closing link.
  near_closed  closed walk covering the board: first == last, exactly one
               interior vertex visited twice, everything else once.
  path         legal walk with distinct vertices; no coverage requirement
               (used for partial reference chains).

Verification is total: any dimension-consistent input yields a report, and
the first violation is reported at the lowest index of the earliest failing
check (membership, then link legality, then coverage, then closure).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum

from .board import (
    KNIGHT_SQUARED_LENGTH,
    Board,
    Vertex,
    _parse_hole,
    format_sides,
    format_vertex,
    is_knight_move,
    parse_sides,
    parse_vertex,
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


def verify(
    board: Board,
    vertices: list[Vertex] | tuple[Vertex, ...],
    claimed: TourKind,
    all_violations: bool = False,
) -> VerificationReport:
    """Check a vertex sequence against a board and a claimed kind.

    Endpoint squared distance and the per-link taxicab histogram are always
    computed, even for invalid sequences.
    """
    vertices = [tuple(v) for v in vertices]
    if not vertices:
        raise ValueError("a tour needs at least one vertex")
    k = board.dimension
    for v in vertices:
        if len(v) != k:
            raise ValueError(f"vertex {v} has {len(v)} coordinates, board has {k}")

    violations: list[Violation] = []
    stopped = False

    def add(index: int, description: str) -> None:
        nonlocal stopped
        if stopped:
            return
        violations.append(Violation(index, description))
        if not all_violations:
            stopped = True

    # membership
    for i, v in enumerate(vertices):
        if not board.in_box(v):
            add(i, f"vertex {format_vertex(v)} lies outside the board")
        elif v in board.holes:
            add(i, f"vertex {format_vertex(v)} is a removed cell")

    # link legality (histogram over all explicit links regardless of validity)
    taxicab_counts: Counter[int] = Counter()
    for i in range(len(vertices) - 1):
        a, b = vertices[i], vertices[i + 1]
        taxicab_counts[taxicab_distance(a, b)] += 1
        sq = squared_distance(a, b)
        if sq != KNIGHT_SQUARED_LENGTH:
            add(i, f"link {i}: squared length {sq} (expected 5)")

    # coverage / multiplicity per claimed kind
    if claimed is TourKind.NEAR_CLOSED:
        _check_near_closed(board, vertices, add)
    else:
        seen: set[Vertex] = set()
        for i, v in enumerate(vertices):
            if v in seen:
                add(i, f"vertex {format_vertex(v)} visited more than once")
            seen.add(v)
        if claimed is not TourKind.PATH and len(vertices) != board.vertex_count:
            add(
                len(vertices) - 1,
                f"{len(vertices)} entries for {board.vertex_count} board vertices",
            )

    # closure
    if claimed is TourKind.CLOSED:
        if len(vertices) < 3:
            add(len(vertices) - 1, "a closed tour needs at least 3 vertices")
        closing = squared_distance(vertices[-1], vertices[0])
        if closing != KNIGHT_SQUARED_LENGTH:
            add(len(vertices) - 1, f"closing link squared length {closing} (expected 5)")

    return VerificationReport(
        valid=not violations,
        violations=tuple(violations),
        endpoint_squared_distance=squared_distance(vertices[0], vertices[-1]),
        move_taxicab_counts=dict(sorted(taxicab_counts.items())),
        entry_count=len(vertices),
        link_count=len(vertices) - 1,
    )


def _check_near_closed(board: Board, vertices: list[Vertex], add) -> None:
    first = vertices[0]
    if vertices[-1] != first:
        add(len(vertices) - 1, "walk does not return to its start")
        return
    expected = board.vertex_count + 2
    if len(vertices) != expected:
        add(
            len(vertices) - 1,
            f"{len(vertices)} entries; a near-closed walk on "
            f"{board.vertex_count} vertices needs {expected}",
        )
    # the final return to the start is the endpoint pairing, so count the body
    body = vertices[:-1]
    counts: dict[Vertex, int] = {}
    for i, v in enumerate(body):
        counts[v] = counts.get(v, 0) + 1
        if v == first and counts[v] == 2:
            add(i, "start vertex revisited before the final return")
        elif counts[v] == 3:
            add(i, f"vertex {format_vertex(v)} visited a third time")
    doubled = sorted(v for v, c in counts.items() if c == 2 and v != first)
    if len(doubled) != 1:
        add(
            len(vertices) - 1,
            f"{len(doubled)} vertices visited twice (exactly one required)",
        )
    if len(counts) != board.vertex_count:
        add(
            len(vertices) - 1,
            f"covers {len(counts)} of {board.vertex_count} board vertices",
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
        if sides is None:
            if not line.startswith("board:"):
                raise TourParseError(lineno, "expected 'board: n1 x n2 x ... x nk'")
            try:
                sides = parse_sides(line[len("board:"):])
            except ValueError as exc:
                raise TourParseError(lineno, str(exc)) from None
            continue
        if kind is None and line.startswith("hole:"):
            try:
                holes.append(_parse_hole(line[len("hole:"):], sides))
            except ValueError as exc:
                raise TourParseError(lineno, str(exc)) from None
            continue
        if kind is None:
            if not line.startswith("kind:"):
                raise TourParseError(lineno, "expected 'kind: open|closed|near_closed|path'")
            value = line[len("kind:"):].strip()
            try:
                kind = TourKind(value)
            except ValueError:
                raise TourParseError(lineno, f"unknown tour kind {value!r}") from None
            continue
        try:
            v = parse_vertex(line)
        except ValueError as exc:
            raise TourParseError(lineno, str(exc)) from None
        if len(v) != len(sides):
            raise TourParseError(
                lineno, f"vertex {v} has {len(v)} coordinates, board has {len(sides)}"
            )
        vertices.append(v)
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
    lines = [f"board: {format_sides(board.sides)}"]
    lines.extend(f"hole: {format_vertex(h)}" for h in sorted(board.holes))
    lines.append(f"kind: {kind.value}")
    lines.extend(format_vertex(v) for v in vertices)
    return "\n".join(lines) + "\n"
