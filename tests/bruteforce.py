"""Independent brute-force oracles for small boards.

Everything here recomputes adjacency from raw coordinate arithmetic so a bug
in the library's neighbor generation cannot fool the oracle.
`reference_verify` is the earlier four-pass verifier, the oracle for the
packed, axis-by-axis `tour.verify`.  `reference_parse_tour`,
`reference_serialize_tour` and `reference_double` are the per-line tour
reader and writer and the tuple doubling step, the oracles for the bulk
paths of `tour.parse_tour` and `tour.serialize_tour` and for the byte-column
`construct._double`.  `reference_prunable` is the prune check that runs its
breadth-first reach search before the degree scan, the oracle for
`search._prunable`, which decides most reach questions within the scan.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from collections import Counter

from eknight.board import (
    KNIGHT_SQUARED_LENGTH,
    Board,
    Vertex,
    _bits,
    _parse_hole,
    _spread,
    format_vertex,
    parse_sides,
    parse_vertex,
    serialize_board_text,
    squared_distance,
    taxicab_distance,
)
from eknight.search import _alternation_bound
from eknight.tour import TourKind, TourParseError, VerificationReport, Violation


def sq5(a: Vertex, b: Vertex) -> bool:
    return sum((x - y) ** 2 for x, y in zip(a, b)) == 5


def brute_adjacency(board: Board) -> dict[Vertex, list[Vertex]]:
    verts = list(board.vertices())
    return {v: [w for w in verts if w != v and sq5(v, w)] for v in verts}


def tour_exists(board: Board, kind: TourKind) -> bool:
    """Plain recursive search, no heuristics, no pruning."""
    verts = list(board.vertices())
    n = len(verts)
    adj = brute_adjacency(board)

    if kind is TourKind.CLOSED:
        if n < 3:
            return False

        def extend_cycle(path: list[Vertex], used: set[Vertex]) -> bool:
            if len(path) == n:
                return sq5(path[-1], path[0])
            for w in adj[path[-1]]:
                if w not in used:
                    used.add(w)
                    path.append(w)
                    if extend_cycle(path, used):
                        return True
                    path.pop()
                    used.discard(w)
            return False

        # every cycle passes through every vertex, so one start suffices
        return extend_cycle([verts[0]], {verts[0]})

    if kind is TourKind.OPEN:
        if n == 1:
            return True

        def extend_path(path: list[Vertex], used: set[Vertex]) -> bool:
            if len(path) == n:
                return True
            for w in adj[path[-1]]:
                if w not in used:
                    used.add(w)
                    path.append(w)
                    if extend_path(path, used):
                        return True
                    path.pop()
                    used.discard(w)
            return False

        return any(extend_path([s], {s}) for s in verts)

    raise ValueError(f"oracle handles open/closed, not {kind}")


def tour_exists_permutations(board: Board, kind: TourKind) -> bool:
    """Literal permutation scan; only sane for tiny boards (n <= 7 or so)."""
    verts = list(board.vertices())
    n = len(verts)
    if kind is TourKind.CLOSED:
        if n < 3:
            return False
        first = verts[0]
        for perm in itertools.permutations(verts[1:]):
            seq = (first, *perm)
            if all(sq5(seq[i], seq[i + 1]) for i in range(n - 1)) and sq5(seq[-1], seq[0]):
                return True
        return False
    if n == 1:
        return True
    for seq in itertools.permutations(verts):
        if all(sq5(seq[i], seq[i + 1]) for i in range(n - 1)):
            return True
    return False


def random_board(rng: random.Random, max_vertices: int = 12) -> Board:
    """Small box with random holes, at most max_vertices playable cells.

    Playable-cell counts are biased toward the cap so most boards keep
    enough structure to have edges.
    """
    while True:
        k = rng.choice((1, 2, 2, 2, 3, 3, 5))
        sides = tuple(rng.randint(1, 4) for _ in range(k))
        cells = math.prod(sides)
        if cells > 16:
            continue
        cap = min(max_vertices, cells)
        roll = rng.random()
        if roll < 0.35:
            target = cap
        elif roll < 0.85:
            target = rng.randint(max(1, cap // 2), cap)
        else:
            target = rng.randint(1, cap)
        all_cells = list(itertools.product(*(range(s) for s in sides)))
        holes = rng.sample(all_cells, cells - target)
        return Board(sides, holes)


def reference_verify(
    board: Board,
    vertices: list[Vertex] | tuple[Vertex, ...],
    claimed: TourKind,
    all_violations: bool = False,
) -> VerificationReport:
    """Four-pass verifier kept as an oracle for `tour.verify`.

    It walks the sequence once per check (membership, links, coverage,
    closure) and near-closed coverage in a walk of its own, so a report it
    agrees with has the same violations, in the same order, with the same
    diagnostics.  Every check compares values: a coordinate that
    `operator.index` accepts counts as that int.
    """
    vertices = [tuple(v) for v in vertices]
    if not vertices:
        raise ValueError("a tour needs at least one vertex")
    k = board.dimension
    for v in vertices:
        if len(v) != k:
            raise ValueError(f"vertex {v} has {len(v)} coordinates, board has {k}")

    values = [tuple(map(_value, v)) for v in vertices]
    violations: list[Violation] = []
    stopped = False

    def add(index: int, description: str) -> None:
        nonlocal stopped
        if stopped:
            return
        violations.append(Violation(index, description))
        if not all_violations:
            stopped = True

    def in_box(v: Vertex) -> bool:
        # a coordinate counts when operator.index accepts it, whatever its value
        try:
            coordinates = [operator.index(c) for c in v]
        except TypeError:
            return False
        return all(0 <= c < s for c, s in zip(coordinates, board.sides))

    # membership
    for i, v in enumerate(vertices):
        if not in_box(v):
            add(i, f"vertex {format_vertex(v)} lies outside the board")
        elif values[i] in board.holes:
            add(i, f"vertex {format_vertex(v)} is a removed cell")

    # link legality (histogram over all explicit links regardless of validity)
    taxicab_counts: Counter[int] = Counter()
    for i in range(len(vertices) - 1):
        a, b = values[i], values[i + 1]
        taxicab_counts[taxicab_distance(a, b)] += 1
        sq = squared_distance(a, b)
        if sq != KNIGHT_SQUARED_LENGTH:
            add(i, f"link {i}: squared length {sq} (expected 5)")

    # coverage / multiplicity per claimed kind
    if claimed is TourKind.NEAR_CLOSED:
        _reference_check_near_closed(board, vertices, values, add)
    else:
        seen: set[Vertex] = set()
        for i, v in enumerate(values):
            if v in seen:
                add(i, f"vertex {format_vertex(vertices[i])} visited more than once")
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
        closing = squared_distance(values[-1], values[0])
        if closing != KNIGHT_SQUARED_LENGTH:
            add(len(vertices) - 1, f"closing link squared length {closing} (expected 5)")

    return VerificationReport(
        valid=not violations,
        violations=tuple(violations),
        endpoint_squared_distance=squared_distance(values[0], values[-1]),
        move_taxicab_counts=dict(sorted(taxicab_counts.items())),
        entry_count=len(vertices),
        link_count=len(vertices) - 1,
    )


def _value(c):
    """c as an int when `operator.index` accepts it, else c itself."""
    try:
        return operator.index(c)
    except TypeError:
        return c


def _reference_check_near_closed(board: Board, vertices: list[Vertex], values, add) -> None:
    first = values[0]
    if values[-1] != first:
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
    body = values[:-1]
    counts: dict[Vertex, int] = {}
    for i, v in enumerate(body):
        counts[v] = counts.get(v, 0) + 1
        if v == first and counts[v] == 2:
            add(i, "start vertex revisited before the final return")
        elif counts[v] == 3:
            add(i, f"vertex {format_vertex(vertices[i])} visited a third time")
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


def reference_parse_tour(text: str) -> tuple[Board, TourKind, list[Vertex]]:
    """The per-line tour reader, every line parsed on its own."""
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
            if kind is not None:
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


def reference_serialize_tour(
    board: Board, kind: TourKind, vertices: list[Vertex] | tuple[Vertex, ...]
) -> str:
    """The per-line tour writer, one formatted line per vertex."""
    lines = [f"board: {serialize_board_text(board)}kind: {kind.value}"]
    lines.extend(format_vertex(v) for v in vertices)
    return "\n".join(lines) + "\n"


def reference_double(vertices: tuple[Vertex, ...], axes: tuple[int, ...]) -> tuple[Vertex, ...]:
    """One doubling step on vertex tuples: the tour on the 0-face, then its
    reversal with the mask's axes flipped on the 1-face."""

    def flip(v: Vertex) -> Vertex:
        w = list(v)
        for a in axes:
            w[a] = 1 - w[a]
        return tuple(w)

    mirrored = [flip(v) + (1,) for v in reversed(vertices)]
    return tuple([v + (0,) for v in vertices] + mirrored)


def reference_prunable(
    masks: list[int],
    full: int,
    dark_mask: int,
    visited: int,
    head: int,
    ends: tuple[int, int] | None,
    parent: tuple[int, int] | None,
) -> tuple[int, int] | None:
    """The prune check with its breadth-first reach search first, kept as an
    oracle for `search._prunable`: same arguments, verdict and state."""
    rest = full & ~visited
    if rest == 0:
        return 0, 0
    head_dark = bool(dark_mask >> head & 1)
    if ends is None:
        start = None
        if _alternation_bound(dark_mask, rest, head_dark) < rest.bit_count():
            return None
    else:
        start, second = ends
        late = masks[start] & rest & -(1 << (second + 1))
        if not late:
            return None
        cells = rest | (1 << start)
        if _alternation_bound(dark_mask, cells, head_dark) < rest.bit_count() + 1:
            return None
    if parent is None:
        scan = rest
        tight = 0
    else:
        p, tight = parent
        scan = masks[p] & rest
        tight &= rest
    # breadth-first from head inside rest, until it has reached all of scan
    unseen = rest
    frontier = 1 << head
    while scan & unseen:
        frontier = _spread(masks, frontier) & unseen
        if not frontier:
            return None
        unseen ^= frontier
    anchor = rest | (1 << head)
    if start is not None:
        anchor |= 1 << start
    fresh = 0
    for u in _bits(scan):
        degree = (masks[u] & anchor).bit_count()
        if degree < 2:
            if start is not None or degree == 0:
                return None
            tight |= 1 << u
            if tight & (tight - 1):
                return None
        elif degree == 2 and start is not None:
            fresh |= 1 << u
    if start is None:
        return tight, 0
    tight |= fresh
    for u in _bits(_spread(masks, fresh) & rest):
        if (masks[u] & tight).bit_count() > 2:
            return None
    last = masks[start] & tight
    if head == start:
        return None if last.bit_count() > 2 else (tight, 0)
    lone = masks[head] & tight
    if lone & (lone - 1) or last & (last - 1) or last & ~late:
        return None
    return tight, lone
