"""Tour search: backtracking with sound pruning, plus exhaustive proofs.

One driver, `_dfs`, walks the knight graph with an explicit stack (depth can
reach the full vertex count), tracking visited cells as a bitmask over
mixed-radix vertex indices.  Index order equals lexicographic order, so
"smallest index first" is the lexicographic tie-break everywhere.  Tour
search and the exact longest path differ only in the starts and the two
callbacks they hand it: which successors to try below a path, and what a
new path means.

A search splits its work into root branches, one per start vertex: a closed
search, and an open search from a given start, has one.  `_dfs` alone loops
over them, in order, and stops at the first branch that does not exhaust;
which starts a search walks is one argument.  One node budget is spent
across the branches, and a spent budget is a status that `_dfs` returns,
not an exception.  Every outcome, tour, proof or longest path, leaves
through `_outcome`, which re-verifies its tour with `tour._checked`.

An open search given no start, and the longest-path sweep, walk one start
per symmetry orbit (`_orbit_least`).  Reflecting an axis, or swapping two
axes of equal side, maps knight moves to knight moves, so a path from one
start gives a path from every cell of its orbit.  The starts run in
increasing index order and every branch is exhaustive, so the first start
that yields a tour, or a longest path, is the least of its orbit: skipping
the others changes no verdict and no path, only the node count.

A path through every cell is an open tour.  So unless a seed walk already
meets the colour cap, `longest_path` asks the open-tour search, whose cuts
are far stronger than its own bound, for a path through every cell before
its branch-and-bound sweep, on the same node budget.  A found tour is the
answer; an exhausted search lowers the cap to n - 1, and the sweep stops at
the first path that meets the cap.

Pruning only cuts branches that provably cannot finish, and each cut has a
witness a checker can test on its own:

  * some unvisited vertex is unreachable from the path head (witness: that
    vertex),
  * too many unvisited vertices are down to <= 1 usable connection: an open
    tour tolerates one such vertex, the final one, a closed tour none
    (witness: the vertices), or
  * the dark/light split of the unvisited vertices cannot alternate long
    enough to cover them all, since every knight move switches color
    (witness: the two counts).

An exhausted search is therefore a nonexistence proof.  Closed-tour searches
fix the start vertex and keep only the traversal direction whose second
vertex is lexicographically smaller than its last, which halves the cycle
space without losing any cycle.  What remains of a closed tour below a node
is a path from the head through every unvisited vertex to the start.  An
unvisited vertex with exactly two usable neighbours (among the unvisited
vertices, the head and the start) must use both edges: it is forced.  So a
closed search also cuts when

  * no unvisited neighbour of the start lies above the second vertex, so no
    last vertex can close the cycle in the kept direction; at the root any
    unvisited neighbour will do (witness: the start and the second vertex),
  * the head has two forced neighbours, though it has one edge left
    (witness: the head and the two),
  * the start has two forced neighbours, three at the root where it has two
    edges left (witness: the start and its forced neighbours),
  * an unvisited vertex has three forced neighbours (witness: that vertex
    and the three), or
  * the start's one forced neighbour, which must be the last vertex, lies
    below the second vertex (witness: the start, that neighbour and the
    second vertex).

A head with exactly one forced neighbour has no other successor to try.

The reachability, degree and forced-edge checks are incremental.  A step
from head p to head h takes only p out of the graph, so a node whose parent
passed its checks re-examines only p's unvisited neighbours (their degrees,
and whether h still reaches them all), carries the parent's weak or forced
vertices forward, and counts forced neighbours only next to newly forced
vertices.  No degree is recounted: a search keeps each cell's count of
neighbours among the unvisited cells and the head.  A node that passes its
checks lists the head's unvisited neighbours, lowers their counts and pushes
the list; its children scan that list, and after the last child its undo,
`_restoring`, pops it and raises the counts.  So a branch that exhausts
leaves the counts at the full degrees for the next one.  The same counts
order the successors by Warnsdorff's rule, fewest onward moves first.  The
scan of p's neighbours also finds the ones h reaches in two steps; a
breadth-first search runs only for the others.  The verdicts equal those of
a full rescan, which the root makes: its parent's list holds every cell.
"""

from __future__ import annotations

import operator
import random
from collections.abc import Callable, Iterable, Iterator
from enum import Enum
from itertools import islice

from .board import Board, Vertex, _bits, _integers, _reachable, _Record, _spread
from .feasibility import closed_tour_necessary, color_counts, open_tour_necessary
from .tour import Tour, TourKind, _checked


class SearchStatus(Enum):
    FOUND = "found"
    EXHAUSTED_NONE = "exhausted_none"
    BUDGET_EXCEEDED = "budget_exceeded"


class SearchConfig(_Record):
    """Solver parameters.

    With deterministic=True the found tour, the node count and the depth are
    identical across runs.
    use_feasibility_precheck=False forces a full search even when the
    necessary-condition scan could short-circuit.

    node_budget and parallel_width must be integers, as sides must.
    node_budget bounds path-push operations.  One budget is spent across all
    root branches, in order, so a budget_exceeded outcome has expanded
    exactly node_budget + 1 nodes.  parallel_width (>= 0) has no effect:
    every search runs its root branches in-process, one after another.  It
    stays only while the benchmark's jobs pass it, and goes once they stop.
    """

    def __init__(
        self,
        target: TourKind = TourKind.OPEN,
        start: Vertex | None = None,
        use_warnsdorff: bool = True,
        node_budget: int | None = None,
        deterministic: bool = True,
        parallel_width: int = 0,
        use_feasibility_precheck: bool = True,
    ) -> None:
        super().__init__(
            target, start, use_warnsdorff, node_budget, deterministic, parallel_width,
            use_feasibility_precheck,
        )


class SearchOutcome(_Record):
    def __init__(
        self, status: SearchStatus, tour: Tour | None, nodes_expanded: int, max_depth_reached: int
    ) -> None:
        super().__init__(status, tour, nodes_expanded, max_depth_reached)


class _Counters:
    __slots__ = ("nodes", "max_depth", "budget")

    def __init__(self, budget: int | None) -> None:
        if budget is not None and _integers((budget,), "node_budget")[0] < 1:
            raise ValueError("node_budget must be positive")
        self.nodes = 0
        self.max_depth = 0
        self.budget = budget

    def spend(self, depth: int) -> bool:
        self.nodes += 1
        if depth > self.max_depth:
            self.max_depth = depth
        return self.budget is None or self.nodes <= self.budget


def _alternation_bound(dark_mask: int, cells: int, head_dark: bool) -> int:
    """Max alternating-walk length over cells, starting opposite the head color."""
    dark = (cells & dark_mask).bit_count()
    light = cells.bit_count() - dark
    opposite, same = (light, dark) if head_dark else (dark, light)
    if opposite > same:
        return 2 * same + 1
    return 2 * opposite


def _prunable(
    masks: list[int],
    full: int,
    dark_mask: int,
    visited: int,
    head: int,
    ends: tuple[int, int] | None,
    onward: list[int],
    beside: bytes,
    parent: tuple[int, list[int]],
) -> tuple[int, int] | None:
    """None if no completion can exist below this node (sound, never lossy).

    Otherwise the node's state (tight, lone).  tight holds the unvisited cells
    at their degree limit: down to one usable neighbour for open targets (at
    most one, the final vertex), down to exactly two for closed targets (both
    edges forced).  lone is the head's one forced neighbour as a bit mask, or
    0.  ends is None for open targets; for closed targets it is (start,
    second), second being the path's second vertex, or -1 at the root.
    A cell's usable neighbours number onward[u] + beside[u]: onward counts
    those among the unvisited cells and the head, beside is 1 for a cell next
    to a closed tour's start that is not the head, else 0.  Only the counts of
    the cells examined are read.  parent is the previous node's (tight mask,
    list of the previous head's unvisited neighbours, the head among them),
    that node having passed this check; the root's parent is (0, every
    cell).  Only the cells of that list, and the cells next to newly forced
    ones, are examined, which gives the verdict and state of a full rescan.
    """
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
        # the last vertex comes from rest, closes onto start and, by the
        # direction rule, lies above the second vertex
        late = masks[start] & rest & -(1 << (second + 1))
        if not late:
            return None
        cells = rest | (1 << start)
        if _alternation_bound(dark_mask, cells, head_dark) < rest.bit_count() + 1:
            return None
    # Stepping from p to head takes p out of the usable cells (unless p is
    # the closed-tour start), so only p's neighbours can lose degree.  p
    # reached all of rest | head, so each component of rest | head holds a
    # neighbour of p: it is connected once head reaches them all.  The
    # root's list holds every cell, so there the scan is a full one.
    tight, scan = parent
    tight &= rest
    # head reaches a cell of rest in two steps inside rest when the cell is
    # in near or next to it; far collects the scan cells it may not
    near = masks[head] & rest
    far = fresh = 0
    for u in scan:
        if u == head:
            continue
        degree = onward[u] + beside[u]
        if degree < 2:
            if start is not None or degree == 0:
                return None
            tight |= 1 << u
            if tight & (tight - 1):
                return None
        elif degree == 2 and start is not None:
            # the rest of a closed tour is a path head -> rest -> start, so
            # both edges of this cell are forced
            fresh |= 1 << u
        if not masks[u] & near:
            far |= 1 << u
    far &= ~near
    # breadth-first on from near inside rest, until it has reached all of far
    unseen = rest ^ near
    frontier = near
    while far & unseen:
        frontier = _spread(masks, frontier) & unseen
        if not frontier:
            return None
        unseen ^= frontier
    if start is None:
        return tight, 0
    tight |= fresh
    # a cell of rest takes two edges, so three forced ones are too many; only
    # the cells next to newly forced ones can have gained one
    for u in _bits(_spread(masks, fresh) & rest):
        if (masks[u] & tight).bit_count() > 2:
            return None
    last = masks[start] & tight
    if head == start:
        # the root: start takes two edges, to the second and the last vertex
        return None if last.bit_count() > 2 else (tight, 0)
    # head and start take one edge each, and a forced neighbour of start is
    # the last vertex, so it must lie above the second
    lone = masks[head] & tight
    if lone & (lone - 1) or last & (last - 1) or last & ~late:
        return None
    return tight, lone


def _dfs(
    starts: Iterable[int],
    expand: Callable[[list[int], int], Iterable[int]],
    accept: Callable[[list[int]], bool],
    counters: _Counters,
) -> tuple[SearchStatus, list[int] | None]:
    """Depth-first walk of the simple paths from each start in turn; the one search loop.

    The starts are the successors of an empty path, so every root branch is
    walked by the same loop.  expand(path, visited) gives the successors to
    try below the path's head in order (none cuts the branch) and is called
    for every node, each root included; accept(path) runs after every push,
    each charged to counters.  Returns (FOUND, path) once accept is True, or
    (BUDGET_EXCEEDED, None) at the push that exceeds the budget: a spent
    budget is a status, not an exception.  Otherwise, once every start is
    walked, (EXHAUSTED_NONE, None).  An expansion's iterator runs on after
    its last successor only when the walk below it exhausts.
    """
    path: list[int] = []
    visited = 0
    stack = [iter(starts)]
    while stack:
        nxt = next(stack[-1], None)
        if nxt is None:
            stack.pop()
            if path:
                visited &= ~(1 << path.pop())
            continue
        visited |= 1 << nxt
        path.append(nxt)
        if not counters.spend(len(path)):
            return SearchStatus.BUDGET_EXCEEDED, None
        if accept(path):
            return SearchStatus.FOUND, path
        stack.append(iter(expand(path, visited)))
    return SearchStatus.EXHAUSTED_NONE, None


def _restoring(
    order: Iterable[int], cells: list[int], onward: list[int], levels: list
) -> Iterator[int]:
    """Yield order, then undo a node's expansion: pop its level, raise its cells' counts."""
    yield from order
    levels.pop()
    for u in cells:
        onward[u] += 1


def _orbit_least(board: Board, starts: Iterable[int]) -> Iterator[int]:
    """The starts, increasing indices, that are least in their orbit under the box's symmetries.

    The group is generated by each axis reflection x_a -> s_a - 1 - x_a and by
    each swap of two consecutive axes of equal side.  Index order is
    lexicographic, so a cell is least in its orbit exactly when 2 * x_a < s_a
    on every axis and x_a <= x_b for each such pair of axes a < b.  Unless
    every generator maps the holes onto themselves, every start is yielded.
    Each start is read off `board._cells()`, already in index order, when it
    is reached, so a search that finds its tour from the first start tests
    one.  Each generator keeps the colour of every cell or swaps it, and one
    that swaps makes the colour counts equal; so where the counts differ, as
    under the majority-colour rule, each orbit has cells of one colour.
    """
    sides = board.sides
    pairs = [a for a in range(len(sides) - 1) if sides[a] == sides[a + 1]]
    holes = board.holes
    if holes and (
        any({h[:a] + (s - 1 - h[a],) + h[a + 1:] for h in holes} != holes
            for a, s in enumerate(sides))
        or any({h[:a] + (h[a + 1], h[a]) + h[a + 2:] for h in holes} != holes for a in pairs)
    ):
        yield from starts
        return
    limits = [(s + 1) // 2 for s in sides]  # x < (s + 1) // 2 exactly when 2 * x < s
    cells = board._cells()
    at = 0
    for i in starts:
        v = next(islice(cells, i - at, None))
        at = i + 1
        if all(map(operator.lt, v, limits)) and all(v[a] <= v[a + 1] for a in pairs):
            yield i


def _outcome(
    board: Board, kind: TourKind, status: SearchStatus, path: list[int] | None,
    nodes: int, depth: int,
) -> SearchOutcome:
    """The one exit of every search: its index path, if any, becomes a verified tour."""
    tour = None if path is None else _checked(Tour(board, kind, board._vertices_at(path)))
    return SearchOutcome(status, tour, nodes, depth)


def find_tour(board: Board, config: SearchConfig | None = None) -> SearchOutcome:
    """Search for an open or closed tour on the board.

    With start=None, open searches try every (majority-color) start vertex
    that is least in its symmetry orbit, see `_orbit_least`, and closed
    searches fix the lexicographically smallest vertex; an
    explicit start restricts open searches to tours from that vertex and
    fixes it as a closed search's start vertex.  Every found tour is
    re-verified before being returned.
    """
    config = config or SearchConfig()
    if not isinstance(config.target, TourKind):
        raise ValueError(f"search target must be a TourKind, not {config.target!r}")
    if config.target not in (TourKind.OPEN, TourKind.CLOSED):
        raise ValueError(f"search targets open or closed tours, not {config.target.value}")
    counters = _Counters(config.node_budget)
    if _integers((config.parallel_width,), "parallel_width")[0] < 0:
        raise ValueError("parallel_width must be >= 0")
    if board.vertex_count < 1:
        raise ValueError("board has no vertices")
    start = None if config.start is None else board.index(board._require_vertex(config.start))
    status, path = _tour_search(board, config, start, counters)
    return _outcome(board, config.target, status, path, counters.nodes, counters.max_depth)


def _tour_search(
    board: Board, config: SearchConfig, start: int | None, counters: _Counters
) -> tuple[SearchStatus, list[int] | None]:
    """The tour search of a validated config, from start (an index) or every start.

    Charges its nodes to counters and returns (status, index path), the path
    None unless the status is FOUND.
    """
    closed = config.target is TourKind.CLOSED
    if config.use_feasibility_precheck:
        verdict = closed_tour_necessary(board) if closed else open_tour_necessary(board)
        if not verdict.feasible:
            return SearchStatus.EXHAUSTED_NONE, None

    _, masks, full = board._index_graph()
    dark_mask = board._dark_mask()
    every = list(_bits(full))
    if start is not None:
        starts = [start]
    elif closed:
        starts = every[:1]
    else:
        starts = every
        dark, light = color_counts(board)
        if abs(dark - light) == 1:
            # any open tour must start and end on the majority color
            starts = list(_bits(dark_mask if dark > light else full & ~dark_mask))
        starts = _orbit_least(board, starts)

    rng = None if config.deterministic else random.Random()
    n = len(every)
    # onward[u] counts u's neighbours among the unvisited cells and the head.
    # A closed tour's start stays usable to the end: once the root passes,
    # beside marks its neighbours
    onward = [m.bit_count() for m in masks]
    beside = bytearray(len(masks))
    # (0, every cell) for the root's check, then (tight mask, unvisited
    # neighbours) per expansion in progress: a check reads the last entry,
    # and an entry's neighbours keep their counts lowered while it stands
    levels: list[tuple[int, list[int]]] = [(0, every)]

    def expand(path: list[int], visited: int) -> Iterable[int]:
        head = path[-1]
        # a closed search's ends are (start, second vertex), -1 at the root
        ends = (path[0], path[1] if len(path) > 1 else -1) if closed else None
        state = _prunable(masks, full, dark_mask, visited, head, ends, onward, beside, levels[-1])
        if state is None:
            return ()
        tight, lone = state
        # below this node the head is visited, so its neighbours lose it
        cells = list(_bits(masks[head] & ~visited))
        for u in cells:
            onward[u] -= 1
        if closed and len(path) == 1:
            for u in cells:
                beside[u] = 1
        levels.append((tight, cells))
        if lone:
            return _restoring((lone.bit_length() - 1,), cells, onward, levels)
        # reordering cells in place leaves the children's scan verdicts as they are
        if rng is not None:
            rng.shuffle(cells)
        if config.use_warnsdorff:
            # fewest onward moves first (Warnsdorff's rule), ties in order
            cells.sort(key=onward.__getitem__)
        return _restoring(cells, cells, onward, levels)

    def accept(path: list[int]) -> bool:
        if len(path) < n:
            return False
        # closing link plus direction rule: second < last
        return not closed or bool(masks[path[-1]] >> path[0] & 1) and path[1] < path[-1]

    return _dfs(starts, expand, accept, counters)


def prove_nonexistence(
    board: Board,
    target: TourKind,
    node_budget: int | None = None,
    use_feasibility_precheck: bool = True,
) -> SearchOutcome:
    """Exhaustively search for a tour; exhausted_none proves nonexistence.

    Open targets try one start vertex per symmetry orbit (modulo the
    majority-color rule), closed targets one; only the node budget bounds
    the work.  A tour from a skipped start would map onto one from the
    least start of its orbit, so the proof covers every start.
    """
    config = SearchConfig(
        target=target,
        node_budget=node_budget,
        use_feasibility_precheck=use_feasibility_precheck,
    )
    return find_tour(board, config)


def longest_path(board: Board, node_budget: int | None = None) -> SearchOutcome:
    """Exact maximum-length legal path (distinct vertices, legal links).

    No path is longer than the cap: the vertex count, or one more than twice
    the minority color's count, since every link switches color.  Greedy
    seed walks set the first best path; they are not counted against the
    budget, start from at most node_budget cells and stop at the first walk
    that meets the cap.  If the cap is the vertex count and no walk meets
    it, the open-tour search (precheck on) decides whether a path through
    every vertex exists: a found tour is the answer, an exhausted search
    lowers the cap by one.  Then, unless the best path meets the cap, a
    branch-and-bound sweep over one start vertex per symmetry orbit runs
    until a path meets the cap or every such start exhausts; its bound is
    the count of still-reachable vertices refined by color alternation, so
    pruned branches provably cannot beat the incumbent, and a longest path
    from a skipped start maps onto one from the least start of its orbit.
    One node budget covers the tour search and the sweep.  With a binding
    budget the best path found so far is returned with status
    budget_exceeded.
    """
    counters = _Counters(node_budget)
    if board.vertex_count < 1:
        raise ValueError("board has no vertices")
    _, masks, full = board._index_graph()
    n = board.vertex_count
    dark_mask = board._dark_mask()

    # every link switches colour, so no path holds more than one cell beyond
    # twice the minority colour's
    dark = dark_mask.bit_count()
    cap = min(n, 2 * min(dark, n - dark) + 1)
    best: list[int] = []
    # islice(..., None) walks from every start
    for s in islice(_bits(full), node_budget):
        walk = _greedy_walk(masks, full, s)
        if len(walk) > len(best):
            best = walk
            if len(best) == cap:
                break

    def expand(path: list[int], visited: int) -> list[int]:
        head = path[-1]
        rest = full & ~visited
        reach_rest = _reachable(masks, head, rest) & rest
        bound = min(
            reach_rest.bit_count(),
            _alternation_bound(dark_mask, reach_rest, bool(dark_mask >> head & 1)),
        )
        if visited.bit_count() + bound <= len(best):
            return []
        return list(_bits(masks[head] & ~visited))

    def accept(path: list[int]) -> bool:
        if len(path) <= len(best):
            return False
        best[:] = path
        return len(best) == cap

    status = SearchStatus.EXHAUSTED_NONE
    if len(best) < cap == n:
        # a path through every cell is an open tour, and the tour search's
        # cuts find one, or prove there is none, in far fewer nodes
        status, path = _tour_search(board, SearchConfig(), None, counters)
        if status is SearchStatus.FOUND:
            best = path
        elif status is SearchStatus.EXHAUSTED_NONE:
            cap = n - 1
    if status is SearchStatus.EXHAUSTED_NONE and len(best) < cap:
        status, _ = _dfs(_orbit_least(board, _bits(full)), expand, accept, counters)
    if status is not SearchStatus.BUDGET_EXCEEDED:
        # a path meets the proven cap, or every start exhausted: best is longest
        status = SearchStatus.FOUND
    return _outcome(board, TourKind.PATH, status, best, counters.nodes, len(best))


def _greedy_walk(masks: list[int], full: int, start: int) -> list[int]:
    """Fewest-onward-moves walk from start; ties go to the smaller index."""
    path = [start]
    rest = full ^ (1 << start)
    while step := masks[path[-1]] & rest:
        head = min(_bits(step), key=lambda s: (masks[s] & rest).bit_count())
        rest ^= 1 << head
        path.append(head)
    return path
