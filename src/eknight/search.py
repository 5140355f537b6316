"""Tour search: backtracking with sound pruning, plus exhaustive proofs.

The solver walks the knight graph with an explicit stack (depth can reach the
full vertex count), tracking visited cells as a bitmask over mixed-radix
vertex indices.  Index order equals lexicographic order, so "smallest index
first" is the lexicographic tie-break everywhere.

Pruning only cuts branches that provably cannot finish:

  * some unvisited vertex is unreachable from the path head,
  * too many unvisited vertices are down to <= 1 usable connection
    (an open tour tolerates one such vertex, the final one; a closed tour
    tolerates none), or
  * the dark/light split of the unvisited vertices cannot alternate long
    enough to cover them all (every knight move switches color).

An exhausted search is therefore a nonexistence proof.  Closed-tour searches
fix the start vertex and keep only the traversal direction whose second
vertex is lexicographically smaller than its last, which halves the cycle
space without losing any cycle.
"""

from __future__ import annotations

import multiprocessing
import random
from dataclasses import dataclass
from enum import Enum

from .board import Board, Vertex, _bits, _reachable
from .feasibility import closed_tour_necessary, color_counts, open_tour_necessary
from .tour import Tour, TourKind


class SearchStatus(Enum):
    FOUND = "found"
    EXHAUSTED_NONE = "exhausted_none"
    BUDGET_EXCEEDED = "budget_exceeded"


@dataclass(frozen=True)
class SearchConfig:
    """Solver parameters.

    With deterministic=True the found tour is independent of parallel_width
    and identical across runs; node statistics may still vary with
    parallelism.  node_budget bounds path-push operations; budgeted
    deterministic runs execute sequentially so the budget semantics stay
    exact.  use_feasibility_precheck=False forces a full search even when the
    necessary-condition scan could short-circuit.
    """

    target: TourKind = TourKind.OPEN
    start: Vertex | None = None
    use_warnsdorff: bool = True
    node_budget: int | None = None
    deterministic: bool = True
    parallel_width: int = 0
    use_feasibility_precheck: bool = True


@dataclass(frozen=True)
class SearchOutcome:
    status: SearchStatus
    tour: Tour | None
    nodes_expanded: int
    max_depth_reached: int


class _BudgetExceeded(Exception):
    pass


class _Counters:
    __slots__ = ("nodes", "max_depth", "budget")

    def __init__(self, budget: int | None) -> None:
        self.nodes = 0
        self.max_depth = 0
        self.budget = budget

    def spend(self, depth: int) -> None:
        self.nodes += 1
        if depth > self.max_depth:
            self.max_depth = depth
        if self.budget is not None and self.nodes > self.budget:
            raise _BudgetExceeded


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
    start: int | None,
) -> bool:
    """True if no completion can exist below this node (sound, never lossy).

    start is the cycle anchor for closed targets, None for open targets.
    """
    rest = full & ~visited
    if rest == 0:
        return False
    head_dark = bool(dark_mask >> head & 1)
    if start is None:
        if _alternation_bound(dark_mask, rest, head_dark) < rest.bit_count():
            return True
    else:
        cells = rest | (1 << start)
        if _alternation_bound(dark_mask, cells, head_dark) < rest.bit_count() + 1:
            return True
    reach = _reachable(masks, head, rest)
    if (reach & rest) != rest:
        return True
    anchor = rest | (1 << head)
    if start is not None:
        anchor |= 1 << start
    weak = 0
    for u in _bits(rest):
        degree = (masks[u] & anchor).bit_count()
        if degree < 2:
            if start is not None or degree == 0:
                return True
            weak += 1
            if weak > 1:
                return True
    return False


def _ordered_successors(
    masks: list[int],
    head: int,
    visited: int,
    use_warnsdorff: bool,
    rng: random.Random | None,
) -> list[int]:
    candidates = list(_bits(masks[head] & ~visited))
    if rng is not None:
        rng.shuffle(candidates)
    if use_warnsdorff:
        rest = ~visited
        candidates.sort(key=lambda s: (masks[s] & rest & ~(1 << s)).bit_count())
    return candidates


def _branch_dfs(
    graph: tuple[list[tuple[int, ...]], list[int], int],
    dark_mask: int,
    start: int,
    forced_first: int | None,
    n: int,
    closed: bool,
    use_warnsdorff: bool,
    rng: random.Random | None,
    counters: _Counters,
) -> list[int] | None:
    """Depth-first search of one root branch; returns a found path or None."""
    _, masks, full = graph
    anchor = start if closed else None
    path = [start]
    visited = 1 << start
    counters.spend(1)
    if n == 1:
        return None if closed else path

    def push(vertex: int) -> bool:
        nonlocal visited
        visited |= 1 << vertex
        path.append(vertex)
        counters.spend(len(path))
        if len(path) == n:
            if not closed:
                return True
            # closing link plus direction rule: second < last
            return bool(masks[path[-1]] & (1 << start)) and path[1] < path[-1]
        return False

    def viable(vertex: int) -> list[int]:
        if _prunable(masks, full, dark_mask, visited, vertex, anchor):
            return []
        pending = _ordered_successors(masks, vertex, visited, use_warnsdorff, rng)
        pending.reverse()
        return pending

    if forced_first is not None:
        if push(forced_first):
            return path
        stack = [viable(forced_first)]
    else:
        stack = [viable(start)]

    while stack:
        pending = stack[-1]
        if not pending:
            stack.pop()
            visited &= ~(1 << path.pop())
            continue
        nxt = pending.pop()
        if push(nxt):
            return path
        stack.append(viable(nxt))
    return None


def _root_branches(board: Board, config: SearchConfig, split_first_moves: bool):
    """Root branches as (start index, forced first index | None) pairs."""
    graph = board._index_graph()
    _, masks, full = graph
    closed = config.target is TourKind.CLOSED
    if config.start is not None:
        start_vertices = [board._require_vertex(config.start)]
    elif closed:
        start_vertices = [next(iter(board.vertices()))]
    else:
        start_vertices = list(board.vertices())
        dark, light = color_counts(board)
        if abs(dark - light) == 1:
            # any open tour must start and end on the majority color
            majority = 0 if dark > light else 1
            start_vertices = [v for v in start_vertices if sum(v) % 2 == majority]
    starts = [board.index(v) for v in start_vertices]
    if closed and split_first_moves:
        s = starts[0]
        rng = None if config.deterministic else random.Random()
        order = _ordered_successors(masks, s, 1 << s, config.use_warnsdorff, rng)
        return graph, [(s, f) for f in order]
    return graph, [(s, None) for s in starts]


# The run constants of a parallel search, set once per worker process by
# _init_worker: (graph, dark mask, n, closed, use_warnsdorff, deterministic,
# node budget).  Fork-started workers inherit them without pickling.
_worker_run: tuple = ()


def _init_worker(*run) -> None:
    global _worker_run
    _worker_run = run


def _branch_worker(branch: tuple[int, int | None]) -> tuple[str, list[int] | None, int, int]:
    start, first = branch
    graph, dark_mask, n, closed, use_warnsdorff, deterministic, budget = _worker_run
    counters = _Counters(budget)
    rng = None if deterministic else random.Random()
    try:
        path = _branch_dfs(
            graph, dark_mask, start, first, n, closed, use_warnsdorff, rng, counters
        )
    except _BudgetExceeded:
        return ("budget", None, counters.nodes, counters.max_depth)
    return ("found" if path else "none", path, counters.nodes, counters.max_depth)


def find_tour(board: Board, config: SearchConfig | None = None) -> SearchOutcome:
    """Search for an open or closed tour on the board.

    With start=None, open searches try every (majority-color) start vertex
    and closed searches fix the lexicographically smallest vertex; an
    explicit start restricts open searches to tours from that vertex.  Every
    found tour is re-verified before being returned.
    """
    config = config or SearchConfig()
    if config.target not in (TourKind.OPEN, TourKind.CLOSED):
        raise ValueError(f"search targets open or closed tours, not {config.target.value}")
    if config.node_budget is not None and config.node_budget < 1:
        raise ValueError("node_budget must be positive")
    if config.parallel_width < 0:
        raise ValueError("parallel_width must be >= 0")
    if board.vertex_count < 1:
        raise ValueError("board has no vertices")
    if config.start is not None:
        board._require_vertex(tuple(config.start))

    closed = config.target is TourKind.CLOSED
    if config.use_feasibility_precheck:
        verdict = closed_tour_necessary(board) if closed else open_tour_necessary(board)
        if not verdict.feasible:
            return SearchOutcome(SearchStatus.EXHAUSTED_NONE, None, 0, 0)

    n = board.vertex_count
    sequential_budget = config.deterministic and config.node_budget is not None
    parallel = config.parallel_width > 0 and not sequential_budget
    graph, branches = _root_branches(board, config, split_first_moves=parallel)

    dark_mask = board._dark_mask()
    if parallel and len(branches) > 1:
        status, path, nodes, max_depth = _run_parallel(
            graph, dark_mask, config, branches, n, closed
        )
    else:
        status, path, nodes, max_depth = _run_sequential(
            graph, dark_mask, config, branches, n, closed
        )

    if path is None:
        return SearchOutcome(SearchStatus[status], None, nodes, max_depth)
    vertices = tuple(board.vertex_at(i) for i in path)
    tour = Tour(board, config.target, vertices)
    report = tour.report()
    if not report.valid:
        raise RuntimeError(
            f"internal error: search produced an invalid tour "
            f"({report.first_violation.description})"
        )
    return SearchOutcome(SearchStatus.FOUND, tour, nodes, max_depth)


def _run_sequential(graph, dark_mask, config, branches, n, closed):
    counters = _Counters(config.node_budget)
    rng = None if config.deterministic else random.Random()
    try:
        for start, first in branches:
            path = _branch_dfs(
                graph,
                dark_mask,
                start,
                first,
                n,
                closed,
                config.use_warnsdorff,
                rng,
                counters,
            )
            if path is not None:
                return ("FOUND", path, counters.nodes, counters.max_depth)
    except _BudgetExceeded:
        return ("BUDGET_EXCEEDED", None, counters.nodes, counters.max_depth)
    return ("EXHAUSTED_NONE", None, counters.nodes, counters.max_depth)


def _run_parallel(graph, dark_mask, config, branches, n, closed):
    """Root-split search over worker processes.

    Each worker receives the graph and the run constants once, through the
    pool initializer; a task is just its (start, first) branch.
    Deterministic mode consumes branch results in branch order and stops at
    the first tour, which matches the sequential traversal exactly; workers
    still grinding on later branches are terminated.  Non-deterministic mode
    takes whichever tour finishes first.
    """
    run = (
        graph,
        dark_mask,
        n,
        closed,
        config.use_warnsdorff,
        config.deterministic,
        config.node_budget,
    )
    nodes = 0
    max_depth = 0
    budget_hit = False
    pool = multiprocessing.get_context("fork").Pool(
        processes=config.parallel_width, initializer=_init_worker, initargs=run
    )
    try:
        if config.deterministic:
            results = iter([pool.apply_async(_branch_worker, (b,)) for b in branches])
            results = (r.get() for r in results)
        else:
            results = pool.imap_unordered(_branch_worker, branches)
        for status, path, branch_nodes, branch_depth in results:
            nodes += branch_nodes
            max_depth = max(max_depth, branch_depth)
            if status == "found":
                return ("FOUND", path, nodes, max_depth)
            if status == "budget":
                budget_hit = True
    finally:
        pool.terminate()
        pool.join()
    if budget_hit:
        return ("BUDGET_EXCEEDED", None, nodes, max_depth)
    return ("EXHAUSTED_NONE", None, nodes, max_depth)


def prove_nonexistence(
    board: Board,
    target: TourKind,
    node_budget: int | None = None,
    use_feasibility_precheck: bool = True,
) -> SearchOutcome:
    """Exhaustively search for a tour; exhausted_none proves nonexistence.

    Open targets try every start vertex (modulo the majority-color rule),
    closed targets one; only the node budget bounds the work.
    """
    config = SearchConfig(
        target=target,
        node_budget=node_budget,
        use_feasibility_precheck=use_feasibility_precheck,
    )
    return find_tour(board, config)


def longest_path(board: Board, node_budget: int | None = None) -> SearchOutcome:
    """Exact maximum-length legal path (distinct vertices, legal links).

    Exhausts a branch-and-bound sweep over every start vertex; the bound is
    the count of still-reachable vertices refined by color alternation, so
    pruned branches provably cannot beat the incumbent.  Greedy seed walks
    raise the pruning floor first and are not counted against the budget.
    With a binding budget the best path found so far is returned with status
    budget_exceeded.
    """
    if board.vertex_count < 1:
        raise ValueError("board has no vertices")
    graph = board._index_graph()
    _, masks, full = graph
    n = board.vertex_count
    dark_mask = board._dark_mask()

    best: list[int] = []
    for s in _bits(full):
        walk = _greedy_walk(masks, s)
        if len(walk) > len(best):
            best = walk
            if len(best) == n:
                break

    counters = _Counters(node_budget)
    status = SearchStatus.FOUND
    if len(best) < n:
        try:
            for s in _bits(full):
                found_full = _longest_from(masks, full, dark_mask, s, n, best, counters)
                if found_full:
                    break
        except _BudgetExceeded:
            status = SearchStatus.BUDGET_EXCEEDED

    vertices = tuple(board.vertex_at(i) for i in best)
    tour = Tour(board, TourKind.PATH, vertices)
    report = tour.report()
    if not report.valid:
        raise RuntimeError("internal error: longest_path produced an illegal path")
    return SearchOutcome(status, tour, counters.nodes, len(best))


def _greedy_walk(masks: list[int], start: int) -> list[int]:
    """Fewest-onward-moves walk from start; deterministic tie-breaks."""
    path = [start]
    visited = 1 << start
    head = start
    while True:
        candidates = list(_bits(masks[head] & ~visited))
        if not candidates:
            return path
        rest = ~visited
        head = min(
            candidates, key=lambda s: ((masks[s] & rest & ~(1 << s)).bit_count(), s)
        )
        visited |= 1 << head
        path.append(head)


def _longest_from(
    masks: list[int],
    full: int,
    dark_mask: int,
    start: int,
    n: int,
    best: list[int],
    counters: _Counters,
) -> bool:
    """Sweep all paths from start, updating best in place; True if best hits n."""
    path = [start]
    visited = 1 << start
    counters.spend(1)
    if len(path) > len(best):
        best[:] = path

    def viable(head: int) -> list[int]:
        rest = full & ~visited
        reach_rest = _reachable(masks, head, rest) & rest
        bound = min(
            reach_rest.bit_count(),
            _alternation_bound(dark_mask, reach_rest, bool(dark_mask >> head & 1)),
        )
        if len(path) + bound <= len(best):
            return []
        pending = list(_bits(masks[head] & ~visited))
        pending.reverse()
        return pending

    stack = [viable(start)]
    while stack:
        pending = stack[-1]
        if not pending:
            stack.pop()
            visited &= ~(1 << path.pop())
            continue
        nxt = pending.pop()
        visited |= 1 << nxt
        path.append(nxt)
        counters.spend(len(path))
        if len(path) > len(best):
            best[:] = path.copy()
            if len(best) == n:
                return True
        stack.append(viable(nxt))
    return False
