import collections
import gc
import hashlib
import inspect
import itertools
import math
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import eknight.search
from eknight.board import Board, _bits
from eknight.feasibility import classical_closed_tour_condition, color_counts
from eknight.search import (
    SearchConfig,
    SearchOutcome,
    SearchStatus,
    find_tour,
    longest_path,
    prove_nonexistence,
)
from eknight.tour import MoveKind, TourKind, classify_move

from bruteforce import random_board, reference_prunable, tour_exists, tour_exists_permutations


def test_finds_closed_tour_on_holed_3x3():
    outcome = find_tour(Board([3, 3], holes=[(1, 1)]), SearchConfig(target=TourKind.CLOSED))
    assert outcome.status is SearchStatus.FOUND
    assert outcome.tour.report().valid
    assert len(outcome.tour.vertices) == 8


def test_feasibility_precheck_short_circuits():
    outcome = find_tour(Board([3] * 4), SearchConfig(target=TourKind.OPEN))
    assert outcome.status is SearchStatus.EXHAUSTED_NONE
    assert outcome.nodes_expanded == 0


def test_finds_closed_tour_on_six_cube():
    outcome = find_tour(Board([2] * 6), SearchConfig(target=TourKind.CLOSED))
    assert outcome.status is SearchStatus.FOUND
    assert len(outcome.tour.vertices) == 64
    assert outcome.tour.report().valid


def test_prove_nonexistence_examples():
    assert (
        prove_nonexistence(Board([3, 3, 3], holes=[(1, 1, 1)]), TourKind.OPEN).status
        is SearchStatus.EXHAUSTED_NONE
    )
    assert (
        prove_nonexistence(Board([2] * 5), TourKind.OPEN).status
        is SearchStatus.EXHAUSTED_NONE
    )
    # full 3x3: the center cell is unreachable for the planar knight
    assert (
        prove_nonexistence(Board([3, 3]), TourKind.OPEN).status
        is SearchStatus.EXHAUSTED_NONE
    )


def test_prove_nonexistence_without_precheck():
    for board in (Board([3, 3]), Board([3, 3, 3]), Board([2] * 5)):
        outcome = prove_nonexistence(board, TourKind.OPEN, use_feasibility_precheck=False)
        assert outcome.status is SearchStatus.EXHAUSTED_NONE
        assert outcome.nodes_expanded > 0


def test_longest_path_examples():
    outcome = longest_path(Board([3, 3, 3], holes=[(1, 1, 1)]))
    assert outcome.status is SearchStatus.FOUND
    assert outcome.max_depth_reached == 25
    assert outcome.tour.link_count == 24
    assert outcome.tour.report().valid

    outcome = longest_path(Board([2] * 5))
    assert outcome.max_depth_reached == 2

    outcome = longest_path(Board([1, 1, 1]))
    assert outcome.max_depth_reached == 1
    assert outcome.tour.link_count == 0

    with pytest.raises(ValueError, match="^board has no vertices$"):
        longest_path(Board([2, 1], holes=[(0, 0), (1, 0)]))


def test_longest_path_full_board_hits_vertex_count():
    outcome = longest_path(Board([3, 3], holes=[(1, 1)]))
    assert outcome.max_depth_reached == 8


def test_the_tour_search_finds_a_full_path_no_greedy_seed_found():
    # every greedy seed walk falls short, so the open-tour search finds the
    # full path, and the branch-and-bound sweep (34,248 nodes) never runs
    board = Board([5, 6], holes=[(0, 1), (1, 0), (2, 0), (2, 1), (4, 4)])
    _, masks, full = board._index_graph()
    assert all(len(eknight.search._greedy_walk(masks, full, s)) < 25 for s in _bits(full))
    outcome = longest_path(board)
    assert (outcome.status, outcome.nodes_expanded, outcome.max_depth_reached) == (
        SearchStatus.FOUND, 115, 25
    )
    assert len(outcome.tour.vertices) == board.vertex_count == 25


def test_greedy_seeding_stops_at_the_colour_cap(monkeypatch):
    # two light cells less leave 3^5 with 2 * 119 + 1 = 239 as the longest
    # any path can be, since every link switches colour; the first seed walk
    # reaches it, so the other 240 starts are not walked, and the answer is
    # exact without a search
    walk = eknight.search._greedy_walk
    walks = []

    def counted(masks, full, start):
        walks.append(start)
        return walk(masks, full, start)

    monkeypatch.setattr(eknight.search, "_greedy_walk", counted)
    board = Board([3] * 5, holes=[(0, 0, 0, 0, 1), (0, 0, 0, 1, 0)])
    outcome = longest_path(board, node_budget=10)
    assert len(walks) == 1
    assert (outcome.status, outcome.nodes_expanded, outcome.max_depth_reached) == (
        SearchStatus.FOUND, 0, 239
    )


def test_greedy_seeding_walks_from_at_most_the_budget(monkeypatch):
    # no walk on 2x2x2x100 reaches its colour cap of 800, so without a bound
    # every one of the 800 starts would be walked
    walk = eknight.search._greedy_walk
    walks = []

    def counted(masks, full, start):
        walks.append(start)
        return walk(masks, full, start)

    monkeypatch.setattr(eknight.search, "_greedy_walk", counted)
    outcome = longest_path(Board([2, 2, 2, 100]), node_budget=10)
    assert len(walks) == 10
    assert (outcome.status, outcome.nodes_expanded, outcome.max_depth_reached) == (
        SearchStatus.BUDGET_EXCEEDED, 11, 200
    )


# a triangle 0-1-2 with a tail 2-3: the stub graph of the `_dfs` tests
_STUB = {0: [1, 2], 1: [0, 2], 2: [0, 1, 3], 3: [2]}


def _stub_walk(starts, budget=None, found=lambda path: False):
    """Run `_dfs` on the stub graph; returns its result, the nodes it
    charged and the path each expansion was handed."""
    counters = eknight.search._Counters(budget)
    expanded = []

    def expand(path, visited):
        expanded.append(tuple(path))
        return [u for u in _STUB[path[-1]] if not visited >> u & 1]

    result = eknight.search._dfs(starts, expand, found, counters)
    return result, counters.nodes, expanded


def test_dfs_walks_its_starts_in_order():
    (status, path), nodes, expanded = _stub_walk([3, 0, 2])
    assert (status, path) == (SearchStatus.EXHAUSTED_NONE, None)
    roots = [p[0] for p in expanded if len(p) == 1]
    assert roots == [3, 0, 2]
    # every simple path from each start, each handed to expand as it stands
    assert expanded[:5] == [(3,), (3, 2), (3, 2, 0), (3, 2, 0, 1), (3, 2, 1)]
    assert nodes == len(expanded) == 6 + 7 + 6


def test_dfs_stops_at_the_first_found_path():
    (status, path), nodes, expanded = _stub_walk([3, 0, 1], found=lambda p: p[:2] == [0, 2])
    assert (status, path) == (SearchStatus.FOUND, [0, 2])
    assert [p[0] for p in expanded if len(p) == 1] == [3, 0]
    assert nodes == 6 + 5


def test_dfs_spends_one_budget_across_its_starts():
    # start 3 takes 6 nodes, so a budget of 8 runs out inside start 0's walk
    for budget in (1, 6, 8, 18):
        (status, path), nodes, _ = _stub_walk([3, 0, 2], budget=budget)
        assert (status, path, nodes) == (SearchStatus.BUDGET_EXCEEDED, None, budget + 1)
    (status, _), nodes, _ = _stub_walk([3, 0, 2], budget=19)
    assert (status, nodes) == (SearchStatus.EXHAUSTED_NONE, 19)


def test_dfs_with_no_start_expands_nothing():
    (status, path), nodes, expanded = _stub_walk([], budget=1, found=lambda p: True)
    assert (status, path, nodes, expanded) == (SearchStatus.EXHAUSTED_NONE, None, 0, [])


def test_budget_semantics():
    outcome = find_tour(
        Board([2] * 6),
        SearchConfig(target=TourKind.CLOSED, node_budget=50),
    )
    assert outcome.status is SearchStatus.BUDGET_EXCEEDED
    assert outcome.tour is None
    assert outcome.nodes_expanded == 51  # the push that broke the budget

    # a budget large enough to finish must not alter the verdict
    outcome = find_tour(
        Board([3, 3], holes=[(1, 1)]),
        SearchConfig(target=TourKind.CLOSED, node_budget=10_000),
    )
    assert outcome.status is SearchStatus.FOUND


def test_find_tour_rejects_a_fractional_budget():
    # it used to run as budget 50
    config = SearchConfig(target=TourKind.CLOSED, node_budget=50.5)
    with pytest.raises(ValueError, match="^node_budget must be integers"):
        find_tour(Board([4, 8]), config)


def test_find_tour_rejects_a_fractional_parallel_width():
    # it used to raise TypeError from multiprocessing
    config = SearchConfig(parallel_width=1.5)
    with pytest.raises(ValueError, match="^parallel_width must be integers"):
        find_tour(Board([4, 5], holes=[(0, 2)]), config)


def test_longest_path_rejects_a_fractional_budget():
    with pytest.raises(ValueError, match="^node_budget must be integers"):
        longest_path(Board([3, 3, 3], holes=[(1, 1, 1)]), node_budget=10.5)


def test_longest_path_rejects_nonpositive_budget():
    board = Board([3, 3, 3], holes=[(1, 1, 1)])
    for budget in (0, -4):
        with pytest.raises(ValueError, match="node_budget must be positive"):
            longest_path(board, node_budget=budget)


def test_longest_path_budget():
    # no seed walk covers 4x4, so the search must run
    outcome = longest_path(Board([4, 4]), node_budget=3)
    assert outcome.status is SearchStatus.BUDGET_EXCEEDED
    assert outcome.tour.report().valid  # best-so-far is still a legal path
    assert outcome.max_depth_reached >= 2


def test_deterministic_runs_are_identical():
    board = Board([3, 3], holes=[(1, 1)])
    config = SearchConfig(target=TourKind.OPEN)
    first = find_tour(board, config)
    second = find_tour(board, config)
    assert first.tour.serialized() == second.tour.serialized()
    assert first.nodes_expanded == second.nodes_expanded


def test_warnsdorff_toggle_keeps_verdicts():
    for use_warnsdorff in (True, False):
        outcome = find_tour(
            Board([3, 3], holes=[(1, 1)]),
            SearchConfig(target=TourKind.CLOSED, use_warnsdorff=use_warnsdorff),
        )
        assert outcome.status is SearchStatus.FOUND
        outcome = find_tour(
            Board([2, 2, 2]),
            SearchConfig(target=TourKind.OPEN, use_warnsdorff=use_warnsdorff,
                         use_feasibility_precheck=False),
        )
        assert outcome.status is SearchStatus.EXHAUSTED_NONE


def test_explicit_start():
    board = Board([3, 3], holes=[(1, 1)])
    outcome = find_tour(board, SearchConfig(target=TourKind.CLOSED, start=(2, 2)))
    assert outcome.status is SearchStatus.FOUND
    assert outcome.tour.vertices[0] == (2, 2)
    with pytest.raises(ValueError):
        find_tour(board, SearchConfig(target=TourKind.OPEN, start=(1, 1)))


def test_config_validation():
    board = Board([3, 3])
    with pytest.raises(ValueError):
        find_tour(board, SearchConfig(target=TourKind.NEAR_CLOSED))
    with pytest.raises(ValueError):
        find_tour(board, SearchConfig(node_budget=0))
    with pytest.raises(ValueError):
        find_tour(board, SearchConfig(parallel_width=-1))
    with pytest.raises(ValueError):
        find_tour(Board([2, 2], holes=[(0, 0), (0, 1), (1, 0), (1, 1)]))


def test_find_tour_refuses_a_target_that_is_no_tour_kind():
    # a string target used to raise AttributeError while building the message
    board = Board([3, 3])
    for target in ("closed", "open"):
        with pytest.raises(ValueError, match="^search target must be a TourKind, not '"):
            find_tour(board, SearchConfig(target=target))
    for kind in (TourKind.NEAR_CLOSED, TourKind.PATH):
        message = f"^search targets open or closed tours, not {kind.value}$"
        with pytest.raises(ValueError, match=message):
            find_tour(board, SearchConfig(target=kind))


def test_single_vertex_board():
    board = Board([1, 1])
    outcome = find_tour(board, SearchConfig(target=TourKind.OPEN))
    assert outcome.status is SearchStatus.FOUND
    assert outcome.tour.vertices == ((0, 0),)
    outcome = find_tour(board, SearchConfig(target=TourKind.CLOSED))
    assert outcome.status is SearchStatus.EXHAUSTED_NONE
    # without the precheck the root is expanded and cut, in every mode
    config = SearchConfig(target=TourKind.CLOSED, use_feasibility_precheck=False)
    expected = SearchOutcome(SearchStatus.EXHAUSTED_NONE, None, 1, 1)
    assert find_tour(board, config) == expected
    assert find_tour(board, SearchConfig(**{**vars(config), "parallel_width": 2})) == expected


# open boards whose first root branch exhausts, so that the branches after it
# run too: on 4x5 less (0, 2) branches 0 and 1 exhaust and branch 2 finds a
# tour, on 3x4 less (0, 0) likewise, and on 4x4 every branch exhausts
LATE_BRANCH_BOARDS = [Board([4, 5], holes=[(0, 2)]), Board([3, 4], holes=[(0, 0)]), Board([4, 4])]


def test_parallel_width_has_no_effect():
    # every search runs its root branches in-process, one after another,
    # whatever parallel_width says: the answer, node count and depth are the
    # sequential ones, whether the first branch finds the tour or exhausts
    found, none = SearchStatus.FOUND, SearchStatus.EXHAUSTED_NONE
    open_, closed = TourKind.OPEN, TourKind.CLOSED
    cases = [(board, open_) for board in LATE_BRANCH_BOARDS + [Board([3, 3])]] + [
        (Board([2, 3, 6]), closed),
        (Board([4, 9]), closed),
        (Board([3, 3, 3], holes=[(1, 1, 1)]), closed),
        (Board([1, 1]), closed),
        (Board([3, 3], holes=[(1, 1)]), open_),
        (Board([3, 3], holes=[(1, 1)]), closed),
        (Board([5, 6]), closed),
        (Board([3] * 5), open_),
    ]
    statuses = [found, found, none, none, found, none, none, none, found, found, found, found]
    for (board, target), status in zip(cases, statuses, strict=True):
        config = SearchConfig(target=target, use_feasibility_precheck=False)
        seq = find_tour(board, config)
        assert seq.status is status, board
        for width in (2, 3):
            par = find_tour(board, SearchConfig(**{**vars(config), "parallel_width": width}))
            assert (par.status, par.nodes_expanded, par.max_depth_reached) == (
                seq.status, seq.nodes_expanded, seq.max_depth_reached
            ), board
            assert (par.tour and par.tour.vertices) == (seq.tour and seq.tour.vertices)


def test_a_parallel_width_starts_no_process():
    # a search is one in-process loop over its root branches: on 4x4 every
    # branch, one per symmetry orbit of the starts, exhausts, and still
    # nothing loads multiprocessing
    code = (
        "import sys\n"
        "from eknight import Board, SearchConfig, find_tour\n"
        "outcome = find_tour(Board([4, 4]), SearchConfig(parallel_width=2))\n"
        "print(outcome.status.value, outcome.nodes_expanded, 'multiprocessing' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(eknight.search.__file__))}
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "exhausted_none 331 False\n"


def test_budget_is_exact_in_every_mode():
    # a budgeted run is sequential whatever the mode, so it stops at the push
    # that breaks the one budget; without the precheck closed 4x8 is searched
    for deterministic in (True, False):
        for width in (0, 2):
            outcome = find_tour(Board([4, 8]), SearchConfig(
                target=TourKind.CLOSED, node_budget=50,
                deterministic=deterministic, parallel_width=width,
                use_feasibility_precheck=False,
            ))
            assert outcome.status is SearchStatus.BUDGET_EXCEEDED
            assert outcome.nodes_expanded == 51
    # no open tour exists on 4x4 and its proof takes far more than 300 nodes
    outcome = find_tour(
        Board([4, 4]), SearchConfig(node_budget=300, deterministic=False, parallel_width=2)
    )
    assert outcome.status is SearchStatus.BUDGET_EXCEEDED
    assert outcome.nodes_expanded == 301


def test_non_deterministic_mode_still_verifies():
    # on 4x5 less (0, 2) the first root branches exhaust before one finds a
    # tour; without the precheck closed 4x7 is a full proof
    for board, target, status in (
        (Board([3, 3], holes=[(1, 1)]), TourKind.CLOSED, SearchStatus.FOUND),
        (Board([3] * 5), TourKind.OPEN, SearchStatus.FOUND),
        (LATE_BRANCH_BOARDS[0], TourKind.OPEN, SearchStatus.FOUND),
        (Board([4, 7]), TourKind.CLOSED, SearchStatus.EXHAUSTED_NONE),
    ):
        config = SearchConfig(target=target, deterministic=False, use_feasibility_precheck=False)
        outcome = find_tour(board, config)
        assert outcome.status is status, board
        assert outcome.tour is None or outcome.tour.report().valid


def test_oracle_agreement_on_random_boards():
    rng = random.Random(987654321)
    boards = [random_board(rng) for _ in range(120)]
    for i, board in enumerate(boards):
        for target in (TourKind.OPEN, TourKind.CLOSED):
            expected = tour_exists(board, target)
            outcome = find_tour(board, SearchConfig(target=target))
            assert (outcome.status is SearchStatus.FOUND) == expected, (i, board, target)
            if expected:
                assert outcome.tour.report().valid
            proof = prove_nonexistence(board, target)
            assert (proof.status is SearchStatus.EXHAUSTED_NONE) == (not expected)
            if i % 3 == 0:
                plain = find_tour(
                    board, SearchConfig(target=target, use_warnsdorff=False)
                )
                assert (plain.status is SearchStatus.FOUND) == expected


def _closed_cut_rules(masks, full, dark_mask, visited, head, ends):
    """The closed-search prune rules whose witness holds at a node, on sets.

    Also returns the forced cells (those with two usable neighbours) and the
    head's forced neighbours.
    """
    start, second = ends
    nbrs = [set(_bits(m)) for m in masks]
    rest = set(_bits(full & ~visited))
    usable = rest | {head, start}
    rules = set()
    reach, frontier = {head}, [head]
    while frontier:
        frontier = [w for u in frontier for w in nbrs[u] & rest if w not in reach]
        reach.update(frontier)
    if not rest <= reach:
        rules.add("unreachable")
    degree = {u: len(nbrs[u] & usable) for u in rest}
    if min(degree.values()) < 2:
        rules.add("degree")
    # head -> rest -> start alternates colours from the colour opposite head's
    cells = rest | {start}
    opposite = sum((dark_mask >> u & 1) != (dark_mask >> head & 1) for u in cells)
    if opposite != (len(cells) + 1) // 2:
        rules.add("alternation")
    if not nbrs[start] & rest:
        rules.add("anchor")
    if not {u for u in nbrs[start] & rest if u > second}:
        rules.add("direction")
    forced = {u for u in rest if degree[u] == 2}
    if any(len(nbrs[u] & forced) > 2 for u in rest):
        rules.add("cell with three forced")
    root = head == start
    if not root and len(nbrs[head] & forced) > 1:
        rules.add("head with two forced")
    last = nbrs[start] & forced
    if root and len(last) > 2:
        rules.add("start with three forced at the root")
    if not root and len(last) > 1:
        rules.add("start with two forced")
    if not root and len(last) == 1 and min(last) < second:
        rules.add("forced last below second")
    lone = set() if root else nbrs[head] & forced
    return rules, forced, lone


# the rules that follow from the cycle's fixed ends: the direction rule and
# the forced-edge rules; the others are reachability, degree, alternation and
# the anchor rule
ENDS_RULES = {
    "direction",
    "cell with three forced",
    "head with two forced",
    "start with three forced at the root",
    "start with two forced",
    "forced last below second",
}


def _usable_counts(masks, full, visited, head, ends):
    """_prunable's onward and beside tables at a node, recounted from scratch."""
    rest = full & ~visited
    onward = [(m & (rest | 1 << head)).bit_count() for m in masks]
    start = head if ends is None else ends[0]
    beside = bytes(start != head and m >> start & 1 for m in masks)
    return onward, beside


def test_oracle_agreement_without_precheck(monkeypatch):
    # the DFS prune rules alone decide here, the closed-tour rules included.
    # Every closed node's verdict, forced cells and forced successor are also
    # checked against the rules stated on sets, and each of ENDS_RULES must
    # cut some node that no other kind of rule cuts, so that the brute-force
    # oracle's agreement rests on its soundness.  On the random boards the
    # rules on forced neighbours of the head, the start and an unvisited cell
    # never do; on the two fixed boards they do.
    prunable = eknight.search._prunable
    fired = collections.Counter()

    def checked(masks, full, dark_mask, visited, head, ends, *counts_and_parent):
        got = prunable(masks, full, dark_mask, visited, head, ends, *counts_and_parent)
        if ends is not None and full & ~visited:
            rules, forced, lone = _closed_cut_rules(masks, full, dark_mask, visited, head, ends)
            assert (got is None) == bool(rules), rules
            if got is None and rules <= ENDS_RULES:
                fired.update(rules)
            if got is not None:
                assert got == (sum(1 << u for u in forced), sum(1 << u for u in lone))
                fired["forced successor"] += bool(lone)
        return got

    monkeypatch.setattr(eknight.search, "_prunable", checked)
    rng = random.Random(31415)
    boards = [random_board(rng) for _ in range(80)]
    boards += [Board([4, 4], holes=[(0, 0), (3, 2)]), Board([3, 5], holes=[(1, 1)])]
    for i, board in enumerate(boards):
        for target in (TourKind.OPEN, TourKind.CLOSED):
            outcome = find_tour(
                board, SearchConfig(target=target, use_feasibility_precheck=False)
            )
            assert (outcome.status is SearchStatus.FOUND) == tour_exists(board, target), (
                i, board, target,
            )
    # no start that is the first cell has three forced neighbours on boards
    # this small, so the root rule needs an explicit start
    board = Board([3, 6], holes=[(0, 0), (1, 0)])
    config = SearchConfig(target=TourKind.CLOSED, start=(1, 3), use_feasibility_precheck=False)
    assert find_tour(board, config).status is SearchStatus.EXHAUSTED_NONE
    assert not tour_exists(board, TourKind.CLOSED)
    assert all(fired[rule] for rule in ENDS_RULES | {"forced successor"}), fired


def test_incremental_prune_matches_full_scan(monkeypatch):
    # every node checked against its parent gets the full scan's verdict and
    # state too, in whole searches and in closed searches from later starts:
    # the weak mask of an open search, the degree-2 mask and the forced
    # successor of a closed one
    prunable = eknight.search._prunable
    compared = []
    closed_states = []

    def both(masks, full, dark_mask, visited, head, ends, onward, beside, parent):
        node = (masks, full, dark_mask, visited, head, ends, onward, beside)
        got = prunable(*node, parent)
        assert got == prunable(*node, (0, list(_bits(full & ~visited))))
        compared.append(ends is None)
        if ends is not None and got is not None:
            closed_states.append(got)
        return got

    monkeypatch.setattr(eknight.search, "_prunable", both)
    rng = random.Random(2718)
    boards = [random_board(rng, max_vertices=16) for _ in range(60)]
    boards += [Board([5, 6]), Board([4, 7]), Board([3, 3, 3], holes=[(1, 1, 1)])]
    for board in boards:
        for target in (TourKind.OPEN, TourKind.CLOSED):
            find_tour(board, SearchConfig(target=target, use_feasibility_precheck=False))
    assert compared.count(True) > 1000 and compared.count(False) > 1000
    assert any(forced for forced, _ in closed_states)
    assert any(lone for _, lone in closed_states)
    compared.clear()
    for board in boards:
        # closed cycles fixed at a start other than the smallest vertex
        for start in list(board.vertices())[1:4]:
            config = SearchConfig(target=TourKind.CLOSED, start=start,
                                  use_feasibility_precheck=False)
            find_tour(board, config)
    assert len(compared) > 1000


def test_onward_counts_match_a_recount(monkeypatch):
    # the search keeps each cell's count of usable neighbours as it pushes
    # and backtracks; at every node it checks, the counts of the cells the
    # check scans must equal a recount, in open and closed searches, from
    # explicit starts and in random successor order
    prunable = eknight.search._prunable
    scanned = collections.Counter()
    last_depth = 0

    def recounted(masks, full, dark_mask, visited, head, ends, onward, beside, parent):
        nonlocal last_depth
        depth = visited.bit_count()
        node = "after backtracking" if depth <= last_depth else "deeper"
        last_depth = depth
        expected_onward, expected_beside = _usable_counts(masks, full, visited, head, ends)
        for u in parent[1]:
            if u != head:
                assert onward[u] == expected_onward[u], (u, head, visited)
                assert beside[u] == expected_beside[u], (u, head, visited)
                scanned[node] += 1
                scanned["beside the start"] += beside[u]
        return prunable(masks, full, dark_mask, visited, head, ends, onward, beside, parent)

    monkeypatch.setattr(eknight.search, "_prunable", recounted)
    rng = random.Random(4669)
    boards = [random_board(rng, max_vertices=16) for _ in range(40)]
    boards += [Board([5, 6]), Board([4, 7]), Board([4, 5], holes=[(0, 2)]),
               Board([3, 3, 3], holes=[(1, 1, 1)])]
    for board in boards:
        cells = list(board.vertices())
        for target in (TourKind.OPEN, TourKind.CLOSED):
            for start in (None, cells[len(cells) // 2]):
                for deterministic in (True, False):
                    last_depth = 0
                    config = SearchConfig(target=target, start=start, deterministic=deterministic,
                                          use_feasibility_precheck=False)
                    find_tour(board, config)
    assert scanned["after backtracking"] > 10_000 and scanned["deeper"] > 10_000, scanned
    assert scanned["beside the start"] > 200, scanned


def test_each_expansion_restores_the_counts_it_lowers(monkeypatch):
    # a proof exhausts every branch, so once each branch's search is over its
    # onward counts must be the full degrees again, the root's lowering
    # undone too
    prunable = eknight.search._prunable
    tables = {}

    def kept(masks, full, dark_mask, visited, head, ends, onward, *rest):
        tables[id(onward)] = masks, onward
        return prunable(masks, full, dark_mask, visited, head, ends, onward, *rest)

    monkeypatch.setattr(eknight.search, "_prunable", kept)
    for board, target in [
        (Board([4, 4]), TourKind.OPEN),
        (Board([4, 8]), TourKind.CLOSED),
        (Board([3, 3, 3], holes=[(1, 1, 1)]), TourKind.OPEN),
    ]:
        tables.clear()
        outcome = prove_nonexistence(board, target, use_feasibility_precheck=False)
        assert outcome.status is SearchStatus.EXHAUSTED_NONE
        assert tables
        for masks, onward in tables.values():
            assert onward == [m.bit_count() for m in masks], board


def test_a_suspended_expansion_holds_only_its_undo(monkeypatch):
    # each node on the path keeps its expansion suspended until the walk
    # comes back to it; 600 cells deep on 3^6, none of them may hold a mask
    # of the board (an int as wide as its 729 cells), only what its undo needs
    prunable = eknight.search._prunable
    held = None

    def snapshot(masks, full, dark_mask, visited, *rest):
        nonlocal held
        if held is None and visited.bit_count() == 600:
            held = [
                dict(g.gi_frame.f_locals) for g in gc.get_objects()
                if inspect.isgenerator(g) and inspect.getgeneratorstate(g) == inspect.GEN_SUSPENDED
                and g.gi_code.co_filename == eknight.search.__file__
            ]
        return prunable(masks, full, dark_mask, visited, *rest)

    monkeypatch.setattr(eknight.search, "_prunable", snapshot)
    outcome = find_tour(Board([3] * 6))
    assert (outcome.status, outcome.nodes_expanded) == (SearchStatus.FOUND, 729)
    assert len(held) >= 599
    wide = [f for f in held if any(isinstance(v, int) and v.bit_length() > 64 for v in f.values())]
    assert not wide, f"{len(wide)} of {len(held)} suspended expansions hold a wide int"


def test_prune_scan_matches_the_breadth_first_reference(monkeypatch):
    # along random path prefixes, each node's verdict and state, with its
    # parent's state and with a full scan, equal those of the check that searches
    # breadth-first before its degree scan.  The search that the scan's
    # two-step reach leaves to do must run on some open nodes, and must end
    # both in reaching every scan cell and in a cut
    prunable, spread = eknight.search._prunable, eknight.search._spread
    levels = 0

    def counted(masks, frontier):
        nonlocal levels
        levels += 1
        return spread(masks, frontier)

    monkeypatch.setattr(eknight.search, "_spread", counted)
    fallback = collections.Counter()
    rng = random.Random(16180)
    boards = [(random_board(rng, max_vertices=16), 20) for _ in range(60)]
    boards += [(Board([3] * 5), 6), (Board([3] * 6), 2)]
    for board, walks in boards:
        _, masks, full = board._index_graph()
        dark_mask = board._dark_mask()
        cells = list(_bits(full))
        for closed in (False, True):
            for _ in range(walks):
                start = rng.choice(cells)
                path, visited, parent = [start], 1 << start, None
                ends = (start, -1) if closed else None
                while True:
                    head = path[-1]
                    if closed and len(path) == 2:
                        ends = (start, head)
                    node = (masks, full, dark_mask, visited, head, ends)
                    expected = reference_prunable(*node, parent and parent[:2])
                    counts = _usable_counts(masks, full, visited, head, ends)
                    full_scan = 0, list(_bits(full & ~visited))
                    for state in (parent[1:] if parent else full_scan, full_scan):
                        levels = 0
                        got = prunable(*node, *counts, state)
                        assert got == expected, (board, path, closed, state)
                        if not closed and levels:
                            fallback["reached" if got else "cut"] += 1
                    successors = list(_bits(masks[head] & ~visited))
                    if expected is None or not successors:
                        break
                    # (previous head, its tight mask) for the reference,
                    # (tight mask, unvisited neighbours) for the scan
                    parent = head, expected[0], successors
                    path.append(rng.choice(successors))
                    visited |= 1 << path[-1]
    assert fallback["reached"] and fallback["cut"], fallback


@pytest.mark.parametrize(
    "k, nodes, diagonal5, l_moves", [(6, 729, 254, 474), (7, 2187, 985, 1201)]
)
def test_open_tours_on_larger_three_cubes(k, nodes, diagonal5, l_moves):
    outcome = find_tour(Board([3] * k), SearchConfig(target=TourKind.OPEN))
    assert outcome.status is SearchStatus.FOUND
    assert outcome.nodes_expanded == nodes
    assert outcome.tour.report().valid
    vertices = outcome.tour.vertices
    kinds = [classify_move(a, b) for a, b in zip(vertices, vertices[1:])]
    assert kinds.count(MoveKind.DIAGONAL5) == diagonal5
    assert kinds.count(MoveKind.L_MOVE) == l_moves


def test_closed_tour_on_six_cube_minus_centre():
    # the k = 6 member of the paper's PC_3_4_HOLE family (only even k balance
    # the colours); the closing link counts among the 728 links
    outcome = find_tour(Board([3] * 6, holes=[(1,) * 6]), SearchConfig(target=TourKind.CLOSED))
    assert outcome.status is SearchStatus.FOUND
    assert outcome.nodes_expanded == 739
    assert outcome.tour.report().valid
    vertices = outcome.tour.vertices
    kinds = [classify_move(a, b) for a, b in zip(vertices, vertices[1:] + vertices[:1])]
    assert kinds.count(MoveKind.DIAGONAL5) == 245
    assert kinds.count(MoveKind.L_MOVE) == 483


def _schwenk_closed(m: int, n: int) -> bool:
    """Schwenk (Math. Mag. 64, 1991): an m x n board, m <= n, has a closed
    knight's tour unless m and n are both odd, m is 1, 2 or 4, or m is 3
    and n is 4, 6 or 8."""
    return not (m % 2 and n % 2 or m in (1, 2, 4) or m == 3 and n in (4, 6, 8))


def test_closed_verdicts_match_schwenk_theorem():
    # below 5 axes the squared-distance-5 knight is the classical knight
    boards = [(m, n) for m in range(1, 6) for n in range(m, 31) if m * n <= 30]
    assert len(boards) == 58
    for m, n in boards:
        for precheck in (True, False):
            config = SearchConfig(target=TourKind.CLOSED, use_feasibility_precheck=precheck)
            outcome = find_tour(Board([m, n]), config)
            assert outcome.status in (SearchStatus.FOUND, SearchStatus.EXHAUSTED_NONE)
            found = outcome.status is SearchStatus.FOUND
            assert found == _schwenk_closed(m, n), (m, n, precheck)


def test_closed_verdicts_of_small_boxes_match_the_classical_condition():
    # below 5 axes the knight has only its classical moves, so the criterion
    # decides every 3D box; the budget makes a regression fail, not hang
    boxes = [
        (a, b, c)
        for a in range(2, 5) for b in range(a, 17) for c in range(b, 17) if a * b * c <= 64
    ]
    assert len(boxes) == 38
    for sides in boxes:
        for precheck in (True, False):
            config = SearchConfig(
                target=TourKind.CLOSED, node_budget=50_000, use_feasibility_precheck=precheck
            )
            outcome = find_tour(Board(sides), config)
            assert outcome.status in (SearchStatus.FOUND, SearchStatus.EXHAUSTED_NONE), sides
            found = outcome.status is SearchStatus.FOUND
            assert found == classical_closed_tour_condition(sides), (sides, precheck)


def test_infeasible_verdicts_are_sound():
    # every infeasible verdict must be confirmed by a genuine exhaustive search
    from eknight.feasibility import closed_tour_necessary, open_tour_necessary

    rng = random.Random(555)
    confirmed = 0
    while confirmed < 40:
        board = random_board(rng, max_vertices=10)
        for target, verdict_of in (
            (TourKind.OPEN, open_tour_necessary),
            (TourKind.CLOSED, closed_tour_necessary),
        ):
            if verdict_of(board).feasible:
                continue
            outcome = find_tour(
                board,
                SearchConfig(target=target, use_feasibility_precheck=False),
            )
            assert outcome.status is SearchStatus.EXHAUSTED_NONE, (board, target)
            confirmed += 1


def test_permutation_oracle_cross_check():
    rng = random.Random(24680)
    checked = 0
    while checked < 25:
        board = random_board(rng, max_vertices=7)
        for target in (TourKind.OPEN, TourKind.CLOSED):
            assert tour_exists(board, target) == tour_exists_permutations(board, target)
        checked += 1


def test_longest_path_matches_oracle_best():
    # brute-force the true maximum path length on a few small boards
    def brute_longest(board):
        adj = {v: board.neighbors(v) for v in board.vertices()}
        best = 0

        def extend(v, used):
            nonlocal best
            best = max(best, len(used))
            for w in adj[v]:
                if w not in used:
                    used.add(w)
                    extend(w, used)
                    used.discard(w)

        for s in board.vertices():
            extend(s, {s})
        return best

    # every seed walk on this 4x4 less six cells falls short of its
    # 10-cell path, which the open-tour search finds
    boards = [Board([4, 4], holes=[(0, 0), (0, 1), (0, 3), (1, 3), (3, 0), (3, 3)])]
    rng = random.Random(1357)
    boards += [random_board(rng, max_vertices=10) for _ in range(100)]
    full_paths = collections.Counter()
    for board in boards:
        outcome = longest_path(board)
        assert outcome.status is SearchStatus.FOUND
        assert outcome.max_depth_reached == brute_longest(board), board
        if board.vertex_count >= 4:
            full_paths[outcome.max_depth_reached == board.vertex_count] += 1
    # boards of four or more cells, with and without a path through every cell
    assert full_paths[True] >= 4 and full_paths[False] >= 40, full_paths


# the exact longest path of every box of 2 or 3 axes, sides 2 to 7, with 6
# to 30 cells: the boxes with a path through every cell, those where the
# colour cap or the precheck decides, and those the sweep must prove
LONGEST_OF_BOXES = {
    (2, 3): 2, (2, 4): 2, (2, 5): 3, (2, 6): 3, (2, 7): 4,
    (3, 3): 8, (3, 4): 12, (3, 5): 14, (3, 6): 17, (3, 7): 21,
    (4, 4): 15, (4, 5): 20, (4, 6): 24, (4, 7): 28, (5, 5): 25, (5, 6): 30,
    (2, 2, 2): 1, (2, 2, 3): 4, (2, 2, 4): 4, (2, 2, 5): 5, (2, 2, 6): 5, (2, 2, 7): 8,
    (2, 3, 3): 16, (2, 3, 4): 24, (2, 3, 5): 30, (3, 3, 3): 25,
}


@pytest.mark.parametrize("sides", LONGEST_OF_BOXES, ids=lambda sides: "x".join(map(str, sides)))
def test_longest_path_of_small_boxes(sides):
    outcome = longest_path(Board(list(sides)))
    assert outcome.status is SearchStatus.FOUND
    assert outcome.max_depth_reached == LONGEST_OF_BOXES[sides]


# (status, nodes_expanded, max_depth_reached, sha256 prefix of the tour text):
# a change to the driver, the successor order or a prune rule shows up here
PINNED_SEARCHES = {
    "closed 5x6": (
        lambda: find_tour(Board([5, 6]), SearchConfig(target=TourKind.CLOSED)),
        ("found", 562, 30, "5143bc80de82cbe2"),
    ),
    "closed 3x10": (
        lambda: find_tour(Board([3, 10]), SearchConfig(target=TourKind.CLOSED)),
        ("found", 41, 30, "3c8efbe1a36b0344"),
    ),
    "closed 2x3x6": (
        lambda: find_tour(Board([2, 3, 6]), SearchConfig(target=TourKind.CLOSED)),
        ("found", 1407, 36, "1bf1f2586ce6db93"),
    ),
    "open 3^5": (
        lambda: find_tour(Board([3] * 5)),
        ("found", 243, 243, "e89e41fedbc4e475"),
    ),
    "open 4x5 less (0, 2)": (
        # the first two start branches exhaust, the third finds the tour
        lambda: find_tour(Board([4, 5], holes=[(0, 2)])),
        ("found", 287, 19, "e6a7f392c7ea3ad7"),
    ),
    # every start branch, one per symmetry orbit, exhausts: no open tour
    # exists on 4x4 or 3x6
    "open 4x4 proof": (
        lambda: prove_nonexistence(Board([4, 4]), TourKind.OPEN),
        ("exhausted_none", 331, 12, None),
    ),
    "open 3x6 proof": (
        lambda: prove_nonexistence(Board([3, 6]), TourKind.OPEN),
        ("exhausted_none", 425, 14, None),
    ),
    # the precheck's outer-layer rule refuses every closed board of side 4
    # below, so the proofs run with the precheck off
    "closed 4x7 proof": (
        lambda: prove_nonexistence(Board([4, 7]), TourKind.CLOSED, use_feasibility_precheck=False),
        ("exhausted_none", 411, 16, None),
    ),
    "closed 4x8 proof": (
        lambda: prove_nonexistence(Board([4, 8]), TourKind.CLOSED, use_feasibility_precheck=False),
        ("exhausted_none", 1836, 23, None),
    ),
    "closed 4x9 proof": (
        lambda: prove_nonexistence(Board([4, 9]), TourKind.CLOSED, use_feasibility_precheck=False),
        ("exhausted_none", 10818, 29, None),
    ),
    "closed 3x3x6 plain": (
        # the start's two forced neighbours cut here, as on no board above
        lambda: find_tour(Board([3, 3, 6]), SearchConfig(target=TourKind.CLOSED,
                                                         use_warnsdorff=False)),
        ("found", 2096, 54, "893fbf70d3d53d88"),
    ),
    "closed 3x6 less two cells from (1, 3)": (
        # three forced neighbours of the start cut at the root
        lambda: find_tour(Board([3, 6], holes=[(0, 0), (1, 0)]),
                          SearchConfig(target=TourKind.CLOSED, start=(1, 3))),
        ("exhausted_none", 1, 1, None),
    ),
    "closed 5x4 less two cells proof": (
        # the start's forced neighbour lies below the second vertex
        lambda: prove_nonexistence(Board([5, 4], holes=[(0, 0), (4, 1)]), TourKind.CLOSED,
                                   use_feasibility_precheck=False),
        ("exhausted_none", 17, 8, None),
    ),
    **{
        f"closed {name} precheck": (
            lambda board=board: prove_nonexistence(board, TourKind.CLOSED),
            ("exhausted_none", 0, 0, None),
        )
        for name, board in [
            ("4x7", Board([4, 7])),
            ("4x8", Board([4, 8])),
            ("4x9", Board([4, 9])),
            ("5x4 less two cells", Board([5, 4], holes=[(0, 0), (4, 1)])),
            ("2^4 x 4", Board([2, 2, 2, 2, 4])),
        ]
    },
    "open 4x4 budget 300": (
        # the budget runs out a few start branches in
        lambda: find_tour(Board([4, 4]), SearchConfig(target=TourKind.OPEN, node_budget=300)),
        ("budget_exceeded", 301, 12, None),
    ),
    # no path covers 4x4, 3x5 or 3x6: the open-tour search proves it first
    # (331 nodes on 4x4), then the sweep finds the longest path
    "longest 4x4": (
        lambda: longest_path(Board([4, 4])),
        ("found", 374, 15, "645ed8b227c18774"),
    ),
    "longest 3x5": (
        lambda: longest_path(Board([3, 5])),
        ("found", 248, 14, "afd6e43f7a4e14e8"),
    ),
    "longest 3x6": (
        lambda: longest_path(Board([3, 6])),
        ("found", 831, 17, "e967ec3bbebda59e"),
    ),
    # one budget covers both phases: it runs out in the proof, then in the
    # sweep, and the best path is the longest seed walk's
    "longest 4x4 budget 5": (
        lambda: longest_path(Board([4, 4]), node_budget=5),
        ("budget_exceeded", 6, 12, "3c5ddaca6862f93f"),
    ),
    "longest 4x4 budget 340": (
        lambda: longest_path(Board([4, 4]), node_budget=340),
        ("budget_exceeded", 341, 12, "3c5ddaca6862f93f"),
    ),
    # the precheck refuses a full path, and a seed walk meets the cap of 25
    "longest holed 3^3 budget 500": (
        lambda: longest_path(Board([3, 3, 3], holes=[(1, 1, 1)]), node_budget=500),
        ("found", 0, 25, "7d958359b8c51fa9"),
    ),
    "closed 5x6 parallel 2": (
        lambda: find_tour(Board([5, 6]), SearchConfig(target=TourKind.CLOSED, parallel_width=2)),
        ("found", 562, 30, "5143bc80de82cbe2"),
    ),
    # the paper's large boards, where each cell has dozens of neighbours
    "open 3^6": (
        lambda: find_tour(Board([3] * 6)),
        ("found", 729, 729, "fa85b74672b13145"),
    ),
    "open 3^7": (
        lambda: find_tour(Board([3] * 7)),
        ("found", 2187, 2187, "6e4d5f4b3230a7ae"),
    ),
    # each cell has about 286 neighbours, so the rows are decoded a byte at a time
    "open 3^8": (
        lambda: find_tour(Board([3] * 8)),
        ("found", 6561, 6561, "a3dde6452129ab28"),
    ),
    "closed 3^6 less its centre": (
        lambda: find_tour(Board([3] * 6, holes=[(1,) * 6]), SearchConfig(target=TourKind.CLOSED)),
        ("found", 739, 728, "055db80cffe81a1d"),
    ),
}


@pytest.mark.parametrize("name", PINNED_SEARCHES)
def test_search_trees_are_pinned(name):
    run, expected = PINNED_SEARCHES[name]
    outcome = run()
    tour = outcome.tour and hashlib.sha256(outcome.tour.serialized().encode()).hexdigest()[:16]
    got = (outcome.status.value, outcome.nodes_expanded, outcome.max_depth_reached, tour)
    assert got == expected


def _symmetry_oracle_boards(max_cells):
    """Every box of 2 or 3 axes, sides >= 2 in any order, of at most max_cells
    cells, plus 2^5, 2^3 x 3 and 2^2 x 3^2, whole and less its corners; and
    each of those with sides in increasing order and at most 30 cells less its
    centre cell (the middle cell of each axis, rounded up) and less two seeded
    random sets of one or two cells.  The corners, and the centre of an
    all-odd box, keep every symmetry; the other holes mostly break some.
    Above 30 cells such holes make trees of 10^5 nodes and more on 4 x 8,
    4 x 9 and 2 x 3 x 6, where no start is skipped."""
    boxes = [
        sides
        for k in (2, 3)
        for sides in itertools.product(range(2, max_cells // 2 + 1), repeat=k)
        if math.prod(sides) <= max_cells
    ]
    boxes += [sides for sides in [(2,) * 5, (2, 2, 2, 3), (2, 2, 3, 3)]
              if math.prod(sides) <= max_cells]
    rng = random.Random(97531)
    for sides in boxes:
        cells = list(itertools.product(*map(range, sides)))
        corners = list(itertools.product(*((0, s - 1) for s in sides)))
        holes = [[], corners[: len(cells) - 1]]
        if len(cells) <= 30 and list(sides) == sorted(sides):
            holes.append([tuple(s // 2 for s in sides)])
            holes += [rng.sample(cells, rng.randint(1, 2)) for _ in range(2)]
        yield from (Board(sides, h) for h in holes)


def _answer(outcome):
    return outcome.status, outcome.tour and outcome.tour.vertices


def test_one_start_per_orbit_changes_no_open_answer():
    # the answer of a search that walks every allowed start: one search per
    # start, in index order, until one finds a tour
    walked = fewer = 0
    for board in _symmetry_oracle_boards(36):
        dark, light = color_counts(board)
        starts = [
            v for v in board.vertices()
            if abs(dark - light) != 1 or (sum(v) % 2 == 0) == (dark > light)
        ]
        for precheck in (True, False):
            nodes = 0
            for start in starts:
                outcome = find_tour(board, SearchConfig(start=start,
                                                        use_feasibility_precheck=precheck))
                nodes += outcome.nodes_expanded
                if outcome.status is SearchStatus.FOUND:
                    break
            reduced = find_tour(board, SearchConfig(use_feasibility_precheck=precheck))
            assert _answer(reduced) == _answer(outcome), (board, precheck)
            assert reduced.nodes_expanded <= nodes, (board, precheck)
            walked += 1
            fewer += reduced.nodes_expanded < nodes
    # the reduction really skips branches on many of the boards
    assert walked == 722 and fewer > 50, (walked, fewer)


def test_one_start_per_orbit_changes_no_longest_path(monkeypatch):
    boards = list(_symmetry_oracle_boards(20))
    reduced = [longest_path(board) for board in boards]
    # without the reduction the sweep walks every start
    monkeypatch.setattr(eknight.search, "_orbit_least", lambda board, starts: starts)
    fewer = 0
    for board, outcome in zip(boards, reduced):
        every = longest_path(board)
        assert _answer(outcome) == _answer(every), board
        assert outcome.nodes_expanded <= every.nodes_expanded, board
        fewer += outcome.nodes_expanded < every.nodes_expanded
    assert fewer > 20, fewer


def test_orbit_least_starts_are_the_least_cells_of_their_orbits():
    # the orbit of each cell, by closing it under the generators
    for sides, holes in [((4, 4), ()), ((3, 4, 3), ()), ((3, 3, 3), [(1, 1, 1)]),
                         ((2, 3, 3), ()), ((4, 4), [(0, 0)])]:
        board = Board(sides, holes)
        swaps = [a for a in range(len(sides) - 1) if sides[a] == sides[a + 1]]

        def images(v):
            for a, s in enumerate(sides):
                yield v[:a] + (s - 1 - v[a],) + v[a + 1:]
            for a in swaps:
                yield v[:a] + (v[a + 1], v[a]) + v[a + 2:]

        least = []
        for v in board.vertices():
            orbit, frontier = {v}, [v]
            while frontier:
                frontier = [w for u in frontier for w in images(u) if w not in orbit]
                orbit.update(frontier)
            if holes and {w for h in holes for w in images(h)} != set(holes):
                orbit = {v}
            least += [board.index(v)] if v == min(orbit) else []
        every = [board.index(v) for v in board.vertices()]
        assert list(eknight.search._orbit_least(board, every)) == least, board


@st.composite
def _box_and_symmetry(draw):
    """A box of 2 or 3 axes and at most 20 cells with up to three holes, an
    order of its axes and the axes to reflect."""
    sides = draw(st.lists(st.integers(2, 5), min_size=2, max_size=3)
                 .filter(lambda sides: math.prod(sides) <= 20))
    cells = list(itertools.product(*map(range, sides)))
    holes = draw(st.sets(st.sampled_from(cells), max_size=min(3, len(cells) - 1)))
    order = draw(st.permutations(range(len(sides))))
    flips = draw(st.lists(st.booleans(), min_size=len(sides), max_size=len(sides)))
    return Board(sides, holes), order, flips


@given(_box_and_symmetry())
@settings(max_examples=150, deadline=None)
def test_verdicts_do_not_change_under_box_symmetries(case):
    # reordering the axes (with their sides), equal-side swaps among them, and
    # reflecting axes map knight moves to knight moves, and the holes with them
    board, order, flips = case
    sides = board.sides

    def image(v):
        return tuple(sides[a] - 1 - v[a] if flip else v[a] for a, flip in zip(order, flips))

    mapped = Board([sides[a] for a in order], map(image, board.holes))
    for target in (TourKind.OPEN, TourKind.CLOSED):
        config = SearchConfig(target=target)
        assert find_tour(mapped, config).status is find_tour(board, config).status, target
