"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every stated tolerance and runtime bound is asserted here.
"""

import itertools
import random
import subprocess
import sys
import time
from collections import Counter

from eknight import corpus
from eknight.board import Board, squared_distance
from eknight.construct import closed_tour_on_hypercube, extend_closed_tour
from eknight.feasibility import (
    classical_closed_tour_condition,
    closed_tour_necessary,
    color,
    open_tour_necessary,
)
from eknight.search import (
    SearchConfig,
    SearchStatus,
    find_tour,
    longest_path,
    prove_nonexistence,
)
from eknight.tour import MoveKind, TourKind, classify_move, verify

from bruteforce import random_board, tour_exists


def _report(number: int, detail: str, started: float) -> None:
    print(f"criterion {number}: PASS ({time.perf_counter() - started:.3f}s) {detail}")


def test_criterion_01_open_tour_on_3_5():
    started = time.perf_counter()
    entry = corpus.get(corpus.PO_3_5)
    report = verify(entry.board, entry.vertices, TourKind.OPEN)
    assert report.valid
    assert report.entry_count == 243
    assert len(set(entry.vertices)) == 243
    assert report.link_count == 242
    assert all(
        squared_distance(a, b) == 5
        for a, b in zip(entry.vertices, entry.vertices[1:])
    )
    assert report.endpoint_squared_distance == 4
    kinds = [classify_move(a, b) for a, b in zip(entry.vertices, entry.vertices[1:])]
    assert kinds.count(MoveKind.DIAGONAL5) == 2
    assert kinds.count(MoveKind.L_MOVE) == 240
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _report(1, "open tour over 243 cells: 242 legal links, endpoint distance^2 = 4, "
               "2 five-axis jumps", started)


def test_criterion_02_closed_corpus_tours():
    started = time.perf_counter()
    entry = corpus.get(corpus.PC_2_6)
    report = verify(entry.board, entry.vertices, TourKind.CLOSED)
    assert report.valid and report.entry_count == 64
    assert squared_distance(entry.vertices[-1], entry.vertices[0]) == 5

    entry = corpus.get(corpus.PC_3_4_HOLE)
    assert entry.board.vertex_count == 80
    report = verify(entry.board, entry.vertices, TourKind.CLOSED)
    assert report.valid and report.entry_count == 80
    assert entry.vertices[-1] == (0, 2, 0, 1) and entry.vertices[0] == (0, 0, 0, 2)
    assert squared_distance((0, 2, 0, 1), (0, 0, 0, 2)) == 5

    entry = corpus.get(corpus.PC_3_2_HOLE)
    report = verify(entry.board, entry.vertices, TourKind.CLOSED)
    assert report.valid and report.entry_count == 8
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _report(2, "closed tours verify on the 6-cube (64), the holed 3^4 board (80) "
               "and the holed 3x3 board (8)", started)


def test_criterion_03_near_closed_walk():
    started = time.perf_counter()
    entry = corpus.get(corpus.NEAR_CLOSED_3_5)
    report = verify(entry.board, entry.vertices, TourKind.NEAR_CLOSED)
    assert report.valid
    assert report.link_count == 244 == 3 ** 5 + 1
    assert entry.vertices[0] == entry.vertices[-1] == (1, 0, 2, 0, 1)
    doubled = [v for v, c in Counter(entry.vertices[:-1]).items() if c == 2]
    assert doubled == [(1, 1, 0, 0, 1)]
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _report(3, "near-closed walk: 244 jumps, returns to start, exactly one "
               "doubled cell", started)


def test_criterion_04_construction_chain():
    started = time.perf_counter()
    for k in range(7, 13):
        tour = closed_tour_on_hypercube(k)
        report = tour.report()
        assert report.valid, (k, report.first_violation)
        assert report.entry_count == 2 ** k
    base = corpus.get(corpus.PC_2_6).tour()
    for mask in itertools.combinations(range(6), 4):
        assert extend_closed_tour(base, mask).report().valid, mask
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    _report(4, "doubling chain verifies closed for k = 7..12 and all 15 "
               "four-axis masks at k = 6 -> 7", started)


def test_criterion_05_minimality_proofs():
    started = time.perf_counter()
    # (a) no tour on the 3^k boards for k = 2, 3, 4: the center cell is
    # isolated, and exhaustive search agrees for k = 2, 3
    for k in (2, 3, 4):
        verdict = open_tour_necessary(Board([3] * k))
        assert not verdict.feasible and "disconnected" in verdict.reasons
    for k in (2, 3):
        outcome = prove_nonexistence(
            Board([3] * k), TourKind.OPEN, use_feasibility_precheck=False
        )
        assert outcome.status is SearchStatus.EXHAUSTED_NONE
        assert outcome.nodes_expanded > 0

    # (b) the 5-cube: a perfect matching, so the longest path has 2 vertices
    five_cube = Board([2] * 5)
    assert five_cube.degree_histogram() == {1: 32}
    outcome = prove_nonexistence(five_cube, TourKind.OPEN, use_feasibility_precheck=False)
    assert outcome.status is SearchStatus.EXHAUSTED_NONE
    best = longest_path(five_cube)
    assert best.status is SearchStatus.FOUND and best.max_depth_reached == 2

    # (c) the 3^3 board without its center: no full path, best is 25 cells
    board = Board([3, 3, 3], holes=[(1, 1, 1)])
    for precheck in (True, False):
        outcome = prove_nonexistence(
            board, TourKind.OPEN, use_feasibility_precheck=precheck
        )
        assert outcome.status is SearchStatus.EXHAUSTED_NONE
    best = longest_path(board)
    assert best.status is SearchStatus.FOUND
    assert best.max_depth_reached == 25
    assert best.tour.link_count == 24
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    _report(5, "exact nonexistence on 3^k (k = 2..4) and the 5-cube; longest "
               "path on the holed 3^3 board is 25 cells / 24 links", started)


def test_criterion_06_parity_soundness():
    started = time.perf_counter()
    for k in range(2, 7):
        verdict = closed_tour_necessary(Board([3] * k))
        assert not verdict.feasible
        assert any("odd vertex count" in r for r in verdict.reasons), k
    for board in (Board([3] * 5), Board([2] * 6)):
        edges = 0
        for v, ns in board.adjacency().items():
            for w in ns:
                assert color(v) is not color(w)
                edges += 1
        assert edges > 0
    _report(6, "odd cell counts block closed tours for k = 2..6; color "
               "alternation holds on every edge of the 3^5 and 2^6 boards", started)


def test_criterion_07_oracle_equivalence():
    started = time.perf_counter()
    rng = random.Random(20260809)
    boards = [random_board(rng) for _ in range(110)]
    # pin boards covering every verdict quadrant alongside the random draw
    boards += [
        Board([3, 3], holes=[(1, 1)]),         # closed and open tours exist
        Board([3, 3], holes=[(1, 1), (0, 0)]),  # open only (7 cells, odd)
        Board([3, 3]),                          # edges but no tours
        Board([4, 3]),                          # open only, 12 cells
        Board([2, 2, 3]),
    ]
    assert all(b.vertex_count <= 12 for b in boards)
    found_open = found_closed = 0
    for board in boards:
        for target in (TourKind.OPEN, TourKind.CLOSED):
            expected = tour_exists(board, target)
            outcome = find_tour(board, SearchConfig(target=target))
            assert (outcome.status is SearchStatus.FOUND) == expected, (board, target)
            if expected:
                assert outcome.tour.report().valid
                if target is TourKind.OPEN:
                    found_open += 1
                else:
                    found_closed += 1
            proof = prove_nonexistence(board, target)
            assert (proof.status is SearchStatus.EXHAUSTED_NONE) == (not expected)
    assert found_open >= 10 and found_closed >= 1
    _report(7, f"solver verdicts match the brute-force oracle on {len(boards)} "
               f"boards ({found_open} open / {found_closed} closed tours found)",
            started)


def test_criterion_08_classical_condition():
    started = time.perf_counter()
    assert classical_closed_tour_condition((2,) * 6) is False
    assert classical_closed_tour_condition((2, 3, 4)) is True
    rng = random.Random(11223344)
    for _ in range(20):
        sides = sorted(rng.randint(2, 7) for _ in range(3))
        direct = (
            (sides[0] * sides[1] * sides[2]) % 2 == 0
            and sides[1] >= 3
            and sides[2] >= 4
        )
        assert classical_closed_tour_condition(sides) == direct, sides
    _report(8, "classical closed-tour criterion matches direct evaluation on "
               "20 random sorted triples", started)


def test_criterion_09_cli_determinism():
    started = time.perf_counter()
    search_args = [
        "search", "--sides", "3,3", "--hole", "1,1", "--target", "closed",
    ]
    construct_args = ["construct", "--k", "8"]
    outputs = []
    for args in (search_args, search_args, construct_args, construct_args):
        proc = subprocess.run(
            [sys.executable, "-m", "eknight.cli", *args],
            capture_output=True,
            check=True,
        )
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1] and outputs[0]
    assert outputs[2] == outputs[3] and outputs[2]
    _report(9, "two runs of search and construct emit byte-identical tour "
               "files", started)
