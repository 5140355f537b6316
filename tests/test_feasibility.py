import itertools

import pytest

from eknight.board import Board
from eknight.feasibility import (
    Color,
    classical_closed_tour_condition,
    closed_tour_necessary,
    color,
    color_counts,
    move_decompositions,
    open_tour_necessary,
)


def test_color_examples():
    assert color((1, 0, 2, 0, 1)) is Color.DARK
    assert color((0, 0, 0, 0, 0)) is Color.DARK
    assert color((1, 0, 0, 0, 0)) is Color.LIGHT


def test_color_counts():
    assert color_counts(Board([3] * 5)) == (122, 121)
    assert color_counts(Board([2] * 6)) == (32, 32)
    assert color_counts(Board([3] * 4, holes=[(1, 1, 1, 1)])) == (40, 40)


def test_color_counts_odd_side_majority():
    # odd cell counts put the surplus on dark
    for k in (2, 3, 4, 5):
        dark, light = color_counts(Board([3] * k))
        assert dark == light + 1
    dark, light = color_counts(Board([5, 5]))
    assert dark == light + 1


def test_color_counts_refuses_a_box_too_large_to_enumerate():
    with pytest.raises(ValueError, match="1000000000000000 cells"):
        color_counts(Board([1000] * 5))


def test_move_decompositions():
    assert move_decompositions(1) == set()
    assert move_decompositions(2) == {(2, 1)}
    assert move_decompositions(4) == {(2, 1)}
    assert move_decompositions(5) == {(2, 1), (1, 1, 1, 1, 1)}
    assert move_decompositions(9) == {(2, 1), (1, 1, 1, 1, 1)}
    # independent enumeration: every displacement in {-2..2}^k of squared length 5
    for k in range(1, 8):
        derived = {
            tuple(sorted((abs(x) for x in d if x), reverse=True))
            for d in itertools.product(range(-2, 3), repeat=k)
            if sum(x * x for x in d) == 5
        }
        assert move_decompositions(k) == derived, k
    assert move_decompositions(5) is not move_decompositions(5)
    with pytest.raises(ValueError, match="dimension must be >= 1, got 0"):
        move_decompositions(0)


def test_closed_tour_necessary_odd_boards():
    for k in range(2, 7):
        verdict = closed_tour_necessary(Board([3] * k))
        assert not verdict.feasible
        assert any("odd vertex count" in r for r in verdict.reasons)


def test_closed_tour_necessary_hypercubes():
    verdict = closed_tour_necessary(Board([2] * 6))
    assert verdict.feasible and verdict.reasons == ()
    verdict = closed_tour_necessary(Board([2] * 5))
    assert not verdict.feasible
    assert "min degree 1 < 2" in verdict.reasons
    assert "disconnected" in verdict.reasons


def test_closed_tour_necessary_tiny():
    verdict = closed_tour_necessary(Board([3, 3], holes=[(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2), (2, 0)]))
    assert not verdict.feasible
    assert any("fewer than 3 vertices" in r for r in verdict.reasons)


def test_open_tour_necessary():
    verdict = open_tour_necessary(Board([3] * 5))
    assert verdict.feasible
    assert verdict.notes == ("both endpoints must be dark (majority color)",)

    verdict = open_tour_necessary(Board([3] * 4))
    assert not verdict.feasible
    assert "disconnected" in verdict.reasons

    verdict = open_tour_necessary(Board([2] * 5))
    assert not verdict.feasible
    assert "32 vertices of degree 1 (at most 2 allowed)" in verdict.reasons


def test_open_tour_necessary_imbalance():
    verdict = open_tour_necessary(Board([3, 3, 3], holes=[(1, 1, 1)]))
    assert not verdict.feasible
    assert any("imbalance exceeds 1" in r for r in verdict.reasons)


def test_feasible_verdict_shape():
    verdict = open_tour_necessary(Board([2, 2]))
    # 2x2 has no moves at all: 4 isolated cells
    assert not verdict.feasible
    assert verdict.feasible == (verdict.reasons == ())


def test_single_vertex_board():
    board = Board([1])
    assert open_tour_necessary(board).feasible
    assert not closed_tour_necessary(board).feasible


def test_empty_board():
    board = Board([1], holes=[(0,)])
    assert open_tour_necessary(board).reasons == ("no vertices",)
    assert closed_tour_necessary(board).reasons == ("no vertices",)


def test_alternation_on_all_edges():
    for board in (Board([3] * 5), Board([2] * 6)):
        for v, ns in board.adjacency().items():
            for w in ns:
                assert color(v) is not color(w)


def test_taxicab_dichotomy():
    # every knight move has taxicab length 3 or 5; 5 needs dimension >= 5
    seen = set()
    board = Board([3] * 5)
    for v, ns in board.adjacency().items():
        for w in ns:
            t = sum(abs(x - y) for x, y in zip(v, w))
            seen.add(t)
    assert seen == {3, 5}
    planar = set()
    board = Board([3, 3])
    for v, ns in board.adjacency().items():
        for w in ns:
            planar.add(sum(abs(x - y) for x, y in zip(v, w)))
    assert planar == {3}


def test_classical_condition_examples():
    assert classical_closed_tour_condition((2, 2, 2, 2, 2, 2)) is False
    assert classical_closed_tour_condition((2, 3, 4)) is True
    assert classical_closed_tour_condition((3, 3, 4)) is True
    assert classical_closed_tour_condition((3, 3, 3)) is False
    assert classical_closed_tour_condition((4, 3, 2)) is True  # sorts defensively
    with pytest.raises(ValueError):
        classical_closed_tour_condition((3, 4))
    with pytest.raises(ValueError):
        classical_closed_tour_condition((1, 3, 4))
    # int() would read these as (2, 3, 4), which has a closed tour
    with pytest.raises(ValueError, match="^sides must be integers"):
        classical_closed_tour_condition([2.5, 3, 4.9])


def test_classical_condition_matches_direct_evaluation():
    import random

    rng = random.Random(20260809)
    for _ in range(20):
        sides = sorted(rng.randint(2, 6) for _ in range(3))
        product = sides[0] * sides[1] * sides[2]
        expected = product % 2 == 0 and sides[1] >= 3 and sides[2] >= 4
        assert classical_closed_tour_condition(sides) == expected
