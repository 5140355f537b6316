import itertools
import math

import pytest

from eknight.board import Board, _bits
from eknight.feasibility import (
    _outer_layers,
    Color,
    classical_closed_tour_condition,
    closed_tour_necessary,
    color,
    color_counts,
    move_decompositions,
    open_tour_necessary,
)
from eknight.tour import TourKind

from bruteforce import tour_exists


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


def _side_four_boxes(max_cells: int, max_axes: int) -> list[tuple[int, ...]]:
    """Every box of 1..max_axes axes and at most max_cells cells with a side 4."""
    def boxes(cap, axes):
        yield ()
        if axes:
            for s in range(1, cap + 1):
                for rest in boxes(cap // s, axes - 1):
                    yield (s, *rest)

    return [sides for sides in boxes(max_cells, max_axes) if 4 in sides]


def test_outer_layers_are_independent_exactly_when_the_sides_say_so():
    # the side-based check against the graph: no cell of the two layers has a
    # neighbour in them.  Diagonal5 moves need 2^5 x 4, beyond 64 cells
    boxes = _side_four_boxes(64, 5) + [(2, 2, 2, 2, 2, 4)]
    independent = dependent = 0
    for sides in boxes:
        board = Board(sides)
        _, masks, _ = board._index_graph()
        for axis, side in enumerate(sides):
            if side != 4:
                assert _outer_layers(board, axis) is None
                continue
            layers = sum(1 << board.index(v) for v in board.vertices() if v[axis] in (0, 3))
            got = _outer_layers(board, axis)
            if all(masks[u] & layers == 0 for u in _bits(layers)):
                assert got == layers, (sides, axis)
                independent += 1
            else:
                assert got is None, (sides, axis)
                dependent += 1
    assert len(boxes) > 1000 and independent > 100 and dependent > 100


def test_outer_layer_refusals_have_no_closed_tour():
    # every box of at most 14 cells with a side-4 axis, and every hole set of
    # those without a side 1; the rule alone must refuse some
    boxes = _side_four_boxes(14, 4)
    boards = [Board(sides) for sides in boxes]
    for sides in (s for s in boxes if 1 not in s):
        cells = list(itertools.product(*(range(s) for s in sides)))
        for count in range(1, len(cells) - 2):
            boards += [Board(sides, holes) for holes in itertools.combinations(cells, count)]
    refused = alone = 0
    for board in boards:
        reasons = closed_tour_necessary(board).reasons
        if any(r.startswith("outer layers of axis") for r in reasons):
            assert not tour_exists(board, TourKind.CLOSED), board
            refused += 1
            alone += len(reasons) == 1
    assert refused > 1000 and alone >= 10, (refused, alone)


def test_outer_layers_of_one_color_do_not_refuse():
    # 6 cells, 3 of them in the outer layers, all light: the cycle
    # (0,1) (2,0) (3,2) (1,1) (3,0) (2,2) alternates them with the rest
    board = Board([4, 3], holes=[(0, 0), (0, 2), (1, 0), (1, 2), (2, 1), (3, 1)])
    assert _outer_layers(board, 0).bit_count() * 2 == board.vertex_count
    assert closed_tour_necessary(board).feasible
    assert tour_exists(board, TourKind.CLOSED)


def test_outer_layers_refuse_four_by_n_and_two_to_the_four_by_four():
    verdict = closed_tour_necessary(Board([4, 9]))
    assert verdict.reasons == (
        "outer layers of axis 0 (side 4): 18 of 36 cells, no two adjacent, 9 dark and 9 light",
    )
    verdict = closed_tour_necessary(Board([2, 2, 2, 2, 4]))
    assert verdict.reasons == (
        "outer layers of axis 4 (side 4): 32 of 64 cells, no two adjacent, 16 dark and 16 light",
    )
    # more than half the cells: the two holes lie in the inner layers
    verdict = closed_tour_necessary(Board([3, 4], holes=[(0, 1), (1, 2)]))
    assert verdict.reasons[-1] == (
        "outer layers of axis 1 (side 4): 6 of 10 cells, no two adjacent, 3 dark and 3 light"
    )
    # a knight move inside the layers: 4 x 3 x 2 has a closed tour
    assert _outer_layers(Board([4, 3, 2]), 0) is None
    assert closed_tour_necessary(Board([4, 3, 2])).feasible
    # open tours may hold half their cells in both colors
    assert open_tour_necessary(Board([4, 3])).feasible


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
