import itertools
import pickle
import random
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from eknight.board import (
    Board,
    is_knight_move,
    parse_board_text,
    parse_sides,
    parse_vertex,
    serialize_board_text,
    squared_distance,
    taxicab_distance,
)
from eknight.feasibility import color_counts, move_decompositions

from bruteforce import brute_adjacency, random_board


def test_make_board_examples():
    assert Board([3] * 5).vertex_count == 243
    assert Board([3] * 4, holes=[(1, 1, 1, 1)]).vertex_count == 80
    board = Board([2])
    assert board.vertex_count == 2
    assert board.degree_histogram() == {0: 2}


def test_board_rejects_bad_input():
    with pytest.raises(ValueError):
        Board([])
    with pytest.raises(ValueError):
        Board([3, 0])
    with pytest.raises(ValueError):
        Board([3, 3], holes=[(3, 0)])
    with pytest.raises(ValueError):
        Board([3, 3], holes=[(1, 1, 1)])


def test_graph_refuses_a_box_too_large_to_enumerate():
    board = Board([1000] * 5)
    assert board.vertex_count == 10**15
    with pytest.raises(ValueError, match="1000000000000000 cells"):
        board.degree_histogram()
    with pytest.raises(ValueError, match="1000000000000000 cells"):
        list(board.vertices())


def test_vertices_lexicographic_and_skip_holes():
    board = Board([2, 3], holes=[(0, 1)])
    assert list(board.vertices()) == [(0, 0), (0, 2), (1, 0), (1, 1), (1, 2)]
    assert board.vertex_count == 5


def test_index_matches_lexicographic_order():
    board = Board([3, 2, 4])
    cells = list(itertools.product(range(3), range(2), range(4)))
    assert [board.index(v) for v in cells] == list(range(board.box_size))
    for i, v in enumerate(cells):
        assert board.vertex_at(i) == v


def test_is_knight_move_examples():
    assert is_knight_move((1, 0, 2, 0, 1), (2, 0, 2, 2, 1))
    assert is_knight_move((0, 0, 0, 0, 0), (1, 1, 1, 1, 1))
    assert not is_knight_move((0, 0), (1, 1))
    with pytest.raises(ValueError):
        is_knight_move((0, 0), (0, 0, 0))


@given(
    st.tuples(*[st.integers(min_value=-3, max_value=3)] * 5),
    st.tuples(*[st.integers(min_value=-3, max_value=3)] * 5),
)
def test_knight_move_symmetry(a, b):
    assert is_knight_move(a, b) == is_knight_move(b, a)
    assert squared_distance(a, b) == squared_distance(b, a)
    assert taxicab_distance(a, b) == taxicab_distance(b, a)


def test_neighbors_examples():
    assert Board([2] * 5).neighbors((0, 0, 0, 0, 0)) == ((1, 1, 1, 1, 1),)
    assert Board([3] * 4).neighbors((1, 1, 1, 1)) == ()
    board = Board([2] * 6)
    for v in board.vertices():
        assert len(board.neighbors(v)) == 6


def test_neighbors_sorted_never_self():
    board = Board([3, 3, 3])
    for v in board.vertices():
        ns = board.neighbors(v)
        assert list(ns) == sorted(ns)
        assert v not in ns


def test_neighbors_rejects_holes_and_outside():
    board = Board([3, 3], holes=[(1, 1)])
    with pytest.raises(ValueError):
        board.neighbors((1, 1))
    with pytest.raises(ValueError):
        board.neighbors((3, 0))


@pytest.mark.parametrize(
    "board",
    [
        Board([3, 3]),
        Board([2] * 6),
        Board([3, 3, 3], holes=[(1, 1, 1)]),
        Board([2, 3, 4, 1, 2, 3]),
        Board([5, 2, 3, 2, 2, 2], holes=[(0, 0, 0, 0, 0, 0), (4, 1, 2, 1, 1, 1)]),
        Board([3] * 5),
    ],
    ids=["3x3", "2^6", "3^3-center", "2x3x4x1x2x3", "5x2x3x2x2x2-holes", "3^5"],
)
def test_neighbors_match_brute_force(board):
    brute = brute_adjacency(board)
    for v in board.vertices():
        assert list(board.neighbors(v)) == sorted(brute[v])
    assert board.adjacency() == {v: tuple(sorted(ns)) for v, ns in brute.items()}


def test_neighbor_consistency():
    for board in (Board([3, 3]), Board([2] * 6), Board([3, 4], holes=[(0, 0)])):
        adj = board.adjacency()
        for v, ns in adj.items():
            for w in ns:
                assert v in adj[w]


def test_degree_histograms():
    assert Board([2] * 5).degree_histogram() == {1: 32}
    assert Board([2] * 6).degree_histogram() == {6: 64}
    assert Board([3, 3], holes=[(1, 1)]).degree_histogram() == {2: 8}


def test_connectivity_thresholds():
    for k in (2, 3, 4):
        assert not Board([3] * k).is_connected()
    assert Board([3] * 5).is_connected()
    assert Board([3] * 6).is_connected()
    assert not Board([2] * 5).is_connected()
    assert Board([2] * 6).is_connected()
    assert Board([2] * 7).is_connected()


def test_knight_distance_examples():
    board = Board([2] * 6)
    assert board.knight_distance((0, 0, 0, 0, 0, 0), (1, 1, 1, 1, 1, 0)) == 1
    assert board.knight_distance((0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0)) == 0
    assert Board([2] * 5).knight_distance((0, 0, 0, 0, 0), (0, 0, 0, 0, 1)) is None
    with pytest.raises(ValueError):
        board.knight_distance((0, 0, 0, 0, 0, 0), (2, 0, 0, 0, 0, 0))


@pytest.mark.parametrize("board", [Board([3, 3]), Board([2] * 6)], ids=["3x3", "2^6"])
def test_knight_distance_metric_axioms(board):
    verts = list(board.vertices())
    dist = {
        (a, b): board.knight_distance(a, b) for a in verts for b in verts
    }
    for a in verts:
        assert dist[a, a] == 0
        for b in verts:
            assert dist[a, b] == dist[b, a]
            if a != b and dist[a, b] == 0:
                pytest.fail("distinct vertices at distance 0")
    for a, b in itertools.combinations(verts, 2):
        if dist[a, b] is None:
            continue
        for c in verts:
            if dist[a, c] is not None and dist[c, b] is not None:
                assert dist[a, b] <= dist[a, c] + dist[c, b]


def _brute_distances(adj, source):
    """Jump counts from source to every vertex it reaches, by plain BFS."""
    dist = {source: 0}
    frontier = [source]
    while frontier:
        nxt = []
        for v in frontier:
            for w in adj[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    nxt.append(w)
        frontier = nxt
    return dist


def test_board_queries_match_brute_force():
    rng = random.Random(2468)
    for _ in range(60):
        board = random_board(rng)
        brute = brute_adjacency(board)
        verts = list(brute)
        for a in verts:
            dist = _brute_distances(brute, a)
            for b in verts:
                assert board.knight_distance(a, b) == dist.get(b), (board, a, b)
        reached = _brute_distances(brute, verts[0])
        assert board.is_connected() == (len(reached) == len(verts)), board
        degrees = Counter(len(ns) for ns in brute.values())
        assert board.degree_histogram() == dict(sorted(degrees.items())), board
        dark = sum(1 for v in verts if sum(v) % 2 == 0)
        assert color_counts(board) == (dark, len(verts) - dark), board


def test_move_changes_match_decompositions():
    # every edge's nonzero |coordinate change| multiset is a legal decomposition
    for board in (Board([3, 3]), Board([3] * 5)):
        allowed = move_decompositions(board.dimension)
        for v in board.vertices():
            for w in board.neighbors(v):
                changes = tuple(
                    sorted((abs(x - y) for x, y in zip(v, w) if x != y), reverse=True)
                )
                assert changes in allowed


def test_move_lengths():
    source, target = (1, 0, 2, 0, 1), (2, 0, 2, 2, 1)
    assert squared_distance(source, target) == 5
    assert taxicab_distance(source, target) == 3
    assert is_knight_move(source, target)
    assert not is_knight_move((0, 0), (1, 1))


def test_contains_and_require():
    board = Board([3, 3], holes=[(1, 1)])
    assert board.contains((0, 0))
    assert not board.contains((1, 1))
    with pytest.raises(ValueError):
        board.contains((0, 0, 0))


def test_board_equality_and_pickle():
    a = Board([3, 3], holes=[(1, 1)])
    b = Board((3, 3), holes=[[1, 1]])
    assert a == b and hash(a) == hash(b)
    assert a != Board([3, 3])
    a._index_graph()  # populate the graph cache, then make sure pickling drops it
    a._dark_mask()
    assert a._cache
    c = pickle.loads(pickle.dumps(a))
    assert c == a
    assert not c._cache
    assert c.degree_histogram() == a.degree_histogram()


def test_parse_helpers():
    assert parse_sides("3 x 3 x 2") == (3, 3, 2)
    assert parse_vertex(" 1, 2 ,3 ") == (1, 2, 3)
    with pytest.raises(ValueError):
        parse_sides("3 x x 2")
    with pytest.raises(ValueError):
        parse_vertex("1,,2")


def test_board_text_round_trip():
    board = Board([3, 3, 3], holes=[(1, 1, 1), (0, 0, 0)])
    text = serialize_board_text(board)
    assert text == "3 x 3 x 3\nhole: 0,0,0\nhole: 1,1,1\n"
    assert parse_board_text(text) == board
    assert parse_board_text("# comment\n\n2 x 2\n") == Board([2, 2])
    with pytest.raises(ValueError, match="line 3"):
        parse_board_text("3 x 3\nhole: 1,1\nhole: 9,9\n")
    with pytest.raises(ValueError):
        parse_board_text("# nothing\n")
