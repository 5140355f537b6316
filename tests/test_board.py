import copy
import hashlib
import itertools
import pickle
import random
import subprocess
import sys
from collections import Counter
from collections.abc import Iterator

import pytest
from hypothesis import given, strategies as st

from eknight.board import (
    _MAX_GRAPH_BYTES,
    _WIDE_MASK,
    Board,
    _bits,
    _graph_bytes,
    is_knight_move,
    parse_board_text,
    parse_sides,
    parse_vertex,
    serialize_board_text,
    squared_distance,
    taxicab_distance,
)
from eknight.corpus import CorpusEntry
from eknight.feasibility import FeasibilityVerdict, color_counts, move_decompositions
from eknight.search import SearchConfig, SearchOutcome, SearchStatus
from eknight.tour import Tour, TourKind, VerificationReport, Violation

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
    # a hole is checked as a 'hole:' line is
    with pytest.raises(ValueError, match=r"^hole \(3, 0\) lies outside the board$"):
        Board([3, 3], holes=[(3, 0)])
    with pytest.raises(ValueError, match=r"^hole \(1, 1, 1\) has 3 coordinates, board has 2$"):
        Board([3, 3], holes=[(1, 1, 1)])
    # in_box's rule: a number counts only when operator.index accepts it, so
    # nothing is truncated or read from text
    with pytest.raises(ValueError, match="^sides must be integers"):
        Board([2.7, 3])
    with pytest.raises(ValueError, match="^sides must be integers"):
        Board(["3", " 3"])
    with pytest.raises(ValueError, match=r"^hole \(0\.5, 1\) lies outside the board$"):
        Board([3, 3], holes=[(0.5, 1)])
    board = Board([True, 3], holes=[(0, True)])
    assert serialize_board_text(board) == "1 x 3\nhole: 0,1\n"


def test_graph_refuses_a_box_too_large_to_enumerate():
    board = Board([1000] * 5)
    assert board.vertex_count == 10**15
    with pytest.raises(ValueError, match="1000000000000000 cells"):
        board.degree_histogram()
    with pytest.raises(ValueError, match="1000000000000000 cells"):
        list(board.vertices())


def test_graph_refuses_a_graph_too_large_to_build():
    # both boxes pass the cell guard but their graph builds do not fit
    for sides in ([1000, 1000], [2] * 16):
        board = Board(sides)
        assert _graph_bytes(board.sides) > _MAX_GRAPH_BYTES
        with pytest.raises(ValueError, match="knight graph .* would take about"):
            board.is_connected()
    for sides in ([3] * 9, [2] * 14, [3] * 10, [2] * 15):
        assert _graph_bytes(tuple(sides)) <= _MAX_GRAPH_BYTES


_PEAK_SCRIPT = """
import tracemalloc
from eknight.board import Board, _graph_bytes
for sides, holes in {boards!r}:
    tracemalloc.start()
    Board(sides, holes)._index_graph()
    peak, bound = tracemalloc.get_traced_memory()[1], _graph_bytes(tuple(sides))
    tracemalloc.stop()
    print(peak, bound)
    if peak > bound:  # stop before a larger board's build grows further
        break
"""


def test_graph_bytes_bounds_the_build():
    # in a fresh interpreter, so that no graph built by another test counts;
    # a graph that stored neighbour tuples beside its masks would exceed the
    # bound, so the boards run smallest first
    boards = [
        ([3] * 7, []),
        ([2] * 12, []),
        ([20] * 3, []),
        ([3] * 8, []),
        ([3] * 8, [(1,) * 8]),
        ([6] * 5, []),
        ([2] * 14, []),
    ]
    script = _PEAK_SCRIPT.format(boards=boards)
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    for board, line in zip(boards, lines):
        peak, bound = map(int, line.split())
        assert peak <= bound, (board, peak, bound)
    assert len(lines) == len(boards)


def _brute_index_graph(board):
    """The index-graph triple rebuilt from coordinate arithmetic alone."""
    brute = brute_adjacency(board)
    nbrs = [()] * board.box_size
    masks = [0] * board.box_size
    full = 0
    for v, ws in brute.items():
        i = board.index(v)
        nbrs[i] = tuple(sorted(board.index(w) for w in ws))
        masks[i] = sum(1 << j for j in nbrs[i])
        full |= 1 << i
    return nbrs, masks, full


def test_index_graph_matches_brute_force():
    boards = [
        Board([5, 5]),
        Board([6, 5, 2]),
        Board([5, 1, 5]),
        Board([1, 7]),
        Board([1]),
        Board([2] * 5),
        Board([2, 2, 3, 2, 2, 2]),
        Board([3, 2, 2, 2, 2, 2, 2]),
        Board([3, 3, 2, 2, 3]),
        Board([5, 5], holes=[(0, 0), (2, 2), (4, 4)]),
        Board([3, 3, 3], holes=[(0, 0, 0), (1, 1, 1)]),
        Board([2, 3, 2, 2, 2, 1], holes=[(1, 2, 1, 1, 1, 0), (0, 1, 0, 1, 0, 0)]),
        Board([6, 6], holes=[(5, 5), (2, 3)]),
    ]
    rng = random.Random(1357)
    boards += [random_board(rng, max_vertices=16) for _ in range(60)]
    for board in boards:
        rows, masks, full = board._index_graph()
        assert (list(rows), masks, full) == _brute_index_graph(board), board


def _graph_sha256(graph) -> str:
    rows, masks, full = graph
    digest = hashlib.sha256(repr(list(rows)).encode())
    digest.update(repr(masks).encode())
    digest.update(repr(full).encode())
    return digest.hexdigest()


@pytest.mark.parametrize(
    "sides, sha256",
    [
        ([3] * 6, "9e6d39ad4cd3a1e24086a2ef267c63faa5b34927fd416acffc79ea03687a1828"),
        ([3] * 7, "67d5262d16462117eefa71246e94897b8e3561039410b63b65c8b75598f190bb"),
        ([2] * 10, "3d3d2c145d80f3debe598b594a2fc7de5b59ea49baa49507013e8e18811e634b"),
        ([2] * 11, "7886435e1db222d290ee7b0de67512e8f5002ea3ea456a28c098ab93f2968898"),
    ],
    ids=["3^6", "3^7", "2^10", "2^11"],
)
def test_index_graph_is_pinned(sides, sha256):
    # digests of the per-cell enumeration the axis-by-axis build replaced
    assert _graph_sha256(Board(sides)._index_graph()) == sha256


def _entry_count(sides: tuple[int, ...]) -> int:
    """Neighbour entries of the hole-free box: ordered cell pairs 5 apart.

    An axis of side s holds s ordered coordinate pairs at squared distance 0,
    2(s - 1) at 1 and 2(s - 2) at 4, so the count is the x^5 coefficient of
    the product over the axes of s + 2(s - 1)x + 2(s - 2)x^4.
    """
    pairs = [1, 0, 0, 0, 0, 0]  # pairs[t]: ordered pairs at squared distance t
    for s in sides:
        axis = ((0, s), (1, 2 * (s - 1)), (4, max(0, 2 * (s - 2))))
        pairs = [sum(pairs[t - sq] * ways for sq, ways in axis if sq <= t) for t in range(6)]
    return pairs[5]


def test_entry_count_matches_built_graph():
    # the pair-count polynomial is an independent count of the composed masks
    rng = random.Random(97531)
    for _ in range(40):
        sides = tuple(rng.randint(1, 5) for _ in range(rng.randint(1, 7)))
        board = Board(sides)
        if board.box_size > 3000:
            continue
        _, masks, _ = board._index_graph()
        assert _entry_count(sides) == sum(m.bit_count() for m in masks), sides


def test_dark_mask_matches_per_cell_parity():
    boards = [
        Board([1]),
        Board([1, 1, 1]),
        Board([1, 7]),
        Board([7, 1]),
        Board([2, 1, 3, 1]),
        Board([5, 5], holes=[(0, 0), (2, 3), (4, 4)]),
        Board([3, 1, 3], holes=[(1, 0, 1), (0, 0, 1)]),
        Board([2] * 6, holes=[(0,) * 6, (1, 0, 0, 0, 0, 0)]),
        Board([9, 2, 5]),
    ]
    rng = random.Random(8642)
    boards += [random_board(rng, max_vertices=16) for _ in range(60)]
    for board in boards:
        brute = 0
        for i, v in enumerate(itertools.product(*(range(s) for s in board.sides))):
            if sum(v) % 2 == 0 and v not in board.holes:
                brute |= 1 << i
        assert board._dark_mask() == brute, board
    # a million cells, composed in well under a second
    assert Board([1000, 1000])._dark_mask().bit_count() == 500_000


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
    for i in (-1, board.box_size):
        message = rf"^index {i} out of range for Board\(3 x 2 x 4, holes=0\)$"
        with pytest.raises(ValueError, match=message):
            board.vertex_at(i)


def _set_bits(mask: int) -> list[int]:
    """The oracle for `_bits`: every index below the mask's width whose bit is set."""
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


@pytest.mark.parametrize(
    "mask",
    [
        0,
        1,
        1 << 3**8 - 1,
        # all ones just below, at and just above the width where the decode switches
        (1 << _WIDE_MASK - 1) - 1,
        (1 << _WIDE_MASK) - 1,
        (1 << _WIDE_MASK + 1) - 1,
        1 << _WIDE_MASK | 1,
        (1 << 3**8) - 1,
    ],
    ids=["0", "1", "high bit", "ones below", "ones at", "ones above", "ends above", "ones 3^8"],
)
def test_bits_of_edge_masks(mask):
    assert list(_bits(mask)) == _set_bits(mask)


# widths drawn toward both ends of 0..3^8, every bit set with probability 1/2
@given(
    st.one_of(st.integers(0, 3**8), st.integers(0, 3**8).map(lambda w: 3**8 - w)),
    st.randoms(use_true_random=False),
)
def test_bits_of_dense_masks(width, rng):
    mask = rng.getrandbits(width)
    assert list(_bits(mask)) == _set_bits(mask)


@given(st.frozensets(st.integers(0, 3**8 - 1), max_size=64))
def test_bits_of_sparse_masks(cells):
    mask = sum(1 << i for i in cells)
    assert list(_bits(mask)) == _set_bits(mask) == sorted(cells)


def test_bits_are_found_lazily():
    # callers take the first bit with next, a prefix with islice, or walk the
    # bits while a search runs, so both decodes yield each index as they find it
    assert isinstance(_bits(1), Iterator)
    assert next(_bits(1 << 5000 | 1)) == 0
    assert list(itertools.islice(_bits((1 << 3**8) - 1), 3)) == [0, 1, 2]
    assert list(itertools.islice(_bits(0b1011 << 4000 | 1 << 6000), 4)) == [4000, 4001, 4003, 6000]


@pytest.mark.parametrize(
    "board",
    [Board([3] * 6, holes=[(1,) * 6]), Board([2] * 9), Board([4, 5, 3, 6], holes=[(3, 4, 2, 5)])],
    ids=["3^6 less its centre", "2^9", "4x5x3x6 less a corner"],
)
def test_rows_decode_each_mask(board):
    rows, masks, _ = board._index_graph()
    assert list(rows) == [tuple(_set_bits(m)) for m in masks]


@pytest.mark.parametrize(
    "board",
    [Board([2, 3, 4], holes=[(0, 1, 2), (1, 2, 3)]), Board([3] * 7, holes=[(1,) * 7])],
    ids=["2x3x4 less two cells", "3^7 less its centre"],
)
def test_vertices_at_is_vertex_at(board):
    # a search's index path becomes its tour's vertices here, in path order
    every = list(range(board.box_size))
    random.Random(board.box_size).shuffle(every)
    assert board._vertices_at(every) == tuple(map(board.vertex_at, every))
    assert board._vertices_at([]) == ()


def test_is_knight_move_examples():
    assert is_knight_move((1, 0, 2, 0, 1), (2, 0, 2, 2, 1))
    assert is_knight_move((0, 0, 0, 0, 0), (1, 1, 1, 1, 1))
    assert not is_knight_move((0, 0), (1, 1))
    with pytest.raises(ValueError):
        is_knight_move((0, 0), (0, 0, 0))
    with pytest.raises(ValueError, match="^dimension mismatch: 2-tuple vs 3-tuple$"):
        taxicab_distance((0, 0), (0, 0, 0))


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


def test_degree_histogram_returns_a_copy():
    board = Board([3, 3], holes=[(1, 1)])
    histogram = board.degree_histogram()
    histogram[2] = 0
    histogram[7] = 1
    assert board.degree_histogram() == {2: 8}


def test_connectivity_thresholds():
    for k in (2, 3, 4):
        assert not Board([3] * k).is_connected()
    assert Board([3] * 5).is_connected()
    assert Board([3] * 6).is_connected()
    assert not Board([2] * 5).is_connected()
    assert Board([2] * 6).is_connected()
    assert Board([2] * 7).is_connected()
    with pytest.raises(ValueError, match="^board has no vertices$"):
        Board([2, 1], holes=[(0, 0), (1, 0)]).is_connected()


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
    # a coordinate is an integer when operator.index accepts it, whatever its value
    board = Board([2] * 6)
    assert not board.contains((0.5, 0, 0, 0, 0, 0))
    assert not board.contains((0.0, 0, 0, 0, 0, 0))
    assert board.contains((True, 0, 0, 0, 0, 0))
    with pytest.raises(ValueError, match="lies outside the board"):
        board.neighbors((0.0, 0, 0, 0, 0, 0))


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


def test_records_behave_as_frozen_dataclasses():
    # each record keeps the fields, in order, and the repr a frozen dataclass printed
    board, vertices = Board([1, 1]), ((0, 0),)
    tour = Tour(board, TourKind.OPEN, vertices)
    tour_repr = (
        "Tour(board=Board(1 x 1, holes=0), kind=<TourKind.OPEN: 'open'>, vertices=((0, 0),))"
    )
    cases = [
        (Violation(0, "x"), "index description", "Violation(index=0, description='x')"),
        (
            VerificationReport(False, (Violation(0, "x"),), 0, {}, 1, 0),
            "valid violations endpoint_squared_distance move_taxicab_counts entry_count link_count",
            "VerificationReport(valid=False, violations=(Violation(index=0, description='x'),), "
            "endpoint_squared_distance=0, move_taxicab_counts={}, entry_count=1, link_count=0)",
        ),
        (tour, "board kind vertices", tour_repr),
        (
            SearchConfig(),
            "target start use_warnsdorff node_budget deterministic parallel_width "
            "use_feasibility_precheck",
            "SearchConfig(target=<TourKind.OPEN: 'open'>, start=None, use_warnsdorff=True, "
            "node_budget=None, deterministic=True, parallel_width=0, "
            "use_feasibility_precheck=True)",
        ),
        (
            SearchOutcome(SearchStatus.FOUND, tour, 1, 1),
            "status tour nodes_expanded max_depth_reached",
            f"SearchOutcome(status=<SearchStatus.FOUND: 'found'>, tour={tour_repr}, "
            "nodes_expanded=1, max_depth_reached=1)",
        ),
        (
            FeasibilityVerdict(True, ()),
            "feasible reasons notes",
            "FeasibilityVerdict(feasible=True, reasons=(), notes=())",
        ),
        (
            CorpusEntry("X", board, TourKind.OPEN, vertices, "p"),
            "id board kind vertices provenance",
            "CorpusEntry(id='X', board=Board(1 x 1, holes=0), kind=<TourKind.OPEN: 'open'>, "
            "vertices=((0, 0),), provenance='p')",
        ),
    ]
    for record, fields, text in cases:
        assert repr(record) == text
        fields = fields.split()
        assert list(vars(record)) == fields, text
        values = tuple(vars(record).values())
        twin = type(record)(*values)
        assert twin == record and not twin != record
        if isinstance(record, VerificationReport):  # a dict field: unhashable, as before
            with pytest.raises(TypeError):
                hash(record)
        else:
            assert hash(twin) == hash(record) == hash(values)
        # equal only to its own class: not to a subclass, nor to its field tuple
        assert type("Sub", (type(record),), {})(*values) != record
        assert record != values
        for name in (fields[0], "other"):
            with pytest.raises(AttributeError):
                setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, fields[0])
        assert pickle.loads(pickle.dumps(record)) == record
        assert copy.copy(record) == record and copy.deepcopy(record) == record
    # a changed copy comes from the constructor
    changed = SearchConfig(**{**vars(SearchConfig()), "node_budget": 5})
    assert changed.node_budget == 5 and changed != SearchConfig()


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
