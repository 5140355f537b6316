import itertools
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from eknight import corpus
import eknight.tour
from eknight._packed import _LANE_AXES, _packed_checks
from eknight.board import Board, parse_board_text
from eknight.construct import closed_tour_on_hypercube, extend_closed_tour
from eknight.feasibility import color
from eknight.search import SearchConfig, find_tour, longest_path
from eknight.tour import (
    MoveKind,
    Tour,
    TourKind,
    TourParseError,
    VerificationReport,
    Violation,
    _checked,
    classify_move,
    parse_tour,
    serialize_tour,
    verify,
)

from bruteforce import reference_parse_tour, reference_serialize_tour, reference_verify


def test_classify_move_examples():
    assert classify_move((0, 2, 0, 0, 0), (1, 1, 1, 1, 1)) is MoveKind.DIAGONAL5
    assert classify_move((1, 0, 2, 0, 1), (2, 0, 2, 2, 1)) is MoveKind.L_MOVE
    assert classify_move((0, 0, 0, 0, 0, 0), (1, 1, 1, 1, 1, 0)) is MoveKind.DIAGONAL5
    with pytest.raises(ValueError):
        classify_move((0, 0), (1, 1))


def test_verify_open_tour():
    entry = corpus.get(corpus.PO_3_5)
    report = verify(entry.board, entry.vertices, TourKind.OPEN)
    assert report.valid
    assert report.link_count == 242
    assert report.endpoint_squared_distance == 4
    assert report.move_taxicab_counts == {3: 240, 5: 2}


def test_verify_detects_swapped_entries():
    entry = corpus.get(corpus.PO_3_5)
    vertices = list(entry.vertices)
    vertices[100], vertices[101] = vertices[101], vertices[100]
    report = verify(entry.board, vertices, TourKind.OPEN)
    assert not report.valid
    assert report.first_violation.index == 99
    assert "squared length" in report.first_violation.description


def test_closed_tour_is_valid_open_tour_without_closure():
    entry = corpus.get(corpus.PC_2_6)
    assert verify(entry.board, entry.vertices, TourKind.CLOSED).valid
    assert verify(entry.board, entry.vertices, TourKind.OPEN).valid


def test_color_alternation_along_corpus_tours():
    for entry_id in corpus.ids():
        entry = corpus.get(entry_id)
        colors = [color(v) for v in entry.vertices]
        assert all(a is not b for a, b in zip(colors, colors[1:])), entry_id


def test_verify_membership_violations():
    board = Board([3, 3], holes=[(1, 1)])
    report = verify(board, [(0, 0), (1, 1)], TourKind.PATH)
    assert not report.valid
    assert report.first_violation == report.violations[0]
    assert report.first_violation.index == 1
    assert "removed cell" in report.first_violation.description

    report = verify(board, [(0, 0), (5, 5)], TourKind.PATH)
    assert "outside the board" in report.first_violation.description


def test_verify_domain_errors_are_not_reports():
    board = Board([3, 3])
    with pytest.raises(ValueError):
        verify(board, [], TourKind.OPEN)
    with pytest.raises(ValueError):
        verify(board, [(0, 0, 0)], TourKind.OPEN)


def test_verify_refuses_a_claim_that_is_no_tour_kind():
    # a string claim used to skip every kind check, so an open tour passed
    # as a closed one
    board = Board([3, 4])
    vertices = find_tour(board, SearchConfig()).tour.vertices
    assert not verify(board, vertices, TourKind.CLOSED).valid
    for claimed in ("closed", "open", None):
        with pytest.raises(ValueError, match="^claimed kind must be a TourKind"):
            verify(board, vertices, claimed)
    tour = Tour(board, "closed", vertices)
    for check in (tour.report, lambda: _checked(tour)):
        with pytest.raises(ValueError, match="^claimed kind must be a TourKind"):
            check()


def test_verify_coverage_and_duplicates():
    board = Board([3, 3], holes=[(1, 1)])
    cycle = corpus.get(corpus.PC_3_2_HOLE).vertices
    report = verify(board, cycle[:-1], TourKind.OPEN)
    assert not report.valid
    assert "7 entries for 8 board vertices" in report.first_violation.description

    # stepping back along the last link keeps every move legal
    duplicated = list(cycle) + [cycle[-2]]
    report = verify(board, duplicated, TourKind.OPEN)
    assert not report.valid
    assert "visited more than once" in report.first_violation.description
    assert report.first_violation.index == 8


def test_verify_closed_requirements():
    board = Board([3, 3], holes=[(1, 1)])
    cycle = list(corpus.get(corpus.PC_3_2_HOLE).vertices)
    assert verify(board, cycle, TourKind.CLOSED).valid
    # rotate so the closing link breaks: start mid-cycle, end non-adjacent
    report = verify(board, cycle[1:] + cycle[:1], TourKind.CLOSED)
    assert report.valid  # rotation keeps the cycle closed
    report = verify(board, list(reversed(cycle)), TourKind.CLOSED)
    assert report.valid
    # a genuine break: swap two interior entries
    broken = cycle.copy()
    broken[2], broken[5] = broken[5], broken[2]
    assert not verify(board, broken, TourKind.CLOSED).valid


def test_verify_closed_needs_three_vertices():
    board = Board([3, 3], holes=[(0, 1), (0, 2), (1, 0), (1, 1), (1, 2), (2, 0), (2, 2)])
    # remaining cells (0,0) and (2,1) are knight-adjacent
    report = verify(board, [(0, 0), (2, 1)], TourKind.CLOSED)
    assert not report.valid
    assert any("at least 3 vertices" in v.description for v in report.violations)


def test_verify_near_closed():
    entry = corpus.get(corpus.NEAR_CLOSED_3_5)
    report = verify(entry.board, entry.vertices, TourKind.NEAR_CLOSED)
    assert report.valid
    assert report.link_count == 244

    # dropping the final entry keeps all links legal but loses the return
    report = verify(entry.board, list(entry.vertices)[:-1], TourKind.NEAR_CLOSED)
    assert not report.valid
    assert "does not return" in report.first_violation.description

    # doubling the start instead of an interior vertex
    cyc = list(corpus.get(corpus.PO_3_5).vertices)
    bad = cyc + [cyc[0], cyc[0]]
    report = verify(entry.board, bad, TourKind.NEAR_CLOSED, all_violations=True)
    assert not report.valid
    assert any("revisited before the final return" in v.description for v in report.violations)


def test_verify_always_reports_diagnostics():
    board = Board([3, 3])
    report = verify(board, [(0, 0), (2, 2), (0, 0)], TourKind.PATH)
    assert not report.valid
    assert report.endpoint_squared_distance == 0
    assert sum(report.move_taxicab_counts.values()) == 2


def test_all_violations_mode():
    board = Board([3, 3])
    vertices = [(0, 0), (0, 1), (0, 1)]
    first_only = verify(board, vertices, TourKind.OPEN)
    every = verify(board, vertices, TourKind.OPEN, all_violations=True)
    assert len(first_only.violations) == 1
    assert len(every.violations) > 1
    assert first_only.first_violation == every.first_violation


def test_path_kind_skips_coverage():
    board = Board([3, 3, 3], holes=[(1, 1, 1)])
    chain = corpus.get(corpus.PBAR_3_3_TWO_HOLES).vertices
    assert verify(board, chain, TourKind.PATH).valid
    assert not verify(board, chain, TourKind.OPEN).valid


def test_parse_tour_errors():
    with pytest.raises(TourParseError, match="board"):
        parse_tour("kind: open\n0,0\n")
    with pytest.raises(TourParseError, match="kind"):
        parse_tour("board: 3 x 3\n")
    with pytest.raises(TourParseError, match="no vertices"):
        parse_tour("board: 3 x 3\nkind: open\n")
    with pytest.raises(TourParseError, match="line 4"):
        parse_tour("board: 3 x 3 x 3 x 3 x 3\nkind: open\n0,0,0,0,0\n1,1,1,1\n")
    with pytest.raises(TourParseError, match="unknown tour kind"):
        parse_tour("board: 3 x 3\nkind: loop\n0,0\n")
    with pytest.raises(TourParseError, match="line 2"):
        parse_tour("board: 3 x 3\nhole: 4,4\nkind: open\n0,0\n")
    exc = None
    try:
        parse_tour("board: 3 x 3\nkind: open\n0,zero\n")
    except TourParseError as caught:
        exc = caught
    assert exc is not None and exc.line == 3


# (reader, text, exception type, str(exception), TourParseError.line or None)
READER_ERRORS = [
    (parse_tour, "", TourParseError, "line 1: missing 'board:' header", 1),
    (parse_tour, "# c\n", TourParseError, "line 1: missing 'board:' header", 1),
    (parse_tour, "\n\n", TourParseError, "line 2: missing 'board:' header", 2),
    (parse_tour, "kind: open\n0,0\n", TourParseError,
     "line 1: expected 'board: n1 x n2 x ... x nk'", 1),
    (parse_tour, "board:\n", TourParseError, "line 1: malformed side list ''", 1),
    (parse_tour, "board: 3 x 0\n", TourParseError, "line 1: sides must be >= 1, got (3, 0)", 1),
    (parse_tour, "board: 3 x 3\n", TourParseError, "line 1: missing 'kind:' line", 1),
    (parse_tour, "board: 3 x 3\n0,0\n", TourParseError,
     "line 2: expected 'kind: open|closed|near_closed|path'", 2),
    (parse_tour, "board: 3 x 3\nkind: loop\n0,0\n", TourParseError,
     "line 2: unknown tour kind 'loop'", 2),
    (parse_tour, "board: 3 x 3\nkind:\n", TourParseError, "line 2: unknown tour kind ''", 2),
    (parse_tour, "board: 3 x 3\nhole: 1\n", TourParseError,
     "line 2: hole (1,) has 1 coordinates, board has 2", 2),
    (parse_tour, "board: 3 x 3\nhole: 4,4\nkind: open\n0,0\n", TourParseError,
     "line 2: hole (4, 4) lies outside the board", 2),
    (parse_tour, "board: 3 x 3\nhole: a,b\n", TourParseError,
     "line 2: malformed coordinate list ' a,b'", 2),
    (parse_tour, "board: 3 x 3\nkind: open\n", TourParseError, "line 2: tour has no vertices", 2),
    (parse_tour, "board: 3 x 3\nkind: open\n# end\n\n", TourParseError,
     "line 4: tour has no vertices", 4),
    (parse_tour, "board: 3 x 3\nkind: open\nkind: open\n", TourParseError,
     "line 3: malformed coordinate list 'kind: open'", 3),
    (parse_tour, "board: 3 x 3\nkind: open\n0,0\nhole: 1,1\n", TourParseError,
     "line 4: malformed coordinate list 'hole: 1,1'", 4),
    (parse_tour, "board: 3 x 3\nkind: open\n0,zero\n", TourParseError,
     "line 3: malformed coordinate list '0,zero'", 3),
    (parse_tour, "board: 3 x 3\nkind: open\n0,0\n1,1,1\n", TourParseError,
     "line 4: vertex (1, 1, 1) has 3 coordinates, board has 2", 4),
    (parse_board_text, "", ValueError, "board description has no side header line", None),
    (parse_board_text, "# only\n", ValueError, "board description has no side header line", None),
    (parse_board_text, "board: 3 x 3\n", ValueError,
     "line 1: malformed side list 'board: 3 x 3'", None),
    (parse_board_text, "# c\n3 x 0\n", ValueError, "line 2: sides must be >= 1, got (3, 0)", None),
    (parse_board_text, "3 x 3\nfoo\n", ValueError,
     "line 2: expected 'hole: c1,c2,...' lines, got 'foo'", None),
    (parse_board_text, "3 x 3\n\nhole: 1\n", ValueError,
     "line 3: hole (1,) has 1 coordinates, board has 2", None),
    (parse_board_text, "3 x 3\nhole: 3,0\n", ValueError,
     "line 2: hole (3, 0) lies outside the board", None),
    (parse_board_text, "3 x 3\nhole: 1,\n", ValueError,
     "line 2: malformed coordinate list ' 1,'", None),
]


@pytest.mark.parametrize("reader, text, error, message, line", READER_ERRORS)
def test_reader_error_contract(reader, text, error, message, line):
    with pytest.raises(ValueError) as caught:
        reader(text)
    assert type(caught.value) is error
    assert str(caught.value) == message
    assert getattr(caught.value, "line", None) == line


def test_parse_tour_accepts_comments_and_blanks():
    text = "# a comment\n\nboard: 3 x 3\n# another\nhole: 1,1\n\nkind: closed\n2,1\n0,2\n"
    board, kind, vertices = parse_tour(text)
    assert board == Board([3, 3], holes=[(1, 1)])
    assert kind is TourKind.CLOSED
    assert vertices == [(2, 1), (0, 2)]


def test_serialize_round_trips_corpus_files():
    for entry_id in corpus.ids():
        raw = corpus.raw_text(entry_id)
        board, kind, vertices = parse_tour(raw)
        assert serialize_tour(board, kind, vertices) == raw


def test_serialize_single_vertex():
    text = serialize_tour(Board([3, 3]), TourKind.PATH, [(0, 0)])
    assert text == "board: 3 x 3\nkind: path\n0,0\n"


# field spellings int() reads or rejects that a canonical block never holds:
# a sign, an underscore, a non-ASCII digit, two digits, a leading zero,
# inner spaces, an empty field and a letter
ODD_FIELDS = ["+1", "1_0", "\u0663", "10", "12", "07", " 2 ", "", "x"]


@st.composite
def tour_text(draw):
    """Tour files with canonical vertex blocks and per-line deviations mixed in.

    Lines may gain blanks, comments (ASCII or not), trailing spaces, odd
    fields or a wrong field count after them; the text may use CRLF endings
    and may lack its final newline.
    """
    k = draw(st.integers(min_value=1, max_value=4))
    sides = [draw(st.integers(min_value=1, max_value=12)) for _ in range(k)]
    lines = [f"board: {' x '.join(map(str, sides))}"]
    if draw(st.booleans()):
        lines.append("hole: " + ",".join(str(draw(st.integers(0, s - 1))) for s in sides))
    lines.append("kind: " + draw(st.sampled_from([t.value for t in TourKind])))
    for _ in range(draw(st.integers(min_value=0, max_value=8))):
        fields = [str(draw(st.integers(min_value=0, max_value=9))) for _ in range(k)]
        roll = draw(st.integers(min_value=0, max_value=24))
        if roll == 0:
            fields[draw(st.integers(0, k - 1))] = draw(st.sampled_from(ODD_FIELDS))
        elif roll == 1:
            fields.append("0")
        elif roll == 2:
            fields.pop()
        lines.append(",".join(fields))
        if roll == 3:
            lines[-1] += "  "
        elif roll == 4:
            lines.append(draw(st.sampled_from(["", "# note", "# \u00fc"])))
    if draw(st.integers(min_value=0, max_value=5)) == 0:
        lines.insert(draw(st.integers(0, len(lines))), "# header note")
    ending = draw(st.sampled_from(["\n", "\n", "\r\n"]))
    return ending.join(lines) + (ending if draw(st.integers(0, 4)) else "")


def _parsed(reader, text):
    """(board, kind, vertex repr) read from text, or the TourParseError's text and line."""
    try:
        board, kind, vertices = reader(text)
    except TourParseError as exc:
        return str(exc), exc.line
    return board, kind, repr(vertices)


@given(tour_text())
@example("board: 3\nkind: path\n0\n\n\n")  # blank lines, with a newline at a digit offset
@example("board: 3 x 3\nkind: open\n0,0\n,,,\n")  # commas at digit offsets
# the bulk block starts after non-ASCII text: a two-byte character or a lone
# surrogate on the last comment line, a three-byte one on the last header line
@example("board: 3 x 3\nkind: open\n# caf\u00e9\n0,0\n1,2\n")
@example("board: 3 x 3\nkind: open\n# \ud800\n0,0\n1,2\n")
@example("# \u00fc\nboard: 3 x 3\nkind: open \u2603\n0,0\n")
@settings(max_examples=400)
def test_parse_tour_matches_the_per_line_reader(text):
    assert _parsed(parse_tour, text) == _parsed(reference_parse_tour, text)


class _OddInt(int):
    def __str__(self) -> str:
        return "odd"


@st.composite
def board_and_any_vertices(draw):
    """Vertices of mostly one-digit ints, with bools, floats, negative, wide
    and int-subclass coordinates and wrong lengths mixed in; maybe none."""
    k = draw(st.integers(min_value=1, max_value=4))
    board = Board([draw(st.integers(min_value=1, max_value=12)) for _ in range(k)])
    digit = st.integers(min_value=0, max_value=9)
    odd = st.one_of(
        st.integers(min_value=-3, max_value=300),
        st.booleans(),
        st.sampled_from([0.0, 1.5, 2.0, 10**20, _OddInt(1)]),
    )
    coordinate = st.one_of(digit, digit, digit, digit, odd)
    width = st.sampled_from([k] * 8 + [k - 1, k + 1])
    vertex = width.flatmap(lambda w: st.lists(coordinate, min_size=w, max_size=w))
    vertices = draw(st.lists(vertex.map(tuple), max_size=8))
    kind = draw(st.sampled_from(list(TourKind)))
    return board, kind, vertices


@given(board_and_any_vertices())
@settings(max_examples=400)
def test_serialize_tour_matches_the_per_line_writer(case):
    board, kind, vertices = case
    assert serialize_tour(board, kind, vertices) == reference_serialize_tour(board, kind, vertices)


def test_canonical_vertex_block_is_read_in_bulk(monkeypatch):
    tour = closed_tour_on_hypercube(12)
    text = serialize_tour(tour.board, tour.kind, tour.vertices)
    assert text == reference_serialize_tour(tour.board, tour.kind, tour.vertices)
    header, block = text.split("kind: closed\n")
    # CRLF endings, and one comment line after the header or at the end
    variants = [
        text.replace("\n", "\r\n"),
        f"{header}kind: closed\n# note\n{block}",
        text + "# end\n",
        text[:-1],
        f"{header}kind: closed\n# caf\u00e9 \ud800\n{block}",
    ]
    for variant in variants:
        assert _parsed(parse_tour, variant) == _parsed(reference_parse_tour, variant)
        assert parse_tour(variant)[2] == list(tour.vertices)

    def per_line(line):
        raise AssertionError("a canonical vertex line was parsed on its own")

    monkeypatch.setattr(eknight.tour, "parse_vertex", per_line)
    assert parse_tour(text) == (tour.board, tour.kind, list(tour.vertices))
    assert parse_tour(variants[1])[2] == list(tour.vertices)
    assert parse_tour(variants[-1])[2] == list(tour.vertices)


def test_tour_dataclass_helpers():
    entry = corpus.get(corpus.PC_3_2_HOLE)
    tour = entry.tour()
    assert tour.link_count == 7
    assert tour.report().valid
    assert parse_tour(tour.serialized())[2] == list(tour.vertices)


def test_every_result_leaves_through_the_verifier(monkeypatch):
    base = corpus.get(corpus.PC_2_6).tour()
    assert _checked(base) is base
    short = Tour(base.board, TourKind.CLOSED, base.vertices[:-1])
    with pytest.raises(RuntimeError, match=r"^internal error: .*63 entries for 64"):
        _checked(short)

    # a planted failure on the result's board only: the base tour that
    # extend_closed_tour checks on its way in still verifies
    real_verify = eknight.tour.verify
    producers = [
        (Board([3, 4]), lambda board: find_tour(board, SearchConfig())),
        (Board([6, 6]), lambda board: find_tour(board, SearchConfig(target=TourKind.CLOSED))),
        (Board([3, 3]), longest_path),
        (Board([2] * 7), lambda board: closed_tour_on_hypercube(7)),
        (Board([2] * 7), lambda board: extend_closed_tour(base)),
    ]
    for result_board, produce in producers:

        def planted(board, vertices, *args, result_board=result_board, **kwargs):
            report = real_verify(board, vertices, *args, **kwargs)
            if board != result_board:
                return report
            planted = {"valid": False, "violations": (Violation(0, "planted"),)}
            return VerificationReport(**{**vars(report), **planted})

        monkeypatch.setattr(eknight.tour, "verify", planted)
        with pytest.raises(RuntimeError, match=r"^internal error: .*planted"):
            produce(result_board)


@st.composite
def board_and_sequence(draw):
    k = draw(st.integers(min_value=1, max_value=3))
    sides = tuple(draw(st.integers(min_value=1, max_value=3)) for _ in range(k))
    kind = draw(st.sampled_from(list(TourKind)))
    length = draw(st.integers(min_value=1, max_value=8))
    vertex = st.tuples(*[st.integers(min_value=0, max_value=4)] * k)
    vertices = draw(st.lists(vertex, min_size=length, max_size=length))
    return Board(sides), kind, vertices


@given(board_and_sequence())
@settings(max_examples=200)
def test_verify_is_total_and_serialization_round_trips(case):
    board, kind, vertices = case
    report = verify(board, vertices, kind, all_violations=True)
    assert report.valid == (not report.violations)
    assert sum(report.move_taxicab_counts.values()) == len(vertices) - 1
    in_box = [v for v in vertices if board.in_box(v)]
    if in_box:
        text = serialize_tour(board, kind, in_box)
        assert parse_tour(text) == (board, kind, in_box)


def _outcome(check, board, vertices, kind, every):
    """A report's repr (field and key order included), or the ValueError raised."""
    try:
        return repr(check(board, vertices, kind, all_violations=every))
    except ValueError as exc:
        return type(exc), str(exc)


def _assert_matches_reference(board, vertices, kind=None):
    for claimed in TourKind if kind is None else (kind,):
        for every in (False, True):
            assert _outcome(verify, board, vertices, claimed, every) == _outcome(
                reference_verify, board, vertices, claimed, every
            ), (board, vertices, claimed, every)


@st.composite
def board_and_walk(draw):
    """Small boards with holes and walks mixing board cells, strays and returns."""
    k = draw(st.integers(min_value=1, max_value=3))
    sides = tuple(draw(st.integers(min_value=1, max_value=3)) for _ in range(k))
    cells = list(itertools.product(*(range(s) for s in sides)))
    holes = draw(st.lists(st.sampled_from(cells), max_size=2))
    stray = st.tuples(*[st.integers(min_value=-1, max_value=3)] * k)
    vertices = draw(st.lists(st.one_of(st.sampled_from(cells), stray), max_size=10))
    if vertices and draw(st.booleans()):
        vertices.append(vertices[0])
    if draw(st.integers(min_value=0, max_value=9)) == 0:
        wrong = (0,) * draw(st.sampled_from([k - 1, k + 1]))
        vertices.insert(draw(st.integers(min_value=0, max_value=len(vertices))), wrong)
    return Board(sides, holes), vertices, draw(st.sampled_from(list(TourKind)))


@given(board_and_walk())
@settings(max_examples=400)
def test_verify_matches_four_pass_reference(case):
    board, vertices, kind = case
    _assert_matches_reference(board, vertices, kind)


def test_verify_matches_reference_on_corpus_entries_and_damaged_copies():
    for entry_id in corpus.ids():
        entry = corpus.get(entry_id)
        v = list(entry.vertices)
        swapped = v[:1] + [v[2], v[1]] + v[3:]
        repeated = v[:5] + [v[5]] + v[5:]
        stray = v[:3] + [entry.board.sides] + v[4:]
        for vertices in (v, v[:-1], v + [v[0]], v[:1], swapped, repeated, stray):
            _assert_matches_reference(entry.board, vertices)


def test_single_entry_near_closed_covers_an_empty_body():
    board = Board([3, 3])
    report = verify(board, [(0, 0)], TourKind.NEAR_CLOSED, all_violations=True)
    assert [v.description for v in report.violations] == [
        "1 entries; a near-closed walk on 9 vertices needs 11",
        "0 vertices visited twice (exactly one required)",
        "covers 0 of 9 board vertices",
    ]
    _assert_matches_reference(board, [(0, 0)])


# every knight move of a k-axis board, k = 1..6, as a tuple of coordinate steps
KNIGHT_STEPS = {
    k: [d for d in itertools.product(range(-2, 3), repeat=k) if sum(x * x for x in d) == 5]
    for k in range(1, 7)
}


@st.composite
def wide_board_and_walk(draw):
    """Boards of up to 6 axes and sides up to 200, walks with coordinates -3..300.

    Walks mix knight moves, board cells, strays and repeats.  A coordinate
    outside 0..127 sends `verify` to its per-link fallback; the other walks
    take the packed path.
    """
    k = draw(st.integers(min_value=1, max_value=6))
    sides = tuple(draw(st.integers(min_value=1, max_value=200)) for _ in range(k))
    cell = st.tuples(*[st.integers(min_value=0, max_value=s - 1) for s in sides])
    stray = st.tuples(*[st.integers(min_value=-3, max_value=300)] * k)
    steps = KNIGHT_STEPS[k]
    holes = draw(st.lists(cell, max_size=3))
    vertices = [draw(cell)]
    for _ in range(draw(st.integers(min_value=0, max_value=12))):
        roll = draw(st.integers(min_value=0, max_value=9))
        if roll < 6 and steps:
            step = draw(st.sampled_from(steps))
            vertices.append(tuple(map(sum, zip(vertices[-1], step))))
        elif roll < 8:
            vertices.append(draw(cell))
        elif roll < 9:
            vertices.append(draw(stray))
        else:
            vertices.append(draw(st.sampled_from(vertices)))
    if draw(st.booleans()):
        vertices.append(vertices[0])
    return Board(sides, holes), vertices, draw(st.sampled_from(list(TourKind)))


@given(wide_board_and_walk())
@settings(max_examples=300)
def test_verify_matches_four_pass_reference_on_wide_boards(case):
    board, vertices, kind = case
    _assert_matches_reference(board, vertices, kind)


def test_verify_matches_reference_on_a_hypercube_tour_and_damaged_copies():
    board = Board([2] * 12)
    v = list(closed_tour_on_hypercube(12).vertices)
    swapped = v[:40] + [v[41], v[40]] + v[42:]
    off = v[:7] + [(2,) + v[7][1:]] + v[8:]
    repeated = v[:100] + [v[5]] + v[101:]
    for vertices in (v, swapped, off, repeated):
        assert _packed_checks(vertices, board.sides) is not None
        _assert_matches_reference(board, vertices)


def test_packed_lanes_do_not_carry():
    # per-axis steps of 15, 16 and 127 sit at nibble and byte edges
    board = Board([128] * 3)
    walk = [(0, 0, 0), (15, 0, 0), (15, 16, 0), (15, 16, 127), (0, 16, 127), (127, 0, 0),
            (125, 1, 0), (126, 3, 0), (127, 127, 127), (0, 0, 0), (2, 1, 0), (1, 1, 2)]
    assert _packed_checks(walk, board.sides) is not None
    _assert_matches_reference(board, walk)

    # twenty axes stepping 0 -> 127: each link's taxicab sum needs two bytes
    # and its capped squares add up to 120 in one
    board = Board([128] * 20)
    walk = [(0,) * 20, (127,) * 20, (0,) * 20, (2, 1) + (0,) * 18]
    assert _packed_checks(walk, board.sides) is not None
    report = verify(board, walk, TourKind.PATH, all_violations=True)
    assert report.move_taxicab_counts == {3: 1, 2540: 2}
    assert [v.description for v in report.violations] == [
        "link 0: squared length 322580 (expected 5)",
        "link 1: squared length 322580 (expected 5)",
        "vertex " + ",".join(["0"] * 20) + " visited more than once",
    ]
    _assert_matches_reference(board, walk)


def test_verify_fallback_inputs_match_reference():
    cases = [
        (Board([200, 200]), [(126, 0), (128, 1), (130, 0), (131, 2), (126, 0)]),
        (Board([3, 3]), [(0, 0), (-1, 2), (1, 1), (0, 0)]),
    ]
    for board, walk in cases:
        assert _packed_checks(walk, board.sides) is None
        _assert_matches_reference(board, walk)
    # 43 capped squares of 6 overflow a byte: the lanes hold 42 axes
    for axes in (42, 43):
        board = Board([128] * axes)
        walk = [(0,) * axes, (127,) * axes, (0,) * axes, (2, 1) + (0,) * (axes - 2)]
        assert (_packed_checks(walk, board.sides) is None) == (axes > _LANE_AXES)
        _assert_matches_reference(board, walk)


class _Int(int):
    """An int subclass, which `operator.index` accepts as a coordinate."""


class _Index:
    """A coordinate that `operator.index` accepts but that is no int: it has
    no arithmetic and compares and hashes by identity, so only its value
    tells two of them apart."""

    def __init__(self, value: int) -> None:
        self.value = value

    def __index__(self) -> int:
        return self.value

    def __repr__(self) -> str:
        return f"_Index({self.value})"


def test_board_index_takes_index_only_coordinates():
    # in_box calls such a tuple a cell, and index is defined for every cell
    board = Board([4, 4])
    cell = (_Index(1), _Index(2))
    assert board.in_box(cell)
    assert board.index(cell) == board.index((1, 2)) == 6
    assert board.vertex_at(board.index(cell)) == (1, 2)


# each turns an int coordinate into another type: a float, Fraction or Decimal
# is never a coordinate, whatever its value; a bool, an int subclass or an
# index-only type always is, and counts as its value
TO_OTHER_TYPE = {
    "float": float,
    "float plus a half": lambda c: c + 0.5,
    "Fraction": Fraction,
    "Fraction plus a half": lambda c: Fraction(2 * c + 1, 2),
    "Decimal": Decimal,
    "Decimal plus a half": lambda c: Decimal(c) + Decimal("0.5"),
    "bool": lambda c: bool(c) if c in (0, 1) else c,
    "int subclass": _Int,
    "index only": _Index,
}


@st.composite
def walk_with_other_coordinate_types(draw):
    """Knight walks, some of whose coordinates are of one type other than int.

    The box starts at the origin, where an int walk takes the packed path,
    or reaches beyond 130, where walks near 130 take the per-link fallback;
    a coordinate that packing refuses sends any walk to the fallback.
    """
    k = draw(st.integers(min_value=1, max_value=6))
    base = draw(st.sampled_from([0, 130]))
    sides = tuple(base + draw(st.integers(min_value=1, max_value=4)) for _ in range(k))
    cell = st.tuples(*[st.integers(min_value=base, max_value=s - 1) for s in sides])
    steps = KNIGHT_STEPS[k]
    holes = draw(st.lists(cell, max_size=2))
    vertices = [draw(cell)]
    for _ in range(draw(st.integers(min_value=0, max_value=10))):
        if steps and draw(st.booleans()):
            step = draw(st.sampled_from(steps))
            vertices.append(tuple(map(sum, zip(vertices[-1], step))))
        else:
            vertices.append(draw(cell))
    if draw(st.booleans()):
        vertices.append(vertices[0])
    convert = TO_OTHER_TYPE[draw(st.sampled_from(sorted(TO_OTHER_TYPE)))]
    where = st.tuples(st.integers(0, len(vertices) - 1), st.integers(0, k - 1))
    changed = draw(st.sets(where, max_size=4))
    vertices = [
        tuple(convert(c) if (i, a) in changed else c for a, c in enumerate(v))
        for i, v in enumerate(vertices)
    ]
    return Board(sides, holes), vertices, draw(st.sampled_from(list(TourKind)))


@given(walk_with_other_coordinate_types())
@settings(max_examples=200)
def test_verify_refuses_coordinates_that_are_not_integers(case):
    # a vertex is a cell only when every coordinate is an int, a bool,
    # another int subclass or an index-only type; any other is reported where
    # membership is, as a vertex outside the board, by both verify paths and
    # by the reference
    board, vertices, kind = case
    _assert_matches_reference(board, vertices, kind)
    report = verify(board, vertices, kind, all_violations=True)
    members = {
        v.index for v in report.violations
        if v.description.endswith(("lies outside the board", "is a removed cell"))
    }
    for i, v in enumerate(vertices):
        ints = tuple(c.value if isinstance(c, _Index) else c for c in v)
        cell = all(isinstance(c, int) and 0 <= c < s for c, s in zip(ints, board.sides))
        cell = cell and ints not in board.holes
        assert board.contains(v) == cell
        assert (i in members) == (not cell), (i, v)


def test_a_tour_shifted_off_the_integers_is_refused():
    entry = corpus.get("PC_2_6")
    shifted = [(v[0] + 0.5,) + v[1:] for v in entry.vertices]
    report = verify(entry.board, shifted, TourKind.CLOSED, all_violations=True)
    assert not report.valid
    assert report.first_violation == Violation(0, "vertex 0.5,0,0,0,0,0 lies outside the board")
    assert [v.index for v in report.violations] == list(range(64))
    _assert_matches_reference(entry.board, shifted)


def test_holes_and_repeats_are_judged_by_value():
    # each _Index is a fresh object, equal to no other, with no arithmetic
    def cell(*values):
        return tuple(map(_Index, values))

    # (0, 0) twice and (2, 0) never: no open tour of the 3x3 board less its centre
    board = Board([3, 3], [(1, 1)])
    walk = [cell(0, 0), (1, 2), cell(0, 0), (2, 1), (0, 2), (1, 0), (2, 2), (0, 1)]
    report = verify(board, walk, TourKind.OPEN, all_violations=True)
    assert report.violations == (
        Violation(2, "vertex _Index(0),_Index(0) visited more than once"),
    )
    assert report.endpoint_squared_distance == 1
    _assert_matches_reference(board, walk)

    # a hole written in index-only coordinates is still the hole
    board = Board([4, 4], [(1, 1)])
    assert not board.contains(cell(1, 1))
    with pytest.raises(ValueError, match="is a removed cell"):
        board.neighbors(cell(1, 1))
    assert board.knight_distance(cell(0, 0), cell(0, 0)) == 0
    assert board.knight_distance(cell(0, 0), (1, 2)) == 1
    walk = [cell(1, 1), (3, 2)]
    report = verify(board, walk, TourKind.PATH, all_violations=True)
    assert report.violations == (Violation(0, "vertex _Index(1),_Index(1) is a removed cell"),)
    _assert_matches_reference(board, walk)

    # coordinates above 127 take the per-link fallback, which compares values too
    board = Board([200, 200])
    walk = [(130, 0), (131, 2), cell(130, 0)]
    assert _packed_checks(walk, board.sides) is None
    report = verify(board, walk, TourKind.PATH, all_violations=True)
    assert report.violations == (
        Violation(2, "vertex _Index(130),_Index(0) visited more than once"),
    )
    _assert_matches_reference(board, walk)


def test_verify_stays_total_on_coordinates_without_arithmetic():
    # link lengths, the endpoint distance and the taxicab histogram come from
    # the values, on the packed path and on the fallback alike
    for board, walk in [
        (Board([3, 3]), [tuple(map(_Index, (0, 0))), tuple(map(_Index, (1, 1)))]),
        (Board([200, 200]), [tuple(map(_Index, (130, 0))), tuple(map(_Index, (131, 1)))]),
    ]:
        report = verify(board, walk, TourKind.CLOSED, all_violations=True)
        assert report.endpoint_squared_distance == 2
        assert report.move_taxicab_counts == {2: 1}
        assert [v.description for v in report.violations] == [
            "link 0: squared length 2 (expected 5)",
            f"2 entries for {board.vertex_count} board vertices",
            "a closed tour needs at least 3 vertices",
            "closing link squared length 2 (expected 5)",
        ]
        _assert_matches_reference(board, walk)


# each box with the width in bytes of its index lanes, at the edges of every
# width: 0 past 2**64 cells, where every entry keys by its tuple, and None past
# `_LANE_AXES` axes, where verify takes the per-link fallback
LANE_EDGES = [
    ([2] * 8, 1), ([2] * 9, 2), ([2] * 16, 2), ([2] * 17, 4), ([2] * 32, 4), ([2] * 33, 8),
    ([4] * 32, 8), ([4] * 31 + [5], 0), ([3] * 42, 0), ([2] * 64, None), ([2] * 65, None),
]


@pytest.mark.parametrize("sides, width", LANE_EDGES)
def test_index_lanes_at_their_width_edges(sides, width):
    k = len(sides)
    origin = (0,) * k
    top = tuple(s - 1 for s in sides)  # the last cell, whose index fills its lanes
    hole = (1,) + origin[1:]
    board = Board(sides, [hole])
    # outside on every axis, and on one axis between coordinates at the top
    far, mid = (127,) * k, top[: k // 2] + (127,) + top[k // 2 + 1 :]
    walk = [origin, top, far, top, hole, mid, origin, mid, top]
    checks = _packed_checks(walk, board.sides)
    assert (checks is None) == (width is None)
    if checks is not None:
        assert checks[0] == [2, 5, 7]
        keys = [board.index(v) if width and board.in_box(v) else v for v in walk]
        assert list(checks[3]) == keys
        cells = [origin, top, hole, top]
        keys = _packed_checks(cells, board.sides)[3]
        if width:
            assert (keys.itemsize, list(keys)) == (width, list(map(board.index, cells)))
        else:
            assert keys == cells
    _assert_matches_reference(board, walk)
