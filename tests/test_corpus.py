from collections import Counter

import pytest

from eknight import corpus
from eknight.board import Board, squared_distance
from eknight.tour import TourKind

EXPECTED_ENTRY_COUNTS = {
    corpus.PO_3_5: 243,
    corpus.PC_3_2_HOLE: 8,
    corpus.PBAR_3_3_TWO_HOLES: 25,
    corpus.PC_3_4_HOLE: 80,
    corpus.PC_2_6: 64,
    corpus.NEAR_CLOSED_3_5: 245,
}


def test_ids_are_stable():
    assert corpus.ids() == tuple(EXPECTED_ENTRY_COUNTS)


def test_every_entry_verifies():
    for entry_id in corpus.ids():
        entry = corpus.get(entry_id)
        report = entry.tour().report()
        assert report.valid, (entry_id, report.first_violation)
        assert len(entry.vertices) == EXPECTED_ENTRY_COUNTS[entry_id]


def test_po_3_5():
    entry = corpus.get(corpus.PO_3_5)
    assert entry.board == Board([3] * 5)
    assert entry.kind is TourKind.OPEN
    assert entry.vertices[0] == (1, 0, 2, 0, 1)
    assert entry.vertices[-1] == (1, 2, 2, 0, 1)
    # the two five-unit-change jumps sit back to back mid-tour
    assert entry.vertices[83] == (1, 1, 1, 1, 1)


def test_pc_2_6():
    entry = corpus.get(corpus.PC_2_6)
    assert entry.board == Board([2] * 6)
    assert entry.kind is TourKind.CLOSED
    assert entry.vertices[0] == (0, 0, 0, 0, 0, 0)
    assert entry.vertices[-1] == (0, 1, 1, 1, 1, 1)
    assert squared_distance(entry.vertices[-1], entry.vertices[0]) == 5


def test_pc_3_2_closes():
    entry = corpus.get(corpus.PC_3_2_HOLE)
    assert entry.board == Board([3, 3], holes=[(1, 1)])
    assert squared_distance(entry.vertices[-1], entry.vertices[0]) == 5
    assert entry.vertices[-1] == (0, 0) and entry.vertices[0] == (2, 1)


def test_pc_3_4_closes():
    entry = corpus.get(corpus.PC_3_4_HOLE)
    assert entry.board == Board([3] * 4, holes=[(1, 1, 1, 1)])
    assert entry.vertices[-1] == (0, 2, 0, 1)
    assert entry.vertices[0] == (0, 0, 0, 2)
    assert squared_distance((0, 2, 0, 1), (0, 0, 0, 2)) == 5


def test_pbar_partial_chain():
    entry = corpus.get(corpus.PBAR_3_3_TWO_HOLES)
    assert entry.board == Board([3, 3, 3], holes=[(1, 1, 1)])
    assert entry.kind is TourKind.PATH
    assert len(set(entry.vertices)) == 25
    unvisited = set(entry.board.vertices()) - set(entry.vertices)
    assert unvisited == {(2, 0, 0)}
    assert "2,0,0" in entry.provenance


def test_near_closed_extension():
    entry = corpus.get(corpus.NEAR_CLOSED_3_5)
    assert entry.id == corpus.NEAR_CLOSED_3_5
    open_tour = corpus.get(corpus.PO_3_5)
    assert entry.vertices[:243] == open_tour.vertices
    assert entry.vertices[243] == (1, 1, 0, 0, 1)
    assert entry.vertices[244] == (1, 0, 2, 0, 1) == entry.vertices[0]
    assert squared_distance(entry.vertices[242], entry.vertices[243]) == 5
    assert squared_distance(entry.vertices[243], entry.vertices[244]) == 5
    assert len(entry.vertices) - 1 == 244 == 3 ** 5 + 1
    doubled = [v for v, c in Counter(entry.vertices[:-1]).items() if c == 2]
    assert doubled == [(1, 1, 0, 0, 1)]


def test_unknown_id():
    with pytest.raises(KeyError, match="unknown corpus id"):
        corpus.get("NOPE")
    with pytest.raises(KeyError):
        corpus.raw_text("NOPE")


def test_entries_are_cached_and_frozen():
    a = corpus.get(corpus.PC_2_6)
    b = corpus.get(corpus.PC_2_6)
    assert a is b
    with pytest.raises(AttributeError):
        a.kind = TourKind.OPEN
