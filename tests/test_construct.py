import contextlib
import itertools
import os
import random
import tracemalloc

import pytest

from eknight import corpus
from eknight.board import _MAX_GRAPH_BYTES, Board
from eknight.cli import run
from eknight.construct import (
    DEFAULT_FLIP_MASK,
    _columns,
    _double,
    _hypercube_tour,
    _tour_bytes,
    closed_tour_on_hypercube,
    extend_closed_tour,
)
from eknight.tour import MoveKind, Tour, TourKind, classify_move

from bruteforce import reference_double


def _base():
    return corpus.get(corpus.PC_2_6).tour()


def _complemented_gray_code(k):
    """t ^ t >> 1 for t < 2^k, complemented at odd t, as vertices (first coordinate highest)."""
    top = (1 << k) - 1
    words = [t ^ t >> 1 ^ (top if t % 2 else 0) for t in range(1 << k)]
    return tuple(tuple(w >> (k - 1 - axis) & 1 for axis in range(k)) for w in words)


def test_the_six_cube_base_is_a_complemented_gray_code():
    # a knight move on {0,1}^k flips five coordinates, so complementing every
    # other Gray word gives links of k - 1 flips: knight moves only at k = 6.
    # For even k the complement keeps each word's parity and no cell repeats
    assert _complemented_gray_code(6) == corpus.get(corpus.PC_2_6).vertices
    for k in (5, 6, 7, 8):
        vertices = _complemented_gray_code(k)
        links = zip(vertices, vertices[1:] + vertices[:1])
        assert {sum(a != b for a, b in zip(u, v)) for u, v in links} == {k - 1}
        assert (len(set(vertices)) == 1 << k) is (k % 2 == 0)
        tour = Tour(Board([2] * k), TourKind.CLOSED, vertices)
        assert tour.report().valid is (k == 6), k


def test_extend_with_documented_mask():
    extended = extend_closed_tour(_base(), mask={1, 2, 3, 4})
    assert extended.board == Board([2] * 7)
    assert len(extended.vertices) == 128
    assert extended.vertices[0] == (0, 0, 0, 0, 0, 0, 0)
    assert extended.report().valid
    # the mirrored half starts where the four flips plus the new axis land
    assert extended.vertices[64] == (0, 0, 0, 0, 0, 1, 1)
    assert extended.vertices[-1] == (0, 1, 1, 1, 1, 0, 1)


def test_extend_default_mask():
    extended = extend_closed_tour(_base())
    assert extended.report().valid
    assert len(extended.vertices) == 128


def test_all_fifteen_masks_work():
    base = _base()
    for mask in itertools.combinations(range(6), 4):
        extended = extend_closed_tour(base, mask)
        assert extended.report().valid, mask
        assert len(extended.vertices) == 2 * len(base.vertices)


def test_sampled_masks_at_higher_dimensions():
    rng = random.Random(31415)
    tour = _base()
    for k in (6, 7, 8):
        mask = tuple(rng.sample(range(k), 4))
        tour = extend_closed_tour(tour, mask)
        assert tour.report().valid, (k, mask)


def test_halves_partition_by_last_coordinate():
    extended = extend_closed_tour(_base())
    first, second = extended.vertices[:64], extended.vertices[64:]
    assert all(v[-1] == 0 for v in first)
    assert all(v[-1] == 1 for v in second)


def test_every_link_changes_five_coordinates():
    extended = extend_closed_tour(_base())
    seq = list(extended.vertices) + [extended.vertices[0]]
    for a, b in zip(seq, seq[1:]):
        assert classify_move(a, b) is MoveKind.DIAGONAL5


def test_base_is_not_mutated_and_output_is_reproducible():
    base = _base()
    snapshot = tuple(base.vertices)
    first = extend_closed_tour(base)
    second = extend_closed_tour(base)
    assert base.vertices == snapshot
    assert first.vertices == second.vertices


def test_mask_validation():
    base = _base()
    with pytest.raises(ValueError):
        extend_closed_tour(base, mask={0, 1, 2, 3, 4})
    with pytest.raises(ValueError):
        extend_closed_tour(base, mask={0, 1, 2})
    with pytest.raises(ValueError):
        extend_closed_tour(base, mask={0, 1, 2, 6})
    with pytest.raises(ValueError):
        extend_closed_tour(base, mask=(0, 0, 1, 2))


def test_base_validation():
    base = _base()
    with pytest.raises(ValueError, match="closed"):
        extend_closed_tour(Tour(base.board, TourKind.OPEN, base.vertices))
    with pytest.raises(ValueError, match="2 x 2"):
        extend_closed_tour(Tour(Board([3, 3]), TourKind.CLOSED, ((0, 0),)))
    message = "^no closed tour exists on a 5-cube; the base needs k >= 6$"
    with pytest.raises(ValueError, match=message):
        extend_closed_tour(Tour(Board([2] * 5), TourKind.CLOSED, ((0,) * 5,)))
    broken = list(base.vertices)
    broken[5], broken[9] = broken[9], broken[5]
    with pytest.raises(ValueError, match="verification"):
        extend_closed_tour(Tour(base.board, TourKind.CLOSED, tuple(broken)))
    # a float coordinate makes no cell, whatever its value
    floats = tuple(tuple(map(float, v)) for v in base.vertices)
    message = r"^base tour fails closed verification: vertex 0\.0,.* lies outside the board$"
    with pytest.raises(ValueError, match=message):
        extend_closed_tour(Tour(base.board, TourKind.CLOSED, floats))


def test_doubling_matches_the_tuple_oracle():
    rng = random.Random(15)
    vertices = _base().vertices
    masks = []
    for k in range(6, 15):
        assert _hypercube_tour(k, masks).vertices == vertices
        mask = tuple(sorted(rng.sample(range(k), 4)))
        doubled = reference_double(vertices, mask)
        assert tuple(zip(*_double(_columns(vertices, k), mask))) == doubled
        if k <= 9:
            base = Tour(Board([2] * k), TourKind.CLOSED, vertices)
            assert extend_closed_tour(base, mask).vertices == doubled
        vertices = doubled
        masks.append(mask)


def test_hypercube_chain():
    assert closed_tour_on_hypercube(6).vertices == _base().vertices
    for k in (7, 8):
        tour = closed_tour_on_hypercube(k)
        assert len(tour.vertices) == 2 ** k
        assert tour.report().valid


def test_hypercube_verifies_only_the_returned_tour(monkeypatch):
    import eknight.tour

    checked = []
    verify = eknight.tour.verify

    def counting_verify(board, vertices, *args, **kwargs):
        checked.append(len(vertices))
        return verify(board, vertices, *args, **kwargs)

    monkeypatch.setattr(eknight.tour, "verify", counting_verify)
    for k in (6, 7, 9):
        checked.clear()
        closed_tour_on_hypercube(k)
        assert checked == [2 ** k]


def test_hypercube_rejects_small_k():
    for k in (1, 5):
        with pytest.raises(ValueError, match=">= 6"):
            closed_tour_on_hypercube(k)


def test_hypercube_rejects_a_fractional_k():
    # [2] * k used to raise TypeError
    with pytest.raises(ValueError, match="^k must be integers"):
        closed_tour_on_hypercube(7.0)


def test_hypercube_refuses_a_cube_too_large_to_enumerate(monkeypatch):
    import eknight.construct

    def no_doubling(columns, axes):
        raise AssertionError("doubled a cube the guard should have refused")

    monkeypatch.setattr(eknight.construct, "_double", no_doubling)
    with pytest.raises(ValueError, match="cells"):
        closed_tour_on_hypercube(23)
    # the guard comes before the base tour is verified, so an empty one will do
    with pytest.raises(ValueError, match="cells"):
        extend_closed_tour(Tour(Board([2] * 22), TourKind.CLOSED, ()))
    assert run(["construct", "--k", "40"]) == 2
    assert run(["construct", "--k", "40", "--verify-only"]) == 2


def test_hypercube_refuses_a_tour_too_large_to_build(monkeypatch):
    # the 22-cube passes the cell guard, but building, verifying and printing
    # its tour would take well over the memory limit; the 21-cube is admitted
    import eknight.construct

    def no_doubling(columns, axes):
        raise AssertionError("doubled a cube the guard should have refused")

    assert _tour_bytes(21) <= _MAX_GRAPH_BYTES < _tour_bytes(22)
    monkeypatch.setattr(eknight.construct, "_double", no_doubling)
    with pytest.raises(ValueError, match="^a closed tour on the 22-cube would take about"):
        closed_tour_on_hypercube(22)
    # the guard comes before the base tour is verified, so an empty one will do
    with pytest.raises(ValueError, match="^a closed tour on the 22-cube would take about"):
        extend_closed_tour(Tour(Board([2] * 21), TourKind.CLOSED, ()))
    assert run(["construct", "--k", "22"]) == 2
    assert run(["construct", "--k", "22", "--verify-only"]) == 2


def test_tour_bytes_bounds_the_construction():
    # the traced peak of the command, text or JSON, stays under the estimate
    for k in (13, 15):
        for form in ([], ["--format", "json"]):
            with open(os.devnull, "w") as null, contextlib.redirect_stdout(null):
                tracemalloc.start()
                try:
                    assert run([*form, "construct", "--k", str(k)]) == 0
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
            assert peak <= _tour_bytes(k), (k, form, peak)


def test_hypercube_mask_list():
    tour = closed_tour_on_hypercube(8, masks=[(0, 1, 2, 3), (2, 3, 4, 5)])
    assert tour.report().valid
    assert len(tour.vertices) == 256
    with pytest.raises(ValueError, match="masks"):
        closed_tour_on_hypercube(8, masks=[(0, 1, 2, 3)])
    # int() would read 3.9 as axis 3
    with pytest.raises(ValueError, match="^flip mask axes must be integers"):
        closed_tour_on_hypercube(7, [[0, 1, 2, 3.9]])


def test_default_mask_constant():
    assert DEFAULT_FLIP_MASK == (0, 1, 2, 3)
