"""Euclidean knight's tours on k-dimensional boards.

Models boards whose knight moves between cells at squared Euclidean
distance exactly 5, verifies and searches for tours (open, closed,
near-closed), and constructs closed tours on 2 x 2 x ... x 2 boards of any
dimension k >= 6.

`import eknight` loads no submodule: each public name loads the module
that defines it on first use (PEP 562), so a caller compiles and imports
only the modules it runs.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it; `corpus` is the subpackage itself
_SOURCES = {
    "Board": "board",
    "Color": "feasibility",
    "ColorCounts": "feasibility",
    "DEFAULT_FLIP_MASK": "construct",
    "FeasibilityVerdict": "feasibility",
    "KNIGHT_SQUARED_LENGTH": "board",
    "MoveKind": "tour",
    "SearchConfig": "search",
    "SearchOutcome": "search",
    "SearchStatus": "search",
    "Tour": "tour",
    "TourKind": "tour",
    "TourParseError": "tour",
    "VerificationReport": "tour",
    "Vertex": "board",
    "Violation": "tour",
    "classical_closed_tour_condition": "feasibility",
    "classify_move": "tour",
    "closed_tour_necessary": "feasibility",
    "closed_tour_on_hypercube": "construct",
    "color": "feasibility",
    "color_counts": "feasibility",
    "corpus": "corpus",
    "extend_closed_tour": "construct",
    "find_tour": "search",
    "is_knight_move": "board",
    "longest_path": "search",
    "move_decompositions": "feasibility",
    "open_tour_necessary": "feasibility",
    "parse_board_text": "board",
    "parse_tour": "tour",
    "prove_nonexistence": "search",
    "serialize_board_text": "board",
    "serialize_tour": "tour",
    "squared_distance": "board",
    "taxicab_distance": "board",
    "verify": "tour",
}

__all__ = [*_SOURCES, "__version__"]


def __getattr__(name: str):
    source = _SOURCES.get(name)
    if source is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = importlib.import_module(f"{__name__}.{source}")
    if name != source:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_SOURCES})
