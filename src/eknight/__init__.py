"""Euclidean knight's tours on k-dimensional boards.

Models boards whose knight moves between cells at squared Euclidean
distance exactly 5, verifies and searches for tours (open, closed,
near-closed), and constructs closed tours on 2 x 2 x ... x 2 boards of any
dimension k >= 6.
"""

from . import corpus
from .board import (
    KNIGHT_SQUARED_LENGTH,
    Board,
    Vertex,
    is_knight_move,
    parse_board_text,
    serialize_board_text,
    squared_distance,
    taxicab_distance,
)
from .construct import (
    DEFAULT_FLIP_MASK,
    closed_tour_on_hypercube,
    extend_closed_tour,
)
from .feasibility import (
    Color,
    ColorCounts,
    FeasibilityVerdict,
    classical_closed_tour_condition,
    closed_tour_necessary,
    color,
    color_counts,
    move_decompositions,
    open_tour_necessary,
)
from .search import (
    SearchConfig,
    SearchOutcome,
    SearchStatus,
    find_tour,
    longest_path,
    prove_nonexistence,
)
from .tour import (
    MoveKind,
    Tour,
    TourKind,
    TourParseError,
    VerificationReport,
    Violation,
    classify_move,
    parse_tour,
    serialize_tour,
    verify,
)

__version__ = "0.1.0"

__all__ = [
    "Board",
    "Color",
    "ColorCounts",
    "DEFAULT_FLIP_MASK",
    "FeasibilityVerdict",
    "KNIGHT_SQUARED_LENGTH",
    "MoveKind",
    "SearchConfig",
    "SearchOutcome",
    "SearchStatus",
    "Tour",
    "TourKind",
    "TourParseError",
    "VerificationReport",
    "Vertex",
    "Violation",
    "classical_closed_tour_condition",
    "classify_move",
    "closed_tour_necessary",
    "closed_tour_on_hypercube",
    "color",
    "color_counts",
    "corpus",
    "extend_closed_tour",
    "find_tour",
    "is_knight_move",
    "longest_path",
    "move_decompositions",
    "open_tour_necessary",
    "parse_board_text",
    "parse_tour",
    "prove_nonexistence",
    "serialize_board_text",
    "serialize_tour",
    "squared_distance",
    "taxicab_distance",
    "verify",
    "__version__",
]
