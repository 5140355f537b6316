"""Reference tours shipped as data files in the tour file format.

Every entry is parsed from its `.tour` file on first access; `get` does not
verify it.  `eknight corpus check-all` and the test suite verify every entry
against its claimed kind, so any transcription drift fails them.
PBAR_3_3_TWO_HOLES is a deliberate exception: it is a partial chain (kind
`path`) that covers 25 of the 26 cells of its board, so only link legality
and distinctness apply.
"""

from __future__ import annotations

import os
from functools import lru_cache

from ..board import Board, Vertex, _Record
from ..tour import Tour, TourKind, parse_tour

PO_3_5 = "PO_3_5"
PC_3_2_HOLE = "PC_3_2_HOLE"
PBAR_3_3_TWO_HOLES = "PBAR_3_3_TWO_HOLES"
PC_3_4_HOLE = "PC_3_4_HOLE"
PC_2_6 = "PC_2_6"
NEAR_CLOSED_3_5 = "NEAR_CLOSED_3_5"

_PROVENANCE = {
    PO_3_5: (
        "open tour over all 243 cells of the 3x3x3x3x3 board; 242 jumps, "
        "exactly two of which change five coordinates at once"
    ),
    PC_3_2_HOLE: "classical closed tour over the 8 cells of the 3x3 board without its center",
    PBAR_3_3_TWO_HOLES: (
        "open chain of 25 cells on the 3x3x3 board without its center; "
        "cell 2,0,0 is never visited, so the chain is one cell short of a "
        "full tour (its traditional name counts 2,0,0 as a second hole)"
    ),
    PC_3_4_HOLE: "closed tour over the 80 cells of the 3x3x3x3 board without its center",
    PC_2_6: (
        "closed tour over the 64 corners of the 6-cube; every jump changes "
        "five coordinates"
    ),
    NEAR_CLOSED_3_5: (
        "round trip over all 243 cells of the 3x3x3x3x3 board: the open tour "
        "plus two closing jumps through 1,1,0,0,1, the one cell visited twice; "
        "244 jumps total"
    ),
}


class CorpusEntry(_Record):
    def __init__(
        self, id: str, board: Board, kind: TourKind, vertices: tuple[Vertex, ...], provenance: str
    ) -> None:
        super().__init__(id, board, kind, vertices, provenance)

    def tour(self) -> Tour:
        return Tour(self.board, self.kind, self.vertices)


def ids() -> tuple[str, ...]:
    return tuple(_PROVENANCE)


def raw_text(entry_id: str) -> str:
    """The entry's tour file, byte for byte; each id's file is `<id lowercased>.tour`.

    The files sit beside this module, so a plain `open` reads them.
    """
    if entry_id not in _PROVENANCE:
        raise KeyError(f"unknown corpus id {entry_id!r}; known ids: {', '.join(_PROVENANCE)}")
    filename = f"{entry_id.lower()}.tour"
    with open(os.path.join(os.path.dirname(__file__), filename), encoding="utf-8") as f:
        return f.read()


@lru_cache(maxsize=None)
def get(entry_id: str) -> CorpusEntry:
    board, kind, vertices = parse_tour(raw_text(entry_id))
    return CorpusEntry(entry_id, board, kind, tuple(vertices), _PROVENANCE[entry_id])
