"""Answer checker that trusts nothing in the package under test.

Standard library only; it never imports eknight.tour (or any other eknight
module), so a defect in the package's own verifier cannot hide a wrong answer.
Tours are read as plain sequences of coordinate tuples and checked against
the board's cell count worked out here from its sides and holes.
"""

from __future__ import annotations

import itertools
from collections import deque

KNIGHT = 5

# sha256 of the stdout of each README command whose output is deterministic,
# keyed by its argument list.  Taken from the first version of the package,
# after checking its answers independently: colour counts and degree histogram
# from the box, the jump count from the hypercube rule below, the constructed
# tour with tour_problem and serialize.
CLI_SHA256 = {
    "analyze --sides 3,3,3,3,3": "efd3297aee6bd14528affc5240bf39bd85392086c45bd7a1fd9c02e8aabce5b8",
    "verify cycle.tour": "13f795411aa774ba62aa10cd75a99bfa82d1e782efa56455d53404d2c91a7f2d",
    "construct --k 10": "29d1647cb88cc97c7e9b71db73d2be9f91a9fc45165d964d1973780bbaad9072",
    "construct --k 10 --verify-only": "d721d1d5f97520d9a5135c18371bec144582c509c15f44ca15e32eccfde0d40d",
    "distance --sides 2,2,2,2,2,2 --from 0,0,0,0,0,0 --to 1,1,1,1,1,0": "4a944b7b53bf853bd824b7418022ce6921a041014e68afe990a74b32267bdb38",
    "corpus list": "33010d61695ddd1717a2fe1158ce7ecb1c53cfe4e865109c4f0328c3bdb3f724",
    "corpus show PC_2_6": "0c37bd4148e58f86bdb61c745eb0de5dc0240a2730bf7785f2f5d838451040c0",
    "corpus check-all": "b6a4ec99d58b4c130e0dccb3b1d12c8b36054b02ee0bf11675e8c38ba5e876bc",
    "export-dot --sides 3,3 --hole 1,1": "d6b316de84821e3c5246ad50d9f7d066da49fa36f79ac356acd3c8eb53e1fe5b",
    "export-dot --tour cycle.tour": "4844d9eb198df5f81adbbdc58e80bfb03885e7e9abe14f309e5e59e1e7cbb938",
    "classical --sides 2,3,4": "e89b34c16c1ed423c4cb8945f1c2f6d9d5a8863ddf964d8c08ea1215f197761f",
    "--format json analyze --sides 3,3,3,3,3": "1b129ff2a649c2c4f67423bc4c1a042fa4033dcd360f754ea700167b510adb64",
    "--format json verify cycle.tour": "28cab0a5ac3464de2614d585a444c1dc7a639959654452cedabbb474699b4ec7",
    "--format json construct --k 10": "70975c306716fbe64a101e11bb8e5858c4ed24fafb88c2673af984683c3702a1",
    "--format json construct --k 10 --verify-only": "cbf4bea42bb8e2c1b5298fdcfc2a6b4d6f1a54a45aa634f3a6f98ac93a109507",
    "--format json distance --sides 2,2,2,2,2,2 --from 0,0,0,0,0,0 --to 1,1,1,1,1,0": "dd26a42fefa4f9e4e01817b87ddce807fd856196cca770a9ccbc2889f0b8d1df",
    "--format json corpus list": "bafe2f3feab2b5bed139d7121715199c62cf3d99831edb9772bf3583fe851a46",
    "--format json corpus show PC_2_6": "0c37bd4148e58f86bdb61c745eb0de5dc0240a2730bf7785f2f5d838451040c0",
    "--format json corpus check-all": "d232a32b4e5607d0268c0044cac25c243a08add4ee71a99383ad0647a7bb49d1",
    "--format json export-dot --sides 3,3 --hole 1,1": "d6b316de84821e3c5246ad50d9f7d066da49fa36f79ac356acd3c8eb53e1fe5b",
    "--format json export-dot --tour cycle.tour": "4844d9eb198df5f81adbbdc58e80bfb03885e7e9abe14f309e5e59e1e7cbb938",
    "--format json classical --sides 2,3,4": "e308e02bdcd638ba1982351399abfc7eb0e3a03a12bdaa220f184303f1898870",
}

# Library answers for the large_boards analyze calls: (dark, light),
# is_connected, degree histogram, open feasible, closed feasible.
ANALYZE = {
    (3,) * 6: (
        (365, 364),
        True,
        {36: 64, 41: 192, 48: 240, 60: 160, 82: 60, 122: 12, 192: 1},
        True,
        False,
    ),
    (2,) * 11: ((1024, 1024), True, {462: 2048}, True, True),
}


def squared(a, b) -> int:
    return sum((x - y) * (x - y) for x, y in zip(a, b))


def cell_count(sides, holes) -> int:
    box = 1
    for s in sides:
        box *= s
    return box - len({tuple(h) for h in holes})


def _on_board(v, sides, holes) -> bool:
    return len(v) == len(sides) and all(0 <= c < s for c, s in zip(v, sides)) and v not in holes


def first_violation(sides, holes, kind: str, vertices) -> int | None:
    """Index of the first violation, in the order membership, links,
    repeats, coverage, closure; None for a valid tour of the claimed kind."""
    holes = {tuple(h) for h in holes}
    vs = [tuple(v) for v in vertices]
    for i, v in enumerate(vs):
        if not _on_board(v, sides, holes):
            return i
    for i in range(len(vs) - 1):
        if squared(vs[i], vs[i + 1]) != KNIGHT:
            return i
    seen = set()
    for i, v in enumerate(vs):
        if v in seen:
            return i
        seen.add(v)
    if kind != "path" and len(vs) != cell_count(sides, holes):
        return len(vs) - 1
    if kind == "closed" and (len(vs) < 3 or squared(vs[-1], vs[0]) != KNIGHT):
        return len(vs) - 1
    return None


def first_violation_edited(sides, holes, kind: str, valid, edited, changed) -> int | None:
    """first_violation of `edited`, a copy of the valid tour `valid` that
    differs from it only at the positions in `changed`.

    Only cells, links and repeats that involve a changed position can fail,
    so this looks at those alone instead of scanning the whole tour."""
    holes = {tuple(h) for h in holes}
    n = len(edited)
    spots = sorted(changed)
    for i in spots:
        if not _on_board(tuple(edited[i]), sides, holes):
            return i
    for j in sorted({j for i in spots for j in (i - 1, i) if 0 <= j < n - 1}):
        if squared(edited[j], edited[j + 1]) != KNIGHT:
            return j
    where = {tuple(v): i for i, v in enumerate(valid)}
    repeats = []
    for i in spots:
        v = tuple(edited[i])
        at = {c for c in spots if tuple(edited[c]) == v}
        if where.get(v) is not None and where[v] not in changed:
            at.add(where[v])
        if len(at) > 1:
            repeats.append(sorted(at)[1])
    if repeats:
        return min(repeats)
    if kind == "closed" and {0, n - 1} & set(spots) and squared(edited[-1], edited[0]) != KNIGHT:
        return n - 1
    return None


def tour_problem(sides, holes, kind: str, vertices) -> str | None:
    """A description of what is wrong with a claimed open, closed or path
    walk, or None."""
    if not vertices:
        return "empty tour"
    bad = first_violation(sides, holes, kind, vertices)
    if bad is not None:
        return f"{kind} tour on {tuple(sides)} fails at index {bad}"
    return None


def parse_tour_text(text: str):
    """(sides, holes, kind, vertices) from the tour file format."""
    sides = None
    holes = []
    kind = None
    vertices = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if sides is None:
            head, _, rest = line.partition(":")
            if head != "board":
                raise ValueError(f"expected a board line, got {line!r}")
            sides = tuple(int(p) for p in rest.split("x"))
        elif kind is None and line.startswith("hole:"):
            holes.append(tuple(int(c) for c in line[5:].split(",")))
        elif kind is None:
            head, _, rest = line.partition(":")
            if head != "kind":
                raise ValueError(f"expected a kind line, got {line!r}")
            kind = rest.strip()
        else:
            vertices.append(tuple(int(c) for c in line.split(",")))
    if sides is None or kind is None:
        raise ValueError("tour text lacks its board or kind line")
    return sides, holes, kind, vertices


def serialize(sides, holes, kind: str, vertices) -> str:
    """The canonical tour file text, written from the format's definition."""
    lines = ["board: " + " x ".join(map(str, sides))]
    lines += ["hole: " + ",".join(map(str, h)) for h in sorted(tuple(h) for h in holes)]
    lines.append(f"kind: {kind}")
    lines += [",".join(map(str, v)) for v in vertices]
    return "\n".join(lines) + "\n"


def _offsets(k: int):
    """Every coordinate change of squared length 5 in k dimensions."""
    out = []
    for d in itertools.product((-2, -1, 0, 1, 2), repeat=k):
        if sum(c * c for c in d) == KNIGHT:
            out.append(d)
    return out


def knight_distances(sides, source) -> dict:
    """Jump counts from source to every reachable cell of a full box."""
    moves = _offsets(len(sides))
    source = tuple(source)
    dist = {source: 0}
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for d in moves:
            w = tuple(c + e for c, e in zip(v, d))
            if w not in dist and all(0 <= c < s for c, s in zip(w, sides)):
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def hypercube_distance(k: int, a, b) -> int | None:
    """Jump count between corners of the k-cube.

    A jump flips five coordinates, and every coordinate permutation maps jumps
    to jumps, so the count depends only on how many coordinates differ: search
    over that number instead of over the 2^k corners.
    """
    start = sum(x != y for x, y in zip(a, b))
    dist = {start: 0}
    queue = deque([start])
    while queue:
        w = queue.popleft()
        if w == 0:
            return dist[w]
        for j in range(0, 6):  # j differing coordinates flipped back, 5-j new
            if j <= w and 5 - j <= k - w:
                u = w - j + (5 - j)
                if u not in dist:
                    dist[u] = dist[w] + 1
                    queue.append(u)
    return None


def color_counts(sides) -> tuple[int, int]:
    """(dark, light) cell counts of a full box; dark means an even sum."""
    even, odd = 1, 0
    for s in sides:
        e, o = (s + 1) // 2, s // 2
        even, odd = even * e + odd * o, even * o + odd * e
    return even, odd
