"""One function per job kind: the library calls a user would make, then a check.

`run(job, ctx)` makes exactly the call sequence of one job and returns what the
package returned; it is the only part of a job that is timed.  `check_result(job,
result, ctx)` then judges that result with the independent checker and
returns (solved, problems).  Each job builds a fresh Board and shares it
across its own calls, as one CLI run does.
"""

from __future__ import annotations

import hashlib
import json
import subprocess

import check
import eknight
from eknight import Board, SearchConfig, TourKind

SOLVED = ("found", "exhausted_none")


def _board(job) -> Board:
    return Board(job["sides"], [tuple(h) for h in job["holes"]])


def _run_find(job, ctx):
    config = SearchConfig(
        target=TourKind(job["target"]),
        node_budget=job["budget"],
        parallel_width=job["parallel"],
    )
    return eknight.find_tour(_board(job), config)


def _run_prove(job, ctx):
    return eknight.prove_nonexistence(
        _board(job), TourKind(job["target"]), use_feasibility_precheck=job["precheck"]
    )


def _run_longest(job, ctx):
    return eknight.longest_path(_board(job))


def _run_analyze(job, ctx):
    board = Board(job["sides"])
    return (
        tuple(eknight.color_counts(board)),
        board.is_connected(),
        board.degree_histogram(),
        eknight.open_tour_necessary(board).feasible,
        eknight.closed_tour_necessary(board).feasible,
    )


def _run_distance(job, ctx):
    board = Board(job["sides"])
    return [board.knight_distance(tuple(a), tuple(b)) for a, b in job["pairs"]]


def _corruptions(vertices, job):
    """The three damaged copies: adjacent swap, off-board cell, repeated cell."""
    swapped = list(vertices)
    i = job["swap"]
    swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
    off = list(vertices)
    p, axis = job["off_board"]
    off[p] = off[p][:axis] + (2,) + off[p][axis + 1:]
    repeated = list(vertices)
    at, of = job["repeat"]
    repeated[at] = repeated[of]
    return [swapped, off, repeated]


def _changed(job):
    """The positions each damaged copy changes, in _corruptions order."""
    return [{job["swap"], job["swap"] + 1}, {job["off_board"][0]}, {job["repeat"][0]}]


def _run_hypercube(job, ctx):
    tour = eknight.closed_tour_on_hypercube(job["k"], job["masks"])
    text = eknight.serialize_tour(tour.board, tour.kind, tour.vertices)
    board, kind, vertices = eknight.parse_tour(text)
    report = eknight.verify(board, vertices, kind)
    rejects = [
        (bad, eknight.verify(board, bad, kind, all_violations=True))
        for bad in _corruptions(vertices, job)
    ]
    return tour, text, (board, kind, vertices), report, rejects


def _run_cli(job, ctx):
    return subprocess.run(
        ctx["cli_prefix"] + job["argv"],
        cwd=ctx["workdir"],
        env=ctx["env"],
        capture_output=True,
        timeout=120,
    )


RUN = {
    "find": _run_find,
    "prove": _run_prove,
    "longest": _run_longest,
    "analyze": _run_analyze,
    "distance": _run_distance,
    "hypercube": _run_hypercube,
    "cli": _run_cli,
}


def _tour_of(tour):
    """(sides, holes, kind, vertices) of a returned Tour, read as plain data."""
    return tour.board.sides, tour.board.holes, tour.kind.value, tour.vertices


def _check_search(job, outcome, ctx):
    problems = []
    status = outcome.status.value
    if status not in job["expect"]:
        problems.append(f"status {status}, expected one of {job['expect']}")
    if status == "found":
        sides, holes, kind, vertices = _tour_of(outcome.tour)
        if (list(sides), sorted(map(list, holes))) != (job["sides"], sorted(job["holes"])):
            problems.append("tour is on another board")
        if kind != job["target"]:
            problems.append(f"tour claims {kind}, asked for {job['target']}")
        bad = check.tour_problem(job["sides"], job["holes"], job["target"], vertices)
        if bad:
            problems.append(bad)
        ctx["tours"][job["name"]] = vertices
        if "same_as" in job and ctx["tours"].get(job["same_as"]) != vertices:
            problems.append(f"tour differs from the one {job['same_as']} returned")
    elif outcome.tour is not None:
        problems.append(f"status {status} came with a tour")
    return status in SOLVED, problems


def _check_longest(job, outcome, ctx):
    problems = []
    sides, holes, kind, vertices = _tour_of(outcome.tour)
    bad = check.tour_problem(job["sides"], job["holes"], "path", vertices)
    if bad:
        problems.append(bad)
    if outcome.status.value != "found":
        problems.append(f"status {outcome.status.value}, expected an exact answer")
    if len(vertices) != job["length"]:
        problems.append(f"path of {len(vertices)} cells, expected {job['length']}")
    return outcome.status.value == "found", problems


def _check_analyze(job, result, ctx):
    expected = check.ANALYZE[tuple(job["sides"])]
    problems = []
    if result[0] != check.color_counts(job["sides"]) or result[0] != expected[0]:
        problems.append(f"colour counts {result[0]}")
    for label, got, want in zip(
        ("connected", "degree histogram", "open verdict", "closed verdict"),
        result[1:],
        expected[1:],
    ):
        if got != want:
            problems.append(f"{label} {got!r}, expected {want!r}")
    return True, problems


def _check_distance(job, result, ctx):
    problems = []
    k = len(job["sides"])
    cube = all(s == 2 for s in job["sides"])
    tables = {}
    for (a, b), got in zip(job["pairs"], result):
        if cube:
            want = check.hypercube_distance(k, a, b)
        else:
            if tuple(a) not in tables:
                tables[tuple(a)] = check.knight_distances(job["sides"], a)
            want = tables[tuple(a)].get(tuple(b))
        if got != want:
            problems.append(f"distance {a} -> {b} is {got}, expected {want}")
    if len(result) != len(job["pairs"]):
        problems.append("missing distance answers")
    return True, problems


def _check_hypercube(job, result, ctx):
    tour, text, parsed, report, rejects = result
    sides = (2,) * job["k"]
    problems = []
    bad = check.tour_problem(sides, (), "closed", tour.vertices)
    if bad:
        problems.append(bad)
    if text != check.serialize(sides, (), "closed", tour.vertices):
        problems.append("serialized text differs from the tour file format")
    board, kind, vertices = parsed
    if (board.sides, set(board.holes), kind.value, tuple(map(tuple, vertices))) != (
        sides,
        set(),
        "closed",
        tuple(tour.vertices),
    ):
        problems.append("parsed tour differs from the serialized one")
    if not report.valid:
        problems.append("verify rejected a valid tour")
    for (bad_copy, bad_report), changed in zip(rejects, _changed(job)):
        want = check.first_violation_edited(
            sides, (), "closed", tour.vertices, bad_copy, changed
        )
        got = bad_report.first_violation.index if bad_report.violations else None
        if bad_report.valid:
            problems.append("verify accepted a corrupted copy")
        elif want is None or got != want:
            problems.append(f"corrupted copy: first violation at {got}, expected {want}")
    return True, problems


def _check_cli(job, proc, ctx):
    problems = []
    if proc.returncode != 0:
        problems.append(f"exit code {proc.returncode}: {proc.stderr.decode()[-200:]}")
        return False, problems
    key = " ".join(job["argv"])
    out = proc.stdout.decode()
    if key in check.CLI_SHA256:
        if hashlib.sha256(proc.stdout).hexdigest() != check.CLI_SHA256[key]:
            problems.append("output bytes differ from the expected output")
        return True, problems
    # search and longest: any valid answer passes, so successor order may change
    text = json.loads(out)["tour"] if job["argv"][0] == "--format" else out
    if job["command"] == "search":
        expect = ((3, 3), [(1, 1)], "closed", 8)
    else:
        expect = ((3, 3, 3), [(1, 1, 1)], "path", 25)
    sides, holes, kind, vertices = check.parse_tour_text(text)
    if (sides, holes, kind) != expect[:3]:
        problems.append(f"tour header {sides} {holes} {kind}")
    bad = check.tour_problem(sides, holes, kind, vertices)
    if bad:
        problems.append(bad)
    if len(vertices) != expect[3]:
        problems.append(f"{len(vertices)} cells, expected {expect[3]}")
    return True, problems


CHECK = {
    "find": _check_search,
    "prove": _check_search,
    "longest": _check_longest,
    "analyze": _check_analyze,
    "distance": _check_distance,
    "hypercube": _check_hypercube,
    "cli": _check_cli,
}


def run(job, ctx):
    return RUN[job["op"]](job, ctx)


def check_result(job, result, ctx):
    return CHECK[job["op"]](job, result, ctx)
