"""Seeded inputs for the four workloads.

`generate(workload, seed)` returns plain JSON data: the job list of one pass
and, for cli_readme, the files its commands read.  The search instances are
fixed by name, because their tree size is what search_small measures; the
seed picks only the distance query pairs, the doubling flip masks and the
corruption sites.  The package under test receives nothing but these inputs.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random

WORKLOADS = ("search_small", "large_boards", "hypercube_io", "cli_readme")

HOLED_3_3 = [[1, 1, 1]]

# Distance queries per board in large_boards; enough that the seed's choice of
# pairs averages out of the job time.
DISTANCE_PAIRS = 40

HYPERCUBE_KS = range(12, 17)

# A closed tour of the 3x3 board without its centre, written to cycle.tour
# before the cli_readme commands run, so that `verify` and `export-dot --tour`
# read the same bytes whatever tour `search` returns.
CYCLE_TOUR = "board: 3 x 3\nhole: 1,1\nkind: closed\n0,0\n1,2\n2,0\n0,1\n2,2\n1,0\n0,2\n2,1\n"

# The README's command-line section, in order; each runs once plain and once
# with --format json.
README_COMMANDS = (
    "analyze --sides 3,3,3,3,3",
    "search --sides 3,3 --hole 1,1 --target closed",
    "verify cycle.tour",
    "longest --sides 3,3,3 --hole 1,1,1",
    "construct --k 10",
    "construct --k 10 --verify-only",
    "distance --sides 2,2,2,2,2,2 --from 0,0,0,0,0,0 --to 1,1,1,1,1,0",
    "corpus list",
    "corpus show PC_2_6",
    "corpus check-all",
    "export-dot --sides 3,3 --hole 1,1",
    "export-dot --tour cycle.tour",
    "classical --sides 2,3,4",
)


def _find(name, sides, target, expect, budget=None, parallel=0, holes=()):
    return {
        "name": name,
        "op": "find",
        "sides": list(sides),
        "holes": [list(h) for h in holes],
        "target": target,
        "budget": budget,
        "parallel": parallel,
        "expect": list(expect),
    }


def _prove(name, sides, target, expect, precheck=True, holes=()):
    return {
        "name": name,
        "op": "prove",
        "sides": list(sides),
        "holes": [list(h) for h in holes],
        "target": target,
        "precheck": precheck,
        "expect": list(expect),
    }


def _longest(name, sides, length, holes=()):
    return {
        "name": name,
        "op": "longest",
        "sides": list(sides),
        "holes": [list(h) for h in holes],
        "length": length,
    }


def _search_small() -> list[dict]:
    found = ["found"]
    return [
        _find("closed_6x6", (6, 6), "closed", found),
        _find("closed_5x6", (5, 6), "closed", found),
        _find("closed_3x10", (3, 10), "closed", found),
        _find("closed_4x4x4", (4, 4, 4), "closed", found),
        # tours exist on both; the seed gives up at the budget
        _find("closed_8x8_b200k", (8, 8), "closed", ["found", "budget_exceeded"], 200_000),
        _find("closed_2^7_b200k", (2,) * 7, "closed", ["found", "budget_exceeded"], 200_000),
        _prove("prove_closed_4x7", (4, 7), "closed", ["exhausted_none"]),
        _prove("prove_closed_4x8", (4, 8), "closed", ["exhausted_none"]),
        # no 4 x n board has a closed tour, so "found" would be wrong here
        _find(
            "closed_4x9_b300k", (4, 9), "closed", ["exhausted_none", "budget_exceeded"], 300_000
        ),
        _longest("longest_4x4", (4, 4), 15),
        _longest("longest_3x5", (3, 5), 14),
        _prove(
            "prove_open_holed_3^3", (3, 3, 3), "open", ["exhausted_none"], False, HOLED_3_3
        ),
        _prove(
            "prove_closed_holed_3^3", (3, 3, 3), "closed", ["exhausted_none"], False, HOLED_3_3
        ),
        _longest("longest_holed_3^3", (3, 3, 3), 25, HOLED_3_3),
    ]


def _cells(sides):
    return [list(v) for v in itertools.product(*(range(s) for s in sides))]


def _distance(name, sides, rng):
    cells = _cells(sides)
    pairs = [rng.sample(cells, 2) for _ in range(DISTANCE_PAIRS)]
    return {"name": name, "op": "distance", "sides": list(sides), "pairs": pairs}


def _large_boards(rng) -> list[dict]:
    return [
        {"name": "analyze_3^6", "op": "analyze", "sides": [3] * 6},
        {"name": "analyze_2^11", "op": "analyze", "sides": [2] * 11},
        _find("open_3^6", (3,) * 6, "open", ["found"]),
        _find("open_3^7", (3,) * 7, "open", ["found"]),
        dict(_find("open_3^6_parallel2", (3,) * 6, "open", ["found"], parallel=2),
             same_as="open_3^6"),
        _distance("distance_2^10", (2,) * 10, rng),
        _distance("distance_3^5", (3,) * 5, rng),
    ]


def _hypercube_io(rng) -> list[dict]:
    jobs = []
    for k in HYPERCUBE_KS:
        n = 2**k
        # the doubling step at dimension d flips four of its d axes
        masks = [sorted(rng.sample(range(d), 4)) for d in range(6, k)]
        # an adjacent swap always breaks link i-1: cells two jumps apart share
        # a colour, so they are never one jump apart
        swap = rng.randrange(1, n - 2)
        off_board = [rng.randrange(n), rng.randrange(k)]
        repeat_at, repeat_of = rng.sample(range(1, n - 1), 2)
        jobs.append(
            {
                "name": f"hypercube_{k}",
                "op": "hypercube",
                "k": k,
                "masks": masks,
                "swap": swap,
                "off_board": off_board,
                "repeat": [repeat_at, repeat_of],
            }
        )
    return jobs


def _cli_readme() -> list[dict]:
    jobs = []
    for form in ([], ["--format", "json"]):
        for command in README_COMMANDS:
            argv = form + command.split()
            jobs.append(
                {
                    "name": " ".join(argv),
                    "op": "cli",
                    "command": command.split()[0],
                    "argv": argv,
                }
            )
    return jobs


def generate(workload: str, seed: int) -> dict:
    """All inputs of one pass of a workload; equal seeds give equal inputs."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}/{seed}")
    files = {}
    if workload == "search_small":
        jobs = _search_small()
    elif workload == "large_boards":
        jobs = _large_boards(rng)
    elif workload == "hypercube_io":
        jobs = _hypercube_io(rng)
    else:
        jobs = _cli_readme()
        files = {"cycle.tour": CYCLE_TOUR}
    return {"workload": workload, "seed": seed, "jobs": jobs, "files": files}


def digest(inputs: dict) -> str:
    """Content hash of generated inputs, for the same-seed self-check."""
    return hashlib.sha256(json.dumps(inputs, sort_keys=True).encode()).hexdigest()
