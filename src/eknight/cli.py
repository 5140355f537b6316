"""Command-line surface binding all the modules together.

Subcommands: verify, analyze, search, longest, construct, distance, corpus,
export-dot, classical.  Each returns (exit code, JSON payload, text), and `run`
alone writes stdout: one sorted-key JSON object under `--format json`, so
output is byte-stable, else the text.  `corpus show` and `export-dot` have no
payload and print their tour-file or DOT text in both modes.  Found tours are
tour files; the search summary goes to stderr.  Exit codes: 0 success / valid /
feasible / found; 1 invalid tour, infeasible board, exhausted or budget-bound
search, unreachable target; 2 usage or input errors and failed stdout writes.
Only the board module loads with this one: each command imports the modules
it runs at its start, so `distance` loads no other module of the package.
"""

from __future__ import annotations

import argparse
import operator
import sys

from .board import Board, _parse_ints, format_sides, format_vertex, parse_board_text, parse_vertex

# annotations alone name these; each command imports the modules it runs
TYPE_CHECKING = False
if TYPE_CHECKING:
    from .search import SearchOutcome
    from .tour import Tour, TourKind, VerificationReport

# exit code, JSON payload (None: the text in both modes), text-mode stdout;
# a record (`board._Record`) in the payload is written as the object of its fields
_Output = tuple[int, dict | None, str]


def _add_board_arguments(parser: argparse.ArgumentParser, tour: bool = False) -> None:
    # --hole follows the whole group: argparse's usage line draws only a contiguous group
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--sides", help="comma-separated side lengths, e.g. 3,3,3,3,3")
    group.add_argument("--board", help="board description file")
    if tour:
        group.add_argument("--tour")
    parser.add_argument(
        "--hole",
        action="append",
        default=[],
        help="removed cell c1,c2,...,ck (repeatable; only with --sides)",
    )


def _board_from_args(args: argparse.Namespace) -> Board | None:
    """The board that --sides/--hole or --board give; None for export-dot --tour."""
    if args.hole and args.sides is None:
        raise ValueError("--hole only combines with --sides")
    if args.sides is not None:
        sides = _parse_ints(args.sides, ",", "side list")
        return Board(sides, [parse_vertex(h) for h in args.hole])
    if args.board is not None:
        return parse_board_text(_read(args.board))
    return None


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as f:
        return f.read()


def _text(lines: list[str]) -> str:
    return "".join(f"{line}\n" for line in lines)


def _report(kind: TourKind, report: VerificationReport) -> _Output:
    """A verification report; the exit code is 0 for a valid tour, else 1."""
    from .tour import TourKind

    links = f"{report.link_count}+1" if kind is TourKind.CLOSED else str(report.link_count)
    lines = [
        f"kind: {kind.value}",
        f"vertices: {report.entry_count}",
        f"links: {links}",
        f"valid: {'yes' if report.valid else 'no'}",
        f"endpoint squared distance: {report.endpoint_squared_distance}",
        "taxicab counts: "
        + (
            " ".join(f"{k}:{v}" for k, v in report.move_taxicab_counts.items())
            or "(none)"
        ),
    ]
    lines.extend(f"violation at index {v.index}: {v.description}" for v in report.violations)
    # str keys: sort_keys would put int 3 before 10, which str keys do not
    counts = {str(k): v for k, v in report.move_taxicab_counts.items()}
    payload = {**vars(report), "kind": kind.value, "move_taxicab_counts": counts}
    return 0 if report.valid else 1, payload, _text(lines)


def _cmd_verify(args: argparse.Namespace) -> _Output:
    from .tour import parse_tour, verify

    board, kind, vertices = parse_tour(_read(args.file))
    return _report(kind, verify(board, vertices, kind, all_violations=args.all_violations))


def _cmd_analyze(args: argparse.Namespace) -> _Output:
    from .feasibility import (
        FeasibilityVerdict, closed_tour_necessary, color_counts, open_tour_necessary,
    )

    board = _board_from_args(args)
    dark, light = color_counts(board)
    connected = board.is_connected() if board.vertex_count else False
    verdicts: dict[str, FeasibilityVerdict] = {}
    if args.target in ("open", "both"):
        verdicts["open"] = open_tour_necessary(board)
    if args.target in ("closed", "both"):
        verdicts["closed"] = closed_tour_necessary(board)
    histogram = board.degree_histogram()
    payload = {
        "sides": list(board.sides),
        "holes": sorted(list(h) for h in board.holes),
        "vertex_count": board.vertex_count,
        "dark": dark,
        "light": light,
        "connected": connected,
        "degree_histogram": {str(k): v for k, v in histogram.items()},
    }
    lines = [
        f"board: {format_sides(board.sides)}"
        + (f" minus {len(board.holes)} hole(s)" if board.holes else ""),
        f"vertices: {board.vertex_count}",
        f"dark/light: {dark}/{light}",
        f"connected: {'yes' if connected else 'no'}",
        "degree histogram: " + (" ".join(f"{k}:{v}" for k, v in histogram.items()) or "(empty)"),
    ]
    for name, verdict in verdicts.items():
        payload[name] = verdict
        lines.append(f"{name} tour: {'feasible' if verdict.feasible else 'infeasible'}")
        lines.extend(f"  - {reason}" for reason in verdict.reasons)
        lines.extend(f"  note: {note}" for note in verdict.notes)
    return 0 if any(v.feasible for v in verdicts.values()) else 1, payload, _text(lines)


def _outcome(outcome: SearchOutcome, depth_label: str) -> _Output:
    """A search outcome: summary on stderr now, the tour file as the text."""
    from .search import SearchStatus

    print(
        f"status: {outcome.status.value}  nodes: {outcome.nodes_expanded}  {depth_label}",
        file=sys.stderr,
    )
    text = outcome.tour.serialized() if outcome.tour else None
    payload = {
        "status": outcome.status.value,
        "nodes_expanded": outcome.nodes_expanded,
        "max_depth_reached": outcome.max_depth_reached,
        "tour": text,
    }
    return 0 if outcome.status is SearchStatus.FOUND else 1, payload, text or ""


def _cmd_search(args: argparse.Namespace) -> _Output:
    from .search import SearchConfig, find_tour
    from .tour import TourKind

    board = _board_from_args(args)
    config = SearchConfig(
        target=TourKind(args.target),
        start=parse_vertex(args.start) if args.start else None,
        use_warnsdorff=not args.no_warnsdorff,
        node_budget=args.budget,
        deterministic=not args.non_deterministic,
    )
    outcome = find_tour(board, config)
    return _outcome(outcome, f"max depth: {outcome.max_depth_reached}")


def _cmd_longest(args: argparse.Namespace) -> _Output:
    from .search import longest_path

    board = _board_from_args(args)
    outcome = longest_path(board, node_budget=args.budget)
    return _outcome(outcome, f"best: {outcome.max_depth_reached} vertices")


def _cmd_construct(args: argparse.Namespace) -> _Output:
    from .construct import _hypercube_tour, closed_tour_on_hypercube

    masks = [parse_vertex(m) for m in args.mask] or None
    if args.verify_only:
        # this report is the one verification: closed_tour_on_hypercube
        # would verify the tour once more before it is reported
        tour = _hypercube_tour(args.k, masks)
        return _report(tour.kind, tour.report())
    tour = closed_tour_on_hypercube(args.k, masks)
    text = tour.serialized()
    return 0, {"k": args.k, "vertex_count": len(tour.vertices), "tour": text}, text


def _cmd_distance(args: argparse.Namespace) -> _Output:
    board = _board_from_args(args)
    src = parse_vertex(args.src)
    dst = parse_vertex(args.dst)
    jumps = board.knight_distance(src, dst)
    payload = {"from": list(src), "to": list(dst), "jumps": jumps}
    text = "unreachable" if jumps is None else str(jumps)
    return 0 if jumps is not None else 1, payload, f"jumps: {text}\n"


def _cmd_corpus(args: argparse.Namespace) -> _Output:
    from . import corpus

    if args.corpus_command == "list":
        entries = [corpus.get(i) for i in corpus.ids()]
        payload = {
            "entries": [
                {
                    "id": e.id,
                    "kind": e.kind.value,
                    "vertex_entries": len(e.vertices),
                    "provenance": e.provenance,
                }
                for e in entries
            ]
        }
        lines = [
            f"{e.id}: {e.kind.value}, {len(e.vertices)} entries -- {e.provenance}"
            for e in entries
        ]
        return 0, payload, _text(lines)
    if args.corpus_command == "show":
        return 0, None, corpus.raw_text(args.id)
    # check-all
    results, lines = {}, []
    for entry_id in corpus.ids():
        entry = corpus.get(entry_id)
        report = entry.tour().report()
        results[entry_id] = _report(entry.kind, report)[1]
        status = "ok" if report.valid else "INVALID"
        lines.append(f"{entry_id}: {status} ({report.entry_count} entries)")
        lines.extend(f"  violation at index {v.index}: {v.description}" for v in report.violations)
    valid = all(result["valid"] for result in results.values())
    return 0 if valid else 1, {"results": results}, _text(lines)


def _cmd_export_dot(args: argparse.Namespace) -> _Output:
    from .tour import Tour, parse_tour

    board = _board_from_args(args)
    if board is None:
        board, kind, vertices = parse_tour(_read(args.tour))
        return 0, None, _tour_dot(Tour(board, kind, tuple(vertices)))
    return 0, None, _board_dot(board)


def _board_dot(board: Board) -> str:
    from .tour import MoveKind

    # every edge is a knight move, so the number of coordinates it changes
    # names its kind: two for an L-move, five for a diagonal5 move
    labels = {2: MoveKind.L_MOVE.value, 5: MoveKind.DIAGONAL5.value}
    adjacency = board.adjacency()  # keys in lexicographic order, each named once
    names = {v: f'"{format_vertex(v)}"' for v in adjacency}
    lines = ["graph {", *(f"  {name};" for name in names.values())]
    for v, ns in adjacency.items():
        lines += (f'  {names[v]} -- {names[w]} [label="{labels[sum(map(operator.ne, v, w))]}"];'
                  for w in ns if v < w)
    lines.append("}")
    return _text(lines)


def _tour_dot(tour: Tour) -> str:
    from .tour import TourKind, classify_move

    sequence = list(tour.vertices)
    if tour.kind is TourKind.CLOSED:
        sequence.append(tour.vertices[0])
    names = list(map(format_vertex, sequence))
    lines = ["digraph {"]
    for i in range(1, len(sequence)):
        try:
            label = classify_move(sequence[i - 1], sequence[i]).value
        except ValueError:
            label = "illegal"
        lines.append(f'  "{names[i - 1]}" -> "{names[i]}" [label="{i} {label}"];')
    lines.append("}")
    return _text(lines)


def _cmd_classical(args: argparse.Namespace) -> _Output:
    from .feasibility import classical_closed_tour_condition

    sides = _parse_ints(args.sides, ",", "side list")
    result = classical_closed_tour_condition(sides)
    text = f"classical closed tour: {'yes' if result else 'no'}\n"
    return 0 if result else 1, {"sides": sorted(sides), "closed_tour": result}, text


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eknight",
        description="Euclidean knight's tours on k-dimensional boards",
    )
    parser.add_argument("--format", choices=["text", "json"], default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="verify a tour file against its claimed kind")
    p.add_argument("file")
    p.add_argument("--all-violations", action="store_true")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("analyze", help="board statistics and feasibility verdicts")
    _add_board_arguments(p)
    p.add_argument("--target", choices=["open", "closed", "both"], default="both")
    p.set_defaults(handler=_cmd_analyze)

    p = sub.add_parser("search", help="search for an open or closed tour")
    _add_board_arguments(p)
    p.add_argument("--target", choices=["open", "closed"], default="open")
    p.add_argument("--start", help="start vertex c1,c2,...,ck")
    p.add_argument("--no-warnsdorff", action="store_true")
    p.add_argument("--budget", type=int, help="node expansion budget")
    p.add_argument("--non-deterministic", action="store_true")
    p.set_defaults(handler=_cmd_search)

    p = sub.add_parser("longest", help="exact maximum-length path")
    _add_board_arguments(p)
    p.add_argument("--budget", type=int, help="node expansion budget")
    p.set_defaults(handler=_cmd_longest)

    p = sub.add_parser("construct", help="closed tour on the k-cube, k >= 6")
    p.add_argument("--k", type=int, required=True)
    p.add_argument(
        "--mask",
        action="append",
        default=[],
        help="four axes to flip, i,j,l,m (repeat once per doubling level)",
    )
    p.add_argument("--verify-only", action="store_true")
    p.set_defaults(handler=_cmd_construct)

    p = sub.add_parser("distance", help="minimum number of knight jumps")
    _add_board_arguments(p)
    p.add_argument("--from", dest="src", required=True)
    p.add_argument("--to", dest="dst", required=True)
    p.set_defaults(handler=_cmd_distance)

    p = sub.add_parser("corpus", help="reference tour data")
    corpus_sub = p.add_subparsers(dest="corpus_command", required=True)
    corpus_sub.add_parser("list")
    show = corpus_sub.add_parser("show")
    show.add_argument("id")
    corpus_sub.add_parser("check-all")
    p.set_defaults(handler=_cmd_corpus)

    p = sub.add_parser("export-dot", help="DOT graph of a board or a tour file")
    _add_board_arguments(p, tour=True)
    p.set_defaults(handler=_cmd_export_dot)

    p = sub.add_parser("classical", help="closed-tour criterion for the classical knight")
    p.add_argument("--sides", required=True, help="comma-separated side lengths")
    p.set_defaults(handler=_cmd_classical)

    return parser


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code, payload, text = args.handler(args)
        if args.format == "json" and payload is not None:
            import json  # only this form writes JSON

            text = json.dumps(payload, sort_keys=True, default=vars) + "\n"
        # flushed inside the try, so a failed write exits 2 even when stdout is buffered
        sys.stdout.write(text)
        sys.stdout.flush()
        return code
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    code = run()
    try:
        sys.stdout.flush()
    except OSError:
        import os

        # run reported the failed write; drop what it left buffered, or the
        # flush at exit retries it and the process exits 120
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 2
    sys.exit(code)


if __name__ == "__main__":
    main()
