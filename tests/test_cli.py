import errno
import itertools
import json
import os
import subprocess
import sys

import pytest

import eknight
from eknight import corpus
from eknight.board import Board
from eknight.cli import run
from eknight.construct import closed_tour_on_hypercube
from eknight.tour import TourKind, parse_tour, serialize_tour


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_tour(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_verify_valid_tour(capsys, tmp_path):
    path = write_tour(tmp_path, "pc26.tour", corpus.raw_text(corpus.PC_2_6))
    code, out, _ = invoke(capsys, "verify", path)
    assert code == 0
    assert "kind: closed" in out
    assert "vertices: 64" in out
    assert "links: 63+1" in out
    assert "valid: yes" in out


def test_verify_invalid_tour(capsys, tmp_path):
    board, kind, vertices = parse_tour(corpus.raw_text(corpus.PC_2_6))
    vertices[3], vertices[10] = vertices[10], vertices[3]
    path = write_tour(tmp_path, "broken.tour", serialize_tour(board, kind, vertices))
    code, out, _ = invoke(capsys, "verify", path)
    assert code == 1
    assert "valid: no" in out
    assert "violation at index" in out


def test_verify_parse_error(capsys, tmp_path):
    path = write_tour(tmp_path, "bad.tour", "board: 3 x 3\nkind: open\n")
    code, _, err = invoke(capsys, "verify", path)
    assert code == 2
    assert "line" in err


def test_verify_missing_file(capsys, tmp_path):
    code, _, err = invoke(capsys, "verify", str(tmp_path / "absent.tour"))
    assert code == 2
    assert "error" in err


def test_analyze_text(capsys):
    code, out, _ = invoke(capsys, "analyze", "--sides", "3,3,3,3,3")
    assert code == 0
    assert "dark/light: 122/121" in out
    assert "connected: yes" in out
    assert "open tour: feasible" in out
    assert "closed tour: infeasible" in out
    assert "odd vertex count" in out


def test_analyze_checks_connectivity_once(capsys, monkeypatch):
    # the report and both verdicts read one cached connectivity check
    calls = []
    reachable = eknight.board._reachable

    def counted(*args):
        calls.append(args)
        return reachable(*args)

    monkeypatch.setattr(eknight.board, "_reachable", counted)
    code, out, _ = invoke(capsys, "analyze", "--sides", "3,3,3,3,3")
    assert code == 0 and "connected: yes" in out
    assert len(calls) == 1


def test_analyze_both_infeasible_exit_code(capsys):
    code, out, _ = invoke(capsys, "analyze", "--sides", "3,3,3,3")
    assert code == 1
    assert "open tour: infeasible" in out


def test_analyze_json_stable(capsys):
    code1, out1, _ = invoke(capsys, "--format", "json", "analyze", "--sides", "2,2,2,2,2,2")
    code2, out2, _ = invoke(capsys, "--format", "json", "analyze", "--sides", "2,2,2,2,2,2")
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["dark"] == payload["light"] == 32
    assert payload["closed"]["feasible"] is True


def test_analyze_board_file(capsys, tmp_path):
    path = tmp_path / "board.txt"
    path.write_text("3 x 3\nhole: 1,1\n", encoding="utf-8")
    code, out, _ = invoke(capsys, "analyze", "--board", str(path))
    assert code == 0
    assert "vertices: 8" in out


def test_analyze_refuses_a_box_too_large_to_enumerate(capsys):
    code, out, err = invoke(capsys, "analyze", "--sides", "1000,1000,1000,1000,1000")
    assert code == 2
    assert out == ""
    assert "1000000000000000 cells" in err


def test_search_emits_tour_file(capsys):
    code, out, err = invoke(
        capsys, "search", "--sides", "3,3", "--hole", "1,1", "--target", "closed"
    )
    assert code == 0
    assert "status: found" in err
    board, kind, vertices = parse_tour(out)
    assert board == Board([3, 3], holes=[(1, 1)])
    assert kind is TourKind.CLOSED
    assert len(vertices) == 8


def test_search_deterministic_byte_identical(capsys):
    args = ("search", "--sides", "3,3", "--hole", "1,1", "--target", "open")
    code1, out1, _ = invoke(capsys, *args)
    code2, out2, _ = invoke(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_search_exhausted_exit_code(capsys):
    code, out, err = invoke(capsys, "search", "--sides", "3,3,3,3", "--target", "open")
    assert code == 1
    assert out == ""
    assert "exhausted_none" in err


def test_search_json(capsys):
    code, out, _ = invoke(
        capsys, "--format", "json", "search", "--sides", "3,3", "--hole", "1,1",
        "--target", "closed",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "found"
    assert payload["tour"].startswith("board: 3 x 3\n")


def test_search_rejects_bad_start(capsys):
    code, _, err = invoke(
        capsys, "search", "--sides", "3,3", "--hole", "1,1", "--start", "1,1"
    )
    assert code == 2
    assert "removed cell" in err


def test_search_has_no_parallel_option(capsys):
    # every search runs in-process, so there is no worker count to give
    code, out, err = invoke(capsys, "search", "--sides", "4,4", "--parallel", "2")
    assert code == 2
    assert out == ""
    assert "unrecognized arguments: --parallel 2" in err


def test_longest_command(capsys):
    code, out, err = invoke(capsys, "longest", "--sides", "3,3,3", "--hole", "1,1,1")
    assert code == 0
    assert "best: 25 vertices" in err
    board, kind, vertices = parse_tour(out)
    assert kind is TourKind.PATH
    assert len(vertices) == 25


def test_longest_rejects_nonpositive_budget(capsys):
    for budget in ("0", "-4"):
        code, out, err = invoke(
            capsys, "longest", "--sides", "3,3,3", "--hole", "1,1,1", "--budget", budget
        )
        assert code == 2
        assert out == ""
        assert "node_budget must be positive" in err


def test_construct_and_verify_only(capsys):
    code, out, _ = invoke(capsys, "construct", "--k", "7")
    assert code == 0
    board, kind, vertices = parse_tour(out)
    assert board == Board([2] * 7)
    assert kind is TourKind.CLOSED
    assert len(vertices) == 128

    code, out, _ = invoke(capsys, "construct", "--k", "7", "--verify-only")
    assert code == 0
    assert "valid: yes" in out


def test_construct_verifies_once(capsys, monkeypatch):
    import eknight.tour

    checked = []
    verify = eknight.tour.verify

    def counting_verify(board, vertices, *args, **kwargs):
        checked.append(len(vertices))
        return verify(board, vertices, *args, **kwargs)

    monkeypatch.setattr(eknight.tour, "verify", counting_verify)
    for argv in (
        ["construct", "--k", "10", "--verify-only"],
        ["--format", "json", "construct", "--k", "10", "--verify-only"],
        ["construct", "--k", "10"],
    ):
        checked.clear()
        code, _, _ = invoke(capsys, *argv)
        assert code == 0
        assert checked == [1024]


def test_construct_deterministic_byte_identical(capsys):
    code1, out1, _ = invoke(capsys, "construct", "--k", "8")
    code2, out2, _ = invoke(capsys, "construct", "--k", "8")
    assert code1 == code2 == 0
    assert out1 == out2


def test_construct_small_k_is_input_error(capsys):
    code, _, err = invoke(capsys, "construct", "--k", "5")
    assert code == 2
    assert ">= 6" in err


def test_construct_mask_per_level(capsys):
    code, out, _ = invoke(
        capsys, "construct", "--k", "8", "--mask", "1,2,3,4", "--mask", "0,2,5,6"
    )
    assert code == 0
    _, _, vertices = parse_tour(out)
    assert len(vertices) == 256


def test_distance(capsys):
    code, out, _ = invoke(
        capsys, "distance", "--sides", "2,2,2,2,2,2",
        "--from", "0,0,0,0,0,0", "--to", "1,1,1,1,1,0",
    )
    assert code == 0
    assert "jumps: 1" in out

    code, out, _ = invoke(
        capsys, "distance", "--sides", "2,2,2,2,2",
        "--from", "0,0,0,0,0", "--to", "0,0,0,0,1",
    )
    assert code == 1
    assert "unreachable" in out


def test_corpus_commands(capsys):
    code, out, _ = invoke(capsys, "corpus", "list")
    assert code == 0
    for entry_id in corpus.ids():
        assert entry_id in out

    code, out, _ = invoke(capsys, "corpus", "show", "PC_3_2_HOLE")
    assert code == 0
    assert out == corpus.raw_text("PC_3_2_HOLE")

    code, out, _ = invoke(capsys, "corpus", "check-all")
    assert code == 0
    assert out.count(": ok") == len(corpus.ids())

    code, _, err = invoke(capsys, "corpus", "show", "NOPE")
    assert code == 2
    assert "unknown corpus id" in err


def test_corpus_check_all_reports_a_damaged_entry(capsys, monkeypatch):
    get = corpus.get

    def damaged_get(entry_id):
        entry = get(entry_id)
        if entry_id != corpus.PC_3_2_HOLE:
            return entry
        vertices = list(entry.vertices)
        vertices[2], vertices[5] = vertices[5], vertices[2]
        return corpus.CorpusEntry(**{**vars(entry), "vertices": tuple(vertices)})

    monkeypatch.setattr(corpus, "get", damaged_get)
    code, out, _ = invoke(capsys, "corpus", "check-all")
    assert code == 1
    lines = out.splitlines()
    at = lines.index("PC_3_2_HOLE: INVALID (8 entries)")
    assert lines[at + 1].startswith("  violation at index ")
    assert out.count(": ok") == len(corpus.ids()) - 1

    code, out, _ = invoke(capsys, "--format", "json", "corpus", "check-all")
    assert code == 1
    results = json.loads(out)["results"]
    assert results[corpus.PC_3_2_HOLE]["valid"] is False
    assert results[corpus.PC_3_2_HOLE]["violations"]
    assert [i for i, r in results.items() if not r["valid"]] == [corpus.PC_3_2_HOLE]


def test_export_dot_board(capsys):
    code, out, _ = invoke(capsys, "export-dot", "--sides", "3,3", "--hole", "1,1")
    assert code == 0
    assert out.startswith("graph {")
    assert '"0,0" -- "1,2" [label="L_move"];' in out


def test_export_dot_tour(capsys, tmp_path):
    path = write_tour(tmp_path, "pc26.tour", corpus.raw_text(corpus.PC_2_6))
    code, out, _ = invoke(capsys, "export-dot", "--tour", path)
    assert code == 0
    assert out.startswith("digraph {")
    assert "diagonal5" in out
    # closed tours include the wrap-around link
    assert out.count("->") == 64

    # a link that is no knight move is still drawn, labelled illegal
    board, kind, vertices = parse_tour(corpus.raw_text(corpus.PC_2_6))
    vertices[3], vertices[10] = vertices[10], vertices[3]
    path = write_tour(tmp_path, "broken.tour", serialize_tour(board, kind, vertices))
    code, out, _ = invoke(capsys, "export-dot", "--tour", path)
    assert code == 0
    assert '  "0,0,0,0,1,1" -> "0,0,1,1,1,1" [label="3 illegal"];' in out.splitlines()


def test_export_dot_hole_needs_sides(capsys, tmp_path):
    # export-dot shares the board arguments, so --hole with --tour is refused too
    path = write_tour(tmp_path, "pc26.tour", corpus.raw_text(corpus.PC_2_6))
    for source in (("--tour", path), ("--board", path)):
        code, out, err = invoke(capsys, "export-dot", *source, "--hole", "1,1")
        assert (code, out, err) == (2, "", "error: --hole only combines with --sides\n")


def test_empty_file_argument_is_input_error(capsys):
    # an empty --board or --tour names no file; it must not fall back to --sides
    for argv in (("analyze", "--board", ""), ("export-dot", "--tour", "")):
        code, out, err = invoke(capsys, *argv)
        assert code == 2 and out == "" and err.startswith("error: ")


def test_classical_command(capsys):
    code, out, _ = invoke(capsys, "classical", "--sides", "2,3,4")
    assert code == 0 and "yes" in out
    code, out, _ = invoke(capsys, "classical", "--sides", "2,2,2,2,2,2")
    assert code == 1 and "no" in out


def test_a_malformed_side_list_is_named_as_one(capsys):
    for command in ("search", "classical"):
        code, out, err = invoke(capsys, command, "--sides", "3,x")
        assert (code, out, err) == (2, "", "error: malformed side list '3,x'\n"), command


def test_unknown_flag_is_usage_error(capsys):
    code, _, _ = invoke(capsys, "analyze", "--sides", "3,3", "--frobnicate")
    assert code == 2


def test_hole_requires_sides(capsys):
    code, _, err = invoke(
        capsys, "analyze", "--board", "/nonexistent", "--hole", "1,1"
    )
    assert code == 2


def test_both_output_forms_agree(capsys, tmp_path):
    cycle = write_tour(tmp_path, "cycle.tour", corpus.raw_text(corpus.PC_3_2_HOLE))
    # the all-ones cell moved next to the all-zeros one gives taxicab lengths
    # of 10, whose JSON keys sort as strings: "10" before "5"
    tour = closed_tour_on_hypercube(10)
    vertices = list(tour.vertices)
    far = vertices.index((1,) * 10)
    vertices[1], vertices[far] = vertices[far], vertices[1]
    damaged = write_tour(
        tmp_path, "damaged.tour", serialize_tour(tour.board, tour.kind, vertices)
    )
    cases = [
        (0, "analyze", "--sides", "3,3,3,3,3"),
        (1, "analyze", "--sides", "3,3,3,3"),
        (0, "search", "--sides", "3,3", "--hole", "1,1", "--target", "closed"),
        (1, "search", "--sides", "3,3,3,3", "--target", "open"),
        (0, "longest", "--sides", "3,3,3", "--hole", "1,1,1"),
        (0, "verify", cycle),
        (1, "verify", damaged),
        (1, "verify", "--all-violations", damaged),
        (0, "construct", "--k", "7"),
        (0, "construct", "--k", "7", "--verify-only"),
        (0, "distance", "--sides", "2,2,2,2,2,2", "--from", "0,0,0,0,0,0",
         "--to", "1,1,1,1,1,0"),
        (1, "distance", "--sides", "2,2,2,2,2", "--from", "0,0,0,0,0", "--to", "0,0,0,0,1"),
        (0, "corpus", "list"),
        (0, "corpus", "show", "PC_2_6"),
        (0, "corpus", "check-all"),
        (0, "export-dot", "--sides", "3,3", "--hole", "1,1"),
        (0, "export-dot", "--tour", cycle),
        (0, "classical", "--sides", "2,3,4"),
        (1, "classical", "--sides", "2,2,2,2,2,2"),
    ]
    for expected, *argv in cases:
        text_code, text_out, text_err = invoke(capsys, *argv)
        code, out, err = invoke(capsys, "--format", "json", *argv)
        assert (code, err) == (text_code, text_err) and code == expected, argv
        if argv[:2] == ["corpus", "show"] or argv[0] == "export-dot":
            assert out == text_out, argv
            continue
        assert out.endswith("\n") and out.count("\n") == 1, argv
        payload = json.loads(out)
        assert isinstance(payload, dict), argv
        if argv[0] in ("search", "longest") or argv == ["construct", "--k", "7"]:
            # an exhausted search prints no tour file and gives "tour": null
            assert payload["tour"] == (text_out or None), argv
        if argv[0] == "verify" and argv[-1] == damaged:
            counts = list(payload["move_taxicab_counts"])
            assert "10" in counts and counts == sorted(counts), argv


class _Unwritable:
    def __init__(self, error):
        self.error = error

    def write(self, text):
        raise self.error

    def flush(self):
        pass


def test_a_failed_stdout_write_exits_2(capsys, monkeypatch):
    errors = (
        OSError(errno.ENOSPC, os.strerror(errno.ENOSPC)),
        BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE)),
    )
    for error in errors:
        for argv in (
            ["classical", "--sides", "2,3,4"],
            ["--format", "json", "classical", "--sides", "2,3,4"],
            ["construct", "--k", "7"],
            ["--format", "json", "construct", "--k", "7"],
        ):
            with monkeypatch.context() as patch:
                patch.setattr(sys, "stdout", _Unwritable(error))
                code = run(argv)
            err = capsys.readouterr().err
            assert code == 2, argv
            assert err == f"error: {error}\n", argv


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_a_buffered_write_to_a_full_device_exits_2():
    # with stdout buffered, the output fails only when it is flushed; the
    # bytes left buffered must not fail a second time as the process exits
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    for argv in (["classical", "--sides", "2,3,4"], ["construct", "--k", "12"]):
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "eknight.cli", *argv],
                stdout=full, stderr=subprocess.PIPE, text=True, env=env, timeout=60,
            )
        assert (proc.returncode, proc.stderr) == (
            2, f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"
        ), argv


def _standard_library_python(code, *args):
    """Run `code` in a fresh `python -S`, with this package alone on the path."""
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(eknight.__file__))}
    return subprocess.run(
        [sys.executable, "-S", "-c", code, *args],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )


# the last two lines of stderr: the watched modules loaded by `import
# eknight.cli`, then those loaded once the command has run
_LOADED_BY_A_COMMAND = """
import sys
import eknight.cli

def loaded():
    watched = ("dataclasses", "importlib.resources", "inspect", "json", "multiprocessing", "pathlib")
    return " ".join(sorted(m for m in sys.modules if m.startswith("eknight") or m in watched))

at_import = loaded()
code = eknight.cli.run(sys.argv[1:])
print(at_import, loaded(), sep="\\n", file=sys.stderr)
sys.exit(code)
"""


def test_each_command_imports_only_what_it_runs(tmp_path):
    cycle = write_tour(tmp_path, "cycle.tour", corpus.raw_text(corpus.PC_3_2_HOLE))
    # the tour module imports its packed checks wherever it is loaded
    tour = {"tour", "_packed"}
    search = {"search", "feasibility", *tour}
    construct = {"construct", "corpus", *tour}
    # the README's commands, each with the modules it needs beyond the board
    cases = [
        (["analyze", "--sides", "3,3,3,3,3"], {"feasibility"}),
        (["search", "--sides", "3,3", "--hole", "1,1", "--target", "closed"], search),
        (["verify", cycle], tour),
        (["longest", "--sides", "3,3,3", "--hole", "1,1,1"], search),
        (["construct", "--k", "10"], construct),
        (["construct", "--k", "10", "--verify-only"], construct),
        (["distance", "--sides", "2,2,2,2,2,2", "--from", "0,0,0,0,0,0",
          "--to", "1,1,1,1,1,0"], set()),
        (["corpus", "list"], {"corpus", *tour}),
        (["corpus", "show", "PC_2_6"], {"corpus", *tour}),
        (["corpus", "check-all"], {"corpus", *tour}),
        (["export-dot", "--sides", "3,3", "--hole", "1,1"], tour),
        (["export-dot", "--tour", cycle], tour),
        (["classical", "--sides", "2,3,4"], {"feasibility"}),
    ]
    start = {"eknight", "eknight.board", "eknight.cli"}
    for (command, needed), form in itertools.product(cases, ("text", "json")):
        argv = ["--format", form, *command]
        err = _standard_library_python(_LOADED_BY_A_COMMAND, *argv).stderr
        at_import, after_run = (set(line.split()) for line in err.splitlines()[-2:])
        assert at_import == start, argv
        # multiprocessing stays out too: no command starts a process; nor
        # does a package-data reader, since the corpus opens its files; the
        # records are no dataclasses, and json writes the JSON form alone
        # (corpus show and export-dot print their text in both forms)
        expected = start | {f"eknight.{name}" for name in needed}
        if form == "json" and command[:2] != ["corpus", "show"] and command[0] != "export-dot":
            expected.add("json")
        assert after_run == expected, argv


def test_package_names_resolve_lazily():
    code = "import sys, eknight; print(*sorted(m for m in sys.modules if m.startswith('eknight')))"
    assert _standard_library_python(code).stdout.split() == ["eknight"]

    defined_in = {
        "board": "Board KNIGHT_SQUARED_LENGTH Vertex is_knight_move parse_board_text "
                 "serialize_board_text squared_distance taxicab_distance",
        "feasibility": "Color ColorCounts FeasibilityVerdict classical_closed_tour_condition "
                       "closed_tour_necessary color color_counts move_decompositions "
                       "open_tour_necessary",
        "search": "SearchConfig SearchOutcome SearchStatus find_tour longest_path "
                  "prove_nonexistence",
        "tour": "MoveKind Tour TourKind TourParseError VerificationReport Violation "
                "classify_move parse_tour serialize_tour verify",
        "construct": "DEFAULT_FLIP_MASK closed_tour_on_hypercube extend_closed_tour",
    }
    sources = {name: f"eknight.{module}" for module, names in defined_in.items()
               for name in names.split()}
    assert set(eknight.__all__) == {*sources, "corpus", "__version__"}
    for name, module in sources.items():
        assert getattr(eknight, name) is getattr(sys.modules[module], name), name
        assert name in vars(eknight), name
    assert eknight.corpus is sys.modules["eknight.corpus"]
    star = {}
    exec("from eknight import *", star)
    del star["__builtins__"]
    assert star.keys() == set(eknight.__all__)
    assert all(value is getattr(eknight, name) for name, value in star.items())
    assert set(eknight.__all__) <= set(dir(eknight))
    with pytest.raises(AttributeError, match=r"^module 'eknight' has no attribute 'x'$"):
        eknight.x
