"""Span recording at the package's layer boundaries, from outside the package.

`install(tracer)` replaces the layer-boundary functions of an imported
eknight with wrappers that record a span per call; no file of the package is
edited.  Per-node functions (`_prunable`, `neighbors`) are left alone: their
counts come from `SearchOutcome.nodes_expanded`.  Spans stay in memory until
the pass ends.

A span is a dict with id, parent, job, name, layer, start, end (seconds on
the system-wide monotonic clock, so spans from a child process line up) and
attrs.  A layer's self time is a span's duration minus the part its children
cover.
"""

from __future__ import annotations

import functools
import resource
import sys
import time

# (module, attribute path, span name).  A span's layer is its name's prefix.
TARGETS = (
    ("eknight.board", "Board.adjacency", "board.graph_build"),
    ("eknight.board", "Board._index_graph", "board.graph_build"),
    ("eknight.board", "Board.knight_distance", "board.query"),
    ("eknight.board", "Board.is_connected", "board.query"),
    ("eknight.board", "Board.degree_histogram", "board.query"),
    ("eknight.feasibility", "color_counts", "feasibility.precheck"),
    ("eknight.feasibility", "open_tour_necessary", "feasibility.precheck"),
    ("eknight.feasibility", "closed_tour_necessary", "feasibility.precheck"),
    ("eknight.feasibility", "classical_closed_tour_condition", "feasibility.precheck"),
    ("eknight.search", "find_tour", "search.run"),
    ("eknight.search", "prove_nonexistence", "search.run"),
    ("eknight.search", "longest_path", "search.run"),
    ("eknight.tour", "verify", "tour.verify"),
    ("eknight.tour", "serialize_tour", "tour.serialize"),
    ("eknight.tour", "parse_tour", "tour.parse"),
    ("eknight.construct", "closed_tour_on_hypercube", "construct.double"),
    ("eknight.construct", "extend_closed_tour", "construct.double"),
    ("eknight.corpus", "get", "corpus.load"),
    ("eknight.corpus", "raw_text", "corpus.load"),
)


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Tracer:
    """In-memory span recorder; one per process."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.job: str | None = None
        self._stack: list[str] = []
        self._next = 0
        # first graph build per board per job; holding the board keeps its id
        # from being reused while the job runs
        self._built: dict[tuple[int, str], object] = {}

    def open(self, name: str, attrs: dict | None = None) -> dict:
        span = {
            "id": str(self._next),
            "parent": self._stack[-1] if self._stack else None,
            "job": self.job,
            "name": name,
            "layer": name.split(".")[0],
            "start": time.monotonic(),
            "end": None,
            "attrs": attrs or {},
        }
        self._next += 1
        self._stack.append(span["id"])
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.monotonic()
        self._stack.pop()
        self.spans.append(span)

    def begin_job(self, job: str) -> dict:
        self.job = job
        self._built.clear()
        return self.open("bench.job")

    def settle(self) -> None:
        """Replace each held graph by its edge count, outside any timed span."""
        for span in self.spans:
            graph = span["attrs"].pop("graph", None)
            if graph is None:
                continue
            if isinstance(graph, dict):  # adjacency map
                rows = graph.values()
            else:  # index graph: (neighbour tuples, bitmasks, full mask)
                rows = graph[0]
            span["attrs"]["edges"] = sum(len(ns) for ns in rows) // 2

    def wrap(self, fn, name: str):
        note = _NOTES.get(fn.__name__)
        is_build = name == "board.graph_build"
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if is_build:
                key = (id(args[0]), fn.__name__)
                if key in tracer._built:
                    return fn(*args, **kwargs)
                tracer._built[key] = args[0]
                rss = _rss_mb()
            span = tracer.open(name, {"fn": fn.__name__})
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.close(span)
                span["attrs"]["error"] = type(exc).__name__
                raise
            tracer.close(span)
            if is_build:
                span["attrs"]["rss_growth_mb"] = _rss_mb() - rss
                span["attrs"]["graph"] = result
            if note is not None:
                note(span["attrs"], args, kwargs, result)
            return result

        return wrapper


def _note_search(attrs, args, kwargs, outcome) -> None:
    config = args[1] if len(args) > 1 else kwargs.get("config")
    attrs["parallel"] = bool(config is not None and getattr(config, "parallel_width", 0))
    attrs["status"] = outcome.status.value
    attrs["nodes"] = outcome.nodes_expanded
    attrs["path_len"] = len(outcome.tour.vertices) if outcome.tour is not None else 0


def _note_verify(attrs, args, kwargs, report) -> None:
    claimed = args[2] if len(args) > 2 else kwargs.get("claimed")
    attrs["valid"] = report.valid
    attrs["links"] = report.link_count + (getattr(claimed, "value", "") == "closed")


def _note_serialize(attrs, args, kwargs, text) -> None:
    attrs["bytes"] = len(text.encode())


def _note_parse(attrs, args, kwargs, result) -> None:
    text = args[0] if args else kwargs.get("text")
    attrs["bytes"] = len(text.encode())


_NOTES = {
    "find_tour": _note_search,
    "prove_nonexistence": _note_search,
    "longest_path": _note_search,
    "verify": _note_verify,
    "serialize_tour": _note_serialize,
    "parse_tour": _note_parse,
}


def install(tracer: Tracer) -> list[str]:
    """Wrap every target found in the imported package; returns those missing.

    A module-level function is replaced wherever an eknight module holds it
    under its own name, so imports by name (`from .tour import verify`) are
    traced too.
    """
    missing = []
    for module_name, path, name in TARGETS:
        module = sys.modules.get(module_name)
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None:
            missing.append(f"{module_name}.{path}")
            continue
        wrapped = tracer.wrap(original, name)
        setattr(owner, attr, wrapped)
        if owner_name:
            continue
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("eknight") and getattr(mod, attr, None) is original:
                setattr(mod, attr, wrapped)
    return missing


def self_times(spans: list[dict]) -> dict[str, float]:
    """Map span id -> duration minus the union of its children's intervals."""
    children: dict[str, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered = 0.0
        reach = s["start"]
        for a, b in sorted(children.get(s["id"], ())):
            a, b = max(a, reach), min(b, s["end"])
            if b > a:
                covered += b - a
                reach = b
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out
