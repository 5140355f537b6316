"""eknight benchmark: one run of one workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from src/.
Each pass over the workload's jobs runs in a fresh interpreter
(perfbench/worker.py), so module caches start cold as they do for a CLI user.
Passes repeat until the next one would end after S seconds; at least one
runs.  With --trace 0 the last stdout line reports the end-to-end metrics
named in BENCHMARK.json; with --trace 1 one traced pass follows and the line
reports the per-layer metrics.  The lines before it
record the environment.  Full results, and with --trace 1 the spans, are
written under perfbench/out/.  See perfbench/README.md for every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKER = HERE / "worker.py"

# Exit within 180 s whatever the package does: no pass may end after this.
DEADLINE_S = 165
# Set-up is sampled by this many set-up-only interpreters besides the passes,
# after one discarded warm-up that may write bytecode caches.
SETUP_PROBES = 9
# Interpreter pairs timed for cli.import_ms.
IMPORT_PROBES = 7

CLI_COMMANDS = tuple(dict.fromkeys(c.split()[0] for c in inputs.README_COMMANDS))


def _environ() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    src_lines = 0
    for path in sorted((SRC / "eknight").rglob("*.py")):
        with open(path, encoding="utf-8") as f:
            src_lines += sum(1 for _ in f)
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "loadavg": list(os.getloadavg()),
        "src_py_lines": src_lines,
    }


class Runner:
    """Spawns passes and probes, each bounded by the run's deadline."""

    def __init__(self, workload: str, seed: int, tmp: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.tmp = tmp
        self.env = _environ()
        self.deadline = time.monotonic() + DEADLINE_S
        self._n = 0

    def _timeout(self) -> float:
        return max(1.0, self.deadline - time.monotonic())

    def spawn(self, trace: int, setup_only: bool = False) -> dict | None:
        """One worker process; its result, or None if it failed."""
        self._n += 1
        out = self.tmp / f"pass-{self._n}.json"
        cmd = [
            sys.executable, str(WORKER), "--workload", self.workload,
            "--seed", str(self.seed), "--trace", str(trace), "--out", str(out),
        ]
        if setup_only:
            cmd.append("--setup-only")
        start = time.monotonic()
        # its own session, so that a timeout also ends the commands and pool
        # workers it started
        proc = subprocess.Popen(
            cmd, env=self.env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            start_new_session=True,
        )
        try:
            _, err = proc.communicate(timeout=self._timeout())
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            print(f"worker timed out: {' '.join(cmd)}", file=sys.stderr)
            return None
        if proc.returncode != 0 or not out.is_file():
            sys.stderr.write(err.decode(errors="replace")[-2000:])
            return None
        with open(out, encoding="utf-8") as f:
            result = json.load(f)
        out.unlink()
        result["setup_s"] = result["ready"] - start
        result["trace"] = trace
        return result

    def import_ms(self) -> float:
        """Median of `import eknight.cli` minus a bare interpreter, in ms."""
        diffs = []
        for _ in range(IMPORT_PROBES):
            times = []
            for code in ("pass", "import eknight.cli"):
                start = time.monotonic()
                subprocess.run(
                    [sys.executable, "-c", code], env=self.env, check=True,
                    timeout=self._timeout(),
                )
                times.append(time.monotonic() - start)
            diffs.append(times[1] - times[0])
        return statistics.median(diffs) * 1000


def run_passes(runner: Runner, seconds: float) -> list[dict | None]:
    """Untraced passes until the next one would end after the window."""
    passes = []
    window = time.monotonic()
    while True:
        start = time.monotonic()
        passes.append(runner.spawn(0))
        now = time.monotonic()
        if now - window + (now - start) > seconds or now + (now - start) > runner.deadline:
            return passes


def wall_s(passes: list[dict]) -> float:
    """Time of one pass: each job's median over the passes, summed, so that
    one slow pass moves no job."""
    per_job = zip(*([j["seconds"] for j in p["jobs"]] for p in passes))
    return sum(statistics.median(times) for times in per_job)


def end_to_end(passes: list[dict], setup: list[float]) -> dict:
    jobs = [j for p in passes for j in p["jobs"]]
    return {
        "wall_s": wall_s(passes),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "solved_frac": sum(j["solved"] for j in jobs) / len(jobs),
    }


def _percentile(values: list[float], q: float) -> float:
    values = sorted(values)
    return values[min(len(values) - 1, int(q * len(values)))]


def layer_metrics(trace_spans: list[dict], same_as: dict[str, str]) -> dict:
    """Per-layer numbers of one traced pass."""
    own = spans.self_times(trace_spans)
    by_id = {s["id"]: s for s in trace_spans}

    def outermost(s) -> bool:
        p = by_id.get(s["parent"])
        while p is not None:
            if p["name"] == s["name"]:
                return False
            p = by_id.get(p["parent"])
        return True

    def named(name, *, top=False, where=lambda s: True):
        return [s for s in trace_spans if s["name"] == name and where(s)
                and (not top or outermost(s))]

    def self_s(items):
        return sum(own[s["id"]] for s in items)

    def attr_sum(items, key):
        return sum(s["attrs"].get(key, 0) for s in items)

    def errors(layer):
        return sum(1 for s in trace_spans if s["layer"] == layer
                   and (s["attrs"].get("error") or s["attrs"].get("exit") not in (None, 0)))

    m = {}
    builds = named("board.graph_build", top=True)
    m["board.graph_build_s"] = self_s(named("board.graph_build"))
    m["board.graph_builds"] = len(builds)
    m["board.edges_built"] = attr_sum(builds, "edges")
    m["board.graph_rss_mb"] = max((s["attrs"]["rss_growth_mb"] for s in builds), default=0.0)
    m["board.query_s"] = self_s(named("board.query"))
    m["board.errors"] = errors("board")

    m["feasibility.precheck_s"] = self_s(named("feasibility.precheck"))
    m["feasibility.calls"] = len(named("feasibility.precheck", top=True))
    m["feasibility.errors"] = errors("feasibility")

    def sequential(s):
        return not s["attrs"].get("parallel")

    seq = named("search.run", top=True, where=sequential)
    m["search.dfs_s"] = self_s(named("search.run", where=sequential))
    m["search.nodes"] = attr_sum(seq, "nodes")
    m["search.us_per_node"] = m["search.dfs_s"] / m["search.nodes"] * 1e6 if m["search.nodes"] else 0.0
    m["search.useful_frac"] = attr_sum(seq, "path_len") / m["search.nodes"] if m["search.nodes"] else 0.0
    m["search.budget_hits"] = sum(
        1 for s in named("search.run", top=True) if s["attrs"].get("status") == "budget_exceeded"
    )
    par = named("search.run", where=lambda s: s["attrs"].get("parallel"))
    m["search.parallel_s"] = self_s(par)
    ratios = []
    for s in par:
        base = [b for b in seq if b["job"] == same_as.get(s["job"])]
        if base:
            ratios.append((s["end"] - s["start"]) / (base[0]["end"] - base[0]["start"]))
    m["search.parallel_over_seq"] = statistics.median(ratios) if ratios else 0.0
    m["search.reverify_s"] = self_s(named(
        "tour.verify", where=lambda s: by_id.get(s["parent"], {}).get("name") == "search.run"
    ))
    m["search.errors"] = errors("search")

    verifies = named("tour.verify")
    m["tour.verify_s"] = self_s(verifies)
    m["tour.links_verified"] = attr_sum(verifies, "links")
    m["tour.verify_us_per_link"] = (
        m["tour.verify_s"] / m["tour.links_verified"] * 1e6 if m["tour.links_verified"] else 0.0
    )
    m["tour.reject_s"] = self_s([s for s in verifies if s["attrs"].get("valid") is False])
    m["tour.serialize_s"] = self_s(named("tour.serialize"))
    m["tour.bytes_out"] = attr_sum(named("tour.serialize"), "bytes")
    m["tour.parse_s"] = self_s(named("tour.parse"))
    m["tour.bytes_in"] = attr_sum(named("tour.parse"), "bytes")
    m["tour.errors"] = errors("tour")

    m["construct.double_s"] = self_s(named("construct.double"))
    m["construct.levels"] = sum(
        1 for s in named("construct.double") if s["attrs"].get("fn") == "extend_closed_tour"
    )
    m["construct.errors"] = errors("construct")

    m["corpus.load_s"] = self_s(named("corpus.load"))
    m["corpus.errors"] = errors("corpus")

    m["cli.self_s"] = self_s([s for s in trace_spans if s["layer"] == "cli"])
    m["cli.errors"] = errors("cli")

    jobs = named("bench.job")
    m["bench.job_overhead_s"] = self_s(jobs)
    m["trace.wall_s"] = sum(s["end"] - s["start"] for s in jobs)
    m["trace.spans"] = len(trace_spans)
    return m


def residual_s(trace_spans: list[dict]) -> float:
    """Traced wall time minus every span's self time; zero up to rounding."""
    own = spans.self_times(trace_spans)
    wall = sum(s["end"] - s["start"] for s in trace_spans if s["name"] == "bench.job")
    return wall - sum(own.values())


def cli_metrics(passes: list[dict]) -> dict:
    samples = [j for p in passes for j in p["jobs"] if j["op"] == "cli"]
    latencies = [j["seconds"] * 1000 for j in samples]
    m = {}
    for command in CLI_COMMANDS:
        own = [j["seconds"] * 1000 for j in samples if j["command"] == command]
        m[f"cli.{command.replace('-', '_')}_ms"] = statistics.median(own) if own else 0.0
    m["cli.cmd_p50_ms"] = statistics.median(latencies) if latencies else 0.0
    m["cli.cmd_p90_ms"] = _percentile(latencies, 0.9) if latencies else 0.0
    m["cli.cmd_samples"] = len(latencies)
    return m


def per_layer(untraced: list[dict], traced: list[dict], workload_inputs: dict, runner) -> dict:
    """Layer numbers of the traced pass; its self times and the benchmark's
    per-job overhead add up to its traced wall time."""
    same_as = {j["name"]: j["same_as"] for j in workload_inputs["jobs"] if "same_as" in j}
    m = layer_metrics(traced[0]["spans"], same_as)
    m["trace.untraced_wall_s"] = wall_s(untraced)
    m["trace.overhead_s"] = m["trace.wall_s"] - m["trace.untraced_wall_s"]
    is_cli = workload_inputs["workload"] == "cli_readme"
    m.update(cli_metrics(untraced))
    m["cli.import_ms"] = runner.import_ms() if is_cli else 0.0
    return m


def _declared(kind: str) -> list[dict]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)[kind]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="eknight benchmark, one run")
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "eknight" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'eknight'}", file=sys.stderr)
        return 2

    workload_inputs = inputs.generate(args.workload, args.seed)
    digest = inputs.digest(workload_inputs)
    same_seed_ok = digest == inputs.digest(inputs.generate(args.workload, args.seed))
    env = environment()
    header = {"workload": args.workload, "seed": args.seed, "inputs_sha256": digest}
    print(json.dumps({"environment": env, **header}, sort_keys=True), flush=True)

    OUT.mkdir(exist_ok=True)
    tmp = OUT / f"tmp-{os.getpid()}"
    tmp.mkdir()
    try:
        runner = Runner(args.workload, args.seed, tmp)
        setup = []
        if not args.trace:
            probes = [runner.spawn(0, setup_only=True) for _ in range(SETUP_PROBES + 1)]
            setup = [p["setup_s"] for p in probes[1:] if p is not None]
        passes = run_passes(runner, args.seconds)
        if args.trace:
            passes.append(runner.spawn(1))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    job_count = len(workload_inputs["jobs"])
    done = [p for p in passes if p is not None]
    attempted = job_count * len(passes)
    failed = job_count * (len(passes) - len(done)) + sum(
        j["failed"] for p in done for j in p["jobs"]
    )
    digests_ok = same_seed_ok and all(p["digest"] == digest for p in done)
    correct = failed == 0 and digests_ok and len(done) == len(passes)

    untraced = [p for p in done if not p["trace"]]
    traced = [p for p in done if p["trace"]]
    if not untraced or (args.trace and not traced):
        print("error: no pass completed", file=sys.stderr)
        return 1
    setup += [p["setup_s"] for p in untraced]
    if args.trace:
        metrics = per_layer(untraced, traced, workload_inputs, runner)
    else:
        metrics = end_to_end(untraced, setup)
    wanted = _declared("per_layer" if args.trace else "end_to_end")
    missing = [d["name"] for d in wanted if d["name"] not in metrics]
    if missing:
        print(f"error: metrics not computed: {', '.join(missing)}", file=sys.stderr)
        return 1

    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        **header,
        "environment": env,
        "seconds": args.seconds,
        "correct": correct,
        "same_seed_same_inputs": digests_ok,
        "setup_samples_s": setup,
        "trace_residual_s": [residual_s(p["spans"]) for p in traced],
        "passes": [
            None if p is None else {k: v for k, v in p.items() if k != "spans"} for p in passes
        ],
        "metrics": metrics,
    }
    with open(OUT / f"{name}.json", "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    if traced:
        with open(OUT / f"{name}-spans.json", "w", encoding="utf-8") as f:
            json.dump([p["spans"] for p in traced], f)
    for p in done:
        for j in p["jobs"]:
            for problem in j["problems"]:
                print(f"FAILED {j['name']}: {problem}", file=sys.stderr)

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            d["name"]: {"value": metrics[d["name"]], "unit": d["unit"]} for d in wanted
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
