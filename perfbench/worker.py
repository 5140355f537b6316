"""One pass over a workload's jobs, in a fresh interpreter.

    python3 perfbench/worker.py --workload W --seed N --trace 0|1 --out FILE [--setup-only]

Set-up is interpreter start, `import eknight` and generating the seeded
inputs; the monotonic time at which it ends is reported as `ready`, so the
parent can measure set-up from the moment it spawned this process.  Each job
is then timed around its library calls only, and checked afterwards.  With
--trace 1 the layer boundaries are wrapped after set-up and the spans are
written with the results.  Results go to FILE as JSON.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import sys
import time
import traceback

import eknight  # noqa: F401  (set-up includes the package import)
import inputs
import jobs
import spans

HERE = os.path.dirname(os.path.abspath(__file__))


def _peak_rss_mb() -> float:
    """Peak resident set of this process or any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024


def _cli_context(workload_inputs, workdir, trace_dir):
    os.makedirs(workdir, exist_ok=True)
    for name, text in workload_inputs["files"].items():
        with open(os.path.join(workdir, name), "w", encoding="utf-8") as f:
            f.write(text)
    if trace_dir is None:
        prefix = [sys.executable, "-m", "eknight.cli"]
    else:
        os.makedirs(trace_dir, exist_ok=True)
        prefix = [sys.executable, os.path.join(HERE, "cli_child.py"), trace_dir]
    return {"workdir": workdir, "env": dict(os.environ), "cli_prefix": prefix}


def _child_spans(trace_dir, process_span):
    """Spans a traced CLI child wrote, re-rooted under the parent's span."""
    out = []
    for name in sorted(os.listdir(trace_dir)):
        path = os.path.join(trace_dir, name)
        with open(path, encoding="utf-8") as f:
            child = json.load(f)
        os.remove(path)
        prefix = process_span["id"] + "/"
        for s in child:
            s["id"] = prefix + s["id"]
            s["parent"] = process_span["id"] if s["parent"] is None else prefix + s["parent"]
            s["job"] = process_span["job"]
            out.append(s)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload_inputs = inputs.generate(args.workload, args.seed)
    base = os.path.splitext(args.out)[0]
    ctx = {"tours": {}}
    trace_dir = base + "-spans" if args.trace else None
    if args.workload == "cli_readme":
        ctx.update(_cli_context(workload_inputs, base + "-work", trace_dir))
    ready = time.monotonic()
    result = {"ready": ready, "digest": inputs.digest(workload_inputs), "jobs": []}
    if args.setup_only:
        _write(args.out, result)
        return 0

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        result["missing_trace_targets"] = spans.install(tracer)
    for job in workload_inputs["jobs"]:
        gc.collect()
        span = tracer.begin_job(job["name"]) if tracer else None
        if span is not None and job["op"] == "cli":
            process = tracer.open("cli.process", {"command": job["command"]})
        error = None
        t0 = time.monotonic()
        try:
            answer = jobs.run(job, ctx)
        except Exception:  # a crashing job is a failed job; the pass goes on
            error = traceback.format_exc(limit=3)
        t1 = time.monotonic()
        if span is not None:
            if job["op"] == "cli":
                tracer.close(process)
            tracer.close(span)
            tracer.settle()
            if job["op"] == "cli":
                tracer.spans.extend(_child_spans(trace_dir, process))
        if error is None:
            try:
                solved, problems = jobs.check_result(job, answer, ctx)
            except Exception:
                solved, problems = False, [traceback.format_exc(limit=3)]
        else:
            solved, problems = False, [error]
        answer = None
        result["jobs"].append(
            {
                "name": job["name"],
                "op": job["op"],
                "command": job.get("command"),
                "seconds": t1 - t0,
                "solved": bool(solved) and not problems,
                "failed": bool(problems),
                "problems": problems,
            }
        )
    result["peak_rss_mb"] = _peak_rss_mb()
    if tracer:
        result["spans"] = tracer.spans
    if "workdir" in ctx:
        shutil.rmtree(ctx["workdir"], ignore_errors=True)
    if trace_dir:
        shutil.rmtree(trace_dir, ignore_errors=True)
    _write(args.out, result)
    return 0


def _write(path, data) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(data, f)


if __name__ == "__main__":
    sys.exit(main())
