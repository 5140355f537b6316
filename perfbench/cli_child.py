"""Traced stand-in for `python3 -m eknight.cli`, used by traced cli_readme passes.

    python3 perfbench/cli_child.py SPAN_DIR ARGS...

Runs the CLI on ARGS exactly as `python3 -m eknight.cli ARGS` would, with the
package's layer boundaries wrapped, and writes its spans to SPAN_DIR/<pid>.json
when the command ends.  `cli.import` covers `import eknight.cli`; `cli.run`
covers argument parsing, the command and its output.
"""

import time

_t0 = time.monotonic()
import eknight.cli  # noqa: E402

_t1 = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

import spans  # noqa: E402


def main() -> int:
    span_dir, argv = sys.argv[1], sys.argv[2:]
    tracer = spans.Tracer()
    tracer.spans.append(
        {
            "id": "import",
            "parent": None,
            "job": None,
            "name": "cli.import",
            "layer": "cli",
            "start": _t0,
            "end": _t1,
            "attrs": {},
        }
    )
    spans.install(tracer)
    span = tracer.open("cli.run")
    code = None
    try:
        code = eknight.cli.run(argv)
        return code
    finally:
        tracer.close(span)
        span["attrs"]["exit"] = code
        sys.stdout.flush()
        tracer.settle()
        with open(os.path.join(span_dir, f"{os.getpid()}.json"), "w", encoding="utf-8") as f:
            json.dump(tracer.spans, f)


if __name__ == "__main__":
    sys.exit(main())
