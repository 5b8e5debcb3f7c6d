"""Run one cvres CLI command in a fresh interpreter and report what it cost.

Usage: python3 bench/child.py REQUEST.json

The request names the source tree, the CLI arguments (none for a probe that
only imports), whether to trace, and where to write the report.  The report
holds the time to import ``cvres.cli`` (``setup_s``), the wall and CPU time
from the call of ``cvres.cli.main`` to its return (``wall_s``, ``cpu_s``),
the exit code, this process's peak resident set, and, when traced, every
span.  The process exits with the CLI's own exit code, or 3 if
the CLI raised.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback


def main(request_path: str) -> int:
    with open(request_path) as fh:
        req = json.load(fh)
    src = os.path.realpath(req["src"])
    sys.path.insert(0, src)

    start = time.perf_counter()
    import cvres.cli as cli
    setup_s = time.perf_counter() - start
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        print(f"cvres imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 4

    if req["argv"] is None:  # an import-only probe
        with open(req["report"], "w") as fh:
            json.dump({"setup_s": setup_s}, fh)
        return 0

    tracer = None
    if req["trace"]:
        from tracing import Tracer, install

        tracer = Tracer()
        install(tracer)

    crash = None
    cpu_start = time.process_time()
    start = time.perf_counter()
    try:
        code = cli.main(req["argv"])
    except Exception:  # a crash is an outcome to report, not to hide
        code, crash = 3, traceback.format_exc()
    wall_s = time.perf_counter() - start
    cpu_s = time.process_time() - cpu_start

    report = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "exit_code": code,
        "crash": crash,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "spans": tracer.spans if tracer else None,
    }
    with open(req["report"], "w") as fh:
        json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
