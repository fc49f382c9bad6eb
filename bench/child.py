"""One timed repetition in a fresh interpreter.

    python3 bench/child.py CONFIG RESULT_JSON [--trace]

Imports the package from the checkout's `src/`, times one
`cli.main(["run", CONFIG])` from call to return, and writes the exit code,
the elapsed seconds, this process's peak RSS and (with --trace) the recorded
spans to RESULT_JSON. Its own exit code is the run's.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv) -> int:
    config, result_path = argv[0], argv[1]
    traced = "--trace" in argv[2:]
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import deconopt
    from deconopt import cli

    tracer = None
    if traced:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracer import Tracer
        tracer = Tracer()
        tracer.install(deconopt)

    start = time.perf_counter()
    code = cli.main(["run", config])
    elapsed = time.perf_counter() - start

    result = {
        "exit": code,
        "seconds": elapsed,
        "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["trace"] = tracer.record(deconopt)
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
