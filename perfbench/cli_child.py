"""One stormer-kit CLI invocation with the span tracer installed.

    python -X importtime perfbench/cli_child.py <stormer-kit arguments>

Behaves like ``python -m stormer_kit.cli`` on stdout and exit code.  After the
command finishes it writes one stderr line, ``perfbench-trace <json>``: the
span summary (see spans.py) plus the time taken to import stormer_kit.cli.
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

t0 = time.perf_counter()
from stormer_kit import cli  # noqa: E402  (the import is what is timed)

import_ms = (time.perf_counter() - t0) * 1000.0

import json  # noqa: E402

from layers import CAPTURE, REFERENCES  # noqa: E402
from spans import Tracer  # noqa: E402


def main() -> int:
    tracer = Tracer(capture=CAPTURE)
    tracer.install()
    missed = tracer.missed()
    try:
        code = cli.main(sys.argv[1:])
    finally:
        tracer.uninstall()
    sys.stdout.flush()
    summary = tracer.summary(REFERENCES)
    summary["import_ms"] = import_ms
    summary["missed"] = missed
    sys.stderr.write("perfbench-trace " + json.dumps(summary) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
