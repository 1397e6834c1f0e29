"""Run ``repro serve`` with the outside-in tracer installed.

Usage: ``python servebench/traced_serve.py SPANS.npz [repro serve args]``

Tracing is off until the process receives SIGUSR1 and off again after
SIGUSR2, so the load generator can alternate traced and untraced
stretches and report the tracer's overhead. The spans are written to
``SPANS.npz`` when the server exits (SIGINT stops it, as it stops
``repro serve``).
"""

from __future__ import annotations

import os
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from layertrace import Tracer, install  # noqa: E402
from repro.cli import main  # noqa: E402


def run(argv: list[str]) -> int:
    spans_path, serve_args = argv[0], argv[1:]
    tracer = install(Tracer())
    signal.signal(signal.SIGUSR1, lambda *_: tracer.start())
    signal.signal(signal.SIGUSR2, lambda *_: tracer.stop())
    try:
        return main(["serve", *serve_args])
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:]))
