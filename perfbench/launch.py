"""Run a ``repro.cli`` subcommand, optionally with layer spans installed.

    python3 perfbench/launch.py [--spans PATH] -- serve --genome g.fa ...

Without ``--spans`` this is the CLI itself.  With it, the serving
layers' entry points are wrapped (``spans.install_server_spans``)
before the CLI starts; SIGUSR1 clears the aggregates and writes
``PATH.reset`` to acknowledge, which starts the measured window; the
aggregates are written to ``PATH`` when the process drains and exits.
"""

from __future__ import annotations

import os
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def main(argv):
    spans_path = None
    if argv[:1] == ["--spans"]:
        spans_path, argv = argv[1], argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    from repro import cli
    if spans_path is None:
        return cli.main(argv)

    import spans
    tracer = spans.Tracer()
    spans.install_server_spans(tracer)

    def start_window(_signum, _frame):
        tracer.reset()
        with open(spans_path + ".reset", "w", encoding="ascii"):
            pass

    signal.signal(signal.SIGUSR1, start_window)
    try:
        return cli.main(argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
