"""``repro serve`` with the benchmark's set-up and serving spans installed.

Usage::

    python benchmarks/e2e/serve_traced.py EVENTS_OUT serve ARTIFACT --listen HOST:PORT

Installs the wrappers of ``spans.py``, enables ``repro.obs`` telemetry
writing JSON-lines events to ``EVENTS_OUT`` — before the server builds its
corpus, so the set-up layers are recorded too — and runs
``repro.cli.main`` with the arguments after ``EVENTS_OUT``.  Read the events
back with ``repro.obs.read_events`` once the server has drained (SIGTERM).
"""

from __future__ import annotations

import sys

import spans


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    events_out, serve_argv = argv[0], argv[1:]
    spans.install_setup()
    spans.install_serving()
    from repro.cli import main as cli_main
    from repro.obs import telemetry_session
    with telemetry_session(events_out):
        return cli_main(serve_argv)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
