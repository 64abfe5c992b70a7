"""Launch ``repro serve`` with the serve and engine entry points wrapped.

Usage: ``python3 perfbench/traced_daemon.py SPANS_JSON serve --index FILE``

Installs :func:`tracing.install_daemon` and then calls
``repro.cli.main`` with the remaining arguments, so the daemon is the
shipped CLI path with the same defaults.  The spans kept in memory are
written to ``SPANS_JSON`` when the daemon returns.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracing import Recorder, install_daemon  # noqa: E402


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    recorder = Recorder()
    install_daemon(recorder)
    from repro.cli import main as cli_main

    try:
        return cli_main(argv)
    finally:
        recorder.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
