"""Start ``deuce-sim`` with the benchmark's span wrappers installed.

Usage: ``python3 e2ebench/launch_server.py [--spans OUT.npz] CLI-ARGS...``

Without ``--spans`` this is plain ``repro.cli.main(CLI-ARGS)``.  With it,
the wrappers of :mod:`spans` go in before the CLI runs, and the spans are
saved to ``OUT.npz`` when the CLI returns (``serve`` returns after its
SIGTERM drain).
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import SRC  # noqa: E402

sys.path.insert(0, str(SRC))


def main(argv: list[str]) -> int:
    spans_out = None
    if argv[:1] == ["--spans"]:
        spans_out, argv = argv[1], argv[2:]
    import repro.cli

    recorder = None
    if spans_out:
        import spans

        recorder = spans.SpanRecorder()
        spans.install_tracing(recorder)
    try:
        return repro.cli.main(argv)
    finally:
        if recorder is not None:
            recorder.save(spans_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
