"""Start ``repro serve`` with every serving layer wrapped in spans.

Usage::

    python3 perfbench/serve_launch.py --spans PATH -- serve --port 0 ...

The wrappers are installed before the server is built, then the CLI's
own entry point runs; when it returns (after SIGTERM) the spans are
written to ``PATH``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import tracing


def main() -> int:
    argv = sys.argv[1:]
    if len(argv) < 3 or argv[0] != "--spans" or argv[2] != "--":
        sys.stderr.write(__doc__)
        return 2
    spans = Path(argv[1])
    tracer = tracing.install_serve_wrappers()
    from repro.cli import main as cli_main

    code = cli_main(argv[3:])
    tracer.dump(spans)
    return code


if __name__ == "__main__":
    sys.exit(main())
