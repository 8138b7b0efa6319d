"""Start the sweep server, optionally with the layer wrappers installed.

    python3 perfbench/serve_launcher.py [--traced] serve [serve CLI options]

Everything after the optional ``--traced`` goes to the ``python -m
repro.serve`` entry point unchanged.  With ``--traced`` the wrappers of
:mod:`layers` (including the serve-only ones) are installed first, so a
``--span-file`` given to the server holds the per-layer spans too.
"""

from __future__ import annotations

import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]


def main(argv: list) -> int:
    from repro.serve.cli import main as serve_main

    if argv[:1] == ["--traced"]:
        from layers import Instrumentation

        Instrumentation(serve=True).install()
        argv = argv[1:]
    return serve_main(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
