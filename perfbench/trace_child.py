"""Run one qsd command with span tracing, for the traced CLI pass.

Usage: python3 trace_child.py SPANS_OUT COMMAND [ARGS...]

Installs the tracer around the qsd package, runs ``qsd.cli.main`` as the
``qsd`` program would, writes the spans to SPANS_OUT and exits with the
command's exit code.
"""

import sys

import qsd.cli

from spans import Tracer


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    sys.argv = ["qsd", *argv]
    tracer.begin(0)
    try:
        qsd.cli.main()
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        tracer.end()
        tracer.uninstall()
    tracer.dump(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
