"""Run `gdms` with the benchmark's spans installed, for traced cli-corpus passes.

Usage: python3 bench/traced_cli.py SPANS_JSON GDMS_ARGS...

Imports gdmskit, wraps its public calls (see tracing.py), runs the command
line front end on GDMS_ARGS, writes the spans and counts to SPANS_JSON and
exits with the front end's exit code. Span times use the system-wide
monotonic clock, so the parent can place them inside its own spans.
"""

import sys

import gdmskit.cli

import tracing


def main(argv):
    out, args = argv[0], argv[1:]
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        return gdmskit.cli.main(args)
    finally:
        restore()
        tracer.write(out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
