"""Run the hbayes CLI with spans recorded around its layers.

Usage: python traced_cli.py SPANS_OUT -- <hbayes arguments...>

The spans are written to SPANS_OUT when the command returns, also when it
fails.  The untraced benchmark run calls ``python -m hbayes.cli`` instead.
"""

import sys

sys.dont_write_bytecode = True

from tracing import Tracer  # noqa: E402  (after the bytecode switch)


def main(argv):
    if len(argv) < 2 or argv[1] != "--":
        print("usage: traced_cli.py SPANS_OUT -- <hbayes arguments...>", file=sys.stderr)
        return 2
    import hbayes.cli

    tracer = Tracer()
    tracer.install()
    try:
        return hbayes.cli.main(argv[2:])
    finally:
        tracer.dump(argv[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
