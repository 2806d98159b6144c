"""Run one rblab CLI command with spans recorded, for the traced `cli` workload.

Usage: python3 perfbench/cli_child.py SPANS_JSON rblab-arguments...

Times `import rblab.cli`, wraps rblab's public functions (see spans.py), runs
`rblab.cli.main` and writes the spans to SPANS_JSON even when the command
raises; the exit status is what `python -m rblab.cli` would give.
"""

import sys
from pathlib import Path

from spans import Tracer


def main() -> int:
    out, argv = Path(sys.argv[1]), sys.argv[2:]
    tracer = Tracer()
    try:
        with tracer.span("cli.import"):
            import rblab.cli
        tracer.patch()
        return rblab.cli.main(argv)
    finally:
        tracer.write(out)


if __name__ == "__main__":
    sys.exit(main())
