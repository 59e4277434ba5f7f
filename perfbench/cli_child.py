"""Run `rpkmeans <args>` with tracing wrappers installed; write the spans.

Usage: python3 perfbench/cli_child.py SPANS_JSON ARG...

The traced twin of `python3 -m rpkmeans.cli ARG...`: same arguments, same
stdout and exit code, plus the recorded spans written to SPANS_JSON.
"""

import json
import sys
from pathlib import Path

from tracing import Tracer


def main():
    spans_file, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    import rpkmeans.cli

    try:
        code = rpkmeans.cli.main(argv)
    finally:
        tracer.uninstall()
        Path(spans_file).write_text(json.dumps(tracer.spans))
    return code


if __name__ == "__main__":
    sys.exit(main())
