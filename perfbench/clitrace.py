"""Traced stand-in for ``python -m corona_lab`` used by the cli-small traced run.

    python3 -X importtime perfbench/clitrace.py SPANS_JSON -- <corona-lab argv>

Imports the CLI, installs the tracer, runs ``cli.main`` on the argv and
writes the recorded spans and counts to SPANS_JSON before exiting with the
CLI's exit code.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import tracer  # noqa: E402
from corona_lab import cli  # noqa: E402


def main() -> int:
    spans_path, sep, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    if sep != "--":
        raise SystemExit("usage: clitrace.py SPANS_JSON -- ARGV...")
    tr = tracer.Tracer()
    tracer.install(tr)
    rc = 2
    try:
        rc = cli.main(argv)
    except SystemExit as e:
        rc = e.code if isinstance(e.code, int) else 2
    finally:
        with open(spans_path, "w") as fh:
            json.dump({"spans": tr.spans, "counts": tr.counts}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
