"""Traced stand-in for ``python -m sortnet16``.

Runs ``sortnet16.cli.main`` on the command-line arguments exactly as the
package's ``__main__`` does, with spans around the import and every timed
call, and writes the spans and counts as the last line of stderr::

    SPANS {"spans": [[id, name, start, end, parent, op], ...], "counts": {...}}

The benchmark grafts them under the span of this process.
"""

import json
import sys

import spans

MARKER = "SPANS "


def main(argv) -> int:
    tracer = spans.Tracer()
    tracer.op = 0
    span = tracer.open("import.sortnet16")
    import sortnet16.cli

    tracer.close(span)
    spans.install(tracer)
    try:
        return sortnet16.cli.main(argv)
    finally:
        sys.stdout.flush()
        payload = {"spans": tracer.dump(), "counts": tracer.counts}
        sys.stderr.write(MARKER + json.dumps(payload) + "\n")


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
