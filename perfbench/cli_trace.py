"""Traced CLI op: run `quotlat.cli.main(argv)` with the outside-in tracer.

Usage: python3 perfbench/cli_trace.py <quotlat CLI arguments...>

The CLI's standard output is captured and printed, together with its exit
code and the tracer summary, as one JSON object on standard output.  Exits
with code 3, printing nothing, when a traced layer no longer exists.
"""

import contextlib
import io
import json
import sys

from tracer import LayerMissing, Tracer


def main(argv: list[str]) -> int:
    import quotlat.cli

    tracer = Tracer()
    try:
        tracer.install()
    except LayerMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            rc = quotlat.cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
    tracer.uninstall()
    json.dump({"rc": rc, "stdout": out.getvalue(), "summary": tracer.summary()}, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
