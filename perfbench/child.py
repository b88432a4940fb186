"""Traced stand-in for ``python -c "from jordankron.cli import entry; entry()"``.

    python3 perfbench/child.py SPANS_JSON ARG...

Times the import of ``jordankron.cli``, runs ``cli.main(ARG...)`` under the
span tracer and writes the import time, the spans and their aggregates to
SPANS_JSON before exiting with main's exit code.  The traced cli-startup run
uses it; the untraced run calls the entry point directly.
"""

import json
import sys
from time import perf_counter


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    t0 = perf_counter()
    import jordankron.cli

    import_s = perf_counter() - t0
    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        rc = jordankron.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"import_s": import_s, "spans": tracer.spans,
                       "stats": tracer.export()}, fh)
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
