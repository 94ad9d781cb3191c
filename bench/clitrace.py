"""Traced stand-in for `python -m liecurv.cli`, run as a child process.

    python -X importtime bench/clitrace.py --stats OUT.json [-- CLI ARGS...]

Times `import liecurv.cli`, installs the span wrappers, runs
`liecurv.cli.main(CLI ARGS)` as one traced op and writes the tracer's stats
plus the import time to OUT.json. It prints what the CLI prints and exits
with its status. Without CLI ARGS it only imports (the import probe). The
parent reads numpy's share of the import from the -X importtime lines.
"""

from __future__ import annotations

import json
import sys
import time


def main() -> int:
    argv = sys.argv[1:]
    if len(argv) < 2 or argv[0] != "--stats":
        print("usage: clitrace.py --stats OUT.json [-- CLI ARGS...]", file=sys.stderr)
        return 2
    stats_path, rest = argv[1], argv[2:]
    t0 = time.perf_counter()
    import liecurv.cli
    import_ms = (time.perf_counter() - t0) * 1e3

    import spans

    tracer = spans.Tracer()
    status = 0
    if rest:
        cli_args = rest[1:] if rest[0] == "--" else rest
        tracer.install()
        tracer.begin_op(0)
        try:
            status = liecurv.cli.main(cli_args)
        finally:
            tracer.end_op()
            tracer.uninstall()
    stats = tracer.stats()
    stats["import_ms"] = import_ms
    with open(stats_path, "w", encoding="utf-8") as fh:
        json.dump(stats, fh)
    return status


if __name__ == "__main__":
    sys.exit(main())
