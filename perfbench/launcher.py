"""Run the curvelab CLI in this interpreter with the benchmark's spans.

    python3 perfbench/launcher.py TRACE_OUT OP_ID -- CLI ARGUMENTS...

Times the import of ``curvelab.cli``, installs the same wrappers as the
traced in-process runs, calls ``curvelab.cli.main`` and writes the spans
to TRACE_OUT.  The exit code is the CLI's.
"""

import sys
import time

from spans import Tracer


def main():
    out, op, sep, *args = sys.argv[1:]
    if sep != "--":
        raise SystemExit(__doc__)
    t0 = time.perf_counter()
    import curvelab.cli
    import_s = time.perf_counter() - t0
    tracer = Tracer()
    tracer.values["cli.import_s"].append(import_s)
    tracer.install()
    tracer.op = op
    try:
        return curvelab.cli.main(args)
    finally:
        sys.stdout.flush()
        tracer.dump(out)


if __name__ == "__main__":
    sys.exit(main())
