#!/usr/bin/env python3
"""Benchmark of curvelab on exact-answer inputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: curvelab is imported from ``src/``.
Whole rounds of the workload's operations run for about ``--seconds``
(to the nearest round boundary); every output is checked against a known answer.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics (from spans, per round) with ``--trace 1``.  Full
results and spans go to ``.perfbench_out/``.  See perfbench/README.md.
"""

import os
import sys

# One serial process with one BLAS thread; set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("CURVELAB_THREADS", None)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 7

END_TO_END = [("setup_s", "s"), ("ops_per_s", "1/s"),
              ("latency_p50_s", "s"), ("peak_rss_mb", "MB")]


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def measure_setup(code):
    """Median wall time of a cold interpreter that runs ``code``."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], env=child_env(),
                              capture_output=True, timeout=120)
        samples.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError("set-up failed: "
                               + proc.stderr.decode(errors="replace"))
    return statistics.median(samples)


def run_rounds(workload, seconds, tracer):
    """Repeat whole rounds; stop at the round boundary nearest ``seconds``.

    A round is not started when, at the mean round time so far, less than
    half of it would fit before ``seconds`` have passed.
    """
    import checks

    durations = []
    by_op = {}
    failed = 0
    incorrect = []
    rounds = 0
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if rounds and elapsed + 0.5 * elapsed / rounds >= seconds:
            break
        for i, op in enumerate(workload.round_ops(rounds)):
            if tracer is not None:
                tracer.op = f"{rounds}.{i}"
            t0 = time.perf_counter()
            try:
                result = op.run()
            except Exception:
                durations.append(time.perf_counter() - t0)
                by_op.setdefault(op.label, []).append(durations[-1])
                failed += 1
                traceback.print_exc(file=sys.stderr)
                continue
            durations.append(time.perf_counter() - t0)
            by_op.setdefault(op.label, []).append(durations[-1])
            try:
                if not op.check(result):
                    failed += 1
            except checks.Incorrect as exc:
                incorrect.append(str(exc))
        rounds += 1
    return durations, by_op, failed, incorrect, rounds


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "curvelab" / "__init__.py").is_file():
        print(f"curvelab sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import curvelab  # noqa: F401  (fails here, not mid-run, if broken)

    import spans
    from workloads import WORKLOADS, Cli

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    seed = args.seed % 2**63          # numpy seeds must be non-negative
    tag = f"{args.workload}_{args.seed}_{args.trace}"
    tracer = spans.Tracer() if args.trace else None
    if args.workload == "cli_oneshot":
        trace_dir = None
        if tracer is not None:
            trace_dir = OUT / f"trace_{tag}"
            trace_dir.mkdir(exist_ok=True)
            for old in trace_dir.glob("cli_*.json"):
                old.unlink()
        input_dir = OUT / f"inputs_{tag}"
        input_dir.mkdir(exist_ok=True)
        cli = Cli(sys.executable, child_env(), HERE / "launcher.py", trace_dir)
        workload = WORKLOADS[args.workload](seed, cli, input_dir)
    else:
        # built before the tracer is installed: kterm_large keeps the
        # builders' own cache_clear
        workload = WORKLOADS[args.workload](seed)
        if tracer is not None:
            tracer.install()

    setup_s = None if args.trace else measure_setup(workload.setup_code)
    durations, by_op, failed, incorrect, rounds = run_rounds(
        workload, args.seconds, tracer)
    for message in incorrect:
        print(f"INCORRECT: {message}", file=sys.stderr)
    usage = resource.RUSAGE_CHILDREN if workload.cli else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(usage).ru_maxrss / 1024.0
    timed = {
        "setup_s": setup_s,
        "ops_per_s": len(durations) / sum(durations),
        "latency_p50_s": statistics.median(durations),
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is None:
        metrics = {name: {"value": timed[name], "unit": unit}
                   for name, unit in END_TO_END}
    else:
        docs = [tracer.doc()]
        if workload.cli:
            tracer.counts["cli.emit.bytes"] += cli.emitted
            docs += [json.loads(p.read_text())
                     for p in sorted(trace_dir.glob("cli_*.json"))]
        metrics = spans.layer_metrics(docs, rounds)
        tracer.dump(OUT / f"spans_{tag}.json")
    result = {"correct": not incorrect, "attempted": len(durations),
              "failed": failed, "metrics": metrics}
    (OUT / f"result_{tag}.json").write_text(json.dumps(
        dict(result, workload=args.workload, seed=args.seed, rounds=rounds,
             timed=timed, incorrect=incorrect, op_seconds=by_op), indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
