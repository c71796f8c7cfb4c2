"""Benchmark of qschur: Krein-Langer sampling, the kernel identity, and the CLI.

    python3 perfbench/run.py --workload kl-sample --seed 23557 --seconds 30 --trace 0

Workloads: kl-sample, kl-identity, cli-light (see perfbench/README.md).
One caller runs whole rounds of the workload's operations in a closed
loop until --seconds have passed, then checks every result apart from
the program.  The round's time is reported at the run's best: the sum
over its operations of each one's fastest repeat, which a shared host's
slow stretches move far less than a median.  The last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics:
the end-to-end metrics with --trace 0, the per-layer metrics of
perfbench/spans.py with --trace 1.
Run from the root of a checkout; qschur is imported from its src/.
"""

import os

# One BLAS/OpenMP thread, set before numpy loads: with OpenBLAS's default
# threading a second thread spins beside every small eigensolve.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")

WORKLOADS = {"kl-sample": "kl", "kl-identity": "kl", "cli-light": "cli_mix"}
# cli-light is cheap: one untimed round fills caches and gives every
# config a first report that the timed rounds must repeat byte for byte.
WARMUP_ROUNDS = {"kl-sample": 0, "kl-identity": 0, "cli-light": 1}
SETUP_STARTS = 8          # timed fresh starts for setup_s, after one untimed


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0x5C05)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import qschur, build the inputs and exit (one setup_s sample)")
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def import_qschur():
    """Import qschur from this checkout's src/, or exit with an error."""
    if not os.path.isfile(os.path.join(SRC, "qschur", "__init__.py")):
        sys.exit("run.py: no qschur sources at %s" % SRC)
    sys.path.insert(0, SRC)
    import qschur

    if os.path.dirname(os.path.dirname(os.path.abspath(qschur.__file__))) != SRC:
        sys.exit("run.py: imported qschur from %s, not %s" % (qschur.__file__, SRC))


def build(args, workdir):
    module = __import__(WORKLOADS[args.workload])
    # negative seeds are not valid numpy seeds; the map keeps 0x5C05 fixed
    return module.build(args.workload, args.seed % 2**32, workdir)


def setup_only(args):
    import_qschur()
    workdir = os.path.join(OUT, "setup-%d" % os.getpid())
    os.makedirs(workdir)
    try:
        build(args, workdir)
    finally:
        shutil.rmtree(workdir)


def measure_setup(args, starts):
    """Wall times of fresh interpreters that import qschur and build inputs."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for _ in range(starts):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


def run_round(ops, round_index, firsts, differ, tracer):
    """Run every operation once; returns (durations, failures).

    The first report of each operation is kept for the checks; a later
    one is only compared with it, so memory does not grow with rounds.
    """
    durations, failures = [], 0
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.op = round_index * len(ops) + index
        t0 = time.perf_counter()
        try:
            out = op.run(round_index)
        except Exception:
            out = None
            traceback.print_exc()
        durations.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.op = None
        if out is None or op.failed(out):
            failures += 1
            print("failed: operation %d of round %d" % (index, round_index), file=sys.stderr)
            continue
        digest = op.digest(out, round_index)
        if firsts[index] is None:
            firsts[index] = (out, digest)
        elif digest != firsts[index][1]:
            differ[index] += 1
    return durations, failures


def check(ops, firsts, differ):
    problems = []
    for op, first, count in zip(ops, firsts, differ):
        if first is None:
            problems.append("%s: no report" % op.label)
            continue
        problems += ["%s: %s" % (op.label, p) for p in op.check(*first)]
        if count:
            problems.append("%s: %d repeated reports differ from the first" % (op.label, count))
    return problems


def main(argv=None):
    args = parse_args(argv)
    if args.setup_only:
        setup_only(args)
        return 0
    import_qschur()
    setup_times = []
    if not args.trace:
        measure_setup(args, 1)             # fills the bytecode and file caches

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()
        tracer.op = -1                       # the in-process input build
    workdir = os.path.join(OUT, "tmp-%s-%d" % (args.workload, os.getpid()))
    os.makedirs(workdir)
    try:
        ops = build(args, workdir)
        before = None
        if tracer is not None:
            tracer.op = None
            before = tracer.totals()
        firsts, differ = [None] * len(ops), [0] * len(ops)
        attempted = failed = 0
        round_index = 0
        for _ in range(WARMUP_ROUNDS[args.workload]):
            _, fails = run_round(ops, round_index, firsts, differ, None)
            attempted += len(ops)
            failed += fails
            round_index += 1

        # Fresh starts for setup_s are spread over the timed phase, at the
        # round boundaries after each 1/SETUP_STARTS of it; their time is
        # not counted in it.
        durations, rounds, paused = [[] for _ in ops], 0, 0.0
        start = time.perf_counter()
        while True:
            times, fails = run_round(ops, round_index, firsts, differ, tracer)
            for per_op, t in zip(durations, times):
                per_op.append(t)
            attempted += len(ops)
            failed += fails
            rounds += 1
            round_index += 1
            timed = time.perf_counter() - start - paused
            if tracer is None:
                due = min(SETUP_STARTS, int(SETUP_STARTS * timed / args.seconds))
                t0 = time.perf_counter()
                setup_times += measure_setup(args, due - len(setup_times))
                paused += time.perf_counter() - t0
            if timed >= args.seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            tracer.uninstall()
        problems = check(ops, firsts, differ)
    finally:
        shutil.rmtree(workdir)
    for p in problems:
        print("check failed: %s" % p, file=sys.stderr)

    round_best = sum(min(per_op) for per_op in durations)
    print("%s seed %d trace %d: %d rounds of %d operations, %.3f s timed, "
          "%.6g ops/s; round_best_s %.6g s, median round %.6g s"
          % (args.workload, args.seed, args.trace, rounds, len(ops), timed,
             rounds * len(ops) / timed, round_best,
             statistics.median(map(sum, zip(*durations)))))
    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "round_best_s": (round_best, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        metrics = per_layer(tracer, before, rounds)
        os.makedirs(OUT, exist_ok=True)
        tracer.save(os.path.join(OUT, "trace-%s-%d.npz" % (args.workload, args.seed)))
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def per_layer(tracer, before, rounds):
    """The input build once plus one round: build totals + timed totals / rounds."""
    import spans

    after = tracer.totals()
    metrics = {}
    for name in spans.metric_names():
        value = before[name] + (after[name] - before[name]) / rounds
        if not name.endswith(".self_s") and value == int(value):
            value = int(value)
        unit = "s" if name.endswith(".self_s") else "count"
        metrics[name] = (value, unit)
    return metrics


if __name__ == "__main__":
    sys.exit(main())
