"""Benchmark of `cycle_integrals`: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Everything runs in this one process and thread; the
set-up probes are short child processes that are waited for.

Other tenants slow this machine's vCPUs by up to 1.8x, in bursts of under a
second, and nothing in the guest accounts for it.  So a small reference
kernel is timed between operations and, from a timer signal, every
PROBE_INTERVAL seconds during them.  Each operation's time is divided by the
kernel's mean time around it, and times in seconds are that ratio times
REFERENCE_KERNEL_S; see README.md.
"""

import os
import signal
import sys
import time
from fractions import Fraction

START = time.perf_counter()
PROBE_INTERVAL = 0.02
# the reference kernel's time on an unloaded vCPU of the machine the
# figures in README.md come from (its fastest runs took 0.18-0.21 ms)
REFERENCE_KERNEL_S = 2.0e-4


def reference_kernel():
    """A fixed piece of interpreter work like the program's own: complex
    float arithmetic, Fraction sums and big-integer arithmetic (mpmath's
    backend here).  It touches no module state, so it may run from a
    signal handler in the middle of an operation."""
    z, acc = complex(0.3, 0.7), 0j
    for k in range(1, 200):
        z = (z * z + complex(k, -1)) / (abs(z) + k)
        acc += z
    total = sum(Fraction(k, k * k + 1) for k in range(1, 40))
    big = 3 ** 400
    for k in range(100):
        big = (big * 7919 + k) % (1 << 1400)
    return acc, total, big


class Probe:
    """Times the reference kernel from SIGALRM while it is armed."""

    def __init__(self):
        self.samples = []
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum, frame):
        start = time.perf_counter()
        reference_kernel()
        self.samples.append(time.perf_counter() - start)

    def arm(self):
        self.samples = []
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL, PROBE_INTERVAL)

    def disarm(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        return self.samples


# the set-up time is probed like an operation, from the first line on
PROBE = Probe()
PROBE.arm()

# one thread: the BLAS pool must be sized before numpy is first imported
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse
import json
import resource
import statistics
import subprocess
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
SETUP_PROBES = 2
GAP_SAMPLES = 2

UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_p90_s": "s",
    "norm_op_time": "ref",
    "peak_rss_mb": "MB",
    "zeros_certified": "count",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up, run the warm-up operation, print the "
                             "set-up time and its kernel samples, and exit")
    return parser.parse_args(argv)


def timed_kernel():
    start = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - start


class Run:
    """Attempts whole rounds of a workload and checks every output.

    For op i it keeps its time net of probe samples, ``op_times[i]``, and
    the kernel samples taken during it and in the gaps on either side,
    ``around[i]``.
    """

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.zeros = 0
        self.op_times = []
        self.around = []
        self.gap = [timed_kernel() for _ in range(GAP_SAMPLES)]

    def judge(self, op, output, error):
        """Count one attempted op and the zeros its output certifies."""
        if error is not None:
            self.failed += 1
            print(f"{op.label}: raised {error}", file=sys.stderr)
            return
        problem = op.check(output)
        if problem is None:
            self.zeros += op.zeros(output)
        elif op.known_fault:
            self.failed += 1
        else:
            self.correct = False
            print(f"{op.label}: wrong output: {problem}", file=sys.stderr)

    def time_op(self, op):
        output = error = None
        PROBE.arm()
        start = time.perf_counter()
        try:
            output = op.call()
        except Exception as exc:   # any failure of the op is counted
            error = f"{type(exc).__name__}: {exc}"
        finally:
            elapsed = time.perf_counter() - start
            during = PROBE.disarm()
        after = [timed_kernel() for _ in range(GAP_SAMPLES)]
        self.op_times.append(elapsed - sum(during))
        self.around.append(self.gap + during + after)
        self.gap = after
        return output, error

    def rounds(self, seconds=None, count=None):
        """Run rounds until their op time reaches ``seconds`` or ``count``
        rounds are done; returns (rounds, op seconds)."""
        done, total = 0, 0.0
        while (total < seconds) if count is None else (done < count):
            for op in self.workload.ops:
                output, error = self.time_op(op)
                total += self.op_times[-1]
                self.attempted += 1
                self.judge(op, output, error)
            done += 1
        return done, total

    def normalized(self):
        """Each op's time in units of the mean kernel time around it."""
        return [t / statistics.fmean(samples)
                for t, samples in zip(self.op_times, self.around)]

    def typical(self, units_per_op):
        """Per op of the round, its median over the rounds.  Percentiles
        are taken over these: the ops of a round differ by up to 100x, and
        a percentile of all samples that falls between two ops' times jumps
        from run to run."""
        size = len(self.workload.ops)
        return [statistics.median(units_per_op[k::size]) for k in range(size)]


def setup_probe(args):
    """(set-up seconds, kernel samples) of a fresh process."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--setup-probe"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                          check=True, cwd=ROOT)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return result["setup"], result["samples"]


def main(argv=None):
    args = parse_args(argv)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    try:
        import workloads
    except ImportError as exc:
        PROBE.disarm()
        print(f"cannot import the program under test: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        PROBE.disarm()
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    workload = workloads.make(args.workload, args.seed, OUT_DIR)
    try:
        output, problem = workload.warmup.call(), None
    except Exception as exc:
        problem = f"raised {type(exc).__name__}: {exc}"
    samples = PROBE.disarm()
    setup = time.perf_counter() - START - sum(samples)
    samples += [timed_kernel() for _ in range(GAP_SAMPLES)]
    if args.setup_probe:
        print(json.dumps({"setup": setup, "samples": samples}))
        return 0
    run = Run(workload)
    problem = problem or workload.warmup.check(output)
    if problem:
        print(f"warm-up operation failed: {problem}", file=sys.stderr)
        run.correct = False

    if args.trace:
        metrics = traced(run, args)
        units = {name: ("s" if name.endswith("_s") else "count") for name in metrics}
    else:
        setups = [(setup, samples)] + [setup_probe(args) for _ in range(SETUP_PROBES)]
        rounds, _ = run.rounds(seconds=args.seconds)
        units_per_op = run.normalized()
        typical = run.typical(units_per_op)
        metrics = {
            "setup_s": REFERENCE_KERNEL_S * statistics.median(
                s / statistics.fmean(k) for s, k in setups),
            "ops_per_s": run.attempted / (REFERENCE_KERNEL_S * sum(units_per_op)),
            "op_p50_s": REFERENCE_KERNEL_S * statistics.median(typical),
            "op_p90_s": REFERENCE_KERNEL_S * statistics.quantiles(
                typical, n=10, method="inclusive")[8],
            "norm_op_time": sum(units_per_op) / rounds,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "zeros_certified": run.zeros / rounds,
        }
        units = UNITS
    print(json.dumps({
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def traced(run, args):
    """Untraced rounds for half the run, then as many traced rounds; the
    per-layer numbers are per round, from the traced ones."""
    import tracer as tracing
    rounds, untraced = run.rounds(seconds=args.seconds / 2.0)
    trace = tracing.Tracer()
    trace.install()
    try:
        _, traced_total = run.rounds(count=rounds)
    finally:
        trace.remove()
    trace.dump(os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}.json"))
    metrics = trace.layer_metrics(rounds)
    metrics["trace.overhead_s"] = (traced_total - untraced) / rounds
    return {name: metrics[name] for name in tracing.metric_names()}


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        PROBE.disarm()
        traceback.print_exc()
        sys.exit(1)
