"""One pass of a benchmark workload, in a fresh interpreter.

run.py starts this script once per pass:

    python3 benchmarks/worker.py --root ROOT --workload NAME --seed N --t0 T [--check] [--trace] [--setup-only]

`--t0` is the parent's CLOCK_MONOTONIC reading just before the process was
started, so `setup_s` covers interpreter start-up, importing `nakayama`
from ROOT/src, building the algebras and generating the seeded series.
The pass prints one JSON object on stdout.

While an untraced pass runs, a SIGALRM timer times a small fixed reference
kernel that uses no nakayama code every SAMPLE_INTERVAL_S.  The host's speed
drifts by tens of percent within seconds, and run.py divides each measured
time by the mean kernel time sampled during it, so the reported timings
follow the library and not the host.  The sampling time is left out of the
measured times.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import signal
import sys
import time
import traceback

SAMPLE_INTERVAL_S = 0.01


def reference_kernel() -> int:
    """Fixed pure-Python work of the kind the library does, about 0.5 ms:
    small tuples, dict counting, frozensets, hashing, sorting with a key."""
    acc = 0
    counts: dict[tuple[int, int, int], int] = {}
    for i in range(300):
        t = (i % 7, i % 11, i % 13)
        counts[t] = counts.get(t, 0) + 1
        s = frozenset(t)
        if len(s) == 3:
            acc += sum(t)
        acc ^= hash(s) & 0xFF
    return acc + len(sorted(counts.items(), key=lambda kv: (kv[1], kv[0])))


class SpeedSampler:
    """Samples the host's speed by timing `reference_kernel` from a timer signal."""

    def __init__(self) -> None:
        self.times: list[float] = []  # duration of each sample
        self.spent = 0.0  # total time inside the signal handler
        self._busy = False

    def _sample(self, *_) -> None:
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        reference_kernel()
        t1 = time.perf_counter()
        self.times.append(t1 - t0)
        self.spent += time.perf_counter() - t0
        self._busy = False

    def start(self) -> "SpeedSampler":
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> tuple[float, float, int]:
        """(now, sampling time so far, samples so far), read with the timer signal held off."""
        signal.pthread_sigmask(signal.SIG_BLOCK, [signal.SIGALRM])
        try:
            return time.perf_counter(), self.spent, len(self.times)
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, [signal.SIGALRM])

    def since(self, mark: tuple[float, float, int]) -> tuple[float, float | None]:
        """(seconds since `mark` without the sampling time, mean sample time since
        `mark` or the last sample before it if none fell in between, or None
        if the sampler was never started)."""
        now, spent, n = self.mark()
        inside = self.times[mark[2] : n] or self.times[max(mark[2] - 1, 0) : mark[2]]
        return now - mark[0] - (spent - mark[1]), sum(inside) / len(inside) if inside else None


def run_pass(workload, check: bool, tracer=None, sampler: SpeedSampler | None = None) -> dict:
    """Run every task once; only `task.run()` is timed.

    A task's `ref_s` is the mean reference-kernel time sampled while it ran.
    Outputs are rendered, hashed and (with `check`) checked between tasks,
    outside the timed region.  A task fails if it raises or fails its check.
    """
    own = sampler is None
    if own:
        sampler = SpeedSampler().start()
    tasks = []
    for task in workload.tasks:
        if tracer is not None:
            tracer.task_start(task.name)
        mark = sampler.mark()
        try:
            output = task.run()
            error = None
        except Exception:  # a failing task is counted and reported, the pass goes on
            output, error = None, traceback.format_exc(limit=-3)
        seconds, ref_s = sampler.since(mark)
        if tracer is not None:
            tracer.task_end()
        digest = None
        if error is None:
            try:
                if tracer is not None:
                    tracer.counts.update(task.measure(output))
                digest = hashlib.sha256(task.render(output).encode()).hexdigest()
                if check:
                    error = task.check(output)
            except Exception:  # malformed output
                error = traceback.format_exc(limit=-3)
        tasks.append({"name": task.name, "seconds": seconds, "ref_s": ref_s, "digest": digest, "error": error})
        del output
    if own:
        sampler.stop()
    return {
        "wall_s": sum(t["seconds"] for t in tasks),
        "largest": workload.largest,
        "largest_s": next(t["seconds"] for t in tasks if t["name"] == workload.largest),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "tasks": tasks,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--check", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true", help="stop after building the inputs")
    args = parser.parse_args()
    # Traced passes are not sampled, so the per-layer busy times hold no sampling.
    sampler = SpeedSampler()
    setup_mark = (args.t0 - time.monotonic() + time.perf_counter(), 0.0, 0)
    if not args.trace:
        sampler.start()

    src = os.path.join(os.path.abspath(args.root), "src")
    sys.path.insert(0, src)
    import nakayama

    if not os.path.abspath(nakayama.__file__).startswith(src + os.sep):
        print(f"imported nakayama from {nakayama.__file__}, not from {src}", file=sys.stderr)
        return 2
    import tracer as tracing
    import workloads

    workload = workloads.build(args.workload, args.seed)
    setup_s, setup_ref_s = sampler.since(setup_mark)
    if args.setup_only:
        sampler.stop()
        json.dump({"setup_s": setup_s, "setup_ref_s": setup_ref_s}, sys.stdout)
        return 0

    tracer, self_check = None, None
    if args.trace:
        self_check = tracing.exchange_graph_self_check()
        tracer = tracing.Tracer().install()
    result = run_pass(workload, args.check, tracer, sampler)
    sampler.stop()
    result["setup_s"] = setup_s
    result["setup_ref_s"] = setup_ref_s
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.metrics()
        result["spans"] = tracer.spans
        result["self_check"] = self_check
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
