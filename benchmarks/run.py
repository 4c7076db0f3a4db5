"""Benchmark of the nakayama library: four workloads timed in cold processes.

    python3 benchmarks/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 benchmarks/run.py --write-digests
    for w in auslander sttilt oracle verify; do python3 benchmarks/run.py --workload $w; done

Workloads: auslander, sttilt, oracle, verify (see workloads.py for what each
runs and why).  Every pass runs in a fresh interpreter started by this
script, one at a time, so no cache is warm from an earlier pass.

--trace 0  Passes run back to back until --seconds is spent (at least
           three).  The first pass also checks every output.  Reports
             setup_s      median over passes (and extra set-up-only
                          processes, SETUP_SAMPLES in all) of the time from
                          process start until the inputs are built,
             wall_s       one full pass: the sum over tasks of each task's
                          median time over the passes of the run,
             largest_s    the median time of the largest single instance,
             peak_rss_mb  median over passes of the peak resident memory.
           Times are in reference seconds: each measured time is scaled by
           REF_KERNEL_S over the mean time of the reference kernel sampled
           while it ran (worker.py), so a reference second is a second on a
           host where that kernel takes REF_KERNEL_S.  On a shared host
           whose speed drifts by up to a factor of two within seconds to
           minutes, raw times of identical code spread past any useful
           bound, and scaled ones much less.  Raw times are printed and
           kept in the result file.
--trace 1  Two untraced and two traced passes, alternating.  Reports the
           per-layer metrics of the traced passes and the tracing overhead
           (traced minus untraced wall_s).  Fails if a count differs between
           the two traced passes or the exchange-graph self-check fails.

A task fails if it raises, fails its check, or its output digest differs
from the one recorded in digests.json or from the first pass.  Every run
writes a result file under benchmarks/results/ and prints a summary; the
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import PER_LAYER

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("auslander", "sttilt", "oracle", "verify")
DEFAULT_SEED = 1
MIN_PASSES = 3
# Set-up is timed in every pass and, while there are fewer passes than
# this, in extra processes that stop once the inputs are built.
SETUP_SAMPLES = 9
# Time of one reference-kernel run that defines a reference second (about
# its median on the 2-CPU Xeon VM the benchmark was tuned on).
REF_KERNEL_S = 0.0005
PASS_TIMEOUT_S = 170
DIGESTS = BENCH / "digests.json"
RESULTS = BENCH / "results"

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("largest_s", "s"), ("peak_rss_mb", "MiB"))


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a failed task)."""


def run_worker(workload: str, seed: int, check: bool = False, trace: bool = False, setup_only: bool = False) -> dict:
    """One pass in a fresh interpreter; returns the worker's JSON result."""
    t0 = time.monotonic()
    cmd = [sys.executable, str(BENCH / "worker.py"), "--root", str(ROOT),
           "--workload", workload, "--seed", str(seed), "--t0", repr(t0)]
    cmd += ["--check"] * check + ["--trace"] * trace + ["--setup-only"] * setup_only
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PASS_TIMEOUT_S, env=env, cwd=ROOT)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"pass of {workload} did not finish within {PASS_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"pass of {workload} exited with {proc.returncode}:\n{proc.stderr.strip()}")
    result = json.loads(proc.stdout)
    result["process_s"] = time.monotonic() - t0
    return result


def task_failures(passes: list[dict], recorded: dict[str, str]) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over every task of every pass."""
    attempted, failed, problems = 0, 0, []
    first = {t["name"]: t["digest"] for t in passes[0]["tasks"]}
    for number, p in enumerate(passes, start=1):
        for task in p["tasks"]:
            attempted += 1
            name, digest = task["name"], task["digest"]
            problem = task["error"]
            if problem is None and name in recorded and digest != recorded[name]:
                problem = "output differs from the digest recorded in digests.json"
            if problem is None and digest != first.get(name):
                problem = "output differs from the first pass"
            if problem is not None:
                failed += 1
                problems.append(f"pass {number}, task {name!r}: {problem}")
    return attempted, failed, problems


def scaled(seconds: float, ref_s: float) -> float:
    """A measured time in reference seconds, given the mean reference-kernel time sampled during it."""
    return seconds * REF_KERNEL_S / ref_s


def pass_times(p: dict) -> dict[str, float]:
    """One pass's setup and task times in reference seconds, keyed by task name."""
    times = {t["name"]: scaled(t["seconds"], t["ref_s"]) for t in p["tasks"]}
    return {"setup_s": scaled(p["setup_s"], p["setup_ref_s"]), "tasks": times}


def timed_run(workload: str, seed: int, seconds: int) -> tuple[list[dict], dict[str, float], list[float]]:
    start = time.monotonic()
    passes: list[dict] = []
    while True:
        passes.append(run_worker(workload, seed, check=not passes))
        elapsed = time.monotonic() - start
        typical = statistics.median(p["process_s"] for p in passes)
        if len(passes) >= MIN_PASSES and elapsed + typical > seconds:
            break
    times = [pass_times(p) for p in passes]
    setups = [t["setup_s"] for t in times]
    for _ in range(SETUP_SAMPLES - len(passes)):
        extra = run_worker(workload, seed, setup_only=True)
        setups.append(scaled(extra["setup_s"], extra["setup_ref_s"]))
    task_medians = {name: statistics.median(t["tasks"][name] for t in times) for name in times[0]["tasks"]}
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": sum(task_medians.values()),
        "largest_s": task_medians[passes[0]["largest"]],
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    return passes, metrics, setups


def traced_run(workload: str, seed: int) -> tuple[list[dict], dict[str, float], list[str]]:
    untraced, traced = [], []
    for check in (True, False):
        untraced.append(run_worker(workload, seed, check=check))
        traced.append(run_worker(workload, seed, trace=True))
    problems = [t["self_check"] for t in traced if t["self_check"]]
    first, second = (t["layers"] for t in traced)
    for name, unit in PER_LAYER:
        if unit != "s" and first[name] != second[name]:
            problems.append(f"{name} differs between traced passes: {first[name]} != {second[name]}")
    metrics = {name: statistics.median(t["layers"][name] for t in traced) if unit == "s" else first[name]
               for name, unit in PER_LAYER if name in first}
    metrics["bench.trace_overhead_s"] = (
        statistics.median(t["wall_s"] for t in traced) - statistics.median(u["wall_s"] for u in untraced)
    )
    return untraced + traced, metrics, problems


# -- machine and code identity ------------------------------------------------------


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30, env=env)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "nakayama").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(workload: str, seed: int, trace: bool, seconds: int, passes: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "seconds": seconds,
        "passes": passes,
        "cpu_model": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_commit": git_commit(),
        "source_sha256": source_sha256(),
        "date_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
    }


# -- entry points --------------------------------------------------------------------


def write_digests() -> int:
    """Record the output digests of every workload at the default seed."""
    recorded = {}
    for workload in WORKLOADS:
        result = run_worker(workload, DEFAULT_SEED, check=True)
        errors = [f"{t['name']}: {t['error']}" for t in result["tasks"] if t["error"]]
        if errors:
            raise BenchError(f"{workload} fails its checks, digests not written:\n" + "\n".join(errors))
        recorded[workload] = {t["name"]: t["digest"] for t in result["tasks"]}
    DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {sum(map(len, recorded.values()))} digests to {DIGESTS}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="nakayama benchmark: four workloads timed in cold processes")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-digests", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "nakayama" / "__init__.py").is_file():
        print(f"error: no nakayama sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.write_digests:
            return write_digests()
        if args.workload is None:
            parser.error("--workload is required")
        return report(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def report(workload: str, seed: int, seconds: int, trace: bool) -> int:
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8")).get(workload, {})
    setups: list[float] = []
    if trace:
        passes, values, problems = traced_run(workload, seed)
        units = dict(PER_LAYER)
    else:
        passes, values, setups = timed_run(workload, seed, seconds)
        problems, units = [], dict(END_TO_END)
    attempted, failed, task_problems = task_failures(passes, recorded)
    problems = task_problems + problems
    correct = not problems
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}

    env = environment(workload, seed, trace, seconds, len(passes))
    RESULTS.mkdir(exist_ok=True)
    stamp = datetime.datetime.now(datetime.timezone.utc).strftime("%Y%m%dT%H%M%S")
    path = RESULTS / f"{workload}-seed{seed}-trace{int(trace)}-{stamp}-{os.getpid()}.json"
    record = {
        **env,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted,
        "problems": problems,
        "metrics": metrics,
        "setup_samples_s": setups,
        "pass_data": [{k: v for k, v in p.items() if k != "spans"} for p in passes],
        "spans": [{"pass": i, "spans": p["spans"]} for i, p in enumerate(passes) if "spans" in p],
    }
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"{workload}: seed {seed}, {len(passes)} passes, {env['nproc']} CPUs ({env['cpu_model']}), "
          f"Python {env['python']}, {'traced' if trace else 'untraced'}")
    for name, m in metrics.items():
        print(f"  {name:52s} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'failed_ratio':52s} {failed / attempted:>14.6g} ratio (of {attempted} tasks)")
    if not trace:
        walls = sorted(p["wall_s"] for p in passes)
        refs = sorted(t["ref_s"] for p in passes for t in p["tasks"])
        print(f"  raw pass wall times: median {statistics.median(walls):.4g} s, range {walls[0]:.4g}-{walls[-1]:.4g} s; "
              f"reference kernel: median {statistics.median(refs) * 1e3:.4g} ms, "
              f"range {refs[0] * 1e3:.4g}-{refs[-1] * 1e3:.4g} ms (REF_KERNEL_S {REF_KERNEL_S * 1e3:g} ms)")
    for problem in problems:
        print(f"  FAILED {problem}", file=sys.stderr)
    print(f"  result file: {path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
