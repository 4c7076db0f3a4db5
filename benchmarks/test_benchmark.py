"""Self-tests of the benchmark.  Run with: python3 -m pytest benchmarks -q"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import nakayama  # noqa: E402

import run  # noqa: E402
import series  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def _draw(seed: int) -> list[tuple[str, tuple[int, ...]]]:
    rng = random.Random(seed)
    out = []
    for _ in range(50):
        kind = rng.choice(series.KINDS)
        out.append((kind, series.random_series(rng, kind, rng.randint(1, 12), rng.randint(2, 8))))
    return out


def test_series_are_deterministic_per_seed():
    assert _draw(3) == _draw(3)
    assert _draw(3) != _draw(4)


def test_series_are_always_valid():
    for seed in range(100):
        for kind, c in _draw(seed):
            assert nakayama.Algebra(kind, c).c == c


@pytest.mark.parametrize("kind", series.KINDS)
def test_series_reach_every_small_series(kind):
    rng = random.Random(0)
    drawn = {series.random_series(rng, kind, 4, 4) for _ in range(20000)}
    assert drawn == set(nakayama.iter_kupisch_series(kind, 4, 4))


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_workload_inputs_depend_only_on_the_seed(name):
    def names(seed):
        return [t.name for t in workloads.build(name, seed).tasks]

    assert names(11) == names(11)
    if name in ("sttilt", "oracle"):
        assert names(11) != names(12)


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_digests_cover_the_default_seed(name):
    recorded = json.loads(run.DIGESTS.read_text(encoding="utf-8"))[name]
    assert set(recorded) == {t.name for t in workloads.build(name, run.DEFAULT_SEED).tasks}


TINY = {
    "auslander": lambda: workloads.auslander_workload(enum_ns=(1, 2, 3), graph_ns=(2,)),
    "sttilt": lambda: workloads.sttilt_workload(5, rsz=(("cyclic", 3), ("linear", 3)), random_ns=(3, 4)),
    "oracle": lambda: workloads.oracle_workload(5, budget=300, largest=("cyclic", (3, 3)), quiver_ns=(1, 2)),
    "verify": lambda: workloads.verify_workload(max_ns=(1, 2)),
}


@pytest.mark.parametrize("name", TINY)
def test_tiny_workload_runs_and_passes_its_checks(name):
    workload = TINY[name]()
    result = worker.run_pass(workload, check=True)
    assert [t["error"] for t in result["tasks"]] == [None] * len(workload.tasks)
    assert 0 < result["largest_s"] <= result["wall_s"]
    assert all(len(t["digest"]) == 64 for t in result["tasks"])
    assert all(t["ref_s"] > 0 for t in result["tasks"])


def test_sampler_leaves_its_own_time_out_and_tracks_host_speed():
    sampler = worker.SpeedSampler().start()
    try:
        mark = sampler.mark()
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
        seconds, ref_s = sampler.since(mark)
    finally:
        sampler.stop()
    assert len(sampler.times) >= 10
    assert 0.3 - sampler.spent <= seconds < 0.3
    assert min(sampler.times) <= ref_s <= max(sampler.times)
    # a host half as fast doubles both times, so the scaled time stays the same
    assert run.scaled(2 * seconds, 2 * ref_s) == pytest.approx(run.scaled(seconds, ref_s))


def test_checks_reject_wrong_outputs():
    A = nakayama.make_rsz_nakayama(3, "cyclic")
    task = workloads.sttilt_task(A)
    pairs = task.run()
    assert task.check(pairs) is None
    assert "duplicate" in task.check(pairs + pairs[:1])
    wrong = nakayama.SupportPair(pairs[1].modules, pairs[0].killed)
    assert "not a support" in task.check([wrong])

    enum = workloads.auslander_workload(enum_ns=(3,), graph_ns=()).tasks[0]
    code, text = enum.run()
    assert enum.check((code, text)) is None
    payload = json.loads(text)
    payload["tilting"].pop()
    assert enum.check((code, json.dumps(payload))) is not None
    assert enum.check((2, text)) == "exit code 2"

    roads = workloads.two_roads(A)
    roads["oracle"][2][0] += 1
    assert "hom disagrees" in workloads._check_roads(roads)


def test_tracer_counts_are_exact_and_repeat():
    assert tracer.exchange_graph_self_check() is None
    gamma = nakayama.auslander_algebra(nakayama.make_rsz_nakayama(3, "linear")).gamma
    with tracer.Tracer() as tr:
        k = len(nakayama.exchange_graph(gamma).nodes)
        assert tr.calls("tilting.leq_gen") == k * (k - 1) == 12

    def counts():
        with tracer.Tracer() as tr:
            worker.run_pass(TINY["sttilt"](), check=False, tracer=tr)
            return {n: v for n, v in tr.metrics().items() if dict(tracer.PER_LAYER)[n] != "s"}

    first = counts()
    assert first == counts()
    # two radical-square-zero algebras with 3 vertices, random ones with 3 and 4 of both kinds
    assert first["tau_tilting.kill_sets"] == 2 * 2**3 + 2 * 2**3 + 2 * 2**4


def test_tracer_wraps_every_binding_and_uninstall_restores_it():
    original = nakayama.homology.hom_dim
    with tracer.Tracer():
        assert nakayama.homology.hom_dim is not original
        assert nakayama.tau_tilting.hom_dim is nakayama.homology.hom_dim
        assert nakayama.hom_dim is nakayama.homology.hom_dim
    assert nakayama.homology.hom_dim is nakayama.tau_tilting.hom_dim is nakayama.hom_dim is original


def test_benchmark_json_matches_the_benchmark():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert spec["command"] == ["python3", "benchmarks/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracer.PER_LAYER)


def test_run_refuses_a_tree_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "verify", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
