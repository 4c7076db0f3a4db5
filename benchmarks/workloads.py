"""The four benchmark workloads as lists of tasks, with their output checks.

A task is one call into the library's public surface: `nakayama.cli.main`
for the commands a reader types, or a public function for the library
workloads.  Its `run` is the only timed part.  `render` turns the output
into canonical text whose SHA-256 digest must match the digest recorded in
`digests.json` for that task name, so any byte change in the output counts
as a failure.  `check` is the independent semantic check; it returns a
description of the first problem, or None.

Which workload exercises which layer (per-layer metric -> end-to-end metric
it should move, on which workload):

* ``auslander`` -- `tilt enumerate` / `tilt graph` on a few large Auslander
  algebras.  Moves `tilting.*` (re-verification, the Hasse loop,
  `leq_gen`), `homology.*.calls.from_tilting` and `algebra.check_module`
  -> `wall_s`, `largest_s`.  Bypasses `tau_tilting`, `oracle`, `linalg`.
* ``sttilt`` -- `enumerate_sttilt` over 2^N kill sets of thousands of tiny
  quotient algebras.  Moves `tau_tilting.*`, `algebra.quotient_algebra`,
  `algebra.validate`, `homology.hom_dim/tau` -> `wall_s`, `largest_s`.
  Radical-square-zero inputs repeat component series; random ones do not.
* ``oracle`` -- closed forms against the matrix oracle on seeded series.
  Moves `oracle.*`, `linalg.*` -> `wall_s`, `peak_rss_mb`.  Bypasses
  `tilting` and `tau_tilting`.
* ``verify`` -- `verify paper` through the CLI: many small algebras.  The
  only workload running `verification.*`, `tilting.mutation_at`,
  `tilting.minimal_tilting` and `auslander.verify_bijection` -> `wall_s`.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
from dataclasses import dataclass
from typing import Callable

import nakayama
from nakayama import cli
from nakayama import homology as H
from nakayama import oracle as O

from series import KINDS, random_series, series_of_dimension

# Pair-side checks of support pairs cost about 0.2 ms a pair; larger outputs
# are checked on a seeded sample and guarded in full by their digest.
PAIR_CHECK_LIMIT = 2000
# Work budget of the seeded oracle series, in ordered pairs times vertices:
# the oracle's cost per pair grows with the number of vertices, so the
# budget keeps a pass's cost nearly the same for every seed.
ORACLE_BUDGET = 120_000


@dataclass
class Task:
    name: str
    run: Callable[[], object]
    render: Callable[[object], str]
    check: Callable[[object], str | None]
    # Work counts of one output, added to the traced run's per-layer metrics.
    measure: Callable[[object], dict[str, int]] = lambda output: {}


@dataclass
class Workload:
    tasks: list[Task]
    largest: str  # name of the task reported as largest_s


# -- CLI tasks -------------------------------------------------------------------


def call_cli(argv: list[str]) -> tuple[int, str]:
    """Run `nakayama.cli.main` in-process; returns the exit code and stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def _render_cli(result: tuple[int, str]) -> str:
    code, text = result
    return f"exit {code}\n{text}"


def cli_task(argv: list[str], check: Callable[[str], str | None]) -> Task:
    def checked(result: tuple[int, str]) -> str | None:
        code, text = result
        if code != 0:
            return f"exit code {code}"
        return check(text)

    return Task(
        " ".join(argv),
        lambda: call_cli(argv),
        _render_cli,
        checked,
        lambda result: {"cli.output_bytes": len(result[1].encode())},
    )


def expected_tilting_count(n: int, kind: str) -> int:
    return 2 ** (n - 1) if kind == "linear" else 2**n


def _check_enumerate(n: int, kind: str) -> Callable[[str], str | None]:
    def check(text: str) -> str | None:
        payload = json.loads(text)
        expected = expected_tilting_count(n, kind)
        gamma = nakayama.auslander_algebra(nakayama.make_rsz_nakayama(n, kind)).gamma
        if payload["algebra"] != nakayama.algebra_to_json(gamma):
            return f"algebra {payload['algebra']} is not the Auslander algebra {gamma}"
        if payload["count"] != expected or len(payload["tilting"]) != expected:
            return f"count {payload['count']} != {expected}"
        if len({tuple(t) for t in payload["tilting"]}) != expected:
            return "duplicate tilting modules"
        return None

    return check


def _check_graph(n: int, kind: str) -> Callable[[str], str | None]:
    def check(text: str) -> str | None:
        nodes = sum(1 for line in text.splitlines() if "[label=" in line)
        expected = expected_tilting_count(n, kind)
        if nodes != expected:
            return f"{nodes} nodes != {expected}"
        return None

    return check


def _check_verify(text: str) -> str | None:
    records = json.loads(text)
    failed = [r["name"] for r in records if not r["passed"]]
    if not records or failed:
        return f"failed records: {failed}"
    return None


def auslander_workload(enum_ns=(4, 6, 8, 10), graph_ns=(4, 6, 8)) -> Workload:
    tasks = []
    for kind in KINDS:
        for n in enum_ns:
            argv = ["tilt", "enumerate", "--n", str(n), "--kind", kind, "--format", "json"]
            tasks.append(cli_task(argv, _check_enumerate(n, kind)))
        for n in graph_ns:
            argv = ["tilt", "graph", "--n", str(n), "--kind", kind]
            tasks.append(cli_task(argv, _check_graph(n, kind)))
    largest = f"tilt enumerate --n {max(enum_ns)} --kind cyclic --format json"
    return Workload(tasks, largest)


def verify_workload(max_ns=(4, 5, 6)) -> Workload:
    tasks = [cli_task(["verify", "paper", "--max-n", str(n)], _check_verify) for n in max_ns]
    return Workload(tasks, tasks[-1].name)


# -- support tau-tilting pairs --------------------------------------------------


def _render_pairs(pairs) -> str:
    return "".join(f"{p.modules} | {sorted(p.killed)}\n" for p in pairs)


def _check_pairs(A: nakayama.Algebra, name: str) -> Callable[[list], str | None]:
    def check(pairs) -> str | None:
        if len({p.modules for p in pairs}) != len(pairs):
            return "duplicate module parts"
        sample = pairs
        if len(pairs) > PAIR_CHECK_LIMIT:
            sample = random.Random(name).sample(pairs, PAIR_CHECK_LIMIT)
        for p in sample:
            if not nakayama.is_sttilt_pair(A, p.modules, p.killed):
                return f"not a support tau-tilting pair: {p.modules} | {sorted(p.killed)}"
        return None

    return check


def sttilt_task(A: nakayama.Algebra) -> Task:
    name = f"sttilt {A}"
    return Task(name, lambda: nakayama.enumerate_sttilt(A), _render_pairs, _check_pairs(A, name))


def typical_dimension(kind: str, n: int) -> int:
    """The most common dimension of a random series of length n with entries <= 3."""
    return 3 * n // 2 + 2 if kind == "linear" else 5 * n // 2


def sttilt_workload(seed: int, rsz=(("cyclic", 12), ("cyclic", 8), ("linear", 8)), random_ns=(8, 9, 10)) -> Workload:
    """Radical-square-zero algebras (the first is the largest) plus seeded random series.

    Enumeration cost grows with the dimension, so each random series has the
    typical dimension for its kind and length: the seed changes the series
    but hardly the cost of a pass.
    """
    rng = random.Random(seed)
    algebras = [nakayama.make_rsz_nakayama(n, kind) for kind, n in rsz]
    for n in random_ns:
        for kind in KINDS:
            c = series_of_dimension(rng, kind, n, 3, typical_dimension(kind, n))
            algebras.append(nakayama.Algebra(kind, c))
    tasks = [sttilt_task(A) for A in algebras]
    return Workload(tasks, tasks[0].name)


# -- closed forms against the matrix oracle -------------------------------------


def _lit(m) -> str:
    return "0" if m is None else str(m)


def two_roads(A: nakayama.Algebra) -> dict[str, list]:
    """Every module's syzygy and tau, and every ordered pair's hom and ext1, by both roads."""
    mods = list(A.indecomposables())
    pairs = list(itertools.product(mods, repeat=2))
    return {
        "closed": [
            [_lit(H.syzygy(A, m)) for m in mods],
            [_lit(H.tau(A, m)) for m in mods],
            [H.hom_dim(A, m, n) for m, n in pairs],
            [H.ext1_dim(A, m, n) for m, n in pairs],
        ],
        "oracle": [
            [_lit(O.syzygy_oracle(A, m)) for m in mods],
            [_lit(O.tau_via_dtr(A, m)) for m in mods],
            [O.hom_space_dim(A, m, n) for m, n in pairs],
            [O.ext1_space_dim(A, m, n) for m, n in pairs],
        ],
    }


def _check_roads(roads: dict[str, list]) -> str | None:
    for label, closed, matrix in zip(("syzygy", "tau", "hom", "ext1"), roads["closed"], roads["oracle"]):
        if closed != matrix:
            return f"{label} disagrees between the closed forms and the oracle"
    return None


def oracle_task(A: nakayama.Algebra) -> Task:
    return Task(
        f"oracle {A}",
        lambda: two_roads(A),
        lambda roads: json.dumps(roads, sort_keys=True),
        _check_roads,
        lambda roads: {"oracle.pairs_checked": len(roads["oracle"][2])},
    )


def _quiver(lam: nakayama.Algebra, res) -> object:
    objects = [res.dictionary[v] for v in res.gamma.vertices]
    return O.quiver_of(O.end_algebra(lam, objects))


def _render_quiver(q) -> str:
    return json.dumps(
        {
            "total_dim": q.total_dim,
            "arrows": sorted(q.arrow_counts.items()),
            "blocks": sorted(q.block_dims.items()),
        }
    )


def quiver_task(n: int, kind: str) -> Task:
    lam = nakayama.make_rsz_nakayama(n, kind)
    res = nakayama.auslander_algebra(lam)
    gamma = res.gamma

    def check(q) -> str | None:
        arrows = {(v, gamma.down(v)): 1 for v in gamma.vertices if gamma.kupisch(v) >= 2}
        if q.total_dim != gamma.dimension() or q.arrow_counts != arrows:
            return f"quiver of End does not match the Kupisch model {gamma}"
        if any(q.block_dims[(a, b)] != gamma.path_count(b, a) for a in gamma.vertices for b in gamma.vertices):
            return "Hom block dimensions do not match the path counts"
        return None

    return Task(f"quiver {kind} n={n}", lambda: _quiver(lam, res), _render_quiver, check)


def oracle_workload(seed: int, budget=ORACLE_BUDGET, largest=("cyclic", (5,) * 8), quiver_ns=(1, 2, 3, 4)) -> Workload:
    """A fixed largest series, seeded series up to the work budget, and End quivers."""
    rng = random.Random(seed)
    algebras = [nakayama.Algebra(*largest)]
    spent = 0
    while spent < budget:
        kind = KINDS[len(algebras) % 2]
        A = nakayama.Algebra(kind, random_series(rng, kind, rng.randint(4, 8), 5))
        algebras.append(A)
        spent += A.dimension() ** 2 * A.n
    tasks = [oracle_task(A) for A in algebras]
    tasks += [quiver_task(n, kind) for kind in KINDS for n in quiver_ns]
    return Workload(tasks, tasks[0].name)


def build(name: str, seed: int) -> Workload:
    if name == "auslander":
        return auslander_workload()
    if name == "sttilt":
        return sttilt_workload(seed)
    if name == "oracle":
        return oracle_workload(seed)
    if name == "verify":
        return verify_workload()
    raise ValueError(f"unknown workload {name!r}")
