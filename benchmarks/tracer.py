"""Boundary tracer for the benchmark's traced runs.

`Tracer.install` wraps the library's public functions at each module
boundary from outside: every binding of a traced function in every
`nakayama` module (and each traced method on its class) is replaced by a
wrapper, so calls between modules and inside a module are both seen.
Hot kernels get counters (and accumulated time where a metric needs it);
spans (name, start, end, parent) are kept only for tasks and public
entry points.  Nothing is written until the caller asks for `metrics()`
and `spans`.

Times: `busy_s` is the inclusive time of the outermost activations of a
function (nested calls of the same function are not counted twice);
`self_s` is inclusive time minus the time spent in timed traced callees.
Count-only wrappers (`check_module`, `validate`, ...) are not subtracted.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter

clock = time.perf_counter

COUNT, TIME, CALLER, SPAN = 1, 2, 4, 8

# (module, attribute, metric name, mode)
TARGETS = (
    ("algebra", "Algebra.check_module", "check_module", COUNT),
    ("algebra", "Algebra.__post_init__", "validate", COUNT),
    ("algebra", "Algebra.indecomposables", "indecomposables", COUNT),
    ("algebra", "quotient_algebra", "quotient_algebra", TIME | CALLER),
    *(("homology", f, f, TIME | CALLER) for f in ("hom_dim", "ext1_dim", "proj_dim", "syzygy", "tau")),
    ("tilting", "enumerate_tilting", "enumerate_tilting", TIME | SPAN),
    ("tilting", "tilting_record", "tilting_record", TIME),
    ("tilting", "is_tilting", "is_tilting", TIME),
    ("tilting", "exchange_graph", "exchange_graph", TIME | SPAN),
    ("tilting", "leq_gen", "leq_gen", COUNT),
    ("tilting", "generates", "generates", COUNT),
    ("tilting", "mutation_at", "mutation_at", TIME),
    ("tilting", "minimal_tilting", "minimal_tilting", TIME | SPAN),
    ("tau_tilting", "enumerate_sttilt_over", "enumerate_sttilt_over", TIME | SPAN),
    ("tau_tilting", "enumerate_tau_tilting", "enumerate_tau_tilting", TIME),
    ("auslander", "auslander_algebra", "auslander_algebra", TIME | SPAN),
    ("auslander", "verify_bijection", "verify_bijection", TIME | SPAN),
    ("auslander", "verify_counts", "verify_counts", TIME | SPAN),
    ("auslander", "thm25_map", "thm25_map", COUNT),
    ("oracle", "to_representation", "to_representation", TIME),
    *(("oracle", f, f, TIME) for f in ("hom_space_dim", "ext1_space_dim", "syzygy_oracle", "tau_via_dtr")),
    ("oracle", "end_algebra", "end_algebra", TIME | SPAN),
    ("oracle", "quiver_of", "quiver_of", TIME | SPAN),
    ("linalg", "rank", "rank", TIME),
    ("linalg", "nullspace", "nullspace", TIME),
    ("linalg", "mat_mul", "mat_mul", COUNT),
    ("verification", "paper_report", "paper_report", TIME | SPAN),
    *(
        ("verification", f, f, TIME | SPAN)
        for f in (
            "construction_assertions",
            "shape_assertions",
            "mutation_shape_assertions",
            "minimal_tilting_assertions",
            "semisimple_sttilt_assertions",
            "bijection_assertions",
            "count_assertions",
            "golden_list_assertions",
            "profile_assertions",
        )
    ),
    ("cli", "main", "main", TIME | SPAN),
)

CALLERS = ("homology", "tilting", "tau_tilting", "other")
VERIFICATION_FAMILIES = tuple(t[1] for t in TARGETS if t[0] == "verification" and t[1] != "paper_report")

# Every per-layer metric a traced run reports, with its unit, in report order.
PER_LAYER: tuple[tuple[str, str], ...] = (
    ("algebra.check_module.calls", "count"),
    ("algebra.validate.calls", "count"),
    ("algebra.quotient_algebra.calls", "count"),
    ("algebra.quotient_algebra.self_s", "s"),
    ("algebra.indecomposables.calls", "count"),
    *(
        (f"homology.{f}.calls.from_{caller}", "count")
        for f in ("hom_dim", "ext1_dim", "proj_dim", "syzygy", "tau")
        for caller in CALLERS
    ),
    ("homology.busy_s", "s"),
    ("tilting.enumerate_tilting.self_s", "s"),
    ("tilting.tilting_record.calls", "count"),
    ("tilting.tilting_record.busy_s", "s"),
    ("tilting.is_tilting.calls", "count"),
    ("tilting.is_tilting.busy_s", "s"),
    ("tilting.exchange_graph.self_s", "s"),
    ("tilting.leq_gen.calls", "count"),
    ("tilting.generates.calls", "count"),
    ("tilting.mutation_at.calls", "count"),
    ("tilting.mutation_at.busy_s", "s"),
    ("tilting.minimal_tilting.busy_s", "s"),
    ("tilting.records_out", "count"),
    ("tilting.is_tilting.calls_per_record", "ratio"),
    ("tau_tilting.enumerate_sttilt_over.self_s", "s"),
    ("tau_tilting.enumerate_tau_tilting.calls", "count"),
    ("tau_tilting.enumerate_tau_tilting.busy_s", "s"),
    ("tau_tilting.component_series.distinct", "count"),
    ("tau_tilting.component_series.distinct_per_call", "ratio"),
    ("tau_tilting.kill_sets", "count"),
    ("tau_tilting.pairs_out", "count"),
    ("auslander.auslander_algebra.busy_s", "s"),
    ("auslander.verify_bijection.self_s", "s"),
    ("auslander.verify_counts.self_s", "s"),
    ("auslander.thm25_map.calls", "count"),
    ("oracle.to_representation.calls", "count"),
    ("oracle.to_representation.busy_s", "s"),
    *((f"oracle.{f}.busy_s", "s") for f in ("hom_space_dim", "ext1_space_dim", "syzygy_oracle", "tau_via_dtr", "end_algebra", "quiver_of")),
    ("oracle.pairs_checked", "count"),
    ("linalg.rank.calls", "count"),
    ("linalg.rank.busy_s", "s"),
    ("linalg.nullspace.calls", "count"),
    ("linalg.nullspace.busy_s", "s"),
    ("linalg.mat_mul.calls", "count"),
    *((f"verification.{f}.busy_s", "s") for f in VERIFICATION_FAMILIES),
    ("verification.assertions_out", "count"),
    ("cli.main.self_s", "s"),
    ("cli.output_bytes", "count"),
    ("bench.trace_overhead_s", "s"),
)


class Stat:
    """Calls and times of one traced function, or busy time of one layer."""

    __slots__ = ("calls", "busy_s", "self_s", "active", "callers")

    def __init__(self) -> None:
        self.calls = 0
        self.busy_s = 0.0
        self.self_s = 0.0
        self.active = 0
        self.callers: Counter = Counter()


def _caller_module(frame) -> str:
    name = frame.f_globals.get("__name__", "")
    short = name.rpartition(".")[2] if name.startswith("nakayama.") else ""
    return short if short in CALLERS else "other"


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, Stat] = {}
        self.layers: dict[str, Stat] = {}
        self.counts: Counter = Counter()
        self.series: set = set()
        self.spans: list[list] = []
        self._t0 = clock()
        self._child = [0.0]  # time spent in timed callees, per open timed call
        self._open_spans = [-1]
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers -----------------------------------------------------------------

    def _wrap(self, layer: str, metric: str, mode: int, fn):
        stat = self.stats.setdefault(f"{layer}.{metric}", Stat())
        if mode == COUNT:
            def counted(*args, **kwargs):
                stat.calls += 1
                return fn(*args, **kwargs)

            return counted
        layer_stat = self.layers.setdefault(layer, Stat())
        child, spans, open_spans = self._child, self.spans, self._open_spans
        by_caller, with_span = mode & CALLER, mode & SPAN
        name = f"{layer}.{metric}"
        hook = getattr(self, "_after_" + metric, None)

        def timed(*args, **kwargs):
            stat.calls += 1
            if by_caller:
                stat.callers[_caller_module(sys._getframe(1))] += 1
            stat.active += 1
            layer_stat.active += 1
            child.append(0.0)
            if with_span:
                open_spans.append(len(spans))
                spans.append([name, clock() - self._t0, None, open_spans[-2]])
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                inner = child.pop()
                child[-1] += dt
                stat.self_s += dt - inner
                stat.active -= 1
                layer_stat.active -= 1
                if not stat.active:
                    stat.busy_s += dt
                if not layer_stat.active:
                    layer_stat.busy_s += dt
                if with_span:
                    spans[open_spans.pop()][2] = clock() - self._t0
            if hook is not None:
                hook(args, result)
            return result

        return timed

    def _after_enumerate_tilting(self, args, result) -> None:
        self.counts["tilting.records_out"] += len(result)

    def _after_enumerate_sttilt_over(self, args, result) -> None:
        self.counts["tau_tilting.pairs_out"] += len(result)

    def _after_enumerate_tau_tilting(self, args, result) -> None:
        B = args[0]
        self.series.add((B.kind, B.c))

    def _after_paper_report(self, args, result) -> None:
        self.counts["verification.assertions_out"] += len(result)

    # -- installing ---------------------------------------------------------------

    def install(self) -> "Tracer":
        """Replace every binding of each traced function in the nakayama package."""
        package = importlib.import_module("nakayama")
        modules = [package] + [
            mod for name, mod in sorted(sys.modules.items()) if name.startswith("nakayama.") and mod is not None
        ]
        for layer, attr, metric, mode in TARGETS:
            owner = importlib.import_module(f"nakayama.{layer}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                self._patch(cls, meth, self._wrap(layer, metric, mode, cls.__dict__[meth]))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(layer, metric, mode, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)
        return self

    def _patch(self, obj, attr: str, value) -> None:
        self._patches.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            obj, attr, original = self._patches.pop()
            setattr(obj, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- task spans and results ---------------------------------------------------

    def task_start(self, name: str) -> None:
        self._open_spans.append(len(self.spans))
        self.spans.append([f"task {name}", clock() - self._t0, None, self._open_spans[-2]])

    def task_end(self) -> None:
        self.spans[self._open_spans.pop()][2] = clock() - self._t0

    def calls(self, name: str) -> int:
        stat = self.stats.get(name)
        return stat.calls if stat else 0

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric except the overhead, which needs an untraced pass."""
        s = self.stats
        out: dict[str, float] = {}
        for name, _unit in PER_LAYER:
            layer, _, rest = name.partition(".")
            if ".calls.from_" in rest:
                fn, _, caller = rest.partition(".calls.from_")
                out[name] = s[f"{layer}.{fn}"].callers[caller]
            elif rest.endswith((".calls", ".busy_s", ".self_s")):
                fn, _, field = rest.rpartition(".")
                out[name] = getattr(s[f"{layer}.{fn}"], field)
        records = self.counts["tilting.records_out"]
        tau_calls = s["tau_tilting.enumerate_tau_tilting"].calls
        out["homology.busy_s"] = self.layers["homology"].busy_s
        out["tilting.is_tilting.calls_per_record"] = s["tilting.is_tilting"].calls / records if records else 0.0
        out["tau_tilting.component_series.distinct"] = len(self.series)
        out["tau_tilting.component_series.distinct_per_call"] = len(self.series) / tau_calls if tau_calls else 0.0
        out["tau_tilting.kill_sets"] = s["algebra.quotient_algebra"].callers["tau_tilting"]
        for name in ("tilting.records_out", "tau_tilting.pairs_out", "verification.assertions_out",
                     "oracle.pairs_checked", "cli.output_bytes"):
            out[name] = self.counts[name]
        missing = [name for name, _ in PER_LAYER if name not in out and name != "bench.trace_overhead_s"]
        if missing:
            raise KeyError(f"per-layer metrics not computed: {missing}")
        return out


def exchange_graph_self_check() -> str | None:
    """leq_gen is called once per ordered pair of distinct tilting modules.

    On the Auslander algebra of the cyclic algebra with n=3 there are
    k = 8 tilting modules, so exchange_graph makes k(k-1) = 56 calls.
    Returns a description of the mismatch, or None.
    """
    import nakayama

    gamma = nakayama.auslander_algebra(nakayama.make_rsz_nakayama(3, "cyclic")).gamma
    with Tracer() as tracer:
        k = len(nakayama.exchange_graph(gamma).nodes)
        calls = tracer.calls("tilting.leq_gen")
    if k != 8 or calls != k * (k - 1):
        return f"exchange_graph at cyclic n=3: k={k}, leq_gen calls={calls}, expected 8 and 56"
    return None
