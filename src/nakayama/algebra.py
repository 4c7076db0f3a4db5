"""Nakayama algebras presented by Kupisch series, and their uniserial modules.

An algebra is a basic Nakayama algebra over a field, encoded by an
orientation kind and a Kupisch series ``c``:

* ``linear`` -- quiver ``1 <- 2 <- ... <- N`` (one arrow ``k -> k-1`` for
  each ``k >= 2``),
* ``cyclic`` -- the same arrows plus ``1 -> N``, closing the cycle.

``c[i]`` is the composition length of the indecomposable projective with
top at vertex ``i``.  Paths compose left to right (``pq`` means "first
``p``, then ``q``") and modules are right modules, so ``P(i) = e_i A``
has layers ``S(i), S(i-1), ...`` from top to socle.

Every indecomposable module is uniserial and is determined by its top
vertex and its length; it is written ``M(top, length)``.  All values
here are immutable and all functions are pure.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

LINEAR = "linear"
CYCLIC = "cyclic"
KINDS = (LINEAR, CYCLIC)


class AlgebraError(ValueError):
    """Invalid Kupisch data, module coordinates, or vertex arguments."""


@dataclass(frozen=True, order=True)
class IndecModule:
    """Uniserial module M(top, length); layers run top, top-1, ... down."""

    top: int
    length: int

    def __str__(self) -> str:
        return f"M({self.top},{self.length})"


@dataclass(frozen=True)
class Algebra:
    """Nakayama algebra given by kind ('linear' or 'cyclic') and Kupisch series."""

    kind: str
    c: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise AlgebraError(f"unknown kind {self.kind!r}")
        c = tuple(self.c)
        object.__setattr__(self, "c", c)
        n = len(c)
        if n == 0:
            raise AlgebraError("Kupisch series is empty")
        if self.kind == LINEAR:
            for i in range(n):
                if not isinstance(c[i], int) or isinstance(c[i], bool):
                    raise AlgebraError(f"c[{i + 1}] = {c[i]!r} is not an integer")
                if i == 0:
                    if c[0] != 1:
                        raise AlgebraError(f"linear series must start with c[1] = 1, got c[1] = {c[0]}")
                    continue
                if c[i] < 1:
                    raise AlgebraError(f"c[{i + 1}] = {c[i]} < 1")
                if c[i - 1] < c[i] - 1:
                    raise AlgebraError(
                        f"Kupisch condition fails at i={i + 1}: c[{i}] = {c[i - 1]} < c[{i + 1}] - 1 = {c[i] - 1}"
                    )
        else:
            for i, ci in enumerate(c):
                if not isinstance(ci, int) or isinstance(ci, bool):
                    raise AlgebraError(f"c[{i + 1}] = {ci!r} is not an integer")
                if ci < 2:
                    raise AlgebraError(f"cyclic series needs c[{i + 1}] >= 2, got {ci}")
            for i in range(n):
                prev = c[i - 1] if i > 0 else c[n - 1]
                if prev < c[i] - 1:
                    j = i if i > 0 else n
                    raise AlgebraError(
                        f"Kupisch condition fails at i={i + 1}: c[{j}] = {prev} < c[{i + 1}] - 1 = {c[i] - 1}"
                    )

    # -- vertex arithmetic -------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.c)

    @property
    def vertices(self) -> range:
        return range(1, self.n + 1)

    def check_vertex(self, v: int) -> None:
        if not 1 <= v <= self.n:
            raise AlgebraError(f"vertex {v} out of range 1..{self.n}")

    def down(self, v: int, steps: int = 1) -> int:
        """Vertex reached from v by following `steps` arrows."""
        if self.kind == CYCLIC:
            return (v - 1 - steps) % self.n + 1
        w = v - steps
        if w < 1 or w > self.n:
            raise AlgebraError(f"no vertex {steps} arrows below {v}")
        return w

    def up(self, v: int, steps: int = 1) -> int:
        if self.kind == CYCLIC:
            return (v - 1 + steps) % self.n + 1
        w = v + steps
        if w < 1 or w > self.n:
            raise AlgebraError(f"no vertex {steps} arrows above {v}")
        return w

    def kupisch(self, v: int) -> int:
        self.check_vertex(v)
        return self.c[v - 1]

    # -- modules -----------------------------------------------------------

    def module(self, top: int, length: int) -> IndecModule:
        m = IndecModule(top, length)
        self.check_module(m)
        return m

    def check_module(self, m: IndecModule) -> None:
        if 1 <= m.top <= len(self.c) and 1 <= m.length <= self.c[m.top - 1]:
            return
        self.check_vertex(m.top)
        if not 1 <= m.length <= self.kupisch(m.top):
            raise AlgebraError(
                f"length {m.length} invalid at vertex {m.top}: need 1..{self.kupisch(m.top)}"
            )

    def valid_module(self, m: IndecModule) -> bool:
        try:
            self.check_module(m)
        except AlgebraError:
            return False
        return True

    def projective(self, i: int) -> IndecModule:
        return self.module(i, self.kupisch(i))

    def simple(self, i: int) -> IndecModule:
        return self.module(i, 1)

    def is_projective(self, m: IndecModule) -> bool:
        self.check_module(m)
        return m.length == self.kupisch(m.top)

    def is_simple(self, m: IndecModule) -> bool:
        self.check_module(m)
        return m.length == 1

    def layers(self, m: IndecModule) -> tuple[int, ...]:
        """Composition layers, top to socle, as vertex indices."""
        self.check_module(m)
        return tuple(self.down(m.top, k) for k in range(m.length))

    def socle_vertex(self, m: IndecModule) -> int:
        self.check_module(m)
        return self.down(m.top, m.length - 1)

    def indecomposables(self) -> "ModuleSet":
        """Every indecomposable, built in the canonical (top, length) order."""
        c = self.c
        return ModuleSet(tuple(IndecModule(i, l) for i in self.vertices for l in range(1, c[i - 1] + 1)))

    def submodule(self, m: IndecModule, k: int) -> IndecModule | None:
        """The unique submodule of length k (None for k = 0)."""
        self.check_module(m)
        if not 0 <= k <= m.length:
            raise AlgebraError(f"no submodule of length {k} in {m}")
        if k == 0:
            return None
        return IndecModule(self.down(m.top, m.length - k), k)

    def quotient_top(self, m: IndecModule, k: int) -> IndecModule | None:
        """The unique quotient of length k (None for k = 0)."""
        self.check_module(m)
        if not 0 <= k <= m.length:
            raise AlgebraError(f"no quotient of length {k} of {m}")
        if k == 0:
            return None
        return IndecModule(m.top, k)

    def radical(self, m: IndecModule) -> IndecModule | None:
        return self.submodule(m, m.length - 1)

    def injective_env_vertex(self, j: int) -> IndecModule:
        """Injective envelope of the simple at vertex j.

        The envelope is the longest uniserial module with socle at j;
        its length l* is the largest l with l <= c at the vertex l-1
        arrows above j (the walk stops at the boundary for linear kind).
        """
        self.check_vertex(j)
        l = 1
        while True:
            t = l + 1
            if self.kind == LINEAR and j + t - 1 > self.n:
                break
            if t > self.kupisch(self.up(j, t - 1)):
                break
            l = t
        return IndecModule(self.up(j, l - 1), l)

    def is_injective(self, m: IndecModule) -> bool:
        self.check_module(m)
        return m == self.injective_env_vertex(self.socle_vertex(m))

    def projective_injective_vertices(self) -> frozenset[int]:
        """Vertices v such that P(v) is also injective."""
        return frozenset(v for v in self.vertices if self.is_injective(self.projective(v)))

    # -- global structure ---------------------------------------------------

    def is_radical_square_zero(self) -> bool:
        return all(ci <= 2 for ci in self.c)

    def is_selfinjective(self) -> bool:
        if self.kind == CYCLIC:
            return len(set(self.c)) == 1
        return all(ci == 1 for ci in self.c)

    def dimension(self) -> int:
        """Total dimension over the base field (sum of the Kupisch series)."""
        return sum(self.c)

    def path_count(self, src: int, tgt: int) -> int:
        """Number of nonzero paths src -> tgt, i.e. multiplicity of S(tgt) in P(src)."""
        self.check_vertex(src)
        self.check_vertex(tgt)
        return sum(1 for k in range(self.kupisch(src)) if self.down(src, k) == tgt)

    @cached_property
    def tables(self) -> Tables:
        """Projective dimensions and candidate masks over the indecomposables, built on first use."""
        return Tables(self)

    def __str__(self) -> str:
        return f"{self.kind}{self.c}"


def validate_kupisch(kind: str, c: Iterable[int]) -> Algebra:
    """Build an Algebra, raising AlgebraError with the failing index if invalid."""
    return Algebra(kind, tuple(c))


def make_rsz_nakayama(n: int, kind: str) -> Algebra:
    """Connected radical-square-zero Nakayama algebra with n simples.

    Linear: Kupisch series (1, 2, ..., 2); cyclic: (2, ..., 2).
    """
    if n < 1:
        raise AlgebraError(f"need at least one simple, got n = {n}")
    if kind == LINEAR:
        return Algebra(LINEAR, (1,) + (2,) * (n - 1))
    if kind == CYCLIC:
        return Algebra(CYCLIC, (2,) * n)
    raise AlgebraError(f"unknown kind {kind!r}")


# -- basic module sets -----------------------------------------------------


@dataclass(frozen=True)
class ModuleSet:
    """Basic module: a canonically sorted, duplicate-free tuple of summands."""

    modules: tuple[IndecModule, ...]

    @classmethod
    def of(cls, mods: Iterable[IndecModule]) -> "ModuleSet":
        return cls(tuple(sorted(set(mods))))

    def __iter__(self) -> Iterator[IndecModule]:
        return iter(self.modules)

    def __len__(self) -> int:
        return len(self.modules)

    def __contains__(self, m: object) -> bool:
        return m in self.modules

    def __bool__(self) -> bool:
        return bool(self.modules)

    def plus(self, m: IndecModule) -> "ModuleSet":
        return ModuleSet.of(self.modules + (m,))

    def minus(self, m: IndecModule) -> "ModuleSet":
        return ModuleSet.of(x for x in self.modules if x != m)

    def literals(self) -> list[str]:
        return [str(m) for m in self.modules]

    def __str__(self) -> str:
        return " ".join(self.literals()) if self.modules else "0"


# -- quotients by idempotents ------------------------------------------------


@dataclass(frozen=True)
class QuotientAlgebra:
    """A/(e) for e the sum of primitive idempotents at `killed` vertices.

    The quotient of a Nakayama algebra splits into linear components, one
    per maximal descending run of surviving vertices.  `embeds[k][t-1]` is
    the parent vertex carrying local vertex t of component k (local
    indices count from the bottom of the run).  The one exception: killing
    nothing in a cyclic algebra returns the algebra itself as the single
    component.
    """

    components: tuple[Algebra, ...]
    embeds: tuple[tuple[int, ...], ...]
    killed: frozenset[int]


def quotient_algebra(A: Algebra, killed: Iterable[int]) -> QuotientAlgebra:
    """Quotient of A by the idempotents at `killed` vertices."""
    killed_set = frozenset(killed)
    for v in killed_set:
        A.check_vertex(v)
    if len(killed_set) == A.n:
        return QuotientAlgebra((), (), killed_set)
    if not killed_set and A.kind == CYCLIC:
        return QuotientAlgebra((A,), (tuple(A.vertices),), killed_set)

    # Vertex arithmetic on c directly: v - 1 and v + 1 are the vertices
    # below and above v, wrapping between 1 and n only when cyclic; 0 is none.
    c, n, cyclic = A.c, len(A.c), A.kind == CYCLIC
    runs = []
    for b in range(1, n + 1):
        below = b - 1 if b > 1 else n if cyclic else 0
        # b starts a run when it survives and the vertex below it, if any, does not.
        if b in killed_set or (below and below not in killed_set):
            continue
        run = [b]
        v = b
        while True:
            v = v + 1 if v < n else 1 if cyclic else 0
            if not v or v in killed_set:
                break
            run.append(v)
        runs.append(run)
    runs.sort(key=min)

    comps = []
    embeds = []
    for run in runs:
        comps.append(Algebra(LINEAR, tuple(min(c[v - 1], t) for t, v in enumerate(run, start=1))))
        embeds.append(tuple(run))
    return QuotientAlgebra(tuple(comps), tuple(embeds), killed_set)


# -- literals and serialization ----------------------------------------------

_MODULE_RE = re.compile(r"^\s*([MPS])\s*\(\s*(\d+)\s*(?:,\s*(\d+)\s*)?\)\s*$")


def module_literal(m: IndecModule | None) -> str:
    return "0" if m is None else str(m)


def parse_module(A: Algebra, text: str) -> IndecModule:
    """Parse "M(top,len)", "P(i)" or "S(i)" against a fixed algebra."""
    match = _MODULE_RE.match(text)
    if not match:
        raise AlgebraError(f"cannot parse module literal {text!r}")
    head, a, b = match.group(1), int(match.group(2)), match.group(3)
    if head == "M":
        if b is None:
            raise AlgebraError(f"M literal needs top and length: {text!r}")
        return A.module(a, int(b))
    if b is not None:
        raise AlgebraError(f"{head} literal takes a single vertex: {text!r}")
    return A.projective(a) if head == "P" else A.simple(a)


def algebra_to_json(A: Algebra) -> dict:
    return {"kind": A.kind, "kupisch": list(A.c)}


def algebra_from_json(obj: object) -> Algebra:
    if not isinstance(obj, dict):
        raise AlgebraError("algebra JSON must be an object")
    kind = obj.get("kind")
    kupisch = obj.get("kupisch")
    if not isinstance(kind, str) or not isinstance(kupisch, list):
        raise AlgebraError('algebra JSON needs "kind" (string) and "kupisch" (list)')
    return validate_kupisch(kind, kupisch)


def load_algebra(path: str) -> Algebra:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise AlgebraError(f"invalid JSON in {path}: {exc}") from exc
    return algebra_from_json(obj)


# -- exhaustive test universes ------------------------------------------------


def iter_kupisch_series(kind: str, n: int, max_entry: int) -> Iterator[tuple[int, ...]]:
    """All valid Kupisch series of length n with entries <= max_entry."""
    if n < 1:
        return
    if kind == LINEAR:
        def rec(prefix: list[int]) -> Iterator[tuple[int, ...]]:
            if len(prefix) == n:
                yield tuple(prefix)
                return
            for ci in range(1, min(prefix[-1] + 1, max_entry) + 1):
                yield from rec(prefix + [ci])

        if max_entry >= 1:
            yield from rec([1])
    elif kind == CYCLIC:
        if max_entry < 2:
            return
        if n == 1:
            for ci in range(2, max_entry + 1):
                yield (ci,)
            return

        def rec(prefix: list[int]) -> Iterator[tuple[int, ...]]:
            if len(prefix) == n:
                if prefix[0] <= prefix[-1] + 1:
                    yield tuple(prefix)
                return
            for ci in range(2, min(prefix[-1] + 1, max_entry) + 1):
                yield from rec(prefix + [ci])

        for first in range(2, max_entry + 1):
            yield from rec([first])
    else:
        raise AlgebraError(f"unknown kind {kind!r}")


def iter_algebras(max_n: int, max_entry: int) -> Iterator[Algebra]:
    """All algebras of both kinds with at most max_n vertices, entries <= max_entry."""
    for kind in KINDS:
        for n in range(1, max_n + 1):
            for c in iter_kupisch_series(kind, n, max_entry):
                yield Algebra(kind, c)


# The tables are built from the module classes above, so they are imported last.
from .tables import Tables  # noqa: E402
