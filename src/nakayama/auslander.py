"""Auslander algebras of radical-square-zero Nakayama algebras.

For a connected radical-square-zero Nakayama algebra L with n simples the
Auslander algebra G = End(sum of all indecomposables) is again Nakayama,
and its Kupisch series has a closed form:

* L linear, n >= 2: G is linear on 2n-1 vertices with series
  (1, 2, 2, 3, 2, 3, ..., 2, 3, 2) -- after the leading (1, 2), entry j
  is 2 for odd j and 3 for even j.  Vertex 2k-1 carries S(k), vertex 2k
  carries P(k+1).
* L cyclic: G is cyclic on 2n vertices with series (3, 2, 3, 2, ...).
  Vertex 2k-1 carries P(k), vertex 2k carries S(k).

The closed form is asserted against the matrix oracle (`end_algebra` /
`quiver_of`) in the test suite, not trusted blindly.  Everything
downstream (the bijection onto support tau-tilting pairs of the quotient
by the projective-injectives, and the tilting counts) is computed from
the Kupisch model.  `auslander_family` builds the results for both kinds
and n = 1..max_n; each enumerates its tilting modules once, on first use
(`AuslanderResult.tilting`), for every report and check that reads them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .algebra import Algebra, AlgebraError, IndecModule, ModuleSet, make_rsz_nakayama
from .homology import gorenstein_profile
from .tau_tilting import SupportPair, enumerate_sttilt_over
from .tilting import (
    TiltingError,
    check_gen_minimum,
    enumerate_tilting,
    is_tilting,
    minimal_tilting,
    summand_shape_check,
)


@dataclass(frozen=True)
class AuslanderResult:
    """The Auslander algebra of L with its module dictionary.

    `dictionary[v]` is the L-module whose Hom-functor is the projective of
    gamma at vertex v; `projinj` are the gamma-vertices whose projective
    is also injective (computed intrinsically from the Kupisch model).
    `tilting` enumerates the tilting modules of gamma on first use.
    """

    lam: Algebra
    gamma: Algebra
    dictionary: dict[int, IndecModule]
    projinj: frozenset[int]

    @cached_property
    def tilting(self) -> list[ModuleSet]:
        return enumerate_tilting(self.gamma)


def auslander_algebra(lam: Algebra) -> AuslanderResult:
    """Kupisch model of the Auslander algebra of a connected rsz Nakayama algebra."""
    n = lam.n
    if lam.kind == "linear":
        expected = (1,) + (2,) * (n - 1)
        if lam.c != expected:
            raise AlgebraError(
                f"unsupported input: need the connected radical-square-zero series {expected}"
            )
        if n == 1:
            gamma = Algebra("linear", (1,))
            dictionary = {1: lam.simple(1)}
        else:
            series = [1, 2] + [2 if j % 2 else 3 for j in range(3, 2 * n)]
            gamma = Algebra("linear", tuple(series))
            dictionary = {}
            for k in range(1, n + 1):
                dictionary[2 * k - 1] = lam.simple(k)
                if k < n:
                    dictionary[2 * k] = lam.projective(k + 1)
    elif lam.kind == "cyclic":
        if any(ci != 2 for ci in lam.c):
            raise AlgebraError("unsupported input: need the radical-square-zero series (2, ..., 2)")
        series = [3 if j % 2 else 2 for j in range(1, 2 * n + 1)]
        gamma = Algebra("cyclic", tuple(series))
        dictionary = {}
        for k in range(1, n + 1):
            dictionary[2 * k - 1] = lam.projective(k)
            dictionary[2 * k] = lam.simple(k)
    else:
        raise AlgebraError(f"unknown kind {lam.kind!r}")
    projinj = gamma.projective_injective_vertices()
    return AuslanderResult(lam=lam, gamma=gamma, dictionary=dictionary, projinj=projinj)


def auslander_family(max_n: int) -> list[AuslanderResult]:
    """Auslander results for linear n = 1..max_n, then cyclic n = 1..max_n."""
    return [
        auslander_algebra(make_rsz_nakayama(n, kind))
        for kind in ("linear", "cyclic")
        for n in range(1, max_n + 1)
    ]


def thm25_map(res: AuslanderResult, ms: ModuleSet) -> SupportPair:
    """Image of a tilting module under the bijection onto support pairs.

    Each summand maps to its largest quotient with no composition factor
    at a projective-injective vertex (possibly zero); the kill set is the
    complement of the surviving tops, i.e. the projective-injective
    vertices together with the unused surviving vertices.
    """
    ok, why = is_tilting(res.gamma, ms)
    if not ok:
        raise AlgebraError(f"not a tilting module: {why}")
    return _thm25_image(res, ms)


def _thm25_image(res: AuslanderResult, ms: ModuleSet) -> SupportPair:
    """`thm25_map` of a module already known to be tilting, unvalidated."""
    gamma = res.gamma
    images = []
    for m in ms:
        k = 0
        while k < m.length and gamma.down(m.top, k) not in res.projinj:
            k += 1
        if k:
            images.append(IndecModule(m.top, k))
    modules = ModuleSet.of(images)
    used_tops = {m.top for m in modules}
    killed = frozenset(v for v in gamma.vertices if v not in used_tops)
    return SupportPair(modules, killed)


@dataclass(frozen=True)
class BijectionReport:
    """Outcome of matching tilting modules against support pairs."""

    tilting_count: int
    sttilt_count: int
    injective: bool
    surjective: bool
    passed: bool
    missing: tuple[SupportPair, ...]
    extra: tuple[SupportPair, ...]


def verify_bijection(res: AuslanderResult) -> BijectionReport:
    """Match tilt(gamma) against sttilt(gamma / projective-injectives).

    Images are normalized to kill sets relative to the quotient, then
    compared as sets against the independent support-pair enumeration.
    """
    gamma = res.gamma
    profile = gorenstein_profile(gamma)
    if not (profile.is_auslander and profile.is_1_gorenstein):
        raise AlgebraError("the bijection needs an Auslander 1-Gorenstein algebra")
    tilting = res.tilting
    targets = enumerate_sttilt_over(gamma, res.projinj)
    images = []
    for T in tilting:
        # enumerate_tilting has verified every module, so no re-check here.
        pair = _thm25_image(res, T)
        images.append(SupportPair(pair.modules, frozenset(pair.killed - res.projinj)))
    image_set = set(images)
    target_set = set(targets)
    injective = len(image_set) == len(images)
    surjective = image_set == target_set
    missing = tuple(sorted(target_set - image_set, key=SupportPair.sort_key))
    extra = tuple(sorted(image_set - target_set, key=SupportPair.sort_key))
    return BijectionReport(
        tilting_count=len(tilting),
        sttilt_count=len(targets),
        injective=injective,
        surjective=surjective,
        passed=injective and surjective and len(tilting) == len(targets),
        missing=missing,
        extra=extra,
    )


@dataclass(frozen=True)
class CountReport:
    """Tilting count of one Auslander algebra against the closed form 2^n / 2^(n-1)."""

    n: int
    kind: str
    count: int
    expected: int
    shape_ok: bool
    minimal_ok: bool
    passed: bool


def verify_counts(res: AuslanderResult) -> CountReport:
    """Count the tilting modules of the Auslander algebra of L = res.lam.

    Expected counts: 2^(n-1) for linear, 2^n for cyclic.  Also checks
    every summand's shape with `summand_shape_check`, and that the
    minimal tilting module is the unique Gen-minimum of the same
    enumeration, `res.tilting`.
    """
    n, kind, gamma, tilting = res.lam.n, res.lam.kind, res.gamma, res.tilting
    expected = 2 ** (n - 1) if kind == "linear" else 2 ** n
    shape_ok = not any(summand_shape_check(gamma, T) for T in tilting)
    try:
        check_gen_minimum(gamma, minimal_tilting(gamma), tilting)
        minimal_ok = True
    except (AlgebraError, TiltingError):
        minimal_ok = False
    return CountReport(
        n=n,
        kind=kind,
        count=len(tilting),
        expected=expected,
        shape_ok=shape_ok,
        minimal_ok=minimal_ok,
        passed=(len(tilting) == expected) and shape_ok and minimal_ok,
    )
