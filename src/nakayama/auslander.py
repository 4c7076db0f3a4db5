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
The enumeration verified them, so the shape and Gen-minimum checks read
their summand masks and validate none of them again.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .algebra import Algebra, AlgebraError, IndecModule, ModuleSet, make_rsz_nakayama
from .homology import GorensteinProfile, gorenstein_profile
from .tables import mask
from .tau_tilting import SupportPair, _support_parts
from .tilting import (
    TiltingError,
    _gen_minimum,
    _shape_offenders,
    _summand_masks,
    _tilting_indices,
    enumerate_tilting,
    minimal_tilting,
)


@dataclass(frozen=True)
class AuslanderResult:
    """The Auslander algebra of L with its module dictionary.

    `dictionary[v]` is the L-module whose Hom-functor is the projective of
    gamma at vertex v; `projinj` are the gamma-vertices whose projective
    is also injective (computed intrinsically from the Kupisch model).
    `tilting` and the checks of gamma below each run once, on first use.
    """

    lam: Algebra
    gamma: Algebra
    dictionary: dict[int, IndecModule]
    projinj: frozenset[int]

    @cached_property
    def tilting(self) -> list[ModuleSet]:
        return enumerate_tilting(self.gamma)

    @cached_property
    def _masks(self) -> list[int]:
        """The `_summand_masks` of `tilting`, read once for both checks."""
        return _summand_masks(self.gamma, self.tilting)

    @cached_property
    def shape_offenders(self) -> list[tuple[ModuleSet, list[IndecModule]]]:
        """Each tilting module with the summands `summand_shape_check` flags."""
        return _shape_offenders(self.gamma, self.tilting, self._masks)

    @cached_property
    def minimum(self) -> tuple[ModuleSet | None, str | None]:
        """(`minimal_tilting`, None) if it is the unique Gen-minimum of
        `tilting`, else (None, the text of the error raised)."""
        try:
            ms = minimal_tilting(self.gamma)
            _gen_minimum(self.gamma, ms, self.tilting, self._masks)
        except (AlgebraError, TiltingError) as exc:
            return None, str(exc)
        return ms, None

    @cached_property
    def profile(self) -> GorensteinProfile:
        return gorenstein_profile(self.gamma)


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
    vertices together with the unused surviving vertices.  An ms that is
    not tilting raises AlgebraError, from the entry check of `mutation_at`.
    """
    _tilting_indices(res.gamma, ms)
    idx, tops = _thm25_image(res, ms)
    return _pair(res.gamma, idx, ~tops)


def _thm25_image(res: AuslanderResult, ms: ModuleSet) -> tuple[tuple[int, ...], int]:
    """`thm25_map` of a module already known to be tilting, unvalidated, on
    indices: the module part as increasing Gamma table indices and its tops
    as a mask, vertex v at bit v - 1.  M(v, l) maps to M(v, k), k <= l the
    most composition factors from the top that miss the projective-injective
    vertices; images of summands in (top, length) order stay in order."""
    gamma, projinj = res.gamma, res.projinj
    idx, tops = {}, 0  # the keys: one per image, as two summands may share one
    for top, length in ms:
        k = 0
        while k < length and gamma.down(top, k) not in projinj:
            k += 1
        if k:
            idx[gamma.tables.at(top, k)] = None
            tops |= 1 << top - 1
    return tuple(idx), tops


def _pair(gamma: Algebra, idx: tuple[int, ...], killed: int) -> SupportPair:
    """The support pair of Gamma table indices idx and kill mask `killed`."""
    return SupportPair(gamma.tables.module_set(idx), frozenset(v for v in gamma.vertices if killed >> v - 1 & 1))


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

    Both sides are sets of (module part as Gamma table indices, kill mask
    relative to the quotient): the targets from the support criterion,
    `tau_tilting._support_parts` with the projective-injectives as base
    kill set, and the images from `_thm25_image`.  No quotient, module or
    pair is built, but for the `missing` and `extra` of a failing report.
    """
    gamma, profile = res.gamma, res.profile
    if not (profile.is_auslander and profile.is_1_gorenstein):
        raise AlgebraError("the bijection needs an Auslander 1-Gorenstein algebra")
    tilting = res.tilting
    base = mask(v - 1 for v in res.projinj)
    surviving = (1 << gamma.n) - 1 & ~base
    parts, supports = _support_parts(gamma, base)
    targets = {(idx, surviving & ~bits) for idx, bits in zip(parts, supports)}
    # enumerate_tilting has verified every module, so no re-check here.
    images = {(idx, surviving & ~tops) for idx, tops in (_thm25_image(res, T) for T in tilting)}
    injective = len(images) == len(tilting)
    surjective = images == targets
    return BijectionReport(
        tilting_count=len(tilting),
        sttilt_count=len(parts),
        injective=injective,
        surjective=surjective,
        passed=injective and surjective and len(tilting) == len(parts),
        missing=tuple(sorted((_pair(gamma, *key) for key in targets - images), key=SupportPair.sort_key)),
        extra=tuple(sorted((_pair(gamma, *key) for key in images - targets), key=SupportPair.sort_key)),
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

    Expected counts: 2^(n-1) for linear, 2^n for cyclic.  Also reads
    every summand's shape check (`res.shape_offenders`) and whether the
    minimal tilting module is the unique Gen-minimum of the same
    enumeration (`res.minimum`).
    """
    n, kind, tilting = res.lam.n, res.lam.kind, res.tilting
    expected = 2 ** (n - 1) if kind == "linear" else 2 ** n
    shape_ok = not res.shape_offenders
    minimal_ok = res.minimum[1] is None
    return CountReport(
        n=n,
        kind=kind,
        count=len(tilting),
        expected=expected,
        shape_ok=shape_ok,
        minimal_ok=minimal_ok,
        passed=(len(tilting) == expected) and shape_ok and minimal_ok,
    )
