"""Closed-form homological calculus for uniserial modules.

Everything here reduces to arithmetic on the Kupisch coordinates (top,
length) of the modules.  Each closed form is written once, as a private
kernel that trusts its arguments: `_hom`, `_syzygy`, `_cosyzygy`, `_tau`,
`_ext1` and the resolution orbit `_dim_along` behind `proj_dim` and
`inj_dim`, all on coordinates: `_hom` reads any (top, length) pair, so
`_ext1` builds no module.  The public functions validate each module
once, with `Algebra.check_module`, then call the kernels; `tables.Tables`
builds its candidate masks from the same kernels, on the pairs that can
conflict.  The test suite holds the kernels to an independent copy of
the formulas in `tests/test_tables.py` and to the matrix oracle.

Infinite projective or injective dimension is reported as ``math.inf``
(the syzygy orbit of a uniserial module is eventually periodic, so a
revisited module proves infinitude).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .algebra import CYCLIC, Algebra, AlgebraError, IndecModule, ModuleSet

INFINITE = math.inf


# -- kernels: no validation, the caller vouches for its modules ---------------


def _hom(A: Algebra, M: tuple[int, int], N: tuple[int, int]) -> int:
    """dim Hom of (top, length) pairs: the k <= min(lengths) with k = top M - top N + len N,
    mod n if cyclic, where a top counts only mod n.  Indexed, as an IndecModule unpacks slower."""
    short = min(M[1], N[1])
    k = M[0] - N[0] + N[1]
    if A.kind == CYCLIC:
        n = len(A.c)
        k = (k - 1) % n + 1
        return (short - k) // n + 1 if k <= short else 0
    return 1 if 1 <= k <= short else 0


def _syzygy(A: Algebra, M: IndecModule) -> IndecModule | None:
    cover = A.c[M.top - 1]
    return None if M.length == cover else IndecModule(A.down(M.top, M.length), cover - M.length)


def _envelope(A: Algebra, M: IndecModule) -> IndecModule:
    """Injective envelope I(socle M)."""
    return A.injective_env_vertex(A.down(M.top, M.length - 1))


def _cosyzygy(A: Algebra, M: IndecModule) -> IndecModule | None:
    env = _envelope(A, M)
    return None if env == M else IndecModule(env.top, env.length - M.length)


def _tau(A: Algebra, M: IndecModule) -> IndecModule | None:
    return None if M.length == A.c[M.top - 1] else IndecModule(A.down(M.top), M.length)


def _ext1(A: Algebra, M: IndecModule, N: IndecModule) -> int:
    """hom(Omega M, N) - hom(P(top M), N) + hom(M, N) on integer pairs; 0 for
    projective M and when Hom(Omega M, N) = 0, of which Ext^1(M, N) is a quotient."""
    top, length = M.top, M.length
    if length == (cover := A.c[top - 1]):
        return 0
    h = _hom(A, (top - length, cover - length), N)  # Omega M, its top mod n
    return h and h - _hom(A, (top, cover), N) + _hom(A, M, N)


def _dim_along(step: Callable, A: Algebra, M: IndecModule | None) -> int | float:
    """Steps of `step` (syzygy or cosyzygy) from M to zero; INFINITE if the orbit cycles."""
    seen = set()
    while M is not None:
        if M in seen:
            return INFINITE
        seen.add(M)
        M = step(A, M)
    return len(seen) - 1


# -- public functions: validate once, then call the kernels -------------------


def hom_dim(A: Algebra, M: IndecModule, N: IndecModule) -> int:
    """dim Hom(M, N), in constant time.

    A homomorphism sends the top of M onto layer k of N (1-based from the
    top) and is determined by that image; it exists iff the layer vertices
    match and the remaining tail of N is short enough, which reduces to
    counting k <= min(len M, len N) with top(M) = top(N) - (len N) + k as
    vertices (mod N in the cyclic case).
    """
    A.check_module(M)
    A.check_module(N)
    return _hom(A, M, N)


def syzygy(A: Algebra, M: IndecModule) -> IndecModule | None:
    """Kernel of the projective cover P(top M) -> M; None for projective M."""
    A.check_module(M)
    return _syzygy(A, M)


def cosyzygy(A: Algebra, M: IndecModule) -> IndecModule | None:
    """Cokernel of the injective envelope M -> I(socle M); None for injective M."""
    A.check_module(M)
    return _cosyzygy(A, M)


def proj_dim(A: Algebra, M: IndecModule) -> int | float:
    """Projective dimension, math.inf if the syzygy orbit cycles."""
    A.check_module(M)
    return _dim_along(_syzygy, A, M)


def inj_dim(A: Algebra, M: IndecModule) -> int | float:
    A.check_module(M)
    return _dim_along(_cosyzygy, A, M)


def tau(A: Algebra, M: IndecModule) -> IndecModule | None:
    """Auslander-Reiten translate; zero (None) exactly for projectives.

    For Nakayama algebras tau shifts the top one arrow down, keeping the
    length.
    """
    A.check_module(M)
    return _tau(A, M)


def tau_inv(A: Algebra, M: IndecModule) -> IndecModule | None:
    A.check_module(M)
    return None if _envelope(A, M) == M else IndecModule(A.up(M.top), M.length)


def ext1_dim(A: Algebra, M: IndecModule, N: IndecModule) -> int:
    """dim Ext^1(M, N) from 0 -> Omega M -> P(top M) -> M -> 0.

    Applying Hom(-, N) gives dim Ext^1 = hom(Omega M, N) - hom(P, N) + hom(M, N).
    """
    A.check_module(M)
    A.check_module(N)
    return _ext1(A, M, N)


def ext_dim(A: Algebra, M: IndecModule, N: IndecModule, i: int = 1) -> int:
    """dim Ext^i for i >= 1, by dimension shift along the syzygy chain.

    The chain reaches zero or repeats a module within dim A steps; at the
    first repeat the remaining steps are reduced modulo the cycle length.
    """
    if not isinstance(i, int) or isinstance(i, bool):
        raise AlgebraError(f"degree {i!r} is not an integer")
    if i < 1:
        raise AlgebraError(f"ext_dim needs i >= 1, got {i}")
    A.check_module(M)
    A.check_module(N)
    orbit = {M: 0}  # module -> k with module = Omega^k M
    for k in range(1, i):
        M = _syzygy(A, M)
        if M is None:
            return 0
        if M in orbit:
            start = orbit[M]
            M = list(orbit)[start + (i - 1 - start) % (k - start)]
            break
        orbit[M] = k
    return _ext1(A, M, N)


def global_dimension(A: Algebra) -> int | float:
    """Largest projective dimension of a simple.  One memo of pd per module
    serves every simple, so each syzygy orbit is walked once; a module on
    the current walk reads INFINITE, as a walk that comes back to it cycles."""
    pd: dict[IndecModule, int | float] = {}
    simples = [A.simple(i) for i in A.vertices]
    for M in simples:
        walk = []
        while M is not None and M not in pd:
            pd[M] = INFINITE
            walk.append(M)
            M = _syzygy(A, M)
        d = -1 if M is None else pd[M]
        for M in reversed(walk):
            d = pd[M] = d + 1
    return max(pd[S] for S in simples)


def regular_module(A: Algebra) -> ModuleSet:
    return ModuleSet.of(A.projective(i) for i in A.vertices)


def regular_i0(A: Algebra) -> ModuleSet:
    """I0 = basic version of the injective envelope of the regular module."""
    return ModuleSet.of(_envelope(A, P) for P in regular_module(A))


def regular_i1(A: Algebra) -> ModuleSet:
    """I1 = basic version of the next term in the minimal injective resolution of A."""
    cos = (_cosyzygy(A, P) for P in regular_module(A))
    return ModuleSet.of(_envelope(A, m) for m in cos if m is not None)


@dataclass(frozen=True)
class GorensteinProfile:
    """Shape of the start of the minimal injective coresolution of the algebra."""

    gldim: int | float
    i0: ModuleSet
    i1: ModuleSet
    i0_projective: bool
    i1_projective: bool
    is_1_gorenstein: bool
    is_auslander: bool


def gorenstein_profile(A: Algebra) -> GorensteinProfile:
    """Global dimension plus projectivity of I0 and I1.

    `is_1_gorenstein` means I0 is projective; `is_auslander` additionally
    needs I1 projective and global dimension <= 2.
    """
    gldim = global_dimension(A)
    i0 = regular_i0(A)
    i1 = regular_i1(A)
    i0_proj = all(A.is_projective(m) for m in i0)
    i1_proj = all(A.is_projective(m) for m in i1)
    return GorensteinProfile(
        gldim=gldim,
        i0=i0,
        i1=i1,
        i0_projective=i0_proj,
        i1_projective=i1_proj,
        is_1_gorenstein=i0_proj,
        is_auslander=bool(gldim <= 2 and i0_proj and i1_proj),
    )
