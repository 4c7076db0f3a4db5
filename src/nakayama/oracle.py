"""Independent matrix-level oracle for the combinatorial homological calculus.

Modules are realized as quiver representations over the rationals
(vertex-indexed coordinate spaces plus one matrix per arrow, all exact
int and ``Fraction`` arithmetic).  Hom spaces are nullspaces of sparse
intertwiner systems and their dimensions the systems' ranks, both read
from the one elimination in `linalg`; and
dim Ext^1(M, N) = dim Hom(Omega M, N) - dim Hom(P0, N) + dim Hom(M, N) for
the projective cover P0 -> M whose kernel K is identified as the module
Omega M: `identify_module` checks that K has a simple top S(v) and the
dimension vector of M(v, d), and a module with simple top S(v) is a
quotient of the uniserial P(v), so K is isomorphic to M(v, d).  The
Auslander-Reiten translate D Tr M is the kernel of D f: nu P1 -> nu P0
for a minimal projective presentation, each nu P(j) built as the right
uniserial dual to the paths ending at j.  One layer map (`_positions`)
serves representations, cover maps and D f; one kernel routine serves the
syzygy and tau, with one elimination per vertex; one top routine serves
`identify_module` and the generator of the syzygy in `tau_via_dtr`.
Nothing here reuses the closed forms from `homology`; agreement between
the two is a test target, not an assumption.

Support: a representation keeps the bitmask of the vertices where it is
nonzero, read from its own dimension vector.  Kernels, tops, cover maps
and D f work only at those vertices, and a Hom system only at the arrows
out of X's support into Y's; Hom(X, Y) is 0 without a solve when the two
supports are disjoint.  So the work per module grows with its length,
not with the number of vertices.

Caching: each algebra gets a workspace holding its arrows (also keyed by
target), the layer positions of each module, the representation of each
module, the projective cover of each module with its kernel identified
once as the syzygy module (`CoverData.syzygy`, read by `syzygy_oracle`
and `ext1_space_dim`), and the Hom dimension (`hom_dims`) of each ordered
pair, filled on first use.  Each representation keeps the nonzeros of its
arrow maps by column and by row (`_nonzeros`), so a Hom system only adds
the pair's offsets.  Workspaces are keyed by the `Algebra` value (equal
algebras share one) and kept in an LRU of `WORKSPACES` entries, so at
most that many algebras' data stay alive.  The objects in a workspace
are shared between calls; only `to_representation` hands out a fresh
representation.

Validation: the public functions validate each module once, as it enters
a workspace: building its layer positions runs `A.layers`, which checks
it (a bad top or length raises the `check_module` AlgebraError and
nothing is cached); a module found in a workspace has been validated.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from operator import mul

from .algebra import Algebra, IndecModule
from . import linalg
from .linalg import Matrix, mat_mul

# Workspaces alive at once: a sweep works on one algebra at a time, so a
# few entries keep its hits while bounding memory.
WORKSPACES = 4


class OracleError(RuntimeError):
    """Internal inconsistency in a matrix-level computation."""


class Representation:
    """Quiver representation: dims[v-1] per vertex, one matrix per arrow.

    The modules are right modules: the arrow at source v points to
    A.down(v) and its matrix, of shape dims[down(v)] x dims[v], acts on
    column vectors.  The injectives nu P(j) that `tau_via_dtr` needs are
    right uniserials too, so they are built the same way.

    `support` has bit v-1 set for each vertex v where the representation
    is nonzero; `nonzeros` is filled by `_nonzeros` on first use.
    """

    __slots__ = ("dims", "maps", "support", "nonzeros")

    def __init__(self, dims: list[int], maps: dict[int, Matrix]):
        self.dims = list(dims)
        self.maps = maps
        self.support = sum(1 << v for v, d in enumerate(self.dims) if d)
        self.nonzeros = None

    def total_dim(self) -> int:
        return sum(self.dims)


def arrow_sources(A: Algebra) -> list[int]:
    """Vertices with an outgoing arrow (Kupisch entry at least 2)."""
    return [v for v in A.vertices if A.kupisch(v) >= 2]


def _positions(A: Algebra, M: IndecModule) -> dict[int, dict[int, int]]:
    """Per vertex v where M is nonzero, {layer k of M at v: its basis index
    in V_v}; validates M."""
    positions: dict[int, dict[int, int]] = {}
    for k, v in enumerate(A.layers(M)):
        at = positions.setdefault(v, {})
        at[k] = len(at)
    return positions


def to_representation(A: Algebra, M: IndecModule) -> Representation:
    """Representation of the uniserial module M, one basis vector per layer."""
    ws = _workspace(A)
    positions = ws.positions(M)
    dims = [0] * ws.n
    for v, at in positions.items():
        dims[v - 1] = len(at)
    maps: dict[int, Matrix] = {}
    for src, tgt in ws.arrows:
        src_at = positions.get(src)
        if src_at is None:  # a dims[tgt] x 0 matrix
            maps[src] = [[] for _ in range(dims[tgt - 1])]
            continue
        mat = linalg.zero_matrix(dims[tgt - 1], len(src_at))
        for k, col in src_at.items():
            if k + 1 < M.length:
                mat[positions[tgt][k + 1]][col] = 1
        maps[src] = mat
    return Representation(dims, maps)


def check_relations(A: Algebra, rep: Representation) -> bool:
    """True iff every path the algebra kills acts as zero.

    The defining relations are the paths of length c[v] starting at each
    vertex v, whenever the quiver contains such a path.
    """
    sources = set(arrow_sources(A))
    for v in A.vertices:
        if not rep.dims[v - 1]:  # every path from v acts on the zero space
            continue
        comp = linalg.identity(rep.dims[v - 1])
        cur = v
        exists = True
        for _ in range(A.kupisch(v)):
            if cur not in sources:
                exists = False
                break
            comp = mat_mul(rep.maps[cur], comp)
            cur = A.down(cur)
        if exists and not linalg.is_zero_matrix(comp):
            return False
    return True


# -- Hom as an intertwiner nullspace ------------------------------------------


def _nonzeros(ws: "_Workspace", rep: Representation):
    """The nonzeros of rep's arrow maps, by column and by row; kept on rep.

    Returns (cols, rows) keyed by arrow source: cols[src] = (tgt, per column
    j of the map, its nonzeros (k, x)) where rep is nonzero at src, and
    rows[src] = per row i of the map, its nonzeros (k, y), where rep is
    nonzero at the target.  Both follow the order of `ws.arrows`.
    """
    if rep.nonzeros is None:
        cols, rows = {}, {}
        for src, tgt in ws.arrows:
            mat = rep.maps[src]
            if rep.dims[src - 1]:
                xcols = [[] for _ in range(rep.dims[src - 1])]
                for k, row in enumerate(mat):
                    for j, x in enumerate(row):
                        if x:
                            xcols[j].append((k, x))
                cols[src] = tgt, xcols
            if rep.dims[tgt - 1]:
                rows[src] = [[(k, y) for k, y in enumerate(row) if y] for row in mat]
        rep.nonzeros = cols, rows
    return rep.nonzeros


def _hom_system(ws: "_Workspace", X: Representation, Y: Representation):
    """Linear system whose kernel is Hom(X, Y); returns (rows, total, offsets).

    Unknown (i, k) of the map at vertex v is column offsets[v] + i * dim X_v + k.
    Equation (arrow src -> tgt, i, j) is entry (i, j) of f_tgt X_a - Y_a f_src,
    one ``{column: entry}`` dict of its nonzero entries, built from the
    nonzeros of column j of X_a and row i of Y_a (`_nonzeros`), so only the
    arrows out of X's support into Y's support are visited; zero equations
    are dropped.
    """
    offsets = list(accumulate(map(mul, Y.dims, X.dims), initial=0))
    total = offsets.pop()
    rows = []
    if total == 0:  # no unknowns, so every equation is zero
        return rows, total, offsets
    x_cols, _ = _nonzeros(ws, X)
    _, y_rows = _nonzeros(ws, Y)
    for src, (tgt, xcols) in x_cols.items():
        yrows = y_rows.get(src)
        if yrows is None:  # Y is zero at tgt: no equations at this arrow
            continue
        dXs, dXt = X.dims[src - 1], X.dims[tgt - 1]
        src_at, tgt_at = offsets[src - 1], offsets[tgt - 1]
        for i, yrow in enumerate(yrows):
            ys = [(src_at + k * dXs, y) for k, y in yrow]
            base = tgt_at + i * dXt
            for j, xcol in enumerate(xcols):
                if not (xcol or ys):
                    continue
                row = {base + k: x for k, x in xcol}
                for col, y in ys:
                    col += j
                    x = row.get(col, 0) - y
                    if x:
                        row[col] = x
                    else:
                        del row[col]
                if row:
                    rows.append(row)
    return rows, total, offsets


def _rep_hom_dim(ws: "_Workspace", X: Representation, Y: Representation) -> int:
    if not X.support & Y.support:  # no vertex where both are nonzero
        return 0
    rows, total, _ = _hom_system(ws, X, Y)
    return total - linalg.rank(rows)


def _rep_hom_basis(ws: "_Workspace", X: Representation, Y: Representation) -> list[list[Matrix]]:
    """Basis of Hom(X, Y), each element a list of per-vertex matrices."""
    if not X.support & Y.support:
        return []
    rows, total, offsets = _hom_system(ws, X, Y)
    vectors = linalg.nullspace(rows, total)
    basis = []
    for vec in vectors:
        mats = []
        for v in range(ws.n):
            r, c = Y.dims[v], X.dims[v]
            block = vec[offsets[v]: offsets[v] + r * c]
            mats.append([list(block[i * c:(i + 1) * c]) for i in range(r)])
        basis.append(mats)
    return basis


def hom_space(A: Algebra, M: IndecModule, N: IndecModule) -> list[list[Matrix]]:
    """Basis of Hom(M, N), each element a list of per-vertex matrices."""
    ws = _workspace(A)
    return _rep_hom_basis(ws, ws.rep(M), ws.rep(N))


def hom_space_dim(A: Algebra, M: IndecModule, N: IndecModule) -> int:
    return _workspace(A).hom_dim(M, N)


# -- projective covers and syzygies -------------------------------------------


@dataclass
class CoverData:
    """Minimal projective cover P(top M) -> M with its kernel.

    `incl` holds per-vertex inclusion matrices of the kernel into the
    cover (columns form a kernel basis); `syzygy` is the kernel identified
    as a module by `identify_module` (None if the kernel is zero).
    """

    cover_module: IndecModule
    kernel_rep: Representation
    incl: list[Matrix]
    syzygy: IndecModule | None


def cover_data(A: Algebra, M: IndecModule) -> CoverData:
    return _workspace(A).cover(M)


def _kernel(ws: "_Workspace", X: Representation, f: list[Matrix]) -> tuple[Representation, list[Matrix]]:
    """Kernel of the morphism out of X given by per-vertex matrices f.

    Returns the kernel representation and its per-vertex inclusion
    matrices into X (columns form a kernel basis).  f[v] is eliminated
    once where X is nonzero: basis vector k of `nullspace` is 1 at the k-th
    free column (its last nonzero entry) and 0 at the other free columns,
    the one basis of that shape, so the kernel's arrow matrix is the
    image's rows at the free columns of the target.  Where X is zero the
    inclusion and free columns stay empty.
    """
    incl: list[Matrix] = [[] for _ in range(ws.n)]
    free: list[list[int]] = [[] for _ in range(ws.n)]
    for v, d in enumerate(X.dims):
        if not d:  # the kernel is zero where X is
            continue
        basis = linalg.nullspace(f[v], d)
        incl[v] = linalg.transpose(basis) if basis else [[] for _ in range(d)]
        free[v] = [max(i for i, x in enumerate(vec) if x) for vec in basis]
    kmaps: dict[int, Matrix] = {}
    for src, tgt in ws.arrows:
        if not free[src - 1]:  # a zero kernel at the source: no image to check
            kmaps[src] = [[] for _ in free[tgt - 1]]
            continue
        image = mat_mul(X.maps[src], incl[src - 1])
        if not linalg.is_zero_matrix(mat_mul(f[tgt - 1], image)):
            raise OracleError("kernel is not arrow-stable")
        kmaps[src] = [image[i] for i in free[tgt - 1]]
    return Representation([len(cols) for cols in free], kmaps), incl


def _build_cover(ws: "_Workspace", M: IndecModule) -> CoverData:
    A = ws.A
    P0 = A.projective(M.top)
    # Cover map: layer k of P0 goes to layer k of M for k < len(M), else to 0.
    # M is a quotient of P0, so both are zero off P0's support: 0 x 0 there.
    p_pos, m_pos = ws.positions(P0), ws.positions(M)
    g: list[Matrix] = [[] for _ in range(ws.n)]
    for v, p_at in p_pos.items():
        m_at = m_pos.get(v, {})
        mat = linalg.zero_matrix(len(m_at), len(p_at))
        for k, row in m_at.items():
            mat[row][p_at[k]] = 1
        g[v - 1] = mat
    kernel_rep, incl = _kernel(ws, ws.rep(P0), g)
    return CoverData(P0, kernel_rep, incl, identify_module(A, kernel_rep))


# -- the per-algebra workspace ------------------------------------------------


class _Workspace:
    """What the oracle has built for one algebra, filled on first use.

    `layer_positions[M]`, `reps[M]`, `covers[M]` and `hom_dims[(M, N)]`
    are shared by every caller; a module becomes a key only after
    `A.check_module` accepted it, which building its positions does.
    """

    __slots__ = ("A", "n", "arrows", "incoming", "layer_positions", "reps", "covers", "hom_dims")

    def __init__(self, A: Algebra):
        self.A = A
        self.n = A.n
        self.arrows = [(src, A.down(src)) for src in arrow_sources(A)]
        self.incoming = {tgt: src for src, tgt in self.arrows}
        self.layer_positions: dict[IndecModule, dict[int, dict[int, int]]] = {}
        self.reps: dict[IndecModule, Representation] = {}
        self.covers: dict[IndecModule, CoverData] = {}
        self.hom_dims: dict[tuple[IndecModule, IndecModule], int] = {}

    def positions(self, M: IndecModule) -> dict[int, dict[int, int]]:
        positions = self.layer_positions.get(M)
        if positions is None:
            positions = self.layer_positions[M] = _positions(self.A, M)
        return positions

    def rep(self, M: IndecModule) -> Representation:
        rep = self.reps.get(M)
        if rep is None:
            # Called through the module-level name, so each miss is one
            # `to_representation` call; it validates M.
            rep = self.reps[M] = to_representation(self.A, M)
        return rep

    def cover(self, M: IndecModule) -> CoverData:
        data = self.covers.get(M)
        if data is None:
            self.A.check_module(M)
            data = self.covers[M] = _build_cover(self, M)
        return data

    def hom_dim(self, M: IndecModule, N: IndecModule) -> int:
        key = (M, N)
        dim = self.hom_dims.get(key)
        if dim is None:
            dim = self.hom_dims[key] = _rep_hom_dim(self, self.rep(M), self.rep(N))
        return dim


@lru_cache(maxsize=WORKSPACES)
def _workspace(A: Algebra) -> _Workspace:
    return _Workspace(A)


def _tops(ws: _Workspace, rep: Representation) -> list[tuple[int, list[int]]]:
    """Pairs (v, the basis indices of V_v completing the image of the arrow
    into v) at each vertex v where rep has a top; the unit vectors they
    index span a complement of the radical there, so their number is the
    multiplicity of S(v) in the top.  A zero vertex has no top."""
    tops = []
    for v, d in enumerate(rep.dims, 1):
        if not d:
            continue
        u = ws.incoming.get(v)
        rad_vectors = linalg.transpose(rep.maps[u]) if u is not None else []
        top = linalg.extend_basis_indices(rad_vectors, d)
        if top:
            tops.append((v, top))
    return tops


def identify_module(A: Algebra, rep) -> IndecModule | None:
    """Match a representation with the uniserial module it must be.

    Uses the total dimension and the unique top; raises OracleError if the
    representation is not a valid uniserial module (e.g. decomposable).
    """
    total = sum(rep.dims)
    if total == 0:
        return None
    ws = _workspace(A)
    tops = [(v, len(idx)) for v, idx in _tops(ws, rep)]
    if len(tops) != 1 or tops[0][1] != 1:
        raise OracleError(f"representation is not uniserial: tops {tops}")
    top = tops[0][0]
    candidate = IndecModule(top, total)
    if not A.valid_module(candidate):
        raise OracleError(f"dimensions do not fit any uniserial module: {candidate}")
    expected = ws.rep(candidate)
    if expected.dims != list(rep.dims):
        raise OracleError(f"dimension vector does not match {candidate}")
    return candidate


def syzygy_oracle(A: Algebra, M: IndecModule) -> IndecModule | None:
    """Kernel of the projective cover, identified as a module (None if zero)."""
    return cover_data(A, M).syzygy


def ext1_space_dim(A: Algebra, M: IndecModule, N: IndecModule) -> int:
    """dim Ext^1(M, N) from 0 -> Omega M -> P0 -> M -> 0.

    Hom(-, N) applied to it, with Ext^1(P0, N) = 0, gives the exact sequence
    0 -> Hom(M, N) -> Hom(P0, N) -> Hom(Omega M, N) -> Ext^1(M, N) -> 0, so
    dim Ext^1(M, N) = dim Hom(Omega M, N) - dim Hom(P0, N) + dim Hom(M, N),
    each read from `hom_dims`.  Omega M is the cover's kernel K as
    `identify_module` named it once per cover; K is isomorphic to it, so
    dim Hom(K, N) is the same number.
    """
    ws = _workspace(A)
    data = ws.cover(M)
    ws.rep(N)  # validates N, also where the answer is 0 without it
    if data.syzygy is None:
        return 0
    hom_k = ws.hom_dim(data.syzygy, N)
    if hom_k == 0:
        return 0
    return hom_k - ws.hom_dim(data.cover_module, N) + ws.hom_dim(M, N)


# -- the Auslander-Reiten translate as D Tr -----------------------------------


def _nu_projective(A: Algebra, j: int) -> IndecModule:
    """nu P(j) = D(A e_j): the right uniserial with socle j whose T layers
    are dual to the nonzero paths ending at j.  The path of length t starts
    t arrows above j, survives iff t < c there, and is layer T - 1 - t."""
    T = 1
    while not (A.kind == "linear" and j + T > A.n) and T < A.kupisch(A.up(j, T)):
        T += 1
    return IndecModule(A.up(j, T - 1), T)


def tau_via_dtr(A: Algebra, M: IndecModule) -> IndecModule | None:
    """Auslander-Reiten translate computed as D Tr.

    Takes the minimal projective presentation P1 -> P0 -> M -> 0.  Its
    syzygy K sits in the uniserial P0, so K has one generator, at some
    vertex v, and P1 = P(v).  Hom(-, A) turns the right projectives into
    the left projectives A e_{top M} and A e_v and the map into right
    multiplication f: A e_{top M} -> A e_v by the generator, a combination
    of the paths from top M to v.  Then Tr M = coker f, and dualizing
    gives the exact sequence 0 -> tau M -> nu P1 -> nu P0
    (Assem-Simson-Skowronski, Elements I, IV.2.4), so tau M is the kernel
    of D f: nu P(v) -> nu P(top M), built from the path bases
    (`_nu_projective`): entry (path of length t at top M, path of length
    t + k at v) is the generator's coefficient at path length k.
    """
    if A.is_projective(M):
        return None
    ws = _workspace(A)
    data = ws.cover(M)
    K, incl = data.kernel_rep, data.incl

    # Generators of K: per vertex, the kernel basis columns spanning the top.
    gens = [(v, [row[i] for row in incl[v - 1]]) for v, top in _tops(ws, K) for i in top]
    if len(gens) != 1:
        raise OracleError(f"syzygy of a non-projective module has {len(gens)} generators, expected 1")
    [(v, coeffs)] = gens

    # Layer k of P0 at v is the path of length k from top M to v.
    path_coeffs = {k: coeffs[i] for k, i in ws.positions(data.cover_module)[v].items() if coeffs[i]}
    nu1, nu0 = _nu_projective(A, v), _nu_projective(A, M.top)
    pos1, pos0 = ws.positions(nu1), ws.positions(nu0)
    # 0 x 0 where both are zero; len x 0 where only nu P1 is.
    Df: list[Matrix] = [[] for _ in range(ws.n)]
    for s, at0 in pos0.items():
        at1 = pos1.get(s)
        if at1 is None:
            Df[s - 1] = [[] for _ in at0]
            continue
        mat = linalg.zero_matrix(len(at0), len(at1))
        for layer, row in at0.items():
            t = nu0.length - 1 - layer
            for k, coeff in path_coeffs.items():
                col = at1.get(nu1.length - 1 - t - k)
                if col is not None:
                    mat[row][col] = coeff
        Df[s - 1] = mat
    dual, _ = _kernel(ws, ws.rep(nu1), Df)
    result = identify_module(A, dual)
    if result is None:
        raise OracleError("D Tr of a non-projective module vanished")
    return result


# -- endomorphism algebras ----------------------------------------------------


@dataclass
class EndTable:
    """Hom blocks of the endomorphism algebra of a direct sum.

    `bases[(a, b)]` is a basis of Hom(M_a, M_b) (objects 0-indexed), each
    element a list of per-vertex matrices; `fibre_dims[a]` is the dimension
    vector of M_a, which gives every block its per-vertex shapes.
    """

    objects: tuple[IndecModule, ...]
    bases: dict[tuple[int, int], list[list[Matrix]]]
    block_dims: dict[tuple[int, int], int]
    total_dim: int
    fibre_dims: tuple[tuple[int, ...], ...]


def _flatten_maps(mats: list[Matrix]) -> list:
    flat = []
    for mat in mats:
        for row in mat:
            flat.extend(row)
    return flat


def end_algebra(A: Algebra, modules) -> EndTable:
    """Hom blocks of End(M_1 + ... + M_r) for pairwise distinct M_i."""
    objects = tuple(modules)
    if len(set(objects)) != len(objects):
        raise OracleError("end_algebra needs pairwise non-isomorphic summands")
    ws = _workspace(A)
    fibre_dims = tuple(tuple(ws.rep(m).dims) for m in objects)
    bases = {
        (a, b): _rep_hom_basis(ws, ws.rep(x), ws.rep(y)) for a, x in enumerate(objects) for b, y in enumerate(objects)
    }
    block_dims = {key: len(basis) for key, basis in bases.items()}
    return EndTable(objects, bases, block_dims, sum(block_dims.values()), fibre_dims)


@dataclass
class QuiverData:
    """Gabriel quiver data of a basic endomorphism algebra.

    Arrow counts are keyed by 1-based object indices; an arrow p -> q
    counts an irreducible map M_q -> M_p (projectives are Hom(M, M_p)).
    """

    num_vertices: int
    arrow_counts: dict[tuple[int, int], int]
    total_dim: int
    block_dims: dict[tuple[int, int], int]


def _composite(g: list[Matrix], f: list[Matrix], dims_a, dims_b, dims_c) -> list:
    """g after f for f: M_a -> M_b and g: M_b -> M_c, flattened.

    Through a zero fibre of M_b the composite is the zero matrix of shape
    dims_c[v] x dims_a[v], a shape `mat_mul` cannot see in empty factors.
    """
    flat = []
    for v, (gv, fv) in enumerate(zip(g, f)):
        flat.extend(_flatten_maps([mat_mul(gv, fv)]) if dims_b[v] else [0] * (dims_c[v] * dims_a[v]))
    return flat


def _minus_multiple(h: list[Matrix], x: Fraction, p: list[Matrix]) -> list[Matrix]:
    """The per-vertex matrices of h - x p."""
    return [[[y - x * z for y, z in zip(hrow, prow)] for hrow, prow in zip(hv, pv)] for hv, pv in zip(h, p)]


def quiver_of(table: EndTable) -> QuiverData:
    """Arrow counts dim(rad/rad^2) between the objects of an EndTable.

    rad(M_a, M_b) is all of Hom for a != b.  For a = b it is spanned by
    each basis element minus the multiple of a pivot that cancels its top
    scalar: entry (0, 0) at the top vertex, the scalar by which it acts on
    the top.  dim rad^2(M_a, M_c) is the rank of the composites g f over
    every b, f in rad(M_a, M_b) and g in rad(M_b, M_c).
    """
    r = len(table.objects)
    rad: dict[tuple[int, int], list] = {}
    for (a, b), basis in table.bases.items():
        if a != b:
            rad[(a, b)] = list(basis)
            continue
        top = table.objects[a].top - 1
        scalars = [Fraction(h[top][0][0]) for h in basis]
        pivot = next((k for k, s in enumerate(scalars) if s), None)
        if pivot is None:
            raise OracleError("endomorphism block without identity component")
        p, x = basis[pivot], scalars[pivot]
        rad[(a, b)] = [_minus_multiple(h, s / x, p) for k, (h, s) in enumerate(zip(basis, scalars)) if k != pivot]

    dims = table.fibre_dims
    arrow_counts: dict[tuple[int, int], int] = {}
    for a in range(r):
        for c in range(r):
            composites = [
                _composite(g, f, dims[a], dims[b], dims[c])
                for b in range(r)
                for f in rad[(a, b)]
                for g in rad[(b, c)]
            ]
            count = len(rad[(a, c)]) - linalg.rank(composites)
            if count:
                # Irreducible maps M_a -> M_c are arrows (c+1) -> (a+1).
                arrow_counts[(c + 1, a + 1)] = count
    return QuiverData(
        num_vertices=r,
        arrow_counts=arrow_counts,
        total_dim=table.total_dim,
        block_dims={(a + 1, b + 1): d for (a, b), d in table.block_dims.items()},
    )
