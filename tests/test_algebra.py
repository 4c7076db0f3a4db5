import ast
import json
import re
import sys
from itertools import combinations
from pathlib import Path

import pytest

from nakayama.algebra import (
    Algebra,
    AlgebraError,
    IndecModule,
    ModuleSet,
    QuotientAlgebra,
    algebra_from_json,
    algebra_to_json,
    iter_algebras,
    iter_kupisch_series,
    make_rsz_nakayama,
    module_literal,
    parse_module,
    quotient_algebra,
    validate_kupisch,
)
from nakayama.tilting import enumerate_tilting

M = IndecModule


class TestKupischValidation:
    def test_rsz_series(self):
        assert make_rsz_nakayama(3, "linear").c == (1, 2, 2)
        assert make_rsz_nakayama(3, "cyclic").c == (2, 2, 2)
        assert make_rsz_nakayama(1, "linear").c == (1,)
        assert make_rsz_nakayama(1, "cyclic").c == (2,)

    def test_rsz_rejects_nonpositive(self):
        with pytest.raises(AlgebraError):
            make_rsz_nakayama(0, "linear")

    @pytest.mark.parametrize("n", [True, 2.5, 3.0, "3", None], ids=["True", "2.5", "3.0", "str", "None"])
    @pytest.mark.parametrize("kind", ["linear", "cyclic"])
    def test_rsz_count_must_be_an_integer(self, n, kind):
        with pytest.raises(AlgebraError, match=f"^number of simples {n!r} is not an integer$"):
            make_rsz_nakayama(n, kind)

    def test_valid_series(self):
        validate_kupisch("linear", (1, 2, 2, 3, 2))
        validate_kupisch("cyclic", (3, 2, 3, 2, 3, 2))
        validate_kupisch("cyclic", (5,))  # K[x]/(x^5)
        validate_kupisch("linear", (1, 1, 1))  # semisimple

    def test_linear_must_start_at_one(self):
        with pytest.raises(AlgebraError, match=r"c\[1\]"):
            validate_kupisch("linear", (2, 2))

    def test_kupisch_condition_reports_index(self):
        with pytest.raises(AlgebraError, match="i=2"):
            validate_kupisch("linear", (1, 3, 2))

    def test_cyclic_needs_at_least_two(self):
        with pytest.raises(AlgebraError, match=r"c\[2\]"):
            validate_kupisch("cyclic", (2, 1))

    def test_cyclic_wraparound_condition(self):
        with pytest.raises(AlgebraError, match="i=1"):
            validate_kupisch("cyclic", (4, 2, 2))
        validate_kupisch("cyclic", (3, 2, 2))

    def test_empty_series(self):
        with pytest.raises(AlgebraError):
            validate_kupisch("linear", ())

    def test_unknown_kind(self):
        with pytest.raises(AlgebraError):
            validate_kupisch("mixed", (1, 2))

    @pytest.mark.parametrize(
        "kind, c, message",
        [
            ("cyclic", (2.5, 2), r"c\[1\] = 2\.5"),
            ("linear", (True, True), r"c\[1\] = True"),
            ("cyclic", ("2", "2"), r"c\[1\] = '2'"),
            ("linear", (1, 2.0), r"c\[2\] = 2\.0"),
        ],
    )
    def test_entries_must_be_integers(self, kind, c, message):
        with pytest.raises(AlgebraError, match=f"^{message} is not an integer$"):
            Algebra(kind, c)

    @pytest.mark.parametrize(
        "kind, c, message",
        [
            ("linear", (1, 5, "x"), "Kupisch condition fails at i=2: c[1] = 1 < c[2] - 1 = 4"),
            ("linear", (0, "x"), "linear series must start with c[1] = 1, got c[1] = 0"),
            ("linear", (1, 2, 0, "x"), "c[3] = 0 < 1"),
            ("cyclic", (2, 5, "x"), "c[3] = 'x' is not an integer"),
            ("cyclic", (5, 2, 1), "cyclic series needs c[3] >= 2, got 1"),
            ("cyclic", (2, 1.5, 9), "c[2] = 1.5 is not an integer"),
        ],
    )
    def test_first_of_two_faults_is_reported(self, kind, c, message):
        # Entries are checked in order, each for being an integer and then for
        # its bound (a linear one also against the entry before it); only the
        # cyclic Kupisch condition, which wraps around, waits for every entry.
        with pytest.raises(AlgebraError) as info:
            Algebra(kind, c)
        assert str(info.value) == message


class TestModules:
    def test_projective_and_simple(self, gamma_lin3):
        assert gamma_lin3.projective(4) == M(4, 3)
        assert gamma_lin3.simple(4) == M(4, 1)
        assert gamma_lin3.is_projective(M(4, 3))
        assert not gamma_lin3.is_projective(M(4, 2))

    def test_module_validation(self, gamma_lin3):
        with pytest.raises(AlgebraError):
            gamma_lin3.module(4, 4)
        with pytest.raises(AlgebraError):
            gamma_lin3.module(6, 1)
        with pytest.raises(AlgebraError):
            gamma_lin3.module(3, 0)

    @pytest.mark.parametrize(
        "top, length",
        [(1.5, 1), (2, 1.5), (True, 1), (2, True), ("2", 1)],
        ids=["float top", "float length", "bool top", "bool length", "str top"],
    )
    def test_coordinates_must_be_integers(self, top, length):
        # Equal-valued floats and bools are refused, by the rule of the series
        # validator, on the fast path of check_module as on the slow one.
        A = make_rsz_nakayama(3, "linear")
        with pytest.raises(AlgebraError, match="is not an integer"):
            A.check_module(M(top, length))
        assert not A.valid_module(M(top, length))

    @pytest.mark.parametrize("v", [1.5, 2.0, True, "2", None], ids=["1.5", "2.0", "True", "str", "None"])
    def test_vertices_must_be_integers(self, v):
        A = make_rsz_nakayama(3, "linear")
        with pytest.raises(AlgebraError, match="is not an integer"):
            A.check_vertex(v)
        with pytest.raises(AlgebraError, match="is not an integer"):
            quotient_algebra(A, {v})

    def test_layers_linear(self, gamma_lin3):
        assert gamma_lin3.layers(M(4, 3)) == (4, 3, 2)
        assert gamma_lin3.socle_vertex(M(4, 3)) == 2

    def test_layers_cyclic_wrap(self, dual_numbers_gamma):
        assert dual_numbers_gamma.layers(M(1, 3)) == (1, 2, 1)
        assert dual_numbers_gamma.socle_vertex(M(1, 3)) == 1

    def test_indecomposables_count(self, gamma_lin3, gamma_cyc3):
        # One indecomposable per vertex and length: sum of the series.
        assert len(gamma_lin3.indecomposables()) == 10
        assert len(gamma_cyc3.indecomposables()) == 15
        assert len(Algebra("linear", (1,)).indecomposables()) == 1

    def test_indecomposables_canonical_order(self, gamma_lin3):
        mods = list(gamma_lin3.indecomposables())
        assert mods == sorted(mods)
        assert mods[0] == M(1, 1)
        assert mods[-1] == M(5, 2)

    def test_indecomposables_equal_the_sorted_module_set(self):
        for A in iter_algebras(4, 4):
            mods = [M(top, length) for top in A.vertices for length in range(1, A.kupisch(top) + 1)]
            assert A.indecomposables() == ModuleSet.of(mods), A

    def test_submodule_quotient(self, gamma_lin3):
        assert gamma_lin3.submodule(M(4, 3), 2) == M(3, 2)
        assert gamma_lin3.submodule(M(4, 3), 3) == M(4, 3)
        assert gamma_lin3.submodule(M(4, 3), 0) is None
        assert gamma_lin3.quotient_top(M(4, 3), 1) == M(4, 1)
        with pytest.raises(AlgebraError):
            gamma_lin3.submodule(M(4, 3), 4)

    def test_submodule_cyclic(self, dual_numbers_gamma):
        assert dual_numbers_gamma.submodule(M(1, 3), 1) == M(1, 1)
        assert dual_numbers_gamma.submodule(M(1, 3), 2) == M(2, 2)

    def test_radical(self, gamma_lin3):
        assert gamma_lin3.radical(M(4, 3)) == M(3, 2)
        assert gamma_lin3.radical(M(1, 1)) is None

    def test_injective_envelopes(self, gamma_lin3, dual_numbers_gamma):
        assert gamma_lin3.injective_env_vertex(2) == M(4, 3)
        assert gamma_lin3.injective_env_vertex(4) == M(5, 2)
        assert dual_numbers_gamma.injective_env_vertex(1) == M(1, 3)

    def test_is_injective(self, gamma_lin3):
        assert gamma_lin3.is_injective(M(4, 3))
        assert not gamma_lin3.is_injective(M(3, 2))

    def test_projective_injective_vertices(self, gamma_lin3, gamma_cyc3):
        assert gamma_lin3.projective_injective_vertices() == frozenset({2, 4, 5})
        assert gamma_cyc3.projective_injective_vertices() == frozenset({1, 3, 5})

    def test_flags(self):
        assert make_rsz_nakayama(4, "cyclic").is_radical_square_zero()
        assert not Algebra("cyclic", (3, 2)).is_radical_square_zero()
        assert make_rsz_nakayama(3, "cyclic").is_selfinjective()
        assert Algebra("linear", (1, 1)).is_selfinjective()
        assert not make_rsz_nakayama(3, "linear").is_selfinjective()

    def test_path_count(self, gamma_lin3):
        # dim e_src G e_tgt: paths going down from src.
        assert gamma_lin3.path_count(4, 2) == 1
        assert gamma_lin3.path_count(4, 4) == 1
        assert gamma_lin3.path_count(2, 4) == 0
        assert gamma_lin3.dimension() == 10


class TestLayerInvariants:
    def test_layer_arithmetic_everywhere(self, small_universe):
        for A in small_universe:
            for m in A.indecomposables():
                layers = A.layers(m)
                assert len(layers) == m.length
                assert layers[0] == m.top
                assert layers[-1] == A.socle_vertex(m)
                for k in range(1, m.length):
                    assert layers[k] == A.down(layers[k - 1])

    def test_submodule_chain(self, small_universe):
        for A in small_universe:
            for m in A.indecomposables():
                for k in range(1, m.length + 1):
                    sub = A.submodule(m, k)
                    assert sub.length == k
                    assert A.socle_vertex(sub) == A.socle_vertex(m)

    def test_envelope_is_maximal(self, small_universe):
        # No valid uniserial module with the same socle is longer.
        for A in small_universe:
            for j in A.vertices:
                env = A.injective_env_vertex(j)
                assert A.socle_vertex(env) == j
                for m in A.indecomposables():
                    if A.socle_vertex(m) == j:
                        assert m.length <= env.length


class TestModuleSet:
    def test_canonical_order_and_dedup(self):
        ms = ModuleSet.of([M(3, 1), M(1, 2), M(3, 1), M(1, 1)])
        assert ms.modules == (M(1, 1), M(1, 2), M(3, 1))
        assert type(ms.modules) is tuple

    def test_module_hashes_as_its_coordinates(self):
        # Sets and dicts of modules iterate in the order their (top, length) tuples give.
        for top, length in [(1, 1), (2, 3), (7, 2)]:
            assert hash(M(top, length)) == hash((top, length))

    def test_tilting_modules_are_listed_in_sorted_order(self):
        for A in (
            make_rsz_nakayama(3, "linear"),
            make_rsz_nakayama(4, "cyclic"),
            Algebra("cyclic", (3, 2)),
            Algebra("linear", (1, 2, 3, 2)),
        ):
            tilting = enumerate_tilting(A)
            assert tilting == sorted(tilting), A

    def test_set_operations(self):
        ms = ModuleSet.of([M(1, 1), M(2, 2)])
        assert M(1, 1) in ms
        assert ms.plus(M(3, 1)).modules == (M(1, 1), M(2, 2), M(3, 1))
        assert ms.minus(M(1, 1)).modules == (M(2, 2),)

    def test_str(self):
        assert str(ModuleSet.of([M(2, 1), M(1, 1)])) == "M(1,1) M(2,1)"
        assert str(ModuleSet.of([])) == "0"


class TestQuotientAlgebra:
    def test_kill_projinj_linear(self, gamma_lin3):
        q = quotient_algebra(gamma_lin3, {2, 4, 5})
        assert [c.c for c in q.components] == [(1,), (1,)]
        assert q.embeds == ((1,), (3,))

    def test_kill_projinj_cyclic(self, gamma_cyc3):
        q = quotient_algebra(gamma_cyc3, {1, 3, 5})
        assert [c.c for c in q.components] == [(1,), (1,), (1,)]
        assert q.embeds == ((2,), (4,), (6,))

    def test_kill_nothing_linear(self, gamma_lin3):
        q = quotient_algebra(gamma_lin3, set())
        assert len(q.components) == 1
        assert q.components[0] == gamma_lin3
        assert q.embeds == ((1, 2, 3, 4, 5),)

    def test_kill_nothing_cyclic_stays_cyclic(self, gamma_cyc3):
        q = quotient_algebra(gamma_cyc3, set())
        assert q.components == (gamma_cyc3,)

    def test_kill_everything(self, gamma_lin3):
        q = quotient_algebra(gamma_lin3, set(gamma_lin3.vertices))
        assert q.components == ()

    def test_wrapping_run(self):
        A = make_rsz_nakayama(6, "cyclic")
        q = quotient_algebra(A, {3})
        assert len(q.components) == 1
        assert q.embeds == ((4, 5, 6, 1, 2),)
        assert q.components[0].c == (1, 2, 2, 2, 2)

    def test_truncated_lengths(self):
        A = Algebra("cyclic", (3, 3, 3))
        q = quotient_algebra(A, {2})
        # Surviving run bottom 3, top 1: lengths capped by the position.
        assert q.embeds == ((3, 1),)
        assert q.components[0].c == (1, 2)

    def test_embeds_place_exactly_the_modules_without_killed_layers(self, small_universe):
        # A module of A survives A/(killed) iff none of its layers is killed.
        # Then its top lies in exactly one run, at a local position t >= its
        # length, the run carries its layers, and M(t, length) is a module of
        # that component; a module with a killed layer has no such place.
        for A in small_universe:
            for r in range(A.n + 1):
                for killed in combinations(A.vertices, r):
                    q = quotient_algebra(A, killed)
                    if not killed and A.kind == "cyclic":
                        # Nothing killed in a cyclic algebra: the algebra itself.
                        assert q.components == (A,) and q.embeds == (tuple(A.vertices),)
                        continue
                    for m in A.indecomposables():
                        runs = [(comp, emb) for comp, emb in zip(q.components, q.embeds) if m.top in emb]
                        places = []
                        for comp, emb in runs:
                            t = emb.index(m.top) + 1
                            if t >= m.length and comp.valid_module(M(t, m.length)):
                                places.append(emb[t - m.length : t][::-1])  # layers, top first
                        if set(A.layers(m)) & set(killed):
                            assert places == []
                        else:
                            assert len(runs) == 1 and places == [A.layers(m)]

    def test_invalid_vertex(self, gamma_lin3):
        with pytest.raises(AlgebraError):
            quotient_algebra(gamma_lin3, {9})

    def test_matches_the_sorted_run_scan_and_builds_each_run_once(self):
        algebras = list(iter_algebras(5, 4))
        algebras += [make_rsz_nakayama(n, kind) for kind in ("linear", "cyclic") for n in range(1, 9)]
        for A in algebras:
            for r in range(A.n + 1):
                for killed in combinations(A.vertices, r):
                    expected = _reference_quotient(A, set(killed))
                    q = quotient_algebra(A, killed)
                    again = quotient_algebra(A, killed)
                    assert q == again == expected, (A, killed)
                    assert all(x is y for x, y in zip(q.components, again.components))
            bound = A.n * (A.n - 1) if A.kind == "cyclic" else A.n * (A.n + 1) // 2
            assert len(A.quotient_components) == bound, A


def _reference_quotient(A, killed):
    """quotient_algebra by a separate scan: each run grows up from its bottom
    vertex, and the runs are then sorted by their least vertex."""
    if len(killed) == A.n:
        return QuotientAlgebra((), (), frozenset(killed))
    if not killed and A.kind == "cyclic":
        return QuotientAlgebra((A,), (tuple(A.vertices),), frozenset(killed))
    c, n, cyclic = A.c, A.n, A.kind == "cyclic"
    runs = []
    for b in range(1, n + 1):
        below = b - 1 if b > 1 else n if cyclic else 0
        if b in killed or (below and below not in killed):
            continue
        run = [b]
        v = b
        while True:
            v = v + 1 if v < n else 1 if cyclic else 0
            if not v or v in killed:
                break
            run.append(v)
        runs.append(run)
    runs.sort(key=min)
    comps = tuple(Algebra("linear", tuple(min(c[v - 1], t) for t, v in enumerate(run, start=1))) for run in runs)
    return QuotientAlgebra(comps, tuple(tuple(run) for run in runs), frozenset(killed))


class TestLiteralsAndJson:
    def test_parse_module(self, gamma_lin3):
        assert parse_module(gamma_lin3, "M(4,3)") == M(4, 3)
        assert parse_module(gamma_lin3, "P(4)") == M(4, 3)
        assert parse_module(gamma_lin3, "S(2)") == M(2, 1)
        assert parse_module(gamma_lin3, " M( 4 , 3 ) ") == M(4, 3)

    def test_parse_errors(self, gamma_lin3):
        for bad in ("M(4)", "P(4,3)", "X(1,1)", "M(6,1)", "M(4,9)", "M4,3"):
            with pytest.raises(AlgebraError):
                parse_module(gamma_lin3, bad)

    def test_module_literal(self):
        assert module_literal(M(4, 3)) == "M(4,3)"
        assert module_literal(None) == "0"

    def test_json_round_trip(self, gamma_cyc3):
        blob = json.dumps(algebra_to_json(gamma_cyc3))
        assert algebra_from_json(json.loads(blob)) == gamma_cyc3

    def test_json_rejects_malformed(self):
        with pytest.raises(AlgebraError):
            algebra_from_json(["not", "an", "object"])
        with pytest.raises(AlgebraError):
            algebra_from_json({"kind": "linear"})
        with pytest.raises(AlgebraError):
            algebra_from_json({"kind": "linear", "kupisch": [1, "2"]})
        with pytest.raises(AlgebraError):
            algebra_from_json({"kind": "linear", "kupisch": [1, True]})


class TestUniverseGenerators:
    def test_small_counts(self):
        assert list(iter_kupisch_series("linear", 1, 4)) == [(1,)]
        assert list(iter_kupisch_series("cyclic", 1, 4)) == [(2,), (3,), (4,)]
        assert list(iter_kupisch_series("linear", 2, 4)) == [(1, 1), (1, 2)]

    @pytest.mark.parametrize("n", [0, 2])
    def test_unknown_kind_is_refused_for_every_length(self, n):
        with pytest.raises(AlgebraError, match="^unknown kind 'mixed'$"):
            list(iter_kupisch_series("mixed", n, 3))

    def test_all_generated_series_are_valid(self, small_universe):
        # Construction validates; duplicates would be a generator bug.
        seen = set()
        for A in small_universe:
            key = (A.kind, A.c)
            assert key not in seen
            seen.add(key)

    def test_generator_is_exhaustive(self):
        # Brute force all tuples in lexicographic order and keep the valid
        # ones; the generator yields exactly those, in the same order.
        from itertools import product as iproduct

        for kind in ("linear", "cyclic"):
            for n in range(1, 6):
                for max_entry in range(1, 5):
                    brute = []
                    for c in iproduct(range(1, max_entry + 1), repeat=n):
                        try:
                            validate_kupisch(kind, c)
                        except AlgebraError:
                            continue
                        brute.append(c)
                    assert list(iter_kupisch_series(kind, n, max_entry)) == brute, (kind, n, max_entry)


class TestPublicSurface:
    def test_every_export_resolves_once(self):
        import nakayama

        assert len(nakayama.__all__) == len(set(nakayama.__all__))
        assert [name for name in nakayama.__all__ if not hasattr(nakayama, name)] == []

    def test_runtime_imports_are_stdlib_only(self):
        import nakayama

        foreign = []
        for path in sorted(Path(nakayama.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and not node.level:
                    names = [node.module]
                else:
                    continue
                for name in names:
                    root = name.partition(".")[0]
                    if root not in {"nakayama", "__future__"} and root not in sys.stdlib_module_names:
                        foreign.append(f"{path.name}:{node.lineno} {name}")
        assert foreign == []

    def test_no_module_imports_a_name_it_never_uses(self):
        import nakayama

        unused = []
        for path in sorted(Path(nakayama.__file__).parent.glob("*.py")):
            if path.name == "__init__.py":  # its imports are re-exports
                continue
            tree = ast.parse(path.read_text(encoding="utf-8"))
            imported = {}
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    for alias in node.names:
                        imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
                elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                    for alias in node.names:
                        imported[alias.asname or alias.name] = node.lineno
            used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            unused += [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]
        assert unused == []

    @staticmethod
    def _swallowed_or_unbounded(source: str) -> list[str]:
        """Handlers that swallow every error (a bare `except:`, or one naming
        Exception or BaseException) anywhere, and module-level functions
        with parameters cached by `functools.cache`, or by `lru_cache` with
        maxsize None: module-global state that grows with every argument."""
        tree = ast.parse(source)
        found = []
        for node in ast.walk(tree):
            if isinstance(node, ast.ExceptHandler):
                if node.type is None:
                    found.append(f"{node.lineno} except")
                    continue
                caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                if {ast.unparse(t).rpartition(".")[2] for t in caught} & {"Exception", "BaseException"}:
                    found.append(f"{node.lineno} except {ast.unparse(node.type)}")
        for fn in tree.body:
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            a = fn.args
            if not (a.posonlyargs or a.args or a.vararg or a.kwonlyargs or a.kwarg):
                continue  # its cache holds one entry at most
            for dec in fn.decorator_list:
                call = dec if isinstance(dec, ast.Call) else None
                name = ast.unparse(call.func if call else dec).rpartition(".")[2]
                # lru_cache's maxsize is its first argument; left out, it is 128.
                given = call.args[:1] + [k.value for k in call.keywords if k.arg == "maxsize"] if call else []
                if name == "cache" or name == "lru_cache" and given and ast.unparse(given[0]) == "None":
                    found.append(f"{fn.lineno} {fn.name} cached without a bound")
        return found

    def test_no_error_is_swallowed_and_no_cache_is_unbounded(self):
        import nakayama

        found = []
        for path in sorted(Path(nakayama.__file__).parent.glob("*.py")):
            found += [f"{path.name}:{hit}" for hit in self._swallowed_or_unbounded(path.read_text(encoding="utf-8"))]
        assert found == []

    @staticmethod
    def _defined_names(sources: list[str]) -> set[str]:
        """Every name a def, a class or an assignment binds in `sources`,
        attributes (`self._x = ...`) included."""
        names = set()
        for source in sources:
            for node in ast.walk(ast.parse(source)):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    names.add(node.name)
                elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign, ast.NamedExpr)):
                    for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                        for leaf in ast.walk(target):
                            if isinstance(leaf, ast.Name):
                                names.add(leaf.id)
                            elif isinstance(leaf, ast.Attribute):
                                names.add(leaf.attr)
        return names

    @staticmethod
    def _stale_private_names(texts: dict[str, str], defined: set[str]) -> list[str]:
        """Backticked private names, `_name` or `module._name` (a call's
        arguments allowed), that nothing in `defined` binds."""
        stale = []
        for where, text in texts.items():
            for span in re.findall(r"`([^`\n]+)`", text):
                named = re.fullmatch(r"(?:\w+\.)*(_\w+)(?:\(.*\))?", span)
                if named and not named[1].endswith("__") and named[1] not in defined:
                    stale.append(f"{where}: `{span}`")
        return stale

    def test_no_doc_names_a_private_name_that_is_gone(self):
        import nakayama

        package = Path(nakayama.__file__).parent
        sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(package.glob("*.py"))}
        readme = Path(__file__).parents[1] / "README.md"
        texts = {**sources, "README.md": readme.read_text(encoding="utf-8")}
        assert self._stale_private_names(texts, self._defined_names(list(sources.values()))) == []

    def test_the_name_scan_flags_a_missing_name(self):
        defined = self._defined_names(["def _kept(x):\n    y._attr = x\n\n\nclass _Kind:\n    _slot: int = 0\n"])
        assert {"_kept", "_attr", "_Kind", "_slot"} <= defined
        text = "`_kept`, `tables._attr`, `_Kind._slot`, `_kept(A)`, `_gone`, `tilting._gone(A)`, `__init__`, `x_y`"
        assert self._stale_private_names({"doc": text}, defined) == ["doc: `_gone`", "doc: `tilting._gone(A)`"]

    def test_the_source_scan_flags_planted_faults(self):
        planted = (
            "import functools\n"
            "from functools import cache, lru_cache\n"
            "try:\n    pass\nexcept:\n    pass\n"
            "try:\n    pass\nexcept (ValueError, Exception):\n    pass\n"
            "def f(x):\n    try:\n        return x\n    except builtins.BaseException:\n        return None\n"
            "@functools.cache\ndef g(x):\n    return x\n"
            "@cache\ndef h(*xs):\n    return xs\n"
            "@functools.lru_cache(maxsize=None)\ndef k(x):\n    return x\n"
            "@lru_cache(None)\ndef m(*, x):\n    return x\n"
            "@functools.cache\ndef once():\n    return 1\n"
            "@functools.lru_cache(maxsize=8)\ndef bounded(x):\n    return x\n"
            "@lru_cache\ndef default(x):\n    return x\n"
            "def outer(x):\n    @functools.cache\n    def inner(y):\n        return y\n    return inner(x)\n"
            "try:\n    pass\nexcept ValueError:\n    pass\n"
        )
        assert self._swallowed_or_unbounded(planted) == [
            "5 except",
            "9 except (ValueError, Exception)",
            "14 except builtins.BaseException",
            "17 g cached without a bound",
            "20 h cached without a bound",
            "23 k cached without a bound",
            "26 m cached without a bound",
        ]
