import contextlib
import hashlib
import io
import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from nakayama import cli, tau_tilting, tilting
from nakayama.algebra import Algebra, IndecModule, ModuleSet, algebra_to_json, make_rsz_nakayama
from nakayama.auslander import auslander_algebra
from nakayama.tau_tilting import enumerate_sttilt
from nakayama.tilting import TiltingError, enumerate_tilting


# Child interpreters import the package from src/, as the test process does.
CHILD_ENV = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestAlgebraVerbs:
    def test_algebra_info(self, capsys):
        code, out, _ = run_cli(capsys, "algebra", "info", "--n", "3", "--kind", "linear")
        assert code == 0
        data = json.loads(out)
        assert data["kind"] == "linear"
        assert data["kupisch"] == [1, 2, 2]
        assert data["dimension"] == 5
        assert data["radical_square_zero"] is True

    def test_indec_list(self, capsys):
        code, out, _ = run_cli(capsys, "indec", "list", "--n", "2", "--kind", "linear")
        assert code == 0
        data = json.loads(out)
        assert data["count"] == 3
        assert data["modules"] == ["M(1,1)", "M(2,1)", "M(2,2)"]

    def test_algebra_file_input(self, capsys, tmp_path):
        path = tmp_path / "g.json"
        gamma = make_rsz_nakayama(3, "linear")
        from nakayama.auslander import auslander_algebra

        g = auslander_algebra(gamma).gamma
        path.write_text(json.dumps(algebra_to_json(g)))
        code, out, _ = run_cli(capsys, "hom", "--algebra", str(path), "M(4,3)", "M(5,2)")
        assert code == 0
        assert json.loads(out) == {"dim": 1}

    @pytest.mark.parametrize(
        "text",
        ['{"kind": "cyclic", "kupisch": [' + "9" * 5000 + "]}", "[" * 100_000 + "]" * 100_000],
        ids=["integer-past-digit-limit", "arrays-nested-100000-deep"],
    )
    def test_unreadable_algebra_file(self, capsys, tmp_path, text):
        path = tmp_path / "a.json"
        path.write_text(text)
        code, out, err = run_cli(capsys, "algebra", "info", "--algebra", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: invalid JSON in {path}: ") and err.count("\n") == 1

    def test_algebra_and_shortcut_are_exclusive(self, capsys, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(json.dumps(algebra_to_json(make_rsz_nakayama(2, "linear"))))
        code, _, err = run_cli(
            capsys, "hom", "--algebra", str(path), "--n", "2", "M(1,1)", "M(1,1)"
        )
        assert code == 2

    def test_algebra_file_not_utf8(self, capsys, tmp_path):
        path = tmp_path / "a.json"
        path.write_bytes(b'\xff\xfe{"kind": "linear", "kupisch": [1]}')
        code, out, err = run_cli(capsys, "algebra", "info", "--algebra", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    def test_missing_algebra_file(self, capsys):
        code, _, err = run_cli(capsys, "hom", "--algebra", "/no/such/file.json", "M(1,1)", "M(1,1)")
        assert code == 2
        assert err


class TestHomologicalVerbs:
    def test_hom(self, capsys):
        code, out, _ = run_cli(
            capsys, "hom", "--n", "3", "--kind", "linear", "M(1,1)", "M(2,2)"
        )
        assert code == 0
        assert json.loads(out) == {"dim": 1}

    def test_ext(self, capsys):
        code, out, _ = run_cli(
            capsys, "ext", "--degree", "1", "--n", "3", "--kind", "cyclic", "S(1)", "S(3)"
        )
        assert code == 0
        assert json.loads(out) == {"dim": 1}

    def test_ext_huge_degree_is_fast(self, capsys):
        # The syzygies of S(1) cycle with period 3 and 10**7 = 1 (mod 3).
        start = time.perf_counter()
        code, out, _ = run_cli(
            capsys, "ext", "--degree", "10000000", "--n", "3", "--kind", "cyclic", "S(1)", "S(3)"
        )
        assert time.perf_counter() - start < 1.0
        assert code == 0
        assert json.loads(out) == {"dim": 1}

    def test_ext_rejects_degree_zero(self, capsys):
        code, _, err = run_cli(
            capsys, "ext", "--degree", "0", "--n", "3", "--kind", "cyclic", "S(1)", "S(3)"
        )
        assert code == 2

    def test_tau(self, capsys):
        code, out, _ = run_cli(capsys, "tau", "--n", "3", "--kind", "cyclic", "S(2)")
        assert code == 0
        assert json.loads(out) == {"tau": "M(1,1)"}

    def test_tau_of_projective_is_null(self, capsys):
        code, out, _ = run_cli(capsys, "tau", "--n", "3", "--kind", "linear", "P(3)")
        assert code == 0
        assert json.loads(out) == {"tau": None}

    def test_pd_finite(self, capsys):
        code, out, _ = run_cli(capsys, "pd", "--n", "3", "--kind", "linear", "S(3)")
        assert code == 0
        assert json.loads(out) == {"pd": 2}

    def test_pd_infinite(self, capsys):
        code, out, _ = run_cli(capsys, "pd", "--n", "3", "--kind", "cyclic", "S(1)")
        assert code == 0
        assert json.loads(out) == {"pd": "infinity"}

    def test_profile(self, capsys):
        code, out, _ = run_cli(capsys, "profile", "--n", "2", "--kind", "cyclic")
        assert code == 0
        data = json.loads(out)
        assert data["gldim"] == "infinity"
        assert data["is_1_gorenstein"] is True
        assert data["is_auslander"] is False

    def test_invalid_module_literal(self, capsys):
        code, _, err = run_cli(capsys, "tau", "--n", "3", "--kind", "linear", "M(9,1)")
        assert code == 2
        assert "vertex" in err or "module" in err

    def test_non_ascii_digit_is_not_a_vertex(self, capsys):
        # int() reads the Arabic-Indic digit three as 3.
        code, out, err = run_cli(capsys, "pd", "S(\u0663)", "--n", "3", "--kind", "cyclic")
        assert (code, out) == (2, "")
        assert err == "error: cannot parse module literal 'S(\u0663)'\n"

    def test_literal_number_past_int_digit_limit(self, capsys):
        code, out, err = run_cli(capsys, "pd", f"S({'1' * 5000})", "--n", "3", "--kind", "cyclic")
        assert (code, out) == (2, "")
        assert err.startswith("error: number too long in module literal: ") and err.count("\n") == 1


class TestTiltingVerbs:
    def test_tilt_enumerate_n3_linear_count(self, capsys):
        code, out, _ = run_cli(
            capsys, "tilt", "enumerate", "--n", "3", "--kind", "linear", "--format", "json"
        )
        assert code == 0
        data = json.loads(out)
        assert data["count"] == 4
        assert data["algebra"] == {"kind": "linear", "kupisch": [1, 2, 2, 3, 2]}
        assert ["M(1,1)", "M(2,2)", "M(3,2)", "M(4,3)", "M(5,2)"] in data["tilting"]

    def test_tilt_enumerate_text(self, capsys):
        code, out, _ = run_cli(
            capsys, "tilt", "enumerate", "--n", "2", "--kind", "linear", "--format", "text"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "# 2 tilting modules over linear(1, 2, 2)"
        assert lines[1:] == ["M(1,1) M(2,2) M(3,2)", "M(2,1) M(2,2) M(3,2)"]

    def test_tilt_graph_dot(self, capsys):
        code, out, _ = run_cli(capsys, "tilt", "graph", "--n", "1", "--kind", "cyclic")
        assert code == 0
        assert out.startswith("digraph exchange {")
        assert 't0 [label="M(1,1) M(1,3)"];' in out
        assert "t0 -> t1 [dir=none];" in out
        assert "t1 -> t0 [style=dashed];" in out

    # SHA-256 of the DOT at the size limits, past the benchmark's digests:
    # Gamma of rsz cyclic n = 10 (1,024 modules), linear n = 9 (256) and the
    # path algebra with series (1, ..., 8) (1,430, a Tamari lattice).
    GRAPH_DIGESTS = {
        "cyclic 10": "d63fd2e1d5d054f17fe40fac006ff0d898568a0b087273b1cf791e7d6f052be1",
        "linear 9": "dfac9d4f257459af4498a11ce400351dc818d71fcdd17de600b96678d0a1741d",
        "path 8": "84ecc30d18ab3afb64595b5b597d060a372519ea4ce4a7fd2a6ee12ee175429c",
    }

    @staticmethod
    def _algebra_argv(tmp_path, kind, n):
        """--n/--kind, or for "path" a file with the path algebra's series (1, ..., n)."""
        if kind != "path":
            return ("--n", n, "--kind", kind)
        path = tmp_path / "path.json"
        path.write_text(json.dumps(algebra_to_json(Algebra("linear", tuple(range(1, int(n) + 1))))))
        return ("--algebra", str(path))

    @pytest.mark.parametrize("case", GRAPH_DIGESTS)
    def test_tilt_graph_dot_digest(self, capsys, tmp_path, case):
        code, out, _ = run_cli(capsys, "tilt", "graph", *self._algebra_argv(tmp_path, *case.split()))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.GRAPH_DIGESTS[case]

    # SHA-256 of the listings at the limits, both formats, past the
    # benchmark's digests (JSON on Gamma for n <= 10): Gamma of rsz cyclic
    # n = 14 (16,384 modules), linear n = 13 (4,096) and the path algebra
    # with series (1, ..., 9) (4,862, Catalan(9)).
    ENUMERATE_DIGESTS = {
        "cyclic 14 json": "ebc5384ac38381c0c62cc8e30d5511ecf8584b69050a2a801617fa31637ac760",
        "cyclic 14 text": "25ac99e4d9f2bb4b9f08630ddc12755555f994645c08c07131ae7ea88b89fb33",
        "linear 13 json": "410ab94c55ac026c47635abc16fa04a557f07a086844ce21a81ff68146162b7a",
        "linear 13 text": "19fb92b79ffca100be182705b3488a902d937139699ae86ee71cdfa7ef655fdd",
        "path 9 json": "c2171e93011aa7163e5fcdae756ef3e9e1b9bff092a9f69317875ceca79f2052",
        "path 9 text": "8e81eb78abe38d0f099540ab562ef8e16c4aa5e5bde27a33884e9a7c212ffdf0",
    }

    def _enumerate_argv(self, tmp_path, kind, n, fmt):
        return ("tilt", "enumerate", *self._algebra_argv(tmp_path, kind, n), "--format", fmt)

    @pytest.mark.parametrize("case", ENUMERATE_DIGESTS)
    def test_tilt_enumerate_digest(self, capsys, tmp_path, case):
        code, out, _ = run_cli(capsys, *self._enumerate_argv(tmp_path, *case.split()))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.ENUMERATE_DIGESTS[case]

    @pytest.mark.parametrize("case", ["linear 4 json", "cyclic 3 text", "path 5 json", "path 5 text"])
    def test_tilt_enumerate_builds_no_module(self, capsys, tmp_path, monkeypatch, case):
        # The listing renders the verified candidate positions, so it reads
        # the same bytes when the module-building enumeration is gone.
        argv = self._enumerate_argv(tmp_path, *case.split())
        expected = run_cli(capsys, *argv)

        def gone(A):
            raise AssertionError("tilt enumerate built the tilting modules")

        monkeypatch.setattr(tilting, "enumerate_tilting", gone)
        monkeypatch.setattr(cli, "enumerate_tilting", gone, raising=False)
        assert run_cli(capsys, *argv) == expected
        assert expected[0] == 0

    def test_sttilt_enumerate(self, capsys):
        code, out, _ = run_cli(
            capsys, "sttilt", "enumerate", "--n", "2", "--kind", "linear", "--format", "json"
        )
        assert code == 0
        data = json.loads(out)
        assert data["count"] == 5
        assert {"killed": [1, 2], "modules": []} in data["pairs"]

    def test_sttilt_text_zero_pair(self, capsys):
        code, out, _ = run_cli(
            capsys, "sttilt", "enumerate", "--n", "1", "--kind", "linear", "--format", "text"
        )
        assert code == 0
        assert "0 | killed 1" in out
        assert "M(1,1) | killed -" in out


def _reference_listing(words, A, fmt):
    """The listing as one json.dumps of the whole payload, or one join of str(T)."""
    if words == ("tilt", "enumerate"):
        tilting = enumerate_tilting(A)
        if fmt == "json":
            payload = {"algebra": algebra_to_json(A), "count": len(tilting), "tilting": [T.literals() for T in tilting]}
            return json.dumps(payload, indent=2, sort_keys=True) + "\n"
        lines = [f"# {len(tilting)} tilting modules over {A}"] + [str(T) for T in tilting]
        return "\n".join(lines) + "\n"
    pairs = enumerate_sttilt(A)
    if fmt == "json":
        payload = {
            "algebra": algebra_to_json(A),
            "count": len(pairs),
            "pairs": [{"modules": p.modules.literals(), "killed": sorted(p.killed)} for p in pairs],
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    lines = [f"# {len(pairs)} support tau-tilting pairs over {A}"]
    lines += [f"{p.modules} | killed {','.join(str(v) for v in sorted(p.killed)) or '-'}" for p in pairs]
    return "\n".join(lines) + "\n"


LISTINGS = [("tilt", "enumerate"), ("sttilt", "enumerate")]


class TestStreamedListings:
    """The listings are written record by record, in the bytes of one json.dumps."""

    @pytest.mark.parametrize("fmt", ["json", "text"])
    @pytest.mark.parametrize("words", LISTINGS, ids=" ".join)
    @pytest.mark.parametrize("kind", ["linear", "cyclic"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_shortcut_bytes_match_the_whole_payload(self, capsys, tmp_path, n, kind, words, fmt):
        lam = make_rsz_nakayama(n, kind)
        A = auslander_algebra(lam).gamma if words[0] == "tilt" else lam
        argv = (*words, "--n", str(n), "--kind", kind, "--format", fmt)
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        assert out == _reference_listing(words, A, fmt)
        dest = tmp_path / "out"
        assert run_cli(capsys, *argv, "--output", str(dest)) == (0, "", "")
        assert dest.read_bytes() == out.encode("utf-8")

    @pytest.mark.parametrize("fmt", ["json", "text"])
    @pytest.mark.parametrize("words", LISTINGS, ids=" ".join)
    @pytest.mark.parametrize("series", [("linear", (1, 2, 2)), ("cyclic", (3, 2))], ids=str)
    def test_file_bytes_match_the_whole_payload(self, capsys, tmp_path, series, words, fmt):
        A = Algebra(*series)
        path = tmp_path / "a.json"
        path.write_text(json.dumps(algebra_to_json(A)))
        argv = (*words, "--algebra", str(path), "--format", fmt)
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert out == _reference_listing(words, A, fmt)
        dest = tmp_path / "out"
        assert run_cli(capsys, *argv, "--output", str(dest)) == (0, "", "")
        assert dest.read_bytes() == out.encode("utf-8")

    @pytest.mark.parametrize("items", [[], [["M(1,1)"]], [["M(1,1)", "M(2,2)"], ["M(2,1)"]]], ids=len)
    def test_stream_is_one_dump_also_when_empty(self, items):
        head = {"algebra": {"kind": "linear", "kupisch": [1, 2]}, "count": len(items)}
        records = ("\n    " + cli._json_list(cli._json_items(map(json.dumps, T), 6), 4) for T in items)
        whole = json.dumps({**head, "tilting": items}, indent=2, sort_keys=True) + "\n"
        assert "".join(cli._json_stream(head, "tilting", records)) == whole

    def test_zero_pair_and_empty_kill_set(self, capsys):
        argv = ("sttilt", "enumerate", "--n", "2", "--kind", "cyclic")
        out = run_cli(capsys, *argv, "--format", "json")[1]
        pairs = json.loads(out)["pairs"]
        assert {"killed": [1, 2], "modules": []} in pairs
        sincere = sum(p["killed"] == [] for p in pairs)
        assert sincere == 3
        assert '"killed": [],' in out and '"modules": []\n' in out
        text = run_cli(capsys, *argv, "--format", "text")[1].splitlines()
        assert "0 | killed 1,2" in text
        assert sum(line.endswith(" | killed -") for line in text) == sincere

    def test_refused_request_writes_nothing(self, capsys, tmp_path):
        dest = tmp_path / "out"
        n = cli.MAX_STTILT_N + 1
        code, out, err = run_cli(capsys, "sttilt", "enumerate", "--n", str(n), "--kind", "cyclic", "--output", str(dest))
        assert (code, out) == (2, "")
        assert f"--n {n} exceeds the limit" in err
        assert not dest.exists()

    def test_failed_enumeration_writes_nothing(self, capsys, tmp_path, monkeypatch):
        # A library bug raises before the first byte is written or the file opened.
        fixed = [ModuleSet.of([IndecModule(1, 1)])]
        monkeypatch.setattr(tau_tilting, "enumerate_tau_tilting", lambda B: fixed)
        dest = tmp_path / "out"
        for target in ((), ("--output", str(dest))):
            with pytest.raises(RuntimeError, match="share a module part"):
                cli.main(["sttilt", "enumerate", "--n", "2", "--kind", "cyclic", *target])
            assert capsys.readouterr().out == ""
        assert not dest.exists()

    def test_failed_tilting_enumeration_writes_nothing(self, capsys, tmp_path, monkeypatch):
        # A clique that fails re-verification raises before the first byte
        # is written or the file opened.  On the path algebra of A_2 the
        # candidates M(1,1), M(2,1), M(2,2) sit at positions 0, 1, 2.
        path = tmp_path / "a2.json"
        path.write_text(json.dumps({"kind": "linear", "kupisch": [1, 2]}))
        dest = tmp_path / "out"
        for bad, why in (((0, 1), "ext1_dim(M(2,1),M(1,1)) = 1 != 0"), ((2,), "|T| = 1 != 2")):
            monkeypatch.setattr(tilting, "cliques", lambda adj, allowed, size, bad=bad: [(0, 2), bad])
            for target in ((), ("--output", str(dest))):
                with pytest.raises(TiltingError, match=f"^{re.escape(f'not a tilting module: {why}')}$"):
                    cli.main(["tilt", "enumerate", "--algebra", str(path), *target])
                assert capsys.readouterr().out == ""
        assert not dest.exists()

    def test_sttilt_peak_memory_is_bounded(self, tmp_path):
        # The pairs are kept as index tuples and rendered as they are written,
        # so no payload of the whole output is held: 27 MiB against 124 MiB
        # for one json.dumps of 2^12 kill sets' pairs (single runs).
        dest = tmp_path / "out.json"
        child = [sys.executable, "-m", "nakayama.cli", "sttilt", "enumerate", "--n", "12", "--kind", "cyclic",
                 "--output", str(dest)]
        # A fresh parent, so the peak is this child's alone.
        probe = (
            "import resource, subprocess, sys; "
            "code = subprocess.run(sys.argv[1:]).returncode; "
            "print(code, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)"
        )
        proc = subprocess.run(
            [sys.executable, "-c", probe, *child], capture_output=True, text=True, timeout=60, env=CHILD_ENV
        )
        code, peak_kib = map(int, proc.stdout.split())
        assert code == 0
        assert json.loads(dest.read_text())["count"] == len(enumerate_sttilt(make_rsz_nakayama(12, "cyclic")))
        assert peak_kib < 64 * 1024, f"peak RSS {peak_kib // 1024} MiB"


class TestSizeLimits:
    @pytest.mark.parametrize(
        "argv, limit",
        [
            (("tilt", "enumerate", "--n", "40", "--kind", "cyclic"), cli.MAX_TILT_ENUMERATE_N),
            (("tilt", "graph", "--n", "40", "--kind", "cyclic"), cli.MAX_TILT_GRAPH_N),
            (("sttilt", "enumerate", "--n", "40", "--kind", "cyclic"), cli.MAX_STTILT_N),
            (("verify", "paper", "--max-n", "40"), cli.MAX_VERIFY_N),
            (("sttilt", "enumerate", "--n", str(cli.MAX_STTILT_N + 1), "--kind", "cyclic"), cli.MAX_STTILT_N),
        ],
    )
    def test_oversized_request_refused_at_once(self, capsys, argv, limit):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        assert f"exceeds the limit {limit}" in err

    @pytest.mark.parametrize(
        "verb, limit",
        [("enumerate", cli.MAX_TILT_ENUMERATE_SIMPLES), ("graph", cli.MAX_TILT_GRAPH_SIMPLES)],
    )
    def test_tilt_limit_applies_to_algebra_files(self, capsys, tmp_path, verb, limit):
        # The path algebra has Catalan(N) tilting modules, the most measured.
        path = tmp_path / "a.json"
        path.write_text(json.dumps({"kind": "linear", "kupisch": list(range(1, limit + 2))}))
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "tilt", verb, "--algebra", str(path))
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        assert f"number of simples {limit + 1} exceeds the limit {limit}" in err

    def test_sttilt_limit_applies_to_algebra_files(self, capsys, tmp_path):
        # The self-injective cyclic (N, ..., N) has C(2N, N) support pairs,
        # the most measured.
        limit = cli.MAX_STTILT_SIMPLES
        path = tmp_path / "a.json"
        path.write_text(json.dumps({"kind": "cyclic", "kupisch": [limit + 1] * (limit + 1)}))
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "sttilt", "enumerate", "--algebra", str(path))
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        assert f"number of simples {limit + 1} exceeds the limit {limit}" in err

    @pytest.mark.parametrize("verb", [row for row in cli.COMMANDS if row[0] != ("verify", "paper")])
    def test_file_dimension_limit(self, capsys, tmp_path, verb):
        # One simple, and every verb that reads --algebra walks its dimension;
        # 10**6 shows that the file is refused before any work of order d.
        words, extra = verb[0], verb[3]
        modules = ["S(1)" for name, _ in extra if not name.startswith("-")]
        for dim in (cli.MAX_DIMENSION + 1, 10**6):
            path = tmp_path / f"{dim}.json"
            path.write_text(json.dumps({"kind": "cyclic", "kupisch": [dim]}))
            start = time.perf_counter()
            code, out, err = run_cli(capsys, *words, "--algebra", str(path), *modules)
            assert time.perf_counter() - start < 1.0, dim
            assert code == 2
            assert out == ""
            assert f"dimension {dim} exceeds the limit {cli.MAX_DIMENSION}" in err

    @pytest.mark.parametrize("kind, dim", [("linear", 10_001), ("cyclic", 10_002)])
    def test_n_is_bounded_by_the_dimension_limit(self, capsys, monkeypatch, kind, dim):
        # The shortcut algebra has dimension 2n - 1 (linear) or 2n (cyclic).
        def build(*args):
            raise AssertionError("built an algebra past the dimension limit")

        monkeypatch.setattr(cli, "make_rsz_nakayama", build)
        n = cli.MAX_DIMENSION // 2 + 1
        code, out, err = run_cli(capsys, "indec", "list", "--n", str(n), "--kind", kind)
        assert code == 2
        assert out == ""
        assert f"dimension {dim} exceeds the limit {cli.MAX_DIMENSION}" in err

    @pytest.mark.parametrize("verb", [("profile",), ("indec", "list")], ids=" ".join)
    def test_n_at_the_dimension_limit_runs(self, capsys, verb):
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, *verb, "--n", str(cli.MAX_DIMENSION // 2), "--kind", "cyclic")
        assert time.perf_counter() - start < 2.0
        assert code == 0
        assert out

    def test_sttilt_n_refused_before_the_algebra_is_built(self, capsys, monkeypatch):
        def build(*args):
            raise AssertionError("built an algebra past the --n limit")

        monkeypatch.setattr(cli, "make_rsz_nakayama", build)
        n = cli.MAX_STTILT_N + 1
        code, out, err = run_cli(capsys, "sttilt", "enumerate", "--n", str(n), "--kind", "cyclic")
        assert code == 2
        assert out == ""
        assert f"--n {n} exceeds the limit {cli.MAX_STTILT_N}" in err


class TestAuslanderVerbs:
    def test_auslander_build(self, capsys):
        code, out, _ = run_cli(capsys, "auslander", "build", "--n", "1", "--kind", "cyclic")
        assert code == 0
        data = json.loads(out)
        assert data["lambda"] == {"kind": "cyclic", "kupisch": [2]}
        assert data["gamma"] == {"kind": "cyclic", "kupisch": [3, 2]}
        assert data["dictionary"] == {"1": "M(1,2)", "2": "M(1,1)"}
        assert data["projective_injective_vertices"] == [1]

    def test_auslander_rejects_non_rsz(self, capsys, tmp_path):
        path = tmp_path / "a.json"
        path.write_text(json.dumps({"kind": "linear", "kupisch": [1, 2, 3]}))
        code, _, err = run_cli(capsys, "auslander", "build", "--algebra", str(path))
        assert code == 2


class TestVerifyPaper:
    def test_exit_zero_and_report_shape(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "paper", "--max-n", "2")
        assert code == 0
        report = json.loads(out)
        assert isinstance(report, list)
        assert all(a["passed"] for a in report)
        names = [a["name"] for a in report]
        assert "auslander_construction_linear_n2" in names
        assert "golden_tilting_list_linear_n3" in names
        assert "dual_numbers_two_tilting" in names

    @pytest.mark.parametrize("max_n", ["0", "-3"])
    def test_max_n_below_one_refused(self, capsys, max_n):
        code, out, err = run_cli(capsys, "verify", "paper", "--max-n", max_n)
        assert code == 2
        assert out == ""
        assert f"got {max_n}" in err


# A cheap invocation of each command in the table.
CHEAP_ARGS = {
    ("algebra", "info"): ("--n", "2", "--kind", "cyclic"),
    ("indec", "list"): ("--n", "2", "--kind", "linear"),
    ("hom",): ("--n", "3", "--kind", "linear", "M(1,1)", "M(2,2)"),
    ("ext",): ("--n", "3", "--kind", "cyclic", "S(1)", "S(3)"),
    ("tau",): ("--n", "3", "--kind", "cyclic", "S(2)"),
    ("pd",): ("--n", "3", "--kind", "cyclic", "S(1)"),
    ("profile",): ("--n", "2", "--kind", "cyclic"),
    ("tilt", "enumerate"): ("--n", "2", "--kind", "cyclic", "--format", "text"),
    ("tilt", "graph"): ("--n", "1", "--kind", "cyclic"),
    ("sttilt", "enumerate"): ("--n", "2", "--kind", "linear"),
    ("auslander", "build"): ("--n", "2", "--kind", "cyclic"),
    ("verify", "paper"): ("--max-n", "1"),
}


@pytest.mark.parametrize("row", cli.COMMANDS, ids=lambda row: " ".join(row[0]))
def test_every_command_helps_and_writes_output_once(capsys, tmp_path, row):
    words = row[0]
    assert " ".join(words) in cli.__doc__
    code, out, _ = run_cli(capsys, *words, "--help")
    assert code == 0
    assert out.startswith(f"usage: nakayama {' '.join(words)} ")
    argv = words + CHEAP_ARGS[words]
    code, printed, _ = run_cli(capsys, *argv)
    assert code == 0
    assert printed
    dest = tmp_path / "out"
    assert run_cli(capsys, *argv, "--output", str(dest)) == (0, "", "")
    assert dest.read_bytes() == printed.encode("utf-8")


class TestPlumbing:
    def test_usage_error_exit_code(self, capsys):
        assert run_cli(capsys, "bogus")[0] == 2
        assert run_cli(capsys)[0] == 2

    def test_output_flag_writes_file(self, tmp_path, capsys):
        dest = tmp_path / "out.json"
        code, out, _ = run_cli(
            capsys, "algebra", "info", "--n", "2", "--kind", "cyclic", "--output", str(dest)
        )
        assert code == 0
        assert out == ""
        assert json.loads(dest.read_text())["kind"] == "cyclic"

    def test_internal_invariant_is_not_a_usage_error(self, capsys, monkeypatch):
        # Every component claims M(1,1) alone, so two kill sets share a
        # module part: a library bug, which must not read as exit code 2.
        fixed = [ModuleSet.of([IndecModule(1, 1)])]
        monkeypatch.setattr(tau_tilting, "enumerate_tau_tilting", lambda B: fixed)
        with pytest.raises(RuntimeError, match="share a module part"):
            cli.main(["sttilt", "enumerate", "--n", "2", "--kind", "cyclic"])

    def test_deterministic_output(self, capsys):
        args = ("tilt", "enumerate", "--n", "3", "--kind", "cyclic", "--format", "json")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_console_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "nakayama.cli", "pd", "--n", "2", "--kind", "linear", "S(2)"],
            capture_output=True,
            text=True,
            env=CHILD_ENV,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout) == {"pd": 1}

    @pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="the platform has no SIGPIPE")
    def test_closed_pipe_ends_a_listing_silently(self):
        # About 1.5 MB of text, far past a pipe buffer, so the child is still
        # writing when the reader closes its end after the first line.
        argv = ["sttilt", "enumerate", "--n", "12", "--kind", "cyclic", "--format", "text"]
        proc = subprocess.Popen(
            [sys.executable, "-m", "nakayama.cli", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=CHILD_ENV
        )
        assert proc.stdout.readline().startswith(b"# 39202 support tau-tilting pairs")
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == -signal.SIGPIPE
        assert err == b""


# -- every draw of argv and algebra file ends in a documented exit code -------

# Integers as argv words: small, negative, huge, past int()'s digit limit,
# and words that are not ASCII integers.  --n and --max-n stay small enough
# that an accepted request runs in milliseconds.
INT_WORDS = st.one_of(
    st.integers(-2, 4).map(str),
    st.sampled_from(["16", str(10**30), "9" * 5000, "1.5", "x", "", "٣"]),
)
MODULE_WORDS = st.one_of(
    st.builds("{}({},{})".format, st.sampled_from("MPS"), INT_WORDS, INT_WORDS),
    st.builds("{}({})".format, st.sampled_from("MPS"), INT_WORDS),
    st.text("MPS(),0123456789 x", max_size=8),
)
# Kupisch entries: small valid ones, and ones that no series takes or that
# pass validation only to meet the dimension limit.
ENTRIES = st.one_of(st.integers(1, 4), st.sampled_from([0, -1, 10**30, 2.0, 2.5, True, "2", None, [2]]))
ALGEBRA_FILES = st.one_of(
    st.builds(
        lambda kind, kupisch: json.dumps({"kind": kind, "kupisch": kupisch}).encode(),
        st.sampled_from(["linear", "cyclic", "circle", 3, None]),
        st.one_of(st.lists(st.integers(1, 4), max_size=5), st.lists(ENTRIES, max_size=5), st.just("1,2")),
    ),
    st.sampled_from([
        b"[" * 100_000 + b"]" * 100_000,
        b'{"kind": "cyclic", "kupisch": [' + b"9" * 5000 + b"]}",
        b'{"kind": "cyclic", "kupisch": [2, 2\xff]}',
        b"[1, 2]",
        b"",
        b"not json",
    ]),
)


@st.composite
def cli_draws(draw):
    """An argv from the command table's words and options, with the bytes
    of the --algebra file when it names one (None: no file there)."""
    words = list(draw(st.sampled_from([row[0] for row in cli.COMMANDS])))
    if draw(st.integers(0, 9)) == 0:  # a broken command word
        words[draw(st.integers(0, len(words) - 1))] = draw(st.sampled_from(["bogus", "", "--n"]))
    options = draw(st.lists(st.sampled_from([
        "--algebra", "--n", "--kind", "--format", "--degree", "--max-n", "--with-oracle", "--output", "--help", "module",
    ]), max_size=6))
    argv, content = words, None
    for option in options:
        if option == "module":
            argv.append(draw(MODULE_WORDS))
        elif option == "--algebra":
            target = draw(st.sampled_from(["algebra.json", "missing.json", "."]))
            if target == "algebra.json":
                content = draw(ALGEBRA_FILES)
            argv += [option, target]
        elif option in ("--n", "--degree", "--max-n"):
            argv += [option, draw(INT_WORDS)]
        elif option == "--kind":
            argv += [option, draw(st.sampled_from(["linear", "cyclic", "circle"]))]
        elif option == "--format":
            argv += [option, draw(st.sampled_from(["json", "text", "xml"]))]
        elif option == "--output":
            argv += [option, draw(st.sampled_from(["out.txt", "no-such-dir/out.txt", "."]))]
        else:
            argv.append(option)
    return argv, content


@settings(max_examples=150, derandomize=True, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(draw=cli_draws())
def test_every_cli_draw_exits_with_a_documented_code(tmp_path, monkeypatch, draw):
    """Exit 0, or 2 with one `error:` line or argparse's usage text on
    stderr, or 1 for `verify paper` alone; nothing escapes `main`, and no
    call runs long, because limits are checked before any work."""
    argv, content = draw
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "algebra.json"
    path.unlink(missing_ok=True)
    if content is not None:
        path.write_bytes(content)
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert time.perf_counter() - start < 2.0, argv
    err = err.getvalue()
    if code == 2:
        if err.startswith("usage: "):
            assert re.search(r"^nakayama[\w -]*: error: ", err, re.MULTILINE), err
        else:
            assert err.startswith("error: ") and err.count("\n") == 1, err
    else:
        assert code == 0 or (code == 1 and argv[:2] == ["verify", "paper"]), (argv, code)
        assert err == ""
