import json
import time

import pytest

from nakayama import cli, tau_tilting
from nakayama.algebra import IndecModule, ModuleSet, algebra_to_json, make_rsz_nakayama


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


class TestSizeLimits:
    @pytest.mark.parametrize(
        "argv, limit",
        [
            (("tilt", "enumerate", "--n", "40", "--kind", "cyclic"), cli.MAX_TILT_ENUMERATE_N),
            (("tilt", "graph", "--n", "40", "--kind", "cyclic"), cli.MAX_TILT_GRAPH_N),
            (("sttilt", "enumerate", "--n", "40", "--kind", "cyclic"), cli.MAX_STTILT_N),
            (("verify", "paper", "--max-n", "40"), cli.MAX_VERIFY_N),
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

    @pytest.mark.parametrize("verb", [("tilt", "enumerate"), ("tilt", "graph"), ("sttilt", "enumerate")])
    def test_file_dimension_limit(self, capsys, tmp_path, verb):
        # One simple, but d x d table entries for dimension d.
        path = tmp_path / "a.json"
        path.write_text(json.dumps({"kind": "cyclic", "kupisch": [10**6]}))
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *verb, "--algebra", str(path))
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        assert f"dimension {10**6} exceeds the limit {cli.MAX_FILE_DIMENSION}" in err

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
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "nakayama.cli", "pd", "--n", "2", "--kind", "linear", "S(2)"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout) == {"pd": 1}
