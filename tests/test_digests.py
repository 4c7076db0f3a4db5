"""The output digests the benchmark records must hold in the test suite too.

`benchmarks/digests.json` is read, and nothing else under `benchmarks/` is
read or written.  Each `verify` and `auslander` task names a command, run
in-process through `nakayama.cli.main`; each `sttilt` task names an algebra
whose support pairs are listed.  Both are rendered as the benchmark renders
them, so a byte change in any of these outputs fails the test suite and not
only a benchmark run.
"""

import ast
import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from nakayama import cli
from nakayama.algebra import Algebra
from nakayama.tau_tilting import enumerate_sttilt

DIGESTS = json.loads(
    (Path(__file__).resolve().parent.parent / "benchmarks" / "digests.json").read_text(encoding="utf-8")
)
CLI_TASKS = [(workload, name) for workload in ("verify", "auslander") for name in DIGESTS[workload]]


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("workload, name", CLI_TASKS, ids=[name for _, name in CLI_TASKS])
def test_cli_output_matches_its_digest(workload, name):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(name.split())
    assert _digest(f"exit {code}\n{out.getvalue()}") == DIGESTS[workload][name]


@pytest.mark.parametrize("name", list(DIGESTS["sttilt"]))
def test_support_pairs_match_their_digest(name):
    # "sttilt cyclic(2, 2, 3)": the kind, then the series as a tuple literal.
    kind, _, series = name.removeprefix("sttilt ").partition("(")
    A = Algebra(kind, ast.literal_eval("(" + series))
    text = "".join(f"{p.modules} | {sorted(p.killed)}\n" for p in enumerate_sttilt(A))
    assert _digest(text) == DIGESTS["sttilt"][name]
