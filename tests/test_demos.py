import doctest
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_demos_run():
    demos = sorted((ROOT / "demos").glob("*.py"))
    assert len(demos) == 6
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    for demo in demos:
        proc = subprocess.run(
            [sys.executable, str(demo)], capture_output=True, text=True, env=env, timeout=60
        )
        assert proc.returncode == 0, f"{demo.name}: {proc.stderr}"
        assert proc.stdout.strip(), f"{demo.name} printed nothing"


def test_readme_example_runs():
    result = doctest.testfile(
        str(ROOT / "README.md"), module_relative=False, optionflags=doctest.NORMALIZE_WHITESPACE
    )
    assert result.attempted and not result.failed, result
