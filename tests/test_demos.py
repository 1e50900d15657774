"""The narrative demos run to completion against the installed package."""

import os
import pathlib
import subprocess
import sys

import pytest

import sr2kit

DEMOS = sorted((pathlib.Path(__file__).parent.parent / "demos").glob("*.py"))
SRC = str(pathlib.Path(sr2kit.__file__).parent.parent)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.name)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, TMPDIR=str(tmp_path))
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_all_demos_found():
    assert len(DEMOS) == 6
