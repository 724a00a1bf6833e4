"""Smoke tests of the study scripts: each runs to completion at a tiny size."""

import pathlib
import subprocess
import sys

import pytest

SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"

# each script runs in its test's tmp_path, so a relative --out lands there
FLAGS = {
    "prototype_reduction_study": ["--n", "30", "--reps", "1", "--deltas", "0.1"],
    "imbalance_overlap_grid": ["--n", "30", "--reps", "2", "--deltas", "0.1", "--qs", "0.5", "--out", "grid.csv"],
    "embedded_auc_study": ["--dims", "2", "--sizes", "30", "--reps", "2", "--pilot-reps", "2"],
}


@pytest.mark.parametrize("script", FLAGS)
def test_script_runs(script, tmp_path):
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / f"{script}.py"), *FLAGS[script]],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout
    if "--out" in FLAGS[script]:
        assert (tmp_path / "grid.csv").read_text().startswith("delta,q,")
