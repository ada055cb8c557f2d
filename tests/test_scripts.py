"""Smoke runs of the scripts in scripts/, on small arguments: each exits 0
and writes CSVs with the expected header."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# script, arguments, {output file: header}
RUNS = [
    ("lambda_tradeoff.py", ["--n", "11", "--out", "lam.csv"],
     {"lam.csv": "lambda,r1_bound,r2_bound"}),
]


@pytest.mark.parametrize("script,args,headers", RUNS, ids=[r[0] for r in RUNS])
def test_script_runs(script, args, headers, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script)]
                          + args, cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    for name, header in headers.items():
        lines = (tmp_path / name).read_text().splitlines()
        assert lines[0] == header and len(lines) > 1
