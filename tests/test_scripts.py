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
    ("regime_atlas.py", ["--resolution", "5", "--out", "atlas.csv"],
     {"atlas.csv": "a_re,a_im,b,label,margin_5,margin_31a,margin_31b,gap"}),
    ("region_comparison.py",
     ["--a", "2", "--b", "3", "--p1", "1", "--p2", "1",
      "--ids", "d,e:costa1,tdma", "--out", "fig"],
     {"fig_d.csv": "r1,r2,rho_re", "fig_e-costa1.csv": "r1,r2,alpha,lambda_re",
      "fig_tdma.csv": "r1,r2"}),
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
