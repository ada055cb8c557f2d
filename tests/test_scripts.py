"""Smoke runs of the scripts in scripts/, on small arguments: each exits 0
and writes CSVs with the expected header."""

import csv
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gcifc.cli import BUILDERS, INNER

ROOT = Path(__file__).resolve().parents[1]

# script, arguments, {output file: header}
RUNS = [
    ("lambda_tradeoff.py", ["--n", "11", "--out", "lam.csv"],
     {"lam.csv": "lambda,r1_bound,r2_bound"}),
    ("region_digests.py", ["--n", "2", "--out", "digests.csv"],
     {"digests.csv": "id,channel,region,params,warnings,exception"}),
    ("region_support.py", ["--n", "2", "--out", "support"],
     {"support/channels.csv": "index,channel"}),
]


def _run(script, args, cwd, code=0):
    """The script's stdout, once it has exited with `code`; with code
    None, (exit code, stdout, stderr)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script)]
                          + args, cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=300)
    if code is None:
        return proc.returncode, proc.stdout, proc.stderr
    assert proc.returncode == code, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("script,args,headers", RUNS, ids=[r[0] for r in RUNS])
def test_script_runs(script, args, headers, tmp_path):
    _run(script, args, tmp_path)
    for name, header in headers.items():
        lines = (tmp_path / name).read_text().splitlines()
        assert lines[0] == header and len(lines) > 1


def test_lambda_tradeoff_costa_line(tmp_path):
    """The default run ends on Fig. 4's Costa coefficients and sum bound."""
    assert _run("lambda_tradeoff.py", [], tmp_path).splitlines()[-1] == (
        "# costa1 = 0.941122, costa2 = 1.212183, sum = 4.954196")


def test_region_support_compare(tmp_path):
    """The compare mode reports, for every inner id, a run against itself
    as unmoved."""
    _run("region_support.py", ["--n", "1", "--out", "run"], tmp_path)
    out = _run("region_support.py", ["--compare", "run", "run"], tmp_path)
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [r["id"] for r in rows] == [
        rid for rid, (kind, _) in BUILDERS.items() if kind is INNER]
    for r in rows:
        assert (r["channels"], r["falls"], r["rises"], r["one_side_only"]) \
            == ("1", "0", "0", "0"), r


def test_region_digests_compare(tmp_path):
    """The compare mode reports, for every id, a run against itself as
    unmoved and exits 0, and counts a changed params digest under its own
    column, names the pair on stderr and exits 1."""
    _run("region_digests.py", ["--n", "1", "--out", "old.csv"], tmp_path)
    lines = (tmp_path / "old.csv").read_text().splitlines()
    rows = [r.split(",") for r in lines]
    at = next(i for i, r in enumerate(rows) if r[0] == "a")
    rows[at][3] = "0" * 64
    (tmp_path / "new.csv").write_text("\n".join(map(",".join, rows)) + "\n")
    code, out, err = _run("region_digests.py",
                          ["--compare", "old.csv", "old.csv"], tmp_path, None)
    assert (code, err) == (0, "")
    code, moved, err = _run("region_digests.py",
                            ["--compare", "old.csv", "new.csv"], tmp_path,
                            None)
    assert (code, err) == (1, f"a,{rows[at][1]},params\n")
    ids = list(BUILDERS) + ["classify"]
    for text, changed in ((out, None), (moved, "a")):
        got = list(csv.DictReader(io.StringIO(text)))
        assert [r["id"] for r in got] == ids
        for r in got:
            want = ("1", "0", "1" if r["id"] == changed else "0", "0", "0")
            assert (r["channels"], r["region"], r["params"], r["warnings"],
                    r["exception"]) == want, r
