import json
import math
import re
from pathlib import Path

import pytest

from gcifc.cli import BUILDERS, main
from gcifc.region import Kind


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestClassify:
    def test_pdc_channel(self, capsys):
        code, out, _ = run(["classify", "--a", "0", "--b", "1.3",
                            "--p1", "10", "--p2", "10"], capsys)
        assert code == 0
        rep = json.loads(out)
        assert rep["pdc"] is True
        assert rep["capacity_known"] == "primary-decodes-cognitive"

    def test_z_trivial(self, capsys):
        code, out, _ = run(["classify", "--b", "0", "--a", "1",
                            "--p1", "1", "--p2", "1"], capsys)
        assert code == 0
        assert json.loads(out)["capacity_known"] == "z-trivial"

    def test_raw_reduction(self, capsys):
        code, out, _ = run(["classify", "--raw",
                            "h11=2,h12=1,h21=1,h22=1,sigma1=1,sigma2=1,"
                            "p1=1,p2=1"], capsys)
        assert code == 0
        assert json.loads(out)["weak"] is True

    def test_raw_degenerate_exit2(self, capsys):
        code, _, err = run(["classify", "--raw", "h11=0,h22=1"], capsys)
        assert code == 2
        assert "DegenerateDirectLink" in err

    def test_missing_channel_exit2(self, capsys):
        code, _, err = run(["classify"], capsys)
        assert code == 2
        assert "channel" in err

    def test_bad_flag_named(self, capsys):
        code, _, err = run(["classify", "--a", "zzz", "--b", "1",
                            "--p1", "1", "--p2", "1"], capsys)
        assert code == 2
        assert "--a" in err


class TestRegion:
    def test_lambda_policy_orderings(self, tmp_path, capsys):
        out = tmp_path / "fig"
        code, _, _ = run(["region", "--a", "0.5477", "--b", "1.4142",
                          "--p1", "6", "--p2", "6",
                          "--ids", "e:sweep,e:costa1,e:zero",
                          "--grid", "257", "--out", str(out)], capsys)
        assert code == 0
        import numpy as np
        from gcifc.region import Kind, RateRegion
        regs = {}
        for rid in ("e-sweep", "e-costa1", "e-zero"):
            text = (tmp_path / f"fig_{rid}.csv").read_text()
            regs[rid] = RateRegion.from_csv(text, Kind.INNER)
        for sub in ("e-costa1", "e-zero"):
            vals = regs["e-sweep"].boundary_at(regs[sub].r1)
            assert np.all(vals >= regs[sub].r2 - 2e-3)

    def test_unknown_id_exit2(self, capsys):
        code, _, err = run(["region", "--a", "1", "--b", "1", "--p1", "1",
                            "--p2", "1", "--ids", "nonsense"], capsys)
        assert code == 2
        assert "nonsense" in err

    def test_bare_best_ambiguous(self, capsys):
        code, _, err = run(["region", "--a", "1", "--b", "1", "--p1", "1",
                            "--p2", "1", "--ids", "best"], capsys)
        assert code == 2
        assert "inner:best" in err

    def test_regime_mismatch_exit3(self, capsys):
        code, _, err = run(["region", "--a", "0.5", "--b", "0.8", "--p1", "1",
                            "--p2", "1", "--ids", "bc-dms-deg"], capsys)
        assert code == 3

    def test_deterministic_output(self, tmp_path, capsys):
        args = ["region", "--a", "0.3", "--b", "1.5", "--p1", "2",
                "--p2", "2", "--ids", "d", "--grid", "129"]
        p1, p2 = tmp_path / "x", tmp_path / "y"
        run(args + ["--out", str(p1)], capsys)
        run(args + ["--out", str(p2)], capsys)
        assert (tmp_path / "x_d.csv").read_bytes() == \
            (tmp_path / "y_d.csv").read_bytes()

    def test_csv_header_and_format(self, capsys):
        code, out, _ = run(["region", "--a", "0", "--b", "1.3", "--p1", "10",
                            "--p2", "10", "--ids", "tdma", "--grid", "17"],
                           capsys)
        assert code == 0
        lines = [ln for ln in out.splitlines() if ln and not
                 ln.startswith("#")]
        assert lines[0].startswith("r1,r2")
        assert "e" in lines[1]  # scientific notation

    def test_gnuplot_script(self, tmp_path, capsys):
        out = tmp_path / "p"
        code, _, _ = run(["region", "--a", "0", "--b", "1.3", "--p1", "10",
                          "--p2", "10", "--ids", "tdma,pl-si",
                          "--grid", "33", "--gnuplot", "--out", str(out)],
                         capsys)
        assert code == 0
        script = (tmp_path / "p.gp").read_text()
        assert "plot" in script and "tdma" in script
        for rid in ("tdma", "pl-si"):
            lines = (tmp_path / f"p_{rid}.csv").read_text().splitlines()
            assert lines[0] == "r1,r2" and len(lines) > 1

    def test_json_format(self, capsys):
        code, out, _ = run(["region", "--a", "0", "--b", "1.3", "--p1", "10",
                            "--p2", "10", "--ids", "tdma", "--grid", "9",
                            "--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out.splitlines()[-1])
        assert payload["kind"] == "inner"

    def test_config_file(self, tmp_path, capsys):
        conf = tmp_path / "c.json"
        conf.write_text(json.dumps({"a": "0", "b": 1.3, "p1": 10.0,
                                    "p2": 10.0, "ids": "tdma",
                                    "grid": 17}))
        code, out, _ = run(["region", "--config", str(conf)], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[:2] == ["# id: tdma", "r1,r2"] and len(lines) == 2 + 17

    def test_flags_override_config(self, tmp_path, capsys):
        conf = tmp_path / "c.json"
        conf.write_text(json.dumps({"a": "0", "b": 1.3, "p1": 10.0,
                                    "p2": 10.0, "ids": "tdma", "grid": 17}))
        code, out, _ = run(["region", "--config", str(conf),
                            "--ids", "pl-si"], capsys)
        assert code == 0
        assert "# id: pl-si" in out

    @pytest.mark.parametrize("key", ["format", "fmt"])
    def test_config_grid_and_format(self, tmp_path, capsys, key):
        conf = tmp_path / "c.json"
        conf.write_text(json.dumps({"a": "0.5", "b": 1.3, "p1": 10,
                                    "p2": 10, "ids": "b", "grid": 5,
                                    key: "json"}))
        code, out, _ = run(["region", "--config", str(conf)], capsys)
        assert code == 0
        payload = json.loads(out.splitlines()[-1])
        assert len(payload["r1"]) == 5

    @pytest.mark.parametrize("grid", ["3", "2048"])
    def test_grid_flag_beats_config(self, tmp_path, capsys, grid):
        # an explicit flag wins even when it equals the default
        conf = tmp_path / "c.json"
        conf.write_text(json.dumps({"a": "0.5", "b": 1.3, "p1": 10,
                                    "p2": 10, "ids": "b", "grid": 5}))
        code, out, _ = run(["region", "--config", str(conf),
                            "--grid", grid], capsys)
        assert code == 0
        assert len(out.splitlines()) == 2 + int(grid)

    def test_config_flag_spellings(self, tmp_path, capsys):
        conf = tmp_path / "c.json"
        conf.write_text(json.dumps({"a": 0, "b": 1.3, "p1": 10, "p2": 10,
                                    "outer": "strong", "inner": "d",
                                    "grid": 65}))
        code, out, _ = run(["gap", "--config", str(conf)], capsys)
        assert code == 0
        assert "additive_bits" in json.loads(out)

    @pytest.mark.parametrize("text", ['{"a": ', '[1, 2]', '{"zzz": 1}',
                                      '{"format": "xml"}',
                                      '{"gnuplot": "yes"}'])
    def test_bad_config_exit2(self, tmp_path, capsys, text):
        conf = tmp_path / "c.json"
        conf.write_text(text)
        code, _, err = run(["region", "--config", str(conf)], capsys)
        assert code == 2
        assert "config file" in err

    def test_missing_config_exit2(self, tmp_path, capsys):
        code, _, err = run(["region", "--config",
                            str(tmp_path / "absent.json")], capsys)
        assert code == 2
        assert "config file" in err


class TestGap:
    def test_pdc_best_vs_best(self, capsys):
        code, out, _ = run(["gap", "--a", "0", "--b", "1.3", "--p1", "10",
                            "--p2", "10", "--outer", "best",
                            "--inner", "best", "--grid", "512"], capsys)
        assert code == 0
        rep = json.loads(out)
        assert rep["additive_bits"] <= 1e-3

    def test_strong_outer_on_weak_exit3(self, capsys):
        code, _, _ = run(["gap", "--a", "0.5", "--b", "0.8", "--p1", "1",
                          "--p2", "1", "--outer", "strong",
                          "--inner", "b"], capsys)
        assert code == 3

    def test_tdma_factor_two(self, capsys):
        code, out, _ = run(["gap", "--a", "0.5", "--b", "1.4142",
                            "--p1", "6", "--p2", "6", "--outer", "pl-si",
                            "--inner", "tdma", "--grid", "512"], capsys)
        assert code == 0
        assert json.loads(out)["multiplicative"] <= 2.0 + 1e-3
        # the exact ratio at the converse's corner: 2 - cap(p1) / cap(peq)
        peq = (math.sqrt(1.4142 ** 2 * 6.0) + math.sqrt(6.0)) ** 2
        assert json.loads(out)["multiplicative"] == pytest.approx(
            2.0 - math.log2(7.0) / math.log2(1.0 + peq), abs=1e-12)


def test_readme_lists_every_id():
    """README's bound and scheme id lists name exactly the CLI's ids."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    for label, kind in (("Bound", Kind.OUTER), ("Scheme", Kind.INNER)):
        listed = re.search(rf"{label} ids:(.*?)\.\s", text, re.S).group(1)
        assert re.findall(r"`([^`]+)`", listed) == [
            rid for rid, (k, _) in BUILDERS.items() if k is kind]


class TestAtlasAndVerify:
    def test_atlas_csv_shape(self, capsys):
        code, out, _ = run(["atlas", "--p", "10", "--mode", "regime",
                            "--resolution", "5"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == ("a_re,a_im,b,label,margin_5,margin_31a,"
                            "margin_31b,gap")
        assert len(lines) == 1 + 25

    def test_atlas_deterministic(self, capsys):
        _, out1, _ = run(["atlas", "--p", "10", "--resolution", "4"], capsys)
        _, out2, _ = run(["atlas", "--p", "10", "--resolution", "4"], capsys)
        assert out1 == out2

    def test_verify_small_pass(self, capsys):
        code, out, _ = run(["verify", "--n", "3", "--seed", "5"], capsys)
        assert code == 0
        assert "[PASS] soundness" in out

    def test_verify_n_zero_exit2(self, capsys):
        code, _, err = run(["verify", "--n", "0"], capsys)
        assert code == 2

    def test_unknown_subcommand_exit2(self, capsys):
        assert main(["frobnicate"]) == 2


class TestInvalidValues:
    """Invalid values are usage errors (exit 2), never a traceback."""

    @pytest.mark.parametrize("args,flag", [
        (["classify", "--a", "0", "--b", "-1", "--p1", "1", "--p2", "1"],
         "b must be nonnegative"),
        (["classify", "--a", "0", "--b", "1", "--p1", "nan", "--p2", "1"],
         "finite"),
        (["region", "--a", "0", "--b", "1", "--p1", "1", "--p2", "1",
          "--ids", "b", "--grid", "0"], "--grid"),
        (["region", "--a", "0", "--b", "1", "--p1", "1", "--p2", "1",
          "--ids", "b", "--grid", "-3"], "--grid"),
        (["atlas", "--resolution", "1"], "--resolution"),
        (["atlas", "--p", "-1", "--resolution", "2"], "powers"),
        (["verify", "--n", "1", "--seed", "-1"], "--seed"),
    ])
    def test_invalid_value_exit2(self, capsys, args, flag):
        code, _, err = run(args, capsys)
        assert code == 2
        assert flag in err and "Traceback" not in err

    def test_bad_thread_count_exit2(self, capsys, monkeypatch):
        monkeypatch.setenv("CIFC_THREADS", "abc")
        code, _, err = run(["verify", "--n", "1"], capsys)
        assert code == 2
        assert "CIFC_THREADS" in err
