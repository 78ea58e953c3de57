import json
from dataclasses import replace

import numpy as np
import pytest

from curvewave import scenarios
from curvewave.cli import main
from curvewave.serialization import load_modes


def test_corefn_eval(capsys):
    assert main(["corefn-eval", "--kind", "j", "--order", "1", "--re", "1.0"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["value"][0] == pytest.approx(0.4400505857, abs=1e-9)
    assert out["order"] == 1


def test_modes_single_m_contains_reference_resonance(tmp_path, capsys):
    assert main(["modes", "--m", "120", "--kmax", "130", "--out", str(tmp_path)]) == 0
    table = load_modes(tmp_path / "modes_m120.txt")
    res = [mo for mo in table.modes
           if mo.klass != "bound" and abs(mo.k.real - 113.0) < 0.1]
    assert len(res) == 1
    assert res[0].k.imag == pytest.approx(-4.935e-6, rel=1e-3)


def test_tunnel1d_artifacts_and_determinism(tmp_path, capsys):
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    assert main(["tunnel1d", "--out", str(out1)]) == 0
    assert main(["tunnel1d", "--out", str(out2)]) == 0
    for name in ("phase_T.csv", "phase_R.csv", "tunnel1d.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    delays = json.loads((out1 / "tunnel1d.json").read_text())
    assert delays["rect_delay_phase"] == pytest.approx(0.05, abs=0.005)
    assert delays["modified_delay_peak"] == pytest.approx(0.14, abs=0.03)


def test_report_schema_barrier1d(tmp_path):
    report = scenarios.report_barrier1d(tmp_path)
    assert set(report) == {"preset", "metrics", "all_pass"}
    for metric in report["metrics"].values():
        assert set(metric) == {"value", "paper_value", "tolerance", "pass"}
        assert isinstance(metric["pass"], bool)
    assert report["all_pass"] is True
    again = json.loads((tmp_path / "report_barrier1d.json").read_text())
    assert again["metrics"].keys() == report["metrics"].keys()


def test_cli_requires_config_or_preset(capsys):
    assert main(["gh", "--out", "/tmp/nowhere-cw"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert "preset" in err["message"]


def test_missing_mode_table_error(tmp_path, capsys):
    rc = main(["gh", "--preset", "A", "--out", str(tmp_path)])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert "modes" in err["message"]


def test_config_roundtrip(tmp_path):
    cfg = scenarios.preset_config("C")
    path = tmp_path / "c.ini"
    scenarios.save_config(cfg, path)
    back = scenarios.load_config(path)
    assert back.m0 == cfg.m0 and back.k0 == 122.065
    assert back.m_lo == cfg.m_lo and back.m_hi == cfg.m_hi
    assert back.grid_r_max == cfg.grid_r_max
    assert back.fraction_times == cfg.fraction_times


def test_husimi_writes_gap_curves_without_crossing(tmp_path):
    # a five-m window of preset B: the gap curves do not cross, and the
    # curves the diagnostic points at are written anyway
    cfg = replace(scenarios.preset_config("B"), m_lo=118, m_hi=122, threshold=0.0)
    ws = scenarios.Workspace(cfg, tmp_path)
    ws.table(solve=True)
    out = scenarios.run_husimi(ws)
    assert "inspect gap_curves" in out["diagnostics"]
    assert out["alpha_t"] is None and out["delta"] is None
    n_alpha = len(np.arange(cfg.husimi_alpha[0], cfg.husimi_alpha[1] + 1e-12,
                            cfg.husimi_alpha[2]))
    for name in ("f_alpha_B.csv", "delta_alpha_B.csv"):
        lines = (tmp_path / name).read_text().splitlines()
        assert len(lines) == n_alpha + 1
