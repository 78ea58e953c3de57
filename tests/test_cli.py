import json
import math
import tempfile
from dataclasses import fields, replace
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from curvewave import scenarios
from curvewave.cli import main
from curvewave.errors import CurvewaveError
from curvewave.potential import PotentialSpec
from curvewave.serialization import load_modes
from curvewave.spectrum import build_mode_table


def test_corefn_eval(capsys):
    assert main(["corefn-eval", "--kind", "j", "--order", "1", "--re", "1.0"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["value"][0] == pytest.approx(0.4400505857, abs=1e-9)
    assert out["order"] == 1


def test_corefn_eval_deep_evanescent(capsys):
    # H1_200(2) and K_200(1) overflow doubles; the command prints them in
    # units of exp(log_scale), checked against 40-digit mpmath
    for kind, fn, x in (("h1", mpmath.hankel1, 2.0), ("k", mpmath.besselk, 1.0)):
        assert main(["corefn-eval", "--kind", kind, "--order", "200",
                     "--re", str(x)]) == 0
        out = json.loads(capsys.readouterr().out)
        value, deriv = complex(*out["value"]), complex(*out["derivative"])
        assert np.isfinite(value) and np.isfinite(deriv) and out["log_scale"] > 500.0
        with mpmath.workdps(40):
            z = fn(200, x)
            # Z' = Z_{199} - (200/x) Z for H^(1), -K_{199} - (200/x) K for K
            z_prime = (fn(199, x) if kind == "h1" else -fn(199, x)) - (200 / x) * z
            log_abs, logderiv = float(mpmath.log(abs(z))), complex(z_prime / z)
        assert math.log(abs(value)) + out["log_scale"] == pytest.approx(log_abs, rel=1e-12)
        assert abs(deriv / value - logderiv) <= 1e-12 * abs(logderiv)


def test_corefn_eval_rejects_bad_input(capsys):
    assert main(["corefn-eval", "--kind", "j", "--order", "-1", "--re", "1.0"]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "DomainError"
    assert main(["corefn-eval", "--kind", "k", "--order", "2", "--re", "1.0",
                 "--im", "1"]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "DomainError"


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


def test_modes_single_m_takes_config_potential(tmp_path, capsys):
    cfg = replace(scenarios.preset_config("B"), potential=PotentialSpec(v0=3000.0))
    path = tmp_path / "v3000.ini"
    scenarios.save_config(cfg, path)
    kmax = cfg.potential.k_step + 10.0
    assert main(["modes", "--m", "30", "--kmax", str(kmax), "--config", str(path),
                 "--out", str(tmp_path)]) == 0
    table = load_modes(tmp_path / "modes_m30.txt")
    assert table.pot == cfg.potential
    want = build_mode_table(cfg.potential, [30], resonance_k_max=kmax)
    assert [mo.k for mo in table.modes] == [mo.k for mo in want.modes]
    default = build_mode_table(PotentialSpec(), [30], resonance_k_max=kmax)
    assert len(table) != len(default)


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_POSITIVE = st.floats(min_value=1e-300, max_value=1e300)
_TIMES = st.lists(_FINITE, max_size=4).map(tuple)
_RANGE = st.tuples(_FINITE, _FINITE, _FINITE)
_INT = st.integers(-10**9, 10**9)
#: a strategy per ScenarioConfig field; jobs is a run setting (--jobs)
_CONFIG_FIELDS = {
    "preset": st.from_regex(r"[A-Za-z0-9_-]{1,12}", fullmatch=True),
    "potential": st.builds(PotentialSpec, radius=_POSITIVE, v0=_POSITIVE,
                           mass=_POSITIVE, hbar=_POSITIVE),
    "m0": _FINITE, "k0": _FINITE, "sigma": _FINITE,
    "impact": st.tuples(_FINITE, _FINITE),
    "threshold": _FINITE,
    "m_lo": _INT, "m_hi": _INT,
    "resonance_k_max": _FINITE,
    "max_im_k": st.none() | _FINITE,
    "grid_r_max": _FINITE, "grid_nr": _INT, "grid_ntheta": _INT,
    "gh_times_pre": _TIMES, "gh_times_post": _TIMES, "husimi_times": _TIMES,
    "husimi_alpha": _RANGE, "husimi_d": _RANGE, "husimi_h": _RANGE,
    "husimi_mu": _FINITE,
    "fraction_times": _TIMES,
}


def test_config_strategy_covers_every_field():
    names = {f.name for f in fields(scenarios.ScenarioConfig)}
    assert set(_CONFIG_FIELDS) == names - {"jobs"}


@settings(max_examples=60, deadline=None)
@given(cfg=st.builds(scenarios.ScenarioConfig, **_CONFIG_FIELDS),
       jobs=st.integers(1, 8))
def test_config_roundtrip(cfg, jobs):
    cfg = replace(cfg, jobs=jobs)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.ini"
        scenarios.save_config(cfg, path)
        back = scenarios.load_config(path)
    assert back.jobs == 1                  # not stored: --jobs sets it
    assert replace(back, jobs=jobs) == cfg


def test_config_roundtrip_presets_and_old_files(tmp_path):
    for name in sorted(scenarios.PRESETS):
        cfg = scenarios.preset_config(name)
        scenarios.save_config(cfg, tmp_path / f"{name}.ini")
        assert scenarios.load_config(tmp_path / f"{name}.ini") == cfg
    # a file written before the husimi section and max_im_k were stored
    old = tmp_path / "old.ini"
    old.write_text("[packet]\npreset = C\nm0 = 140\nk0 = 122.065\n"
                   "[table]\nm_lo = 68\nm_hi = 212\nresonance_k_max = 162.065\n"
                   "[times]\nfractions = 1.6 2\n")
    cfg = scenarios.load_config(old)
    default = scenarios.ScenarioConfig()
    assert (cfg.m0, cfg.k0, cfg.m_lo, cfg.m_hi) == (140.0, 122.065, 68, 212)
    assert cfg.fraction_times == (1.6, 2.0)
    assert cfg.max_im_k is None and cfg.potential == PotentialSpec()
    for attr in ("husimi_alpha", "husimi_d", "husimi_h", "husimi_mu",
                 "husimi_times", "gh_times_pre", "grid_nr"):
        assert getattr(cfg, attr) == getattr(default, attr)


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


def test_modes_writes_solver_diagnostics(tmp_path, capsys):
    # the edge of preset B's window, m = 197-203, where the seed next to the
    # step falls below k_V and is stopped there, one diagnostic per m
    assert main(["modes", "--preset", "B", "--m-min", "197", "--m-max", "203",
                 "--out", str(tmp_path)]) == 0
    table = load_modes(tmp_path / "modes_B.txt")
    assert np.unique(table.m).tolist() == list(range(197, 204))
    text = (tmp_path / "diagnostics_B.json").read_text()
    diags = json.loads(text)
    assert [d["m"] for d in diags] == list(range(197, 204))
    assert all(set(d) == {"m", "seed", "reason"} for d in diags)
    assert text == json.dumps(diags, sort_keys=True, indent=2) + "\n"
    pot = scenarios.preset_config("B").potential
    want = build_mode_table(pot, range(197, 204), resonance_k_max=130.0)
    assert diags == want.diagnostics


def test_workspace_refuses_stale_mode_table(tmp_path):
    # a modes file solved for another potential, or holding an m outside the
    # config's window, is refused instead of reused
    cfg = replace(scenarios.preset_config("B"), m_lo=118, m_hi=122, resonance_k_max=105.0)
    solved = scenarios.Workspace(cfg, tmp_path).solve_table()
    wider = replace(cfg, m_lo=100, m_hi=130)
    assert scenarios.Workspace(wider, tmp_path).table().modes == solved.modes
    stale = replace(cfg, potential=PotentialSpec(v0=3000.0))
    with pytest.raises(CurvewaveError, match=r"modes_B\.txt was solved for .*v0=5000\.0"
                                             r".*v0=3000\.0"):
        scenarios.Workspace(stale, tmp_path).table()
    with pytest.raises(CurvewaveError, match=r"holds m = 122, outside .*\[118, 121\]"):
        scenarios.Workspace(replace(cfg, m_hi=121), tmp_path).table()
