"""Scenario configuration and orchestration: presets, pipelines, report.

Every step is deterministic for a fixed config (no randomness anywhere), so
artifacts are byte-identical across reruns.
"""

from __future__ import annotations

import configparser
import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from . import barrier1d, observables as obs, serialization as ser
from .errors import CurvewaveError, FitQualityError
from .packet import Expansion, FieldEvaluator, GridSpec, PacketSpec, expand
from .potential import PotentialSpec
from .spectrum import BOUND, TUNNELING, ModeTable, build_mode_table

#: central (m0, k0) of the standard launch configurations
PRESETS = {
    "A": (75.0, 75.0),
    "B": (120.0, 90.0),
    "C": (140.0, 122.065),
    "D": (140.0, 140.0),
}

#: reference values and tolerances the report compares against
PAPER_VALUES = {
    "A": {
        "modes_total": (2474.0, 0.02 * 2474),
        "l_gh": (0.015, 0.003),
        "chi_r_factor": (1.0125, 0.0075),     # window [1.005, 1.02]
        "theory_l_gh": (0.0152, 0.0002),
        "theory_delay_s0": (0.0304, 0.02 * 0.0304),
    },
    "B": {
        "modes_bound": (1374.0, 0.02 * 1374),
        "modes_tunneling": (608.0, 0.02 * 608),
        "l_gh": (0.024, 0.004),
        "chi_r_factor": (1.0275, 0.0125),     # window [1.015, 1.04]
        "theory_l_gh": (0.0242, 0.0003),
        "theory_delay_s0": (0.0363, 0.02 * 0.0363),
        "delta": (0.324, 0.02),
        "delta_predicted": (0.30, 0.02),
        "alpha_t": (-0.045, 0.01),
        "centroid_x_t7.5": (2.993, 0.05),
        "centroid_y_t7.5": (2.192, 0.05),
        "centroid_x_t10": (4.146, 0.05),
        "centroid_y_t10": (2.14, 0.05),
        "delay_star_s0": (0.227, 0.05),
        "resonance_re_k": (113.0, 0.1),
        "resonance_im_k": (-1.57e-6, None),   # factor-3 criterion, see report
    },
    "C": {
        "interior_fraction": (0.616, 0.02),
        "transmission_deg": (64.7, 2.0),
    },
    "D": {
        "transmitted_fraction": (0.916, 0.02),
    },
    "barrier1d": {
        "rect_delay_phase": (0.05, 0.005),
        "rect_delay_peak": (0.045, 0.01),
        "rect_reflection_delay": (0.03, 0.005),
        "modified_delay_peak": (0.14, 0.03),
        "delay_ratio": (4.6, 0.7),
        "scaled_prediction": (0.00276, 0.00276 * 0.7 / 4.6),
    },
}


@dataclass
class ScenarioConfig:
    """Everything one run needs; serializes to flat INI."""

    preset: str = "B"
    potential: PotentialSpec = field(default_factory=PotentialSpec)
    m0: float = 120.0
    k0: float = 90.0
    sigma: float = 100.0
    impact: tuple = (0.0, 2.0)
    threshold: float = 0.0005
    m_lo: int = 48
    m_hi: int = 203
    resonance_k_max: float = 130.0
    max_im_k: float | None = None
    grid_r_max: float = 8.0
    grid_nr: int = 1200
    grid_ntheta: int = 1024
    gh_times_pre: tuple = (0.4, 0.5, 0.6)
    gh_times_post: tuple = (1.4, 1.5, 1.6)
    husimi_times: tuple = (7.5, 10.0)
    husimi_alpha: tuple = (-0.15, 0.05, 0.005)
    husimi_d: tuple = (2.0, 7.0, 0.05)
    husimi_h: tuple = (1.0, 4.0, 0.02)
    husimi_mu: float = 0.15**2 / 2.0
    fraction_times: tuple = (1.6, 2.0)
    jobs: int = 1

    @property
    def packet(self) -> PacketSpec:
        return PacketSpec(m0=self.m0, k0=self.k0, sigma=self.sigma,
                          impact=self.impact)

    @property
    def grid(self) -> GridSpec:
        return GridSpec(r_max=self.grid_r_max, nr=self.grid_nr,
                        ntheta=self.grid_ntheta)


def preset_config(name: str, jobs: int = 1) -> ScenarioConfig:
    """Calibrated table windows and grids for the standard packets."""
    if name not in PRESETS:
        raise CurvewaveError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    m0, k0 = PRESETS[name]
    cfg = ScenarioConfig(preset=name, m0=m0, k0=k0, jobs=jobs)
    if name == "A":
        cfg = replace(cfg, m_lo=2, m_hi=150, resonance_k_max=118.0)
    elif name == "B":
        cfg = replace(cfg, m_lo=48, m_hi=203, resonance_k_max=130.0)
    else:
        cfg = replace(cfg, m_lo=68, m_hi=212, resonance_k_max=k0 + 40.0,
                      grid_r_max=3.0, grid_nr=800)
    return cfg


def _fmt_floats(values) -> str:
    return " ".join(map(ser.fmt, values))


def save_config(cfg: ScenarioConfig, path) -> None:
    """Write every field but ``jobs`` (a run setting, from ``--jobs``)."""
    cp = configparser.ConfigParser(interpolation=None)
    cp["potential"] = {k: ser.fmt(v) for k, v in (("radius", cfg.potential.radius),
                                                  ("v0", cfg.potential.v0),
                                                  ("mass", cfg.potential.mass),
                                                  ("hbar", cfg.potential.hbar))}
    cp["packet"] = {"preset": cfg.preset, "m0": ser.fmt(cfg.m0),
                    "k0": ser.fmt(cfg.k0), "sigma": ser.fmt(cfg.sigma),
                    "impact_x": ser.fmt(cfg.impact[0]),
                    "impact_y": ser.fmt(cfg.impact[1])}
    cp["expansion"] = {"threshold": ser.fmt(cfg.threshold)}
    cp["table"] = {"m_lo": str(cfg.m_lo), "m_hi": str(cfg.m_hi),
                   "resonance_k_max": ser.fmt(cfg.resonance_k_max)}
    if cfg.max_im_k is not None:            # absent: the solver's default
        cp["table"]["max_im_k"] = ser.fmt(cfg.max_im_k)
    cp["grid"] = {"r_max": ser.fmt(cfg.grid_r_max), "nr": str(cfg.grid_nr),
                  "ntheta": str(cfg.grid_ntheta)}
    cp["times"] = {"gh_pre": _fmt_floats(cfg.gh_times_pre),
                   "gh_post": _fmt_floats(cfg.gh_times_post),
                   "husimi": _fmt_floats(cfg.husimi_times),
                   "fractions": _fmt_floats(cfg.fraction_times)}
    cp["husimi"] = {"alpha": _fmt_floats(cfg.husimi_alpha),
                    "d": _fmt_floats(cfg.husimi_d),
                    "h": _fmt_floats(cfg.husimi_h),
                    "mu": ser.fmt(cfg.husimi_mu)}
    with ser.atomic_write(path) as f:
        cp.write(f)


def load_config(path) -> ScenarioConfig:
    """Read a config; options an older file lacks keep their defaults."""
    cp = configparser.ConfigParser(interpolation=None)
    with open(path) as f:
        cp.read_file(f)
    pot = PotentialSpec(radius=cp.getfloat("potential", "radius", fallback=2.0),
                        v0=cp.getfloat("potential", "v0", fallback=5000.0),
                        mass=cp.getfloat("potential", "mass", fallback=1.0),
                        hbar=cp.getfloat("potential", "hbar", fallback=1.0))
    cfg = ScenarioConfig(
        preset=cp.get("packet", "preset", fallback="custom"),
        potential=pot,
        m0=cp.getfloat("packet", "m0"),
        k0=cp.getfloat("packet", "k0"),
        sigma=cp.getfloat("packet", "sigma", fallback=100.0),
        impact=(cp.getfloat("packet", "impact_x", fallback=0.0),
                cp.getfloat("packet", "impact_y", fallback=pot.radius)),
        threshold=cp.getfloat("expansion", "threshold", fallback=0.0005),
        m_lo=cp.getint("table", "m_lo"),
        m_hi=cp.getint("table", "m_hi"),
        resonance_k_max=cp.getfloat("table", "resonance_k_max"),
        max_im_k=cp.getfloat("table", "max_im_k", fallback=None),
        grid_r_max=cp.getfloat("grid", "r_max", fallback=8.0),
        grid_nr=cp.getint("grid", "nr", fallback=1200),
        grid_ntheta=cp.getint("grid", "ntheta", fallback=1024),
    )
    for section, key, attr in (("times", "gh_pre", "gh_times_pre"),
                               ("times", "gh_post", "gh_times_post"),
                               ("times", "husimi", "husimi_times"),
                               ("times", "fractions", "fraction_times"),
                               ("husimi", "alpha", "husimi_alpha"),
                               ("husimi", "d", "husimi_d"),
                               ("husimi", "h", "husimi_h")):
        if cp.has_option(section, key):
            setattr(cfg, attr, tuple(float(v) for v in cp.get(section, key).split()))
    cfg.husimi_mu = cp.getfloat("husimi", "mu", fallback=cfg.husimi_mu)
    return cfg


class Workspace:
    """Cached pipeline stages for one config rooted at an output directory."""

    def __init__(self, cfg: ScenarioConfig, out_dir):
        self.cfg = cfg
        self.out = str(out_dir)
        os.makedirs(self.out, exist_ok=True)
        self._table = None
        self._expansion = None
        self._evol_expansion = None
        self._evaluators = {}

    def path(self, name: str) -> str:
        return os.path.join(self.out, name)

    @property
    def modes_path(self) -> str:
        return self.path(f"modes_{self.cfg.preset}.txt")

    def table(self, solve: bool = True) -> ModeTable:
        if self._table is None:
            if os.path.exists(self.modes_path):
                self._table = ser.load_modes(self.modes_path)
            elif solve:
                self._table = self.solve_table()
            else:
                raise CurvewaveError(
                    f"mode table {self.modes_path} missing; run 'modes' or pass --solve")
        return self._table

    def solve_table(self) -> ModeTable:
        cfg = self.cfg
        table = build_mode_table(cfg.potential, range(cfg.m_lo, cfg.m_hi + 1),
                                 resonance_k_max=cfg.resonance_k_max,
                                 max_im_k=cfg.max_im_k)
        ser.save_modes(self.modes_path, table)
        # the seeds the solver rejected (m, seed, reason), kept beside the table
        ser.write_json(self.path(f"diagnostics_{cfg.preset}.json"), table.diagnostics)
        self._table = table
        return table

    def expansion(self) -> Expansion:
        """Thresholded expansion (the counting/artifact object).

        The uniform cut of the evolution expansion: both come from one
        coefficient pass.
        """
        if self._expansion is None:
            self._expansion = self.evolution_expansion().thresholded()
        return self._expansion

    def evolution_expansion(self) -> Expansion:
        """Expansion used for time evolution: resonance sector untruncated.

        Truncating resonances orphans their exponentially growing exterior
        tails (they only cancel collectively), so evolution keeps the whole
        sector while counts still use the thresholded object.
        """
        if self._evol_expansion is None:
            self._evol_expansion = expand(self.cfg.packet, self.table(),
                                          threshold=self.cfg.threshold,
                                          resonance_threshold=0.0,
                                          jobs=self.cfg.jobs)
        return self._evol_expansion

    def evaluator(self, grid: GridSpec | None = None) -> FieldEvaluator:
        grid = grid or self.cfg.grid
        key = (grid.r_max, grid.nr, grid.ntheta)
        if key not in self._evaluators:
            self._evaluators[key] = FieldEvaluator(self.evolution_expansion(),
                                                   self.table(), grid,
                                                   jobs=self.cfg.jobs)
        return self._evaluators[key]


def _metric(value, ref):
    paper, tol = ref
    ok = (value is not None and np.isfinite(value)
          and tol is not None and abs(value - paper) <= tol)
    return {"value": None if value is None else float(value),
            "paper_value": paper, "tolerance": tol, "pass": bool(ok)}


def run_expand(ws: Workspace) -> dict:
    cfg = ws.cfg
    exp = ws.expansion()
    ser.save_expansion(ws.path(f"expansion_{cfg.preset}.txt"), exp, cfg.packet)
    counts = {
        "entries": len(exp),
        "modes_total": len(exp.mode_ids()),
        "modes_bound": exp.count_modes(BOUND),
        "modes_tunneling": exp.count_modes(TUNNELING),
        "modes_leaky": exp.count_modes("leaky"),
        "bound_weight": exp.bound_weight(),
        "threshold": cfg.threshold,
    }
    ser.write_json(ws.path(f"expansion_counts_{cfg.preset}.json"), counts)
    return counts


def run_gh(ws: Workspace) -> dict:
    cfg = ws.cfg
    spec = cfg.packet
    ev = ws.evaluator()
    samples = []
    rows = []
    for t in list(cfg.gh_times_pre) + list(cfg.gh_times_post):
        frame = ev.snapshot(t, spec.s0).polar_frame()
        pos = obs.average_position(frame)
        samples.append(obs.TrajectorySample(t, tuple(pos)))
        rows.append((t, pos[0], pos[1], "all"))
    ser.write_csv(ws.path(f"gh_fit_{cfg.preset}.csv"), ("t", "x", "y", "mask"), rows)
    n_pre = len(cfg.gh_times_pre)
    fit = obs.gh_fit(samples[:n_pre], samples[n_pre:], spec)
    theory = barrier1d.gh_theory(spec.m0, spec.k0, cfg.potential)
    out = {
        "l_gh": fit.l_gh,
        "chi_r_factor": fit.chi_r_factor,
        "delay_s0": fit.delay / spec.s0,
        "theory_l_gh": theory["l_gh"],
        "theory_delay_s0": theory["delay"] / spec.s0,
    }
    ser.write_json(ws.path(f"gh_{cfg.preset}.json"), out)
    return out


def run_husimi(ws: Workspace) -> dict:
    cfg = ws.cfg
    spec = cfg.packet
    pot = cfg.potential
    grid = GridSpec(r_max=8.7, nr=2400, ntheta=cfg.grid_ntheta)
    ev = ws.evaluator(grid)
    t1, t2 = cfg.husimi_times
    snaps = {t: ev.snapshot(t, spec.s0) for t in (t1, t2)}
    alphas = np.arange(cfg.husimi_alpha[0], cfg.husimi_alpha[1] + 1e-12,
                       cfg.husimi_alpha[2])
    d_grid = np.arange(cfg.husimi_d[0], cfg.husimi_d[1] + 1e-12, cfg.husimi_d[2])
    h_grid = np.arange(cfg.husimi_h[0], cfg.husimi_h[1] + 1e-12, cfg.husimi_h[2])

    out = {"delta_predicted": obs.delta_predicted(ws.expansion(), ws.table(), pot)}
    centroids = {}
    for t in (t1, t2):
        frame = snaps[t].polar_frame()
        try:
            c = obs.average_position(frame, "exterior", pot.radius)
            centroids[t] = (float(c[0]), float(c[1]))
        except CurvewaveError:
            centroids[t] = (float("nan"), float("nan"))
    out["exterior_centroids"] = {str(t): centroids[t] for t in (t1, t2)}

    scans = {t: obs.HusimiScan(snaps[t], d_grid, h_grid, cfg.husimi_mu)
             for t in (t1, t2)}
    failure = None
    try:
        td = obs.tunneling_direction(scans, (t1, t2), alphas, d_grid, h_grid,
                                     cfg.husimi_mu, pot.radius)
    except FitQualityError as err:
        td, failure = err.data, err
    # the curves are written either way: a failed crossing points at them
    ser.write_csv(ws.path(f"f_alpha_{cfg.preset}.csv"), ("alpha", "f"),
                  list(zip(td.alphas, td.f_curve)))
    ser.write_csv(ws.path(f"delta_alpha_{cfg.preset}.csv"),
                  ("alpha", f"delta_t{t1}", f"delta_t{t2}"),
                  list(zip(td.alphas, td.gap_curves[t1], td.gap_curves[t2])))
    if failure is None:
        out.update(alpha_t=td.alpha_t, alpha_t_strength=td.alpha_t_strength,
                   delta=td.delta)
        hf = scans[t1].frame(td.alpha_t, pot.radius)
        rows = [(d, h, hf.values[i, j]) for i, d in enumerate(d_grid)
                for j, h in enumerate(h_grid)]
        ser.write_csv(ws.path(f"husimi_{td.alpha_t:+.4f}_{cfg.preset}.csv"),
                      ("D", "h", "H"), rows)
        track = [obs.TrajectorySample(t, centroids[t], "exterior") for t in (t1, t2)]
        eo = obs.emission_origin(track, spec, td.alpha_t, td.delta)
        out.update(delay_star_s0=eo.delay, back_position=list(eo.back_position),
                   speed_consistent=eo.speed_consistent)
    else:
        out["diagnostics"] = str(failure)
        out.update(alpha_t=None, delta=None, delay_star_s0=None)
    ser.write_json(ws.path(f"husimi_summary_{cfg.preset}.json"), out)
    return out


def run_fractions(ws: Workspace) -> dict:
    cfg = ws.cfg
    spec = cfg.packet
    pot = cfg.potential
    ev = ws.evaluator()
    samples = []
    out = {}
    for t in cfg.fraction_times:
        frame = ev.snapshot(t, spec.s0).polar_frame()
        out[f"interior_fraction_t{t:g}"] = obs.interior_fraction(frame, pot.radius)
        try:
            c = obs.average_position(frame, "exterior", pot.radius)
            samples.append(obs.TrajectorySample(t, tuple(c), "exterior"))
        except CurvewaveError:
            pass
    t_last = cfg.fraction_times[-1]
    out["interior_fraction"] = out[f"interior_fraction_t{t_last:g}"]
    out["transmitted_fraction"] = 1.0 - out["interior_fraction"]
    if len(samples) >= 2:
        try:
            out["transmission_deg"] = obs.transmission_direction(samples, spec)
        except CurvewaveError as err:
            out["transmission_diag"] = str(err)
    ser.write_json(ws.path(f"fractions_{cfg.preset}.json"), out)
    return out


def run_tunnel1d(out_dir, pot: PotentialSpec | None = None,
                 rect: barrier1d.RectBarrier | None = None,
                 modified_m: int = 17, modified_v0: float = 100.0,
                 exit_x: float = 2.7) -> dict:
    """The 1D companion analysis; writes phase curves and packet profiles."""
    os.makedirs(str(out_dir), exist_ok=True)
    bar = rect or barrier1d.RectBarrier()
    es_t = np.linspace(bar.v_min + 0.05, bar.v_max - 0.05, 1500)
    phi_t = barrier1d.transmission_phase_curve(bar, es_t)
    ser.write_csv(os.path.join(str(out_dir), "phase_T.csv"), ("E", "phase"),
                  list(zip(es_t, phi_t)))
    es_r = np.linspace(0.05, bar.v_max - 0.05, 3000)
    phi_r = barrier1d.reflection_phase_curve_rect(bar, es_r)
    ser.write_csv(os.path.join(str(out_dir), "phase_R.csv"), ("E", "phase"),
                  list(zip(es_r, phi_r)))

    e0 = 80.0
    w_narrow = barrier1d.KWindow(k0=math.sqrt(2 * e0), sigma_k=0.5)
    w_broad = barrier1d.KWindow(k0=10.0, sigma_k=1.45)
    pot_mod = PotentialSpec(radius=(pot or PotentialSpec()).radius, v0=modified_v0)
    bar_mod = barrier1d.ModifiedEffBarrier(m=modified_m, pot=pot_mod, exit_x=exit_x)
    q0 = math.sqrt(2.0 * (118.0 - bar_mod.plateau_value))
    w_mod = barrier1d.KWindow(k0=q0, sigma_k=0.55)

    for tag, (w, barrier, x_eval) in {
        "rect_narrow": (w_narrow, bar, bar.x_b),
        "modified": (w_mod, bar_mod, exit_x),
    }.items():
        for t in (0.05, 0.15):
            xs = np.linspace(x_eval, x_eval + 6.0, 400)
            vals = barrier1d.transmitted_profile(w, barrier, xs, t)
            ser.write_csv(os.path.join(str(out_dir), f"packet1d_{tag}_t{t:g}.csv"),
                          ("x", "prob"), list(zip(xs, vals)))

    delays = {
        "rect_delay_phase": barrier1d.linear_phase_slope(
            es_t, phi_t, bar.v_min + 0.5, bar.v_max - 0.5),
        "rect_delay_pointwise_80": barrier1d.delay_from_phase(es_t, phi_t, e0),
        "rect_delay_peak": barrier1d.transmitted_peak_time(w_narrow, bar, bar.x_b,
                                                           -0.1, 0.3),
        "rect_delay_peak_broad": barrier1d.transmitted_peak_time(w_broad, bar,
                                                                 bar.x_b, -0.1, 0.3),
        "rect_reflection_delay": barrier1d.linear_phase_slope(
            es_r, phi_r, 0.5, bar.v_max - 0.5),
        "modified_delay_peak": barrier1d.transmitted_peak_time(
            w_mod, bar_mod, exit_x, -0.1, 0.5, n_t=361),
    }
    delays["delay_ratio"] = delays["modified_delay_peak"] / 0.03
    delays["scaled_prediction"] = delays["delay_ratio"] * 3.0 / 5000.0
    ser.write_json(os.path.join(str(out_dir), "tunnel1d.json"), delays)
    return delays


def run_report(ws: Workspace, tolerance_scale: float = 1.0) -> dict:
    """All metrics of one preset against the reference values."""
    cfg = ws.cfg
    refs = {k: (v[0], None if v[1] is None else v[1] * tolerance_scale)
            for k, v in PAPER_VALUES.get(cfg.preset, {}).items()}
    metrics = {}
    counts = run_expand(ws)
    if "modes_total" in refs:
        metrics["modes_total"] = _metric(counts["modes_total"], refs["modes_total"])
    if "modes_bound" in refs:
        metrics["modes_bound"] = _metric(counts["modes_bound"], refs["modes_bound"])
    if "modes_tunneling" in refs:
        metrics["modes_tunneling"] = _metric(counts["modes_tunneling"],
                                             refs["modes_tunneling"])
    if cfg.preset in ("A", "B"):
        gh = run_gh(ws)
        for key in ("l_gh", "chi_r_factor", "theory_l_gh", "theory_delay_s0"):
            metrics[key] = _metric(gh[key], refs[key])
    if cfg.preset == "B":
        hus = run_husimi(ws)
        metrics["delta_predicted"] = _metric(hus["delta_predicted"],
                                             refs["delta_predicted"])
        metrics["delta"] = _metric(hus.get("delta"), refs["delta"])
        metrics["alpha_t"] = _metric(hus.get("alpha_t"), refs["alpha_t"])
        metrics["delay_star_s0"] = _metric(hus.get("delay_star_s0"),
                                           refs["delay_star_s0"])
        cents = hus["exterior_centroids"]
        for t, tag in ((cfg.husimi_times[0], "t7.5"), (cfg.husimi_times[1], "t10")):
            cx, cy = cents[str(t)]
            metrics[f"centroid_x_{tag}"] = _metric(cx, refs[f"centroid_x_{tag}"])
            metrics[f"centroid_y_{tag}"] = _metric(cy, refs[f"centroid_y_{tag}"])
        res = [mo for mo in ws.table().by_m(120)
               if abs(mo.k.real - 113.0) < 0.5 and mo.klass != BOUND]
        if res:
            k = res[0].k
            metrics["resonance_re_k"] = _metric(k.real, refs["resonance_re_k"])
            ratio = abs(k.imag) / abs(refs["resonance_im_k"][0])
            metrics["resonance_im_k"] = {
                "value": k.imag, "paper_value": refs["resonance_im_k"][0],
                "tolerance": "factor 3",
                "pass": bool(1.0 / 3.0 <= ratio <= 3.0)}
    if cfg.preset in ("C", "D"):
        fr = run_fractions(ws)
        if cfg.preset == "C":
            metrics["interior_fraction"] = _metric(fr["interior_fraction"],
                                                   refs["interior_fraction"])
            metrics["transmission_deg"] = _metric(fr.get("transmission_deg"),
                                                  refs["transmission_deg"])
        else:
            metrics["transmitted_fraction"] = _metric(fr["transmitted_fraction"],
                                                      refs["transmitted_fraction"])
    report = {"preset": cfg.preset, "metrics": metrics,
              "all_pass": all(m["pass"] for m in metrics.values())}
    ser.write_json(ws.path(f"report_{cfg.preset}.json"), report)
    ser.write_json(ws.path("observables.json"),
                   {name: m["value"] for name, m in metrics.items()})
    return report


def report_barrier1d(out_dir, tolerance_scale: float = 1.0) -> dict:
    delays = run_tunnel1d(out_dir)
    refs = {k: (v[0], v[1] * tolerance_scale)
            for k, v in PAPER_VALUES["barrier1d"].items()}
    metrics = {k: _metric(delays[k], refs[k]) for k in refs}
    report = {"preset": "barrier1d", "metrics": metrics,
              "all_pass": all(m["pass"] for m in metrics.values())}
    ser.write_json(os.path.join(str(out_dir), "report_barrier1d.json"), report)
    return report
