import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from curvewave import barrier1d as b1
from curvewave.errors import AccuracyError, DomainError, UnwrapError
from curvewave.potential import PotentialSpec, effective_potential


def test_step_phase_closed_form():
    v0 = 5000.0
    assert b1.step_phase(v0 / 2, v0) == pytest.approx(-math.pi / 2, rel=1e-14)
    assert b1.step_phase(1e-9 * v0, v0) == pytest.approx(-math.pi, abs=1e-4)
    assert b1.step_phase(v0 * (1 - 1e-12), v0) == pytest.approx(0.0, abs=1e-5)
    es = np.linspace(100, 4900, 97)
    phis = [b1.step_phase(e, v0) for e in es]
    assert all(a < b for a, b in zip(phis, phis[1:]))
    assert all(-math.pi < p < 0 for p in phis)
    with pytest.raises(DomainError):
        b1.step_phase(v0, v0)
    with pytest.raises(DomainError):
        b1.step_phase(-1.0, v0)


def test_wigner_delay_matches_phase_derivative():
    v0 = 5000.0
    assert b1.wigner_delay(2500.0, v0) == pytest.approx(2.0 / v0, rel=1e-14)
    # equals the finite difference of the step phase on a full grid
    for e in np.linspace(100, 4900, 100):
        h = 1e-3
        fd = (b1.step_phase(e + h, v0) - b1.step_phase(e - h, v0)) / (2 * h)
        assert b1.wigner_delay(e, v0) == pytest.approx(fd, rel=1e-6)
    # the radial kinetic energy of the reference low packet gives ~4.05e-4
    eps_a = 75.0**2 / 2 - 75.0**2 / 8
    assert b1.wigner_delay(eps_a, v0) == pytest.approx(4.05e-4, abs=0.01e-4)
    assert b1.wigner_delay(eps_a, v0) * 75 == pytest.approx(0.0304, abs=3e-4)


@settings(max_examples=40, deadline=None)
@given(e=st.floats(61.0, 400.0), vmax=st.floats(80.0, 120.0),
       width=st.floats(0.0, 2.0))
def test_rect_flux_conservation(e, vmax, width):
    bar = b1.RectBarrier(v_max=vmax, v_min=60.0, x_a=0.0, x_b=width)
    out = b1.rect_transmission(bar, e)
    assert out["flux"] == pytest.approx(1.0, abs=1e-12)


def test_rect_zero_width_is_single_step():
    bar = b1.RectBarrier(v_max=100.0, v_min=60.0, x_a=0.5, x_b=0.5)
    e = 80.0
    k = math.sqrt(2 * e)
    kp = math.sqrt(2 * (e - 60.0))
    out = b1.rect_transmission(bar, e)
    assert out["t"] == pytest.approx(2 * k / (k + kp), rel=1e-12)


def test_rect_transparent_limit():
    bar = b1.RectBarrier()
    e = 2.0e5
    out = b1.rect_transmission(bar, e)
    assert abs(out["t"]) == pytest.approx(math.sqrt(out["k"] / out["k_out"]), rel=1e-3)
    with pytest.raises(DomainError):
        b1.rect_transmission(bar, 59.0)


def test_rect_phase_curve_values():
    bar = b1.RectBarrier()
    es = np.linspace(60.05, 99.95, 1500)
    phi_t = b1.transmission_phase_curve(bar, es)
    assert np.all(np.abs(np.diff(phi_t)) < math.pi)      # continuous
    # rises by about two radians across the exit window
    assert phi_t[-1] - phi_t[0] == pytest.approx(2.0, abs=0.15)
    slope = b1.linear_phase_slope(es, phi_t, 60.5, 99.5)
    assert slope == pytest.approx(0.05, abs=0.005)
    er = np.linspace(0.05, 99.95, 3000)
    phi_r = b1.reflection_phase_curve_rect(bar, er)
    assert b1.linear_phase_slope(er, phi_r, 0.5, 99.5) == pytest.approx(0.03, abs=0.005)


def test_rect_peak_timing_delays():
    bar = b1.RectBarrier()
    w_narrow = b1.KWindow(k0=math.sqrt(160.0), sigma_k=0.5)
    assert b1.transmitted_peak_time(w_narrow, bar, bar.x_b, -0.1, 0.3) == pytest.approx(
        0.045, abs=0.01)
    w_broad = b1.KWindow(k0=10.0, sigma_k=1.45)
    assert b1.transmitted_peak_time(w_broad, bar, bar.x_b, -0.1, 0.3) == pytest.approx(
        0.045, abs=0.01)


def test_tunneling_packet_domain_and_convergence():
    bar = b1.RectBarrier()
    w = b1.KWindow(k0=math.sqrt(160.0), sigma_k=0.5)
    with pytest.raises(DomainError):
        b1.tunneling_packet_1d(w, bar, 0.5, 0.1)
    val = b1.tunneling_packet_1d(w, bar, 1.5, 0.1)
    assert np.isfinite(abs(val))
    with pytest.raises(AccuracyError):
        b1.tunneling_packet_1d(w, bar, 1.5, 0.1, n_nodes=8)


def test_reflection_modified_unitary_below_step():
    pot = PotentialSpec()
    bar = b1.ModifiedEffBarrier(m=120, pot=pot)
    for eps in (200.0, 1500.0, 3100.0):
        out = b1.reflection_modified(bar, eps)
        assert abs(out["F"]) == pytest.approx(1.0, abs=1e-10)
        assert -math.pi < out["phi_r"] < 0.0
    with pytest.raises(DomainError):
        b1.reflection_modified(bar, 0.0)


def test_reflection_modified_flux_above_step():
    # m = 17, V0 = 100: measurable tunneling flux through the barrier
    pot = PotentialSpec(v0=100.0)
    bar = b1.ModifiedEffBarrier(m=17, pot=pot)
    for e_tot in (105.0, 118.0, 130.0):
        eps = e_tot - bar.plateau_value
        out = b1.reflection_modified(bar, eps)
        q = math.sqrt(2 * eps)
        # outgoing Hankel current through the circle vs 1 - |F|^2
        flux = 2.0 * abs(out["hankel_amp"]) ** 2 / (math.pi * pot.radius) / q
        assert 0.0 < abs(out["F"]) < 1.0
        assert 1.0 - abs(out["F"]) ** 2 == pytest.approx(flux, abs=1e-8)


def test_reflection_modified_tracks_planar_step():
    pot = PotentialSpec()
    bar = b1.ModifiedEffBarrier(m=120, pot=pot)
    es = np.linspace(400, 4600, 600)
    phis = np.unwrap([b1.reflection_modified(bar, float(e))["phi_r"] for e in es])
    ref = np.array([b1.step_phase(e, pot.v0) for e in es])
    sel = (es >= 500) & (es <= 4500)
    assert np.max(np.abs(phis[sel] - ref[sel])) <= 0.05 * math.pi


def test_gh_theory_reference_values():
    pot = PotentialSpec()
    a = b1.gh_theory(75.0, 75.0, pot)
    assert a["l_gh"] == pytest.approx(0.0152, abs=0.0002)
    assert a["delay"] * 75 == pytest.approx(0.0304, rel=0.02)
    b = b1.gh_theory(120.0, 90.0, pot)
    assert b["l_gh"] == pytest.approx(0.0242, abs=0.0003)
    assert b["delay"] * 90 == pytest.approx(0.0363, rel=0.02)
    with pytest.raises(DomainError):
        b1.gh_theory(120.0, 110.0, pot)   # E0 above the step


def test_modified_barrier_peak_delay():
    pot = PotentialSpec(v0=100.0)
    bar = b1.ModifiedEffBarrier(m=17, pot=pot, exit_x=2.7)
    q0 = math.sqrt(2 * (118.0 - bar.plateau_value))
    w = b1.KWindow(k0=q0, sigma_k=0.55)
    delay = b1.transmitted_peak_time(w, bar, 2.7, -0.1, 0.5, n_t=361)
    assert delay == pytest.approx(0.14, abs=0.03)
    assert delay / 0.03 == pytest.approx(4.6, abs=0.7)
    # neighbouring exit choices bracket the same scale
    for xb, lo, hi in ((2.6, 0.08, 0.17), (2.8, 0.12, 0.22)):
        barx = b1.ModifiedEffBarrier(m=17, pot=pot, exit_x=xb)
        d = b1.transmitted_peak_time(w, barx, xb, -0.1, 0.5, n_t=361)
        assert lo < d < hi


def test_barrier_shape_rescaling_consistency():
    # m^2/V0 ~ 2.9 maps the high barrier onto the low one: dimensionless
    # widths at matched E/V0 agree within 5%
    lo = PotentialSpec(v0=100.0)
    hi = PotentialSpec(v0=5000.0)
    for frac in (1.05, 1.18, 1.4):
        w_lo = 17.0 / math.sqrt(2 * (frac * lo.v0 - lo.v0)) - lo.radius
        w_hi = 120.0 / math.sqrt(2 * (frac * hi.v0 - hi.v0)) - hi.radius
        assert w_hi / w_lo == pytest.approx(1.0, abs=0.05)


def test_delay_from_phase_synthetic_and_unwrap_error():
    es = np.linspace(10.0, 20.0, 401)
    phis = 0.3 * es + 0.02 * es**2
    d = b1.delay_from_phase(es, phis, 15.0)
    assert d == pytest.approx(0.3 + 0.04 * 15.0, rel=1e-6)
    jumped = phis.copy()
    jumped[200:] += 2 * math.pi
    with pytest.raises(UnwrapError):
        b1.delay_from_phase(es, jumped, es[200])
    with pytest.raises(DomainError):
        b1.delay_from_phase(es, phis, 25.0)


def test_modified_effective_potential_plateau():
    pot = PotentialSpec()
    bar = b1.ModifiedEffBarrier(m=120, pot=pot)
    # continuity with the interior effective potential at the boundary
    assert bar.plateau_value == pytest.approx(
        effective_potential(pot, 120, pot.radius * (1 - 1e-12)), rel=1e-9)
