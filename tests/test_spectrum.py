import math
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from scipy import integrate, optimize, special

from curvewave import spectrum
from curvewave.errors import ConvergenceError, DomainError
from curvewave.potential import effective_potential
from curvewave.serialization import load_modes, save_modes
from curvewave.spectrum import (BOUND, LEAKY, TUNNELING, EigenMode, ModeTable,
                                characteristic, count_bound_sturm, delta_j,
                                find_bound_modes, find_resonances, mode_norm)

# verified to 40 digits with an independent high-precision Newton iteration
# on the same matching condition
MPMATH_RESONANCE_120 = 112.99858897416302 - 4.9350916482295402e-06j


def test_effective_potential_values(pot):
    assert effective_potential(pot, 120, 2.0 - 1e-12) == pytest.approx(1800.0, rel=1e-9)
    assert effective_potential(pot, 120, 2.0) == pytest.approx(6800.0, rel=1e-12)
    assert effective_potential(pot, 0, 5.0) == 5000.0
    assert effective_potential(pot, 0, 2.5e5) == 5000.0
    with pytest.raises(DomainError):
        effective_potential(pot, 3, 0.0)
    assert pot.k_top(120) == pytest.approx(math.sqrt(13600.0), rel=1e-12)


def raw_terms(pot, m, k):
    """The two terms of the raw matching determinant, from scipy primitives.

    J'(z) Z(w) and (q/k) J(z) Z'(w), with Z = K_m (scaled by kve) for real k
    below the step and Z = H^(1)_m above it; the determinant is their
    difference.
    """
    z = k * pot.radius
    jp = 0.5 * (special.jv(m - 1, z) - special.jv(m + 1, z))
    if np.all(np.imag(k) == 0) and np.all(np.real(k) < pot.k_step):
        # real k below the step may come as an array (one value per element)
        kap = np.sqrt(pot.k_step**2 - np.real(k)**2)
        w = kap * pot.radius
        kv = special.kve(m, w)
        kvp = -0.5 * (special.kve(m - 1, w) + special.kve(m + 1, w))
        return jp * kv, (kap / k) * special.jv(m, z) * kvp
    q = np.sqrt(k**2 - pot.k_step**2)
    w = q * pot.radius
    h = special.hankel1(m, w)
    hp = 0.5 * (special.hankel1(m - 1, w) - special.hankel1(m + 1, w))
    return jp * h, (q / k) * special.jv(m, z) * hp


def raw_characteristic_bound(pot, m, k):
    """Independent matching determinant straight from scipy primitives."""
    a, b = raw_terms(pot, m, k)
    return a - b


def test_characteristic_away_from_roots(pot):
    val = characteristic(pot, 120, 60.0)
    assert 1e-3 < abs(val) < 10.0


def test_characteristic_at_paper_resonance(pot):
    # the printed eigenvalue is rounded; the solved root satisfies the
    # residual bound while the rounded value sits on the slope
    res = find_resonances(pot, 120, (112.0, 114.0))
    target = [mo for mo in res if abs(mo.k.real - 113.0) < 0.1][0]
    assert abs(characteristic(pot, 120, target.k)) <= 1e-10


def test_characteristic_sign_changes_m75(pot):
    ks = np.linspace(38.0, 99.9, 3000)
    vals = np.real(characteristic(pot, 75, ks))
    changes = np.sum(vals[:-1] * vals[1:] < 0)
    assert changes == count_bound_sturm(pot, 75) == 31


def test_bound_modes_match_bisection_oracle(pot):
    modes = find_bound_modes(pot, 75)
    # independent oracle: brute scan of the raw determinant at 1e-4 step,
    # evaluated over the whole grid at once
    ks = np.arange(37.6, pot.k_step - 1e-9, 1e-4)
    signs = np.sign(raw_characteristic_bound(pot, 75, ks))
    idx = np.nonzero(signs[:-1] * signs[1:] < 0)[0]
    roots = [optimize.brentq(lambda k: raw_characteristic_bound(pot, 75, k),
                             ks[i], ks[i + 1], xtol=1e-12) for i in idx]
    assert len(roots) == len(modes)
    for mo, ref in zip(modes, roots):
        assert mo.k.real == pytest.approx(ref, abs=2e-9)
        assert mo.n >= 1 and mo.klass == BOUND and mo.gamma == 0.0


def test_census_zero_count_matches_jn_zeros():
    # the census counts the zeros of J_m below z from the phase of H^(1)_m;
    # jn_zeros is the oracle, on every m from 0 to z + 5 for z in (0.5, 260],
    # and 1e-12 (relative) to either side of each of the first 30 zeros
    z_grid = np.linspace(0.5, 260.0, 321)[1:]
    m = np.concatenate([np.arange(int(z) + 6) for z in z_grid])
    z = np.concatenate([np.full(int(z) + 6, z) for z in z_grid])
    want = np.empty(m.size, dtype=int)
    for order in range(m.max() + 1):
        zeros = special.jn_zeros(order, int(260.0 / np.pi) + 3)
        at = m == order
        want[at] = np.searchsorted(zeros, z[at])
    assert m.size > 40000 and np.array_equal(spectrum._zeros_below(m, z), want)
    # the phase is unwrapped against the Debye phase, which needs
    # |theta - theta_D| < pi; it stays below pi/2 (0.26 on this grid)
    m, z = m[z > m], z[z > m]
    debye = np.sqrt(z * z - m * m) - m * np.arccos(m / z) - np.pi / 4.0
    assert np.max(np.abs(spectrum._hankel_phase(m, z) - debye)) < np.pi / 2
    for order in (0, 1, 5, 48, 120, 203):
        zeros = special.jn_zeros(order, 30)
        for side, below in ((1.0 - 1e-12, np.arange(30)), (1.0 + 1e-12, np.arange(1, 31))):
            got = spectrum._zeros_below(np.full(30, order), zeros * side)
            assert np.array_equal(got, below), (order, side)


def test_matching_j_pair_against_mpmath(pot):
    # the solver's (J_{m-1}, J_m) at real k and at complex k down to
    # Im k = -max_im_k (Im z = -6 at the default 6/R), in one batch, against
    # 40 digits.  The recurrence's error grows like |z| eps, and the Neumann
    # sum's terms reach e^{|Im z|}, so the normalization loses about
    # e^{|Im z|} eps; measured at most 1.1 (|z| + e^{|Im z|}) eps of the
    # pair's size
    m = np.tile([0, 1, 60, 120, 171, 203], 5)
    k = np.repeat([101.0, 107.3, 113.0, 121.9, 129.9], 6).astype(complex)
    eps = np.finfo(float).eps
    for im_k in (0.0, -0.05, -0.5, -1.5, -3.0):
        kk = k + 1j * im_k
        mt = spectrum._matching(pot, m, kk)
        for i, (mi, zi) in enumerate(zip(m.tolist(), (kk * pot.radius).tolist())):
            with mpmath.workdps(40):
                want = [complex(mpmath.besselj(o, mpmath.mpmathify(zi))) for o in (mi - 1, mi)]
            size = math.hypot(abs(want[0]), abs(want[1]))
            err = max(abs(mt.Jm1[i] - want[0]), abs(mt.J[i] - want[1])) / size
            assert err <= 2.0 * (abs(zi) + math.exp(abs(zi.imag))) * eps, (mi, zi)
            if im_k == 0.0:
                assert mt.Jm1[i].imag == 0.0 and mt.J[i].imag == 0.0


def test_bound_modes_empty_above_window(pot):
    assert find_bound_modes(pot, 201) == []
    assert find_bound_modes(pot, 240) == []


def test_census_matches_count(pot):
    for m in (0, 1, 17, 40, 75, 120, 160, 199):
        assert len(find_bound_modes(pot, m)) == count_bound_sturm(pot, m)


def test_resonance_against_high_precision_root(pot):
    res = find_resonances(pot, 120, (112.5, 113.5))
    assert len(res) == 1
    k = res[0].k
    assert abs(k - MPMATH_RESONANCE_120) / abs(MPMATH_RESONANCE_120) < 1e-9
    assert res[0].klass == TUNNELING
    assert res[0].gamma == pytest.approx(-2 * (k**2 / 2).imag, rel=1e-12)


def test_resonance_gamma_monotone_towards_barrier_top(pot):
    # deep-tunneling widths sit below the double-precision noise floor
    # (|Im k| ~ 1e-15); monotonicity is asserted on the resolved part
    res = find_resonances(pot, 120, (pot.k_step, pot.k_top(120)))
    gammas = [mo.gamma for mo in res if mo.klass == TUNNELING]
    assert len(gammas) >= 6
    resolved = [g for g in gammas if g > 1e-10]
    assert len(resolved) >= 3
    assert all(a < b for a, b in zip(resolved, resolved[1:]))
    assert gammas[-len(resolved):] == resolved


def _g_and_deriv(pot, m, k):
    """(g, dg/dk, scale) of the batched matching kernel at one element."""
    mt = spectrum._matching(pot, [m], [k])
    return mt.g[0], mt.dg[0], mt.scale[0]


def test_newton_derivative_matches_finite_difference(pot):
    for m, k in ((120, 105.3 - 0.001j), (75, 88.2), (40, 101.7 - 0.01j)):
        dk = 1e-6
        # the analytic derivative drives the Newton polish; compare against a
        # finite difference of the unnormalized ratio-form characteristic
        g1 = _g_and_deriv(pot, m, k + dk)[0]
        g0 = _g_and_deriv(pot, m, k - dk)[0]
        dg = _g_and_deriv(pot, m, k)[1]
        assert dg == pytest.approx((g1 - g0) / (2 * dk), rel=1e-5)


def test_mode_norm_bound_vs_quadrature(pot, table_a):
    mo = [m for m in table_a.by_m(75) if m.klass == BOUND][15]
    k = mo.k.real
    kap = math.sqrt(pot.k_step**2 - k**2)
    j_edge = special.jv(75, k * pot.radius)

    def phi(r):
        if r <= pot.radius:
            return special.jv(75, k * r)
        return (j_edge * special.kve(75, kap * r) / special.kve(75, kap * pot.radius)
                * math.exp(-kap * (r - pot.radius)))

    q1, _ = integrate.quad(lambda r: phi(r) ** 2 * r, 0, pot.radius, limit=300)
    q2, _ = integrate.quad(lambda r: phi(r) ** 2 * r, pot.radius, pot.radius + 4,
                           limit=300)
    ref = math.pi * (q1 + q2)
    norm = mode_norm(mo, pot)
    assert norm.real == pytest.approx(ref, rel=1e-8)
    assert abs(norm.imag) <= 1e-12 * abs(norm)


def test_mode_norm_resonance_vs_quadrature(pot):
    mo = find_resonances(pot, 120, (112.5, 113.5))[0]
    k = mo.k
    kout = np.sqrt(k**2 - pot.k_step**2)
    j_edge = special.jv(120, k * pot.radius)

    def phi2(r):
        return special.jv(120, k * r) ** 2 * r

    interior, _ = integrate.quad(lambda r: np.real(phi2(r)), 0, pot.radius, limit=600)
    interior_i, _ = integrate.quad(lambda r: np.imag(phi2(r)), 0, pot.radius, limit=600)
    # closed-form exterior (regularized), written with order ratios of the
    # direct Hankel values
    h = special.hankel1([119, 120, 121], kout * pot.radius)
    rm, rp = h[0] / h[1], h[2] / h[1]
    exterior = -(pot.radius**2 / 2.0) * j_edge**2 * (1.0 - rm * rp)
    ref = math.pi * (interior + 1j * interior_i + exterior)
    assert mode_norm(mo, pot) == pytest.approx(ref, rel=1e-6)


def test_biorthogonality_by_quadrature(pot):
    res = find_resonances(pot, 120, (112.0, 116.0))
    a, b = res[0], res[1]
    ka, kb = a.k, b.k

    def cross(r):
        return special.jv(120, ka * r) * special.jv(120, kb * r) * r

    re, _ = integrate.quad(lambda r: np.real(cross(r)), 0, pot.radius, limit=600)
    im, _ = integrate.quad(lambda r: np.imag(cross(r)), 0, pot.radius, limit=600)
    qa = np.sqrt(ka**2 - pot.k_step**2)
    qb = np.sqrt(kb**2 - pot.k_step**2)
    # Lommel cross integral for the exterior, boundary term at R only
    from curvewave import cylinder
    ja = special.jv(120, ka * pot.radius)
    jb = special.jv(120, kb * pot.radius)
    sa = qa * cylinder.hankel1_logderiv(120, qa * pot.radius)
    sb = qb * cylinder.hankel1_logderiv(120, qb * pot.radius)
    ext = -pot.radius * ja * jb * (sb - sa) / (qa**2 - qb**2)
    total = re + 1j * im + ext
    scale = math.sqrt(abs(a.norm) * abs(b.norm)) / math.pi
    assert abs(total) / scale < 1e-6


def test_classification_thresholds(pot, table_b):
    for mo in table_b.modes:
        if mo.klass == BOUND:
            assert mo.k.imag == 0.0 and mo.k.real < pot.k_step
        elif mo.klass == TUNNELING:
            assert mo.k.real < pot.k_top(mo.m) + 1e-9
        else:
            assert mo.k.real >= pot.k_top(mo.m) - 1e-9
        assert mo.gamma >= 0.0
        assert mo.k.real > pot.k_bottom(mo.m)


def test_derived_columns_equal_scalar_expressions(pot, table_b):
    # energy, gamma and class of every row, bitwise as the complex scalar
    # expressions the per-mode records were built from
    t = table_b
    energy, gamma, klass = [], [], []
    for m, k in zip(t.m.tolist(), t.k.tolist()):
        e = complex(pot.hbar**2 * k * k / (2.0 * pot.mass))
        energy.append(e)
        gamma.append(max(0.0, -2.0 * e.imag))
        if k.imag == 0.0 and k.real < pot.k_step:
            klass.append(BOUND)
        elif k.real < pot.k_top(m):
            klass.append(TUNNELING)
        else:
            klass.append(LEAKY)
    assert np.all(t.energy == np.array(energy))
    assert np.all(t.gamma == np.array(gamma))
    assert t.klass.tolist() == klass
    assert set(klass) == {BOUND, TUNNELING, LEAKY}


def test_rows_lookup_and_sorted_keys(pot, table_b):
    t = table_b
    pick = np.arange(0, len(t), 7)[::-1]
    assert np.array_equal(t.rows(t.m[pick], t.n[pick]), pick)
    assert t.rows([], []).size == 0
    n_max = t.n[t.m == 120].max()
    for m, n in ((120, n_max + 1), (47, 1), (204, 1), (120, 0)):
        with pytest.raises(KeyError):
            t.rows([120, m], [1, n])
    for m, n in (([120, 120], [2, 1]), ([121, 120], [1, 2]), ([120, 120], [1, 1])):
        k = t.k[t.rows(m, [1, 2])]
        with pytest.raises(DomainError, match="not strictly sorted"):
            ModeTable(pot, m, n, k, [1.0, 1.0], [0.0, 0.0], [])


def test_delta_j_values(pot):
    mo = find_resonances(pot, 120, (112.5, 113.5))[0]
    kout = math.sqrt(2.0 * (mo.energy.real - pot.v0))
    assert delta_j(mo, pot) == pytest.approx(120.0 / kout - 2.0, rel=1e-12)
    assert delta_j(mo, pot) == pytest.approx(0.2806, abs=2e-3)
    # defining identity E = V_eff(R + Delta)
    d = delta_j(mo, pot)
    assert effective_potential(pot, 120, pot.radius + d) == pytest.approx(
        mo.energy.real, rel=1e-10)


def test_delta_j_limits_and_errors(pot):
    top = pot.v0 + 120**2 / (2.0 * pot.radius**2)     # V_eff just outside R
    e_near_top = top * (1 - 1e-9)
    k = math.sqrt(2 * e_near_top)
    fake = EigenMode(m=120, n=99, k=complex(k, -1e-9), energy=complex(e_near_top, -1e-7),
                     gamma=2e-7, c=0j, norm=1.0 + 0j, klass=TUNNELING)
    assert 0.0 < delta_j(fake, pot) < 1e-4
    bound = EigenMode(m=120, n=1, k=80.0 + 0j, energy=3200.0 + 0j, gamma=0.0,
                      c=0j, norm=1.0 + 0j, klass=BOUND)
    with pytest.raises(DomainError):
        delta_j(bound, pot)
    # leaky above the barrier top: non-positive distance, flagged by sign
    e_above = top * 1.2
    leaky = EigenMode(m=120, n=99, k=complex(math.sqrt(2 * e_above), -0.5),
                      energy=complex(e_above, -50.0), gamma=100.0, c=0j,
                      norm=1.0 + 0j, klass=LEAKY)
    assert delta_j(leaky, pot) <= 0.0


def test_serialization_roundtrip_bit_exact(pot, tmp_path):
    table = spectrum.build_mode_table(pot, [120], resonance_k_max=117.0)
    path = tmp_path / "modes.txt"
    save_modes(path, table)
    again = load_modes(path)
    assert len(again) == len(table)
    for a, b in zip(table.modes, again.modes):
        assert (a.m, a.n) == (b.m, b.n)
        assert a.k == b.k and a.norm == b.norm and a.c == b.c
        assert a.klass == b.klass and a.energy == b.energy
    save_modes(tmp_path / "modes2.txt", again)
    assert (tmp_path / "modes.txt").read_bytes() == (tmp_path / "modes2.txt").read_bytes()


def test_window_roots_satisfy_raw_determinant(pot):
    table = spectrum.build_mode_table(pot, range(118, 123), resonance_k_max=117.0)
    counts = table.counts()
    assert counts[BOUND] > 50 and counts[TUNNELING] > 20
    for mo in table.modes:
        a, b = raw_terms(pot, mo.m, mo.k.real if mo.klass == BOUND else mo.k)
        assert np.isfinite(a) and np.isfinite(b)
        assert abs(a - b) <= 1e-10 * (abs(a) + abs(b)), (mo.m, mo.n, mo.k)


def test_window_solve_equals_per_m_solves(pot):
    m_values = [0, 1, 2, 119, 120, 121, 203]
    diags = []
    table = spectrum.build_mode_table(pot, m_values, resonance_k_max=112.0)
    assert len(table.diagnostics) >= 1
    for m in m_values:
        bound = find_bound_modes(pot, m)
        res = find_resonances(pot, m, (pot.k_step, 112.0), n_start=len(bound) + 1,
                              diagnostics=diags)
        # EigenMode equality compares every float exactly
        assert table.by_m(m) == bound + res
    assert table.diagnostics == diags


def test_newton_stops_seeds_below_kv(pot, monkeypatch):
    # preset B's potential at m = 197-203: each m's seed next to the step
    # falls below k_V at its first step and would not converge there in the
    # 60 steps it used to run; stopped, the resonance search takes a few
    # Newton iterations
    calls, in_newton = {"newton": 0}, []
    matching, newton = spectrum._matching, spectrum._newton

    def counted_matching(*args):
        calls["newton"] += bool(in_newton)
        return matching(*args)

    def marked_newton(*args, **kwargs):
        in_newton.append(True)
        try:
            return newton(*args, **kwargs)
        finally:
            in_newton.pop()

    monkeypatch.setattr(spectrum, "_matching", counted_matching)
    monkeypatch.setattr(spectrum, "_newton", marked_newton)
    table = spectrum.build_mode_table(pot, range(197, 204), resonance_k_max=130.0)
    assert calls["newton"] <= 10
    assert [d["m"] for d in table.diagnostics] == list(range(197, 204))
    assert all(d["reason"] == "left the window below k_V" for d in table.diagnostics)


def test_newton_stop_changes_no_mode(pot, monkeypatch):
    # the seeds next to the step: those of m = 49 and 51 converge inside the
    # window, those of m = 48 and 50 to bound roots below k_V, and m = 203's
    # never converges.  Solved with the stop and with it moved to -inf, the
    # tables are bitwise equal; the stop only lists or relabels seeds
    m_values = [48, 49, 50, 51, 203]
    stopped = spectrum.build_mode_table(pot, m_values, resonance_k_max=101.0)
    newton = spectrum._newton
    monkeypatch.setattr(spectrum, "_newton", lambda pot, m, k0, max_step, k_stop:
                        newton(pot, m, k0, max_step, -np.inf))
    full = spectrum.build_mode_table(pot, m_values, resonance_k_max=101.0)
    for col in ("m", "n", "k", "norm", "c"):
        assert getattr(stopped, col).tobytes() == getattr(full, col).tobytes(), col
    assert stopped.klass.tolist() == full.klass.tolist()
    reason = "left the window below k_V"
    assert {d["m"] for d in stopped.diagnostics if d["reason"] == reason} == {48, 50, 203}
    assert all(d in full.diagnostics or d["reason"] == reason for d in stopped.diagnostics)
    assert [d["m"] for d in full.diagnostics] == [203]

    def seeds(diags):
        return {(d["m"], d["seed"]) for d in diags}

    assert seeds(full.diagnostics) < seeds(stopped.diagnostics)
    edge = stopped.k[(stopped.m == 49) | (stopped.m == 51)]
    assert np.sum(edge.real > pot.k_step) == 2


def test_bound_polish_keeps_exact_zero_iterate(pot, monkeypatch):
    # g(k) = k - 1.5; the false-position start from [1, 2.5] lands on g == 0
    # exactly and must be returned as is.  With no usable derivative (m = 5)
    # any further step would bisect away and never come back to 1.5 exactly;
    # the second bracket (m = 6) polishes by Newton in the same batch
    def fake(pot, m, k):
        k = np.asarray(k, dtype=complex)
        return SimpleNamespace(g=k - 1.5, dg=np.where(np.asarray(m) == 5, 0.0, 1.0) + 0j)

    monkeypatch.setattr(spectrum, "_matching", fake)
    roots = spectrum._polish_brackets(pot, np.array([5, 6]), np.array([1.0, 1.2]),
                                      np.array([2.5, 2.0]), np.array([-0.5, -0.3]),
                                      np.array([1.0, 0.5]))
    assert roots[0] == 1.5
    assert roots[1] == pytest.approx(1.5, abs=1e-13)


def test_bound_census_refinement(pot, monkeypatch):
    want = [mo.k for mo in find_bound_modes(pot, 75)]
    steps = []
    scan = spectrum._scan_bound

    def spy(pot, windows, step):
        steps.append(step)
        return scan(pot, windows, step)

    monkeypatch.setattr(spectrum, "_scan_bound", spy)
    # a scan at twice the mode spacing misses roots until it is refined
    monkeypatch.setattr(spectrum, "_SCAN_STEP_FACTOR", 8 * math.pi / 4.0)
    got = [mo.k for mo in find_bound_modes(pot, 75)]
    assert len(steps) > 1
    assert len(got) == len(want) == count_bound_sturm(pot, 75)
    for a, b in zip(got, want):
        assert abs(a - b) <= 1e-13 * abs(b)
    # refined three times and still short of the census
    monkeypatch.setattr(spectrum, "_SCAN_STEP_FACTOR", 64 * math.pi / 4.0)
    with pytest.raises(ConvergenceError, match="census expects"):
        find_bound_modes(pot, 75)


def test_kernel_matches_raw_determinant_off_axis(pot):
    # g = (raw determinant) / Z_m(qR) at complex k, where the exterior comes
    # from the order recurrence (Im qR > -4) or directly (Im qR < -4)
    for m, k in ((120, 110.0 - 0.1j), (40, 101.7 - 0.01j), (120, 101.0 - 0.5j),
                 (120, 101.0 - 2.5j), (0, 103.0 - 1.0j)):
        w = np.sqrt(k**2 - pot.k_step**2) * pot.radius
        a, b = raw_terms(pot, m, k)
        g = _g_and_deriv(pot, m, k)[0]
        assert abs(g * special.hankel1(m, w) - (a - b)) <= 1e-12 * (abs(a) + abs(b)), (m, k, w)


def test_matching_takes_direct_pair_below_axis(pot):
    # far below the axis (Im qR < -4) the kernel's S is built from the
    # direct pair H^(1)_{m-1}, H^(1)_m, as every other exterior below the axis.
    # g is rebuilt with the kernel's one-element array operations: numpy's
    # complex array arithmetic rounds some products and quotients differently
    # from Python's complex scalars in the last bit.
    for m, k in ((120, 110.0 - 5.0j), (1, 104.0 - 3.0j)):
        mt = spectrum._matching(pot, [m], [k])
        k, m = np.array([k]), np.array([m])
        e = pot.hbar**2 * k * k / (2.0 * pot.mass)
        q = np.sqrt(2.0 * pot.mass * (e - pot.v0)) / pot.hbar
        w = q * pot.radius
        assert w.imag < -4.0
        h = special.hankel1([m[0] - 1, m[0]], w[0])
        rm = h[0] / h[1]
        assert (mt.Z[0], mt.log_scale[0], mt.rm[0]) == (h[1], 0.0, rm)
        sgn = np.array([-1.0])
        S = -0.5 * (sgn * mt.rm + ((2.0 * m / w) + sgn * mt.rm))
        jp = 0.5 * (mt.Jm1 - mt.Jp1)
        assert mt.g[0] == (jp - (q / k) * mt.J * S)[0]
