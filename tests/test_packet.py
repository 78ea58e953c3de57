import math
import sys

import numpy as np
import pytest
from scipy import special

from curvewave import cylinder, packet
from curvewave.errors import AccuracyError, CoverageError, DomainError
from curvewave.packet import (Expansion, FieldEvaluator, GridSpec, PacketSpec,
                              evolve, expand, gaussian_free, reconstruct)
from curvewave.spectrum import BOUND, ModeTable, build_mode_table


def test_packet_geometry_packet_a():
    spec = PacketSpec(m0=75.0, k0=75.0)
    assert spec.chi == pytest.approx(math.pi / 6, rel=1e-12)
    assert spec.launch_point == pytest.approx([-0.5, 2.0 - math.sqrt(0.75)], rel=1e-12)
    assert spec.launch_point[1] == pytest.approx(1.1340, abs=1e-4)
    assert np.hypot(*(spec.launch_point - np.array([0.0, 2.0]))) == pytest.approx(1.0)
    assert spec.s0 == pytest.approx(1.0 / 75.0)


def test_packet_mirrored_geometry():
    spec = PacketSpec(m0=-75.0, k0=75.0)
    assert spec.launch_point == pytest.approx([0.5, 2.0 - math.sqrt(0.75)], rel=1e-12)
    assert spec.direction[0] < 0


def test_packet_validation():
    with pytest.raises(DomainError):
        PacketSpec(m0=200.0, k0=90.0)           # sin chi >= 1
    with pytest.raises(DomainError):
        PacketSpec(m0=10.0, k0=50.0, sigma=100.0, impact=(0.0, 0.4))  # too large


def test_gaussian_initial_shape():
    spec = PacketSpec(m0=75.0, k0=75.0)
    xy = np.array(spec.launch_point)
    peak = abs(gaussian_free(spec, xy, spec.t0)) ** 2
    # |Psi|^2 is a Gaussian density of this variance: e^{-1/2} one sigma out
    var = (1 + (spec.sigma * spec.t0) ** 2) / (2 * spec.sigma)
    off = abs(gaussian_free(spec, xy + [math.sqrt(var), 0.0], spec.t0)) ** 2
    assert off / peak == pytest.approx(math.exp(-0.5), rel=1e-10)
    # isotropy
    off_y = abs(gaussian_free(spec, xy + [0.0, math.sqrt(var)], spec.t0)) ** 2
    assert off_y == pytest.approx(off, rel=1e-10)


def test_gaussian_norm_and_velocity():
    spec = PacketSpec(m0=120.0, k0=90.0)
    xs = np.linspace(-6, 6, 601)
    xx, yy = np.meshgrid(xs, xs + 1.0, indexing="ij")
    pts = np.stack([xx, yy], axis=-1)
    for t in (spec.t0, 0.0, 0.01):
        vals = gaussian_free(spec, pts.reshape(-1, 2), t).reshape(xx.shape)
        norm = np.trapezoid(np.trapezoid(np.abs(vals) ** 2, xs, axis=1), xs)
        assert norm == pytest.approx(1.0, abs=1e-8)
        cx = np.trapezoid(np.trapezoid(np.abs(vals) ** 2 * xx, xs, axis=1), xs)
        cy = np.trapezoid(np.trapezoid(np.abs(vals) ** 2 * yy, xs, axis=1), xs)
        expected = np.array(spec.impact) + spec.k0 * spec.direction * t
        assert np.array([cx, cy]) == pytest.approx(expected, abs=1e-8)


def test_deep_packet_bound_subspace(deep_expansion):
    # fully interior packet: bound modes alone reconstruct it
    assert deep_expansion.bound_weight() >= 0.999
    assert deep_expansion.bound_weight() <= 1.0 + 1e-6
    assert deep_expansion.count_modes(BOUND) == deep_expansion.count_modes()


def _assert_same_expansion(a, b):
    for name in ("m", "n", "branch", "coeff", "klass"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert a.threshold == b.threshold


def test_threaded_tabulation_matches_serial_bitwise(deep_packet, small_table,
                                                    deep_expansion):
    # the fixture expansion tabulates its profiles on 2 threads
    _assert_same_expansion(expand(deep_packet, small_table, threshold=0.0005,
                                  jobs=1), deep_expansion)
    grid = GridSpec(r_max=4.0, nr=400, ntheta=256)
    snaps = [FieldEvaluator(deep_expansion, small_table, grid, jobs=jobs)
             .snapshot(0.7, deep_packet.s0) for jobs in (1, 2)]
    assert np.array_equal(snaps[0].cols, snaps[1].cols)
    assert np.array_equal(snaps[0].polar_frame().values, snaps[1].polar_frame().values)

    # more threads than cores, switching as often as the interpreter allows
    rows = np.arange(0, len(small_table), 4)
    r = np.linspace(0.01, 4.0, 300)
    serial = packet._profile_table(small_table, rows, r, jobs=1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = packet._profile_table(small_table, rows, r, jobs=5)
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(serial, threaded)


def _profile_rows_oracle(pot, modes, r):
    """The per-row tabulation the blocked ``_profile_table`` replaced.

    One ``jv`` call per row inside the step, and outside one ratio-array call
    per (m, kind) group of rows with its own edge ``jv`` call: AMOS/cephes
    J_m, independent of the table's Miller recurrence.
    """
    r = np.asarray(r, dtype=float)
    inside = r <= pot.radius
    outside = ~inside
    r_in, r_out = r[inside], r[outside]
    table = np.empty((len(modes), len(r)), dtype=complex)
    tails = {}
    for i, mo in enumerate(modes):
        m, kc = mo.m, complex(mo.k)
        table[i, inside] = special.jv(m, kc.real * r_in if kc.imag == 0.0
                                      else kc * r_in)
        e = pot.hbar**2 * kc * kc / (2.0 * pot.mass)
        evanescent = e.real < pot.v0
        if evanescent:
            q = complex(np.sqrt(2.0 * pot.mass * (pot.v0 - e)) / pot.hbar).real
        else:
            q = complex(np.sqrt(2.0 * pot.mass * (e - pot.v0)) / pot.hbar)
        tails.setdefault((m, evanescent), []).append((i, kc, q))
    for (m, evanescent), group in tails.items():
        idx, k, q = (np.array(col) for col in zip(*group))
        ratio_array = (cylinder.bessel_k_ratio_array if evanescent
                       else cylinder.hankel1_ratio_array)
        ratio = ratio_array(m, q[:, None] * r_out, q * pot.radius)
        table[np.ix_(idx, outside)] = special.jv(m, k * pot.radius)[:, None] * ratio
    return table


def test_profile_table_blocks_match_per_row_oracle(small_table, monkeypatch):
    # every resonance and every 8th bound mode, in table order; radii on
    # both sides of R (R itself appended, unsorted) and out to 9, where the
    # most damped resonance's H^(1) argument falls below Im z = -4.  The
    # table's J_m is a Miller recurrence, the oracle's is jv, whose own error
    # against mpmath reaches 2e-13 of a row's largest value near the turning
    # point, so they agree to that; the table is bitwise the same for any jobs
    pot = small_table.pot
    rows = np.flatnonzero((np.arange(len(small_table)) % 8 == 0)
                          | (small_table.klass != BOUND))
    r = np.append(np.linspace(0.01, 9.0, 160), pot.radius)
    oracle = _profile_rows_oracle(pot, [small_table.modes[i] for i in rows], r)

    m, k = small_table.m[rows], small_table.k[rows]
    resonance = small_table.klass[rows] != BOUND
    assert np.any(resonance) and not np.all(resonance)
    assert np.any(resonance & (k.imag == 0.0)) and np.any(k.imag != 0.0)
    assert np.any(r < pot.radius) and np.any(r > pot.radius)
    q = np.sqrt(k[resonance] ** 2 - 2.0 * pot.v0)
    assert np.min(q.imag) * r.max() < -4.0
    n_blocks = -(-oracle.size // packet.PROFILE_BLOCK)
    starts = np.cumsum([len(b) for b in
                        np.array_split(np.arange(len(rows)), n_blocks)])[:-1]
    assert n_blocks > 1 and np.any(m[starts - 1] == m[starts])

    table = packet._profile_table(small_table, rows, r, 1)
    envelope = np.max(np.abs(oracle), axis=1, keepdims=True)
    assert np.all(np.abs(table - oracle) <= 2e-13 * envelope)
    for jobs in (2, 5):
        assert np.array_equal(packet._profile_table(small_table, rows, r, jobs), table), jobs

    # continuity at R: with the tail ratios set to 1, the value just above R
    # is the tails' edge value J_m(kR), which comes from the same kernel and
    # argument as the interior value at R, so the two are bitwise equal
    def unit(m, z, z_ref):
        return np.ones(np.shape(z))

    monkeypatch.setattr(cylinder, "bessel_k_ratio_array", unit)
    monkeypatch.setattr(cylinder, "hankel1_ratio_array", unit)
    edge = packet._profile_table(small_table, rows,
                                 [pot.radius, np.nextafter(pot.radius, 3.0)])
    assert np.array_equal(edge[:, 1], edge[:, 0])


def test_profile_table_calls_per_block(small_table, monkeypatch):
    # the exterior tails take at most one K and one H^(1) ratio call per
    # block, however many orders the block holds: the same rows with one
    # order make exactly as many calls
    t = small_table
    rows = np.flatnonzero((t.m >= 5) & (t.m < 65))[::3]
    assert len(np.unique(t.m[rows])) >= 50
    one_order = ModeTable(t.pot, np.full(len(rows), 40), np.arange(1, len(rows) + 1),
                          t.k[rows], t.norm[rows], t.c[rows], [])
    r = np.linspace(0.5, 4.0, 120)
    calls = []
    real_pairs = cylinder._exterior_pairs

    def counted(m, z, evanescent, **kw):
        calls.append(len(z))
        return real_pairs(m, z, evanescent, **kw)

    monkeypatch.setattr(cylinder, "_exterior_pairs", counted)
    counts = []
    for table, at in ((t, rows), (one_order, np.arange(len(rows)))):
        calls.clear()
        packet._profile_table(table, at, r, jobs=2)
        counts.append(len(calls))
    n_blocks = -(-len(rows) * len(r) // packet.PROFILE_BLOCK)
    assert 0 < counts[0] <= 2 * n_blocks
    assert counts[0] == counts[1]


def test_profile_q_and_evaluator_norms_match_scalar_forms(table_b, expansion_b_evolution,
                                                          monkeypatch):
    # the tails' q comes from the energy column and the evaluator scales each
    # row by sqrt(2 pi norm/pi); both equal the complex scalar expressions
    # they replaced, bitwise, on every row of table B
    t = table_b
    pot = t.pot
    q_scalar = np.empty(len(t), dtype=complex)
    evanescent = np.empty(len(t), dtype=bool)
    for i, kc in enumerate(t.k.tolist()):
        e = pot.hbar**2 * kc * kc / (2.0 * pot.mass)
        evanescent[i] = e.real < pot.v0
        if evanescent[i]:
            q_scalar[i] = complex(np.sqrt(2.0 * pot.mass * (pot.v0 - e)) / pot.hbar).real
        else:
            q_scalar[i] = complex(np.sqrt(2.0 * pot.mass * (e - pot.v0)) / pot.hbar)
    edge_args = {}

    def spy(kind):
        def ratio(m, z, z_ref):
            edge_args[kind] = z_ref
            return np.ones(np.shape(z))
        return ratio

    monkeypatch.setattr(cylinder, "bessel_k_ratio_array", spy(True))
    monkeypatch.setattr(cylinder, "hankel1_ratio_array", spy(False))
    # one radius: a single block, so one call per kind over all its rows
    packet._profile_table(t, np.arange(len(t)), [pot.radius + 0.5])
    assert np.any(evanescent) and not np.all(evanescent)
    for kind in (True, False):
        assert np.array_equal(edge_args[kind], q_scalar[evanescent == kind] * pot.radius)
    monkeypatch.undo()

    exp = expansion_b_evolution
    ev = FieldEvaluator(exp, t, GridSpec(r_max=3.0, nr=40, ntheta=64))
    used = np.unique(t.rows(exp.m, exp.n))
    raw = packet._profile_table(t, used, ev.r)
    for row, i in enumerate(used.tolist()):
        mo = t.modes[i]
        raw[row] /= np.sqrt(mo.norm / np.pi) * math.sqrt(2.0 * np.pi)
    assert np.array_equal(ev._profiles, raw)


def test_one_pass_cuts_match_separate_expansions(deep_packet, small_table,
                                                 deep_expansion, monkeypatch):
    evolution = expand(deep_packet, small_table, threshold=0.0005,
                       resonance_threshold=0.0, jobs=2)
    # deep_expansion is a separate expand(threshold) call
    _assert_same_expansion(evolution.thresholded(), deep_expansion)
    assert len(evolution) > len(deep_expansion)
    bound = evolution.klass == BOUND
    assert np.array_equal(evolution.coeff[bound],
                          deep_expansion.coeff[deep_expansion.klass == BOUND])

    # both cuts' doubling samples are verified: skew the doubled quadrature
    # of a mode that only the counting cut samples, and the check must trip
    sampled = [packet._doubling_sample(e) for e in (evolution, deep_expansion)]
    evolution_modes = {(m, n) for m, n, _ in sampled[0]}
    counting_only = sorted({(m, n) for m, n, _ in sampled[1]} - evolution_modes)
    assert counting_only
    target = counting_only[0]
    tabulated = []
    real_table = packet._profile_table

    def skewed(table, rows, r, jobs=1):
        out = real_table(table, rows, r, jobs)
        if len(rows) < len(small_table):           # the doubled pass
            ids = list(zip(table.m[rows].tolist(), table.n[rows].tolist()))
            tabulated.extend(ids)
            out[ids.index(target)] *= 1.001
        return out

    monkeypatch.setattr(packet, "_profile_table", skewed)
    with pytest.raises(AccuracyError, match=rf"mode \({target[0]}, {target[1]},"):
        expand(deep_packet, small_table, threshold=0.0005,
               resonance_threshold=0.0, jobs=2)
    assert set(tabulated) == evolution_modes | {(m, n) for m, n, _ in sampled[1]}


def test_panels_end_at_step_and_converge(deep_packet, small_table,
                                         deep_expansion, monkeypatch):
    # record the main and doubled layouts of an expansion on half-width
    # panels; the default main layout is re-laid from the same arguments
    calls = []
    real_nodes = packet._gauss_legendre_nodes

    def recording(lo, hi, panel, radius):
        calls.append((lo, hi, panel, radius))
        return real_nodes(lo, hi, panel, radius)

    monkeypatch.setattr(packet, "_gauss_legendre_nodes", recording)
    monkeypatch.setattr(packet, "PANEL_WIDTH", 0.5 * packet.PANEL_WIDTH)
    halved = expand(deep_packet, small_table, threshold=0.0005, jobs=2)
    lo, hi, panel, radius = calls[0]
    assert radius == small_table.pot.radius and lo < radius < hi
    assert [c[2] for c in calls] == [panel, 0.5 * panel]
    for width in (2.0 * panel, panel, 0.5 * panel):
        nodes, weights = real_nodes(lo, hi, width, radius)
        panels = nodes.reshape(-1, packet.PANEL_NODES)
        half = 0.5 * weights.reshape(panels.shape).sum(axis=1)
        mid = panels.mean(axis=1)
        assert np.all(2.0 * half <= width * (1.0 + 1e-12))
        assert np.sum(2.0 * half) == pytest.approx(hi - lo, rel=1e-12)
        # no panel has R strictly inside it
        assert not np.any((mid - half < radius - 1e-12) & (mid + half > radius + 1e-12))
    main = real_nodes(lo, hi, 2.0 * panel, radius)[0]
    assert deep_expansion.quadrature["radial_nodes"] == len(main)
    assert deep_expansion.quadrature["radial_nodes_beyond_r"] == np.sum(main > radius) > 0
    assert 0.0 <= deep_expansion.quadrature["doubling_residual"] <= 1e-8

    # the default panels are converged over every entry, not only the
    # 24-entry doubling sample (measured gap: 2.5e-16)
    for name in ("m", "n", "branch", "klass"):
        assert np.array_equal(getattr(halved, name), getattr(deep_expansion, name))
    assert np.max(np.abs(halved.coeff - deep_expansion.coeff)) <= 1e-13


def _angular_coefficients_cartesian(spec, nodes, n_theta):
    """The transform that ``packet._angular_coefficients`` replaced:
    ``gaussian_free`` on a Cartesian copy of the (radius, angle) grid."""
    theta = 2.0 * np.pi * np.arange(n_theta) / n_theta
    xy = np.empty((len(nodes), n_theta, 2))
    xy[..., 0] = nodes[:, None] * np.cos(theta)[None, :]
    xy[..., 1] = nodes[:, None] * np.sin(theta)[None, :]
    psi = gaussian_free(spec, xy.reshape(-1, 2), spec.t0).reshape(len(nodes), n_theta)
    return np.fft.fft(psi, axis=1) / n_theta


@pytest.mark.parametrize("spec, n_theta", [
    (PacketSpec(m0=0.0, k0=40.0), 1024),
    (PacketSpec(m0=75.0, k0=75.0), 1024),
    (PacketSpec(m0=-75.0, k0=75.0), 1024),
    (PacketSpec(m0=120.0, k0=90.0), 1024),
    (PacketSpec(m0=140.0, k0=140.0), 2048),
    (PacketSpec(m0=53.0, k0=53.0, sigma=14.4), 1024),
    (PacketSpec(m0=30.0, k0=50.0, impact=(1.2, -1.6)), 1024),
])
def test_angular_coefficients_match_cartesian_path(spec, n_theta):
    # the polar factorisation against the Cartesian path on an expansion's
    # nodes; measured max |difference| / max |coefficient| 6e-15 to 2.9e-14
    # (2.9e-14 at k0 = 140)
    lo, hi = packet._support_interval(spec)
    k_fast = spec.k0 + 6.0 * math.sqrt(spec.sigma / 2.0)
    nodes, _ = packet._gauss_legendre_nodes(lo, hi, packet.PANEL_WIDTH / k_fast, 2.0)
    got = packet._angular_coefficients(spec, nodes, n_theta)
    want = _angular_coefficients_cartesian(spec, nodes, n_theta)
    assert got.shape == want.shape == (len(nodes), n_theta)
    assert np.max(np.abs(got - want)) <= 5e-14 * np.max(np.abs(want))


def _ring_coefficient(log_pre, v, mu):
    """(1/2 pi) int exp(log_pre + v . (cos phi, sin phi)) e^{-i mu phi} dphi.

    Equals exp(log_pre) I_mu(rho) e^{-i mu phi_v} with rho^2 = v . v and
    e^{i phi_v} = (v_x + i v_y)/rho, evaluated in log form with ``ive``.
    """
    rho = np.sqrt(v[0] ** 2 + v[1] ** 2)
    turn = (v[0] - 1j * np.sign(mu) * v[1]) / rho
    with np.errstate(divide="ignore", invalid="ignore"):
        log_i = np.log(special.ive(np.abs(mu), rho)) + np.abs(rho.real)
        log_turn = np.where(mu == 0, 0.0, np.abs(mu) * np.log(turn))
    return np.exp(log_pre + log_i + log_turn)


def test_expansion_matches_closed_form_projection(deep_packet, small_table,
                                                  deep_expansion):
    # Independent of the radial quadrature: the launched Gaussian
    # psi = C0 exp(-alpha d.d + i beta kvec.d), d = x - impact, has the 2D
    # transform C0 (pi/alpha) e^{-i p.impact} exp(-(beta kvec - p)^2/(4 alpha)),
    # and int_0^inf r J_m(kr) psi_mu(r) dr = i^m/(4 pi^2) times the mu-th
    # angular Fourier integral of that transform on |p| = k (one I_m per
    # entry; the transform is entire, so complex k is fine).  The mode's
    # exterior tail replaces J_m beyond R: that correction is a quadrature
    # over [R, hi] against the closed-form angular coefficient psi_mu(r).
    spec, exp = deep_packet, deep_expansion
    rows = small_table.rows(exp.m, exp.n)
    k, norm = small_table.k[rows], small_table.norm[rows]
    m, mu = exp.m, exp.branch * exp.m
    t = spec.t0
    denom = 1.0 + 1j * spec.sigma * t
    alpha, beta = 0.5 * spec.sigma / denom, 1.0 / denom
    kvec, centre = spec.k0 * spec.direction, np.asarray(spec.impact, dtype=float)
    log_c0 = (np.log(math.sqrt(spec.sigma / math.pi) / denom)
              - 1j * spec.e0 * t / denom)

    v = k[None, :] * (beta * kvec / (2.0 * alpha) - 1j * centre)[:, None]
    log_pre = (log_c0 + np.log(np.pi / alpha)
               - (beta**2 * spec.k0**2 + k**2) / (4.0 * alpha))
    whole_plane = 1j**m / (2.0 * np.pi) * _ring_coefficient(log_pre, v, mu)

    radius = small_table.pot.radius
    hi = packet._support_interval(spec)[1]
    assert hi > radius                       # the packet reaches past R
    x, w = np.polynomial.legendre.leggauss(120)
    r = radius + 0.5 * (hi - radius) * (x + 1.0)
    w = 0.5 * (hi - radius) * w
    # psi_mu(r): psi at x = r u is exp(log_ring + r u . (2 alpha centre + i beta kvec))
    log_ring = log_c0 - alpha * (r**2 + centre @ centre) - 1j * beta * (kvec @ centre)
    v_ring = (2.0 * alpha * centre + 1j * beta * kvec)[:, None] * r[None, :]
    mu_values, mu_row = np.unique(mu, return_inverse=True)
    psi_mu = _ring_coefficient(log_ring[None, :], v_ring[:, None, :],
                               mu_values[:, None])[mu_row]
    tail = packet._profile_table(small_table, rows, r)
    interior = special.jv(m[:, None], k[:, None] * r[None, :])
    correction = np.sum(w * r * (tail - interior) * psi_mu, axis=1)
    assert np.max(np.abs(correction)) > 1e-8     # the correction matters

    closed = math.sqrt(2.0 * np.pi) / np.sqrt(norm / np.pi) * (whole_plane + correction)
    # measured floor 1.0e-9: the cut of the quadrature's support at 8 widths
    assert np.max(np.abs(closed - exp.coeff)) <= 1e-8


def test_reconstruction_fidelity_deep(deep_packet, small_table, deep_expansion):
    ev = FieldEvaluator(deep_expansion, small_table,
                        GridSpec(r_max=4.0, nr=700, ntheta=512))
    frame = reconstruct(deep_expansion, small_table, evaluator=ev)
    rr, tt = np.meshgrid(frame.r, frame.theta, indexing="ij")
    xy = np.stack([rr * np.cos(tt), rr * np.sin(tt)], axis=-1)
    ref = gaussian_free(deep_packet, xy.reshape(-1, 2),
                        deep_packet.t0).reshape(rr.shape)
    w = rr * frame.dr * frame.dtheta
    mask = rr < 2.0
    ov = np.sum(np.conj(ref[mask]) * frame.values[mask] * w[mask])
    n1 = np.sum(np.abs(ref[mask]) ** 2 * w[mask])
    n2 = np.sum(np.abs(frame.values[mask]) ** 2 * w[mask])
    assert abs(ov) ** 2 / (n1 * n2) > 0.999


def test_evolve_t0_reproduces_reconstruct_bitwise(small_table, deep_expansion):
    ev = FieldEvaluator(deep_expansion, small_table,
                        GridSpec(r_max=4.0, nr=400, ntheta=256))
    a = reconstruct(deep_expansion, small_table, evaluator=ev)
    b = evolve(deep_expansion, small_table, 0.0, s0=1.0 / 40.0, evaluator=ev)
    assert np.array_equal(a.values, b.values)


def test_evolve_refuses_negative_time(small_table, deep_expansion):
    ev = FieldEvaluator(deep_expansion, small_table,
                        GridSpec(r_max=4.0, nr=200, ntheta=128))
    with pytest.raises(DomainError):
        evolve(deep_expansion, small_table, -0.5, s0=1.0, evaluator=ev)


def test_evolution_linearity(small_table, deep_expansion, deep_packet):
    grid = GridSpec(r_max=4.0, nr=300, ntheta=256)
    exp1 = deep_expansion
    exp2 = exp1.scaled(0.3 - 0.4j)
    alpha, beta = 0.7 + 0.1j, -0.2j
    combo = Expansion(exp1.m, exp1.n, exp1.branch,
                      alpha * exp1.coeff + beta * exp2.coeff,
                      exp1.klass, exp1.threshold)
    t = 0.8
    f1 = evolve(exp1, small_table, t, deep_packet.s0, grid)
    f2 = evolve(exp2, small_table, t, deep_packet.s0, grid)
    fc = evolve(combo, small_table, t, deep_packet.s0, grid)
    lhs = fc.values
    rhs = alpha * f1.values + beta * f2.values
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * np.max(np.abs(lhs))


def test_time_composition_on_bound_subspace(small_table, deep_expansion, deep_packet):
    # evolving by t1 then rephasing by t2 equals evolving by t1 + t2
    grid = GridSpec(r_max=4.0, nr=300, ntheta=256)
    t1, t2 = 0.6, 0.9
    tau2 = t2 * deep_packet.s0
    energy = small_table.energy[small_table.rows(deep_expansion.m, deep_expansion.n)]
    phases = np.exp(-1j * energy * tau2)
    rephased = Expansion(deep_expansion.m, deep_expansion.n, deep_expansion.branch,
                         deep_expansion.coeff * phases, deep_expansion.klass,
                         deep_expansion.threshold)
    a = evolve(rephased, small_table, t1, deep_packet.s0, grid)
    b = evolve(deep_expansion, small_table, t1 + t2, deep_packet.s0, grid)
    assert np.max(np.abs(a.values - b.values)) <= 1e-12 * np.max(np.abs(b.values))


def test_empty_expansion_zero_field(small_table):
    empty = Expansion([], [], [], [], [], 0.0005)
    frame = reconstruct(empty, small_table, GridSpec(r_max=3.0, nr=100, ntheta=64))
    assert np.all(frame.values == 0.0)


def test_coverage_margins_recorded(deep_expansion):
    # the largest |coeff| next to each table edge over the cut, from every
    # coefficient before the cut: below 1 on the deep packet, and None at
    # m = 0, which is no edge
    q = deep_expansion.quadrature
    assert 0.0 < q["coverage_margin_upper_m"] < 1.0
    assert q["coverage_margin_lower_m"] is None
    assert 0.0 < q["coverage_margin_resonance_k"] < 1.0


def test_coverage_error_on_narrow_table(pot, deep_packet):
    narrow = build_mode_table(pot, range(0, 41), resonance_k_max=101.0)
    with pytest.raises(CoverageError):
        expand(deep_packet, narrow, threshold=0.0005)


def test_interior_probability_before_transmission(packet_a, table_a, expansion_a):
    # bound-dominated packet: nothing has left the cavity yet
    ev = FieldEvaluator(expansion_a, table_a, GridSpec(r_max=8.0, nr=1200,
                                                       ntheta=1024))
    from curvewave.observables import total_probability
    for t in (0.4, 0.5, 0.6):
        frame = ev.snapshot(t, packet_a.s0).polar_frame()
        inner = total_probability(frame, "interior", 2.0)
        assert inner / total_probability(frame) > 0.999


def test_transmitted_lobe_bookkeeping(pot, packet_b, table_b, expansion_b_evolution):
    # the lobe outside r = R carries probability comparable to the
    # decay-rate estimate sum |b|^2 (1 - e^{-gamma tau}); the basis-
    # incompleteness floor of the truncated expansion caps the agreement
    exp = expansion_b_evolution
    rows = table_b.rows(exp.m, exp.n)
    tau = 7.5 * packet_b.s0
    res = table_b.klass[rows] != BOUND
    est = np.sum(np.abs(exp.coeff[res]) ** 2 * (1.0 - np.exp(-table_b.gamma[rows[res]] * tau)))
    ev = FieldEvaluator(exp, table_b, GridSpec(r_max=8.5, nr=1700, ntheta=1024))
    frame = ev.snapshot(7.5, packet_b.s0).polar_frame()
    from curvewave.observables import total_probability
    measured = total_probability(frame, "exterior", pot.radius)
    assert est > 0
    assert measured < 1e-4
    assert measured >= est  # signal plus non-negative representation floor
    # analysis-disk probability never increases once outgoing junk/flux has
    # left: every term solves the wave equation, so the continuity equation
    # caps the total by the boundary flux
    totals = [total_probability(ev.snapshot(t, packet_b.s0).polar_frame())
              for t in (4.0, 7.5, 10.0)]
    assert totals[1] <= totals[0] + 1e-6
    assert totals[2] <= totals[1] + 1e-6
