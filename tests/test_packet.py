import math
import sys

import numpy as np
import pytest

from curvewave import packet
from curvewave.errors import AccuracyError, CoverageError, DomainError
from curvewave.packet import (Expansion, FieldEvaluator, GridSpec, PacketSpec,
                              evolve, expand, gaussian_free, reconstruct)
from curvewave.spectrum import BOUND, build_mode_table


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
    modes = small_table.modes[::4]
    r = np.linspace(0.01, 4.0, 300)
    serial = packet._profile_table(small_table.pot, modes, r, jobs=1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = packet._profile_table(small_table.pot, modes, r, jobs=5)
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(serial, threaded)


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

    def skewed(pot, modes, r, jobs=1):
        table = real_table(pot, modes, r, jobs)
        if len(modes) < len(small_table):          # the doubled pass
            tabulated.extend((mo.m, mo.n) for mo in modes)
            for row, mo in enumerate(modes):
                if (mo.m, mo.n) == target:
                    table[row] *= 1.001
        return table

    monkeypatch.setattr(packet, "_profile_table", skewed)
    with pytest.raises(AccuracyError, match=rf"mode \({target[0]}, {target[1]},"):
        expand(deep_packet, small_table, threshold=0.0005,
               resonance_threshold=0.0, jobs=2)
    assert set(tabulated) == evolution_modes | {(m, n) for m, n, _ in sampled[1]}


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
    by_id = {(mo.m, mo.n): mo for mo in small_table.modes}
    tau2 = t2 * deep_packet.s0
    phases = np.array([np.exp(-1j * by_id[(m, n)].energy * tau2)
                       for m, n in zip(deep_expansion.m, deep_expansion.n)])
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
    by_id = {(mo.m, mo.n): mo for mo in table_b.modes}
    tau = 7.5 * packet_b.s0
    est = 0.0
    for m, n, coeff in zip(exp.m.tolist(), exp.n.tolist(), exp.coeff.tolist()):
        mo = by_id[(m, n)]
        if mo.klass != BOUND:
            est += abs(coeff) ** 2 * (1.0 - math.exp(-mo.gamma * tau))
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
