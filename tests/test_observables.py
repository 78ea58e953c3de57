import math

import numpy as np
import pytest

from curvewave import observables as obs
from curvewave.errors import (DomainError, FitQualityError, RangeError,
                              UndefinedCentroidError)
from curvewave.packet import (Expansion, FieldEvaluator, FieldFrame, GridSpec, PacketSpec,
                              expand)
from curvewave.spectrum import BOUND, build_mode_table, delta_j


def _resonances_120(pot, lo, hi):
    """The m = 120 table up to Re k = hi, and its resonances from Re k = lo."""
    table = build_mode_table(pot, [120], resonance_k_max=hi)
    return table, [mo for mo in table.modes if mo.klass != BOUND and mo.k.real >= lo]


def synthetic_frame(fn, r_max=4.0, nr=500, ntheta=256):
    r = np.linspace(r_max / nr, r_max, nr)
    theta = 2 * np.pi * np.arange(ntheta) / ntheta
    rr, tt = np.meshgrid(r, theta, indexing="ij")
    return FieldFrame(r=r, theta=theta, values=fn(rr, tt), time=0.0)


def test_average_position_symmetry():
    frame = synthetic_frame(lambda r, t: np.exp(-((r - 1.5) ** 2))
                            * (1.0 + 0.5 * np.sin(t)))
    pos = obs.average_position(frame)
    assert abs(pos[0]) < 1e-12
    assert pos[1] > 0.1


def test_average_position_empty_mask():
    frame = synthetic_frame(lambda r, t: np.exp(-5 * (r - 0.8) ** 2))
    with pytest.raises(UndefinedCentroidError):
        obs.average_position(frame, "exterior", radius=2.0)


def test_interior_fraction_bound_only(pot, deep_packet, small_table, deep_expansion):
    ev = FieldEvaluator(deep_expansion, small_table,
                        GridSpec(r_max=4.0, nr=800, ntheta=512))
    fractions, totals = [], []
    # sample away from wall contact: during the bounce the evanescent skirt
    # legitimately holds a few 1e-5 outside r = R
    for t in (0.0, 2.0, 2.8):
        frame = ev.snapshot(t, deep_packet.s0).polar_frame()
        fractions.append(obs.interior_fraction(frame, pot.radius))
        totals.append(obs.total_probability(frame))
    assert fractions[0] > 1.0 - 1e-6
    assert max(fractions) - min(fractions) < 1e-6
    # no decay channel: the analysis-disk total is conserved, bounce or not
    frame = ev.snapshot(1.3, deep_packet.s0).polar_frame()
    totals.append(obs.total_probability(frame))
    assert max(totals) - min(totals) <= 1e-6 * max(totals)


def test_snapshot_observables_match_frame_path(table_a, packet_a, expansion_a):
    """The observables from a snapshot's angular columns against its polar frame.

    The columns give the exact theta integrals of |psi|^2 against 1 and
    e^{i theta} (Parseval); the frame's trapezoid sum over ntheta samples
    equals them only while 2 max|mu| + 1 < ntheta, which this grid meets.
    Preset A's packet, its mirror and a rotated copy, at three times, on all
    three masks (the exterior at a low probability floor: A keeps about 1e-8
    beyond R).  Measured: probabilities within 6.8e-16 relative, centroids
    within 9.8e-16 of their size.
    """
    beta = 0.7
    grid = GridSpec(r_max=3.0, nr=300, ntheta=512)
    mirrored = PacketSpec(m0=-packet_a.m0, k0=packet_a.k0)
    rotated = PacketSpec(m0=packet_a.m0, k0=packet_a.k0,
                         impact=(2.0 * math.sin(beta), 2.0 * math.cos(beta)))
    cases = [(packet_a, expansion_a)] + [
        (spec, expand(spec, table_a, threshold=0.0005, jobs=2)) for spec in (mirrored, rotated)]
    radius = table_a.pot.radius
    for spec, exp in cases:
        ev = FieldEvaluator(exp, table_a, grid, jobs=2)
        for t in (0.0, 1.5, 3.0):
            snap = ev.snapshot(t, spec.s0)
            assert 2 * np.abs(snap.mu_values).max() + 1 < grid.ntheta
            frame = snap.polar_frame()
            for mask in ("all", "interior", "exterior"):
                want = obs.total_probability(frame, mask, radius)
                got = obs.total_probability(snap, mask, radius)
                assert abs(got - want) <= 4e-15 * want, (spec, t, mask)
                want = obs.average_position(frame, mask, radius, min_probability=1e-12)
                got = obs.average_position(snap, mask, radius, min_probability=1e-12)
                assert np.max(np.abs(got - want)) <= 4e-15 * np.max(np.abs(want)), (spec, t, mask)
            want = obs.interior_fraction(frame, radius)
            assert abs(obs.interior_fraction(snap, radius) - want) <= 4e-15 * want
        # an empty mask (the exterior of the whole grid) has no centroid on either path
        for field in (snap, frame):
            with pytest.raises(UndefinedCentroidError):
                obs.average_position(field, "exterior", grid.r_max)


def delayed_bounce_track(spec, shift, factor, ts):
    """Independent model of the delayed, angle-modified bounce (oracle)."""
    R = spec.boundary_radius
    chi = spec.chi
    psi = shift / R
    t_b = 1.0 + shift / math.sin(chi)
    n = np.array([math.sin(psi), math.cos(psi)])
    tv = np.array([math.cos(psi), -math.sin(psi)])
    d = math.sin(factor * chi) * tv - math.cos(factor * chi) * n
    return [obs.TrajectorySample(t, tuple(n * R + (t - t_b) * d)) for t in ts]


def test_gh_fit_specular_identity():
    spec = PacketSpec(m0=75.0, k0=75.0)
    pre = [obs.TrajectorySample(t, tuple(spec.launch_point + t * spec.direction))
           for t in (0.4, 0.5, 0.6)]
    post = delayed_bounce_track(spec, 0.0, 1.0, (1.4, 1.5, 1.6))
    fit = obs.gh_fit(pre, post, spec)
    assert fit.l_gh == pytest.approx(0.0, abs=1e-9)
    assert fit.chi_r_factor == pytest.approx(1.0, abs=1e-9)


def test_gh_fit_recovers_known_parameters():
    spec = PacketSpec(m0=120.0, k0=90.0)
    pre = [obs.TrajectorySample(t, tuple(spec.launch_point + t * spec.direction))
           for t in (0.4, 0.5, 0.6)]
    post = delayed_bounce_track(spec, 0.024, 1.025, (1.4, 1.5, 1.6))
    fit = obs.gh_fit(pre, post, spec)
    assert fit.l_gh == pytest.approx(0.024, abs=1e-8)
    assert fit.chi_r_factor == pytest.approx(1.025, abs=1e-7)
    assert fit.delay == pytest.approx(0.024 / (120.0 / 2.0), rel=1e-8)


def test_gh_fit_rotation_invariance():
    # rotate the potential, the packet and every sample by beta: the scalar
    # outputs are unchanged and the reflection point rotates along
    beta = 0.83
    cb, sb = math.cos(beta), math.sin(beta)
    rot = np.array([[cb, -sb], [sb, cb]])
    spec0 = PacketSpec(m0=120.0, k0=90.0)
    spec1 = PacketSpec(m0=120.0, k0=90.0, impact=tuple(rot @ [0.0, 2.0]))
    pre0 = [obs.TrajectorySample(t, tuple(spec0.launch_point + t * spec0.direction))
            for t in (0.4, 0.5, 0.6)]
    post0 = delayed_bounce_track(spec0, 0.02, 1.02, (1.4, 1.5, 1.6))
    fit0 = obs.gh_fit(pre0, post0, spec0)
    pre1 = [obs.TrajectorySample(s.t, tuple(rot @ s.position)) for s in pre0]
    post1 = [obs.TrajectorySample(s.t, tuple(rot @ s.position)) for s in post0]
    fit1 = obs.gh_fit(pre1, post1, spec1)
    assert fit1.l_gh == pytest.approx(fit0.l_gh, abs=1e-9)
    assert fit1.chi_r_factor == pytest.approx(fit0.chi_r_factor, abs=1e-9)
    assert np.asarray(fit1.reflection_point) == pytest.approx(
        rot @ np.asarray(fit0.reflection_point), abs=1e-9)


def test_gh_fit_quality_errors():
    spec = PacketSpec(m0=75.0, k0=75.0)
    pre = [obs.TrajectorySample(t, tuple(spec.launch_point + t * spec.direction))
           for t in (0.4, 0.5, 0.6)]
    post = delayed_bounce_track(spec, 0.0, 1.0, (1.4, 1.5, 1.6))
    bad_pre = [obs.TrajectorySample(s.t, (s.position[0] + 0.1, s.position[1]))
               for s in pre]
    with pytest.raises(FitQualityError):
        obs.gh_fit(bad_pre, post, spec)
    bent = post[:2] + [obs.TrajectorySample(1.6, (post[2].position[0] + 0.2,
                                                  post[2].position[1]))]
    with pytest.raises(FitQualityError):
        obs.gh_fit(pre, bent, spec)
    with pytest.raises(FitQualityError):
        obs.gh_fit(pre[:2], post, spec)


def test_husimi_plane_wave_ridge():
    k = 30.0
    def field_at(pts):
        return np.exp(1j * k * pts[:, 0])
    hf = obs.emission_husimi(field_at, 0.0, np.linspace(2.0, 3.0, 11),
                             np.linspace(1.0, 3.0, 41), 0.15**2 / 2, 2.0,
                             check_range=False)
    assert np.all(hf.values >= 0)
    # uniform up to the 6-sigma window truncation (~1e-9 relative)
    spread = hf.values.max(axis=1) - hf.values.min(axis=1)
    assert np.max(spread) <= 1e-6 * hf.values.max()
    assert hf.strength > 0


def test_husimi_range_error():
    def field_at(pts):
        return np.exp(-10 * ((pts[:, 0] - 2.1) ** 2 + (pts[:, 1] - 3.9) ** 2))
    with pytest.raises(RangeError):
        obs.emission_husimi(field_at, 0.0, np.linspace(2.0, 3.0, 11),
                            np.linspace(1.0, 4.0, 61), 0.15**2 / 2, 2.0)


def test_single_mode_husimi_gap(pot):
    table, (mo,) = _resonances_120(pot, 112.5, 113.5)
    exp = Expansion([mo.m], [mo.n], [-1], [1.0 + 0j], [mo.klass], 0.0)
    ev = FieldEvaluator(exp, table, GridSpec(r_max=8.7, nr=2000, ntheta=1024))
    snap = ev.snapshot(0.0, 1.0)
    h_grid = np.arange(1.6, 3.2, 0.004)
    hf = obs.emission_husimi(snap.at_points, 0.0, np.array([3.0]), h_grid,
                             0.15**2 / 2, pot.radius, check_range=False)
    h_star = h_grid[np.argmax(hf.values[0])]
    # finite projection distance biases the maximum slightly inward
    assert h_star - pot.radius == pytest.approx(delta_j(mo, pot), abs=0.04)
    hf2 = obs.emission_husimi(snap.at_points, -0.2, np.array([3.0]), h_grid,
                              0.15**2 / 2, pot.radius, check_range=False)
    assert np.max(np.abs(hf2.values - hf.values)) <= 1e-6 * hf.values.max()


def _husimi_curves(field_by_time, alphas, d_grid, h_grid):
    try:
        return obs.tunneling_direction(field_by_time, (0.0, 0.3), alphas, d_grid,
                                       h_grid, 0.15**2 / 2, 2.0)
    except FitQualityError as err:
        return err.data


def test_husimi_contraction_matches_per_angle_scan(pot):
    table, res = _resonances_120(pot, 112.5, 115.5)
    exp = Expansion([r.m for r in res], [r.n for r in res], [-1] * len(res),
                    [1.0 + 0.2j * i for i in range(len(res))],
                    [r.klass for r in res], 0.0)
    ev = FieldEvaluator(exp, table, GridSpec(r_max=8.7, nr=2000, ntheta=1024))
    snaps = {t: ev.snapshot(t, 1.0 / 90.0) for t in (0.0, 0.3)}
    d_grid = np.arange(2.0, 7.0, 0.25)
    h_grid = np.arange(1.0, 4.0, 0.04)
    alphas = np.arange(-0.1, 0.1001, 0.05)
    mu = 0.15**2 / 2
    scans = {t: obs.HusimiScan(snaps[t], d_grid, h_grid, mu) for t in snaps}
    fast = scans[0.0].values(alphas)
    for i, a in enumerate(list(alphas) + [0.0123]):
        ref = obs.emission_husimi(snaps[0.0].at_points, a, d_grid, h_grid, mu,
                                  pot.radius, check_range=False)
        got = scans[0.0].frame(a, pot.radius)
        assert np.max(np.abs(got.values - ref.values)) <= 1e-12 * ref.values.max()
        if i < len(alphas):
            assert np.array_equal(fast[:, :, i], got.values)
        assert got.strength == pytest.approx(ref.strength, rel=1e-12)
        assert got.gap == pytest.approx(ref.gap, abs=1e-12)

    contracted = _husimi_curves(scans, alphas, d_grid, h_grid)
    per_angle = _husimi_curves({t: s.at_points for t, s in snaps.items()},
                               alphas, d_grid, h_grid)
    assert np.max(np.abs(contracted.f_curve - per_angle.f_curve)) \
        <= 1e-12 * np.max(per_angle.f_curve)
    for t in snaps:
        gap_error = contracted.gap_curves[t] - per_angle.gap_curves[t]
        assert np.max(np.abs(gap_error)) <= 1e-12
    with pytest.raises(DomainError):
        obs.HusimiScan(snaps[0.0], d_grid + 4.0, h_grid, mu)


def test_tunneling_direction_failure_carries_curves():
    # lobes with different image distances: the gap curves run parallel
    alpha_star = -0.045
    field_by_time = {7.5: _lobe_field(alpha_star, 0.2)(2.9),
                     10.0: _lobe_field(alpha_star, 0.6)(4.1)}
    alphas = np.arange(-0.15, 0.0501, 0.01)
    with pytest.raises(FitQualityError, match="inspect gap_curves") as info:
        obs.tunneling_direction(field_by_time, (7.5, 10.0), alphas,
                                np.arange(2.0, 7.0, 0.1), np.arange(1.0, 4.0, 0.04),
                                0.15**2 / 2, 2.0)
    curves = info.value.data
    assert curves.alpha_t is None and curves.delta is None
    assert np.array_equal(curves.alphas, alphas)
    assert curves.f_curve.shape == alphas.shape
    diff = curves.gap_curves[7.5] - curves.gap_curves[10.0]
    assert np.all(np.isfinite(diff)) and np.all(np.sign(diff) == np.sign(diff[0]))


def _lobe_field(alpha, delta, R=2.0, width=0.6, k=45.0):
    """Gaussian lobe propagating normal to the alpha-rotated line with the
    apparent source on the image circle; the independent oracle for the
    direction extraction."""
    n = np.array([math.cos(alpha), math.sin(alpha)])
    hhat = np.array([-math.sin(alpha), math.cos(alpha)])
    source = (R + delta) * np.array([abs(math.sin(alpha)), math.cos(alpha)])

    def field_at_t(dist):
        center = source + dist * n
        def field(pts):
            rel = pts - center
            return (np.exp(-np.einsum("ij,ij->i", rel, rel) / (2 * width**2))
                    * np.exp(1j * k * (pts @ n)))
        return field
    return field_at_t


def test_tunneling_direction_synthetic_lobe():
    alpha_star, delta_star = -0.045, 0.324
    make = _lobe_field(alpha_star, delta_star)
    field_by_time = {7.5: make(2.9), 10.0: make(4.1)}
    alphas = np.arange(-0.15, 0.0501, 0.005)
    td = obs.tunneling_direction(field_by_time, (7.5, 10.0), alphas,
                                 np.arange(2.0, 7.0, 0.05),
                                 np.arange(1.0, 4.0, 0.02),
                                 0.15**2 / 2, 2.0)
    assert td.alpha_t == pytest.approx(alpha_star, abs=0.005)
    assert td.alpha_t_strength == pytest.approx(alpha_star, abs=0.01)
    assert td.delta == pytest.approx(delta_star, abs=0.01)


def test_tunneling_direction_mirror_flip():
    alpha_star, delta_star = -0.045, 0.324
    make = _lobe_field(alpha_star, delta_star)

    def mirror(fn):
        return lambda pts: fn(np.column_stack([-pts[:, 0], pts[:, 1]]))

    field_by_time = {7.5: mirror(make(2.9)), 10.0: mirror(make(4.1))}
    alphas = np.arange(-0.05, 0.1501, 0.005)
    td = obs.tunneling_direction(field_by_time, (7.5, 10.0), alphas,
                                 np.arange(-7.0, -2.0, 0.05)[::-1] * -1.0,
                                 np.arange(1.0, 4.0, 0.02),
                                 0.15**2 / 2, 2.0)
    assert td.alpha_t == pytest.approx(-alpha_star, abs=0.005)
    assert td.delta == pytest.approx(delta_star, abs=0.01)


def test_delta_predicted_degenerate_and_scaling(pot):
    table, res = _resonances_120(pot, 112.5, 115.5)
    mo = res[0]
    single = Expansion([mo.m], [mo.n], [-1], [0.37 - 0.1j], [mo.klass], 0.0)
    assert obs.delta_predicted(single, table, pot) == pytest.approx(
        delta_j(mo, pot), rel=1e-12)
    exp = Expansion([r.m for r in res], [r.n for r in res], [-1] * len(res),
                    [0.1 + 0.05j] * len(res), [r.klass for r in res], 0.0)
    d1 = obs.delta_predicted(exp, table, pot)
    d2 = obs.delta_predicted(exp.scaled(3.7j), table, pot)
    assert d1 == pytest.approx(d2, rel=1e-12)
    empty_weight = Expansion([mo.m], [mo.n], [-1], [0.5 + 0j], ["bound"], 0.0)
    with pytest.raises(DomainError):
        obs.delta_predicted(empty_weight, table, pot)


def test_emission_origin_synthetic():
    spec = PacketSpec(m0=120.0, k0=90.0)
    alpha_t, delta = -0.045, 0.324
    R = spec.boundary_radius
    source = np.array([(R + delta) * abs(math.sin(alpha_t)),
                       (R + delta) * math.cos(alpha_t)])
    v = 0.52 * np.array([math.cos(alpha_t), math.sin(alpha_t)])
    samples = [obs.TrajectorySample(t, tuple(source + (t - 1.0) * v))
               for t in (7.5, 10.0)]
    eo = obs.emission_origin(samples, spec, alpha_t, delta)
    assert eo.delay == pytest.approx(0.0, abs=1e-9)
    assert eo.speed_consistent


def test_emission_origin_reference_arithmetic():
    # track through the two reference centroids back-extrapolates to the
    # bounce region at t = 1 and a delay near the reference estimate
    spec = PacketSpec(m0=120.0, k0=90.0)
    samples = [obs.TrajectorySample(7.5, (2.993, 2.192)),
               obs.TrajectorySample(10.0, (4.146, 2.14))]
    eo = obs.emission_origin(samples, spec, -0.045, 0.324)
    assert eo.back_position[0] == pytest.approx(-0.005, abs=0.01)
    assert eo.back_position[1] == pytest.approx(2.326, abs=0.01)
    assert eo.delay == pytest.approx(0.227, abs=0.05)


def test_transmission_direction_synthetic():
    spec = PacketSpec(m0=140.0, k0=122.065)
    exit_angle = math.radians(64.7)
    exit_point = 2.0 * np.array([math.sin(0.3), math.cos(0.3)])
    outward = exit_point / 2.0
    tangent = np.array([outward[1], -outward[0]])
    v = 0.6 * (math.cos(exit_angle) * outward + math.sin(exit_angle) * tangent)
    samples = [obs.TrajectorySample(t, tuple(exit_point + (t - 1.2) * v))
               for t in (1.6, 2.0)]
    assert obs.transmission_direction(samples, spec) == pytest.approx(64.7, abs=1e-6)
