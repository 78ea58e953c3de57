"""Measured quantities of the evolving field.

Average-position trajectories and ray fits for the boundary shift, interior
and transmitted fractions, the emission Husimi projection with its centroid
and strength, the tunneling-direction extraction, the per-mode image-distance
average, and the back-extrapolated emission origin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import simpson

from .errors import DomainError, FitQualityError, RangeError, UndefinedCentroidError
from .packet import FieldFrame, FieldSnapshot, PacketSpec
from .potential import PotentialSpec
from .spectrum import TUNNELING, _image_distance

#: exterior-lobe mask starts this far outside the boundary, past the
#: evanescent skirt that would otherwise bias centroids
EXTERIOR_SKIRT = 0.05

#: largest block of Husimi line samples (bytes) a HusimiScan holds at once
_SCAN_CHUNK_BYTES = 8.0e6


@dataclass(frozen=True)
class TrajectorySample:
    t: float
    position: tuple
    mask: str = "all"


def _mask_selection(field, mask: str, radius: float):
    """Per-radius weight (0 to 1) of a named region.

    The mask edge is anti-aliased over one radial cell, which keeps the
    split second-order accurate in the grid spacing.
    """
    r = field.r
    if mask == "all":
        return np.ones(len(r))
    if mask in ("interior", "exterior"):
        edge = radius if mask == "interior" else radius + EXTERIOR_SKIRT
        sel = np.clip((edge - r) / field.dr + 0.5, 0.0, 1.0)
        return 1.0 - sel if mask == "exterior" else sel
    raise DomainError(f"unknown mask {mask!r}")


def _integrate_radial(r, per_r):
    """Integral over r of ``per_r``, an integrand that vanishes at r = 0.

    The polar Jacobian r makes every integrand here vanish at the origin,
    which closes the grid's core.
    """
    return simpson(np.concatenate([[0.0], per_r]), x=np.concatenate([[0.0], r]))


def total_probability(field: FieldSnapshot | FieldFrame, mask: str = "all",
                      radius: float | None = None) -> float:
    sel = _mask_selection(field, mask, radius if radius is not None else np.inf)
    return float(_integrate_radial(field.r, sel * field.angular_moments()[0] * field.r))


def average_position(field: FieldSnapshot | FieldFrame, mask: str = "all",
                     radius: float | None = None,
                     min_probability: float = 1.0e-6):
    """Probability centroid over the masked region, polar-Jacobian weighted.

    From the field's ``angular_moments``, the theta integrals of |psi|^2
    against 1 and e^{i theta} per radius, with the mask applied per radius.
    A snapshot gives them from its angular columns (Parseval, exact for the
    column sum); a polar frame from its samples.
    """
    sel = _mask_selection(field, mask, radius if radius is not None else np.inf)
    total, first = field.angular_moments()
    total_r = total * field.r
    total_all = _integrate_radial(field.r, total_r)
    prob = _integrate_radial(field.r, sel * total_r)
    if prob < min_probability * total_all:
        raise UndefinedCentroidError(
            f"mask {mask!r} carries {prob:.3e} of {total_all:.3e} total")
    first_r2 = first * (sel * field.r * field.r)
    x = _integrate_radial(field.r, first_r2.real)
    y = _integrate_radial(field.r, first_r2.imag)
    return np.array([x / prob, y / prob])


def interior_fraction(field: FieldSnapshot | FieldFrame, radius: float) -> float:
    """Probability inside r < R relative to the whole analysis disk."""
    inner = total_probability(field, "interior", radius)
    total = total_probability(field, "all")
    return float(inner / total)


@dataclass(frozen=True)
class GHFit:
    l_gh: float
    chi_r_factor: float
    delay: float
    reflection_point: tuple
    chi_r: float
    residual_pre: float
    residual_post: float


def _ray_time_fit(samples):
    """Least-squares linear motion through timed samples: p(t) = p0 + v (t - t_ref)."""
    ts = np.array([s.t for s in samples])
    ps = np.array([s.position for s in samples], dtype=float)
    t_ref = float(ts.mean())
    A = np.vstack([np.ones_like(ts), ts - t_ref]).T
    sol, *_ = np.linalg.lstsq(A, ps, rcond=None)
    fit = A @ sol
    resid = float(np.max(np.hypot(fit[:, 0] - ps[:, 0], fit[:, 1] - ps[:, 1])))
    return sol[0], sol[1], t_ref, resid


def _circle_crossing(p0, v, t_ref, radius, before):
    """Time the ray |p0 + v (t - t_ref)| = radius, latest crossing before ``before``."""
    a = v @ v
    b = 2.0 * (p0 @ v)
    c = p0 @ p0 - radius**2
    disc = b * b - 4.0 * a * c
    if disc <= 0.0:
        raise FitQualityError("fitted outgoing ray does not cross the boundary")
    roots = t_ref + np.array([(-b - math.sqrt(disc)) / (2 * a),
                              (-b + math.sqrt(disc)) / (2 * a)])
    roots = roots[roots < before]
    if len(roots) == 0:
        raise FitQualityError("no boundary crossing before the outgoing samples")
    return float(roots.max())


def _to_canonical(spec: PacketSpec, p):
    """Rotate/mirror a point into the frame with impact at (0, R), motion +x."""
    impact = np.asarray(spec.impact, dtype=float)
    beta = math.atan2(impact[1], impact[0]) - math.pi / 2.0
    cb, sb = math.cos(-beta), math.sin(-beta)
    q = np.array([cb * p[0] - sb * p[1], sb * p[0] + cb * p[1]])
    if spec.handedness < 0:
        q[0] = -q[0]
    return q


def gh_fit(pre: list, post: list, spec: PacketSpec,
           pot: PotentialSpec | None = None) -> GHFit:
    """Boundary shift and reflection angle of the bounced packet.

    The incident ray is prescribed by the packet geometry; pre-bounce samples
    only validate collinearity.  The post-bounce samples are fit by the
    delayed-bounce model: the packet emerges from the boundary point arc-
    shifted by l_GH (sweeping there at the tangential velocity, so the
    delay is l_GH/v_theta) with a free reflection angle chi_R to the local
    normal, and unit speed per paper-time unit afterwards.  The timing
    information is what separates the shift from the angle change.
    """
    if len(pre) < 3 or len(post) < 3:
        raise FitQualityError("need at least 3 samples on each side of the bounce")
    R = spec.boundary_radius
    chi = spec.chi
    min_dist = 3.0 / math.sqrt(spec.sigma)
    impact = np.asarray(spec.impact, dtype=float)
    for s in pre + post:
        if np.hypot(*(np.asarray(s.position) - impact)) < min_dist:
            raise FitQualityError(f"sample at t={s.t} too close to the impact point")

    # incident ray: through the launch point along spec.direction, unit speed
    # per paper-time unit; residual is the worst perpendicular distance
    d_in = spec.direction
    launch = spec.launch_point
    resid_pre = 0.0
    for s in pre:
        rel = np.asarray(s.position) - launch
        resid_pre = max(resid_pre, abs(rel[0] * d_in[1] - rel[1] * d_in[0]))
    if resid_pre > 1.0e-2 * R:
        raise FitQualityError(f"incoming samples off the incident ray by {resid_pre:.3g}")

    _, _, _, resid_post = _ray_time_fit(post)
    if resid_post > 1.0e-2 * R:
        raise FitQualityError(f"outgoing samples not collinear: residual {resid_post:.3g}")

    ts = np.array([s.t for s in post])
    ps = np.array([_to_canonical(spec, np.asarray(s.position)) for s in post])

    sin_chi = math.sin(chi) if chi > 0 else 1.0

    def model(params):
        shift, factor = params
        psi = shift / R
        t_b = 1.0 + shift / sin_chi if chi > 0 else 1.0
        normal = np.array([math.sin(psi), math.cos(psi)])
        tangent = np.array([math.cos(psi), -math.sin(psi)])
        d_out = math.sin(factor * chi) * tangent - math.cos(factor * chi) * normal
        return normal * R + (ts[:, None] - t_b) * d_out[None, :]

    from scipy.optimize import least_squares
    sol = least_squares(lambda p: (model(p) - ps).ravel(), x0=[0.0, 1.0],
                        method="lm")
    shift, factor = sol.x
    if chi == 0.0:
        factor = 1.0
    psi = shift / R
    b_star = _from_canonical(spec, np.array([R * math.sin(psi), R * math.cos(psi)]))
    v_theta = abs(spec.m0) / R
    delay = shift / v_theta if spec.m0 != 0 else 0.0
    return GHFit(l_gh=float(shift), chi_r_factor=float(factor),
                 delay=float(delay),
                 reflection_point=(float(b_star[0]), float(b_star[1])),
                 chi_r=float(factor * chi),
                 residual_pre=float(resid_pre), residual_post=float(resid_post))


def _from_canonical(spec: PacketSpec, q):
    impact = np.asarray(spec.impact, dtype=float)
    beta = math.atan2(impact[1], impact[0]) - math.pi / 2.0
    q = np.array(q, dtype=float)
    if spec.handedness < 0:
        q[0] = -q[0]
    cb, sb = math.cos(beta), math.sin(beta)
    return np.array([cb * q[0] - sb * q[1], sb * q[0] + cb * q[1]])


@dataclass
class HusimiFrame:
    """Gaussian-windowed line projection H(D, h) at one rotation angle."""

    alpha: float
    mu: float
    d: np.ndarray
    h: np.ndarray
    values: np.ndarray      # (len(d), len(h)), >= 0
    centroid: tuple
    strength: float
    gap: float


def _projection_line(h_grid, mu: float):
    """Line samples h' (step <= sqrt(mu)/6) and the step-weighted window.

    Returns (hp, weights) with weights[p, j] the normalized Gaussian window
    of variance mu centred on h_grid[j], times the step, at h' = hp[p].
    """
    if mu <= 0:
        raise DomainError("window variance mu must be positive")
    step = math.sqrt(mu) / 6.0
    pad = 6.0 * math.sqrt(mu)
    hp = np.arange(h_grid[0] - pad, h_grid[-1] + pad + step, step)
    window = ((mu * math.pi) ** -0.25
              * np.exp(-((hp[None, :] - h_grid[:, None]) ** 2) / (2.0 * mu)))
    return hp, window.T * step


def _husimi_moments(values, d_grid, h_grid):
    """Strength and centroid (d0, h0) of H values shaped (d, h, ...)."""
    trailing = (None,) * (values.ndim - 2)
    d_w = d_grid[(slice(None), None) + trailing]
    h_w = h_grid[(None, slice(None)) + trailing]
    strength = np.trapezoid(np.trapezoid(values, h_grid, axis=1), d_grid, axis=0)
    with np.errstate(invalid="ignore", divide="ignore"):
        d0 = np.trapezoid(np.trapezoid(values * d_w, h_grid, axis=1),
                          d_grid, axis=0) / strength
        h0 = np.trapezoid(np.trapezoid(values * h_w, h_grid, axis=1),
                          d_grid, axis=0) / strength
    defined = strength > 0
    return strength, np.where(defined, d0, np.nan), np.where(defined, h0, np.nan)


def emission_husimi(field_at, alpha: float, d_grid, h_grid, mu: float,
                    boundary_radius: float, check_range: bool = True) -> HusimiFrame:
    """Emission Husimi function on the rotated projection line.

    ``field_at`` maps an (N, 2) array of Cartesian points to complex
    amplitudes.  For each line offset D the field is sampled along the line
    coordinate h' (step <= sqrt(mu)/6) and convolved with the normalized
    Gaussian window of variance mu; the squared magnitude is H(D, h).
    """
    d_grid = np.asarray(d_grid, dtype=float)
    h_grid = np.asarray(h_grid, dtype=float)
    hp, weights = _projection_line(h_grid, mu)

    ca, sa = math.cos(alpha), math.sin(alpha)
    xs = d_grid[:, None] * ca - hp[None, :] * sa
    ys = d_grid[:, None] * sa + hp[None, :] * ca
    pts = np.stack([xs.ravel(), ys.ravel()], axis=-1)
    line = field_at(pts).reshape(len(d_grid), len(hp))
    values = np.abs(line @ weights) ** 2

    if check_range:
        peak = values.max()
        if peak > 0:
            edge = max(values[0].max(), values[-1].max(),
                       values[:, 0].max(), values[:, -1].max())
            if edge > 0.01 * peak:
                raise RangeError(
                    f"lobe leaks outside the Husimi window: edge/peak = {edge/peak:.3f}")
    return _frame(alpha, mu, d_grid, h_grid, values, boundary_radius)


def _frame(alpha, mu, d_grid, h_grid, values, boundary_radius) -> HusimiFrame:
    strength, d0, h0 = _husimi_moments(values, d_grid, h_grid)
    return HusimiFrame(alpha=float(alpha), mu=float(mu), d=d_grid, h=h_grid,
                       values=values, centroid=(float(d0), float(h0)),
                       strength=float(strength), gap=float(h0) - boundary_radius)


class HusimiScan:
    """Emission Husimi of one field snapshot at every rotation angle at once.

    The projection line at angle alpha is the alpha = 0 line rotated by
    alpha, and on the snapshot's angular column mu that rotation is the
    phase e^{i mu alpha}.  So the radial spline is evaluated once, on the
    alpha = 0 points, and the Gaussian window is contracted over h' to give
    B[d, h, mu]; the window amplitude at any alpha is then B E with
    E[mu, alpha] = e^{i mu alpha}.  Agrees with ``emission_husimi`` of
    ``snap.at_points`` to rounding.  The line samples are built a block of
    d rows at a time, so only B grows with the grid.
    """

    def __init__(self, snap, d_grid, h_grid, mu: float):
        self.d = np.asarray(d_grid, dtype=float)
        self.h = np.asarray(h_grid, dtype=float)
        self.mu = float(mu)
        self.mu_values = snap.mu_values
        hp, weights = _projection_line(self.h, mu)
        r = np.hypot(self.d[:, None], hp[None, :])
        theta = np.arctan2(hp[None, :], self.d[:, None])
        rows = max(1, int(_SCAN_CHUNK_BYTES // (16 * len(hp) * len(self.mu_values))))
        self.basis = np.empty((len(self.d), len(self.h), len(self.mu_values)),
                              dtype=complex)
        for lo in range(0, len(self.d), rows):
            sl = slice(lo, lo + rows)
            line = snap.radial_columns(r[sl].ravel()).reshape(
                r[sl].shape + (len(self.mu_values),))
            line *= np.exp(1j * theta[sl, :, None] * self.mu_values)
            self.basis[sl] = np.matmul(weights.T, line)

    def values(self, alphas) -> np.ndarray:
        """H(d, h, alpha), shape (len(d), len(h), len(alphas))."""
        rot = np.exp(1j * np.outer(self.mu_values, np.atleast_1d(alphas)))
        return np.abs(self.basis @ rot) ** 2

    def frame(self, alpha: float, boundary_radius: float) -> HusimiFrame:
        return _frame(alpha, self.mu, self.d, self.h,
                      self.values([alpha])[:, :, 0], boundary_radius)


@dataclass
class TunnelingDirection:
    alpha_t: float | None     # crossing of the two gap curves (primary)
    alpha_t_strength: float   # argmax of the strength curve
    delta: float | None       # gap at the crossing
    alphas: np.ndarray
    f_curve: np.ndarray
    gap_curves: dict          # time -> gap(alpha) array


def _parabolic_argmax(x, y):
    i = int(np.argmax(y))
    if 0 < i < len(x) - 1:
        denom = y[i - 1] - 2 * y[i] + y[i + 1]
        if denom != 0:
            return float(x[i] - 0.5 * (x[i + 1] - x[i]) * (y[i + 1] - y[i - 1]) / denom)
    return float(x[i])


def _scan_curves(field, alphas, d_grid, h_grid, mu: float, boundary_radius: float):
    """Strength and gap curves over the angles, from a HusimiScan or a callable."""
    if isinstance(field, HusimiScan):
        if not (np.array_equal(field.d, d_grid) and np.array_equal(field.h, h_grid)
                and field.mu == mu):
            raise DomainError("HusimiScan grids differ from the requested scan")
        strength, _, h0 = _husimi_moments(field.values(alphas), field.d, field.h)
        return strength, h0 - boundary_radius
    frames = [emission_husimi(field, a, d_grid, h_grid, mu, boundary_radius,
                              check_range=False) for a in alphas]
    return (np.array([hf.strength for hf in frames]),
            np.array([hf.gap for hf in frames]))


def tunneling_direction(field_at_by_time: dict, times, alphas, d_grid, h_grid,
                        mu: float, boundary_radius: float) -> TunnelingDirection:
    """Most probable tunneling direction and time-independent gap.

    Scans the rotation angle: the strength f(alpha) at the first time gives
    one estimate (its maximum); the crossing of the gap curves at the two
    times gives the primary, time-independent one.  Each time maps to a
    ``HusimiScan`` (all angles in one contraction) or to a plain callable of
    points (sampled angle by angle with ``emission_husimi``).  When the gap
    curves do not cross, the FitQualityError carries the curves as ``data``.
    """
    t1, t2 = times
    alphas = np.asarray(alphas, dtype=float)
    f_curve, gap1 = _scan_curves(field_at_by_time[t1], alphas, d_grid, h_grid,
                                 mu, boundary_radius)
    _, gap2 = _scan_curves(field_at_by_time[t2], alphas, d_grid, h_grid,
                           mu, boundary_radius)
    gaps = {t1: gap1, t2: gap2}
    alpha_f = _parabolic_argmax(alphas, f_curve)
    curves = TunnelingDirection(alpha_t=None, alpha_t_strength=alpha_f, delta=None,
                                alphas=alphas, f_curve=f_curve, gap_curves=gaps)

    diff = gaps[t1] - gaps[t2]
    crossing = None
    for i in range(len(alphas) - 1):
        if diff[i] == 0.0:
            crossing = float(alphas[i])
            break
        if diff[i] * diff[i + 1] < 0.0:
            frac = diff[i] / (diff[i] - diff[i + 1])
            crossing = float(alphas[i] + frac * (alphas[i + 1] - alphas[i]))
            break
    if crossing is None:
        raise FitQualityError(
            "gap curves do not cross on the alpha grid; inspect gap_curves",
            data=curves)
    gap_at = {t: float(np.interp(crossing, alphas, gaps[t])) for t in (t1, t2)}
    curves.alpha_t = crossing
    curves.delta = 0.5 * (gap_at[t1] + gap_at[t2])
    return curves


def delta_predicted(expansion, table, pot: PotentialSpec) -> float:
    """Decay-weighted average of the per-mode image distances.

    Delta = sum |b|^2 gamma Delta_j / sum |b|^2 gamma over tunneling modes
    with Re E > V0, summed in entry order.
    """
    rows = table.rows(expansion.m, expansion.n)
    energy = table.energy.real[rows]
    use = (expansion.klass == TUNNELING) & (energy > pot.v0)
    distances = _image_distance(pot, expansion.m[use], energy[use])
    num = den = 0.0
    for coeff, gamma, d in zip(expansion.coeff[use].tolist(),
                               table.gamma[rows[use]].tolist(), distances.tolist()):
        w = abs(coeff) ** 2 * gamma
        num += w * d
        den += w
    if den == 0.0:
        raise DomainError("no decaying tunneling weight in the expansion")
    return num / den


@dataclass
class EmissionOrigin:
    t_star: float
    delay: float
    back_position: tuple
    speed_consistent: bool


def emission_origin(samples: list, spec: PacketSpec, alpha_t: float,
                    delta: float) -> EmissionOrigin:
    """Back-extrapolate the exterior centroid track to the emission point.

    The track is linear in paper time; t* is when it passes the apparent
    source ((R+Delta) sin|alpha_T|, (R+Delta) cos alpha_T) and the delay is
    t* - 1 in s0 units.  Mirrored launches flip the source x-coordinate.
    """
    if len(samples) < 2:
        raise FitQualityError("need at least two exterior centroid samples")
    p0, v, t_ref, _ = _ray_time_fit(samples)
    speeds = []
    ordered = sorted(samples, key=lambda s: s.t)
    for a, b in zip(ordered, ordered[1:]):
        dtv = b.t - a.t
        speeds.append(np.hypot(*(np.asarray(b.position) - np.asarray(a.position))) / dtv)
    consistent = (max(speeds) - min(speeds)) <= 0.10 * max(speeds)

    R = spec.boundary_radius
    target = np.array([spec.handedness * (R + delta) * abs(math.sin(alpha_t)),
                       (R + delta) * math.cos(alpha_t)])
    back = p0 + v * (1.0 - t_ref)
    speed = np.linalg.norm(v)
    t_star = t_ref + float((target - p0) @ v) / speed**2
    return EmissionOrigin(t_star=float(t_star), delay=float(t_star - 1.0),
                          back_position=(float(back[0]), float(back[1])),
                          speed_consistent=bool(consistent))


def transmission_direction(samples: list, spec: PacketSpec) -> float:
    """Angle (degrees) between the transmitted track and the local outward
    radial direction at its back-extrapolated boundary crossing."""
    p0, v, t_ref, _ = _ray_time_fit(samples)
    t_cross = _circle_crossing(p0, v, t_ref, spec.boundary_radius,
                               before=min(s.t for s in samples))
    b_star = p0 + v * (t_cross - t_ref)
    v_hat = v / np.linalg.norm(v)
    outward = b_star / np.linalg.norm(b_star)
    return math.degrees(math.acos(float(np.clip(v_hat @ outward, -1.0, 1.0))))
