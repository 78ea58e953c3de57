"""Gaussian wave packets, eigenmode expansion, reconstruction and evolution.

Angular basis: complex branches e^{+-i m theta}/sqrt(2 pi).  With the mode
radial part Phi(r) (J_m inside, continuity-matched Z_m outside) the
normalized mode of branch s is

    phi~_{m n s}(r, theta) = Phi(r) e^{i s m theta} / sqrt(2 pi N_rad),

where N_rad = norm/pi is the radial pairing integral (the stored analytic
norm carries the angular factor pi of the cos/sin convention).  Expansion
coefficients pair the +m branch with the -m one, which implements the
unconjugated resonance inner product; for bound modes (real radial part)
the same integral equals the conjugated overlap.

Time conventions: the packet is launched at simulation time tau = 0 from a
point one unit behind the impact point and reaches it at tau = s0 = 1/k0.
External ("paper-style") time t counts in units of s0, so tau = t * s0 and
impact happens at t = 1.  The free-Gaussian closed form uses its own clock
t_G = tau - s0 (zero when centered on the impact point).
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy import special
from scipy.interpolate import CubicSpline

from . import cylinder
from .errors import AccuracyError, CoverageError, DomainError
from .potential import PotentialSpec
from .spectrum import BOUND, ModeTable


@dataclass(frozen=True)
class PacketSpec:
    """Free Gaussian packet aimed at a point on the circular boundary.

    m0 is the central angular momentum in hbar units; its sign selects the
    sense of motion (positive: clockwise, the reference geometry).  sigma is
    the Gaussian width parameter (packet size 1/sqrt(sigma)).
    """

    m0: float
    k0: float
    sigma: float = 100.0
    impact: tuple = (0.0, 2.0)

    def __post_init__(self):
        r = self.boundary_radius
        if self.k0 <= 0 or self.sigma <= 0:
            raise DomainError("k0 and sigma must be positive")
        ratio = abs(self.m0) / (self.k0 * r)
        if not 0.0 <= ratio < 1.0:
            raise DomainError(f"need |m0|/(k0 R) in [0, 1), got {ratio}")
        if 1.0 / math.sqrt(self.sigma) >= r / 5.0:
            raise DomainError("packet too large for the cavity: 1/sqrt(sigma) >= R/5")

    @property
    def boundary_radius(self) -> float:
        return math.hypot(*self.impact)

    @property
    def chi(self) -> float:
        """Incidence angle from the semiclassical relation sin(chi) = m0/(k0 R)."""
        return math.asin(abs(self.m0) / (self.k0 * self.boundary_radius))

    @property
    def s0(self) -> float:
        return 1.0 / self.k0

    @property
    def t0(self) -> float:
        """Gaussian clock value of the launch instant."""
        return -1.0 / self.k0

    @property
    def e0(self) -> float:
        return 0.5 * self.k0**2

    @property
    def handedness(self) -> int:
        return -1 if self.m0 < 0 else 1

    @property
    def direction(self):
        """Unit propagation direction at launch (points at the impact point)."""
        n_out = np.asarray(self.impact, dtype=float) / self.boundary_radius
        tangent = self.handedness * np.array([n_out[1], -n_out[0]])
        chi = self.chi
        return math.cos(chi) * n_out + math.sin(chi) * tangent

    @property
    def launch_point(self):
        return np.asarray(self.impact, dtype=float) - self.direction


def gaussian_free(spec: PacketSpec, xy, t) -> complex:
    """Exact free Gaussian at points xy and Gaussian-clock time t.

    Normalized to 1 for all t; centered on the impact point at t = 0 and on
    the launch point at t = t0 = -1/k0.
    """
    xy = np.asarray(xy, dtype=float)
    scalar = xy.ndim == 1
    pts = np.atleast_2d(xy)
    sig = spec.sigma
    kvec = spec.k0 * spec.direction
    d = pts - np.asarray(spec.impact, dtype=float)
    denom = 1.0 + 1j * sig * t
    phase = (-0.5 * sig * np.einsum("ij,ij->i", d, d)
             + 1j * (d @ kvec) - 1j * spec.e0 * t)
    out = math.sqrt(sig / math.pi) / denom * np.exp(phase / denom)
    return complex(out[0]) if scalar else out.reshape(xy.shape[:-1])


#: expansion coefficients are stored in the orthonormal-basis convention;
#: truncation thresholds are quoted for the radial overlap amplitude
#: |coeff|/sqrt(2 pi) (the convention behind the reference mode counts).
OVERLAP_SCALE = math.sqrt(2.0 * math.pi)


class Expansion:
    """Branch-resolved expansion coefficients over a mode table."""

    def __init__(self, m, n, branch, coeff, klass, threshold):
        self.m = np.asarray(m, dtype=int)
        self.n = np.asarray(n, dtype=int)
        self.branch = np.asarray(branch, dtype=int)
        self.coeff = np.asarray(coeff, dtype=complex)
        self.klass = np.asarray(klass, dtype="U9")
        self.threshold = float(threshold)

    @property
    def cut(self) -> float:
        """Magnitude floor actually applied to the stored coefficients."""
        return self.threshold * OVERLAP_SCALE

    def __len__(self):
        return len(self.coeff)

    def mode_ids(self):
        """Distinct (m, n) pairs present, in table order."""
        seen = {}
        for m, n in zip(self.m, self.n):
            seen.setdefault((int(m), int(n)), None)
        return list(seen)

    def count_modes(self, klass=None) -> int:
        """Distinct (m, n) modes, optionally restricted to one class."""
        mask = slice(None) if klass is None else (self.klass == klass)
        return len({(int(m), int(n)) for m, n in zip(self.m[mask], self.n[mask])})

    def counts(self):
        return {str(kl): self.count_modes(str(kl)) for kl in np.unique(self.klass)}

    def bound_weight(self) -> float:
        """Sum of |a|^2 over bound entries (orthonormal subspace, <= 1)."""
        mask = self.klass == BOUND
        return float(np.sum(np.abs(self.coeff[mask]) ** 2))

    def scaled(self, factor: complex) -> "Expansion":
        return Expansion(self.m, self.n, self.branch, self.coeff * factor,
                         self.klass, self.threshold)

    def thresholded(self) -> "Expansion":
        """The uniform cut: every entry below ``cut`` dropped, resonances too.

        On an evolution expansion (``resonance_threshold`` 0) this is exactly
        the counting expansion ``expand(threshold)`` of the same coefficients.
        """
        keep = np.abs(self.coeff) >= self.cut
        return Expansion(self.m[keep], self.n[keep], self.branch[keep],
                         self.coeff[keep], self.klass[keep], self.threshold)


def _support_interval(spec: PacketSpec, pad_sigmas: float = 8.0):
    rc = float(np.hypot(*spec.launch_point))
    width = math.sqrt((1.0 + (spec.sigma * spec.t0) ** 2) / (2.0 * spec.sigma))
    lo = max(1.0e-9, rc - pad_sigmas * width)
    hi = rc + pad_sigmas * width
    return lo, hi


def _gauss_legendre_nodes(lo: float, hi: float, panel: float, order: int = 15):
    n_panels = max(4, int(math.ceil((hi - lo) / panel)))
    x, w = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(lo, hi, n_panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


def _profile_table(pot: PotentialSpec, modes, r, jobs: int = 1) -> np.ndarray:
    """Radial profiles of ``modes`` at radii r, one row per mode.

    A row is J_m(kr) inside the step and the matched tail
    J_m(kR) Z_m(qr)/Z_m(qR) outside, with Z = K for bound modes (evanescent
    exterior) and Z = H^(1) for resonances (outgoing exterior).  The interior
    is one ``jv`` call per row.  The tails of all the modes of one m and one
    kind come from one ratio-array call, so one order recurrence serves them
    all: the ratio arrays are recurrence-only, because a large-order
    ``hankel1`` costs several microseconds a point while the recurrence is
    two seed calls plus m cheap elementwise steps.

    Disjoint row chunks are filled on ``jobs`` threads (the ufuncs release the
    GIL).  Every element goes through the same elementwise operations, so
    the table is bitwise the same for any ``jobs`` and any grouping.
    """
    r = np.asarray(r, dtype=float)
    inside = r <= pot.radius
    outside = ~inside
    r_in, r_out = r[inside], r[outside]
    table = np.empty((len(modes), len(r)), dtype=complex)

    def fill(rows):
        tails = {}
        for i in rows:
            m, kc = modes[i].m, complex(modes[i].k)
            table[i, inside] = special.jv(m, kc.real * r_in if kc.imag == 0.0
                                          else kc * r_in)
            e = pot.hbar**2 * kc * kc / (2.0 * pot.mass)
            evanescent = e.real < pot.v0
            if evanescent:
                q = complex(np.sqrt(2.0 * pot.mass * (pot.v0 - e)) / pot.hbar).real
            else:
                q = complex(np.sqrt(2.0 * pot.mass * (e - pot.v0)) / pot.hbar)
            tails.setdefault((m, evanescent), []).append((i, kc, q))
        if len(r_out) == 0:
            return
        for (m, evanescent), group in tails.items():
            idx, k, q = (np.array(col) for col in zip(*group))
            ratio_array = (cylinder.bessel_k_ratio_array if evanescent
                           else cylinder.hankel1_ratio_array)
            ratio = ratio_array(m, q[:, None] * r_out, q * pot.radius)
            j_edge = special.jv(m, k * pot.radius)
            table[np.ix_(idx, outside)] = j_edge[:, None] * ratio

    if jobs > 1:
        # several chunks per worker even out rows of unequal cost
        # (the recurrence runs m steps; bound tails are real, resonance complex)
        chunks = np.array_split(np.arange(len(modes)), 8 * jobs)
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            list(pool.map(fill, chunks))
    else:
        fill(range(len(modes)))
    return table


def _angular_coefficients(spec: PacketSpec, nodes, n_theta: int) -> np.ndarray:
    """Fourier coefficients over theta of the launched packet, per radius."""
    theta = 2.0 * np.pi * np.arange(n_theta) / n_theta
    xy = np.empty((len(nodes), n_theta, 2))
    xy[..., 0] = nodes[:, None] * np.cos(theta)[None, :]
    xy[..., 1] = nodes[:, None] * np.sin(theta)[None, :]
    psi = gaussian_free(spec, xy.reshape(-1, 2), spec.t0).reshape(len(nodes), n_theta)
    return np.fft.fft(psi, axis=1) / n_theta


def _doubling_sample(exp: Expansion) -> dict:
    """(m, n, branch) -> coeff of the 12 entries the panel-doubling check re-computes.

    The entries are spread evenly over the ranking by magnitude.
    """
    idx = np.argsort(-np.abs(exp.coeff))[:: max(1, len(exp) // 12)][:12]
    return {(int(exp.m[i]), int(exp.n[i]), int(exp.branch[i])): exp.coeff[i]
            for i in idx}


def expand(spec: PacketSpec, table: ModeTable, threshold: float,
           n_theta: int | None = None, panel_factor: float = 2.2,
           check_doubling: bool = True,
           resonance_threshold: float | None = None,
           jobs: int = 1) -> Expansion:
    """Expansion coefficients of the launched packet over the mode basis.

    The angular integral is a uniform trapezoid (spectrally exact for the
    band-limited integrand, evaluated as one FFT per radial node); the radial
    integral is composite Gauss-Legendre with panels tied to the fastest mode
    oscillation.  Mode profiles at the nodes are tabulated on ``jobs``
    threads; the result is bitwise the same for any ``jobs``.

    ``threshold`` is quoted for the radial overlap amplitude |coeff|/sqrt(2 pi)
    (see OVERLAP_SCALE); entries below it are dropped.  A CoverageError
    reports expansions that still carry weight at the table edges.

    ``resonance_threshold`` (default: same as threshold) may be set lower -
    usually 0 - for expansions meant to be evolved: resonance exterior tails
    only cancel collectively, so truncating that sector leaves orphaned
    exponential tails, while truncating the bound sector is harmless.  Such
    an evolution expansion is one coefficient pass for both uses: its
    ``thresholded()`` cut is the counting expansion.  The panel-doubling
    check therefore verifies the 12-entry samples of both cuts, in one
    doubled-quadrature pass over their union.
    """
    pot = table.pot
    lo, hi = _support_interval(spec)
    k_fast = max([mo.k.real for mo in table.modes], default=spec.k0)
    k_fast = max(k_fast, spec.k0 + 6.0 * math.sqrt(spec.sigma / 2.0))
    nodes, weights = _gauss_legendre_nodes(lo, hi, panel_factor / k_fast)

    m_max = max([mo.m for mo in table.modes], default=0)
    if n_theta is None:
        band = 4 * m_max + 64
        band = max(band, int(3.0 * k_fast * hi))
        n_theta = 1 << int(math.ceil(math.log2(band)))

    def coefficients(quad_nodes, quad_weights, modes):
        hat = _angular_coefficients(spec, quad_nodes, n_theta)
        profiles = _profile_table(pot, modes, quad_nodes, jobs)
        rows = {"m": [], "n": [], "branch": [], "coeff": [], "klass": []}
        wr = quad_weights * quad_nodes
        for mo, prof in zip(modes, profiles):
            n_rad = mo.norm / np.pi
            pre = math.sqrt(2.0 * np.pi) / np.sqrt(n_rad)
            branches = (1,) if mo.m == 0 else (1, -1)
            for s in branches:
                hat_col = hat[:, (s * mo.m) % n_theta]
                coeff = pre * np.sum(wr * prof * hat_col)
                rows["m"].append(mo.m)
                rows["n"].append(mo.n)
                rows["branch"].append(s)
                rows["coeff"].append(coeff)
                rows["klass"].append(mo.klass)
        return rows

    rows = coefficients(nodes, weights, table.modes)
    coeff = np.asarray(rows["coeff"])
    klass = np.asarray(rows["klass"], dtype="U9")
    cut = threshold * OVERLAP_SCALE
    res_cut = cut if resonance_threshold is None else resonance_threshold * OVERLAP_SCALE
    cuts = np.where(klass == BOUND, cut, res_cut)
    keep = np.abs(coeff) >= cuts
    exp = Expansion(np.asarray(rows["m"])[keep], np.asarray(rows["n"])[keep],
                    np.asarray(rows["branch"])[keep], coeff[keep],
                    klass[keep], threshold)

    # entries below cut never trip the check, so either cut gives one outcome
    if cut > 0.0:
        _check_coverage(exp, table, cut)

    if check_doubling and len(exp):
        sample = _doubling_sample(exp)
        sample.update(_doubling_sample(exp.thresholded()))
        wanted = {(m, n) for m, n, _ in sample}
        nodes2, weights2 = _gauss_legendre_nodes(lo, hi, 0.5 * panel_factor / k_fast)
        rows2 = coefficients(nodes2, weights2,
                             [mo for mo in table.modes if (mo.m, mo.n) in wanted])
        ref = {(m, n, b): c for m, n, b, c in zip(rows2["m"], rows2["n"],
                                                  rows2["branch"], rows2["coeff"])}
        for key, c in sample.items():
            if abs(c - ref[key]) > 1.0e-8:
                raise AccuracyError(
                    f"expansion quadrature not converged for mode {key}: "
                    f"{c} vs {ref[key]}")
    return exp


def _check_coverage(exp: Expansion, table: ModeTable, threshold: float):
    if len(exp) == 0:
        return
    m_values = table.m_values
    m_lo, m_hi = m_values[0], m_values[-1]
    for edge, name in ((m_hi, "upper m"), (m_lo, "lower m")):
        if name == "lower m" and edge == 0:
            continue
        near = np.abs(exp.m - edge) <= 1
        if np.any(near) and np.max(np.abs(exp.coeff[near])) >= threshold:
            raise CoverageError(
                f"mode table too narrow at the {name} edge (m = {edge}): "
                f"coefficient {np.max(np.abs(exp.coeff[near])):.3g} >= threshold")
    res_k = [mo.k.real for mo in table.modes if mo.klass != BOUND]
    if res_k:
        k_hi = max(res_k)
        spacing = np.pi / table.pot.radius
        k_of = {(mo.m, mo.n): mo.k.real for mo in table.modes}
        k_re = np.array([k_of.get(mn, -np.inf)
                         for mn in zip(exp.m.tolist(), exp.n.tolist())])
        near = (exp.klass != BOUND) & (k_hi - k_re <= spacing)
        if np.any(near) and np.max(np.abs(exp.coeff[near])) >= threshold:
            raise CoverageError(
                f"mode table too narrow at the resonance k edge ({k_hi:.3f})")


@dataclass
class GridSpec:
    """Polar evaluation grid; r_max covers the transmitted lobe tracking."""

    r_max: float = 8.0
    nr: int = 1200
    ntheta: int = 1024


@dataclass
class FieldFrame:
    """Complex amplitude on the polar grid at one instant (paper time)."""

    r: np.ndarray
    theta: np.ndarray
    values: np.ndarray
    time: float

    @property
    def dr(self) -> float:
        return float(self.r[1] - self.r[0])

    @property
    def dtheta(self) -> float:
        return float(self.theta[1] - self.theta[0])


class FieldEvaluator:
    """Caches mode radial profiles; evaluates the field at any time or point.

    Profiles are sampled once on a uniform radial grid, tabulated on ``jobs``
    threads (bitwise the same table for any ``jobs``).  A time snapshot
    reduces the expansion to per-angular-frequency radial columns; polar
    frames come out exactly on the grid (inverse FFT over theta), scattered
    points via a cubic spline in r and exact phases in theta.
    """

    def __init__(self, expansion: Expansion, table: ModeTable,
                 grid: GridSpec | None = None, jobs: int = 1):
        self.expansion = expansion
        self.table = table
        self.grid = grid or GridSpec()
        self.pot = table.pot
        nr, r_max = self.grid.nr, self.grid.r_max
        self.r = np.linspace(r_max / nr, r_max, nr)
        self.theta = 2.0 * np.pi * np.arange(self.grid.ntheta) / self.grid.ntheta

        by_id = {}
        for mo in table.modes:
            by_id[(mo.m, mo.n)] = mo
        ids = expansion.mode_ids()
        self._modes = [by_id[i] for i in ids]
        self._row_of = {i: row for row, i in enumerate(ids)}
        self._profiles = _profile_table(self.pot, self._modes, self.r, jobs)
        for row, mo in enumerate(self._modes):
            n_rad = mo.norm / np.pi
            self._profiles[row] /= np.sqrt(n_rad) * math.sqrt(2.0 * np.pi)
        self._energies = np.array([mo.energy for mo in self._modes])
        self._entry_rows = np.array([self._row_of[(m, n)]
                                     for m, n in zip(expansion.m, expansion.n)])
        self._mu = expansion.branch * expansion.m

    def snapshot(self, t_paper: float, s0: float) -> "FieldSnapshot":
        """Field at paper time t (tau = t * s0); t < 0 is refused."""
        if t_paper < 0.0:
            raise DomainError("evolution time must be >= 0 (resonances grow backwards)")
        tau = t_paper * s0
        phases = np.exp(-1j * self._energies * tau / self.pot.hbar)
        amp = self.expansion.coeff * phases[self._entry_rows]
        mu_values = np.unique(self._mu)
        cols = np.zeros((len(self.r), len(mu_values)), dtype=complex)
        for j, mu in enumerate(mu_values):
            sel = self._mu == mu
            cols[:, j] = amp[sel] @ self._profiles[self._entry_rows[sel]]
        return FieldSnapshot(self, mu_values, cols, t_paper)


class FieldSnapshot:
    def __init__(self, ev: FieldEvaluator, mu_values, cols, t_paper):
        self._ev = ev
        self.mu_values = mu_values
        self.cols = cols
        self.time = t_paper
        self._spline = None

    def polar_frame(self) -> FieldFrame:
        ntheta = self._ev.grid.ntheta
        spec = np.zeros((len(self._ev.r), ntheta), dtype=complex)
        for j, mu in enumerate(self.mu_values):
            spec[:, int(mu) % ntheta] += self.cols[:, j]
        values = np.fft.ifft(spec, axis=1) * ntheta
        return FieldFrame(r=self._ev.r, theta=self._ev.theta,
                          values=values, time=self.time)

    def radial_columns(self, r) -> np.ndarray:
        """Angular columns at radii r, shape (len(r), len(mu_values)).

        A cubic spline in r between grid nodes, zero inside the first node;
        the field at (r, theta) is sum_j columns[:, j] e^{i mu_j theta}.
        """
        r = np.asarray(r, dtype=float)
        if np.any(r > self._ev.grid.r_max + 1e-9):
            raise DomainError("evaluation point outside the field grid")
        if self._spline is None:
            self._spline = CubicSpline(self._ev.r, self.cols, axis=0)
        vals = self._spline(np.clip(r, self._ev.r[0], self._ev.r[-1]))
        vals[r < self._ev.r[0]] *= 0.0
        return vals

    def at_points(self, xy) -> np.ndarray:
        """Field at scattered Cartesian points (spline in r, exact in theta)."""
        xy = np.asarray(xy, dtype=float)
        pts = np.atleast_2d(xy)
        vals = self.radial_columns(np.hypot(pts[:, 0], pts[:, 1]))
        theta = np.arctan2(pts[:, 1], pts[:, 0])
        phases = np.exp(1j * theta[:, None] * self.mu_values[None, :])
        out = np.einsum("pj,pj->p", vals, phases)
        return out if xy.ndim > 1 else complex(out[0])


def evolve(expansion: Expansion, table: ModeTable, t_paper: float, s0: float,
           grid: GridSpec | None = None,
           evaluator: FieldEvaluator | None = None) -> FieldFrame:
    """Field frame at paper time t; t = 0 reproduces the reconstruction bitwise."""
    ev = evaluator or FieldEvaluator(expansion, table, grid)
    return ev.snapshot(t_paper, s0).polar_frame()


def reconstruct(expansion: Expansion, table: ModeTable,
                grid: GridSpec | None = None,
                evaluator: FieldEvaluator | None = None) -> FieldFrame:
    """The expanded initial state on the grid (empty expansion: zero field)."""
    if len(expansion) == 0:
        ev = evaluator or FieldEvaluator(expansion, table, grid)
        frame = FieldFrame(r=ev.r, theta=ev.theta,
                           values=np.zeros((len(ev.r), len(ev.theta)), complex),
                           time=0.0)
        return frame
    return evolve(expansion, table, 0.0, 1.0, grid, evaluator)
