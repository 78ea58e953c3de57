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
from scipy.interpolate import CubicSpline

from . import cylinder
from .errors import AccuracyError, CoverageError, DomainError
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
    """Branch-resolved expansion coefficients over a mode table.

    The entries are (m, n, branch, coeff, klass) columns, the ``expansion_``
    file's; ``ModeTable.rows(m, n)`` maps them to table rows.
    """

    def __init__(self, m, n, branch, coeff, klass, threshold, quadrature=None):
        self.m = np.asarray(m, dtype=int)
        self.n = np.asarray(n, dtype=int)
        self.branch = np.asarray(branch, dtype=int)
        self.coeff = np.asarray(coeff, dtype=complex)
        self.klass = np.asarray(klass, dtype="U9")
        self.threshold = float(threshold)
        self.quadrature = dict(quadrature or {})

    @property
    def cut(self) -> float:
        """Magnitude floor actually applied to the stored coefficients."""
        return self.threshold * OVERLAP_SCALE

    def __len__(self):
        return len(self.coeff)

    def mode_ids(self) -> np.ndarray:
        """Distinct (m, n) pairs present, sorted, as the rows of an array."""
        return np.unique(np.stack([self.m, self.n], axis=1), axis=0)

    def count_modes(self, klass=None) -> int:
        """Distinct (m, n) modes, optionally restricted to one class."""
        ids = np.stack([self.m, self.n], axis=1)
        return len(np.unique(ids if klass is None else ids[self.klass == klass], axis=0))

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
                         self.coeff[keep], self.klass[keep], self.threshold,
                         self.quadrature)


def _support_interval(spec: PacketSpec):
    """Radii within 8 Gaussian widths of the launch point's distance from 0."""
    rc = float(np.hypot(*spec.launch_point))
    width = math.sqrt((1.0 + (spec.sigma * spec.t0) ** 2) / (2.0 * spec.sigma))
    lo = max(1.0e-9, rc - 8.0 * width)
    hi = rc + 8.0 * width
    return lo, hi


#: radial panel width in units of 1/k_fast, which bounds the radial wavenumber
#: of both factors of the integrand J_m(kr) psi_mu(r): it turns by at most
#: about 2 x 6.6 = 13 rad on a panel, where the 15-node Gauss-Legendre
#: remainder 2^31 (15!)^4 w^30 / (31 (30!)^3) of e^{i w x}, w = 6.6, is 4e-17.
PANEL_NODES, PANEL_WIDTH = 15, 6.6


def _gauss_legendre_nodes(lo: float, hi: float, panel: float, radius: float):
    """Composite Gauss-Legendre on [lo, hi], panels at most ``panel`` wide and
    ``radius`` (where the profiles' second derivative jumps) a panel edge."""
    cuts = [lo, radius, hi] if lo < radius < hi else [lo, hi]
    edges = np.concatenate([np.linspace(a, b, int(math.ceil((b - a) / panel)) + 1)[:-1]
                            for a, b in zip(cuts[:-1], cuts[1:])] + [[hi]])
    x, w = np.polynomial.legendre.leggauss(PANEL_NODES)
    half, mid = 0.5 * (edges[1:] - edges[:-1]), 0.5 * (edges[1:] + edges[:-1])
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


#: elements (rows x radii) of one profile-table block: large enough that each
#: block's few kernel calls outweigh their fixed cost and run in parallel
#: (the ufuncs release the GIL), small enough to bound the temporaries
PROFILE_BLOCK = 1 << 16


def _profile_table(table: ModeTable, rows, r, jobs: int = 1) -> np.ndarray:
    """Radial profiles of the table's ``rows`` at radii r, one row each.

    m, k and the energy (which gives q) are read from the table's columns.
    A row is J_m(kr) inside the step and the matched tail
    J_m(kR) Z_m(qr)/Z_m(qR) outside, with Z = K for bound modes (evanescent
    exterior) and Z = H^(1) for resonances (outgoing exterior).  The rows are
    split into blocks of about PROFILE_BLOCK elements, each filled by a few
    batched calls over rows of any orders: one ``cylinder._bessel_j`` over
    its real-k rows (in float arithmetic) and one over its complex-k rows,
    each with r = R as one more column, which is the edge value J_m(kR) of
    the tail, and outside one ``bessel_k_ratio_array`` over its K rows and
    one ``hankel1_ratio_array`` over its H^(1) rows.  Inside, J_m is one
    Miller backward recurrence in the order per call and the ratio arrays
    one scaled forward recurrence, so the only per-point AMOS calls left are
    the exterior seeds at orders 0 and 1 where |qr| < 20 (Hankel's expansion
    gives them above) and H^(1) far below the real axis (see
    ``cylinder._exterior_pairs``).

    The blocks are filled on ``jobs`` threads.  The split depends only on
    the table's shape, and every element goes through the same elementwise
    operations whatever its batch, so the table is bitwise the same for any
    ``jobs``.
    """
    pot = table.pot
    r = np.asarray(r, dtype=float)
    inside = r <= pot.radius
    r_in, r_out = r[inside], r[~inside]
    col_in, col_out = np.flatnonzero(inside), np.flatnonzero(~inside)
    m, k, e = table.m[rows], table.k[rows], table.energy[rows]
    real_k = k.imag == 0.0
    # q from the energy column; real for the evanescent (K) rows
    evanescent = e.real < pot.v0
    q = np.sqrt(2.0 * pot.mass * np.where(evanescent, pot.v0 - e, e - pot.v0)) / pot.hbar
    q = np.where(evanescent, q.real, q)
    out = np.empty((len(m), len(r)), dtype=complex)

    # the last column, R, is the tails' edge value J_m(kR)
    r_j = np.append(r_in, pot.radius)
    j_edge = np.empty(len(m), dtype=complex)

    def fill(block):
        for sel, kr in ((block[real_k[block]], k.real), (block[~real_k[block]], k)):
            _, j = cylinder._bessel_j(np.repeat(m[sel], len(r_j)), (kr[sel, None] * r_j).ravel())
            j = j.reshape(len(sel), len(r_j))
            out[np.ix_(sel, col_in)] = j[:, :-1]
            j_edge[sel] = j[:, -1]
        for kind, ratio_array, qk in ((True, cylinder.bessel_k_ratio_array, q.real),
                                      (False, cylinder.hankel1_ratio_array, q)):
            sel = block[evanescent[block] == kind]
            if len(sel) and len(r_out):
                ratio = ratio_array(m[sel], qk[sel, None] * r_out, qk[sel] * pot.radius)
                out[np.ix_(sel, col_out)] = j_edge[sel, None] * ratio

    blocks = np.array_split(np.arange(len(m)), max(1, -(-out.size // PROFILE_BLOCK)))
    if jobs > 1 and len(blocks) > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            list(pool.map(fill, blocks))
    else:
        for block in blocks:
            fill(block)
    return out


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
           resonance_threshold: float | None = None,
           jobs: int = 1) -> Expansion:
    """Expansion coefficients of the launched packet over the mode basis.

    The angular integral is a uniform trapezoid (spectrally exact for the
    band-limited integrand, one FFT per radial node); the radial one is
    composite Gauss-Legendre on panels at most PANEL_WIDTH/k_fast wide with
    the step radius R as a panel edge.  Its error is far below that of the
    support's cut at 8 Gaussian widths (about 1e-9).  Mode profiles at the
    nodes are tabulated on ``jobs`` threads, bitwise the same for any ``jobs``.

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
    half-width pass over their union; the result's ``quadrature`` records the
    node count, the nodes beyond R and the largest doubling residual.
    """
    pot, m = table.pot, table.m
    lo, hi = _support_interval(spec)
    k_fast = max(table.k.real.max(initial=0.0), spec.k0 + 6.0 * math.sqrt(spec.sigma / 2.0))
    band = max(4 * int(m.max(initial=0)) + 64, int(3.0 * k_fast * hi))
    n_theta = 1 << int(math.ceil(math.log2(band)))

    def coefficients(panel, rows):
        """Radial nodes, and per table row the coefficients of branches +m and -m."""
        nodes, weights = _gauss_legendre_nodes(lo, hi, panel, pot.radius)
        hat = _angular_coefficients(spec, nodes, n_theta).T
        weighted = _profile_table(table, rows, nodes, jobs)
        weighted *= weights * nodes
        order = m[rows]
        pre = math.sqrt(2.0 * np.pi) / np.sqrt(table.norm[rows] / np.pi)
        return nodes, pre[:, None] * np.stack([np.einsum("in,in->i", weighted, hat[col])
                                               for col in (order, -order % n_theta)], 1)

    nodes, coeff = coefficients(PANEL_WIDTH / k_fast, np.arange(len(table)))
    n, klass = table.n, table.klass
    cut = threshold * OVERLAP_SCALE
    res_cut = cut if resonance_threshold is None else resonance_threshold * OVERLAP_SCALE
    branches = np.ones(coeff.shape, dtype=bool)
    branches[:, 1] = m != 0                     # m = 0 has one branch

    def entries(keep):
        row, col = np.nonzero(keep)             # table order, +m before -m
        return Expansion(m[row], n[row], 1 - 2 * col, coeff[row, col], klass[row],
                         threshold)

    exp = entries(branches & (np.abs(coeff) >= np.where(klass == BOUND, cut, res_cut)[:, None]))
    # on every coefficient, so the margins say how near the cut the edges are
    margins = _check_coverage(entries(branches), table, cut)

    sample = _doubling_sample(exp)
    sample.update(_doubling_sample(exp.thresholded()))
    keys = np.array(list(sample), dtype=int).reshape(-1, 3)
    at = table.rows(keys[:, 0], keys[:, 1])
    wanted = np.unique(at)
    coeff2 = coefficients(0.5 * PANEL_WIDTH / k_fast, wanted)[1]
    ref = coeff2[np.searchsorted(wanted, at), (1 - keys[:, 2]) // 2]
    residuals = []
    for key, c, c2 in zip(sample, sample.values(), ref):
        residuals.append(float(abs(c - c2)))
        if residuals[-1] > 1.0e-8:
            raise AccuracyError(
                f"expansion quadrature not converged for mode {key}: {c} vs {c2}")
    exp.quadrature = {"radial_nodes": len(nodes),
                      "radial_nodes_beyond_r": int(np.sum(nodes > pot.radius)),
                      "doubling_residual": max(residuals, default=None),
                      **margins}
    return exp


def _check_coverage(exp: Expansion, table: ModeTable, threshold: float) -> dict:
    """Coverage margins of ``exp``: its largest |coeff| next to each table edge,
    over ``threshold``; a CoverageError where one reaches the threshold.

    The edges are the upper and the lower m (entries within 1 of it; m = 0 is
    no edge) and the resonance k (resonance entries within pi/R of the
    largest Re k of the table's resonances).  A margin is 0 where no entry
    is next to the edge, and None where there is no edge or no threshold.
    """
    m_lo, m_hi = int(table.m[0]), int(table.m[-1])
    edges = {"upper_m": (f"upper m edge (m = {m_hi})", np.abs(exp.m - m_hi) <= 1),
             "lower_m": (f"lower m edge (m = {m_lo})",
                         np.abs(exp.m - m_lo) <= 1 if m_lo > 0 else None),
             "resonance_k": ("resonance k edge", None)}
    resonance = table.klass != BOUND
    if np.any(resonance):
        k_hi = table.k.real[resonance].max()
        k_re = table.k.real[table.rows(exp.m, exp.n)]
        edges["resonance_k"] = (f"resonance k edge ({k_hi:.3f})",
                                (exp.klass != BOUND) & (k_hi - k_re <= np.pi / table.pot.radius))
    margins = {}
    for key, (where, near) in edges.items():
        if near is None or threshold <= 0.0:
            margins[f"coverage_margin_{key}"] = None
            continue
        largest = float(np.max(np.abs(exp.coeff[near]), initial=0.0))
        if largest >= threshold:
            raise CoverageError(f"mode table too narrow at the {where}: "
                                f"coefficient {largest:.3g} >= threshold")
        margins[f"coverage_margin_{key}"] = largest / threshold
    return margins


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

    The expansion's entries are mapped to table rows by ``ModeTable.rows``;
    the profiles of those rows are sampled once on a uniform radial grid by
    ``_profile_table``, in row blocks of a few batched kernel calls each,
    filled on ``jobs`` threads (bitwise the same table for any ``jobs``), and
    scaled by the norm column.  A time snapshot reduces the expansion to
    per-angular-frequency radial columns; polar frames come out exactly on
    the grid (inverse FFT over theta), scattered points via a cubic spline in
    r and exact phases in theta.
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

        rows, self._entry_rows = np.unique(table.rows(expansion.m, expansion.n),
                                           return_inverse=True)
        self._profiles = _profile_table(table, rows, self.r, jobs)
        # N_rad = norm/pi part by part, as the complex scalar division gives it
        # (numpy's complex array division rounds differently)
        n_rad = np.empty(len(rows), dtype=complex)
        n_rad.real, n_rad.imag = table.norm[rows].real / np.pi, table.norm[rows].imag / np.pi
        self._profiles /= (np.sqrt(n_rad) * math.sqrt(2.0 * np.pi))[:, None]
        self._energies = table.energy[rows]
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
    return evolve(expansion, table, 0.0, 1.0, grid, evaluator)
