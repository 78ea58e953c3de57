"""Eigenmodes of the circular step potential.

Boundary matching of the interior J_m(kr) against the exterior K_m (below the
step) or outgoing H^(1)_m (above the step) defines a characteristic function
whose zeros are the bound and resonance wavenumbers.  Everything is written
in "log-derivative ratio" form, i.e. the exterior function enters only
through Z'/Z and the order ratios Z_{m+-1}/Z_m, so the deep-evanescent regime
(huge K_m / H_m values) never overflows.

All of it runs on one array kernel, ``_matching``, over elements (m_i, k_i)
with any mix of orders.  The interior takes J_{m-1} and J_m from ``jv`` and
J_{m+1} from the three-term relation, which is stable here because kR >= m
(to within a few orders) on every search path.  The exterior pair
(Z_{m-1}, Z_m) comes from ``cylinder._exterior_pairs`` in one call over all
elements, K and H^(1) mixed.

``build_mode_table`` solves a whole m window as one batch:

1. one real-k grid over every m, with a step of a quarter mode spacing;
2. bound roots: sign changes are bracketed and every bracket is polished at
   once by safeguarded Newton (bisection when a step leaves its bracket) to
   brentq's tolerance; an m whose count disagrees with the Sturm census is
   scanned again at half, a quarter and an eighth of the step;
3. resonances: the local minima of |characteristic| on the real axis seed
   one batched damped complex Newton iteration with a secant fallback;
4. the mode records (class, norm, amplitude ratio) come from one more
   kernel pass over all roots.

Every element goes through the same elementwise operations whatever batch it
sits in, so a window solve and per-m solves give bitwise equal modes.
``find_bound_modes``, ``find_resonances``, ``characteristic`` and
``mode_norm`` are one-m calls of the same batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from . import cylinder
from .errors import ConvergenceError, DomainError, NearDefectiveModeError
from .potential import PotentialSpec

BOUND = "bound"
TUNNELING = "tunneling"
LEAKY = "leaky"

_SCAN_STEP_FACTOR = np.pi / 4.0      # scan step = pi/(4R), quarter mode spacing
_DEDUP_TOL = 1.0e-8
_RESIDUAL_TOL = 1.0e-10
#: brentq's stopping rule for the bound polish: xtol + rtol |k|, rtol = 4 eps
_BOUND_XTOL = 1.0e-13
_BOUND_RTOL = 8.9e-16
_BOUND_MAX_ITER = 100
_NEWTON_MAX_ITER = 60
#: elements per kernel call on the scan grids; bounds the kernel's temporaries
_GRID_CHUNK = 2048


@dataclass(frozen=True)
class EigenMode:
    """One (m, n) solution of the matching problem.

    ``k`` is the complex wavenumber, ``energy = hbar^2 k^2 / 2 m*``,
    ``gamma = -2 Im(energy) >= 0``.  ``c`` is the exterior/interior amplitude
    ratio Z_m(qR)/J_m(kR) (may overflow to inf for extremely deep tunneling
    modes whose exterior is irrelevant; field evaluation never uses it).
    ``norm`` is the analytic inner product: <phi|phi> for bound modes,
    <phi*|phi> for resonances, in the angular convention where the angular
    factor integrates to pi.
    """

    m: int
    n: int
    k: complex
    energy: complex
    gamma: float
    c: complex
    norm: complex
    klass: str


@dataclass(frozen=True)
class _Match:
    """Matching quantities at elements (m_i, k_i); see ``_matching``."""

    g: np.ndarray        # scaled determinant J' - (q/k) J S
    dg: np.ndarray       # dg/dk
    scale: np.ndarray    # |J'| + |J S|, the size of g's terms
    J: np.ndarray        # J_m(kR)
    Jm1: np.ndarray      # J_{m-1}(kR)
    Jp1: np.ndarray      # J_{m+1}(kR)
    rm: np.ndarray       # Z_{m-1}(qR)/Z_m(qR)
    rp: np.ndarray       # Z_{m+1}(qR)/Z_m(qR)
    Z: np.ndarray        # Z_m(qR) in units of exp(log_scale)
    log_scale: np.ndarray


def _jv(order, z, real):
    """J_order(z); elements flagged ``real`` are evaluated on the real line."""
    out = np.empty(z.shape, dtype=complex)
    out[real] = special.jv(order[real], z.real[real])
    out[~real] = special.jv(order[~real], z[~real])
    return out


def _matching(pot: PotentialSpec, m, k) -> _Match:
    """Scaled characteristic g(k) = J'(z) - (q/k) J(z) S(w), dg/dk and parts.

    ``m`` (int) and ``k`` (complex) are 1-D arrays of the same length.
    z = kR, w = qR with q = kappa below the step (K exterior) and k_out above
    it (H^(1) exterior); S = Z'(w)/Z(w), so the poles of the raw determinant
    are divided out by Z(w), which never vanishes on the search paths.
    """
    m = np.asarray(m, dtype=int)
    k = np.asarray(k, dtype=complex)
    R = pot.radius
    z = k * R
    e = pot.hbar**2 * k * k / (2.0 * pot.mass)
    below = e.real < pot.v0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        q = np.sqrt(2.0 * pot.mass * np.where(below, pot.v0 - e, e - pot.v0)) / pot.hbar
        w = q * R
        # the K branch is only ever used with real kappa
        w = np.where(below, w.real, w)
        real = k.imag == 0.0
        J = _jv(m, z, real)
        Jm1 = _jv(np.abs(m - 1), z, real)
        Jm1 = np.where(m == 0, -Jm1, Jm1)
        Jp1 = (2.0 * m / z) * J - Jm1
        Jp = 0.5 * (Jm1 - Jp1)
        Jpp = -(1.0 - m * m / (z * z)) * J - Jp / z

        a, b, log_scale = cylinder._exterior_pairs(m, w, below)
        # Z_{m+1} = (2m/w) Z_m + sgn Z_{m-1}: sgn = +1 for K, -1 for H^(1)
        sgn = np.where(below, 1.0, -1.0)
        rm = a / b
        rp = (2.0 * m / w) + sgn * rm
        S = -0.5 * (sgn * rm + rp)
        # S' from the modified (K) or ordinary (H^(1)) Bessel ODE
        Sp = sgn * (1.0 + sgn * m * m / (w * w)) - S / w - S * S
        dq_dk = -sgn * k / q
        dqk_dk = -sgn * pot.k_step**2 / (q * k * k)

        g = Jp - (q / k) * J * S
        dg = (R * Jpp
              - dqk_dk * J * S
              - (q / k) * (R * Jp * S + J * Sp * R * dq_dk))
        scale = np.abs(Jp) + np.abs(J * S)
    return _Match(g=g, dg=dg, scale=scale, J=J, Jm1=Jm1, Jp1=Jp1, rm=rm, rp=rp,
                  Z=b, log_scale=log_scale)


def _scan(pot: PotentialSpec, m, k):
    """(g, scale) over a long grid of (m, k) elements, in chunks of _GRID_CHUNK."""
    g = np.empty(k.size, dtype=complex)
    scale = np.empty(k.size)
    for i in range(0, k.size, _GRID_CHUNK):
        mt = _matching(pot, m[i:i + _GRID_CHUNK], k[i:i + _GRID_CHUNK])
        g[i:i + _GRID_CHUNK], scale[i:i + _GRID_CHUNK] = mt.g, mt.scale
    return g, scale


def characteristic(pot: PotentialSpec, m: int, k):
    """Scaled matching determinant; zero exactly at eigen-wavenumbers.

    O(1) magnitude away from roots.  Real for real k below the step (bound
    branch), complex otherwise.  Accepts a scalar or an array of real k.
    """
    if np.ndim(k) == 0:
        kc = complex(k)
        if kc == 0:
            raise DomainError("characteristic undefined at k = 0")
        mt = _matching(pot, [m], [kc])
        val = complex(mt.g[0] / mt.scale[0])
        if kc.imag == 0.0 and kc.real < pot.k_step:
            return val.real
        return val
    ks = np.asarray(k, dtype=float)
    if np.any(ks == 0):
        raise DomainError("characteristic undefined at k = 0")
    mt = _matching(pot, np.full(ks.size, m), ks.ravel())
    return (mt.g / mt.scale).reshape(ks.shape)


def characteristic_deriv(pot: PotentialSpec, m: int, k) -> complex:
    """Analytic d/dk of the (unscaled) ratio-form characteristic."""
    mt = _matching(pot, [m], [complex(k)])
    return complex(mt.dg[0] / mt.scale[0])


def _norms(pot: PotentialSpec, mt: _Match):
    """Closed-form inner products (angular factor pi included).

    interior:  pi R^2/2 [J_m^2 - J_{m-1} J_{m+1}](kR)
    exterior: -pi R^2/2 J_m(kR)^2 (1 - rho_- rho_+), rho_± = Z_{m±1}(qR)/Z_m(qR)

    The exterior form follows from continuity (exterior amplitude J(kR)/Z(qR))
    and the indefinite integral of x Z_m^2(x); for resonances the oscillatory
    boundary term at infinity is the usual regularized (dropped) one.  Bound
    modes are evaluated on the real line, so their norms are exactly real.
    """
    R = pot.radius
    interior = mt.J * mt.J - mt.Jm1 * mt.Jp1
    exterior = -mt.J * mt.J * (1.0 - mt.rm * mt.rp)
    return (np.pi * R * R / 2.0) * (interior + exterior)


def _amplitude_ratios(mt: _Match):
    """c = Z_m(qR)/J_m(kR); inf where the value exceeds double range."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ln_mag = np.log(np.abs(mt.Z)) + mt.log_scale - np.log(np.abs(mt.J))
        return np.where(ln_mag > 709.0, np.inf, mt.Z / mt.J * np.exp(mt.log_scale))


def _mode_records(pot: PotentialSpec, m, n, k) -> list[EigenMode]:
    """EigenMode records of the roots (m_i, n_i, k_i), from one kernel pass."""
    if not len(k):
        return []
    mt = _matching(pot, m, k)
    norms = _norms(pot, mt)
    ratios = _amplitude_ratios(mt)
    modes = []
    for mi, ni, ki, norm, c in zip(m, n, k, norms, ratios):
        ki = complex(ki)
        energy = complex(pot.hbar**2 * ki * ki / (2.0 * pot.mass))
        if ki.imag == 0.0 and ki.real < pot.k_step:
            klass = BOUND
        elif ki.real < pot.k_top(mi):
            klass = TUNNELING
        else:
            klass = LEAKY
        # + 0.0 turns the -0.0 imaginary part of a real value into 0.0
        modes.append(EigenMode(m=int(mi), n=int(ni), k=ki, energy=energy,
                               gamma=max(0.0, -2.0 * energy.imag),
                               c=complex(c.real, c.imag + 0.0),
                               norm=complex(norm.real, norm.imag + 0.0), klass=klass))
    return modes


def mode_norm(mode: EigenMode, pot: PotentialSpec) -> complex:
    """Analytic norm of a verified mode; raises on near-defective modes."""
    norm = complex(_norms(pot, _matching(pot, [mode.m], [mode.k]))[0])
    if abs(norm) < 1.0e-14 * (np.pi * pot.radius**2 / 2.0):
        raise NearDefectiveModeError(
            f"mode (m={mode.m}, n={mode.n}) norm {norm} too small for expansion")
    return norm


def _sturm_census(pot: PotentialSpec, m_values) -> dict:
    """Bound-mode count per m from J_m oscillation theory.

    One eigenvalue sits in each interval between consecutive zeros of
    J_m(kR) below kR = k_V R (the interior log-derivative sweeps from +inf
    to -inf across each), plus one in the final partial interval iff the
    interior log-derivative k J'/J has already dropped below the exterior
    one kappa K'/K there, that is iff g J < 0 at its end.  The zeros come
    from ``jn_zeros``, independent of the root search; the final-interval
    test is one kernel call over every m.
    """
    kv = pot.k_step
    counts = dict.fromkeys(m_values, 0)
    ms = [m for m in counts if pot.k_bottom(m) < kv]
    if not ms:
        return counts
    k_end = kv * (1.0 - 1.0e-12) if kv * 1.0e-12 > 1e-9 else kv - 1.0e-9
    mt = _matching(pot, ms, np.full(len(ms), k_end))
    zmax = kv * pot.radius
    for m, last in zip(ms, (mt.g.real * mt.J.real < 0.0).tolist()):
        nt = int(zmax / np.pi) + 2 if m == 0 else max(1, int((zmax - m) / np.pi) + 3)
        counts[m] = int(np.sum(special.jn_zeros(m, nt) < zmax)) + last
    return counts


def count_bound_sturm(pot: PotentialSpec, m: int) -> int:
    """Independent bound-mode count of one m (see ``_sturm_census``)."""
    return _sturm_census(pot, [m])[m]


def _polish_brackets(pot: PotentialSpec, m, a, b, ga, gb):
    """Real roots of g in the brackets [a_i, b_i], g(a_i) g(b_i) < 0, at once.

    Safeguarded Newton from the false-position point: a step that leaves its
    bracket, or would be longer than half the previous step, is replaced by
    bisection.  Stops at brentq's tolerance; an iterate where g == 0 exactly
    is the root.
    """
    neg_lo = ga < 0.0
    lo = np.where(neg_lo, a, b)          # g(lo) < 0 < g(hi)
    hi = np.where(neg_lo, b, a)
    x = a - ga * (b - a) / (gb - ga)
    dx_old = np.abs(b - a)
    roots = np.empty_like(x)
    todo = np.arange(x.size)
    m = np.asarray(m)
    for _ in range(_BOUND_MAX_ITER):
        if not todo.size:
            return roots
        mt = _matching(pot, m[todo], x)
        g, dg = mt.g.real, mt.dg.real
        lo = np.where(g < 0.0, x, lo)
        hi = np.where(g > 0.0, x, hi)
        tol = _BOUND_XTOL + _BOUND_RTOL * np.abs(x)
        left, right = np.minimum(lo, hi), np.maximum(lo, hi)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            newton = x - g / dg
            # a target within tol of an end that already sits on the root
            # (to rounding) is taken as that end, not bisected away from it
            inside = (newton >= left - tol) & (newton <= right + tol)
            slow = np.abs(2.0 * g) > np.abs(dx_old * dg)
        nxt = np.where(inside & ~slow, np.clip(newton, left, right), 0.5 * (lo + hi))
        dx_old = np.abs(nxt - x)
        exact = g == 0.0
        done = exact | (dx_old <= tol)
        roots[todo[done]] = np.where(exact, x, nxt)[done]
        keep = ~done
        todo, x, lo, hi, dx_old = todo[keep], nxt[keep], lo[keep], hi[keep], dx_old[keep]
    if todo.size:
        raise ConvergenceError(
            f"bound polish m={int(m[todo[0]])}: no convergence in "
            f"{_BOUND_MAX_ITER} iterations near k={x[0]}")
    return roots


def _bound_grid(lo: float, hi: float, step: float):
    ks = np.arange(lo, hi, step)
    if ks[-1] < hi:
        ks = np.append(ks, hi)
    return ks


def _scan_bound(pot: PotentialSpec, windows: dict, step: float) -> dict:
    """Sorted real roots per m: sign changes on one grid over every window."""
    grids = [_bound_grid(lo, hi, step) for lo, hi in windows.values()]
    ms = np.repeat(np.array(list(windows), dtype=int), [len(g) for g in grids])
    ks = np.concatenate(grids)
    g = _scan(pot, ms, ks)[0].real
    same = ms[:-1] == ms[1:]
    exact = np.nonzero(same & (g[:-1] == 0.0))[0]
    cross = np.nonzero(same & (g[:-1] * g[1:] < 0.0))[0]
    polished = _polish_brackets(pot, ms[cross], ks[cross], ks[cross + 1],
                                g[cross], g[cross + 1])
    roots = {m: [] for m in windows}
    for m, k in zip(ms[exact].tolist() + ms[cross].tolist(),
                    ks[exact].tolist() + polished.tolist()):
        roots[m].append(k)
    return {m: sorted(r) for m, r in roots.items()}


def _bound_roots(pot: PotentialSpec, m_values) -> dict:
    """Real eigen-wavenumbers in (k_B, k_V) per m, checked against the census."""
    kv = pot.k_step
    windows = {m: (pot.k_bottom(m) + 1.0e-9, kv - 1.0e-9) for m in m_values}
    windows = {m: (lo, hi) for m, (lo, hi) in windows.items() if hi > lo}
    roots = {m: [] for m in m_values}
    if not windows:
        return roots
    step = _SCAN_STEP_FACTOR / pot.radius
    roots.update(_scan_bound(pot, windows, step))
    expected = _sturm_census(pot, windows)
    wrong = [m for m in windows if len(roots[m]) != expected[m]]
    # refine the scan until the census agrees (guards against grazing roots)
    for refine in (2, 4, 8):
        if not wrong:
            break
        roots.update(_scan_bound(pot, {m: windows[m] for m in wrong}, step / refine))
        wrong = [m for m in wrong if len(roots[m]) != expected[m]]
    if wrong:
        m = wrong[0]
        raise ConvergenceError(
            f"bound search m={m}: found {len(roots[m])}, census expects {expected[m]}")
    return roots


def find_bound_modes(pot: PotentialSpec, m: int) -> list[EigenMode]:
    """All real eigen-wavenumbers in (k_B, k_V), n = 1, 2, ... by increasing k.

    Sign changes of the real characteristic on a quarter-spacing grid are
    bracketed and polished to brentq's tolerance; the count is cross-checked
    against the Sturm census.
    """
    roots = _bound_roots(pot, [m])[m]
    return _mode_records(pot, [m] * len(roots), range(1, len(roots) + 1), roots)


def _newton(pot: PotentialSpec, m, k0, max_step: float):
    """Damped complex Newton from every seed at once; returns (k, converged).

    Per element: stop when |g|/scale <= 1e-14; step g/dg, or the secant step
    where the derivative is zero or not finite (fail without a previous
    iterate), clipped to ``max_step``; after a step below 1e-13 |k|, or after
    _NEWTON_MAX_ITER steps, one more evaluation decides convergence by the
    residual tolerance.
    """
    n = k0.size
    k = k0.copy()
    ok = np.zeros(n, dtype=bool)
    k_prev = np.zeros(n, dtype=complex)
    g_prev = np.full(n, np.nan, dtype=complex)
    checking = np.zeros(n, dtype=bool)
    todo = np.arange(n)
    m = np.asarray(m)
    for it in range(_NEWTON_MAX_ITER + 1):
        if not todo.size:
            break
        mt = _matching(pot, m[todo], k[todo])
        g, dg = mt.g, mt.dg
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            res = np.abs(g) / mt.scale
            check = checking[todo] | (it == _NEWTON_MAX_ITER)
            ok[todo[check]] = res[check] <= _RESIDUAL_TOL
            conv = ~check & (res <= 1.0e-14)
            ok[todo[conv]] = True
            newton = (dg != 0) & np.isfinite(np.abs(dg))
            kp, gp = k_prev[todo], g_prev[todo]
            secant = ~newton & (gp == gp) & (g != gp)
            move = ~check & ~conv & (newton | secant)
            dk = np.where(newton, g / dg, g * (k[todo] - kp) / (g - gp))
            big = np.abs(dk) > max_step
            dk[big] *= max_step / np.abs(dk[big])
        idx = todo[move]
        k_prev[idx], g_prev[idx] = k[idx], g[move]
        k[idx] = k[idx] - dk[move]
        checking[idx] = np.abs(dk[move]) <= 1.0e-13 * np.abs(k[idx])
        todo = idx
    return k, ok


def _resonance_roots(pot: PotentialSpec, m_values, window, max_im_k):
    """Complex roots per m in the Re k window, and the rejected seeds."""
    kv = pot.k_step
    lo = max(float(window[0]), kv + 1.0e-9)
    hi = float(window[1])
    if max_im_k is None:
        max_im_k = 6.0 / pot.radius
    roots = {m: [] for m in m_values}
    diagnostics = []
    if hi <= lo or not m_values:
        return roots, diagnostics
    step = _SCAN_STEP_FACTOR / pot.radius
    ks = np.arange(lo, hi + step, step)
    ms = np.asarray(m_values, dtype=int)
    g, scale = _scan(pot, np.repeat(ms, ks.size), np.tile(ks, ms.size))
    vals = np.abs(g / scale).reshape(ms.size, ks.size)
    edge = np.full((ms.size, 1), np.inf)
    left = np.hstack([edge, vals[:, :-1]])
    right = np.hstack([vals[:, 1:], edge])
    rows, cols = np.nonzero((vals <= left) & (vals <= right))
    seed_m, seeds = ms[rows], ks[cols]
    found, ok = _newton(pot, seed_m, seeds.astype(complex), max_step=0.75 * step * 2)

    for m, seed, k, good in zip(seed_m.tolist(), seeds.tolist(), found.tolist(), ok):
        if not good:
            diagnostics.append({"m": m, "seed": seed, "reason": "newton did not converge"})
            continue
        if k.imag > 0.0:
            if k.imag < 1.0e-10 * abs(k):
                k = complex(k.real, 0.0)
            else:
                diagnostics.append({"m": m, "seed": seed,
                                    "reason": f"root on wrong half-plane {k}"})
                continue
        if abs(k.imag) >= abs(k.real) or abs(k.imag) > max_im_k:
            diagnostics.append({"m": m, "seed": seed,
                                "reason": f"overdamped root rejected {k}"})
            continue
        if not (lo - 1.0e-6 <= k.real <= hi + 1.0e-6):
            continue
        roots[m].append(k)

    for m in m_values:
        merged = []
        for k in sorted(roots[m], key=lambda kk: kk.real):
            if merged and abs(k - merged[-1]) < _DEDUP_TOL:
                continue
            merged.append(k)
        roots[m] = merged
    return roots, diagnostics


def find_resonances(pot: PotentialSpec, m: int, window, n_start: int | None = None,
                    diagnostics: list | None = None,
                    max_im_k: float | None = None) -> list[EigenMode]:
    """Complex roots with outgoing exterior in the given Re k window.

    Seeds are the local minima of |characteristic| on the real axis, polished
    by a damped complex Newton iteration with the analytic derivative
    (secant fallback).  Non-converged seeds go to ``diagnostics``.

    Roots deeper than ``max_im_k`` (default 6/R: lifetime under one transit)
    are over-damped prompt response, not usable mode objects; they are
    reported in ``diagnostics`` rather than returned, both because of their
    physics and because their exterior growth exceeds the cancellation
    budget of double-precision mode sums.
    """
    roots, diags = _resonance_roots(pot, [m], window, max_im_k)
    if diagnostics is not None:
        diagnostics.extend(diags)
    roots = roots[m]
    if not roots:
        return []
    if n_start is None:
        n_start = count_bound_sturm(pot, m) + 1
    return _mode_records(pot, [m] * len(roots), range(n_start, n_start + len(roots)),
                         roots)


def delta_j(mode: EigenMode, pot: PotentialSpec) -> float:
    """Image distance of one tunneling mode from angular-momentum conservation.

    Delta_j = m / k_out(Re E) - R, so that Re E = V_eff(R + Delta_j).
    Bound modes (Re E <= V0) have no exit channel and raise; leaky modes
    above the barrier top return a non-positive value (flagged by sign).
    """
    e = mode.energy.real
    if e <= pot.v0:
        raise DomainError(
            f"delta_j needs Re E > V0; mode (m={mode.m}, n={mode.n}) has Re E = {e}")
    kout = math.sqrt(2.0 * pot.mass * (e - pot.v0)) / pot.hbar
    return mode.m / kout - pot.radius


@dataclass
class ModeTable:
    """Solved modes for a set of angular momenta, sorted by (m, n)."""

    pot: PotentialSpec
    modes: list
    diagnostics: list

    def __post_init__(self):
        self.modes = sorted(self.modes, key=lambda mo: (mo.m, mo.n))
        self._by_m = {}
        for mo in self.modes:
            self._by_m.setdefault(mo.m, []).append(mo)

    def by_m(self, m: int) -> list:
        return list(self._by_m.get(m, []))

    @property
    def m_values(self):
        return sorted(self._by_m)

    def __len__(self):
        return len(self.modes)

    def counts(self):
        out = {BOUND: 0, TUNNELING: 0, LEAKY: 0}
        for mo in self.modes:
            out[mo.klass] += 1
        return out


def build_mode_table(pot: PotentialSpec, m_values, resonance_k_max: float,
                     jobs: int = 1, max_im_k: float | None = None) -> ModeTable:
    """Solve bound ladders plus resonances up to Re k = resonance_k_max.

    The whole m window is one batch (see the module docstring), and the
    modes are bitwise equal to per-m ``find_bound_modes`` plus
    ``find_resonances`` calls.  ``jobs`` is ignored and remains only because
    the benchmark harness (``perfbench/sample.py``) passes it: the solve
    starts no threads, because its Python-level iteration holds the
    interpreter lock, and threads over parts of the window measured no
    faster than one.
    """
    m_values = sorted(set(int(m) for m in m_values))
    bound = _bound_roots(pot, m_values)
    resonances, diagnostics = _resonance_roots(
        pot, m_values, (pot.k_step, resonance_k_max), max_im_k)
    ms, ns, ks = [], [], []
    for m in m_values:
        roots = bound[m] + resonances[m]
        ms += [m] * len(roots)
        ns += range(1, len(roots) + 1)
        ks += roots
    return ModeTable(pot=pot, modes=_mode_records(pot, ms, ns, ks),
                     diagnostics=diagnostics)
