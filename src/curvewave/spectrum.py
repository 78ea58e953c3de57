"""Eigenmodes of the circular step potential.

Boundary matching of the interior J_m(kr) against the exterior K_m (below the
step) or outgoing H^(1)_m (above the step) defines a characteristic function
whose zeros are the bound and resonance wavenumbers.  Everything is written
in "log-derivative ratio" form, i.e. the exterior function enters only
through Z'/Z and the order ratios Z_{m+-1}/Z_m, so the deep-evanescent regime
(huge K_m / H_m values) never overflows.

All of it runs on one array kernel, ``_matching``, over elements (m_i, k_i)
with any mix of orders.  The interior takes the pair (J_{m-1}, J_m) from one
Miller recurrence, ``cylinder._bessel_j``, over the real-k elements (in float
arithmetic, so bound quantities stay exactly real) and one over the
complex-k elements, and J_{m+1} from the three-term relation, which is
stable here because kR >= m (to within a few orders) on every search path.
The exterior pair (Z_{m-1}, Z_m) comes from ``cylinder._exterior_pairs`` in
one call over all elements, K and H^(1) mixed.

``build_mode_table`` solves a whole m window as one batch:

1. one real-k grid over every m, with a step of a quarter mode spacing;
2. bound roots: sign changes are bracketed and every bracket is polished at
   once by safeguarded Newton (bisection when a step leaves its bracket) to
   brentq's tolerance; an m whose count disagrees with the Sturm census is
   scanned again at half, a quarter and an eighth of the step;
3. resonances: the local minima of |characteristic| on the real axis seed
   one batched damped complex Newton iteration with a secant fallback; a
   seed whose iterate falls below k_V, where only bound roots lie, is
   stopped there and listed in the diagnostics;
4. one more kernel pass over all roots gives the norms and amplitude ratios
   of the ``ModeTable``, the column store every later stage reads.

Every element goes through the same elementwise operations whatever batch it
sits in, so a window solve and per-m solves give bitwise equal modes.
``find_bound_modes``, ``find_resonances``, ``characteristic`` and
``mode_norm`` are one-m calls of the same batch, on ``EigenMode`` records.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
#: a resonance root is accepted within this distance outside its Re k window;
#: a Newton iterate this far below k_V stops (see ``_newton``)
_WINDOW_SLACK = 1.0e-6
#: elements per kernel call on the scan grids; bounds the kernel's temporaries
_GRID_CHUNK = 2048


@dataclass(frozen=True)
class EigenMode:
    """One (m, n) solution of the matching problem: the record view of one
    ``ModeTable`` row, as the one-m functions return it.

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
        # one recurrence over the real-k elements, in float arithmetic, and
        # one over the complex-k elements
        Jm1, J = np.empty((2, z.size), dtype=complex)
        for sel, zs in ((k.imag == 0.0, z.real), (k.imag != 0.0, z)):
            if np.any(sel):
                Jm1[sel], J[sel] = cylinder._bessel_j(m[sel], zs[sel])
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


def _solved_table(pot: PotentialSpec, m, n, k, diagnostics) -> ModeTable:
    """Table of the roots (m_i, n_i, k_i); norms and ratios from one kernel pass."""
    mt = _matching(pot, m, k)
    norm, c = _norms(pot, mt), _amplitude_ratios(mt)
    # + 0.0 turns the -0.0 imaginary part of a real value into 0.0
    norm.imag += 0.0
    c.imag += 0.0
    return ModeTable(pot, m, n, k, norm, c, diagnostics)


def mode_norm(mode: EigenMode, pot: PotentialSpec) -> complex:
    """Analytic norm of a verified mode; raises on near-defective modes."""
    norm = complex(_norms(pot, _matching(pot, [mode.m], [mode.k]))[0])
    if abs(norm) < 1.0e-14 * (np.pi * pot.radius**2 / 2.0):
        raise NearDefectiveModeError(
            f"mode (m={mode.m}, n={mode.n}) norm {norm} too small for expansion")
    return norm


def _hankel_phase(m, z):
    """Continuous phase theta of H^(1)_m(z) = M e^{i theta} at real z > m >= 0.

    theta = theta_D + arg(H e^{-i theta_D}) with the Debye phase
    theta_D = sqrt(z^2 - m^2) - m arccos(m/z) - pi/4 (DLMF 10.20); it is the
    continuous phase (theta -> -pi/2 as z -> 0+, DLMF 10.18) while
    |theta - theta_D| < pi.  H comes from one ``cylinder._exterior_pairs``
    call; its log scale is real and does not change the phase.
    """
    debye = np.sqrt(z * z - m * m) - m * np.arccos(m / z) - np.pi / 4.0
    _, h, _ = cylinder._exterior_pairs(m, z, False)
    return debye + np.angle(h * np.exp(-1j * debye))


def _zeros_below(m, z):
    """Number of zeros of J_m in (0, z), per element of the 1-D ``m``, ``z``.

    J_m = M cos(theta), so its zeros sit at theta = (n - 1/2) pi, n >= 1, and
    n = floor((theta + pi/2)/pi) of them lie below z > m; none lie below
    z <= m.
    """
    m, z = np.asarray(m, dtype=int), np.asarray(z, dtype=float)
    count = np.zeros(z.shape, dtype=int)
    osc = z > m
    count[osc] = np.floor((_hankel_phase(m[osc], z[osc]) + np.pi / 2.0) / np.pi)
    return count


def _sturm_census(pot: PotentialSpec, m_values) -> dict:
    """Bound-mode count per m from J_m oscillation theory.

    One eigenvalue sits in each interval between consecutive zeros of
    J_m(kR) below kR = k_V R (the interior log-derivative sweeps from +inf
    to -inf across each), plus one in the final partial interval iff the
    interior log-derivative k J'/J has already dropped below the exterior
    one kappa K'/K there, that is iff g J < 0 at its end.  The zeros are
    counted from the phase of H^(1)_m(k_V R) (``_zeros_below``), independent
    of the root search; it and the final-interval test are one kernel call
    each over every m.
    """
    kv = pot.k_step
    counts = dict.fromkeys(m_values, 0)
    ms = [m for m in counts if pot.k_bottom(m) < kv]
    if not ms:
        return counts
    k_end = kv * (1.0 - 1.0e-12) if kv * 1.0e-12 > 1e-9 else kv - 1.0e-9
    mt = _matching(pot, ms, np.full(len(ms), k_end))
    zeros = _zeros_below(ms, np.full(len(ms), kv * pot.radius))
    counts.update(zip(ms, (zeros + (mt.g.real * mt.J.real < 0.0)).tolist()))
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
    return _solved_table(pot, [m] * len(roots), range(1, len(roots) + 1), roots, []).modes


def _newton(pot: PotentialSpec, m, k0, max_step: float, k_stop: float):
    """Damped complex Newton from every seed at once; returns (k, converged, stopped).

    Per element: stop when |g|/scale <= 1e-14; step g/dg, or the secant step
    where the derivative is zero or not finite (fail without a previous
    iterate), clipped to ``max_step``; after a step below 1e-13 |k|, or after
    _NEWTON_MAX_ITER steps, one more evaluation decides convergence by the
    residual tolerance.

    Before each kernel call an element whose iterate has Re k < ``k_stop``
    leaves the iteration, unconverged and marked in ``stopped``.  Only the
    left edge stops, below k_V: there ``_matching`` takes the K branch, whose
    roots are the bound modes that the resonance search drops, and no traced
    iterate that crossed it came back.  Iterates that pass the right edge do
    come back and converge inside the window.  Every element goes through
    the same elementwise operations whatever else is in the batch, so the
    stop leaves the other elements' iterates bitwise unchanged.
    """
    n = k0.size
    k = k0.copy()
    ok = np.zeros(n, dtype=bool)
    stopped = np.zeros(n, dtype=bool)
    k_prev = np.zeros(n, dtype=complex)
    g_prev = np.full(n, np.nan, dtype=complex)
    checking = np.zeros(n, dtype=bool)
    todo = np.arange(n)
    m = np.asarray(m)
    for it in range(_NEWTON_MAX_ITER + 1):
        out = k[todo].real < k_stop
        if np.any(out):
            stopped[todo[out]] = True
            todo = todo[~out]
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
    return k, ok, stopped


def _resonance_roots(pot: PotentialSpec, m_values, window, max_im_k):
    """Complex roots per m in the Re k window, and the rejected seeds.

    A root is accepted within _WINDOW_SLACK of the window's edges.  A seed
    whose Newton iterate falls that far below k_V + 1e-9, the lowest left
    edge, is stopped (see ``_newton``) and listed as "left the window below
    k_V": it would have ended on a bound root, which the acceptance test
    drops, or not converged.  So a window that starts at k_V, as
    ``build_mode_table``'s does, stops its seeds at its own left edge.
    """
    kv = pot.k_step
    k_low = kv + 1.0e-9
    lo = max(float(window[0]), k_low)
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
    found, ok, stopped = _newton(pot, seed_m, seeds.astype(complex),
                                 max_step=0.75 * step * 2, k_stop=k_low - _WINDOW_SLACK)

    for m, seed, k, good, stop in zip(seed_m.tolist(), seeds.tolist(), found.tolist(), ok,
                                      stopped):
        if stop:
            diagnostics.append({"m": m, "seed": seed, "reason": "left the window below k_V"})
            continue
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
        if not (lo - _WINDOW_SLACK <= k.real <= hi + _WINDOW_SLACK):
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
    (secant fallback).  Non-converged seeds, and seeds whose iterate fell
    below k_V (see ``_resonance_roots``), go to ``diagnostics``.

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
    if n_start is None:
        n_start = count_bound_sturm(pot, m) + 1
    return _solved_table(pot, [m] * len(roots), range(n_start, n_start + len(roots)),
                         roots, []).modes


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
    return float(_image_distance(pot, mode.m, e))


def _image_distance(pot: PotentialSpec, m, e):
    """m / k_out - R with k_out = sqrt(2m* (e - V0))/hbar, for scalars or arrays."""
    return m / (np.sqrt(2.0 * pot.mass * (e - pot.v0)) / pot.hbar) - pot.radius


def _derived_columns(pot: PotentialSpec, m, k):
    """(energy, gamma, klass) of the rows (m_i, k_i), see ``EigenMode``.

    By the float operations of the complex scalar expressions: numpy's
    complex array arithmetic rounds some of them differently in the last bit.
    """
    h2k = pot.hbar**2 * k.real, pot.hbar**2 * k.imag
    energy = np.empty(k.shape, dtype=complex)
    energy.real = (h2k[0] * k.real - h2k[1] * k.imag) / (2.0 * pot.mass)
    energy.imag = (h2k[0] * k.imag + h2k[1] * k.real) / (2.0 * pot.mass)
    gamma = -2.0 * energy.imag
    orders, at = np.unique(m, return_inverse=True)
    k_top = np.array([pot.k_top(int(mi)) for mi in orders])[at]
    klass = np.where((k.imag == 0.0) & (k.real < pot.k_step), BOUND,
                     np.where(k.real < k_top, TUNNELING, LEAKY))
    return energy, np.where(gamma > 0.0, gamma, 0.0), klass


#: row key m * _KEY_STRIDE + n, increasing along rows sorted by (m, n)
_KEY_STRIDE = 1 << 32


class ModeTable:
    """Solved modes as columns strictly sorted by (m, n), with an m -> slice index.

    The columns (see ``EigenMode``) are ``m``, ``n``, ``k``, ``norm`` and ``c``
    as given and ``energy``, ``gamma`` and ``klass`` derived from (m, k).
    ``modes`` and ``by_m`` are the record view, built on first use.
    """

    def __init__(self, pot: PotentialSpec, m, n, k, norm, c, diagnostics):
        self.pot, self.diagnostics = pot, list(diagnostics)
        self.m, self.n = np.asarray(m, dtype=int), np.asarray(n, dtype=int)
        self.k, self.norm, self.c = (np.asarray(x, dtype=complex) for x in (k, norm, c))
        self._keys = self.m * _KEY_STRIDE + self.n
        if np.any(np.diff(self.m) < 0) or np.any(np.diff(self._keys) <= 0):
            raise DomainError("mode table rows are not strictly sorted by (m, n)")
        self.energy, self.gamma, self.klass = _derived_columns(pot, self.m, self.k)
        orders, starts = np.unique(self.m, return_index=True)
        ends = starts[1:].tolist() + [len(self)]
        self._slices = {m: slice(a, b) for m, a, b in zip(orders.tolist(), starts.tolist(), ends)}
        self._modes = None

    def rows(self, m, n) -> np.ndarray:
        """Row indices of the pairs (m_i, n_i); KeyError on a pair the table lacks."""
        m, n = np.asarray(m, dtype=int), np.asarray(n, dtype=int)
        at = np.searchsorted(self._keys, m * _KEY_STRIDE + n)
        found = at < len(self)
        found[found] = (self.m[at[found]] == m[found]) & (self.n[at[found]] == n[found])
        if not np.all(found):
            i = np.argmin(found)
            raise KeyError((int(m[i]), int(n[i])))
        return at

    @property
    def modes(self) -> list:
        """Every row as an EigenMode record."""
        if self._modes is None:
            self._modes = [EigenMode(*row) for row in zip(
                self.m.tolist(), self.n.tolist(), self.k.tolist(), self.energy.tolist(),
                self.gamma.tolist(), self.c.tolist(), self.norm.tolist(),
                self.klass.tolist())]
        return self._modes

    def by_m(self, m: int) -> list:
        return self.modes[self._slices[m]] if m in self._slices else []

    def __len__(self):
        return len(self.m)

    def counts(self):
        return {klass: int(np.sum(self.klass == klass)) for klass in (BOUND, TUNNELING, LEAKY)}


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
    return _solved_table(pot, ms, ns, ks, diagnostics)
