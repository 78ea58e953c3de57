"""Eigenmodes of the circular step potential.

Boundary matching of the interior J_m(kr) against the exterior K_m (below the
step) or outgoing H^(1)_m (above the step) defines a characteristic function
whose zeros are the bound and resonance wavenumbers.  Everything is written
in "log-derivative ratio" form, i.e. the exterior function enters only
through Z'/Z and the order ratios Z_{m+-1}/Z_m, so the deep-evanescent regime
(huge K_m / H_m values) never overflows.
"""

from __future__ import annotations

import cmath
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy import optimize, special

from . import cylinder
from .errors import ConvergenceError, DomainError, NearDefectiveModeError
from .potential import PotentialSpec

BOUND = "bound"
TUNNELING = "tunneling"
LEAKY = "leaky"

_SCAN_STEP_FACTOR = np.pi / 4.0      # scan step = pi/(4R), quarter mode spacing
_DEDUP_TOL = 1.0e-8
_RESIDUAL_TOL = 1.0e-10


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


def _make_mode(pot: PotentialSpec, m: int, n: int, k: complex) -> EigenMode:
    k = complex(k)
    energy = complex(pot.hbar**2 * k * k / (2.0 * pot.mass))
    gamma = max(0.0, -2.0 * energy.imag)
    if k.imag == 0.0 and k.real < pot.k_step:
        klass = BOUND
    elif k.real < pot.k_top(m):
        klass = TUNNELING
    else:
        klass = LEAKY
    c = _amplitude_ratio(pot, m, k)
    norm = _analytic_norm(pot, m, k)
    return EigenMode(m=m, n=n, k=k, energy=energy, gamma=gamma, c=c,
                     norm=norm, klass=klass)


def _exterior_wavenumber(pot: PotentialSpec, k: complex):
    """(q, kind): q = kappa and kind='k' below the step, q = k_out, 'h1' above."""
    e = pot.hbar**2 * (complex(k) ** 2) / (2.0 * pot.mass)
    if e.real < pot.v0:
        q = np.sqrt(2.0 * pot.mass * (pot.v0 - e)) / pot.hbar
        return q, "k"
    q = np.sqrt(2.0 * pot.mass * (e - pot.v0)) / pot.hbar
    return q, "h1"


def _ext_logderiv(kind: str, m: int, w):
    if kind == "k":
        if np.iscomplexobj(w) and abs(np.imag(w)) > 0:
            # bound branch is only ever used with real kappa
            w = complex(w).real
        return cylinder.bessel_k_logderiv(m, float(np.real(w)))
    return cylinder.hankel1_logderiv(m, w)


def _g_and_deriv(pot: PotentialSpec, m: int, k: complex):
    """Scaled characteristic g(k) = J'(z) - (q/k) J(z) S(w) and dg/dk.

    S = Z'(w)/Z(w) with w = qR; poles of the raw determinant are divided out
    by Z(w), which never vanishes on the search paths.
    """
    R = pot.radius
    k = complex(k)
    z = k * R
    q, kind = _exterior_wavenumber(pot, k)
    q = complex(q)
    w = q * R

    J = complex(special.jv(m, z))
    Jm1 = complex(special.jv(m - 1, z)) if m >= 1 else -complex(special.jv(1, z))
    Jp1 = complex(special.jv(m + 1, z))
    Jp = 0.5 * (Jm1 - Jp1)
    Jpp = -(1.0 - m * m / (z * z)) * J - Jp / z

    S = complex(_ext_logderiv(kind, m, w))
    if kind == "k":
        # S' from the modified Bessel ODE
        Sp = (1.0 + m * m / (w * w)) - S / w - S * S
        dq_dk = -k / q
        dqk_dk = -(pot.k_step**2) / (q * k * k)
    else:
        Sp = -(1.0 - m * m / (w * w)) - S / w - S * S
        dq_dk = k / q
        dqk_dk = (pot.k_step**2) / (q * k * k)

    g = Jp - (q / k) * J * S
    dg = (R * Jpp
          - dqk_dk * J * S
          - (q / k) * (R * Jp * S + J * Sp * R * dq_dk))
    scale = abs(Jp) + abs(J * S)
    return g, dg, scale


def characteristic(pot: PotentialSpec, m: int, k):
    """Scaled matching determinant; zero exactly at eigen-wavenumbers.

    O(1) magnitude away from roots.  Real for real k below the step (bound
    branch), complex otherwise.  Accepts a scalar or an array of real k.
    """
    if np.ndim(k) == 0:
        kc = complex(k)
        if kc == 0:
            raise DomainError("characteristic undefined at k = 0")
        g, _, scale = _g_and_deriv(pot, m, kc)
        val = g / scale
        if kc.imag == 0.0 and kc.real < pot.k_step:
            return val.real
        return val
    ks = np.asarray(k, dtype=float)
    if np.any(ks == 0):
        raise DomainError("characteristic undefined at k = 0")
    out = np.empty(ks.shape, dtype=complex)
    below = ks < pot.k_step
    if np.any(below):
        out[below] = _char_grid_bound(pot, m, ks[below])
    if np.any(~below):
        out[~below] = _char_grid_resonance(pot, m, ks[~below])
    return out


def characteristic_deriv(pot: PotentialSpec, m: int, k) -> complex:
    """Analytic d/dk of the (unscaled) ratio-form characteristic."""
    g, dg, scale = _g_and_deriv(pot, m, complex(k))
    return dg / scale


def _char_grid_bound(pot: PotentialSpec, m: int, ks):
    """Vectorized real characteristic on the bound branch."""
    R = pot.radius
    z = ks * R
    kap = np.sqrt(pot.k_step**2 - ks**2)
    w = kap * R
    J = special.jv(m, z)
    Jm1 = special.jv(m - 1, z) if m >= 1 else -special.jv(1, z)
    Jp = 0.5 * (Jm1 - special.jv(m + 1, z))
    with np.errstate(over="ignore", invalid="ignore"):
        kv0 = special.kve(m, w)
        S = -0.5 * (special.kve(abs(m - 1), w) + special.kve(m + 1, w)) / kv0
    bad = ~np.isfinite(S)
    for i in np.nonzero(bad)[0]:
        S[i] = cylinder.bessel_k_logderiv(m, float(w[i]))
    g = Jp - (kap / ks) * J * S
    return g / (np.abs(Jp) + np.abs(J * S))


def _char_grid_resonance(pot: PotentialSpec, m: int, ks):
    """Vectorized complex characteristic on the resonance branch (real k)."""
    R = pot.radius
    z = ks * R
    kout = np.sqrt(np.maximum(ks**2 - pot.k_step**2, 0.0))
    w = kout * R
    J = special.jv(m, z)
    Jm1 = special.jv(m - 1, z) if m >= 1 else -special.jv(1, z)
    Jp = 0.5 * (Jm1 - special.jv(m + 1, z))
    with np.errstate(over="ignore", invalid="ignore"):
        H = special.hankel1(m, w)
        Hp = 0.5 * ((special.hankel1(m - 1, w) if m >= 1 else -special.hankel1(1, w))
                    - special.hankel1(m + 1, w))
        S = Hp / H
    bad = ~np.isfinite(S)
    for i in np.nonzero(bad)[0]:
        S[i] = cylinder.hankel1_logderiv(m, complex(w[i]))
    g = Jp - (kout / ks) * J * S
    return g / (np.abs(Jp) + np.abs(J * S))


def _amplitude_ratio(pot: PotentialSpec, m: int, k: complex) -> complex:
    """c = Z_m(qR)/J_m(kR); inf when the exterior value exceeds double range."""
    q, kind = _exterior_wavenumber(pot, k)
    w = complex(q) * pot.radius
    J = complex(special.jv(m, k * pot.radius))
    if kind == "k":
        ln_k = cylinder.ln_bessel_k(m, w.real)
        if ln_k > 709.0 or ln_k - math.log(abs(J)) > 709.0:
            return complex(np.inf)
        return complex(math.exp(ln_k) / J)
    val, scale = cylinder.hankel1_scaled(m, w)
    ln_mag = math.log(abs(val)) + scale - math.log(abs(J))
    if ln_mag > 709.0:
        return complex(np.inf)
    return val * cmath.exp(scale) / J


def _analytic_norm(pot: PotentialSpec, m: int, k: complex) -> complex:
    """Closed-form inner product (angular factor pi included).

    interior:  pi R^2/2 [J_m^2 - J_{m-1} J_{m+1}](kR)
    exterior: -pi R^2/2 J_m(kR)^2 (1 - rho_- rho_+), rho_± = Z_{m±1}(qR)/Z_m(qR)

    The exterior form follows from continuity (exterior amplitude J(kR)/Z(qR))
    and the indefinite integral of x Z_m^2(x); for resonances the oscillatory
    boundary term at infinity is the usual regularized (dropped) one.
    """
    R = pot.radius
    k = complex(k)
    q, kind = _exterior_wavenumber(pot, k)
    # real arithmetic for bound modes keeps their norm exactly real
    z = k.real * R if kind == "k" and k.imag == 0.0 else k * R
    w = complex(q) * R
    J = special.jv(m, z)
    Jm1 = special.jv(m - 1, z) if m >= 1 else -special.jv(1, z)
    Jp1 = special.jv(m + 1, z)
    interior = J * J - Jm1 * Jp1
    if kind == "k":
        rm, rp = cylinder.bessel_k_order_ratios(m, w.real)
    else:
        rm, rp = cylinder.hankel1_order_ratios(m, w)
    exterior = -J * J * (1.0 - rm * rp)
    return complex((np.pi * R * R / 2.0) * (interior + exterior))


def mode_norm(mode: EigenMode, pot: PotentialSpec) -> complex:
    """Analytic norm of a verified mode; raises on near-defective modes."""
    norm = _analytic_norm(pot, mode.m, mode.k)
    if abs(norm) < 1.0e-14 * (np.pi * pot.radius**2 / 2.0):
        raise NearDefectiveModeError(
            f"mode (m={mode.m}, n={mode.n}) norm {norm} too small for expansion")
    return norm


def count_bound_sturm(pot: PotentialSpec, m: int) -> int:
    """Independent bound-mode count from J_m oscillation theory.

    One eigenvalue sits in each interval between consecutive zeros of
    J_m(kR) below kR = k_V R (the interior log-derivative sweeps from +inf
    to -inf across each), plus one in the final partial interval iff the
    interior log-derivative has already dropped below the exterior one.
    """
    kv = pot.k_step
    kb = pot.k_bottom(m)
    if kb >= kv:
        return 0
    zmax = kv * pot.radius
    if m == 0:
        nt = int(zmax / np.pi) + 2
    else:
        nt = max(1, int((zmax - m) / np.pi) + 3)
    zeros = special.jn_zeros(m, nt)
    s = int(np.sum(zeros < zmax))
    k_end = kv * (1.0 - 1.0e-12) if kv * 1.0e-12 > 1e-9 else kv - 1.0e-9
    z = k_end * pot.radius
    J = special.jv(m, z)
    Jp = 0.5 * ((special.jv(m - 1, z) if m >= 1 else -special.jv(1, z))
                - special.jv(m + 1, z))
    mu = k_end * Jp / J
    kap = math.sqrt(kv**2 - k_end**2)
    nu = kap * cylinder.bessel_k_logderiv(m, kap * pot.radius)
    return s + (1 if mu < nu else 0)


def find_bound_modes(pot: PotentialSpec, m: int) -> list[EigenMode]:
    """All real eigen-wavenumbers in (k_B, k_V), n = 1, 2, ... by increasing k.

    Sign changes of the real characteristic on a quarter-spacing grid are
    bracketed and polished to relative 1e-12; the count is cross-checked
    against the Sturm census.
    """
    kb = pot.k_bottom(m)
    kv = pot.k_step
    if kb >= kv:
        return []
    step = _SCAN_STEP_FACTOR / pot.radius
    lo = kb + 1.0e-9
    hi = kv - 1.0e-9
    if hi <= lo:
        return []
    ks = np.arange(lo, hi, step)
    if ks[-1] < hi:
        ks = np.append(ks, hi)
    vals = np.real(_char_grid_bound(pot, m, ks))
    roots = []
    f = lambda k: float(np.real(characteristic(pot, m, k)))
    for i in range(len(ks) - 1):
        if vals[i] == 0.0:
            roots.append(ks[i])
        elif vals[i] * vals[i + 1] < 0.0:
            roots.append(optimize.brentq(f, ks[i], ks[i + 1],
                                         xtol=1e-13, rtol=8.9e-16))
    expected = count_bound_sturm(pot, m)
    if len(roots) != expected:
        # halve the scan until the census agrees (guards against grazing roots)
        for refine in (2, 4, 8):
            ks = np.arange(lo, hi, step / refine)
            if ks[-1] < hi:
                ks = np.append(ks, hi)
            vals = np.real(_char_grid_bound(pot, m, ks))
            roots = []
            for i in range(len(ks) - 1):
                if vals[i] * vals[i + 1] < 0.0:
                    roots.append(optimize.brentq(f, ks[i], ks[i + 1],
                                                 xtol=1e-13, rtol=8.9e-16))
            if len(roots) == expected:
                break
        else:
            raise ConvergenceError(
                f"bound search m={m}: found {len(roots)}, census expects {expected}")
    return [_make_mode(pot, m, n + 1, complex(k)) for n, k in enumerate(sorted(roots))]


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
    kv = pot.k_step
    lo = max(float(window[0]), kv + 1.0e-9)
    hi = float(window[1])
    if max_im_k is None:
        max_im_k = 6.0 / pot.radius
    if hi <= lo:
        return []
    step = _SCAN_STEP_FACTOR / pot.radius
    ks = np.arange(lo, hi + step, step)
    vals = np.abs(_char_grid_resonance(pot, m, ks))
    seeds = []
    for i in range(len(ks)):
        left = vals[i - 1] if i > 0 else np.inf
        right = vals[i + 1] if i < len(ks) - 1 else np.inf
        if vals[i] <= left and vals[i] <= right:
            seeds.append(ks[i])

    roots = []
    for seed in seeds:
        k, ok = _newton_polish(pot, m, complex(seed), max_step=0.75 * step * 2)
        if not ok:
            if diagnostics is not None:
                diagnostics.append({"m": m, "seed": float(seed),
                                    "reason": "newton did not converge"})
            continue
        if k.imag > 0.0:
            if k.imag < 1.0e-10 * abs(k):
                k = complex(k.real, 0.0)
            else:
                if diagnostics is not None:
                    diagnostics.append({"m": m, "seed": float(seed),
                                        "reason": f"root on wrong half-plane {k}"})
                continue
        if abs(k.imag) >= abs(k.real) or abs(k.imag) > max_im_k:
            if diagnostics is not None:
                diagnostics.append({"m": m, "seed": float(seed),
                                    "reason": f"overdamped root rejected {k}"})
            continue
        if not (lo - 1.0e-6 <= k.real <= hi + 1.0e-6):
            continue
        roots.append(k)

    roots.sort(key=lambda kk: kk.real)
    merged = []
    for k in roots:
        if merged and abs(k - merged[-1]) < _DEDUP_TOL:
            continue
        merged.append(k)
    if n_start is None:
        n_start = count_bound_sturm(pot, m) + 1
    return [_make_mode(pot, m, n_start + i, k) for i, k in enumerate(merged)]


def _newton_polish(pot: PotentialSpec, m: int, k0: complex, max_step: float,
                   max_iter: int = 60):
    k = complex(k0)
    k_prev, g_prev = None, None
    for _ in range(max_iter):
        g, dg, scale = _g_and_deriv(pot, m, k)
        if abs(g) / scale <= 1.0e-14:
            return k, True
        if dg != 0 and np.isfinite(abs(dg)):
            dk = g / dg
        elif k_prev is not None and g != g_prev:
            dk = g * (k - k_prev) / (g - g_prev)
        else:
            return k, False
        if abs(dk) > max_step:
            dk *= max_step / abs(dk)
        k_prev, g_prev = k, g
        k = k - dk
        if abs(dk) <= 1.0e-13 * abs(k):
            g, _, scale = _g_and_deriv(pot, m, k)
            return k, abs(g) / scale <= _RESIDUAL_TOL
    g, _, scale = _g_and_deriv(pot, m, k)
    return k, abs(g) / scale <= _RESIDUAL_TOL


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

    Work is parallel over m; results are merged in ascending (m, n) order so
    the table is identical for any number of workers.
    """
    m_values = sorted(set(int(m) for m in m_values))

    def solve(m):
        diags = []
        bound = find_bound_modes(pot, m)
        res = find_resonances(pot, m, (pot.k_step, resonance_k_max),
                              n_start=len(bound) + 1, diagnostics=diags,
                              max_im_k=max_im_k)
        return bound + res, diags

    modes, diagnostics = [], []
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            for mods, diags in pool.map(solve, m_values):
                modes.extend(mods)
                diagnostics.extend(diags)
    else:
        for m in m_values:
            mods, diags = solve(m)
            modes.extend(mods)
            diagnostics.extend(diags)
    return ModeTable(pot=pot, modes=modes, diagnostics=diagnostics)
