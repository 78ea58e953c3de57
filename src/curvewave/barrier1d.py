"""1D barrier analysis: step phase, Wigner delay, rectangular-barrier
transmission, the flattened effective barrier, and tunneling wave packets.

Energies for the flattened (modified) effective barrier are measured from its
interior plateau, which is the natural plane-wave kinetic energy there; the
potential jump at the boundary is the full step height, so the reflection
phase tracks the planar-step closed form until the centrifugal tail matters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import cylinder
from .errors import AccuracyError, DomainError, UnwrapError
from .potential import PotentialSpec


def step_phase(energy: float, v0: float) -> float:
    """Reflection phase of the planar step, 2 arctan sqrt(E/(V0-E)) - pi."""
    if not 0.0 < energy < v0:
        raise DomainError(f"step phase needs 0 < E < V0, got E={energy}, V0={v0}")
    return 2.0 * math.atan(math.sqrt(energy / (v0 - energy))) - math.pi


def wigner_delay(energy: float, v0: float, hbar: float = 1.0) -> float:
    """Group delay hbar dphi/dE of the planar step; minimal (2 hbar/V0) at V0/2."""
    if not 0.0 < energy < v0:
        raise DomainError(f"Wigner delay needs 0 < E < V0, got E={energy}")
    ratio = (v0 - energy) / energy
    return (hbar / v0) * (math.sqrt(ratio) + 1.0 / math.sqrt(ratio))


@dataclass(frozen=True)
class RectBarrier:
    """Rectangular barrier with a lowered floor on the exit side."""

    v_max: float = 100.0
    v_min: float = 60.0
    x_a: float = 0.0
    x_b: float = 1.0

    def __post_init__(self):
        if self.x_a > self.x_b:
            raise DomainError("need x_a <= x_b")
        if self.v_min >= self.v_max:
            raise DomainError("need v_min < v_max")

    @property
    def width(self) -> float:
        return self.x_b - self.x_a


def _rect_match(bar: RectBarrier, energy: float):
    """Matching amplitudes for any E > 0; exit channel may be evanescent.

    Written with cos(qL) and L sinc(qL), which stays fully conditioned
    through the barrier top q -> 0.
    """
    k = math.sqrt(2.0 * energy)
    kp = np.sqrt(complex(2.0 * (energy - bar.v_min)))   # Im >= 0: decaying exit
    q = np.sqrt(complex(2.0 * (energy - bar.v_max)))
    L = bar.width
    ql = q * L
    cos_ql = np.cos(ql)
    # sin(qL)/q; complex division of subnormal qL is NaN-prone, so take the
    # exact limit for vanishing arguments
    l_sinc = L if abs(ql) < 1e-30 else L * np.sinc(ql / np.pi)
    denom = cos_ql * (1.0 + kp / k) - 1j * (q * q * l_sinc / k + kp * l_sinc)
    t = 2.0 / denom
    r = t * (cos_ql - 1j * kp * l_sinc) - 1.0
    return complex(t), complex(r), k, complex(kp)


def rect_transmission(bar: RectBarrier, energy: float):
    """Two-interface plane-wave matching across the rectangular barrier.

    Returns dict with transmission t (amplitude at x_b, phase measured so a
    k-independent t leaves the transmitted packet launched from x_b),
    reflection r, and the exit wavenumber.  Flux: |r|^2 + (k'/k)|t|^2 = 1.
    """
    if energy <= bar.v_min or energy <= 0.0:
        raise DomainError(f"no propagating exit channel at E={energy}")
    t, r, k, kp = _rect_match(bar, energy)
    kp = kp.real
    return {"t": t, "r": r, "k": k, "k_out": kp,
            "flux": abs(r) ** 2 + (kp / k) * abs(t) ** 2}


def transmission_phase_curve(bar: RectBarrier, energies):
    """Unwrapped phase of t(E) on a monotone energy grid."""
    energies = np.asarray(energies, dtype=float)
    ts = np.array([rect_transmission(bar, e)["t"] for e in energies])
    return np.unwrap(np.angle(ts))


def reflection_phase_curve_rect(bar: RectBarrier, energies):
    """Unwrapped reflection phase; defined for any E > 0 (|r| = 1 below v_min)."""
    energies = np.asarray(energies, dtype=float)
    rs = np.array([_rect_match(bar, float(e))[1] for e in energies])
    return np.unwrap(np.angle(rs))


@dataclass(frozen=True)
class ModifiedEffBarrier:
    """Effective radial barrier with the interior flattened to a plateau.

    The default plateau continues the interior effective potential from just
    inside the boundary, so the step at R keeps its full height V0.  exit_x
    is where transmitted packets are launched/measured; the default absorbs
    the shift the transmission amplitude itself induces.
    """

    m: int
    pot: PotentialSpec
    plateau: float | None = None
    exit_x: float = 2.7

    @property
    def plateau_value(self) -> float:
        if self.plateau is not None:
            return self.plateau
        p = self.pot
        return (p.hbar * self.m) ** 2 / (2.0 * p.mass * p.radius**2)


def reflection_modified(bar: ModifiedEffBarrier, energy: float):
    """Reflection of a plane wave off the flattened effective barrier.

    ``energy`` is the kinetic energy above the plateau.  The exterior is
    K_m (total energy below the step) or outgoing H^(1)_m (above); matching
    value and radial derivative at R gives F.  |F| = 1 exactly in the
    evanescent regime; above the step 1 - |F|^2 is the tunneling flux.
    Returns dict with F, phi_r (continuous branch in (-pi, 0) below the
    step, principal continuation above), and the exterior amplitude.
    """
    if energy <= 0.0:
        raise DomainError(f"need plane-wave energy above the plateau, got {energy}")
    p = bar.pot
    e_tot = bar.plateau_value + energy
    q = math.sqrt(2.0 * p.mass * energy) / p.hbar
    R = p.radius
    if e_tot < p.v0:
        kap = math.sqrt(2.0 * p.mass * (p.v0 - e_tot)) / p.hbar
        lam = kap * cylinder.bessel_k_logderiv(bar.m, kap * R)
        F = complex((1.0 + 1j * lam / q) / (1.0 - 1j * lam / q))
        phi = 2.0 * math.atan(lam / q)
        val, scale = None, None
        amp = None
    else:
        kout = complex(np.sqrt(2.0 * p.mass * complex(e_tot - p.v0)) / p.hbar)
        lam = kout * cylinder.hankel1_logderiv(bar.m, kout * R)
        rho = lam / (1j * q)
        F = (1.0 - rho) / (1.0 + rho)
        phi = math.atan2(F.imag, F.real)
        val, scale = cylinder.hankel1_scaled(bar.m, kout * R)
        amp = (1.0 + F) / (val * np.exp(scale))
    return {"F": complex(F), "phi_r": float(phi), "e_total": e_tot,
            "hankel_amp": amp}


def gh_theory(m0: float, k0: float, pot: PotentialSpec,
              fd_step_fraction: float = 1.0e-3):
    """Boundary shift from the reflection-phase slope of the flattened barrier.

    delay = hbar dphi_R/dE at the packet's radial kinetic energy, by centered
    differences with Richardson extrapolation; l_GH = (hbar m0 / m* R) delay.
    """
    m = int(round(abs(m0)))
    if abs(m0) - m > 1.0e-9:
        raise DomainError("m0 must be integral for the effective barrier order")
    e0 = (pot.hbar * k0) ** 2 / (2.0 * pot.mass)
    if e0 >= pot.v0:
        raise DomainError(f"gh_theory needs E0 < V0, got E0={e0}")
    bar = ModifiedEffBarrier(m=m, pot=pot)
    eps0 = e0 - bar.plateau_value
    if eps0 <= 0.0:
        raise DomainError("packet energy below the effective plateau")
    h = fd_step_fraction * pot.v0

    def slope(step):
        lo = reflection_modified(bar, eps0 - step)["phi_r"]
        hi = reflection_modified(bar, eps0 + step)["phi_r"]
        return (hi - lo) / (2.0 * step)

    d1 = slope(h)
    d2 = slope(0.5 * h)
    delay = pot.hbar * (4.0 * d2 - d1) / 3.0
    l_gh = (pot.hbar * abs(m0) / (pot.mass * pot.radius)) * delay
    return {"l_gh": float(l_gh), "delay": float(delay),
            "richardson_step": float(abs(d2 - d1) / max(abs(d2), 1e-300))}


@dataclass(frozen=True)
class KWindow:
    """Gaussian weighting of plane-wave components, W = exp(-(k-k0)^2/sigma^2)."""

    k0: float
    sigma_k: float

    def weights(self, k):
        return np.exp(-((np.asarray(k) - self.k0) / self.sigma_k) ** 2)

    def grid(self, n: int):
        lo = max(1.0e-6, self.k0 - 6.0 * self.sigma_k)
        return np.linspace(lo, self.k0 + 6.0 * self.sigma_k, n)


def _transmitted_amplitudes(window: KWindow, barrier, ks):
    """T(E(k)) and exit wavenumber for each k of the window grid.

    For the flattened barrier the amplitude is the matched exterior solution
    evaluated at exit_x (Hankel above the step, K-ratio continuation below),
    so the phase is smooth across the step energy.
    """
    if isinstance(barrier, RectBarrier):
        energies = 0.5 * ks**2
        ts = np.empty(len(ks), dtype=complex)
        kps = np.empty(len(ks), dtype=complex)
        for i, e in enumerate(energies):
            ts[i], _, _, kps[i] = _rect_match(barrier, float(e))
        return energies, ts, kps, barrier.x_b
    if isinstance(barrier, ModifiedEffBarrier):
        pot = barrier.pot
        plateau = barrier.plateau_value
        energies = plateau + 0.5 * ks**2
        ts = np.empty(len(ks), dtype=complex)
        kps = np.empty(len(ks), dtype=complex)
        x_b = barrier.exit_x
        for i, e_tot in enumerate(energies):
            out = reflection_modified(barrier, float(e_tot - plateau))
            if e_tot >= pot.v0:
                kout = complex(np.sqrt(complex(2.0 * pot.mass * (e_tot - pot.v0)))
                               / pot.hbar)
                val, scale = cylinder.hankel1_scaled(barrier.m, kout * x_b)
                ts[i] = out["hankel_amp"] * val * np.exp(scale)
                kps[i] = kout
            else:
                kap = math.sqrt(2.0 * pot.mass * (pot.v0 - e_tot)) / pot.hbar
                ratio = cylinder.bessel_k_ratio_array(
                    barrier.m, np.array([kap * x_b]), kap * pot.radius)[0]
                ts[i] = (1.0 + out["F"]) * ratio
                kps[i] = 1j * kap
        return energies, ts, kps, x_b
    raise DomainError(f"unsupported barrier type {type(barrier).__name__}")


def tunneling_packet_1d(window: KWindow, barrier, x: float, t,
                        n_nodes: int = 600):
    """Transmitted wave packet beyond the barrier.

    Evaluates the k-integral of the windowed transmitted components,
    W(k) T(E) exp(i(k'(E)(x - x_b) - E t)), by trapezoid over +-6 sigma with
    a grid-doubling convergence check.  The incident packet hits the barrier
    at t = 0, so a k-independent T leaves the peak at x_b at t = 0.
    """
    ks = window.grid(n_nodes)
    energies, ts, kps, x_b = _transmitted_amplitudes(window, barrier, ks)
    if np.ndim(x) != 0:
        raise DomainError("x must be scalar; t may be an array")
    if x < x_b - 1.0e-12:
        raise DomainError(f"transmitted packet defined for x >= x_b = {x_b}")
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))

    def integral(kgrid, egrid, tgrid, kpgrid):
        w = window.weights(kgrid)
        phase = np.exp(1j * (kpgrid[None, :] * (x - x_b)
                             - egrid[None, :] * t_arr[:, None]))
        vals = np.trapezoid(w[None, :] * tgrid[None, :] * phase, kgrid, axis=1)
        return vals

    out = integral(ks, energies, ts, kps)
    ks2 = window.grid(2 * n_nodes)
    e2, t2, kp2, _ = _transmitted_amplitudes(window, barrier, ks2)
    out2 = integral(ks2, e2, t2, kp2)
    if np.max(np.abs(out2 - out)) > 1.0e-6 * max(1.0, float(np.max(np.abs(out2)))):
        raise AccuracyError("k-integral not converged; increase n_nodes")
    if np.ndim(t) == 0:
        return complex(out2[0])
    return out2


def transmitted_profile(window: KWindow, barrier, xs, t: float,
                        n_nodes: int = 900) -> np.ndarray:
    """|Psi|^2 of the transmitted packet on an array of positions at one time."""
    ks = window.grid(n_nodes)
    energies, ts_amp, kps, x_b = _transmitted_amplitudes(window, barrier, ks)
    xs = np.asarray(xs, dtype=float)
    if np.any(xs < x_b - 1e-12):
        raise DomainError(f"positions must be >= x_b = {x_b}")
    w = window.weights(ks)
    phase = np.exp(1j * (kps[None, :] * (xs[:, None] - x_b) - energies[None, :] * t))
    vals = np.trapezoid(w * ts_amp * phase, ks, axis=1)
    return np.abs(vals) ** 2


def transmitted_peak_time(window: KWindow, barrier, x_eval: float,
                          t_lo: float, t_hi: float, n_t: int = 481) -> float:
    """Instant the transmitted packet peaks at x_eval (parabolic refinement)."""
    tg = np.linspace(t_lo, t_hi, n_t)
    vals = np.abs(tunneling_packet_1d(window, barrier, x_eval, tg)) ** 2
    i = int(np.argmax(vals))
    if 0 < i < len(tg) - 1:
        denom = vals[i - 1] - 2 * vals[i] + vals[i + 1]
        if denom != 0:
            return float(tg[i] - 0.5 * (tg[1] - tg[0])
                         * (vals[i + 1] - vals[i - 1]) / denom)
    return float(tg[i])


def delay_from_phase(energies, phis, e0: float, hbar: float = 1.0) -> float:
    """hbar dphi/dE at e0 by centered difference on the sampled curve."""
    energies = np.asarray(energies, dtype=float)
    phis = np.asarray(phis, dtype=float)
    if not np.all(np.diff(energies) > 0):
        raise DomainError("energy grid must be strictly increasing")
    if not energies[0] < e0 < energies[-1]:
        raise DomainError(f"E0={e0} outside the sampled curve")
    i = int(np.searchsorted(energies, e0))
    lo, hi = max(0, i - 1), min(len(energies) - 1, i + 1)
    if abs(phis[hi] - phis[lo]) > math.pi:
        raise UnwrapError("phase jump inside the differentiation stencil")
    h = min(e0 - energies[0], energies[-1] - e0,
            energies[hi] - energies[lo])
    lo_v = np.interp(e0 - h / 2, energies, phis)
    hi_v = np.interp(e0 + h / 2, energies, phis)
    return float(hbar * (hi_v - lo_v) / h)


def linear_phase_slope(energies, phis, e_lo: float, e_hi: float,
                       hbar: float = 1.0) -> float:
    """hbar times the secant slope of the phase curve over [e_lo, e_hi]."""
    energies = np.asarray(energies, dtype=float)
    phis = np.asarray(phis, dtype=float)
    lo = np.interp(e_lo, energies, phis)
    hi = np.interp(e_hi, energies, phis)
    return float(hbar * (hi - lo) / (e_hi - e_lo))
