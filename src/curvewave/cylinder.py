"""Cylinder functions (J_m, H^(1)_m, K_m) for complex arguments and large orders.

Conventions used throughout the package:

* orders ``m`` are non-negative integers (negative orders fold back via
  ``Z_{-m} = (-1)^m Z_m`` for J/H and ``K_{-m} = K_m``),
* derivatives are always formed from the two-term recurrence
  ``Z_m' = (Z_{m-1} - Z_{m+1})/2`` (K: ``K_m' = -(K_{m-1}+K_{m+1})/2``),
  never from finite differences,
* the deep-evanescent regime (|z| well below the order), where raw values
  overflow double precision, is served by exponentially-scaled paths:
  ``ln_bessel_k``, ``hankel1_scaled`` and the ``*_logderiv`` /
  ``*_order_ratios`` helpers.  Those are exact scaled forward recurrences
  seeded in the representable region, so no asymptotic series is involved.
* the array ratios ``bessel_k_ratio_array`` and ``hankel1_ratio_array``
  (the exterior tails of the mode profiles) always take one scaled forward
  recurrence in the order, seeded by ``kve``/``hankel1`` at orders 0 and 1,
  over a whole (rows x points) block with each row's reference argument as
  one more column.  A direct large-order AMOS value costs several
  microseconds a point (D. E. Amos, ACM TOMS 12, 265 (1986)); the two seeds
  plus m elementwise steps cost a fraction of that.  The recurrence is stable
  for K and, on and above the real axis, for H^(1) (W. Gautschi, SIAM Rev. 9,
  24 (1967)); far below the axis H^(1) turns minimal under the turning point,
  and there the direct value is used (see ``hankel1_ratio_array``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import DomainError, RangeError, SingularArgumentError

_MAX_ABS_ARG = 1.0e4
_MAX_IMAG = 690.0          # e^|Im z| factors overflow beyond this
_RESCALE = 1.0e250


@dataclass(frozen=True)
class CylinderEval:
    """One function evaluation: order, argument, value and derivative."""

    order: int
    argument: complex
    value: complex
    derivative: complex


def _check_order(m):
    if m != int(m) or m < 0:
        raise DomainError(f"order must be a non-negative integer, got {m!r}")
    return int(m)


def _check_argument(m, z):
    z = np.asarray(z, dtype=complex)
    if not np.all(np.isfinite(z)):
        raise DomainError(f"argument must be finite, got {z!r}")
    if np.any(np.abs(z) > _MAX_ABS_ARG):
        raise RangeError(f"|z| > {_MAX_ABS_ARG:g} unsupported (order {m})")
    if np.any(np.abs(z.imag) > _MAX_IMAG):
        bad = z if z.ndim == 0 else z[np.abs(z.imag) > _MAX_IMAG].flat[0]
        raise RangeError(
            f"bessel evaluation overflows double range: order {m}, argument {bad}"
        )
    return z


def _scalar_like(z, values):
    if np.ndim(z) == 0:
        return complex(values)
    return values


def _signed_order(m: int, z, fn):
    # fold negative order through Z_{-m} = (-1)^m Z_m
    if m >= 0:
        return fn(m, z)
    return (-1.0) ** (-m) * fn(-m, z)


def bessel_j(m: int, z) -> complex:
    """Bessel function of the first kind J_m(z), complex argument."""
    m = _check_order(m)
    z = _check_argument(m, z)
    out = special.jv(m, z)
    if not np.all(np.isfinite(out)):
        raise RangeError(f"J_{m} overflowed at argument {z!r}")
    return _scalar_like(z, out)


def bessel_j_deriv(m: int, z) -> complex:
    """J_m'(z) from the recurrence (J_{m-1} - J_{m+1})/2."""
    m = _check_order(m)
    z = _check_argument(m, z)
    jm1 = _signed_order(m - 1, z, special.jv)
    jp1 = special.jv(m + 1, z)
    return _scalar_like(z, 0.5 * (jm1 - jp1))


def hankel1(m: int, z) -> complex:
    """Hankel function of the first kind H^(1)_m(z); decays for Im z > 0."""
    m = _check_order(m)
    z = _check_argument(m, z)
    if np.any(z == 0):
        raise SingularArgumentError(f"H^(1)_{m} is singular at z = 0")
    out = special.hankel1(m, z)
    if not np.all(np.isfinite(out)):
        raise RangeError(f"H^(1)_{m} overflowed at argument {z!r}; "
                         "use hankel1_scaled for the deep-evanescent regime")
    return _scalar_like(z, out)


def hankel1_deriv(m: int, z) -> complex:
    """H^(1)_m'(z) from the recurrence (H_{m-1} - H_{m+1})/2."""
    m = _check_order(m)
    z = _check_argument(m, z)
    if np.any(z == 0):
        raise SingularArgumentError(f"H^(1)_{m} is singular at z = 0")
    hm1 = _signed_order(m - 1, z, special.hankel1)
    hp1 = special.hankel1(m + 1, z)
    return _scalar_like(z, 0.5 * (hm1 - hp1))


def bessel_k(m: int, x: float) -> float:
    """Modified Bessel function K_m(x), real positive argument only."""
    m = _check_order(m)
    x = float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise DomainError(f"K_{m} requires x > 0, got {x!r}")
    out = special.kv(m, x)
    if not math.isfinite(out):
        raise RangeError(f"K_{m}({x}) overflows double range; use ln_bessel_k")
    return float(out)


def bessel_k_deriv(m: int, x: float) -> float:
    """K_m'(x) = -(K_{m-1}(x) + K_{m+1}(x))/2."""
    m = _check_order(m)
    x = float(x)
    if x <= 0.0:
        raise DomainError(f"K_{m}' requires x > 0, got {x!r}")
    return float(-0.5 * (special.kv(abs(m - 1), x) + special.kv(m + 1, x)))


def eval_cylinder(kind: str, m: int, z) -> CylinderEval:
    """Evaluate one cylinder function with its derivative.

    ``kind`` is one of ``"j"``, ``"h1"``, ``"k"``.  Used by the debug CLI
    and by oracle cross-checks.
    """
    kind = kind.lower()
    if kind == "j":
        return CylinderEval(int(m), complex(z), bessel_j(m, z), bessel_j_deriv(m, z))
    if kind == "h1":
        return CylinderEval(int(m), complex(z), hankel1(m, z), hankel1_deriv(m, z))
    if kind == "k":
        x = complex(z)
        if x.imag != 0.0:
            raise DomainError("K_m is implemented for real positive argument only")
        return CylinderEval(int(m), complex(z), complex(bessel_k(m, x.real)),
                            complex(bessel_k_deriv(m, x.real)))
    raise DomainError(f"unknown cylinder function kind {kind!r}")


# ---------------------------------------------------------------------------
# exponentially scaled paths for the deep-evanescent regime
# ---------------------------------------------------------------------------

def _k_pair_scaled(m: int, x: float):
    """Return (K_{m-1}, K_m, log_scale): true K = value * exp(log_scale).

    Scaled forward recurrence seeded from kve at orders 0, 1; forward
    recurrence is stable for K (dominant in increasing order).
    """
    # kve(m, x) = K_m(x) e^x, O(1) at orders 0 and 1 for any x > 0
    a = float(special.kve(0, x))
    b = float(special.kve(1, x))
    scale = -x
    if m == 0:
        return b, a, scale      # K_{-1} = K_1
    if m == 1:
        return a, b, scale
    for mu in range(1, m):
        a, b = b, (2.0 * mu / x) * b + a
        if abs(b) > _RESCALE:
            a /= b
            scale += math.log(abs(b))
            b = math.copysign(1.0, b)
    return a, b, scale


def ln_bessel_k(m: int, x: float) -> float:
    """log K_m(x), valid far beyond the overflow range of K itself."""
    m = _check_order(m)
    x = float(x)
    if x <= 0.0:
        raise DomainError(f"ln K_{m} requires x > 0, got {x!r}")
    _, b, scale = _k_pair_scaled(m, x)
    return math.log(b) + scale


def bessel_k_logderiv(m: int, x: float) -> float:
    """K_m'(x)/K_m(x), overflow-safe for any order."""
    m = _check_order(m)
    x = float(x)
    if x <= 0.0:
        raise DomainError(f"x > 0 required, got {x!r}")
    a, b, _ = _k_pair_scaled(m, x)
    # K_{m+1} = (2m/x) K_m + K_{m-1}
    kp1 = (2.0 * m / x) * b + a
    return -0.5 * (a + kp1) / b


def bessel_k_order_ratios(m: int, x: float):
    """(K_{m-1}/K_m, K_{m+1}/K_m), overflow-safe."""
    m = _check_order(m)
    x = float(x)
    if x <= 0.0:
        raise DomainError(f"x > 0 required, got {x!r}")
    a, b, _ = _k_pair_scaled(m, x)
    return a / b, (2.0 * m / x) + a / b


def _h_pair_scaled(m: int, z: complex):
    """Return (H_{m-1}, H_m, log_scale) for H^(1); true H = value * exp(scale).

    Direct evaluation when representable; otherwise a scaled forward
    recurrence seeded at orders around |z| where H^(1) is O(1).  Forward
    recurrence in the order is stable for H^(1) (dominant solution).
    """
    z = complex(z)
    if z == 0:
        raise SingularArgumentError("H^(1) is singular at z = 0")
    hm = special.hankel1(m, z)
    hm1 = special.hankel1(1, z) * -1.0 if m == 0 else special.hankel1(m - 1, z)
    if np.isfinite(hm) and np.isfinite(hm1) and hm != 0:
        return complex(hm1), complex(hm), 0.0
    mu0 = max(0, min(m - 1, int(abs(z))))
    a = complex(special.hankel1(mu0, z))
    b = complex(special.hankel1(mu0 + 1, z))
    scale = 0.0
    for mu in range(mu0 + 1, m):
        a, b = b, (2.0 * mu / z) * b - a
        if abs(b) > _RESCALE:
            a /= abs(b)
            scale += math.log(abs(b))
            b /= abs(b)
    return a, b, scale


def hankel1_scaled(m: int, z):
    """(value, log_scale) with H^(1)_m(z) = value * exp(log_scale).

    Keeps large orders representable: |value| is O(1)-bounded while
    ``log_scale`` carries the exponential growth of the evanescent regime.
    """
    m = _check_order(m)
    z = complex(_check_argument(m, np.asarray(z, dtype=complex)))
    _, b, scale = _h_pair_scaled(m, z)
    return b, scale


def hankel1_logderiv(m: int, z) -> complex:
    """H^(1)_m'(z)/H^(1)_m(z), overflow-safe for any order."""
    m = _check_order(m)
    z = complex(z)
    a, b, _ = _h_pair_scaled(m, z)
    hp1 = (2.0 * m / z) * b - a
    return 0.5 * (a - hp1) / b


def hankel1_order_ratios(m: int, z):
    """(H_{m-1}/H_m, H_{m+1}/H_m) for H^(1), overflow-safe."""
    m = _check_order(m)
    z = complex(z)
    a, b, _ = _h_pair_scaled(m, z)
    return a / b, (2.0 * m / z) - a / b


def _with_ref_column(z, z_ref):
    """(rows, P+1) array: ``z`` as rows of P points, each row's ``z_ref`` last."""
    ref = np.asarray(z_ref, dtype=z.dtype)
    return np.concatenate([z.reshape(ref.size, -1), ref.reshape(-1, 1)], axis=1)


def _forward_recurrence(m, z, a, b, scale, sign: float):
    """(Z_{m-1}, Z_m, scale) at every element of ``z``, from Z_0 and Z_1.

    ``a``, ``b`` are Z_0, Z_1 in units of exp(``scale``) and
    Z_{mu+1} = (2 mu/z) Z_mu + sign Z_{mu-1}; Z_{-1} = sign Z_1.  ``m`` is
    one order for every element, or one order per entry of the first axis
    of ``z``, sorted ascending: the recurrence then runs on a shrinking
    slice, and the rows whose order it has reached leave with their pair.
    An element whose value passes _RESCALE is divided by its magnitude, the
    log going into its scale.  Every element goes through the same
    elementwise operations, so its result does not depend on the array it
    sits in.
    """
    orders = np.broadcast_to(np.asarray(m, dtype=int), z.shape[:1])
    top = int(orders[-1]) if orders.size else 0
    # ends[mu]: number of leading rows whose order is <= mu
    ends = np.searchsorted(orders, np.arange(top + 1), side="right")
    lower, value, out_scale = np.empty_like(a), np.empty_like(b), np.empty_like(scale)
    lower[:ends[0]] = sign * b[:ends[0]]
    value[:ends[0]] = a[:ends[0]]
    out_scale[:ends[0]] = scale[:ends[0]]
    lo = ends[0]
    a, b, scale, w = a[lo:], b[lo:], scale[lo:], 2.0 / z[lo:]
    for mu in range(1, top):
        if ends[mu] > lo:
            n = ends[mu] - lo
            lower[lo:ends[mu]], value[lo:ends[mu]] = a[:n], b[:n]
            out_scale[lo:ends[mu]] = scale[:n]
            a, b, scale, w = a[n:], b[n:], scale[n:], w[n:]
            lo = ends[mu]
        nxt = w * b
        nxt *= mu
        if sign > 0.0:
            nxt += a
        else:
            nxt -= a
        a, b = b, nxt
        # cheap screen on the components; |b| only where one is large
        if np.max(np.abs(b.view(float))) > _RESCALE:
            big = np.abs(b) > _RESCALE
            mag = np.abs(b[big])
            a[big] /= mag
            b[big] /= mag
            scale[big] += np.log(mag)
    if lo == 0:
        return a, b, scale
    lower[lo:], value[lo:], out_scale[lo:] = a, b, scale
    return lower, value, out_scale


def _ratio_to_ref(value, scale, shape):
    """Each row over its last column, from (value, log scale) pairs."""
    with np.errstate(under="ignore"):
        out = (value[:, :-1] / value[:, -1:]) * np.exp(scale[:, :-1] - scale[:, -1:])
    return out.reshape(shape)


def bessel_k_ratio_array(m: int, x, x_ref):
    """K_m(x)/K_m(x_ref) for x > 0, overflow/underflow-safe.

    ``x`` is (P,) with a scalar ``x_ref``, or (rows, P) with one ``x_ref``
    per row.  One scaled forward recurrence from kve at orders 0 and 1
    (K_m = kve e^{-x}); it is stable for K, the dominant solution.
    """
    m = _check_order(m)
    x = np.asarray(x, dtype=float)
    cols = _with_ref_column(x, x_ref)
    _, value, scale = _forward_recurrence(m, cols, special.kve(0, cols),
                                          special.kve(1, cols), -cols, 1.0)
    return _ratio_to_ref(value, scale, x.shape)


#: below this Im z the forward recurrence for H^(1) is not used (see
#: hankel1_ratio_array); its rounding error grows like e^{2 |Im z|} * eps
_FORWARD_MIN_IMAG = -4.0


def hankel1_ratio_array(m: int, z, z_ref):
    """H^(1)_m(z)/H^(1)_m(z_ref) for z != 0, overflow-safe.

    ``z`` is (P,) with a scalar ``z_ref``, or (rows, P) with one ``z_ref``
    per row.  One scaled forward recurrence from H^(1)_0 and H^(1)_1, which
    is stable on and above the real axis: H^(1) is dominant where it grows
    (m > |z|) and neutral where it oscillates.  Below the axis, under the
    turning point, H^(1) decays in the order while H^(2) grows, so rounding
    is amplified by up to e^{2 |Im z|}; there (Im z < _FORWARD_MIN_IMAG) the
    direct value is taken instead, unless it overflows.
    """
    m = _check_order(m)
    z = np.asarray(z, dtype=complex)
    cols = _with_ref_column(z, z_ref)
    _, value, scale = _forward_recurrence(m, cols, special.hankel1(0, cols),
                                          special.hankel1(1, cols),
                                          np.zeros(cols.shape), -1.0)
    low = cols.imag < _FORWARD_MIN_IMAG
    if np.any(low):
        with np.errstate(over="ignore", invalid="ignore"):
            direct = special.hankel1(m, cols[low])
        ok = np.isfinite(direct)
        value[low] = np.where(ok, direct, value[low])
        scale[low] = np.where(ok, 0.0, scale[low])
    return _ratio_to_ref(value, scale, z.shape)
