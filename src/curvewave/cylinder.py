"""Cylinder functions (J_m, H^(1)_m, K_m) for complex arguments and large orders.

Conventions used throughout the package:

* orders ``m`` are non-negative integers (negative orders fold back via
  ``Z_{-m} = (-1)^m Z_m`` for J/H and ``K_{-m} = K_m``),
* derivatives are always formed from the two-term recurrence
  ``Z_m' = (Z_{m-1} - Z_{m+1})/2`` (K: ``K_m' = -(K_{m-1}+K_{m+1})/2``),
  never from finite differences,
* the exterior functions K_m and H^(1)_m, whose raw values overflow double
  precision in the deep-evanescent regime (|z| well below the order), come
  as the pair (Z_{m-1}, Z_m) with a log scale from one private batched
  function, ``_exterior_pairs``, over elements of any orders.  It runs one
  scaled forward recurrence in the order, seeded by ``kve``/``hankel1`` at
  orders 0 and 1, so no asymptotic series is involved.  A direct
  large-order AMOS value costs several microseconds a point (D. E. Amos,
  ACM TOMS 12, 265 (1986)); the two seeds plus m elementwise steps cost a
  fraction of that.  The recurrence is stable for K and, on and above the
  real axis, for H^(1) (W. Gautschi, SIAM Rev. 9, 24 (1967)).  Far below the
  axis H^(1) turns minimal under the turning point, so there is one rule:
  where Im z < -4, H^(1) is taken directly at orders m-1 and m when both are
  finite, and the recurrence value is kept where they overflow.
* everything exterior is built on that pair: ``bessel_k_logderiv``,
  ``hankel1_logderiv`` and ``hankel1_scaled`` are one-element calls, the
  array ratios ``bessel_k_ratio_array`` and ``hankel1_ratio_array`` (the
  exterior tails of the mode profiles) one call over a (rows x points)
  block with each row's reference argument as one more column, and the
  mode solver's matching kernel one call over its (m, k) elements.
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


def _check_hankel_argument(m, z):
    z = _check_argument(m, z)
    if np.any(z == 0):
        raise SingularArgumentError(f"H^(1)_{m} is singular at z = 0")
    return z


def _check_k_argument(m, x) -> float:
    x = float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise DomainError(f"K_{m} requires x > 0, got {x!r}")
    return x


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
    z = _check_hankel_argument(m, z)
    out = special.hankel1(m, z)
    if not np.all(np.isfinite(out)):
        raise RangeError(f"H^(1)_{m} overflowed at argument {z!r}; "
                         "use hankel1_scaled for the deep-evanescent regime")
    return _scalar_like(z, out)


def hankel1_deriv(m: int, z) -> complex:
    """H^(1)_m'(z) from the recurrence (H_{m-1} - H_{m+1})/2."""
    m = _check_order(m)
    z = _check_hankel_argument(m, z)
    hm1 = _signed_order(m - 1, z, special.hankel1)
    hp1 = special.hankel1(m + 1, z)
    return _scalar_like(z, 0.5 * (hm1 - hp1))


def bessel_k(m: int, x: float) -> float:
    """Modified Bessel function K_m(x), real positive argument only."""
    m = _check_order(m)
    x = _check_k_argument(m, x)
    out = special.kv(m, x)
    if not math.isfinite(out):
        raise RangeError(f"K_{m}({x}) overflows double range; use bessel_k_logderiv")
    return float(out)


def bessel_k_deriv(m: int, x: float) -> float:
    """K_m'(x) = -(K_{m-1}(x) + K_{m+1}(x))/2."""
    m = _check_order(m)
    x = _check_k_argument(m, x)
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
# the exterior pair: one scaled forward recurrence in the order
# ---------------------------------------------------------------------------

def _forward_recurrence(m, z, a, b, scale, sign: float):
    """(Z_{m-1}, Z_m, scale) at every element of the 1-D ``z``, from Z_0 and Z_1.

    ``a``, ``b`` are Z_0, Z_1 in units of exp(``scale``) and
    Z_{mu+1} = (2 mu/z) Z_mu + sign Z_{mu-1}; Z_{-1} = sign Z_1.  ``m`` holds
    one order per element, sorted ascending: the recurrence runs on a
    shrinking slice, and the elements whose order it has reached leave with
    their pair.  An element whose value passes _RESCALE is divided by its
    magnitude, the log going into its scale.
    """
    orders = np.asarray(m, dtype=int)
    top = int(orders[-1]) if orders.size else 0
    # ends[mu]: number of leading elements whose order is <= mu
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


#: below this Im z H^(1) is taken directly (see _exterior_pairs); the forward
#: recurrence's rounding error there grows like e^{2 |Im z|} * eps
_FORWARD_MIN_IMAG = -4.0


def _exterior_pairs(m, z, evanescent):
    """(Z_{m-1}, Z_m, log scale) at every element; Z = value * exp(log scale).

    Z is K_m(Re z) where ``evanescent`` is set and H^(1)_m(z) elsewhere;
    ``m`` and ``evanescent`` broadcast against the 1-D ``z``.  Where
    Im z < _FORWARD_MIN_IMAG, H^(1) is taken directly at orders m-1 and m
    when both are finite.  Every other element takes one scaled forward
    recurrence per kind over its elements sorted by order, seeded by
    kve e^{-x} (K) or hankel1 (H^(1)) at orders 0 and 1.  Every element
    goes through the same elementwise operations, so its result does not
    depend on the batch it sits in.
    """
    z = np.asarray(z, dtype=complex)
    m = np.broadcast_to(np.asarray(m, dtype=int), z.shape)
    evanescent = np.broadcast_to(evanescent, z.shape)
    lower = np.empty(z.shape, dtype=complex)
    value = np.empty(z.shape, dtype=complex)
    scale = np.empty(z.shape)
    by_order = np.argsort(m, kind="stable")
    k_idx, h_idx = by_order[evanescent[by_order]], by_order[~evanescent[by_order]]
    x = z.real[k_idx]
    lower[k_idx], value[k_idx], scale[k_idx] = _forward_recurrence(
        m[k_idx], x, special.kve(0, x), special.kve(1, x), -x, 1.0)
    zh = z[h_idx]
    direct = zh.imag < _FORWARD_MIN_IMAG
    if np.any(direct):
        idx = h_idx[direct]
        with np.errstate(over="ignore", invalid="ignore"):
            h_m1 = special.hankel1(np.abs(m[idx] - 1), zh[direct])
            h_m = special.hankel1(m[idx], zh[direct])
        h_m1[m[idx] == 0] *= -1.0      # H_{-1} = -H_1
        ok = np.isfinite(h_m1) & np.isfinite(h_m)
        lower[idx[ok]], value[idx[ok]], scale[idx[ok]] = h_m1[ok], h_m[ok], 0.0
        direct[direct] = ok            # an overflowing pair stays with the recurrence
        h_idx, zh = h_idx[~direct], zh[~direct]
    lower[h_idx], value[h_idx], scale[h_idx] = _forward_recurrence(
        m[h_idx], zh, special.hankel1(0, zh), special.hankel1(1, zh),
        np.zeros(zh.size), -1.0)
    return lower, value, scale


def bessel_k_logderiv(m: int, x: float) -> float:
    """K_m'(x)/K_m(x), overflow-safe for any order."""
    m = _check_order(m)
    x = _check_k_argument(m, x)
    a, b, _ = _exterior_pairs(m, [x], True)
    a, b = a[0].real, b[0].real
    # K_{m+1} = (2m/x) K_m + K_{m-1}
    kp1 = (2.0 * m / x) * b + a
    return float(-0.5 * (a + kp1) / b)


def hankel1_scaled(m: int, z):
    """(value, log_scale) with H^(1)_m(z) = value * exp(log_scale).

    Keeps large orders representable: ``log_scale`` carries the exponential
    growth of the evanescent regime.
    """
    m = _check_order(m)
    z = complex(_check_hankel_argument(m, z))
    _, b, scale = _exterior_pairs(m, [z], False)
    return complex(b[0]), float(scale[0])


def hankel1_logderiv(m: int, z) -> complex:
    """H^(1)_m'(z)/H^(1)_m(z), overflow-safe for any order."""
    m = _check_order(m)
    z = complex(_check_hankel_argument(m, z))
    a, b, _ = _exterior_pairs(m, [z], False)
    a, b = complex(a[0]), complex(b[0])
    hp1 = (2.0 * m / z) * b - a
    return 0.5 * (a - hp1) / b


def _ratio_array(m: int, z, z_ref, evanescent: bool):
    """Z_m(z)/Z_m(z_ref) by rows: each row of ``z`` over its own ``z_ref``.

    Each row's reference argument goes into the same exterior-pair batch as
    one more column.
    """
    ref = np.asarray(z_ref, dtype=z.dtype)
    cols = np.concatenate([z.reshape(ref.size, -1), ref.reshape(-1, 1)], axis=1)
    _, value, scale = _exterior_pairs(m, cols.ravel(), evanescent)
    if evanescent:
        value = value.real
    value, scale = value.reshape(cols.shape), scale.reshape(cols.shape)
    with np.errstate(under="ignore"):
        out = (value[:, :-1] / value[:, -1:]) * np.exp(scale[:, :-1] - scale[:, -1:])
    return out.reshape(z.shape)


def bessel_k_ratio_array(m: int, x, x_ref):
    """K_m(x)/K_m(x_ref) for x > 0, overflow/underflow-safe.

    ``x`` is (P,) with a scalar ``x_ref``, or (rows, P) with one ``x_ref``
    per row.  The forward recurrence is stable for K, the dominant solution.
    """
    m = _check_order(m)
    return _ratio_array(m, np.asarray(x, dtype=float), x_ref, True)


def hankel1_ratio_array(m: int, z, z_ref):
    """H^(1)_m(z)/H^(1)_m(z_ref) for z != 0, overflow-safe.

    ``z`` is (P,) with a scalar ``z_ref``, or (rows, P) with one ``z_ref``
    per row.  The forward recurrence is stable on and above the real axis:
    H^(1) is dominant where it grows (m > |z|) and neutral where it
    oscillates.  Below the axis, under the turning point, H^(1) decays in
    the order while H^(2) grows, so rounding is amplified by up to
    e^{2 |Im z|}; there the direct value is used (see ``_exterior_pairs``).
    """
    m = _check_order(m)
    return _ratio_array(m, np.asarray(z, dtype=complex), z_ref, False)
