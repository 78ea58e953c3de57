"""Cylinder functions (J_m, H^(1)_m, K_m) for complex arguments and large orders.

Conventions used throughout the package:

* orders ``m`` are non-negative integers (the order-0 pair folds back via
  ``Z_{-1} = -Z_1`` for J/H and ``K_{-1} = K_1``),
* derivatives are always formed from the order recurrences, never from
  finite differences,
* every interior J comes from one private batched function, ``_bessel_j``,
  over elements of any orders: one Miller backward recurrence in the order,
  normalized by the Neumann sum rule, that keeps the pair (J_{m-1}, J_m) on
  its way down, in place of per-point AMOS ``jv`` calls.  The profile tables
  take J_m from it and the mode solver's matching kernel the pair.  This
  module has no scalar J, H^(1) or K wrappers,
* the exterior functions K_m and H^(1)_m, whose raw values overflow double
  precision in the deep-evanescent regime (|z| well below the order), come
  as the pair (Z_{m-1}, Z_m) with a log scale from one private batched
  function, ``_exterior_pairs``, over elements of any orders.  It runs one
  scaled forward recurrence in the order, seeded at orders 0 and 1 by
  Hankel's expansion (DLMF 10.17.5, 10.40.2) where |z| >= 20 and by AMOS
  ``kve``/``hankel1`` below.  A direct large-order AMOS value costs several
  microseconds a point (D. E. Amos, ACM TOMS 12, 265 (1986)); the two seeds
  plus m elementwise steps cost a fraction of that.  The recurrence is
  stable for K and, on and above the real axis, for H^(1) (W. Gautschi,
  SIAM Rev. 9, 24 (1967)).  Far below the axis H^(1) turns minimal under
  the turning point, so there is one rule (``_direct_hankel``): where
  Im z < -4, H^(1) is taken directly at orders m-1 and m when both are
  finite, and the recurrence value is kept where they overflow (callers
  that use Z_m only skip the m-1 call where it cannot overflow).  Elements
  far above the turning point, |z| >= 2m + 10 with -12 <= Im z, stay with
  the recurrence: there H^(1) is dominant at every order it passes, and
  the recurrence is the more accurate of the two.
* both recurrences rescale a value that passes _RESCALE, and screen for one
  (a max and a min reduction over the live buffer) only on the steps where a
  bound on the values' growth, |Z_{mu+1}| <= (2 mu/|z|) |Z_mu| + |Z_{mu-1}|,
  allows one: most steps cost their elementwise operations alone, and the
  results are bitwise those of a screen on every step,
* everything exterior is built on that pair: ``bessel_k_logderiv``,
  ``hankel1_logderiv`` and ``hankel1_scaled`` are one-element calls, the
  array ratios ``bessel_k_ratio_array`` and ``hankel1_ratio_array`` (the
  exterior tails of the mode profiles) one call over a (rows x points)
  block with one order per row (or one for all) and each row's reference
  argument as one more column, so a block of mode profiles of many orders
  takes one call per kind, and the mode solver's matching kernel one call
  over its (m, k) elements,
* ``eval_cylinder`` (the ``corefn-eval`` command) is the debug view over
  these kernels: one value and derivative, with the log scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy import special

from .errors import DomainError, RangeError, SingularArgumentError

_MAX_ABS_ARG = 1.0e4
_MAX_IMAG = 690.0          # e^|Im z| factors overflow beyond this
_RESCALE = 1.0e250


@dataclass(frozen=True)
class CylinderEval:
    """One evaluation: Z_m = value * exp(log_scale), Z_m' = derivative * exp(log_scale)."""

    order: int
    argument: complex
    value: complex
    derivative: complex
    log_scale: float


def _check_order(m):
    if m != int(m) or m < 0:
        raise DomainError(f"order must be a non-negative integer, got {m!r}")
    return int(m)


def _check_orders(m):
    """A scalar order as ``_check_order``, or an array of them as ints."""
    if np.ndim(m) == 0:
        return _check_order(m)
    orders = np.asarray(m)
    with np.errstate(invalid="ignore"):
        as_int = orders.astype(int)
    if np.any(orders != as_int) or np.any(as_int < 0):
        raise DomainError(f"orders must be non-negative integers, got {orders!r}")
    return as_int


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


def eval_cylinder(kind: str, m: int, z) -> CylinderEval:
    """Z_m(z) and Z_m'(z) from the pipeline's kernels: the debug view.

    ``kind`` is one of ``"j"``, ``"h1"``, ``"k"``.  J_{m-1} and J_m come from
    ``_bessel_j`` (in float arithmetic for real z, as the mode solver takes
    them), with log scale 0; H^(1) and K come from ``_exterior_pairs``, so both
    stay finite where the raw values overflow.  The derivative is formed
    from the pair, Z_m' = Z_{m-1} - (m/z) Z_m (K: K_m' = -K_{m-1} - (m/x) K_m).
    """
    kind = kind.lower()
    if kind not in ("j", "h1", "k"):
        raise DomainError(f"unknown cylinder function kind {kind!r}")
    m = _check_order(m)
    if kind == "j":
        z = complex(_check_argument(m, z))
        (lower,), (value,) = _bessel_j(m, np.array([z.real if z.imag == 0.0 else z]))
        # J_{m+1}(0) = 0, so J_m'(0) = (J_{m-1}(0) - J_{m+1}(0))/2 = J_{m-1}(0)/2
        deriv = 0.5 * lower if z == 0.0 else lower - (m / z) * value
        scale = 0.0
    elif kind == "h1":
        z = complex(_check_hankel_argument(m, z))
        (lower,), (value,), (scale,) = _exterior_pairs(m, [z], False)
        deriv = lower - (m / z) * value
    else:
        if complex(z).imag != 0.0:
            raise DomainError("K_m is implemented for real positive argument only")
        z = _check_k_argument(m, complex(z).real)
        (lower,), (value,), (scale,) = _exterior_pairs(m, [z], True)
        deriv = -lower - (m / z) * value
    if not (np.isfinite(value) and np.isfinite(deriv)):
        raise RangeError(f"{kind}_{m} overflowed at argument {z!r}")
    return CylinderEval(m, complex(z), complex(value), complex(deriv), float(scale))


# ---------------------------------------------------------------------------
# the exterior pair: one scaled forward recurrence in the order
# ---------------------------------------------------------------------------

#: the overflow screens of both order recurrences run only where a bound G
#: on the largest |value| in the live buffers allows one: each step takes it
#: to (mu W G + G_prev) * _BOUND_SLACK, W = 2 / (smallest |z| among the
#: elements still in the loop), G_prev the bound on the value before; the
#: slack covers the few ulps of rounding in a step, in W and in G itself
_BOUND_SLACK = 1.0 + 1.0e-12
#: |Z| <= sqrt(2) * (largest |component|) < _SCREEN_BOUND * that
_SCREEN_BOUND = 1.5


def _screen(values):
    """(rescale, bound): whether a component of ``values`` passes _RESCALE,
    and if none does a bound on their |value|, else inf (screen again on the
    next step).  Cheap: a max and a min over the components."""
    parts = values.view(float)
    high = np.maximum.reduce(parts)
    if high > _RESCALE:
        return True, math.inf
    low = np.minimum.reduce(parts)
    if low < -_RESCALE:
        return True, math.inf
    return False, _SCREEN_BOUND * float(max(high, -low))


def _forward_recurrence(m, z, seeds, scale, sign: float):
    """(Z_{m-1}, Z_m, scale) at every element of the 1-D ``z``, from Z_0 and Z_1.

    ``seeds`` is the (2, n) array (Z_0, Z_1) in units of exp(``scale``) and
    Z_{mu+1} = (2 mu/z) Z_mu + sign Z_{mu-1}; Z_{-1} = sign Z_1.  ``m`` holds
    one order per element, sorted ascending: the recurrence runs on a
    shrinking suffix of three buffers that it rotates, and the elements whose
    order it has reached leave with their pair.  An element whose value
    passes _RESCALE is divided by its magnitude, the log going into its
    scale.  The screen for such values, ``_screen``, runs only on the steps
    where the growth bound (see _BOUND_SLACK) allows one; a skipped screen
    is one that would have found nothing, so the result is bitwise that of a
    screen on every step.  The inputs are not modified.
    """
    orders = np.asarray(m, dtype=int)
    top = int(orders[-1]) if orders.size else 0
    # ends[mu]: number of leading elements whose order is <= mu
    ends = np.searchsorted(orders, np.arange(top + 1), side="right")
    lo = lo0 = int(ends[0])
    # buffer position i holds element lo0 + i; the active suffix starts at lo
    # reach[mu]: largest |2/z| on the active suffix of step mu, taken before
    # the buffers are allocated
    reach = np.abs(z[lo0:])
    np.minimum.accumulate(reach[::-1], out=reach[::-1])
    reach = (2.0 / reach[ends[:top] - lo0]).tolist()
    ends = ends.tolist()
    (lower, value), out_scale = np.empty_like(seeds, order="C"), np.empty_like(scale)
    lower[:lo], value[:lo], out_scale[:lo] = sign * seeds[1, :lo], seeds[0, :lo], scale[:lo]
    # the seeds are dropped once copied, so that where the caller passed a
    # temporary it is not held through the order loop; the copies' rows are
    # contiguous, as the screen's component view needs
    prev, cur = np.array(seeds[:, lo0:], order="C")
    del seeds
    scl = np.array(scale[lo0:])
    del scale
    nxt, w = np.empty_like(cur), 2.0 / z[lo0:]
    p_a, c_a, n_a, s_a, w_a = prev, cur, nxt, scl, w
    # bounds on |prev| and |cur| over the active suffix; the seeds have none
    bound_prev = bound_cur = math.inf
    for mu in range(1, top):
        if ends[mu] > lo:
            i, j = lo - lo0, ends[mu] - lo0
            lower[lo:ends[mu]], value[lo:ends[mu]] = prev[i:j], cur[i:j]
            out_scale[lo:ends[mu]] = scl[i:j]
            lo = ends[mu]
            p_a, c_a, n_a, s_a, w_a = prev[j:], cur[j:], nxt[j:], scl[j:], w[j:]
        np.multiply(w_a, c_a, out=n_a)
        n_a *= mu
        if sign > 0.0:
            n_a += p_a
        else:
            n_a -= p_a
        prev, cur, nxt = cur, nxt, prev       # cur is now Z_{mu+1}
        p_a, c_a, n_a = c_a, n_a, p_a
        bound_prev, bound_cur = bound_cur, (mu * reach[mu] * bound_cur + bound_prev) * _BOUND_SLACK
        if not bound_cur <= _RESCALE:         # a nan bound screens too
            rescale, bound_cur = _screen(c_a)
            if rescale:                       # |Z| only where a component is large
                big = np.flatnonzero(np.abs(c_a) > _RESCALE)
                mag = np.abs(c_a[big])
                p_a[big] /= mag
                c_a[big] /= mag
                s_a[big] += np.log(mag)
    if lo == 0:
        return p_a, c_a, s_a
    lower[lo:], value[lo:], out_scale[lo:] = p_a, c_a, s_a
    return lower, value, out_scale


# ---------------------------------------------------------------------------
# the interior J_m: one Miller backward recurrence in the order
# ---------------------------------------------------------------------------

#: smallest nonzero |z| of _bessel_j: one recurrence step multiplies by up to
#: 2N/|z| (N <= 1.1e4), which must not overflow a value just under _RESCALE
_MIN_ABS_J_ARG = 1.0e-50


def _bessel_j(m, z):
    """(J_{m-1}(z), J_m(z)) at every element of the 1-D ``z``, real or complex.

    ``m`` is one order, or one per element; J_{-1} = -J_1.  Miller's backward
    recurrence (W. Gautschi, SIAM Rev. 9, 24 (1967)): each element starts from
    f_{N+1} = 0, f_N = 1 at the even order N >= M + 10 + 8 M^{1/3},
    M = max(m, |z|), runs f_{mu-1} = (2 mu/z) f_mu - f_{mu+1} down to
    mu = 0, keeps f_m and f_{m-1} on the way, each with the scale it has
    then, and is normalized by the Neumann sum rule
    J_0 + 2 sum_k J_{2k} = 1, which holds for complex z too.  For real z the
    sum's terms are at most 1; for complex z they reach e^{|Im z|}, so the
    rule costs a relative error of up to about e^{|Im z|} eps (9e-14 at
    |Im z| = 6).  A value that passes _RESCALE is divided by a power of two,
    whose exponent goes into the element's scale, so the rescaling is exact
    and deep-evanescent values underflow gradually, to 0 below the smallest
    subnormal.  Real z stays in float arithmetic.  The error also grows like
    |z| eps, as it does for ``jv``.  The elements are sorted by start order,
    so the recurrence runs on a growing prefix; every element goes through
    the same elementwise operations, so its value does not depend on its
    batch.  As in ``_forward_recurrence``, the screen for values past
    _RESCALE runs only on the steps where the growth bound allows one (an
    element that joins the prefix, at f = 1, raises the bound to at least
    1), so the result is bitwise that of a screen on every step.
    """
    orders = _check_orders(m)
    z = np.asarray(z, dtype=complex if np.iscomplexobj(z) else float)
    _check_argument("m" if np.ndim(orders) else orders, z)
    if np.any((z != 0) & (np.abs(z) < _MIN_ABS_J_ARG)):
        raise RangeError(f"0 < |z| < {_MIN_ABS_J_ARG:g} unsupported by the J recurrence")
    orders = np.broadcast_to(orders, z.shape)
    lower = (orders == 1).astype(z.dtype)     # J_{m-1}(0): 1 at m = 1, else 0
    value = (orders == 0).astype(z.dtype)     # J_0(0) = 1, J_m(0) = 0
    idx = np.flatnonzero(z != 0)
    big = np.maximum(orders[idx], np.abs(z[idx]))
    start = 2 * np.ceil(0.5 * (big + 10.0 + 8.0 * np.cbrt(big))).astype(int)
    by_start = np.argsort(-start, kind="stable")
    idx, start = idx[by_start], start[by_start]
    order, w = orders[idx], 2.0 / z[idx]
    n = idx.size
    top = int(start[0]) if n else 0
    # active[mu]: elements whose start order is >= mu, a prefix
    active = np.searchsorted(-start, -np.arange(top + 1), side="right")
    # reach[mu]: largest |2/z| on the active prefix of step mu
    reach = np.abs(z[idx])
    np.minimum.accumulate(reach, out=reach)
    reach = (2.0 / reach[active - 1]).tolist() if n else []
    active = active.tolist()
    # the elements of order mu are by_order[first[mu]:first[mu + 1]]
    by_order = np.argsort(order, kind="stable")
    first = np.searchsorted(order[by_order], np.arange(top + 2)).tolist()
    del big, start, by_start, order           # not held through the order loop
    prev, cur, nxt = np.zeros(n, z.dtype), np.ones(n, z.dtype), np.empty(n, z.dtype)
    even_sum = np.ones(n, z.dtype)            # sum of f_{2k}, k >= 1, from f_N = 1
    expo = np.zeros(n, int)
    kept, kept_expo = np.empty((2, n), z.dtype), np.zeros((2, n), int)
    a = 0
    bound_prev = bound_cur = 0.0              # bounds on |prev| and |cur| over the prefix
    for mu in range(top, 0, -1):
        if active[mu] > a:
            prev[a:active[mu]], cur[a:active[mu]] = 0.0, 1.0
            a = active[mu]
            bound_cur = max(bound_cur, 1.0)
            # the active prefixes, taken once per change of a
            p_a, c_a, n_a, w_a, s_a = prev[:a], cur[:a], nxt[:a], w[:a], even_sum[:a]
        np.multiply(w_a, c_a, out=n_a)
        n_a *= mu
        n_a -= p_a
        prev, cur, nxt = cur, nxt, prev       # cur is now f_{mu-1}
        p_a, c_a, n_a = c_a, n_a, p_a
        bound_prev, bound_cur = bound_cur, (mu * reach[mu] * bound_cur + bound_prev) * _BOUND_SLACK
        if not bound_cur <= _RESCALE:         # a nan bound screens too
            rescale, bound_cur = _screen(c_a)
            if rescale:
                grown = np.flatnonzero(np.abs(cur[:a]) > _RESCALE)
                _, e = np.frexp(np.abs(cur[grown]))
                factor = np.ldexp(1.0, -e)
                prev[grown] *= factor
                cur[grown] *= factor
                even_sum[grown] *= factor
                expo[grown] += e
        if mu % 2 == 1 and mu > 1:
            s_a += c_a
        # f_{mu-1} is J_m of the order mu - 1 and J_{m-1} of the order mu
        for row, lo, hi in ((1, first[mu - 1], first[mu]), (0, first[mu], first[mu + 1])):
            if hi > lo:
                here = by_order[lo:hi]
                kept[row, here], kept_expo[row, here] = cur[here], expo[here]
    zero = by_order[:first[1]]                # J_{-1} = -J_1 = -f_1
    kept[0, zero], kept_expo[0, zero] = -prev[zero], expo[zero]
    norm = cur + 2.0 * even_sum
    with np.errstate(under="ignore"):
        for out, row in ((lower, 0), (value, 1)):     # a row at a time: fewer temporaries
            out[idx] = kept[row] / norm * np.ldexp(1.0, kept_expo[row] - expo)
    return lower, value


#: below this Im z H^(1) is taken directly (see _direct_hankel) where the
#: forward recurrence passes under the turning point (|z| < m): H^(1) is
#: minimal there, and the recurrence's rounding error grows like
#: e^{2 |Im z|} * eps (2.7e-9 at Im z = -8 near |z| = m)
_FORWARD_MIN_IMAG = -4.0
#: the recurrence keeps the elements far above the turning point,
#: |z| >= 2m + 10, down to this Im z.  There H^(1) is dominant at every order
#: the recurrence passes, and against 30 digits just above |z| = 2m + 10 it
#: errs by 4.8e-15 / 7.2e-15 / 7.3e-15 / 1.6e-14 / 3.9e-14 / 4.2e-12 at
#: Im z = -4.5 / -8 / -12 / -16 / -20 / -40, AMOS by 4e-14 to 1e-13; the cap
#: keeps the recurrence at least 5x more accurate than AMOS
_FORWARD_FAR_MIN_IMAG = -12.0


def _direct_hankel(m, z):
    """Where ``_exterior_pairs`` takes H^(1)_m(z) directly from AMOS: below
    Im z = _FORWARD_MIN_IMAG, except far above the turning point
    (|z| >= 2m + 10) on Im z >= _FORWARD_FAR_MIN_IMAG.  Elementwise."""
    z = np.asarray(z)
    below = z.imag < _FORWARD_MIN_IMAG
    if not np.any(below):                     # the mode solver's usual batch
        return below
    return below & ((np.abs(z) < 2 * np.asarray(m) + 10) | (z.imag < _FORWARD_FAR_MIN_IMAG))

#: the seeds come from Hankel's expansion at |z| >= _SERIES_MIN_ABS (Re z > 0)
#: and from AMOS below; _SERIES_TERMS terms leave a truncation error of
#: a_30 / 20^30 = 2.4e-18 at the switch
_SERIES_MIN_ABS = 20.0
_SERIES_TERMS = 30
#: elements per pass of the series: its temporaries stay small beside the
#: seeds it writes, and in cache
_SERIES_CHUNK = 1 << 14


def _series_coefficients():
    """Hankel's a_k(nu) = prod_{j<=k} (4 nu^2 - (2j-1)^2) / (k! 8^k), nu = 0, 1.

    Returned as (K, H) arrays of shape (_SERIES_TERMS, 2, 1), highest power
    first: K_nu e^x = sqrt(pi/2) x^{-1/2} sum a_k x^{-k} (DLMF 10.40.2) and
    H^(1)_nu = sqrt(2/pi) e^{-i pi/4} (-i)^nu e^{iz} z^{-1/2} sum i^k a_k z^{-k}
    (DLMF 10.17.5), the constant factors folded into the coefficients.  The
    a_k are exact fractions, rounded once.
    """
    a = np.empty((_SERIES_TERMS, 2))
    for nu in (0, 1):
        term = Fraction(1)
        for k in range(_SERIES_TERMS):
            a[k, nu] = term
            term *= Fraction(4 * nu * nu - (2 * k + 1) ** 2, 8 * (k + 1))
    powers = 1j ** (np.arange(_SERIES_TERMS) % 4)
    front_h = math.sqrt(2.0 / math.pi) * np.exp(-0.25j * math.pi) * np.array([1.0, -1j])
    coef_k = math.sqrt(0.5 * math.pi) * a
    coef_h = a * powers[:, None] * front_h
    return coef_k[::-1, :, None], coef_h[::-1, :, None]


_SERIES_K, _SERIES_H = _series_coefficients()


def _seed_pair(z, evanescent: bool):
    """(Z_0, Z_1) at every element of the 1-D ``z``, one (2, n) array.

    Z is kve, K e^{x} (``evanescent``; ``z`` real), or H^(1).  At
    |z| >= _SERIES_MIN_ABS with Re z > 0 both orders come from Hankel's
    expansion: one Horner pass of _SERIES_TERMS terms in 1/z, times one
    shared z^{-1/2} (and e^{iz} for H^(1), taken exactly from iz, not as
    e^{i(z - pi/4)}, whose rounded phase costs |z| eps).  The other elements
    take AMOS ``kve``/``hankel1``.  The series is formed on every element,
    in place in the output, and the AMOS values overwrite it where they
    apply; no operation mixes elements, so a value does not depend on its
    batch.
    """
    coef = _SERIES_K if evanescent else _SERIES_H
    out = np.empty((2, z.size), dtype=z.dtype)
    near = np.empty(z.size, dtype=bool)
    with np.errstate(all="ignore"):            # the elements AMOS overwrites
        for lo in range(0, z.size, _SERIES_CHUNK):
            zc, oc = z[lo:lo + _SERIES_CHUNK], out[:, lo:lo + _SERIES_CHUNK]
            u = np.divide(1.0, zc)
            oc[...] = coef[0]
            # u broadcasts over both rows: a 1-D complex product written over
            # one of its own operands rounds by position in the batch (numpy
            # 2.4 on AVX-512), this one does not
            for c in coef[1:]:
                oc *= u
                oc += c
            np.sqrt(u, out=u)                  # z^{-1/2} (Re z > 0)
            oc *= u
            if not evanescent:
                np.multiply(zc, 1j, out=u)     # iz, exactly
                np.exp(u, out=u)
                oc *= u
            far = np.abs(zc) >= _SERIES_MIN_ABS
            if not evanescent:
                far &= zc.real > 0.0
            np.logical_not(far, out=near[lo:lo + _SERIES_CHUNK])
    if np.any(near):
        zn = z[near]
        fn = special.kve if evanescent else special.hankel1
        out[0, near], out[1, near] = fn(0, zn), fn(1, zn)
    return out


def _exterior_pairs(m, z, evanescent, pair=True):
    """(Z_{m-1}, Z_m, log scale) at every element; Z = value * exp(log scale).

    Z is K_m(Re z) where ``evanescent`` is set and H^(1)_m(z) elsewhere;
    ``m`` and ``evanescent`` broadcast against the 1-D ``z``.  Where
    ``_direct_hankel`` holds (Im z < _FORWARD_MIN_IMAG, but not far above
    the turning point), H^(1) is taken directly at orders m-1 and m when
    both are finite.  Every other element takes one scaled forward
    recurrence per kind over its elements sorted by order, seeded at orders
    0 and 1 by ``_seed_pair``: Hankel's expansion at |z| >= _SERIES_MIN_ABS
    (Re z > 0), AMOS kve e^{-x} (K) or hankel1 (H^(1)) below.  Every element
    goes through the same elementwise operations, so its result does not
    depend on the batch it sits in.

    A caller that uses Z_m only sets ``pair`` false.  Then a direct element
    with |H_m| < _RESCALE skips its H_{m-1} call, and its Z_{m-1} is nan:
    |H_{m-1}/H_m| stays below 20 on Im z in [-600, -4], |z| <= 1e4,
    m <= 3000 (about 2m/|z| where H^(1) is minimal), so that H_{m-1} is
    finite and the element is taken directly either way.  Z_m and the scale
    are bitwise those of the pair.
    """
    z = np.asarray(z, dtype=complex)
    m = np.broadcast_to(np.asarray(m, dtype=int), z.shape)
    evanescent = np.broadcast_to(evanescent, z.shape)
    lower = np.empty(z.shape, dtype=complex)
    value = np.empty(z.shape, dtype=complex)
    scale = np.empty(z.shape)
    by_order = np.argsort(m, kind="stable")
    k_idx, h_idx = by_order[evanescent[by_order]], by_order[~evanescent[by_order]]
    x, mk, zh, mh = z.real[k_idx], m[k_idx], z[h_idx], m[h_idx]
    # the arguments are not held through the recurrences: where the caller
    # passed temporaries (the ratio arrays do), they are freed here
    del z, m, evanescent, by_order
    lower[k_idx], value[k_idx], scale[k_idx] = _forward_recurrence(
        mk, x, _seed_pair(x, True), -x, 1.0)
    del x, mk
    direct = _direct_hankel(mh, zh)
    if np.any(direct):
        idx, zd, md = h_idx[direct], zh[direct], mh[direct]
        with np.errstate(over="ignore", invalid="ignore"):
            h_m = special.hankel1(md, zd)
            call = np.isfinite(h_m) & (pair | ~(np.abs(h_m) < _RESCALE))
            h_m1 = np.full(idx.size, np.nan, dtype=complex)
            h_m1[call] = special.hankel1(np.abs(md[call] - 1), zd[call])
        h_m1[md == 0] *= -1.0          # H_{-1} = -H_1
        ok = np.isfinite(h_m) & (np.isfinite(h_m1) | ~call)
        lower[idx[ok]], value[idx[ok]], scale[idx[ok]] = h_m1[ok], h_m[ok], 0.0
        direct[direct] = ok            # an overflowing pair stays with the recurrence
        h_idx, zh, mh = h_idx[~direct], zh[~direct], mh[~direct]
    lower[h_idx], value[h_idx], scale[h_idx] = _forward_recurrence(
        mh, zh, _seed_pair(zh, False), np.zeros(zh.size), -1.0)
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


def _ratio_array(m, z, z_ref, evanescent: bool):
    """Z_m(z)/Z_m(z_ref) by rows: each row of ``z`` over its own ``z_ref``.

    ``m`` is one order for every row or one order per row.  Each row's
    reference argument goes into the same exterior-pair batch as one more
    column.
    """
    ref = np.asarray(z_ref, dtype=z.dtype)
    shape = (ref.size, z.size // ref.size + 1)
    # the batch and its orders go in as temporaries, which the exterior pair
    # frees before its recurrences
    _, value, scale = _exterior_pairs(
        np.broadcast_to(np.reshape(m, (-1, 1)), shape).ravel(),
        np.concatenate([z.reshape(ref.size, -1), ref.reshape(-1, 1)], axis=1).ravel(),
        evanescent, pair=False)
    if evanescent:
        value = value.real
    value, scale = value.reshape(shape), scale.reshape(shape)
    with np.errstate(under="ignore"):
        out = (value[:, :-1] / value[:, -1:]) * np.exp(scale[:, :-1] - scale[:, -1:])
    return out.reshape(z.shape)


def bessel_k_ratio_array(m, x, x_ref):
    """K_m(x)/K_m(x_ref) for x > 0, overflow/underflow-safe.

    ``x`` is (P,) with a scalar ``x_ref``, or (rows, P) with one ``x_ref``
    per row; ``m`` is one order, or one per row.  The forward recurrence is
    stable for K, the dominant solution.
    """
    m = _check_orders(m)
    return _ratio_array(m, np.asarray(x, dtype=float), x_ref, True)


def hankel1_ratio_array(m, z, z_ref):
    """H^(1)_m(z)/H^(1)_m(z_ref) for z != 0, overflow-safe.

    ``z`` is (P,) with a scalar ``z_ref``, or (rows, P) with one ``z_ref``
    per row; ``m`` is one order, or one per row.  The forward recurrence is
    stable on and above the real axis: H^(1) is dominant where it grows
    (m > |z|) and neutral where it oscillates.  Below the axis, under the
    turning point, H^(1) decays in the order while H^(2) grows, so rounding
    is amplified by up to e^{2 |Im z|}; there the direct value is used (see
    ``_direct_hankel``).
    """
    m = _check_orders(m)
    return _ratio_array(m, np.asarray(z, dtype=complex), z_ref, False)
