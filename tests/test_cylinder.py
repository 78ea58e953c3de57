import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy import integrate, special

from curvewave import cylinder
from curvewave.errors import DomainError, RangeError, SingularArgumentError


def series_bessel_j(m, z, terms=60):
    """Ascending power series, the independent small-argument oracle."""
    z = complex(z)
    total = 0.0 + 0.0j
    for k in range(terms):
        total += (-1) ** k * (z / 2) ** (m + 2 * k) / (
            math.factorial(k) * math.factorial(m + k))
    return total


def series_bessel_y(n, z, terms=60):
    """Small-argument Y_n series with digamma sums (integer order)."""
    z = complex(z)
    lead = 2.0 / math.pi * math.log(abs(z) / 2.0) * series_bessel_j(n, z, terms)
    s1 = 0.0 + 0j
    for k in range(n):
        s1 += math.factorial(n - k - 1) / math.factorial(k) * (z / 2) ** (2 * k - n)
    def psi(j):
        return -0.5772156649015329 + sum(1.0 / i for i in range(1, j))
    s2 = 0.0 + 0j
    for k in range(terms):
        s2 += ((-1) ** k * (psi(k + 1) + psi(n + k + 1))
               / (math.factorial(k) * math.factorial(n + k)) * (z / 2) ** (2 * k + n))
    return lead - s1 / math.pi - s2 / math.pi


def _j_pair(m, z):
    """(J_{m-1}, J_m) from the Miller recurrence that the mode solver and the
    profile tables run, in float arithmetic for real z."""
    m, z = np.broadcast_arrays(np.asarray(m, dtype=int), np.asarray(z, dtype=complex))
    z = z.ravel()
    return cylinder._bessel_j(m.ravel(), z.real if np.all(z.imag == 0.0) else z)


def _jv(m, z):
    """J_m(z) from the same recurrence."""
    return _j_pair(m, z)[1]


def _exterior(m, z, evanescent=False):
    """Z_m(z) unscaled from the exterior pair: H^(1), or K on the real line."""
    m, z = np.broadcast_arrays(np.asarray(m, dtype=int), np.asarray(z, dtype=complex))
    _, value, scale = cylinder._exterior_pairs(m.ravel(), z.ravel(), evanescent)
    value = value * np.exp(scale)
    return value.real if evanescent else value


def test_bessel_j_trivial_origin():
    assert np.array_equal(_jv([0, 3], 0.0), [1.0, 0.0])


def test_bessel_j_series_oracle():
    # frozen from the power-series oracle
    assert series_bessel_j(1, 1.0).real == pytest.approx(0.4400505857449335, rel=1e-14)
    assert _jv(1, 1.0)[0] == pytest.approx(series_bessel_j(1, 1.0), rel=1e-10)
    for m, z in [(0, 0.7), (2, 3.3), (7, 9.1 + 0.4j), (12, 6.0 - 1.0j)]:
        assert _jv(m, z)[0] == pytest.approx(series_bessel_j(m, z), rel=1e-12)


def _mp_bessel_j(m, z):
    with mpmath.workdps(40):
        return complex(mpmath.besselj(int(m), mpmath.mpmathify(complex(z))))


def test_bessel_j_recurrence_against_mpmath():
    # orders 0, 1, 60, 120, 203 with |z| on both sides of m, and Im z down to
    # -max_im_k R = -6 at the solver default; one mixed-order batch per Im z,
    # real z in float arithmetic.  Both members of the pair (J_{m-1}, J_m;
    # J_{-1} = -J_1) pointwise wherever J is a normal number, and each
    # element alone is bitwise the element inside the batch.
    orders = (0, 1, 60, 120, 203)
    m = np.array([mm for mm in orders for _ in range(5)])
    x = np.array([x for mm in orders for x in
                  ((0.4, 3.0, 7.0, 20.0, 100.0) if mm < 2 else
                   (0.05 * mm, 0.5 * mm, 0.9 * mm, 1.1 * mm, 1.5 * mm))])
    for im in (0.0, -0.5, -2.0, -6.0):
        z = x if im == 0.0 else x + 1j * im
        lower, value = cylinder._bessel_j(m, z)
        assert lower.dtype == value.dtype == z.dtype
        for i in range(len(z)):
            one = cylinder._bessel_j(m[i], z[i:i + 1])
            assert (one[0][0], one[1][0]) == (lower[i], value[i]), (m[i], z[i])
            for got, order in ((lower[i], m[i] - 1), (value[i], m[i])):
                ref = _mp_bessel_j(order, z[i])
                assert abs(ref) > 1e-290
                assert abs(got - ref) <= 1e-13 * abs(ref), (order, z[i])


def test_bessel_j_recurrence_sum_rule_loss():
    # the Neumann sum's terms reach e^{|Im z|}, so far below the axis the
    # normalization loses about e^{|Im z|} eps: beyond the 1e-13 of the
    # table's range, within the documented bound
    z = np.array([0.3 - 10.0j])
    err = abs(cylinder._bessel_j(0, z)[1][0] / _mp_bessel_j(0, z[0]) - 1.0)
    assert 1e-13 < err <= math.exp(10.0) * np.finfo(float).eps


def test_bessel_j_recurrence_origin_and_underflow():
    # J_0(0) = 1 and J_m(0) = 0 exactly, in a batch with other points, and
    # the lower member J_{m-1}(0): 1 at m = 1, 0 elsewhere (J_{-1}(0) = 0)
    lower, got = cylinder._bessel_j([0, 0, 3, 203, 5, 1],
                                    np.array([0.0, 1.0, 0.0, 0.0, 2.0, 0.0]))
    assert (got[0], got[2], got[3], got[5]) == (1.0, 0.0, 0.0, 0.0)
    assert (lower[0], lower[2], lower[3], lower[5]) == (0.0, 0.0, 0.0, 1.0)
    assert got[1] == pytest.approx(special.j0(1.0), rel=1e-15)
    assert lower[1] == pytest.approx(-special.j1(1.0), rel=1e-15)
    # J_203(x) for x <= 4.8 is below 1e-290, where jv returns 0; the
    # recurrence underflows gradually and cleanly, to 0 where the value is
    # below the smallest subnormal
    x = np.array([1.0, 3.0, 4.0, 4.3, 4.6, 4.8])
    assert np.all(special.jv(203, x) == 0.0)
    got = cylinder._bessel_j(203, x)[1]
    assert got[0] == 0.0 and got[1] == 0.0
    for xi, gi in zip(x, got):
        ref = _mp_bessel_j(203, xi).real
        assert abs(gi - ref) <= 1e-13 * abs(ref) + 4 * 5e-324, xi
    # complex arguments, exactly 0 where J underflows
    z = np.array([1.0 - 0.5j, 2.0 - 1.0j])
    assert np.all(np.array(cylinder._bessel_j(203, z)) == 0.0)


def test_bessel_j_recurrence_rejects_bad_input():
    for bad in (-1, 1.5, [0, -2], [0, 2.5]):
        with pytest.raises(DomainError):
            cylinder._bessel_j(bad, np.ones(np.size(bad)))
    for bad in (2.0e4, 1.0 - 800.0j, 1.0e-60, 1.0e-60j):
        with pytest.raises(RangeError):
            cylinder._bessel_j(3, np.array([1.0, bad]))
    with pytest.raises(DomainError):
        cylinder._bessel_j(3, np.array([np.nan]))


def test_hankel1_small_argument_oracle():
    ref = series_bessel_j(1, 1.0) + 1j * series_bessel_y(1, 1.0)
    assert ref == pytest.approx(0.4400505857449335 - 0.7812128213002887j, rel=1e-12)
    assert _exterior(1, 1.0)[0] == pytest.approx(ref, rel=1e-10)


def test_hankel1_asymptotic_magnitude():
    mag = abs(_exterior(0, 100.0)[0])
    assert mag == pytest.approx(math.sqrt(2.0 / (math.pi * 100.0)), rel=0.01)


def test_wronskian_identity_hot_region():
    # J_m H_{m-1} - J_{m-1} H_m = 2i/(pi z) on the kernels: the pair
    # (J_{m-1}, J_m) from one Miller recurrence (the mode solver's and the
    # profile tables'), H from the exterior pair in units of exp(scale).  It
    # holds under the turning point too (|z| < m/2), and on the direct branch
    # below Im z = -4 (4 - 4.5i, 150 - 5i); only J_200(1) underflows to 0.
    worst, underflow = 0.0, []
    for m in (0, 1, 5, 60, 120, 200):
        for z in (1.0 + 0j, 5.0 - 0.5j, 52.6 + 0j, 113.0 - 1.57e-6j,
                  250.0 - 3.0j, 300.0 + 6.0j, 4.0 - 4.5j, 150.0 - 5.0j):
            (j_lo,), (j,) = _j_pair(m, z)
            if j == 0.0:
                underflow.append((m, z))
                continue
            (a,), (b,), (scale,) = cylinder._exterior_pairs(m, [z], False)
            target = 2j / (math.pi * z)
            worst = max(worst, _same_log(np.log(j * a - j_lo * b) + scale,
                                         np.log(target)))
    assert underflow == [(200, 1.0)]
    assert worst < 1e-10


def test_k_wronskian_identity():
    # I_m K_{m-1} + I_{m-1} K_m = 1/x with I = ive e^x and K from the
    # exterior pair in units of exp(scale); at m = 120, x = 0.3 and
    # m = 200, x = 5 the pair has passed the rescale threshold, so the
    # scales are combined in logs.  I_m K_m ~ 1/(2m), so where K_200
    # overflows I_200 underflows in ive (x <= 4.3), as J_200(1) does above.
    worst, underflow = 0.0, []
    for m in (0, 1, 5, 60, 120, 200):
        for x in (0.3, 1.0, 5.0, 52.6, 113.0, 250.0):
            i_m, i_lo = special.ive([m, abs(m - 1)], x)
            if i_m == 0.0:
                underflow.append((m, x))
                continue
            (a,), (b,), (scale,) = cylinder._exterior_pairs(m, [x], True)
            w = i_m * a.real + i_lo * b.real
            worst = max(worst, _same_log(np.log(w) + scale + x, -np.log(x)))
    assert underflow == [(200, 0.3), (200, 1.0)]
    assert worst < 1e-10


@settings(max_examples=40, deadline=None)
@given(m=st.integers(1, 200), x=st.floats(1.0, 300.0), im=st.floats(-4.0, 4.0))
def test_recurrence_identities(m, x, im):
    assume(x >= 0.52 * m)   # factors representable in doubles
    z = complex(x, im)
    for fn in (_jv, _exterior):
        zm1, zm, zp1 = fn([m - 1, m, m + 1], z)
        scale = max(abs(zm1), abs(zp1), abs(zm))
        assert abs(zm1 + zp1 - (2 * m / z) * zm) <= 1e-9 * scale * max(1.0, 2 * m / abs(z))


def test_k_recurrence_identity():
    m, x = 120, 100.0
    km1, km, kp1 = _exterior([m - 1, m, m + 1], x, evanescent=True)
    assert kp1 - km1 == pytest.approx((2 * m / x) * km, rel=1e-9)


def test_bessel_k_integral_oracle():
    # K_0(x) = int_0^inf exp(-x cosh t) dt
    val, _ = integrate.quad(lambda t: math.exp(-1.0 * math.cosh(t)), 0, 30, limit=200)
    assert val == pytest.approx(0.42102443824070834, rel=1e-12)
    assert _exterior(0, 1.0, evanescent=True)[0] == pytest.approx(0.4210244382, rel=1e-10)


def test_bessel_k_asymptotic_and_monotone():
    x = 50.0
    asym = math.sqrt(math.pi / (2 * x)) * math.exp(-x)
    assert _exterior(0, x, evanescent=True)[0] / asym == pytest.approx(1.0, abs=0.01)
    vals = _exterior(3, np.linspace(0.5, 40, 40), evanescent=True)
    assert np.all(vals > 0)
    assert np.all(vals[:-1] > vals[1:])


def _unscaled(kind, m, z):
    """(Z_m, Z_m') from eval_cylinder; Z_{-1} = -Z_1 (J, H^(1)), K_{-1} = K_1."""
    if m < 0:
        value, deriv = _unscaled(kind, -m, z)
        sign = 1.0 if kind == "k" else -1.0
        return sign * value, sign * deriv
    ev = cylinder.eval_cylinder(kind, m, z)
    scale = np.exp(ev.log_scale)
    return ev.value * scale, ev.derivative * scale


def test_ode_residual():
    # z^2 Z'' + z Z' + (z^2 - m^2) Z = 0, with Z' from the pair in
    # eval_cylinder and Z'' = (Z'_{m-1} - Z'_{m+1})/2
    for m, z in [(0, 2.0), (5, 7.0 - 0.3j), (60, 80.0), (120, 226.0 - 1e-5j),
                 (200, 210.0)]:
        for kind in ("j", "h1"):
            val, d1 = _unscaled(kind, m, z)
            d2 = 0.5 * (_unscaled(kind, m - 1, z)[1] - _unscaled(kind, m + 1, z)[1])
            resid = z * z * d2 + z * d1 + (z * z - m * m) * val
            scale = max(abs(z * z * d2), abs(z * z * val), 1e-300)
            assert abs(resid) / scale < 1e-8
    # modified equation for K: z^2 K'' + z K' - (z^2 + m^2) K = 0,
    # K'' = -(K'_{m-1} + K'_{m+1})/2
    m, x = 40, 55.0
    val, d1 = _unscaled("k", m, x)
    d2 = -0.5 * (_unscaled("k", m - 1, x)[1] + _unscaled("k", m + 1, x)[1])
    resid = x * x * d2 + x * d1 - (x * x + m * m) * val
    assert abs(resid) / abs(x * x * d2) < 1e-8


def test_large_order_scaled_paths():
    # no overflow for orders up to 300
    ratio = _jv(300, 300.0)[0] / _jv(300, 300.0 * (1 + 1e-6))[0]
    assert np.isfinite(ratio)
    # scaled Hankel agrees with the direct AMOS value where both exist
    for m, z in [(50, 20.0), (120, 105.2 + 0j)]:
        val, scale = cylinder.hankel1_scaled(m, z)
        assert val * np.exp(scale) == pytest.approx(special.hankel1(m, z), rel=1e-10)
    # deep-evanescent regime: finite log magnitude where the raw value overflows
    val, scale = cylinder.hankel1_scaled(200, 2.0)
    assert np.isfinite(abs(val)) and scale > 400.0


def _mp_logderiv(fn, sign, m, z):
    """Z_m'/Z_m at 40 digits, Z_m' = (sign Z_{m-1} - Z_{m+1})/2: sign +1 for
    H^(1), -1 for K."""
    with mpmath.workdps(40):
        z = mpmath.mpmathify(complex(z))
        return complex(0.5 * (sign * fn(m - 1, z) - fn(m + 1, z)) / fn(m, z))


def test_logderiv_and_ratios_consistency():
    # both log-derivatives against mpmath, at small and large orders and
    # where the raw values overflow (m = 200 at x = 1 and z = 4)
    for m, x in [(0, 3.0), (1, 0.4), (120, 87.2), (200, 1.0)]:
        want = _mp_logderiv(mpmath.besselk, -1.0, m, x).real
        assert cylinder.bessel_k_logderiv(m, x) == pytest.approx(want, rel=1e-13)
    for m, z in [(0, 3.0 + 0.5j), (1, 0.7 - 0.2j), (120, 105.2 - 1e-5j),
                 (200, 4.0 + 0j)]:
        want = _mp_logderiv(mpmath.hankel1, 1.0, m, z)
        assert abs(cylinder.hankel1_logderiv(m, z) - want) <= 1e-13 * abs(want)


def test_ratio_arrays_match_direct():
    m, kap = 80, 12.0
    r = np.linspace(2.0, 8.0, 50)
    got = cylinder.bessel_k_ratio_array(m, kap * r, kap * 2.0)
    want = special.kve(m, kap * r) / special.kve(m, kap * 2.0) * np.exp(-(kap * r - kap * 2.0))
    assert np.allclose(got, want, rtol=1e-10)
    m = 120
    z0 = 105.2
    got = cylinder.hankel1_ratio_array(m, z0 * r / 2.0, z0)
    want = special.hankel1(m, z0 * r / 2.0) / special.hankel1(m, z0)
    assert np.allclose(got, want, rtol=1e-9)
    # the raw values overflow here; the scaled recurrence does not
    m, z0 = 170, 3.0
    got = cylinder.hankel1_ratio_array(m, np.array([3.0, 6.0, 12.0]), z0)
    assert got[0] == pytest.approx(1.0, rel=1e-9)
    assert np.all(np.isfinite(got))
    assert abs(got[2]) < abs(got[1]) < 1.0


def _rel_err(got, want):
    return np.max(np.abs(np.asarray(got) - want) / np.abs(want))


def _mp_ratio(fn, m, z, z_ref):
    with mpmath.workdps(40):
        den = fn(m, mpmath.mpmathify(complex(z_ref)))
        return np.array([complex(fn(m, mpmath.mpmathify(complex(v))) / den)
                         for v in np.ravel(z)])


def test_ratio_recurrence_against_mpmath():
    r = np.linspace(2.0, 8.7, 9)
    # leaky exterior, m < |z|: the recurrence where Im z >= -4, the direct
    # value deeper in the lower half plane (q r reaches Im -11 near m = |z|)
    for m, q in [(40, 60.0 - 0.3j), (120, 52.0 - 0.05j), (180, 22.0 - 1.3j)]:
        got = cylinder.hankel1_ratio_array(m, q * r, q * 2.0)
        assert _rel_err(got, _mp_ratio(mpmath.hankel1, m, q * r, q * 2.0)) < 1e-12
    # deep-evanescent H1, m >> |z|: the raw value at the edge overflows
    for m, q in [(200, 1.5 + 0j), (180, 1.0 - 0.1j)]:
        with np.errstate(over="ignore", invalid="ignore"):
            assert not np.isfinite(special.hankel1(m, q * 2.0))
        got = cylinder.hankel1_ratio_array(m, q * r, q * 2.0)
        assert _rel_err(got, _mp_ratio(mpmath.hankel1, m, q * r, q * 2.0)) < 1e-12
    # K from the edge down to underflow
    m, kap = 30, 120.0
    x = kap * np.linspace(2.0, 8.7, 40)
    got = cylinder.bessel_k_ratio_array(m, x, kap * 2.0)
    want = _mp_ratio(mpmath.besselk, m, x, kap * 2.0).real
    normal = want > 1e-290
    assert normal.sum() > 20 and np.any(want == 0.0)
    assert _rel_err(got[normal], want[normal]) < 1e-12
    assert np.all(got[want == 0.0] == 0.0)


def test_ratio_recurrence_against_direct_path():
    # the direct AMOS quotients the recurrence replaced, as the oracle
    r = np.linspace(2.0, 8.0, 61)
    for m in (0, 1, 2, 7, 48, 90, 113, 160, 203):
        for q in (25.0 - 0.4j, 52.6 - 1e-6j, 113.0 - 0.02j, 140.0 - 0.3j):
            want = special.hankel1(m, q * r) / special.hankel1(m, q * 2.0)
            got = cylinder.hankel1_ratio_array(m, q * r, q * 2.0)
            assert _rel_err(got, want) < 1e-11, (m, q)
        for kap in (5.0, 40.0, 95.0):
            x = kap * r
            want = (special.kve(m, x) / special.kve(m, kap * 2.0)
                    * np.exp(-(x - kap * 2.0)))
            got = cylinder.bessel_k_ratio_array(m, x, kap * 2.0)
            ok = want > 1e-290
            assert _rel_err(got[ok], want[ok]) < 1e-11, (m, kap)


def test_ratio_recurrence_orders_zero_and_one():
    # the AMOS quotients bitwise below |z| = 20 and on the direct branch
    # (Im z < -4); at 40 - 2i the seed is Hankel's expansion, against 40 digits
    z = np.array([0.5, 3.0 - 0.2j, 40.0 - 2.0j, 60.0 - 6.0j])
    z_ref = 2.0 - 0.1j
    amos = (np.abs(z) < cylinder._SERIES_MIN_ABS) | (z.imag < cylinder._FORWARD_MIN_IMAG)
    for m in (0, 1):
        got = cylinder.hankel1_ratio_array(m, z, z_ref)
        assert np.array_equal(
            got[amos], special.hankel1(m, z[amos]) / special.hankel1(m, z_ref))
        assert _rel_err(got[~amos], _mp_ratio(mpmath.hankel1, m, z[~amos], z_ref)) < 2e-15
        x = np.array([0.1, 1.0, 30.0, 700.0])
        want = special.kve(m, x) / special.kve(m, 2.0) * np.exp(-(x - 2.0))
        assert _rel_err(cylinder.bessel_k_ratio_array(m, x, 2.0), want) < 1e-14


def _seed_args():
    # |z| on both sides of the switch and out to 1e4, on four lines Im z = c
    mag = np.concatenate([[cylinder._SERIES_MIN_ABS - 1e-9],
                          cylinder._SERIES_MIN_ABS + np.linspace(0.0, 0.5, 6),
                          np.geomspace(21.0, 1e4, 14)])
    z = np.concatenate([np.sqrt(mag**2 - im**2) + 1j * im for im in (3.0, 0.0, -1.0, -4.0)])
    return z, mag


def test_seed_pair_against_mpmath():
    # the order-0 and order-1 seeds of the exterior pair: Hankel's expansion
    # at |z| >= 20, AMOS (bitwise) below, against 40 digits.  Measured at the
    # far points: at most 4.5e-16 (H^(1)) and 2.2e-16 (kve) on the series,
    # 1.2e-15 and 5.9e-16 on AMOS
    z, x = _seed_args()
    for arg, evanescent in ((z, False), (x, True)):
        got = cylinder._seed_pair(arg, evanescent)
        fn = special.kve if evanescent else special.hankel1
        amos = np.array([fn(0, arg), fn(1, arg)])
        with mpmath.workdps(40):
            if evanescent:
                want = np.array([[float(mpmath.besselk(nu, v) * mpmath.exp(v)) for v in arg]
                                 for nu in (0, 1)])
            else:
                want = np.array([[complex(mpmath.hankel1(nu, mpmath.mpmathify(complex(v))))
                                  for v in arg] for nu in (0, 1)])
        far = np.abs(arg) >= cylinder._SERIES_MIN_ABS
        assert 0 < np.sum(~far) < far.sum()
        assert np.array_equal(got[:, ~far], amos[:, ~far])
        err = np.max(np.abs(got - want)[:, far] / np.abs(want[:, far]))
        err_amos = np.max(np.abs(amos - want)[:, far] / np.abs(want[:, far]))
        assert err < 1e-15 and err <= err_amos, (evanescent, err, err_amos)


def test_seed_pair_calls_amos_only_below_switch(monkeypatch):
    # K and H^(1) mixed in one exterior batch, orders 0 to 203, on and above
    # Im z = -4 (no direct H^(1)): AMOS sees only the seed elements with
    # |z| < 20, two calls (orders 0 and 1) each
    z, _ = _seed_args()
    z = np.concatenate([z, [0.3, 5.0 - 0.5j, 12.0 + 2.0j, 19.0, 0.7 - 4.0j]])
    z = np.concatenate([z, np.abs(z)])
    evanescent = np.arange(z.size) >= z.size // 2
    orders = np.resize([0, 1, 2, 57, 203], z.size)
    seen = []

    def spy(fn):
        def call(order, arg):
            seen.append((int(order), np.atleast_1d(arg)))
            return fn(order, arg)
        return call

    want = cylinder._exterior_pairs(orders, z, evanescent)
    monkeypatch.setattr(special, "hankel1", spy(special.hankel1))
    monkeypatch.setattr(special, "kve", spy(special.kve))
    got = cylinder._exterior_pairs(orders, z, evanescent)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))
    near = np.abs(z) < cylinder._SERIES_MIN_ABS
    assert sorted(order for order, _ in seen) == [0, 0, 1, 1]
    assert all(np.all(np.abs(arg) < cylinder._SERIES_MIN_ABS) for _, arg in seen)
    assert sum(arg.size for _, arg in seen) == 2 * near.sum() and near.sum() >= 10


def test_seed_pair_batch_independent():
    # every seed is the same bitwise in any batch: slices at every alignment
    # of one 3000-element batch, near and far elements mixed
    rng = np.random.default_rng(11)
    n = 3000
    z = rng.uniform(0.1, 400.0, n) + 1j * rng.uniform(-4.0, 3.0, n)
    for arg, evanescent in ((z, False), (np.abs(z), True)):
        full = cylinder._seed_pair(arg, evanescent)
        for start in rng.integers(0, n - 1100, 24).tolist():
            for size in (1, 3, 8, 15, 64, 257, 1000):
                part = arg[start:start + size]
                for batch in (part, part.copy()):
                    assert np.array_equal(cylinder._seed_pair(batch, evanescent),
                                          full[:, start:start + size]), (start, size)


def test_ratio_array_peak_memory():
    # a ratio array's batch, its orders and its seeds are not held through
    # the recurrence: the traced peak of a 64k-element H^(1) call, in units
    # of one complex value per element, is 11.6 (13.6 when they were held)
    import tracemalloc

    rng = np.random.default_rng(3)
    q = rng.uniform(5.0, 100.0, 100) - 1j * rng.uniform(0.0, 0.4, 100)
    z = q[:, None] * np.linspace(2.0, 8.7, 640)
    orders = rng.integers(0, 200, q.size)
    cylinder.hankel1_ratio_array(orders, z, q * 2.0)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        cylinder.hankel1_ratio_array(orders, z, q * 2.0)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak / (16 * z.size) < 12.5


def test_ratio_recurrence_batched_rows_bitwise():
    rng = np.random.default_rng(7)
    r = np.linspace(2.0, 8.7, 257)
    q = rng.uniform(1.0, 130.0, 11) - 1j * rng.uniform(0.0, 1.5, 11)
    kap = rng.uniform(0.5, 110.0, 11)
    for m in (0, 1, 2, 75, 190):
        rows = cylinder.hankel1_ratio_array(m, q[:, None] * r, q * 2.0)
        for i in range(len(q)):
            assert np.array_equal(
                rows[i], cylinder.hankel1_ratio_array(m, q[i] * r, q[i] * 2.0))
        rows = cylinder.bessel_k_ratio_array(m, kap[:, None] * r, kap * 2.0)
        for i in range(len(kap)):
            assert np.array_equal(
                rows[i], cylinder.bessel_k_ratio_array(m, kap[i] * r, kap[i] * 2.0))
    # one order per row: one call over rows of mixed orders equals the
    # single-order calls row by row
    orders = np.resize([0, 1, 2, 75, 190], len(q))
    rows = cylinder.hankel1_ratio_array(orders, q[:, None] * r, q * 2.0)
    for i, m in enumerate(orders.tolist()):
        assert np.array_equal(
            rows[i], cylinder.hankel1_ratio_array(m, q[:, None] * r, q * 2.0)[i])
    rows = cylinder.bessel_k_ratio_array(orders, kap[:, None] * r, kap * 2.0)
    for i, m in enumerate(orders.tolist()):
        assert np.array_equal(
            rows[i], cylinder.bessel_k_ratio_array(m, kap[:, None] * r, kap * 2.0)[i])
    for bad in ([0, 1, -2], [0, 1.5, 2], [0, np.nan, 2]):
        with pytest.raises(DomainError):
            cylinder.hankel1_ratio_array(np.array(bad), q[:3, None] * r, q[:3] * 2.0)
        with pytest.raises(DomainError):
            cylinder.bessel_k_ratio_array(np.array(bad), kap[:3, None] * r, kap[:3] * 2.0)


def test_domain_and_range_errors():
    ev = cylinder.eval_cylinder
    with pytest.raises(DomainError):
        ev("k", 2, -1.0)
    with pytest.raises(DomainError):
        ev("k", 2, 0.0)
    with pytest.raises(SingularArgumentError):
        ev("h1", 3, 0.0)
    with pytest.raises(DomainError):
        ev("j", -2, 1.0)
    with pytest.raises(RangeError) as err:
        ev("j", 10, 1.0 + 800.0j)
    assert "10" in str(err.value)
    with pytest.raises(RangeError):
        ev("j", 0, 2.0e4)
    # the log-derivatives validate as eval_cylinder and hankel1_scaled do
    for fn, bad in ((cylinder.hankel1_logderiv, math.nan),
                    (cylinder.bessel_k_logderiv, math.nan),
                    (cylinder.bessel_k_logderiv, math.inf),
                    (lambda m, x: ev("k", m, x), math.nan),
                    (lambda m, x: ev("k", m, x), math.inf)):
        with pytest.raises(DomainError):
            fn(3, bad)
    for bad in (2.0e4, 1.0 - 800.0j):
        with pytest.raises(RangeError):
            cylinder.hankel1_logderiv(3, bad)
    with pytest.raises(SingularArgumentError):
        cylinder.hankel1_logderiv(3, 0.0)


def test_eval_cylinder_surface():
    # J is the mode solver's pair, in float arithmetic on the real line
    ev = cylinder.eval_cylinder("j", 5, 7.0)
    assert ev.order == 5 and ev.argument == 7.0 + 0j and ev.log_scale == 0.0
    (lower,), (value,) = cylinder._bessel_j(5, np.array([7.0]))
    assert (ev.value, ev.derivative) == (value, lower - (5 / 7.0) * value)
    assert ev.derivative == pytest.approx(
        0.5 * (special.jv(4, 7.0) - special.jv(6, 7.0)), rel=1e-14)
    z = 113.0 - 1.5j
    ev = cylinder.eval_cylinder("j", 120, z)
    (lower,), (value,) = cylinder._bessel_j(120, np.array([z]))
    assert (ev.value, ev.derivative) == (value, lower - (120 / z) * value)
    assert cylinder.eval_cylinder("j", 1, 0.0).derivative == 0.5
    # H^(1) and K are the exterior pair's values, scale included
    for kind, z in (("h1", 4.0 - 4.5j), ("h1", 2.0), ("k", 1.0)):
        ev = cylinder.eval_cylinder(kind, 200, z)
        _, value, scale = cylinder._exterior_pairs(200, [z], kind == "k")
        assert (ev.value, ev.log_scale) == (value[0], scale[0])
    with pytest.raises(DomainError):
        cylinder.eval_cylinder("k", 2, 1.0 + 1.0j)
    with pytest.raises(DomainError):
        cylinder.eval_cylinder("y", 2, 1.0)


def _mp_log_pair(fn, m, z):
    """(log Z_m(z), Z_{m-1}(z)/Z_m(z)) at 40 digits."""
    with mpmath.workdps(40):
        zm = fn(m, mpmath.mpmathify(complex(z)))
        return complex(mpmath.log(zm)), complex(fn(m - 1, mpmath.mpmathify(complex(z))) / zm)


def _same_log(got, want):
    # |Z_got / Z_want - 1| from logarithms, blind to the 2 pi i branch
    return abs(np.exp(complex(got) - complex(want)) - 1.0)


def test_recurrence_per_element_orders():
    # one recurrence over a batch of orders 0, 1, 2 and 203, as the mode
    # solver runs it, against mpmath
    orders = np.repeat([0, 1, 2, 203], 4)
    x = np.tile([0.3, 5.0, 60.0, 250.0], 4)
    ka, kb, kscale = cylinder._forward_recurrence(
        orders, x, np.array([special.kve(0, x), special.kve(1, x)]), -x, 1.0)
    z = np.tile([0.7 + 0.2j, 12.0 - 0.5j, 150.0 + 0j, 230.0 - 3.0j], 4)
    ha, hb, hscale = cylinder._forward_recurrence(
        orders, z, np.array([special.hankel1(0, z), special.hankel1(1, z)]),
        np.zeros(z.size), -1.0)
    for i, m in enumerate(orders.tolist()):
        ln_k, ratio_k = _mp_log_pair(mpmath.besselk, m, x[i])
        assert _same_log(math.log(kb[i]) + kscale[i], ln_k) < 1e-12, (m, x[i])
        assert ka[i] / kb[i] == pytest.approx(ratio_k.real, rel=1e-12)
        ln_h, ratio_h = _mp_log_pair(mpmath.hankel1, m, z[i])
        assert _same_log(np.log(complex(hb[i])) + hscale[i], ln_h) < 1e-12, (m, z[i])
        assert abs(ha[i] / hb[i] - ratio_h) < 1e-12 * abs(ratio_h)


def _forward_recurrence_loop(m, z, a, b, scale, sign):
    """The plain loop that ``cylinder._forward_recurrence`` replaced: a new
    array every step and the screen by np.max(np.abs(...)).  It writes into
    its seed arrays."""
    orders = np.asarray(m, dtype=int)
    top = int(orders[-1]) if orders.size else 0
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
        if np.max(np.abs(b.view(float))) > cylinder._RESCALE:
            big = np.abs(b) > cylinder._RESCALE
            mag = np.abs(b[big])
            a[big] /= mag
            b[big] /= mag
            scale[big] += np.log(mag)
    if lo == 0:
        return a, b, scale
    lower[lo:], value[lo:], out_scale[lo:] = a, b, scale
    return lower, value, out_scale


def test_forward_recurrence_matches_loop_oracle():
    # bitwise against the plain loop, on mixed-order K and H^(1) batches whose
    # values pass _RESCALE, and on batches of one order (no element leaves
    # before the top order); the seed arrays stay as they were
    rng = np.random.default_rng(7)
    batches = [np.sort(rng.integers(0, 261, int(rng.integers(1, 120)))) for _ in range(16)]
    batches += [np.array([0, 0]), np.array([1, 1, 1]), np.array([0, 1]), np.full(3, 200)]
    rescaled = {1.0: 0, -1.0: 0}
    for i, orders in enumerate(batches):
        n = orders.size
        if i % 2:
            x = rng.uniform(0.05, 300.0, n)
            args = (orders, x, np.array([special.kve(0, x), special.kve(1, x)]), -x, 1.0)
        else:
            z = rng.uniform(0.05, 60.0, n) + 1j * rng.uniform(-4.0, 3.0, n)
            args = (orders, z, np.array([special.hankel1(0, z), special.hankel1(1, z)]),
                    np.zeros(n), -1.0)
        seeds = [x.copy() for x in args[:4]]
        got = cylinder._forward_recurrence(*args)
        assert all(x.tobytes() == y.tobytes() for x, y in zip(args[:4], seeds)), i
        want = _forward_recurrence_loop(seeds[0], seeds[1], *seeds[2], seeds[3], args[4])
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), (i, orders)
        rescaled[args[4]] += bool(np.any(got[2] != args[3]))
    assert rescaled[1.0] >= 5 and rescaled[-1.0] >= 5


def test_exterior_pairs_one_rule():
    # K and H^(1) mixed in one batch, orders 0, 1, 2 and 203, Im z from +1
    # down to -8: below Im z = -4 H^(1) is the direct pair, except at
    # m = 203, z = 1 - 4.5i, where that overflows and the recurrence stays
    orders = np.repeat([0, 1, 2, 203], 8)
    z = np.tile([0.3, 60.0, 0.7 + 1.0j, 12.0 - 0.5j, 150.0 - 3.9j,
                 1.0 - 4.5j, 40.0 - 6.0j, 9.0 - 8.0j], 4)
    evanescent = z.imag == 0.0
    a, b, scale = cylinder._exterior_pairs(orders, z, evanescent)
    for i, m in enumerate(orders.tolist()):
        one = cylinder._exterior_pairs([m], z[i:i + 1], evanescent[i:i + 1])
        assert (one[0][0], one[1][0], one[2][0]) == (a[i], b[i], scale[i]), (m, z[i])
        fn = mpmath.besselk if evanescent[i] else mpmath.hankel1
        arg = z[i].real if evanescent[i] else z[i]
        ln_z, ratio = _mp_log_pair(fn, m, arg)
        assert abs(a[i] / b[i] - ratio) <= 1e-12 * abs(ratio), (m, z[i])
        assert _same_log(np.log(b[i]) + scale[i], ln_z) <= 1e-11 * abs(ln_z), (m, z[i])
        if z[i].imag < -4.0:
            with np.errstate(over="ignore", invalid="ignore"):
                direct = special.hankel1([abs(m - 1), m], z[i])
            direct[0] *= -1.0 if m == 0 else 1.0
            if np.all(np.isfinite(direct)):
                assert (a[i], b[i], scale[i]) == (direct[0], direct[1], 0.0)
            else:
                assert (m, z[i]) == (203, 1.0 - 4.5j) and scale[i] > 0.0


def test_ratio_array_skips_unused_direct_lower_call(monkeypatch):
    # a ratio array uses Z_m only.  Below Im z = -4 it calls hankel1 once per
    # direct element, not twice, and its rows are bitwise the quotients of the
    # full pairs.  At m = 92, z = 625 - 696i, H_91 overflows and H_92
    # (1.7e299) does not: that element still calls for H_91 and stays with
    # the recurrence, as in the pair.
    orders = np.array([0, 1, 92, 75, 120, 203])
    r = np.linspace(2.0, 8.7, 12)
    q = np.array([60.0 - 3.0j, 40.0 - 0.5j, 50.0 - 1.0j, 113.0 - 2.0j, 52.6 - 1e-6j, 90.0 - 1.5j])
    z = q[:, None] * r
    z[2, -1] = 625.0 - 696.0j
    z_ref = q * 2.0
    points = []

    def spy(order, arg):
        points.append(np.size(arg))
        return hankel1(order, arg)

    hankel1 = special.hankel1
    monkeypatch.setattr(special, "hankel1", spy)
    got = cylinder.hankel1_ratio_array(orders, z, z_ref)
    cols = np.concatenate([z, z_ref[:, None]], axis=1)
    m = np.broadcast_to(orders[:, None], cols.shape).ravel()
    calls_ratio, points[:] = sum(points), []
    lower, value, scale = cylinder._exterior_pairs(m, cols.ravel(), False)
    calls_pair = sum(points)
    value, scale = value.reshape(cols.shape), scale.reshape(cols.shape)
    want = (value[:, :-1] / value[:, -1:]) * np.exp(scale[:, :-1] - scale[:, -1:])
    assert np.array_equal(got, want)
    direct = cols.ravel().imag < -4.0
    odd = (m == 92) & (cols.ravel() == 625.0 - 696.0j)
    assert direct.sum() > 20 and scale.ravel()[odd][0] > 0.0
    assert calls_pair - calls_ratio == direct.sum() - 1
