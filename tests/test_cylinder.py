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


def test_bessel_j_trivial_origin():
    assert cylinder.bessel_j(0, 0.0) == 1.0
    assert cylinder.bessel_j(3, 0.0) == 0.0


def test_bessel_j_series_oracle():
    # frozen from the power-series oracle
    assert series_bessel_j(1, 1.0).real == pytest.approx(0.4400505857449335, rel=1e-14)
    assert cylinder.bessel_j(1, 1.0) == pytest.approx(series_bessel_j(1, 1.0), rel=1e-10)
    for m, z in [(0, 0.7), (2, 3.3), (7, 9.1 + 0.4j), (12, 6.0 - 1.0j)]:
        assert cylinder.bessel_j(m, z) == pytest.approx(series_bessel_j(m, z), rel=1e-12)


def test_hankel1_small_argument_oracle():
    ref = series_bessel_j(1, 1.0) + 1j * series_bessel_y(1, 1.0)
    assert ref == pytest.approx(0.4400505857449335 - 0.7812128213002887j, rel=1e-12)
    assert cylinder.hankel1(1, 1.0) == pytest.approx(ref, rel=1e-10)


def test_hankel1_asymptotic_magnitude():
    mag = abs(cylinder.hankel1(0, 100.0))
    assert mag == pytest.approx(math.sqrt(2.0 / (math.pi * 100.0)), rel=0.01)


def test_wronskian_identity_hot_region():
    # J_m H1_m' - J_m' H1_m = 2i/(pi z).  Cancellation limits the testable
    # imaginary range to |Im z| <~ 6, and far below the turning point the
    # factors themselves leave the double range, so z >= ~m/2 here.
    worst = 0.0
    for m in (0, 1, 5, 60, 120, 200):
        for z in (1.0 + 0j, 5.0 - 0.5j, 52.6 + 0j, 113.0 - 1.57e-6j,
                  250.0 - 3.0j, 300.0 + 6.0j):
            if abs(z) < 0.52 * m:
                continue
            w = (cylinder.bessel_j(m, z) * cylinder.hankel1_deriv(m, z)
                 - cylinder.bessel_j_deriv(m, z) * cylinder.hankel1(m, z))
            target = 2j / (math.pi * z)
            worst = max(worst, abs(w - target) / abs(target))
    assert worst < 1e-10


@settings(max_examples=40, deadline=None)
@given(m=st.integers(1, 200), x=st.floats(1.0, 300.0), im=st.floats(-4.0, 4.0))
def test_recurrence_identities(m, x, im):
    assume(x >= 0.52 * m)   # factors representable in doubles
    z = complex(x, im)
    for fn in (cylinder.bessel_j, cylinder.hankel1):
        zm1 = fn(m - 1, z)
        zp1 = fn(m + 1, z)
        zm = fn(m, z)
        scale = max(abs(zm1), abs(zp1), abs(zm))
        assert abs(zm1 + zp1 - (2 * m / z) * zm) <= 1e-9 * scale * max(1.0, 2 * m / abs(z))


def test_k_recurrence_identity():
    m, x = 120, 100.0
    lhs = cylinder.bessel_k(m + 1, x) - cylinder.bessel_k(m - 1, x)
    rhs = (2 * m / x) * cylinder.bessel_k(m, x)
    assert lhs == pytest.approx(rhs, rel=1e-9)


def test_bessel_k_integral_oracle():
    # K_0(x) = int_0^inf exp(-x cosh t) dt
    val, _ = integrate.quad(lambda t: math.exp(-1.0 * math.cosh(t)), 0, 30, limit=200)
    assert val == pytest.approx(0.42102443824070834, rel=1e-12)
    assert cylinder.bessel_k(0, 1.0) == pytest.approx(0.4210244382, rel=1e-10)


def test_bessel_k_asymptotic_and_monotone():
    x = 50.0
    asym = math.sqrt(math.pi / (2 * x)) * math.exp(-x)
    assert cylinder.bessel_k(0, x) / asym == pytest.approx(1.0, abs=0.01)
    xs = np.linspace(0.5, 40, 40)
    vals = [cylinder.bessel_k(3, float(x)) for x in xs]
    assert all(v > 0 for v in vals)
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_ode_residual():
    # z^2 Z'' + z Z' + (z^2 - m^2) Z = 0 with Z'' from derivative recurrences
    for m, z in [(0, 2.0), (5, 7.0 - 0.3j), (60, 80.0), (120, 226.0 - 1e-5j),
                 (200, 210.0)]:
        for fn, dfn in ((cylinder.bessel_j, cylinder.bessel_j_deriv),
                        (cylinder.hankel1, cylinder.hankel1_deriv)):
            val = fn(m, z)
            d1 = dfn(m, z)
            d2 = 0.5 * (dfn(m - 1, z) if m >= 1 else -dfn(1, z)) - 0.5 * dfn(m + 1, z)
            resid = z * z * d2 + z * d1 + (z * z - m * m) * val
            scale = max(abs(z * z * d2), abs(z * z * val), 1e-300)
            assert abs(resid) / scale < 1e-8
    # modified equation for K: z^2 K'' + z K' - (z^2 + m^2) K = 0
    m, x = 40, 55.0
    val = cylinder.bessel_k(m, x)
    d1 = cylinder.bessel_k_deriv(m, x)
    d2 = -0.5 * (cylinder.bessel_k_deriv(m - 1, x) + cylinder.bessel_k_deriv(m + 1, x))
    resid = x * x * d2 + x * d1 - (x * x + m * m) * val
    assert abs(resid) / abs(x * x * d2) < 1e-8


def test_large_order_scaled_paths():
    # no overflow for orders up to 300
    ratio = cylinder.bessel_j(300, 300.0) / cylinder.bessel_j(300, 300.0 * (1 + 1e-6))
    assert np.isfinite(ratio)
    # scaled Hankel agrees with the direct value where both exist
    for m, z in [(50, 20.0), (120, 105.2 + 0j)]:
        val, scale = cylinder.hankel1_scaled(m, z)
        assert val * np.exp(scale) == pytest.approx(cylinder.hankel1(m, z), rel=1e-10)
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
    z = np.array([0.5, 3.0 - 0.2j, 40.0 - 2.0j, 60.0 - 6.0j])
    z_ref = 2.0 - 0.1j
    for m in (0, 1):
        assert np.array_equal(
            cylinder.hankel1_ratio_array(m, z, z_ref),
            special.hankel1(m, z) / special.hankel1(m, z_ref))
        x = np.array([0.1, 1.0, 30.0, 700.0])
        want = special.kve(m, x) / special.kve(m, 2.0) * np.exp(-(x - 2.0))
        assert _rel_err(cylinder.bessel_k_ratio_array(m, x, 2.0), want) < 1e-14


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


def test_domain_and_range_errors():
    with pytest.raises(DomainError):
        cylinder.bessel_k(2, -1.0)
    with pytest.raises(DomainError):
        cylinder.bessel_k(2, 0.0)
    with pytest.raises(SingularArgumentError):
        cylinder.hankel1(3, 0.0)
    with pytest.raises(DomainError):
        cylinder.bessel_j(-2, 1.0)
    with pytest.raises(RangeError) as err:
        cylinder.bessel_j(10, 1.0 + 800.0j)
    assert "10" in str(err.value)
    with pytest.raises(RangeError):
        cylinder.bessel_j(0, 2.0e4)
    # the log-derivatives validate as bessel_k and hankel1_scaled do
    for fn, bad in ((cylinder.hankel1_logderiv, math.nan),
                    (cylinder.bessel_k_logderiv, math.nan),
                    (cylinder.bessel_k_logderiv, math.inf),
                    (cylinder.bessel_k_deriv, math.nan),
                    (cylinder.bessel_k_deriv, math.inf)):
        with pytest.raises(DomainError):
            fn(3, bad)
    for bad in (2.0e4, 1.0 - 800.0j):
        with pytest.raises(RangeError):
            cylinder.hankel1_logderiv(3, bad)
    with pytest.raises(SingularArgumentError):
        cylinder.hankel1_logderiv(3, 0.0)


def test_eval_cylinder_surface():
    ev = cylinder.eval_cylinder("j", 5, 7.0)
    assert ev.order == 5 and ev.argument == 7.0 + 0j
    assert ev.derivative == pytest.approx(
        0.5 * (cylinder.bessel_j(4, 7.0) - cylinder.bessel_j(6, 7.0)), rel=1e-14)
    with pytest.raises(DomainError):
        cylinder.eval_cylinder("k", 2, 1.0 + 1.0j)


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
        orders, x, special.kve(0, x), special.kve(1, x), -x, 1.0)
    z = np.tile([0.7 + 0.2j, 12.0 - 0.5j, 150.0 + 0j, 230.0 - 3.0j], 4)
    ha, hb, hscale = cylinder._forward_recurrence(
        orders, z, special.hankel1(0, z), special.hankel1(1, z), np.zeros(z.size), -1.0)
    for i, m in enumerate(orders.tolist()):
        ln_k, ratio_k = _mp_log_pair(mpmath.besselk, m, x[i])
        assert _same_log(math.log(kb[i]) + kscale[i], ln_k) < 1e-12, (m, x[i])
        assert ka[i] / kb[i] == pytest.approx(ratio_k.real, rel=1e-12)
        ln_h, ratio_h = _mp_log_pair(mpmath.hankel1, m, z[i])
        assert _same_log(np.log(complex(hb[i])) + hscale[i], ln_h) < 1e-12, (m, z[i])
        assert abs(ha[i] / hb[i] - ratio_h) < 1e-12 * abs(ratio_h)


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
