import math

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import resonet as rn
from resonet.errors import InvalidSpecError

mp.mp.dps = 40


def mp_g_values(n, ripple_db):
    """Independent high-precision evaluation of the prototype recurrence."""
    beta = mp.log(mp.coth(mp.mpf(str(ripple_db)) / mp.mpf("17.37")))
    gamma = mp.sinh(beta / (2 * n))
    g = [mp.mpf(1), 2 * mp.sin(mp.pi / (2 * n)) / gamma]
    for i in range(2, n + 1):
        num = 4 * mp.sin((2 * i - 3) * mp.pi / (2 * n)) * mp.sin((2 * i - 1) * mp.pi / (2 * n))
        den = (gamma**2 + mp.sin((i - 1) * mp.pi / n) ** 2) * g[i - 1]
        g.append(num / den)
    g.append(mp.coth(beta / 4) ** 2 if n % 2 == 0 else mp.mpf(1))
    return [float(x) for x in g]


# Frozen from the high-precision recurrence above.
TABLE2_G = (1.0, 0.93139891349329691, 1.291954249232386, 1.577475437174425,
            0.76281681201546223, 1.2209994573040657)
TABLE2_QE = 18.627978269865938
TABLE2_K = (0.045580446327559078, 0.035023950805149942, 0.045580446327559078)
TABLE4_QE = 20.34245880220416
TABLE4_K = (0.041146629251346284, 0.029590518247045768, 0.027693912695210461,
            0.027300948212817731, 0.027693912695210461, 0.029590518247045768,
            0.041146629251346284)
TABLE5_QE = 46.569945674664846
TABLE5_K = (0.018232178531023631, 0.014009580322059977, 0.018232178531023631)


@pytest.mark.parametrize("n", range(2, 10))
@pytest.mark.parametrize("ripple", [0.01, 0.04321, 0.1, 0.5, 1.0])
def test_g_values_match_high_precision_oracle(n, ripple):
    got = rn.chebyshev_g_values(n, ripple).g
    want = mp_g_values(n, ripple)
    assert len(got) == n + 2
    for a, b in zip(got, want):
        assert a == pytest.approx(b, abs=1e-12, rel=1e-12)


def test_frozen_4pole_values():
    proto = rn.chebyshev_g_values(4, 0.04321)
    for a, b in zip(proto.g, TABLE2_G):
        assert a == pytest.approx(b, rel=1e-14)
    # coarse sanity against hand-computed values
    assert proto.g[1] == pytest.approx(0.9305, abs=1e-3)
    assert proto.g[2] == pytest.approx(1.2917, abs=1e-3)


@pytest.mark.parametrize(
    "n,ripple,published",
    [
        (3, 0.1, [1.0316, 1.1474, 1.0316, 1.0]),
        (5, 0.5, [1.7058, 1.2296, 2.5408, 1.2296, 1.7058, 1.0]),
        (3, 1.0, [2.0236, 0.9941, 2.0236, 1.0]),
    ],
)
def test_against_published_prototype_tables(n, ripple, published):
    g = rn.chebyshev_g_values(n, ripple).g
    for a, b in zip(g[1:], published):
        assert a == pytest.approx(b, abs=1e-4)


def test_g0_definitional():
    for n in range(1, 10):
        assert rn.chebyshev_g_values(n, 0.04321).g[0] == 1.0


def test_odd_order_load_is_exactly_one():
    for n in (3, 5, 7, 9):
        assert rn.chebyshev_g_values(n, 0.2).g[n + 1] == 1.0


def test_order_one_base_case():
    ripple = 0.04321
    beta = math.log(1.0 / math.tanh(ripple / 17.37))
    gamma = math.sinh(beta / 2.0)
    proto = rn.chebyshev_g_values(1, ripple)
    assert proto.g[1] == pytest.approx(2.0 * math.sin(math.pi / 2) / gamma, rel=1e-15)


@pytest.mark.parametrize(
    "bad_call",
    [
        lambda: rn.chebyshev_g_values(0, 0.1),
        lambda: rn.chebyshev_g_values(-3, 0.1),
        lambda: rn.chebyshev_g_values(4, 0.0),
        lambda: rn.chebyshev_g_values(4, -0.5),
        lambda: rn.chebyshev_g_values(float("nan"), 0.1),
        lambda: rn.chebyshev_g_values(4, float("inf")),
    ],
)
def test_invalid_prototype_arguments(bad_call):
    with pytest.raises(InvalidSpecError):
        bad_call()


def test_table2_targets(xband4):
    t = rn.spec_to_couplings(xband4)
    assert t.qe_in == pytest.approx(TABLE2_QE, rel=1e-14)
    assert t.qe_out == pytest.approx(TABLE2_QE, rel=1e-14)
    for a, b in zip(t.k, TABLE2_K):
        assert a == pytest.approx(b, rel=1e-14)


def test_table4_targets(xband8):
    t = rn.spec_to_couplings(xband8)
    assert t.qe_in == pytest.approx(TABLE4_QE, rel=1e-14)
    for a, b in zip(t.k, TABLE4_K):
        assert a == pytest.approx(b, rel=1e-14)


def test_table5_targets(yband4):
    t = rn.spec_to_couplings(yband4)
    assert t.qe_in == pytest.approx(TABLE5_QE, rel=1e-14)
    for a, b in zip(t.k, TABLE5_K):
        assert a == pytest.approx(b, rel=1e-14)


@pytest.mark.parametrize("n", range(2, 10))
def test_symmetry_of_targets(n):
    spec = rn.FilterSpec(order=n, f0_hz=10e9, bandwidth_hz=0.5e9, ripple_db=0.04321)
    t = rn.spec_to_couplings(spec)
    assert abs(t.qe_in - t.qe_out) < 1e-12
    for i in range(len(t.k)):
        assert abs(t.k[i] - t.k[len(t.k) - 1 - i]) < 1e-12


def test_bandwidth_scaling_is_exact(xband4):
    t1 = rn.spec_to_couplings(xband4)
    doubled = rn.FilterSpec(
        order=xband4.order,
        f0_hz=xband4.f0_hz,
        bandwidth_hz=2.0 * xband4.bandwidth_hz,
        ripple_db=xband4.ripple_db,
    )
    t2 = rn.spec_to_couplings(doubled)
    assert t2.qe_in == t1.qe_in / 2.0
    for a, b in zip(t2.k, t1.k):
        assert a == 2.0 * b


def test_g1_increases_with_ripple():
    ripples = [0.01 + 0.05 * i for i in range(20)]
    g1 = [rn.chebyshev_g_values(4, r).g[1] for r in ripples]
    assert all(b > a for a, b in zip(g1, g1[1:]))


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(order=1, f0_hz=10e9, bandwidth_hz=0.5e9, ripple_db=0.04321),
        dict(order=4, f0_hz=-1.0, bandwidth_hz=0.5e9, ripple_db=0.04321),
        dict(order=4, f0_hz=10e9, bandwidth_hz=0.0, ripple_db=0.04321),
        dict(order=4, f0_hz=10e9, bandwidth_hz=11e9, ripple_db=0.04321),
        dict(order=4, f0_hz=10e9, bandwidth_hz=0.5e9, ripple_db=0.0),
        dict(order=float("nan"), f0_hz=10e9, bandwidth_hz=0.5e9, ripple_db=0.04321),
        dict(order=float("inf"), f0_hz=10e9, bandwidth_hz=0.5e9, ripple_db=0.04321),
        dict(order=None, f0_hz=10e9, bandwidth_hz=0.5e9, ripple_db=0.04321),
        dict(order=4, f0_hz=float("inf"), bandwidth_hz=0.5e9, ripple_db=0.04321),
        dict(order=4, f0_hz=10e9, bandwidth_hz=0.5e9, ripple_db=float("inf")),
    ],
)
def test_invalid_filter_spec(kwargs):
    with pytest.raises(InvalidSpecError):
        rn.FilterSpec(**kwargs)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=10),
    ripple=st.floats(min_value=5e-3, max_value=2.0),
)
def test_prototype_properties(n, ripple):
    g = rn.chebyshev_g_values(n, ripple).g
    assert all(gi > 0 for gi in g)
    # adjacent-element products are palindromic, which makes the k sequence
    # symmetric and the two external Qs equal
    products = [g[i] * g[i + 1] for i in range(n + 1)]
    for a, b in zip(products, reversed(products)):
        assert a == pytest.approx(b, rel=1e-12)
