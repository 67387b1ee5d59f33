import cmath
import math

import mpmath
import numpy as np
import pytest

from relayasym import specfun as sf
from relayasym.errors import ArgumentRangeError

EULER_GAMMA = 0.5772156649015329

# Lanczos approximation, g = 7, 9 coefficients: an oracle for the gamma
# function that is independent of scipy.
_LANCZOS_G = 7.0
_LANCZOS_COEF = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def complex_gamma(z: complex) -> complex:
    """Lanczos gamma with the reflection formula for Re(z) < 0.5."""
    z = complex(z)
    if z.real < 0.5:
        # Reflection: gamma(z) gamma(1-z) = pi / sin(pi z)
        return math.pi / (cmath.sin(math.pi * z) * complex_gamma(1.0 - z))
    x = complex(_LANCZOS_COEF[0])
    for i, c in enumerate(_LANCZOS_COEF[1:], start=1):
        x += c / (z - 1.0 + i)
    t = z + (_LANCZOS_G - 0.5)
    return math.sqrt(2.0 * math.pi) * t ** (z - 0.5) * cmath.exp(-t) * x


def gamma(z) -> complex:
    return complex(np.exp(sf.log_gamma(z)))


# ---------------------------------------------------------------------------
# complex gamma, as exp(log_gamma)
# ---------------------------------------------------------------------------


def test_gamma_known_values():
    assert gamma(1.0) == pytest.approx(1.0, rel=1e-12)
    assert gamma(0.5).real == pytest.approx(1.7724538509055160, rel=1e-12)
    # high-precision oracle value, frozen
    z = gamma(1 + 1j)
    assert z.real == pytest.approx(0.4980156681183560, rel=1e-12)
    assert z.imag == pytest.approx(-0.1549498283018107, rel=1e-12)


def test_gamma_reflection_region():
    # gamma(-0.5) = -2 sqrt(pi)
    assert gamma(-0.5).real == pytest.approx(-2.0 * math.sqrt(math.pi), rel=1e-12)
    # gamma(-1.5) = 4 sqrt(pi) / 3
    assert gamma(-1.5).real == pytest.approx(4.0 * math.sqrt(math.pi) / 3.0, rel=1e-12)


def test_gamma_recurrence_property():
    rng = np.random.default_rng(20260808)
    for _ in range(100):
        z = complex(rng.uniform(0.5, 10.0), rng.uniform(-10.0, 10.0))
        lhs = gamma(z + 1)
        rhs = z * gamma(z)
        assert abs(lhs - rhs) <= 1e-10 * abs(lhs)


def test_gamma_schwarz_symmetry():
    rng = np.random.default_rng(99)
    for _ in range(100):
        z = complex(rng.uniform(0.5, 10.0), rng.uniform(-10.0, 10.0))
        a = gamma(z.conjugate())
        b = gamma(z).conjugate()
        assert abs(a - b) <= 1e-14 * abs(b)


# ---------------------------------------------------------------------------
# log gamma
# ---------------------------------------------------------------------------


def test_log_gamma_known_values():
    assert abs(sf.log_gamma(1.0)) < 1e-13
    assert abs(sf.log_gamma(2.0)) < 1e-13
    assert sf.log_gamma(10.0).real == pytest.approx(12.8018274800814696, rel=1e-12)


def test_exp_log_gamma_matches_gamma():
    rng = np.random.default_rng(7)
    for _ in range(200):
        z = complex(rng.uniform(-20.0, 20.0), rng.uniform(-20.0, 20.0))
        if abs(z.imag) < 1e-3 and abs(z.real - round(z.real)) < 1e-3 and z.real < 0.5:
            continue
        g = complex_gamma(z)
        assert abs(gamma(z) - g) <= 1e-10 * abs(g)


def test_log_gamma_on_residue_contours():
    # circles like the residue engine uses: around a negative pole location,
    # one array call per ring
    phi = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
    for center, radius in ((-1.8, 0.16), (-1.0, 0.2), (-2.8, 0.08)):
        ring = center + radius * np.exp(1j * phi) + 0.9  # gamma argument s + m
        got = np.exp(sf.log_gamma(ring))
        for z, g in zip(ring, got):
            want = complex_gamma(z)
            assert abs(g - want) <= 1e-10 * abs(want)


# ---------------------------------------------------------------------------
# confluent hypergeometric
# ---------------------------------------------------------------------------


def test_kummer_trivial_values():
    assert sf.kummer_1f1(3.7, 0.0) == pytest.approx(1.0, rel=1e-14)
    # 1F1(2,1;z) = e^z (1+z)
    assert sf.kummer_1f1(2.0, 1.0).real == pytest.approx(5.4365636569180905, rel=1e-12)
    # a = -1 degenerates to the Laguerre polynomial 1 - z
    assert sf.kummer_1f1(-1.0, 3.0).real == pytest.approx(-2.0, rel=1e-12)


def test_kummer_identity():
    # 1F1(a,1;z) = e^z 1F1(1-a,1;-z)
    for a in (0.5, 2.0, 3.7):
        for z in np.linspace(0.0, 5.0, 11):
            lhs = sf.kummer_1f1(a, z)
            rhs = cmath.exp(z) * sf.kummer_1f1(1.0 - a, -z)
            assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(lhs))


def test_kummer_complex_a_against_series():
    # direct 200-term defining series as the independent oracle
    def oracle(a, z):
        total = complex(1.0)
        term = complex(1.0)
        for k in range(200):
            term *= (a + k) * z / ((1.0 + k) * (k + 1.0))
            total += term
        return total

    avals = (0.3 + 2j, -1.2 - 0.5j, 4.0 + 0.1j)
    for z in (0.5, 3.0, 10.0):
        for a in avals:
            got = sf.kummer_1f1(a, z)
            want = oracle(a, z)
            assert abs(got - want) <= 1e-10 * abs(want)
        # one array call is the scalar calls, bit for bit: each element stops
        # at its own convergence, whatever else the array holds (here a
        # Rician residue contour, a = s + 1 around s = -2, and a = -1)
        a = np.concatenate([avals, [-1.0], -1.0 + 0.4 * np.exp(2j * np.pi * np.arange(64) / 64)])
        np.testing.assert_array_equal(sf.kummer_1f1(a, z), [sf.kummer_1f1(x, z) for x in a])


def test_kummer_range_error():
    with pytest.raises(ArgumentRangeError):
        sf.kummer_1f1(1.0, 31.0)


# ---------------------------------------------------------------------------
# Gauss hypergeometric
# ---------------------------------------------------------------------------


def _mp_2f1(a, p):
    """2F1(a, 1/2; 1; 1 - p) by mpmath's own series and transformations, 30 digits."""
    with mpmath.workdps(30):
        return complex(mpmath.hyp2f1(mpmath.mpc(a.real, a.imag), 0.5, 1, 1 - mpmath.mpf(p)))


def test_gauss_2f1_trivial_values():
    # 2F1(0, 1/2; 1; z) = 1 for any z, and every 2F1(a, 1/2; 1; 0) = 1
    assert sf.gauss_2f1(0.0, 1e-3) == pytest.approx(1.0, rel=1e-14)
    assert sf.gauss_2f1(2.7 - 0.4j, 1.0) == pytest.approx(1.0, rel=1e-14)
    for p in (0.64, 0.1, 1e-4):
        # 2F1(1, 1/2; 1; 1-p) = p^-1/2, and a = -1, -2 end the series: 1 - z/2, 1 - z + 3z^2/8
        assert sf.gauss_2f1(1.0, p).real == pytest.approx(p**-0.5, rel=1e-12)
        z = 1.0 - p
        assert sf.gauss_2f1(-1.0, p).real == pytest.approx(1.0 - z / 2.0, rel=1e-12)
        assert sf.gauss_2f1(-2.0, p).real == pytest.approx(1.0 - z + 3.0 * z * z / 8.0, rel=1e-12)


def test_gauss_2f1_against_mpmath():
    # complex a on residue-style rings; -a is the Hoyt moment order s
    phi = 2.0 * math.pi * np.arange(16) / 16
    for p in (1.0, 0.5625, 0.25, 0.1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
        for center in (-2.0, -1.0, 0.0, 0.5, 1.5, 2.5, 3.5):
            a = center + 0.3 * np.exp(1j * phi)
            got = sf.gauss_2f1(a, p)
            want = np.array([_mp_2f1(x, p) for x in a])
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0, err_msg=f"p={p}")


def test_gauss_2f1_array_matches_scalar_calls():
    a = np.array([0.5, 1.3 + 0.4j, -0.7 - 2j, 2.0 + 1j])
    for p in (1.0, 0.25, 1e-6):
        got = sf.gauss_2f1(a, p)
        assert got.shape == a.shape
        want = [sf.gauss_2f1(x, p) for x in a]
        assert all(isinstance(v, complex) for v in want)
        np.testing.assert_allclose(got, want, rtol=1e-15)
    grid = sf.gauss_2f1(a.reshape(2, 2), 0.1)
    np.testing.assert_allclose(grid, sf.gauss_2f1(a, 0.1).reshape(2, 2), rtol=1e-15)


def test_gauss_2f1_range_errors():
    for p in (0.0, -0.1, 1.0 + 1e-12, 2.0, math.nan):
        with pytest.raises(ArgumentRangeError):
            sf.gauss_2f1(0.5, p)


# ---------------------------------------------------------------------------
# modified Bessel I0
# ---------------------------------------------------------------------------


def _i0_series_oracle(x, terms=400):
    q = 0.25 * x * x
    total, term = 1.0, 1.0
    for k in range(terms):
        term *= q / ((k + 1.0) ** 2)
        total += term
    return total


def test_bessel_i0_values():
    assert sf.log_bessel_i0(0.0) == 0.0
    assert math.exp(sf.log_bessel_i0(1.0)) == pytest.approx(1.2660658777520083, rel=1e-12)
    assert sf.log_bessel_i0(-2.0) == sf.log_bessel_i0(2.0)
    for x in (0.3, 1.7, 5.0, 12.0, 25.0):
        assert math.exp(sf.log_bessel_i0(x)) == pytest.approx(_i0_series_oracle(x), rel=1e-10)


def test_log_bessel_i0_consistency():
    xs = (0.5, 10.0, 49.9, 50.1, 120.0, 600.0)
    for x in xs:
        assert sf.log_bessel_i0(x) == pytest.approx(
            math.log(_i0_series_oracle(x, terms=1000)), rel=1e-12
        )
    got = sf.log_bessel_i0(-np.array(xs))
    assert got.tolist() == [sf.log_bessel_i0(x) for x in xs]
