import math

import mpmath
import numpy as np
import pytest
from scipy import integrate, stats

from relayasym import channels
from relayasym.channels import FadingModel
from relayasym.errors import ModelValidationError, PoleAtArgumentError
from relayasym.montecarlo import philox

F = FadingModel

PARAM_GRID = (
    [F.nakagami(m) for m in (0.6, 1.0, 1.8, 2.2)]
    + [F.weibull(m) for m in (0.6, 1.0, 1.8, 2.2)]
    + [F.rician(k) for k in (0.0, 1.0, 5.0)]
    + [F.hoyt(q) for q in (0.25, 0.5, 1.0)]
)


def _quad_density(model, f):
    # integrable singularity at 0 for shape < 1: let quad know about the edge
    val, err = integrate.quad(
        f, 0.0, np.inf, points=None, limit=300, epsabs=1e-10, epsrel=1e-10
    )
    return val


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_validate_accepts_supported_grid():
    for model in PARAM_GRID:
        channels.validate_model(model)
    channels.validate_model(F.nakagami(2.2, theta=1.0))


@pytest.mark.parametrize(
    "model",
    [
        F.nakagami(0.0),
        F.nakagami(-1.0),
        F.weibull(0.0),
        F.rician(-0.5),
        F.hoyt(1.2),
        F.hoyt(0.0),
        F.hoyt(5e-4),  # below the floor that bounds the polar node count
        F.nakagami(1.0, theta=0.0),
        F.nakagami(1.0, theta=-2.0),
        F.nakagami(math.inf),
        FadingModel("lognormal", 1.0, 1.0),
    ],
)
def test_validate_rejects(model):
    with pytest.raises(ModelValidationError):
        channels.validate_model(model)


# ---------------------------------------------------------------------------
# densities
# ---------------------------------------------------------------------------


def test_pdf_point_values():
    assert channels.pdf(F.nakagami(1.0), 0.0) == pytest.approx(1.0)
    assert channels.pdf(F.nakagami(2.0), 1.0) == pytest.approx(math.exp(-1.0), rel=1e-12)
    # K = 0 collapses to an exponential since I0(0) = 1
    assert channels.pdf(F.rician(0.0), 2.0) == pytest.approx(math.exp(-2.0), rel=1e-12)
    assert channels.pdf(F.nakagami(1.0), -1.0) == 0.0


@pytest.mark.parametrize("m", [200.0, 500.0])
def test_pdf_nakagami_past_the_gamma_function_range(m):
    # Gamma(m) overflows a float past m = 171.6; the density's normaliser must not
    theta = 1.0 / m
    x = m * theta * np.array([0.6, 0.9, 1.0, 1.1, 1.5])
    want = stats.gamma(m, scale=theta).pdf(x)
    np.testing.assert_allclose(channels.pdf(F.nakagami(m, theta), x), want, rtol=1e-9)


def test_pdf_array_matches_scalar_calls():
    x = np.array([-1.0, 0.0, 1e-12, 1e-3, 0.2, 1.0, 4.0, 40.0, 400.0])
    for model in PARAM_GRID:
        got = channels.pdf(model, x)
        assert got.shape == x.shape
        want = [channels.pdf(model, float(v)) for v in x]
        assert all(isinstance(v, float) for v in want)
        np.testing.assert_array_equal(got, want, err_msg=str(model))


def test_pdf_normalization_grid():
    for model in PARAM_GRID:
        total = _quad_density(model, lambda x: channels.pdf(model, x))
        assert total == pytest.approx(1.0, abs=1e-6), model


# ---------------------------------------------------------------------------
# distribution functions
# ---------------------------------------------------------------------------


def _mp_cdf(model, x):
    """P(X <= x) in mpmath, each family by a route other than the package's."""
    x, shape, theta = mpmath.mpf(x), mpmath.mpf(model.shape), mpmath.mpf(model.scale)
    if model.variant == "nakagami":
        return mpmath.gammainc(shape, 0, x / theta, regularized=True)
    if model.variant == "weibull":
        return -mpmath.expm1(-((x / theta) ** shape))
    if model.variant == "rician":
        # Poisson(K) mixture of Gamma(j + 1) CDFs at (K + 1) x / theta
        y = (shape + 1) * x / theta
        terms = (
            mpmath.exp(-shape) * shape**j / mpmath.factorial(j) * mpmath.gammainc(j + 1, 0, y, regularized=True)
            for j in range(200)
        )
        return mpmath.fsum(terms)
    # the Hoyt density, I0 factor included, integrated from 0
    q2 = shape * shape
    amp = (1 + q2) / (2 * shape * theta)
    a = (1 + q2) ** 2 / (4 * q2 * theta)
    b = (1 - q2 * q2) / (4 * q2 * theta)
    breaks = [mpmath.mpf(0)] + [mpmath.mpf(10) ** e for e in range(-8, 1, 2) if 10.0**e < x] + [x]
    return mpmath.quad(lambda t: amp * mpmath.exp(-a * t) * mpmath.besseli(0, b * t), breaks)


def test_cdf_against_mpmath():
    xs = np.array([1e-10, 1e-7, 1e-4, 1e-2, 0.3, 1.0, 3.0])
    models = PARAM_GRID + [F.nakagami(2.2, theta=1.5), F.rician(5.0, theta=2.0)] + [
        F.hoyt(q) for q in (1e-3, 0.05)
    ]
    for model in models:
        got = channels.cdf(model, xs)
        with mpmath.workdps(40):
            want = np.array([float(_mp_cdf(model, x)) for x in xs])
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0, err_msg=str(model))
        assert channels.cdf(model, float(xs[3])) == got[3]


def test_log_cdf_bound_holds_and_is_tight_at_zero():
    # F(x) <= c x^a e^{bx} everywhere, and c x^a is F's leading term as x -> 0
    xs = np.logspace(-12, 3, 61)
    for model in PARAM_GRID + [F.nakagami(2.2, theta=1.5), F.rician(5.0, theta=2.0), F.hoyt(0.05)]:
        log_c, a, b = channels.log_cdf_bound(model)
        assert a == -channels.lattice(model)[0], model
        assert np.all(np.log(channels.cdf(model, xs)) <= log_c + a * np.log(xs) + b * xs + 1e-12), model
        assert math.log(channels.cdf(model, 1e-12)) == pytest.approx(log_c + a * math.log(1e-12), abs=1e-6), model


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------


def test_moment_at_zero_is_one():
    for model in PARAM_GRID:
        assert np.exp(channels.log_moment(model, 0.0)) == pytest.approx(1.0, abs=1e-12), model


def test_moment_closed_forms():
    assert np.exp(channels.log_moment(F.nakagami(2.0), 1.0)).real == pytest.approx(2.0, rel=1e-12)
    assert np.exp(channels.log_moment(F.weibull(2.0), 1.0)).real == pytest.approx(
        0.8862269254527580, rel=1e-12
    )
    assert np.exp(channels.log_moment(F.rician(1.0), 1.0)).real == pytest.approx(1.0, rel=1e-12)
    assert np.exp(channels.log_moment(F.hoyt(0.5), 1.0)).real == pytest.approx(1.0, rel=1e-12)
    # exact second moments: Rician K=1 and Hoyt q=1/2, theta=1
    assert np.exp(channels.log_moment(F.rician(1.0), 2.0)).real == pytest.approx(1.75, rel=1e-12)
    assert np.exp(channels.log_moment(F.hoyt(0.5), 2.0)).real == pytest.approx(2.36, rel=1e-12)


def test_moment_pdf_consistency():
    for model in PARAM_GRID:
        for s in (0.5, 1.0, 2.0, 2.7):
            via_quad = _quad_density(model, lambda x: x**s * channels.pdf(model, x))
            via_formula = np.exp(channels.log_moment(model, s)).real
            assert via_quad == pytest.approx(via_formula, rel=1e-6), (model, s)


def test_moment_schwarz_symmetry():
    rng = np.random.default_rng(11)
    for model in (F.nakagami(1.8), F.weibull(2.2), F.rician(3.0), F.hoyt(0.5)):
        for _ in range(20):
            s = complex(rng.uniform(-0.9, 3.0), rng.uniform(0.1, 5.0))
            a = np.exp(channels.log_moment(model, s.conjugate()))
            b = np.exp(channels.log_moment(model, s)).conjugate()
            assert abs(a - b) <= 1e-12 * abs(b)


def test_moment_reduction_chains():
    # Rician K=0, Hoyt q=1 and Weibull m=1 all equal Nakagami m=1 moments
    base = F.nakagami(1.0, theta=1.3)
    equivalents = [F.rician(0.0, theta=1.3), F.hoyt(1.0, theta=1.3), F.weibull(1.0, theta=1.3)]
    for s in (0.5, 1.0, 2.3, complex(1.0, 0.7)):
        want = np.exp(channels.log_moment(base, s))
        for model in equivalents:
            got = np.exp(channels.log_moment(model, s))
            assert abs(got - want) <= 1e-10 * abs(want), (model, s)


def test_moment_pole_raises():
    with pytest.raises(PoleAtArgumentError):
        np.exp(channels.log_moment(F.nakagami(1.8), -1.8))
    with pytest.raises(PoleAtArgumentError):
        np.exp(channels.log_moment(F.rician(2.0), -3.0 + 1e-12j))


def test_log_moment_array_matches_scalar_calls():
    # residue-style rings: 64 nodes on a circle around each pole, one call per ring
    phi = 2.0 * math.pi * np.arange(64) / 64
    models = (F.nakagami(1.8), F.weibull(2.2), F.rician(3.0), F.hoyt(0.5), F.hoyt(0.25))
    for model in models:
        for pole in channels.mellin_poles(model, -4.0):
            ring = pole + 0.4 * np.exp(1j * phi)
            got = channels.log_moment(model, ring)
            assert got.shape == ring.shape
            want = np.array([channels.log_moment(model, s) for s in ring])
            np.testing.assert_allclose(np.exp(got), np.exp(want), rtol=1e-14, err_msg=str(model))
            # one node within the merge tolerance of the pole poisons the whole ring
            ring[5] = pole + 0.5 * channels.POLE_MERGE_TOL
            with pytest.raises(PoleAtArgumentError):
                channels.log_moment(model, ring)


def _mp_hoyt_moment(q, theta, s):
    """E[X^s] of the Hoyt gain by the Gauss 2F1 form with argument ((1-q^2)/(1+q^2))^2."""
    q, theta, s = mpmath.mpf(q), mpmath.mpf(theta), mpmath.mpc(s.real, s.imag)
    q2 = q * q
    z = ((1 - q2) / (1 + q2)) ** 2
    return (
        (2 * q / (1 + q2)) ** (2 * s + 1)
        * theta**s
        * mpmath.gamma(s + 1)
        * mpmath.hyp2f1((s + 1) / 2, (s + 2) / 2, 1, z)
    )


def test_hoyt_log_moment_against_mpmath_down_to_q_floor():
    # every q that validation accepts evaluates, one call per ring, down to
    # the floor, where the polar rule needs its most nodes
    phi = 2.0 * math.pi * np.arange(32) / 32
    for q, theta in ((0.75, 1.0), (0.05, 2.0), (0.015, 1.0), (0.01, 0.5), (channels.HOYT_Q_MIN, 1.0)):
        model = F.hoyt(q, theta)
        for center in (-3.5, -2.5, -1.5, -0.5, 0.5, 2.0):
            ring = center + 0.3 * np.exp(1j * phi)
            got = np.exp(channels.log_moment(model, ring))
            with mpmath.workdps(30):
                want = np.array([complex(_mp_hoyt_moment(q, theta, s)) for s in ring])
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0, err_msg=f"q={q}, center={center}")


# ---------------------------------------------------------------------------
# pole lattices
# ---------------------------------------------------------------------------


def test_mellin_poles_examples():
    assert channels.mellin_poles(F.nakagami(1.8), -4.0) == [-1.8, -2.8, -3.8]
    assert channels.mellin_poles(F.weibull(1.8), -4.0) == [-1.8, -3.6]
    assert channels.mellin_poles(F.rician(3.0), -2.5) == [-1.0, -2.0]
    # a non-dyadic lattice is listed by the formula r0 - step*j, not by
    # repeated subtraction (which reaches -2.1 where the formula gives
    # -2.0999999999999996), and log_moment's pole check sees every entry
    model = F.weibull(0.3)
    poles = channels.mellin_poles(model, -3.0)
    assert poles == [-0.3 - 0.3 * j for j in range(10)]
    assert all(type(loc) is float for loc in poles)
    for loc in poles:
        with pytest.raises(PoleAtArgumentError):
            channels.log_moment(model, loc)


def test_mellin_poles_window_bound():
    # a window holding more than MAX_LATTICE_POLES poles is refused up front
    assert len(channels.mellin_poles(F.nakagami(1.0), -100.0)) == 100
    limit = channels.MAX_LATTICE_POLES
    assert len(channels.mellin_poles(F.nakagami(1.0), -float(limit))) == limit
    for model, re_min in ((F.nakagami(1.0), -1e6), (F.weibull(1e-5), -1.5)):
        with pytest.raises(ValueError, match="poles"):
            channels.mellin_poles(model, re_min)


@pytest.mark.parametrize("re_min", [math.nan, math.inf, -math.inf])
def test_mellin_poles_rejects_non_finite_re_min(re_min):
    with pytest.raises(ValueError, match="re_min"):
        channels.mellin_poles(F.nakagami(1.0), re_min)


def test_pole_blowup():
    for model in (F.nakagami(1.8), F.weibull(1.8), F.rician(3.0), F.hoyt(0.5)):
        for pole in channels.mellin_poles(model, -3.0):
            value = np.exp(channels.log_moment(model, pole + 1e-7))
            assert abs(value) > 1e6, (model, pole)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def test_sample_means():
    stream = philox(seed=2026, stream_index=0)
    x = channels.sample(F.nakagami(2.0), stream, size=10**6)
    assert 1.99 <= float(np.mean(x)) <= 2.01
    x = channels.sample(F.hoyt(0.5), stream, size=10**6)
    assert 0.99 <= float(np.mean(x)) <= 1.01


def test_sample_rician_second_moment():
    stream = philox(seed=31, stream_index=0)
    x = channels.sample(F.rician(1.0), stream, size=10**6)
    m2_hat = float(np.mean(x * x))
    m2 = np.exp(channels.log_moment(F.rician(1.0), 2.0)).real
    assert abs(m2_hat - m2) <= 0.01 * m2


def test_sample_two_sample_moment_checks():
    # z-test of the sample mean of X^s against the analytic moment, s = 1, 2;
    # threshold 2.576 = 99% two-sided normal quantile
    n = 200_000
    for i, model in enumerate((F.nakagami(1.8), F.weibull(2.2), F.rician(3.0), F.hoyt(0.5))):
        stream = philox(seed=500 + i, stream_index=0)
        x = channels.sample(model, stream, size=n)
        for s in (1.0, 2.0):
            xs = x**s
            want = np.exp(channels.log_moment(model, s)).real
            se = float(np.std(xs, ddof=1)) / math.sqrt(n)
            assert abs(float(np.mean(xs)) - want) <= 2.576 * se, (model, s)


def test_sample_determinism():
    a = philox(seed=9, stream_index=4)
    b = philox(seed=9, stream_index=4)
    xa = channels.sample(F.rician(2.0), a, size=1000)
    xb = channels.sample(F.rician(2.0), b, size=1000)
    np.testing.assert_array_equal(xa, xb)
    c = philox(seed=9, stream_index=5)
    xc = channels.sample(F.rician(2.0), c, size=1000)
    assert not np.array_equal(xa, xc)


# Draws 0, 16383, 16384 and 70000 and the sum of 70001 gains from stream
# (20260418, 7), frozen from numpy's allocating samplers: bit for bit, so any
# change to the stream layout or to the rounding of the sampler shows.
FROZEN_DRAWS = {
    F.nakagami(2.2, 1.3): ([3.826039345820528, 1.9047535689330137, 2.9212176363336595, 3.286378664179301],
                           200165.4328759081),
    F.weibull(1.8, 0.7): ([1.213271453994416, 1.1405019218512296, 0.8111692807629937, 0.42464628373940966],
                          43639.946613764856),
    F.rician(3.0, 1.7): ([2.3119375286178014, 0.6567385969577871, 1.0266562099912664, 1.1294482155798862],
                         118836.32836736328),
    F.hoyt(1 / 3, 2.0): ([1.0397741401135547, 3.2729049155557295, 0.12305061303574168, 0.047660379719168755],
                         140144.67475110188),
}


@pytest.mark.parametrize("model", list(FROZEN_DRAWS))
def test_sample_frozen_draws(model):
    values, total = FROZEN_DRAWS[model]
    fresh = channels.sample(model, philox(20260418, 7), size=70001)
    into = channels.sample(model, philox(20260418, 7), size=70001, out=np.full(70001, np.nan))
    for x in (fresh, into):
        assert [float(x[i]) for i in (0, 16383, 16384, 70000)] == values
        assert float(x.sum()) == total
