import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import special

from relayasym import channels, mellin, montecarlo
from relayasym.channels import FadingModel, HopConfig, NetworkConfig
from relayasym.errors import ConditioningWarning, IllConditionedContourError, TruncationWarning

from conftest import REFERENCE_CONFIGS, make_network, rayleigh_chain, two_hop_rayleigh_outage

F = FadingModel
EULER_GAMMA = 0.5772156649015329


# ---------------------------------------------------------------------------
# network config and series-term bookkeeping
# ---------------------------------------------------------------------------


def test_network_validation():
    with pytest.raises(ValueError):
        NetworkConfig(hops=(), gamma_t=1.0)
    with pytest.raises(ValueError):
        make_network([F.nakagami(1.0)], rhos=[2.0])  # rho_1 must be 1
    with pytest.raises(ValueError):
        make_network([F.nakagami(1.0), F.nakagami(1.0)], rhos=[1.0, -1.0])
    with pytest.raises(ValueError):
        make_network([F.nakagami(1.0)], gamma_t=0.0)


def test_shift_terms_order_and_count():
    net3 = make_network([F.nakagami(1.0)] * 3)
    got = [shifts for shifts, _ in mellin._shift_terms(net3, 2)]
    assert got == [(0, 0, 2), (0, 1, 2), (0, 2, 2)]
    for n in range(2, 9):
        net = make_network([F.nakagami(1.0)] * n)
        for lam in range(5):
            got = [shifts for shifts, _ in mellin._shift_terms(net, lam)]
            assert got == sorted(set(got)), (n, lam)  # distinct, lexicographic
            assert len(got) == math.comb(lam + n - 2, n - 2), (n, lam)
            assert all(s[0] == 0 and s[-1] == lam and list(s) == sorted(s) for s in got)
    net1 = make_network([F.nakagami(1.0)])
    assert [shifts for shifts, _ in mellin._shift_terms(net1, 0)] == [(0,)]
    assert list(mellin._shift_terms(net1, 1)) == []


def test_shift_terms_coefficient():
    # the coefficient prod (-rho_j/rho_N)^d_j / d_j!, d_j = lambda_{j+1} - lambda_j,
    # is (-1)^lambda exp(log_weight)
    net = make_network([F.nakagami(1.0)] * 4, rhos=[1.0, 2.0, 3.0, 4.0])
    log_weight = dict(mellin._shift_terms(net, 3))[(0, 1, 1, 3)]
    assert -math.exp(log_weight) == pytest.approx((-0.25) * (0.75**2) / 2.0, rel=1e-14)
    for shifts, log_weight in mellin._shift_terms(net, 3):
        want = math.prod((-hop.rho / 4.0) ** (hi - lo) / math.factorial(hi - lo)
                         for hop, lo, hi in zip(net.hops, shifts, shifts[1:]))
        assert (-1.0) ** shifts[-1] * math.exp(log_weight) == pytest.approx(want, rel=1e-14), shifts


# ---------------------------------------------------------------------------
# product moment
# ---------------------------------------------------------------------------


def product_moment(network, s):
    """G(s): the product of per-hop moments, accumulated in log space (s scalar or array)."""
    return np.exp(sum(channels.log_moment(hop.model, s) for hop in network.hops))


def test_product_moment_values():
    net = rayleigh_chain(2)
    assert product_moment(net, 0.0) == pytest.approx(1.0, abs=1e-12)
    assert product_moment(net, 1.0).real == pytest.approx(1.0, rel=1e-12)
    w = complex(0.3, 1.1)
    assert product_moment(net, w.conjugate()) == pytest.approx(
        product_moment(net, w).conjugate(), rel=1e-12
    )


# ---------------------------------------------------------------------------
# pole enumeration
# ---------------------------------------------------------------------------


def test_enumerate_poles_examples():
    # (location, order, context): the context of -1.8 is its distance to the
    # -2.2 pole, which lies left of the window
    nak3 = REFERENCE_CONFIGS["nak3"]
    assert mellin.enumerate_poles(nak3, (0, 0, 0), -2.0) == [
        (0.0, 1, 1.8),
        (-1.8, 2, 2.2 - 1.8),
    ]
    ric3 = REFERENCE_CONFIGS["ric3"]
    assert mellin.enumerate_poles(ric3, (0, 0, 0), -1.5) == [
        (0.0, 1, 1.0),
        (-1.0, 3, 1.0),
    ]
    ray1 = rayleigh_chain(1)
    assert mellin.enumerate_poles(ray1, (0,), -1.5) == [
        (0.0, 1, 1.0),
        (-1.0, 1, 1.0),
    ]


def test_enumerate_poles_prefactor_zero_cancellation():
    # lambda_N = 2 prefactor (s+1) removes one order at s = -1
    ric3 = REFERENCE_CONFIGS["ric3"]
    poles = mellin.enumerate_poles(ric3, (0, 0, 2), -2.5)
    assert (-1.0, 1, 1.0) in poles  # order 2 from two hops, minus the zero
    # and a term where the single moment pole is fully cancelled
    poles = mellin.enumerate_poles(ric3, (0, 2, 2), -1.5)
    assert all(abs(loc + 1.0) > 1e-9 for loc, _, _ in poles)


def test_enumerate_poles_shift_moves_lattice_left():
    ric3 = REFERENCE_CONFIGS["ric3"]
    assert mellin.enumerate_poles(ric3, (0, 1, 1), -2.0) == [(-1.0, 1, 1.0), (-2.0, 3, 1.0)]


def test_near_coincident_warning():
    net = make_network([F.nakagami(1.8), F.nakagami(1.8 + 1e-5)])
    with pytest.warns(ConditioningWarning):
        mellin.enumerate_poles(net, (0, 0), -3.0)


def test_near_coincident_poles_left_of_the_window_do_not_warn():
    # -1.8 and -1.80001 lie in [re_min - 2, re_min): listed for the contexts only
    net = make_network([F.nakagami(1.8), F.nakagami(1.8 + 1e-5)])
    with warnings.catch_warnings():
        warnings.simplefilter("error", ConditioningWarning)
        assert mellin.enumerate_poles(net, (0, 0), -1.5) == [(0.0, 1, 1.8)]


def _reference_plan(net, shifts, re_min):
    """A term's (location, order, context) list by definition, listing each lattice twice.

    The window is listed per hop at re_min + lambda_j and merged; a pole's
    context is its least distance of at least POLE_MERGE_TOL to the raw
    locations, prefactor pole and zeros included, listed down to re_min - 2.
    """
    def listed(lo):
        out = [(loc - lam, 1) for hop, lam in zip(net.hops, shifts)
               for loc in channels.mellin_poles(hop.model, lo + lam)]
        if shifts[-1] == 0 and lo <= 0.0:
            out.append((0.0, 1))
        return out + [(-float(i), -1) for i in range(1, shifts[-1]) if -i >= lo]

    merged = []
    for loc, delta in sorted(listed(re_min)):
        if merged and abs(loc - merged[-1][0]) < channels.POLE_MERGE_TOL:
            merged[-1][1] += delta
        else:
            merged.append([loc, delta])
    wide = [loc for loc, _ in listed(re_min - 2.0)]
    return [(loc, order, min((abs(loc - o) for o in wide if abs(loc - o) >= channels.POLE_MERGE_TOL),
                             default=math.inf))
            for loc, order in sorted(merged, reverse=True) if order > 0]


NAK8 = make_network([F.nakagami(m) for m in (2.2, 1.8, 1.6, 2.5, 2.1, 2.9, 1.7, 1.3)])


@pytest.mark.parametrize("offset", [0.5, 1.5])
def test_enumerate_poles_matches_the_reference_plan(offset):
    # every shift tuple up to lambda = 3, bit for bit, at the windows that
    # leading_term (s0 - 0.5) and build_expansion (s0 - 1.5) use
    nets = {**NINE_CONFIGS, "nak8": NAK8,
            "chain": make_network([F.nakagami(2.2), F.nakagami(1.8), F.nakagami(1.8)])}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConditioningWarning)
        for name, net in nets.items():
            re_min = mellin.leading_pole(net)[0] - offset
            for lam in range(4):
                for shifts, _ in mellin._shift_terms(net, lam):
                    want = _reference_plan(net, shifts, re_min)
                    assert mellin.enumerate_poles(net, shifts, re_min) == want, (name, shifts)


def test_build_lists_each_hop_lattice_once_per_term(monkeypatch):
    calls = []

    def counted(model, re_min):
        calls.append((model, re_min))
        return channels.mellin_poles(model, re_min)

    monkeypatch.setattr(mellin, "mellin_poles", counted)
    net = REFERENCE_CONFIGS["nak3"]
    re_min = mellin.leading_pole(net)[0] - mellin.DEFAULT_RE_MIN_OFFSET
    mellin.build_expansion(net, 2)
    assert calls == [(hop.model, re_min - 2.0 + lam_j)
                     for lam in range(3)
                     for shifts, _ in mellin._shift_terms(net, lam)
                     for hop, lam_j in zip(net.hops, shifts)]


# ---------------------------------------------------------------------------
# residue extraction
# ---------------------------------------------------------------------------


def test_residue_at_gamma_poles():
    f = special.gamma
    assert mellin.residue_at(f, 0.0, 1, 1.0)[0] == pytest.approx(1.0, abs=1e-12)
    assert mellin.residue_at(f, -1.0, 1, 1.0)[0] == pytest.approx(-1.0, abs=1e-12)
    # (-1)^j / j! law a bit deeper
    assert mellin.residue_at(f, -3.0, 1, 1.0)[0] == pytest.approx(
        -1.0 / 6.0, abs=1e-12
    )


def test_residue_at_double_pole_gamma_squared():
    f = lambda s: special.gamma(s) ** 2
    h0, h1 = mellin.residue_at(f, 0.0, 2, 1.0)
    assert h0 == pytest.approx(1.0, abs=1e-10)
    # the classical residue is H'(0) = -2 euler_gamma
    assert h1 == pytest.approx(-2.0 * EULER_GAMMA, abs=1e-9)


def test_residue_at_drops_spurious_order():
    # 1F1(-1,1;1) = 0 cancels the Rician K=1 gamma pole at s = -2, so the
    # candidate double pole of Rician(1) x Rayleigh there is simple
    net = make_network([F.rician(1.0), F.nakagami(1.0)])
    derivs = mellin.residue_at(lambda s: product_moment(net, s), -2.0, 2, 1.0)
    assert len(derivs) == 1


def test_residue_at_drops_two_orders_in_one_call():
    # H = (s - 0.3)^3 f vanishes to second order at the pole
    f = lambda s: np.exp(2.0 * s) / (s - 0.3)
    derivs = mellin.residue_at(f, 0.3, 3, 1.0)
    assert len(derivs) == 1
    assert derivs[0] == pytest.approx(math.exp(0.6), rel=1e-12)


def test_residue_at_triple_pole_derivatives():
    f = lambda s: np.exp(2.0 * s) / (s - 0.3) ** 3
    derivs = mellin.residue_at(f, 0.3, 3, 1.0)
    np.testing.assert_allclose(derivs, np.array([1.0, 2.0, 4.0]) * math.exp(0.6), rtol=1e-12)


def test_residue_ill_conditioned_contour():
    f = lambda s: np.exp(60.0 / s) / s
    with pytest.raises(IllConditionedContourError):
        mellin.residue_at(f, 0.0, 1, 10.0)


def test_residue_at_arrays_equal_scalar_calls():
    # Gamma(s) Gamma(s+1) (s+2): a simple pole at 0, double poles at -1 and
    # -3, and at -2 a double pole that the factor (s+2) makes simple
    f = lambda s: special.gamma(s) * special.gamma(s + 1.0) * (s + 2.0)
    s0, k, context = [0.0, -1.0, -2.0, -3.0], [1, 2, 2, 2], [1.0, 1.0, 1.0, 1.0]
    got = mellin.residue_at(f, np.array(s0), np.array(k), np.array(context))
    assert got == [mellin.residue_at(f, *pole) for pole in zip(s0, k, context)]
    assert [len(d) for d in got] == [1, 2, 1, 2]
    assert got[0][0] == pytest.approx(2.0, rel=1e-12)
    assert got[2][0] == pytest.approx(-0.5, rel=1e-12)


def test_residue_at_arrays_raise_for_the_first_ill_conditioned_pole():
    # |H| = exp(cos(theta)/r) on a circle of radius r: the ratio e^(2/r)
    # passes at r = 0.5 and fails at r = 0.05 and 0.04
    f = lambda s: np.exp(1.0 / s) / s
    contexts = [1.25, 0.125, 0.1]
    with pytest.raises(IllConditionedContourError) as batch:
        mellin.residue_at(f, np.zeros(3), np.ones(3, dtype=int), np.array(contexts))
    with pytest.raises(IllConditionedContourError) as first:
        mellin.residue_at(f, 0.0, 1, contexts[1])
    with pytest.raises(IllConditionedContourError) as second:
        mellin.residue_at(f, 0.0, 1, contexts[2])
    assert str(batch.value) == str(first.value) != str(second.value)
    assert str(first.value).startswith("|H| spans a ratio of 2.35")


def test_simple_pole_richardson_cross_check():
    # limit (s-p) G(s), Richardson-extrapolated from distances 1e-3 and 1e-4
    # pole gaps of 1.0 keep the extrapolation's own truncation error
    # (~ residue * d1*d2 / gap^2) below the 1e-6 comparison tolerance
    # with each pole's context: the distance to the nearest other pole
    nets = [
        (make_network([F.nakagami(1.5)]), [1.5, 1.0, 1.0]),
        (make_network([F.rician(2.0)]), [1.0] * 4),
        (make_network([F.nakagami(1.2), F.nakagami(2.2)]), [1.2, 2.2 - 1.2, 1.0]),
    ]
    for net, contexts in nets:
        g = lambda s: product_moment(net, s)
        shifts = (0,) * net.n_hops
        poles = mellin.enumerate_poles(net, shifts, -3.0)
        assert [context for _, _, context in poles] == contexts
        for loc, order, context in poles:
            if abs(loc) < 1e-9 or order != 1:
                continue  # origin pole belongs to the prefactor, not G
            d1, d2 = 1e-3, 1e-4
            f1 = (d1 * g(loc + d1)).real
            f2 = (d2 * g(loc + d2)).real
            extrapolated = (d1 * f2 - d2 * f1) / (d1 - d2)
            got = mellin.residue_at(g, loc, order, context)[0]
            assert got == pytest.approx(extrapolated, rel=1e-6)


def test_effective_order_reduction_hypergeometric_zero():
    # 1F1(-1,1;K) vanishes at K=1 and annihilates the gamma pole at s=-2:
    # a candidate double pole (Rician K=1 x Rayleigh) is effectively simple.
    net = make_network([F.rician(1.0), F.nakagami(1.0)])
    exp = mellin.build_expansion(net, 2, -2.5)
    term_m2 = next(t for t in exp.terms if abs(t.exponent + 2.0) < 1e-9)
    assert len(term_m2.log_coeffs) == 1  # no log factor survives
    gamma_bar = 1000.0
    assert mellin.evaluate_expansion(exp, gamma_bar) == pytest.approx(
        montecarlo.oracle_outage(net, gamma_bar), rel=1e-6
    )


# ---------------------------------------------------------------------------
# origin cancellation
# ---------------------------------------------------------------------------


def test_origin_residue_is_one(reference_configs):
    # the numeric residue of the lambda_N = 0 integrand at s = 0
    for name, net in reference_configs.items():
        context = abs(mellin.leading_pole(net)[0])
        [[residue]] = mellin._residues(net, [((0,) * net.n_hops, 0.0, 1, context)])
        assert residue == pytest.approx(1.0, abs=1e-9), name


# ---------------------------------------------------------------------------
# leading term
# ---------------------------------------------------------------------------


def test_leading_term_one_hop_rayleigh():
    term, s0, k = mellin.leading_term(rayleigh_chain(1, gamma_t=1.0))
    assert (s0, k) == (-1.0, 1)
    assert term.exponent == -1.0
    assert term.log_coeffs[0] == pytest.approx(1.0, rel=1e-10)
    # gamma_t scaling: coefficient is gamma_t / theta
    term2, _, _ = mellin.leading_term(rayleigh_chain(1, gamma_t=2.5))
    assert term2.log_coeffs[0] == pytest.approx(2.5, rel=1e-10)


def test_leading_term_nak3():
    term, s0, k = mellin.leading_term(REFERENCE_CONFIGS["nak3"])
    assert (s0, k) == (-1.8, 2)
    assert len(term.log_coeffs) == 2
    assert term.log_coeffs[1] > 0


def test_leading_pole_all_reference_configs(reference_configs):
    want = {
        "nak3": (-1.8, 2),
        "wei4": (-1.8, 3),
        "ric3": (-1.0, 3),
        "ric4": (-1.0, 4),
        "hoyt3": (-1.0, 3),
        "hoyt4": (-1.0, 4),
        "inhom": (-1.0, 2),
    }
    for name, net in reference_configs.items():
        s0, k = mellin.leading_pole(net)
        assert (s0, k) == want[name], name


NINE_CONFIGS = {**REFERENCE_CONFIGS, "ray1": rayleigh_chain(1), "ray2": rayleigh_chain(2)}


def _random_chain(rng) -> NetworkConfig:
    """1-8 hops of all four families; m from a short list, so poles often coincide."""
    models = []
    for family in rng.integers(4, size=int(rng.integers(1, 9))):
        theta = rng.uniform(0.5, 2.0)
        if family < 2:
            m = float(rng.choice([0.5, 0.7, 1.0, 1.3, 1.5, 2.0, 2.5]))
            models.append((F.nakagami, F.weibull)[family](m, theta))
        elif family == 2:
            models.append(F.rician(rng.uniform(0.0, 4.0), theta))
        else:
            models.append(F.hoyt(rng.uniform(0.3, 1.0), theta))
    rhos = [1.0, *rng.uniform(0.5, 2.0, len(models) - 1)]
    return make_network(models, rhos, gamma_t=rng.uniform(0.5, 2.0))


def test_leading_pole_is_the_order_enumerate_poles_gives():
    # the lattice arithmetic of leading_pole against the merged pole list
    rng = np.random.default_rng(20261019)
    nets = list(NINE_CONFIGS.values()) + [_random_chain(rng) for _ in range(200)]
    for net in nets:
        s0, k = mellin.leading_pole(net)
        poles = mellin.enumerate_poles(net, (0,) * net.n_hops, s0 - 1.0)
        rightmost = max(loc for loc, _, _ in poles if abs(loc) >= channels.POLE_MERGE_TOL)
        assert abs(rightmost - s0) < channels.POLE_MERGE_TOL, net
        assert [order for loc, order, _ in poles if abs(loc - s0) < channels.POLE_MERGE_TOL] == [k], net
        # s0's context: the origin, or the nearest lattice point of a hop other than s0 itself
        near = [abs(s0 - r0) if abs(s0 - r0) >= channels.POLE_MERGE_TOL else abs(s0 - (r0 - step))
                for r0, step in (channels.lattice(hop.model) for hop in net.hops)]
        assert [c for loc, _, c in poles if abs(loc - s0) < channels.POLE_MERGE_TOL] == [min(abs(s0), *near)], net


def test_leading_pole_lists_no_poles():
    # [s0 - 1, s0] holds 2,500 poles of a Weibull m = 4e-4 moment, and two
    # lattices 1e-7 apart would warn if they were listed; neither is
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert mellin.leading_pole(make_network([F.nakagami(2.0), F.weibull(4e-4)])) == (-4e-4, 1)
        assert mellin.leading_pole(make_network([F.weibull(0.3), F.nakagami(0.3000001)])) == (-0.3, 1)


def _nakagami_chain(*ms) -> NetworkConfig:
    return make_network([F.nakagami(m) for m in ms])


@pytest.mark.parametrize(
    "net, lambda_max, warns",
    [
        (_nakagami_chain(1.5, 2.5, 3.5), 2, True),
        (_nakagami_chain(1.5, 2.5), 2, True),
        (_nakagami_chain(1.0, 1.0, 3.0), 2, True),  # k = 2: no finite binomial sum
        (_nakagami_chain(2.0, 3.0), 1, True),  # lambda_max < -s0
        (_nakagami_chain(3.5, 2.5, 1.5), 2, False),
        (_nakagami_chain(2.5, 1.5), 2, False),
        (_nakagami_chain(1.0, 3.0, 1.0), 2, False),
        (_nakagami_chain(1.0, 2.0), 2, False),
        (_nakagami_chain(2.0, 3.0), 2, False),
        *[(net, 2, False) for net in NINE_CONFIGS.values()],
    ],
    ids=["n1.5-2.5-3.5", "n1.5-2.5", "n1-1-3", "n2-3-l1", "n3.5-2.5-1.5", "n2.5-1.5", "n1-3-1",
         "n1-2", "n2-3-l2", *NINE_CONFIGS],
)
def test_warns_when_hop_n_is_off_the_leading_pole(net, lambda_max, warns):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        mellin.build_expansion(net, lambda_max)
    hits = [str(w.message) for w in caught if issubclass(w.category, TruncationWarning)]
    assert len(hits) == warns, hits
    if warns:
        assert f"hop {net.n_hops} " in hits[0]


def test_leading_term_warns_when_hop_n_is_off_the_leading_pole():
    # its constant is then the lambda = 0 partial sum, as in build_expansion(net, 0)
    with pytest.warns(TruncationWarning, match=r"hop 3 \(pole -3.5\) .* lambda_max = 0 constant"):
        mellin.leading_term(_nakagami_chain(1.5, 2.5, 3.5))
    with warnings.catch_warnings():
        warnings.simplefilter("error", TruncationWarning)
        for net in NINE_CONFIGS.values():
            mellin.leading_term(net)


def test_leading_term_below_the_coefficient_floor_raises():
    # (gamma_t rho_2)^2 = 1e-320: the lambda = 0 expansion keeps no term
    with pytest.raises(ArithmeticError, match="below the smallest coefficient"):
        mellin.leading_term(make_network([F.nakagami(2.0)] * 2, rhos=[1.0, 1e-160]))


@pytest.mark.parametrize("call, category", [
    (lambda: mellin.leading_term(_nakagami_chain(1.5, 2.5, 3.5)), TruncationWarning),
    (lambda: mellin.build_expansion(_nakagami_chain(1.5, 2.5, 3.5), 2), TruncationWarning),
    (lambda: mellin.build_expansion(REFERENCE_CONFIGS["ric3"], 1, warn_gamma_bar=1e8), TruncationWarning),
    (lambda: mellin.build_expansion(_nakagami_chain(1.8, 1.8 + 1e-4), 0, -2.5), ConditioningWarning),
], ids=["leading_term", "off_pole", "truncation", "conditioning"])
def test_warnings_name_the_calling_file(call, category):
    # each warning points at the caller's line, not at a line inside mellin
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        call()
    hits = [w for w in caught if issubclass(w.category, category)]
    assert hits and {w.filename for w in hits} == {__file__}, [(w.filename, w.lineno) for w in hits]


@pytest.mark.parametrize("ms, lambda_max", [((1.0, 2.0), 1), ((2.0, 3.0), 2)])
def test_off_pole_constant_exact_where_the_binomial_sum_is_finite(ms, lambda_max):
    # Nakagami hop 1 with integer m on a simple pole, theta = rho = gamma_t = 1:
    # C = E[(1 + 1/X2)^m] / m!, with E[X2^-j] = Gamma(m2 - j) / Gamma(m2)
    m, m2 = ms
    want = sum(math.comb(int(m), j) * math.gamma(m2 - j) / math.gamma(m2) for j in range(int(m) + 1))
    want /= math.factorial(int(m))
    top = mellin.build_expansion(_nakagami_chain(*ms), lambda_max).terms[0]
    assert top.exponent == -m
    assert top.log_coeffs == pytest.approx((want,), rel=1e-9)


def test_two_hop_rayleigh_leading_coefficients_vs_oracle_fit():
    # least-squares fit of c1 ln(g) + c0 to p_closed_form * g over 60..80 dB,
    # compared with the accumulated expansion term at exponent -1
    net = rayleigh_chain(2)
    gammas = np.logspace(6, 8, 9)
    y = np.array([two_hop_rayleigh_outage(net, g) * g for g in gammas])
    a = np.vstack([np.log(gammas), np.ones_like(gammas)]).T
    (c1_fit, c0_fit), *_ = np.linalg.lstsq(a, y, rcond=None)
    exp = mellin.build_expansion(net, 2, -3.0)
    term = next(t for t in exp.terms if abs(t.exponent + 1.0) < 1e-9)
    assert term.log_coeffs[1] == pytest.approx(c1_fit, rel=0.02)
    assert term.log_coeffs[0] == pytest.approx(c0_fit, rel=0.02)
    # exact values: c1 = 1, c0 = 2 - 2 euler_gamma
    assert term.log_coeffs[1] == pytest.approx(1.0, rel=1e-9)
    assert term.log_coeffs[0] == pytest.approx(2.0 - 2.0 * EULER_GAMMA, rel=1e-9)


# ---------------------------------------------------------------------------
# building and evaluating expansions
# ---------------------------------------------------------------------------


def test_build_expansion_one_hop_rayleigh_series():
    # 1 - exp(-xi) = xi - xi^2/2 + xi^3/6, xi = gamma_t / gamma_bar
    for gamma_t in (1.0, 2.0):
        exp = mellin.build_expansion(rayleigh_chain(1, gamma_t=gamma_t), 0, -3.5)
        by_exp = {round(t.exponent, 9): t.log_coeffs for t in exp.terms}
        assert by_exp[-1.0][0] == pytest.approx(gamma_t, rel=1e-10)
        assert by_exp[-2.0][0] == pytest.approx(-(gamma_t**2) / 2.0, rel=1e-10)
        assert by_exp[-3.0][0] == pytest.approx(gamma_t**3 / 6.0, rel=1e-10)


def test_build_expansion_two_hop_vs_oracle():
    net = rayleigh_chain(2)
    exp = mellin.build_expansion(net, 2, -3.0)
    oracle = two_hop_rayleigh_outage(net, 1e6)
    assert mellin.evaluate_expansion(exp, 1e6) == pytest.approx(oracle, rel=0.05)


def test_build_expansion_ric3_leading_log_length():
    exp = mellin.build_expansion(REFERENCE_CONFIGS["ric3"], 2, -2.5)
    assert exp.terms[0].exponent == pytest.approx(-1.0, abs=1e-12)
    assert len(exp.terms[0].log_coeffs) == 3  # k = 3 -> up to (ln g)^2


def test_build_expansion_small_hoyt_q_matches_oracle():
    # a small-q hop next to a moderate one: a double pole at s = -1
    net = make_network([F.hoyt(0.5), F.hoyt(0.02)])
    exp = mellin.build_expansion(net, 2)
    assert exp.terms[0].exponent == pytest.approx(-1.0, abs=1e-12)
    assert len(exp.terms[0].log_coeffs) == 2
    for gamma_bar, rel in ((1e5, 1e-4), (1e6, 1e-6)):
        want = montecarlo.oracle_outage(net, gamma_bar)
        assert mellin.evaluate_expansion(exp, gamma_bar) == pytest.approx(want, rel=rel)


@pytest.mark.parametrize("rho", [1e-3, 1e-160, 1e-300])
def test_build_expansion_on_extreme_rho_ratios_matches_oracle(rho):
    # from rho = 1e-160 the term coefficients (rho_1/rho_2)^lambda / lambda!
    # overflow a float and (gamma_t rho_2)^-s0 underflows one, but each
    # residue's weight, their product, is moderate: the lambda = 3 build is
    # as close to the oracle as at rho = 1e-3
    net = make_network([F.nakagami(2.0)] * 2, rhos=[1.0, rho])
    exp = mellin.build_expansion(net, 3)
    for gamma_bar, rel in ((1e4, 1e-8), (1e6, 1e-11)):
        want = montecarlo.oracle_outage(net, gamma_bar)
        assert mellin.evaluate_expansion(exp, gamma_bar) == pytest.approx(want, rel=rel)


def test_build_expansion_at_hoyt_q_floor_raises_typed_error():
    # one and two hops at the floor build; with three, |H| on a residue
    # contour spans more than the conditioning limit, and the build says so
    for n in (1, 2):
        mellin.build_expansion(make_network([F.hoyt(channels.HOYT_Q_MIN)] * n), 2)
    with pytest.raises(IllConditionedContourError):
        mellin.build_expansion(make_network([F.hoyt(channels.HOYT_Q_MIN)] * 3), 2)


def test_build_expansion_bounds_the_series_terms():
    # C(lambda_max + N - 1, N - 1) terms: 11,440 for 8 hops at lambda_max = 9
    with pytest.raises(ValueError, match="11440 series terms"):
        mellin.build_expansion(NAK8, 9)
    # one hop has the lambda = 0 term alone, whatever lambda_max is
    net = rayleigh_chain(1)
    assert mellin.build_expansion(net, 10**12).terms == mellin.build_expansion(net, 0).terms


@pytest.mark.parametrize(
    "ms, lambda_max",
    [
        ((2.2, 1.8, 1.6, 2.5, 2.1, 2.9, 1.7, 1.3), 3),
        # two hops share a model, and pairs of (pole, shift) meet four rings
        # at the same node bytes, such as (-2.8 + r e^it) + 1 and -1.8 + r e^it
        ((2.2, 1.8, 1.8), 4),
    ],
    ids=["nak8", "nak3"],
)
def test_build_expansion_calls_log_moment_once_per_hop_model(monkeypatch, ms, lambda_max):
    # the shift tuples of a chain meet the same shifted per-hop rings; a
    # build evaluates them in one log_moment call per hop model, each ring
    # once, and keeps none of them for the next build
    net = make_network([F.nakagami(m) for m in ms])
    calls = []

    def counted(model, s):
        calls.append((model, s.tobytes(), {row.tobytes() for row in s}, len(s)))
        return channels.log_moment(model, s)

    monkeypatch.setattr(mellin, "log_moment", counted)
    first = mellin.build_expansion(net, lambda_max)
    per_build = len(calls)
    assert len({model for model, *_ in calls}) == per_build <= len(set(ms))
    assert all(len(rows) == n for _, _, rows, n in calls)
    second = mellin.build_expansion(net, lambda_max)
    assert calls[per_build:] == calls[:per_build]
    assert first.terms == second.terms


def test_build_expansion_of_small_hoyt_q_keeps_its_memory_small():
    # each polar-node rule of 10,000 nodes is applied to a few moment
    # arguments at a time, not to every ring of the build at once
    net = make_network([F.hoyt(channels.HOYT_Q_MIN)] * 2)
    tracemalloc.start()
    try:
        mellin.build_expansion(net, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5e6


def test_leading_term_is_top_term_of_lambda_zero_expansion(reference_configs):
    # one residue routine serves both: the leading term is the top term of
    # the lambda = 0 expansion over the window that reaches half a unit left
    for name, net in reference_configs.items():
        term, s0, k = mellin.leading_term(net)
        top = mellin.build_expansion(net, 0, re_min=s0 - 0.5).terms[0]
        assert top.exponent == term.exponent == s0, name
        assert top.log_coeffs == term.log_coeffs, name
        assert len(term.log_coeffs) <= k, name


#: lambda = 2 expansions of the reference configs at the default window,
#: (exponent, log coefficients) by descending exponent, as recorded when
#: build_expansion and leading_term came to share one residue routine.
LAMBDA_2_TERMS = {
    "nak3": [
        (-1.8, (-0.8254975320126651, 1.2893154670553115)),
        (-2.2, (3.1948150315972845,)),
        (-2.8, (-0.03867069126242573, -1.3814094289878351)),
        (-3.2, (-0.8039593649589056,)),
    ],
    "wei4": [
        (-1.8, (41.716498477564556, -17.585559730097273, 8.225724696247973)),
        (-2.2, (-4.7723754885105,)),
        (-2.8, (-68.65367657295857, 5.590668810198842, -13.438483355329542)),
    ],
    "ric3": [
        (-1.0, (2.965477006777908, 0.4010751916003667, 0.0029618352980803186)),
        (-2.0, (-4.486272594228043, -0.8935216388698595)),
    ],
    "ric4": [
        (-1.0, (1.1284379774866289, 1.6479588889940433, 0.1285272578124167, 0.0009872784326934382)),
        (-2.0, (1.4160281326171273, -2.177708159334342, -0.44676081943493035)),
    ],
    "hoyt3": [
        (-1.0, (8.686965844574372, -2.8917590269443325, 1.0850694444444435)),
        (-2.0, (-16.934440646589415, 0.39227824072275985, -1.892794960974337)),
    ],
    "hoyt4": [
        (-1.0, (-101.00482910967878, 44.839752666215816, -7.468879015011754, 0.7685908564814794)),
        (-2.0, (-138.65870010480592, 178.75556695178398, -12.341057779111987, 5.021990371836499)),
    ],
    "inhom": [
        (-1.0, (-0.08534993032030291, 1.6301233304332299)),
        (-2.0, (4.358891709426962, -1.2387587468488697, 0.9196986029286056)),
    ],
}


def test_lambda_2_coefficients_unchanged(reference_configs):
    # every coefficient within 1e-12 of its term's largest recorded one
    for name, net in reference_configs.items():
        terms = mellin.build_expansion(net, 2).terms
        want = LAMBDA_2_TERMS[name]
        assert [t.exponent for t in terms] == [e for e, _ in want], name
        for term, (_, coeffs) in zip(terms, want):
            assert len(term.log_coeffs) == len(coeffs), (name, term.exponent)
            scale = max(abs(c) for c in coeffs)
            for got, c in zip(term.log_coeffs, coeffs):
                assert abs(got - c) <= 1e-12 * scale, (name, term.exponent, got, c)


def test_rightmost_pole_dominance(reference_configs):
    for name, net in reference_configs.items():
        s0, _ = mellin.leading_pole(net)
        for lam in range(0, 3):
            for shifts, _ in mellin._shift_terms(net, lam):
                poles = mellin.enumerate_poles(net, shifts, s0 - 1.5)
                assert poles == _reference_plan(net, shifts, s0 - 1.5), (name, shifts)
                for loc, order, _ in poles:
                    if lam == 0 and abs(loc) < 1e-9:
                        continue
                    assert loc <= s0 + 1e-12, (name, shifts, loc, order)


def test_positivity_on_reference_configs(reference_configs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        for name, net in reference_configs.items():
            exp = mellin.build_expansion(net, 2)
            for db in range(30, 121, 5):
                assert mellin.evaluate_expansion(exp, 10 ** (db / 10)) > 0.0, (name, db)


def test_truncation_monotonicity_at_high_snr(reference_configs):
    gamma_bar = 1e8
    for name, net in reference_configs.items():
        vals = {}
        for lam in (0, 1, 2):
            exp = mellin.build_expansion(net, lam)
            vals[lam] = mellin.evaluate_expansion(exp, gamma_bar)
        assert abs(vals[2] - vals[1]) < abs(vals[1] - vals[0]), name


def test_evaluate_expansion_directly():
    net = rayleigh_chain(1)
    one_term = mellin.AsymptoticExpansion(
        (mellin.AsymptoteTerm(-1.0, (1.0,)),), 0, -1.5, net
    )
    assert mellin.evaluate_expansion(one_term, 100.0) == pytest.approx(0.01, rel=1e-14)
    log_term = mellin.AsymptoticExpansion(
        (mellin.AsymptoteTerm(-1.8, (0.0, 2.0)),), 0, -2.0, net
    )
    want = 2.0 * 10.0 * math.exp(-18.0)
    assert mellin.evaluate_expansion(log_term, math.exp(10.0)) == pytest.approx(want, rel=1e-12)


def test_evaluate_expansion_clamps():
    net = rayleigh_chain(1)
    big = mellin.AsymptoticExpansion((mellin.AsymptoteTerm(-1.0, (1e9,)),), 0, -1.5, net)
    assert mellin.evaluate_expansion(big, 10.0) == 1.0
    neg = mellin.AsymptoticExpansion((mellin.AsymptoteTerm(-1.0, (-5.0,)),), 0, -1.5, net)
    assert mellin.evaluate_expansion(neg, 10.0) == 0.0
    with pytest.raises(ValueError):
        mellin.evaluate_expansion(big, 1.0)


@pytest.mark.parametrize("gamma_bar", [math.nan, math.inf, -math.inf, 0.0, -10.0])
def test_evaluate_expansion_rejects_gamma_bar_not_finite_above_1(gamma_bar):
    with pytest.raises(ValueError, match="gamma_bar"):
        mellin.evaluate_expansion(mellin.build_expansion(REFERENCE_CONFIGS["nak3"], 2), gamma_bar)


def test_truncation_warning_fires_when_orders_disagree():
    # the first Rician correction order shifts the value by ~40% at 1e8, so
    # comparing orders 1 and 0 there must warn; orders 2 and 1 agree closely
    with pytest.warns(TruncationWarning):
        mellin.build_expansion(REFERENCE_CONFIGS["ric3"], 1, warn_gamma_bar=1e8)
    with warnings.catch_warnings():
        warnings.simplefilter("error", TruncationWarning)
        mellin.build_expansion(REFERENCE_CONFIGS["ric3"], 2, warn_gamma_bar=1e8)
        mellin.build_expansion(REFERENCE_CONFIGS["nak3"], 2, warn_gamma_bar=1e8)


def test_truncation_warning_fires_when_sum_is_not_positive():
    # the 8-hop Nakagami chain's lambda = 3 terms sum to about -1.85e-8 at
    # 60 dB, which evaluate_expansion clamps to 0
    nak8 = make_network([F.nakagami(m) for m in (2.2, 1.8, 1.6, 2.5, 2.1, 2.9, 1.7, 1.3)])
    with pytest.warns(TruncationWarning, match="sum to -1.8"):
        exp = mellin.build_expansion(nak8, 3, warn_gamma_bar=1e6)
    assert mellin.evaluate_expansion(exp, 1e6) == 0.0
