import math
import warnings

import numpy as np
import pytest
from scipy import special

from relayasym import channels, mellin, montecarlo
from relayasym.channels import FadingModel, HopConfig, PoleSpec
from relayasym.errors import ConditioningWarning, IllConditionedContourError, TruncationWarning
from relayasym.mellin import NetworkConfig

from conftest import REFERENCE_CONFIGS, make_network, rayleigh_chain

F = FadingModel
EULER_GAMMA = 0.5772156649015329


# ---------------------------------------------------------------------------
# network config and composition bookkeeping
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


def test_weak_compositions():
    assert list(mellin.weak_compositions(1, 1)) == [(1,)]
    got = set(mellin.weak_compositions(2, 3))
    assert got == {(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (1, 0, 1), (0, 1, 1)}
    assert list(mellin.weak_compositions(0, 0)) == [()]
    assert list(mellin.weak_compositions(1, 0)) == []


def test_composition_term_fields():
    net = make_network([F.nakagami(1.0)] * 4, rhos=[1.0, 2.0, 3.0, 4.0])
    term = mellin.composition_term(net, (1, 0, 2))
    assert term.lambda_total == 3
    assert term.lambda_partial == (0, 1, 1, 3)
    # prod (-rho_j/rho_N)^l_j / l_j! = (-1/4) * (-3/4)^2/2
    assert term.coefficient == pytest.approx((-0.25) * (0.75**2) / 2.0, rel=1e-14)
    assert math.copysign(1.0, term.coefficient) == (-1.0) ** term.lambda_total


# ---------------------------------------------------------------------------
# product moment
# ---------------------------------------------------------------------------


def test_product_moment_values():
    net = rayleigh_chain(2)
    assert mellin.product_moment(net, 0.0) == pytest.approx(1.0, abs=1e-12)
    assert mellin.product_moment(net, 1.0).real == pytest.approx(1.0, rel=1e-12)
    w = complex(0.3, 1.1)
    assert mellin.product_moment(net, w.conjugate()) == pytest.approx(
        mellin.product_moment(net, w).conjugate(), rel=1e-12
    )


# ---------------------------------------------------------------------------
# pole enumeration
# ---------------------------------------------------------------------------


def _pole_tuples(poles):
    return [(p.location.real, p.order) for p in poles]


def test_enumerate_poles_examples():
    nak3 = REFERENCE_CONFIGS["nak3"]
    assert _pole_tuples(mellin.enumerate_poles(nak3, (0, 0, 0), 0, -2.0)) == [
        (0.0, 1),
        (-1.8, 2),
    ]
    ric3 = REFERENCE_CONFIGS["ric3"]
    assert _pole_tuples(mellin.enumerate_poles(ric3, (0, 0, 0), 0, -1.5)) == [
        (0.0, 1),
        (-1.0, 3),
    ]
    ray1 = rayleigh_chain(1)
    assert _pole_tuples(mellin.enumerate_poles(ray1, (0,), 0, -1.5)) == [
        (0.0, 1),
        (-1.0, 1),
    ]


def test_enumerate_poles_prefactor_zero_cancellation():
    # lambda_N = 2 prefactor (s+1) removes one order at s = -1
    ric3 = REFERENCE_CONFIGS["ric3"]
    poles = mellin.enumerate_poles(ric3, (0, 0, 2), 2, -2.5)
    tuples = _pole_tuples(poles)
    assert (-1.0, 1) in tuples  # order 2 from two hops, minus the zero
    # and a composition where the single moment pole is fully cancelled
    poles = mellin.enumerate_poles(ric3, (0, 2, 2), 2, -1.5)
    assert all(abs(loc + 1.0) > 1e-9 for loc, _ in _pole_tuples(poles))


def test_enumerate_poles_shift_moves_lattice_left():
    ric3 = REFERENCE_CONFIGS["ric3"]
    poles = mellin.enumerate_poles(ric3, (0, 1, 1), 1, -2.0)
    assert _pole_tuples(poles) == [(-1.0, 1), (-2.0, 3)]


def test_near_coincident_warning():
    net = make_network([F.nakagami(1.8), F.nakagami(1.8 + 1e-5)])
    with pytest.warns(ConditioningWarning):
        mellin.enumerate_poles(net, (0, 0), 0, -3.0)


# ---------------------------------------------------------------------------
# residue extraction
# ---------------------------------------------------------------------------


def test_residue_at_gamma_poles():
    f = special.gamma
    assert mellin.residue_at(f, PoleSpec(0j, 1), 1.0)[0] == pytest.approx(1.0, abs=1e-12)
    assert mellin.residue_at(f, PoleSpec(-1 + 0j, 1), 1.0)[0] == pytest.approx(-1.0, abs=1e-12)
    # (-1)^j / j! law a bit deeper
    assert mellin.residue_at(f, PoleSpec(-3 + 0j, 1), 1.0)[0] == pytest.approx(
        -1.0 / 6.0, abs=1e-12
    )


def test_residue_at_double_pole_gamma_squared():
    f = lambda s: special.gamma(s) ** 2
    h0, h1 = mellin.residue_at(f, PoleSpec(0j, 2), 1.0)
    assert h0 == pytest.approx(1.0, abs=1e-10)
    # the classical residue is H'(0) = -2 euler_gamma
    assert h1 == pytest.approx(-2.0 * EULER_GAMMA, abs=1e-9)


def test_residue_at_drops_spurious_order():
    # 1F1(-1,1;1) = 0 cancels the Rician K=1 gamma pole at s = -2, so the
    # candidate double pole of Rician(1) x Rayleigh there is simple
    net = make_network([F.rician(1.0), F.nakagami(1.0)])
    derivs = mellin.residue_at(lambda s: mellin.product_moment(net, s), PoleSpec(-2 + 0j, 2), 1.0)
    assert len(derivs) == 1


def test_residue_ill_conditioned_contour():
    f = lambda s: np.exp(60.0 / s) / s
    with pytest.raises(IllConditionedContourError):
        mellin.residue_at(f, PoleSpec(0j, 1), 10.0)


def test_simple_pole_richardson_cross_check():
    # limit (s-p) G(s), Richardson-extrapolated from distances 1e-3 and 1e-4
    # pole gaps of 1.0 keep the extrapolation's own truncation error
    # (~ residue * d1*d2 / gap^2) below the 1e-6 comparison tolerance
    nets = [
        make_network([F.nakagami(1.5)]),
        make_network([F.rician(2.0)]),
        make_network([F.nakagami(1.2), F.nakagami(2.2)]),
    ]
    for net in nets:
        g = lambda s: mellin.product_moment(net, s)
        shifts = (0,) * net.n_hops
        poles = mellin.enumerate_poles(net, shifts, 0, -3.0)
        locations = [p.location.real for p in poles]
        for pole in poles:
            loc = pole.location.real
            if abs(loc) < 1e-9 or pole.order != 1:
                continue  # origin pole belongs to the prefactor, not G
            d1, d2 = 1e-3, 1e-4
            f1 = (d1 * g(loc + d1)).real
            f2 = (d2 * g(loc + d2)).real
            extrapolated = (d1 * f2 - d2 * f1) / (d1 - d2)
            context = min(abs(loc - o) for o in locations if abs(loc - o) > 1e-9)
            got = mellin.residue_at(g, pole, context)[0]
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
    for name, net in reference_configs.items():
        assert mellin.origin_residue(net) == pytest.approx(1.0, abs=1e-9), name


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


def test_two_hop_rayleigh_leading_coefficients_vs_oracle_fit():
    # least-squares fit of c1 ln(g) + c0 to p_closed_form * g over 60..80 dB,
    # compared with the accumulated expansion term at exponent -1
    net = rayleigh_chain(2)
    gammas = np.logspace(6, 8, 9)
    y = np.array([montecarlo.two_hop_rayleigh_outage(net, g) * g for g in gammas])
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
    oracle = montecarlo.two_hop_rayleigh_outage(net, 1e6)
    assert mellin.evaluate_expansion(exp, 1e6) == pytest.approx(oracle, rel=0.05)


def test_build_expansion_ric3_leading_log_length():
    exp = mellin.build_expansion(REFERENCE_CONFIGS["ric3"], 2, -2.5)
    assert exp.terms[0].exponent == pytest.approx(-1.0, abs=1e-12)
    assert len(exp.terms[0].log_coeffs) == 3  # k = 3 -> up to (ln g)^2


def test_build_expansion_evaluates_each_ring_once(monkeypatch):
    # the 120 weak compositions of an 8-hop chain at lambda = 3 meet the same
    # shifted per-hop rings; a build evaluates each (model, nodes) ring once
    # and keeps none of them for the next build
    net = make_network([F.nakagami(m) for m in (2.2, 1.8, 1.6, 2.5, 2.1, 2.9, 1.7, 1.3)])
    calls = []

    def counted(model, s):
        calls.append((model, s.tobytes()))
        return channels.log_moment(model, s)

    monkeypatch.setattr(mellin, "log_moment", counted)
    first = mellin.build_expansion(net, 3)
    per_build = len(calls)
    assert len(set(calls)) == per_build
    second = mellin.build_expansion(net, 3)
    assert len(calls) == 2 * per_build
    assert first.terms == second.terms


def test_rightmost_pole_dominance(reference_configs):
    for name, net in reference_configs.items():
        s0, _ = mellin.leading_pole(net)
        n = net.n_hops
        for lam in range(0, 3):
            for ell in mellin.weak_compositions(lam, n - 1):
                term = mellin.composition_term(net, ell)
                poles = mellin.enumerate_poles(net, term.lambda_partial, lam, s0 - 1.5)
                for p in poles:
                    if lam == 0 and abs(p.location.real) < 1e-9:
                        continue
                    assert p.location.real <= s0 + 1e-12, (name, ell, p)


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


def test_slope_consistency_nak3():
    # -ln p / ln g at the geometric midpoint of 60..80 dB tracks the
    # lnln-corrected finite diversity within 0.02
    from relayasym.analysis import finite_diversity, log_log_diversity

    net = REFERENCE_CONFIGS["nak3"]
    exp = mellin.build_expansion(net, 2)
    s0, k = mellin.leading_pole(net)
    mid = math.sqrt(1e6 * 1e8)
    d_emp = log_log_diversity(mid, mellin.evaluate_expansion(exp, mid))
    assert abs(d_emp - finite_diversity(s0, k, mid)) <= 0.02


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
    value, clamped = mellin.evaluate_expansion(big, 10.0, with_flag=True)
    assert value == 1.0 and clamped
    neg = mellin.AsymptoticExpansion((mellin.AsymptoteTerm(-1.0, (-5.0,)),), 0, -1.5, net)
    value, clamped = mellin.evaluate_expansion(neg, 10.0, with_flag=True)
    assert value == 0.0 and clamped
    with pytest.raises(ValueError):
        mellin.evaluate_expansion(big, 1.0)


def test_truncation_warning_fires_when_orders_disagree():
    # the first Rician correction order shifts the value by ~40% at 1e8, so
    # comparing orders 1 and 0 there must warn; orders 2 and 1 agree closely
    with pytest.warns(TruncationWarning):
        mellin.build_expansion(REFERENCE_CONFIGS["ric3"], 1, warn_gamma_bar=1e8)
    with warnings.catch_warnings():
        warnings.simplefilter("error", TruncationWarning)
        mellin.build_expansion(REFERENCE_CONFIGS["ric3"], 2, warn_gamma_bar=1e8)
        mellin.build_expansion(REFERENCE_CONFIGS["nak3"], 2, warn_gamma_bar=1e8)
