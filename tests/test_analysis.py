import itertools
import math
import warnings

import pytest

from relayasym import analysis, mellin, montecarlo
from relayasym.analysis import (
    db_to_linear,
    finite_diversity,
    log_log_diversity,
    sweep_compare,
)
from relayasym.channels import FadingModel
from relayasym.errors import TruncationWarning

from conftest import REFERENCE_CONFIGS, make_network, rayleigh_chain, two_hop_rayleigh_outage

F = FadingModel


# ---------------------------------------------------------------------------
# finite diversity
# ---------------------------------------------------------------------------


def test_finite_diversity_simple_pole_is_exact():
    for g in (1.5, 10.0, 1e6):
        assert finite_diversity(-1.0, 1, g) == 1.0
        assert finite_diversity(-2.2, 1, g) == 2.2


def test_finite_diversity_frozen_value():
    assert finite_diversity(-1.8, 2, 1e4) == pytest.approx(1.5589310799931436, rel=1e-12)


def test_finite_diversity_limits_and_domain():
    # k = 3, s0 = -1: limit is 1 from below (the lnln/ln correction decays slowly)
    assert finite_diversity(-1.0, 3, 1e280) == pytest.approx(1.0, abs=0.025)
    assert finite_diversity(-1.0, 3, 1e100) < finite_diversity(-1.0, 3, 1e280) < 1.0
    with pytest.raises(ValueError):
        finite_diversity(-1.0, 2, 2.0)
    with pytest.raises(ValueError):
        finite_diversity(-1.0, 0, 10.0)


def test_finite_diversity_monotone_above_e_to_e():
    values = [finite_diversity(-1.8, 2, g) for g in (16.0, 100.0, 1e4, 1e8, 1e16)]
    assert values == sorted(values)


# ---------------------------------------------------------------------------
# slopes
# ---------------------------------------------------------------------------


def test_log_log_diversity_matches_formula_nak3():
    net = REFERENCE_CONFIGS["nak3"]
    exp = mellin.build_expansion(net, 2)
    s0, k = mellin.leading_pole(net)
    mid = math.sqrt(1e6 * 1e8)
    d_emp = log_log_diversity(mid, mellin.evaluate_expansion(exp, mid))
    assert abs(d_emp - finite_diversity(s0, k, mid)) <= 0.02
    for gamma_bar, p in ((1.0, 0.5), (mid, 0.0)):
        with pytest.raises(ValueError, match="gamma_bar > 1 and p > 0"):
            log_log_diversity(gamma_bar, p)


def test_mc_and_oracle_slopes_agree():
    # pairwise slopes of MC and oracle within 3 CI-propagated standard errors
    net = rayleigh_chain(2)
    gammas = [10.0, 100.0]
    mc = [montecarlo.estimate_outage(net, g, 10**6, seed=17) for g in gammas]
    oracle = [montecarlo.oracle_outage(net, g) for g in gammas]
    # two-point log-log slopes -dln p/dln gamma_bar
    dlg = math.log(gammas[1]) - math.log(gammas[0])
    slope_mc = -(math.log(mc[1].p_hat) - math.log(mc[0].p_hat)) / dlg
    slope_or = -(math.log(oracle[1]) - math.log(oracle[0])) / dlg
    # ln p standard error from the exact CI half width
    se = (
        sum(((e.ci_high - e.ci_low) / (2 * 1.96 * e.p_hat)) ** 2 for e in mc) ** 0.5
        / dlg
    )
    assert abs(slope_mc - slope_or) <= 3.0 * se


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


def test_sweep_one_hop_rayleigh_asym_only():
    net = rayleigh_chain(1)
    rows = sweep_compare(net, (10.0, 30.0, 5.0), n_samples=None)
    assert [r.gamma_bar_db for r in rows] == [10.0, 15.0, 20.0, 25.0, 30.0]
    exact = 1.0 - math.exp(-(10.0 ** (-3.0)))
    last = rows[-1]
    assert last.gamma_bar_db == 30.0
    assert last.p_asym == pytest.approx(exact, rel=1e-3)
    assert last.p_mc is None and last.p_oracle is None
    assert last.d_finite == 1.0


def test_sweep_rows_decreasing_at_high_snr(reference_configs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        for name, net in reference_configs.items():
            rows = sweep_compare(net, (20.0, 60.0, 5.0), n_samples=None)
            p = [r.p_asym for r in rows]
            assert all(a > b for a, b in zip(p, p[1:])), name


def test_sweep_inhomogeneous_leading_exponent():
    net = REFERENCE_CONFIGS["inhom"]
    s0, k = mellin.leading_pole(net)
    assert (s0, k) == (-1.0, 2)
    exp = mellin.build_expansion(net, 2)
    assert exp.terms[0].exponent == pytest.approx(-1.0, abs=1e-12)


@pytest.mark.filterwarnings("ignore::relayasym.errors.TruncationWarning")
def test_sweep_deterministic_and_mc_columns():
    # the truncation-drift warning fires by design for this low-SNR window
    net = rayleigh_chain(2)
    kw = dict(n_samples=10**4, oracle=True, seed=99)
    rows_a = sweep_compare(net, (10.0, 20.0, 5.0), **kw)
    rows_b = sweep_compare(net, (10.0, 20.0, 5.0), **kw)
    assert rows_a == rows_b
    for row in rows_a:
        assert row.ci_low <= row.p_mc <= row.ci_high
        assert row.p_oracle == pytest.approx(
            two_hop_rayleigh_outage(net, db_to_linear(row.gamma_bar_db)),
            abs=1e-9,
        )
    # different seed changes the Monte Carlo column only
    rows_c = sweep_compare(net, (10.0, 20.0, 5.0), n_samples=10**4, oracle=True, seed=100)
    assert [r.p_asym for r in rows_c] == [r.p_asym for r in rows_a]
    assert any(rc.p_mc != ra.p_mc for rc, ra in zip(rows_c, rows_a))


@pytest.mark.filterwarnings("ignore::relayasym.errors.TruncationWarning")
def test_sweep_oracle_fills_four_hop_rows():
    net = rayleigh_chain(4)
    rows = sweep_compare(net, (10.0, 20.0, 5.0), n_samples=None, oracle=True)
    assert len(rows) == 3
    for row in rows:
        assert row.p_oracle == montecarlo.oracle_outage(net, db_to_linear(row.gamma_bar_db))


def test_reordering_invariance_exponents():
    # with the Weibull m = 2 hop (pole -2) last, hop 3 is off the leading
    # pole s0 = -1 and build_expansion warns; the other four orders do not
    models = [F.weibull(2.0), F.rician(1.0), F.hoyt(0.5)]
    exps = {}
    for order in itertools.permutations(range(3)):
        net = make_network([models[i] for i in order])
        if order[-1] == 0:
            with pytest.warns(TruncationWarning, match=r"hop 3 \(pole -2\) is off the leading pole"):
                exps[order] = mellin.build_expansion(net, 2)
        else:
            with warnings.catch_warnings():
                warnings.simplefilter("error", TruncationWarning)
                exps[order] = mellin.build_expansion(net, 2)
    reference = tuple(sorted(round(t.exponent, 9) for t in exps[(0, 1, 2)].terms))
    for exp in exps.values():
        assert tuple(sorted(round(t.exponent, 9) for t in exp.terms)) == reference
    # but coefficients do depend on the order (coding gain changes)
    exp_a, exp_b = exps[(0, 1, 2)], exps[(2, 1, 0)]
    term_a = next(t for t in exp_a.terms if abs(t.exponent + 1.0) < 1e-9)
    term_b = next(t for t in exp_b.terms if abs(t.exponent + 1.0) < 1e-9)
    assert term_a.log_coeffs != term_b.log_coeffs
