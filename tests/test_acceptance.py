"""Acceptance gate: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
print.  Criteria 5b, 5c and 6b encode checks whose stated tolerances are not
reachable for the 3-hop Rician reference configuration (see the printed
diagnostics); they are implemented exactly as stated and fail honestly.
"""

import math
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest
from scipy.special import gammainc

from relayasym import mellin, montecarlo
from relayasym.analysis import finite_diversity
from relayasym.channels import FadingModel
from relayasym.errors import TruncationWarning
from relayasym.mellin import build_expansion, evaluate_expansion, leading_pole

from conftest import REFERENCE_CONFIGS, log_log_diversity, make_network, rayleigh_chain, two_hop_rayleigh_outage

F = FadingModel

warnings.simplefilter("ignore", TruncationWarning)


def _report(criterion: str, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


# ---------------------------------------------------------------------------
# 1. pole-structure anchors
# ---------------------------------------------------------------------------


def test_criterion_1_pole_anchors(reference_configs):
    want = {
        "nak3": (-1.8, 2),
        "wei4": (-1.8, 3),
        "ric3": (-1.0, 3),
        "ric4": (-1.0, 4),
        "hoyt3": (-1.0, 3),
        "hoyt4": (-1.0, 4),
        "inhom": (-1.0, 2),
    }
    t0 = time.perf_counter()
    results = {name: leading_pole(net) for name, net in reference_configs.items()}
    elapsed = time.perf_counter() - t0
    ok = all(
        abs(results[n][0] - want[n][0]) <= 1e-12 and results[n][1] == want[n][1]
        for n in want
    )
    ok = ok and elapsed < 1.0
    assert _report(
        "1 (pole anchors)",
        ok,
        f"all 7 configs (s0,k) exact, {elapsed * 1e3:.0f} ms",
    )


# ---------------------------------------------------------------------------
# 2. one-hop closed forms
# ---------------------------------------------------------------------------


def test_criterion_2_one_hop_closed_forms():
    t0 = time.perf_counter()
    worst = {30.0: 0.0, 50.0: 0.0}
    ray = rayleigh_chain(1)
    nak = make_network([F.nakagami(2.0)])
    exp_ray = build_expansion(ray, 0, -3.5)
    exp_nak = build_expansion(nak, 0, -3.5)
    for db in (30.0, 50.0):
        gamma_bar = 10 ** (db / 10)
        xi = 1.0 / gamma_bar
        exact_ray = -math.expm1(-xi)
        exact_nak = float(gammainc(2.0, xi))
        worst[db] = max(
            abs(evaluate_expansion(exp_ray, gamma_bar) - exact_ray) / exact_ray,
            abs(evaluate_expansion(exp_nak, gamma_bar) - exact_nak) / exact_nak,
        )
    elapsed = time.perf_counter() - t0
    ok = worst[30.0] <= 1e-3 and worst[50.0] <= 1e-5 and elapsed < 1.0
    assert _report(
        "2 (one-hop closed forms)",
        ok,
        f"worst rel err {worst[30.0]:.2e} @30dB, {worst[50.0]:.2e} @50dB, {elapsed:.2f} s",
    )


# ---------------------------------------------------------------------------
# 3. two-hop Rayleigh oracle equivalence
# ---------------------------------------------------------------------------


def test_criterion_3_two_hop_oracle_equivalence():
    t0 = time.perf_counter()
    net = rayleigh_chain(2)
    worst_abs = 0.0
    for db in range(10, 61, 10):
        gamma_bar = 10 ** (db / 10)
        worst_abs = max(
            worst_abs,
            abs(
                montecarlo.oracle_outage(net, gamma_bar)
                - two_hop_rayleigh_outage(net, gamma_bar)
            ),
        )
    exp = build_expansion(net, 2)
    rel = {}
    for db in (40.0, 60.0):
        gamma_bar = 10 ** (db / 10)
        oracle = montecarlo.oracle_outage(net, gamma_bar)
        rel[db] = abs(evaluate_expansion(exp, gamma_bar) - oracle) / oracle
    elapsed = time.perf_counter() - t0
    ok = worst_abs <= 1e-9 and rel[60.0] <= 0.05 and rel[40.0] <= 0.15 and elapsed < 30.0
    assert _report(
        "3 (two-hop oracle equivalence)",
        ok,
        f"oracle vs closed form {worst_abs:.1e} abs; expansion rel "
        f"{rel[40.0]:.2e} @40dB, {rel[60.0]:.2e} @60dB; {elapsed:.1f} s",
    )


# ---------------------------------------------------------------------------
# 4. desk-scale reproduction of the reference configurations
# ---------------------------------------------------------------------------


def test_criterion_4_desk_scale_reproduction(reference_configs):
    t0 = time.perf_counter()
    n_samples = 10**7
    worst_gap = 0.0
    worst_rel_half = 0.0
    lines = []
    for name, net in reference_configs.items():
        exp = build_expansion(net, 2)
        for db in (25.0, 30.0):
            gamma_bar = 10 ** (db / 10)
            p_asym = evaluate_expansion(exp, gamma_bar)
            est = montecarlo.estimate_outage(net, gamma_bar, n_samples, seed=20260808)
            gap = abs(math.log10(p_asym) - math.log10(est.p_hat))
            rel_half = (est.ci_high - est.ci_low) / 2.0 / est.p_hat
            worst_gap = max(worst_gap, gap)
            worst_rel_half = max(worst_rel_half, rel_half)
            lines.append(f"{name}@{db:.0f}dB gap={gap:.3f}")
    elapsed = time.perf_counter() - t0
    ok = worst_gap <= 0.2 and worst_rel_half <= 0.2 and elapsed < 600.0
    assert _report(
        "4 (desk-scale reproduction)",
        ok,
        f"worst |dlog10|={worst_gap:.3f}, worst CI half-width {worst_rel_half:.1%}, "
        f"{elapsed:.0f} s [{'; '.join(lines)}]",
    )


# ---------------------------------------------------------------------------
# 5. diversity-law checks
# ---------------------------------------------------------------------------


def _diversity_gap(net, db_lo, db_hi, p_of_gamma):
    """|d_emp - d(gamma_mid)| with d_emp the origin-anchored log-log slope."""
    mid = math.sqrt(10 ** (db_lo / 10) * 10 ** (db_hi / 10))
    d_emp = log_log_diversity(mid, p_of_gamma(mid))
    s0, k = leading_pole(net)
    return d_emp, finite_diversity(s0, k, mid)


def test_criterion_5a_diversity_law_nakagami_expansion():
    net = REFERENCE_CONFIGS["nak3"]
    exp = build_expansion(net, 2)
    d_emp, d_law = _diversity_gap(net, 60.0, 80.0, lambda g: evaluate_expansion(exp, g))
    gap = abs(d_emp - d_law)
    assert _report(
        "5a (diversity law, 3-hop Nakagami expansion)",
        gap <= 0.02,
        f"d_emp={d_emp:.4f} vs d(mid)={d_law:.4f}, |gap|={gap:.4f} (tol 0.02)",
    )


def test_criterion_5b_diversity_law_rician_expansion():
    net = REFERENCE_CONFIGS["ric3"]
    exp = build_expansion(net, 2)
    d_emp, d_law = _diversity_gap(net, 60.0, 80.0, lambda g: evaluate_expansion(exp, g))
    gap = abs(d_emp - d_law)
    assert _report(
        "5b (diversity law, 3-hop Rician expansion)",
        gap <= 0.02,
        f"d_emp={d_emp:.4f} vs d(mid)={d_law:.4f}, |gap|={gap:.4f} (tol 0.02); "
        "the (ln g)^2 coefficient carries exp(-(K1+K2+K3)) while lower orders are O(1), "
        "so the k=3 lnln correction is not active at 60-80 dB",
    )


def test_criterion_5c_diversity_law_rician_monte_carlo():
    t0 = time.perf_counter()
    net = REFERENCE_CONFIGS["ric3"]
    mid = math.sqrt(10**2.5 * 10**3.5)
    est = montecarlo.estimate_outage(net, mid, 10**7, seed=77)
    d_emp = log_log_diversity(mid, est.p_hat)
    s0, k = leading_pole(net)
    d_law = finite_diversity(s0, k, mid)
    gap = abs(d_emp - d_law)
    elapsed = time.perf_counter() - t0
    assert _report(
        "5c (diversity law, 3-hop Rician Monte Carlo)",
        gap <= 0.15 and elapsed < 600.0,
        f"d_emp={d_emp:.4f} vs d(mid)={d_law:.4f}, |gap|={gap:.4f} (tol 0.15), {elapsed:.0f} s; "
        "same root cause as 5b: log-law damping not yet active at 25-35 dB",
    )


# ---------------------------------------------------------------------------
# 6. logarithmic dampening
# ---------------------------------------------------------------------------


def _dampening_variation(net):
    s0, k = leading_pole(net)
    exp = build_expansion(net, 2)
    ratios = [
        evaluate_expansion(exp, g) * g ** (-s0) / math.log(g) ** (k - 1)
        for g in (1e9, 1e11)
    ]
    return abs(ratios[0] - ratios[1]) / min(ratios), s0, k


def test_criterion_6a_log_dampening_nakagami():
    t0 = time.perf_counter()
    variation, s0, k = _dampening_variation(REFERENCE_CONFIGS["nak3"])
    elapsed = time.perf_counter() - t0
    assert _report(
        "6a (log dampening, 3-hop Nakagami)",
        variation < 0.05 and elapsed < 1.0,
        f"p*g^{-s0:.1f}/(ln g)^{k - 1} varies {variation:.1%} over 1e9..1e11 "
        f"(tol 5%), {elapsed:.2f} s",
    )


def test_criterion_6b_log_dampening_rician():
    t0 = time.perf_counter()
    variation, s0, k = _dampening_variation(REFERENCE_CONFIGS["ric3"])
    elapsed = time.perf_counter() - t0
    assert _report(
        "6b (log dampening, 3-hop Rician)",
        variation < 0.05 and elapsed < 1.0,
        f"p*g^{-s0:.1f}/(ln g)^{k - 1} varies {variation:.1%} over 1e9..1e11 "
        f"(tol 5%), {elapsed:.2f} s; the O(1) lower-order coefficients decay "
        "only like 1/ln g against the exp(-9)-scale (ln g)^2 coefficient",
    )


# ---------------------------------------------------------------------------
# 7. property suites
# ---------------------------------------------------------------------------


def test_criterion_7_property_suites():
    modules = [
        "test_specfun.py",
        "test_channels.py",
        "test_mellin.py",
        "test_montecarlo.py",
        "test_analysis.py",
        "test_cli.py",
    ]
    here = Path(__file__).parent
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", *[str(here / m) for m in modules]],
        capture_output=True,
        text=True,
        cwd=here.parent,
    )
    elapsed = time.perf_counter() - t0
    tail = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "?"
    ok = proc.returncode == 0 and elapsed < 300.0
    assert _report(
        "7 (property suites)", ok, f"{tail}, {elapsed:.0f} s (budget 300 s)"
    ), proc.stdout[-2000:]
