import ast
import importlib.util
import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import integrate, stats
from scipy.special import gammainc, k1 as scipy_k1

import relayasym
from relayasym import channels, mellin, montecarlo
from relayasym.channels import FadingModel
from relayasym.cli import parse_config
from relayasym.errors import QuadratureConvergenceError
from relayasym.montecarlo import OutageEstimate, estimate_outage, oracle_outage, philox

from conftest import REFERENCE_CONFIGS, bessel_k1, make_network, rayleigh_chain, two_hop_rayleigh_outage, xi

F = FadingModel
CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
NAK8 = make_network([F.nakagami(m) for m in (2.2, 1.8, 1.6, 2.5, 2.1, 2.9, 1.7, 1.3)])


# ---------------------------------------------------------------------------
# end-to-end SNR
# ---------------------------------------------------------------------------


@pytest.fixture
def end_to_end_snr(monkeypatch):
    """One chain's SNR through the forward fold the estimator uses.

    Each hop's model is a stand-in whose scale is the hop's gain, drawn by a
    stubbed sampler; the fold leaves the SNR in its second buffer.
    """
    monkeypatch.setattr(montecarlo, "sample", lambda model, gen, size, out: out.fill(model.scale))

    def snr(gains, rhos, gamma_bar):
        hops = [channels.HopConfig(F.nakagami(1.0, g), r) for g, r in zip(gains, rhos)]
        buffers = np.empty((3, 1))
        montecarlo._count_block_outages(SimpleNamespace(hops=hops, gamma_t=1.0), gamma_bar, 0, 0, 1, buffers)
        return float(buffers[1, 0])

    return snr


def test_snr_examples(end_to_end_snr):
    assert end_to_end_snr([3.0], [1.0], 10.0) == pytest.approx(30.0)
    assert end_to_end_snr([2.0, 1.0], [1.0, 1.0], 10.0) == pytest.approx(10.0)
    assert end_to_end_snr([1.0, 1.0, 1.0], [1.0, 1.0, 1.0], 30.0) == pytest.approx(10.0)


def test_snr_monotonicity_property(end_to_end_snr):
    rng = np.random.default_rng(42)
    for _ in range(200):
        n = int(rng.integers(1, 5))
        gains = rng.uniform(0.05, 5.0, n)
        rhos = rng.uniform(0.1, 3.0, n)
        gamma_bar = rng.uniform(1.0, 100.0)
        base = end_to_end_snr(gains, rhos, gamma_bar)
        j = int(rng.integers(0, n))
        bumped = gains.copy()
        bumped[j] *= 1.0 + rng.uniform(0.01, 1.0)
        assert end_to_end_snr(bumped, rhos, gamma_bar) >= base - 1e-15
        assert end_to_end_snr(gains, rhos, gamma_bar * 1.5) > base


# ---------------------------------------------------------------------------
# Monte Carlo estimator
# ---------------------------------------------------------------------------


def test_estimate_one_hop_rayleigh_covers_truth():
    net = rayleigh_chain(1)
    est = estimate_outage(net, 10.0, 10**7, seed=2026)
    truth = 1.0 - math.exp(-0.1)
    assert est.ci_low <= truth <= est.ci_high
    assert est.p_hat == pytest.approx(truth, rel=5e-3)
    assert est.p_hat == est.n_outages / est.n_samples


def test_estimate_two_hop_rayleigh_covers_closed_form():
    net = rayleigh_chain(2)
    est = estimate_outage(net, 10.0, 10**7, seed=404)
    truth = two_hop_rayleigh_outage(net, 10.0)
    assert est.ci_low <= truth <= est.ci_high


def test_estimate_determinism_and_worker_invariance():
    net = rayleigh_chain(2)
    # eight blocks, so eight workers each count one
    a = estimate_outage(net, 10.0, 10**6, seed=7, block_size=1 << 17)
    b = estimate_outage(net, 10.0, 10**6, seed=7, block_size=1 << 17)
    c = estimate_outage(net, 10.0, 10**6, seed=7, block_size=1 << 17, n_workers=8)
    assert a == b == c
    assert isinstance(a, OutageEstimate) and a.seed == 7
    d = estimate_outage(net, 10.0, 10**6, seed=8)
    assert d != a


def test_estimate_more_workers_than_cores():
    # 40 small blocks over 8 threads switching every microsecond: each
    # worker writes only its own buffers, so the count matches one worker's
    net = REFERENCE_CONFIGS["inhom"]
    ref = estimate_outage(net, 10.0, 200_000, seed=9, block_size=5000, n_workers=1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        many = estimate_outage(net, 10.0, 200_000, seed=9, block_size=5000, n_workers=8)
    finally:
        sys.setswitchinterval(interval)
    assert many == ref


def test_estimate_one_core_runs_inline(monkeypatch):
    # the default worker count follows the CPU affinity mask: on one core
    # the eight blocks are counted in this thread, with no pool
    net = rayleigh_chain(2)
    ref = estimate_outage(net, 10.0, 10**6, seed=7, block_size=1 << 17, n_workers=1)

    def no_pool(*args, **kwargs):
        raise AssertionError("a one-core estimate started a thread pool")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", no_pool)
    assert estimate_outage(net, 10.0, 10**6, seed=7, block_size=1 << 17) == ref


def test_bench_tracer_contract():
    # the benchmark tracer wraps package functions by name and counts the
    # sampler's draws from its size argument; every name it patches must
    # exist, and the analytic path and the oracle must reach the calls it wraps
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    bench_tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_tracer)
    import relayasym.analysis  # noqa: F401
    import relayasym.cli  # noqa: F401

    tracer = bench_tracer.Tracer()
    try:
        tracer.install(relayasym)
        # every hop is validated once, whichever module defines the network type
        rayleigh_chain(3)
        assert tracer.calls("channels.validate_model") == 3
        # one worker: the tracer's counters take no lock
        estimate_outage(rayleigh_chain(2), 10.0, 5000, seed=3, block_size=2048, n_workers=1)
        mellin.build_expansion(rayleigh_chain(2), 2)
        oracle_outage(rayleigh_chain(3), 100.0)
    finally:
        tracer.uninstall()
    assert tracer.calls("channels.sample") == 6
    assert tracer.draws("channels.sample") == 10_000
    assert tracer.calls("mellin.enumerate_poles") > 0
    assert tracer.calls("channels.log_moment") > 0
    # the oracle looks up pdf and _quad as montecarlo globals; rayleigh3
    # settles at the first pair of rules, widths 2 PANEL_WIDTH and PANEL_WIDTH
    assert tracer.calls("channels.pdf") > 0
    assert tracer.calls("montecarlo.quad") == 2


# Outage counts at gamma_bar = 10 dB, seed 20260418, in blocks of 2^18 with a
# partial last block, frozen from the backward-suffix SNR fold over gains
# drawn by numpy's allocating samplers.
FROZEN_SAMPLES = (1 << 20) + 12345
FROZEN_COUNTS = {
    "nak3": 49221,
    "wei4": 476727,
    "ric3": 353949,
    "hoyt4": 771854,
    "inhom": 443396,
    "mixed": 859234,
}


@pytest.mark.parametrize("n_workers", [1, 2, None])
def test_estimate_counts_frozen(n_workers):
    nets = {name: REFERENCE_CONFIGS[name] for name in FROZEN_COUNTS if name != "mixed"}
    nets["mixed"] = make_network(
        [F.hoyt(0.5), F.weibull(1.5, 2.0), F.rician(2.0, 0.5), F.nakagami(0.8, 1.5)],
        rhos=[1.0, 0.5, 2.0, 1.5], gamma_t=2.0,
    )
    for name, net in nets.items():
        est = estimate_outage(net, 10.0, FROZEN_SAMPLES, seed=20260418, block_size=1 << 18, n_workers=n_workers)
        assert est.n_outages == FROZEN_COUNTS[name], name


@pytest.mark.parametrize("name", ["ric4", "hoyt4"])
def test_block_fold_holds_three_block_arrays(name):
    size = 1 << 18
    tracemalloc.start()
    try:
        montecarlo._count_block_outages(REFERENCE_CONFIGS[name], 10.0, 5, 0, size, np.empty((3, size)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3.5 * size * 8


def test_estimate_requires_min_samples():
    with pytest.raises(ValueError):
        estimate_outage(rayleigh_chain(1), 10.0, 500, seed=1)
    # past MAX_SAMPLES: refused before the block list is built
    with pytest.raises(ValueError, match="n_samples"):
        estimate_outage(rayleigh_chain(1), 10.0, 10**21, seed=1)


@pytest.mark.parametrize("gamma_bar", [math.nan, math.inf, -math.inf, 0.0, -10.0])
def test_estimate_rejects_gamma_bar_not_finite_positive(gamma_bar):
    with pytest.raises(ValueError, match="gamma_bar"):
        estimate_outage(REFERENCE_CONFIGS["nak3"], gamma_bar, 10_000, seed=1)


def test_estimator_calibration():
    # exact 1-hop truth; the 95% CI must cover it in at least 90 of 100 seeds
    net = rayleigh_chain(1)
    truth = 1.0 - math.exp(-0.1)
    covered = sum(
        1
        for seed in range(100)
        if (est := estimate_outage(net, 10.0, 2000, seed=seed)).ci_low
        <= truth
        <= est.ci_high
    )
    assert covered >= 90


def test_clopper_pearson_edges():
    low, high = montecarlo.clopper_pearson(0, 100)
    assert low == 0.0 and 0.0 < high < 0.05
    low, high = montecarlo.clopper_pearson(100, 100)
    assert high == 1.0 and 0.95 < low < 1.0


def test_clopper_pearson_frozen_values():
    # frozen from scipy.stats.beta.ppf, which betaincinv reproduces bit for bit
    want = {
        (5, 1000): (0.0016254195175627604, 0.011629470559812147),
        (1, 2): (0.01257911709342506, 0.9874208829065749),
        (37, 2097152): (1.2422311954286578e-05, 2.4318435629140274e-05),
        (0, 100): (0.0, 0.03621669264517641),
        (100, 100): (0.9637833073548235, 1.0),
    }
    for (k, n), interval in want.items():
        assert montecarlo.clopper_pearson(k, n) == interval, (k, n)


def test_import_leaves_out_scipy_stats():
    src = str(Path(relayasym.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, relayasym; print([m in sys.modules for m in ('scipy.stats', 'scipy.integrate')])"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[False, False]"


#: The package modules each module may import; None allows any.  The model
#: layer, channels, holds the network type under both engines, so montecarlo,
#: which checks mellin, and mellin never import each other.
LAYERS = {
    "errors": set(),
    "specfun": {"errors"},
    "channels": {"specfun", "errors"},
    "mellin": {"channels", "errors"},
    "montecarlo": {"channels", "errors"},
    "analysis": {"channels", "mellin", "montecarlo"},
    "cli": None,
    "__init__": None,
}


def _package_imports(tree) -> set[str]:
    """Names of the relayasym modules a module's source imports, at any depth and under any guard."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("relayasym")):
            module = (node.module or "").removeprefix("relayasym").lstrip(".")
            found.update([module] if module else [a.name for a in node.names])
        elif isinstance(node, ast.Import):
            found.update(a.name.split(".")[1] for a in node.names if a.name.startswith("relayasym."))
    return found


def test_modules_import_only_the_layers_below():
    # no TYPE_CHECKING exemption: an annotation-only import still ties the layers together
    sources = sorted(Path(montecarlo.__file__).parent.glob("*.py"))
    assert sorted(p.stem for p in sources) == sorted(LAYERS)
    for path in sources:
        allowed = LAYERS[path.stem]
        if allowed is not None:
            imported = _package_imports(ast.parse(path.read_text(encoding="utf-8")))
            assert imported <= allowed, (path.stem, sorted(imported - allowed))


# ---------------------------------------------------------------------------
# quadrature oracle
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("gamma_bar", [math.nan, math.inf, -math.inf, 0.0, -10.0])
def test_oracle_rejects_gamma_bar_not_finite_positive(gamma_bar):
    net = REFERENCE_CONFIGS["nak3"]
    with pytest.raises(ValueError, match="gamma_bar"):
        oracle_outage(net, gamma_bar)
    with pytest.raises(ValueError, match="gamma_bar"):
        oracle_outage(net, np.array([10.0, gamma_bar, 100.0]))


def _fitted_table(net, width, gamma_bar_max):
    """(v, wg, lost, windows) at step ``width`` on the windows oracle_outage fits when
    ``gamma_bar_max`` is the largest gamma_bar of its call."""
    windows = montecarlo._threshold_table(net, montecarlo.WINDOW_STEP, xi1_min=xi(net, gamma_bar_max)[0])[-1]
    return montecarlo._threshold_table(net, width, windows)


def test_threshold_table_unit_mass_and_total():
    # N = 1 is the unit mass at v = 1; for N > 1 the weights hold the unit
    # mass of U_2 but what the windows leave out below and above them
    v, wg, lost, windows = montecarlo._threshold_table(rayleigh_chain(1), montecarlo.PANEL_WIDTH)
    assert (v.tolist(), wg.tolist(), lost, windows) == ([1.0], [1.0], {}, {})
    for name, net in REFERENCE_CONFIGS.items():
        v, wg, lost, windows = _fitted_table(net, montecarlo.PANEL_WIDTH, 1e6)
        assert v.shape == wg.shape
        assert sorted(windows) == sorted(lost) == list(range(1, net.n_hops)), name
        omitted = sum(below + above for below, above in lost.values())
        assert abs(wg.sum() - 1.0) <= omitted + 1e-14, name


def test_threshold_table_gives_leading_constant_off_last_hop():
    # hop 1 (m = 1.5) carries the simple leading pole s0 = -1.5: its CDF is
    # x^m / Gamma(m + 1) as x -> 0, so p ~ C gamma_bar^-1.5 with
    # C = E[V^m] / Gamma(m + 1) at gamma_t = 1
    net = make_network([F.nakagami(m) for m in (1.5, 2.5, 3.5)])
    v, wg, _, _ = _fitted_table(net, montecarlo.PANEL_WIDTH, 1e12)
    constant = float(wg @ v**1.5) / math.gamma(2.5)
    assert abs(constant - 2.24302) <= 5e-6
    assert constant == pytest.approx(oracle_outage(net, 1e12) * 1e18, rel=1e-8)


def test_oracle_one_hop_values():
    ray = rayleigh_chain(1)
    assert oracle_outage(ray, 10.0) == pytest.approx(1.0 - math.exp(-0.1), abs=1e-10)
    nak = make_network([F.nakagami(2.0)])
    # regularized lower incomplete gamma survival, independent route
    for db in (10.0, 20.0):
        xi = 10 ** (-db / 10)
        assert oracle_outage(nak, 10 ** (db / 10)) == pytest.approx(
            float(gammainc(2.0, xi)), abs=1e-10
        )


def test_oracle_two_hop_matches_closed_form():
    net = rayleigh_chain(2)
    for db in (10.0, 20.0, 30.0):
        g = 10 ** (db / 10)
        assert abs(oracle_outage(net, g) - two_hop_rayleigh_outage(net, g)) < 1e-9


def test_oracle_three_hop_frozen_values():
    # frozen from an independent high-precision evaluation of the survival
    # recursion (outer quadrature over the exact two-hop tail)
    net = rayleigh_chain(3)
    want = {100.0: 0.1391611606924666, 1000.0: 0.02785806670420677}
    for gamma_bar, value in want.items():
        assert oracle_outage(net, gamma_bar) == pytest.approx(value, abs=1e-8)


def test_oracle_monotone_in_gamma_bar():
    net = make_network([F.rician(1.0), F.hoyt(0.5), F.nakagami(1.5)])
    a = oracle_outage(net, 1e3)
    b = oracle_outage(net, 1e4)
    assert a > b > 0.0


def _adaptive_outage(net, gamma_bar):
    """The oracle's log-gain integrand for N = 3 under scipy's adaptive dblquad."""
    xi1, xi2, xi3 = xi(net, gamma_bar)
    m1, m2, m3 = (hop.model for hop in net.hops)

    def integrand(t3, t2):
        x2, x3 = math.exp(t2), math.exp(t3)
        u = xi1 + xi2 / x2 + xi3 / (x2 * x3)
        return channels.cdf(m1, u) * x2 * channels.pdf(m2, x2) * x3 * channels.pdf(m3, x3)

    value, _ = integrate.dblquad(
        integrand, montecarlo.T_LO, montecarlo.T_HI, montecarlo.T_LO, montecarlo.T_HI,
        epsabs=0.0, epsrel=1e-8,
    )
    return value


@pytest.mark.parametrize("name, db", [("ric3", 50), ("ric3", 60), ("nak3", 60)])
def test_oracle_deep_snr_matches_adaptive_rule(name, db):
    # deep-SNR points, where a 1 - survival form loses the outage to cancellation
    net = REFERENCE_CONFIGS[name]
    gamma_bar = 10.0 ** (db / 10.0)
    assert oracle_outage(net, gamma_bar) == pytest.approx(_adaptive_outage(net, gamma_bar), rel=1e-6)


def test_oracle_value_settled_under_panel_halving(monkeypatch):
    cases = [(REFERENCE_CONFIGS[n], 10.0 ** (db / 10.0)) for n in ("nak3", "inhom", "ric3", "wei4")
             for db in (20, 60)]
    cases.append((make_network([F.rician(3.0), F.hoyt(0.5)]), 1e6))
    coarse = [oracle_outage(net, g) for net, g in cases]
    monkeypatch.setattr(montecarlo, "PANEL_WIDTH", montecarlo.PANEL_WIDTH / 2)
    fine = [oracle_outage(net, g) for net, g in cases]
    np.testing.assert_allclose(coarse, fine, rtol=1e-12, atol=0.0)


def _window_rule(width, window):
    """Nodes of the trapezoid rule of step ``width`` on ``window`` and its weights, halved at both ends."""
    t = montecarlo._quad(width)
    t = t[(t >= window[0]) & (t <= window[1])]
    w = np.full(t.size, width)
    w[[0, -1]] /= 2.0
    return t, w


def _full_kernel_oracle(net, gamma_bar, width, windows):
    """The 3-hop oracle at step ``width`` on ``windows``, its middle-hop kernel evaluated at every point."""
    first, mid, last = net.hops
    t3, w3 = _window_rule(width, windows[2])
    t2, w2 = _window_rule(width, windows[1])
    x3, x2 = np.exp(t3), np.exp(t2)
    wg = w3 * x3 * channels.pdf(last.model, x3)
    shift = 1.0 + (last.rho / mid.rho) * np.exp(-t3)
    g = np.empty_like(t2)
    for lo in range(0, t2.size, 64):
        y = np.outer(x2[lo:lo + 64], shift)
        g[lo:lo + 64] = (y * channels.pdf(mid.model, y)) @ wg
    xi1, xi2 = map(float, xi(net, gamma_bar)[:2])
    return float(channels.cdf(first.model, xi1 + xi2 * np.exp(-t2)) @ (w2 * g))


@pytest.mark.parametrize("rhos", [(1.0, 1.0, 1.0), (1.0, 0.5, 2.0)])
def test_oracle_kernel_evaluates_only_inside_window(monkeypatch, rhos):
    # kernel points with X_n > e^t_hi are left out; P(X_n > e^t_hi) in the
    # stated error already counts their mass, and the value does not move
    net = make_network([hop.model for hop in REFERENCE_CONFIGS["ric3"].hops], rhos=rhos)
    n_kernel = 0

    def counting_pdf(model, x):
        nonlocal n_kernel
        x = np.asarray(x)
        if x.ndim == 2:
            n_kernel += x.size
        return channels.pdf(model, x)

    table, step, widths, windows, sizes = montecarlo._threshold_table, montecarlo._nystrom_step, [], {}, []

    def recording_table(network, width, *args, **kwargs):
        widths.append(width)
        result = table(network, width, *args, **kwargs)
        windows.update(result[-1])  # the call's windows, fitted by its first table
        return result

    def recording_step(model, v, wg, t, x, t_hi):
        sizes.append((t.size, v.size))
        return step(model, v, wg, t, x, t_hi)

    monkeypatch.setattr(montecarlo, "pdf", counting_pdf)
    monkeypatch.setattr(montecarlo, "_threshold_table", recording_table)
    monkeypatch.setattr(montecarlo, "_nystrom_step", recording_step)
    value = oracle_outage(net, 1e4)
    # the middle hop's kernel has a row per node of its window and a column
    # per node of hop N's; the cut is made per block of rows, and the fitted
    # windows already drop most of the points it would, so it leaves out less
    # of their rows x columns than of the whole grid's G x G
    assert 0 < n_kernel <= 0.70 * sum(rows * columns for rows, columns in sizes if columns > 1)
    # the value is that of the finest rule the call built
    assert value == pytest.approx(_full_kernel_oracle(net, 1e4, min(widths), windows), rel=1e-15, abs=0.0)


@pytest.mark.parametrize("name", ["ric3", "hoyt3", "nak8"])
def test_oracle_one_core_runs_inline(monkeypatch, name):
    # the kernel blocks run in the calling thread whatever the affinity mask,
    # so values on four cores are those of one core, byte for byte
    net = NAK8 if name == "nak8" else REFERENCE_CONFIGS[name]
    gammas = 10.0 ** np.arange(2.0, 6.5, 0.5)  # 20-60 dB
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    one_core = oracle_outage(net, gammas)

    def no_pool(*args, **kwargs):
        raise AssertionError("the oracle started a thread pool")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", no_pool)
    assert oracle_outage(net, gammas).tobytes() == one_core.tobytes()


def test_oracle_raises_when_window_leaves_out_mass():
    # about 10% of a Nakagami m = 0.05 gain lies below e^-45
    net = make_network([F.nakagami(2.0), F.nakagami(0.05), F.nakagami(2.0)])
    with pytest.raises(QuadratureConvergenceError):
        oracle_outage(net, 100.0)
    with pytest.raises(QuadratureConvergenceError):
        oracle_outage(make_network([F.nakagami(2.0), F.nakagami(0.05)]), 100.0)


@pytest.mark.parametrize("name", ["wei4", "ric4", "hoyt4"])
def test_oracle_four_hops_inside_mc_interval(name):
    net = REFERENCE_CONFIGS[name]
    est = estimate_outage(net, 100.0, 4 << 20, seed=20)
    assert est.ci_low <= oracle_outage(net, 100.0) <= est.ci_high


def test_oracle_eight_hops_settled_under_panel_halving(monkeypatch):
    # six Nystrom steps converge with the step, out to 60 dB
    gammas = np.array([1e2, 1e4, 1e6])
    coarse = oracle_outage(NAK8, gammas)
    monkeypatch.setattr(montecarlo, "PANEL_WIDTH", montecarlo.PANEL_WIDTH / 2)
    np.testing.assert_allclose(coarse, oracle_outage(NAK8, gammas), rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("name", [p.stem for p in sorted(CONFIG_DIR.glob("*.json"))] + ["nak8"])
def test_oracle_settles_at_the_start_rule(monkeypatch, name):
    # every shipped config and nak8 settles at the first pair of rules out to
    # 60 dB: twice the start width, which fits the windows, then the start
    # width, or the first alone for one hop, which has no step
    net = NAK8 if name == "nak8" else parse_config((CONFIG_DIR / f"{name}.json").read_text())
    quad, widths = montecarlo._quad, []

    def recording_quad(width):
        widths.append(width)
        return quad(width)

    monkeypatch.setattr(montecarlo, "_quad", recording_quad)
    oracle_outage(net, 10.0 ** np.arange(0.0, 6.5, 0.5))  # 0-60 dB
    width = montecarlo.PANEL_WIDTH
    assert widths == ([2 * width, width] if net.n_hops > 1 else [2 * width])


def test_oracle_sharp_hops_settle_at_a_finer_rule():
    # ln X of a Weibull m = 10 gain is about 1/10 wide: the start step 0.15
    # is 1.1e-2 off, step 0.075 2.0e-5 and step 0.0375 7.5e-11, so the oracle
    # halves the step until a rule and its doubled rule agree, at 0.01875
    net = make_network([F.weibull(10.0)] * 3)
    gammas = 10.0 ** np.arange(0.0, 6.5, 0.5)  # 0-60 dB
    value = oracle_outage(net, gammas)
    v, wg, _, _ = _fitted_table(net, montecarlo.PANEL_WIDTH / 16, gammas.max())
    finest = np.array([channels.cdf(net.hops[0].model, xi1 * v) @ wg for xi1 in xi(net, gammas)[0]])
    np.testing.assert_allclose(value, finest, rtol=1e-12, atol=0.0)


def test_oracle_raises_past_the_finest_panel_width():
    # ln X of a Weibull m = 1000 gain is about 1e-3 wide, far below the
    # finest step; hop N's kernel is one column, so each rule is cheap
    net = make_network([F.nakagami(2.0), F.weibull(1000.0)])
    # (x / theta)^1000 is inf above x of about 2, where the density is 0
    with pytest.raises(QuadratureConvergenceError, match="width 0.009375"):
        oracle_outage(net, 100.0)


def test_oracle_heavy_upper_tail_counts_relative_to_the_outage():
    # 1 - F(e^6) of a Weibull m = 0.5 hop is 1.9e-9: as an absolute error it
    # would be above 1e-6 of the 60 dB outage, but the event X_2 > e^t_hi
    # lowers the outage, so it is a relative error of 1.9e-9
    net = make_network([F.nakagami(2.0), F.weibull(0.5)])
    exact = oracle_outage(net, 1e6)
    est = estimate_outage(net, 1e6, 10**6, seed=33)
    assert est.ci_low <= exact <= est.ci_high
    # a Weibull m = 0.4 hop's upper tail, 1.6e-5 of the outage, is not settled
    with pytest.raises(QuadratureConvergenceError, match=r"hop 2's log-gain window \[.*, 6\] .* 1.6\de-05 of the outage"):
        oracle_outage(make_network([F.weibull(2.0), F.weibull(0.4)]), 1e6)


@pytest.mark.parametrize("net, gammas, parent_count, share", [
    (make_network([F.weibull(10.0)] * 3), 10.0 ** np.arange(0.0, 6.5, 0.5), 6_059_078, 1 / 5),
    (parse_config((CONFIG_DIR / "rician3.json").read_text()), 100.0, 92_493, 1 / 2),
], ids=["weibull10x3-0-60dB", "rician3-20dB"])
def test_oracle_kernel_points_within_fitted_windows(monkeypatch, net, gammas, parent_count, share):
    # kernel points one call evaluates, against the count on the whole
    # [T_LO, T_HI] grid for every hop (parent_count): the windows cut the
    # sharp hops' halvings and the points that add nothing at 20 dB
    n_kernel = 0

    def counting_pdf(model, x):
        nonlocal n_kernel
        x = np.asarray(x)
        if x.ndim == 2:
            n_kernel += x.size
        return channels.pdf(model, x)

    monkeypatch.setattr(montecarlo, "pdf", counting_pdf)
    oracle_outage(net, gammas)
    assert 0 < n_kernel <= share * parent_count


def test_quad_rules_nest():
    # each halving of the step adds a node between every two of the coarser
    # rule, and the start rule spans the whole grid in 341 nodes
    t = montecarlo._quad(montecarlo.PANEL_WIDTH)
    assert (t.size, t[-1]) == (341, montecarlo.T_HI)
    widths = [montecarlo.WINDOW_STEP / 2**k for k in range(6)]  # start pair down to the floor
    for width in widths:
        t = montecarlo._quad(width)
        assert t[0] == montecarlo.T_LO and t[-1] <= montecarlo.T_HI, width
    for coarse, fine in zip(widths, widths[1:]):
        assert montecarlo._quad(fine)[::2].tobytes() == montecarlo._quad(coarse).tobytes(), fine
    # a fitted window's ends are nodes of every rule, so its rules nest too;
    # hop N's step sees the unit mass at v = 1, so its weights over
    # width x pdf(x) are the rule's, halved at both ends (a window clamped
    # to T_LO or T_HI included)
    for last in (F.rician(3.0), F.weibull(0.5), F.nakagami(0.3)):
        net = make_network([F.nakagami(2.0), last])
        (t_lo, t_hi), = _fitted_table(net, widths[0], 1e6)[-1].values()
        assert montecarlo.T_LO <= t_lo < t_hi <= montecarlo.T_HI, last
        rules = [_window_rule(width, (t_lo, t_hi)) for width in widths]
        assert rules[0][0].size == round((t_hi - t_lo) / montecarlo.WINDOW_STEP) + 1, last
        for (coarse, _), (fine, _) in zip(rules, rules[1:]):
            assert (fine[0], fine[-1], fine[::2].tobytes()) == (t_lo, t_hi, coarse.tobytes()), last
        for width, (t, _) in zip(widths, rules):
            v, wg, _, _ = _fitted_table(net, width, 1e6)
            np.testing.assert_array_equal(v, 1.0 + np.exp(-t))
            w = wg / (width * np.exp(t) * channels.pdf(last, np.exp(t)))
            np.testing.assert_allclose(w, np.r_[0.5, np.ones(t.size - 2), 0.5], rtol=1e-15, atol=0.0)


def test_oracle_small_q_hoyt_first_hop():
    # a q = 1e-3 first hop needs 10,000 polar nodes per CDF value, and the
    # oracle takes G of them per gamma_bar
    net = make_network([F.hoyt(1e-3), F.nakagami(1.8), F.nakagami(1.8)])
    t0 = time.perf_counter()
    exact = oracle_outage(net, 1e4)
    elapsed = time.perf_counter() - t0
    est = estimate_outage(net, 1e4, 4 << 20, seed=40)
    assert est.ci_low <= exact <= est.ci_high
    assert elapsed < 10.0


def test_oracle_array_gamma_bar_matches_point_calls():
    # the windows follow the call's largest gamma_bar: a call with the same
    # largest gamma_bar gives each value bit for bit, and a one-point call
    # one within 1e-8 (the windows' share of the stated error)
    net = REFERENCE_CONFIGS["inhom"]
    gammas = np.array([10.0, 1e3, 1e6])
    values = oracle_outage(net, gammas)
    assert values.shape == (3,)
    assert list(values) == [oracle_outage(net, [g, gammas.max()])[0] for g in gammas]
    np.testing.assert_allclose([oracle_outage(net, g) for g in gammas], values, rtol=1e-8, atol=0.0)
    assert np.ndim(oracle_outage(net, 10.0)) == 0
    assert list(oracle_outage(rayleigh_chain(1), gammas)) == [oracle_outage(rayleigh_chain(1), g) for g in gammas]


def test_oracle_mc_agreement_two_hop_families():
    # all four single-family 2-hop configs at 10 dB: MC inside its own CI of
    # the oracle value
    configs = {
        "nakagami": make_network([F.nakagami(2.2), F.nakagami(1.8)]),
        "weibull": make_network([F.weibull(2.2), F.weibull(1.8)]),
        "rician": make_network([F.rician(1.0), F.rician(3.0)]),
        "hoyt": make_network([F.hoyt(0.75), F.hoyt(0.5)]),
    }
    for name, net in configs.items():
        exact = oracle_outage(net, 10.0)
        est = estimate_outage(net, 10.0, 10**7, seed=11)
        assert est.ci_low <= exact <= est.ci_high, name
        half_width = (est.ci_high - est.ci_low) / 2.0
        assert abs(est.p_hat - exact) <= half_width, name


def _generated_network(rng):
    """2-4 hops, each family equally likely, with m in [0.6, 3.5], K in [0, 8] and q in [0.2, 1];
    rho_1 = 1 and the other rho log-uniform in [0.3, 3]; gamma_t log-uniform in +-3 dB."""
    ranges = {"nakagami": (0.6, 3.5), "weibull": (0.6, 3.5), "rician": (0.0, 8.0), "hoyt": (0.2, 1.0)}
    n = int(rng.integers(2, 5))
    models = [FadingModel(str(f), float(rng.uniform(*ranges[f]))) for f in rng.choice(list(ranges), size=n)]
    rhos = [1.0] + [float(r) for r in np.exp(rng.uniform(math.log(0.3), math.log(3.0), n - 1))]
    return make_network(models, rhos, gamma_t=float(10.0 ** (rng.uniform(-3.0, 3.0) / 10.0)))


def test_oracle_inside_mc_intervals_on_generated_networks():
    # crude MC at 2e5 samples a point against one oracle call per network at
    # 0, 10 and 20 dB, on eight generated networks and a chain whose m = 200
    # hop has Gamma(m) past the float range; a correct oracle falls outside
    # the 95% intervals at no more points than the 0.999 quantile of
    # Binomial(points, 0.05)
    rng = np.random.default_rng(2026)
    nets = [_generated_network(rng) for _ in range(8)] + [make_network([F.nakagami(2.0), F.nakagami(200.0)])]
    gamma_bar = np.array([1.0, 10.0, 100.0])
    misses = 0
    for index, net in enumerate(nets):
        for g, exact in zip(gamma_bar, oracle_outage(net, gamma_bar)):
            est = estimate_outage(net, g, 2 * 10**5, seed=1000 + index)
            misses += not est.ci_low <= exact <= est.ci_high
    assert misses <= stats.binom.ppf(0.999, gamma_bar.size * len(nets), 0.05)


# ---------------------------------------------------------------------------
# independent Bessel route
# ---------------------------------------------------------------------------


def test_bessel_k1_against_scipy():
    for z in (0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0):
        assert bessel_k1(z) == pytest.approx(float(scipy_k1(z)), rel=1e-10)


def test_two_hop_closed_form_frozen_value():
    net = rayleigh_chain(2)
    assert two_hop_rayleigh_outage(net, 10.0) == pytest.approx(
        0.30638162060187557, abs=1e-12
    )


def test_two_hop_closed_form_accepts_reducible_families():
    x = two_hop_rayleigh_outage(
        make_network([F.rician(0.0), F.hoyt(1.0)]), 10.0
    )
    assert x == pytest.approx(0.30638162060187557, abs=1e-12)
    with pytest.raises(ValueError):
        two_hop_rayleigh_outage(make_network([F.rician(1.0), F.nakagami(1.0)]), 10.0)


# ---------------------------------------------------------------------------
# random streams
# ---------------------------------------------------------------------------


def test_random_stream_replay_and_independence():
    a = philox(seed=5, stream_index=3)
    b = philox(seed=5, stream_index=3)
    np.testing.assert_array_equal(
        a.random(16), b.random(16)
    )
    c = philox(seed=5, stream_index=4)
    assert not np.array_equal(
        philox(seed=5, stream_index=3).random(16),
        c.random(16),
    )
