"""Ground-truth engines: end-to-end SNR sampling, Monte Carlo outage
estimation with exact binomial confidence intervals, and nested-quadrature
oracles for small networks.

Randomness comes from counter-based Philox streams keyed by (seed, stream
index), so results are reproducible and independent of how work is split
across workers: the estimate for a given (seed, n_samples, block_size) is
bit-identical whether it runs on one thread or eight.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy import integrate
from scipy.special import betaincinv, chndtr, gammaincc

from .channels import FadingModel, HOYT, NAKAGAMI, RICIAN, WEIBULL, pdf, sample
from .errors import (
    DimensionMismatchError,
    QuadratureConvergenceError,
    UnsupportedNetworkError,
)
from .mellin import NetworkConfig

DEFAULT_BLOCK_SIZE = 1 << 20

_MASK64 = (1 << 64) - 1


@dataclass
class RandomStream:
    """Counter-based, splittable random source.

    Distinct (seed, stream_index) pairs give statistically independent
    Philox streams; rebuilding a stream from the same pair replays the exact
    sequence.  ``position`` counts top-level draws for bookkeeping.
    """

    seed: int
    stream_index: int = 0
    position: int = 0
    _generator: np.random.Generator | None = field(default=None, repr=False, compare=False)

    @property
    def generator(self) -> np.random.Generator:
        if self._generator is None:
            key = np.array([self.seed & _MASK64, self.stream_index & _MASK64], dtype=np.uint64)
            self._generator = np.random.Generator(np.random.Philox(key=key))
        return self._generator

    def _advance(self, n: int) -> None:
        self.position += int(n)


@dataclass(frozen=True)
class OutageEstimate:
    """Monte Carlo outage estimate with 95% Clopper-Pearson bounds."""

    p_hat: float
    ci_low: float
    ci_high: float
    n_samples: int
    n_outages: int
    seed: int


def clopper_pearson(n_successes: int, n_trials: int, confidence: float = 0.95):
    """Exact binomial confidence interval (equal-tailed), from beta quantiles."""
    k, n = int(n_successes), int(n_trials)
    alpha = 1.0 - confidence
    low = 0.0 if k == 0 else float(betaincinv(k, n - k + 1, alpha / 2.0))
    high = 1.0 if k == n else float(betaincinv(k + 1, n - k, 1.0 - alpha / 2.0))
    return low, high


def end_to_end_snr(gains, rhos, gamma_bar: float) -> float:
    """Instantaneous end-to-end SNR of the fixed-gain chain.

    The denominator sum_n rho_n * prod_{j>n} X_j is accumulated through a
    single backward pass of suffix products, so no partial product is ever
    recomputed.
    """
    if len(gains) != len(rhos):
        raise DimensionMismatchError(
            f"{len(gains)} gains vs {len(rhos)} noise factors"
        )
    suffix = 1.0
    denom = 0.0
    for x, rho in zip(reversed(list(gains)), reversed(list(rhos))):
        denom += rho * suffix
        suffix *= x
    return suffix / denom * gamma_bar


def _snr_block(x: np.ndarray, rhos: np.ndarray, gamma_bar: float) -> np.ndarray:
    suffix = np.ones(x.shape[0])
    denom = np.zeros(x.shape[0])
    for j in range(x.shape[1] - 1, -1, -1):
        denom += rhos[j] * suffix
        suffix = suffix * x[:, j]
    return suffix / denom * gamma_bar


def _count_block_outages(network: NetworkConfig, gamma_bar: float,
                         seed: int, stream_index: int, size: int) -> int:
    stream = RandomStream(seed, stream_index)
    x = np.empty((size, network.n_hops))
    for j, hop in enumerate(network.hops):
        x[:, j] = sample(hop.model, stream, size=size)
    rhos = np.array([h.rho for h in network.hops])
    snr = _snr_block(x, rhos, gamma_bar)
    # SNR exactly at threshold counts as outage (documented tie-break).
    return int(np.count_nonzero(snr <= network.gamma_t))


def _worker_cap() -> int | None:
    raw = os.environ.get("RELAY_ASYM_THREADS", "").strip()
    if not raw:
        return None
    return max(1, int(raw))


def estimate_outage(
    network: NetworkConfig,
    gamma_bar: float,
    n_samples: int,
    seed: int,
    block_size: int = DEFAULT_BLOCK_SIZE,
    n_workers: int | None = None,
    stream_base: int = 0,
) -> OutageEstimate:
    """Monte Carlo outage probability with exact 95% binomial CI.

    Samples are partitioned into blocks of ``block_size``; block b draws from
    the Philox substream (seed, stream_base + b).  The result depends only on
    (seed, n_samples, block_size, stream_base), never on the worker count.
    """
    n_samples = int(n_samples)
    if n_samples < 1000:
        raise ValueError(f"n_samples must be at least 1000, got {n_samples}")
    blocks = []
    offset = 0
    index = 0
    while offset < n_samples:
        size = min(block_size, n_samples - offset)
        blocks.append((stream_base + index, size))
        offset += size
        index += 1

    workers = 1 if n_workers is None else max(1, int(n_workers))
    cap = _worker_cap()
    if cap is not None:
        workers = min(workers, cap)

    if workers == 1:
        counts = [
            _count_block_outages(network, gamma_bar, seed, idx, size)
            for idx, size in blocks
        ]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            counts = list(
                pool.map(
                    lambda b: _count_block_outages(network, gamma_bar, seed, b[0], b[1]),
                    blocks,
                )
            )
    n_outages = sum(counts)  # ordered reduction over block index
    p_hat = n_outages / n_samples
    ci_low, ci_high = clopper_pearson(n_outages, n_samples)
    return OutageEstimate(p_hat, ci_low, ci_high, n_samples, n_outages, seed)


# ---------------------------------------------------------------------------
# Exact quadrature oracles
# ---------------------------------------------------------------------------


def _quad(f, a, b, epsabs, epsrel=1e-10):
    kwargs = dict(epsabs=epsabs, epsrel=epsrel, limit=200, full_output=1)
    result = integrate.quad(f, a, b, **kwargs)
    value, abserr = result[0], result[1]
    if len(result) > 3 and abserr > max(epsabs, epsrel * abs(value)) * 50:
        raise QuadratureConvergenceError(
            f"quadrature on ({a:g},{b!r}) reported error {abserr:.2e}: {result[3]}"
        )
    return value


def _survival_tail(model: FadingModel, a: float, epsabs: float) -> float:
    """P(X >= a): closed form where the family has one, else pdf quadrature."""
    if a <= 0.0:
        return 1.0
    # The unified Nakagami/Weibull tail is a regularized upper incomplete
    # gamma; the Rician gain is a scaled noncentral chi-square.  Evaluating
    # those directly saves the innermost quadrature level.
    if model.variant in (NAKAGAMI, WEIBULL):
        m, omega = model.shape, model.omega
        # integral_a^inf omega/(theta^m nu) x^(m-1) exp(-(x/theta)^omega) dx
        # substitute u = (x/theta)^omega: Gamma(m/omega, (a/theta)^omega)/nu'
        u = (a / model.scale) ** omega
        return float(gammaincc(m / omega, u))
    if model.variant == RICIAN:
        k = model.shape
        c = model.scale / (2.0 * (k + 1.0))
        # noncentral chi-square (2 dof, noncentrality 2K) complement; the
        # 1 - CDF subtraction only costs absolute error, which is what the
        # level budget is stated in
        return 1.0 - float(chndtr(a / c, 2.0, 2.0 * k))
    return _hoyt_survival(model, a)


def _hoyt_survival(model: FadingModel, a: float) -> float:
    """Exact Hoyt tail via the polar decomposition of the two-Gaussian form.

    With X = s1 Z1^2 + s2 Z2^2 and (Z1, Z2) standard normal, switching to
    polar coordinates gives P(X > a) = mean over phi of exp(-a/(2 v(phi)))
    with v(phi) = s1 cos^2 + s2 sin^2.  The integrand is smooth and periodic,
    so the uniform trapezoid rule converges spectrally; nodes are doubled
    until the value settles, and QuadratureConvergenceError is raised if it
    has not settled at 16384 nodes.
    """
    q2 = model.shape**2
    s1 = model.scale / (1.0 + q2)
    s2 = model.scale * q2 / (1.0 + q2)
    prev = None
    m = 64
    while m <= 16384:
        phi = np.linspace(0.0, 2.0 * math.pi, m, endpoint=False)
        v = s1 * np.cos(phi) ** 2 + s2 * np.sin(phi) ** 2
        val = float(np.mean(np.exp(-0.5 * a / v)))
        if prev is not None and abs(val - prev) <= max(1e-13, 1e-12 * val):
            return val
        prev = val
        m *= 2
    raise QuadratureConvergenceError(
        f"Hoyt tail (q={model.shape:g}, a={a:g}) did not settle at 16384 trapezoid nodes"
    )


def _chain_survival(network: NetworkConfig, xis, j: int, w: float, epsabs: float) -> float:
    """P(the chain survives hops j..N-1 | current capital w)."""
    model = network.hops[j].model
    a = xis[j] / w
    if j == network.n_hops - 1:
        return _survival_tail(model, a, epsabs)
    next_xi = xis[j + 1]
    scale = model.scale

    def integrand(t: float) -> float:
        if t <= 0.0:
            return 0.0
        density = pdf(model, t + a)
        if density == 0.0:
            return 0.0
        return density * _chain_survival(network, xis, j + 1, w * t, epsabs)

    # The inner survival switches on around w*t ~ next_xi; integrate the
    # boundary layer separately so the adaptive rule cannot step over it.
    t_layer = next_xi / w
    breaks = [t_layer, t_layer + 10.0 * scale]
    total = 0.0
    lo = 0.0
    for b in breaks:
        total += _quad(integrand, lo, b, epsabs / 3)
        lo = b
    total += _quad(integrand, lo, np.inf, epsabs / 3)
    return total


def oracle_outage(network: NetworkConfig, gamma_bar: float, abs_tol: float | None = None) -> float:
    """Exact outage probability by nested adaptive quadrature, N <= 3.

    Implements the survival recursion: the chain survives when each hop's
    gain clears a threshold that depends on the running product of earlier
    hops, translated by the per-hop normalized thresholds.  Each quadrature
    level carries an absolute budget that downstream levels cannot exceed
    because densities integrate to at most one.
    """
    n = network.n_hops
    if n > 3:
        raise UnsupportedNetworkError(f"quadrature oracle supports N <= 3, got N={n}")
    if abs_tol is None:
        abs_tol = 1e-10 if n <= 2 else 1e-8
    xis = network.xi(gamma_bar)
    if n == 1:
        # Integrate the small outage mass directly instead of 1 - survival.
        model = network.hops[0].model
        return _quad(lambda x: pdf(model, x), 0.0, xis[0], abs_tol, epsrel=1e-12)
    return 1.0 - _chain_survival(network, xis, 0, 1.0, abs_tol / (2 * n))


# ---------------------------------------------------------------------------
# Independent closed form for the two-hop Rayleigh chain
# ---------------------------------------------------------------------------


def bessel_k1(z: float) -> float:
    """K1(z) through its integral representation, independent of scipy.

    K1(z) = int_0^inf exp(-z cosh t) cosh t dt.  The integrand decays
    double-exponentially, so a plain trapezoid rule is spectrally accurate.
    """
    if z <= 0.0:
        raise ValueError("K1 integral representation needs z > 0")
    # Truncate where z*cosh(T) is ~ 60 e-foldings below the peak.
    t_max = math.asinh((60.0 + abs(math.log(z))) / z) + 1.0
    n = 2000
    h = t_max / n
    total = 0.5 * math.exp(-z)  # t = 0 endpoint, cosh 0 = 1
    for i in range(1, n + 1):
        t = i * h
        c = math.cosh(t)
        total += math.exp(-z * c) * c
    return total * h


def _as_exponential_mean(model: FadingModel) -> float:
    """Mean of a model that reduces to an exponential gain, else ValueError."""
    reducible = (
        (model.variant in (NAKAGAMI, WEIBULL) and model.shape == 1.0)
        or (model.variant == RICIAN and model.shape == 0.0)
        or (model.variant == HOYT and model.shape == 1.0)
    )
    if not reducible:
        raise ValueError(f"{model.variant}(shape={model.shape}) is not exponential")
    return model.scale


def two_hop_rayleigh_outage(network: NetworkConfig, gamma_bar: float) -> float:
    """Closed-form outage for a two-hop chain of exponential gains.

    p_o = 1 - exp(-xi1/theta1) * z * K1(z) with z = 2 sqrt(xi2/(theta1 theta2)).
    Serves as the independent cross-check of the nested quadrature oracle.
    """
    if network.n_hops != 2:
        raise UnsupportedNetworkError("closed form is for two hops")
    theta1 = _as_exponential_mean(network.hops[0].model)
    theta2 = _as_exponential_mean(network.hops[1].model)
    xi1, xi2 = network.xi(gamma_bar)
    z = 2.0 * math.sqrt(xi2 / (theta1 * theta2))
    return 1.0 - math.exp(-xi1 / theta1) * z * bessel_k1(z)
