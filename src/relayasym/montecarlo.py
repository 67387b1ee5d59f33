"""Ground-truth engines: end-to-end SNR sampling, Monte Carlo outage
estimation with exact binomial confidence intervals, and a fixed-grid
quadrature oracle for networks of up to three hops.

Randomness comes from counter-based Philox streams keyed by (seed, stream
index), so results are reproducible and independent of how work is split
across workers: the estimate for a given (seed, n_samples, block_size) is
bit-identical whether it runs on one thread or eight.  By default the
estimator runs one worker thread per core in the process's CPU affinity
mask (at most one per block), so ``taskset`` sets the count.  Each block
of chains is folded forward hop by hop as its gains are drawn, so a worker
holds three block-sized buffers, which it reuses for all of its blocks.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.special import betaincinv

from .channels import FadingModel, HOYT, NAKAGAMI, RICIAN, WEIBULL, cdf, pdf, sample
from .errors import QuadratureConvergenceError, UnsupportedNetworkError
from .mellin import NetworkConfig

DEFAULT_BLOCK_SIZE = 1 << 20

_MASK64 = (1 << 64) - 1


@dataclass
class RandomStream:
    """Counter-based, splittable random source.

    Distinct (seed, stream_index) pairs give statistically independent
    Philox streams; rebuilding a stream from the same pair replays the exact
    sequence.
    """

    seed: int
    stream_index: int = 0
    _generator: np.random.Generator | None = field(default=None, repr=False, compare=False)

    @property
    def generator(self) -> np.random.Generator:
        if self._generator is None:
            key = np.array([self.seed & _MASK64, self.stream_index & _MASK64], dtype=np.uint64)
            self._generator = np.random.Generator(np.random.Philox(key=key))
        return self._generator


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


def _count_block_outages(network: NetworkConfig, gamma_bar: float, seed: int,
                         stream_index: int, size: int, buffers: np.ndarray) -> int:
    """Outages among one block of ``size`` chains, drawn from substream (seed, stream_index).

    The end-to-end SNR is gamma_bar / sum_n rho_n / prod_{j<=n} X_j, so the
    chain folds forward hop by hop as each hop's gains are drawn, in three
    block buffers: the running gain product, the running sum and the
    current hop's gains, the rows of ``buffers``, an array of shape
    (3, >= size) that a worker reuses for all of its blocks.
    """
    prefix, inv, x = buffers[:, :size]
    stream = RandomStream(seed, stream_index)
    first, *later = network.hops
    sample(first.model, stream, size=size, out=prefix)
    with np.errstate(divide="ignore"):
        np.divide(first.rho, prefix, out=inv)
        for hop in later:
            sample(hop.model, stream, size=size, out=x)
            prefix *= x
            np.divide(hop.rho, prefix, out=x)
            inv += x
        np.divide(gamma_bar, inv, out=inv)
    # SNR exactly at threshold counts as outage (documented tie-break).
    return int(np.count_nonzero(inv <= network.gamma_t))


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
    blocks = [(stream_base + b, min(block_size, n_samples - lo))
              for b, lo in enumerate(range(0, n_samples, block_size))]
    if n_workers is None:  # every core this process may run on
        n_workers = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(max(1, int(n_workers)), len(blocks))
    # Worker w counts blocks w, w + workers, ... in buffers[w].  One allocation
    # for all workers is large enough (two or more at the default block size)
    # that malloc maps it afresh and unmaps it on return, whatever arena each
    # worker thread uses, so the resident peak stays put from call to call.
    buffers = np.empty((workers, 3, min(block_size, n_samples)))

    def count_share(w):
        return [_count_block_outages(network, gamma_bar, seed, idx, size, buffers[w])
                for idx, size in blocks[w::workers]]

    if workers == 1:
        per_share = [count_share(0)]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            per_share = list(pool.map(count_share, range(workers)))
    counts = [0] * len(blocks)  # back in block order
    for w, share_counts in enumerate(per_share):
        counts[w::workers] = share_counts
    n_outages = sum(counts)  # ordered reduction over block index
    p_hat = n_outages / n_samples
    ci_low, ci_high = clopper_pearson(n_outages, n_samples)
    return OutageEstimate(p_hat, ci_low, ci_high, n_samples, n_outages, seed)


# ---------------------------------------------------------------------------
# Exact quadrature oracle
# ---------------------------------------------------------------------------

#: Log-gain window t = ln x of the oracle's fixed rule, and its panels.
T_LO, T_HI = -45.0, 6.0
PANEL_WIDTH = 0.5
GL_NODES = 16

#: Hop-2 rows per block of the N = 3 grid: 64 x 1632 doubles is 0.8 MB, so
#: the temporaries stay small where the whole 1632^2 grid would be 21 MB.
ROW_BLOCK = 64

#: Largest gain mass the window may leave out, relative to the result.
ORACLE_RTOL = 1e-6


def _quad():
    """Nodes t and weights of the composite Gauss-Legendre rule on [T_LO, T_HI]."""
    x, w = np.polynomial.legendre.leggauss(GL_NODES)
    half = 0.5 * PANEL_WIDTH
    mid = np.arange(T_LO + half, T_HI, PANEL_WIDTH)[:, None]
    return (mid + half * x).ravel(), np.tile(half * w, mid.size)


def oracle_outage(network: NetworkConfig, gamma_bar: float) -> float:
    """Exact outage probability for N <= 3 on a fixed log-gain grid.

    The chain is in outage when X1 <= xi1 + xi2/X2 + xi3/(X2 X3), so hop 1
    integrates out in closed form and the outage is the outage mass
    E[F1(xi1 + xi2/X2 + xi3/(X2 X3))], with no 1 - survival step.  Hops 2
    and 3 are integrated in t = ln x, density x pdf(x), by composite
    16-point Gauss-Legendre panels on [T_LO, T_HI].  The stated error is the
    gain mass that window leaves out, P(X < e^T_LO) + P(X > e^T_HI) summed
    over the integrated hops; QuadratureConvergenceError is raised when it
    exceeds ORACLE_RTOL of the result.
    """
    n = network.n_hops
    if n > 3:
        raise UnsupportedNetworkError(f"quadrature oracle supports N <= 3, got N={n}")
    xis = network.xi(gamma_bar)
    first = network.hops[0].model
    if n == 1:
        return float(cdf(first, xis[0]))
    t, w = _quad()
    x = np.exp(t)
    inv = np.exp(-t)
    later = [hop.model for hop in network.hops[1:]]
    weights = [w * x * pdf(model, x) for model in later]
    u2 = xis[0] + xis[1] * inv
    if n == 2:
        value = float(weights[0] @ cdf(first, u2))
    else:
        value = 0.0
        for lo in range(0, t.size, ROW_BLOCK):
            rows = slice(lo, lo + ROW_BLOCK)
            u = u2[rows, None] + xis[2] * np.outer(inv[rows], inv)
            value += float(weights[0][rows] @ cdf(first, u) @ weights[1])
    # The upper tail is 1 - F only to ~1e-16 absolute, far below any bound
    # it meets while the outage exceeds 1e-10.
    omitted = sum(
        float(cdf(model, math.exp(T_LO))) + (1.0 - float(cdf(model, math.exp(T_HI))))
        for model in later
    )
    if omitted > ORACLE_RTOL * value:
        raise QuadratureConvergenceError(
            f"log-gain window [{T_LO:g}, {T_HI:g}] leaves out gain mass {omitted:.2e}, "
            f"above {ORACLE_RTOL:g} of the outage {value:.3e}"
        )
    return value


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
    Serves as the independent cross-check of the quadrature oracle.
    """
    if network.n_hops != 2:
        raise UnsupportedNetworkError("closed form is for two hops")
    theta1 = _as_exponential_mean(network.hops[0].model)
    theta2 = _as_exponential_mean(network.hops[1].model)
    xi1, xi2 = network.xi(gamma_bar)
    z = 2.0 * math.sqrt(xi2 / (theta1 * theta2))
    return 1.0 - math.exp(-xi1 / theta1) * z * bessel_k1(z)
