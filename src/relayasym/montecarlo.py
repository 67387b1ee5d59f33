"""Ground-truth engines: end-to-end SNR sampling, Monte Carlo outage
estimation with exact binomial confidence intervals, and an exact
quadrature oracle for networks of any length, by a backward recursion on a
log-gain grid whose panel width is halved until the outage on panels of
twice the width agrees with it.

Randomness comes from counter-based Philox streams keyed by (seed, stream
index), so results are reproducible and independent of how work is split
across workers: the estimate for a given (seed, n_samples, block_size) is
bit-identical whether it runs on one thread or eight.  By default the
estimator runs one worker thread per core in the process's CPU affinity
mask (at most one per block), so ``taskset`` sets the count.  Each block
of chains is folded forward hop by hop as its gains are drawn, so a worker
holds three block-sized buffers, which it reuses for all of its blocks.
The oracle runs the row blocks of each Nystrom step on the same number of
threads (at most one per block); each block writes only its own rows, so
its values do not depend on the count either.
"""

from __future__ import annotations

import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import betaincinv

from .channels import cdf, pdf, sample
from .errors import QuadratureConvergenceError
from .mellin import NetworkConfig

DEFAULT_BLOCK_SIZE = 1 << 20

#: Most samples one estimate draws: 10^11 take about 2.5 hours on rician4 at the
#: 1.1e7 samples/s of a 2-core Xeon (rayleigh2: 6e7/s), in 95,368 default blocks.
MAX_SAMPLES = 10**11


def philox(seed: int, stream_index: int = 0) -> np.random.Generator:
    """Counter-based, splittable random source keyed by (seed, stream_index).

    Distinct pairs give statistically independent Philox streams; calling
    again with the same pair replays the exact sequence.  Both key words are
    taken modulo 2**64, so negative seeds are valid.
    """
    key = np.array([seed % 2**64, stream_index % 2**64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class OutageEstimate:
    """Monte Carlo outage estimate with 95% Clopper-Pearson bounds."""

    p_hat: float
    ci_low: float
    ci_high: float
    n_samples: int
    n_outages: int
    seed: int


def clopper_pearson(n_successes: int, n_trials: int):
    """Exact equal-tailed 95% binomial confidence interval, from beta quantiles."""
    k, n = int(n_successes), int(n_trials)
    # 0.025000000000000022, 6 ulps above 0.025; every interval so far used this tail
    tail = (1.0 - 0.95) / 2.0
    low = 0.0 if k == 0 else float(betaincinv(k, n - k + 1, tail))
    high = 1.0 if k == n else float(betaincinv(k + 1, n - k, 1.0 - tail))
    return low, high


def _finite_positive(gamma_bar) -> np.ndarray:
    """gamma_bar as a float array; ValueError unless every element is finite and > 0."""
    gamma_bar = np.asarray(gamma_bar, dtype=float)
    bad = ~((gamma_bar > 0.0) & (gamma_bar < math.inf))
    if np.any(bad):
        raise ValueError(f"gamma_bar must be finite and > 0, got {np.extract(bad, gamma_bar)[0]}")
    return gamma_bar


def _n_cores() -> int:
    """Cores in the process's CPU affinity mask: the default worker count."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _map(fn, items, workers: int) -> list:
    """``[fn(item) for item in items]``, on a pool of ``workers`` threads when more than one."""
    if workers == 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


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
    gen = philox(seed, stream_index)
    first, *later = network.hops
    sample(first.model, gen, size=size, out=prefix)
    with np.errstate(divide="ignore"):
        np.divide(first.rho, prefix, out=inv)
        for hop in later:
            sample(hop.model, gen, size=size, out=x)
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
    gamma_bar must be finite and > 0, and n_samples from 1000 to MAX_SAMPLES.
    """
    _finite_positive(gamma_bar)
    n_samples = int(n_samples)
    if not 1000 <= n_samples <= MAX_SAMPLES:
        raise ValueError(f"n_samples must be from 1000 to {MAX_SAMPLES:.0e}, got {n_samples}")
    blocks = [(stream_base + b, min(block_size, n_samples - lo))
              for b, lo in enumerate(range(0, n_samples, block_size))]
    if n_workers is None:  # every core this process may run on
        n_workers = _n_cores()
    workers = min(max(1, int(n_workers)), len(blocks))
    # Worker w counts blocks w, w + workers, ... in buffers[w].  One allocation
    # for all workers is large enough (two or more at the default block size)
    # that malloc maps it afresh and unmaps it on return, whatever arena each
    # worker thread uses, so the resident peak stays put from call to call.
    buffers = np.empty((workers, 3, min(block_size, n_samples)))

    def count_share(w):
        return sum(_count_block_outages(network, gamma_bar, seed, idx, size, buffers[w])
                   for idx, size in blocks[w::workers])

    n_outages = sum(_map(count_share, range(workers), workers))
    p_hat = n_outages / n_samples
    ci_low, ci_high = clopper_pearson(n_outages, n_samples)
    return OutageEstimate(p_hat, ci_low, ci_high, n_samples, n_outages, seed)


# ---------------------------------------------------------------------------
# Exact quadrature oracle
# ---------------------------------------------------------------------------

#: Log-gain window t = ln x of the oracle's rules, the panel width it starts
#: from (it halves it down to PANEL_WIDTH / 8) and the nodes per panel.
T_LO, T_HI = -45.0, 6.0
PANEL_WIDTH = 1.0
GL_NODES = 16

#: Rows per block of a hop's kernel: ROW_BLOCK * G // columns, so a block
#: holds at most ROW_BLOCK x G points (16 x 816 doubles, 0.1 MB, at the start
#: width and 0.8 MB at the finest), and the pdf temporaries of all workers
#: together stay small where a whole middle-hop kernel would be 5-340 MB;
#: hop N's one-column kernel is one block.  Each block is evaluated only on
#: the columns where X_n <= e^T_HI for its first row, about 0.62 G^2 points
#: a middle hop for r_n = 1; every point left out has X_n > e^T_HI, mass
#: the stated error counts as P(X_n > e^T_HI).
ROW_BLOCK = 16

#: Largest stated error (omitted mass plus panel-doubling difference), relative to the result.
ORACLE_RTOL = 1e-6


#: Gauss-Legendre rules on [-1, 1] by node count, each made on first use.
_legendre = functools.cache(np.polynomial.legendre.leggauss)


def _quad(width: float):
    """Nodes t and weights of the composite Gauss-Legendre rule on panels of
    ``width`` from T_LO, the last of which ends at or before T_HI."""
    x, w = _legendre(GL_NODES)
    half = 0.5 * width
    mid = np.arange(T_LO + half, T_HI, width)[:, None]
    return (mid + half * x).ravel(), np.tile(half * w, mid.size)


def _nystrom_step(model, v: np.ndarray, wg: np.ndarray, t: np.ndarray, x: np.ndarray) -> np.ndarray:
    """g(s_i) = sum_j wg_j y pdf(y), y = v_j x_i, x_i = e^{t_i}, in blocks of rows.

    The blocks run on one thread per core (at most one per block), and each
    writes only its own rows of g, so g does not depend on the thread count.
    """
    neg_log_v = -np.log(v)  # ascending, as v falls with j
    rows = ROW_BLOCK * t.size // v.size
    g = np.empty_like(t)

    def block(lo):
        # ln y = t_i + ln v_j rises with i and falls with j, so the block's
        # first row fixes the first column with ln y <= T_HI
        j0 = np.searchsorted(neg_log_v, t[lo] - T_HI)
        y = np.outer(x[lo:lo + rows], v[j0:])
        g[lo:lo + rows] = (y * pdf(model, y)) @ wg[j0:]

    starts = range(0, t.size, rows)
    _map(block, starts, min(_n_cores(), len(starts)))
    return g


def _threshold_table(network: NetworkConfig, width: float):
    """The gamma_bar-independent stage of the oracle on panels of ``width``: (v, wg, omitted).

    With U_{N+1} = 0 and U_n = (1 + r_n U_{n+1})/X_n, r_n = rho_{n+1}/rho_n,
    the chain is in outage when X_1 <= xi_1 V, V = 1 + r_1 U_2, so the outage
    is sum_j wg_j F_1(xi_1 v_j) over the nodes v_j of V and their weights
    wg_j.  The recursion starts from the unit mass at U_{N+1} = 0, that is
    v = [1.0] with weight [1.0], and runs one Nystrom step per hop
    n = N, ..., 2: the density of s = ln U_n at the reflected nodes
    s_i = -t_i is g_n(s_i) = sum_j wg_j x pdf_n(x), x = v_j e^{t_i}, and the
    next nodes are v = 1 + r_{n-1} e^{s_i} with weights wg = w g_n.  For
    N = 1 no step runs and the table is the unit mass at v = 1.  ``omitted`` is the mass
    the log-gain window leaves out, per hop an outage mass from cdf:
    P(X_n > e^T_HI), which also bounds the kernel points ROW_BLOCK leaves
    out, plus sum_j wg_j F_n(v_j e^T_LO).
    """
    v, wg, omitted = np.ones(1), np.ones(1), 0.0
    hops = network.hops
    t, w = _quad(width)
    x, es = np.exp(t), np.exp(-t)  # e^s at the reflected nodes s = -t
    for n in range(len(hops) - 1, 0, -1):
        model = hops[n].model
        g = _nystrom_step(model, v, wg, t, x)
        # The upper tail is 1 - F only to ~1e-16 absolute, far below any
        # bound it meets while the outage exceeds 1e-10.
        omitted += (1.0 - float(cdf(model, math.exp(T_HI)))
                    + float(wg @ cdf(model, v * math.exp(T_LO))))
        v, wg = 1.0 + (hops[n].rho / hops[n - 1].rho) * es, w * g
    return v, wg, omitted


def oracle_outage(network: NetworkConfig, gamma_bar):
    """Exact outage probability of an N-hop chain on a log-gain grid sized by panel doubling.

    Elementwise on an array of gamma_bar, each finite and > 0 (scalar in,
    scalar out).  Hop 1 integrates out in closed form, so the outage is the
    outage mass E[F1(xi1 V)], with no 1 - survival step: one dot product of
    F1 at the nodes of :func:`_threshold_table` with its weights per
    gamma_bar, the only step that depends on gamma_bar.  The table holds the
    density of ln U_2 at the nodes of composite 16-point Gauss-Legendre
    panels of width h on [-T_HI, -T_LO], the log-gain window [T_LO, T_HI]
    reflected, from one Nystrom step for every hop n >= 2.  The outage P_h is
    made at h = PANEL_WIDTH and at 2h (not for one hop, which has no step);
    while |P_h - P_2h| exceeds ORACLE_RTOL of P_h at any gamma_bar, h is
    halved and P_h becomes the coarse value, down to PANEL_WIDTH / 8.  The
    result is P_h, and its stated error is the mass the window leaves out
    plus |P_h - P_2h|.  QuadratureConvergenceError is raised past the finest
    width, or when the stated error exceeds ORACLE_RTOL of the result.
    """
    gamma_bar = _finite_positive(gamma_bar)
    first = network.hops[0].model
    xi1 = np.ravel(network.xi(gamma_bar)[0])

    def outage(width):
        v, wg, omitted = _threshold_table(network, width)
        # One dot product per gamma_bar, so a sweep gives each point's value bit for bit.
        return np.array([cdf(first, x * v) @ wg for x in xi1]), omitted

    width = PANEL_WIDTH
    value, omitted = outage(width)
    coarse = outage(2.0 * width)[0] if len(network.hops) > 1 else value
    while np.any(np.abs(value - coarse) > ORACLE_RTOL * value):
        if width <= PANEL_WIDTH / 8:
            raise QuadratureConvergenceError(f"panels of width {width:g} still move the outage by up to "
                                             f"{np.max(np.abs(value - coarse) / value):.2e} of itself, "
                                             f"above {ORACLE_RTOL:g}")
        width /= 2.0
        coarse, (value, omitted) = value, outage(width)
    error = omitted + np.abs(value - coarse)
    if np.any(error > ORACLE_RTOL * value):
        raise QuadratureConvergenceError(
            f"log-gain window [{T_LO:g}, {T_HI:g}] leaves out gain mass {omitted:.2e}, which with the "
            f"panel-doubling difference is above {ORACLE_RTOL:g} of the outage {np.min(value):.3e}"
        )
    return value.reshape(gamma_bar.shape)[()]
