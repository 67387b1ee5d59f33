"""Ground-truth engines: end-to-end SNR sampling, Monte Carlo outage
estimation with exact binomial confidence intervals, and an exact
quadrature oracle for networks of any length, by a backward recursion over
a log-gain window fitted to each hop's law, on trapezoid rules whose step is
halved until the outage at twice the step agrees with it.

Randomness comes from counter-based Philox streams keyed by (seed, stream
index), so results are reproducible and independent of how work is split
across workers: the estimate for a given (seed, n_samples, block_size) is
bit-identical whether it runs on one thread or eight.  By default the
estimator runs one worker thread per core in the process's CPU affinity
mask (at most one per block), so ``taskset`` sets the count.  Each block
of chains is folded forward hop by hop as its gains are drawn, so a worker
holds three block-sized buffers, which it reuses for all of its blocks.
The oracle runs on the calling thread.

Both engines check the analytic one (``mellin``), so this module imports
only ``channels``, which defines the network, and ``errors``.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import betaincinv

from .channels import NetworkConfig, cdf, log_cdf_bound, pdf, sample
from .errors import QuadratureConvergenceError

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
    if n_workers is None:  # every core in this process's CPU affinity mask
        n_workers = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(max(1, int(n_workers)), len(blocks))
    # Worker w counts blocks w, w + workers, ... in buffers[w].  One allocation
    # for all workers is large enough (two or more at the default block size)
    # that malloc maps it afresh and unmaps it on return, whatever arena each
    # worker thread uses, so the resident peak stays put from call to call.
    buffers = np.empty((workers, 3, min(block_size, n_samples)))

    def count_share(w):
        return sum(_count_block_outages(network, gamma_bar, seed, idx, size, buffers[w])
                   for idx, size in blocks[w::workers])

    if workers == 1:
        n_outages = count_share(0)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            n_outages = sum(pool.map(count_share, range(workers)))
    p_hat = n_outages / n_samples
    ci_low, ci_high = clopper_pearson(n_outages, n_samples)
    return OutageEstimate(p_hat, ci_low, ci_high, n_samples, n_outages, seed)


# ---------------------------------------------------------------------------
# Exact quadrature oracle
# ---------------------------------------------------------------------------

#: Log-gain bounds t = ln x of every stage's window, the trapezoid step the
#: oracle starts from (it halves it down to PANEL_WIDTH / 16), and the step of
#: the grid each call fits its windows on: the start pair's coarse step, fixed
#: here so that halving PANEL_WIDTH leaves the windows where they are.
T_LO, T_HI = -45.0, 6.0
PANEL_WIDTH = 0.15
WINDOW_STEP = 2.0 * PANEL_WIDTH

#: Above its window a stage leaves out at most UPPER_TAIL of the outage, and
#: below it at most LOWER_TAIL of F_1(xi_min), which is below the outage at
#: every gamma_bar of the call.
UPPER_TAIL, LOWER_TAIL = 1e-12, 1e-9

#: Rows per block of a hop's kernel: ROW_BLOCK * G // columns, so a block
#: holds at most ROW_BLOCK x G points (16 x 341 doubles, 44 kB, for a full
#: window at the start step and 0.7 MB at the finest), and the pdf
#: temporaries stay small where a whole middle-hop kernel would be 0.9-237 MB;
#: hop N's one-column kernel is one block.  Each block is evaluated only on
#: the columns where X_n <= e^t_hi for its first row: 0.60-0.74 of a middle
#: hop's rows times columns on the shipped configs at 20-60 dB, the more the
#: narrower its windows; every point left out has X_n > e^t_hi, mass the
#: stated error counts with the window's upper tail.
ROW_BLOCK = 16

#: Largest stated error (omitted mass plus step-doubling difference), relative to the result.
ORACLE_RTOL = 1e-6


def _quad(width: float) -> np.ndarray:
    """Nodes t_k = T_LO + k ``width`` <= T_HI of the trapezoid rules of step ``width``.

    A stage's rule takes the nodes of its window [t_lo, t_hi], whose ends are
    nodes of the grid at WINDOW_STEP and so of every rule down to
    PANEL_WIDTH / 16, with weights ``width``, halved at both ends: geometric
    in ``width`` on integrands analytic in a strip (Trefethen & Weideman,
    SIAM Rev. 56, 2014).  The rule at 2 ``width`` takes every other node.
    """
    t = T_LO + width * np.arange((T_HI - T_LO) // width + 2)
    return t[t <= T_HI]


def _fit_window(model, v: np.ndarray, wg: np.ndarray, t: np.ndarray, floor: float) -> tuple[float, float]:
    """A hop's window (t_lo, t_hi), two nodes of ``t``, over its stage table (v, wg).

    t_hi is the node after the first with 1 - F(e^t) <= UPPER_TAIL, from one
    cdf call over ``t`` (the last node if there is none), so that the
    trapezoid's term at the halved edge, h^2/12 of the integrand's slope
    there, is far below UPPER_TAIL too.  Below t_lo the mass the hop's step
    would leave out, sum_j wg_j F(v_j e^t), must be at most ``floor``: t_lo
    is the last node before t_hi where the bound min(1, c x^a e^{bx}) of
    :func:`channels.log_cdf_bound` in place of F says so, found by bisection
    on the bound alone (the first node if none does).
    """
    above = np.flatnonzero(1.0 - cdf(model, np.exp(t)) <= UPPER_TAIL)
    hi = min(int(above[0]) + 1, t.size - 1) if above.size else t.size - 1
    log_c, a, b = log_cdf_bound(model)
    log_v = np.log(v)
    lo, top = 0, hi
    while top - lo > 1:
        mid = (lo + top) // 2
        bound = wg @ np.exp(np.minimum(log_c + a * (t[mid] + log_v) + b * v * math.exp(t[mid]), 0.0))
        lo, top = (mid, top) if bound <= floor else (lo, mid)
    return float(t[lo]), float(t[hi])


def _nystrom_step(model, v: np.ndarray, wg: np.ndarray, t: np.ndarray, x: np.ndarray, t_hi: float) -> np.ndarray:
    """g(s_i) = sum_j wg_j y pdf(y), y = v_j x_i, x_i = e^{t_i}, in blocks of rows, for y <= e^t_hi."""
    neg_log_v = -np.log(v)  # ascending, as v falls with j
    rows = ROW_BLOCK * t.size // v.size
    g = np.empty_like(t)
    for lo in range(0, t.size, rows):
        # ln y = t_i + ln v_j rises with i and falls with j, so the block's
        # first row fixes the first column with ln y <= t_hi
        j0 = np.searchsorted(neg_log_v, t[lo] - t_hi)
        y = np.outer(x[lo:lo + rows], v[j0:])
        g[lo:lo + rows] = (y * pdf(model, y)) @ wg[j0:]
    return g


def _threshold_table(network: NetworkConfig, width: float, windows: dict | None = None, xi1_min: float = 0.0):
    """The gamma_bar-independent stage of the oracle at trapezoid step ``width``: (v, wg, lost, windows).

    With U_{N+1} = 0 and U_n = (1 + r_n U_{n+1})/X_n, r_n = rho_{n+1}/rho_n,
    the chain is in outage when X_1 <= xi_1 V, V = 1 + r_1 U_2, so the outage
    is sum_j wg_j F_1(xi_1 v_j) over the nodes v_j of V and their weights
    wg_j.  The recursion starts from the unit mass at U_{N+1} = 0, that is
    v = [1.0] with weight [1.0], and runs one Nystrom step per hop
    n = N, ..., 2 over its window [t_lo, t_hi] = ``windows[n - 1]``: the
    density of s = ln U_n at the reflected nodes s_i = -t_i of the window's
    rule (see :func:`_quad`) is g_n(s_i) = sum_j wg_j x pdf_n(x),
    x = v_j e^{t_i}, and the next nodes are v = 1 + r_{n-1} e^{s_i} with
    weights wg = w_i g_n, w_i the rule's weights.  Without ``windows`` each
    hop's window is fitted by :func:`_fit_window` on its own stage table, to
    leave out at most LOWER_TAIL of F_1(``xi1_min``) below it, and the
    windows used are returned.  For N = 1 no step runs and the table is the
    unit mass at v = 1.  ``lost`` maps n - 1 to what hop n's window leaves
    out: the outage mass sum_j wg_j F_n(v_j e^t_lo) below it, and
    P(X_n > e^t_hi) above it, which also bounds the kernel points ROW_BLOCK
    leaves out.  The outage falls with X_n and the event X_n > V_n e^t_hi
    rises with it, so by Harris' inequality the second is a bound relative
    to the outage.
    """
    v, wg, lost = np.ones(1), np.ones(1), {}
    hops = network.hops
    t = _quad(width)
    x, es = np.exp(t), np.exp(-t)  # e^s at the reflected nodes s = -t
    fit = windows is None
    if fit:
        windows, floor = {}, LOWER_TAIL * float(cdf(hops[0].model, xi1_min))
    for n in range(len(hops) - 1, 0, -1):
        model = hops[n].model
        if fit:
            windows[n] = _fit_window(model, v, wg, t, floor)
        t_lo, t_hi = windows[n]
        i, k = np.searchsorted(t, windows[n])  # both ends are nodes of t
        g = _nystrom_step(model, v, wg, t[i:k + 1], x[i:k + 1], t_hi)
        g[[0, -1]] *= 0.5
        lost[n] = (float(wg @ cdf(model, v * math.exp(t_lo))), 1.0 - float(cdf(model, math.exp(t_hi))))
        v, wg = 1.0 + (hops[n].rho / hops[n - 1].rho) * es[i:k + 1], width * g
    return v, wg, lost, windows


def oracle_outage(network: NetworkConfig, gamma_bar):
    """Exact outage probability of an N-hop chain on log-gain windows fitted to each hop, by step doubling.

    Elementwise on an array of gamma_bar, each finite and > 0 (scalar in,
    scalar out).  Hop 1 integrates out in closed form, so the outage is the
    outage mass E[F1(xi1 V)], with no 1 - survival step: one dot product of
    F1 at the nodes of :func:`_threshold_table` with its weights per
    gamma_bar, the only step that depends on gamma_bar.  The table holds the
    density of ln U_2 from one Nystrom step for every hop n >= 2, each over
    its own log-gain window.  The call fits the windows once, on its table
    at step WINDOW_STEP, against F1 at its smallest xi1, so two calls give
    the same value at a gamma_bar when their largest gamma_bar is the same.
    The outage P_h is then made at h = WINDOW_STEP / 2 (or, if PANEL_WIDTH
    is smaller, halved down to it), with P_2h the coarse value; while
    |P_h - P_2h| exceeds ORACLE_RTOL of P_h at any gamma_bar, h is halved
    and P_h becomes the coarse value, down to PANEL_WIDTH / 16.  One hop has
    no step, so its table at WINDOW_STEP gives the result.  The result is
    P_h, and its stated error is the mass the windows leave out below them,
    plus the share of P_h they leave out above them, plus |P_h - P_2h|.
    QuadratureConvergenceError is raised past the finest width, or when the
    stated error exceeds ORACLE_RTOL of the result.
    """
    gamma_bar = _finite_positive(gamma_bar)
    first = network.hops[0].model
    xi1 = np.ravel(network.hops[0].rho * network.gamma_t / gamma_bar)

    def outage(v, wg):
        # One dot product per gamma_bar: a gamma_bar's value depends on the call only through the windows.
        return np.array([cdf(first, x * v) @ wg for x in xi1])

    width = WINDOW_STEP
    v, wg, lost, windows = _threshold_table(network, width, xi1_min=float(np.min(xi1)))
    value = coarse = outage(v, wg)
    # down to PANEL_WIDTH at least, then while a rule and its doubled rule disagree
    while len(network.hops) > 1 and (width > PANEL_WIDTH or np.any(np.abs(value - coarse) > ORACLE_RTOL * value)):
        if width <= PANEL_WIDTH / 16:
            # the absolute change at the worst gamma_bar: an outage that underflows to 0 has no relative one
            i = int(np.argmax(np.abs(value - coarse) - ORACLE_RTOL * value))
            raise QuadratureConvergenceError(
                f"steps of width {width:g} still move the outage by {abs(value[i] - coarse[i]):.2e} at "
                f"gamma_bar = {np.ravel(gamma_bar)[i]:g}, from {coarse[i]:.3e} to {value[i]:.3e}, more than "
                f"{ORACLE_RTOL:g} of it")
        width /= 2.0
        v, wg, lost, _ = _threshold_table(network, width, windows)
        coarse, value = value, outage(v, wg)
    error = np.abs(value - coarse) + sum(below + above * value for below, above in lost.values())
    if np.any(error > ORACLE_RTOL * value):
        n, (below, above) = max(lost.items(), key=lambda item: item[1][0] + item[1][1] * np.min(value))
        raise QuadratureConvergenceError(
            f"hop {n + 1}'s log-gain window [{windows[n][0]:g}, {windows[n][1]:g}] leaves out gain mass "
            f"{below:.2e} below it and {above:.2e} of the outage above it, which with the other hops' and "
            f"the step-doubling difference is above {ORACLE_RTOL:g} of the outage {np.min(value):.3e}"
        )
    return value.reshape(gamma_bar.shape)[()]
