"""Finite-SNR diversity, and sweeps of the asymptote against Monte Carlo and the oracle."""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import mellin, montecarlo
from .channels import NetworkConfig


@dataclass(frozen=True)
class SweepRow:
    """One gamma_bar grid point of a comparison sweep."""

    gamma_bar_db: float
    p_asym: float | None
    d_finite: float | None
    p_mc: float | None = None
    ci_low: float | None = None
    ci_high: float | None = None
    p_oracle: float | None = None


def finite_diversity(s0: float, k: int, gamma_bar: float) -> float | None:
    """Finite-SNR diversity: -s0 minus the (k-1) ln ln / ln correction.

    For a simple dominant pole (k = 1) the correction vanishes and the value
    is -s0 for any gamma_bar; for k >= 2 the log-log correction is defined
    only for gamma_bar > e, and the value is None at or below it.  A pole
    order k < 1 raises ValueError.
    """
    if k < 1:
        raise ValueError("pole order k must be >= 1")
    if k == 1:
        return -s0
    if gamma_bar <= math.e:
        return None
    lg = math.log(gamma_bar)
    return -s0 - (k - 1) * math.log(lg) / lg


#: Most points a dB grid may have; a wider or finer grid is an input error.
MAX_GRID_POINTS = 10_000


def db_to_linear(db: float) -> float:
    """10^(db/10); ValueError where that overflows a float."""
    try:
        return 10.0 ** (db / 10.0)
    except OverflowError:
        raise ValueError(f"{db:g} dB overflows a float gain") from None


def _db_grid(lo: float, hi: float, step: float) -> list[float]:
    if not (hi >= lo and step > 0):
        raise ValueError("need lo <= hi and step > 0")
    if not (hi - lo) / step < MAX_GRID_POINTS:
        raise ValueError(f"{lo:g} to {hi:g} dB in steps of {step:g} is more than "
                         f"{MAX_GRID_POINTS} grid points")
    # by index, so the rounding error of a step does not add up along the grid
    grid = []
    while (v := lo + len(grid) * step) <= hi + 1e-9:
        grid.append(round(v, 12))
    return grid


def sweep_compare(
    network: NetworkConfig,
    db_range: tuple[float, float, float],
    n_samples: int | None = None,
    oracle: bool = False,
    lambda_max: int = mellin.DEFAULT_LAMBDA_MAX,
    re_min: float | None = None,
    seed: int = 42,
) -> list[SweepRow]:
    """Evaluate asymptote (always), Monte Carlo and oracle (optional) on a dB grid.

    One expansion is built for the whole sweep, and one oracle call serves
    every row; each Monte Carlo row draws from its own substream family
    (seed, row << 32 | block), so the sweep is deterministic given the seed
    and rows never share samples.  Rows at or below 0 dB (gamma_bar <= 1)
    leave p_asym empty, and rows where finite_diversity is undefined leave
    d_finite empty; the truncation check runs at the top gamma_bar when it
    exceeds 1.
    """
    grid = _db_grid(*db_range)
    top_gamma = db_to_linear(grid[-1])
    expansion = mellin.build_expansion(
        network, lambda_max=lambda_max, re_min=re_min,
        warn_gamma_bar=top_gamma if top_gamma > 1.0 else None,
    )
    s0, k = mellin.leading_pole(network)
    gammas = [db_to_linear(db) for db in grid]
    p_oracles = montecarlo.oracle_outage(network, gammas).tolist() if oracle else [None] * len(grid)
    rows = []
    for i, (db, gamma_bar, p_oracle) in enumerate(zip(grid, gammas, p_oracles)):
        p_asym = mellin.evaluate_expansion(expansion, gamma_bar) if gamma_bar > 1.0 else None
        d_fin = finite_diversity(s0, k, gamma_bar)
        p_mc = ci_low = ci_high = None
        if n_samples:
            est = montecarlo.estimate_outage(network, gamma_bar, n_samples, seed=seed, stream_base=i << 32)
            p_mc, ci_low, ci_high = est.p_hat, est.ci_low, est.ci_high
        rows.append(SweepRow(db, p_asym, d_fin, p_mc, ci_low, ci_high, p_oracle))
    return rows
