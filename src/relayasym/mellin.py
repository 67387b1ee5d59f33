"""The analytic engine: moment products, pole aggregation, residues, and the
truncated asymptotic outage expansion.

The outage probability of an N-hop chain admits a formal series whose terms
are contour integrals indexed by nondecreasing shift tuples
(lambda_1 = 0, ..., lambda_N); closing each contour through the left
half-plane turns the series into a sum of residues at the poles of the
per-hop moment functions.  Every residue of order k contributes a
polynomial in ln(gamma_bar) of degree k-1 times a power of gamma_bar, and
those polynomials are what :class:`AsymptoticExpansion` stores.

One routine, ``_residues``, takes one term, given by its shifts, to its
residues: it merges the term's real (location, order) poles in the window
(:func:`enumerate_poles`), sizes each contour by the nearest other pole,
and reads the Laurent data off one FFT of the contour samples
(:func:`residue_at`).  :func:`leading_term` takes the first residue of the
lambda_N = 0 term; :func:`build_expansion` sums the residues of every term
by exponent, and its truncation check compares the sum of all orders with
the sum of the orders below lambda_max.  Each hop's poles are the floats
r0 - step*j that :func:`relayasym.channels.mellin_poles` lists; it refuses
a window of more than ``MAX_LATTICE_POLES`` poles; :func:`leading_pole`
lists none.  The expansion is a series in 1/gamma_bar and ln(gamma_bar),
so it is evaluated only for gamma_bar > 1.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .channels import (
    POLE_MERGE_TOL,
    HopConfig,
    lattice,
    log_moment,
    mellin_poles,
    validate_model,
)
from .errors import (
    ConditioningWarning,
    IllConditionedContourError,
    TruncationWarning,
)

#: Distinct pole locations closer than this (but farther than the merge
#: tolerance) trigger a conditioning warning.
NEAR_COINCIDENT_TOL = 1e-3

CONTOUR_NODES = 64
MAX_CONTOUR_RADIUS = 0.5
RADIUS_SAFETY = 0.4

#: |H(s0)| below this fraction of the contour scale means the pole order is
#: effectively lower (a hypergeometric zero cancelled a gamma pole).
ORDER_DROP_TOL = 1e-10

_CONDITION_LIMIT = 1e12

DEFAULT_LAMBDA_MAX = 2
DEFAULT_RE_MIN_OFFSET = 1.5


@dataclass(frozen=True)
class NetworkConfig:
    """Ordered hop list plus the outage threshold (linear scale)."""

    hops: tuple[HopConfig, ...]
    gamma_t: float

    def __post_init__(self):
        object.__setattr__(self, "hops", tuple(self.hops))
        if len(self.hops) < 1:
            raise ValueError("network needs at least one hop")
        for hop in self.hops:
            validate_model(hop.model)
            if not (math.isfinite(hop.rho) and hop.rho > 0):
                raise ValueError(f"rho must be positive and finite, got {hop.rho}")
        if abs(self.hops[0].rho - 1.0) > 1e-12:
            raise ValueError(f"first hop must have rho = 1, got {self.hops[0].rho}")
        if not (math.isfinite(self.gamma_t) and self.gamma_t > 0):
            raise ValueError(f"gamma_t must be positive and finite, got {self.gamma_t}")

    @property
    def n_hops(self) -> int:
        return len(self.hops)

    def xi(self, gamma_bar: float) -> list[float]:
        """Per-hop normalized thresholds rho_n * gamma_t / gamma_bar."""
        return [h.rho * self.gamma_t / gamma_bar for h in self.hops]


@dataclass(frozen=True)
class AsymptoteTerm:
    """Coefficients c_i of sum_i c_i (ln gamma_bar)^i gamma_bar^exponent."""

    exponent: float
    log_coeffs: tuple[float, ...]

    def evaluate(self, gamma_bar: float) -> float:
        lg = math.log(gamma_bar)
        poly = np.polynomial.polynomial.polyval(lg, self.log_coeffs)
        return float(poly) * math.exp(self.exponent * lg)


@dataclass(frozen=True)
class AsymptoticExpansion:
    """Truncated outage expansion: terms sorted by descending exponent."""

    terms: tuple[AsymptoteTerm, ...]
    lambda_max: int
    re_min: float
    network: NetworkConfig


def _shift_terms(network: NetworkConfig, lam: int):
    """Yield (shifts, coefficient) for each series term with lambda_N = lam.

    The shifts (0, lambda_2, ..., lambda_N = lam) are nondecreasing, in
    lexicographic order; the coefficient is
    prod_j (-rho_j/rho_N)^(lambda_{j+1}-lambda_j) / (lambda_{j+1}-lambda_j)!.
    A one-hop network has the lambda = 0 term (0,) alone.
    """
    if network.n_hops == 1:
        if lam == 0:
            yield (0,), 1.0
        return
    rho_n = network.hops[-1].rho
    for mid in itertools.combinations_with_replacement(range(lam + 1), network.n_hops - 2):
        shifts = (0, *mid, lam)
        coeff = 1.0
        for hop, lo, hi in zip(network.hops, shifts, shifts[1:]):
            coeff *= (-hop.rho / rho_n) ** (hi - lo) / math.factorial(hi - lo)
        yield shifts, coeff


def _pole_contributions(network, shifts, re_min):
    """Raw (location, order-delta) pairs for one term's integrand, unmerged.

    The prefactor gamma(s+lambda_N)/gamma(s+1) (lambda_N = shifts[-1]) adds a
    pole at the origin for lambda_N = 0 and zeros at -1, ..., -(lambda_N - 1).
    """
    lambda_n = shifts[-1]
    contribs: list[tuple[float, int]] = []
    for hop, lam_j in zip(network.hops, shifts):
        contribs += [(loc - lam_j, 1) for loc in mellin_poles(hop.model, re_min + lam_j)]
    if lambda_n == 0 and re_min <= 0.0:
        contribs.append((0.0, 1))
    contribs += [(-float(i), -1) for i in range(1, lambda_n) if -i >= re_min]
    return contribs


def _merge_contributions(contribs) -> list[tuple[float, int]]:
    """Cluster locations within the merge tolerance and sum their orders."""
    merged: list[tuple[float, int]] = []
    for loc, delta in sorted(contribs):
        if merged and abs(loc - merged[-1][0]) < POLE_MERGE_TOL:
            prev_loc, prev_order = merged[-1]
            merged[-1] = (prev_loc, prev_order + delta)
        else:
            merged.append((loc, delta))
    gaps = [b[0] - a[0] for a, b in zip(merged, merged[1:])]
    for gap in gaps:
        if POLE_MERGE_TOL <= gap < NEAR_COINCIDENT_TOL:
            warnings.warn(
                f"pole locations separated by {gap:.3e}: residue extraction may be "
                "ill-conditioned",
                ConditioningWarning,
                stacklevel=3,
            )
    return merged


def enumerate_poles(network: NetworkConfig, shifts, re_min: float) -> list[tuple[float, int]]:
    """Merged (location, order) poles of one series term's integrand in s >= re_min.

    Combines the per-hop moment lattices, shifted left by ``shifts``, with
    the poles/zeros of the gamma(s+lambda_N)/gamma(s+1) prefactor, where
    lambda_N = shifts[-1]; entries whose net order drops to zero or below (a
    prefactor zero cancelling a moment pole) are removed.  Rightmost first.
    """
    merged = _merge_contributions(_pole_contributions(network, shifts, re_min))
    return [(loc, order) for loc, order in sorted(merged, reverse=True) if order > 0]


def _term_integrand(network: NetworkConfig, shifts, rings: dict):
    """The residue-engine integrand of one series term, minus xi^-s.

    Takes a whole array of nodes: one log_moment ring per hop, times the
    prefactor gamma(s+lambda_N)/gamma(s+1), which is 1/s for lambda_N = 0
    and the polynomial prod_{i=1..lambda_N-1}(s+i) otherwise.  ``rings``
    memoises those rings by (model, exact node bytes); the terms of one
    expansion share it, so a shifted ring that several terms and poles
    meet is evaluated once, and a hit is the array a fresh call would return.
    """
    models = [hop.model for hop in network.hops]
    lambda_n = shifts[-1]

    def log_ring(model, nodes: np.ndarray) -> np.ndarray:
        key = (model, nodes.tobytes())
        if key not in rings:
            rings[key] = log_moment(model, nodes)
        return rings[key]

    def f(s: np.ndarray) -> np.ndarray:
        acc = sum(log_ring(model, s + lam_j) for model, lam_j in zip(models, shifts))
        if lambda_n == 0:
            return (1.0 / s) * np.exp(acc)
        return math.prod((s + i for i in range(1, lambda_n)), start=1.0 + 0.0j) * np.exp(acc)

    return f


def residue_at(f, s0: float, k: int, context: float) -> list[float]:
    """Laurent data of f at a real pole s0 of order k, reduced where spurious.

    Returns [H(s0), H'(s0), ..., H^(k-1)(s0)] for H(s) = (s-s0)^k f(s).
    One FFT of H on a circle of radius r = min(0.4*context, 0.5) gives its
    Taylor coefficients fft[n] / nodes / r^n: the trapezoidal rule, spectrally
    accurate and free of the cancellation of high-order finite differences.
    k drops while |H(s0)| is numerically zero (a hypergeometric zero
    cancelling a gamma pole): H/(s-s0) has H's coefficients shifted by one
    and scale max |H| / r, so len(result) is the effective order.  f must
    take the whole array of contour nodes in one call.
    """
    radius = min(RADIUS_SAFETY * context, MAX_CONTOUR_RADIUS)
    ring = radius * np.exp(2j * math.pi * np.arange(CONTOUR_NODES) / CONTOUR_NODES)
    h_ring = ring**k * f(s0 + ring)
    mags = np.abs(h_ring)
    lo, scale = mags.min(), mags.max()
    if scale == 0.0:
        raise IllConditionedContourError(
            f"the moment product underflows to 0 on the contour around the pole at "
            f"s = {s0:g}, too far left of the leading pole; a --re-min (re_min) "
            f"nearer the leading pole avoids it"
        )
    if lo == 0.0 or scale / lo > _CONDITION_LIMIT:
        raise IllConditionedContourError(
            f"|H| spans a ratio of {scale / max(lo, 5e-324):.3e} on the contour"
        )
    taylor = np.fft.fft(h_ring)[:k].real / CONTOUR_NODES / radius ** np.arange(k)
    while len(taylor) > 1 and abs(taylor[0]) < ORDER_DROP_TOL * scale:
        taylor = taylor[1:]
        scale /= radius
    return [float(c) * math.factorial(n) for n, c in enumerate(taylor)]


def _rebase_coefficients(multiplier: float, derivs, s0: float, a_scale: float):
    """Turn residue Laurent data into ln(gamma_bar) polynomial coefficients.

    With k = len(derivs), the residue at s0 of xi^-s f(s) is
    xi^-s0 / (k-1)! * sum_m C(k-1,m) H^(k-1-m)(s0) (-ln xi)^m
    and xi = a_scale / gamma_bar, so (-ln xi)^m is expanded binomially in
    ln(gamma_bar), exactly.
    """
    k = len(derivs)
    ln_a = math.log(a_scale)
    pref = multiplier * a_scale ** (-s0) / math.gamma(k)
    coeffs = np.zeros(k)
    for m in range(k):
        base = math.comb(k - 1, m) * derivs[k - 1 - m]
        for i in range(m + 1):
            coeffs[i] += pref * base * math.comb(m, i) * (-ln_a) ** (m - i)
    return coeffs


def leading_pole(network: NetworkConfig) -> tuple[float, int]:
    """Location and merged order of the rightmost non-origin pole of G(s).

    Lattice arithmetic, O(N): s0 is the largest hop r0 (:func:`lattice`) and
    k counts the r0 within POLE_MERGE_TOL of it; the diversity order is -s0.
    """
    r0s = [lattice(hop.model)[0] for hop in network.hops]
    s0 = max(r0s)
    return s0, sum(s0 - r0 < POLE_MERGE_TOL for r0 in r0s)


def _residues(network: NetworkConfig, shifts, re_min: float, rings: dict):
    """Yield (location, Laurent data) at each pole of one series term's integrand.

    Poles with Re(s) >= re_min, rightmost first, as :func:`residue_at`
    returns them; the lambda_N = 0 pole at the origin is skipped, because
    its residue 1 cancels the leading 1 of the outage formula.  Each
    contour's radius is set by the nearest other pole, looked for down to
    re_min - 2.
    """
    poles = enumerate_poles(network, shifts, re_min)
    wide = [loc for loc, _ in _pole_contributions(network, shifts, re_min - 2.0)]
    f = _term_integrand(network, shifts, rings)
    for loc, order in poles:
        if shifts[-1] == 0 and abs(loc) < POLE_MERGE_TOL:
            continue
        context = min((abs(loc - o) for o in wide if abs(loc - o) >= POLE_MERGE_TOL), default=math.inf)
        yield loc, residue_at(f, loc, order, context)


def leading_term(network: NetworkConfig):
    """Rightmost non-origin pole of G(s) and its full residue polynomial.

    Returns (term, s0, k): the lambda_N = 0 residue contribution at s0 as an
    AsymptoteTerm in the ln(gamma_bar) basis (all log powers, not just the
    top one), the pole location, and its effective order.  The diversity
    order is -s0.
    """
    s0, _ = leading_pole(network)
    loc, derivs = next(_residues(network, (0,) * network.n_hops, s0 - 0.5, {}))
    a_scale = network.gamma_t * network.hops[-1].rho
    coeffs = _rebase_coefficients(-1.0, derivs, loc, a_scale)
    return AsymptoteTerm(loc, tuple(coeffs)), loc, len(derivs)


def _collect(entries) -> tuple[AsymptoteTerm, ...]:
    """Sum (lambda_N, exponent, coefficients) entries by exponent, in entry order.

    Terms come out by descending exponent, trailing zero coefficients dropped.
    """
    exponents: list[float] = []
    sums: list[np.ndarray] = []
    for _, exponent, coeffs in entries:
        i = next((i for i, rep in enumerate(exponents) if abs(rep - exponent) < POLE_MERGE_TOL), None)
        if i is None:
            exponents.append(exponent)
            sums.append(coeffs.copy())
            continue
        if len(coeffs) > len(sums[i]):
            sums[i] = np.pad(sums[i], (0, len(coeffs) - len(sums[i])))
        sums[i][: len(coeffs)] += coeffs
    terms = []
    for exponent, total in zip(exponents, sums):
        trim_tol = 1e-12 * max(1e-300, float(np.abs(total).max()))
        kept = np.flatnonzero(np.abs(total) > trim_tol)
        if kept.size:
            terms.append(AsymptoteTerm(exponent, tuple(float(c) for c in total[: kept[-1] + 1])))
    terms.sort(key=lambda t: t.exponent, reverse=True)
    return tuple(terms)


def build_expansion(
    network: NetworkConfig,
    lambda_max: int = DEFAULT_LAMBDA_MAX,
    re_min: float | None = None,
    warn_gamma_bar: float | None = None,
) -> AsymptoticExpansion:
    """Assemble the truncated outage expansion.

    Sums residues of every series term with lambda_N <= lambda_max
    at all integrand poles with Re(s) >= re_min (default: 1.5 to the left of
    the rightmost pole of G).  The lambda_N = 0 residue at the origin equals
    1 and cancels the leading 1 of the outage formula, so it never appears as
    a term.  If ``warn_gamma_bar`` is given, the unclamped lambda_max and
    lambda_max-1 truncations are compared there and a TruncationWarning is
    emitted when the lambda_max sum is not positive or the two differ by more
    than 10% of it (formal-series divergence signal).  It also warns when
    hop N is off the leading pole s0, where the leading constant is a
    partial sum.
    """
    if lambda_max < 0:
        raise ValueError("lambda_max must be >= 0")
    s0, k = leading_pole(network)
    last = lattice(network.hops[-1].model)[0]
    # Off the leading pole the constant is the binomial series of (rho + W)^-s0,
    # which the lambda <= -s0 terms sum exactly only for a simple pole at an integer s0.
    if s0 - last >= POLE_MERGE_TOL and not (k == 1 and s0 == round(s0) and lambda_max >= -s0):
        warnings.warn(f"hop {network.n_hops} (pole {last:g}) is off the leading pole s0 = {s0:g}: "
                      f"its lambda_max = {lambda_max} constant is a partial sum",
                      TruncationWarning, stacklevel=2)
    if re_min is None:
        re_min = s0 - DEFAULT_RE_MIN_OFFSET
    a_scale = network.gamma_t * network.hops[-1].rho
    rings: dict = {}  # log_moment rings shared by every term of this build
    entries = []  # (lambda_N, exponent, coefficients), one per residue
    for lam in range(lambda_max + 1):
        for shifts, coeff in _shift_terms(network, lam):
            for loc, derivs in _residues(network, shifts, re_min, rings):
                entries.append((lam, loc, _rebase_coefficients(-coeff, derivs, loc, a_scale)))
    expansion = AsymptoticExpansion(_collect(entries), lambda_max, re_min, network)

    if warn_gamma_bar is not None and lambda_max >= 1:
        # the unclamped sums: a nonpositive one is the worst truncation of all
        hi_val = _term_sum(expansion.terms, warn_gamma_bar)
        lo_val = _term_sum(_collect(e for e in entries if e[0] < lambda_max), warn_gamma_bar)
        if hi_val <= 0 or abs(hi_val - lo_val) > 0.1 * hi_val:
            warnings.warn(
                f"truncation orders {lambda_max} and {lambda_max - 1} sum to "
                f"{hi_val:.3e} and {lo_val:.3e} at gamma_bar={warn_gamma_bar:g}",
                TruncationWarning,
                stacklevel=2,
            )
    return expansion


def _term_sum(terms: tuple[AsymptoteTerm, ...], gamma_bar: float) -> float:
    """Sum of the terms at finite gamma_bar > 1, unclamped."""
    if not 1.0 < gamma_bar < math.inf:
        raise ValueError(f"gamma_bar must be finite and exceed 1 (ln gamma_bar > 0), got {gamma_bar}")
    return sum((term.evaluate(gamma_bar) for term in terms), 0.0)


def evaluate_expansion(expansion: AsymptoticExpansion, gamma_bar: float) -> float:
    """Evaluate the expansion at finite gamma_bar > 1, clamped to [0, 1]."""
    return min(max(_term_sum(expansion.terms, gamma_bar), 0.0), 1.0)
