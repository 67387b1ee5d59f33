"""The analytic engine: moment products, pole aggregation, residues, and the
truncated asymptotic outage expansion.

The outage probability of an N-hop chain admits a formal series whose terms
are contour integrals indexed by weak compositions; closing each contour
through the left half-plane turns the series into a sum of residues at the
poles of the per-hop moment functions.  Every residue of order k contributes
a polynomial in ln(gamma_bar) of degree k-1 times a power of gamma_bar, and
those polynomials are what :class:`AsymptoticExpansion` stores.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .channels import (
    POLE_MERGE_TOL,
    HopConfig,
    PoleSpec,
    _rightmost_pole,
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
class CompositionTerm:
    """One weak composition of the correction series and its coefficient."""

    ell: tuple[int, ...]
    lambda_total: int
    lambda_partial: tuple[int, ...]
    coefficient: float


@dataclass(frozen=True)
class AsymptoteTerm:
    """Coefficients c_i of sum_i c_i (ln gamma_bar)^i gamma_bar^exponent."""

    exponent: float
    log_coeffs: tuple[float, ...]

    def evaluate(self, gamma_bar: float) -> float:
        lg = math.log(gamma_bar)
        poly = 0.0
        for c in reversed(self.log_coeffs):
            poly = poly * lg + c
        return poly * math.exp(self.exponent * lg)


@dataclass(frozen=True)
class AsymptoticExpansion:
    """Truncated outage expansion: terms sorted by descending exponent."""

    terms: tuple[AsymptoteTerm, ...]
    lambda_max: int
    re_min: float
    network: NetworkConfig


def weak_compositions(total: int, parts: int):
    """Yield all ordered tuples of `parts` nonnegative integers summing to total."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in weak_compositions(total - first, parts - 1):
            yield (first,) + rest


def composition_term(network: NetworkConfig, ell: tuple[int, ...]) -> CompositionTerm:
    """Build the CompositionTerm for one weak composition of lambda_N."""
    n = network.n_hops
    if len(ell) != n - 1:
        raise ValueError(f"composition must have {n - 1} parts, got {len(ell)}")
    partial = [0]
    for l_j in ell:
        partial.append(partial[-1] + l_j)
    lam = partial[-1]
    rho_n = network.hops[-1].rho
    coeff = 1.0
    for j, l_j in enumerate(ell):
        rho_j = network.hops[j].rho
        coeff *= (-rho_j / rho_n) ** l_j / math.factorial(l_j)
    return CompositionTerm(tuple(ell), lam, tuple(partial), coeff)


def product_moment(network: NetworkConfig, s):
    """G(s): the product of per-hop moments, accumulated in log space (s scalar or array)."""
    return np.exp(sum(log_moment(hop.model, s) for hop in network.hops))


def _gamma_ratio_prefactor(lambda_total: int):
    """gamma(s+lambda)/gamma(s+1) reduced analytically for integer lambda >= 0.

    Returns (function, pole_contribs, zero_locations): 1/s with its origin
    pole for lambda = 0, the constant 1 for lambda = 1, and the polynomial
    prod_{i=1..lambda-1}(s+i) with its integer zeros for lambda >= 2.
    """
    if lambda_total == 0:
        return (lambda s: 1.0 / s), [0.0], []
    if lambda_total == 1:
        return (lambda s: 1.0 + 0.0j), [], []
    zeros = [-float(i) for i in range(1, lambda_total)]

    def poly(s):
        out = 1.0 + 0.0j
        for i in range(1, lambda_total):
            out *= s + i
        return out

    return poly, [], zeros


def _check_shifts(network: NetworkConfig, shifts, lambda_total: int) -> tuple[int, ...]:
    shifts = tuple(int(v) for v in shifts)
    if len(shifts) != network.n_hops:
        raise ValueError(
            f"shifts must list one lambda_j per hop ({network.n_hops}), got {len(shifts)}"
        )
    if shifts[0] != 0 or shifts[-1] != lambda_total:
        raise ValueError("shifts must be prefix sums: lambda_1 = 0, lambda_N = lambda_total")
    return shifts


def _pole_contributions(network, shifts, lambda_total, re_min):
    """Raw (location, order-delta) pairs for one term's integrand, unmerged."""
    contribs: list[tuple[float, int]] = []
    for hop, lam_j in zip(network.hops, shifts):
        for p in mellin_poles(hop.model, re_min + lam_j):
            contribs.append((p.location.real - lam_j, 1))
    _, prefactor_poles, prefactor_zeros = _gamma_ratio_prefactor(lambda_total)
    for loc in prefactor_poles:
        if loc >= re_min:
            contribs.append((loc, 1))
    for loc in prefactor_zeros:
        if loc >= re_min:
            contribs.append((loc, -1))
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


def enumerate_poles(network: NetworkConfig, shifts, lambda_total: int, re_min: float) -> list[PoleSpec]:
    """Merged poles of one composition term's integrand in Re(s) >= re_min.

    Combines the shifted per-hop moment lattices with the poles/zeros of the
    gamma(s+lambda_N)/gamma(s+1) prefactor; entries whose net order drops to
    zero or below (a prefactor zero cancelling a moment pole) are removed.
    Sorted by descending real part.
    """
    shifts = _check_shifts(network, shifts, lambda_total)
    merged = _merge_contributions(_pole_contributions(network, shifts, lambda_total, re_min))
    out = [
        PoleSpec(complex(loc), order)
        for loc, order in sorted(merged, reverse=True)
        if order > 0
    ]
    return out


def _term_integrand(network: NetworkConfig, shifts, lambda_total: int, rings: dict):
    """The residue-engine integrand of one composition term, minus xi^-s.

    Takes a whole array of nodes: one log_moment ring per hop.  ``rings``
    memoises those rings by (model, exact node bytes); the terms of one
    expansion share it, so a shifted ring that several weak compositions
    and poles meet is evaluated once, and a hit is the array a fresh call
    would return.
    """
    prefactor, _, _ = _gamma_ratio_prefactor(lambda_total)
    models = [hop.model for hop in network.hops]

    def log_ring(model, nodes: np.ndarray) -> np.ndarray:
        key = (model, nodes.tobytes())
        if key not in rings:
            rings[key] = log_moment(model, nodes)
        return rings[key]

    def f(s: np.ndarray) -> np.ndarray:
        acc = sum(log_ring(model, s + lam_j) for model, lam_j in zip(models, shifts))
        return prefactor(s) * np.exp(acc)

    return f


def _extract_derivatives(ring, fv, k: int) -> tuple[list[float], float]:
    """H^(n)(s0) for n < k, where H(s) = (s-s0)^k f(s), via Fourier extraction.

    Also returns max |H| on the contour, the scale of those derivatives.
    """
    h_ring = ring**k * fv
    mags = np.abs(h_ring)
    lo, hi = mags.min(), mags.max()
    if lo == 0.0 or hi / lo > _CONDITION_LIMIT:
        raise IllConditionedContourError(
            f"|H| spans a ratio of {hi / max(lo, 5e-324):.3e} on the contour"
        )
    radius = abs(ring[0])
    phases = ring / radius
    out = []
    for n in range(k):
        coeff = np.mean(h_ring * phases ** (-n)) * math.factorial(n) / radius**n
        out.append(float(coeff.real))
    return out, float(hi)


def residue_at(f, pole: PoleSpec, context: float) -> list[float]:
    """Laurent data of f at a pole, with the order reduced where it is spurious.

    Returns [H(s0), H'(s0), ..., H^(k-1)(s0)] for H(s) = (s-s0)^k f(s),
    computed by trapezoidal quadrature on a circle of radius
    min(0.4*context, 0.5); spectrally accurate and free of the cancellation
    that high-order finite differences would suffer.  k starts at
    pole.order and drops while |H(s0)| is numerically zero (a hypergeometric
    zero cancelling a gamma pole), so len(result) is the effective order.
    f must take the whole array of contour nodes in one call.
    """
    k = pole.order
    s0 = pole.location.real
    radius = min(RADIUS_SAFETY * context, MAX_CONTOUR_RADIUS)
    ring = radius * np.exp(2j * math.pi * np.arange(CONTOUR_NODES) / CONTOUR_NODES)
    fv = f(s0 + ring)
    while True:
        derivs, scale = _extract_derivatives(ring, fv, k)
        if k > 1 and abs(derivs[0]) < ORDER_DROP_TOL * scale:
            k -= 1
            continue
        return derivs


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


def _rightmost_network_pole(network: NetworkConfig) -> float:
    return max(_rightmost_pole(hop.model) for hop in network.hops)


def _context_distance(location: float, others) -> float:
    dist = math.inf
    for loc in others:
        gap = abs(location - loc)
        if gap >= POLE_MERGE_TOL:
            dist = min(dist, gap)
    return dist


def origin_residue(network: NetworkConfig) -> float:
    """Numeric residue of the lambda_N = 0 integrand at s = 0 (must be 1)."""
    s0_right = _rightmost_network_pole(network)
    f = _term_integrand(network, (0,) * network.n_hops, 0, {})
    context = abs(s0_right)
    return residue_at(f, PoleSpec(0.0 + 0.0j, 1), context)[0]


def leading_pole(network: NetworkConfig) -> tuple[float, int]:
    """Location and merged order of the rightmost non-origin pole of G(s).

    Pure pole arithmetic, no contour work; the diversity order is -s0.
    """
    s0 = _rightmost_network_pole(network)
    poles = enumerate_poles(network, (0,) * network.n_hops, 0, s0 - 1.0)
    entry = next(p for p in poles if abs(p.location.real - s0) < POLE_MERGE_TOL)
    return s0, entry.order


def leading_term(network: NetworkConfig):
    """Rightmost non-origin pole of G(s) and its full residue polynomial.

    Returns (term, s0, k): the lambda_N = 0 residue contribution at s0 as an
    AsymptoteTerm in the ln(gamma_bar) basis (all log powers, not just the
    top one), the pole location, and its merged order.  The diversity order
    is -s0.
    """
    s0, k = leading_pole(network)
    shifts = (0,) * network.n_hops
    wide = _pole_contributions(network, shifts, 0, s0 - 2.5)
    context = _context_distance(s0, [loc for loc, _ in wide])
    f = _term_integrand(network, shifts, 0, {})
    derivs = residue_at(f, PoleSpec(complex(s0), k), context)
    a_scale = network.gamma_t * network.hops[-1].rho
    coeffs = _rebase_coefficients(-1.0, derivs, s0, a_scale)
    return AsymptoteTerm(s0, tuple(coeffs)), s0, len(derivs)


def _trimmed_terms(exponents, coeff_lists) -> tuple[AsymptoteTerm, ...]:
    """Accumulated coefficients as terms by descending exponent, trailing zeros dropped."""
    terms = []
    for exponent, coeffs in zip(exponents, coeff_lists):
        trim_tol = 1e-12 * max(1e-300, float(np.abs(coeffs).max()))
        last = None
        for i, c in enumerate(coeffs):
            if abs(c) > trim_tol:
                last = i
        if last is None:
            continue
        terms.append(AsymptoteTerm(exponent, tuple(float(c) for c in coeffs[: last + 1])))
    terms.sort(key=lambda t: t.exponent, reverse=True)
    return tuple(terms)


def build_expansion(
    network: NetworkConfig,
    lambda_max: int = DEFAULT_LAMBDA_MAX,
    re_min: float | None = None,
    warn_gamma_bar: float | None = None,
) -> AsymptoticExpansion:
    """Assemble the truncated outage expansion.

    Sums residues of every weak-composition term with lambda_N <= lambda_max
    at all integrand poles with Re(s) >= re_min (default: 1.5 to the left of
    the rightmost pole of G).  The lambda_N = 0 residue at the origin equals
    1 and cancels the leading 1 of the outage formula, so it never appears as
    a term.  If ``warn_gamma_bar`` is given, the lambda_max and lambda_max-1
    truncations are compared there and a TruncationWarning is emitted when
    they differ by more than 10% (formal-series divergence signal); the
    lambda_max-1 truncation is the partial sum before the last order.
    """
    if lambda_max < 0:
        raise ValueError("lambda_max must be >= 0")
    s0_right = _rightmost_network_pole(network)
    if re_min is None:
        re_min = s0_right - DEFAULT_RE_MIN_OFFSET
    n = network.n_hops
    a_scale = network.gamma_t * network.hops[-1].rho

    exponents: list[float] = []
    coeff_lists: list[np.ndarray] = []
    rings: dict = {}  # log_moment rings shared by every term of this build

    def accumulate(exponent: float, coeffs: np.ndarray) -> None:
        for i, rep in enumerate(exponents):
            if abs(rep - exponent) < POLE_MERGE_TOL:
                old = coeff_lists[i]
                if len(coeffs) > len(old):
                    old = np.pad(old, (0, len(coeffs) - len(old)))
                    coeff_lists[i] = old
                old[: len(coeffs)] += coeffs
                return
        exponents.append(exponent)
        coeff_lists.append(coeffs.astype(float).copy())

    lower = None
    for lam in range(lambda_max + 1):
        if warn_gamma_bar is not None and lam == lambda_max and lam >= 1:
            # the lambda_max - 1 truncation, snapshot before the last order
            lower = AsymptoticExpansion(
                _trimmed_terms(exponents, coeff_lists), lam - 1, re_min, network
            )
        for ell in weak_compositions(lam, n - 1):
            term = composition_term(network, ell)
            shifts = term.lambda_partial
            poles = enumerate_poles(network, shifts, lam, re_min)
            if not poles:
                continue
            wide = _pole_contributions(network, shifts, lam, re_min - 2.0)
            wide_locs = [loc for loc, _ in wide]
            f = _term_integrand(network, shifts, lam, rings)
            for pole in poles:
                loc = pole.location.real
                if lam == 0 and abs(loc) < POLE_MERGE_TOL:
                    continue  # cancels the leading 1
                derivs = residue_at(f, pole, _context_distance(loc, wide_locs))
                accumulate(loc, _rebase_coefficients(-term.coefficient, derivs, loc, a_scale))

    expansion = AsymptoticExpansion(
        _trimmed_terms(exponents, coeff_lists), lambda_max, re_min, network
    )

    if lower is not None:
        hi_val = evaluate_expansion(expansion, warn_gamma_bar)
        lo_val = evaluate_expansion(lower, warn_gamma_bar)
        if hi_val > 0 and abs(hi_val - lo_val) > 0.1 * hi_val:
            warnings.warn(
                f"truncation orders {lambda_max} and {lambda_max - 1} differ by "
                f"{abs(hi_val - lo_val) / hi_val:.1%} at gamma_bar={warn_gamma_bar:g}",
                TruncationWarning,
                stacklevel=2,
            )
    return expansion


def evaluate_expansion(
    expansion: AsymptoticExpansion, gamma_bar: float, with_flag: bool = False
):
    """Evaluate the expansion at gamma_bar > 1, clamped to [0, 1].

    Returns the probability, or (probability, clamped) when ``with_flag`` is
    set.
    """
    if gamma_bar <= 1.0:
        raise ValueError(f"gamma_bar must exceed 1 (ln gamma_bar > 0), got {gamma_bar}")
    total = 0.0
    for term in expansion.terms:
        total += term.evaluate(gamma_bar)
    clamped = False
    if total < 0.0:
        total, clamped = 0.0, True
    elif total > 1.0:
        total, clamped = 1.0, True
    return (total, clamped) if with_flag else total
