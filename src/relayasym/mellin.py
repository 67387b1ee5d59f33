"""The analytic engine: moment products, pole aggregation, residues, and the
truncated asymptotic outage expansion.

The outage probability of an N-hop chain admits a formal series whose terms
are contour integrals indexed by nondecreasing shift tuples
(lambda_1 = 0, ..., lambda_N); closing each contour through the left
half-plane turns the series into a sum of residues at the poles of the
per-hop moment functions.  Every residue of order k contributes a
polynomial in ln(gamma_bar) of degree k-1 times a power of gamma_bar, and
those polynomials are what :class:`AsymptoticExpansion` stores.

Residues are planned, then evaluated together.  :func:`enumerate_poles`
plans one term's residues, given its shifts: it lists each hop's poles
once, merges the term's real poles in the window and gives each its
(location, order, context), the context sizing its contour by the nearest
other pole, found by bisection.  :func:`build_expansion` files each term
under the (lambda_N, location) of each of its poles, and ``_residues``
takes one residue per such group, of its terms' weighted sum, as residues
are linear.  It makes one log_moment call per distinct hop model on
every distinct shifted ring the terms meet, a ring being the one number
centre + i*radius (``_ring_tables``), then takes the Laurent data of a
block of residues at a time off one FFT of their contour samples
(:func:`residue_at`).  The integrand is real on the real
axis, so a contour is sampled on its upper half alone and ``np.fft.hfft``
gives the whole circle's spectrum.
:func:`build_expansion` plans the residues of every term, at most
``MAX_SERIES_TERMS`` terms, evaluates them in one pass, weights each by one
log-space number, the largest term coefficient at its (lambda_N, location)
times (gamma_t rho_N)^-s0 (``_rebase_coefficients``), and sums them by
exponent; its truncation check compares the sum of all orders with the sum
of the orders below lambda_max.
:func:`leading_term` is the top term of a lambda_max = 0 build.  Each hop's
poles are the floats r0 - step*j that :func:`relayasym.channels.mellin_poles`
lists; it refuses a window of more than ``MAX_LATTICE_POLES`` poles;
:func:`leading_pole` lists none.  The expansion is a series in 1/gamma_bar and ln(gamma_bar),
so it is evaluated only for gamma_bar > 1.  Networks come from
:mod:`relayasym.channels`, as for the Monte Carlo engine and the oracle,
which check this one and so never import it.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .channels import POLE_MERGE_TOL, NetworkConfig, lattice, log_moment, mellin_poles
# validate_model stays a name of this module: the benchmark tracer wraps mellin.validate_model.
from .channels import validate_model  # noqa: F401
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

#: Residues, each of one lambda_N and location, that one :func:`residue_at`
#: call takes within a build: its (residues, nodes) work arrays stay at 17 kB each.
RESIDUE_BLOCK = 32

DEFAULT_LAMBDA_MAX = 2
DEFAULT_RE_MIN_OFFSET = 1.5

#: Most series terms one build plans: C(lambda_max + N - 1, N - 1) shift
#: tuples for N hops.  An 8-hop build takes about 0.1 ms and 2 kB per term,
#: so this bound is about a second; 8 hops take lambda_max <= 8 (6,435 terms).
MAX_SERIES_TERMS = 10_000


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


def _warn(message: str, category: type[Warning]) -> None:
    """warnings.warn, attributed to the first calling frame outside this module."""
    frame, level = sys._getframe(), 1
    while frame.f_globals.get("__name__") == __name__:
        frame, level = frame.f_back, level + 1
    warnings.warn(message, category, stacklevel=level)


def _shift_terms(network: NetworkConfig, lam: int):
    """Yield (shifts, log_weight) for each series term with lambda_N = lam.

    The shifts (0, lambda_2, ..., lambda_N = lam) are nondecreasing, in
    lexicographic order.  The term's coefficient is
    prod_j (-rho_j/rho_N)^d_j / d_j!, d_j = lambda_{j+1} - lambda_j, whose
    sign is (-1)^lam for every term; log_weight is the log of its magnitude,
    sum_j d_j (ln rho_j - ln rho_N) - ln d_j!, finite for any positive rhos.
    A one-hop network has the lambda = 0 term (0,) alone.
    """
    if network.n_hops == 1:
        if lam == 0:
            yield (0,), 0.0
        return
    ln_rho_n = math.log(network.hops[-1].rho)
    for mid in itertools.combinations_with_replacement(range(lam + 1), network.n_hops - 2):
        shifts = (0, *mid, lam)
        yield shifts, sum((hi - lo) * (math.log(hop.rho) - ln_rho_n) - math.lgamma(hi - lo + 1)
                          for hop, lo, hi in zip(network.hops, shifts, shifts[1:]))


def enumerate_poles(network: NetworkConfig, shifts, re_min: float) -> list[tuple[float, int, float]]:
    """(location, order, context) of each pole of one series term's integrand in s >= re_min.

    Combines the per-hop moment lattices, shifted left by ``shifts``, with
    the gamma(s+lambda_N)/gamma(s+1) prefactor's pole at the origin
    (lambda_N = shifts[-1] = 0) and zeros at -1, ..., -(lambda_N - 1).  Each
    hop's lattice is listed once, down to re_min - 2; its pole p is in the
    window when p >= re_min + lambda_j, before the shift to p - lambda_j.
    In-window locations within POLE_MERGE_TOL merge and their orders add;
    entries whose net order drops to zero or below (a prefactor zero
    cancelling a moment pole) are removed, and merged entries closer than
    NEAR_COINCIDENT_TOL warn.  A pole's context, which sizes its residue
    contour, is the distance to the nearest other location listed down to
    re_min - 2, at least POLE_MERGE_TOL away (inf if there is none): the
    nearer of the nearest such locations below and above it, found by
    bisecting the sorted list.  Rightmost first.
    """
    lambda_n, floor = shifts[-1], re_min - 2.0
    # (location, order delta, in the window) of every pole and zero down to the floor
    listed = [(loc - lam_j, 1, loc >= re_min + lam_j)
              for hop, lam_j in zip(network.hops, shifts)
              for loc in mellin_poles(hop.model, floor + lam_j)]
    if lambda_n == 0 and floor <= 0.0:
        listed.append((0.0, 1, re_min <= 0.0))
    listed += [(-float(i), -1, -i >= re_min) for i in range(1, lambda_n) if -i >= floor]
    merged: list[list] = []
    for loc, delta in sorted((loc, delta) for loc, delta, inside in listed if inside):
        if merged and abs(loc - merged[-1][0]) < POLE_MERGE_TOL:
            merged[-1][1] += delta
        else:
            merged.append([loc, delta])
    for (a, _), (b, _) in zip(merged, merged[1:]):
        if POLE_MERGE_TOL <= b - a < NEAR_COINCIDENT_TOL:
            _warn(f"pole locations separated by {b - a:.3e}: residue extraction may be ill-conditioned",
                  ConditioningWarning)
    others = [-math.inf, *sorted(loc for loc, _, _ in listed), math.inf]  # inf: no location on that side

    def context(loc):  # the nearest listed location at least POLE_MERGE_TOL below or above loc, by bisection
        below = bisect.bisect_left(others, True, key=lambda o: loc - o < POLE_MERGE_TOL)
        above = bisect.bisect_left(others, True, key=lambda o: o - loc >= POLE_MERGE_TOL)
        return min(loc - others[below - 1], others[above] - loc)
    return [(loc, order, context(loc)) for loc, order in reversed(merged) if order > 0]


def _ring(context: np.ndarray):
    """Radii of the residue contours, one per pole, and the unit half ring.

    The radius is r = min(0.4*context, 0.5), where context is the distance
    to the nearest other pole; the unit half ring holds exp(2 pi i n / nodes)
    for n = 0, ..., nodes/2, the nodes on or above the real axis.
    """
    radius = np.minimum(RADIUS_SAFETY * context, MAX_CONTOUR_RADIUS)
    return radius, np.exp(2j * math.pi * np.arange(CONTOUR_NODES // 2 + 1) / CONTOUR_NODES)


def _ring_tables(network: NetworkConfig, shifts: np.ndarray, s0: np.ndarray, context: np.ndarray):
    """Every log_moment ring of a batch of residues, each evaluated once.

    Row r of the batch is the series term with shifts ``shifts[r]`` on the
    :func:`residue_at` half contour around s0[r].  Hop j meets the ring of
    centre s0 + lambda_j and the contour's radius, keyed as the one complex
    number centre + i*radius (by the radius, not the context: a lone pole's
    context is inf, and 1j*inf has a NaN real part); each distinct hop model
    takes one log_moment call on the distinct keys its hops meet, so a
    shifted ring that several terms and poles meet is evaluated once.
    Returns, per hop, the table of rings and the table row of each batch row.
    """
    models = [hop.model for hop in network.hops]
    radius, unit = _ring(context)
    rings = [None] * len(models)
    for model in dict.fromkeys(models):
        hops = [j for j, m in enumerate(models) if m == model]
        keys = s0 + shifts[:, hops].T + 1j * radius  # (hop, row): centre + i*radius
        distinct, inverse = np.unique(keys, return_inverse=True)
        table = log_moment(model, distinct.real[:, None] + distinct.imag[:, None] * unit)
        for j, index in zip(hops, inverse.reshape(keys.shape)):
            rings[j] = table, index
    return rings


def _integrand(rings, log_weight: np.ndarray, starts: np.ndarray, lambda_n: int, s: np.ndarray) -> np.ndarray:
    """The weighted residue-engine integrand of groups of series terms on their contours, minus xi^-s.

    Member r, one term, has the hop rings table[index[r]] of ``rings``
    (summed in hop order) and the weight e^log_weight[r]; group g holds the
    members from starts[g] up to the next start, and row g of s is its
    contour.  Row g is the weighted sum of its members' ring products times
    the prefactor gamma(s+lambda_N)/gamma(s+1), which is 1/s for
    lambda_N = 0 and the polynomial prod_{i=1..lambda_N-1}(s+i) otherwise.
    """
    values = np.add.reduceat(np.exp(sum(table[index] for table, index in rings) + log_weight[:, None]), starts)
    prefactor = 1.0 / s if lambda_n == 0 else math.prod((s + i for i in range(1, lambda_n)), start=1.0 + 0.0j)
    return np.multiply(prefactor, values)


def residue_at(f, s0, k, context):
    """Laurent data of f at real poles s0 of orders k, reduced where spurious.

    Returns [H(s0), H'(s0), ..., H^(k-1)(s0)] for H(s) = (s-s0)^k f(s); given
    arrays of (s0, k, context), one such list per pole.  One FFT of H on a
    circle of radius r = min(0.4*context, 0.5) gives its Taylor coefficients
    fft[n] / nodes / r^n: the trapezoidal rule, spectrally accurate and free
    of the cancellation of high-order finite differences.  f must be real on
    the real axis, f(conj s) = conj f(s), so that H is too: then f is taken
    on the nodes/2 + 1 nodes on or above the axis alone, and np.fft.hfft
    gives the real spectrum of the whole circle.  k drops while
    |H(s0)| is numerically zero (a hypergeometric zero cancelling a gamma
    pole): H/(s-s0) has H's coefficients shifted by one and scale max |H| / r,
    so a list's length is the effective order.  f takes all the half
    contours in one call, as an (R, nodes/2 + 1) array with a row per pole,
    and returns a new array; the first pole whose contour underflows or is
    ill-conditioned raises, naming its location.
    """
    scalar = np.ndim(s0) == 0
    s0, k, context = (np.atleast_1d(x) for x in (s0, k, context))
    radius, unit = _ring(context)
    ring = radius[:, None] * unit
    h_ring = f(s0[:, None] + ring)
    for order in set(k.tolist()):
        rows = k == order
        # operands in this order: numpy's complex product is not bit-symmetric
        h_ring[rows] = np.multiply(ring[rows] ** order, h_ring[rows])
    mags = np.abs(h_ring)
    lo, scale = mags.min(axis=-1), mags.max(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        bad = (scale == 0.0) | (lo == 0.0) | (scale / lo > _CONDITION_LIMIT)
    if bad.any():
        r = int(np.argmax(bad))
        if scale[r] == 0.0:
            raise IllConditionedContourError(
                f"the moment product underflows to 0 on the contour around the pole at "
                f"s = {s0[r]:g}, too far left of the leading pole; a --re-min (re_min) "
                f"nearer the leading pole avoids it"
            )
        raise IllConditionedContourError(
            f"|H| spans a ratio of {scale[r] / max(lo[r], 5e-324):.3e} on the contour around the pole "
            f"at s = {s0[r]:g}"
        )
    spectra = np.fft.hfft(h_ring, CONTOUR_NODES, axis=-1)
    out = []
    for spectrum, order, rad, top in zip(spectra, k.tolist(), radius.tolist(), scale):
        taylor = spectrum[:order] / CONTOUR_NODES / rad ** np.arange(order)
        while len(taylor) > 1 and abs(taylor[0]) < ORDER_DROP_TOL * top:
            taylor = taylor[1:]
            top /= rad
        out.append([float(c) * math.factorial(n) for n, c in enumerate(taylor)])
    return out[0] if scalar else out


def _residues(network: NetworkConfig, groups) -> list[list[float]]:
    """Laurent data of one residue per group, in the order of ``groups``.

    ``groups`` maps (lambda_N, location) to [order, context, top, members]:
    the largest order and the smallest context of its terms, their largest
    log weight, and the (shifts, log_weight) of each term.  A group's residue
    is that of the sum of its terms' integrands, each weighted by
    e^(log_weight - top), on the contour of its context at its order;
    residues are linear, so it is the weighted sum of the terms' residues.
    One :func:`_ring_tables` pass evaluates every ring the terms meet; then
    :func:`residue_at` takes the groups of one lambda_N RESIDUE_BLOCK at a
    time, and the first offending group raises, naming its lambda_N.
    """
    lambda_n, s0 = zip(*groups)
    k, context, top, members = zip(*groups.values())
    s0, k, context = np.array(s0), np.array(k), np.array(context)
    sizes = [len(rows) for rows in members]
    bounds = np.cumsum([0, *sizes])
    shifts = np.array([shifts for rows in members for shifts, _ in rows])
    log_weight = np.array([log_weight for rows in members for _, log_weight in rows]) - np.repeat(top, sizes)
    rings = _ring_tables(network, shifts, np.repeat(s0, sizes), np.repeat(context, sizes))
    out = []
    for lam, block in itertools.groupby(range(len(s0)), key=lambda_n.__getitem__):
        block = list(block)
        for lo in block[::RESIDUE_BLOCK]:
            hi = min(lo + RESIDUE_BLOCK, block[-1] + 1)
            rows = slice(bounds[lo], bounds[hi])
            f = functools.partial(_integrand, [(table, index[rows]) for table, index in rings],
                                  log_weight[rows], bounds[lo:hi] - bounds[lo], lam)
            try:
                out += residue_at(f, s0[lo:hi], k[lo:hi], context[lo:hi])
            except IllConditionedContourError as exc:
                raise IllConditionedContourError(f"in the lambda_N = {lam} terms, {exc}") from None
    return out


def _rebase_coefficients(sign: float, log_weight: float, derivs, s0: float, a_scale: float):
    """Turn residue Laurent data into ln(gamma_bar) polynomial coefficients.

    With k = len(derivs), the residue at s0 of xi^-s f(s) is
    xi^-s0 / (k-1)! * sum_m C(k-1,m) H^(k-1-m)(s0) (-ln xi)^m
    and xi = a_scale / gamma_bar, so (-ln xi)^m is expanded binomially in
    ln(gamma_bar), exactly.  The residue is weighted by
    sign * exp(log_weight) a_scale^-s0 / (k-1)!, taken as one exp so that it
    overflows only when the weight itself does.
    """
    k = len(derivs)
    ln_a = math.log(a_scale)
    try:
        pref = sign * math.exp(log_weight - s0 * ln_a - math.lgamma(k))
    except OverflowError:
        raise OverflowError(f"the residue at s = {s0:g} overflows a float: (gamma_t rho_N)^-s0 = "
                            f"{a_scale:g}^{-s0:g}, times e^{log_weight:g} / {k - 1}!") from None
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


def leading_term(network: NetworkConfig):
    """Rightmost non-origin pole of G(s) and its full residue polynomial.

    Returns (term, s0, k): the top term of the lambda_N = 0 expansion over
    the window Re(s) >= s0 - 0.5, an AsymptoteTerm in the ln(gamma_bar)
    basis (all log powers, not just the top one), its exponent s0 and its
    number of log powers k.  The diversity order is -s0.  It warns and
    raises where that build does.
    """
    top = build_expansion(network, 0, leading_pole(network)[0] - 0.5).terms[0]
    return top, top.exponent, len(top.log_coeffs)


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
    partial sum.  More than MAX_SERIES_TERMS series terms raise ValueError
    before any pole is listed, and so does a window with no residue
    (re_min > s0) once they are.  A residue weight, the term coefficient
    times (gamma_t rho_N)^-s0, that overflows a float raises OverflowError
    naming the prefactor, and an expansion whose every coefficient lies
    below ``_collect``'s trim floor raises ArithmeticError.  Warnings name
    the caller's line.
    """
    if lambda_max < 0:
        raise ValueError("lambda_max must be >= 0")
    n_terms = math.comb(lambda_max + network.n_hops - 1, network.n_hops - 1)
    if n_terms > MAX_SERIES_TERMS:
        raise ValueError(f"lambda_max = {lambda_max} gives {n_terms} series terms over {network.n_hops} "
                         f"hops, more than {MAX_SERIES_TERMS}")
    s0, k = leading_pole(network)
    last = lattice(network.hops[-1].model)[0]
    # Off the leading pole the constant is the binomial series of (rho + W)^-s0,
    # which the lambda <= -s0 terms sum exactly only for a simple pole at an integer s0.
    if s0 - last >= POLE_MERGE_TOL and not (k == 1 and s0 == round(s0) and lambda_max >= -s0):
        _warn(f"hop {network.n_hops} (pole {last:g}) is off the leading pole s0 = {s0:g}: "
              f"its lambda_max = {lambda_max} constant is a partial sum", TruncationWarning)
    if re_min is None:
        re_min = s0 - DEFAULT_RE_MIN_OFFSET
    a_scale = network.gamma_t * network.hops[-1].rho
    # plan: file each term under the (lambda_N, location) of each of its poles, keeping the group's
    # [largest order, smallest context, largest log weight, (shifts, log weight) of each term]
    groups: dict[tuple[int, float], list] = {}
    for lam in range(lambda_max + 1 if network.n_hops > 1 else 1):  # one hop: lambda = 0 alone
        for shifts, log_weight in _shift_terms(network, lam):
            for loc, order, context in enumerate_poles(network, shifts, re_min):
                if lam or abs(loc) >= POLE_MERGE_TOL:
                    group = groups.setdefault((lam, loc), [order, context, log_weight, []])
                    group[:3] = max(group[0], order), min(group[1], context), max(group[2], log_weight)
                    group[3].append((shifts, log_weight))
    if not groups:  # re_min > s0: no pole but the origin's is in the window
        raise ValueError(f"no residue in the window Re(s) >= {re_min:g}: the leading pole is s0 = {s0:g}")
    # (lambda_N, exponent, coefficients), one per residue, of sign -(-1)^lambda_N:
    # the term's sign times the -1 of the outage formula
    entries = [(lam, loc, _rebase_coefficients((-1.0) ** (lam + 1), top, derivs, loc, a_scale))
               for ((lam, loc), (_, _, top, _)), derivs in zip(groups.items(), _residues(network, groups))]
    terms = _collect(entries)
    if not terms:  # every coefficient trimmed: no power of gamma_bar is left to report
        raise ArithmeticError(f"every residue in Re(s) >= {re_min:g} is below the smallest coefficient "
                              "an expansion keeps")
    expansion = AsymptoticExpansion(terms, lambda_max, re_min, network)

    if warn_gamma_bar is not None and lambda_max >= 1:
        # the unclamped sums: a nonpositive one is the worst truncation of all
        hi_val = _term_sum(expansion.terms, warn_gamma_bar)
        lo_val = _term_sum(_collect(e for e in entries if e[0] < lambda_max), warn_gamma_bar)
        if hi_val <= 0 or abs(hi_val - lo_val) > 0.1 * hi_val:
            _warn(f"truncation orders {lambda_max} and {lambda_max - 1} sum to "
                  f"{hi_val:.3e} and {lo_val:.3e} at gamma_bar={warn_gamma_bar:g}", TruncationWarning)
    return expansion


def _term_sum(terms: tuple[AsymptoteTerm, ...], gamma_bar: float) -> float:
    """Sum of the terms at finite gamma_bar > 1, unclamped."""
    if not 1.0 < gamma_bar < math.inf:
        raise ValueError(f"gamma_bar must be finite and exceed 1 (ln gamma_bar > 0), got {gamma_bar}")
    return sum((term.evaluate(gamma_bar) for term in terms), 0.0)


def evaluate_expansion(expansion: AsymptoticExpansion, gamma_bar: float) -> float:
    """Evaluate the expansion at finite gamma_bar > 1, clamped to [0, 1]."""
    return min(max(_term_sum(expansion.terms, gamma_bar), 0.0), 1.0)
