"""Complex-argument special functions for the moment formulas.

Only the functions the channel moment formulas actually need are provided:
log-gamma on the complex plane, the confluent and Gauss hypergeometric
functions (analytic in their numerator parameters), and ln I0 for the
Rician/Hoyt densities.  All of them act elementwise on arrays, so a whole
residue contour is one call.
"""

from __future__ import annotations

import numpy as np
from scipy.special import i0e, loggamma

from .errors import ArgumentRangeError, PoleAtArgumentError, SeriesDivergenceError

GAMMA_POLE_TOL = 1e-12

#: Largest confluent-hypergeometric argument accepted by default; the Rician
#: K factor never exceeds this in supported configurations.
KUMMER_Z_BOUND = 30.0

_MAX_SERIES_TERMS = 20000


def log_gamma(z):
    """Principal branch of log-gamma, analytic off the negative real axis.

    Elementwise on a complex array (scalar in, scalar out).  Raises
    :class:`PoleAtArgumentError` if any element lies within 1e-12 of a
    non-positive integer.
    """
    z = np.asarray(z, dtype=complex)
    nearest = np.round(z.real)
    at_pole = (np.abs(z.imag) <= GAMMA_POLE_TOL) & (nearest <= 0) & (
        np.abs(z.real - nearest) <= GAMMA_POLE_TOL
    )
    if np.any(at_pole):
        raise PoleAtArgumentError(
            f"gamma evaluated within {GAMMA_POLE_TOL} of pole at {nearest[at_pole][0]:g}"
        )
    return loggamma(z)


def _check_denominator(fn: str, name: str, c: float) -> None:
    if c <= 0 and abs(c - round(c)) <= GAMMA_POLE_TOL:
        raise PoleAtArgumentError(f"{fn} undefined for {name}={c} (non-positive integer)")


def _series(numerators, c: float, z: float):
    """sum_k prod_i (a_i)_k / (c)_k z^k / k!, elementwise over the a_i arrays.

    Stops once every element's last term is below 1e-16 of its running sum.
    """
    numerators = [np.asarray(a, dtype=complex) for a in numerators]
    term = np.ones(np.broadcast(*numerators).shape, dtype=complex)
    total = term.copy()
    for k in range(_MAX_SERIES_TERMS):
        num = numerators[0] + k
        for a in numerators[1:]:
            num = num * (a + k)
        term = term * (num * z / ((c + k) * (k + 1)))
        total += term
        if k > 2 and np.all(np.abs(term) <= 1e-16 * np.abs(total)):
            return total[()]
    raise SeriesDivergenceError("hypergeometric series stalled before convergence")


def kummer_1f1(a, b: float, z: float, z_bound: float = KUMMER_Z_BOUND):
    """Confluent hypergeometric function 1F1(a, b; z) for real z, elementwise in a.

    Direct Taylor series with term-ratio stopping; entire in ``a``.  Negative
    arguments are routed through the Kummer transformation
    1F1(a,b;z) = e^z 1F1(b-a, b; -z) so the series never alternates.
    """
    b = float(b)
    z = float(z)
    if abs(z) > z_bound:
        raise ArgumentRangeError(
            f"1F1 argument |z|={abs(z):g} exceeds supported bound {z_bound:g}"
        )
    _check_denominator("1F1", "b", b)
    if z < 0:
        return np.exp(z) * _series([b - a], b, -z)
    return _series([a], b, z)


def gauss_2f1(a, b, c: float, z: float):
    """Gauss hypergeometric function 2F1(a, b; c; z) on 0 <= z < 1, elementwise in a, b.

    Gauss series for z <= 0.75.  Closer to the convergence boundary the Euler
    transformation 2F1(a,b;c;z) = (1-z)^(c-a-b) 2F1(c-a, c-b; c; z) is used,
    where the transformed series converges for the parameter combinations the
    Hoyt moments produce as q -> 0.
    """
    c = float(c)
    z = float(z)
    if z < 0.0:
        raise ArgumentRangeError(f"2F1 argument z={z:g} below supported range")
    if z >= 1.0:
        raise SeriesDivergenceError(f"2F1 series diverges at z={z:g} >= 1")
    _check_denominator("2F1", "c", c)
    if z > 0.75:
        pref = np.exp((c - a - b) * np.log1p(-z))
        return pref * _series([c - a, c - b], c, z)
    return _series([a, b], c, z)


def log_bessel_i0(x):
    """ln I0(x), even in x, safe where I0 itself would overflow."""
    x = np.abs(x)
    return x + np.log(i0e(x))
