"""Complex-argument special functions for the moment formulas.

Only the functions the channel moment formulas actually need are provided:
log-gamma on the complex plane, the confluent hypergeometric function
1F1(a; 1; z) by its Taylor series, the Gauss function 2F1(a, 1/2; 1; 1-p) by
a polar midpoint rule whose nodes the Hoyt distribution function shares,
and ln I0 for the Rician/Hoyt densities.  The first three act elementwise on
arrays of their first argument, so a whole residue contour is one call.
None checks for poles: ``channels.log_moment`` refuses its lattice's poles
before it calls in here.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import i0e, loggamma

from .errors import ArgumentRangeError, SeriesDivergenceError

#: Largest confluent-hypergeometric argument accepted; the Rician
#: K factor never exceeds this in supported configurations.
KUMMER_Z_BOUND = 30.0

_MAX_SERIES_TERMS = 20000

#: Most (element, polar node) pairs one :func:`gauss_2f1` step holds, 256 kB
#: of complex temporary (one element per step if it has more nodes).
_GAUSS_CHUNK = 1 << 14


def log_gamma(z):
    """Principal branch of log-gamma, analytic off the negative real axis.

    Elementwise on a complex array (scalar in, scalar out).  It checks no
    poles: its one caller, :func:`relayasym.channels.log_moment`, refuses
    arguments on the moment's pole lattice first.
    """
    return loggamma(np.asarray(z, dtype=complex))


def kummer_1f1(a, z: float):
    """Confluent hypergeometric function 1F1(a; 1; z) for real z, elementwise in a.

    The Rician moment needs only b = 1.  The Taylor series
    sum_k (a)_k z^k / (k!)^2, each element stopped once its own last term
    is below 1e-16 of its running sum (its later terms are zeroed), so an
    element's value does not depend on the rest of the array; entire in
    ``a``.  The moments pass z = K >= 0, where the series does not
    alternate; a negative z takes the same series.
    """
    z = float(z)
    if abs(z) > KUMMER_Z_BOUND:
        raise ArgumentRangeError(
            f"1F1 argument |z|={abs(z):g} exceeds supported bound {KUMMER_Z_BOUND:g}"
        )
    a = np.asarray(a, dtype=complex)
    flat = a.reshape(-1)  # a scalar takes the array arithmetic too
    term = np.ones_like(flat)
    total = term.copy()
    for k in range(_MAX_SERIES_TERMS):
        term = term * ((flat + k) * z / ((1.0 + k) * (k + 1)))
        total += term
        if k > 2:
            converged = np.abs(term) <= 1e-16 * np.abs(total)
            if converged.all():
                return total.reshape(a.shape)[()]
            term[converged] = 0.0
    raise SeriesDivergenceError("hypergeometric series stalled before convergence")


def polar_nodes(p: float) -> np.ndarray:
    """cos^2 phi + p sin^2 phi at the m midpoints of [0, pi/2], 0 < p <= 1.

    The mean over these nodes of a function g(cos^2 phi + p sin^2 phi) is the
    midpoint rule for its mean over a period.  With p = q^2 the node function
    vanishes at imaginary distance atanh q from the real phi axis, so the rule
    converges geometrically (Trefethen & Weideman, SIAM Rev. 56, 2014);
    m = ceil(10/atanh q) nodes keep the error near e^-40 (m = 10,000 at
    q = 1e-3).  The sum is formed directly: near phi = pi/2, where the node
    value falls to p, 1 - (1-p) sin^2 phi would lose about six digits at
    that q.
    """
    p = float(p)
    if not 0.0 < p <= 1.0:
        raise ArgumentRangeError(f"polar node parameter p={p:g} outside (0, 1]")
    q = math.sqrt(p)
    m = math.ceil(10.0 / math.atanh(q)) if q < 1.0 else 1
    phi = (np.arange(m) + 0.5) * (0.5 * math.pi / m)
    return np.cos(phi) ** 2 + p * np.sin(phi) ** 2


def gauss_2f1(a, p: float):
    """2F1(a, 1/2; 1; 1 - p) for 0 < p <= 1, elementwise in complex a.

    Legendre's form: the mean over phi of (cos^2 phi + p sin^2 phi)^-a,
    taken by the midpoint rule on :func:`polar_nodes`.  The argument is given
    as its complement p, which keeps it exact as 1 - p -> 1.  The elements
    of ``a`` go through in chunks of at most ``_GAUSS_CHUNK`` (element,
    node) pairs, so a long array never holds its whole outer product.
    """
    log_v = np.log(polar_nodes(p))
    a = np.asarray(a, dtype=complex)
    flat = a.reshape(-1)
    out = np.empty_like(flat)
    step = max(1, _GAUSS_CHUNK // log_v.size)
    for lo in range(0, flat.size, step):
        powers = np.multiply.outer(-flat[lo:lo + step], log_v)
        out[lo:lo + step] = np.exp(powers, out=powers).mean(axis=-1)
    return out.reshape(a.shape)[()]


def log_bessel_i0(x):
    """ln I0(x), even in x, safe where I0 itself would overflow."""
    x = np.abs(x)
    return x + np.log(i0e(x))
