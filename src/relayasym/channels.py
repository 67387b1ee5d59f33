"""Fading-channel gain models, and the relay networks built from them.

Each model describes the distribution of a per-hop channel power gain:
density, distribution function and a power-law bound on it, complex-order
moments, the pole lattice of the moment function, and random sampling.  The
supported families (Nakagami-m, Weibull, Rician, Hoyt) all have moments that
decay fast enough in the left half-plane for the residue machinery in
:mod:`relayasym.mellin` to apply; heavier-tailed models such as log-normal
are rejected outright.  A :class:`NetworkConfig` (hops with their noise
factors rho, and the threshold gamma_t) is the input all three engines
share, so it lives here, below them.  Models are checked once, by
:func:`validate_model` when a network is built; the functions below trust
their model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import chndtr, gammainc, xlogy

from . import specfun
from .errors import ModelValidationError, PoleAtArgumentError

NAKAGAMI = "nakagami"
WEIBULL = "weibull"
RICIAN = "rician"
HOYT = "hoyt"

SUPPORTED_FAMILIES = (NAKAGAMI, WEIBULL, RICIAN, HOYT)

#: Two pole locations closer than this are treated as coincident.
POLE_MERGE_TOL = 1e-9

#: Most moment poles one window may hold.  Windows that build hold a few
#: hundred at most; a wider or finer one would take minutes of residue work.
MAX_LATTICE_POLES = 2_000

#: Hoyt axial ratios below this would need more than 10,000 polar nodes
#: (see specfun.polar_nodes) per moment or distribution-function call.
HOYT_Q_MIN = 1e-3


@dataclass(frozen=True)
class FadingModel:
    """A fading family with shape and scale parameters.

    ``shape`` is m for Nakagami/Weibull, the K factor for Rician and the
    axial ratio q for Hoyt.  ``scale`` is the theta parameter of each
    density: the mean gain is m*theta (Nakagami), theta*Gamma(1+1/m)
    (Weibull) and theta (Rician, Hoyt).
    """

    variant: str
    shape: float
    scale: float = 1.0

    @classmethod
    def nakagami(cls, m: float, theta: float = 1.0) -> "FadingModel":
        return cls(NAKAGAMI, m, theta)

    @classmethod
    def weibull(cls, m: float, theta: float = 1.0) -> "FadingModel":
        return cls(WEIBULL, m, theta)

    @classmethod
    def rician(cls, k_factor: float, theta: float = 1.0) -> "FadingModel":
        return cls(RICIAN, k_factor, theta)

    @classmethod
    def hoyt(cls, q: float, theta: float = 1.0) -> "FadingModel":
        return cls(HOYT, q, theta)


@dataclass(frozen=True)
class HopConfig:
    """One hop of the relay chain: fading model plus noise-scaling factor."""

    model: FadingModel
    rho: float = 1.0


def validate_model(model: FadingModel) -> None:
    """Check family and parameter ranges; raise ModelValidationError if bad."""
    if model.variant not in SUPPORTED_FAMILIES:
        raise ModelValidationError(
            f"unsupported fading family {model.variant!r}; "
            f"supported: {', '.join(SUPPORTED_FAMILIES)}"
        )
    shape, scale = model.shape, model.scale
    if not (math.isfinite(scale) and scale > 0):
        raise ModelValidationError(f"scale must be positive and finite, got {scale}")
    if not math.isfinite(shape):
        raise ModelValidationError(f"shape must be finite, got {shape}")
    if model.variant in (NAKAGAMI, WEIBULL):
        if shape <= 0:
            raise ModelValidationError(f"{model.variant} shape m={shape} out of range (m > 0)")
    elif model.variant == RICIAN:
        if shape < 0:
            raise ModelValidationError(f"rician K={shape} out of range (K >= 0)")
    else:  # hoyt
        if not (0 < shape <= 1):
            raise ModelValidationError(f"hoyt q={shape} out of range (0 < q <= 1)")
        if shape < HOYT_Q_MIN:
            raise ModelValidationError(
                f"hoyt q={shape} below {HOYT_Q_MIN}: too many polar quadrature nodes"
            )


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


def lattice(model: FadingModel) -> tuple[float, float]:
    """(r0, step): the moment's poles are r0 - step*j for j = 0, 1, 2, ...

    They are the simple poles of Gamma(s + m) (Nakagami), Gamma((s + m)/m)
    (Weibull) and Gamma(s + 1) (Rician, Hoyt), on the real axis.
    """
    if model.variant == NAKAGAMI:
        return -model.shape, 1.0
    if model.variant == WEIBULL:
        return -model.shape, model.shape
    return -1.0, 1.0


def _lattice_distance(model: FadingModel, s: np.ndarray) -> np.ndarray:
    """Distance from each element of s to the nearest pole of the model's moment function."""
    r0, step = lattice(model)
    j = np.maximum(0.0, np.round((r0 - s.real) / step))
    return np.abs(s - (r0 - step * j))


def pdf(model: FadingModel, x):
    """Channel gain density at x (zero for x < 0).

    Elementwise on an array x (scalar in, scalar out).  Evaluated in log space
    where the density contains I0 factors, so Rician and Hoyt tails never
    overflow.
    """
    x = np.asarray(x, dtype=float)
    y = np.maximum(x, 0.0)
    shape, theta = model.shape, model.scale
    # y^(m-1) takes ln 0 at y = 0, and a large Weibull shape's (y/theta)^m
    # overflows to inf; the density that follows is right either way
    with np.errstate(divide="ignore", over="ignore"):
        if model.variant in (NAKAGAMI, WEIBULL):
            # omega/nu theta^-m y^(m-1) exp(-(y/theta)^omega), the unified density,
            # with ln(omega/nu) from lgamma: Gamma(m) overflows past m = 171.6
            omega, log_norm = (1.0, -math.lgamma(shape)) if model.variant == NAKAGAMI else (shape, math.log(shape))
            log_p = (
                log_norm
                - shape * math.log(theta)
                + xlogy(shape - 1.0, y)
                - (y / theta) ** omega
            )
        elif model.variant == RICIAN:
            k = shape
            arg = np.sqrt(4.0 * k * (k + 1.0) * y / theta)
            log_p = math.log((k + 1.0) / theta) - k - (k + 1.0) * y / theta + specfun.log_bessel_i0(arg)
        else:  # hoyt
            q2 = shape * shape
            decay = (1.0 + q2) ** 2 * y / (4.0 * q2 * theta)
            arg = (1.0 - q2 * q2) * y / (4.0 * q2 * theta)
            log_p = math.log((1.0 + q2) / (2.0 * shape * theta)) - decay + specfun.log_bessel_i0(arg)
    return np.where(x < 0.0, 0.0, np.exp(log_p))[()]


def cdf(model: FadingModel, x):
    """Outage mass P(X <= x) of the channel gain, elementwise on x >= 0.

    Each family's form stays accurate in relative terms as x -> 0, with no
    1 - survival step.  The Hoyt gain is s1 Z1^2 + s2 Z2^2 for independent
    standard normals; in polar coordinates its CDF is the mean over phi of
    1 - exp(-x/(2 v(phi))), v(phi) = s1 cos^2 phi + s2 sin^2 phi, taken by
    the midpoint rule on :func:`specfun.polar_nodes`, as the Hoyt moment is.
    """
    x = np.asarray(x, dtype=float)
    shape, theta = model.shape, model.scale
    if model.variant == NAKAGAMI:
        return gammainc(shape, x / theta)
    if model.variant == WEIBULL:
        with np.errstate(over="ignore"):  # (x/theta)^m = inf gives the right CDF 1
            return -np.expm1(-((x / theta) ** shape))
    if model.variant == RICIAN:
        # noncentral chi-square with 2 degrees of freedom and noncentrality 2K
        k = shape
        return chndtr(x * (2.0 * (k + 1.0) / theta), 2.0, 2.0 * k)
    q2 = shape * shape
    v = theta * specfun.polar_nodes(q2) / (1.0 + q2)
    total = np.zeros_like(x)
    for vj in v:
        total -= np.expm1(x * (-0.5 / vj))
    return (total / len(v))[()]


def log_cdf_bound(model: FadingModel) -> tuple[float, float, float]:
    """(ln c, a, b) with F(x) <= c x^a e^{b x} for every x > 0, a = -r0 of :func:`lattice`.

    Nakagami gamma(m, u)/Gamma(m) <= u^m/Gamma(m + 1) and Weibull
    1 - e^-u <= u, u = x/theta; the Hoyt density falls from
    f(0) = (1 + q^2)/(2 q theta), and I0(z) <= e^{z^2/4} bounds the Rician
    one by f(0) e^{(K^2 - 1) x/theta}, f(0) = (K + 1) e^-K/theta.
    """
    shape, theta = model.shape, model.scale
    a = -lattice(model)[0]
    if model.variant == NAKAGAMI:
        return -shape * math.log(theta) - math.lgamma(shape + 1.0), a, 0.0
    if model.variant == WEIBULL:
        return -shape * math.log(theta), a, 0.0
    if model.variant == HOYT:
        return math.log((1.0 + shape * shape) / (2.0 * shape * theta)), a, 0.0
    return math.log((shape + 1.0) / theta) - shape, a, max(0.0, (shape * shape - 1.0) / theta)


def log_moment(model: FadingModel, s):
    """Principal-branch log of E[X^s]; the building block of moment products.

    Elementwise on a complex array s (scalar in, scalar out), so a whole
    residue contour is one call.  Raises PoleAtArgumentError if any element
    lies within POLE_MERGE_TOL of a pole.
    """
    s = np.asarray(s, dtype=complex)
    near = _lattice_distance(model, s) < POLE_MERGE_TOL
    if np.any(near):
        raise PoleAtArgumentError(
            f"moment of {model.variant} evaluated within {POLE_MERGE_TOL} of a pole "
            f"at s={s[near][0]}"
        )
    shape, theta = model.shape, model.scale
    if model.variant == NAKAGAMI:
        return s * math.log(theta) + specfun.log_gamma(s + shape) - specfun.log_gamma(shape)
    if model.variant == WEIBULL:
        return s * math.log(theta) + specfun.log_gamma((s + shape) / shape)
    if model.variant == RICIAN:
        k = shape
        return (
            -k
            + s * math.log(theta / (k + 1.0))
            + specfun.log_gamma(s + 1.0)
            + np.log(specfun.kummer_1f1(s + 1.0, k))
        )
    # X = R^2 v(phi) with R^2 ~ Exp(mean 2) and phi uniform (see cdf), so
    # E[X^s] = (2 theta/(1+q^2))^s Gamma(1+s) mean_phi (cos^2 + q^2 sin^2)^s
    q2 = shape * shape
    return (
        s * math.log(2.0 * theta / (1.0 + q2))
        + specfun.log_gamma(s + 1.0)
        + np.log(specfun.gauss_2f1(-s, q2))
    )


def mellin_poles(model: FadingModel, re_min: float) -> list[float]:
    """The poles r0 - step*j of s -> E[X^s] that are >= re_min, rightmost first.

    Listed from the :func:`lattice` formula that :func:`log_moment`'s pole
    check uses, as Python floats.  Each is simple: the hypergeometric factors
    are entire in s, and orders add up across hops in the mellin module.  A
    window of more than MAX_LATTICE_POLES poles raises ValueError before any
    is listed, as does a re_min that is not finite.
    """
    if not math.isfinite(re_min):
        raise ValueError(f"re_min must be finite, got {re_min}")
    r0, step = lattice(model)
    count = (r0 - re_min) / step
    if count >= MAX_LATTICE_POLES:
        raise ValueError(
            f"Re(s) >= {re_min:g} holds more than {MAX_LATTICE_POLES} poles of the "
            f"{model.variant} moment (spacing {step:g})"
        )
    out = []
    # one candidate past the floor, so rounding in the quotient drops no pole
    for j in range(math.floor(count) + 2):
        loc = float(r0 - step * j)
        if loc >= re_min:
            out.append(loc)
    return out


#: Draws per piece of the second Gaussian of the Rician and Hoyt samplers,
#: so their temporaries stay at 128 kB whatever the size of ``out``.
SAMPLE_PIECE = 1 << 14


def sample(model: FadingModel, gen: np.random.Generator, size: int, out: np.ndarray | None = None):
    """Draw ``size`` channel gains with density pdf(model, .) from ``gen``.

    ``out``, a C-contiguous float64 array of ``size`` elements, receives the
    gains and is returned; without it a new array is.  Each family computes
    in place with the draws, order and rounding of theta G,
    theta (-ln(1-U))^(1/m), c ((Z1 + sqrt(2K))^2 + Z2^2) and
    s1 Z1 Z1 + s2 Z2 Z2, so a generator gives the same gains with or without
    ``out``, and consecutive calls continue its stream.
    """
    shape, theta = model.shape, model.scale
    x = out if out is not None else np.empty(size)
    if model.variant == NAKAGAMI:
        gen.standard_gamma(shape, out=x)
        x *= theta
    elif model.variant == WEIBULL:
        gen.random(out=x)
        np.negative(x, out=x)
        np.log1p(x, out=x)
        np.negative(x, out=x)
        x **= 1.0 / shape
        x *= theta
    else:
        # Z1 fills x first; Z2 follows in pieces, each added to its slice.
        gen.standard_normal(out=x)
        flat = x.reshape(-1)
        z2 = np.empty(min(SAMPLE_PIECE, flat.size))
        if model.variant == RICIAN:
            x += math.sqrt(2.0 * shape)
            x *= x
            for lo in range(0, flat.size, SAMPLE_PIECE):
                part = flat[lo:lo + SAMPLE_PIECE]
                z = gen.standard_normal(out=z2[:part.size])
                z *= z
                part += z
            x *= theta / (2.0 * (shape + 1.0))
        else:  # hoyt: (s Z) Z per term, as s * Z * Z evaluates
            q2 = shape ** 2
            s1 = theta / (1.0 + q2)
            s2 = theta * q2 / (1.0 + q2)
            scaled = np.empty_like(z2)
            for lo in range(0, flat.size, SAMPLE_PIECE):
                part = flat[lo:lo + SAMPLE_PIECE]
                t = np.multiply(part, s1, out=scaled[:part.size])
                part *= t
                z = gen.standard_normal(out=z2[:part.size])
                np.multiply(z, s2, out=t)
                z *= t
                part += z
    return x
