import math

import pytest

from relayasym.channels import HOYT, NAKAGAMI, RICIAN, WEIBULL, FadingModel, HopConfig, NetworkConfig

F = FadingModel


def make_network(models, rhos=None, gamma_t=1.0) -> NetworkConfig:
    if rhos is None:
        rhos = [1.0] * len(models)
    hops = tuple(HopConfig(m, r) for m, r in zip(models, rhos))
    return NetworkConfig(hops=hops, gamma_t=gamma_t)


def rayleigh_chain(n, gamma_t=1.0) -> NetworkConfig:
    return make_network([F.nakagami(1.0) for _ in range(n)], gamma_t=gamma_t)


def xi(network: NetworkConfig, gamma_bar):
    """Per-hop normalized thresholds rho_n * gamma_t / gamma_bar."""
    return [h.rho * network.gamma_t / gamma_bar for h in network.hops]


def log_log_diversity(gamma_bar: float, p: float) -> float:
    """Origin-anchored log-log slope -ln p / ln gamma_bar.

    This is the finite-SNR diversity the lnln-corrected formula expands:
    for p ~ C (ln g)^(k-1) g^s0 it equals -s0 - (k-1) lnln g/ln g - ln C/ln g.
    A two-point difference quotient instead estimates the local derivative,
    whose correction is (k-1)/ln g, a different (and larger) quantity at any
    finite SNR.
    """
    if gamma_bar <= 1.0 or p <= 0.0:
        raise ValueError("need gamma_bar > 1 and p > 0")
    return -math.log(p) / math.log(gamma_bar)


# The seven reference configurations (theta = rho = 1, gamma_t = 0 dB).
REFERENCE_CONFIGS = {
    "nak3": make_network([F.nakagami(2.2), F.nakagami(1.8), F.nakagami(1.8)]),
    "wei4": make_network([F.weibull(2.2), F.weibull(1.8), F.weibull(1.8), F.weibull(1.8)]),
    "ric3": make_network([F.rician(1.0), F.rician(3.0), F.rician(5.0)]),
    "ric4": make_network([F.rician(1.0), F.rician(3.0), F.rician(5.0), F.rician(0.0)]),
    "hoyt3": make_network([F.hoyt(0.75), F.hoyt(0.5), F.hoyt(1.0 / 3.0)]),
    "hoyt4": make_network([F.hoyt(0.75), F.hoyt(0.5), F.hoyt(1.0 / 3.0), F.hoyt(0.25)]),
    "inhom": make_network([F.weibull(2.0), F.rician(1.0), F.hoyt(0.5)]),
}


@pytest.fixture(scope="session")
def reference_configs():
    return REFERENCE_CONFIGS


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
        raise ValueError("closed form is for two hops")
    theta1 = _as_exponential_mean(network.hops[0].model)
    theta2 = _as_exponential_mean(network.hops[1].model)
    xi1, xi2 = xi(network, gamma_bar)
    z = 2.0 * math.sqrt(xi2 / (theta1 * theta2))
    return 1.0 - math.exp(-xi1 / theta1) * z * bessel_k1(z)
