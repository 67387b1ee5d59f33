"""Independent references for the benchmark's output checks.

Nothing in this module imports ``relayasym``.  The fading families are
written out again from their textbook formulas with ``scipy.special``,
``numpy`` samplers and ``mpmath``:

- one-hop CDFs in closed form (regularized incomplete gamma for Nakagami,
  ``expm1`` for Weibull, Poisson-mixture and Bessel-series forms for Rician
  and Hoyt);
- the two-hop Rayleigh outage ``1 - exp(-xi1) z K1(z)`` with
  ``scipy.special.k1``;
- the outage mass with hop 1 integrated out in closed form,
  ``E[F1(gamma_t (rho1 + rho2/X2 + rho3/(X2 X3)) / gamma_bar)]``, by a
  composite Gauss-Legendre rule in log-gain variables (N <= 3) and by
  conditional sampling (any N);
- the leading residue of ``G(s)/s`` by a 64-node contour at 40 digits in
  mpmath;
- every term of the truncated expansion, from the residues of each weak
  composition's integrand in mpmath (``expansion_terms``), and the band
  around the exact outage that each truncation order keeps.

Run ``python3 bench/refs.py`` from the repository root to regenerate
``bench/refs.json``, the stored values the checks read.
"""

from __future__ import annotations

import json
import math
import sys
import time
from pathlib import Path

import mpmath
import numpy as np
import scipy
from scipy import special

BENCH_DIR = Path(__file__).resolve().parent
REFS_PATH = BENCH_DIR / "refs.json"

#: Log-gain integration range and Gauss-Legendre panels of the quadrature.
T_LO, T_HI = -45.0, 6.0
GL_NODES = 16

#: SNR grids (dB) the stored references cover.
ORACLE_DBS = (20, 30, 40, 50, 60)
SWEEP_DBS = (20, 25, 30)
CMC_SAMPLES = 1 << 24


# ---------------------------------------------------------------------------
# Networks as plain data
# ---------------------------------------------------------------------------


def hop(family: str, shape: float, theta: float = 1.0, rho: float = 1.0) -> dict:
    return {"family": family, "shape": float(shape), "theta": float(theta), "rho": float(rho)}


def load_config(path) -> dict:
    """Read a repository config JSON into {"gamma_t", "hops"} without the package."""
    doc = json.loads(Path(path).read_text())
    if "gamma_t" in doc:
        gamma_t = float(doc["gamma_t"])
    else:
        gamma_t = 10.0 ** (float(doc.get("gamma_t_db", 0.0)) / 10.0)
    hops = []
    for entry in doc["hops"]:
        shape = next(entry[k] for k in ("m", "K", "q") if k in entry)
        hops.append(hop(entry["fading"].lower(), shape, entry.get("theta", 1.0), entry.get("rho", 1.0)))
    return {"gamma_t": gamma_t, "hops": hops}


def nak8() -> dict:
    """The fixed 8-hop Nakagami chain of the asymptote workload."""
    ms = (2.2, 1.8, 1.6, 2.5, 2.1, 2.9, 1.7, 1.3)
    return {"gamma_t": 1.0, "hops": [hop("nakagami", m) for m in ms]}


# ---------------------------------------------------------------------------
# One-hop distributions
# ---------------------------------------------------------------------------


def _hoyt_params(q: float, theta: float):
    q2 = q * q
    amp = (1.0 + q2) / (2.0 * q * theta)
    a = (1.0 + q2) ** 2 / (4.0 * q2 * theta)
    b = (1.0 - q2 * q2) / (4.0 * q2 * theta)
    return amp, a, b


def cdf(h: dict, x):
    """P(X <= x) for one hop's gain, vectorised over x >= 0."""
    x = np.asarray(x, dtype=float)
    fam, shape, theta = h["family"], h["shape"], h["theta"]
    if fam == "nakagami":
        return special.gammainc(shape, x / theta)
    if fam == "weibull":
        return -np.expm1(-((x / theta) ** shape))
    if fam == "rician":
        # Poisson(K) mixture of Gamma(j+1) CDFs at (K+1) x / theta.
        y = (shape + 1.0) * x / theta
        total = np.zeros_like(y)
        j = 0
        while True:
            w = math.exp(-shape + j * math.log(shape) - math.lgamma(j + 1)) if shape > 0 else float(j == 0)
            total += w * special.gammainc(j + 1.0, y)
            if j > shape and w < 1e-18:
                return total
            j += 1
    if fam == "hoyt":
        # Integrate the I0 power series term by term:
        # F(x) = 2q/(1+q^2) sum_k C(2k,k) (r/2)^(2k) P(2k+1, a x).
        q = shape
        _, a, b = _hoyt_params(q, theta)
        r = b / a
        total = np.zeros_like(x)
        k = 0
        while True:
            w = math.exp(math.lgamma(2 * k + 1) - 2 * math.lgamma(k + 1) + 2 * k * math.log(r / 2.0)) if r > 0 else float(k == 0)
            total += w * special.gammainc(2 * k + 1.0, a * x)
            if w < 1e-18:
                return 2.0 * q / (1.0 + q * q) * total
            k += 1
    raise ValueError(f"unknown family {fam!r}")


def log_xpdf(h: dict, t):
    """log(x f(x)) at x = e^t: the density of the log-gain."""
    t = np.asarray(t, dtype=float)
    x = np.exp(t)
    fam, shape, theta = h["family"], h["shape"], h["theta"]
    if fam == "nakagami":
        return shape * (t - math.log(theta)) - x / theta - special.gammaln(shape)
    if fam == "weibull":
        return math.log(shape) + shape * (t - math.log(theta)) - (x / theta) ** shape
    if fam == "rician":
        k = shape
        z = 2.0 * np.sqrt(k * (k + 1.0) * x / theta)
        return math.log((k + 1.0) / theta) + t - k - (k + 1.0) * x / theta + np.log(special.i0e(z)) + z
    if fam == "hoyt":
        amp, a, b = _hoyt_params(shape, theta)
        return math.log(amp) + t - a * x + np.log(special.i0e(b * x)) + b * x
    raise ValueError(f"unknown family {fam!r}")


def draw(h: dict, rng: np.random.Generator, size: int) -> np.ndarray:
    """Gains of one hop, drawn with numpy's own samplers."""
    fam, shape, theta = h["family"], h["shape"], h["theta"]
    if fam == "nakagami":
        return rng.gamma(shape, theta, size)
    if fam == "weibull":
        return theta * rng.weibull(shape, size)
    if fam == "rician":
        return theta / (2.0 * (shape + 1.0)) * rng.noncentral_chisquare(2.0, 2.0 * shape, size)
    if fam == "hoyt":
        q2 = shape * shape
        z1 = rng.standard_normal(size)
        z2 = rng.standard_normal(size)
        return theta / (1.0 + q2) * z1 * z1 + theta * q2 / (1.0 + q2) * z2 * z2
    raise ValueError(f"unknown family {fam!r}")


# ---------------------------------------------------------------------------
# Outage references
# ---------------------------------------------------------------------------


def _xis(net: dict, gamma_bar: float) -> list[float]:
    return [h["rho"] * net["gamma_t"] / gamma_bar for h in net["hops"]]


def _gl_grid(panel: float):
    x, w = np.polynomial.legendre.leggauss(GL_NODES)
    edges = np.arange(T_LO, T_HI + 1e-12, panel)
    mid = 0.5 * (edges[1:] + edges[:-1])[:, None]
    half = 0.5 * panel
    return (mid + half * x).ravel(), np.broadcast_to(half * w, (len(edges) - 1, GL_NODES)).ravel()


def outage_quadrature(net: dict, gamma_bar: float, panel: float = 0.5) -> float:
    """E[F1(xi1 + xi2/X2 + xi3/(X2 X3))] for N <= 3 by Gauss-Legendre in log gains."""
    hops = net["hops"]
    xi = _xis(net, gamma_bar)
    if len(hops) == 1:
        return float(cdf(hops[0], xi[0]))
    t, w = _gl_grid(panel)
    w2 = w * np.exp(log_xpdf(hops[1], t))
    if len(hops) == 2:
        return float(np.dot(w2, cdf(hops[0], xi[0] + xi[1] * np.exp(-t))))
    if len(hops) == 3:
        w3 = w * np.exp(log_xpdf(hops[2], t))
        inv2 = np.exp(-t)[:, None]
        u = xi[0] + xi[1] * inv2 + xi[2] * inv2 * np.exp(-t)[None, :]
        return float(w2 @ cdf(hops[0], u) @ w3)
    raise ValueError("quadrature reference covers N <= 3")


def outage_conditional_mc(net: dict, gamma_bar: float, n: int, seed: int, chunk: int = 1 << 20):
    """(mean, standard error) of F1(sum_n xi_n / prod_{1<j<=n} X_j) over sampled X_2..X_N."""
    hops = net["hops"]
    xi = _xis(net, gamma_bar)
    rng = np.random.Generator(np.random.Philox(seed))
    s1 = s2 = 0.0
    done = 0
    while done < n:
        size = min(chunk, n - done)
        u = np.full(size, xi[0])
        inv = np.ones(size)
        for h, x_n in zip(hops[1:], xi[1:]):
            inv = inv / draw(h, rng, size)
            u += x_n * inv
        v = cdf(hops[0], u)
        s1 += float(v.sum())
        s2 += float(np.dot(v, v))
        done += size
    mean = s1 / n
    var = max(s2 / n - mean * mean, 0.0)
    return mean, math.sqrt(var / n)


def rayleigh2_closed_form(net: dict, gamma_bar: float) -> float:
    """1 - exp(-xi1/t1) z K1(z), z = 2 sqrt(xi2/(t1 t2)), with scipy's K1."""
    h1, h2 = net["hops"]
    xi1, xi2 = _xis(net, gamma_bar)
    z = 2.0 * math.sqrt(xi2 / (h1["theta"] * h2["theta"]))
    return float(-math.expm1(-xi1 / h1["theta"]) + math.exp(-xi1 / h1["theta"]) * (1.0 - z * special.k1(z)))


# ---------------------------------------------------------------------------
# Pole arithmetic and the leading residue
# ---------------------------------------------------------------------------

POLE_TOL = 1e-9
#: The expansion window [s0 - RE_MIN_OFFSET, s0], the package's default.
RE_MIN_OFFSET = 1.5
#: Truncation orders of the asymptote workload's expansions.
LAMBDAS = (2, 3)
#: An expansion value may sit BAND_FACTOR times as far from the exact outage
#: as the reference expansion of the same order, plus BAND_FLOOR * outage.
BAND_FACTOR = 1.5
BAND_FLOOR = 1e-8


def _rightmost(h: dict) -> float:
    return -h["shape"] if h["family"] in ("nakagami", "weibull") else -1.0


def _lattice(h: dict, re_min: float) -> list[float]:
    """Poles of s -> E[X^s] with Re(s) >= re_min, rightmost first."""
    step = h["shape"] if h["family"] == "weibull" else 1.0
    out = []
    loc = _rightmost(h)
    while loc >= re_min:
        out.append(loc)
        loc -= step
    return out


def leading_pole(net: dict) -> tuple[float, int]:
    """Rightmost pole s0 of G(s) = prod E[X_n^s] and the number of hops that share it."""
    rights = [_rightmost(h) for h in net["hops"]]
    s0 = max(rights)
    return s0, sum(1 for r in rights if abs(r - s0) < POLE_TOL)


def _mp_moment(h: dict, s):
    fam, shape, theta = h["family"], mpmath.mpf(h["shape"]), mpmath.mpf(h["theta"])
    if fam == "nakagami":
        return theta**s * mpmath.gamma(s + shape) / mpmath.gamma(shape)
    if fam == "weibull":
        return theta**s * mpmath.gamma(1 + s / shape)
    if fam == "rician":
        return mpmath.exp(-shape) * (theta / (shape + 1)) ** s * mpmath.gamma(s + 1) * mpmath.hyp1f1(s + 1, 1, shape)
    if fam == "hoyt":
        q2 = shape * shape
        z = ((1 - q2) / (1 + q2)) ** 2
        return (2 * shape / (1 + q2)) ** (2 * s + 1) * theta**s * mpmath.gamma(s + 1) * mpmath.hyp2f1((s + 1) / 2, (s + 2) / 2, 1, z)
    raise ValueError(f"unknown family {fam!r}")


def _ring(radius: float, nodes: int) -> list:
    r = mpmath.mpf(radius)
    return [mpmath.expjpi(mpmath.mpf(2 * i) / nodes) * r for i in range(nodes)]


def _term_coeffs(values, ring, sigma: float, k: int, ln_a, weight) -> list:
    """Coefficients c_i of -weight * Res_{s=sigma} (a/g)^(-s) f(s) = sum_i c_i (ln g)^i g^sigma.

    `values` are f on the circle sigma + ring; the Laurent coefficients
    b_{-1-j} of f at sigma come from the trapezoid rule on that circle, and
    (a/g)^(-s) is expanded about sigma in powers of ln g - ln a.
    """
    nodes = len(ring)
    laurent = [mpmath.re(mpmath.fsum(v * w ** (1 + j) for v, w in zip(values, ring))) / nodes for j in range(k)]
    pref = -weight * mpmath.exp(-mpmath.mpf(sigma) * ln_a)
    coeffs = []
    for i in range(k):
        c = mpmath.mpf(0)
        for j in range(i, k):
            c += laurent[j] / mpmath.factorial(j) * mpmath.binomial(j, i) * (-ln_a) ** (j - i)
        coeffs.append(pref * c)
    return coeffs


def _ln_a(net: dict):
    return mpmath.log(mpmath.mpf(net["gamma_t"]) * mpmath.mpf(net["hops"][-1]["rho"]))


def leading_coeffs(net: dict, dps: int = 40, nodes: int = 64) -> dict:
    """Coefficients c_i of the leading term sum_i c_i (ln g)^i g^s0, at `dps` digits.

    The term is -Res_{s=s0} (a/g)^(-s) G(s)/s with a = gamma_t rho_N, taken
    by a `nodes`-point contour on a circle of half the distance to the
    nearest other pole.
    """
    s0, k = leading_pole(net)
    others = [0.0]
    for h in net["hops"]:
        others += _lattice(h, s0 - 3.0)
    radius = 0.5 * min(abs(p - s0) for p in others if abs(p - s0) >= POLE_TOL)
    with mpmath.workdps(dps):
        ring = _ring(radius, nodes)
        values = []
        for w in ring:
            s = mpmath.mpf(s0) + w
            f = 1 / s
            for h in net["hops"]:
                f *= _mp_moment(h, s)
            values.append(f)
        coeffs = _term_coeffs(values, ring, s0, k, _ln_a(net), 1)
        return {"s0": s0, "k": k, "coeffs": [float(c) for c in coeffs]}


def weak_compositions(total: int, parts: int):
    """Tuples of `parts` non-negative integers that sum to `total`."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in weak_compositions(total - first, parts - 1):
            yield (first, *rest)


def expansion_terms(net: dict, lambda_max: int, dps: int = 40, nodes: int = 64,
                    radius_frac: float = 0.5) -> list[list]:
    """Every residue term of the truncated outage expansion, one list per lambda_N.

    Written from the paper's series, apart from the package: for each
    lambda = 0..lambda_max and each weak composition (l_1..l_{N-1}) of lambda
    the integrand is

        P_lambda(s) prod_n M_n(s + lambda_n),  lambda_n = l_1 + ... + l_{n-1},

    weighted by prod_j (-rho_j/rho_N)^l_j / l_j!, where P_0 = 1/s, P_1 = 1
    and P_lambda = (s+1)...(s+lambda-1) otherwise.  Its residues at every
    pole in [s0 - RE_MIN_OFFSET, s0] (the origin at lambda = 0 excepted)
    give terms c(ln g) g^sigma.  Each contour is a `nodes`-point circle of
    radius_frac times the distance to the nearest other singularity of any
    shifted lattice, so the moment values on it are shared by every
    composition that has a pole there.

    Returns out[lambda] = [[sigma, [c_0, ...], scale], ...], where scale
    sums max_i |c_i| over the compositions that contribute to sigma: the
    size of the parts that the sum may cancel.
    """
    hops = net["hops"]
    s0, _ = leading_pole(net)
    re_min = s0 - RE_MIN_OFFSET
    singular = {0.0}
    for h in hops:
        for lam in range(lambda_max + 1):
            singular |= {p - lam for p in _lattice(h, re_min - 3.0 + lam)}
    rings: dict = {}
    moments: dict = {}

    def ring(sigma):
        if sigma not in rings:
            gap = min(abs(x - sigma) for x in singular if abs(x - sigma) >= POLE_TOL)
            rings[sigma] = _ring(radius_frac * gap, nodes)
        return rings[sigma]

    def moment_values(n, shift, sigma):
        key = (n, shift, sigma)
        if key not in moments:
            moments[key] = [_mp_moment(hops[n], sigma + shift + w) for w in ring(sigma)]
        return moments[key]

    out = []
    with mpmath.workdps(dps):
        ln_a = _ln_a(net)
        for lam in range(lambda_max + 1):
            terms: dict = {}
            zeros = [-float(i) for i in range(1, lam)]
            for ell in weak_compositions(lam, len(hops) - 1):
                shifts = [0]
                weight = mpmath.mpf(1)
                for j, l_j in enumerate(ell):
                    shifts.append(shifts[-1] + l_j)
                    weight *= (-mpmath.mpf(hops[j]["rho"]) / hops[-1]["rho"]) ** l_j / math.factorial(l_j)
                orders: dict = {}
                for n, (h, shift) in enumerate(zip(hops, shifts)):
                    for p in _lattice(h, re_min + shift):
                        sigma = next((x for x in orders if abs(x - (p - shift)) < POLE_TOL), p - shift)
                        orders[sigma] = orders.get(sigma, 0) + 1
                for sigma, order in orders.items():
                    k = order - sum(1 for z in zeros if abs(z - sigma) < POLE_TOL)
                    if k <= 0:
                        continue
                    sigma = min(singular, key=lambda x: abs(x - sigma))
                    per_hop = [moment_values(n, shift, sigma) for n, shift in enumerate(shifts)]
                    values = []
                    for i, w in enumerate(ring(sigma)):
                        s = mpmath.mpf(sigma) + w
                        f = 1 / s if lam == 0 else mpmath.fprod(s + z for z in range(1, lam))
                        for vals in per_hop:
                            f *= vals[i]
                        values.append(f)
                    coeffs = _term_coeffs(values, ring(sigma), sigma, k, ln_a, weight)
                    total, scale = terms.setdefault(sigma, [[], mpmath.mpf(0)])
                    total += [mpmath.mpf(0)] * (k - len(total))
                    for i, c in enumerate(coeffs):
                        total[i] += c
                    terms[sigma][1] = scale + max(abs(c) for c in coeffs)
            out.append([[sigma, [float(c) for c in total], float(scale)]
                        for sigma, (total, scale) in sorted(terms.items(), reverse=True)])
    return out


def sum_terms(increments: list[list], lambda_max: int) -> dict:
    """{sigma: (coeffs, scale)} of the expansion truncated at lambda_max."""
    terms: dict = {}
    for lam in range(lambda_max + 1):
        for sigma, coeffs, scale in increments[lam]:
            key = next((x for x in terms if abs(x - sigma) < POLE_TOL), sigma)
            total, old = terms.get(key, ([], 0.0))
            n = max(len(total), len(coeffs))
            total = [a + b for a, b in zip(total + [0.0] * (n - len(total)), coeffs + [0.0] * (n - len(coeffs)))]
            terms[key] = (total, old + scale)
    return terms


def evaluate_terms(terms: dict, gamma_bar: float) -> float:
    """sum over sigma of sum_i c_i (ln g)^i g^sigma, unclamped."""
    lg = math.log(gamma_bar)
    return sum(sum(c * lg**i for i, c in enumerate(coeffs)) * gamma_bar**sigma
               for sigma, (coeffs, _) in terms.items())


# ---------------------------------------------------------------------------
# Regeneration
# ---------------------------------------------------------------------------


def outage_bands(increments: list[list], exact: dict) -> tuple[dict, dict]:
    """Per truncation order and SNR, how far an expansion may sit from the exact outage.

    The band is BAND_FACTOR times the reference expansion's own distance,
    plus a floor of BAND_FLOOR times the outage; the bracket flags say where
    the exact value lies between the lambda = 2 and 3 reference values.
    """
    values = {lam: {db: evaluate_terms(sum_terms(increments, lam), 10.0 ** (db / 10.0)) for db in ORACLE_DBS}
              for lam in LAMBDAS}
    bands = {str(lam): {str(db): BAND_FACTOR * abs(values[lam][db] - exact[str(db)]) + BAND_FLOOR * exact[str(db)]
                        for db in ORACLE_DBS}
             for lam in LAMBDAS}
    lo, hi = LAMBDAS
    bracket = {str(db): min(values[lo][db], values[hi][db]) <= exact[str(db)] <= max(values[lo][db], values[hi][db])
               for db in ORACLE_DBS}
    return bands, bracket


def repo_configs(root: Path) -> dict[str, dict]:
    return {p.stem: load_config(p) for p in sorted((root / "configs").glob("*.json"))}


def build(root: Path) -> dict:
    configs = repo_configs(root)
    out: dict = {
        "generated_by": "python3 bench/refs.py",
        "versions": {"numpy": np.__version__, "scipy": scipy.__version__, "mpmath": mpmath.__version__},
        "outage": {},
        "outage_error": {},
        "outage_cmc": {},
        "rayleigh2_k1": {},
        "leading": {},
        "expansion": {},
        "outage_band": {},
        "outage_bracket": {},
    }
    for name, net in configs.items():
        t0 = time.perf_counter()
        n = len(net["hops"])
        if n <= 3:
            vals, errs = {}, {}
            for db in sorted(set(ORACLE_DBS) | set(SWEEP_DBS)):
                g = 10.0 ** (db / 10.0)
                coarse = outage_quadrature(net, g, panel=0.5)
                fine = outage_quadrature(net, g, panel=0.25)
                vals[str(db)] = fine
                errs[str(db)] = abs(fine - coarse) / fine
            out["outage"][name] = vals
            out["outage_error"][name] = errs
        else:
            out["outage_cmc"][name] = {
                str(db): list(outage_conditional_mc(net, 10.0 ** (db / 10.0), CMC_SAMPLES, seed=1000 + db))
                for db in SWEEP_DBS
            }
        out["leading"][name] = leading_coeffs(net)
        out["expansion"][name] = expansion_terms(net, max(LAMBDAS))
        if n <= 3:
            out["outage_band"][name], out["outage_bracket"][name] = outage_bands(
                out["expansion"][name], out["outage"][name])
        print(f"{name}: {time.perf_counter() - t0:.1f} s", file=sys.stderr)
    rayleigh2 = configs["rayleigh2"]
    out["rayleigh2_k1"] = {str(db): rayleigh2_closed_form(rayleigh2, 10.0 ** (db / 10.0)) for db in ORACLE_DBS}
    out["leading"]["nak8"] = leading_coeffs(nak8())
    out["expansion"]["nak8"] = expansion_terms(nak8(), max(LAMBDAS))
    return out


def main() -> int:
    root = BENCH_DIR.parent
    refs = build(root)
    REFS_PATH.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFS_PATH.relative_to(root)}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
