"""Command-line front end.

Configuration is a single JSON document naming the threshold and hop list:

    {"gamma_t_db": 0.0,
     "hops": [{"fading": "nakagami", "m": 2.2, "theta": 1.0, "rho": 1.0}, ...]}

Each command takes the validated network and the argparse namespace;
``_DISPATCH`` names the options it needs and may take, and its parser
exits 2 on any other.  ``main`` maps every error to its exit code in one
place: 0 success, 2 a missing option, a bad option value or config
syntax/schema (config text that is not UTF-8 included), 3 model
validation, 4 numerical failure (any ArithmeticError: the package's
numerical error types and a float overflow), 5 I/O.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import analysis, mellin, montecarlo
from .channels import HOYT, NAKAGAMI, RICIAN, WEIBULL, FadingModel, HopConfig, NetworkConfig
# validate_model stays a name of this module: the benchmark tracer wraps cli.validate_model.
from .channels import validate_model  # noqa: F401
from .errors import ModelValidationError, RelayAsymError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_MODEL = 3
EXIT_NUMERICAL = 4
EXIT_IO = 5

_SHAPE_KEYS = ("m", "K", "q")
# the shape key of each supported family; other families fail model validation (exit 3)
_FAMILY_SHAPE_KEY = {NAKAGAMI: "m", WEIBULL: "m", RICIAN: "K", HOYT: "q"}
_HOP_KEYS = {"fading", "theta", "rho", *_SHAPE_KEYS}
_TOP_KEYS = {"gamma_t_db", "gamma_t", "hops"}

CSV_HEADER = "gamma_db,p_asym,p_mc,ci_low,ci_high,p_oracle,d_finite"


class ConfigSyntaxError(RelayAsymError, ValueError):
    """Config text is not valid JSON."""


class ConfigSchemaError(RelayAsymError, ValueError):
    """Config JSON violates the expected schema."""


def _schema_error(msg: str) -> ConfigSchemaError:
    return ConfigSchemaError(f"config schema violation: {msg}")


def _number(value, where: str) -> float:
    """A JSON number (true/false are not) as a float; ConfigSchemaError if none or it overflows."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _schema_error(f"{where} must be a number")
    try:
        return float(value)
    except OverflowError:
        raise _schema_error(f"{where} is too large for a float") from None


def _parse_hop(entry, index: int) -> HopConfig:
    if not isinstance(entry, dict):
        raise _schema_error(f"hops[{index}] must be an object")
    unknown = set(entry) - _HOP_KEYS
    if unknown:
        raise _schema_error(f"hops[{index}] has unknown keys {sorted(unknown)}")
    if "fading" not in entry or not isinstance(entry["fading"], str):
        raise _schema_error(f"hops[{index}] needs a string 'fading' key")
    shapes = [k for k in _SHAPE_KEYS if k in entry]
    if len(shapes) != 1:
        raise _schema_error(
            f"hops[{index}] needs exactly one shape key of {_SHAPE_KEYS}, got {shapes}"
        )
    family = entry["fading"].lower()
    if _FAMILY_SHAPE_KEY.get(family, shapes[0]) != shapes[0]:
        raise _schema_error(
            f"hops[{index}] is {family}, whose shape key is {_FAMILY_SHAPE_KEY[family]!r}, not {shapes[0]!r}"
        )
    shape, theta, rho = (
        _number(entry.get(key, 1.0), f"hops[{index}].{key}") for key in (shapes[0], "theta", "rho")
    )
    model = FadingModel(variant=family, shape=shape, scale=theta)
    return HopConfig(model=model, rho=rho)


def parse_config(text: str) -> NetworkConfig:
    """Parse and fully validate a JSON config into a NetworkConfig.

    Raises ConfigSyntaxError for malformed JSON, ConfigSchemaError for
    structural problems (unknown keys, a shape key of another family,
    missing hops, rho_1 != 1), and
    ModelValidationError for unsupported families or out-of-range parameters.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigSyntaxError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise _schema_error("top level must be an object")
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise _schema_error(f"unknown top-level keys {sorted(unknown)}")
    if "gamma_t_db" in doc and "gamma_t" in doc:
        raise _schema_error("give gamma_t_db or gamma_t, not both")
    if "gamma_t" in doc:
        gamma_t = _number(doc["gamma_t"], "gamma_t")
    else:
        gamma_t_db = _number(doc.get("gamma_t_db", 0.0), "gamma_t_db")
        try:
            gamma_t = 10.0 ** (gamma_t_db / 10.0)
        except OverflowError:
            raise _schema_error(f"gamma_t_db = {gamma_t_db:g} overflows gamma_t") from None
    hops_doc = doc.get("hops")
    if not isinstance(hops_doc, list) or not hops_doc:
        raise _schema_error("'hops' must be a non-empty list")
    hops = [_parse_hop(entry, i) for i, entry in enumerate(hops_doc)]
    try:
        return NetworkConfig(hops=tuple(hops), gamma_t=gamma_t)
    except ModelValidationError:
        raise  # exit 3
    except ValueError as exc:  # rho, first-hop rho or gamma_t: exit 2
        raise _schema_error(str(exc)) from exc


def _format_prob(value: float | None) -> str:
    return "" if value is None else f"{value:.8e}"


def emit_csv(rows, path: str | None):
    """Write SweepRows as CSV (ascending gamma_db); path None means stdout."""
    if not rows:
        raise ValueError("emit_csv needs at least one row")
    lines = [CSV_HEADER]
    for r in sorted(rows, key=lambda r: r.gamma_bar_db):
        probs = map(_format_prob, (r.p_asym, r.p_mc, r.ci_low, r.ci_high, r.p_oracle))
        d_finite = "" if r.d_finite is None else repr(float(r.d_finite))
        lines.append(",".join([repr(float(r.gamma_bar_db)), *probs, d_finite]))
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)


def _check_finite(args: argparse.Namespace) -> None:
    """ValueError (exit 2) for a dB option or --re-min that is inf or nan."""
    for name in ("db_from", "db_to", "db_step", "re_min"):
        value = getattr(args, name, None)
        if value is not None and not math.isfinite(value):
            raise ValueError(f"--{name.replace('_', '-')} must be finite, got {value}")


def _cmd_poles(network: NetworkConfig, args: argparse.Namespace) -> None:
    s0, k = mellin.leading_pole(network)
    re_min = args.re_min if args.re_min is not None else s0 - mellin.DEFAULT_RE_MIN_OFFSET
    poles = mellin.enumerate_poles(network, (0,) * network.n_hops, re_min)
    print(f"# poles of the lambda=0 integrand with Re(s) >= {re_min:g}")
    print("location order")
    for loc, order, _ in poles:
        print(f"{loc:g} {order}")
    print(f"s0 = {s0:g}")
    print(f"k = {k}")
    print(f"d = {-s0:g}")


def _cmd_asymptote(network: NetworkConfig, args: argparse.Namespace) -> None:
    expansion = mellin.build_expansion(network, args.lambda_max, args.re_min)
    print(f"# expansion terms: sum_i c_i (ln g)^i g^exponent  "
          f"(lambda_max={expansion.lambda_max}, re_min={expansion.re_min:g})")
    print("exponent coefficients(c0..)")
    for term in expansion.terms:
        coeffs = " ".join(f"{c:.12e}" for c in term.log_coeffs)
        print(f"{term.exponent:g} {coeffs}")


def _cmd_simulate(network: NetworkConfig, args: argparse.Namespace) -> None:
    gamma_bar = analysis.db_to_linear(args.db_from)
    est = montecarlo.estimate_outage(network, gamma_bar, args.samples, args.seed)
    print(f"gamma_db = {args.db_from:g}")
    print(f"p_hat = {est.p_hat:.8e}")
    print(f"ci95 = [{est.ci_low:.8e}, {est.ci_high:.8e}]")
    print(f"n_samples = {est.n_samples}")
    print(f"n_outages = {est.n_outages}")
    print(f"seed = {est.seed}")


def _cmd_sweep(network: NetworkConfig, args: argparse.Namespace) -> None:
    rows = analysis.sweep_compare(
        network,
        (args.db_from, args.db_to, args.db_step),
        n_samples=args.samples or None,  # 0 disables MC; a negative count is an error
        oracle=args.oracle,
        lambda_max=args.lambda_max,
        re_min=args.re_min,
        seed=args.seed,
    )
    emit_csv(rows, args.out)


def _cmd_diversity(network: NetworkConfig, args: argparse.Namespace) -> None:
    s0, k = mellin.leading_pole(network)
    print("gamma_db d_finite")
    for db in analysis._db_grid(args.db_from, args.db_to, args.db_step):
        d = analysis.finite_diversity(s0, k, analysis.db_to_linear(db))
        print(f"{db:g} {math.nan if d is None else d!r}")


_OPTIONS = {
    "--db-from": dict(type=float),
    "--db-to": dict(type=float),
    "--db-step": dict(type=float, default=5.0),
    "--samples": dict(type=int, default=10**6, help="Monte Carlo samples; 0 disables MC in sweeps"),
    "--seed": dict(type=int, default=42),
    "--lambda-max": dict(type=int, default=mellin.DEFAULT_LAMBDA_MAX),
    "--re-min": dict(type=float),
    "--out": dict(help="CSV output path (default stdout)"),
    "--oracle": dict(action="store_true", help="include the quadrature oracle column"),
}

# command: (handler, the options it needs, the options it may take)
_DISPATCH = {
    "poles": (_cmd_poles, (), ("--re-min",)),
    "asymptote": (_cmd_asymptote, (), ("--lambda-max", "--re-min")),
    "simulate": (_cmd_simulate, ("--db-from",), ("--samples", "--seed")),
    "sweep": (_cmd_sweep, ("--db-from", "--db-to"),
              ("--db-step", "--samples", "--seed", "--lambda-max", "--re-min", "--out", "--oracle")),
    "diversity": (_cmd_diversity, ("--db-from", "--db-to"), ("--db-step",)),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relay-asym",
        description="High-SNR outage asymptotics for fixed-gain amplify-and-forward chains",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, needs, takes) in _DISPATCH.items():
        p = sub.add_parser(name)
        p.set_defaults(usage_error=p.error)
        p.add_argument("--config", required=True,
                       help="path to the JSON network config, or - for stdin")
        for option in needs + takes:
            p.add_argument(option, **_OPTIONS[option])
    return parser


def _read_config_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def main(argv=None) -> int:
    args, extra = _build_parser().parse_known_args(argv)
    if extra:  # reported by the command's own parser, so the usage names it
        args.usage_error(f"unrecognized arguments: {' '.join(extra)}")
    handler, needs, _ = _DISPATCH[args.command]
    try:
        if any(getattr(args, option[2:].replace("-", "_")) is None for option in needs):
            raise ValueError(f"{args.command} needs {' and '.join(needs)}")
        _check_finite(args)
        network = parse_config(_read_config_text(args.config))
        handler(network, args)
    except ModelValidationError as exc:  # a ValueError too: caught first
        print(f"model validation failure: {exc}", file=sys.stderr)
        return EXIT_MODEL
    except ArithmeticError as exc:  # the typed numerical failures, and a float overflow
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        # config syntax/schema, undecodable text, a missing or bad option value
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
