"""Command-line front end.

Configuration is a single JSON document naming the threshold and hop list:

    {"gamma_t_db": 0.0,
     "hops": [{"fading": "nakagami", "m": 2.2, "theta": 1.0, "rho": 1.0}, ...]}

Exit codes: 0 success, 2 config syntax/schema, 3 model validation,
4 numerical failure, 5 I/O.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field

from . import analysis, mellin, montecarlo
# validate_model stays a name of this module: the benchmark tracer wraps
# cli.validate_model.  NetworkConfig calls it on every hop.
from .channels import FadingModel, HopConfig, validate_model  # noqa: F401
from .errors import (
    ArgumentRangeError,
    IllConditionedContourError,
    ModelValidationError,
    PoleAtArgumentError,
    QuadratureConvergenceError,
    RelayAsymError,
    SeriesDivergenceError,
    UnsupportedNetworkError,
)
from .mellin import NetworkConfig

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_MODEL = 3
EXIT_NUMERICAL = 4
EXIT_IO = 5

COMMANDS = ("poles", "asymptote", "simulate", "sweep", "diversity")

_SHAPE_KEYS = ("m", "K", "q")
_HOP_KEYS = {"fading", "theta", "rho", *_SHAPE_KEYS}
_TOP_KEYS = {"gamma_t_db", "gamma_t", "hops"}

CSV_HEADER = "gamma_db,p_asym,p_mc,ci_low,ci_high,p_oracle,d_finite"


class ConfigSyntaxError(RelayAsymError, ValueError):
    """Config text is not valid JSON."""


class ConfigSchemaError(RelayAsymError, ValueError):
    """Config JSON violates the expected schema."""


@dataclass
class RunConfig:
    """Parsed network plus command and its options."""

    network: NetworkConfig
    command: str = "poles"
    db_from: float | None = None
    db_to: float | None = None
    db_step: float = 5.0
    samples: int = 10**6
    seed: int = 42
    lambda_max: int = mellin.DEFAULT_LAMBDA_MAX
    re_min: float | None = None
    out: str | None = None
    oracle: bool = False


def _schema_error(msg: str) -> ConfigSchemaError:
    return ConfigSchemaError(f"config schema violation: {msg}")


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
    for key in ("theta", "rho", shapes[0]):
        if key in entry and not isinstance(entry[key], (int, float)):
            raise _schema_error(f"hops[{index}].{key} must be a number")
    model = FadingModel(
        variant=entry["fading"].lower(),
        shape=float(entry[shapes[0]]),
        scale=float(entry.get("theta", 1.0)),
    )
    return HopConfig(model=model, rho=float(entry.get("rho", 1.0)))


def parse_config(text: str, command: str = "poles", **options) -> RunConfig:
    """Parse and fully validate a JSON config into a RunConfig.

    Raises ConfigSyntaxError for malformed JSON, ConfigSchemaError for
    structural problems (unknown keys, missing hops, rho_1 != 1), and
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
        gamma_t = float(doc["gamma_t"])
    else:
        gamma_t = 10.0 ** (float(doc.get("gamma_t_db", 0.0)) / 10.0)
    hops_doc = doc.get("hops")
    if not isinstance(hops_doc, list) or not hops_doc:
        raise _schema_error("'hops' must be a non-empty list")
    hops = [_parse_hop(entry, i) for i, entry in enumerate(hops_doc)]
    try:
        network = NetworkConfig(hops=tuple(hops), gamma_t=gamma_t)
    except ModelValidationError:
        raise  # exit 3
    except ValueError as exc:  # rho, first-hop rho or gamma_t: exit 2
        raise _schema_error(str(exc)) from exc
    if command not in COMMANDS:
        raise _schema_error(f"unknown command {command!r}")
    return RunConfig(network=network, command=command, **options)


def _format_prob(value: float | None) -> str:
    return "" if value is None else f"{value:.8e}"


def emit_csv(rows, path: str | None):
    """Write SweepRows as CSV (ascending gamma_db); path None means stdout."""
    if not rows:
        raise ValueError("emit_csv needs at least one row")
    ordered = sorted(rows, key=lambda r: r.gamma_bar_db)
    lines = [CSV_HEADER]
    for r in ordered:
        lines.append(
            ",".join(
                [
                    repr(float(r.gamma_bar_db)),
                    _format_prob(r.p_asym),
                    _format_prob(r.p_mc),
                    _format_prob(r.ci_low),
                    _format_prob(r.ci_high),
                    _format_prob(r.p_oracle),
                    repr(float(r.d_finite)),
                ]
            )
        )
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)


def parse_csv(text: str) -> list[analysis.SweepRow]:
    """Re-parse an emitted CSV back into SweepRows (round-trip helper)."""
    lines = [ln for ln in text.splitlines() if ln]
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError("unrecognized CSV header")
    rows = []
    for ln in lines[1:]:
        cells = ln.split(",")
        opt = lambda c: None if c == "" else float(c)
        rows.append(
            analysis.SweepRow(
                gamma_bar_db=float(cells[0]),
                p_asym=float(cells[1]),
                p_mc=opt(cells[2]),
                ci_low=opt(cells[3]),
                ci_high=opt(cells[4]),
                p_oracle=opt(cells[5]),
                d_finite=float(cells[6]),
            )
        )
    return rows


def _require_db_range(cfg: RunConfig) -> tuple[float, float, float]:
    if cfg.db_from is None or cfg.db_to is None:
        raise _schema_error(f"command '{cfg.command}' needs --db-from and --db-to")
    return (cfg.db_from, cfg.db_to, cfg.db_step)


def _cmd_poles(cfg: RunConfig) -> None:
    network = cfg.network
    s0, k = mellin.leading_pole(network)
    re_min = cfg.re_min if cfg.re_min is not None else s0 - mellin.DEFAULT_RE_MIN_OFFSET
    poles = mellin.enumerate_poles(network, (0,) * network.n_hops, 0, re_min)
    print(f"# poles of the lambda=0 integrand with Re(s) >= {re_min:g}")
    print("location order")
    for p in poles:
        print(f"{p.location.real:g} {p.order}")
    print(f"s0 = {s0:g}")
    print(f"k = {k}")
    print(f"d = {-s0:g}")


def _cmd_asymptote(cfg: RunConfig) -> None:
    expansion = mellin.build_expansion(cfg.network, cfg.lambda_max, cfg.re_min)
    print(f"# expansion terms: sum_i c_i (ln g)^i g^exponent  "
          f"(lambda_max={expansion.lambda_max}, re_min={expansion.re_min:g})")
    print("exponent coefficients(c0..)")
    for term in expansion.terms:
        coeffs = " ".join(f"{c:.12e}" for c in term.log_coeffs)
        print(f"{term.exponent:g} {coeffs}")


def _cmd_simulate(cfg: RunConfig) -> None:
    if cfg.db_from is None:
        raise _schema_error("simulate needs --db-from (the gamma_bar point in dB)")
    gamma_bar = analysis.db_to_linear(cfg.db_from)
    est = montecarlo.estimate_outage(cfg.network, gamma_bar, cfg.samples, cfg.seed)
    print(f"gamma_db = {cfg.db_from:g}")
    print(f"p_hat = {est.p_hat:.8e}")
    print(f"ci95 = [{est.ci_low:.8e}, {est.ci_high:.8e}]")
    print(f"n_samples = {est.n_samples}")
    print(f"n_outages = {est.n_outages}")
    print(f"seed = {est.seed}")


def _cmd_sweep(cfg: RunConfig) -> None:
    rows = analysis.sweep_compare(
        cfg.network,
        _require_db_range(cfg),
        n_samples=cfg.samples if cfg.samples > 0 else None,
        oracle=cfg.oracle,
        lambda_max=cfg.lambda_max,
        re_min=cfg.re_min,
        seed=cfg.seed,
    )
    emit_csv(rows, cfg.out)


def _cmd_diversity(cfg: RunConfig) -> None:
    lo, hi, step = _require_db_range(cfg)
    s0, k = mellin.leading_pole(cfg.network)
    print("gamma_db d_finite")
    for db in analysis._db_grid(lo, hi, step):
        d = analysis.finite_diversity(s0, k, analysis.db_to_linear(db))
        print(f"{db:g} {d!r}")


_DISPATCH = {
    "poles": _cmd_poles,
    "asymptote": _cmd_asymptote,
    "simulate": _cmd_simulate,
    "sweep": _cmd_sweep,
    "diversity": _cmd_diversity,
}


def run_command(cfg: RunConfig) -> int:
    """Execute a validated RunConfig; returns the process exit code."""
    try:
        _DISPATCH[cfg.command](cfg)
    except ConfigSchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (IllConditionedContourError, QuadratureConvergenceError,
            ArgumentRangeError, SeriesDivergenceError, UnsupportedNetworkError,
            PoleAtArgumentError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        # bad option values (sample counts, db ranges) surface here
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relay-asym",
        description="High-SNR outage asymptotics for fixed-gain amplify-and-forward chains",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True,
                       help="path to the JSON network config, or - for stdin")
        p.add_argument("--db-from", type=float, default=None)
        p.add_argument("--db-to", type=float, default=None)
        p.add_argument("--db-step", type=float, default=5.0)
        p.add_argument("--samples", type=int, default=10**6,
                       help="Monte Carlo samples; 0 disables MC in sweeps")
        p.add_argument("--seed", type=int, default=42)
        p.add_argument("--lambda-max", type=int, default=mellin.DEFAULT_LAMBDA_MAX)
        p.add_argument("--re-min", type=float, default=None)
        p.add_argument("--out", default=None, help="CSV output path (default stdout)")
        p.add_argument("--oracle", action="store_true",
                       help="include the quadrature oracle column (N <= 3)")
    return parser


def _read_config_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        text = _read_config_text(args.config)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    try:
        cfg = parse_config(
            text,
            command=args.command,
            db_from=args.db_from,
            db_to=args.db_to,
            db_step=args.db_step,
            samples=args.samples,
            seed=args.seed,
            lambda_max=args.lambda_max,
            re_min=args.re_min,
            out=args.out,
            oracle=args.oracle,
        )
    except (ConfigSyntaxError, ConfigSchemaError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ModelValidationError as exc:
        print(f"model validation failure: {exc}", file=sys.stderr)
        return EXIT_MODEL
    return run_command(cfg)


if __name__ == "__main__":
    sys.exit(main())
