"""Benchmark of relay-asym's three engines.

    python3 bench/run.py --workload {asymptote,sweep,oracle} --seed N --seconds S --trace {0,1}

Run it from the root of a source checkout; it imports the package from
``src/``.  One run builds the workload's inputs from the seed, measures the
set-up cost in fresh interpreters, runs the workload's fixed list of timed
operations, checks every output against the references of ``refs.py`` and
prints one JSON object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (setup_s, solve_s,
peak_rss_mb).  With ``--trace 1`` the run executes the workload untraced and
then again with the layers wrapped, in the same process, and reports the
per-layer metrics, including its own overhead (traced minus untraced
``solve_s``); its spans go to ``bench/out/trace-<workload>-<seed>.json``.
The workload lists are fixed, so ``--seconds`` does not change what a run
does; see README.md for the span each workload measures.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

#: Fresh interpreters per run; setup_s is their median.
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60

# workloads imports relayasym, so these helpers import it only once main()
# has put src/ on sys.path.


def _build_networks() -> tuple[str, ...]:
    import workloads

    return (*workloads.ASYMPTOTE_CONFIGS, "nak8", "generated")


def per_layer_names() -> list[str]:
    """Every per-layer metric, in the order BENCHMARK.json lists them."""
    import workloads

    names = ["setup.import_s", "cli.parse_config_s"]
    for fn in ("log_gamma", "kummer_1f1", "gauss_2f1"):
        names += [f"specfun.{fn}_calls", f"specfun.{fn}_s"]
    names += ["channels.log_moment_calls", "channels.log_moment_s"]
    names += [f"mellin.build_expansion_s.{n}" for n in _build_networks()]
    names += ["mellin.enumerate_poles_s", "mellin.leading_term_s", "channels.validate_model_calls",
              "specfun.log_bessel_i0_calls", "specfun.log_bessel_i0_s", "channels.pdf_calls", "channels.pdf_s"]
    names += [f"montecarlo.oracle_point_s.{p}" for p in workloads.oracle_point_names()]
    names += ["montecarlo.oracle_quad_calls", "channels.sample_s", "channels.sample_draws",
              "montecarlo.fold_count_s", "montecarlo.samples_per_s_w1", "montecarlo.samples_per_s_w2",
              "montecarlo.clopper_pearson_s", "analysis.sweep_expansion_s", "analysis.sweep_compare_self_s",
              "cli.emit_csv_s", "trace.solve_s", "trace.overhead_s"]
    return names


def unit_of(name: str) -> str:
    if name.startswith("montecarlo.samples_per_s"):
        return "1/s"
    if name.endswith("_calls") or name.endswith("_draws"):
        return "count"
    return "s"


def measure_setup(config_paths) -> dict:
    """Median wall time of fresh interpreters that import relayasym and parse the configs."""
    walls, imports, parses = [], [], []
    cmd = [sys.executable, str(BENCH / "setup_probe.py"), str(SRC), *map(str, config_paths)]
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=PROBE_TIMEOUT_S)
        walls.append(perf_counter() - t0)
        probe = json.loads(proc.stdout.splitlines()[-1])
        imports.append(probe["import_s"])
        parses.append(probe["parse_s"])
    return {"setup_s": statistics.median(walls), "import_s": statistics.median(imports),
            "parse_s": statistics.median(parses)}


def layer_metrics(tracer, wl, outcome, setup, untraced_s) -> dict:
    values = {
        "setup.import_s": setup["import_s"],
        "cli.parse_config_s": setup["parse_s"],
        "channels.log_moment_calls": tracer.calls("channels.log_moment"),
        "channels.log_moment_s": tracer.seconds("channels.log_moment"),
        "mellin.enumerate_poles_s": tracer.seconds("mellin.enumerate_poles"),
        "mellin.leading_term_s": tracer.seconds("mellin.leading_term"),
        "channels.validate_model_calls": tracer.calls("channels.validate_model"),
        "channels.pdf_calls": tracer.calls("channels.pdf"),
        "channels.pdf_s": tracer.seconds("channels.pdf"),
        "montecarlo.oracle_quad_calls": tracer.calls("montecarlo.quad"),
        "channels.sample_s": tracer.seconds("channels.sample"),
        "channels.sample_draws": tracer.draws("channels.sample"),
        "montecarlo.fold_count_s": tracer.self_seconds("montecarlo.estimate_outage"),
        "montecarlo.samples_per_s_w1": wl.measured.get("samples_per_s_w1", 0.0),
        "montecarlo.samples_per_s_w2": wl.measured.get("samples_per_s_w2", 0.0),
        "montecarlo.clopper_pearson_s": tracer.seconds("montecarlo.clopper_pearson"),
        "analysis.sweep_expansion_s": sum(
            v[1] for k, v in tracer.stats.items() if k.startswith("mellin.build_expansion.sweep.")),
        "analysis.sweep_compare_self_s": tracer.self_seconds("analysis.sweep_compare"),
        "cli.emit_csv_s": tracer.seconds("cli.emit_csv"),
        "trace.solve_s": outcome.solve_s,
        "trace.overhead_s": outcome.solve_s - untraced_s,
    }
    for fn in ("log_gamma", "kummer_1f1", "gauss_2f1", "log_bessel_i0"):
        values[f"specfun.{fn}_calls"] = tracer.calls(f"specfun.{fn}")
        values[f"specfun.{fn}_s"] = tracer.seconds(f"specfun.{fn}")
    for net in _build_networks():
        values[f"mellin.build_expansion_s.{net}"] = tracer.seconds(f"mellin.build_expansion.{net}")
    for name in per_layer_names():
        if name.startswith("montecarlo.oracle_point_s."):
            point = name.removeprefix("montecarlo.oracle_point_s.")
            values[name] = outcome.durations.get(f"oracle.{point}", 0.0)
    return {name: {"value": values[name], "unit": unit_of(name)} for name in per_layer_names()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "relayasym" / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        print(f"error: no src/relayasym package and configs/ directory under {ROOT}", file=sys.stderr)
        return 2
    # The CLI's default worker count, not one capped by the environment.
    os.environ.pop("RELAY_ASYM_THREADS", None)
    sys.path.insert(0, str(SRC))
    import relayasym
    import workloads
    from tracer import Tracer

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {workloads.WORKLOADS}")
    wl = workloads.build(args.workload, args.seed, ROOT, OUT)
    setup = measure_setup(wl.config_paths)
    tracer = None
    if args.trace:
        untraced_s = workloads.execute(wl).solve_s
        tracer = Tracer()
        tracer.install(relayasym)
    try:
        outcome = workloads.execute(wl, tracer)
    finally:
        if tracer:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failed, problems = workloads.check(wl, outcome)
    faults = {op.name for op in wl.faults}
    for name, why in failed:
        print(f"{'standing fault' if name in faults else 'FAILED'} {name}: {why}", file=sys.stderr)
    for problem in problems:
        print(f"FAILED check: {problem}", file=sys.stderr)
    correct = not problems and all(name in faults for name, _ in failed)

    if args.trace:
        metrics = layer_metrics(tracer, wl, outcome, setup, untraced_s)
        tracer.write(OUT / f"trace-{args.workload}-{args.seed}.json",
                     {k: v["value"] for k, v in metrics.items()})
    else:
        metrics = {
            "setup_s": {"value": setup["setup_s"], "unit": "s"},
            "solve_s": {"value": outcome.solve_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print(json.dumps({"correct": correct, "attempted": len(wl.ops) + len(wl.faults), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
