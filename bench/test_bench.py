"""Tests of the benchmark itself: seeded inputs, output checks, smoke runs.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import relayasym  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from relayasym import mellin  # noqa: E402
from tracer import Tracer  # noqa: E402

PERTURB = 1.03


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("bench-out")


@pytest.fixture(scope="module")
def tiny(out_dir):
    """Each workload at smoke size, run once untraced; (workload, outcome) by name."""
    runs = {}
    for name in workloads.WORKLOADS:
        wl = workloads.build(name, 7, ROOT, out_dir, size="tiny")
        t0 = perf_counter()
        outcome = workloads.execute(wl)
        runs[name] = (wl, outcome, perf_counter() - t0)
    return runs


# ---------------------------------------------------------------------------
# Seeded inputs
# ---------------------------------------------------------------------------


def _signature(wl):
    return [op.name for op in wl.ops + wl.faults]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_same_inputs(name, out_dir):
    a = workloads.build(name, 11, ROOT, out_dir)
    b = workloads.build(name, 11, ROOT, out_dir)
    assert _signature(a) == _signature(b)
    assert a.config_paths == b.config_paths


def test_generated_networks_depend_only_on_seed():
    assert workloads.generated_networks(5) == workloads.generated_networks(5)
    assert workloads.generated_networks(5) != workloads.generated_networks(6)
    for net in workloads.generated_networks(5):
        assert workloads._poles_separated(net["hops"])
        assert {h["family"] for h in net["hops"]} <= set(workloads.FAMILIES)
    families = {h["family"] for net in workloads.generated_networks(5) for h in net["hops"]}
    assert families == set(workloads.FAMILIES)


def test_sweep_seeds_distinct_and_reproducible():
    seeds = [workloads._sweep_seed(3, i) for i in range(len(workloads.SWEEP_CONFIGS))]
    assert len(set(seeds)) == len(seeds)
    assert seeds == [workloads._sweep_seed(3, i) for i in range(len(workloads.SWEEP_CONFIGS))]


def test_oracle_order_from_seed(out_dir):
    a = _signature(workloads.build("oracle", 1, ROOT, out_dir))
    b = _signature(workloads.build("oracle", 2, ROOT, out_dir))
    assert sorted(a) == sorted(b) and a != b
    assert a[-3:] == [f"oracle.{n}.{db}" for n, db in workloads.ORACLE_FAULTS]


# ---------------------------------------------------------------------------
# Smoke runs
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tiny_run_passes_in_seconds(name, tiny):
    wl, outcome, seconds = tiny[name]
    failed, problems = workloads.check(wl, outcome)
    assert problems == []
    assert sorted(n for n, _ in failed) == sorted(op.name for op in wl.faults)
    assert seconds < 30.0


def test_oracle_standing_faults_fail(tiny):
    wl, outcome, _ = tiny["oracle"]
    failed = dict(workloads.check(wl, outcome)[0])
    assert "QuadratureConvergenceError" in failed["oracle.rician3.50"]
    assert "QuadratureConvergenceError" in failed["oracle.rician3.60"]
    assert "against quadrature" in failed["oracle.nakagami3.60"]


def test_traced_tiny_run_reports_layers(out_dir):
    wl = workloads.build("sweep", 7, ROOT, out_dir, size="tiny")
    tracer = Tracer()
    tracer.install(relayasym)
    try:
        outcome = workloads.execute(wl, tracer)
    finally:
        tracer.uninstall()
    assert relayasym.channels.specfun is relayasym.specfun
    assert not hasattr(relayasym.montecarlo.sample, "__wrapped__")
    failed, problems = workloads.check(wl, outcome)
    assert failed == [] and problems == []
    setup = {"import_s": 1.0, "parse_s": 0.001}
    metrics = run.layer_metrics(tracer, wl, outcome, setup, outcome.solve_s)
    assert list(metrics) == run.per_layer_names()
    assert metrics["channels.sample_draws"]["value"] == 3 * 3 * (1 << 17)
    assert metrics["montecarlo.samples_per_s_w2"]["value"] > 0
    assert metrics["analysis.sweep_expansion_s"]["value"] > 0
    assert metrics["channels.validate_model_calls"]["value"] > 0
    spans = [s for s in tracer.spans if s is not None]
    assert any(s[2] == "montecarlo.estimate_outage" and s[1] is not None for s in spans)


# ---------------------------------------------------------------------------
# Every check rejects a perturbed value and a raised error
# ---------------------------------------------------------------------------


def _scale_text_numbers(text: str) -> str:
    def scale(m):
        return repr(float(m.group(0)) * PERTURB)
    lines = text.splitlines()
    return "\n".join(lines[:2] + [re.sub(r"-?\d+\.\d+e[-+]\d+", scale, ln) for ln in lines[2:]]) + "\n"


def _perturbed(value):
    """Variants of an operation's output, each a few percent off somewhere."""
    if isinstance(value, float):
        return [value * PERTURB]
    if isinstance(value, list):
        return [[v * PERTURB for v in value]]
    if isinstance(value, mellin.AsymptoticExpansion):
        terms = tuple(mellin.AsymptoteTerm(t.exponent, tuple(c * PERTURB for c in t.log_coeffs))
                      for t in value.terms)
        return [dataclasses.replace(value, terms=terms)]
    if isinstance(value, tuple) and isinstance(value[0], mellin.AsymptoteTerm):
        term, s0, k = value
        return [(mellin.AsymptoteTerm(term.exponent, tuple(c * PERTURB for c in term.log_coeffs)), s0, k)]
    if isinstance(value, tuple) and isinstance(value[1], str):
        return [(value[0], _scale_text_numbers(value[1])), (4, value[1])]
    if isinstance(value, tuple):
        s0, k = value
        return [(s0 * PERTURB, k), (s0, k + 1)]
    raise TypeError(f"no perturbation for {type(value)}")


@pytest.mark.parametrize("name", ("asymptote", "oracle"))
def test_checks_reject_perturbed_outputs(name, tiny):
    wl, outcome, _ = tiny[name]
    for op in wl.ops:
        good = outcome.results[op.name]
        op.check(good, outcome.results)
        for bad in _perturbed(good):
            with pytest.raises(workloads.CheckError):
                op.check(bad, outcome.results)


def _one_coefficient_off(value):
    """Variants of an expansion output with one coefficient of a term below the top 3% off."""
    if isinstance(value, mellin.AsymptoticExpansion):
        for t, term in enumerate(value.terms[1:], start=1):
            for i in range(len(term.log_coeffs)):
                coeffs = list(term.log_coeffs)
                coeffs[i] *= PERTURB
                terms = list(value.terms)
                terms[t] = mellin.AsymptoteTerm(term.exponent, tuple(coeffs))
                yield dataclasses.replace(value, terms=tuple(terms))
        return
    code, text = value
    lines = text.splitlines()
    first = next(i for i, ln in enumerate(lines) if ln.startswith("exponent")) + 2
    for row in range(first, len(lines)):
        cells = lines[row].split()
        for col in range(1, len(cells)):
            bad = cells[:col] + [f"{float(cells[col]) * PERTURB:.12e}"] + cells[col + 1:]
            yield code, "\n".join(lines[:row] + [" ".join(bad)] + lines[row + 1:]) + "\n"


def test_expansion_checks_reject_one_lower_coefficient(tiny):
    """Each check of an expansion, at lambda = 2 and 3 alike, sees every coefficient of every term."""
    wl, outcome, _ = tiny["asymptote"]
    seen = 0
    for op in wl.ops:
        if ".expansion." not in op.name:
            continue
        for bad in _one_coefficient_off(outcome.results[op.name]):
            with pytest.raises(workloads.CheckError):
                op.check(bad, outcome.results)
            seen += 1
    assert seen > 20


@pytest.mark.parametrize("name", ("nakagami3", "gen0"))
def test_evaluate_check_rejects_lambda3_with_a_lower_term_off(name, tiny):
    """A lambda = 3 expansion whose second term is 3% off fails its evaluate check,
    although its values are evaluated faithfully and lambda = 2 is untouched."""
    wl, outcome, _ = tiny["asymptote"]
    key = f"{name}.expansion.l3"
    good = workloads._expansion_object(outcome.results[key])
    bad = next(_one_coefficient_off(good))
    results = {**outcome.results, key: bad}
    values = [mellin.evaluate_expansion(bad, workloads.db_to_gamma(db)) for db in workloads.EVAL_DBS]
    op = next(op for op in wl.ops if op.name == f"{name}.evaluate.l3")
    op.check(outcome.results[op.name], outcome.results)
    with pytest.raises(workloads.CheckError):
        op.check(values, results)


@pytest.mark.parametrize("column", (1, 2, 3, 4, 6))
def test_sweep_check_rejects_perturbed_csv(column, tiny, out_dir):
    wl, outcome, _ = tiny["sweep"]
    op = wl.ops[0]
    csv_path = workloads.sweep_csv(out_dir, workloads.WORKER_CHECK[0])
    original = csv_path.read_text()
    lines = original.splitlines()
    cells = lines[2].split(",")
    cells[column] = repr(float(cells[column]) * PERTURB)
    try:
        csv_path.write_text("\n".join(lines[:2] + [",".join(cells)] + lines[3:]) + "\n")
        with pytest.raises(workloads.CheckError):
            op.check(0, outcome.results)
    finally:
        csv_path.write_text(original)
    op.check(0, outcome.results)
    with pytest.raises(workloads.CheckError):
        op.check(4, outcome.results)


def test_sweep_statistics_reject_biased_counts(tiny, out_dir):
    wl, outcome, _ = tiny["sweep"]
    final = wl.final_checks[-1]
    assert final(outcome.results) == []
    csv_path = workloads.sweep_csv(out_dir, workloads.WORKER_CHECK[0])
    original = csv_path.read_text()
    samples = 1 << 17
    lines = original.splitlines()
    out = lines[:1]
    for ln in lines[1:]:
        cells = ln.split(",")
        k = round(float(cells[2]) * samples * 1.2)
        cells[2] = f"{k / samples:.8e}"
        out.append(",".join(cells))
    try:
        csv_path.write_text("\n".join(out) + "\n")
        assert final(outcome.results) != []
    finally:
        csv_path.write_text(original)


def test_raised_error_counts_as_failed(out_dir):
    wl = workloads.build("oracle", 1, ROOT, out_dir, size="tiny")
    wl.ops = wl.ops[:2]

    def boom(_results):
        raise relayasym.QuadratureConvergenceError("injected")

    wl.ops[0] = dataclasses.replace(wl.ops[0], call=boom)
    outcome = workloads.execute(wl)
    failed, _ = workloads.check(wl, outcome)
    assert wl.ops[0].name in dict(failed)
    assert wl.ops[1].name not in dict(failed)


# ---------------------------------------------------------------------------
# BENCHMARK.json and the entry point
# ---------------------------------------------------------------------------


def test_benchmark_json_lists_the_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == ["setup_s", "solve_s", "peak_rss_mb"]
    names = run.per_layer_names()
    assert [m["name"] for m in spec["per_layer"]] == names
    assert [m["unit"] for m in spec["per_layer"]] == [run.unit_of(n) for n in names]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "asymptote", "--seed", "1", "--seconds", "20", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
