import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import relayasym
from relayasym import cli
from relayasym.analysis import SweepRow
from relayasym.cli import (
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_MODEL,
    EXIT_NUMERICAL,
    EXIT_OK,
    ConfigSchemaError,
    ConfigSyntaxError,
    emit_csv,
    parse_config,
)
from relayasym.errors import ModelValidationError

NAK3_TEXT = json.dumps(
    {
        "gamma_t_db": 0.0,
        "hops": [
            {"fading": "nakagami", "m": 2.2, "theta": 1.0, "rho": 1.0},
            {"fading": "nakagami", "m": 1.8, "theta": 1.0, "rho": 1.0},
            {"fading": "nakagami", "m": 1.8, "theta": 1.0, "rho": 1.0},
        ],
    }
)

RIC3_TEXT = json.dumps(
    {
        "gamma_t_db": 0.0,
        "hops": [
            {"fading": "rician", "K": 1.0, "theta": 1.0, "rho": 1.0},
            {"fading": "rician", "K": 3.0, "theta": 1.0, "rho": 1.0},
            {"fading": "rician", "K": 5.0, "theta": 1.0, "rho": 1.0},
        ],
    }
)

RAY1_TEXT = json.dumps(
    {"gamma_t_db": 0.0, "hops": [{"fading": "nakagami", "m": 1.0, "theta": 1.0, "rho": 1.0}]}
)


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------


def test_parse_three_hop_nakagami_config():
    network = parse_config(NAK3_TEXT)
    assert network.n_hops == 3
    assert network.gamma_t == 1.0
    assert [h.model.shape for h in network.hops] == [2.2, 1.8, 1.8]
    args = cli._build_parser().parse_args(["sweep", "--config", "-"])
    assert args.lambda_max == 2 and args.seed == 42 and args.samples == 10**6


def test_parse_rejects_first_hop_rho():
    doc = json.loads(RAY1_TEXT)
    doc["hops"][0]["rho"] = 2.0
    with pytest.raises(ConfigSchemaError):
        parse_config(json.dumps(doc))


def test_parse_rejects_unknown_family_as_model_error():
    doc = {"gamma_t_db": 0.0, "hops": [{"fading": "lognormal", "m": 1.0}]}
    with pytest.raises(ModelValidationError):
        parse_config(json.dumps(doc))


def test_parse_rejects_syntax_and_schema():
    with pytest.raises(ConfigSyntaxError):
        parse_config("this is not json")
    with pytest.raises(ConfigSchemaError):
        parse_config(json.dumps({"hops": []}))
    with pytest.raises(ConfigSchemaError):
        parse_config(json.dumps({"hops": [{"fading": "nakagami", "m": 1, "bogus": 2}]}))
    with pytest.raises(ConfigSchemaError):
        parse_config(json.dumps({"gamma_t": 1.0, "gamma_t_db": 0.0, "hops": [{"fading": "nakagami", "m": 1}]}))
    with pytest.raises(ConfigSchemaError):
        parse_config(json.dumps({"hops": [{"fading": "nakagami"}]}))  # no shape key
    with pytest.raises(ConfigSchemaError, match="top level must be an object"):
        parse_config(json.dumps([{"fading": "nakagami", "m": 1}]))
    with pytest.raises(ConfigSchemaError, match=r"hops\[1\] must be an object"):
        parse_config(json.dumps({"hops": [{"fading": "nakagami", "m": 1}, "nakagami"]}))
    for fading in ({}, {"fading": 3}):
        with pytest.raises(ConfigSchemaError, match="needs a string 'fading' key"):
            parse_config(json.dumps({"hops": [{"m": 1, **fading}]}))
    with pytest.raises(ConfigSchemaError):
        parse_config(json.dumps({"extra": 1, "hops": [{"fading": "nakagami", "m": 1}]}))
    two_hops = [{"fading": "nakagami", "m": 1}, {"fading": "nakagami", "m": 1, "rho": -1.0}]
    with pytest.raises(ConfigSchemaError):
        parse_config(json.dumps({"hops": two_hops}))  # rho of a later hop
    with pytest.raises(ConfigSchemaError):
        parse_config(json.dumps({"gamma_t": 0.0, "hops": [{"fading": "nakagami", "m": 1}]}))
    with pytest.raises(ConfigSchemaError):
        parse_config(json.dumps({"gamma_t": "abc", "hops": [{"fading": "nakagami", "m": 1}]}))
    with pytest.raises(ConfigSchemaError):
        parse_config(json.dumps({"gamma_t_db": [1], "hops": [{"fading": "nakagami", "m": 1}]}))
    # JSON booleans are not numbers, though Python's bool is an int
    with pytest.raises(ConfigSchemaError, match=r"hops\[0\]\.m must be a number"):
        parse_config(json.dumps({"hops": [{"fading": "nakagami", "m": True}]}))
    with pytest.raises(ConfigSchemaError, match="gamma_t must be a number"):
        parse_config(json.dumps({"gamma_t": True, "hops": [{"fading": "nakagami", "m": 1}]}))
    # numbers that overflow a float
    with pytest.raises(ConfigSchemaError):
        parse_config(json.dumps({"gamma_t_db": 4000, "hops": [{"fading": "nakagami", "m": 1}]}))
    with pytest.raises(ConfigSchemaError):
        parse_config(json.dumps({"gamma_t": 10**400, "hops": [{"fading": "nakagami", "m": 1}]}))
    with pytest.raises(ConfigSchemaError):
        parse_config(json.dumps({"hops": [{"fading": "nakagami", "m": 1, "theta": 10**400}]}))


def test_parse_gamma_t_linear_and_db():
    linear = parse_config(json.dumps({"gamma_t": 2.0, "hops": json.loads(RAY1_TEXT)["hops"]}))
    assert linear.gamma_t == 2.0
    db = parse_config(json.dumps({"gamma_t_db": 3.0, "hops": json.loads(RAY1_TEXT)["hops"]}))
    assert db.gamma_t == pytest.approx(10 ** 0.3)


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------


def parse_csv(text: str) -> list[SweepRow]:
    """Re-parse an emitted CSV back into SweepRows."""
    lines = [ln for ln in text.splitlines() if ln]
    assert lines and lines[0] == cli.CSV_HEADER
    opt = lambda c: None if c == "" else float(c)
    rows = []
    for ln in lines[1:]:
        cells = ln.split(",")
        rows.append(
            SweepRow(
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


def _row(db=30.0, p=9.516258196e-2):
    return SweepRow(gamma_bar_db=db, p_asym=p, d_finite=1.0)


def test_emit_csv_shape(tmp_path):
    path = tmp_path / "out.csv"
    emit_csv([_row()], str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "gamma_db,p_asym,p_mc,ci_low,ci_high,p_oracle,d_finite"
    assert lines[1] == "30.0,9.51625820e-02,,,,,1.0"


def test_emit_csv_requires_rows():
    with pytest.raises(ValueError):
        emit_csv([], None)


def test_emit_csv_sorted_and_round_trip(tmp_path):
    rows = [
        SweepRow(20.0, 1.23456789e-2, 1.5, 1.2e-2, 1.1e-2, 1.3e-2, 9.87654321e-3),
        _row(10.0, 0.5),
    ]
    path = tmp_path / "a.csv"
    emit_csv(rows, str(path))
    text_a = path.read_text()
    assert text_a.splitlines()[1].startswith("10.0,")  # ascending gamma_db
    parsed = parse_csv(text_a)
    path_b = tmp_path / "b.csv"
    emit_csv(parsed, str(path_b))
    assert path_b.read_text() == text_a  # byte-identical after a round trip


# ---------------------------------------------------------------------------
# commands end to end
# ---------------------------------------------------------------------------


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_poles_command_ric3(tmp_path, capsys):
    cfg = _write(tmp_path, "ric3.json", RIC3_TEXT)
    assert cli.main(["poles", "--config", cfg]) == EXIT_OK
    out = capsys.readouterr().out
    lines = out.splitlines()
    # the whole table, so any drift in how a location or order prints shows
    table = lines.index("location order")
    assert lines[table:table + 4] == ["location order", "0 1", "-1 3", "-2 3"]
    assert "s0 = -1" in out
    assert "k = 3" in out
    assert "d = 1" in out


def test_asymptote_command_one_hop(tmp_path, capsys):
    cfg = _write(tmp_path, "ray1.json", RAY1_TEXT)
    code = cli.main(
        ["asymptote", "--config", cfg, "--lambda-max", "0", "--re-min", "-3.5"]
    )
    assert code == EXIT_OK
    lines = [
        ln for ln in capsys.readouterr().out.splitlines() if ln and not ln.startswith("#")
    ]
    table = {float(ln.split()[0]): float(ln.split()[1]) for ln in lines[1:]}
    assert table[-1.0] == pytest.approx(1.0, rel=1e-9)
    assert table[-2.0] == pytest.approx(-0.5, rel=1e-9)
    assert table[-3.0] == pytest.approx(1.0 / 6.0, rel=1e-9)


def test_asymptote_command_small_hoyt_q(tmp_path, capsys):
    # the outage of one hop starts as pdf(0) gamma_t / gamma_bar, with
    # pdf(0) = (1 + q^2) / (2 q) for Hoyt
    q = 0.01
    doc = {"gamma_t_db": 0.0, "hops": [{"fading": "hoyt", "q": q}]}
    cfg = _write(tmp_path, "hoyt1.json", json.dumps(doc))
    assert cli.main(["asymptote", "--config", cfg]) == EXIT_OK
    lines = [ln for ln in capsys.readouterr().out.splitlines() if ln and not ln.startswith("#")]
    table = {float(ln.split()[0]): float(ln.split()[1]) for ln in lines[1:]}
    assert table[-1.0] == pytest.approx((1.0 + q * q) / (2.0 * q), rel=1e-9)


def test_simulate_command(tmp_path, capsys):
    cfg = _write(tmp_path, "ray1.json", RAY1_TEXT)
    args = ["simulate", "--config", cfg, "--db-from", "10", "--samples", "20000", "--seed", "5"]
    assert cli.main(args) == EXIT_OK
    first = capsys.readouterr().out
    assert cli.main(args) == EXIT_OK
    assert capsys.readouterr().out == first  # deterministic
    p_hat = float(next(ln.split("=")[1] for ln in first.splitlines() if ln.startswith("p_hat")))
    assert p_hat == pytest.approx(1.0 - math.exp(-0.1), abs=0.01)


def test_sweep_command_byte_identical(tmp_path):
    cfg = _write(tmp_path, "ray1.json", RAY1_TEXT)
    out_a, out_b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    args = ["sweep", "--config", cfg, "--db-from", "10", "--db-to", "20", "--db-step", "5",
            "--samples", "5000", "--seed", "3", "--oracle"]
    assert cli.main(args + ["--out", out_a]) == EXIT_OK
    assert cli.main(args + ["--out", out_b]) == EXIT_OK
    text = open(out_a).read()
    assert text == open(out_b).read()
    rows = parse_csv(text)
    assert len(rows) == 3
    assert rows[0].p_oracle == pytest.approx(1.0 - math.exp(-0.1), abs=1e-9)


def test_sweep_command_mc_off(tmp_path, capsys):
    cfg = _write(tmp_path, "ray1.json", RAY1_TEXT)
    args = ["sweep", "--config", cfg, "--db-from", "10", "--db-to", "15",
            "--db-step", "5", "--samples", "0"]
    assert cli.main(args) == EXIT_OK
    rows = parse_csv(capsys.readouterr().out)
    assert all(r.p_mc is None for r in rows)


def test_sweep_command_from_0_db(tmp_path, capsys):
    # at 0 dB the expansion and the k = 3 finite diversity are undefined and
    # their cells stay empty; the rows above are those of a sweep from 5 dB
    cfg = _write(tmp_path, "ric3.json", RIC3_TEXT)
    args = ["sweep", "--config", cfg, "--db-to", "10", "--db-step", "5", "--samples", "0", "--oracle"]
    assert cli.main(args + ["--db-from", "0"]) == EXIT_OK
    from_0 = capsys.readouterr().out.splitlines()
    assert cli.main(args + ["--db-from", "5"]) == EXIT_OK
    from_5 = capsys.readouterr().out.splitlines()
    db, p_asym, p_mc, ci_low, ci_high, p_oracle, d_finite = from_0[1].split(",")
    assert (db, p_asym, p_mc, ci_low, ci_high, d_finite) == ("0.0", "", "", "", "", "")
    assert 0.0 < float(p_oracle) < 1.0
    assert from_0[2:] == from_5[1:]
    assert len(from_5) == 3


def test_diversity_command(tmp_path, capsys):
    cfg = _write(tmp_path, "ric3.json", RIC3_TEXT)
    args = ["diversity", "--config", cfg, "--db-from", "20", "--db-to", "40", "--db-step", "10"]
    assert cli.main(args) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["gamma_db", "d_finite"]
    d30 = float(lines[2].split()[1])
    lg = math.log(10.0**3)
    assert d30 == pytest.approx(1.0 - 2.0 * math.log(lg) / lg, rel=1e-12)


def test_one_point_db_grid(tmp_path, capsys):
    # --db-from equal to --db-to is a grid of one point: one row, the same
    # row a longer grid from that point starts with
    cfg = _write(tmp_path, "ric3.json", RIC3_TEXT)
    for command, extra in (("diversity", []), ("sweep", ["--samples", "0", "--oracle"])):
        args = [command, "--config", cfg, "--db-from", "20", "--db-step", "10", *extra]
        assert cli.main(args + ["--db-to", "20"]) == EXIT_OK
        one = capsys.readouterr().out.splitlines()
        assert cli.main(args + ["--db-to", "30"]) == EXIT_OK
        two = capsys.readouterr().out.splitlines()
        assert len(one) == 2
        assert one == two[:2]


@pytest.mark.parametrize("command", ["diversity", "sweep"])
@pytest.mark.parametrize("db_range", [("30", "20", "5"), ("20", "30", "0"), ("20", "30", "-5")],
                         ids=["descending", "zero-step", "negative-step"])
def test_db_grid_needs_ascending_range_and_positive_step(tmp_path, capsys, command, db_range):
    cfg = _write(tmp_path, "ray1.json", RAY1_TEXT)
    lo, hi, step = db_range
    args = [command, "--config", cfg, "--db-from", lo, "--db-to", hi, "--db-step", step]
    assert cli.main(args + (["--samples", "0"] if command == "sweep" else [])) == EXIT_CONFIG
    assert "need lo <= hi and step > 0" in capsys.readouterr().err


def test_fine_db_grid_is_built_by_index(tmp_path, capsys):
    # a step of 0.1 summed 542 times gives 54.200000000001; lo + i * step does not drift
    cfg = _write(tmp_path, "ray1.json", RAY1_TEXT)
    grid = ["--config", cfg, "--db-from", "0", "--db-to", "100", "--db-step", "0.1"]
    out = tmp_path / "fine.csv"
    assert cli.main(["sweep", *grid, "--samples", "0", "--out", str(out)]) == EXIT_OK
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 1001
    assert lines[543].startswith("54.2,")
    assert lines[-1].startswith("100.0,")
    assert capsys.readouterr().out == ""
    assert cli.main(["diversity", *grid]) == EXIT_OK
    assert len(capsys.readouterr().out.splitlines()) == 1 + 1001


def test_diversity_command_fine_weibull_lattice(tmp_path, capsys):
    # 2,500 Weibull m = 4e-4 poles lie in [s0 - 1, s0]; the leading pole lists none
    doc = {"gamma_t_db": 0.0, "hops": [{"fading": "nakagami", "m": 2.0}, {"fading": "weibull", "m": 4e-4}]}
    args = ["diversity", "--config", _write(tmp_path, "fine.json", json.dumps(doc)),
            "--db-from", "20", "--db-to", "30", "--db-step", "10"]
    assert cli.main(args) == EXIT_OK
    assert capsys.readouterr().out.splitlines()[1:] == ["20 0.0004", "30 0.0004"]


def test_asymptote_warns_on_stderr_when_hop_n_is_off_the_leading_pole(tmp_path):
    # the lambda = 2 constant 3.1075 is a partial sum (exact: 2.24302); stdout
    # keeps its format and values, and the warning names hop 3 on stderr
    doc = {"gamma_t_db": 0.0, "hops": [{"fading": "nakagami", "m": m} for m in (1.5, 2.5, 3.5)]}
    cfg = _write(tmp_path, "n3.json", json.dumps(doc))
    proc = subprocess.run(
        [sys.executable, "-m", "relayasym.cli", "asymptote", "--config", cfg],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(Path(relayasym.__file__).parents[1])},
    )
    assert proc.returncode == EXIT_OK
    assert proc.stdout == (
        "# expansion terms: sum_i c_i (ln g)^i g^exponent  (lambda_max=2, re_min=-3)\n"
        "exponent coefficients(c0..)\n"
        "-1.5 3.107522350255e+00\n"
        "-2.5 -1.478386402500e+00 -7.406971081429e-01\n"
    )
    assert "TruncationWarning: hop 3 " in proc.stderr


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------


def test_diversity_command_from_0_db(tmp_path, capsys):
    # at 0 dB the k = 3 finite diversity is undefined and reads nan, as its
    # sweep cell stays empty; the rows above are those of a run from 5 dB
    cfg = _write(tmp_path, "ric3.json", RIC3_TEXT)
    args = ["diversity", "--config", cfg, "--db-to", "10", "--db-step", "5"]
    assert cli.main(args + ["--db-from", "0"]) == EXIT_OK
    from_0 = capsys.readouterr().out.splitlines()
    assert cli.main(args + ["--db-from", "5"]) == EXIT_OK
    from_5 = capsys.readouterr().out.splitlines()
    assert from_0[1] == "0 nan"
    assert from_0[2:] == from_5[1:]
    assert len(from_5) == 3


def test_exit_codes(tmp_path, capsys):
    bad_syntax = _write(tmp_path, "bad.json", "{nope")
    assert cli.main(["poles", "--config", bad_syntax]) == EXIT_CONFIG

    bad_rho = json.loads(RAY1_TEXT)
    bad_rho["hops"][0]["rho"] = 2.0
    assert cli.main(["poles", "--config", _write(tmp_path, "rho.json", json.dumps(bad_rho))]) == EXIT_CONFIG

    lognormal = {"gamma_t_db": 0.0, "hops": [{"fading": "lognormal", "m": 1.0}]}
    assert cli.main(["poles", "--config", _write(tmp_path, "ln.json", json.dumps(lognormal))]) == EXIT_MODEL
    # a shape key of another family: m is not a Rician K, q not a Nakagami m
    for hop in ({"fading": "rician", "m": 3.0}, {"fading": "nakagami", "q": 0.5}):
        assert cli.main(["poles", "--config", _write(tmp_path, "key.json", json.dumps({"hops": [hop]}))]) == EXIT_CONFIG

    assert cli.main(["poles", "--config", str(tmp_path / "missing.json")]) == EXIT_IO

    # a JSON boolean where a number belongs
    boolean = {"gamma_t_db": 0.0, "hops": [{"fading": "nakagami", "m": True, "rho": True}]}
    assert cli.main(["poles", "--config", _write(tmp_path, "bool.json", json.dumps(boolean))]) == EXIT_CONFIG

    # config text that is not UTF-8
    not_utf8 = tmp_path / "not_utf8.json"
    not_utf8.write_bytes(b"\xff" + RAY1_TEXT.encode())
    assert cli.main(["poles", "--config", str(not_utf8)]) == EXIT_CONFIG

    # Rician K beyond the supported 1F1 argument range -> numerical failure
    big_k = {"gamma_t_db": 0.0, "hops": [{"fading": "rician", "K": 40.0}]}
    assert cli.main(["asymptote", "--config", _write(tmp_path, "bigk.json", json.dumps(big_k))]) == EXIT_NUMERICAL

    # missing db range for sweep
    ray = _write(tmp_path, "ray.json", RAY1_TEXT)
    assert cli.main(["sweep", "--config", ray, "--samples", "0"]) == EXIT_CONFIG
    # a negative sample count is an error in sweeps as in simulate
    sweep = ["sweep", "--config", ray, "--db-from", "10", "--db-to", "15", "--samples", "-5"]
    assert cli.main(sweep) == EXIT_CONFIG
    # option values that are not finite, or give no float gain or grid
    assert cli.main(["asymptote", "--config", ray, "--re-min", "nan"]) == EXIT_CONFIG
    assert cli.main(["simulate", "--config", ray, "--db-from", "4000"]) == EXIT_CONFIG
    # a dB value whose gain underflows to 0.0
    assert cli.main(["simulate", "--config", ray, "--db-from", "-4000"]) == EXIT_CONFIG
    assert cli.main(["diversity", "--config", ray, "--db-from", "0", "--db-to", "10", "--db-step", "1e-9"]) == EXIT_CONFIG
    assert cli.main(["sweep", "--config", ray, "--db-from", "0", "--db-to", "inf", "--samples", "0"]) == EXIT_CONFIG
    # pole windows too wide or too fine to list: a million poles, and 150,000
    # poles of a Weibull m = 1e-5 moment in the default window
    started = time.perf_counter()
    assert cli.main(["asymptote", "--config", ray, "--re-min=-1e6"]) == EXIT_CONFIG
    fine = {"gamma_t_db": 0.0, "hops": [{"fading": "weibull", "m": 1e-5}]}
    assert cli.main(["asymptote", "--config", _write(tmp_path, "fine.json", json.dumps(fine))]) == EXIT_CONFIG
    # poles lists down to re_min - 2 as asymptote does, so it refuses the
    # 3,500 poles of a Weibull m = 0.001 moment that the default window needs
    finer = {"gamma_t_db": 0.0, "hops": [{"fading": "weibull", "m": 0.001}]}
    assert cli.main(["poles", "--config", _write(tmp_path, "finer.json", json.dumps(finer))]) == EXIT_CONFIG
    assert time.perf_counter() - started < 5.0
    # an 8-hop lambda_max = 40 series: 6.3e7 terms, refused before any is planned
    nak8 = _write(tmp_path, "nak8.json", json.dumps({"hops": [{"fading": "nakagami", "m": 2.0}] * 8}))
    started = time.perf_counter()
    assert cli.main(["asymptote", "--config", nak8, "--lambda-max", "40"]) == EXIT_CONFIG
    assert time.perf_counter() - started < 1.0
    capsys.readouterr()
    # the moment product underflows to 0 on contours far left of the leading pole
    assert cli.main(["asymptote", "--config", ray, "--re-min=-200"]) == EXIT_NUMERICAL
    assert "underflow" in capsys.readouterr().err
    # a negative truncation order
    assert cli.main(["asymptote", "--config", ray, "--lambda-max=-1"]) == EXIT_CONFIG
    # a window right of the leading pole s0 = -1 holds no residue
    ray2 = _write(tmp_path, "ray2.json", json.dumps({"hops": [{"fading": "nakagami", "m": 1.0}] * 2}))
    assert cli.main(["asymptote", "--config", ray2, "--re-min=-0.5"]) == EXIT_CONFIG
    sweep = ["sweep", "--config", ray2, "--db-from", "30", "--db-to", "40", "--samples", "0", "--re-min=-0.5"]
    assert cli.main(sweep) == EXIT_CONFIG
    assert "no residue in the window" in capsys.readouterr().err
    # a sample count too large to draw is refused before any block is planned
    started = time.perf_counter()
    assert cli.main(["simulate", "--config", ray, "--db-from", "30", "--samples", str(10**21)]) == EXIT_CONFIG
    assert time.perf_counter() - started < 1.0
    # float overflows in the expansion name what overflowed: a term coefficient
    # with 171! in it, one with (rho_1/rho_2)^2 = 1e400, and (gamma_t rho_N)^-s0 = 1e600
    tiny_rho = {"hops": [{"fading": "nakagami", "m": 2.0}, {"fading": "nakagami", "m": 2.0, "rho": 1e-200}]}
    big_gamma_t = {"gamma_t_db": 300, "hops": [{"fading": "nakagami", "m": 20.0}] * 2}
    for doc, options, named in (
        ({"hops": [{"fading": "nakagami", "m": 1.0}] * 2}, ["--lambda-max", "171"], "series term (0, 171)"),
        (tiny_rho, [], "series term (0, 2)"),
        (big_gamma_t, [], "(gamma_t rho_N)^-s0 = 1e+30^20"),
    ):
        assert cli.main(["asymptote", "--config", _write(tmp_path, "over.json", json.dumps(doc)), *options]) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert named in err and "overflows a float" in err and "Traceback" not in err


def test_sweep_oracle_on_sharp_weibull_hops_fails_without_runtime_warnings(tmp_path):
    # (x / theta)^40 overflows to inf on the oracle's window, where the density
    # is 0 and the CDF 1; the finest panels are still too coarse, so the sweep
    # stops with a numerical failure and no numpy warning on stderr
    doc = {"gamma_t_db": 0.0, "hops": [{"fading": "weibull", "m": 40.0}] * 2}
    cfg = _write(tmp_path, "wei40.json", json.dumps(doc))
    proc = subprocess.run(
        [sys.executable, "-m", "relayasym.cli", "sweep", "--config", cfg,
         "--db-from", "10", "--db-to", "20", "--samples", "0", "--oracle"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(Path(relayasym.__file__).parents[1])},
    )
    assert proc.returncode == EXIT_NUMERICAL
    assert "RuntimeWarning" not in proc.stderr


# ---------------------------------------------------------------------------
# the options of each command
# ---------------------------------------------------------------------------

ALL_OPTIONS = ("--db-from", "--db-to", "--db-step", "--samples", "--seed", "--lambda-max",
               "--re-min", "--out", "--oracle")
# the options each command takes besides --config; any other is a usage error
TAKES = {
    "poles": ("--re-min",),
    "asymptote": ("--lambda-max", "--re-min"),
    "simulate": ("--db-from", "--samples", "--seed"),
    "sweep": ALL_OPTIONS,
    "diversity": ("--db-from", "--db-to", "--db-step"),
}
NEEDS = {"simulate": ["--db-from", "20"], "sweep": ["--db-from", "20", "--db-to", "30"],
         "diversity": ["--db-from", "20", "--db-to", "30"]}
DROPPED = [(command, option) for command in TAKES for option in ALL_OPTIONS if option not in TAKES[command]]


@pytest.mark.parametrize("command", list(TAKES))
def test_help_lists_only_the_options_of_the_command(capsys, command):
    with pytest.raises(SystemExit) as exc:
        cli._build_parser().parse_args([command, "--help"])
    assert exc.value.code == 0
    listed = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
    assert listed == {"--help", "--config", *TAKES[command]}


@pytest.mark.parametrize(("command", "option"), DROPPED, ids=[f"{c}{o}" for c, o in DROPPED])
def test_option_the_command_does_not_take_is_a_usage_error(tmp_path, capsys, command, option):
    cfg = _write(tmp_path, "ray1.json", RAY1_TEXT)
    value = [] if option == "--oracle" else ["1"]
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--config", cfg, *NEEDS.get(command, []), option, *value])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {option}" in capsys.readouterr().err


def test_usage_error_names_the_command_and_its_options(tmp_path, capsys):
    cfg = _write(tmp_path, "ray1.json", RAY1_TEXT)
    with pytest.raises(SystemExit) as exc:
        cli.main(["simulate", "--config", cfg, "--db-from", "20", "--out", "r.csv"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: relay-asym simulate ")
    assert "--samples" in err and "relay-asym simulate: error: unrecognized arguments: --out r.csv" in err


@pytest.mark.parametrize(("command", "missing"), [("simulate", "--db-from"), ("sweep", "--db-to"),
                                                  ("diversity", "--db-to")])
def test_missing_needed_option_exits_2_and_names_it(tmp_path, capsys, command, missing):
    cfg = _write(tmp_path, "ray1.json", RAY1_TEXT)
    args = NEEDS[command][:NEEDS[command].index(missing)]
    assert cli.main([command, "--config", cfg, *args]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"{command} needs " in err and missing in err


def test_stdin_config(tmp_path, capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(RAY1_TEXT))
    assert cli.main(["poles", "--config", "-"]) == EXIT_OK
    assert "s0 = -1" in capsys.readouterr().out
