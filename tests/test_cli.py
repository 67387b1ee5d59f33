import json
import math

import pytest

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
    parse_csv,
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
    cfg = parse_config(NAK3_TEXT, command="poles")
    assert cfg.network.n_hops == 3
    assert cfg.network.gamma_t == 1.0
    assert [h.model.shape for h in cfg.network.hops] == [2.2, 1.8, 1.8]
    assert cfg.lambda_max == 2 and cfg.seed == 42 and cfg.samples == 10**6


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
    with pytest.raises(ConfigSchemaError):
        parse_config(json.dumps({"extra": 1, "hops": [{"fading": "nakagami", "m": 1}]}))
    two_hops = [{"fading": "nakagami", "m": 1}, {"fading": "nakagami", "m": 1, "rho": -1.0}]
    with pytest.raises(ConfigSchemaError):
        parse_config(json.dumps({"hops": two_hops}))  # rho of a later hop
    with pytest.raises(ConfigSchemaError):
        parse_config(json.dumps({"gamma_t": 0.0, "hops": [{"fading": "nakagami", "m": 1}]}))


def test_parse_gamma_t_linear_and_db():
    linear = parse_config(json.dumps({"gamma_t": 2.0, "hops": json.loads(RAY1_TEXT)["hops"]}))
    assert linear.network.gamma_t == 2.0
    db = parse_config(json.dumps({"gamma_t_db": 3.0, "hops": json.loads(RAY1_TEXT)["hops"]}))
    assert db.network.gamma_t == pytest.approx(10 ** 0.3)


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------


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


def test_diversity_command(tmp_path, capsys):
    cfg = _write(tmp_path, "ric3.json", RIC3_TEXT)
    args = ["diversity", "--config", cfg, "--db-from", "20", "--db-to", "40", "--db-step", "10"]
    assert cli.main(args) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["gamma_db", "d_finite"]
    d30 = float(lines[2].split()[1])
    lg = math.log(10.0**3)
    assert d30 == pytest.approx(1.0 - 2.0 * math.log(lg) / lg, rel=1e-12)


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------


def test_exit_codes(tmp_path, capsys):
    bad_syntax = _write(tmp_path, "bad.json", "{nope")
    assert cli.main(["poles", "--config", bad_syntax]) == EXIT_CONFIG

    bad_rho = json.loads(RAY1_TEXT)
    bad_rho["hops"][0]["rho"] = 2.0
    assert cli.main(["poles", "--config", _write(tmp_path, "rho.json", json.dumps(bad_rho))]) == EXIT_CONFIG

    lognormal = {"gamma_t_db": 0.0, "hops": [{"fading": "lognormal", "m": 1.0}]}
    assert cli.main(["poles", "--config", _write(tmp_path, "ln.json", json.dumps(lognormal))]) == EXIT_MODEL

    assert cli.main(["poles", "--config", str(tmp_path / "missing.json")]) == EXIT_IO

    # Rician K beyond the supported 1F1 argument range -> numerical failure
    big_k = {"gamma_t_db": 0.0, "hops": [{"fading": "rician", "K": 40.0}]}
    assert cli.main(["asymptote", "--config", _write(tmp_path, "bigk.json", json.dumps(big_k))]) == EXIT_NUMERICAL

    # missing db range for sweep
    ray = _write(tmp_path, "ray.json", RAY1_TEXT)
    assert cli.main(["sweep", "--config", ray, "--samples", "0"]) == EXIT_CONFIG
    capsys.readouterr()


def test_stdin_config(tmp_path, capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(RAY1_TEXT))
    assert cli.main(["poles", "--config", "-"]) == EXIT_OK
    assert "s0 = -1" in capsys.readouterr().out
