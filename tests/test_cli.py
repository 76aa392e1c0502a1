import json

import numpy as np
import pytest

from bcjacobi.cli import main, run_scenario
from bcjacobi.errors import BCError


def test_response_scenario(tmp_path):
    config = {"command": "response", "spec": "free", "N": 10, "T": 5, "seed": 0}
    manifest = run_scenario(config, tmp_path)
    assert manifest["summary"]["r0"] == 1.0
    lines = (tmp_path / "response.csv").read_text().splitlines()
    assert lines[0] == "t,r_t"
    assert lines[1] == "0,1.0"
    assert (tmp_path / "metadata.json").exists()
    meta = json.loads((tmp_path / "metadata.json").read_text())
    assert "config_sha256" in meta


def test_roundtrip_scenario(tmp_path):
    config = {"command": "roundtrip", "seed": 7, "N": 12}
    manifest = run_scenario(config, tmp_path)
    assert manifest["summary"]["coeff_error"] <= 1e-8


def test_determinism(tmp_path):
    config = {"command": "roundtrip", "seed": 3, "N": 9}
    run_scenario(config, tmp_path / "a")
    run_scenario(config, tmp_path / "b")
    assert (tmp_path / "a" / "roundtrip_a.csv").read_bytes() == (
        tmp_path / "b" / "roundtrip_a.csv"
    ).read_bytes()


def test_toda_scenario_closed_form(tmp_path):
    config = {
        "command": "toda",
        "spec": {"a0": 1.0, "a": [1.0], "b": [0.0, 0.0]},
        "times": [0.0, 0.5, 1.0],
    }
    run_scenario(config, tmp_path)
    rows = (tmp_path / "toda.csv").read_text().splitlines()[1:]
    a_by_t = {}
    for row in rows:
        t, k, a_k, b_k, delta = row.split(",")
        if k == "1":
            a_by_t[float(t)] = float(a_k)
    for t, a1 in a_by_t.items():
        assert a1 == pytest.approx(1 / np.cosh(2 * t), abs=1e-10)


def test_invert_scenario_counterexample(tmp_path):
    config = {"command": "invert", "r": [1.0, 1.0, 0.0, 0.0, -1.0], "T": 3}
    with pytest.raises(BCError):
        run_scenario(config, tmp_path)


def test_invert_scenario_short_response(tmp_path, capsys):
    config = {"command": "invert", "r": [1.0, 0.0, 0.0], "T": 3}
    with pytest.raises(BCError, match="2T-1"):
        run_scenario(config, tmp_path)
    cfg = tmp_path / "short.json"
    cfg.write_text(json.dumps(config))
    rc = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_schema_validation(tmp_path):
    with pytest.raises(BCError):
        run_scenario({"command": "invert", "T": 3}, tmp_path)  # missing r
    with pytest.raises(BCError):
        run_scenario({"command": "nope"}, tmp_path)
    with pytest.raises(BCError):
        run_scenario({}, tmp_path)


def test_graph_scenario(tmp_path):
    config = {
        "command": "graph",
        "T": 6,
        "graph": {
            "vertices": [{"id": "a", "boundary": True}, {"id": "b", "boundary": True}],
            "edges": [{"from": "a", "to": "b", "n_interior": 8}],
        },
        "controls": {"a": [0, 1, 0, 0, 0, 0, 0]},
    }
    manifest = run_scenario(config, tmp_path)
    assert manifest["summary"]["final_energy"] == 2.0
    assert (tmp_path / "graph_field.csv").exists()


def test_cli_run_and_exit_codes(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "response", "spec": "free", "N": 6, "T": 3}))
    rc = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"command": "invert", "r": [1.0, 1, 0, 0, -1], "T": 3}))
    rc = main(["run", "--config", str(bad), "--out", str(tmp_path / "out2")])
    assert rc == 2


def test_cli_verify_filter(tmp_path, capsys):
    rc = main(["verify", "--filter", "free-identity", "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "free-identity" in out
    report = json.loads((tmp_path / "verify_report.json").read_text())
    assert report[0]["passed"]


def test_moments_scenario(tmp_path):
    config = {"command": "moments", "s": [1.0, 0.0, 1.0], "task": "truncated", "N": 2}
    manifest = run_scenario(config, tmp_path)
    assert manifest["summary"]["n_atoms"] == 2
    rows = (tmp_path / "measure.csv").read_text().splitlines()[1:]
    lams = sorted(float(r.split(",")[0]) for r in rows)
    assert lams == pytest.approx([-1.0, 1.0], abs=1e-10)
