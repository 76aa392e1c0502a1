import json
import logging
import os
import platform
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import bcjacobi
from bcjacobi.cli import _BLOCK_ROWS, _csv_lines, _fmt, main, run_scenario
from bcjacobi.core import JacobiSpec, moments_of_measure, random_spec, spectral_measure
from bcjacobi.discrete_wave import solve_semi_infinite
from bcjacobi.errors import BCError
from bcjacobi.graph_wave import GraphSpec, simulate
from bcjacobi.inverse_bc import invert_factorization
from bcjacobi.toda import toda_qr_flow, toda_solve


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


def test_manifest_records_timings_and_versions(tmp_path):
    config = {"command": "invert", "r": [1.0, 0.0, 1.0], "T": 2}
    manifest = run_scenario(config, tmp_path)
    assert json.loads((tmp_path / "manifest.json").read_text()) == manifest
    assert manifest["files"] == ["inversion.json", "metadata.json"]
    pivots = invert_factorization(config["r"], config["T"]).scaled_pivots
    assert json.loads((tmp_path / "inversion.json").read_text())["scaled_pivots"] == [_fmt(x) for x in pivots]
    timings = manifest["timings"]
    assert set(timings) == {"total_s", "write_s", "compute_s"}
    assert 0 < timings["write_s"] <= timings["total_s"]
    assert timings["compute_s"] == timings["total_s"] - timings["write_s"]
    assert manifest["versions"] == {"python": platform.python_version(), "numpy": np.__version__}



def test_run_scenario_logs_its_timings(tmp_path, caplog):
    caplog.set_level(logging.DEBUG, logger="bcjacobi")
    manifest = run_scenario({"command": "response", "spec": "free", "N": 10, "T": 5}, tmp_path)
    records = [rec for rec in caplog.records if rec.name == "bcjacobi.cli"]
    assert len(records) == 1 and records[0].levelno == logging.DEBUG
    assert records[0].getMessage() == f"run_scenario response: timings {manifest['timings']}"

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


def test_toda_scenario_n31_matches_oracle(tmp_path):
    # N = 31 used to exit 2 at the int64 cap of the moment route's Lambda map
    config = {"command": "toda", "spec": "random", "N": 31, "times": [0.5]}
    assert run_scenario(config, tmp_path / "direct")["summary"]["worst_oracle_delta"] <= 1e-6
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "toda.csv").exists()


def test_toda_scenario_on_a_spectrum_far_from_zero(tmp_path):
    config = {"command": "toda", "spec": {"a0": 1.0, "a": [0.1], "b": [100.0, 100.2]},
              "times": [0.0, 8.0]}
    assert run_scenario(config, tmp_path)["summary"]["worst_oracle_delta"] <= 1e-10


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


def test_heat_scenario_rejects_complex_spec(tmp_path, capsys):
    spec = {"a0": 1.0, "a": [1.0], "b": [[0.0, 0.2], 0.0], "mode": "complex"}
    config = {"command": "heat", "spec": spec, "T": 3}
    with pytest.raises(BCError, match="real blocks"):
        run_scenario(config, tmp_path / "direct")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
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


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_indeterminacy_scenario_on_an_eight_atom_measure(tmp_path, seed):
    # N = 20 runs past the 8 atoms: the rows the sweep determines hold
    # nonnegative forms, and the rows past its depth read inf, inf, nan
    mu = spectral_measure(random_spec(8, np.random.default_rng(seed)))
    s = moments_of_measure(mu, 40)[:39]
    config = {"command": "moments", "task": "indeterminacy", "s": s.tolist(), "N": 20}
    summary = run_scenario(config, tmp_path)["summary"]
    assert summary["hamburger_trend"] == summary["stieltjes_trend"] == "growing"
    depth = summary["sweep_depth"]
    assert 8 <= depth < 20
    rows = [line.split(",") for line in (tmp_path / "indeterminacy.csv").read_text().splitlines()[1:]]
    assert [int(row[0]) for row in rows] == list(range(1, 21))
    assert all(float(row[1]) >= 0 and float(row[2]) >= 0 for row in rows[:depth])
    assert all(row[1:] == ["inf", "inf", "nan"] for row in rows[depth:])


@pytest.mark.parametrize("config", [
    {"command": "contjacobi", "N": 0},
    {"command": "contjacobi", "N": -2},
    {"command": "contjacobi", "N": 2, "M": 1},
    {"command": "contjacobi", "N": 2, "M": [800]},
    {"command": "string", "N_values": [25], "T": None},
    {"command": "string", "N_values": [0]},
    {"command": "string", "N_values": [1]},
    {"command": "string", "N_values": [25, 1]},
    {"command": "string", "N_values": []},
    {"command": "string", "N_values": [25, "x"]},
])
def test_continuous_scenarios_reject_bad_sizes(tmp_path, capsys, config):
    _assert_rejected(config, tmp_path, capsys)


@pytest.mark.parametrize("field_time", [5.0, -3.0])
def test_string_scenario_refuses_field_time_outside_the_horizon(tmp_path, capsys, field_time):
    # the field pairing used to be taken at the clamped time and reported against psi(field_time)
    config = {"command": "string", "N_values": [10], "M": 100, "field_time": field_time}
    _assert_rejected(config, tmp_path, capsys)


def test_verify_report_carries_metrics(tmp_path, capsys):
    assert main(["verify", "--filter", "free", "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "verify_report.json").read_text())
    assert [r["name"] for r in report] == ["free-identity"]
    metrics = report[0]["metrics"]
    assert set(metrics) == {"response_err", "connecting_err"}
    assert all(f["value"] <= f["bound"] == 1e-12 for f in metrics.values())


def test_verify_report_holds_every_check_to_its_figures(tmp_path, capsys):
    assert main(["verify", "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "verify_report.json").read_text())
    assert len(report) == 12
    for entry in report:
        figures = entry["metrics"]
        assert figures, entry["name"]
        for f in figures.values():
            assert set(f) - {"low"} == {"value", "bound", "margin"}
            assert all(isinstance(f[k], float) for k in f if k != "margin")
        within = all(f.get("low", -np.inf) <= f["value"] <= f["bound"] for f in figures.values())
        assert entry["passed"] is within, entry["name"]


def test_verify_report_carries_toda_figures_with_bounds(tmp_path, capsys):
    assert main(["verify", "--filter", "toda", "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "verify_report.json").read_text())
    figures = report[0]["metrics"]
    assert set(figures) == {"closed_form", "oracle", "moment_route", "eigenvalues", "trace", "recursion"}
    for f in figures.values():
        assert set(f) == {"value", "bound", "margin"}
        assert 0 < f["value"] <= f["bound"] and f["margin"] == f["bound"] / f["value"]


@pytest.mark.parametrize("config", [
    {"command": "toda", "spec": "random", "N": 5, "times": [-1.0, 0.5], "seed": 3},
    {"command": "contjacobi", "N": 3, "M": 200, "seed": 3},
])
def test_run_needs_no_scipy(tmp_path, config):
    # numpy is the only runtime dependency: a scenario runs with scipy unimportable
    src = str(Path(bcjacobi.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    code = "import sys; sys.modules['scipy'] = None; from bcjacobi.cli import main; sys.exit(main(sys.argv[1:]))"
    proc = subprocess.run([sys.executable, "-c", code, "run", "--config", str(cfg), "--out", str(tmp_path / "out")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_python_m_bcjacobi_verify():
    src = str(Path(bcjacobi.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "bcjacobi", "verify", "--filter", "free"],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "1/1 checks passed" in proc.stdout


def _row_csv(header, rows) -> bytes:
    """The row-at-a-time formatter the column-wise emitter replaced (reference)."""
    lines = [",".join(header)] + [",".join(_fmt(x) for x in row) for row in rows]
    return ("\n".join(lines) + "\n").encode()


@pytest.mark.parametrize("spec", [
    "random",
    {"a0": 1.0, "a": [0.5, [1.0, 0.25]], "b": [[0.0, -0.5], 0.0, [2.0, 0.0]], "mode": "complex"},
])
def test_forward_csv_matches_row_formatter(tmp_path, spec):
    config = {"command": "forward", "spec": spec, "N": 6, "T": 2, "seed": 5,
              "control": [1.0, -0.5]}
    run_scenario(config, tmp_path)
    spec_obj = random_spec(6, np.random.default_rng(5)) if spec == "random" else JacobiSpec.from_json(spec)
    u = solve_semi_infinite(spec_obj, np.array([1.0, -0.5]), 2).u
    rows = [(n, t, u[n, t]) for n in range(u.shape[0]) for t in range(3)]
    assert (tmp_path / "field.csv").read_bytes() == _row_csv(["n", "t", "value"], rows)


def test_graph_csv_matches_row_formatter(tmp_path):
    graph = GraphSpec.star(3, 4)
    control = [0.0, 1.0, 0.0, 0.0, 0.0, 0.0]
    config = {"command": "graph", "graph": graph.to_json(), "T": 5, "controls": {"b0": control}}
    run_scenario(config, tmp_path)
    field, log = simulate(graph, {"b0": np.asarray(control)}, 5)
    rows = [(ei, j, t, arr[j, t]) for ei, arr in enumerate(field.u)
            for j in range(arr.shape[0]) for t in range(arr.shape[1])]
    assert (tmp_path / "graph_field.csv").read_bytes() == _row_csv(["edge", "node", "t", "value"], rows)
    assert (tmp_path / "graph_energy.csv").read_bytes() == _row_csv(
        ["t", "kinetic", "potential", "total"], log)


def test_toda_csv_matches_row_formatter(tmp_path):
    times = [0, 0.5, -0.25]  # the int prints as "0", as the config gave it
    config = {"command": "toda", "spec": "random", "N": 3, "times": times, "seed": 2}
    run_scenario(config, tmp_path)
    spec = random_spec(3, np.random.default_rng(2))
    rows = []
    for t in times:
        st, oracle = toda_solve(spec, float(t)), toda_qr_flow(spec, float(t))
        delta = max(float(np.max(np.abs(st.spec.a - oracle.a))), float(np.max(np.abs(st.spec.b - oracle.b))))
        rows += [(t, k + 1, st.spec.a[k] if k < 2 else "", st.spec.b[k], delta) for k in range(3)]
    assert (tmp_path / "toda.csv").read_bytes() == _row_csv(["t", "k", "a_k", "b_k", "oracle_delta"], rows)


def test_csv_columns_of_every_kind_match_row_formatter():
    columns = [
        np.array([0, -3, 2**40], dtype=np.int64),
        np.array([1, 2, 3], dtype=np.uint8),
        np.array([True, False, True]),
        np.array([-0.0, np.nan, 5e-324]),
        np.array([np.inf, -np.inf, 0.1], dtype=np.float32),
        np.array([0.1, 1, -2], dtype=np.longdouble),
        np.array([1 + 2j, 3 + 0j, -0.0 - 1e-300j]),
        [0.25, 7, ""],
        ["x", True, np.float64(-0.0)],
    ]
    header = [f"c{i}" for i in range(len(columns))]
    text = "".join(_csv_lines(header, columns)).encode()
    assert text == _row_csv(header, zip(*columns))
    assert text.decode().splitlines()[1] == "0,1,True,-0.0,inf,0.1,1.0+2.0j,0.25,x"


def test_csv_blocks_match_row_formatter_across_boundaries():
    rows = 3 * _BLOCK_ROWS + 7
    rng = np.random.default_rng(27)
    # NaNs of both signs and another payload, and both zeros, each a different bit pattern
    nans = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001], dtype=np.uint64).view(float)
    floats = rng.choice(np.concatenate([nans, [-0.0, 0.0, 5e-324, 0.1, -1e4]]), rows)
    cuts = np.arange(1, 4) * _BLOCK_ROWS
    floats[cuts - 1], floats[cuts], floats[cuts + 1] = -0.0, 0.0, nans[1]
    with np.errstate(invalid="ignore"):  # the signalling NaN
        narrow = [floats.astype(np.float32), floats.astype(np.float16)]
    strided = np.repeat(rng.standard_normal(rows)[:, None], 2, axis=1)[:, 0]  # not contiguous
    columns = [
        np.arange(rows) // 5 - 2000,
        rng.integers(0, 3, rows).astype(np.uint8),
        rng.random(rows) < 0.5,
        floats,
        *narrow,
        strided,
        np.where(rng.random(rows) < 0.5, 1.0, 1.0 - 2.0j),
        [7 if k % 3 else "" for k in range(rows)],
    ]
    header = [f"c{i}" for i in range(len(columns))]
    lines = list(_csv_lines(header, columns))
    assert len(lines) == 1 + 4  # the header, three full blocks and a block of 7 rows
    assert "".join(lines).encode() == _row_csv(header, zip(*columns))


def test_csv_writer_holds_one_block_of_strings(tmp_path):
    rows = 200_000
    columns = [np.arange(rows) // 400, np.arange(rows) % 400, np.random.default_rng(3).standard_normal(rows)]
    with open(tmp_path / "field.csv", "w") as fh:
        tracemalloc.start()
        try:
            fh.writelines(_csv_lines(["n", "t", "value"], columns))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    # a block of these rows peaks at 0.73 MB; formatting whole columns at once peaks at 34 MB
    assert peak < 2e6


@pytest.mark.parametrize("bad", [
    {"times": []},
    {"times": ["x"]},
    {"times": [0.5, True]},
    {"times": [0.5, None]},
    {"times": [1e400]},
    {"times": [float("nan")]},
    {"times": [10**400]},
    {"dt": "a"},
    {"dt": 0},
    {"dt": -1e-3},
    {"dt": 1e400},
    {"dt": False},
    {"dt": 1e-3},  # the exact QR-flow oracle has no step size to set
])
def test_toda_scenario_rejects_malformed_input(tmp_path, capsys, bad):
    config = {"command": "toda", "spec": {"a0": 1.0, "a": [1.0], "b": [0.0, 0.0]},
              "times": [0.0, 0.5], **bad}
    _assert_rejected(config, tmp_path, capsys)


def _assert_rejected(config, tmp_path, capsys):
    """A BCError from run_scenario, exit 2 with one error line from main, and no output directory."""
    with pytest.raises(BCError):
        run_scenario(config, tmp_path / "direct")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not list(tmp_path.rglob("*.csv"))
    assert not (tmp_path / "direct").exists() and not (tmp_path / "out").exists()


FREE = {"spec": "free", "N": 8}
PATH_GRAPH = GraphSpec.path(4).to_json()
MALFORMED = {
    # sizes that used to end in a traceback
    "forward-control-length": {"command": "forward", **FREE, "T": 3, "control": [1.0, 0.0]},
    "forward-T0": {"command": "forward", **FREE, "T": 0},
    "response-T0": {"command": "response", **FREE, "T": 0},
    "response-T-negative": {"command": "response", **FREE, "T": -1},
    "heat-T0": {"command": "heat", **FREE, "T": 0},
    "measure-N0": {"command": "measure", "spec": "free", "N": 0},
    "roundtrip-N0": {"command": "roundtrip", "N": 0},
    "truncated-too-few-moments": {"command": "moments", "task": "truncated", "s": [1.0, 0.0, 1.0], "N": 3},
    "weyl-lambda-one-number": {"command": "weyl", **FREE, "lambda": [0.5]},
    "graph-empty": {"command": "graph", "graph": {"vertices": [], "edges": []}, "T": 3},
    # values that used to run silently wrong
    "forward-bc-unknown": {"command": "forward", **FREE, "T": 3, "bc": "nonsense"},
    "weyl-coeff_bound-negative": {"command": "weyl", "lambda": [3.0, 1.0], "r": [1.0] + [0.0] * 39,
                                  "coeff_bound": -1},
    "N-float": {"command": "response", "spec": "free", "N": 2.7, "T": 3},
    "N-string": {"command": "response", "spec": "free", "N": "3", "T": 3},
    "N-bool": {"command": "roundtrip", "N": True},
    "indeterminacy-N0": {"command": "moments", "task": "indeterminacy", "s": [1.0, 0.0, 1.0], "N": 0},
    # every other integer key rejects floats, numeric strings and bools
    "seed-float": {"command": "roundtrip", "N": 4, "seed": 1.5},
    "seed-string": {"command": "roundtrip", "N": 4, "seed": "2"},
    "seed-negative": {"command": "roundtrip", "N": 4, "seed": -1},
    "moments-N-float": {"command": "moments", "task": "truncated", "s": [1.0, 0.0, 1.0], "N": 2.0},
    "contjacobi-M-float": {"command": "contjacobi", "N": 2, "M": 800.0},
    "string-M-string": {"command": "string", "N_values": [25], "M": "1000"},
    "weyl-series_length-float": {"command": "weyl", **FREE, "lambda": [0.5, 4.0], "series_length": 200.5},
    "string-N_values-float": {"command": "string", "N_values": [25.0]},
    "string-N_values-bool": {"command": "string", "N_values": [25, True]},
    "forward-T-float": {"command": "forward", **FREE, "T": 3.0},
    "response-T-string": {"command": "response", **FREE, "T": "5"},
    "invert-T-float": {"command": "invert", "r": [1.0, 0.0, 1.0], "T": 2.5},
    "heat-T-bool": {"command": "heat", **FREE, "T": True},
    "graph-T-float": {"command": "graph", "graph": PATH_GRAPH, "T": 6.0},
    "graph-T-negative": {"command": "graph", "graph": PATH_GRAPH, "T": -1},
    # continuous-time T stays a finite number > 0
    "string-T-zero": {"command": "string", "N_values": [25], "T": 0},
    "string-T-string": {"command": "string", "N_values": [25], "T": "1.0"},
    "contjacobi-T-negative": {"command": "contjacobi", "N": 2, "T": -2.0},
    "weyl-lambda-three-numbers": {"command": "weyl", **FREE, "lambda": [0.5, 4.0, 1.0]},
    "weyl-lambda-string": {"command": "weyl", **FREE, "lambda": "0.5+4j"},
    # malformed JSON structure and vocabularies
    "graph-vertex-missing-key": {"command": "graph", "graph": {"vertices": [{"id": "a"}], "edges": []}, "T": 3},
    "spec-missing-a0": {"command": "measure", "spec": {"b": [0.0]}},
    "spec-entry-string": {"command": "measure", "spec": {"a0": 1.0, "b": ["x"]}},
    "invert-T-negative": {"command": "invert", "r": [1.0, 0.0, 1.0], "T": -3},
    "invert-mode-unknown": {"command": "invert", "r": [1.0, 0.0, 1.0], "T": 2, "mode": "Complex"},
    "invert-real-pair": {"command": "invert", "r": [1.0, [0.0, 1.0], 1.0], "T": 2},
    "graph-control-string": {"command": "graph", "graph": PATH_GRAPH, "T": 2, "controls": {"in": "010"}},
    "string-psi-center-string": {"command": "string", "N_values": [25], "psi": {"center": "x"}},
    # degenerate test functions used to give NaN (and a manifest that is not JSON) or mass -1
    "string-gauss-sigma-zero": {"command": "string", "N_values": [10, 20], "psi": {"kind": "gauss", "sigma": 0}},
    "string-gauss-sigma-negative": {"command": "string", "N_values": [10, 20],
                                    "psi": {"kind": "gauss", "sigma": -0.1}},
    "string-poly-bump-width-negative": {"command": "string", "N_values": [10, 20],
                                        "psi": {"kind": "poly-bump", "width": -0.3}},
    "string-gauss-width": {"command": "string", "N_values": [10, 20], "psi": {"kind": "gauss", "width": 0.3}},
    # nested spec and graph JSON is type-checked, not converted
    "graph-n_interior-float": {"command": "graph", "T": 3, "graph": {
        **PATH_GRAPH, "edges": [{**PATH_GRAPH["edges"][0], "n_interior": 2.7}]}},
    "graph-n_interior-bool": {"command": "graph", "T": 3, "graph": {
        **PATH_GRAPH, "edges": [{**PATH_GRAPH["edges"][0], "n_interior": True}]}},
    "graph-boundary-string": {"command": "graph", "T": 3, "graph": {
        **PATH_GRAPH, "vertices": [PATH_GRAPH["vertices"][0], {"id": "out", "boundary": "no"}]}},
    "graph-id-list": {"command": "graph", "T": 3, "graph": {
        "vertices": [{"id": ["in"], "boundary": True}], "edges": []}},
    "spec-entries-bool-and-string": {"command": "measure",
                                     "spec": {"a0": True, "b": [True, "3"], "a": [1.0]}},
    "spec-a0-nan": {"command": "measure", "spec": {"a0": float("nan"), "b": [0.0]}},
    # sizes past what numpy can allocate as a dimension
    "measure-N-huge": {"command": "measure", "spec": "free", "N": 10**30},
    "roundtrip-N-huge": {"command": "roundtrip", "N": 10**30},
    "forward-T-huge": {"command": "forward", **FREE, "T": 10**30},
    "weyl-series_length-huge": {"command": "weyl", **FREE, "lambda": [0.5, 4.0], "series_length": 10**30},
    "graph-T-huge": {"command": "graph", "graph": PATH_GRAPH, "T": 10**30},
    "graph-n_interior-huge": {"command": "graph", "T": 3, "graph": {
        **PATH_GRAPH, "edges": [{**PATH_GRAPH["edges"][0], "n_interior": 10**30}]}},
    "contjacobi-M-huge": {"command": "contjacobi", "N": 2, "M": 10**30},
    "string-M-huge": {"command": "string", "N_values": [25], "M": 10**30},
}


@pytest.mark.parametrize("config", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_config_exits_2_without_output(tmp_path, capsys, config):
    _assert_rejected(config, tmp_path, capsys)


def test_forward_scenario_refuses_an_unknown_boundary_condition_with_the_librarys_message(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "forward", **FREE, "T": 3, "bc": "x"}))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "error: unknown boundary condition 'x'\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("imag, inside", [(1.0, True), (-1.0, False)])
def test_weyl_scenario_writes_the_domain_flag(tmp_path, imag, inside):
    # in the upper half-plane the flag was a numpy bool, which json cannot write
    cfg = tmp_path / "cfg.json"
    config = {"command": "weyl", "lambda": [3.0, imag], "r": [1.0] + [0.0] * 39, "coeff_bound": 0.1}
    cfg.write_text(json.dumps(config))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert json.loads((tmp_path / "out" / "weyl.json").read_text())["in_domain_D"] is inside


@pytest.mark.parametrize("content", [None, b"{not json", b"\xff\xfe", b"[1, 2]", b"3"],
                         ids=["missing", "invalid-json", "not-utf8", "json-list", "json-number"])
def test_unreadable_config_file_exits_2(tmp_path, capsys, content):
    cfg = tmp_path / "cfg.json"
    if content is not None:
        cfg.write_bytes(content)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_python_m_bcjacobi_run_rejects_bad_config(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"command": "response", "spec": "free", "N": 2.7, "T": 3}))
    src = str(Path(bcjacobi.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "bcjacobi", "run", "--config", str(bad), "--out", str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr
    assert not (tmp_path / "out" / "response.csv").exists()
