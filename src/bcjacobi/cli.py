"""Command-line front end: batch scenarios and the acceptance suite.

Scenarios are JSON configs dispatched on their "command" field; every run
writes CSV artifacts with a header row, a JSON metadata sidecar carrying the
config hash, and a manifest listing files and summary scalars.  Identical
configs (including the seed) produce byte-identical CSV output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import continuous_time as ct
from .core import JacobiSpec, free_spec, random_spec, spectral_measure
from .discrete_wave import response_vector, solve_finite_dirichlet, solve_semi_infinite
from .errors import BCError
from .graph_wave import GraphSpec, simulate
from .heat import heat_response, invert_heat
from .inverse_bc import invert_factorization, roundtrip_report
from .moments import indeterminacy_sequences, solvability, truncated_moment_naive
from .toda import toda_ode_oracle, toda_solve
from .verify import run_checks
from .weyl_debranges import weyl_resolvent, weyl_series


def _fmt(x) -> str:
    """Shortest round-trip decimal; diff-stable goldens."""
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer, bool, np.bool_)):
        return str(x)
    if isinstance(x, (complex, np.complexfloating)) and x.imag != 0:
        sign = "+" if x.imag >= 0 else ""
        return f"{_fmt(x.real)}{sign}{_fmt(x.imag)}j"
    return repr(float(np.real(x)))


def _write_csv(path: Path, header: list, rows) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(x) for x in row) + "\n")


def _require(config: dict, keys: dict, command: str) -> None:
    """Minimal schema validation: required keys and their types."""
    for key, types in keys.items():
        if key not in config:
            raise BCError(f"config for {command!r} is missing key {key!r}")
        if not isinstance(config[key], types):
            raise BCError(f"config key {key!r} must be {types}, got {type(config[key]).__name__}")


def _spec_from_config(config: dict, rng) -> JacobiSpec:
    spec_obj = config.get("spec")
    if spec_obj == "free":
        return free_spec(int(config.get("N", 8)))
    if spec_obj == "random":
        return random_spec(int(config.get("N", 8)), rng)
    if isinstance(spec_obj, dict):
        return JacobiSpec.from_json(spec_obj)
    raise BCError("config needs 'spec': JacobiSpec JSON, 'free', or 'random'")


def run_scenario(config: dict, out_dir: Path) -> dict:
    """Execute one named pipeline; returns the artifact manifest."""
    command = config.get("command")
    if not isinstance(command, str):
        raise BCError("config needs a 'command' string")
    rng = np.random.default_rng(int(config.get("seed", 0)))
    out_dir.mkdir(parents=True, exist_ok=True)
    files: list[str] = []
    summary: dict = {}

    if command == "forward":
        _require(config, {"T": int}, command)
        spec = _spec_from_config(config, rng)
        T = config["T"]
        f = np.asarray(config.get("control", [1.0] + [0.0] * (T - 1)), dtype=float)
        bc = config.get("bc", "semi_infinite")
        field = (solve_semi_infinite if bc == "semi_infinite" else solve_finite_dirichlet)(spec, f, T)
        rows = [(n, t, field.u[n, t]) for n in range(field.u.shape[0]) for t in range(T + 1)]
        _write_csv(out_dir / "field.csv", ["n", "t", "value"], rows)
        files.append("field.csv")
        summary["front_value"] = float(np.real(field.u[min(T, field.u.shape[0] - 1), T]))

    elif command == "response":
        _require(config, {"T": int}, command)
        spec = _spec_from_config(config, rng)
        bc = config.get("bc", "semi_infinite")
        r = response_vector(spec, config["T"], bc=bc)
        _write_csv(out_dir / "response.csv", ["t", "r_t"], list(enumerate(r.r)))
        files.append("response.csv")
        summary["r0"] = float(np.real(r.r[0]))

    elif command == "invert":
        _require(config, {"r": list, "T": int}, command)
        mode = config.get("mode", "real")
        r = np.asarray(
            [complex(x[0], x[1]) if isinstance(x, list) else x for x in config["r"]],
            dtype=complex if mode == "complex" else float,
        )
        T = config["T"]
        if r.size < 2 * T - 1:
            raise BCError(f"invert needs at least 2T-1 = {2 * T - 1} entries in 'r', got {r.size}")
        rep = invert_factorization(r, T)
        report = {
            "a0": _fmt(rep.a0),
            "a": [_fmt(x) for x in rep.a],
            "b": [_fmt(x) for x in rep.b],
            "determinants": [_fmt(x) for x in rep.determinants],
            "residual": rep.residual,
            "mode": rep.mode,
        }
        if rep.a_sq is not None:
            report["a_squared"] = [_fmt(x) for x in rep.a_sq]
        (out_dir / "inversion.json").write_text(json.dumps(report, indent=2))
        files.append("inversion.json")
        summary["residual"] = rep.residual

    elif command == "roundtrip":
        _require(config, {"N": int}, command)
        spec = random_spec(config["N"], rng)
        rep = roundtrip_report(spec, config["N"])
        summary["coeff_error"] = rep.coeff_error
        summary["residual"] = rep.residual
        rows = list(zip(range(1, config["N"]), spec.a[: config["N"] - 1], rep.a))
        _write_csv(out_dir / "roundtrip_a.csv", ["k", "a_true", "a_recovered"], rows)
        files.append("roundtrip_a.csv")

    elif command == "moments":
        _require(config, {"s": list, "task": str}, command)
        s = np.asarray(config["s"], dtype=float)
        task = config["task"]
        if task == "truncated":
            _require(config, {"N": int}, command)
            spec, mu = truncated_moment_naive(s, config["N"])
            _write_csv(out_dir / "measure.csv", ["lambda", "weight"], mu.atoms)
            files.append("measure.csv")
            summary["n_atoms"] = len(mu.atoms)
        elif task == "solvability":
            _require(config, {"N": int}, command)
            kind = config.get("kind", "hamburger")
            rows = solvability(s, kind, config["N"])
            header = list(rows[0].keys())
            _write_csv(out_dir / "solvability.csv", header, [[row[h] for h in header] for row in rows])
            files.append("solvability.csv")
            summary["all_solvable"] = all(row["solvable"] for row in rows)
        elif task == "indeterminacy":
            _require(config, {"N": int}, command)
            table = indeterminacy_sequences(s, config["N"])
            rows = zip(table["N"], table["gamma_form"], table["delta_form"], table["L"])
            _write_csv(out_dir / "indeterminacy.csv", ["N", "gamma_form", "delta_form", "L"], rows)
            files.append("indeterminacy.csv")
            summary["hamburger_trend"] = table["hamburger_trend"]
            summary["stieltjes_trend"] = table["stieltjes_trend"]
        else:
            raise BCError(f"unknown moments task {task!r}")

    elif command == "toda":
        _require(config, {"times": list}, command)
        spec = _spec_from_config(config, rng)
        dt = float(config.get("dt", 1e-3))
        rows = []
        worst = 0.0
        for t in config["times"]:
            st = toda_solve(spec, float(t))
            oracle = toda_ode_oracle(spec, float(t), dt)
            delta = max(
                float(np.max(np.abs(st.spec.a - oracle.a), initial=0.0)),
                float(np.max(np.abs(st.spec.b - oracle.b))),
            )
            worst = max(worst, delta)
            for k in range(st.spec.n):
                a_k = st.spec.a[k] if k < st.spec.n - 1 else ""
                rows.append((t, k + 1, a_k, st.spec.b[k], delta))
        _write_csv(out_dir / "toda.csv", ["t", "k", "a_k", "b_k", "oracle_delta"], rows)
        files.append("toda.csv")
        summary["worst_oracle_delta"] = worst

    elif command == "weyl":
        _require(config, {"lambda": list}, command)
        lam = complex(config["lambda"][0], config["lambda"][1])
        tol = float(config.get("tol", 1e-10))
        spec = _spec_from_config(config, rng) if "spec" in config else None
        result = {"lambda": [lam.real, lam.imag]}
        if spec is not None:
            m_res = weyl_resolvent(spec, lam)
            result["m_resolvent"] = [m_res.real, m_res.imag]
            r = response_vector(spec, int(config.get("series_length", 200)), bc="dirichlet")
        elif "r" in config:
            r = np.asarray(config["r"], dtype=float)
        else:
            raise BCError("weyl config needs either 'spec' or 'r'")
        ev = weyl_series(r, lam, tol=tol, coeff_bound=config.get("coeff_bound"))
        result["m_series"] = [ev.m_series.real, ev.m_series.imag]
        result["z"] = [ev.z.real, ev.z.imag]
        result["truncation"] = ev.truncation
        result["in_domain_D"] = ev.in_domain_D
        (out_dir / "weyl.json").write_text(json.dumps(result, indent=2))
        files.append("weyl.json")
        summary["truncation"] = ev.truncation

    elif command == "string":
        _require(config, {"N_values": list}, command)
        psi_cfg = dict(config.get("psi", {"kind": "gauss", "center": 0.45, "sigma": 0.1}))
        psi, dpsi = ct.psi_preset(psi_cfg.pop("kind", "gauss"), **psi_cfg)
        t_star = float(config.get("field_time", 0.5))
        rows = []
        for N in config["N_values"]:
            grid = ct.TimeGrid(float(config.get("T", 1.0)), int(config.get("M", max(1000, 8 * N))))
            out = ct.corrected_response(int(N), grid, psi=psi, field_time=t_star)
            rows.append(
                (N, out["pair_raw"], abs(out["pair_raw"] - psi(0.0)),
                 out["pair_corrected"], abs(out["pair_corrected"] - dpsi(0.0)),
                 out["pair_field"], abs(out["pair_field"] - psi(t_star)))
            )
        _write_csv(
            out_dir / "string_pairings.csv",
            ["N", "raw", "raw_err", "corrected", "corrected_err", "field", "field_err"],
            rows,
        )
        files.append("string_pairings.csv")
        summary["final_raw_err"] = rows[-1][2]

    elif command == "contjacobi":
        _require(config, {"N": int}, command)
        N = config["N"]
        masses = rng.uniform(0.7, 1.3, N) / (N + 1)
        lengths = rng.uniform(0.7, 1.3, N + 1) / (N + 1)
        spec = ct.string_system(ct.StringSpec(masses=masses, lengths=lengths))["spec"]
        grid = ct.TimeGrid(float(config.get("T", 2.0)), int(config.get("M", 800)))
        r = ct.response_function(spec, grid.doubled())
        rec, _ = ct.recover_matrix_continuous(r, N, grid)
        err = max(
            float(np.max(np.abs(rec.a - spec.a), initial=0.0)),
            float(np.max(np.abs(rec.b - spec.b))),
        )
        rows = list(zip(range(1, N + 1), spec.b, rec.b))
        _write_csv(out_dir / "contjacobi_b.csv", ["k", "b_true", "b_recovered"], rows)
        files.append("contjacobi_b.csv")
        summary["recovery_error"] = err

    elif command == "graph":
        _require(config, {"graph": dict, "T": int}, command)
        graph = GraphSpec.from_json(config["graph"])
        controls = {k: np.asarray(v, dtype=float) for k, v in config.get("controls", {}).items()}
        field, log = simulate(graph, controls, config["T"])
        rows = []
        for ei, arr in enumerate(field.u):
            for j in range(arr.shape[0]):
                for t in range(arr.shape[1]):
                    rows.append((ei, j, t, arr[j, t]))
        _write_csv(out_dir / "graph_field.csv", ["edge", "node", "t", "value"], rows)
        _write_csv(out_dir / "graph_energy.csv", ["t", "kinetic", "potential", "total"], log)
        files += ["graph_field.csv", "graph_energy.csv"]
        summary["final_energy"] = float(log[-1, 3]) if len(log) else 0.0

    elif command == "heat":
        _require(config, {"T": int}, command)
        spec = _spec_from_config(config, rng)
        task = config.get("task", "forward")
        if task == "forward":
            s = heat_response(spec, config["T"])
            _write_csv(out_dir / "heat_response.csv", ["t", "s_t"], list(enumerate(s)))
            files.append("heat_response.csv")
            summary["s0"] = float(s[0])
        elif task == "invert":
            _require(config, {"s": list, "N": int}, command)
            rec = invert_heat(np.asarray(config["s"], dtype=float), config["N"])
            rows = list(zip(range(1, rec.n + 1), rec.b))
            _write_csv(out_dir / "heat_recovered_b.csv", ["k", "b_k"], rows)
            files.append("heat_recovered_b.csv")
            summary["N"] = rec.n
        else:
            raise BCError(f"unknown heat task {task!r}")

    elif command == "measure":
        spec = _spec_from_config(config, rng)
        mu = spectral_measure(spec)
        _write_csv(out_dir / "measure.csv", ["lambda", "weight"], mu.atoms)
        files.append("measure.csv")
        summary["n_atoms"] = len(mu.atoms)

    else:
        raise BCError(f"unknown command {command!r}")

    cfg_hash = hashlib.sha256(json.dumps(config, sort_keys=True).encode()).hexdigest()
    sidecar = {"config": config, "config_sha256": cfg_hash}
    (out_dir / "metadata.json").write_text(json.dumps(sidecar, indent=2, sort_keys=True))
    manifest = {"command": command, "files": files + ["metadata.json"], "summary": summary}
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))
    return manifest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bcjacobi",
        description="Boundary-control toolkit for Jacobi-matrix dynamical systems",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_run = sub.add_parser("run", help="execute a scenario config")
    p_run.add_argument("--config", required=True, help="JSON scenario file")
    p_run.add_argument("--out", default="out", help="output directory")
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")

    p_verify = sub.add_parser("verify", help="run the acceptance checks")
    p_verify.add_argument("--filter", default=None, help="substring filter on check names")
    p_verify.add_argument("--out", default=None, help="optional directory for the JSON report")

    args = parser.parse_args(argv)

    if args.subcommand == "run":
        config = json.loads(Path(args.config).read_text())
        if args.seed is not None:
            config["seed"] = args.seed
        try:
            manifest = run_scenario(config, Path(args.out))
        except BCError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(json.dumps(manifest, indent=2, sort_keys=True))
        return 0

    if args.subcommand == "verify":
        results = run_checks(args.filter)
        for res in results:
            status = "PASS" if res.passed else "FAIL"
            print(f"{status}  {res.name:28s} {res.elapsed:7.2f}s  {res.detail}")
        if args.out:
            out = Path(args.out)
            out.mkdir(parents=True, exist_ok=True)
            report = [
                {"name": r.name, "passed": r.passed, "detail": r.detail, "elapsed": r.elapsed}
                for r in results
            ]
            (out / "verify_report.json").write_text(json.dumps(report, indent=2))
        n_fail = sum(not r.passed for r in results)
        print(f"{len(results) - n_fail}/{len(results)} checks passed")
        return 0 if n_fail == 0 else 1

    return 2


if __name__ == "__main__":
    sys.exit(main())
