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


def _column_strings(col):
    """One CSV column as strings, each exactly as `_fmt` formats it.

    Integer, bool and float arrays convert once with `tolist`; `str` of a
    Python int/bool and `repr` of a Python float are what `_fmt` returns for
    the numpy scalars.  Everything else (complex arrays, extended-precision
    floats, lists of mixed type) goes through `_fmt` value by value: a mixed
    list must never pass through `np.asarray`, which would print an int as
    `1.0` or turn every value into a string.
    """
    if isinstance(col, np.ndarray):
        if col.dtype.kind in "iub":
            return map(str, col.tolist())
        if col.dtype.kind == "f" and col.dtype.itemsize <= 8:
            return map(repr, col.tolist())
    return map(_fmt, col)


def _csv_lines(header: list, columns):
    """Header line, then one line per row of the equal-length columns.

    Lazy, so a caller that writes the lines streams the rows instead of
    holding every formatted value at once.
    """
    yield ",".join(header) + "\n"
    for row in zip(*map(_column_strings, columns), strict=True):
        yield ",".join(row) + "\n"


def _plain_floats(x):
    """A check metric (a number or a list of numbers) as JSON floats."""
    return [float(v) for v in x] if isinstance(x, list) else float(x)


def _require(config: dict, keys: dict, command: str) -> None:
    """Minimal schema validation: required keys and their types."""
    for key, types in keys.items():
        if key not in config:
            raise BCError(f"config for {command!r} is missing key {key!r}")
        if not isinstance(config[key], types):
            raise BCError(f"config key {key!r} must be {types}, got {type(config[key]).__name__}")


def _finite_number(x) -> bool:
    """An int or float (not a bool) that is finite as a float.

    The comparison is exact for Python ints, so an int beyond the float
    range fails it instead of overflowing; NaN fails every comparison.
    """
    return isinstance(x, (int, float)) and not isinstance(x, bool) and abs(x) <= sys.float_info.max


def _spec_from_config(config: dict, rng) -> JacobiSpec:
    spec_obj = config.get("spec")
    if spec_obj == "free":
        return free_spec(int(config.get("N", 8)))
    if spec_obj == "random":
        return random_spec(int(config.get("N", 8)), rng)
    if isinstance(spec_obj, dict):
        return JacobiSpec.from_json(spec_obj)
    raise BCError("config needs 'spec': JacobiSpec JSON, 'free', or 'random'")


def _time_grid(T, M) -> ct.TimeGrid:
    try:
        return ct.TimeGrid(float(T), int(M))
    except (TypeError, ValueError) as exc:
        raise BCError(f"bad time grid T={T}, M={M}: {exc}") from None


def run_scenario(config: dict, out_dir: Path) -> dict:
    """Execute one named pipeline; returns the artifact manifest."""
    command = config.get("command")
    if not isinstance(command, str):
        raise BCError("config needs a 'command' string")
    rng = np.random.default_rng(int(config.get("seed", 0)))
    out_dir.mkdir(parents=True, exist_ok=True)
    files: list[str] = []
    summary: dict = {}

    def emit_csv(name: str, header: list, columns) -> None:
        with open(out_dir / name, "w") as fh:
            fh.writelines(_csv_lines(header, columns))
        files.append(name)

    if command == "forward":
        _require(config, {"T": int}, command)
        spec = _spec_from_config(config, rng)
        T = config["T"]
        f = np.asarray(config.get("control", [1.0] + [0.0] * (T - 1)), dtype=float)
        bc = config.get("bc", "semi_infinite")
        field = (solve_semi_infinite if bc == "semi_infinite" else solve_finite_dirichlet)(spec, f, T)
        n, t = np.indices(field.u.shape).reshape(2, -1)
        emit_csv("field.csv", ["n", "t", "value"], [n, t, field.u.ravel()])
        summary["front_value"] = float(np.real(field.u[min(T, field.u.shape[0] - 1), T]))

    elif command == "response":
        _require(config, {"T": int}, command)
        spec = _spec_from_config(config, rng)
        bc = config.get("bc", "semi_infinite")
        r = response_vector(spec, config["T"], bc=bc)
        emit_csv("response.csv", ["t", "r_t"], [np.arange(r.r.size), r.r])
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
        k = np.arange(1, config["N"])
        emit_csv("roundtrip_a.csv", ["k", "a_true", "a_recovered"], [k, spec.a[: k.size], rep.a])

    elif command == "moments":
        _require(config, {"s": list, "task": str}, command)
        s = np.asarray(config["s"], dtype=float)
        task = config["task"]
        if task == "truncated":
            _require(config, {"N": int}, command)
            spec, mu = truncated_moment_naive(s, config["N"])
            emit_csv("measure.csv", ["lambda", "weight"], [mu.lambdas, mu.weights])
            summary["n_atoms"] = len(mu.atoms)
        elif task == "solvability":
            _require(config, {"N": int}, command)
            kind = config.get("kind", "hamburger")
            rows = solvability(s, kind, config["N"])
            header = list(rows[0].keys())
            emit_csv("solvability.csv", header, [[row[h] for row in rows] for h in header])
            summary["all_solvable"] = all(row["solvable"] for row in rows)
        elif task == "indeterminacy":
            _require(config, {"N": int}, command)
            table = indeterminacy_sequences(s, config["N"])
            header = ["N", "gamma_form", "delta_form", "L"]
            emit_csv("indeterminacy.csv", header, [table[h] for h in header])
            summary["hamburger_trend"] = table["hamburger_trend"]
            summary["stieltjes_trend"] = table["stieltjes_trend"]
        else:
            raise BCError(f"unknown moments task {task!r}")

    elif command == "toda":
        _require(config, {"times": list}, command)
        times, dt = config["times"], config.get("dt", 1e-3)
        if not times or not all(_finite_number(t) for t in times):
            raise BCError(f"toda needs a non-empty list of finite numbers as 'times', got {times}")
        if not (_finite_number(dt) and dt > 0):
            raise BCError(f"toda needs a finite 'dt' > 0, got {dt!r}")
        spec = _spec_from_config(config, rng)
        states = [toda_solve(spec, float(t)) for t in times]
        oracles = toda_ode_oracle(spec, times, dt)
        deltas = [
            max(
                float(np.max(np.abs(st.spec.a - oracle.a), initial=0.0)),
                float(np.max(np.abs(st.spec.b - oracle.b))),
            )
            for st, oracle in zip(states, oracles)
        ]
        n = spec.n
        columns = [
            [t for t in times for _ in range(n)],
            np.tile(np.arange(1, n + 1), len(times)),
            [x for st in states for x in (*st.spec.a, "")],
            np.concatenate([st.spec.b for st in states]),
            np.repeat(deltas, n),
        ]
        emit_csv("toda.csv", ["t", "k", "a_k", "b_k", "oracle_delta"], columns)
        summary["worst_oracle_delta"] = max(deltas)

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
        if not config["N_values"] or not all(isinstance(N, int) and N >= 2 for N in config["N_values"]):
            raise BCError(f"string needs N_values of integers >= 2, got {config['N_values']}")
        psi_cfg = dict(config.get("psi", {"kind": "gauss", "center": 0.45, "sigma": 0.1}))
        psi, dpsi = ct.psi_preset(psi_cfg.pop("kind", "gauss"), **psi_cfg)
        t_star = float(config.get("field_time", 0.5))
        rows = []
        for N in config["N_values"]:
            grid = _time_grid(config.get("T", 1.0), config.get("M", max(1000, 8 * N)))
            out = ct.corrected_response(N, grid, psi=psi, field_time=t_star)
            rows.append(
                (N, out["pair_raw"], abs(out["pair_raw"] - psi(0.0)),
                 out["pair_corrected"], abs(out["pair_corrected"] - dpsi(0.0)),
                 out["pair_field"], abs(out["pair_field"] - psi(t_star)))
            )
        emit_csv(
            "string_pairings.csv",
            ["N", "raw", "raw_err", "corrected", "corrected_err", "field", "field_err"],
            list(zip(*rows)),
        )
        summary["final_raw_err"] = rows[-1][2]

    elif command == "contjacobi":
        _require(config, {"N": int}, command)
        N = config["N"]
        if N < 1:
            raise BCError(f"contjacobi needs N >= 1, got {N}")
        grid = _time_grid(config.get("T", 2.0), config.get("M", 800))
        masses = rng.uniform(0.7, 1.3, N) / (N + 1)
        lengths = rng.uniform(0.7, 1.3, N + 1) / (N + 1)
        spec = ct.string_system(ct.StringSpec(masses=masses, lengths=lengths))["spec"]
        r = ct.response_function(spec, grid.doubled())
        rec, _ = ct.recover_matrix_continuous(r, N, grid)
        err = max(
            float(np.max(np.abs(rec.a - spec.a), initial=0.0)),
            float(np.max(np.abs(rec.b - spec.b))),
        )
        k = np.arange(1, N + 1)
        emit_csv("contjacobi_b.csv", ["k", "b_true", "b_recovered"], [k, spec.b, rec.b])
        summary["recovery_error"] = err

    elif command == "graph":
        _require(config, {"graph": dict, "T": int}, command)
        graph = GraphSpec.from_json(config["graph"])
        controls = {k: np.asarray(v, dtype=float) for k, v in config.get("controls", {}).items()}
        field, log = simulate(graph, controls, config["T"])
        per_edge = [
            (np.full(arr.size, ei), *np.indices(arr.shape).reshape(2, -1), arr.ravel())
            for ei, arr in enumerate(field.u)
        ]
        columns = [np.concatenate(col) for col in zip(*per_edge)]
        emit_csv("graph_field.csv", ["edge", "node", "t", "value"], columns)
        emit_csv("graph_energy.csv", ["t", "kinetic", "potential", "total"], log.T)
        summary["final_energy"] = float(log[-1, 3]) if len(log) else 0.0

    elif command == "heat":
        _require(config, {"T": int}, command)
        spec = _spec_from_config(config, rng)
        if spec.mode != "real":
            raise BCError("heat is defined for real blocks; got a complex spec")
        task = config.get("task", "forward")
        if task == "forward":
            s = heat_response(spec, config["T"])
            emit_csv("heat_response.csv", ["t", "s_t"], [np.arange(s.size), s])
            summary["s0"] = float(s[0])
        elif task == "invert":
            _require(config, {"s": list, "N": int}, command)
            rec = invert_heat(np.asarray(config["s"], dtype=float), config["N"])
            emit_csv("heat_recovered_b.csv", ["k", "b_k"], [np.arange(1, rec.n + 1), rec.b])
            summary["N"] = rec.n
        else:
            raise BCError(f"unknown heat task {task!r}")

    elif command == "measure":
        spec = _spec_from_config(config, rng)
        mu = spectral_measure(spec)
        emit_csv("measure.csv", ["lambda", "weight"], [mu.lambdas, mu.weights])
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
                {"name": r.name, "passed": r.passed, "detail": r.detail, "elapsed": r.elapsed,
                 "metrics": {k: _plain_floats(v) for k, v in r.metrics.items()}}
                for r in results
            ]
            (out / "verify_report.json").write_text(json.dumps(report, indent=2))
        n_fail = sum(not r.passed for r in results)
        print(f"{len(results) - n_fail}/{len(results)} checks passed")
        return 0 if n_fail == 0 else 1

    return 2


if __name__ == "__main__":
    sys.exit(main())
