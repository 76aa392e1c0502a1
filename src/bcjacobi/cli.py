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
from .core import JacobiSpec, _json_int, _json_number, _json_pair, free_spec, random_spec, spectral_measure
from .discrete_wave import ResponseVector, delta_control, response_vector, solve_finite_dirichlet, solve_semi_infinite
from .errors import BCError, InvalidInputError
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


# one JSON value of each kind; no kind admits a bool
_IS = {
    "int": _json_int,
    "number": _json_number,
    "str": lambda x: isinstance(x, str),
    "dict": lambda x: isinstance(x, dict),
    "pair": _json_pair,
    "complex": lambda x: _json_number(x) or _json_pair(x),
}


def _arg(config: dict, key: str, kind: str, default=..., low=None):
    """config[key] (required unless a `default` is given) as one JSON `kind` of `_IS`,
    or with a "[]" suffix a non-empty list of them; `low` is an inclusive lower bound
    on the value or on each entry.  This is the CLI's whole validation: every other
    rule belongs to the library function that takes the value."""
    if key not in config:
        if default is ...:
            raise InvalidInputError(f"config is missing key {key!r}")
        return default
    value = config[key]
    items = value if kind.endswith("[]") else [value]
    if not (isinstance(items, list) and items and all(map(_IS[kind.removesuffix("[]")], items))
            and (low is None or min(items) >= low)):
        bound = "" if low is None else f" >= {low}"
        raise InvalidInputError(f"config key {key!r} must be {kind}{bound}, got {value!r}")
    return value


def _spec_from_config(config: dict, rng) -> JacobiSpec:
    spec_obj = config.get("spec")
    if spec_obj in ("free", "random"):
        N = _arg(config, "N", "int", 8, low=1)
        return free_spec(N) if spec_obj == "free" else random_spec(N, rng)
    if isinstance(spec_obj, dict):
        return JacobiSpec.from_json(spec_obj)
    raise InvalidInputError("config needs 'spec': JacobiSpec JSON, 'free', or 'random'")


def run_scenario(config: dict, out_dir: Path) -> dict:
    """Execute one named pipeline; returns the artifact manifest.

    A malformed config raises `InvalidInputError` before any file is written.
    """
    command = _arg(config, "command", "str")
    rng = np.random.default_rng(_arg(config, "seed", "int", 0, low=0))
    out_dir.mkdir(parents=True, exist_ok=True)
    files: list[str] = []
    summary: dict = {}

    def emit_csv(name: str, header: list, columns) -> None:
        with open(out_dir / name, "w") as fh:
            fh.writelines(_csv_lines(header, columns))
        files.append(name)

    if command == "forward":
        T = _arg(config, "T", "int")
        spec = _spec_from_config(config, rng)
        control = _arg(config, "control", "number[]", None)
        f = delta_control(T) if control is None else np.asarray(control, dtype=float)
        # the same boundary-condition vocabulary as response_vector
        solvers = {"semi_infinite": solve_semi_infinite, "dirichlet": solve_finite_dirichlet}
        bc = _arg(config, "bc", "str", "semi_infinite")
        if bc not in solvers:
            raise InvalidInputError(f"unknown boundary condition {bc!r}")
        field = solvers[bc](spec, f, T)
        n, t = np.indices(field.u.shape).reshape(2, -1)
        emit_csv("field.csv", ["n", "t", "value"], [n, t, field.u.ravel()])
        summary["front_value"] = float(np.real(field.u[min(T, field.u.shape[0] - 1), T]))

    elif command == "response":
        T = _arg(config, "T", "int")
        spec = _spec_from_config(config, rng)
        r = response_vector(spec, T, bc=_arg(config, "bc", "str", "semi_infinite"))
        emit_csv("response.csv", ["t", "r_t"], [np.arange(r.r.size), r.r])
        summary["r0"] = float(np.real(r.r[0]))

    elif command == "invert":
        T = _arg(config, "T", "int")
        mode = _arg(config, "mode", "str", "real")
        entries = _arg(config, "r", "complex[]" if mode == "complex" else "number[]")
        r = ResponseVector([complex(*x) if isinstance(x, list) else x for x in entries], mode=mode)
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
        summary["min_scaled_pivot"] = rep.min_scaled_pivot

    elif command == "roundtrip":
        N = _arg(config, "N", "int", low=1)
        spec = random_spec(N, rng)
        rep = roundtrip_report(spec, N)
        summary["coeff_error"] = rep.coeff_error
        summary["residual"] = rep.residual
        summary["min_scaled_pivot"] = rep.min_scaled_pivot
        k = np.arange(1, N)
        emit_csv("roundtrip_a.csv", ["k", "a_true", "a_recovered"], [k, spec.a[: k.size], rep.a])

    elif command == "moments":
        s = np.asarray(_arg(config, "s", "number[]"), dtype=float)
        task = _arg(config, "task", "str")
        N = _arg(config, "N", "int", low=1)
        if task == "truncated":
            spec, mu = truncated_moment_naive(s, N)
            emit_csv("measure.csv", ["lambda", "weight"], [mu.lambdas, mu.weights])
            summary["n_atoms"] = len(mu.atoms)
        elif task == "solvability":
            rows = solvability(s, _arg(config, "kind", "str", "hamburger"), N)
            header = list(rows[0].keys())
            emit_csv("solvability.csv", header, [[row[h] for row in rows] for h in header])
            summary["all_solvable"] = all(row["solvable"] for row in rows)
        elif task == "indeterminacy":
            table = indeterminacy_sequences(s, N)
            header = ["N", "gamma_form", "delta_form", "L"]
            emit_csv("indeterminacy.csv", header, [table[h] for h in header])
            summary["hamburger_trend"] = table["hamburger_trend"]
            summary["stieltjes_trend"] = table["stieltjes_trend"]
        else:
            raise InvalidInputError(f"unknown moments task {task!r}")

    elif command == "toda":
        times = _arg(config, "times", "number[]")
        dt = _arg(config, "dt", "number", 1e-3)
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
        lam = complex(*_arg(config, "lambda", "pair"))
        tol = _arg(config, "tol", "number", 1e-10)
        result = {"lambda": [lam.real, lam.imag]}
        if "spec" in config:
            spec = _spec_from_config(config, rng)
            m_res = weyl_resolvent(spec, lam)
            result["m_resolvent"] = [m_res.real, m_res.imag]
            r = response_vector(spec, _arg(config, "series_length", "int", 200), bc="dirichlet")
        elif "r" in config:
            r = np.asarray(_arg(config, "r", "number[]"), dtype=float)
        else:
            raise InvalidInputError("weyl config needs either 'spec' or 'r'")
        ev = weyl_series(r, lam, tol=tol, coeff_bound=_arg(config, "coeff_bound", "number", None))
        result["m_series"] = [ev.m_series.real, ev.m_series.imag]
        result["z"] = [ev.z.real, ev.z.imag]
        result["truncation"] = ev.truncation
        result["in_domain_D"] = ev.in_domain_D
        (out_dir / "weyl.json").write_text(json.dumps(result, indent=2))
        files.append("weyl.json")
        summary["truncation"] = ev.truncation

    elif command == "string":
        N_values = _arg(config, "N_values", "int[]", low=2)
        psi_cfg = dict(_arg(config, "psi", "dict", {"kind": "gauss", "center": 0.45, "sigma": 0.1}))
        kind = psi_cfg.pop("kind", "gauss")
        psi, dpsi = ct.psi_preset(kind, **{key: _arg(psi_cfg, key, "number") for key in psi_cfg})
        t_star = _arg(config, "field_time", "number", 0.5)
        rows = []
        for N in N_values:
            grid = ct.TimeGrid(_arg(config, "T", "number", 1.0), _arg(config, "M", "int", max(1000, 8 * N)))
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
        N = _arg(config, "N", "int", low=1)
        grid = ct.TimeGrid(_arg(config, "T", "number", 2.0), _arg(config, "M", "int", 800))
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
        T = _arg(config, "T", "int", low=0)
        graph = GraphSpec.from_json(_arg(config, "graph", "dict"))
        controls = _arg(config, "controls", "dict", {})
        controls = {key: np.asarray(_arg(controls, key, "number[]"), dtype=float) for key in controls}
        field, log = simulate(graph, controls, T)
        per_edge = [
            (np.full(arr.size, ei), *np.indices(arr.shape).reshape(2, -1), arr.ravel())
            for ei, arr in enumerate(field.u)
        ]
        columns = [np.concatenate(col) for col in zip(*per_edge)]
        emit_csv("graph_field.csv", ["edge", "node", "t", "value"], columns)
        emit_csv("graph_energy.csv", ["t", "kinetic", "potential", "total"], log.T)
        summary["final_energy"] = float(log[-1, 3]) if len(log) else 0.0

    elif command == "heat":
        task = _arg(config, "task", "str", "forward")
        if task == "forward":
            T = _arg(config, "T", "int")
            s = heat_response(_spec_from_config(config, rng), T)
            emit_csv("heat_response.csv", ["t", "s_t"], [np.arange(s.size), s])
            summary["s0"] = float(s[0])
        elif task == "invert":
            s = np.asarray(_arg(config, "s", "number[]"), dtype=float)
            rec = invert_heat(s, _arg(config, "N", "int", low=1))
            emit_csv("heat_recovered_b.csv", ["k", "b_k"], [np.arange(1, rec.n + 1), rec.b])
            summary["N"] = rec.n
        else:
            raise InvalidInputError(f"unknown heat task {task!r}")

    elif command == "measure":
        spec = _spec_from_config(config, rng)
        mu = spectral_measure(spec)
        emit_csv("measure.csv", ["lambda", "weight"], [mu.lambdas, mu.weights])
        summary["n_atoms"] = len(mu.atoms)

    else:
        raise InvalidInputError(f"unknown command {command!r}")

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
        try:
            try:
                config = json.loads(Path(args.config).read_text())
            except (OSError, ValueError) as exc:  # unreadable file, not UTF-8, or not JSON
                raise InvalidInputError(f"cannot read config {args.config}: {exc}") from None
            if not isinstance(config, dict):
                raise InvalidInputError(f"config must be a JSON object, got a {type(config).__name__}")
            if args.seed is not None:
                config["seed"] = args.seed
            manifest = run_scenario(config, Path(args.out))
        except BCError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(json.dumps(manifest, indent=2, sort_keys=True))
        return 0

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


if __name__ == "__main__":
    sys.exit(main())
