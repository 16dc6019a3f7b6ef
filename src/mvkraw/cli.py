"""Command-line interface.

Subcommands:

* ``spectrum``    solve the secular equation, write spectrum.csv
* ``table``       evaluate the polynomial table, write table.csv
* ``gen-oracle``  independent table via the generating function
* ``verify``      structural, spectral, and orthogonality checks
* ``simulate``    stochastic or uniformized evolution from a config file
* ``rational``    explicit dual pair of the rational two-dimensional family

Model parameters are read from a strict JSON file
``{"schema": 1, "n": 2, "N": 5, "p": [1, 1], "q": [1, 3]}``; unknown keys
are rejected.  Every CSV output starts with a comment line naming its
manifest, a JSON file recording the command, inputs, package version, and
residual summaries (no timestamps, so reruns are byte-identical).

The table against its generating-function oracle (``table --level full``,
``gen-oracle``, ``verify --level full``) is judged on the orthonormal
scale: max |T_table - T_oracle| with T = sqrt(W) P sqrt(C(N,m) eta_bar^m),
where every |T| <= 1, while raw P values grow like C(N, m).

Exit codes: 0 success, 1 at least one check failed, 2 invalid input,
3 exceptional (coincident) parameters, 4 size cap exceeded (``--cap``; 5,000
points for ``table``, ``gen-oracle``, ``verify --level full``, ``rational -N
99`` and up) or polynomial values outside the float64 range, 5 a solver did
not converge, 6 an absorbing state was reached.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys

import numpy as np

from . import __version__
from .bdcore import verify_structure
from .errors import (
    AbsorbingState,
    CapExceeded,
    ExceptionalParameters,
    NoConvergence,
    ValidationError,
)
from .lattice import DEFAULT_CAP, StateSpace
from .model import ModelParams, rate_tables, weight_vector
from .polynomials import (
    eigen_residuals,
    orthonormal_map,
    orthonormality,
    table,
    table_via_generating_function,
)
from .rational import RationalParams, derive_dual_pair, verify_recurrence
from .report import Report
from .simulate import (
    evolve_distribution,
    gillespie_run,
    relaxation_rate,
)
from .spectrum import identity_checks, solve_spectrum


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ValidationError(f"{path} must contain a JSON object")
    return obj


def _require_keys(obj: dict, what: str, required: set, optional: set = frozenset()):
    keys = set(obj)
    missing = required - keys
    unknown = keys - required - optional
    if missing:
        raise ValidationError(f"{what}: missing keys {sorted(missing)}")
    if unknown:
        raise ValidationError(f"{what}: unknown keys {sorted(unknown)}")
    if obj.get("schema") != 1:
        raise ValidationError(f"{what}: schema must be 1")


def _load_params(path: str) -> ModelParams:
    obj = _load_json(path)
    _require_keys(obj, "params file", {"schema", "n", "N", "p", "q"})
    return ModelParams(n=obj["n"], N=obj["N"], p=obj["p"], q=obj["q"])


def _params_echo(params: ModelParams) -> dict:
    return {"n": params.n, "N": params.N, "p": list(params.p), "q": list(params.q)}


def _outdir(args) -> str:
    os.makedirs(args.out, exist_ok=True)
    return args.out


def _write_csv(directory: str, name: str, manifest_name: str, header, rows) -> str:
    path = os.path.join(directory, name)
    with open(path, "w", newline="") as fh:
        fh.write(f"# manifest: {manifest_name}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    return path


def _write_manifest(directory: str, name: str, payload: dict) -> str:
    path = os.path.join(directory, name)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _label(point) -> str:
    return "(" + ";".join(str(int(c)) for c in point) + ")"


def _cmd_spectrum(args) -> int:
    params = _load_params(args.params)
    spec = solve_spectrum(params, band=args.band)
    out = _outdir(args)

    rows = []
    for j, v in enumerate(spec.lam, start=1):
        rows.append(("lambda", "", j, float(v)))
    for (i, j), v in np.ndenumerate(spec.u):
        rows.append(("u", i + 1, j + 1, float(v)))
    rows.append(("eta", 0, "", spec.eta0))
    for i, v in enumerate(spec.eta, start=1):
        rows.append(("eta", i, "", float(v)))
    for j, v in enumerate(spec.eta_bar, start=1):
        rows.append(("eta_bar", j, "", float(v)))
    for i, v in enumerate(spec.eta_dual):
        rows.append(("eta_dual", i, "", float(v)))
    for j, v in enumerate(spec.secular_residuals, start=1):
        rows.append(("secular_residual", j, "", float(v)))

    report = Report()
    report.add("secular-residuals", float(np.max(spec.secular_residuals)),
               args.tol, detail="relative to sum |p_i/(lam - q_i)|")

    _write_csv(out, "spectrum.csv", "spectrum.json",
               ("quantity", "i", "j", "value"), rows)
    _write_manifest(out, "spectrum.json", {
        "command": "spectrum",
        "version": __version__,
        "params": _params_echo(params),
        "band": args.band,
        "tol": args.tol,
        "outputs": ["spectrum.csv"],
        "report": report.as_dict(),
        "summary": {
            "eigenvalues": [float(v) for v in spec.lam],
            "max_secular_residual": float(np.max(spec.secular_residuals)),
            "coupling_magnitude": spec.u_magnitude,
        },
    })
    print(f"eigenvalues: {', '.join(f'{v:.12g}' for v in spec.lam)}")
    print(f"max secular residual: {np.max(spec.secular_residuals):.3e}")
    for line in report.lines():
        print(line)
    print(f"wrote {os.path.join(out, 'spectrum.csv')}")
    return 0 if report.passed else 1


def _table_rows(space: StateSpace, tab: np.ndarray):
    header = ["x\\m"] + [_label(m) for m in space.points]
    rows = [
        [_label(x)] + [float(v) for v in tab[xr]]
        for xr, x in enumerate(space.points)
    ]
    return header, rows


def _load_table(args):
    """The model, its lattice, spectral data and polynomial table."""
    params = _load_params(args.params)
    space = StateSpace(params.n, params.N, cap=args.cap)
    spec = solve_spectrum(params, band=args.band)
    return params, space, spec, table(spec, space)


def _oracle_check(params, spec, space: StateSpace, tab, report: Report, tol: float):
    """The generating-function oracle table, with max |T_table - T_oracle|
    on the orthonormal scale, |T| <= 1, added to `report`."""
    oracle = table_via_generating_function(spec, space)
    diff = float(np.abs(orthonormal_map(params, spec, space, tab - oracle)).max())
    report.add("generating-function-agreement", diff, tol, detail="orthonormal scale")
    return oracle, diff


def _cmd_table(args) -> int:
    params, space, spec, tab = _load_table(args)
    out = _outdir(args)

    header, rows = _table_rows(space, tab)
    _write_csv(out, "table.csv", "table.json", header, rows)
    summary = {"size": space.size, "coupling_magnitude": spec.u_magnitude}
    report = Report()
    if args.level == "full":
        _, diff = _oracle_check(params, spec, space, tab, report, args.tol)
        summary["generating_function_max_abs_diff"] = diff
        summary["residual_scale"] = "orthonormal"
    _write_manifest(out, "table.json", {
        "command": "table",
        "version": __version__,
        "params": _params_echo(params),
        "level": args.level,
        "tol": args.tol,
        "outputs": ["table.csv"],
        "summary": summary,
    })
    print(f"wrote {os.path.join(out, 'table.csv')} ({space.size} states)")
    for line in report.lines():
        print(line)
    return 0 if report.passed else 1


def _cmd_gen_oracle(args) -> int:
    params, space, spec, tab = _load_table(args)
    report = Report()
    oracle, diff = _oracle_check(params, spec, space, tab, report, args.tol)
    out = _outdir(args)

    header, rows = _table_rows(space, oracle)
    _write_csv(out, "gen_oracle.csv", "gen_oracle.json", header, rows)
    _write_manifest(out, "gen_oracle.json", {
        "command": "gen-oracle",
        "version": __version__,
        "params": _params_echo(params),
        "tol": args.tol,
        "outputs": ["gen_oracle.csv"],
        "summary": {"cross_check_max_abs_diff": diff, "size": space.size,
                    "residual_scale": "orthonormal"},
    })
    for line in report.lines():
        print(line)
    print(f"wrote {os.path.join(out, 'gen_oracle.csv')}")
    return 0 if report.passed else 1


def _cmd_verify(args) -> int:
    params = _load_params(args.params)
    space = StateSpace(params.n, params.N, cap=args.cap)
    report = verify_structure(*rate_tables(params, space), space, tol=args.tol)

    spec = solve_spectrum(params, band=args.band)
    if args.inject_u_perturbation:
        u = spec.u.copy()
        u[0, 0] *= 1.0 + args.inject_u_perturbation
        a = spec.a.copy()
        a[1, 1] = 1.0 - u[0, 0]
        spec = dataclasses.replace(spec, u=u, a=a)
    report.extend(identity_checks(spec, tol=args.tol))

    if args.level == "full":
        tab = table(spec, space)
        _oracle_check(params, spec, space, tab, report, args.tol)
        report.add("eigen-equation",
                   float(eigen_residuals(params, spec, space, tab).max()),
                   max(args.tol, 1e-8))
        o = orthonormality(orthonormal_map(params, spec, space, tab))
        report.add("orthogonality-offdiagonal", o.offdiagonal, args.tol)
        report.add("norms-closed-form", o.diagonal, max(args.tol, 1e-8))
        report.add("dual-orthogonality-offdiagonal", o.dual_offdiagonal,
                   max(args.tol, 1e-9))
        report.add("dual-norms-closed-form", o.dual_diagonal, max(args.tol, 1e-8))
        report.add("orthonormal-map", o.identity, max(args.tol, 1e-9))

    for line in report.lines():
        print(line)
    out = _outdir(args)
    _write_manifest(out, "verify.json", {
        "command": "verify",
        "version": __version__,
        "params": _params_echo(params),
        "level": args.level,
        "tol": args.tol,
        "injected_perturbation": args.inject_u_perturbation,
        "report": report.as_dict(),
    })
    return 0 if report.passed else 1


def _load_sim_config(path: str):
    obj = _load_json(path)
    _require_keys(
        obj, "simulate config", {"schema", "params", "mode"},
        {"initial", "events", "time", "steps", "seed"},
    )
    pobj = obj["params"]
    if not isinstance(pobj, dict):
        raise ValidationError("simulate config: params must be an object")
    _require_keys(pobj, "simulate config params", {"schema", "n", "N", "p", "q"})
    params = ModelParams(n=pobj["n"], N=pobj["N"], p=pobj["p"], q=pobj["q"])
    return obj, params


def _config_number(cfg: dict, key: str, kind):
    """cfg[key] converted by `kind`; ValidationError if missing or not a number."""
    if key not in cfg:
        raise ValidationError(f"simulate config: {cfg['mode']} mode needs '{key}'")
    try:
        return kind(cfg[key])
    except (TypeError, ValueError):
        raise ValidationError(f"simulate config: {key!r} is not a number") from None


def _cmd_simulate(args) -> int:
    cfg, params = _load_sim_config(args.config)
    space = StateSpace(params.n, params.N, cap=args.cap)
    mode = cfg["mode"]
    out = _outdir(args)

    if mode == "gillespie":
        events = _config_number(cfg, "events", int)
        seed = args.seed if args.seed is not None else _config_number(cfg, "seed", int)
        initial = cfg.get("initial")
        if initial == "origin":
            initial = None
        result = gillespie_run(params, space, events, seed, initial=initial)
        W = weight_vector(params, space)
        rows = [
            (r, _label(x), float(result.occupation[r]), float(W[r]))
            for r, x in enumerate(space.points)
        ]
        _write_csv(out, "occupation.csv", "simulate.json",
                   ("rank", "state", "occupation", "stationary"), rows)
        _write_manifest(out, "simulate.json", {
            "command": "simulate",
            "version": __version__,
            "mode": mode,
            "params": _params_echo(params),
            "events": events,
            "seed": seed,
            "rng_family": result.rng_family,
            "summary": {
                "tv_to_stationary": result.tv_to_stationary,
                "total_time": result.total_time,
                "final_state": list(result.final_state),
            },
        })
        print(f"gillespie: {result.events} events, "
              f"tv to stationary = {result.tv_to_stationary:.4f}")
        print(f"wrote {os.path.join(out, 'occupation.csv')}")
        return 0

    if mode == "uniformization":
        time = _config_number(cfg, "time", float)
        steps = _config_number(cfg, "steps", int)
        initial = cfg.get("initial", "origin")
        result = evolve_distribution(params, space, initial, time, steps)
        rows = [
            (float(t), float(tv), float(kl))
            for t, tv, kl in zip(result.times, result.tv_to_stationary,
                                 result.kl_to_stationary)
        ]
        _write_csv(out, "evolution.csv", "simulate.json",
                   ("time", "tv", "kl"), rows)
        summary = {
            "final_tv": float(result.tv_to_stationary[-1]),
            "mass_defect": result.mass_defect,
            "rate_bound": result.rate_bound,
            "route": result.route,
        }
        try:
            fit = relaxation_rate(result)
            summary["relaxation_slope"] = fit.slope
        except ValidationError:
            summary["relaxation_slope"] = None
        _write_manifest(out, "simulate.json", {
            "command": "simulate",
            "version": __version__,
            "mode": mode,
            "params": _params_echo(params),
            "time": time,
            "steps": steps,
            "summary": summary,
        })
        print(f"uniformization: {result.route} route, "
              f"tv(T) = {summary['final_tv']:.3e}, "
              f"mass defect = {summary['mass_defect']:.3e}")
        print(f"wrote {os.path.join(out, 'evolution.csv')}")
        return 0

    raise ValidationError(f"simulate config: unknown mode {mode!r}")


def _cmd_rational(args) -> int:
    pair = derive_dual_pair(RationalParams(*args.rates))
    report = pair.cross_checks
    recurrence = verify_recurrence(pair, args.N, tol=args.tol)

    for line in report.lines():
        print(line)
    for line in recurrence.lines():
        print(line)
    print(f"note: {pair.note}")

    out = _outdir(args)
    _write_manifest(out, "rational.json", {
        "command": "rational",
        "version": __version__,
        "rates": list(args.rates),
        "N": args.N,
        "tol": args.tol,
        "dual": {
            "p": list(pair.dual_p),
            "q": list(pair.dual_q),
            "lambda": list(pair.dual_lam),
            "couplings": {"t": pair.t, "v": pair.v, "u": pair.u, "w": pair.w},
            "eta": [float(v) for v in pair.eta],
            "eta_dual": [float(v) for v in pair.eta_dual],
        },
        "note": pair.note,
        "report": {
            "derivation": report.as_dict(),
            "recurrence": recurrence.as_dict(),
        },
    })
    return 0 if (report.passed and recurrence.passed) else 1


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="mvkraw",
        description="Multivariate Krawtchouk polynomials as eigenfunctions "
                    "of a multidimensional birth-death process.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp, params=True):
        sp.add_argument("--out", default=".", help="output directory")
        sp.add_argument("--tol", type=float, default=1e-10,
                        help="base tolerance for checks")
        sp.add_argument("--cap", type=int, default=DEFAULT_CAP,
                        help="maximum lattice size")
        if params:
            sp.add_argument("--params", required=True,
                            help="JSON file with model parameters")
            sp.add_argument("--band", type=float, default=None,
                            help="coincidence detection band for q")

    sp = sub.add_parser("spectrum", help="solve the secular equation")
    common(sp)
    sp.set_defaults(func=_cmd_spectrum)

    sp = sub.add_parser("table", help="evaluate the polynomial table")
    common(sp)
    sp.add_argument("--level", choices=("fast", "full"), default="fast",
                    help="'full' also cross-checks the generating function")
    sp.set_defaults(func=_cmd_table)

    sp = sub.add_parser("gen-oracle",
                        help="independent table via the generating function")
    common(sp)
    sp.set_defaults(func=_cmd_gen_oracle)

    sp = sub.add_parser("verify", help="run the verification suite")
    common(sp)
    sp.add_argument("--level", choices=("fast", "full"), default="full")
    sp.add_argument("--inject-u-perturbation", type=float, default=0.0,
                    help="fault injection: relative perturbation of u[1,1]; "
                         "the checks must then fail")
    sp.set_defaults(func=_cmd_verify)

    sp = sub.add_parser("simulate", help="evolve the process")
    common(sp, params=False)
    sp.add_argument("--config", required=True,
                    help="JSON simulation config")
    sp.add_argument("--seed", type=int, default=None,
                    help="override the config seed")
    sp.set_defaults(func=_cmd_simulate)

    sp = sub.add_parser("rational",
                        help="explicit dual pair of the rational 2-d family")
    common(sp, params=False)
    sp.add_argument("--rates", type=float, nargs=4, required=True,
                    metavar=("P1", "P2", "P3", "P4"))
    sp.add_argument("-N", type=int, default=5, dest="N",
                    help="lattice level for the recurrence check")
    sp.set_defaults(func=_cmd_rational)

    return ap


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ExceptionalParameters as exc:
        msg = str(exc)
        if "exceptional parameters" not in msg:
            msg = f"exceptional parameters: {msg}"
        print(msg, file=sys.stderr)
        return 3
    except CapExceeded as exc:
        print(f"error: size cap exceeded: {exc}", file=sys.stderr)
        return 4
    except NoConvergence as exc:
        print(f"error: no convergence: {exc}", file=sys.stderr)
        return 5
    except AbsorbingState as exc:
        print(f"error: absorbing state: {exc}", file=sys.stderr)
        return 6


if __name__ == "__main__":
    sys.exit(main())
