"""Command-line interface.

Subcommands:

* ``spectrum``  solve the secular equation, write spectrum.csv
* ``table``     evaluate the polynomial table, write table.csv; with
  ``--level full`` also the generating-function oracle's, gen_oracle.csv
* ``verify``    structural, spectral, and orthogonality checks
* ``simulate``  stochastic or uniformized evolution from a config file
* ``rational``  explicit dual pair of the rational two-dimensional family

Model parameters are read from a strict JSON file
``{"schema": 1, "n": 2, "N": 5, "p": [1, 1], "q": [1, 3]}``; unknown keys
are rejected.  Every CSV output starts with a comment line naming its
manifest, a JSON file recording the command, inputs, package version, and
residual summaries (no timestamps, so reruns are byte-identical).

The table checks of ``verify --level full`` are `polynomials.table_checks`,
on the orthonormal map T = Sym^N(R), where every |T| <= 1.  ``table
--level full`` judges the generating-function oracle as max |T - T_oracle|
over every row.  P is formed only where a P table is written:
``table.csv``, and ``gen_oracle.csv`` when the oracle agrees with the
kernel; every P is read off before either is written.

Exit codes: 0 success, 1 at least one check failed, 2 invalid input,
3 exceptional (equal) death intensities, 4 a size cap exceeded (a lattice
above ``lattice.LATTICE_CAP`` points; a dense table above
``sympower.DENSE_CAP``, so ``table``, ``verify --level full`` and
``rational -N 99`` and up; a ``simulate`` config whose ``steps + 1``
snapshots, one CSV row each, exceed ``LATTICE_CAP``) or values outside the
float64 range (a rate sum, a secular term, spectral data or a cell
probability; polynomial values, for ``table`` only), 5 a solver did not
converge, 6 an absorbing state was reached.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .errors import (
    AbsorbingState,
    CapExceeded,
    ExceptionalParameters,
    NoConvergence,
    ValidationError,
)
from .lattice import StateSpace, _is_number
from .model import ModelParams, rate_tables, weight_vector
from .report import Report

# Each command imports the layers it computes with when it starts, so a call
# pays only for its own: `simulate` loads no spectrum or polynomials, `table`
# no bdcore, `verify --level fast` no polynomials or sympower.  The imports
# come before the first array is built: a module loaded between array
# allocations raised the peak RSS of `verify --level full` at (3,8) by about
# 0.15 MB.


def _unique_keys(pairs: list) -> dict:
    """A JSON object from its (key, value) pairs; ValueError for a key given
    twice, where `json` would keep its last value."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"key {key!r} is given twice")
        obj[key] = value
    return obj


def _load_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:   # JSONDecodeError, UnicodeDecodeError, _unique_keys
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
    schema = obj.get("schema")
    if not (_is_number(schema) and schema == 1):
        raise ValidationError(f"{what}: schema must be 1")


def _model_params(obj: dict, what: str) -> ModelParams:
    _require_keys(obj, what, {"schema", "n", "N", "p", "q"})
    return ModelParams(n=obj["n"], N=obj["N"], p=obj["p"], q=obj["q"])


def _load_params(path: str) -> ModelParams:
    return _model_params(_load_json(path), "params file")


def _params_echo(params: ModelParams) -> dict:
    return {"n": params.n, "N": params.N, "p": list(params.p), "q": list(params.q)}


def _outdir(args) -> str:
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:
        raise ValidationError(
            f"cannot create output directory {args.out}: {exc.strerror}") from exc
    return args.out


def _write_csv(directory: str, name: str, manifest_name: str, header, rows) -> str:
    """The rows one line at a time, fields joined by commas: the bytes
    `csv.writer(lineterminator="\\n")` writes for fields that hold no comma,
    quote or newline, as every label and number here."""
    path = os.path.join(directory, name)
    with open(path, "w", newline="") as fh:
        fh.write(f"# manifest: {manifest_name}\n")
        fh.write(",".join(map(str, header)) + "\n")
        for row in rows:
            fh.write(",".join(map(str, row)) + "\n")
    return path


def _write_manifest(directory: str, name: str, payload: dict) -> str:
    """`payload` and the package version as sorted strict JSON.  A value
    that is not finite, which `json` writes as Infinity or NaN, is read back
    as None and written as null; a check with a null residual has failed."""
    path = os.path.join(directory, name)
    strict = json.loads(json.dumps(payload), parse_constant=lambda _: None)
    with open(path, "w") as fh:
        json.dump({**strict, "version": __version__}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _label(point) -> str:
    return "(" + ";".join(str(int(c)) for c in point) + ")"


def _cmd_spectrum(args) -> int:
    from .spectrum import identity_checks, solve_spectrum

    params = _load_params(args.params)
    spec = solve_spectrum(params)
    out = _outdir(args)

    rows = [("lambda", "", j, float(v)) for j, v in enumerate(spec.lam, start=1)]
    rows += [("u", i + 1, j + 1, float(v)) for (i, j), v in np.ndenumerate(spec.u)]
    for name, start, values in (("eta", 0, [spec.eta0, *spec.eta]),
                                ("eta_bar", 1, spec.eta_bar),
                                ("eta_dual", 0, spec.eta_dual),
                                ("secular_residual", 1, spec.secular_residuals)):
        rows += [(name, i, "", float(v)) for i, v in enumerate(values, start)]

    secular = identity_checks(spec, args.tol)["secular-residuals"]
    report = Report([secular])

    _write_csv(out, "spectrum.csv", "spectrum.json",
               ("quantity", "i", "j", "value"), rows)
    _write_manifest(out, "spectrum.json", {
        "command": "spectrum",
        "params": _params_echo(params),
        "tol": args.tol,
        "outputs": ["spectrum.csv"],
        "report": report.as_dict(),
        "summary": {
            "eigenvalues": [float(v) for v in spec.lam],
            "max_secular_residual": secular.residual,
            "coupling_magnitude": spec.u_magnitude,
        },
    })
    print(f"eigenvalues: {', '.join(f'{v:.12g}' for v in spec.lam)}")
    print(f"max secular residual: {secular.residual:.3e}")
    for line in report.lines():
        print(line)
    print(f"wrote {os.path.join(out, 'spectrum.csv')}")
    return 0 if report.passed else 1


def _table_rows(space: StateSpace, tab: np.ndarray):
    header = ["x\\m"] + [_label(m) for m in space.points]
    # one row of Python floats at a time, not the whole table
    rows = ([_label(x)] + row.tolist() for x, row in zip(space.points, tab))
    return header, rows


def _cmd_table(args) -> int:
    from .polynomials import _oracle_check, _to_P
    from .spectrum import solve_spectrum
    from .sympower import coefficient_power

    params = _load_params(args.params)
    space = StateSpace(params.n, params.N)
    spec = solve_spectrum(params)
    T = coefficient_power(spec.R, space)
    # every P is read off before anything is written: a P outside the
    # float64 range exits 4 with no table
    tables = {"table.csv": _to_P(T, spec, space)}
    summary = {"size": space.size, "coupling_magnitude": spec.u_magnitude}
    report = Report()
    if args.level == "full":
        oracle, diff = _oracle_check(spec, space, T, report, args.tol)
        summary["generating_function_max_abs_diff"] = diff
        summary["residual_scale"] = "orthonormal"
        # the oracle's table only where it agrees with the kernel's
        if report.passed:
            tables["gen_oracle.csv"] = _to_P(oracle, spec, space)
    out = _outdir(args)

    for name, tab in tables.items():
        _write_csv(out, name, "table.json", *_table_rows(space, tab))
    _write_manifest(out, "table.json", {
        "command": "table",
        "params": _params_echo(params),
        "level": args.level,
        "tol": args.tol,
        "outputs": list(tables),
        "summary": summary,
    })
    print(f"wrote {os.path.join(out, 'table.csv')} ({space.size} states)")
    if "gen_oracle.csv" in tables:
        print(f"wrote {os.path.join(out, 'gen_oracle.csv')}")
    for line in report.lines():
        print(line)
    return 0 if report.passed else 1


def _cmd_verify(args) -> int:
    from .bdcore import verify_structure
    from .spectrum import _perturbed, identity_checks, solve_spectrum

    if args.level == "full":
        from .polynomials import table_checks

    params = _load_params(args.params)
    space = StateSpace(params.n, params.N)
    B, D = rate_tables(params, space)
    # the annihilation checks read the model's multinomial law
    report = verify_structure(B, D, space, weight_vector(params, space), tol=args.tol)

    spec = solve_spectrum(params)
    if args.inject_u_perturbation:
        spec = _perturbed(spec, args.inject_u_perturbation)
    report.extend(identity_checks(spec, tol=args.tol))
    if args.level == "full":
        report.extend(table_checks(spec, space, B, D, tol=args.tol))

    out = _outdir(args)
    for line in report.lines():
        print(line)
    _write_manifest(out, "verify.json", {
        "command": "verify",
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
    if not isinstance(obj["params"], dict):
        raise ValidationError("simulate config: params must be an object")
    return obj, _model_params(obj["params"], "simulate config params")


def _config_number(cfg: dict, key: str, kind):
    """cfg[key] converted by `kind`; ValidationError if missing, boolean, not
    a number, or, for `int`, not integral."""
    if key not in cfg:
        raise ValidationError(f"simulate config: {cfg['mode']} mode needs '{key}'")
    value = cfg[key]
    if not _is_number(value):
        raise ValidationError(f"simulate config: {key!r} is not a number")
    if kind is int and isinstance(value, float) and not value.is_integer():
        raise ValidationError(f"simulate config: {key!r} is not an integer")
    try:
        return kind(value)
    except OverflowError:
        raise ValidationError(f"simulate config: {key!r} is not a number") from None


def _cmd_simulate(args) -> int:
    from .simulate import _evolve, _transient_law, gillespie_from_tables, relaxation_rate

    cfg, params = _load_sim_config(args.config)
    space = StateSpace(params.n, params.N)
    mode = cfg["mode"]

    # each mode computes its table, inputs, summary and console line; the
    # files are written only once the run has succeeded
    if mode == "gillespie":
        events = _config_number(cfg, "events", int)
        seed = _config_number(cfg, "seed", int)
        initial = cfg.get("initial")
        B, D = rate_tables(params, space)
        W = weight_vector(params, space)
        rank = 0 if initial in (None, "origin") else space.rank(initial)
        result = gillespie_from_tables(B, D, space, events, seed,
                                       initial_rank=rank, reference=W)
        name, header = "occupation.csv", ("rank", "state", "occupation", "stationary")
        rows = [
            (r, _label(x), float(result.occupation[r]), float(W[r]))
            for r, x in enumerate(space.points)
        ]
        inputs = {"events": events, "seed": seed, "rng_family": result.rng_family}
        summary = {
            "tv_to_stationary": result.tv_to_stationary,
            "total_time": result.total_time,
            "final_state": list(result.final_state),
        }
        line = (f"gillespie: {result.events} events, "
                f"tv to stationary = {result.tv_to_stationary:.4f}")
    elif mode == "uniformization":
        time = _config_number(cfg, "time", float)
        steps = _config_number(cfg, "steps", int)
        stream = _transient_law(params, space, cfg.get("initial", "origin"), time, steps)
        # one snapshot at a time: only its time, tv and kl are kept
        result = _evolve(next(stream), stream)
        name, header = "evolution.csv", ("time", "tv", "kl")
        rows = [
            (float(t), float(tv), float(kl))
            for t, tv, kl in zip(result.times, result.tv_to_stationary,
                                 result.kl_to_stationary)
        ]
        inputs = {"time": time, "steps": steps}
        summary = {
            "final_tv": float(result.tv_to_stationary[-1]),
            "mass_defect": result.mass_defect,
            "rate_bound": result.rate_bound,
            "route": result.route,
        }
        try:
            summary["relaxation_slope"] = relaxation_rate(result).slope
        except ValidationError:
            summary["relaxation_slope"] = None
        line = (f"uniformization: {result.route} route, "
                f"tv(T) = {summary['final_tv']:.3e}, "
                f"mass defect = {summary['mass_defect']:.3e}")
    else:
        raise ValidationError(f"simulate config: unknown mode {mode!r}")

    out = _outdir(args)
    _write_csv(out, name, "simulate.json", header, rows)
    _write_manifest(out, "simulate.json", {
        "command": "simulate",
        "mode": mode,
        "params": _params_echo(params),
        **inputs,
        "summary": summary,
    })
    print(line)
    print(f"wrote {os.path.join(out, name)}")
    return 0


def _cmd_rational(args) -> int:
    from .rational import RationalParams, derive_dual_pair, verify_recurrence

    pair = derive_dual_pair(RationalParams(*args.rates))
    report = pair.cross_checks
    recurrence = verify_recurrence(pair, args.N, tol=args.tol)

    out = _outdir(args)
    for line in report.lines():
        print(line)
    for line in recurrence.lines():
        print(line)
    print(f"note: {pair.note}")

    _write_manifest(out, "rational.json", {
        "command": "rational",
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

    def common(sp, tol=True, params=True):
        sp.add_argument("--out", default=".", help="output directory")
        if tol:
            sp.add_argument("--tol", type=float, default=1e-10,
                            help="base tolerance for checks")
        if params:
            sp.add_argument("--params", required=True,
                            help="JSON file with model parameters")

    sp = sub.add_parser("spectrum", help="solve the secular equation")
    common(sp)
    sp.set_defaults(func=_cmd_spectrum)

    sp = sub.add_parser("table", help="evaluate the polynomial table")
    common(sp)
    sp.add_argument("--level", choices=("fast", "full"), default="fast",
                    help="'full' also cross-checks the generating function "
                         "and, where it agrees, writes its table")
    sp.set_defaults(func=_cmd_table)

    sp = sub.add_parser("verify", help="run the verification suite")
    common(sp)
    sp.add_argument("--level", choices=("fast", "full"), default="full")
    sp.add_argument("--inject-u-perturbation", type=float, default=0.0,
                    help="fault injection: relative perturbation of u[1,1]; "
                         "the checks must then fail")
    sp.set_defaults(func=_cmd_verify)

    sp = sub.add_parser("simulate", help="evolve the process")
    common(sp, tol=False, params=False)
    sp.add_argument("--config", required=True,
                    help="JSON simulation config")
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


def _check_options(args) -> None:
    """A tolerance that is not positive, or an injection that is not finite,
    would make every check pass or fail regardless of the model.  Each is
    judged only where the command has it."""
    if "tol" in args and not (math.isfinite(args.tol) and args.tol > 0):
        raise ValidationError(f"--tol must be positive and finite, got {args.tol}")
    inject = getattr(args, "inject_u_perturbation", 0.0)
    if not math.isfinite(inject):
        raise ValidationError(f"--inject-u-perturbation must be finite, got {inject}")


# error type -> (exit code, stderr prefix); SingularParameters is a
# ValidationError and exits 2
_EXITS = {
    ValidationError: (2, "error: "),
    ExceptionalParameters: (3, ""),
    CapExceeded: (4, "error: "),
    NoConvergence: (5, "error: no convergence: "),
    AbsorbingState: (6, "error: absorbing state: "),
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _check_options(args)
        return args.func(args)
    except tuple(_EXITS) as exc:
        code, prefix = next(_EXITS[t] for t in type(exc).__mro__ if t in _EXITS)
        print(f"{prefix}{exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
