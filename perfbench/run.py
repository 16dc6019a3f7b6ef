"""mvkraw benchmark: one workload per run, outputs checked against
independent oracles.

    python3 perfbench/run.py --workload eigenbasis --seed 1 --seconds 34 --trace 0

Run from the root of a source checkout; the package is imported from
./src.  A run measures set-up (fresh `import mvkraw`), then repeats whole
rounds of the workload's operations for about --seconds.  Each
operation is a `python -m mvkraw` subprocess or a public library call, run
one at a time, and its outputs are checked by perfbench/oracles.py.

--trace 0 reports the end-to-end metrics; every operation is bracketed
by reference start-ups that do not involve mvkraw (see `end_to_end`).  --trace 1
runs every operation untraced and then again in-process with the public
layers wrapped (perfbench/layertrace.py), and reports the per-layer metrics.
The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`; spans and console output go under
perfbench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
HARD_LIMIT_S = 170.0   # a run stops starting operations and kills children after this
SETUP_AT_START = 3     # fresh imports timed before the first round; one more per round
# one BLAS thread per process: operations run one at a time on one core each
SERIAL_BLAS = {name: "1" for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}

# instances that pass every check of the program (see README.md)
MODELS = {
    "2d": ((1.0, 2.0), (1.0, 4.0)),
    "3d": ((1.0, 2.0, 1.5), (1.0, 3.0, 6.0)),
    "4d": ((1.0, 2.0, 1.5, 0.7), (1.0, 3.0, 6.0, 2.2)),
    "3d-coincident": ((1.0, 2.0, 1.5), (3.0, 3.0, 5.0)),
}
IDENTITY_CHECKS = {
    "weighted-column-sums", "weighted-column-cross-sums", "dual-weighted-row-sums",
    "dual-weighted-row-cross-sums", "congruence-diagonalization",
}
INJECTED_PERTURBATION = "1e-6"
TABLE_ROWS_CHECKED = 3
EVENTS = 1_000_000

# the yardstick timed around every operation: interpreter start and the
# import of numpy, none of mvkraw's own code
REFERENCE = "import numpy"

END_TO_END = {"setup_s": "s", "wall_ref": "ref", "peak_rss_mb": "MB"}
OP_METRICS = {
    "table_s": "s", "verify_full_s": "s", "eigenbasis_s": "s",
    "verify_fast_s": "s", "evolve_s": "s", "gillespie_events_per_s": "events/s",
}


@dataclass
class Op:
    """One operation: CLI arguments after `python -m mvkraw` (without --out),
    or a library `call`; `check(out_dir, result)` returns error strings."""

    label: str
    size: int
    check: Callable
    args: list | None = None
    call: Callable | None = None
    expect_rc: int = 0
    metric: str | None = None      # op-level metric this operation adds to
    events: int = 0
    outputs: tuple = ()            # files under out_dir the check reads


@dataclass
class Record:
    op: Op
    wall: float
    rc: int | None = None
    rss_mb: float = 0.0
    errors: list = field(default_factory=list)
    spans: list = field(default_factory=list)
    ref: float = math.nan          # mean of the reference start-ups around it


def _params(key: str, N: int) -> dict:
    p, q = MODELS[key]
    return {"schema": 1, "n": len(p), "N": N, "p": list(p), "q": list(q)}


def _write(path: Path, obj: dict) -> str:
    path.write_text(json.dumps(obj) + "\n")
    return str(path.relative_to(ROOT))


def _verify_check(expect_fail: bool):
    def check(out: Path, rc) -> list[str]:
        report = json.loads((out / "verify.json").read_text())["report"]
        failed = [c["name"] for c in report["checks"] if not c["residual"] <= c["tol"]]
        errors = []
        if failed != [c["name"] for c in report["checks"] if not c["passed"]]:
            errors.append("verify.json pass flags disagree with residual <= tol")
        if report["passed"] != (not failed):
            errors.append("verify.json overall verdict disagrees with its checks")
        if not expect_fail:
            if failed:
                errors.append(f"checks failed on a valid model: {failed}")
            return errors
        console = (out / "console.txt").read_text().splitlines()
        named = [ln[len("[FAIL] "):].split(":")[0] for ln in console
                 if ln.startswith("[FAIL] ")]
        if not set(failed) & IDENTITY_CHECKS:
            errors.append(f"u perturbation {INJECTED_PERTURBATION} not caught by "
                          f"an identity check (failed: {failed})")
        if sorted(named) != sorted(failed):
            errors.append(f"console names {named}, manifest fails {failed}")
        return errors
    return check


def build_ops(workload: str, seed: int, inputs: Path) -> list[Op]:
    """The workload's operations; instances are fixed, and the seed picks
    the Gillespie streams, their initial states and the table rows checked
    against the 60-digit oracle."""
    import numpy as np
    import oracles

    rng = np.random.default_rng(seed)
    inputs.mkdir(parents=True, exist_ok=True)
    ops: list[Op] = []

    def verify(key, N, level, inject=False):
        path = _write(inputs / f"{key}-{N}.json", _params(key, N))
        args = ["verify", "--level", level, "--params", path]
        if inject:
            args += ["--inject-u-perturbation", INJECTED_PERTURBATION]
        n = len(MODELS[key][0])
        return Op(
            label=f"verify-{level}{'-inject' if inject else ''}({n},{N})",
            size=math.comb(N + n, n), args=args, check=_verify_check(inject),
            expect_rc=1 if inject else 0,
            metric=None if inject else f"verify_{level}_s",
            outputs=("verify.json", "console.txt"),
        )

    if workload == "eigenbasis":
        for key, N in (("2d", 10), ("3d", 8), ("4d", 4)):
            p, q = MODELS[key]
            pts = oracles.simplex(len(p), N)
            rows = tuple(tuple(int(v) for v in pts[i]) for i in
                         sorted(rng.choice(len(pts), TABLE_ROWS_CHECKED, replace=False)))
            path = _write(inputs / f"{key}-{N}.json", _params(key, N))
            ops.append(Op(
                label=f"table({len(p)},{N})", size=len(pts),
                args=["table", "--params", path], metric="table_s",
                check=lambda out, rc, p=p, q=q, N=N, rows=rows:
                    oracles.check_table(str(out / "table.csv"), p, q, N, rows),
                outputs=("table.csv",),
            ))
            ops.append(verify(key, N, "full"))

        p, q = MODELS["3d-coincident"]

        def eigenbasis(N=20, p=p, q=q):
            import mvkraw
            params = mvkraw.ModelParams(n=len(p), N=N, p=p, q=q)
            return mvkraw.numeric_eigenbasis(params, mvkraw.StateSpace(len(p), N))

        ops.append(Op(
            label="numeric_eigenbasis(3,20)", size=math.comb(23, 3), call=eigenbasis,
            metric="eigenbasis_s",
            check=lambda out, res, p=p, q=q:
                oracles.check_eigenbasis(p, q, 20, res.eigenvalues, res.vectors),
        ))

        def rational_check(out, rc):
            report = json.loads((out / "rational.json").read_text())["report"]
            errors = [] if report["derivation"]["passed"] and report["recurrence"]["passed"] \
                else ["rational.json reports a failed check"]
            return errors + oracles.check_rational(str(out / "rational.json"), 6)

        ops.append(Op(
            label="rational(2,6)", size=math.comb(8, 2),
            args=["rational", "--rates", "1", "2", "3", "4", "-N", "6"],
            check=rational_check, outputs=("rational.json",),
        ))
        ops.append(verify("2d", 5, "full", inject=True))

    elif workload == "large-lattice":
        p, q = MODELS["3d"]
        T, steps, N = 2.0, 4, 80
        cfg = {"schema": 1, "params": _params("3d", N), "mode": "uniformization",
               "time": T, "steps": steps, "initial": "origin"}
        ops.append(Op(
            label=f"simulate-uniformization(3,{N})", size=math.comb(N + 3, 3),
            args=["simulate", "--config", _write(inputs / "uniformization.json", cfg)],
            metric="evolve_s",
            check=lambda out, rc: oracles.check_evolution(
                str(out / "evolution.csv"), p, q, N, T, steps),
            outputs=("evolution.csv",),
        ))
        ops.append(verify("3d", 20, "fast"))
        ops.append(verify("2d", 5, "fast", inject=True))

    elif workload == "gillespie":
        for key, N in (("2d", 5), ("3d", 20)):
            p, q = MODELS[key]
            pts = oracles.simplex(len(p), N)
            initial = [int(v) for v in pts[rng.integers(len(pts))]]
            cfg = {"schema": 1, "params": _params(key, N), "mode": "gillespie",
                   "events": EVENTS, "seed": int(rng.integers(2**31)),
                   "initial": initial}
            ops.append(Op(
                label=f"simulate-gillespie({len(p)},{N})", size=len(pts),
                args=["simulate", "--config",
                      _write(inputs / f"gillespie-{key}-{N}.json", cfg)],
                metric="gillespie_events_per_s", events=EVENTS,
                check=lambda out, rc, p=p, q=q, N=N, x0=tuple(initial):
                    oracles.check_occupation(str(out / "occupation.csv"),
                                             str(out / "simulate.json"),
                                             p, q, N, EVENTS, x0),
                outputs=("occupation.csv", "simulate.json"),
            ))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return ops


def _kill_group(pgid: int) -> None:
    with contextlib.suppress(ProcessLookupError):
        os.killpg(pgid, signal.SIGKILL)


def _stop_group(proc: subprocess.Popen) -> None:
    """Kill spawn.py and its command, and wait until both have ended."""
    _kill_group(proc.pid)
    proc.wait()
    for _ in range(500):
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


class Runner:
    """Runs operations one at a time, kills what outlives the hard limit,
    and memoizes checks on identical outputs."""

    def __init__(self, run_dir: Path, deadline: float):
        self.run_dir = run_dir
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self._checked: dict = {}

    def child(self, argv: list, console: Path):
        """Run argv to completion through spawn.py, in a process group of its
        own; (wall seconds, exit code, peak RSS in MB).  A command killed at
        the hard limit reads as exit code -9 and no RSS."""
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-S", str(HERE / "spawn.py"),
                                 str(console), *argv],
                                stdout=subprocess.PIPE, cwd=ROOT, env=self.env,
                                start_new_session=True)
        timer = threading.Timer(max(0.0, self.deadline - time.monotonic()),
                                _kill_group, (proc.pid,))
        timer.start()
        try:
            report, _ = proc.communicate()
        except BaseException:
            _stop_group(proc)
            raise
        finally:
            timer.cancel()
        if proc.returncode != 0:   # killed at the hard limit
            _stop_group(proc)
            return time.perf_counter() - start, -9, 0.0
        result = json.loads(report)
        return result["wall_s"], result["rc"], result["rss_mb"]

    def expired(self) -> bool:
        return time.monotonic() > self.deadline

    def _check(self, op: Op, out: Path, result) -> list[str]:
        if op.call is not None:
            key = (op.label, hashlib.sha256(
                result.eigenvalues.tobytes() + result.vectors.tobytes()).hexdigest())
        else:
            digest = hashlib.sha256()
            for name in op.outputs:
                digest.update((out / name).read_bytes())
            key = (op.label, digest.hexdigest())
        if key not in self._checked:
            self._checked[key] = op.check(out, result)
        return self._checked[key]

    def run(self, op: Op) -> Record:
        out = self.run_dir / op.label
        out.mkdir(parents=True, exist_ok=True)
        if op.call is not None:
            start = time.perf_counter()
            try:
                result = op.call()
            except Exception as exc:  # a library error fails this operation only
                return Record(op, time.perf_counter() - start, errors=[repr(exc)])
            rec = Record(op, time.perf_counter() - start)
        else:
            argv = [sys.executable, "-m", "mvkraw", *op.args, "--out", str(out)]
            wall, rc, rss = self.child(argv, out / "console.txt")
            rec = Record(op, wall, rc, rss)
            result = rc
            if rc != op.expect_rc:
                rec.errors.append(f"exit code {rc}, expected {op.expect_rc}")
                return rec
        try:
            rec.errors += self._check(op, out, result)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            rec.errors.append(f"unreadable output: {exc!r}")
        return rec

    def traced(self, op: Op, tracer) -> tuple[list, list]:
        """The operation again, in-process with the layers traced: the CLI's
        own `main` with the same arguments, or the library call."""
        import mvkraw.cli
        from layertrace import patched

        out = self.run_dir / "traced" / op.label
        out.mkdir(parents=True, exist_ok=True)
        first = len(tracer.spans)
        errors = []
        with patched(tracer), tracer.operation(op.label, op.size):
            try:
                if op.call is not None:
                    op.call()
                else:
                    with contextlib.redirect_stdout(io.StringIO()), \
                            contextlib.redirect_stderr(io.StringIO()):
                        rc = mvkraw.cli.main([*op.args, "--out", str(out)])
                    if rc != op.expect_rc:
                        errors.append(f"in-process exit code {rc}, "
                                      f"expected {op.expect_rc}")
            except Exception as exc:  # record it; the other operations still run
                errors.append(f"in-process run raised {exc!r}")
        return tracer.spans[first:], errors

    def import_time(self, code: str = "import mvkraw") -> float:
        """Wall time of a fresh interpreter running `code`."""
        wall, rc, _ = self.child([sys.executable, "-c", code], self.run_dir / "setup.txt")
        if rc != 0:
            raise RuntimeError(f"{code!r} failed; see {self.run_dir / 'setup.txt'}")
        return wall


def end_to_end(rounds: list[list[Record]], setup: list[float]) -> dict:
    """Median set-up time; wall_ref sums over the operations the median over
    rounds of each one's wall time divided by the mean of the reference
    start-ups timed just before and just after it.

    On a core shared with other tenants the speed of a process changes by up
    to 2x, within seconds and from minute to minute, so raw wall times of
    runs made minutes apart spread by 20-35%.  The two reference start-ups
    bracket the operation and see the machine state it saw, so the ratio
    cancels most of that state; the reference runs none of mvkraw's code, so
    the ratio moves only with the program."""
    return {
        "setup_s": statistics.median(setup),
        "wall_ref": sum(statistics.median(rnd[i].wall / rnd[i].ref for rnd in rounds)
                        for i in range(len(rounds[0]))),
        "peak_rss_mb": max(r.rss_mb for rnd in rounds for r in rnd),
    }


def per_layer(rounds: list[list[Record]]) -> dict:
    """Medians over rounds of per-round layer totals, shares and counts."""
    from layertrace import COUNT_NAMES, LAYER_NAMES

    per_round = []
    for rnd in rounds:
        m = {"wall_s": sum(r.wall for r in rnd)}
        for metric in OP_METRICS:
            recs = [r for r in rnd if r.op.metric == metric]
            wall = sum((r.wall for r in recs), 0.0)
            if metric == "gillespie_events_per_s":
                m[metric] = sum(r.op.events for r in recs) / wall if recs else 0.0
            else:
                m[metric] = wall
        for name in LAYER_NAMES:
            busy = op_wall = 0.0
            for r in rnd:
                spans = [s for s in r.spans if s["name"] == name]
                if spans:
                    busy += sum(s["end"] - s["start"] for s in spans)
                    op_wall += r.wall
            m[f"{name}_s"] = busy
            m[f"{name}_share"] = 100.0 * busy / op_wall if op_wall else 0.0
        cli = [r for r in rnd if r.op.call is None]
        unattributed = sum(
            r.wall - sum(s["end"] - s["start"] for s in r.spans
                         if s["parent"] == r.spans[0]["id"])
            for r in cli)
        m["cli.unattributed_s"] = unattributed
        cli_wall = sum(r.wall for r in cli)
        m["cli.unattributed_share"] = 100.0 * unattributed / cli_wall if cli_wall else 0.0
        for name in COUNT_NAMES:
            values = [s["counts"][name] for r in rnd for s in r.spans if name in s["counts"]]
            m[name] = (max(values) if name == "simulate.rate_bound" else sum(values)) \
                if values else 0.0
        per_round.append(m)
    return {k: statistics.median(m[k] for m in per_round) for k in per_round[0]}


def units(trace_on: bool) -> dict:
    from layertrace import COUNT_NAMES, LAYER_NAMES

    if not trace_on:
        return END_TO_END
    out = {"wall_s": "s", **OP_METRICS}
    for name in LAYER_NAMES:
        out[f"{name}_s"] = "s"
        out[f"{name}_share"] = "%"
    out["cli.unattributed_s"] = "s"
    out["cli.unattributed_share"] = "%"
    for name in COUNT_NAMES:
        out[name] = "1/time" if name == "simulate.rate_bound" else "count"
    return out


def breakdown(rounds: list[list[Record]]) -> list[str]:
    """Human-readable per-operation layer shares of the last traced round."""
    lines = []
    for r in rounds[-1]:
        lines.append(f"{r.op.label}: {r.wall:.3f} s untraced")
        root = r.spans[0]["id"]
        for s in r.spans:
            if s["parent"] == root:
                dur = s["end"] - s["start"]
                lines.append(f"  {s['name']:<45} {dur:8.3f} s {100 * dur / r.wall:5.1f}%")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("eigenbasis", "large-lattice", "gillespie"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    start = time.monotonic()
    if not (SRC / "mvkraw" / "__init__.py").is_file():
        print(f"error: no mvkraw sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    os.environ.update(SERIAL_BLAS)
    sys.path[:0] = [str(SRC), str(HERE)]

    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    runner = Runner(run_dir, start + HARD_LIMIT_S)
    ops = build_ops(args.workload, args.seed, run_dir / "inputs")
    runner.import_time()  # warm-up: byte-compiles the sources, fills the file cache
    # set-up samples are spread over the run, so they see the same machine
    # states as the operations
    setup = [runner.import_time() for _ in range(SETUP_AT_START)] if not args.trace else []

    if args.trace:
        from layertrace import Tracer, with_self_times
        tracer = Tracer()
    rounds: list[list[Record]] = []
    t0 = last = time.monotonic()
    # whole rounds, stopping at the round boundary nearest to --seconds
    while not rounds or time.monotonic() + 0.5 * (time.monotonic() - last) < t0 + args.seconds:
        last = time.monotonic()
        if not args.trace:
            setup.append(runner.import_time())
        rnd = []
        ref = runner.import_time(REFERENCE) if not args.trace else math.nan
        for op in ops:
            if runner.expired():
                break
            rec = runner.run(op)
            # the reference is timed before and after every operation; past
            # the hard limit it would be killed, so the earlier one stands in
            before = ref
            if not args.trace and not runner.expired():
                ref = runner.import_time(REFERENCE)
            rec.ref = 0.5 * (before + ref)
            if args.trace:
                rec.spans, errors = runner.traced(op, tracer)
                rec.errors += errors
            for err in rec.errors:
                print(f"FAIL {op.label}: {err}", file=sys.stderr)
            rnd.append(rec)
        rounds.append(rnd)
        if len(rnd) < len(ops) or runner.expired():
            break
    complete = [rnd for rnd in rounds if len(rnd) == len(ops)] or rounds

    if args.trace:
        metrics = per_layer(complete)
        with open(run_dir / "trace.jsonl", "w") as fh:
            for span in with_self_times(tracer.spans):
                fh.write(json.dumps(span) + "\n")
        for line in breakdown(complete):
            print(line, file=sys.stderr)
    else:
        metrics = end_to_end(complete, setup)
    (run_dir / "rounds.json").write_text(json.dumps({
        "setup_s": setup,
        "rounds": [[{"op": r.op.label, "wall_s": r.wall, "ref_s": r.ref, "rc": r.rc,
                     "rss_mb": r.rss_mb, "errors": r.errors} for r in rnd]
                   for rnd in rounds],
    }, indent=1) + "\n")
    attempted = len(ops) * len(rounds)
    failed = sum(1 for rnd in rounds for r in rnd if r.errors) + \
        sum(len(ops) - len(rnd) for rnd in rounds)
    unit = units(bool(args.trace))
    print(f"{args.workload} seed {args.seed}: {len(rounds)} rounds of {len(ops)} "
          f"operations, {failed} failed", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
