"""The four workloads: set-up, the timed closed loop, and the checks.

One process, one client: the next operation starts when the last one
has ended. Each run attempts whole rounds of the same operations, so
the share of failed operations does not depend on the run length.
Operations are timed one by one; the checks run after the loop, or
between rounds, never inside an operation's timer. cframe's functions
are looked up on their modules at call time, so a traced run goes
through the tracer's wrappers.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from cframe import cli, frames, module_space

import oracle
from inputs import diagonal_system, dense_system, rng_for, to_doc
from tracing import IMPORT_METRICS, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
GOLDEN_SYSTEM = "docs/golden/identity_system.json"
GOLDEN_REPORT = "docs/golden/identity_certify.json"

SETUP_REPEATS = 3
CERTIFY_SAMPLES = 1000
CHILD_TIMEOUT_S = 120
IMPORT_REPEATS = 3
POINTWISE_ROUND = 300  # ops 99: verify_bounds, 199/299: extremal vectors


@dataclass
class Tally:
    """Operation timings and failures of one run."""

    durations: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    setup_problems: list[str] = field(default_factory=list)

    def time_op(self, fn, *args, **kwargs):
        """Run one operation; returns (output, error text or None)."""
        t0 = time.perf_counter()
        try:
            out, err = fn(*args, **kwargs), None
        except Exception:
            out, err = None, traceback.format_exc(limit=-1).strip()
        self.durations.append(time.perf_counter() - t0)
        return out, err

    def settle(self, label: str, problems: list[str]) -> None:
        """Count one attempted operation and whether it failed."""
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{label}: {'; '.join(problems)}")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _repeat_setup(fn):
    """Run the set-up SETUP_REPEATS times; (median seconds, last result)."""
    times, result = [], None
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), result


def _loop(seconds: float, one_round) -> None:
    deadline = time.perf_counter() + seconds
    round_no = 0
    while True:
        one_round(round_no)
        round_no += 1
        if time.perf_counter() >= deadline:
            return


# -- certify-many-fibers, certify-large-fibers ----------------------------

# Shapes are fixed, only the entries come from the seed: the cost of an
# operation must not depend on the seed, or seeds would spread the figures.
def _many_fibers(rng):
    return diagonal_system(rng, [1 + j % 16 for j in range(64)],
                           family_size=12)


def _large_fibers(rng):
    return dense_system(rng, fibers=8, dim=64, family_size=32)


CERTIFY_SPECS = {
    # name: (salt, inputs per round, generator)
    "certify-many-fibers": (1, 2, _many_fibers),
    "certify-large-fibers": (2, 1, _large_fibers),
}


def certify_workload(name: str, seed: int, seconds: float, tracer, tally):
    salt, pool, make = CERTIFY_SPECS[name]

    def op(doc):
        desc = cli.description_from_dict(doc)
        return frames.certify(desc.build_system(), samples=CERTIFY_SAMPLES)

    warm = to_doc(diagonal_system(rng_for(seed, 99), [2, 3], 2))

    def setup():
        rng = rng_for(seed, salt)
        systems = [make(rng) for _ in range(pool)]
        op(warm)
        return systems, [to_doc(gs) for gs in systems]

    setup_s, (systems, docs) = _repeat_setup(setup)
    oracles = [oracle.oracle(gs) for gs in systems]

    def one_round(_):
        for i, doc in enumerate(docs):
            tracer.operation = len(tally.durations)
            cert, err = tally.time_op(op, doc)
            results.append((i, cert, err))

    results: list = []
    with tracer.recording():
        _loop(seconds, one_round)
    for i, cert, err in results:
        problems = [err] if err else oracle.certificate_problems(
            oracles[i], cert.status, cert.lower.values, cert.upper.values,
            cert.lower_residual, cert.upper_residual)
        tally.settle(f"{name} input {i}", problems)
    return setup_s


# -- pointwise-checks -----------------------------------------------------

def pointwise_workload(seed: int, seconds: float, tracer, tally):
    def setup():
        gs = diagonal_system(rng_for(seed, 3), [8] * 16, 8)
        sysm = cli.description_from_dict(to_doc(gs)).build_system()
        cert = frames.certify(sysm, samples=CERTIFY_SAMPLES)
        return gs, sysm, cert

    setup_s, (gs, sysm, cert) = _repeat_setup(setup)
    orc = oracle.oracle(gs)
    tally.setup_problems += [
        f"set-up certificate: {p}" for p in oracle.certificate_problems(
            orc, cert.status, cert.lower.values, cert.upper.values,
            cert.lower_residual, cert.upper_residual)]
    a_sq = np.abs(cert.lower.values) ** 2
    b_sq = np.abs(cert.upper.values) ** 2
    low_vec = np.stack([oracle.extremal_vector(f.phi, f.gamma, "min")
                        for f in orc.forms])
    up_vec = np.stack([oracle.extremal_vector(f.phi, f.weight, "max")
                       for f in orc.forms])
    vec_rng = rng_for(seed, 4)
    frames.check_at(sysm, cert, sysm.space.zero_vector())

    def one_round(round_no):
        xs = (vec_rng.standard_normal((POINTWISE_ROUND, 16, 8))
              + 1j * vec_rng.standard_normal((POINTWISE_ROUND, 16, 8)))
        xs[199], xs[299] = low_vec, up_vec
        reports, errors = [], {}
        with tracer.recording():
            for k in range(POINTWISE_ROUND):
                tracer.operation = len(tally.durations)
                if k == 99:
                    ver, err = tally.time_op(
                        frames.verify_bounds, sysm, cert.lower, cert.upper,
                        samples=CERTIFY_SAMPLES, seed=round_no)
                else:
                    x = module_space.ModuleVector(sysm.space, tuple(xs[k]))
                    rep, err = tally.time_op(frames.check_at, sysm, cert, x)
                    reports.append((k, rep))
                if err:
                    errors[k] = err
        _check_pointwise_round(orc, a_sq, b_sq, xs, reports, ver, errors,
                               tally)

    _loop(seconds, one_round)
    return setup_s


def _check_pointwise_round(orc, a_sq, b_sq, xs, reports, ver, errors, tally):
    ok = [(k, r) for k, r in reports if k not in errors]
    per_op = {k: [e] for k, e in errors.items()}
    if ok:
        idx = [k for k, _ in ok]
        found = oracle.slack_problems(
            orc, a_sq, b_sq, xs[idx],
            np.array([r.slack_lower.values for _, r in ok]),
            np.array([r.slack_upper.values for _, r in ok]),
            [r.lower_ok for _, r in ok], [r.upper_ok for _, r in ok])
        for (k, rep), problems in zip(ok, found):
            if k == 199:
                problems += oracle.attained_problems(
                    orc, xs[k], rep.slack_lower.values, "lower")
            elif k == 299:
                problems += oracle.attained_problems(
                    orc, xs[k], rep.slack_upper.values, "upper")
            per_op[k] = problems
    if 99 not in errors:
        per_op[99] = ([] if ver.verified and ver.residual <= oracle.RESIDUAL_MAX
                      else [f"verify_bounds residual {ver.residual!r}"])
    for k in range(POINTWISE_ROUND):
        tally.settle(f"pointwise op {k}", per_op[k])


# -- cli-cold ---------------------------------------------------------------

class ColdCli:
    """Fresh `python -m cframe.cli` processes and the checks of their output.

    The medium system file and the example's alpha and beta come from
    the seed; the golden system and the selftest are fixed.
    """

    def __init__(self, seed: int, workdir: Path):
        rng = rng_for(seed, 5)
        self.system = diagonal_system(rng, [8] * 16, 8, with_q=True)
        self.alpha, self.beta = (float(v) for v in rng.uniform(0.5, 3.0, 2))
        self.medium = workdir / "medium_system.json"
        self.workdir = workdir
        self.golden = (ROOT / GOLDEN_REPORT).read_bytes()
        self.oracle = None
        self.commands = {
            "certify": ["certify", GOLDEN_SYSTEM],
            "certify-medium": ["certify", str(self.medium.relative_to(ROOT))],
            "transform": ["transform", "invq",
                          str(self.medium.relative_to(ROOT))],
            "example": ["example", "--alpha", repr(self.alpha),
                        "--beta", repr(self.beta)],
            "selftest": ["selftest"],
        }

    def write_inputs(self) -> None:
        self.medium.write_text(json.dumps(to_doc(self.system)),
                               encoding="utf-8")

    def spawn(self, name: str, tracer=None):
        """One fresh process; (seconds, completed process or error).

        With a tracer the process runs through cli_child.py and its span
        totals are merged into the tracer.
        """
        args = self.commands[name]
        totals = self.workdir / "totals.json"
        if tracer is not None:
            cmd = [sys.executable, str(BENCH / "cli_child.py"), str(totals)]
        else:
            cmd = [sys.executable, "-m", "cframe.cli"]
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd + args, cwd=ROOT, env=child_env(),
                                  capture_output=True,
                                  timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return time.perf_counter() - t0, "timed out"
        seconds = time.perf_counter() - t0
        if tracer is not None and totals.exists():
            agg = json.loads(totals.read_text(encoding="utf-8"))
            totals.unlink()
            tracer.merge(agg["calls"], agg["self_s"])
        return seconds, proc

    def problems(self, name: str, proc) -> list[str]:
        if isinstance(proc, str):
            return [proc]
        err = proc.stderr.decode("utf-8", "replace")
        problems = []
        if "Traceback" in err:
            problems.append("ended in a Python traceback: "
                            + err.strip().splitlines()[-1])
        if proc.returncode != 0:
            problems.append(f"exit code {proc.returncode}, documented 0")
        if name == "certify":
            if proc.stdout != self.golden:
                problems.append("golden report is not byte-identical")
            return problems
        try:
            doc = json.loads(proc.stdout)
        except ValueError:
            return problems + ["stdout is not one JSON document"]
        if self.oracle is None:
            self.oracle = oracle.oracle(self.system)
        if name == "certify-medium":
            return problems + oracle.certify_report_problems(doc, self.oracle)
        if name == "transform":
            return problems + oracle.invq_report_problems(
                doc, self.oracle, self.system.q)
        if name == "example":
            return problems + oracle.example_report_problems(
                doc, self.alpha, self.beta)
        return problems + oracle.selftest_report_problems(doc)


COLD_METRICS = {"cold_certify_ms": "certify",
                "cold_transform_ms": "transform",
                "cold_example_ms": "example",
                "cold_selftest_ms": "selftest"}


def cli_workload(seed: int, seconds: float, tracer, tally, workdir: Path):
    cold = ColdCli(seed, workdir)
    child_tracer = tracer if tracer.enabled else None

    def setup():
        cold.write_inputs()
        _, proc = cold.spawn("certify")
        return cold.problems("certify", proc)

    setup_s, warm_problems = _repeat_setup(setup)
    tally.setup_problems += [f"set-up spawn: {p}" for p in warm_problems]
    names = list(cold.commands)
    runs = []

    def one_round(_):
        for name in names:
            seconds_, proc = cold.spawn(name, child_tracer)
            tally.durations.append(seconds_)
            runs.append((name, seconds_, proc))

    _loop(seconds, one_round)
    times = {n: [] for n in names}
    for name, seconds_, proc in runs:
        times[name].append(seconds_)
        tally.settle(f"cli {name}", cold.problems(name, proc))
    return setup_s, {m: statistics.median(times[c]) * 1e3
                     for m, c in COLD_METRICS.items()}


# -- one run ---------------------------------------------------------------

WORKLOADS = ("certify-many-fibers", "certify-large-fibers",
             "pointwise-checks", "cli-cold")


def import_times() -> dict:
    """Cold import split in fresh processes: numpy, then scipy.linalg, then
    cframe's own modules; medians over IMPORT_REPEATS processes."""
    code = ("import json, time\n"
            "t0 = time.perf_counter(); import numpy\n"
            "t1 = time.perf_counter(); import scipy.linalg\n"
            "t2 = time.perf_counter(); import cframe\n"
            "t3 = time.perf_counter()\n"
            "print(json.dumps([t1 - t0, t2 - t1, t3 - t2]))\n")
    rows = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                              env=child_env(), capture_output=True,
                              timeout=CHILD_TIMEOUT_S, check=True)
        rows.append(json.loads(proc.stdout.decode().splitlines()[-1]))
    return {m: {"value": statistics.median(r[i] for r in rows) * 1e3,
                "unit": "ms"}
            for i, m in enumerate(IMPORT_METRICS)}


def _end_to_end(tally: Tally, setup_s: float, rss_mb: float) -> dict:
    d = tally.durations
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(d) / sum(d), "1/s"),
        "op_p50_ms": (statistics.median(d) * 1e3, "ms"),
        "op_p90_ms": (statistics.quantiles(d, n=10, method="inclusive")[8]
                      * 1e3, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; the result object the benchmark prints."""
    tracer = Tracer(enabled=trace)
    if trace:
        tracer.install()
    tally = Tally()
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT))
    cold = dict.fromkeys(COLD_METRICS, 0.0)
    try:
        if workload == "cli-cold":
            setup_s, cold = cli_workload(seed, seconds, tracer, tally,
                                         workdir)
            rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        elif workload == "pointwise-checks":
            setup_s = pointwise_workload(seed, seconds, tracer, tally)
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        else:
            setup_s = certify_workload(workload, seed, seconds, tracer, tally)
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        end_to_end = _end_to_end(tally, setup_s, rss / 1024.0)
        if trace:
            metrics = tracer.per_layer(len(tally.durations))
            metrics.update(import_times())
            metrics.update({m: {"value": v, "unit": "ms"}
                            for m, v in cold.items()})
        else:
            metrics = end_to_end
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": not tally.setup_problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    for p in tally.setup_problems + tally.problems:
        print(f"problem: {p}", file=sys.stderr)
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    details = {"operations": len(tally.durations), "cold_ms": cold,
               "end_to_end": end_to_end,
               "problems": tally.setup_problems + tally.problems}
    (OUT / f"result-{tag}.json").write_text(
        json.dumps(result | {"details": details}, indent=2, sort_keys=True)
        + "\n", encoding="utf-8")
    if trace:
        (OUT / f"trace-{tag}.json").write_text(json.dumps({
            "aggregate": tracer.aggregate(),
            "spans": [dict(zip(("id", "parent", "operation", "name",
                                "start", "end"), s)) for s in tracer.spans],
        }) + "\n", encoding="utf-8")
    return result
