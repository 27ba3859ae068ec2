"""End-to-end benchmark of the permll CLI: `fit`, `check` and `search-labels`.

    python3 perfbench/run.py --workload fit-n8 --seed 1 --seconds 30 --trace 0

One closed-loop client runs the workload's fixed list of operations one at a
time; each operation is one CLI invocation (``python3 -m permll.cli ...``) in a
fresh process, timed from spawn to exit.  Passes over the list repeat while
another pass is expected to finish within ``--seconds`` (always at least one).
Every output is checked with the benchmark's own code (``checks.py``) against
inputs the benchmark drew from ``--seed`` (``inputs.py``).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs one untraced
pass and one pass through ``tracer.py``, and reports per-layer call counts and
self times plus the tracing overhead.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field

import checks
from inputs import Dataset, Spec, inverse_index, write_inputs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

SETUP_LAUNCHES = 21
OP_TIMEOUT_S = 100.0

# IPFP cycle cap for `fit`.  Converging fits on these inputs need at most about
# 320 cycles (seeds 100-176).  On about one seed in twenty-five the sparse
# sample's MLE lies on the boundary and IPFP never reaches the 1e-9 marginal
# gap: the CLI default of 10,000 cycles would then run bi_s at n=8 for over
# 100 s, past the run's time limit.  Such fits report converged: false, which
# the checks accept.
FIT_MAX_CYCLES = 400

# Known failures stay in their workload and count as failed operations; the
# run is still correct when the program fails in exactly this documented way.
QI_RANK_CAP = "rank oracle capped at n=7"


@dataclass(frozen=True)
class Op:
    op_id: str
    command: str  # fit | check | search-labels
    argv: tuple[str, ...]  # "@name" stands for the path of input "name"
    family: str | None = None
    input: str | None = None
    n: int = 0
    expect_verdicts: str | None = None
    known_failure: str | None = None


@dataclass
class Workload:
    specs: list[Spec]
    datasets: list[Dataset]
    ops: list[Op] = field(default_factory=list)


# The two n = 8 samples shared by fit-n8 and check-n8 (same seed, same draws).
SAMPLES_N8 = [Dataset("dense8", "mbt", 8, 50_000), Dataset("sparse8", "luce", 8, 500)]


def _fit_n8() -> Workload:
    wl = Workload([], SAMPLES_N8)
    for ds in SAMPLES_N8:
        for fam in ("bi", "bi_s", "l_s", "l", "l'", "qi"):
            wl.ops.append(
                Op(
                    f"fit:{fam}:{ds.name}",
                    "fit",
                    ("fit", "--family", fam, "--data", f"@{ds.name}",
                     "--max-cycles", str(FIT_MAX_CYCLES), "--json"),
                    family=fam,
                    input=ds.name,
                    n=8,
                    known_failure=QI_RANK_CAP if fam == "qi" else None,
                )
            )
    return wl


def _check_n8() -> Workload:
    specs = [Spec("mbt8", "mbt", 8), Spec("luce8", "luce", 8), Spec("qi8", "quasi-independence", 8)]
    wl = Workload(specs, SAMPLES_N8)
    for spec in specs:
        wl.ops.append(
            Op(f"check:{spec.name}", "check", ("check", "--spec", f"@{spec.name}", "--json"),
               input=spec.name, n=8, expect_verdicts=spec.kind)
        )
    wl.ops.append(
        Op("check:dense8:inverse", "check",
           ("check", "--data", "@dense8", "--as-inverse", "--json"),
           input="dense8", n=8)
    )
    wl.ops.append(
        Op("check:sparse8", "check", ("check", "--data", "@sparse8", "--json"), input="sparse8", n=8)
    )
    return wl


def _search() -> Workload:
    data = [
        Dataset("l7", "luce", 7, 3_000, relabel=True),
        Dataset("bi5", "mbt", 5, 1_000, relabel=True),
        Dataset("bi_s5", "mbt", 5, 1_000, relabel=True),
        Dataset("qi5", "mbt", 5, 1_000, relabel=True),
    ]
    wl = Workload([], data)
    for fam, ds in zip(("l", "bi", "bi_s", "qi"), data):
        wl.ops.append(
            Op(f"search:{fam}:{ds.name}", "search-labels",
               ("search-labels", "--family", fam, "--side", "right", "--data", f"@{ds.name}", "--json"),
               family=fam, input=ds.name, n=ds.n)
        )
    return wl


WORKLOADS = {"fit-n8": _fit_n8, "check-n8": _check_n8, "search": _search}

END_TO_END = {
    "wall_s": "s",
    "op_max_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metrics from the traced pass: <module>.<function>.<stat>.
LAYER_STATS = {
    "subspaces.atom_labels": ("calls", "self_s"),
    "subspaces.generators": ("calls",),
    "subspaces.rank_dimension": ("calls", "self_s"),
    "exactrank.exact_rank": ("calls", "self_s", "cells"),
    "fit.ipfp_fit": ("calls", "self_s", "cycles"),
    "fit.gof_report": ("self_s",),
    "fit.explicit_L_mle": ("self_s",),
    "fit.fit_family": ("calls",),
    "fit.search_relabelling": ("self_s",),
    "decompose.canonical_lambda": ("calls", "self_s", "useful_ratio"),
    "decompose.inverse_distribution": ("calls", "self_s"),
    "decompose.is_decomposable": ("calls", "self_s"),
    "decompose.distribution_from_lambda": ("self_s",),
    "classic.classic_distribution": ("calls", "self_s"),
    "perms.enumerate_permutations": ("calls", "self_s"),
    "cli.parse_counts": ("calls", "self_s"),
    "cli.main": ("self_s",),
}
STAT_UNITS = {"calls": "count", "self_s": "s", "cells": "count", "cycles": "count", "useful_ratio": "ratio"}


def per_layer_names() -> dict[str, str]:
    names = {f"{fn}.{stat}": STAT_UNITS[stat] for fn, stats in LAYER_STATS.items() for stat in stats}
    names["trace.overhead_s"] = "s"
    return names


# ---- running operations -----------------------------------------------------


@dataclass
class Result:
    op: Op
    seconds: float
    rss_mb: float
    returncode: int
    stdout: bytes
    stderr: str


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    nproc = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = nproc
    return env


def spawn(argv: list[str], env: dict, workdir: str) -> tuple[float, float, int, bytes, str]:
    """Run one process to completion: (seconds, max RSS in MB, exit code, stdout, stderr)."""
    with tempfile.TemporaryFile(dir=workdir) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, env=env, cwd=ROOT)
        watchdog = threading.Timer(OP_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            seconds = time.perf_counter() - start
        finally:
            watchdog.cancel()
            proc.stdout.close()
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        rss = usage.ru_maxrss / 1024.0
        return seconds, rss, proc.returncode, out, err.read().decode(errors="replace")


def run_op(op: Op, paths: dict, env: dict, workdir: str, spans_path: str | None) -> Result:
    args = [paths[a[1:]] if a.startswith("@") else a for a in op.argv]
    if spans_path is None:
        argv = [sys.executable, "-m", "permll.cli", *args]
    else:
        argv = [sys.executable, os.path.join(HERE, "tracer.py"), spans_path, op.op_id, "--", *args]
    return Result(op, *spawn(argv, env, workdir))


def measure_setup(env: dict, workdir: str) -> float:
    """Median cold start through `import permll.cli`, after one warm-up launch."""
    argv = [sys.executable, "-c", "import permll.cli"]
    times = []
    for i in range(SETUP_LAUNCHES + 1):
        seconds, _, rc, _, err = spawn(argv, env, workdir)
        if rc != 0:
            raise SystemExit(f"cannot import permll.cli from {SRC}:\n{err}")
        if i:
            times.append(seconds)
    return statistics.median(times)


# ---- checking outputs -------------------------------------------------------


def check_pass(results: list[Result], inputs: dict) -> tuple[int, list[str]]:
    """(operations failed, problems).  A failure that matches the op's known
    failure counts as failed but is not a problem."""
    failed, problems = 0, []
    fit_lls: dict[str, dict[str, tuple[float, bool]]] = defaultdict(dict)
    for res in results:
        op = res.op
        if res.returncode != 0:
            failed += 1
            if not (op.known_failure and res.returncode == 1 and op.known_failure in res.stderr):
                problems.append(f"{op.op_id}: exit {res.returncode}: {res.stderr.strip()[-300:]}")
            continue
        try:
            doc = json.loads(res.stdout)
        except ValueError:
            failed += 1
            problems.append(f"{op.op_id}: output is not JSON")
            continue
        counts = inputs["counts"].get(op.input)
        if op.command == "fit":
            found = checks.check_fit(doc, op.family, op.n, counts, FIT_MAX_CYCLES)
            if not found:
                fit_lls[op.input][op.family] = (doc["log_likelihood"], doc["converged"])
        elif op.command == "check":
            table = None
            if counts is not None:
                table = counts / counts.sum()
                if "--as-inverse" in op.argv:
                    table = table[inverse_index(op.n)]
            expected = checks.EXPECTED_VERDICTS[op.expect_verdicts] if op.expect_verdicts else None
            found = checks.check_check(doc, op.n, expected, table)
        else:
            found = checks.check_search(doc, op.family, op.n, counts)
        if found:
            failed += 1
            problems += [f"{op.op_id}: {p}" for p in found]
    for name, lls in fit_lls.items():
        problems += [f"fit {name}: {p}" for p in checks.check_fit_nesting(lls, inputs["counts"][name])]
    return failed, problems


# ---- metrics ----------------------------------------------------------------


def layer_metrics(span_files: list[str]) -> dict[str, float]:
    calls: dict[str, int] = defaultdict(int)
    self_ns: dict[str, int] = defaultdict(int)
    extra: dict[str, int] = defaultdict(int)
    distinct_tables = 0
    for path in span_files:
        with open(path, encoding="utf-8") as fh:
            spans = json.load(fh)["spans"]
        child_ns = [0] * len(spans)
        for span in spans:
            if span["parent"] is not None:
                child_ns[span["parent"]] += span["end"] - span["start"]
        tables = set()
        for span, inner in zip(spans, child_ns):
            name = span["name"]
            calls[name] += 1
            self_ns[name] += span["end"] - span["start"] - inner
            for key in ("cells", "cycles"):
                extra[f"{name}.{key}"] += span.get(key, 0)
            if "table" in span:
                tables.add(span["table"])
        distinct_tables += len(tables)
    out = {}
    for fn, stats in LAYER_STATS.items():
        for stat in stats:
            if stat == "calls":
                value = calls[fn]
            elif stat == "self_s":
                value = self_ns[fn] / 1e9
            elif stat == "useful_ratio":
                value = distinct_tables / calls[fn] if calls[fn] else 0.0
            else:
                value = extra[f"{fn}.{stat}"]
            out[f"{fn}.{stat}"] = value
    return out


def run_pass(wl: Workload, inputs: dict, env: dict, workdir: str, traced: bool):
    results, span_files = [], []
    start = time.perf_counter()
    for i, op in enumerate(wl.ops):
        spans = os.path.join(workdir, f"spans-{i}.json") if traced else None
        results.append(run_op(op, inputs["paths"], env, workdir, spans))
        if traced:
            span_files.append(spans)
    wall = time.perf_counter() - start
    return wall, results, span_files


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "permll", "cli.py")):
        print(f"perfbench: no permll sources under {SRC}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]()
    env = child_env()
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        inputs = write_inputs(workdir, args.seed, wl.specs, wl.datasets)
        setup_s = measure_setup(env, workdir)
        passes = []
        begin = time.perf_counter()
        while True:
            passes.append(run_pass(wl, inputs, env, workdir, traced=False))
            elapsed = time.perf_counter() - begin
            if args.trace or elapsed + passes[-1][0] > args.seconds:
                break
        traced = run_pass(wl, inputs, env, workdir, traced=True) if args.trace else None

        attempted = failed = 0
        problems: list[str] = []
        for _, results, _ in passes + ([traced] if traced else []):
            f, p = check_pass(results, inputs)
            attempted += len(results)
            failed += f
            problems += p
        if traced:
            for plain, tr in zip(passes[0][1], traced[1]):
                if plain.stdout != tr.stdout:
                    problems.append(f"{plain.op.op_id}: traced output differs from untraced")
            metrics = layer_metrics(traced[2])
            metrics["trace.overhead_s"] = traced[0] - passes[0][0]
            units = per_layer_names()
        else:
            metrics = {
                "wall_s": statistics.median(w for w, _, _ in passes),
                "op_max_s": statistics.median(max(r.seconds for r in res) for _, res, _ in passes),
                "setup_s": setup_s,
                "peak_rss_mb": max(r.rss_mb for _, res, _ in passes for r in res),
            }
            units = END_TO_END
        report(args, wl, inputs, passes, traced, failed, attempted, problems)
        for name, value in metrics.items():
            print(f"  {name} {value:.6g} {units[name]}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    doc = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(doc))
    return 0


def report(args, wl, inputs, passes, traced, failed, attempted, problems) -> None:
    """Human-readable lines before the JSON result."""
    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)}"
          f"{' + 1 traced' if traced else ''}  closed loop, 1 client")
    for ds in wl.datasets:
        print(f"  input {ds.name}: {ds.law} n={ds.n} m={ds.m}"
              f"  distinct cells / n! = {inputs['support'][ds.name]:.6f}")
    for wall, results, _ in passes:
        by_cmd = defaultdict(float)
        for r in results:
            by_cmd[r.op.command] += r.seconds
        print(f"  pass wall_s {wall:.4f} s  op_max_s {max(r.seconds for r in results):.4f} s")
        for cmd, secs in by_cmd.items():
            print(f"    {cmd.split('-')[0]}_s {secs:.4f} s")
        for r in results:
            status = "ok" if r.returncode == 0 else f"exit {r.returncode}"
            if r.returncode == 0 and b'"converged": false' in r.stdout:
                status += ", not converged"
            print(f"    {r.op.op_id:28s} {r.seconds:8.4f} s  {r.rss_mb:6.1f} MB  {status}")
    print(f"  ops_failed_frac {failed / attempted:.4f} ({failed}/{attempted})")
    for p in problems:
        print(f"  PROBLEM {p}")


if __name__ == "__main__":
    sys.exit(main())
