"""skewrec benchmark: certified measures, enclosure-heavy searches and pruned searches.

Run from the repository root:

    python3 perfbench/run.py --workload measure-batch --seed 1 --seconds 36 --trace 0

Each task calls skewrec.cli.main(argv) in this process with stdout
captured, so the user-facing command path is timed without interpreter
start-up, and the printed `data` is what gets checked.  The package is
imported from src/ without installing it.

--trace 0 repeats the workload's task list (one pass) until --seconds
is used up, at least twice, and reports end-to-end metrics as medians
over passes.  --trace 1 runs one untraced pass, then traced passes at
--jobs 1 (see tracer.py), and reports per-layer metrics.  The last
stdout line is the result; the line before it records the host.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 9
MIN_PASSES = 2
WARMUP = ["measure", "--tol", "1e-6", "t^10+t^9-t^7-t^6-t^5-t^4-t^3+t+1"]
IMPORT_PROBE = ("import sys, time; sys.path[:0] = sys.argv[1:]; "
                "from hostspeed import calibrate; c = calibrate()[0]; "
                "t = time.perf_counter(); import skewrec.cli; "
                "t = time.perf_counter() - t; print(t, (c + calibrate()[0]) / 2)")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cpu_seconds() -> float:
    """User + system CPU of this process and its reaped children (pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def setup_seconds() -> tuple[float, float]:
    """Median time for a fresh interpreter to import skewrec.cli: (scaled, raw).

    One untimed import first, so bytecode compilation of a fresh
    checkout is not counted: users do not pay it on every run.  The
    scaled time uses the host speed probe run in the same interpreter.
    """
    def probe() -> tuple[float, float]:
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(HERE), str(SRC)],
                             capture_output=True, text=True, check=True, timeout=120)
        seconds, loop = map(float, out.stdout.split())
        return seconds * hostspeed.REFERENCE_S / loop, seconds

    probe()
    scaled, raw = zip(*(probe() for _ in range(SETUP_REPEATS)))
    return statistics.median(scaled), statistics.median(raw)


def host_facts() -> dict:
    import mpmath
    import numpy

    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True).stdout.strip() or None
    return {
        "python": platform.python_version(),
        "nproc": nproc(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "numpy": numpy.__version__,
        "source_sha256": digest.hexdigest()[:16],
        "commit": commit,
    }


def call(main, argv):
    """Run one CLI invocation; returns (exit code or None, stdout, stderr or error)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except (Exception, SystemExit) as exc:  # a failing task is counted, not fatal
        return None, out.getvalue(), f"{type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue()


class Run:
    """Passes over one task list, with the checks and the failure count."""

    def __init__(self, main, tasks, jobs):
        self.main, self.tasks, self.jobs = main, tasks, jobs
        self.attempted = self.failed = 0
        self.errors: list[str] = []
        self.data: dict[str, str] = {}  # task name -> data of its first run

    def one_pass(self, jobs=None, tracer=None, on_task=None):
        """Run every task once, timing each; check the outputs afterwards.

        Returns per-task wall and CPU seconds, in task order, and the
        host speed probe's (wall, CPU) seconds before each task and
        after the last.
        """
        jobs = self.jobs if jobs is None else jobs
        main = tracer.root(self.main) if tracer else self.main
        outcomes, walls, cpus, probes = [], [], [], [hostspeed.calibrate()]
        for task in self.tasks:
            before = tracer.snapshot() if tracer else None
            cpu0, wall0 = cpu_seconds(), time.perf_counter()
            outcome = call(main, task.command(jobs))
            walls.append(time.perf_counter() - wall0)
            cpus.append(cpu_seconds() - cpu0)
            if tracer:
                after = tracer.snapshot()
                outcome += (defaultdict(int, {k: after[k] - before[k] for k in after}),)
            outcomes.append(outcome)
            probes.append(hostspeed.calibrate())
        for task, (code, out, err, *delta) in zip(self.tasks, outcomes):
            data = self._check(task, code, out, err)
            if data is not None and on_task:
                on_task(task, data, delta[0])
        return walls, cpus, probes

    def _check(self, task, code, out, err):
        self.attempted += 1
        errs = []
        data = None
        if code != 0:
            errs.append(f"exit {code}: {err.strip()[-500:]}")
        else:
            try:
                data = json.loads(out)["data"]
                errs += task.check(data)
            except (ValueError, KeyError, TypeError) as exc:
                errs.append(f"unreadable output: {type(exc).__name__}: {exc}")
        if data is not None:
            text = json.dumps(data, sort_keys=True)
            first = self.data.setdefault(task.name, text)
            if text != first:
                errs.append("data differs from an earlier pass of this run")
        if errs:
            self.failed += 1
            self.errors += [f"{task.name}: {e}" for e in errs]
            return None
        return data


def scaled(times, probes, which):
    """Task times at reference host speed, from the probes on either side."""
    return [t * 2 * hostspeed.REFERENCE_S / (a[which] + b[which])
            for t, a, b in zip(times, probes, probes[1:])]


def run_plain(run: Run, seconds: float) -> tuple[dict, dict]:
    """Passes until the time is used up; each metric sums per-task medians.

    Per-task medians shed a task that ran during a slow spell of a shared
    host, which a median of whole-pass times cannot do with few passes.
    Returns the metrics (at reference host speed) and the raw figures.
    """
    raw_walls, raw_cpus, walls, cpus = [], [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        wall, cpu, probes = run.one_pass()
        raw_walls.append(wall)
        raw_cpus.append(cpu)
        walls.append(scaled(wall, probes, 0))
        cpus.append(scaled(cpu, probes, 1))
        print(f"pass {len(walls)}: wall {sum(wall):.3f} s, cpu {sum(cpu):.3f} s, "
              f"at reference speed {sum(walls[-1]):.3f} s, {sum(cpus[-1]):.3f} s",
              file=sys.stderr)
        left = deadline - time.perf_counter()
        if len(walls) >= MIN_PASSES and left < statistics.median(map(sum, raw_walls)):
            break
    per_task = lambda runs: sum(map(statistics.median, zip(*runs)))
    metrics = {"wall_s": (per_task(walls), "s"), "cpu_s": (per_task(cpus), "s")}
    raw = {"wall_s": per_task(raw_walls), "cpu_s": per_task(raw_cpus),
           "pass_walls": [sum(w) for w in raw_walls]}
    return metrics, raw


def run_traced(run: Run, seconds: float) -> dict:
    import tracer as tracing

    deadline = time.perf_counter() + seconds
    wall_u, cpu_u = map(sum, run.one_pass()[:2])
    print(f"untraced pass: wall {wall_u:.3f} s, cpu {cpu_u:.3f} s", file=sys.stderr)
    passes = []
    while not passes or deadline - time.perf_counter() > passes[-1]["cpu"]:
        t = tracing.Tracer()
        totals = {"members": 0, "kron": 0, "escalations": 0, "pruned": 0}

        def on_task(task, data, delta):
            if task.argv[0] != "search":
                return
            for e in tracing.search_invariants(delta, data):
                print(f"warning: {task.name}: {e}", file=sys.stderr)
            pruned, _ = tracing.search_counts(delta, data)
            totals["members"] += data["enumerated"]
            totals["kron"] += data["excluded_kronecker"]
            totals["escalations"] += data["precision_escalations"]
            totals["pruned"] += pruned

        with t.installed():
            wall, cpu = map(sum, run.one_pass(jobs=1, tracer=t, on_task=on_task)[:2])
        print(f"traced pass: wall {wall:.3f} s, cpu {cpu:.3f} s", file=sys.stderr)
        passes.append({"cpu": cpu, "tracer": t, "totals": totals})
    pool_jobs = run.jobs if any(task.pooled for task in run.tasks) else 1
    return layer_metrics(passes, wall_u, cpu_u, pool_jobs)


def layer_metrics(passes, wall_u, cpu_u, jobs) -> dict:
    def median(fn):
        return statistics.median(fn(p) for p in passes)

    first = passes[0]
    t, totals = first["tracer"], first["totals"]
    non_kron = totals["members"] - totals["kron"]
    count = lambda v: (v, "count")
    sec = lambda bucket: (median(lambda p: p["tracer"].self_s[bucket]), "s")
    return {
        "cli.self_s": sec("cli"),
        "search.members": count(totals["members"]),
        "search.kronecker_excluded": count(totals["kron"]),
        "search.escalations": count(totals["escalations"]),
        "search.lower_bounds": count(t.calls["measure.lower_bound"]),
        "search.enclosures_p1": count(t.counts["search.enclosures_p1"]),
        "search.enclosures_p2": count(t.counts["search.enclosures_p2"]),
        "search.enclosures_audit": count(t.counts["search.enclosures_audit"]),
        "search.pruned": count(totals["pruned"]),
        "search.prune_ratio": (totals["pruned"] / non_kron if non_kron else 0.0, "ratio"),
        "search.self_s": sec("search"),
        "search.pool_util": (cpu_u / (jobs * wall_u), "ratio"),
        "structure.calls": count(t.calls["structure"]),
        "structure.s": sec("structure"),
        "measure.kronecker_calls": count(t.calls["measure.kronecker"]),
        "measure.kronecker_s": sec("measure.kronecker"),
        "measure.lower_bound_s": sec("measure.lower_bound"),
        "measure.graeffe_calls": count(t.hits[("skewrec.measure", "graeffe")]),
        "measure.strip_s": sec("measure.strip"),
        "measure.enclosure_calls": count(t.calls["measure.enclosure"]),
        "measure.enclosure_self_s": sec("measure.enclosure"),
        "poly.gcd_calls": count(t.calls["poly.gcd"]),
        "poly.gcd_s": sec("poly.gcd"),
        "poly.squarefree_s": sec("poly.squarefree"),
        "roots.calls": count(t.calls["roots"]),
        "roots.degree_sum": count(t.counts["roots.degree_sum"]),
        "roots.s": sec("roots"),
        "roots.components_s": sec("roots.components"),
        "trace.overhead": (median(lambda p: p["cpu"]) / cpu_u - 1, "ratio"),
    }


def main() -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "skewrec" / "cli.py").is_file():
        print(f"error: no skewrec sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import skewrec.cli

    if Path(skewrec.cli.__file__).resolve().parent != SRC / "skewrec":
        print(f"error: imported skewrec from {skewrec.cli.__file__}", file=sys.stderr)
        return 2

    jobs = min(2, nproc())
    run = Run(skewrec.cli.main, workloads.WORKLOADS[args.workload](args.seed), jobs)
    call(skewrec.cli.main, WARMUP)
    if args.trace:
        metrics, raw = run_traced(run, args.seconds), None
    else:
        setup_s, raw_setup_s = setup_seconds()
        metrics, raw = run_plain(run, args.seconds)
        metrics["setup_s"] = (setup_s, "s")
        raw["setup_s"] = raw_setup_s

    for e in run.errors[:20]:
        print(f"FAILED {e}", file=sys.stderr)
    print(f"error_rate {run.failed}/{run.attempted}", file=sys.stderr)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "jobs": jobs, "raw": raw, "host": host_facts()}
    print(json.dumps(record))
    print(json.dumps({
        "correct": not run.errors,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
