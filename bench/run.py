#!/usr/bin/env python3
"""End-to-end benchmark of the `motives` command line.

    python3 bench/run.py --workload grid --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the package is taken from `src/`,
no install needed.  A run executes whole rounds of its workload's fixed
list of CLI invocations, one fresh interpreter at a time, until
`--seconds` have passed (at least one round), and checks every report
against `checks`.  The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones:
  wall_s       median over rounds of the round's summed invocation wall time
  setup_s      median wall time of a fresh interpreter importing motives.cli
  peak_rss_mb  largest peak RSS of any one child (os.wait4 rusage)
With `--trace 1` the run makes one untraced and one traced round, then
calls each module in-process (`layers.py`) and reports the per-layer
metrics; the spans go to bench/out/trace-<workload>-seed<n>.json.

An operation fails when its process exits nonzero or its report fails
its check.  `correct` is false when an operation fails that is not a
known fault of the program (see `Op.known_fault`).  `--workload all`
runs every workload in turn and prints one line each, then a summary.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS, Op  # noqa: E402

SETUP_SAMPLES = 5
CLI_MAIN = "import sys; from motives.cli import main; sys.exit(main())"
CHILD_ENV = dict(os.environ, PYTHONPATH=str(SRC), WEIL_WORKERS="1")


class Tracer:
    """Spans (id, name, parent, start, end) kept in memory until the run ends."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._open[-1] if self._open else None,
               "start": time.perf_counter(), "end": None, **attrs}
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def with_self_times(self) -> list[dict]:
        """Spans with duration and self time (duration minus direct children)."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        return [dict(s, duration_s=s["end"] - s["start"],
                     self_s=s["end"] - s["start"] - child_time[s["id"]])
                for s in self.spans]


def _span(tracer: Tracer | None, name: str, **attrs):
    return tracer.span(name, **attrs) if tracer else nullcontext()


@dataclass
class Child:
    status: int
    wall_s: float
    rss_mb: float
    cpu_s: float
    stdout: str
    stderr: str


def run_child(args: list[str], workdir: Path) -> Child:
    """Run one interpreter to completion; time it and read its own rusage.

    Output goes to files so that a large report cannot block the child on
    a full pipe while the parent waits in os.wait4.
    """
    out_path, err_path = workdir / "stdout", workdir / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdout=out, stderr=err,
                                cwd=ROOT, env=CHILD_ENV)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall, usage.ru_maxrss / 1024.0,
                 usage.ru_utime + usage.ru_stime,
                 out_path.read_text(), err_path.read_text())


@dataclass
class Round:
    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    unexpected: list[str] = field(default_factory=list)
    ops: list[dict] = field(default_factory=list)


def run_round(ops: list[Op], workdir: Path, tracer: Tracer | None = None) -> Round:
    rnd = Round()
    with _span(tracer, "round"):
        for op in ops:
            with _span(tracer, f"op:{op.name}"):
                with _span(tracer, "cli", argv=list(op.argv)):
                    child = run_child(["-c", CLI_MAIN, *op.argv, "--format", "json"], workdir)
                with _span(tracer, "check"):
                    if child.status != 0:
                        problems = [f"exit {child.status}: {child.stderr.strip()[-300:]}"]
                    else:
                        try:
                            problems = op.check(json.loads(child.stdout))
                        except (ValueError, KeyError, TypeError, IndexError) as exc:
                            problems = [f"unreadable report: {exc!r}"]
            rnd.wall_s += child.wall_s
            rnd.cpu_s += child.cpu_s
            rnd.peak_rss_mb = max(rnd.peak_rss_mb, child.rss_mb)
            rnd.attempted += 1
            rnd.failed += bool(problems)
            if problems and not op.known_fault:
                rnd.unexpected.append(f"{op.name}: {problems[:3]}")
            rnd.ops.append({"op": op.name, "argv": list(op.argv), "wall_s": child.wall_s,
                            "rss_mb": child.rss_mb, "problems": problems[:5],
                            "known_fault": op.known_fault})
    return rnd


def setup_sample(workdir: Path) -> float:
    child = run_child(["-c", "import motives.cli"], workdir)
    if child.status != 0:
        sys.exit(f"importing motives.cli failed: {child.stderr.strip()[-500:]}")
    return child.wall_s


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_workload(name: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    ops = WORKLOADS[name](random.Random(f"{name}:{seed}"), workdir)
    rounds: list[Round] = []
    record: dict = {"workload": name, "seed": seed, "trace": int(trace)}
    if not trace:
        setup = [setup_sample(workdir) for _ in range(SETUP_SAMPLES)]
        start = time.perf_counter()
        while not rounds or time.perf_counter() - start < seconds:
            rounds.append(run_round(ops, workdir))
        metrics = {
            "wall_s": metric(statistics.median(r.wall_s for r in rounds), "s"),
            "setup_s": metric(statistics.median(setup), "s"),
            "peak_rss_mb": metric(max(r.peak_rss_mb for r in rounds), "MB"),
        }
        record["setup_samples_s"] = setup
    else:
        import layers

        tracer = Tracer()
        rounds.append(run_round(ops, workdir))
        with tracer.span("traced_run", workload=name, seed=seed):
            rounds.append(run_round(ops, workdir, tracer))
            layer_metrics, layer_problems = layers.probe(tracer, SRC)
        metrics = {k: metric(*v) for k, v in layer_metrics.items()}
        metrics["cli.cpu_s"] = metric(rounds[1].cpu_s, "s")
        metrics["trace.overhead_s"] = metric(rounds[1].wall_s - rounds[0].wall_s, "s")
        rounds[1].unexpected += layer_problems
        (OUT / f"trace-{name}-seed{seed}.json").write_text(
            json.dumps({"workload": name, "seed": seed, "spans": tracer.with_self_times()},
                       indent=1))
    unexpected = [u for r in rounds for u in r.unexpected]
    result = {"correct": not unexpected,
              "attempted": sum(r.attempted for r in rounds),
              "failed": sum(r.failed for r in rounds),
              "metrics": metrics}
    record.update(result, rounds=[vars(r) for r in rounds])
    (OUT / f"result-{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1))
    for u in unexpected:
        print(f"unexpected failure: {u}", file=sys.stderr)
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "motives" / "cli.py").is_file():
        print(f"no motives package under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        results = {}
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace),
                                         workdir)
            if len(names) > 1:
                print(json.dumps({"workload": name, **results[name]}))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items()
                        for k, v in r["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
