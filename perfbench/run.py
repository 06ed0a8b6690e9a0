"""codedcache benchmark: end-to-end and per-layer metrics for one workload.

    python3 perfbench/run.py --workload readme --seed 1 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` and need not be installed.  An untraced run measures for
``run_seconds`` of BENCHMARK.json; ``--seconds`` is accepted only with
that value.  The load is closed-loop from one
process: every child runs after the previous one has exited, and BLAS
threads in each child are capped at the number of usable CPUs.

``--trace 0`` measures what a user sees, with tracing off:

* ``setup_s``     median of SETUP_PER_ROUND fresh processes per round, each
                  importing codedcache and building the workload's config;
* ``cli_s``       median wall time of fresh ``python -m codedcache.cli``
                  processes running the workload;
* ``units_per_s`` warm throughput, the workload's units over the median
                  time of in-process repetitions after a warm-up;
* ``peak_rss_mb`` peak resident memory of the warm child, from its own
                  ``getrusage``.

``--trace 1`` runs the workload with spans around the package's public
entry points (see child.py) and reports per-layer times and counts, the
import split of set-up, and the tracing overhead.

Every output is checked: simulate CSVs for shape and finite values, the
verify report for zero decode failures and ``verify=PASS``, all outputs of
one seed for byte identity, and the default seed's outputs against golden
sha256 digests.  Two negative controls (a CSV with one byte flipped, and
``verify-decode --corrupt``) must be caught, or the run is not correct.

``--workload all`` runs every workload traced and untraced.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the exit code is 1 when the run is not correct
or an operation failed.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from collections import Counter
from importlib import metadata
from pathlib import Path

from workloads import DEFAULT_SEED, WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"

SETUP_PER_ROUND = 3  # set-up processes per round: setup_s is their median over the run
WARM_SHARE = 0.5  # warm repetitions per round last at least this share of its CLI time
SPLIT_REPS = 3  # import-split processes per traced run
RUN_DEADLINE_S = 170  # a run must end within 180 s


def blas_threads() -> int:
    return len(os.sched_getaffinity(0))


def machine_facts() -> dict:
    def version(dist: str) -> str:
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "absent"

    cpu = ""
    if os.path.exists("/proc/cpuinfo"):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    return {
        "nproc": os.cpu_count(),
        "blas_threads": blas_threads(),
        "cpu": cpu or platform.machine(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
    }


class Run:
    """Operations of one benchmark run: children, tallies, output identity."""

    def __init__(self, workload: Workload, seed: int, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first_digest: dict[int, str] = {}
        self.control_results: dict[str, bool] = {}
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = str(blas_threads())

    def timeout(self) -> float:
        return max(1.0, self.deadline - time.monotonic())

    def op(self, what: str, error: str | None, seed: int, digest: str | None = None) -> bool:
        """Count one operation; outputs of one seed must all be byte-identical."""
        if error is None and digest is not None:
            first = self.first_digest.setdefault(seed, digest)
            if digest != first:
                error = "output differs from the first output of this seed"
        self.attempted += 1
        if error is not None:
            self.failed += 1
            self.problems.append(f"{what}: {error}")
        return error is None

    def child(self, *args: str) -> dict | None:
        """Run child.py; its last stdout line is JSON.  None (and a failure) on error."""
        cmd = [sys.executable, str(HERE / "child.py"), *args]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True,
                                  text=True, timeout=self.timeout())
        except subprocess.TimeoutExpired:
            self.op(f"child {args[0]}", "timed out", self.seed)
            return None
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or [""]
            self.op(f"child {args[0]}", f"exit {proc.returncode} {tail[0]}", self.seed)
            return None
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def records(self, what: str, records: list[dict], seed: int) -> list[float]:
        """Tally a child's executions; return the times of those that passed."""
        return [r["s"] for r in records if self.op(what, r["error"], seed, r["digest"])]

    def setup_times(self, reps: int, split: bool = False) -> list[dict]:
        args = ["setup", self.workload.name, str(self.seed)] + (["split"] if split else [])
        marks = []
        for _ in range(reps):
            result = self.child(*args)
            if result is not None and self.op("setup", None, self.seed):
                marks.append(result)
        return marks

    def cli_once(self) -> float | None:
        """One fresh CLI process per command of the workload; total wall time."""
        out = str(self.workdir / "cli.out")
        stdout, total = "", 0.0
        for argv in self.workload.commands(self.seed, out):
            start = time.perf_counter()
            try:
                proc = subprocess.run([sys.executable, "-m", "codedcache.cli", *argv],
                                      cwd=ROOT, env=self.env, capture_output=True,
                                      text=True, timeout=self.timeout())
            except subprocess.TimeoutExpired:
                self.op("cli", "timed out", self.seed)
                return None
            total += time.perf_counter() - start
            if proc.returncode != 0:
                self.op("cli", f"exit {proc.returncode}", self.seed)
                return None
            stdout += proc.stdout
        output = self.workload.output(stdout, out)
        digest = hashlib.sha256(output).hexdigest()
        ok = self.op("cli", self.workload.check(output, self.seed), self.seed, digest)
        return total if ok else None

    def controls(self, result: dict) -> None:
        self.control_results = result["controls"]
        for name, caught in result["controls"].items():
            if not caught:
                self.problems.append(f"negative control not caught: {name}")


def median(values: list[float]) -> float | None:
    return statistics.median(values) if values else None


class WarmChild:
    """The long-lived child that times warm repetitions on request (child.py serve)."""

    def __init__(self, run: Run):
        self.run = run
        self.stderr = open(run.workdir / "serve.err", "w+", encoding="utf-8")
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), "serve", run.workload.name,
             str(run.seed), str(run.workdir)],
            cwd=ROOT, env=run.env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=self.stderr, text=True)

    def request(self, line: str | None) -> dict | None:
        """Send one request line (None: just read); the reply, or None and a failure."""
        try:
            if line is not None:
                self.proc.stdin.write(line + "\n")
                self.proc.stdin.flush()
            ready, _, _ = select.select([self.proc.stdout], [], [], self.run.timeout())
            reply = self.proc.stdout.readline() if ready else ""
        except BrokenPipeError:
            reply = ""
        if not reply:
            self.stderr.seek(0)
            tail = self.stderr.read().strip().splitlines()[-1:] or ["no reply"]
            self.run.op("warm child", tail[0], self.run.seed)
            return None
        return json.loads(reply)

    def close(self) -> None:
        """Let the child exit after ``finish``; kill it if it does not."""
        try:
            self.proc.stdin.close()
        except BrokenPipeError:
            pass
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self.stderr.close()


def measure(run: Run, seconds: float) -> dict:
    """End-to-end metrics, tracing off.

    Rounds start until ``seconds`` have passed.  Each round is
    SETUP_PER_ROUND set-up processes, one fresh CLI invocation, and warm
    repetitions for at least WARM_SHARE of the time that invocation took, so
    every metric samples the whole measured window rather than one stretch
    of it.
    """
    w = run.workload
    run.setup_times(1)  # warms the file cache and writes bytecode; not in setup_s
    warm = WarmChild(run)
    setup, cli, reps = [], [], []
    values = {}
    try:
        warmup = warm.request(None)
        alive = warmup is not None
        if alive:
            run.records("warm-up", [warmup], DEFAULT_SEED)
        start = time.perf_counter()
        while alive and time.perf_counter() - start < seconds:
            setup += [m["setup_s"] for m in run.setup_times(SETUP_PER_ROUND)]
            elapsed = run.cli_once()
            if elapsed is not None:
                cli.append(elapsed)
            warm_s = 0.0
            while alive and (warm_s == 0.0 or warm_s < WARM_SHARE * (elapsed or 0.0)):
                rep = warm.request("rep")
                alive = rep is not None
                if not alive:
                    break
                reps += run.records("warm", [rep], run.seed)
                warm_s += rep["s"]
        finish = warm.request("finish") if alive else None
        if finish is not None:
            run.controls(finish)
            values["peak_rss_mb"] = finish["peak_rss_mb"]
    finally:
        warm.close()
    values.update(setup_s=median(setup), cli_s=median(cli))
    if reps:
        values["units_per_s"] = w.units / median(reps)
    notes = {"setup_s": f"median of {len(setup)} fresh processes",
             "cli_s": f"median of {len(cli)} fresh CLI invocations",
             "units_per_s": f"{w.unit}/s, median of {len(reps)} warm repetitions "
                            f"of {w.units} {w.unit}",
             "peak_rss_mb": "warm child, getrusage ru_maxrss"}
    return {"values": values, "notes": notes}


def span_times(spans: list, run_id: int) -> tuple[Counter, Counter]:
    """Inclusive and self seconds per span name for one traced repetition."""
    total, covered = Counter(), Counter()
    for span in spans:
        if span is not None and span[4] == run_id and span[3] >= 0:
            covered[span[3]] += span[5] - span[1]
    own = Counter()
    for idx, span in enumerate(spans):
        if span is None or span[4] != run_id:
            continue
        name, start, end = span[0], span[1], span[2]
        total[name] += end - start
        own[name] += end - start - covered[idx]
    return total, own


# per-layer time metrics taken from one span's inclusive time ("total") or
# its self time ("self"): the time not covered by traced children
SPAN_METRICS = {
    "model.sample_requests.s": ("total", "model.sample_requests"),
    "policies.decide.s": ("total", "policies.decide"),
    "policies.observe.s": ("total", "policies.observe"),
    "engine.build_delivery.s": ("total", "engine.build_delivery"),
    "engine.sample_placement.s": ("total", "engine.sample_placement"),
    "engine.decode.s": ("total", "engine.decode"),
    "bounds.oracle_rate_upper.s": ("total", "bounds.oracle_rate_upper"),
    "bounds.verify_bad_set_gap.s": ("total", "bounds.verify_bad_set_gap"),
    "harness.run_trial.s": ("total", "harness.run_trial"),
    "harness.trial_self_s": ("self", "harness.run_trial"),
    "harness.aggregate_s": ("self", "harness.run_experiment"),
    "harness.emit_csv.s": ("total", "harness.emit_csv"),
    "cli.parse_s": ("self", "cli.main"),
}

COUNT_METRICS = (
    "model.requests_drawn", "policies.switches", "engine.build_delivery.calls",
    "engine.coded_group_users", "engine.coded_messages", "engine.direct_sends",
    "engine.subpackets_sent", "engine.placements", "engine.decode.calls",
    "engine.decode_failures", "bounds.masks_checked",
)


def trace_layers(run: Run) -> dict:
    """Per-layer metrics from the import split and a traced run."""
    w = run.workload
    run.setup_times(1)  # warm-up, as in measure()
    split = run.setup_times(SPLIT_REPS, split=True)
    values = {key: median([m[key] for m in split])
              for key in ("setup.numpy_import_s", "setup.scipy_stats_import_s",
                          "setup.codedcache_import_s")}
    result = run.child("trace", w.name, str(run.seed), str(run.workdir))
    if result is None:
        return {"values": values, "ranking": [], "missing": []}
    run.records("trace warm-up", result["warmup"], DEFAULT_SEED)
    run.records("traced", result["traced"], run.seed)

    counts = [Counter(c) for c in result["counts"]]
    first = counts[0]
    for other in counts[1:]:
        if other != first:
            diff = sorted(k for k in first | other if first[k] != other[k])
            run.problems.append(f"engine counts differ between runs on one seed: {diff}")
    with open(result["spans_path"], encoding="utf-8") as fh:
        spans = json.load(fh)["spans"]
    per_run = [span_times(spans, r) for r in range(len(counts))]

    def mean_of(kind: str, name: str) -> float:
        idx = 0 if kind == "total" else 1
        return statistics.fmean(times[idx][name] for times in per_run)

    for metric, (kind, name) in SPAN_METRICS.items():
        values[metric] = mean_of(kind, name)
    for metric in COUNT_METRICS:
        values[metric] = first[metric]
    coded = first["engine.coded_subpackets"]
    values["engine.padding_ratio"] = first["engine.segment_subpackets"] / coded if coded else 0.0
    values["harness.csv_bytes"] = result["traced"][0]["bytes"] if w.sim else 0
    # What tracing adds to one traced repetition: each span's wrapper cost,
    # timed on a no-op, plus the time its counting hook took.  A traced minus
    # untraced wall time is smaller than the noise between repetitions.
    cost = result["wrapper_cost_s"]
    values["trace.overhead_s"] = statistics.fmean(
        sum(cost + span[5] - span[2] for span in spans if span is not None and span[4] == r)
        for r in range(len(counts)))
    values["trace.missing"] = len(result["missing"])
    names = {span[0] for span in spans if span is not None}
    ranking = sorted(((mean_of("self", n), n) for n in names), reverse=True)
    return {"values": values, "ranking": ranking, "missing": result["missing"]}


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 spec: dict) -> dict:
    workdir = OUT_DIR / workload.name
    workdir.mkdir(parents=True, exist_ok=True)
    run = Run(workload, seed, workdir)
    try:
        found = trace_layers(run) if trace else measure(run, seconds)
    finally:
        for leftover in ("warm.out", "trace.out", "cli.out", "serve.err"):
            (workdir / leftover).unlink(missing_ok=True)
    kind = "per_layer" if trace else "end_to_end"
    metrics = {m["name"]: {"value": found["values"].get(m["name"]), "unit": m["unit"]}
               for m in spec[kind]}
    return {"workload": workload.name, "seed": seed, "trace": trace, "run": run,
            "metrics": metrics, "found": found}


def report(res: dict) -> None:
    run: Run = res["run"]
    print(f"== {res['workload']} seed={res['seed']} trace={int(res['trace'])} "
          f"attempted={run.attempted} failed={run.failed} "
          f"error_rate={run.failed / max(run.attempted, 1):g}")
    notes = res["found"].get("notes", {})
    for name, m in res["metrics"].items():
        value = "n/a" if m["value"] is None else f"{m['value']:.6g}"
        print(f"  {name:30s} {value:>14s} {m['unit']:8s} {notes.get(name, '')}")
    if res["trace"]:
        print("  self time by span (mean of traced runs):")
        for seconds, name in res["found"]["ranking"]:
            print(f"    {name:30s} {seconds:10.4f} s")
        print(f"  trace.missing: {res['found']['missing'] or 'none'}")
    if run.control_results:
        print("  negative controls: " + " ".join(
            f"{name}={caught}" for name, caught in run.control_results.items()))
    for problem in run.problems:
        print(f"  PROBLEM {problem}")


def main(argv: list[str] | None = None) -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=seconds, choices=[seconds],
                        help="must equal run_seconds in BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "codedcache" / "__init__.py").is_file():
        print(f"error: no codedcache package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    if args.workload == "all":
        plan = [(name, trace) for name in WORKLOADS for trace in (False, True)]
    else:
        plan = [(args.workload, bool(args.trace))]
    print("machine: " + json.dumps(machine_facts()))
    results = []
    for name, trace in plan:
        res = run_workload(WORKLOADS[name], args.seed, seconds, trace, spec)
        report(res)
        results.append(res)

    runs = [res["run"] for res in results]
    single = len(results) == 1
    metrics = {(k if single else f"{res['workload']}/{k}"): v
               for res in results for k, v in res["metrics"].items()}
    summary = {
        "correct": all(not run.problems for run in runs),
        "attempted": sum(run.attempted for run in runs),
        "failed": sum(run.failed for run in runs),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] and not summary["failed"] else 1


if __name__ == "__main__":
    sys.exit(main())
