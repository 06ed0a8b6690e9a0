"""Work done inside one child process of the benchmark; see run.py.

    python child.py setup WORKLOAD SEED [split]
    python child.py serve WORKLOAD SEED WORKDIR
    python child.py trace WORKLOAD SEED WORKDIR

Each mode prints one JSON object as its last line of standard output;
``serve`` also answers each request line on stdin with one JSON line.
Output of the program under test is captured, never echoed.  Only the
standard library is imported at module level, so ``setup`` times the
package's own imports from a clean interpreter.
"""
from __future__ import annotations

import contextlib
import hashlib
import importlib
import inspect
import io
import json
import os
import resource
import sys
import time
from collections import Counter

from workloads import DEFAULT_SEED, WORKLOADS, Workload, decode_problem

CORRUPT_CONTROL_TRIALS = 200


def setup(workload: Workload, seed: int, split: bool) -> dict:
    """Time ``import codedcache`` plus building the workload's config.

    With ``split`` the imports of numpy and scipy.stats are forced first and
    timed on their own, so the rest is codedcache's own import time.
    """
    t0 = time.perf_counter()
    marks = {}
    if split:
        import numpy  # noqa: F401

        marks["setup.numpy_import_s"] = time.perf_counter() - t0
        t = time.perf_counter()
        import scipy.stats  # noqa: F401

        marks["setup.scipy_stats_import_s"] = time.perf_counter() - t
    t = time.perf_counter()
    import codedcache

    marks["setup.codedcache_import_s"] = time.perf_counter() - t
    workload.build_config(codedcache, seed)
    marks["setup_s"] = time.perf_counter() - t0
    return marks


def execute(cli, workload: Workload, seed: int, out: str) -> tuple[float, bytes, str | None]:
    """Run the workload's commands through ``cli.main``; returns (seconds, output, error)."""
    if os.path.exists(out):
        os.remove(out)
    captured = io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(captured):
            codes = [cli.main(argv) for argv in workload.commands(seed, out)]
    except (Exception, SystemExit) as err:  # a crash is a failed operation
        codes = [f"{type(err).__name__}: {err}"]
    elapsed = time.perf_counter() - start
    if any(code != 0 for code in codes):
        error = f"exit {codes}"
    output = workload.output(captured.getvalue(), out)
    if error is None:
        error = workload.check(output, seed)
    return elapsed, output, error


def negative_controls(cli, workload: Workload, golden: bytes, seed: int) -> dict:
    """Prove the output checks are live: each control must be caught."""
    flipped = bytearray(golden)
    flipped[len(flipped) // 2] ^= 0x01
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        cli.main(["verify-decode", "--trials", str(CORRUPT_CONTROL_TRIALS),
                  "--seed", str(seed), "--corrupt"])
    return {
        "flipped_byte_caught": workload.check(bytes(flipped), DEFAULT_SEED) is not None,
        "corrupt_decode_caught": decode_problem(captured.getvalue()) is not None,
    }


def _record(elapsed: float, output: bytes, error: str | None) -> dict:
    return {"s": elapsed, "bytes": len(output),
            "digest": hashlib.sha256(output).hexdigest(), "error": error}


def _send(message: dict) -> None:
    sys.stdout.write(json.dumps(message) + "\n")
    sys.stdout.flush()


def serve(workload: Workload, seed: int, workdir: str) -> dict:
    """Warm child: a warm-up on the default seed, then one timed repetition on
    ``seed`` per ``rep`` line read from stdin, until ``finish``."""
    from codedcache import cli

    out = os.path.join(workdir, "warm.out")
    elapsed, golden, error = execute(cli, workload, DEFAULT_SEED, out)
    _send(_record(elapsed, golden, error))
    for line in sys.stdin:
        if line.strip() != "rep":
            break
        _send(_record(*execute(cli, workload, seed, out)))
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"controls": negative_controls(cli, workload, golden, seed),
            "peak_rss_mb": peak_kib * 1024 / 1e6}


class Tracer:
    """Spans around the package's public entry points, patched from outside.

    Every entry point is looked up by its public name.  A name that no
    longer exists is listed in ``missing`` and its span is dropped.  A span
    is (name, start, end, parent index, run id, cover end); ``cover end``
    adds the time spent in the counting hook, so the parent's self time
    excludes it.  A call that raised leaves its span as None.  Hooks get the
    call's arguments as a thunk, bound by name only when a hook needs them.
    """

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: dict[int, Counter] = {}
        self.run = 0
        self.missing: list[str] = []
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        self.counts.setdefault(self.run, Counter())
        self.missing = []
        for span, module_name, path, hook in ENTRY_POINTS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.missing.append(f"{module_name}.{path}")
                continue
            *owners, attr = path.split(".")
            owner = module
            for part in owners:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.missing.append(f"{module_name}.{path}")
                continue
            if owners:
                original = owner.__dict__.get(attr, original)
                targets = [owner]
            else:
                targets = [m for name, m in list(sys.modules.items())
                           if name.split(".")[0] == "codedcache"
                           and vars(m).get(attr) is original]
            wrapper = self._wrap(span, original, hook)
            for target in targets:
                self._patches.append((target, attr, original))
                setattr(target, attr, wrapper)

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches = []

    def _wrap(self, name: str, fn, hook):
        spans, stack = self.spans, self.stack
        signature = inspect.signature(fn) if hook else None
        perf_counter = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = [name, start, end, parent, self.run, end]
            if hook is not None:
                hook(self.counts[self.run],
                     lambda: signature.bind(*args, **kwargs).arguments, result)
                spans[idx][5] = perf_counter()
            return result

        return traced


def _count_switches(counts, arguments, result) -> None:
    counts["policies.switches"] += sum(int(tr.switches.sum()) for tr in result.traces)


def _count_requests(counts, arguments, result) -> None:
    counts["model.requests_drawn"] += len(result)


def _count_placement(counts, arguments, result) -> None:
    counts["engine.placements"] += 1


def _count_delivery(counts, arguments, result) -> None:
    args = arguments()
    cached = {int(i) for i in args["cached"]}
    counts["engine.build_delivery.calls"] += 1
    counts["engine.coded_group_users"] += sum(int(r) in cached for r in args["profile"].requests)
    counts["engine.coded_messages"] += len(result.coded)
    counts["engine.direct_sends"] += len(result.direct)
    counts["engine.subpackets_sent"] += result.subpackets_sent
    counts["engine.segment_subpackets"] += sum(
        len(seg.indices) for msg in result.coded for seg in msg.segments)
    counts["engine.coded_subpackets"] += sum(msg.length for msg in result.coded)


def _count_decode(counts, arguments, result) -> None:
    counts["engine.decode.calls"] += 1
    counts["engine.decode_failures"] += not result


def _count_masks(counts, arguments, result) -> None:
    counts["bounds.masks_checked"] += 2 ** arguments()["params"].n_files - 1


# (span name, module, public attribute, counting hook)
ENTRY_POINTS = [
    ("cli.main", "codedcache.cli", "main", None),
    ("harness.run_experiment", "codedcache.harness", "run_experiment", None),
    ("harness.run_trial", "codedcache.harness", "run_trial", _count_switches),
    ("harness.emit_csv", "codedcache.harness", "emit_csv", None),
    ("model.sample_requests", "codedcache.model", "sample_requests", _count_requests),
    *[(f"policies.{method}", "codedcache.policies", f"{cls}.{method}", None)
      for cls in ("TrackingPolicy", "OraclePolicy", "UniformPolicy", "LfuPolicy")
      for method in ("decide", "observe")],
    ("engine.sample_placement", "codedcache.engine", "sample_placement", _count_placement),
    ("engine.build_delivery", "codedcache.engine", "build_delivery", _count_delivery),
    ("engine.decode", "codedcache.engine", "decode", _count_decode),
    ("engine.run_decode_fuzz", "codedcache.engine", "run_decode_fuzz", None),
    ("bounds.oracle_rate_upper", "codedcache.bounds", "oracle_rate_upper", None),
    ("bounds.regret_lower_bound", "codedcache.bounds", "regret_lower_bound", None),
    ("bounds.verify_bad_set_gap", "codedcache.bounds", "verify_bad_set_gap", _count_masks),
]

TRACED_REPS = 4  # traced repetitions; engine counts must agree across them
PROBE_CALLS = 20_000  # calls per timing of the wrapper-cost probe


def wrapper_cost() -> float:
    """Seconds a traced call adds to a plain call, hooks aside: the fastest of
    three timings of PROBE_CALLS calls to a wrapped and a bare no-op."""
    def noop():
        return None

    probe = Tracer()
    probe.counts[0] = Counter()
    wrapped = probe._wrap("probe", noop, None)
    best = {}
    for fn in (noop, wrapped) * 3:
        start = time.perf_counter()
        for _ in range(PROBE_CALLS):
            fn()
        best[fn] = min(best.get(fn, float("inf")), time.perf_counter() - start)
    return max(0.0, (best[wrapped] - best[noop]) / PROBE_CALLS)


def trace(workload: Workload, seed: int, workdir: str) -> dict:
    """Traced repetitions on ``seed`` after an untraced warm-up; spans go to a file."""
    from codedcache import cli

    out = os.path.join(workdir, "trace.out")
    warmup = [_record(*execute(cli, workload, DEFAULT_SEED, out))]
    tracer = Tracer()
    traced = []
    for run in range(TRACED_REPS):
        tracer.run = run
        tracer.install()
        try:
            traced.append(_record(*execute(cli, workload, seed, out)))
        finally:
            tracer.uninstall()
    spans_path = os.path.join(workdir, "spans.json")
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "run", "cover_end"],
                   "spans": tracer.spans}, fh)
    return {"warmup": warmup, "traced": traced, "wrapper_cost_s": wrapper_cost(),
            "counts": [dict(tracer.counts[r]) for r in range(TRACED_REPS)],
            "missing": tracer.missing, "spans_path": spans_path}


def main(argv: list[str]) -> int:
    mode, name, seed = argv[0], argv[1], int(argv[2])
    workload = WORKLOADS[name]
    if mode == "setup":
        result = setup(workload, seed, split=argv[3:] == ["split"])
    elif mode == "serve":
        result = serve(workload, seed, argv[3])
    elif mode == "trace":
        result = trace(workload, seed, argv[3])
    else:
        raise SystemExit(f"unknown mode {mode}")
    _send(result)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
