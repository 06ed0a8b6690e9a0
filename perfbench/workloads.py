"""The benchmark's workloads and the checks on their outputs.

Each workload is a list of ``codedcache`` CLI invocations.  The same argv
runs as fresh ``python -m codedcache.cli`` processes (``cli_s``) and
in-process through ``codedcache.cli.main`` (warm throughput, traced run),
so both paths produce byte-comparable output.  This module imports only
the standard library: the set-up probe must not pull numpy in before it
starts its clock.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

# The README runs with --seed 1; golden digests are recorded for that seed.
DEFAULT_SEED = 1

# bitlevel (T=50, one trial) and verify (2000 fuzz trials) are sized so a
# run of run_seconds holds four or more rounds on a two-core host; see
# run.py measure()
VERIFY_TRIALS = 2000
# lowerbound instance of the verify workload: n, k, m, a, b
LOWERBOUND = (16, 5, 4, 24, 48)

CSV_HEADER = "t,policy,mean_rate,mean_cum_regret,stderr_cum_regret,mean_switches"


@dataclass(frozen=True)
class Simulate:
    """One ``simulate`` invocation; fields mirror the CLI flags."""

    n: int
    k: int
    m: float
    dist: str
    policies: tuple[str, ...]
    horizon: int
    trials: int
    f: int = 1000
    rate_mode: str = "analytic"

    def argv(self, seed: int, out: str) -> list[str]:
        argv = [
            "simulate", "--n", str(self.n), "--k", str(self.k), "--m", f"{self.m:g}",
            "--dist", self.dist, "--policies", ",".join(self.policies),
            "--horizon", str(self.horizon), "--trials", str(self.trials),
            "--seed", str(seed), "--out", out,
        ]
        # flags left at the CLI default are omitted, so `readme` is the
        # README command as written
        if self.f != 1000:
            argv += ["--f", str(self.f)]
        if self.rate_mode != "analytic":
            argv += ["--rate-mode", self.rate_mode]
        return argv


@dataclass(frozen=True)
class Workload:
    name: str
    unit: str
    golden_sha256: str
    sim: Simulate | None = None

    @property
    def units(self) -> int:
        """Work done by one execution: policy-slots, or fuzz round trips."""
        if self.sim is None:
            return VERIFY_TRIALS
        return self.sim.trials * self.sim.horizon * len(self.sim.policies)

    def commands(self, seed: int, out: str) -> list[list[str]]:
        if self.sim is not None:
            return [self.sim.argv(seed, out)]
        n, k, m, a, b = LOWERBOUND
        return [
            ["verify-decode", "--trials", str(VERIFY_TRIALS), "--seed", str(seed)],
            ["lowerbound", "--n", str(n), "--k", str(k), "--m", str(m),
             "--a", str(a), "--b", str(b), "--verify"],
        ]

    def output(self, stdout: str, out: str) -> bytes:
        """What one execution produced: the CSV file, or the printed report."""
        if self.sim is None:
            return stdout.encode("utf-8")
        try:
            with open(out, "rb") as fh:
                return fh.read()
        except FileNotFoundError:
            return b""

    def build_config(self, cc, seed: int):
        """The workload's configuration, built through the public API of ``cc``."""
        if self.sim is None:
            n, k, m, a, b = LOWERBOUND
            return cc.SystemParams(n, k, m), cc.make_two_level_pair(n, a, b)
        s = self.sim
        return cc.ExperimentConfig(
            params=cc.SystemParams(s.n, s.k, s.m, s.f),
            dist=cc.make_zipf(s.n, float(s.dist.removeprefix("zipf:"))),
            policies=s.policies,
            horizon=s.horizon,
            trials=s.trials,
            seed=seed,
            rate_mode=s.rate_mode,
            dist_label=s.dist,
        )

    def check(self, output: bytes, seed: int) -> str | None:
        """None when ``output`` is a correct result for ``seed``, else the reason."""
        problem = self._check_sim(output) if self.sim else _check_verify(output)
        if problem is None and seed == DEFAULT_SEED:
            digest = hashlib.sha256(output).hexdigest()
            if digest != self.golden_sha256:
                problem = f"sha256 {digest[:12]} differs from golden {self.golden_sha256[:12]}"
        return problem

    def _check_sim(self, output: bytes) -> str | None:
        try:
            lines = output.decode("utf-8").splitlines()
        except UnicodeDecodeError:
            return "CSV is not UTF-8"
        if len(lines) < 2 or not lines[0].startswith("# config: ") or lines[1] != CSV_HEADER:
            return "CSV preamble or header missing"
        rows = lines[2:]
        policies = self.sim.policies
        if len(rows) != self.sim.horizon * len(policies):
            return f"CSV has {len(rows)} rows, expected {self.sim.horizon * len(policies)}"
        for i, row in enumerate(rows):
            fields = row.split(",")
            if len(fields) != 6 or fields[0] != str(i // len(policies) + 1) \
                    or fields[1] != policies[i % len(policies)]:
                return f"CSV row {i + 3} malformed"
            try:
                values = [float(x) for x in fields[2:]]
            except ValueError:
                return f"CSV row {i + 3} not numeric"
            if not all(math.isfinite(v) for v in values):
                return f"CSV row {i + 3} not finite"
        return None


def _fields(text: str) -> dict[str, str]:
    return dict(tok.split("=", 1) for tok in text.split() if "=" in tok)


def decode_problem(text: str) -> str | None:
    """The check on a ``verify-decode`` report: any decode failure is an error."""
    failures = _fields(text).get("failures")
    if failures != "0":
        return f"verify-decode reported failures={failures}"
    return None


def _check_verify(output: bytes) -> str | None:
    text = output.decode("utf-8", errors="replace")
    fields = _fields(text)
    problem = decode_problem(text)
    if problem is None and fields.get("decode") != "PASS":
        problem = "verify-decode did not PASS"
    if problem is None and fields.get("trials") != str(VERIFY_TRIALS):
        problem = "verify-decode did not report its trials"
    if problem is None and fields.get("verify") != "PASS":
        problem = "lowerbound verify did not PASS"
    return problem


# Why each workload is in the benchmark is recorded in BENCHMARK.json.  The
# `verify` workload (decode fuzzer and exhaustive bounds check) runs by name
# and in `--workload all` but is not listed there: its pure-Python decode peel
# swings with host load more than the listed bounds allow.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "readme",
            "policy-slots",
            "bcc78baad3c47f4c191daa65ff336bce740bd4ce35cd2c100aab98903d7cecfe",
            Simulate(20, 10, 2, "zipf:1", ("tracking", "uniform", "lfu"), 2000, 200),
        ),
        Workload(
            "wide",
            "policy-slots",
            "559ce1da4c4fbf1546fed3b0fd29f55a4d068c8628f29ac5ed7240293d32a770",
            Simulate(1000, 100, 20, "zipf:0.8",
                     ("tracking", "oracle", "uniform", "lfu"), 10_000, 2),
        ),
        Workload(
            "bitlevel",
            "policy-slots",
            "019d068be63b0f2457bbb26dfca034a77c8a53170a2f479c25bf64620e09eeb7",
            Simulate(20, 10, 4, "zipf:1", ("tracking", "oracle", "uniform", "lfu"),
                     50, 1, f=200, rate_mode="bitlevel"),
        ),
        Workload(
            "verify",
            "round-trips",
            "a84e749c276ac82e1544c390ec430b58f0a8558b99df9c77e30be3c766f01f55",
        ),
    )
}
