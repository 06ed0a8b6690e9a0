"""The benchmark's seed-1 CSVs, byte for byte.

The workloads and their golden sha256 digests are read from
``perfbench/workloads.py`` by file path, so the benchmark's own record is
the one checked.  ``wide`` is left out: its oracle regret rounds
differently on other BLAS kernels, so its digest holds only on the host
where it was recorded.
"""
import hashlib
import importlib.util
import sys
from pathlib import Path

import pytest

from codedcache import cli

WORKLOADS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def load_workloads(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while it loads, and
    # no bytecode cache is left in the benchmark's directory
    monkeypatch.setitem(sys.modules, spec.name, module)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["readme", "bitlevel"])
def test_seed_one_csv_matches_the_golden_digest(monkeypatch, tmp_path, name):
    workloads = load_workloads(monkeypatch)
    workload = workloads.WORKLOADS[name]
    out = tmp_path / f"{name}.csv"
    (argv,) = workload.commands(workloads.DEFAULT_SEED, str(out))
    assert cli.main(argv) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == workload.golden_sha256
