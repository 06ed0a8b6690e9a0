"""The package's public surface, pinned so that removing a name is deliberate;
its private helpers, each of which the package itself must use; and the
layers each entry point loads."""
import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import codedcache

PUBLIC_NAMES = [
    "CodedMessage",
    "DegenerateGapError",
    "DirectSend",
    "ExperimentConfig",
    "ExperimentResult",
    "FuzzResult",
    "GapVector",
    "LowerBoundReport",
    "PolicyAggregate",
    "PolicyTrace",
    "PopularityDistribution",
    "RegretBound",
    "RequestProfile",
    "Segment",
    "SwitchingConstants",
    "SystemParams",
    "Transmission",
    "TrialResult",
    "bad_set_gap",
    "bad_set_min_excess",
    "build_delivery",
    "decode",
    "emit_csv",
    "is_bad_set",
    "make_two_level_pair",
    "make_zipf",
    "mismatch_tail_chernoff",
    "mismatch_tail_dkw",
    "oracle_rate_upper",
    "pair_kl_per_slot",
    "pair_kl_total",
    "pair_oracle_rate",
    "popularity_from_counts",
    "rate_lower_bound",
    "read_counts_csv",
    "regret_lower_bound",
    "regret_lower_curve",
    "run_decode_fuzz",
    "run_experiment",
    "run_trial",
    "sample_placement",
    "sample_requests",
    "slot_rates",
    "substream",
    "switch_count_bound",
    "switch_event_tails",
    "switch_flags",
    "switching_constants",
    "threshold_gaps",
    "tracking_regret_bound",
    "verify_bad_set_gap",
]


def test_public_names_are_pinned_and_resolve():
    assert PUBLIC_NAMES == sorted(PUBLIC_NAMES)
    assert codedcache.__all__ == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(codedcache, name) is not None


def test_every_private_helper_is_used_by_the_package():
    # a module-level private function or class that only tests read belongs
    # in the tests; a name counts as used when a statement other than its
    # own definition, in any module, reads it
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(Path(codedcache.__file__).parent.glob("*.py"))}
    statements = [node for tree in trees.values() for node in tree.body]
    names = {id(node): set() for node in statements}
    for node in statements:
        for inner in ast.walk(node):
            if isinstance(inner, ast.Name):
                names[id(node)].add(inner.id)
            elif isinstance(inner, ast.Attribute):
                names[id(node)].add(inner.attr)
            elif isinstance(inner, ast.alias):
                names[id(node)].add(inner.name)
    unused = [
        f"{module}:{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_") and not node.name.endswith("__")
        and not any(node.name in names[id(other)] for other in statements if other is not node)
    ]
    assert unused == []


def test_public_names_resolve_to_their_home_objects():
    for name in codedcache.__all__:
        value = getattr(codedcache, name)
        assert value.__module__.startswith("codedcache.")
        assert getattr(sys.modules[value.__module__], name) is value
    assert set(codedcache.__all__) <= set(dir(codedcache))
    with pytest.raises(AttributeError, match="no_such_name"):
        codedcache.no_such_name


def loaded_layers(statements: str, tmp_path) -> tuple[list[str], bool]:
    """The package's submodules loaded after ``statements`` run in a fresh
    interpreter, and whether numpy was; ``OUT`` names a scratch CSV path."""
    probe = (
        f"OUT = {str(tmp_path / 'out.csv')!r}\n{statements}\nimport sys, json\n"
        "print(json.dumps([sorted(m.removeprefix('codedcache.') for m in sys.modules\n"
        "                         if m.startswith('codedcache.')), 'numpy' in sys.modules]))"
    )
    source = str(Path(codedcache.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": source},
        capture_output=True, text=True, check=True,
    )
    layers, numpy_loaded = json.loads(out.stdout.strip().splitlines()[-1])
    return layers, numpy_loaded


README_CONFIG = """
import codedcache as cc
cc.ExperimentConfig(params=cc.SystemParams(20, 10, 2), dist=cc.make_zipf(20, 1.0),
                    policies=("tracking", "uniform", "lfu"), horizon=2000, trials=200,
                    seed=1)
"""
SIMULATE = (
    "from codedcache import cli\n"
    "assert cli.main(['simulate', '--n', '20', '--k', '10', '--m', '4', '--f', '50',\n"
    "                 '--dist', 'zipf:1', '--policies', 'tracking,uniform,lfu',\n"
    "                 '--horizon', '20', '--trials', '2', '--out', OUT{}]) == 0"
)
ANALYTIC = {"harness", "model", "policies"}


@pytest.mark.parametrize("statements, layers", [
    ("import codedcache", set()),
    (README_CONFIG, ANALYTIC),
    (SIMULATE.format(""), ANALYTIC | {"cli"}),
    (SIMULATE.format(", '--rate-mode', 'bitlevel'"), ANALYTIC | {"cli", "engine"}),
    ("from codedcache import cli\n"
     "assert cli.main(['bounds', '--n', '10', '--k', '2', '--m', '3', '--dist', 'zipf:1']) == 0",
     ANALYTIC | {"cli", "bounds"}),
], ids=["bare-import", "readme-config", "analytic-simulate", "bitlevel-simulate", "bounds"])
def test_each_entry_point_loads_only_its_layers(tmp_path, statements, layers):
    # an analytic run never loads the bit-level engine or the bounds, and the
    # bare package import loads no layer and not numpy
    loaded, numpy_loaded = loaded_layers(statements, tmp_path)
    assert set(loaded) == layers
    assert numpy_loaded == bool(layers)


def test_layers_resolve_after_a_bare_package_import(tmp_path):
    statements = (
        "import codedcache\n"
        "assert codedcache.engine.__name__ == 'codedcache.engine'\n"
        "from codedcache import cli\n"
        "assert cli is codedcache.cli and callable(cli.main)"
    )
    loaded, _ = loaded_layers(statements, tmp_path)
    assert set(loaded) == {"cli", "engine", "harness", "model", "policies"}
