"""The package's public surface, pinned so that removing a name is deliberate,
and its private helpers, each of which the package itself must use."""
import ast
from pathlib import Path

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
