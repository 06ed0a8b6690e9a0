"""The package's public surface, pinned so that removing a name is deliberate."""
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
    "decision_matrix",
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
