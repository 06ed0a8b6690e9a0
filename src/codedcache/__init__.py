"""Coded-caching simulation and analysis under unknown file popularity.

The package splits into five layers: ``model`` (parameters, popularity
profiles, the caching threshold, the analytic slot rate, request
sampling), ``policies`` (each policy's decision rule, walked block by
block over a request history), ``harness`` (seeded Monte Carlo
experiments that charge each slot's rate, with CSV output), ``engine``
(bit-level subpacket placement, coded delivery and decoding), and
``bounds`` (closed-form regret, switching, and minimax results).  ``cli``
wires everything to a console script of the same name.

Each public name, and each layer, is imported on its first use (PEP 562),
so ``import codedcache`` loads no layer, and a caller loads only the
layers it reaches: an analytic experiment never loads ``engine`` or
``bounds``.
"""
import importlib

__version__ = "0.1.0"

# the layer that defines each public name
_HOME = {
    "CodedMessage": "engine",
    "DegenerateGapError": "bounds",
    "DirectSend": "engine",
    "ExperimentConfig": "harness",
    "ExperimentResult": "harness",
    "FuzzResult": "engine",
    "GapVector": "bounds",
    "LowerBoundReport": "bounds",
    "PolicyAggregate": "harness",
    "PolicyTrace": "harness",
    "PopularityDistribution": "model",
    "RegretBound": "bounds",
    "RequestProfile": "model",
    "Segment": "engine",
    "SwitchingConstants": "bounds",
    "SystemParams": "model",
    "Transmission": "engine",
    "TrialResult": "harness",
    "bad_set_gap": "bounds",
    "bad_set_min_excess": "bounds",
    "build_delivery": "engine",
    "decode": "engine",
    "emit_csv": "harness",
    "is_bad_set": "bounds",
    "make_two_level_pair": "model",
    "make_zipf": "model",
    "mismatch_tail_chernoff": "bounds",
    "mismatch_tail_dkw": "bounds",
    "oracle_rate_upper": "model",
    "pair_kl_per_slot": "bounds",
    "pair_kl_total": "bounds",
    "pair_oracle_rate": "bounds",
    "popularity_from_counts": "model",
    "rate_lower_bound": "bounds",
    "read_counts_csv": "model",
    "regret_lower_bound": "bounds",
    "regret_lower_curve": "bounds",
    "run_decode_fuzz": "engine",
    "run_experiment": "harness",
    "run_trial": "harness",
    "sample_placement": "engine",
    "sample_requests": "model",
    "slot_rates": "model",
    "substream": "model",
    "switch_count_bound": "bounds",
    "switch_event_tails": "bounds",
    "switch_flags": "policies",
    "switching_constants": "bounds",
    "threshold_gaps": "bounds",
    "tracking_regret_bound": "bounds",
    "verify_bad_set_gap": "bounds",
}

__all__ = sorted(_HOME)

_LAYERS = ("bounds", "cli", "engine", "harness", "model", "policies")


def __getattr__(name: str):
    """Import a layer, or a public name's layer, on first use.  A public
    name is then stored in the package, so later reads skip this hook."""
    if name in _LAYERS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
