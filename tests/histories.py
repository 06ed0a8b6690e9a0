"""Test helpers that hold a trial's whole request history in memory.

The package streams a history: a trial draws it in chunks and feeds each
chunk to a ``DecisionWalk`` per policy and to the policy's record.  These
helpers run the same objects over the whole history at once, so a test can
compare a trial with the (horizon, n_files) decision matrix.
"""
import numpy as np

from codedcache.harness import _PolicyRecord, _request_chunks
from codedcache.model import slot_rates
from codedcache.policies import DecisionWalk, block_rows


def draw_requests(config, trial):
    """The trial's (horizon, n_users) requests: its chunks, joined."""
    return np.concatenate(list(_request_chunks(config, trial)))


def decision_blocks(policy, requests, probs, params):
    """The factored blocks of a walk handed all the requests it has not decided."""
    walk = DecisionWalk(policy, probs, params, len(requests))
    while walk.start < len(requests):
        yield walk.step(requests[walk.start :])


def block_matrix(fixed, varying, part):
    """A factored block as its (rows, n_files) bool rows."""
    rows = np.tile(fixed, (len(part), 1))
    rows[:, varying] = part
    return rows


def decision_matrix(policy, requests, probs, params):
    """The (horizon, n_files) bool rows of every block, in order."""
    blocks = decision_blocks(policy, requests, probs, params)
    return np.concatenate([block_matrix(*block[1:]) for block in blocks])


def policy_record(config, policy, trial, requests):
    """``(rates, sizes, switches)`` of a record fed the whole history at once."""
    record = _PolicyRecord(config, policy, trial)
    record.feed(requests)
    return record.rates, record.sizes, record.switches


def sliced_rates(config, policy, requests):
    """``slot_rates`` of the decision matrix, one ``block_rows`` slice at a time."""
    probs, params = config.dist.probs, config.params
    whole, step = decision_matrix(policy, requests, probs, params), block_rows(params.n_files)
    return np.concatenate([slot_rates(whole[lo : lo + step], probs, params)
                           for lo in range(0, len(whole), step)])
