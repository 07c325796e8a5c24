"""Decoded-trace columns: every derived column must agree with the
scalar helper it replaces, and the replayed state machines must land in
the same final state as an event-by-event live run."""

from __future__ import annotations

import numpy as np
import pytest

from repro.branch.address import hash_pc, same_page
from repro.branch.direction import TageLitePredictor
from repro.branch.types import BranchKind
from repro.frontend.icache import ICache
from repro.workloads.suite import get_trace

TRACE_APP = "server_oltp_00"


@pytest.fixture(scope="module")
def trace():
    return get_trace(TRACE_APP, "tiny")


@pytest.fixture(scope="module")
def decoded(trace):
    return trace.decoded()


def test_decoded_is_cached_on_the_trace(trace):
    assert trace.decoded() is trace.decoded()


def test_block_instructions_is_gap_plus_one(trace, decoded):
    assert decoded.n_events == len(trace)
    instructions = decoded.vector_columns()["instructions"]
    assert instructions.tolist() == [gap + 1 for gap in trace.gaps]


def test_hashes_match_scalar_hash_pc(trace, decoded):
    # Spot-check across the column; the vectorised mix64 must agree
    # with the scalar helper, including uint64 wrap-around.
    for index in range(0, len(trace), max(1, len(trace) // 257)):
        assert decoded.hashes[index] == hash_pc(trace.pcs[index])


def test_same_page_matches_scalar_helper(trace, decoded):
    assert decoded.same_page == [
        same_page(pc, target) for pc, target in zip(trace.pcs, trace.targets)
    ]


def test_kind_property_columns(trace, decoded):
    kinds = [BranchKind(value) for value in trace.kinds]
    assert decoded.vector_columns()["is_call"].tolist() == [
        kind.is_call for kind in kinds
    ]
    assert decoded.is_indirect == [kind.is_indirect for kind in kinds]


def test_supply_demand_arrays_are_exact_multiples(decoded):
    supply, demand = decoded.supply_demand_arrays(10, 16)
    instructions = decoded.vector_columns()["instructions"].tolist()
    assert supply.tolist() == [count * 10 for count in instructions]
    assert demand.tolist() == [count * 16 for count in instructions]
    assert supply.dtype == np.int64 and demand.dtype == np.int64
    assert decoded.supply_demand_arrays(10, 16) is decoded.supply_demand_arrays(10, 16)
    assert decoded.supply_demand_arrays(5, 16)[0].tolist() != supply.tolist()


def test_icache_misses_match_live_replay(trace, decoded):
    misses, final = decoded.icache_misses(32, 64, 8)
    live = ICache(32, 64, 8)
    expected = []
    for pc, gap in zip(trace.pcs, trace.gaps):
        start = pc - gap * 4
        expected.append(live.touch_range(start, pc))
    assert misses == expected
    assert final.accesses == live.accesses
    assert final.misses == live.misses
    assert final._lines == live._lines
    # The memoised cache state must be adopted by *clone*, never shared.
    adopted = final.clone()
    adopted.touch_range(0x9999_0000, 0x9999_0040)
    assert final.accesses == live.accesses


def test_direction_outcomes_match_live_predictor(trace, decoded):
    outcomes, final = decoded.direction_outcomes("tage-default")
    live = TageLitePredictor()
    cond = int(BranchKind.COND_DIRECT)
    expected = [True] * len(trace)
    for index, kind in enumerate(trace.kinds):
        if kind == cond:
            taken = trace.takens[index]
            predicted = live.predict(trace.pcs[index])
            live.update(trace.pcs[index], taken)
            expected[index] = predicted == taken
    assert outcomes == expected
    assert final._history == live._history
    assert final._rng_state == live._rng_state


def test_unknown_direction_signature_raises(decoded):
    with pytest.raises(ValueError):
        decoded.direction_outcomes("perceptron-v2")


def test_predictor_clone_is_independent():
    predictor = TageLitePredictor()
    for pc in range(0x1000, 0x1400, 4):
        predictor.update(pc, pc % 3 == 0)
    twin = predictor.clone()
    assert twin._history == predictor._history
    assert twin._rng_state == predictor._rng_state
    twin.update(0x2000, True)
    assert twin._history != predictor._history
