"""The vector engine is an *optimisation*, not a model change: for
every design it must reproduce the frozen seed engine's FrontendStats
exactly (``to_dict()`` equality -- bit-identical floats, not
approximate), and it must engage exactly when its gate says it can.
The general engine is held to the same referee.
"""

from __future__ import annotations

import pytest

from repro.branch.types import BranchKind
from repro.checks.sanitizer import Sanitizer, use_sanitizer
from repro.experiments.designs import (
    design_registry,
    pdede_design,
    standard_designs,
    two_level_design,
    with_ittage,
    with_perfect_direction,
    with_returns_in_btb,
)
from repro.frontend.seedref import SeedFrontendSimulator, seed_counterpart
from repro.frontend.simulator import FrontendSimulator
from repro.workloads.suite import get_trace

TRACE_SCALE = "tiny"
TRACE_APP = "server_oltp_00"


def _designs():
    designs = dict(standard_designs())
    pdede = designs["pdede-multi-entry"]
    designs["pdede+perfect-direction"] = with_perfect_direction(pdede)
    designs["pdede+returns-in-btb"] = with_returns_in_btb(pdede)
    designs["twolevel-pdede"] = two_level_design(512, pdede_design())
    return designs


def _run_both(design, trace, engine="auto"):
    btb, kwargs = design.build()
    simulator = FrontendSimulator(btb, engine=engine, **kwargs)
    stats = simulator.run(trace, warmup_fraction=0.3)
    seed_btb, seed_kwargs = design.build()
    reference = SeedFrontendSimulator(seed_counterpart(seed_btb), **seed_kwargs)
    seed_stats = reference.run(trace, warmup_fraction=0.3)
    return simulator, stats, seed_stats


@pytest.mark.parametrize("engine", ["vector", "general"])
@pytest.mark.parametrize("key", sorted(_designs()))
def test_decoded_engines_match_seed_exactly(key, engine):
    trace = get_trace(TRACE_APP, TRACE_SCALE)
    simulator, stats, seed_stats = _run_both(_designs()[key], trace, engine=engine)
    assert simulator.last_engine == engine
    assert stats.to_dict() == seed_stats.to_dict()


@pytest.mark.parametrize("key", sorted(_designs()))
def test_auto_prefers_vector_engine(key):
    trace = get_trace(TRACE_APP, TRACE_SCALE)
    simulator, stats, seed_stats = _run_both(_designs()[key], trace)
    assert simulator.last_engine == "vector"
    assert stats.to_dict() == seed_stats.to_dict()


#: The engine ``engine="auto"`` picks for every registered design: the
#: flat-storage Baseline/PDede geometries take the vector engine's
#: struct-of-arrays kernel pass, every other design its scalar BTB pass.
AUTO_ENGINE_BY_DESIGN = {
    "baseline": "vector",
    "baseline-6144": "vector",
    "baseline-8192": "vector",
    "pdede-default": "vector",
    "pdede-multi-target": "vector",
    "pdede-multi-entry": "vector",
    "partition-only": "vector",
    "dedup-only": "vector",
    "shotgun": "vector",
    "micro-btb": "vector",
    "shadow-baseline": "vector",
    "shadow-pdede": "vector",
}


def test_auto_engine_table_covers_the_registry():
    assert set(AUTO_ENGINE_BY_DESIGN) == set(design_registry())


@pytest.mark.parametrize("key", sorted(AUTO_ENGINE_BY_DESIGN))
def test_auto_engine_resolution_per_registered_design(key):
    trace = get_trace(TRACE_APP, TRACE_SCALE)
    btb, kwargs = design_registry()[key].build()
    simulator = FrontendSimulator(btb, **kwargs)
    stats = simulator.run(trace, warmup_fraction=0.3)
    assert simulator.last_engine == AUTO_ENGINE_BY_DESIGN[key]
    assert stats.engine == AUTO_ENGINE_BY_DESIGN[key]


def test_ittage_falls_back_to_general_engine_and_still_matches():
    trace = get_trace(TRACE_APP, TRACE_SCALE)
    design = with_ittage(standard_designs()["pdede-default"])
    simulator, stats, seed_stats = _run_both(design, trace)
    assert simulator.last_engine == "general"
    assert stats.to_dict() == seed_stats.to_dict()


def test_warmup_zero_matches_seed():
    # warmup_fraction=0 hits the seed's warm_limit==0 quirk: stats are
    # never reset, so the vector engine must not reset them either.
    trace = get_trace(TRACE_APP, TRACE_SCALE)
    design = standard_designs()["pdede-default"]
    btb, kwargs = design.build()
    simulator = FrontendSimulator(btb, **kwargs)
    stats = simulator.run(trace, warmup_fraction=0.0)
    seed_btb, seed_kwargs = design.build()
    seed_stats = SeedFrontendSimulator(seed_counterpart(seed_btb), **seed_kwargs).run(
        trace, warmup_fraction=0.0
    )
    assert simulator.last_engine == "vector"
    assert stats.to_dict() == seed_stats.to_dict()


def test_second_run_uses_general_engine():
    # A reused simulator carries state from the first run; the vector
    # engine's replay assumptions only hold from a pristine start.
    trace = get_trace(TRACE_APP, TRACE_SCALE)
    btb, kwargs = standard_designs()["baseline"].build()
    simulator = FrontendSimulator(btb, **kwargs)
    simulator.run(trace, warmup_fraction=0.3)
    assert simulator.last_engine == "vector"
    simulator.run(trace, warmup_fraction=0.3)
    assert simulator.last_engine == "general"


def test_armed_sanitizer_forces_general_engine():
    # The BTB fast hooks the vector engine replays skip sanitizer_step
    # (they are gated on the sanitizer being off); an armed sanitizer
    # must see the full loop.
    trace = get_trace(TRACE_APP, TRACE_SCALE)
    btb, kwargs = standard_designs()["pdede-default"].build()
    simulator = FrontendSimulator(btb, **kwargs)
    with use_sanitizer(Sanitizer(interval=1 << 20)):
        simulator.run(trace, warmup_fraction=0.3)
    assert simulator.last_engine == "general"


def test_post_run_state_matches_live_objects():
    # The vector engine adopts clones of the shared replay state; the
    # post-run icache/direction must look exactly like a live run's.
    trace = get_trace(TRACE_APP, TRACE_SCALE)
    design = standard_designs()["pdede-default"]
    btb, kwargs = design.build()
    vector = FrontendSimulator(btb, **kwargs)
    vector.run(trace, warmup_fraction=0.3)
    seed_btb, seed_kwargs = design.build()
    general = SeedFrontendSimulator(seed_counterpart(seed_btb), **seed_kwargs)
    general.run(trace, warmup_fraction=0.3)
    assert vector.icache.accesses == general.icache.accesses
    assert vector.icache.misses == general.icache.misses
    assert vector.icache._lines == general.icache._lines
    assert vector.direction._history == general.direction._history
    assert vector.direction._rng_state == general.direction._rng_state


def test_btb_metrics_match_between_engines():
    trace = get_trace(TRACE_APP, TRACE_SCALE)
    for key, design in standard_designs().items():
        btb, kwargs = design.build()
        simulator = FrontendSimulator(btb, **kwargs)
        simulator.run(trace, warmup_fraction=0.3)
        seed_btb, seed_kwargs = design.build()
        reference = SeedFrontendSimulator(seed_counterpart(seed_btb), **seed_kwargs)
        reference.run(trace, warmup_fraction=0.3)
        live = btb.stats
        seed = reference.btb.stats
        assert (live.lookups, live.hits, live.misses, live.updates) == (
            seed.lookups, seed.hits, seed.misses, seed.updates
        ), key
        assert live.misses_by_kind == seed.misses_by_kind, key


# -- differential fuzzing ----------------------------------------------------
#
# The parametrised tests above lock the engines together on the suite's
# traces; the fuzz sweep locks them together on *arbitrary* workloads.
# Every spec is derived from a seed (no global RNG, no nondeterminism),
# so a failure reproduces exactly; on divergence the failing workload is
# shrunk to a short prefix and the spec + prefix land in the assertion
# message, ready to paste into a regression test.

import random

from repro.workloads.generator import generate_trace
from repro.workloads.spec import WorkloadSpec

N_FUZZ_SWEEPS = 8
_FUZZ_WARMUP = 0.25


def _fuzz_spec(seed: int) -> WorkloadSpec:
    rng = random.Random(seed)
    return WorkloadSpec(
        name=f"fuzz_{seed:04d}",
        category="fuzz",
        seed=rng.randrange(1 << 30),
        n_events=rng.randrange(1500, 3500),
        n_functions=rng.choice([150, 400, 900]),
        blocks_per_fn_mean=rng.choice([4.0, 9.0, 14.0]),
        block_instrs_mean=rng.choice([3.0, 5.0, 8.0]),
        n_regions=rng.randrange(3, 6),
        functions_per_page_mean=rng.choice([1.5, 4.5, 8.0]),
        loop_fraction=rng.choice([0.1, 0.25, 0.4]),
        mean_trip_count=rng.choice([2.0, 7.0, 20.0]),
        cond_taken_bias=rng.uniform(0.2, 0.8),
        never_taken_fraction=rng.uniform(0.1, 0.6),
        indirect_fanout=rng.randrange(1, 9),
        n_phases=rng.randrange(1, 7),
        hot_functions_per_phase=rng.randrange(4, 40),
        zipf_s=rng.uniform(0.8, 1.6),
        sweep_fraction=rng.uniform(0.0, 0.3),
        max_call_depth=rng.randrange(4, 20),
    )


def _fuzz_design(seed: int):
    rng = random.Random(seed * 2654435761 % (1 << 31))
    designs = dict(standard_designs())
    designs["twolevel-pdede"] = two_level_design(512, pdede_design())
    designs["pdede+perfect-direction"] = with_perfect_direction(
        designs["pdede-multi-entry"]
    )
    # with_ittage forces the general engine, so the sweep exercises the
    # vector *and* the general path against the seed referee.
    designs["pdede+ittage"] = with_ittage(designs["pdede-default"])
    key = rng.choice(sorted(designs))
    return key, designs[key]


def _diff_fields(design, trace, engine="auto") -> dict:
    """Field-by-field diff of one engine tier vs seed stats ({} if equal)."""
    btb, kwargs = design.build()
    live = FrontendSimulator(btb, engine=engine, **kwargs).run(
        trace, warmup_fraction=_FUZZ_WARMUP
    )
    seed_btb, seed_kwargs = design.build()
    ref = SeedFrontendSimulator(seed_counterpart(seed_btb), **seed_kwargs).run(
        trace, warmup_fraction=_FUZZ_WARMUP
    )
    live_dict, ref_dict = live.to_dict(), ref.to_dict()
    return {
        field: (live_dict[field], ref_dict[field])
        for field in sorted(live_dict.keys() | ref_dict.keys())
        if live_dict.get(field) != ref_dict.get(field)
    }


def _shrink_prefix(design, spec, failing_length: int, engine="auto") -> int:
    """Binary-search a short failing prefix of the workload.

    Divergence is not guaranteed monotone in the prefix length, so this
    finds *a* small failing prefix rather than the minimum -- which is
    all a reproduction snippet needs.
    """
    low, high = 1, failing_length
    while low < high:
        mid = (low + high) // 2
        prefix = generate_trace(spec)
        prefix.truncate(mid)
        if _diff_fields(design, prefix, engine=engine):
            high = mid
        else:
            low = mid + 1
    return low


@pytest.mark.parametrize("fuzz_seed", range(N_FUZZ_SWEEPS))
def test_differential_fuzz_engines_agree(fuzz_seed):
    # "auto" resolves to the best applicable engine (vector for most
    # designs, general for ittage); the explicit "general" pass keeps
    # the per-event engine under differential pressure on every design,
    # so each seed drives both live engines against the referee.
    spec = _fuzz_spec(fuzz_seed)
    design_key, design = _fuzz_design(fuzz_seed)
    trace = generate_trace(spec)
    for engine in ("auto", "general"):
        diff = _diff_fields(design, trace, engine=engine)
        if diff:
            shrunk = _shrink_prefix(design, spec, len(trace), engine=engine)
            raise AssertionError(
                f"engines diverge on fuzz seed {fuzz_seed} "
                f"(design {design_key!r}, engine {engine!r}, {len(trace)} "
                f"events; shrunk to first {shrunk} events).\n"
                f"Reproduce with: generate_trace({spec!r}).truncate({shrunk})\n"
                "Differing fields (live vs seed): "
                + ", ".join(f"{k}: {a!r} != {b!r}" for k, (a, b) in diff.items())
            )


def test_fuzz_sweep_is_deterministic():
    # The whole sweep must be derivable from seeds alone: same spec
    # object, same trace bytes, both times.
    spec_a, spec_b = _fuzz_spec(3), _fuzz_spec(3)
    assert spec_a == spec_b
    trace_a, trace_b = generate_trace(spec_a), generate_trace(spec_b)
    assert trace_a.pcs == trace_b.pcs
    assert trace_a.targets == trace_b.targets
    assert _fuzz_design(5)[0] == _fuzz_design(5)[0]


# -- designs without struct-of-arrays kernels --------------------------------
#
# MicroBTB and ShadowBTB have no struct-of-arrays kernels (like GhrpBTB,
# vector_supported rejects them): victim-fill/promotion and fetch-line
# exposure are invisible to the kernel pass.  The vector engine runs them
# through its scalar BTB pass (the design's own lookup/update per event),
# and both live engines must still match the frozen seed referee exactly.

from repro.btb.vectorops import vector_supported
from repro.experiments.designs import (
    baseline_design,
    ghrp_design,
    micro_btb_design,
    multitag_design,
    shadow_design,
    with_temporal_prefetch,
)
from repro.frontend.stats import FrontendStats


def _literature_designs():
    return {
        "micro-btb": micro_btb_design(),
        "shadow-baseline": shadow_design("baseline"),
        "shadow-pdede": shadow_design("pdede"),
    }


@pytest.mark.parametrize("key", sorted(_literature_designs()))
def test_literature_families_fall_back_to_general_and_match_seed(key):
    """``auto`` now resolves to the vector engine's scalar pass; a forced
    ``general`` run keeps the fallback engine under the referee too."""
    trace = get_trace(TRACE_APP, TRACE_SCALE)
    design = _literature_designs()[key]
    for engine, expected in (("auto", "vector"), ("general", "general")):
        simulator, stats, seed_stats = _run_both(design, trace, engine=engine)
        assert simulator.last_engine == expected
        assert stats.to_dict() == seed_stats.to_dict(), engine


def _kernelless_designs():
    # A 256-entry GHRP BTB is under capacity pressure on the tiny trace,
    # so its dead-entry replacement diverges from plain LRU baseline.
    return {
        **_literature_designs(),
        "ghrp-256": ghrp_design(entries=256),
        "multitag": multitag_design(),
        "baseline+prefetch": with_temporal_prefetch(baseline_design()),
    }


@pytest.mark.parametrize("key", sorted(_kernelless_designs()))
def test_kernelless_designs_forced_vector_match_seed(key):
    trace = get_trace(TRACE_APP, TRACE_SCALE)
    design = _kernelless_designs()[key]
    btb, _ = design.build()
    assert not vector_supported(btb)
    simulator, stats, seed_stats = _run_both(design, trace, engine="vector")
    assert simulator.last_engine == "vector"
    assert stats.to_dict() == seed_stats.to_dict()


def test_seed_counterpart_passes_subclasses_through():
    # GhrpBTB subclasses BaselineBTB but replaces its replacement policy;
    # refereeing it with the frozen plain baseline would compare against
    # LRU behaviour.  Under capacity pressure the two really differ.
    trace = get_trace(TRACE_APP, TRACE_SCALE)
    design = ghrp_design(entries=256)
    simulator, stats, seed_stats = _run_both(design, trace, engine="general")
    assert stats.to_dict() == seed_stats.to_dict()
    btb, _ = design.build()
    assert seed_counterpart(btb) is btb


def test_literature_family_shards_merge_to_the_unsharded_run():
    # Shards of the scalar pass: each one replays [0, start) for warmup
    # and accounts [start, stop); merged, they equal one unsharded run.
    # The warm crossing of the middle shard lands on a return, which the
    # RAS serves without touching the BTB, so the stats reset falls
    # between the active events on either side.
    trace = get_trace(TRACE_APP, TRACE_SCALE)
    design = _literature_designs()["micro-btb"]
    n_events = len(trace)
    returns = [
        index for index, kind in enumerate(trace.kinds)
        if kind == int(BranchKind.RETURN) and index > n_events // 3
    ]
    cuts = [0, returns[0], 2 * n_events // 3, n_events]
    parts = []
    for start, stop in zip(cuts, cuts[1:]):
        btb, kwargs = design.build()
        simulator = FrontendSimulator(btb, engine="vector", **kwargs)
        parts.append(simulator.run(trace, measure_range=(start, stop)))
        assert simulator.last_engine == "vector"
    btb, kwargs = design.build()
    whole = FrontendSimulator(btb, engine="vector", **kwargs).run(
        trace, measure_range=(0, n_events)
    )
    assert FrontendStats.merge(parts).to_dict() == whole.to_dict()
    seed_btb, seed_kwargs = design.build()
    reference = SeedFrontendSimulator(seed_counterpart(seed_btb), **seed_kwargs)
    assert whole.to_dict() == reference.run(trace, warmup_fraction=0.0).to_dict()


@pytest.mark.parametrize("fuzz_seed", range(4))
def test_differential_fuzz_literature_families(fuzz_seed):
    """The seedref differential sweep over the kernel-less literature
    families on randomized workloads, for both live engines ("auto"
    resolves to the vector engine's scalar pass)."""
    spec = _fuzz_spec(1000 + fuzz_seed)
    designs = _literature_designs()
    key = sorted(designs)[fuzz_seed % len(designs)]
    trace = generate_trace(spec)
    for engine in ("auto", "general"):
        diff = _diff_fields(designs[key], trace, engine=engine)
        if diff:
            shrunk = _shrink_prefix(designs[key], spec, len(trace), engine=engine)
            raise AssertionError(
                f"engine {engine!r} diverges from seed referee on fuzz seed "
                f"{1000 + fuzz_seed} (design {key!r}, {len(trace)} events; "
                f"shrunk to first {shrunk} events).\n"
                f"Reproduce with: generate_trace({spec!r}).truncate({shrunk})\n"
                f"Diverging fields: {diff}"
            )
