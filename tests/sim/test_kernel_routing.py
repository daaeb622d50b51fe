"""Kernel controller routing: exact types only.

The array kernels replicate the semantics of exactly four controller
types (Conv-DPM, static, ASAP-DPM, FC-DPM).  A subclass may override
any of those semantics, so even one that overrides nothing must route
to the scalar simulator -- on the single-trace path and on the batch
path alike -- and still produce the scalar result.
"""

import pytest

import repro.sim.vectorized as vectorized
from repro.core.baselines import (
    ASAPDPMController,
    ConvDPMController,
    StaticController,
)
from repro.core.fc_dpm import FCDPMController
from repro.obs import observing
from repro.scenario import get_scenario
from repro.sim.slotsim import SlotSimulator
from repro.sim.vectorized import (
    _policy_manager,
    _reason_key,
    fast_path_ineligibility,
    simulate_batch,
    simulate_fast,
)
from tests.sim.test_vectorized import _source_state

SCENARIO = "exp2-conv-dpm"

KERNEL_TYPES = [
    (ConvDPMController, "conv-dpm"),
    (StaticController, "static:0.8"),
    (ASAPDPMController, "asap-dpm"),
    (FCDPMController, "fc-dpm"),
]


def _subclassed_manager(kernel_type, spec):
    """The scenario's ``spec`` manager with its controller retyped to a
    no-override subclass of ``kernel_type`` (state kept as built)."""
    mgr = _policy_manager(get_scenario(SCENARIO), spec)
    assert type(mgr.controller) is kernel_type
    mgr.controller.__class__ = type("Sub", (kernel_type,), {})
    return mgr


@pytest.mark.parametrize(
    "kernel_type, spec", KERNEL_TYPES, ids=[s for _, s in KERNEL_TYPES]
)
class TestSubclassRoutesScalar:
    def test_exact_type_is_eligible(self, kernel_type, spec):
        mgr = _policy_manager(get_scenario(SCENARIO), spec)
        assert fast_path_ineligibility(mgr) is None

    def test_subclass_is_controller_adaptive(self, kernel_type, spec):
        reason = fast_path_ineligibility(_subclassed_manager(kernel_type, spec))
        assert reason is not None
        assert _reason_key(reason) == "controller-adaptive"

    def test_simulate_fast_matches_scalar(self, kernel_type, spec):
        trace = get_scenario(SCENARIO).build_trace(3)
        m_fast = _subclassed_manager(kernel_type, spec)
        m_scalar = _subclassed_manager(kernel_type, spec)
        with observing() as obs:
            r_fast = simulate_fast(m_fast, trace)
            snapshot = obs.metrics.snapshot()
        assert r_fast == SlotSimulator(m_scalar).run(trace)
        assert _source_state(m_fast) == _source_state(m_scalar)
        assert snapshot["sim.route{path=scalar}"]["value"] == 1
        key = "sim.fast_ineligible{reason=controller-adaptive}"
        assert snapshot[key]["value"] == 1

    def test_batch_counts_controller_adaptive(
        self, kernel_type, spec, monkeypatch
    ):
        def subclassed(scenario, policy_spec):
            assert policy_spec == spec
            return _subclassed_manager(kernel_type, spec)

        monkeypatch.setattr(vectorized, "_policy_manager", subclassed)
        seeds = [0, 1]
        with observing() as obs:
            fast = simulate_batch(SCENARIO, seeds, [spec])
            snapshot = obs.metrics.snapshot()
        key = "sim.batch_ineligible{reason=controller-adaptive}"
        assert snapshot[key]["value"] == 1
        assert snapshot["sim.batch_route{path=loop}"]["value"] == 1
        assert snapshot["sim.route{path=scalar}"]["value"] == len(seeds)
        assert fast == simulate_batch(SCENARIO, seeds, [spec], fast=False)
