"""Stacked 2D batch kernel: equivalence, routing, sharding, fleet smoke.

The stacked route's contract is absolute: for every seed, every
``SimulationResult`` field and every manager/controller/policy end state
must equal the serial per-seed loop bit for bit -- including which
``SimulationError`` is raised, with which message, leaving which
committed state behind.  These tests pin that contract plus the
batch plumbing: duplicate-seed rejection, stacked/loop routing and its
telemetry, plan stacking, worker sharding, and the ``fleet_smoke``
scenario's golden aggregates.  The stacked side runs through the shared
``run_stacked`` helper, the loop side through ``_simulate_batch_loop``.
"""

import dataclasses

import numpy as np
import pytest

import repro.sim.stacked as stacked_mod
import repro.sim.vectorized as vectorized
from repro.errors import ConfigurationError, SimulationError
from repro.obs import observing
from repro.runtime import parallel as parallel_mod
from repro.scenario import get_scenario
from repro.sim.stacked import _stack_from_flat, stacked_batch_ineligibility
from repro.sim.vectorized import (
    _policy_manager,
    _simulate_batch_loop,
    plan_trace_arrays,
    replay_policy,
    simulate_batch,
)
from repro.workload.trace import LoadTrace
from tests.batch_routes import run_stacked

POLICIES = ["conv-dpm", "asap-dpm", "static:0.8", "fc-dpm"]


def _manager_state(mgr):
    """Every externally meaningful piece of post-run manager state."""
    source = mgr.source
    fc = source.fc
    storage = source.storage
    controller = mgr.controller
    policy = mgr.policy
    state = {
        "charge": storage.charge,
        "bled": storage.bled_charge,
        "deficit": storage.deficit_charge,
        "i_f": fc._i_f,
        "consumed": fc.tank.consumed,
        "total_fuel": source.total_fuel,
        "total_load": source.total_load_charge,
        "total_time": source.total_time,
        "total_delivered": source.total_delivered_charge,
        "controller": type(controller).__name__,
    }
    if hasattr(controller, "_recharging"):
        state["recharging"] = controller._recharging
    if type(controller).__name__ == "FCDPMController":
        idle_pred = controller.idle_length_predictor
        active_pred = controller.active_length_predictor
        state.update(
            n_solutions=len(controller.solutions),
            if_idle=controller._if_idle,
            if_active=controller._if_active,
            active_planned=controller._active_planned,
            active_sum=controller._active_current_sum,
            active_n=controller._active_current_n,
            guards=controller.n_guard_activations,
            idle_estimate=idle_pred._estimate,
            active_estimate=active_pred._estimate,
            idle_observed=idle_pred._n_observed,
            active_observed=active_pred._n_observed,
            idle_error=idle_pred._error_sum,
            active_error=active_pred._error_sum,
        )
    predictor = getattr(policy, "predictor", None)
    if predictor is not None:
        state.update(
            decisions=policy.n_decisions,
            sleep_decisions=policy.n_sleep_decisions,
            last_prediction=policy.last_prediction,
            last_slept=policy._last_slept,
            estimate=predictor._estimate,
            error_sum=predictor._error_sum,
            abs_error_sum=predictor._abs_error_sum,
            observed=predictor._n_observed,
        )
    return state


def _run_with_spy(run, scenario, seeds, policies, **kwargs):
    """Run a batch recording every built manager; may raise in results."""
    managers = {}
    original = vectorized._policy_manager

    def spy(sc, spec):
        mgr = original(sc, spec)
        managers.setdefault(spec, []).append(mgr)
        return mgr

    vectorized._policy_manager = spy
    error = None
    results = None
    try:
        results = run(scenario, seeds, policies, **kwargs)
    except SimulationError as exc:
        error = (type(exc), str(exc))
    finally:
        vectorized._policy_manager = original
    return results, error, managers


def _assert_batches_equal(a, b):
    assert a.keys() == b.keys()
    for seed in a:
        assert list(a[seed]) == list(b[seed])
        for name in a[seed]:
            ra, rb = a[seed][name], b[seed][name]
            assert dataclasses.asdict(ra) == dataclasses.asdict(rb), (seed, name)


class TestStackedEquivalence:
    @pytest.mark.parametrize(
        "policies",
        [POLICIES, ["fc-dpm", "conv-dpm"], ["asap-dpm"], ["static:0.8"]],
    )
    def test_stacked_matches_loop_every_field(self, policies):
        sc = get_scenario("exp2-conv-dpm")
        seeds = list(range(6))
        a = run_stacked(sc, seeds, policies)
        b = _simulate_batch_loop(sc, seeds, policies)
        _assert_batches_equal(a, b)

    def test_stacked_matches_scalar(self):
        sc = get_scenario("exp2-conv-dpm")
        seeds = [0, 1, 2]
        a = run_stacked(sc, seeds, POLICIES)
        b = simulate_batch(sc, seeds, POLICIES, fast=False)
        _assert_batches_equal(a, b)

    def test_stacked_single_seed_matches_loop(self):
        a = run_stacked("exp2-conv-dpm", [7], POLICIES)
        b = _simulate_batch_loop(get_scenario("exp2-conv-dpm"), [7], POLICIES)
        _assert_batches_equal(a, b)

    def test_manager_end_state_matches_loop(self):
        sc = get_scenario("exp2-conv-dpm")
        seeds = list(range(5))
        _, _, stacked_mgrs = _run_with_spy(run_stacked, sc, seeds, POLICIES)
        _, _, loop_mgrs = _run_with_spy(_simulate_batch_loop, sc, seeds, POLICIES)
        for spec in POLICIES:
            sa = _manager_state(stacked_mgrs[spec][0])
            sb = _manager_state(loop_mgrs[spec][0])
            assert sa == sb, spec

    def test_prebuilt_and_partial_traces_match_loop(self):
        sc = get_scenario("exp2-conv-dpm")
        seeds = [3, 4, 5, 6]
        traces = {s: sc.build_trace(s) for s in seeds[:2]}  # partial
        a = run_stacked(sc, seeds, POLICIES, traces=traces)
        b = _simulate_batch_loop(sc, seeds, POLICIES, traces=traces)
        _assert_batches_equal(a, b)

    def test_obs_enabled_route_stays_exact(self):
        sc = get_scenario("exp2-conv-dpm")
        seeds = [0, 1, 2]
        with observing():
            a = run_stacked(sc, seeds, POLICIES)
            b = _simulate_batch_loop(sc, seeds, POLICIES)
        _assert_batches_equal(a, b)


class TestStackedDeficitRaise:
    def _mid_batch_setup(self):
        """Seeds ordered so static:0.4 trips the guard mid-batch."""
        sc = get_scenario("exp2-conv-dpm")
        ratios = {}
        for seed in range(6):
            res = simulate_batch(
                sc, [seed], ["static:0.4"], max_deficit_fraction=1.0
            )[seed]["static:0.4"]
            ratios[seed] = res.deficit / res.load_charge
        order = sorted(ratios, key=ratios.get)
        threshold = (ratios[order[0]] + ratios[order[-1]]) / 2
        return sc, order, threshold

    @pytest.mark.parametrize(
        "policies",
        [
            ["conv-dpm", "static:0.4", "asap-dpm", "fc-dpm"],
            ["static:0.4", "conv-dpm"],
            ["fc-dpm", "static:0.4"],
        ],
    )
    def test_raise_and_committed_state_match_loop(self, policies):
        sc, order, threshold = self._mid_batch_setup()
        ra, ea, ma = _run_with_spy(
            run_stacked, sc, order, policies, max_deficit_fraction=threshold
        )
        rb, eb, mb = _run_with_spy(
            _simulate_batch_loop, sc, order, policies,
            max_deficit_fraction=threshold,
        )
        assert ra is None and rb is None
        assert ea == eb  # same exception type + message
        # The loop stops building managers at the raise; every manager
        # both routes built must hold identical committed state.
        for spec in set(ma) & set(mb):
            assert _manager_state(ma[spec][0]) == _manager_state(mb[spec][0])


class TestBatchRouting:
    def test_duplicate_seeds_raise(self):
        with pytest.raises(ConfigurationError, match="duplicate seeds"):
            simulate_batch("exp2-conv-dpm", [0, 1, 0], ["conv-dpm"])

    def test_duplicate_seeds_raise_after_int_coercion(self):
        # 1 and np.int64(1) are the same key: must still be rejected.
        with pytest.raises(ConfigurationError, match="duplicate seeds"):
            simulate_batch(
                "exp2-conv-dpm", [1, np.int64(1)], ["conv-dpm"]
            )

    def test_auto_mode_falls_back_to_loop(self):
        seeds = [0, 1]
        with observing() as obs:
            auto = simulate_batch("exp1-battery", seeds)
            snapshot = obs.metrics.snapshot()
        sc = get_scenario("exp1-battery")
        explicit = _simulate_batch_loop(sc, seeds, [sc.policy.kind])
        _assert_batches_equal(auto, explicit)
        assert snapshot["sim.batch_route{path=loop}"]["value"] == 1
        assert snapshot["sim.batch_fallback_rows"]["value"] == len(seeds)
        assert any(k.startswith("sim.batch_ineligible") for k in snapshot)

    def test_single_seed_auto_skips_stacked(self, monkeypatch):
        def boom(*args, **kwargs):  # pragma: no cover - fails the test
            raise AssertionError("stacked route taken for a single seed")

        monkeypatch.setattr(stacked_mod, "simulate_batch_stacked", boom)
        simulate_batch("exp2-conv-dpm", [0], ["conv-dpm"])

    def test_stacked_route_telemetry(self):
        seeds = [0, 1, 2]
        policies = ["conv-dpm", "asap-dpm"]
        with observing() as obs:
            simulate_batch("exp2-conv-dpm", seeds, policies)
            spans = obs.tracer.export()
            snapshot = obs.metrics.snapshot()
        (span,) = [s for s in spans if s["name"] == "sim.batch"]
        attrs = span["attrs"]
        assert attrs["route"] == "stacked"
        assert attrs["rows"] == len(seeds)
        assert attrs["fallback_rows"] == 0
        assert 0.0 <= attrs["padded_fraction"] < 1.0
        assert attrs["plan_stack_seconds"] > 0.0
        assert snapshot["sim.batch_route{path=stacked}"]["value"] == 1
        assert snapshot["sim.route{path=fast}"]["value"] == len(seeds) * len(
            policies
        )
        assert "sim.batch_plan_stack_s" in snapshot

    def test_sharded_route_telemetry(self, monkeypatch):
        monkeypatch.setattr(parallel_mod, "resolve_workers", lambda w: w)
        seeds = [0, 1, 2, 3, 4]
        with observing() as obs:
            simulate_batch("exp2-conv-dpm", seeds, ["conv-dpm"], workers=2)
            spans = obs.tracer.export()
        batch_spans = [s for s in spans if s["name"] == "sim.batch"]
        (parent,) = [s for s in batch_spans if s["attrs"]["route"] == "parallel"]
        assert parent["attrs"]["blocks"] == 2
        # One stacked child per block, rows split 2 + 3 in seed order.
        children = [s["attrs"] for s in batch_spans if s is not parent]
        assert sorted(a["rows"] for a in children) == [2, 3]
        assert {a["route"] for a in children} == {"stacked"}

    def test_stacked_eligibility_reasons(self):
        mgr = _policy_manager(get_scenario("exp2-conv-dpm"), "conv-dpm")
        assert stacked_batch_ineligibility(mgr) is None
        from repro.fuelcell import FuelTank, GibbsFuelModel

        finite = _policy_manager(get_scenario("exp2-conv-dpm"), "conv-dpm")
        finite.source.fc.tank = FuelTank(capacity=50.0, model=GibbsFuelModel())
        reason = stacked_batch_ineligibility(finite)
        assert reason is not None and "finite fuel tank" in reason


class TestStackedTransport:
    def test_stack_from_flat_carves_per_seed_plans(self):
        sc = get_scenario("exp2-conv-dpm")
        mgr = _policy_manager(sc, "conv-dpm")
        initial = mgr.source.storage.charge
        seeds = [0, 1, 2, 3]
        slots, decisions, plans = [], [], []
        for seed in seeds:
            mgr.reset(initial)
            trace = sc.build_trace(seed)
            row_decisions = replay_policy(mgr.policy, trace)
            slots.extend(trace)
            decisions.extend(row_decisions)
            plans.append(plan_trace_arrays(mgr.device, trace, row_decisions))
        # One planner call over the concatenated slots, carved into rows.
        flat = plan_trace_arrays(mgr.device, LoadTrace(slots), decisions)
        sp = _stack_from_flat(
            flat, np.array([p.n_slots for p in plans], dtype=np.intp)
        )
        assert sp.n_rows == len(plans)
        for r, plan in enumerate(plans):
            lo, hi = sp.seg_offsets[r], sp.seg_offsets[r + 1]
            slo, shi = sp.slot_offsets[r], sp.slot_offsets[r + 1]
            row = {
                "duration": flat.duration[lo:hi],
                "i_load": flat.i_load[lo:hi],
                "kind": flat.kind[lo:hi],
                "slot_bounds": flat.slot_bounds[slo : shi + 1] - lo,
                "active_start": flat.active_start[slo:shi] - lo,
                "slept": flat.slept[slo:shi],
                "aborted": flat.aborted[slo:shi],
            }
            for name, column in row.items():
                expected = getattr(plan, name)
                assert column.dtype == expected.dtype, name
                np.testing.assert_array_equal(column, expected, err_msg=name)
            # Padded 2D columns must hold each row's segments verbatim.
            n = plan.n_segments
            assert sp.n_seg[r] == n
            for padded, expected in (
                (sp.duration, plan.duration),
                (sp.i_load, plan.i_load),
            ):
                np.testing.assert_array_equal(padded[r, :n], expected)
                assert not padded[r, n:].any()
            assert sp.valid_seg[r, :n].all() and not sp.valid_seg[r, n:].any()

    def test_parallel_workers_match_serial(self, monkeypatch):
        # Drop the core-count cap so workers=2 is a real two-process
        # pool on any host (workers=1 stays in-process).
        monkeypatch.setattr(parallel_mod, "resolve_workers", lambda w: w)
        sc = get_scenario("exp2-conv-dpm")
        seeds = list(range(6))
        serial = simulate_batch(sc, seeds, POLICIES, workers=1)
        parallel = simulate_batch(sc, seeds, POLICIES, workers=2)
        _assert_batches_equal(parallel, serial)


class TestFleetSmoke:
    def test_registered_scenario(self):
        sc = get_scenario("fleet_smoke")
        assert sc.workload.kind == "fleet"
        assert sc.workload.jitter == 0.25
        assert sc.policy.kind == "conv-dpm"

    def test_fleet_is_heterogeneous(self):
        sc = get_scenario("fleet_smoke")
        seeds = list(range(16))
        results = simulate_batch(sc, seeds)
        loads = [results[s]["conv-dpm"].load_charge for s in seeds]
        assert np.std(loads) > 0.01 * np.mean(loads)

    def test_golden_aggregates_over_256_devices(self):
        sc = get_scenario("fleet_smoke")
        seeds = list(range(256))
        policies = ["conv-dpm", "asap-dpm", "static:0.8"]
        with observing() as obs:
            results = simulate_batch(sc, seeds, policies)
            snapshot = obs.metrics.snapshot()
        # The whole fleet must ride the stacked kernel, no fallbacks.
        assert snapshot["sim.batch_route{path=stacked}"]["value"] == 1
        fuel = {
            p: sum(results[s][p].fuel for s in seeds) for p in policies
        }
        assert fuel["conv-dpm"] == pytest.approx(671918.5535921464, rel=1e-12)
        assert fuel["asap-dpm"] == pytest.approx(315488.43087669404, rel=1e-12)
        assert fuel["static:0.8"] == pytest.approx(380624.3829597134, rel=1e-12)
        deficits = np.array([results[s]["static:0.8"].deficit for s in seeds])
        assert int((deficits > 0).sum()) == 63
        assert deficits.sum() == pytest.approx(164.12614309227126, rel=1e-12)
        assert deficits.max() == pytest.approx(10.624909700649187, rel=1e-12)
        assert np.all(
            np.array([results[s]["conv-dpm"].deficit for s in seeds]) == 0.0
        )
