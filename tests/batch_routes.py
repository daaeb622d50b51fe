"""Forced entry to ``simulate_batch``'s stacked route, for equivalence tests.

``simulate_batch`` picks its route from its inputs and never takes the
stacked kernel for a single seed.  Tests that hold the stacked kernel
``==`` to the per-seed loop (``vectorized._simulate_batch_loop``) call
it through :func:`run_stacked` instead, at any row count.
"""

from repro.obs import OBS
from repro.scenario import get_scenario
from repro.sim import vectorized
from repro.sim.stacked import simulate_batch_stacked, stacked_batch_ineligibility


def run_stacked(scenario, seeds, policies, *, traces=None, max_deficit_fraction=0.05):
    """Run ``seeds x policies`` through the stacked kernel, one row or more.

    Managers come from ``vectorized._policy_manager`` looked up at call
    time, so tests that spy on it see the stacked route's managers too.
    Every spec must be stacked-eligible.
    """
    if isinstance(scenario, str):
        scenario = get_scenario(scenario)
    seed_list = [int(s) for s in seeds]
    specs = list(policies)
    managers = {spec: vectorized._policy_manager(scenario, spec) for spec in specs}
    for spec, mgr in managers.items():
        reason = stacked_batch_ineligibility(mgr)
        assert reason is None, f"{spec} is not stacked-eligible: {reason}"
    with OBS.span(
        "sim.batch",
        scenario=scenario.name,
        n_seeds=len(seed_list),
        n_policies=len(specs),
    ) as span:
        return simulate_batch_stacked(
            scenario,
            seed_list,
            specs,
            managers,
            max_deficit_fraction=max_deficit_fraction,
            traces=traces,
            span=span,
        )
