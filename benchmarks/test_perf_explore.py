"""Config-parallel exploration at benchmark scale: the deterministic half.

``explore(config_parallel=True)`` groups frontier points that lower to
the *same* program (equal family hash) and simulates the group as one
representative full run plus a width-0 control run per remaining
member — exact timing with no data movement, outputs shared from the
representative.  On network-axis sweeps (latency x rate) every point
shares the lowered program, so an N-point group costs ~one data pass
instead of N.

This test sweeps a 12-point shared-program space both ways and checks
that the stacked sweep is a pure optimization — identical report
entries — and that it really took the control-run path (one group,
every other simulated point a control run).  It reads no clock and
writes no file; sweep wall time is the ``explore_sweep`` workload of
``benchmarks/e2e``.
"""

from repro.explore import ConfigSpace, ResultCache, explore
from repro.obs import metrics
from repro.programs import horizontal_diffusion

SHAPE = (96, 96, 64)
VECTORIZATION = 8

#: Network-axis sweep: one lowered program, twelve machine variants.
SPACE = ConfigSpace(vectorizations=(VECTORIZATION,),
                    network_latencies=(8, 16, 24, 32, 40, 48),
                    network_rates=(1.0, 0.5))


def _sweep(program, **kwargs):
    return explore(program, space=SPACE, strategy="exhaustive",
                   workers=1, persist=False, cache=ResultCache(),
                   **kwargs)


def test_config_parallel_sweep():
    program = horizontal_diffusion(shape=SHAPE,
                                   vectorization=VECTORIZATION)
    plain = _sweep(program)
    old = metrics.set_registry(metrics.MetricsRegistry(enabled=True))
    try:
        stacked = _sweep(program, config_parallel=True)
        counted = metrics.registry()
    finally:
        metrics.set_registry(old)

    assert len(plain.entries) == len(stacked.entries)
    simulated = 0
    for a, b in zip(plain.entries, stacked.entries):
        assert a.point == b.point
        assert a.simulated == b.simulated
        assert a.simulated_cycles == b.simulated_cycles
        assert a.rank == b.rank
        assert a.pareto == b.pareto
        simulated += bool(a.simulated)
    assert simulated >= 8

    assert counted.counter_total("explore.config_parallel_groups") == 1
    assert counted.counter_total("explore.control_points") \
        == simulated - 1
