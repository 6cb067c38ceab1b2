"""Control-run sweeps at benchmark scale: the deterministic half.

Every ``explore`` sweep measures the machines of one lowered program
with one full simulation (the data pass) and a width-0 control run per
remaining machine: exact timing with no data movement.  On a
network-axis sweep (latency x rate) of a 2-device placement every point
is its own machine and all share the lowered program, so a 12-point
sweep costs one data pass instead of twelve.  (On one device no edge
is remote and the same space collapses to a single machine.)

This test sweeps that space twice, once as ``explore`` does and once
with every machine forced into a group of its own (a full run each),
and checks that control runs are a pure optimization — identical
reports apart from timing and cache provenance — and that the default
sweep really took the control-run path (one data pass, every other
machine a control run).  It reads no clock and writes no file; sweep
wall time is the ``explore_sweep`` workload of ``benchmarks/e2e``.
"""

from repro.explore import ConfigSpace, ResultCache, explore
from repro.explore import explorer
from repro.obs import metrics
from repro.programs import build

SHAPE = (64, 64, 64)
VECTORIZATION = 4

#: Network-axis sweep over a 2-device contiguous placement: one lowered
#: program, twelve machines (thirteen with the single-device baseline).
#: Vertical advection, because a contiguous cut of horizontal diffusion
#: needs more link bandwidth than the platform has at every width.
SPACE = ConfigSpace(vectorizations=(VECTORIZATION,), device_counts=(2,),
                    network_latencies=(8, 16, 24, 32, 40, 48),
                    network_rates=(1.0, 0.5))


def _sweep(program):
    return explore(program, space=SPACE, strategy="exhaustive",
                   workers=1, persist=False, cache=ResultCache())


def _comparable(report):
    record = report.to_json()
    for field in ("wall_seconds", "cache_hits", "lowering_cache_hits",
                  "relowered_programs"):
        record.pop(field)
    for entry in record["entries"] + [record["summary"]["best"]]:
        entry.pop("wall_seconds")
        entry.pop("cache_hit")
    return record


def test_config_parallel_sweep(monkeypatch):
    program = build("vertical_advection", shape=SHAPE,
                    vectorization=VECTORIZATION)
    with monkeypatch.context() as patch:
        patch.setattr(explorer, "_families",
                      lambda pending: [[[p]] for p in pending])
        full = _sweep(program)
    old = metrics.set_registry(metrics.MetricsRegistry(enabled=True))
    try:
        grouped = _sweep(program)
        counted = metrics.registry()
    finally:
        metrics.set_registry(old)

    assert _comparable(grouped) == _comparable(full)
    assert not grouped.failed_points
    machines = {(e.devices_used, e.point.network_latency,
                 e.point.network_words_per_cycle)
                for e in grouped.entries if e.simulated}
    assert len(machines) == grouped.simulated_points == 13
    assert all(e.devices_used == 2 for e in grouped.entries
               if not e.baseline)
    assert counted.counter_total("explore.control_points") \
        == len(machines) - 1
