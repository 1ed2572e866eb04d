"""E12 (extension) — scalability through knowledge locality (§IV-B4)."""

import time

from repro.experiments import scalability_scenario
from repro.sim.engine import Simulator
from tests.sim_reference import ReferenceSimulator, broadcast_round_robin, flat_site


def test_bench_e12_scalability(benchmark, report):
    points = benchmark.pedantic(
        scalability_scenario.run,
        kwargs={"seed": 41, "sizes": (1, 2, 3)},
        rounds=1,
        iterations=1,
    )
    lines = [scalability_scenario.render(points), ""]
    sample = points[-1]
    home = next(
        name for name in sample.per_node_active if name.startswith("kalis-home")
    )
    field = next(
        name for name in sample.per_node_active if name.startswith("kalis-field")
    )
    lines.append(f"{home} active: {sorted(sample.per_node_active[home])}")
    lines.append(f"{field} active: {sorted(sample.per_node_active[field])}")
    report("E12 (extension): scalability through locality", "\n".join(lines))

    # 1. Each node loads the locally-optimal set, never the union.
    home_active = set(sample.per_node_active[home])
    field_active = set(sample.per_node_active[field])
    assert "IcmpFloodModule" in home_active
    assert "ForwardingMisbehaviorModule" not in home_active
    assert "ForwardingMisbehaviorModule" in field_active
    assert "IcmpFloodModule" not in field_active

    # 2. Per-node work stays flat as the site grows: tripling the site
    # must not meaningfully raise any single node's burden.
    assert points[-1].max_node_work <= points[0].max_node_work * 1.3
    # ...while the site (and IDS fleet) actually grew.
    assert points[-1].kalis_nodes == 3 * points[0].kalis_nodes


def _timed(sim, nodes, frames):
    started = time.perf_counter()
    receptions = broadcast_round_robin(sim, nodes, frames)
    return time.perf_counter() - started, receptions


def test_bench_transmit_fast_path(bench_json, report):
    """The frame-delivery fast path: transmit cost must scale like
    O(N * density), not O(N^2), with a reception set identical to the
    brute-force scalar reference — and at N=8,000 production must run
    >= 9x faster than that reference (the spatial index's >= 3x times
    vectorized delivery's >= 3x)."""
    frames = 300
    lines = [f"{'nodes':>6} {'frames':>7} {'cand/frame':>11} {'identical':>10}"]
    candidates_per_frame = []
    for node_count in (200, 800):
        sim, nodes = flat_site(Simulator, 47, node_count)
        reference, reference_nodes = flat_site(ReferenceSimulator, 47, node_count)
        identical = (
            broadcast_round_robin(sim, nodes, frames)
            == broadcast_round_robin(reference, reference_nodes, frames)
            and sim.deliveries == reference.deliveries
        )
        # The index must never change what is received (lossless culling).
        assert identical, f"reception set diverged at N={node_count}"
        candidates_per_frame.append(sim.candidate_evaluations / frames)
        lines.append(
            f"{node_count:>6} {frames:>7} {candidates_per_frame[-1]:>11.1f} "
            f"{str(identical):>10}"
        )
    report("Delivery fast path: candidates per frame at constant density",
           "\n".join(lines))

    large_nodes, large_frames = 8000, 400
    sim, nodes = flat_site(Simulator, 47, large_nodes)
    reference, reference_nodes = flat_site(ReferenceSimulator, 47, large_nodes)
    # Warm both over the sender rotation first, so the lazy one-time
    # set-up (grid build, packed-cell and per-sender caches) doesn't
    # smear into the steady-state timing; the warm-up frames are
    # compared too.
    warm_identical = _timed(sim, nodes, large_frames)[1] == _timed(
        reference, reference_nodes, large_frames
    )[1]
    production_s, production_receptions = _timed(sim, nodes, large_frames)
    reference_s, reference_receptions = _timed(
        reference, reference_nodes, large_frames
    )
    identical = (
        warm_identical
        and production_receptions == reference_receptions
        and sim.deliveries == reference.deliveries
    )
    speedup = reference_s / production_s
    report(
        "Delivery fast path: production vs brute-force scalar reference",
        f"{'nodes':>6} {'frames':>7} {'production s':>13} {'reference s':>12} "
        f"{'speedup':>8} {'identical':>10}\n"
        f"{large_nodes:>6} {large_frames:>7} {production_s:>13.3f} "
        f"{reference_s:>12.3f} {speedup:>7.1f}x {str(identical):>10}",
    )
    bench_json(
        "transmit_fast_path",
        sizes=[200, 800],
        frames=frames,
        candidates_per_frame_small=round(candidates_per_frame[0], 1),
        candidates_per_frame_large=round(candidates_per_frame[-1], 1),
        nodes=large_nodes,
        large_frames=large_frames,
        production_wall_s=round(production_s, 3),
        reference_wall_s=round(reference_s, 3),
        speedup=round(speedup, 2),
        deliveries=sim.deliveries,
        identical=identical,
    )

    # Constant density => candidate evaluations per frame stay ~flat as
    # N quadruples; anything worse means the cull stopped being local.
    assert (
        candidates_per_frame[-1] <= candidates_per_frame[0] * 1.5
    ), "transmit cost is scaling worse than O(N * density)"
    # Byte-identical receptions and deliveries at N=8,000, and >= 9x.
    assert identical
    assert speedup >= 9.0, f"production only {speedup:.1f}x the reference"
