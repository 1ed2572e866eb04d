"""E12 (extension) — scalability through locality (§IV-B4).

"Because of the locality of the knowledge acquired by each Kalis node,
different IDS nodes can load different (and locally-optimal) sets of
modules depending on their surroundings, thus allowing the system to
scale to arbitrarily large networks just by means of adding new IDS
nodes throughout the network."

The scenario builds a site out of repeating *blocks*, alternating two
kinds placed far apart (out of radio range of each other):

- a **home block**: a single-hop WiFi LAN with commodity devices;
- a **field block**: a multi-hop CTP WSN.

One Kalis node guards each block.  The measurements:

1. each Kalis node's active module set is the locally-optimal one —
   flood modules in home blocks, watchdog modules in field blocks,
   never the union;
2. as the site grows from 1 to N blocks of each kind, the *per-node*
   work stays flat: knowledge and traffic are local, so new blocks cost
   only their own IDS node.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.core.kalis import KalisNode
from repro.devices.commodity import CloudService, LifxBulb, NestThermostat
from repro.devices.wsn import build_wsn
from repro.proto.iphost import IpRouter, LanDirectory
from repro.sim.engine import Simulator
from repro.sim.topology import line_positions
from repro.util.ids import NodeId
from repro.util.rng import SeededRng

#: Physical separation between blocks — beyond every radio's range.
BLOCK_SPACING_M = 2000.0

RUN_DURATION_S = 60.0


@dataclass
class ScalabilityPoint:
    """Measurements for one site size."""

    blocks: int
    kalis_nodes: int
    per_node_work: List[float]
    per_node_active: Dict[str, List[str]] = field(default_factory=dict)

    @property
    def max_node_work(self) -> float:
        return max(self.per_node_work) if self.per_node_work else 0.0

    @property
    def mean_node_work(self) -> float:
        if not self.per_node_work:
            return 0.0
        return sum(self.per_node_work) / len(self.per_node_work)


def _build_home_block(sim, rng: SeededRng, origin_x: float, index: int) -> KalisNode:
    lan, wan = LanDirectory(), LanDirectory()
    router = IpRouter(
        NodeId(f"router-{index}"), (origin_x, 0.0), lan, wan
    )
    sim.add_node(router)
    cloud = CloudService(
        NodeId(f"cloud-{index}"), (origin_x + 500.0, 0.0), wan,
        gateway=router.node_id,
    )
    sim.add_node(cloud)
    sim.add_node(
        NestThermostat(
            NodeId(f"nest-{index}"), (origin_x + 6.0, 2.0), lan, cloud.ip,
            router.node_id, rng=rng.substream("nest", str(index)),
        )
    )
    sim.add_node(
        LifxBulb(
            NodeId(f"lifx-{index}"), (origin_x + 4.0, 6.0), lan, cloud.ip,
            router.node_id, rng=rng.substream("lifx", str(index)),
        )
    )
    kalis = KalisNode(NodeId(f"kalis-home-{index}"))
    kalis.deploy(sim, position=(origin_x + 5.0, 4.0))
    return kalis


def _build_field_block(sim, origin_x: float, index: int) -> KalisNode:
    positions = [
        (origin_x + x, y) for x, y in line_positions(4, 25.0)
    ]
    build_wsn(sim, positions, id_prefix=f"mote{index}")
    kalis = KalisNode(NodeId(f"kalis-field-{index}"))
    kalis.deploy(sim, position=(origin_x + 40.0, 8.0))
    return kalis


def run_site(seed: int, block_pairs: int) -> ScalabilityPoint:
    """Build and run a site with ``block_pairs`` home+field block pairs."""
    sim = Simulator(seed=seed)
    rng = SeededRng(seed, "scalability")
    nodes: Dict[str, KalisNode] = {}
    for index in range(block_pairs):
        home = _build_home_block(
            sim, rng, origin_x=2 * index * BLOCK_SPACING_M, index=index
        )
        field_node = _build_field_block(
            sim, origin_x=(2 * index + 1) * BLOCK_SPACING_M, index=index
        )
        nodes[home.node_id.value] = home
        nodes[field_node.node_id.value] = field_node
    sim.run(RUN_DURATION_S)

    return ScalabilityPoint(
        blocks=2 * block_pairs,
        kalis_nodes=len(nodes),
        per_node_work=[node.cpu_work_units() for node in nodes.values()],
        per_node_active={
            name: node.active_module_names() for name, node in nodes.items()
        },
    )


def run(seed: int = 41, sizes=(1, 2, 3)) -> List[ScalabilityPoint]:
    """Run the scaling sweep over site sizes."""
    return [run_site(seed + index, block_pairs=size)
            for index, size in enumerate(sizes)]


def render(points: List[ScalabilityPoint]) -> str:
    """Render the sweep as an aligned text table."""
    lines = [
        f"{'blocks':>7} {'IDS nodes':>10} {'mean work/node':>15} {'max work/node':>14}"
    ]
    for point in points:
        lines.append(
            f"{point.blocks:>7} {point.kalis_nodes:>10} "
            f"{point.mean_node_work:>15,.0f} {point.max_node_work:>14,.0f}"
        )
    return "\n".join(lines)

