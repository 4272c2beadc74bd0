"""The benchmark's four workloads, built from a seed and driven from outside.

Each workload is one class with three phases, so the runner can time
them apart:

* ``setup()``  -- everything before the first offered operation: testbed
  build, channel opening, table install or connection admission, and
  schedule generation (the ``setup_s`` metric);
* ``run()``    -- the simulation itself, until every operation has
  completed (the ``ops_per_s`` metric);
* ``finish()`` -- the output checks and the modelled counts, returning a
  :class:`RoundResult`.

The benchmark owns every input: flow populations, arrival times, payload
bytes and failure schedules come from ``random.Random`` streams keyed by
the seed, and the program only ever sees the generated packets and
calls.  Modelled latencies are exact samples taken at the benchmark's own
sinks (or from calls into one histogram's ``observe``), never from the
registry's log2 buckets.

All four are open loop in simulated time, at or below the lossless
ceiling of their configuration, so no operation is expected to fail.
"""

from __future__ import annotations

import contextlib
import math
import random
import struct
import zlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.apps.l4lb import BACKEND_ACTIVE, L4LbController, L4LbProgram
from repro.apps.programs import (
    CountingProgram,
    RemoteBufferProgram,
    RemoteLookupProgram,
)
from repro.cluster import MemoryPool, ReplicatedStateStore, ShardedLookupTable
from repro.core.lookup_table import (
    ACTION_SET_DSCP,
    LookupTableConfig,
    RemoteAction,
    RemoteLookupTable,
)
from repro.core.packet_buffer import (
    ENTRY_SEQ_BYTES,
    PacketBufferConfig,
    RemotePacketBuffer,
)
from repro.core.state_store import (
    ATOMIC_OPERAND_BYTES,
    RemoteStateStore,
    StateStoreConfig,
)
from repro.faults import Corrupt, FaultPlan
from repro.linkguard import LinkGuard
from repro.net.addresses import Ipv4Address
from repro.net.headers import Ipv4Header
from repro.obs import Histogram
from repro.policies import BreakerPolicy
from repro.rdma.headers import BthHeader
from repro.rdma.memory import TIER_FAST
from repro.rdma.packets import integrity_protected
from repro.rdma.rnic import TierProfile
from repro.resilience import CircuitBreakerConfig
from repro.sim.units import SEC, gbps, mib, usec
from repro.switches.hashing import FiveTuple
from repro.switches.traffic_manager import TrafficManagerConfig
from repro.testbed import DEFAULT_PROPAGATION_NS, build_testbed
from repro.tiering import TieredMemoryPool
from repro.workloads.factory import udp_between
from repro.workloads.zipf import ZipfGenerator

from checks import (
    check,
    check_counters_equal,
    check_exactly_once,
    check_floor,
)

#: Every benchmark packet starts its payload with this stamp, so a sink
#: can tell the benchmark's frames from RoCE and control traffic and
#: recover the operation number after the packet went through remote
#: memory and back.
MAGIC = b"PB"
STAMP = struct.Struct(">2sHI")  # magic, stream (sender), sequence number

#: Consistent-hash ring settings shared by every pooled workload.
RING_SEED = 1
RING_VNODES = 128


def stamp(stream: int, seq: int) -> bytes:
    return STAMP.pack(MAGIC, stream, seq)


def read_stamp(packet) -> Optional[Tuple[int, int]]:
    """(stream, seq) of a benchmark packet, or None for anything else."""
    payload = packet.payload
    if len(payload) < STAMP.size or payload[:2] != MAGIC:
        return None
    _magic, stream, seq = STAMP.unpack_from(payload)
    return stream, seq


def rng_for(seed: int, workload: str, purpose: str) -> random.Random:
    """An independent stream per (seed, workload, purpose)."""
    return random.Random(f"{seed}:{workload}:{purpose}")


def poisson_times(rng: random.Random, count: int, rate_pps: float,
                  start_ns: float = 1_000.0) -> List[float]:
    mean_gap = SEC / rate_pps
    times = []
    t = start_ns
    for _ in range(count):
        t += rng.expovariate(1.0) * mean_gap
        times.append(t)
    return times


def chain(sim, times: Sequence[float], fire: Callable[[int], None]) -> None:
    """Call ``fire(i)`` at ``times[i]``, keeping one event pending."""
    n = len(times)

    def tick(i: int) -> None:
        fire(i)
        if i + 1 < n:
            sim.schedule_at(times[i + 1], tick, i + 1)

    if n:
        sim.schedule_at(times[0], tick, 0)


def all_interfaces(tb) -> list:
    nodes = [tb.switch, *tb.hosts, *tb.memory_servers]
    return [iface for node in nodes for iface in node.interfaces.values()]


def rnic_total(tb, field_name: str) -> int:
    return sum(
        getattr(host.rnic.stats, field_name)
        for host in [*tb.hosts, *tb.memory_servers]
    )


@dataclass
class RoundResult:
    """What one round of a workload did, in modelled terms only."""

    attempted: int
    completed: int
    #: Exact modelled latency samples (ns), one per completed operation
    #: (per FAA operation for ``faa-tiered``).
    latencies_ns: List[float]
    #: Modelled time from the first offered operation to the last
    #: completion (ns).
    sim_span_ns: float
    injected_loss: int = 0
    #: Modelled per-layer counts, exact at a seed.
    counts: Dict[str, float] = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return self.attempted - self.completed


def scoped_total(registry, prefix: str, suffix: str) -> float:
    """Sum of the registry's metrics named ``<prefix>....<suffix>``."""
    return sum(
        value for name, value in registry.snapshot().items()
        if name.startswith(prefix) and name.endswith("." + suffix)
    )


def ratio(numerator: float, denominator: float) -> float:
    """numerator / denominator; 0 when there is nothing to divide by."""
    return numerator / denominator if denominator else 0.0


def common_counts(tb, ops: int, *, lookups: Sequence = (),
                  counter_updates: int = 0, replicated=None,
                  controller=None) -> Dict[str, float]:
    """Every per-layer count, from public stats and the registry.

    Each workload reports the same set, measured the same way: a layer
    the workload does not use reads 0 because it did nothing.  *lookups*
    are the ``RemoteLookupTable`` instances whose READs resolve misses;
    *counter_updates* is how many counter updates the workload offered
    its state store; *replicated* and *controller* are the
    ``ReplicatedStateStore`` and ``L4LbController``, where there are any.
    """
    registry = tb.sim.obs.registry
    frames = sum(iface.tx_packets for iface in all_interfaces(tb))
    misses = registry.total("remote_lookups")
    local_hits = registry.total("local_hits")
    lookup_reads = sum(
        registry.value(f"{table.rocegen.metrics.name}.reads_issued", 0)
        for table in lookups
    )
    faa_ops = registry.total("operations_issued")
    fast_hits = scoped_total(registry, "tiering.", "tier[fast].hits")
    dram_hits = scoped_total(registry, "tiering.", "tier[dram].hits")
    return {
        "sim.events": tb.sim.events_processed,
        "net.frames": frames,
        "net.wire_bytes": sum(iface.tx_bytes for iface in all_interfaces(tb)),
        "net.frames_per_op": ratio(frames, ops),
        "rdma.reads": rnic_total(tb, "reads_executed"),
        "rdma.writes": rnic_total(tb, "writes_executed"),
        "rdma.atomics": rnic_total(tb, "atomics_executed"),
        "rdma.bytes_read": rnic_total(tb, "bytes_read"),
        "rdma.bytes_written": rnic_total(tb, "bytes_written"),
        "rdma.naks": rnic_total(tb, "naks_sent"),
        "rdma.retransmissions": rnic_total(tb, "retransmissions"),
        "switches.tm_peak_bytes": tb.switch.tm.peak_used_bytes,
        "switches.tm_drops": tb.switch.tm.total_dropped_packets,
        "core.remote_lookups": misses,
        "core.reads_per_miss": ratio(lookup_reads, misses),
        "core.cache_hit_ratio": ratio(local_hits, local_hits + misses),
        "core.faa_ops_issued": faa_ops,
        "core.faa_updates_per_op": ratio(counter_updates, faa_ops),
        "core.pktbuf_stored": registry.total("stored_packets"),
        "core.pktbuf_loaded": registry.total("loaded_packets"),
        "cuckoo.kicks": registry.total("kicks"),
        "tiering.promotions": scoped_total(
            registry, "tiering.", "tier[fast].promotions"),
        "tiering.demotions": scoped_total(
            registry, "tiering.", "tier[dram].demotions"),
        "tiering.moves_skipped": scoped_total(
            registry, "tiering.", "moves_skipped"),
        "tiering.fast_hit_ratio": ratio(fast_hits, fast_hits + dram_hits),
        "cluster.counters_repaired": 0 if replicated is None
        else replicated.cluster_stats.counters_repaired,
        "linkguard.resent": scoped_total(registry, "linkguard[", "resent"),
        "linkguard.masked_losses": scoped_total(
            registry, "linkguard[", "masked_losses"),
        "resilience.breaker_opens": scoped_total(
            registry, "resilience.", "opens"),
        "faults.corrupted_frames": scoped_total(registry, "faults.", "corrupted"),
        "apps.connections_migrated": 0 if controller is None
        else controller.stats.connections_migrated,
    }


# ---------------------------------------------------------------------------
# lookup-miss: bounce lookups over a sharded cuckoo table, cache off
# ---------------------------------------------------------------------------


class LookupMiss:
    """EMOMA (2,4)-cuckoo table sharded over 2 servers, SRAM cache off.

    An operation is one packet of a 1M-flow Zipf (alpha=1) population
    whose remote miss is resolved and which is delivered carrying the
    action installed for its flow.
    """

    name = "lookup-miss"
    SERVERS = 2
    POPULATION = 1_000_000
    PACKET_BYTES = 64
    #: 80% of the 2-server pool's lossless ceiling (1.25 M misses/s per
    #: server): close enough to load the RNICs, far enough that the
    #: queueing tail does not swing with each seed's shard imbalance.
    RATE_PPS = 2.0e6
    #: The cuckoo layout fetches a miss's bucket pair in one READ.
    READS_PER_MISS = 1

    def __init__(self, seed: int, packets: int = 5_000) -> None:
        self.seed = seed
        self.packets = packets

    def setup(self) -> None:
        seed, name = self.seed, self.name
        tb = build_testbed(
            n_hosts=2,
            n_memory_servers=self.SERVERS,
            tm_config=TrafficManagerConfig(),
        )
        self.tb = tb
        pool = MemoryPool(tb.controller, vnodes=RING_VNODES, seed=RING_SEED)
        for server, port in zip(tb.memory_servers, tb.server_ports):
            pool.add_server(server, port)
        program = RemoteLookupProgram()
        for host, port in zip(tb.hosts, tb.host_ports):
            program.install(host.eth.mac, port)
        tb.switch.bind_program(program)

        zipf = ZipfGenerator(self.POPULATION, 1.0, rng_for(seed, name, "ranks"))
        self.ranks = [zipf.sample() for _ in range(self.packets)]
        distinct = sorted(set(self.ranks))
        # Sized from the packet count, which bounds the distinct flows, so
        # the table's geometry does not change with the seed.
        entries = 1 << max(12, math.ceil(math.log2(self.packets / 0.5)))
        config = LookupTableConfig(
            entries=entries, cache_entries=0, layout="cuckoo", hash_seed=seed
        )
        self.table = ShardedLookupTable(tb.switch, pool, config=config)
        program.use_lookup_table(self.table)
        tb.controller.install_hash_seeds(self.table, seed)

        src, dst = tb.hosts
        action_rng = rng_for(seed, name, "actions")
        self.ports: Dict[int, Tuple[int, int]] = {}
        self.dscp: Dict[int, int] = {}
        for rank in distinct:
            ports = (1024 + rank % 60_000, 1024 + rank // 60_000)
            dscp = action_rng.randrange(1, 64)
            self.ports[rank] = ports
            self.dscp[rank] = dscp
            flow = FiveTuple(
                src_ip=src.eth.ip.value, dst_ip=dst.eth.ip.value, protocol=17,
                src_port=ports[0], dst_port=ports[1],
            )
            self.table.install(flow, RemoteAction(ACTION_SET_DSCP, dscp))

        self.times = poisson_times(
            rng_for(seed, name, "arrivals"), self.packets, self.RATE_PPS
        )
        self.delivered: Dict[int, int] = {}
        self.latencies: List[float] = []
        self.last_delivery = 0.0
        self.duplicates = 0
        dst.packet_handlers.append(self._sink)
        pad = b"\x00" * (self.PACKET_BYTES - 42 - STAMP.size)
        packets = [
            udp_between(src, dst, src_port=self.ports[rank][0],
                        dst_port=self.ports[rank][1],
                        payload=stamp(0, i) + pad)
            for i, rank in enumerate(self.ranks)
        ]
        chain(tb.sim, self.times, lambda i: src.send(packets[i]))

    def _sink(self, packet, interface) -> None:
        mark = read_stamp(packet)
        if mark is None:
            return
        seq = mark[1]
        if seq in self.delivered:
            self.duplicates += 1
            return
        self.delivered[seq] = packet.require(Ipv4Header).dscp
        now = self.tb.sim.now
        self.latencies.append(now - self.times[seq])
        self.last_delivery = now

    def run(self) -> None:
        self.tb.sim.run()

    def finish(self) -> RoundResult:
        tb, table = self.tb, self.table
        check_exactly_once("lookup-miss.delivered_once", self.duplicates)
        for seq, dscp in self.delivered.items():
            check(
                "lookup-miss.installed_action",
                dscp == self.dscp[self.ranks[seq]],
                f"packet {seq} carries dscp {dscp}, installed "
                f"{self.dscp[self.ranks[seq]]}",
            )
        stats = table.stats
        registry = tb.sim.obs.registry
        reads = sum(
            registry.value(f"{shard.rocegen.metrics.name}.reads_issued", 0)
            for shard in table.shards.values()
        )
        check(
            "lookup-miss.every_packet_a_miss",
            stats.remote_lookups == self.packets,
            f"{stats.remote_lookups} remote lookups for {self.packets} packets",
        )
        check(
            "lookup-miss.one_read_per_miss",
            reads == self.READS_PER_MISS * stats.remote_lookups,
            f"{reads} READs for {stats.remote_lookups} misses",
        )
        # host->switch, switch->server, server->switch, switch->host.
        check_floor(
            "lookup-miss.latency_floor", self.latencies,
            4 * DEFAULT_PROPAGATION_NS,
        )
        check(
            "lookup-miss.delivered_all",
            len(self.delivered) == self.packets,
            f"{len(self.delivered)} of {self.packets} packets delivered",
        )
        completed = len(self.delivered)
        return RoundResult(
            attempted=self.packets,
            completed=completed,
            latencies_ns=self.latencies,
            sim_span_ns=self.last_delivery - self.times[0],
            counts=common_counts(tb, completed,
                                 lookups=list(table.shards.values())),
        )


# ---------------------------------------------------------------------------
# faa-tiered: bursty Zipf FAA updates into a tiered state store
# ---------------------------------------------------------------------------


#: The RDCA cache-resident service profile of the fast tier.
FAST_PROFILE = TierProfile(read_latency_ns=60.0, atomic_rate_ops=40e6)


class FaaTiered:
    """Frequency placement over a 5% fast window of a FAA counter array.

    An operation is one counter update that lands: after the run, every
    counter read back equals the count tallied from the schedule.
    """

    name = "faa-tiered"
    POPULATION = 1_000_000
    COUNTERS = 1 << 12
    UNITS_PER_BLOCK = 64
    FAST_FRACTION = 0.05
    #: Bursts of back-to-back updates with quiet gaps: busy blocks never
    #: move, so online promotion needs the gaps.
    GAP_NS = 350.0
    BURST_OPS = 200
    QUIET_NS = 20_000.0
    #: Operations issued in the first 30% of the schedule, while the
    #: placement policy learns the hot set, give no latency samples.
    WARMUP = 0.3

    def __init__(self, seed: int, updates: int = 12_000) -> None:
        self.seed = seed
        self.updates = updates

    def setup(self) -> None:
        seed, name = self.seed, self.name
        tb = build_testbed(n_hosts=2)
        self.tb = tb
        program = CountingProgram()
        for host, port in zip(tb.hosts, tb.host_ports):
            program.install(host.eth.mac, port)
        tb.switch.bind_program(program)
        tb.memory_server.rnic.config.tier_profiles = {TIER_FAST: FAST_PROFILE}

        total_blocks = -(-self.COUNTERS // self.UNITS_PER_BLOCK)
        fast_blocks = max(1, round(self.FAST_FRACTION * total_blocks))
        self.pool = TieredMemoryPool(
            tb.controller,
            policy="frequency",
            policy_seed=seed,
            fast_capacity_bytes=fast_blocks * self.UNITS_PER_BLOCK
            * ATOMIC_OPERAND_BYTES,
            tick_ns=15_000.0,
            seed=seed,
        )
        member = self.pool.add_server(tb.memory_server, tb.server_port)
        geometry = self.pool.tier_object(
            "counters", ATOMIC_OPERAND_BYTES, self.COUNTERS,
            units_per_block=self.UNITS_PER_BLOCK, member=member,
            fast_blocks=fast_blocks,
        )
        self.store = RemoteStateStore(
            tb.switch,
            config=StateStoreConfig(counters=self.COUNTERS, reliable=True),
            tiering=geometry,
        )
        program.use_state_store(self.store)

        zipf = ZipfGenerator(self.POPULATION, 1.0, rng_for(seed, name, "ranks"))
        self.indices = [zipf.sample() % self.COUNTERS for _ in range(self.updates)]
        self.tally: Dict[int, int] = {}
        for index in self.indices:
            self.tally[index] = self.tally.get(index, 0) + 1
        # Bursts of BURST_OPS updates, Poisson inside a burst.
        gap_rng = rng_for(seed, name, "gaps")
        self.times = []
        t = 1_000.0
        for n in range(self.updates):
            if n and n % self.BURST_OPS == 0:
                t += self.QUIET_NS
            self.times.append(t)
            t += gap_rng.expovariate(1.0) * self.GAP_NS
        warm_from = self.times[int(self.WARMUP * self.updates)]

        occupancy = tb.sim.obs.registry.get(
            f"{self.pool.metrics.name}.tier[fast].occupancy"
        )
        self.occupancy_seen = 0
        store = self.store

        def update(i: int) -> None:
            self.occupancy_seen = max(self.occupancy_seen, occupancy.value)
            store.update(self.indices[i], 1)

        chain(tb.sim, self.times, update)

        # Exact modelled latency: every issue->ACK sample the store
        # observes into its own histogram, recorded as it happens.
        self.latencies: List[float] = []
        self.last_ack = 0.0
        target = self.store.metrics.histogram("op_latency_ns")
        sim = tb.sim
        samples = self.latencies
        original = Histogram.observe

        def observe(hist, value, _original=original):
            if hist is target:
                now = sim.now
                if now - value >= warm_from:
                    samples.append(value)
                self.last_ack = now
            _original(hist, value)

        self._restore = original
        Histogram.observe = observe

    def run(self) -> None:
        self.tb.sim.run()
        self.store.flush_all()
        self.tb.sim.run()

    def finish(self) -> RoundResult:
        Histogram.observe = self._restore
        store, pool = self.store, self.pool
        readback = {
            index: store.read_counter_via_control_plane(index)
            for index in range(self.COUNTERS)
        }
        expected = {index: self.tally.get(index, 0) for index in readback}
        lost = sum(max(0, expected[i] - readback[i]) for i in expected)
        check_counters_equal("faa-tiered.counters_match_tally", readback, expected)
        registry = self.tb.sim.obs.registry
        scope = pool.metrics.name
        peak = registry.value(f"{scope}.tier[fast].occupancy_peak", 0)
        check(
            "faa-tiered.fast_tier_bounded",
            max(peak, self.occupancy_seen) <= pool.fast_capacity_bytes,
            f"fast occupancy reached {max(peak, self.occupancy_seen)} B of "
            f"{pool.fast_capacity_bytes} B",
        )
        completed = self.updates - lost
        return RoundResult(
            attempted=self.updates,
            completed=completed,
            latencies_ns=self.latencies,
            sim_span_ns=self.last_ack - self.times[0],
            counts=common_counts(self.tb, completed,
                                 counter_updates=self.updates),
        )


# ---------------------------------------------------------------------------
# incast-pktbuf: 8-to-1 incast rescued by the striped remote packet buffer
# ---------------------------------------------------------------------------


class IncastPktbuf:
    """The §2.1 incast at reduced size: 8 senders, 1500 B frames, 40 Gbps.

    The switch buffer and burst keep the paper's ratio (12 MB : 50 MB);
    the remote packet buffer is striped over 8 servers and fed by the
    traffic manager's watermark diversion.  An operation is one burst
    packet delivered exactly once, in per-sender order, intact.
    """

    name = "incast-pktbuf"
    SENDERS = 8
    FRAME_BYTES = 1500
    LINK_BPS = gbps(40)
    SCALE_BUFFER_PER_PACKET = mib(12) / (50_000_000 / 1500)

    def __init__(self, seed: int, packets: int = 6_000) -> None:
        self.seed = seed
        self.packets = packets

    def setup(self) -> None:
        seed, name = self.seed, self.name
        senders = self.SENDERS
        # Per-sender packet counts vary by up to 5% around an even share,
        # and starts are jittered within a microsecond.
        shape = rng_for(seed, name, "shape")
        base = self.packets // senders
        self.counts = [
            base + shape.randint(-base // 20, base // 20) for _ in range(senders)
        ]
        self.starts = [1_000.0 + shape.uniform(0.0, 1_000.0)
                       for _ in range(senders)]
        self.burst_packets = sum(self.counts)
        self.burst_bytes = self.burst_packets * self.FRAME_BYTES
        buffer_bytes = int(self.burst_packets * self.SCALE_BUFFER_PER_PACKET)

        tb = build_testbed(
            n_hosts=senders + 1,
            n_memory_servers=senders,
            tm_config=TrafficManagerConfig(buffer_bytes=buffer_bytes),
        )
        self.tb = tb
        self.receiver = tb.hosts[senders]
        program = RemoteBufferProgram()
        for host, port in zip(tb.hosts, tb.host_ports):
            program.install(host.eth.mac, port)
        tb.switch.bind_program(program)
        entry_bytes = self.FRAME_BYTES + ENTRY_SEQ_BYTES
        per_server = self.burst_bytes // senders + 64 * entry_bytes
        self.buffer = RemotePacketBuffer(
            tb.switch,
            tb.open_channels(per_server),
            protected_port=tb.host_ports[senders],
            config=PacketBufferConfig(
                entry_bytes=entry_bytes,
                high_watermark_bytes=int(buffer_bytes * 0.6),
                low_watermark_bytes=int(buffer_bytes * 0.05),
                max_outstanding_reads=4,
            ),
        )
        program.use_packet_buffer(self.buffer)

        pattern_rng = rng_for(seed, name, "payload")
        body = self.FRAME_BYTES - 42 - STAMP.size
        self.patterns = [pattern_rng.randbytes(body) for _ in range(senders)]
        template = udp_between(
            tb.hosts[0], self.receiver, packet_size=self.FRAME_BYTES
        )
        interval = template.wire_len * 8 * SEC / self.LINK_BPS
        self.times = [
            [start + k * interval for k in range(count)]
            for start, count in zip(self.starts, self.counts)
        ]
        self.next_seq = [0] * senders
        self.bad_order = 0
        self.payload_crcs: List[List[int]] = [[] for _ in range(senders)]
        self.duplicates = 0
        self.received = 0
        self.received_bytes = 0
        self.latencies: List[float] = []
        self.last_arrival = 0.0
        self.receiver.packet_handlers.append(self._sink)
        for s in range(senders):
            host = tb.hosts[s]
            packets = [
                udp_between(host, self.receiver, src_port=40_001 + s,
                            dst_port=40_000,
                            payload=stamp(s, k) + self.patterns[s])
                for k in range(self.counts[s])
            ]
            chain(tb.sim, self.times[s],
                  lambda k, host=host, packets=packets: host.send(packets[k]))

    def _sink(self, packet, interface) -> None:
        mark = read_stamp(packet)
        if mark is None:
            return
        sender, seq = mark
        expected = self.next_seq[sender]
        if seq < expected:
            self.duplicates += 1
            return
        if seq != expected:
            self.bad_order += 1
        self.next_seq[sender] = seq + 1
        self.payload_crcs[sender].append(zlib.crc32(packet.payload[STAMP.size:]))
        self.received += 1
        self.received_bytes += packet.buffer_len
        now = self.tb.sim.now
        self.latencies.append(now - self.times[sender][seq])
        self.last_arrival = now

    def run(self) -> None:
        self.tb.sim.run()

    def finish(self) -> RoundResult:
        check_exactly_once("incast-pktbuf.received_once", self.duplicates)
        # In order, and up to each sender's last packet: a lost tail
        # leaves a sender short.
        short = sum(
            count - got for count, got in zip(self.counts, self.next_seq)
        )
        check(
            "incast-pktbuf.per_sender_order",
            self.bad_order == 0 and short == 0,
            f"{self.bad_order} packets arrived out of per-sender order, "
            f"{short} never arrived",
        )
        damaged = sum(
            crc != zlib.crc32(pattern)
            for pattern, crcs in zip(self.patterns, self.payload_crcs)
            for crc in crcs
        )
        check(
            "incast-pktbuf.payload_intact",
            damaged == 0,
            f"{damaged} packets arrived with damaged payload",
        )
        check(
            "incast-pktbuf.bytes_match_burst",
            self.received == self.burst_packets
            and self.received_bytes == self.burst_bytes,
            f"received {self.received_bytes} B in {self.received} packets, "
            f"burst is {self.burst_bytes} B",
        )
        floor_ns = self.burst_bytes * 8 * SEC / self.LINK_BPS
        completion = self.last_arrival - min(self.starts)
        check_floor(
            "incast-pktbuf.completion_floor", [completion], floor_ns
        )
        stats = self.buffer.stats
        check(
            "incast-pktbuf.buffer_used",
            stats.stored_packets > 0 and stats.loaded_packets == stats.stored_packets,
            f"stored {stats.stored_packets}, loaded {stats.loaded_packets}",
        )
        return RoundResult(
            attempted=self.burst_packets,
            completed=self.received,
            latencies_ns=self.latencies,
            sim_span_ns=completion,
            counts=common_counts(self.tb, self.received),
        )


# ---------------------------------------------------------------------------
# l4lb-soak: the combined-failure L4 load-balancer soak
# ---------------------------------------------------------------------------


def breaker_config() -> CircuitBreakerConfig:
    return CircuitBreakerConfig(
        fail_threshold=3,
        close_threshold=1,
        open_timeout_ns=usec(100),
        probe_timeout_ns=usec(60),
        probe_jitter_ns=usec(10),
        backoff=2.0,
    )


class L4lbSoak:
    """Cuckoo connection table with an LRU cache, K=2 replicated counters,
    a mid-run backend kill, a graceful drain and 1e-3 table-link
    corruption under LinkGuard, all in one run.

    An operation is one VIP packet forwarded to a backend.  Frames the
    killed backend's dark link swallows are the injected fault, counted
    as ``injected_loss``, not as failures.
    """

    name = "l4lb-soak"
    VIP = "10.9.9.9"
    BACKENDS = 4
    POPULATION_ALPHA = 1.0
    #: Per-stream rate.  A cold cache turns every packet into a miss, so
    #: the rate stays below the single table server's miss ceiling
    #: (1.25 M/s) even when wave 2 and the new connections overlap.
    RATE_PPS = 0.8e6
    CORRUPT_RATE = 1e-3
    CACHE_ENTRIES = 1024
    KILL = "backend1"
    DRAIN = "backend2"

    def __init__(self, seed: int, connections: int = 3_000,
                 packets: int = 3_600) -> None:
        self.seed = seed
        self.connections = connections
        self.packets = packets
        self.new_connections = max(1, connections // 10)
        self.new_packets = max(1, packets // 6)

    def setup(self) -> None:
        self._scope = contextlib.ExitStack()
        # ICRC on, so the corrupting link's damage is detected loss.
        self._scope.enter_context(integrity_protected())
        seed, name = self.seed, self.name
        backends = self.BACKENDS
        vip = Ipv4Address(self.VIP)
        tb = build_testbed(n_hosts=2, n_memory_servers=backends + 1, seed=seed)
        self.tb = tb
        table_server, table_port = tb.memory_servers[0], tb.server_ports[0]
        backend_servers = tb.memory_servers[1:]
        backend_ports = tb.server_ports[1:]
        pool = MemoryPool(
            tb.controller, vnodes=RING_VNODES, seed=RING_SEED, fail_after=8
        )
        for i, (server, port) in enumerate(zip(backend_servers, backend_ports)):
            pool.add_server(server, port, name=f"backend{i}")
        self.pool = pool
        program = L4LbProgram(vip)
        for host, port in zip(tb.hosts, tb.host_ports):
            program.install(host.eth.mac, port)
        tb.switch.bind_program(program)
        self.program = program

        total = self.connections + self.new_connections
        table_config = LookupTableConfig(
            entries=1 << max(12, math.ceil(math.log2(total / 0.75))),
            packet_slot_bytes=256,
            cache_entries=self.CACHE_ENTRIES,
            layout="cuckoo",
            hash_seed=seed,
            policy="lru",
        )
        channel = tb.controller.open_channel(
            table_server, table_port, table_config.region_bytes,
            name="l4lb:connections",
        )
        self.table = RemoteLookupTable(tb.switch, channel, config=table_config)
        program.use_connection_table(self.table)
        self.store = ReplicatedStateStore(
            tb.switch, pool,
            config=StateStoreConfig(
                counters=2 * backends, reliable=True, retry_timeout_ns=50_000.0
            ),
            replication=2,
        )
        program.use_counter_store(self.store)
        controller = L4LbController(program, self.table, self.store, pool,
                                    seed=seed)
        self.controller = controller
        for i, (server, port) in enumerate(zip(backend_servers, backend_ports)):
            controller.add_backend(
                f"backend{i}", server.eth.ip, server.eth.mac, port,
                member=pool.member(f"backend{i}"),
            )
        self.healers = controller.enable_self_healing(
            policy_for=lambda member: BreakerPolicy(
                config=breaker_config(),
                rng=rng_for(seed, name, f"breaker[{member.name}]"),
            ),
            give_up_probes=2,
        )
        self.guard = LinkGuard(tb.server_links[0])
        plan = FaultPlan(seed=seed)
        self.wire = plan.on_link(tb.server_links[0], name="table-link")
        plan.at(0.0, self.wire, Corrupt(self.CORRUPT_RATE))
        plan.install(tb.sim)

        # The benchmark's own view of the switch->backend frames and of
        # the deliveries, keyed by (stream, seq) stamps.
        self.backend_by_pip = {
            b.pip: b for b in controller.backends.values()
        }
        self.tapped: Dict[str, Dict[Tuple[int, int], int]] = {
            b: {} for b in controller.backends
        }
        self.delivered: Dict[Tuple[int, int], str] = {}
        self.duplicates = 0
        self.latencies: List[float] = []
        self.last_delivery = 0.0
        for i, (server, link) in enumerate(
            zip(backend_servers, tb.server_links[1:])
        ):
            bname = f"backend{i}"
            link.taps.append(self._tap_for(bname, link.b))
            server.packet_handlers.append(self._sink_for(bname))

        # Schedules: established waves 1 and 2 over one population, and a
        # new-connection wave from the second client after the churn.
        client, client2 = tb.hosts
        w1 = max(1, int(self.packets * 0.6))
        w2 = max(1, self.packets - w1)
        zipf = ZipfGenerator(self.connections, self.POPULATION_ALPHA,
                             rng_for(seed, name, "ranks"))
        new_zipf = ZipfGenerator(self.new_connections, self.POPULATION_ALPHA,
                                 rng_for(seed, name, "new-ranks"))
        gap = SEC / self.RATE_PPS
        w1_duration = w1 * gap
        self.kill_at = 0.5 * w1_duration
        self.drain_at = w1_duration + usec(800)
        resume_at = self.drain_at + usec(500)
        arrivals = rng_for(seed, name, "arrivals")
        # stream 0: wave 1, stream 1: wave 2, stream 2: new connections.
        self.streams = [
            ([zipf.sample() for _ in range(w1)],
             poisson_times(arrivals, w1, self.RATE_PPS, 0.0), client, 0),
            ([zipf.sample() for _ in range(w2)],
             poisson_times(arrivals, w2, self.RATE_PPS, resume_at), client, 0),
            ([new_zipf.sample() for _ in range(self.new_packets)],
             poisson_times(arrivals, self.new_packets, self.RATE_PPS,
                           resume_at), client2, 1),
        ]
        self.attempted = w1 + w2 + self.new_packets

        # Pre-admit the established population.
        for rank in range(self.connections):
            controller.admit(self.connection(client, 0, rank))

        victim = pool.member(self.KILL)
        self.victim_link = tb.server_links[
            1 + backend_servers.index(victim.server)
        ]

        def crash() -> None:
            self.victim_link.loss_probability = 1.0

        self.new_flows: List[FiveTuple] = []

        def admit_new() -> None:
            for rank in range(self.new_connections):
                flow = self.connection(client2, 1, rank)
                if controller.admit(flow) is not None:
                    self.new_flows.append(flow)

        tb.sim.schedule_at(self.kill_at, crash)
        tb.sim.schedule_at(self.drain_at, controller.drain_backend, self.DRAIN)
        tb.sim.schedule_at(resume_at, admit_new)
        # Frame sizes vary per packet, so byte counters and serialization
        # both depend on the seed.
        sizes = rng_for(seed, name, "sizes")
        for stream, (ranks, times, host, population) in enumerate(self.streams):
            other = client2 if host is client else client
            packets = []
            for i, rank in enumerate(ranks):
                sport, dport = self.ports(population, rank)
                pad = bytes(sizes.randint(64, 256) - 42 - STAMP.size)
                packet = udp_between(host, other, src_port=sport,
                                     dst_port=dport,
                                     payload=stamp(stream, i) + pad)
                packet.require(Ipv4Header).dst = vip
                packets.append(packet)
            chain(tb.sim, times,
                  lambda i, host=host, packets=packets: host.send(packets[i]))

    @staticmethod
    def ports(population: int, rank: int) -> Tuple[int, int]:
        return 1024 + population * 30_000 + rank % 30_000, 1024 + rank // 30_000

    def connection(self, host, population: int, rank: int) -> FiveTuple:
        sport, dport = self.ports(population, rank)
        return FiveTuple(
            src_ip=host.eth.ip.value, dst_ip=Ipv4Address(self.VIP).value,
            protocol=17, src_port=sport, dst_port=dport,
        )

    def _tap_for(self, bname: str, switch_side):
        tapped = self.tapped[bname]

        def tap(src, packet) -> None:
            if src is not switch_side or packet.find(BthHeader) is not None:
                return
            mark = read_stamp(packet)
            if mark is not None:
                tapped[mark] = packet.buffer_len

        return tap

    def _sink_for(self, bname: str):
        def sink(packet, interface) -> None:
            mark = read_stamp(packet)
            if mark is None:
                return
            if mark in self.delivered:
                self.duplicates += 1
                return
            self.delivered[mark] = bname
            now = self.tb.sim.now
            self.latencies.append(now - self.streams[mark[0]][1][mark[1]])
            self.last_delivery = now

        return sink

    def run(self) -> None:
        tb, store = self.tb, self.store
        tb.sim.run()
        # Quiesce: push every switch-side accumulation out and let it land.
        for _ in range(64):
            if store.pending_value == 0 and store.outstanding == 0:
                break
            store.flush_all()
            tb.sim.run()

    def finish(self) -> RoundResult:
        try:
            return self._finish()
        finally:
            self._scope.close()

    def _finish(self) -> RoundResult:
        controller, store = self.controller, self.store
        check_exactly_once("l4lb-soak.delivered_once", self.duplicates)
        # Counters against the benchmark's recount of switch->backend frames.
        recount: Dict[int, int] = {}
        readback: Dict[int, int] = {}
        for backend in controller.backends.values():
            frames = self.tapped[backend.name]
            conns = {self._flow_of(mark) for mark in frames}
            recount[backend.conns_index] = len(conns)
            recount[backend.bytes_index] = sum(frames.values())
            for index in (backend.conns_index, backend.bytes_index):
                readback[index] = store.read_counter(index)
        check_counters_equal("l4lb-soak.counters_match_recount", readback, recount)
        check_counters_equal(
            "l4lb-soak.zero_lost_updates",
            readback,
            {i: self.program.expected_counts.get(i, 0) for i in readback},
        )
        # Affinity: every delivery sanctioned by the controller's history.
        breaks = sum(
            1 for mark, bname in self.delivered.items()
            if bname not in controller.assignment_history(self._flow_of(mark))
        )
        check("l4lb-soak.affinity", breaks == 0,
              f"{breaks} deliveries broke connection affinity")
        # Loss on links other than the killed backend's.
        healthy_loss = sum(
            1
            for bname, frames in self.tapped.items() if bname != self.KILL
            for mark in frames if self.delivered.get(mark) != bname
        )
        check("l4lb-soak.healthy_links_lossless", healthy_loss == 0,
              f"{healthy_loss} frames lost on healthy backend links")
        active = {b.name for b in controller.backends.values()
                  if b.state == BACKEND_ACTIVE}
        misplaced = sum(
            1 for flow in self.new_flows
            if controller.placement.get(flow) not in active
        )
        check("l4lb-soak.new_on_active", misplaced == 0,
              f"{misplaced} new connections placed on inactive backends")
        corrupted = self.wire.effects.get("corrupted", 0)
        stats = controller.stats
        check(
            "l4lb-soak.failure_legs_fired",
            stats.kills_detected >= 1 and stats.drains_completed == 1
            and stats.drains_forced == 0 and corrupted > 0
            and self.table.stats.lookups_lost == 0,
            f"kills_detected={stats.kills_detected} drains_completed="
            f"{stats.drains_completed} drains_forced={stats.drains_forced} "
            f"corrupted={corrupted} lookups_lost={self.table.stats.lookups_lost}",
        )
        victim_frames = self.tapped[self.KILL]
        injected = sum(
            1 for mark in victim_frames if self.delivered.get(mark) != self.KILL
        )
        forwarded = self.program.forwarded_packets
        counts = common_counts(
            self.tb, forwarded, lookups=[self.table],
            counter_updates=store.cluster_stats.updates_replicated,
            replicated=store, controller=controller,
        )
        return RoundResult(
            attempted=self.attempted,
            completed=forwarded,
            latencies_ns=self.latencies,
            sim_span_ns=self.last_delivery - self.streams[0][1][0],
            injected_loss=injected,
            counts=counts,
        )

    def _flow_of(self, mark: Tuple[int, int]) -> FiveTuple:
        stream, seq = mark
        ranks, _times, host, population = self.streams[stream]
        return self.connection(host, population, ranks[seq])


WORKLOADS = {
    cls.name: cls for cls in (LookupMiss, FaaTiered, IncastPktbuf, L4lbSoak)
}
