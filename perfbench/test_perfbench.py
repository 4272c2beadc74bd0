"""The benchmark's own tests.

Run from the repository root with ``python3 -m pytest perfbench``.  The
workloads run at reduced size; each negative test feeds one check a
wrong expectation and asserts that the check, by name, fails.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
for path in (SRC, HERE):
    if path not in sys.path:
        sys.path.insert(0, path)

from checks import (  # noqa: E402
    CheckFailed,
    check_counters_equal,
    check_exactly_once,
    check_floor,
    check_rounds_repeat,
)
from layers import LAYERS, Tracer, self_times  # noqa: E402
from run import modelled, percentile, signature, summarize  # noqa: E402
from workloads import (  # noqa: E402
    FaaTiered,
    IncastPktbuf,
    L4lbSoak,
    LookupMiss,
    RoundResult,
)

SEED = 7
SMALL = {
    LookupMiss: {"packets": 300},
    FaaTiered: {"updates": 1_500},
    IncastPktbuf: {"packets": 800},
    L4lbSoak: {"connections": 800, "packets": 2_400},
}


def small(cls, seed=SEED):
    workload = cls(seed, **SMALL[cls])
    workload.setup()
    workload.run()
    return workload


def fails(name, workload):
    with pytest.raises(CheckFailed) as info:
        workload.finish()
    assert info.value.name == name


# -- every workload, reduced, through all of its checks ------------------------


@pytest.mark.parametrize("cls", list(SMALL), ids=lambda c: c.name)
def test_reduced_run_passes_every_check(cls):
    result = small(cls).finish()
    assert result.attempted > 0
    assert result.failed == 0
    assert len(result.latencies_ns) > 0
    assert result.sim_span_ns > 0


@pytest.mark.parametrize("cls", list(SMALL), ids=lambda c: c.name)
def test_same_seed_same_model_traced_or_not(cls):
    plain = small(cls).finish()
    tracer = Tracer()
    tracer.install()
    try:
        traced = small(cls).finish()
    finally:
        tracer.uninstall()
    assert signature(traced) == signature(plain)
    assert modelled(traced) == modelled(plain)
    assert len(tracer.starts) > 0


def test_seed_moves_the_model():
    one = small(LookupMiss, seed=1).finish()
    two = small(LookupMiss, seed=2).finish()
    assert modelled(one) != modelled(two)


# -- span self-time arithmetic ---------------------------------------------------


def test_self_times_nested_layers_and_reentry():
    # core [0, 10] -> net [1, 7] -> core again [2, 5] -> rdma [3, 4];
    # then a second root, sim [12, 15].  Wall time is 20.
    core, net, rdma, sim = 0, 1, 2, 3
    starts = [0.0, 1.0, 2.0, 3.0, 12.0]
    ends = [10.0, 7.0, 5.0, 4.0, 15.0]
    layers = [core, net, core, rdma, sim]
    parents = [-1, 0, 1, 2, -1]
    own, unattributed = self_times(starts, ends, layers, parents, 20.0, 4)
    # core: (10 - 6) outer + (3 - 1) re-entered; net: 6 - 3; rdma: 1.
    assert own == [6.0, 3.0, 1.0, 3.0]
    assert unattributed == 7.0
    assert sum(own) + unattributed == 20.0


def test_same_layer_child_is_not_counted_twice():
    own, unattributed = self_times([0.0, 1.0], [4.0, 3.0], [0, 0], [-1, 0],
                                   4.0, 1)
    assert own == [4.0]
    assert unattributed == 0.0


def test_tracer_spans_add_up_to_wall():
    tracer = Tracer()
    tracer.install()
    tracer.begin()
    try:
        small(LookupMiss).finish()
    finally:
        tracer.end()
        tracer.uninstall()
    report = tracer.report()
    total = sum(v for k, v in report.items() if k.endswith(".self_s"))
    assert total == pytest.approx(tracer.wall_s, rel=1e-9)
    for layer in ("sim", "net", "rdma", "switches", "core", "cluster", "bench"):
        assert report[f"{layer}.self_s"] > 0, layer
    assert set(LAYERS) <= {k.split(".")[0] for k in report}


def test_tracer_uninstall_restores_the_program():
    from repro.net.node import Interface
    from repro.sim.simulator import Simulator

    before = (Simulator.schedule, Interface.send)
    tracer = Tracer()
    tracer.install()
    assert (Simulator.schedule, Interface.send) != before
    tracer.uninstall()
    assert (Simulator.schedule, Interface.send) == before


# -- runner-level checks -----------------------------------------------------------


def result_with(latencies, counts=None):
    return RoundResult(attempted=len(latencies), completed=len(latencies),
                       latencies_ns=latencies, sim_span_ns=1e6,
                       counts=counts or {"sim.events": 1})


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 0.5) == 50
    assert percentile(values, 0.99) == 99
    assert percentile([5.0], 0.99) == 5.0


def test_rounds_repeat_check_fails_on_a_different_round():
    first = result_with([1.0] * 1000)
    other = result_with([1.0] * 999 + [2.0])
    with pytest.raises(CheckFailed) as info:
        summarize("w", [(0.1, 1.0, first), (0.1, 1.0, other)])
    assert info.value.name == "w.rounds_repeat"


def test_p99_needs_a_thousand_samples():
    with pytest.raises(CheckFailed) as info:
        summarize("w", [(0.1, 1.0, result_with([1.0] * 999))])
    assert info.value.name == "w.p99_supported"


def test_trace_self_times_must_not_go_negative():
    tracer = Tracer()
    tracer.starts.append(0.0)
    tracer.ends.append(2.0)
    tracer.layers.append(0)
    tracer.parents.append(-1)
    tracer.wall_s = 1.0  # a span longer than the traced window
    with pytest.raises(CheckFailed) as info:
        summarize("w", [(0.1, 1.0, result_with([1.0] * 1000))], tracer)
    assert info.value.name == "w.trace_self_nonnegative"


# -- generic checks, fed wrong expectations --------------------------------------


def test_generic_checks_fail_on_wrong_expectations():
    with pytest.raises(CheckFailed):
        check_exactly_once("x", 1)
    with pytest.raises(CheckFailed):
        check_floor("x", [399.0], 400.0)
    with pytest.raises(CheckFailed):
        check_counters_equal("x", {0: 1}, {0: 2})
    with pytest.raises(CheckFailed):
        check_rounds_repeat("x", (1,), (2,))
    check_floor("x", [400.0], 400.0)
    check_counters_equal("x", {0: 1}, {0: 1})


# -- lookup-miss checks ------------------------------------------------------------


def test_lookup_installed_action_check():
    w = small(LookupMiss)
    w.dscp[w.ranks[0]] ^= 1
    fails("lookup-miss.installed_action", w)


def test_lookup_every_packet_a_miss_check():
    w = small(LookupMiss)
    w.packets += 1
    fails("lookup-miss.every_packet_a_miss", w)


def test_lookup_one_read_check():
    w = small(LookupMiss)
    w.READS_PER_MISS = 2
    fails("lookup-miss.one_read_per_miss", w)


def test_lookup_latency_floor_check():
    w = small(LookupMiss)
    w.latencies[0] = 4 * 100.0 - 1.0
    fails("lookup-miss.latency_floor", w)


def test_lookup_delivered_all_check():
    w = small(LookupMiss)
    del w.delivered[w.packets - 1]  # the last packet never arrived
    fails("lookup-miss.delivered_all", w)


def test_lookup_delivered_once_check():
    w = small(LookupMiss)
    w.duplicates = 1
    fails("lookup-miss.delivered_once", w)


# -- faa-tiered checks ---------------------------------------------------------------


def test_faa_counters_check():
    w = small(FaaTiered)
    w.tally[w.indices[0]] += 1
    fails("faa-tiered.counters_match_tally", w)


def test_faa_fast_tier_bound_check():
    w = small(FaaTiered)
    w.pool.fast_capacity_bytes = 0
    fails("faa-tiered.fast_tier_bounded", w)


# -- incast-pktbuf checks ---------------------------------------------------------------


def test_incast_payload_check():
    w = small(IncastPktbuf)
    w.patterns[3] = bytes(len(w.patterns[3]))
    fails("incast-pktbuf.payload_intact", w)


def test_incast_order_check():
    w = IncastPktbuf(SEED, **SMALL[IncastPktbuf])
    w.setup()
    w.next_seq[2] = -1  # expect a packet before the first one
    w.run()
    fails("incast-pktbuf.per_sender_order", w)


def drop_tail(w, sender):
    """Forget the last packet *sender*'s receiver saw, as if it was lost."""
    w.next_seq[sender] -= 1
    w.payload_crcs[sender].pop()
    w.received -= 1
    w.received_bytes -= w.FRAME_BYTES


def test_incast_order_check_catches_tail_loss():
    w = small(IncastPktbuf)
    drop_tail(w, 5)
    fails("incast-pktbuf.per_sender_order", w)


def test_incast_bytes_check_catches_tail_loss():
    w = small(IncastPktbuf)
    drop_tail(w, 5)
    w.next_seq[5] += 1  # order intact, so the bytes check must see it
    fails("incast-pktbuf.bytes_match_burst", w)


def test_incast_received_once_check():
    w = small(IncastPktbuf)
    w.duplicates = 1
    fails("incast-pktbuf.received_once", w)


def test_incast_bytes_check():
    w = small(IncastPktbuf)
    w.burst_bytes += 1
    fails("incast-pktbuf.bytes_match_burst", w)


def test_incast_completion_floor_check():
    w = small(IncastPktbuf)
    w.LINK_BPS = 4e9  # expect a ten times slower drain
    fails("incast-pktbuf.completion_floor", w)


def test_incast_buffer_used_check():
    # A switch buffer larger than the burst never reaches the watermark.
    w = IncastPktbuf(SEED, **SMALL[IncastPktbuf])
    w.SCALE_BUFFER_PER_PACKET = 2 * w.FRAME_BYTES
    w.setup()
    w.run()
    fails("incast-pktbuf.buffer_used", w)


# -- l4lb-soak checks ---------------------------------------------------------------------


def test_l4lb_recount_check():
    w = small(L4lbSoak)
    mark = next(iter(w.tapped["backend3"]))
    w.tapped["backend0"][mark] = 100  # a frame the switch never sent there
    fails("l4lb-soak.counters_match_recount", w)


def test_l4lb_lost_updates_check():
    w = small(L4lbSoak)
    w.program.expected_counts[1] = w.program.expected_counts.get(1, 0) + 1
    fails("l4lb-soak.zero_lost_updates", w)


def test_l4lb_affinity_check():
    w = small(L4lbSoak)
    mark = next(m for m, b in w.delivered.items() if b == "backend0")
    w.delivered[mark] = "backend3"
    fails("l4lb-soak.affinity", w)


def test_l4lb_healthy_links_check():
    w = small(L4lbSoak)
    mark = next(m for m, b in w.delivered.items() if b == "backend0")
    del w.delivered[mark]
    fails("l4lb-soak.healthy_links_lossless", w)


def test_l4lb_new_connections_check():
    w = small(L4lbSoak)
    w.new_flows.append(w.connection(w.tb.hosts[1], 1, 10**6))
    fails("l4lb-soak.new_on_active", w)


def test_l4lb_failure_legs_check():
    w = L4lbSoak(SEED, **SMALL[L4lbSoak])
    w.CORRUPT_RATE = 0.0
    w.setup()
    w.run()
    fails("l4lb-soak.failure_legs_fired", w)


def test_l4lb_delivered_once_check():
    w = small(L4lbSoak)
    w.duplicates = 1
    fails("l4lb-soak.delivered_once", w)


# -- the command line --------------------------------------------------------------------


def test_runner_refuses_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in ("run.py", "workloads.py", "checks.py", "layers.py"):
        (bench / name).write_text(open(os.path.join(HERE, name)).read())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lookup-miss",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
