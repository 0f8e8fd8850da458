"""Idle-slot counters exist only on MACs that read ``B_act``.

``build_scenario`` gives a counter to CORRECT flow destinations only.
Each counter draws from its own ``idle/<node>`` stream, so dropping
the unread ones must change nothing: every ``RunResult`` is compared
field for field with a run where every MAC is forced to count.
"""

import dataclasses

import pytest

from repro.experiments import scenarios
from repro.experiments.scenarios import (
    PROTOCOL_80211,
    PROTOCOL_CORRECT,
    ScenarioConfig,
    build_scenario,
    run_scenario,
)
from repro.mac.dcf import DcfMac
from repro.mac.observer import ObserverMac
from repro.net.topology import circle_topology
from repro.phy.constants import PhyTimings
from repro.phy.medium import Medium
from repro.phy.propagation import ShadowingModel
from repro.sim.engine import SimulationError, Simulator
from repro.sim.rng import RngRegistry


def _cell(protocol, with_interferers, pm):
    topo = circle_topology(
        8, misbehaving=(3,) if pm else (), pm_percent=pm,
        with_interferers=with_interferers,
    )
    return ScenarioConfig(topology=topo, protocol=protocol,
                          duration_us=1_000_000, seed=7)


CELLS = {
    "correct-two-flow-pm60": _cell(PROTOCOL_CORRECT, True, 60.0),
    "correct-honest": _cell(PROTOCOL_CORRECT, False, 0.0),
    "802.11-two-flow": _cell(PROTOCOL_80211, True, 0.0),
}


def _fields(result):
    return {
        f.name: vars(getattr(result, f.name)) if f.name == "collector"
        else getattr(result, f.name)
        for f in dataclasses.fields(result)
    }


@pytest.mark.parametrize("name", sorted(CELLS))
def test_results_bit_identical_to_counting_everywhere(name, monkeypatch):
    config = CELLS[name]
    lean = run_scenario(config)
    monkeypatch.setattr(scenarios, "reads_idle_slots", lambda *_: True)
    _, nodes, _ = build_scenario(config)
    assert all(node.mac.idle_counter is not None for node in nodes)
    counted = run_scenario(config)
    assert _fields(lean) == _fields(counted)


def _counters(config):
    _, nodes, _ = build_scenario(config)
    return {node.mac.node_id: node.mac.idle_counter is not None
            for node in nodes}


def test_only_correct_destinations_count():
    counters = _counters(CELLS["correct-two-flow-pm60"])
    # R (0) and the interferer sinks B (102), D (104) judge senders.
    assert {n for n, has in counters.items() if has} == {0, 102, 104}
    assert not any(_counters(CELLS["802.11-two-flow"]).values())


def _bare_mac(cls, **kwargs):
    sim = Simulator()
    registry = RngRegistry(1)
    medium = Medium(sim, ShadowingModel(), rng=registry.stream("shadowing"),
                    timings=PhyTimings())
    mac = cls(sim, medium, 0, registry, collector=None, **kwargs)
    medium.register(mac, (0.0, 0.0))
    return mac, registry


def test_hand_built_macs_count_by_default():
    mac, registry = _bare_mac(DcfMac)
    assert mac.idle_slots() == 0
    assert registry.has_stream("idle/0")


def test_observer_always_counts():
    mac, _ = _bare_mac(ObserverMac)
    assert mac.idle_counter is not None
    with pytest.raises(TypeError):
        _bare_mac(ObserverMac, count_idle_slots=False)


def test_reading_b_act_without_counter_raises():
    mac, registry = _bare_mac(DcfMac, count_idle_slots=False)
    assert not registry.has_stream("idle/0")
    # Channel edges and a crash/restart cycle still work without one.
    mac.on_channel_busy()
    mac.on_marginal_change()
    mac.on_channel_idle()
    mac.crash()
    mac.restart()
    with pytest.raises(SimulationError, match="no idle-slot counter"):
        mac.idle_slots()
