"""Golden control-plane digests: every dispatched batch, pinned.

The cross-engine digest tests compare two media driven by one shared
control plane, so a flipped SINR verdict, a different fake filler or
another trigger choice changes both sides alike and goes unnoticed.
These pins close that gap: each run hashes every ``RelativeBatch`` the
controller dispatched (slots, entries with fake flags, inbound
triggers, duties, ROP polls and untriggerable links, via
:func:`repro.service.revision.batch_digest`) into one sha256, and the
service run hashes its per-revision digests the same way.

The values were computed before the control plane moved onto
precomputed gain tables; they must never be regenerated to absorb a
difference.  A mismatch means the schedules changed.
"""

import hashlib

import pytest

from repro.experiments.common import run_scheme
from repro.service import ControllerService, IncrementalController
from repro.service.revision import batch_digest
from repro.service.scenario import build_scenario
from repro.topology.builder import (build_t_topology, fig1_topology,
                                    random_t_topology)
from repro.topology.trace import two_building_trace


def _chain(digests):
    h = hashlib.sha256()
    for digest in digests:
        h.update(digest.encode())
        h.update(b"\n")
    return h.hexdigest()


def _domino_digest(topology, **run_kwargs):
    result = run_scheme("domino", topology, engine="matrix", **run_kwargs)
    batches = result.controller.batches
    assert batches, "a run that dispatched nothing pins nothing"
    return len(batches), _chain(batch_digest(b) for b in batches)


GOLDEN_RUNS = {
    "fig02": (
        lambda: _domino_digest(fig1_topology(), seed=1,
                               horizon_us=200_000.0, saturated=True),
        (37,
         "2e17d67806f46b0fa9702092ec4ee56200ee315e845f24473e2680663e9042b7"),
    ),
    "fig12": (
        lambda: _domino_digest(
            build_t_topology(two_building_trace(), 10, 2, seed=3), seed=1,
            horizon_us=100_000.0, downlink_mbps=10.0, uplink_mbps=2.0),
        (18,
         "07f5d0b2e118b909e0db04b75b0f32895736af076d3a32c0de166909b0a9c7b8"),
    ),
    "fig14": (
        lambda: _domino_digest(random_t_topology(20, 3, seed=100), seed=100,
                               horizon_us=100_000.0, downlink_mbps=10.0,
                               uplink_mbps=10.0),
        (19,
         "e30798e2c3dde9f9f5f87d532e92faa358e4f44b7ce57ad1231b4ff46f948664"),
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_domino_batches_match_golden(name):
    run, expected = GOLDEN_RUNS[name]
    assert run() == expected


def _churn_scenario():
    """The service-loadtest scenario, shortened: churn, RSS wobble on
    two clients, then a mobility walk (every dirty-region path)."""
    updates = 1500
    span = updates * 40.0
    return build_scenario({
        "name": "golden-churn",
        "topology": {"kind": "random_t", "m": 10, "n": 3, "seed": 2},
        "config": {"batch_slots": 12, "debounce_events": 64,
                   "epoch_gap_us": 2000.0},
        "sources": [
            {"kind": "churn", "updates": updates, "seed": 11},
            {"kind": "rss_wobble", "client": 2, "updates": 60,
             "start_us": span + 50_000.0, "gap_us": 2000.0,
             "jitter_db": 0.75},
            {"kind": "rss_wobble", "client": 5, "updates": 60,
             "start_us": span + 51_000.0, "gap_us": 2000.0,
             "jitter_db": 0.75},
            {"kind": "mobility", "node": 1, "to": [400.0, 400.0],
             "steps": 20, "interval_us": 4000.0,
             "start_us": span + 300_000.0, "seed": 0},
        ],
    })


SERVICE_GOLDEN = (
    91, "47da4673cfda8bf87b7fd327b5254152885eadca041b660dac9732eb8ec3005a")


def test_service_revisions_match_golden():
    scenario = _churn_scenario()
    engine = IncrementalController(scenario.make_state(), scenario.config)
    service = ControllerService(engine, check_every=0)
    service.run_events(scenario.events)
    digests = [revision.digest for revision in service.revisions]
    assert (len(digests), _chain(digests)) == SERVICE_GOLDEN
