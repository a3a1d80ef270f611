"""The controller's interference-map tables: read once, never stale.

* Work count: after the map reads its RSS source into tables, batch
  dispatch (scheduling, fake insertion, trigger assignment, ROP
  insertion) reads the source zero more times.  The count is exact,
  so any increase is a code change, on any machine.
* Campaign refresh: a controller refreshed from measurement
  observations schedules exactly like one freshly built on the
  refreshed matrix.
"""

import numpy as np

import repro.topology.propagation as propagation
from repro.core.controller import build_domino_network
from repro.experiments.common import run_scheme
from repro.service.revision import batch_digest
from repro.sim.engine import Simulator
from repro.topology.builder import build_t_topology, random_t_topology
from repro.topology.interference_map import InterferenceMap
from repro.topology.measurement import ObservationStore
from repro.topology.trace import two_building_trace


def test_dispatch_reads_no_rss_after_table_build(monkeypatch):
    """CI-sized fig12 DOMINO run: the controller's RSS callable is read
    exactly once per ordered node pair, by the table build."""
    reads = {"rss": 0, "set_survives": 0}
    factory = propagation.matrix_rss_fn

    def counting_matrix_rss_fn(matrix):
        rss = factory(matrix)

        def counted(tx, rx):
            reads["rss"] += 1
            return rss(tx, rx)

        return counted

    original_set_survives = InterferenceMap.set_survives

    def counting_set_survives(self, links):
        reads["set_survives"] += 1
        return original_set_survives(self, links)

    monkeypatch.setattr(propagation, "matrix_rss_fn", counting_matrix_rss_fn)
    monkeypatch.setattr(InterferenceMap, "set_survives",
                        counting_set_survives)
    topology = build_t_topology(two_building_trace(), 10, 2, seed=3)
    result = run_scheme("domino", topology, horizon_us=100_000.0, seed=1,
                        downlink_mbps=10.0, uplink_mbps=2.0, engine="matrix")
    assert len(result.controller.batches) > 5
    n_nodes = topology.trace.n_nodes
    assert reads == {"rss": n_nodes * n_nodes, "set_survives": 0}


def _move_client(controller, client, beside):
    """Campaign observations that put ``client`` where ``beside`` is."""
    matrix = controller.rss_matrix
    store = ObservationStore()
    for other in range(len(matrix)):
        if other in (client, beside):
            continue
        store.record(other, client, float(matrix[beside, other]))
        store.record(client, other, float(matrix[other, beside]))
    return store


def _dispatch(controller, backlog, n_batches):
    controller.known_queues.update(backlog)
    for _ in range(n_batches):
        controller._dispatch_next_batch()
    return [batch_digest(b) for b in controller.batches[-n_batches:]]


def test_campaign_refresh_matches_fresh_controller():
    topology = random_t_topology(6, 3, seed=2)
    live = build_domino_network(Simulator(seed=1), topology).controller
    backlog = {link: 6.0 for link in topology.flows}
    _dispatch(live, backlog, 2)  # the pre-refresh tables are in use
    clients = [c.node_id for c in topology.network.clients]
    client, beside = clients[0], next(
        c for c in clients[1:] if topology.network.ap_of(c)
        != topology.network.ap_of(clients[0]))
    edges_before = set(map(frozenset, live.graph.edges))
    assert live.refresh_from_observations(_move_client(live, client, beside))
    assert set(map(frozenset, live.graph.edges)) != edges_before

    topology.trace.rss_dbm = np.array(live.rss_matrix)
    fresh = build_domino_network(Simulator(seed=1), topology).controller
    for table in ("rss", "gain_mw", "signal_db", "trigger"):
        assert getattr(live.imap, table) == getattr(fresh.imap, table)
    assert (set(map(frozenset, live.graph.edges))
            == set(map(frozenset, fresh.graph.edges)))
    # Same stream position: slot numbering and batch ids continue.
    fresh.converter._next_slot_index = live.converter._next_slot_index
    fresh.converter._batch_id = live.converter._batch_id
    fresh.known_queues = dict(live.known_queues)
    assert _dispatch(live, backlog, 4) == _dispatch(fresh, backlog, 4)
