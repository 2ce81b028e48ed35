"""Central administration server.

In the paper's deployment (Section 4) a central computer, operated by the
building administrator, (i) registers the IoT devices, (ii) pre-encodes the
stable ontologies with LiteMat and broadcasts the resulting dictionaries to
every SuccinctEdge instance running at the edge, and (iii) receives the
alerts those instances raise.  This module simulates that server so the whole
deployment loop can be exercised end to end.

Devices register in one of two ingestion modes (see
:mod:`repro.edge.stream` and ``docs/update_lifecycle.md``):

* the paper's rebuild-per-instance mode (:class:`GraphStreamProcessor`), and
* the live-update mode (``live=True``, :class:`LiveStreamProcessor`), where
  readings become delta inserts into one long-lived updatable store and old
  instances are evicted through tombstones.

Live devices can additionally be *served*: :meth:`AdministrationServer.query_service`
builds a :class:`~repro.serve.service.QueryService` over the device's live
store (admission control, result cache keyed on the store's snapshot epoch,
timeouts), and :meth:`AdministrationServer.start_query_server` exposes it as
SPARQL over HTTP — the front door of ``docs/operations.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Union

from repro.edge.alerts import Alert, AlertSink, AnomalyRule
from repro.edge.device import DeviceProfile, EdgeDevice, RASPBERRY_PI_3B_PLUS
from repro.edge.stream import GraphStreamProcessor, LiveStreamProcessor
from repro.ontology.litemat import LiteMatEncoder, LiteMatEncoding
from repro.ontology.schema import OntologySchema
from repro.rdf.graph import Graph
from repro.store.delta import CompactionPolicy


@dataclass(frozen=True)
class OntologyBundle:
    """The pre-encoded ontology broadcast to the edge devices.

    It carries the schema (for query rewriting helpers) and the LiteMat
    encodings of the concept and property hierarchies; devices reuse them so
    that every SuccinctEdge instance assigns the same identifiers — the
    property the paper relies on when the server later interprets alerts.
    """

    schema: OntologySchema
    concepts: LiteMatEncoding
    properties: LiteMatEncoding

    @classmethod
    def from_ontology(cls, ontology: Graph) -> "OntologyBundle":
        """Encode an ontology graph once, centrally."""
        schema = OntologySchema.from_graph(ontology)
        encoder = LiteMatEncoder(schema)
        return cls(
            schema=schema,
            concepts=encoder.encode_concepts(),
            properties=encoder.encode_properties(),
        )

    def size_in_bytes(self) -> int:
        """Rough payload size of one broadcast (terms + identifiers)."""
        total = 0
        for encoding in (self.concepts, self.properties):
            for term in encoding.terms():
                total += len(str(term).encode("utf-8")) + 8
        return total


@dataclass
class RegisteredDevice:
    """One edge device registered at the server."""

    name: str
    processor: Union[GraphStreamProcessor, LiveStreamProcessor]
    device: EdgeDevice
    sink: AlertSink
    location: str = ""

    @property
    def live(self) -> bool:
        """Whether the device ingests readings into a live updatable store."""
        return isinstance(self.processor, LiveStreamProcessor)


class AdministrationServer:
    """Registers devices, broadcasts the ontology, aggregates alerts."""

    def __init__(self, ontology: Graph, rules: Optional[List[AnomalyRule]] = None) -> None:
        self.ontology = ontology
        self.bundle = OntologyBundle.from_ontology(ontology)
        self.rules: List[AnomalyRule] = list(rules or [])
        self.devices: Dict[str, RegisteredDevice] = {}
        self.received_alerts: List[Alert] = []
        #: HTTP query servers started via :meth:`start_query_server`.
        self.query_servers: Dict[str, object] = {}

    # ------------------------------------------------------------------ #
    # administration
    # ------------------------------------------------------------------ #

    def register_rule(self, rule: AnomalyRule) -> None:
        """Add a continuous query; it applies to devices registered afterwards."""
        self.rules.append(rule)

    def register_device(
        self,
        name: str,
        profile: DeviceProfile = RASPBERRY_PI_3B_PLUS,
        location: str = "",
        live: bool = False,
        policy: Optional[CompactionPolicy] = None,
        retention_instances: Optional[int] = None,
        background_compaction: bool = False,
    ) -> RegisteredDevice:
        """Register a new edge device and ship it the rules and the ontology.

        With ``live=True`` the device runs a
        :class:`~repro.edge.stream.LiveStreamProcessor`: readings are
        ingested as delta inserts into one long-lived updatable store
        (``policy`` sets its compaction thresholds, ``retention_instances``
        bounds the sliding window, ``background_compaction`` moves triggered
        compactions onto a worker thread).  Without it the device rebuilds a
        fresh store per graph instance, the paper's native mode.
        """
        if name in self.devices:
            raise ValueError(f"device {name!r} is already registered")
        device = EdgeDevice(profile)
        sink = AlertSink(callback=self._receive_alert)
        processor: Union[GraphStreamProcessor, LiveStreamProcessor]
        if live:
            processor = LiveStreamProcessor(
                ontology=self.ontology,
                rules=list(self.rules),
                sink=sink,
                device=device,
                policy=policy,
                retention_instances=retention_instances,
                background_compaction=background_compaction,
            )
        else:
            processor = GraphStreamProcessor(
                ontology=self.ontology, rules=list(self.rules), sink=sink, device=device
            )
        registered = RegisteredDevice(
            name=name, processor=processor, device=device, sink=sink, location=location
        )
        self.devices[name] = registered
        return registered

    def _receive_alert(self, alert: Alert) -> None:
        self.received_alerts.append(alert)

    # ------------------------------------------------------------------ #
    # serving (SPARQL front door over a live device's store)
    # ------------------------------------------------------------------ #

    def query_service(self, device_name: str, **service_options):
        """A :class:`~repro.serve.service.QueryService` over a live device.

        Queries route through admission control, the per-epoch result cache
        and cooperative timeouts; concurrent ingestion (and background
        compaction) invalidates cached results through the store's snapshot
        epochs.  Only live devices carry a long-lived store to serve;
        rebuild-per-instance devices raise.  ``service_options`` are passed
        to the service constructor (``worker_slots``, ``cache_capacity``,
        ``default_timeout_s``, ``backend``...).
        """
        from repro.serve.service import QueryService  # deferred: keeps edge importable alone

        if device_name not in self.devices:
            raise KeyError(f"unknown device {device_name!r}")
        registered = self.devices[device_name]
        if not registered.live:
            raise ValueError(
                f"device {device_name!r} rebuilds a fresh store per instance; "
                "register it with live=True to serve queries over a long-lived store"
            )
        return QueryService(registered.processor.store, **service_options)

    def start_query_server(
        self,
        device_name: str,
        host: str = "127.0.0.1",
        port: int = 0,
        network=None,
        **service_options,
    ):
        """Start (and track) an HTTP query server over a live device's store.

        Returns the started :class:`~repro.serve.server.QueryServer`; its
        concrete address is ``server.url``.  Starting again for the same
        device is a restart: the previous server is stopped (and its service
        closed) before the replacement comes up, so no port, serve thread or
        engine pool leaks.  :meth:`shutdown_query_servers` stops every
        server started this way.
        """
        from repro.serve.server import QueryServer  # deferred: keeps edge importable alone

        previous = self.query_servers.pop(device_name, None)
        if previous is not None:
            previous.stop()
            previous.service.close()
        service = self.query_service(device_name, **service_options)
        server = QueryServer(service, host=host, port=port, network=network).start()
        self.query_servers[device_name] = server
        return server

    def shutdown_query_servers(self) -> int:
        """Stop every tracked query server; returns how many were stopped."""
        stopped = 0
        for server in self.query_servers.values():
            server.stop()
            server.service.close()
            stopped += 1
        self.query_servers.clear()
        return stopped

    # ------------------------------------------------------------------ #
    # operation
    # ------------------------------------------------------------------ #

    def ingest(self, device_name: str, graph: Graph) -> List[Alert]:
        """Deliver one measurement graph instance to a registered device."""
        if device_name not in self.devices:
            raise KeyError(f"unknown device {device_name!r}")
        return self.devices[device_name].processor.process_instance(graph)

    def alerts_by_device(self) -> Dict[str, List[Alert]]:
        """Received alerts grouped by the device that raised them."""
        grouped: Dict[str, List[Alert]] = {name: [] for name in self.devices}
        for name, registered in self.devices.items():
            grouped[name] = list(registered.sink.alerts)
        return grouped

    def fleet_statistics(self) -> Dict[str, Dict[str, float]]:
        """Per-device stream statistics (instances, alerts, mean latency).

        Live devices additionally report their store's visible triple count,
        snapshot epochs and compaction count.
        """
        summary: Dict[str, Dict[str, float]] = {}
        for name, registered in self.devices.items():
            statistics = registered.processor.statistics
            entry: Dict[str, float] = {
                "instances": statistics.instances_processed,
                "triples": statistics.triples_processed,
                "alerts": statistics.alerts_raised,
                "mean_ms": statistics.mean_processing_ms,
                "energy_joules": registered.device.energy_spent_joules,
            }
            if isinstance(registered.processor, LiveStreamProcessor):
                store = registered.processor.store
                entry["live_triples"] = store.triple_count
                entry["compaction_epoch"] = store.compaction_epoch
                entry["data_epoch"] = store.data_epoch
                entry["compactions"] = registered.processor.statistics.compactions
            summary[name] = entry
        return summary
