"""Seeded traffic for the four workloads.

The program under test receives only the generated operations; the seed
never reaches it.  The *shape* of a workload (which template sits at which
popularity rank, the template weights, the write share) is fixed; the seed
picks the constants plugged into the templates and the order of operations,
so ten seeds give ten runs of the same statistical character.

Every client thread gets its own stream (``Traffic.stream(..., client=i)``);
a stream is an endless iterator, the load generator stops pulling when the
window closes.  The traced pass replays the first N operations of client 0.
"""

from __future__ import annotations

import bisect
import itertools
import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

import e2e_config as config
from repro.rdf.namespaces import LUBM
from repro.workloads.lubm import LubmDataset
from repro.workloads.queries import _PREFIXES, BenchmarkQuery, QueryCatalog
from repro.workloads.serving import SERVING_NS

VALUE_PROPERTY = SERVING_NS + "value"
ABOUT_PROPERTY = SERVING_NS + "about"

#: ``BenchmarkQuery.group`` -> the query class the per-layer report uses.
_CLASS_OF_GROUP = {
    "sp?o": "point",
    "?spo": "point",
    "?sp?o": "scan",
    "bgp": "bgp",
    "reasoning": "reasoning",
    "analytics": "analytics",
}

#: Template -> (landmark whose IRI the catalog text embeds, constant pool).
_POINT_TEMPLATES = {
    "S1": ("student_takes_4", "students"),
    "S2": ("pub_authors_66", "publications"),
    "S6": ("advisor_5", "professors"),
    "S7": ("course_takers_17", "courses"),
    "S8": ("dept_workers_135", "departments"),
}

#: Distinct texts per template on ``serve_hot`` (96 in all), in proportion to
#: ``ServingWorkload.MIX_WEIGHTS``.  Templates without a constant become
#: distinct texts the way a paginating client makes them: by page.
_HOT_SLOTS = {
    "S1": 21, "S2": 16, "S6": 16, "S7": 16, "S8": 10,
    "S11": 3, "S14": 5, "M1": 3, "R5": 3, "A2": 1, "A3": 1, "A5": 1,
}
#: Which template sits at which Zipf rank must not depend on ``--seed``: the
#: top ranks carry most of the traffic and their answer sizes differ 50-fold.
_HOT_RANK_SEED = 96

#: ``serve_cold`` keeps the point-lookup templates of the mix.  S8 is left
#: out: its constant is one of 11 departments, a key space no larger than the
#: cache it is meant to miss.
_COLD_WEIGHTS = {"S1": 12, "S2": 10, "S6": 10, "S7": 10, "A5": 4}

_ANALYTIC_IDS = [
    "S13", "S14", "S15", "M1", "M2", "M3", "M4", "M5",
    "R1", "R2", "R3", "R4", "R5", "R6", "A1", "A2", "A3", "A4",
]
#: Four LUBM property-path queries: a closure with both ends free, an
#: inverse/sequence, a closure from an endpoint the BGP binds (the one shape
#: that runs the interval-frontier BFS) and an alternation; chosen so the
#: naive path oracle checks them in about two seconds.
_PATH_QUERIES = {
    "P1": "SELECT ?s ?o WHERE { ?s lubm:subOrganizationOf+ ?o }",
    "P2": "SELECT ?x ?c WHERE { ?x ^lubm:advisor/lubm:takesCourse ?c }",
    "P3": "SELECT ?x ?u WHERE { ?x lubm:headOf ?d . ?d lubm:subOrganizationOf+ ?u }",
    "P4": "SELECT ?x ?y WHERE { ?x (lubm:headOf|lubm:worksFor)/lubm:subOrganizationOf ?y }",
}


@dataclass(frozen=True)
class Op:
    """One operation a client sends: a query, or an insert/delete of a triple."""

    kind: str  #: ``"query"`` | ``"insert"`` | ``"delete"``
    text: str = ""
    reasoning: bool = False
    query_class: str = ""
    #: ``(subject IRI, predicate IRI, object)``; an ``int`` object is a literal.
    triple: Optional[Tuple[str, str, object]] = None


def _query_op(query: BenchmarkQuery, text: Optional[str] = None) -> Op:
    return Op(
        kind="query",
        text=query.sparql if text is None else text,
        reasoning=query.requires_reasoning,
        query_class=_CLASS_OF_GROUP[query.group],
    )


class Traffic:
    """Operation streams of every workload over one generated dataset."""

    def __init__(self, dataset: LubmDataset) -> None:
        self.dataset = dataset
        self._by_id = QueryCatalog(dataset).by_identifier()
        subjects: Dict[str, set] = {}
        objects: Dict[str, set] = {}
        for triple in dataset.graph:
            subjects.setdefault(triple.predicate, set()).add(str(triple.subject))
            objects.setdefault(triple.predicate, set()).add(str(triple.object))
        # Sorted: set order follows the string hash, which changes per process.
        self.pools: Dict[str, List[str]] = {
            "students": sorted(subjects[LUBM.takesCourse]),
            "publications": sorted(subjects[LUBM.publicationAuthor]),
            "professors": sorted(objects[LUBM.advisor]),
            "courses": sorted(objects[LUBM.takesCourse]),
            "departments": sorted(objects[LUBM.worksFor]),
            "workers": sorted(subjects[LUBM.worksFor]),
        }
        self._department = str(dataset.landmark_uri("dept_workers_135"))

    # ------------------------------------------------------------------ #
    # templates
    # ------------------------------------------------------------------ #

    def _point(self, identifier: str, constant: str, paginated: bool) -> Op:
        """The catalog's ``identifier`` shape with ``constant`` plugged in."""
        query = self._by_id[identifier]
        if identifier == "A5":
            text = query.sparql.replace("?x", f"<{constant}>")
        else:
            landmark, _pool = _POINT_TEMPLATES[identifier]
            text = query.sparql.replace(str(self.dataset.landmark_uri(landmark)), constant)
        if paginated and "ASK" not in text:
            text += f" LIMIT {config.PAGE_SIZE}"
        return _query_op(query, text)

    def _page(self, identifier: str, page: int) -> Op:
        """Page ``page`` of a constant-free template (bounded queries pass through)."""
        query = self._by_id[identifier]
        text = query.sparql
        if "ASK" not in text and "LIMIT" not in text:
            text += f" LIMIT {config.PAGE_SIZE}"
            if page:
                text += f" OFFSET {page * config.PAGE_SIZE}"
        return _query_op(query, text)

    def hot_texts(self, seed: int) -> List[Op]:
        """The 96 distinct ``serve_hot`` operations, most popular first."""
        slots = [name for name, count in _HOT_SLOTS.items() for _ in range(count)]
        random.Random(_HOT_RANK_SEED).shuffle(slots)
        rng = random.Random(f"hot-constants/{seed}")
        constants = {
            name: iter(rng.sample(self.pools[pool], _HOT_SLOTS[name]))
            for name, (_landmark, pool) in _POINT_TEMPLATES.items()
        }
        pages = {name: itertools.count() for name in _HOT_SLOTS}
        return [
            self._point(name, next(constants[name]), paginated=True)
            if name in constants
            else self._page(name, next(pages[name]))
            for name in slots
        ]

    def analytic_queries(self) -> List[Op]:
        """The 22 ``analytic_full`` operations in catalog order."""
        ops = [_query_op(self._by_id[identifier]) for identifier in _ANALYTIC_IDS]
        ops += [
            Op(kind="query", text=_PREFIXES + text, reasoning=True, query_class="path")
            for text in _PATH_QUERIES.values()
        ]
        return ops

    # ------------------------------------------------------------------ #
    # streams
    # ------------------------------------------------------------------ #

    def stream(self, workload: str, seed: int, client: int = 0) -> Iterator[Op]:
        """The endless operation stream of one client."""
        rng = random.Random(f"{workload}/{seed}/{client}")
        if workload == "serve_hot":
            return self._hot_stream(self.hot_texts(seed), rng)
        if workload == "serve_cold":
            return self.cold_stream(rng)
        if workload == "analytic_full":
            return self._analytic_stream(rng)
        if workload == "live_update_mix":
            return self._live_stream(rng, seed, client)
        raise ValueError(f"unknown workload {workload!r}")

    @staticmethod
    def _hot_stream(texts: List[Op], rng: random.Random) -> Iterator[Op]:
        weights = [1.0 / (rank ** config.HOT_ZIPF_EXPONENT) for rank in range(1, len(texts) + 1)]
        cumulative = list(itertools.accumulate(weights))
        total = cumulative[-1]
        while True:
            yield texts[bisect.bisect_left(cumulative, rng.random() * total)]

    def cold_stream(self, rng: random.Random) -> Iterator[Op]:
        names = list(_COLD_WEIGHTS)
        weights = list(_COLD_WEIGHTS.values())
        while True:
            name = rng.choices(names, weights=weights)[0]
            pool = "workers" if name == "A5" else _POINT_TEMPLATES[name][1]
            yield self._point(name, rng.choice(self.pools[pool]), paginated=False)

    def _analytic_stream(self, rng: random.Random) -> Iterator[Op]:
        # Round-robin: every round holds every query once, so whole rounds
        # weigh the classes equally whatever the seed; the seed sets the order.
        ops = self.analytic_queries()
        rng.shuffle(ops)
        return itertools.cycle(ops)

    def _live_stream(self, rng: random.Random, seed: int, client: int) -> Iterator[Op]:
        reads = self.cold_stream(rng)
        live: List[Tuple[str, str, object]] = []
        counter = itertools.count()
        while True:
            if rng.random() >= config.WRITE_SHARE:
                yield next(reads)
            elif live and rng.random() < config.DELETE_SHARE_OF_WRITES:
                yield Op(kind="delete", triple=live.pop(rng.randrange(len(live))))
            else:
                index = next(counter)
                reading = f"{SERVING_NS}reading/{seed}/{client}/{index}"
                # ServingWorkload.write_stream's two shapes: a numeric value
                # (datatype store) and a link to a department (object store).
                if index % 2 == 0:
                    triple = (reading, VALUE_PROPERTY, rng.randint(0, 999))
                else:
                    triple = (reading, ABOUT_PROPERTY, self._department)
                live.append(triple)
                yield Op(kind="insert", triple=triple)


def first_ops(traffic: Traffic, workload: str, seed: int, count: int) -> List[Op]:
    """The first ``count`` operations of client 0 (what the traced pass replays)."""
    return list(itertools.islice(traffic.stream(workload, seed, client=0), count))

