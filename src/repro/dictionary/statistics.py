"""Statistics used by the query optimizer.

The optimizer combines three kinds of statistics:

* **Dictionary-time statistics** — per-entry occurrence counts recorded when
  the dictionaries are built, aggregated over concept/property hierarchies
  (``hierarchical_occurrences``), wrapped here into one façade object.  The
  estimator reads them for patterns whose constants the join profiles do not
  cover (concept counts, per-instance occurrences, the total triple mass).
* **Join-aware statistics** (PR 5) — per-property :class:`PropertyProfile`
  rows (triple count, distinct subjects, distinct objects) and
  :class:`CharacteristicSet` summaries (the property sets subjects exhibit,
  à la Neumann & Moerkotte), collected in one pass at build time by
  :func:`profile_triples` and maintained *incrementally* on delta writes
  (``note_*`` hooks called by :mod:`repro.store.updatable`).  The cost-based
  planner's :mod:`repro.query.cardinality` estimator chains join
  selectivities from these profiles.
* **Run-time statistics** — counts computed directly on the SDS structures
  (e.g. Algorithm 2: the number of triples holding a given predicate, derived
  from two ``select`` calls on the PS bitmap).  Those live on the triple
  store; the planners fall back to them when the profiles draw a blank.

Every mutation bumps :attr:`DictionaryStatistics.version`, which is the
invalidation token for derived caches (the fully-unbound fallback mass here,
plan caches upstream keyed on the store's data epoch).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro.dictionary.term_dictionary import (
    ConceptDictionary,
    InstanceDictionary,
    PropertyDictionary,
)
from repro.rdf.terms import Literal, Term, URI

#: A characteristic-set member: ``("p", property_id)`` for an object/datatype
#: property, ``("t", concept_id)`` for an ``rdf:type`` edge.
Marker = Tuple[str, int]


@dataclass
class PropertyProfile:
    """Join statistics for one property identifier (both PSO layouts merged).

    ``triples`` is maintained exactly across delta writes; the distinct
    counts are exact as of the last full build and *scaled* with the triple
    count afterwards (see :meth:`current_distinct_subjects`) — live inserts
    cannot cheaply prove whether a subject is new to the property, so the
    estimator assumes the build-time triples-per-subject ratio persists.
    """

    triples: int = 0
    distinct_subjects: int = 0
    distinct_objects: int = 0
    #: Triple count at the last exact (build-time) profiling pass; 0 marks a
    #: property first seen through live inserts.
    build_triples: int = 0

    def _scaled(self, build_distinct: int) -> int:
        if self.triples <= 0:
            return 0
        if self.build_triples <= 0:
            # Every triple of a live-born property may carry a fresh subject.
            return self.triples
        if self.triples <= self.build_triples:
            return max(1, build_distinct)
        factor = self.triples / self.build_triples
        return max(1, round(build_distinct * factor))

    def current_distinct_subjects(self) -> int:
        """Distinct-subject estimate at the current triple count."""
        return self._scaled(self.distinct_subjects)

    def current_distinct_objects(self) -> int:
        """Distinct-object estimate at the current triple count."""
        return self._scaled(self.distinct_objects)


@dataclass
class CharacteristicSet:
    """One characteristic set: subjects sharing the same property signature.

    ``count`` is the number of subjects exhibiting exactly this marker set;
    ``triples`` records, per marker, how many triples those subjects hold for
    it (so ``triples[m] / count`` is the mean multiplicity of ``m`` within
    the set).
    """

    count: int = 0
    triples: Dict[Marker, int] = field(default_factory=dict)


def profile_triples(
    object_triples: Iterable[Tuple[int, int, int]],
    datatype_triples: Iterable[Tuple[int, int, Literal]],
    type_triples: Iterable[Tuple[int, int]],
) -> Tuple[Dict[int, PropertyProfile], Dict[FrozenSet[Marker], CharacteristicSet]]:
    """One-pass profiling of the encoded triples (build-time statistics).

    Returns the per-property profiles and the characteristic-set summary.
    Object- and datatype-layout triples of the same property identifier are
    merged into one profile (their value spaces are disjoint, so the distinct
    counts add exactly).
    """
    subjects: Dict[int, set] = {}
    objects: Dict[int, set] = {}
    counts: Dict[int, int] = {}
    subject_markers: Dict[int, Dict[Marker, int]] = {}

    for property_id, subject_id, object_id in object_triples:
        counts[property_id] = counts.get(property_id, 0) + 1
        subjects.setdefault(property_id, set()).add(subject_id)
        objects.setdefault(property_id, set()).add(object_id)
        marks = subject_markers.setdefault(subject_id, {})
        marker = ("p", property_id)
        marks[marker] = marks.get(marker, 0) + 1
    for property_id, subject_id, literal in datatype_triples:
        counts[property_id] = counts.get(property_id, 0) + 1
        subjects.setdefault(property_id, set()).add(subject_id)
        objects.setdefault(property_id, set()).add(literal)
        marks = subject_markers.setdefault(subject_id, {})
        marker = ("p", property_id)
        marks[marker] = marks.get(marker, 0) + 1
    for subject_id, concept_id in type_triples:
        marks = subject_markers.setdefault(subject_id, {})
        marker = ("t", concept_id)
        marks[marker] = marks.get(marker, 0) + 1

    profiles = {
        property_id: PropertyProfile(
            triples=count,
            distinct_subjects=len(subjects[property_id]),
            distinct_objects=len(objects[property_id]),
            build_triples=count,
        )
        for property_id, count in counts.items()
    }

    characteristic_sets: Dict[FrozenSet[Marker], CharacteristicSet] = {}
    for marks in subject_markers.values():
        signature = frozenset(marks)
        entry = characteristic_sets.setdefault(signature, CharacteristicSet())
        entry.count += 1
        for marker, count in marks.items():
            entry.triples[marker] = entry.triples.get(marker, 0) + count
    return profiles, characteristic_sets


class DictionaryStatistics:
    """Cardinality estimates backed by the dictionaries' occurrence counters."""

    def __init__(
        self,
        concepts: ConceptDictionary,
        properties: PropertyDictionary,
        instances: InstanceDictionary,
    ) -> None:
        self.concepts = concepts
        self.properties = properties
        self.instances = instances
        #: Bumped on every statistics mutation; derived caches key on it.
        self.version = 0
        self._property_profiles: Dict[int, PropertyProfile] = {}
        self._characteristic_sets: Dict[FrozenSet[Marker], CharacteristicSet] = {}
        self._type_triple_count = 0
        self._unbound_mass_cache: Optional[Tuple[int, int]] = None

    # ------------------------------------------------------------------ #
    # join-aware profiles (PR 5)
    # ------------------------------------------------------------------ #

    def register_profiles(
        self,
        property_profiles: Dict[int, PropertyProfile],
        characteristic_sets: Dict[FrozenSet[Marker], CharacteristicSet],
        type_triple_count: int = 0,
    ) -> None:
        """Install the build-time profiles (one exact profiling pass)."""
        self._property_profiles = dict(property_profiles)
        self._characteristic_sets = dict(characteristic_sets)
        self._type_triple_count = type_triple_count
        self.version += 1
        self._unbound_mass_cache = None

    @property
    def has_profiles(self) -> bool:
        """Whether build-time join profiles are available."""
        return bool(self._property_profiles) or bool(self._characteristic_sets)

    def property_profile(self, property_id: int) -> Optional[PropertyProfile]:
        """The join profile of one property identifier, if profiled."""
        return self._property_profiles.get(property_id)

    def interval_profile(self, low: int, high: int) -> Optional[PropertyProfile]:
        """Summed profile over the property interval ``[low, high)``.

        This is the reasoning-mode statistic: a LiteMat predicate interval is
        answered by probing every stored sub-property, so its profile is the
        sum of theirs (distinct counts add as an upper bound — a subject may
        carry several sub-properties).
        """
        merged: Optional[PropertyProfile] = None
        for property_id, profile in self._property_profiles.items():
            if low <= property_id < high:
                if merged is None:
                    merged = PropertyProfile()
                merged.triples += profile.triples
                merged.distinct_subjects += profile.current_distinct_subjects()
                merged.distinct_objects += profile.current_distinct_objects()
                merged.build_triples += max(profile.build_triples, profile.triples)
        return merged

    @property
    def characteristic_sets(self) -> Dict[FrozenSet[Marker], CharacteristicSet]:
        """The characteristic-set summary (empty when never profiled)."""
        return self._characteristic_sets

    @property
    def type_triple_count(self) -> int:
        """``rdf:type`` triples as of the last profiling pass (plus deltas)."""
        return self._type_triple_count

    @property
    def instance_universe(self) -> int:
        """Number of distinct individuals (the subject/object value universe)."""
        return len(self.instances)

    def star_cardinality(
        self, markers: Sequence[Marker]
    ) -> Optional[Tuple[float, float]]:
        """Characteristic-set estimate for a subject star query.

        ``markers`` lists the star's constant edges.  Sums over every stored
        characteristic set containing all of them: returns ``(subjects,
        rows)`` — how many subjects exhibit the star and how many result rows
        the star joins produce (multiplicities multiplied per subject).

        Returns ``None`` when no summary is available **or when no stored
        set contains the combination**: the summary is exact as of the last
        build and is *not* maintained on delta writes, so an absent
        combination may simply be live-born — a confident zero here would
        pin the planner to a free-looking estimate for data that exists.
        The caller falls back to independence chaining instead.
        """
        if not self._characteristic_sets:
            return None
        wanted = frozenset(markers)
        subjects = 0.0
        rows = 0.0
        for signature, entry in self._characteristic_sets.items():
            if not wanted <= signature:
                continue
            subjects += entry.count
            per_subject = 1.0
            for marker in wanted:
                per_subject *= entry.triples.get(marker, entry.count) / entry.count
            rows += entry.count * per_subject
        if subjects <= 0:
            return None
        return subjects, rows

    # ------------------------------------------------------------------ #
    # incremental maintenance (delta writes; see repro.store.updatable)
    # ------------------------------------------------------------------ #

    def note_property_write(self, property_id: int, delta: int) -> None:
        """Adjust the triple count of ``property_id`` by ``delta`` (±1)."""
        profile = self._property_profiles.get(property_id)
        if profile is None:
            profile = PropertyProfile()
            self._property_profiles[property_id] = profile
        profile.triples = max(0, profile.triples + delta)
        self.version += 1
        self._unbound_mass_cache = None

    def note_type_write(self, delta: int) -> None:
        """Adjust the ``rdf:type`` triple count by ``delta`` (±1)."""
        self._type_triple_count = max(0, self._type_triple_count + delta)
        self.version += 1
        self._unbound_mass_cache = None

    # ------------------------------------------------------------------ #
    # cardinality estimates (dictionary-time; paper Section 5.1)
    # ------------------------------------------------------------------ #

    def concept_cardinality(self, concept: URI, with_hierarchy: bool = True) -> int:
        """Estimated number of ``rdf:type`` triples for ``concept``.

        With ``with_hierarchy`` (the paper's approach) the estimate sums the
        counts over the concept's whole sub-hierarchy.
        """
        if concept not in self.concepts:
            return 0
        if with_hierarchy:
            return self.concepts.hierarchical_occurrences(concept)
        return self.concepts.occurrences_of_term(concept)

    def property_cardinality(self, prop: URI, with_hierarchy: bool = True) -> int:
        """Estimated number of triples whose predicate is ``prop``."""
        if prop not in self.properties:
            return 0
        if with_hierarchy:
            return self.properties.hierarchical_occurrences(prop)
        return self.properties.occurrences_of_term(prop)

    def instance_cardinality(self, term: Term) -> int:
        """Estimated number of triples mentioning the individual ``term``."""
        return self.instances.occurrences_of_term(term)

    def total_triple_mass(self) -> int:
        """Total property + concept occurrence mass (fully-unbound fallback).

        The sum walks every dictionary entry, so it is computed once and
        cached against :attr:`version` — delta writes (which bump the
        version through the ``note_*`` hooks) invalidate it.
        """
        cached = self._unbound_mass_cache
        if cached is not None and cached[0] == self.version:
            return cached[1]
        total = sum(self.properties.occurrences(i) for i in self.properties.identifiers())
        total += sum(self.concepts.occurrences(i) for i in self.concepts.identifiers())
        self._unbound_mass_cache = (self.version, total)
        return total

    def __repr__(self) -> str:
        return (
            f"DictionaryStatistics(concepts={len(self.concepts)}, "
            f"properties={len(self.properties)}, instances={len(self.instances)}, "
            f"profiles={len(self._property_profiles)}, "
            f"characteristic_sets={len(self._characteristic_sets)})"
        )

    # convenience used by tests and the estimator ------------------------- #

    def profiled_property_ids(self) -> List[int]:
        """Identifiers carrying a join profile (sorted)."""
        return sorted(self._property_profiles)
