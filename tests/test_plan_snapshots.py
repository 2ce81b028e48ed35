"""Plan-snapshot regression suite: pinned ``explain()`` output per query.

Pins the full pipeline plan (cost-based planner, reasoning on) of all 26
paper queries plus the A1-A6 analytics additions against a checked-in
snapshot, so any PR that changes a plan — intentionally or not — shows the
diff in review instead of silently shifting kernel-call counts.

Regenerate after an intentional planner change with::

    REPRO_UPDATE_PLAN_SNAPSHOTS=1 python -m pytest tests/test_plan_snapshots.py -q

The snapshot is deterministic: the LUBM generator is seeded, plans are pure
functions of (query, statistics), and cost renderings are rounded.
"""

from __future__ import annotations

import os
import pathlib

import pytest

from repro.query.engine import QueryEngine

SNAPSHOT_PATH = pathlib.Path(__file__).parent / "plan_snapshots" / "paper_queries_explain.txt"
_UPDATE = os.environ.get("REPRO_UPDATE_PLAN_SNAPSHOTS", "") not in ("", "0")


def render_snapshot(store, catalog) -> str:
    engine = QueryEngine(store, reasoning=True)
    sections = []
    for query in catalog.extended_queries():
        sections.append(f"### {query.identifier}\n{engine.explain(query.sparql)}\n")
    return "\n".join(sections)


def parse_snapshot(text: str) -> dict:
    sections = {}
    current = None
    lines: list = []
    for line in text.splitlines():
        if line.startswith("### "):
            if current is not None:
                sections[current] = "\n".join(lines).strip()
            current = line[4:].strip()
            lines = []
        else:
            lines.append(line)
    if current is not None:
        sections[current] = "\n".join(lines).strip()
    return sections


@pytest.fixture(scope="module")
def rendered(small_lubm_store, small_lubm_catalog) -> str:
    return render_snapshot(small_lubm_store, small_lubm_catalog)


def test_snapshot_file_exists_or_is_written(rendered):
    if _UPDATE or not SNAPSHOT_PATH.exists():
        SNAPSHOT_PATH.parent.mkdir(parents=True, exist_ok=True)
        SNAPSHOT_PATH.write_text(rendered)
    assert SNAPSHOT_PATH.exists()


def test_every_query_plan_matches_snapshot(rendered, small_lubm_catalog):
    if not SNAPSHOT_PATH.exists():  # first run just wrote it
        pytest.skip("snapshot file was just created")
    expected = parse_snapshot(SNAPSHOT_PATH.read_text())
    actual = parse_snapshot(rendered)
    identifiers = [q.identifier for q in small_lubm_catalog.extended_queries()]
    assert set(expected) == set(actual), "snapshot query set drifted — regenerate"
    for identifier in identifiers:
        assert actual[identifier] == expected[identifier], (
            f"plan for {identifier} changed:\n"
            f"--- pinned ---\n{expected[identifier]}\n"
            f"--- current ---\n{actual[identifier]}\n"
            "If intentional, regenerate with REPRO_UPDATE_PLAN_SNAPSHOTS=1."
        )


def test_snapshots_cover_all_32_queries():
    expected = parse_snapshot(SNAPSHOT_PATH.read_text())
    assert len(expected) == 32  # S1-S15, M1-M5, R1-R6, A1-A6


def test_plans_name_their_planner():
    text = SNAPSHOT_PATH.read_text()
    assert "plan [cost-dp]" in text


# --------------------------------------------------------------------------- #
# property-path plans (pinned separately so the 32-query set stays stable)
# --------------------------------------------------------------------------- #

PATH_SNAPSHOT_PATH = pathlib.Path(__file__).parent / "plan_snapshots" / "property_paths_explain.txt"

_PATH_PREFIXES = (
    "PREFIX ex: <http://example.org/>\n"
    "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>\n"
)

#: One query per access label of :func:`repro.query.paths.path_access_label`,
#: plus the joined and nested shapes whose ordering the cost model decides.
PATH_SNAPSHOT_QUERIES = [
    ("P1", "SELECT ?s ?o WHERE { ?s ex:subOrganizationOf+ ?o }"),
    ("P2", "SELECT ?o WHERE { ex:dept1 ex:subOrganizationOf* ?o }"),
    ("P3", "SELECT ?x ?y WHERE { ?x (ex:advisor/ex:memberOf)* ?y }"),
    ("P4", "SELECT ?x ?y WHERE { ?x ex:advisor? ?y }"),
    ("P5", "SELECT ?x ?y WHERE { ?x ex:advisor/ex:memberOf ?y }"),
    ("P6", "SELECT ?x ?y WHERE { ?x (ex:memberOf|ex:worksFor) ?y }"),
    ("P7", "SELECT ?x ?y WHERE { ?x ^ex:advisor ?y }"),
    ("P8", "SELECT ?s ?o WHERE { ?s !(ex:name|ex:age|rdf:type) ?o }"),
    ("P9", "SELECT ?x ?o WHERE { ?x rdf:type ex:Department . ?x ex:subOrganizationOf+ ?o }"),
    ("P10", "SELECT ?x ?n WHERE { ?x ex:advisor+/ex:name ?n }"),
]

#: Labels that must each be pinned by at least one snapshot.
PATH_ACCESS_LABELS = [
    "one-or-more/interval-bfs",
    "zero-or-more/interval-bfs",
    "zero-or-more/term-bfs",
    "zero-or-one",
    "sequence",
    "alternation",
    "inverse",
    "negated-set",
]


def render_path_snapshot(store) -> str:
    engine = QueryEngine(store, reasoning=True)
    sections = []
    for identifier, query in PATH_SNAPSHOT_QUERIES:
        sections.append(f"### {identifier}\n{engine.explain(_PATH_PREFIXES + query)}\n")
    return "\n".join(sections)


@pytest.fixture(scope="module")
def rendered_paths(toy_store) -> str:
    return render_path_snapshot(toy_store)


def test_path_snapshot_file_exists_or_is_written(rendered_paths):
    if _UPDATE or not PATH_SNAPSHOT_PATH.exists():
        PATH_SNAPSHOT_PATH.parent.mkdir(parents=True, exist_ok=True)
        PATH_SNAPSHOT_PATH.write_text(rendered_paths)
    assert PATH_SNAPSHOT_PATH.exists()


def test_every_path_plan_matches_snapshot(rendered_paths):
    if not PATH_SNAPSHOT_PATH.exists():  # first run just wrote it
        pytest.skip("snapshot file was just created")
    expected = parse_snapshot(PATH_SNAPSHOT_PATH.read_text())
    actual = parse_snapshot(rendered_paths)
    assert set(expected) == set(actual), "path snapshot query set drifted — regenerate"
    for identifier, _query in PATH_SNAPSHOT_QUERIES:
        assert actual[identifier] == expected[identifier], (
            f"plan for {identifier} changed:\n"
            f"--- pinned ---\n{expected[identifier]}\n"
            f"--- current ---\n{actual[identifier]}\n"
            "If intentional, regenerate with REPRO_UPDATE_PLAN_SNAPSHOTS=1."
        )


def test_path_snapshots_pin_every_access_label():
    text = PATH_SNAPSHOT_PATH.read_text()
    for label in PATH_ACCESS_LABELS:
        assert f"[{label}]" in text, f"no pinned plan uses access label {label}"


def test_path_snapshots_are_costed():
    # Every path step must render a cardinality and a kernel-call cost.
    for section in parse_snapshot(PATH_SNAPSHOT_PATH.read_text()).values():
        path_lines = [line for line in section.splitlines() if line.lstrip().startswith("path")]
        assert path_lines, section
        for line in path_lines:
            assert "card~" in line and "cost~" in line, line
