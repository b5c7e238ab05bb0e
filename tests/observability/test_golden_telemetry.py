"""Golden telemetry: one seeded workload's spans, op events and metrics.

The paper's correctness quantities (relabel counts and extents, label
bits) leave the process as telemetry, so the telemetry itself is pinned:
:func:`capture` runs one fixed workload — QED and Dewey, each on
``memory://`` and ``sqlite:///`` — with tracing and the op-log both on,
and reduces what came out to counts that do not depend on timing:

* op kind -> event count, outcome counts and total ``nodes``;
* the span-name multiset, the parent -> child name edges, and the sums
  of each span name's integer attributes;
* the counters that moved, and the event count of every timer and
  histogram that moved.

``golden_telemetry.json`` holds the capture taken when every hot path
still wired spans and op events by hand.  Routing them through one
:func:`~repro.observability.instrumented` scope changed exactly the
things listed in :data:`OP_RENAMES`, :data:`SPANS_ADDED`,
:data:`OPS_ADDED`, :data:`SPAN_ATTRIBUTE_RENAMES` and
:data:`SPANS_GAINING_NODES`; the test asserts each difference one by
one and everything else exactly.

Regenerate the fixture (only when a telemetry change is intended)::

    PYTHONPATH=src python tests/observability/test_golden_telemetry.py
"""

from __future__ import annotations

import json
import tempfile
from collections import Counter
from pathlib import Path
from typing import Any, Dict, Iterable, Optional

import pytest

from repro.durability.faults import InjectedFault, get_injector
from repro.durability.journal import Journal, recover
from repro.errors import BackendLockedError
from repro.observability.metrics import get_registry
from repro.observability.ops import oplog_enabled
from repro.observability.tracing import InMemorySpanExporter, tracing_enabled
from repro.store import open_repository
from repro.store.joins import nested_loop_join, stack_tree_join
from repro.store.twig import TwigMatcher, descendant, twig
from repro.xmlmodel.parser import parse

FIXTURE = Path(__file__).with_name("golden_telemetry.json")

XML = ("<library><shelf><book><title>a</title></book><book/></shelf>"
       "<shelf><book><title>b</title></book></shelf><annex/></library>")

SCHEMES = ("qed", "dewey")

#: Snapshot suffixes whose values are timings or value statistics.
_VALUE_SUFFIXES = (".seconds", ".sum", ".mean", ".min", ".max",
                   ".p50", ".p95", ".p99")

#: Op kinds renamed to match the span recording the same operation.
OP_RENAMES = {
    "backend.put": "store.backend.put",
    "backend.get": "store.backend.get",
    "backend.delete": "store.backend.delete",
    "backend.point_query": "store.backend.point_query",
    "backend.open": "store.backend.open",
}

#: Span names that used to feed only the op-log.
SPANS_ADDED = ("accelerator.splice", "repository.xpath", "batch.rollback")

#: Op kinds that used to feed only a span, with the parent span
#: attribute that carried the count now reported as ``nodes``.
OPS_ADDED = {
    "repository.path_query": "matches",
    "store.join.nested_loop": "output",
    "store.join.stack_tree": "output",
    "store.join.semi": "output",
    "store.twig.match": "matches",
}

#: Span attributes renamed so one ``set(nodes=...)`` feeds both sinks:
#: span name -> {old attribute: new attribute}.
SPAN_ATTRIBUTE_RENAMES = {
    "document.delete": {"nodes_removed": "nodes",
                        "relabeled_nodes": "relabeled"},
    "document.move": {"nodes_moved": "nodes",
                      "relabeled_nodes": "relabeled"},
    "document.insert": {"relabeled_nodes": "relabeled"},
    "journal.recover": {"records_replayed": "nodes"},
    "repository.ingest": {"labels": "nodes"},
    "repository.path_query": {"matches": "nodes"},
    "store.join.nested_loop": {"output": "nodes"},
    "store.join.stack_tree": {"output": "nodes"},
    "store.join.semi": {"output": "nodes"},
    "store.twig.match": {"matches": "nodes"},
}

#: Spans that now also carry the op event's ``nodes``.
SPANS_GAINING_NODES = ("batch.apply", "document.insert",
                       "store.backend.point_query")


# ----------------------------------------------------------------------
# The workload
# ----------------------------------------------------------------------

def _exercise(url: str, scheme: str, journal_path: Path) -> None:
    """Every instrumented layer, once, on one backend and scheme."""
    repository = open_repository(url)
    if url.startswith("sqlite"):
        # A second handle on a held file: the lock refusal error path.
        with pytest.raises(BackendLockedError):
            open_repository(url)
    stored = repository.add("doc", XML, scheme=scheme)
    ldoc = stored.ldoc
    root = ldoc.document.root
    stored.xpath("//book")  # attaches the accelerator the updates splice

    # Per-operation updates.
    first_shelf, second_shelf = root.element_children()[:2]
    ldoc.updates.insert_before(first_shelf, "front")
    ldoc.updates.append_child(second_shelf, "book")
    fragment = parse("<box><item/><item/></box>").root
    ldoc.updates.insert_subtree(second_shelf, 0, fragment)
    ldoc.updates.move(first_shelf.element_children()[1], second_shelf, 0)
    ldoc.updates.rename(second_shelf, "case")
    ldoc.updates.delete(root.element_children()[-1])

    # A deferring batch (Dewey relabels on a front insertion), then one
    # that fails and rolls back.
    with ldoc.batch() as batch:
        batch.insert_before(first_shelf, "lead")
        batch.insert_before(first_shelf, "second")
        batch.append_child(first_shelf, "tail")
    with pytest.raises(RuntimeError):
        with ldoc.batch() as batch:
            batch.append_child(first_shelf, "doomed")
            raise RuntimeError("abandon the batch")

    # A journalled commit and a fault-injected rollback, then replay.
    # (A rollback restores a copy of the tree: re-resolve nodes.)
    root = ldoc.document.root
    first_shelf = root.element_children()[0]
    journal = Journal.create(journal_path, ldoc, name="doc")
    with ldoc.transaction(journal=journal) as txn:
        txn.append_child(first_shelf, "wal")
    get_injector().arm("transaction.commit")
    with pytest.raises(InjectedFault):
        with ldoc.transaction(journal=journal) as txn:
            txn.append_child(first_shelf, "lost")
    get_injector().reset()
    journal.close()
    recover(journal_path)

    # Queries through every read path.
    stored.xpath("//book/title")
    stored.descendant_path(["library", "book", "title"])
    TwigMatcher(ldoc, stored.indexes).match(
        twig("case", descendant("book", output=True)))
    shelves = stored.indexes.by_name("shelf")
    books = stored.indexes.by_name("book")
    stack_tree_join(ldoc.scheme, shelves, books)
    nested_loop_join(ldoc.scheme, shelves, books)

    # Persist and reopen (a fresh handle for the file backend; a
    # snapshot restore for the in-memory one), then drop a document.
    repository.persist("doc")
    if url.startswith("sqlite"):
        repository.close()
        repository = open_repository(url)
        repository.point_query("doc", "book")
        repository.get("doc").xpath("//title")
    else:
        repository.restore(repository.snapshot("doc"), name="copy")
        repository.get("copy").xpath("//title")
        repository.remove("copy")
    repository.remove("doc")
    repository.close()


def _edges(roots: Iterable[Any], contract: Iterable[str]) -> Counter:
    """(parent, child) span-name pairs; ``<root>`` parents root spans.

    Spans named in ``contract`` are spliced out, their children
    re-parented to the nearest kept ancestor.
    """
    contract = set(contract)
    edges: Counter = Counter()

    def walk(span: Any, parent: str) -> None:
        if span.name in contract:
            for child in span.children:
                walk(child, parent)
            return
        edges[(parent, span.name)] += 1
        for child in span.children:
            walk(child, span.name)

    for root in roots:
        walk(root, "<root>")
    return edges


def capture(contract: Iterable[str] = ()) -> Dict[str, Any]:
    """Run the workload; reduce its telemetry to timing-free counts."""
    registry = get_registry()
    exporter = InMemorySpanExporter(capacity=1_000_000)
    with tempfile.TemporaryDirectory() as scratch, \
            tracing_enabled(exporter), \
            oplog_enabled(capacity=1_000_000,
                          slow_threshold_s=1e9) as oplog:
        before = registry.snapshot()
        for scheme in SCHEMES:
            # ``scratch`` is absolute: four slashes, an absolute path.
            for index, url in enumerate(
                    ("memory://", f"sqlite:///{scratch}/{scheme}.db")):
                _exercise(url, scheme,
                          Path(scratch) / f"{scheme}-{index}.journal")
        after = registry.snapshot()
        events = oplog.events()

    ops: Dict[str, Dict[str, Any]] = {}
    for event in events:
        row = ops.setdefault(event.kind,
                             {"count": 0, "nodes": 0, "outcomes": {}})
        row["count"] += 1
        row["nodes"] += event.nodes
        row["outcomes"][event.outcome] = (
            row["outcomes"].get(event.outcome, 0) + 1)

    spans: Counter = Counter()
    attribute_sums: Dict[str, Dict[str, int]] = {}
    for span in exporter.spans:
        spans[span.name] += 1
        sums = attribute_sums.setdefault(span.name, {})
        for key, value in span.attributes.items():
            if isinstance(value, int) and not isinstance(value, bool):
                sums[key] = sums.get(key, 0) + value

    counters: Dict[str, float] = {}
    counts: Dict[str, float] = {}
    for key, value in after.items():
        moved = value - before.get(key, 0)
        if not moved or key.endswith(_VALUE_SUFFIXES):
            continue
        if key.endswith(".count"):
            counts[key[:-len(".count")]] = moved
        else:
            counters[key] = moved

    return {
        "ops": dict(sorted(ops.items())),
        "spans": dict(sorted(spans.items())),
        "span_attribute_sums": dict(sorted(attribute_sums.items())),
        "edges": sorted([parent, child, count] for (parent, child), count
                        in _edges(exporter.roots(), contract).items()),
        "counters": counters,
        "counts": counts,
    }


# ----------------------------------------------------------------------
# The test
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def golden() -> Dict[str, Any]:
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def current() -> Dict[str, Any]:
    return capture(contract=SPANS_ADDED)


def _consolidated_relabels(golden: Dict[str, Any]) -> int:
    """Batch relabel passes: the only ``document.relabel`` spans under
    ``batch.apply``."""
    return sum(count for parent, child, count in golden["edges"]
               if (parent, child) == ("batch.apply", "document.relabel"))


def _expected_ops(golden: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    expected = {OP_RENAMES.get(kind, kind): dict(row)
                for kind, row in golden["ops"].items()}
    opens = expected["store.backend.open"]
    ok_opens = golden["spans"]["store.backend.open"] - opens["count"]
    opens["outcomes"] = dict(opens["outcomes"], ok=ok_opens)
    opens["count"] += ok_opens
    for kind, attribute in OPS_ADDED.items():
        count = golden["spans"][kind]
        expected[kind] = {
            "count": count, "outcomes": {"ok": count},
            "nodes": golden["span_attribute_sums"][kind][attribute],
        }
    relabel = dict(expected["document.relabel"])
    passes = _consolidated_relabels(golden)
    relabel["count"] += passes
    relabel["outcomes"] = dict(relabel["outcomes"],
                               ok=relabel["outcomes"]["ok"] + passes)
    # Every relabel span carries its extent as ``nodes``, batch passes
    # included, so the op total now equals the span total.
    relabel["nodes"] = golden["span_attribute_sums"]["document.relabel"][
        "nodes"]
    expected["document.relabel"] = relabel
    return dict(sorted(expected.items()))


def _ops_added(golden: Dict[str, Any]) -> int:
    """How many op events the change adds in total."""
    ok_opens = (golden["spans"]["store.backend.open"]
                - golden["ops"]["backend.open"]["count"])
    return (ok_opens + _consolidated_relabels(golden)
            + sum(golden["spans"][kind] for kind in OPS_ADDED))


class TestGoldenTelemetry:
    def test_workload_covers_every_layer(self, golden):
        for kind in ("repository.ingest", "document.insert",
                     "document.delete", "document.move",
                     "document.insert_subtree", "document.relabel",
                     "batch.apply", "batch.rollback", "journal.append",
                     "journal.fsync", "journal.recover",
                     "transaction.commit", "transaction.rollback",
                     "accelerator.build", "accelerator.splice",
                     "repository.xpath", "backend.put", "backend.get",
                     "backend.delete", "backend.point_query"):
            assert golden["ops"][kind]["count"] > 0, kind
        assert golden["ops"]["backend.open"]["outcomes"] == {"error": 2}
        assert golden["ops"]["transaction.commit"]["outcomes"]["error"] == 4
        assert _consolidated_relabels(golden) > 0
        for kind in OPS_ADDED:
            assert golden["spans"][kind] > 0, kind

    def test_op_events(self, golden, current):
        assert current["ops"] == _expected_ops(golden)

    def test_span_multiset(self, golden, current):
        expected = dict(golden["spans"])
        for name in SPANS_ADDED:
            assert name not in expected
            expected[name] = golden["ops"][name]["count"]
        assert current["spans"] == dict(sorted(expected.items()))

    def test_span_edges_with_added_spans_spliced_out(self, golden, current):
        assert current["edges"] == golden["edges"]

    def test_span_attribute_sums(self, golden, current):
        ops = _expected_ops(golden)
        for name, sums in golden["span_attribute_sums"].items():
            renames = SPAN_ATTRIBUTE_RENAMES.get(name, {})
            expected = {renames.get(key, key): value
                        for key, value in sums.items()}
            if name in SPANS_GAINING_NODES:
                expected["nodes"] = ops[name]["nodes"]
            assert current["span_attribute_sums"][name] == expected, name

    def test_span_nodes_equal_op_nodes(self, current):
        """One ``set(nodes=...)`` feeds both sinks."""
        for name, sums in current["span_attribute_sums"].items():
            if "nodes" in sums:
                assert sums["nodes"] == current["ops"][name]["nodes"], name

    def test_counters(self, golden, current):
        expected = dict(golden["counters"])
        expected["ops.recorded"] += _ops_added(golden)
        assert current["counters"] == expected

    def test_timer_and_histogram_counts(self, golden, current):
        expected: Dict[str, float] = {}
        for name, count in golden["counts"].items():
            if name.startswith("ops.") and name.endswith(".ms"):
                kind = name[len("ops."):-len(".ms")]
                name = f"ops.{OP_RENAMES.get(kind, kind)}.ms"
            expected[name] = count
        for kind, row in _expected_ops(golden).items():
            expected[f"ops.{kind}.ms"] = row["count"]
        assert current["counts"] == expected


def _write_fixture(path: Optional[Path] = None) -> None:
    data = capture()
    (path or FIXTURE).write_text(json.dumps(data, indent=1, sort_keys=True)
                                 + "\n", encoding="utf-8")


if __name__ == "__main__":
    _write_fixture()
