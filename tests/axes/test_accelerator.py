"""Axis accelerator: window-index answers versus the scan path.

The contract under test: an attached accelerator answers every
accelerated axis identically to ``AxisEvaluator``'s label-table scan —
across all 17 schemes, before and after every mutation kind — and a
detached one refuses with :class:`StaleIndexError` instead of serving
stale windows.
"""

import random
import xml.etree.ElementTree as ET

import pytest

from conftest import all_scheme_names, fresh_random_document, labeled
from repro.axes.accelerator import ACCELERATED_AXES, AxisAccelerator
from repro.axes.evaluator import AxisEvaluator
from repro.axes.xpath import xpath
from repro.errors import StaleIndexError
from repro.store.repository import open_repository
from repro.xmlmodel.parser import parse
from repro.xmlmodel.serializer import serialize
from repro.xmlmodel.xmark import xmark_document

AXES = sorted(ACCELERATED_AXES)

#: Name-tested descendant paths (the postings route) over XMark.
XMARK_PATHS = (
    "//item/name",
    "/site//bidder",
    "//person[2]",
    "//person[@id='person3']/name",
    "//bidder | //increase",
)


def ids(nodes):
    return [node.node_id for node in nodes]


def assert_equivalent(ldoc, accelerator, limit=None):
    scan = AxisEvaluator(ldoc, allow_fallback=True)
    fast = AxisEvaluator(ldoc, allow_fallback=True, accelerator=accelerator)
    contexts = list(ldoc.document.labeled_nodes())
    if limit is not None:
        contexts = contexts[:limit]
    for node in contexts:
        for axis in AXES:
            expected = ids(scan.evaluate(axis, node))
            got = ids(fast.evaluate(axis, node))
            assert got == expected, (axis, node.name, expected, got)


def named(ldoc, name):
    return [node for node in ldoc.document.labeled_nodes()
            if node.name == name]


def seeded_xmark_updates(ldoc, accelerator, seed=5):
    """A rolled-back transaction, then insert, delete, move and rename.

    A query after the rollback rebuilds the index, so the later updates
    reach it as splices and rename deltas.

    Persons stay under ``people``, so ``//person[2]`` means the same in
    the mini XPath (second person of the descendant set) and in
    ElementTree (second person child of its parent).
    """
    rng = random.Random(seed)
    updates = ldoc.updates
    with pytest.raises(RuntimeError):
        with ldoc.transaction():
            updates.rename(rng.choice(named(ldoc, "bidder")), "increase")
            updates.delete(rng.choice(named(ldoc, "person")))
            updates.append_child(rng.choice(named(ldoc, "item")), "name")
            raise RuntimeError("abort")
    assert xpath(ldoc, "//bidder", accelerator=accelerator)
    assert not accelerator.stale
    auctions = named(ldoc, "open_auction")
    updates.append_child(auctions[0], "bidder")
    anchor = rng.choice(named(ldoc, "item"))
    fresh = updates.insert_before(anchor, "item").node
    updates.append_child(fresh, "name")
    updates.delete(rng.choice([item for item in named(ldoc, "item")
                               if item is not fresh]))
    bidder = rng.choice(named(ldoc, "bidder"))
    target = rng.choice([auction for auction in auctions
                         if auction is not bidder.parent])
    updates.move(bidder, target, len(target.children))
    updates.rename(rng.choice(named(ldoc, "bidder")), "increase")
    updates.rename(rng.choice(named(ldoc, "increase")), "bidder")
    updates.rename(rng.choice(named(ldoc, "description")), "name")
    person = named(ldoc, "person")[3]
    updates.rename(next(child for child in person.labeled_children()
                        if child.name == "name"), "nickname")
    updates.rename(next(child for child in person.labeled_children()
                        if child.name == "emailaddress"), "name")


def assert_postings_match_windows(ldoc, accelerator):
    """Every postings slice equals its subtree window, name-filtered."""
    contexts = [ldoc.document.root] + [
        node for node in ldoc.document.labeled_nodes()
        if node.name in ("regions", "open_auction", "item", "person")
    ]
    for node in contexts:
        window = accelerator.evaluate("descendant", node)
        for name in ("bidder", "increase", "item", "name", "nickname"):
            expected = [other for other in window
                        if other.is_element and other.name == name]
            got = accelerator.named_descendants("descendant", node, name)
            assert ids(got) == ids(expected), (node.name, name)


def element_oracle(ldoc, path):
    """``path`` evaluated by ElementTree over the serialized document."""
    root = ET.fromstring(serialize(ldoc.document))
    order = {id(element): index for index, element in enumerate(root.iter())}
    found = {}
    for branch in path.split("|"):
        branch = branch.strip()
        relative = ("." + branch if branch.startswith("//")
                    else "." + branch[len("/site"):])
        for element in root.findall(relative):
            found[id(element)] = element
    return [
        (element.tag, (element.text or "") + "".join(
            child.tail or "" for child in element),
         tuple(element.attrib.items()))
        for element in sorted(found.values(),
                              key=lambda element: order[id(element)])
    ]


def signatures(nodes):
    return [(node.name, node.text_value(),
             tuple((attr.name, attr.value) for attr in node.attributes()))
            for node in nodes]


def small_ldoc(scheme_name="dewey"):
    return labeled(
        parse("<a><b i='1'><c/><c/></b><b i='2'><c/></b><d/></a>"),
        scheme_name,
    )


@pytest.mark.parametrize("scheme_name", all_scheme_names())
class TestEquivalenceAcrossSchemes:
    def test_static_document(self, scheme_name):
        ldoc = labeled(fresh_random_document(60, seed=7), scheme_name)
        assert_equivalent(ldoc, AxisAccelerator(ldoc), limit=20)

    def test_after_mixed_updates(self, scheme_name):
        # Insert, delete and move through the live update surface; the
        # attached accelerator must keep agreeing with the scan path.
        ldoc = labeled(fresh_random_document(40, seed=11), scheme_name)
        accelerator = AxisAccelerator(ldoc)
        document = ldoc.document
        root = document.root
        ldoc.updates.append_child(root, "fresh")
        first = next(iter(root.labeled_children()))
        ldoc.updates.insert_after(first, "neighbour")
        victim = list(document.labeled_nodes())[-1]
        if victim.parent is not None:
            ldoc.updates.delete(victim)
        movable = next(
            node for node in document.labeled_nodes()
            if node.parent is not None and node.is_element
        )
        ldoc.updates.move(movable, root, len(root.attributes()))
        assert_equivalent(ldoc, accelerator, limit=20)

    def test_after_batch_apply(self, scheme_name):
        ldoc = labeled(fresh_random_document(30, seed=3), scheme_name)
        accelerator = AxisAccelerator(ldoc)
        root = ldoc.document.root
        first = next(iter(root.labeled_children()))
        with ldoc.batch() as batch:
            for index in range(4):
                batch.append_child(root, f"tail{index}")
            batch.insert_before(first, "head")
        assert_equivalent(ldoc, accelerator, limit=20)

    @pytest.mark.parametrize("path", XMARK_PATHS)
    def test_xmark_name_paths_after_seeded_updates(self, scheme_name, path):
        # Postings route vs scan vs a label-free ElementTree oracle.
        ldoc = labeled(xmark_document(scale=0.25, seed=3), scheme_name)
        accelerator = AxisAccelerator(ldoc)
        builds = accelerator._metric_builds.value
        seeded_xmark_updates(ldoc, accelerator)
        accelerated = xpath(ldoc, path, accelerator=accelerator)
        scanned = xpath(ldoc, path)
        assert ids(accelerated) == ids(scanned)
        assert signatures(accelerated) == element_oracle(ldoc, path)
        assert accelerated
        assert_postings_match_windows(ldoc, accelerator)
        # One rebuild, after the rollback; everything later was spliced.
        assert accelerator._metric_builds.value == builds + 1


class TestIncrementalMaintenance:
    def test_insert_splices_without_rebuild(self):
        ldoc = small_ldoc()
        accelerator = AxisAccelerator(ldoc)
        builds = accelerator._metric_builds.value
        ldoc.updates.append_child(ldoc.document.root, "new")
        assert not accelerator.stale
        assert_equivalent(ldoc, accelerator)
        assert accelerator._metric_builds.value == builds

    def test_delete_splices_without_rebuild(self):
        ldoc = small_ldoc()
        accelerator = AxisAccelerator(ldoc)
        builds = accelerator._metric_builds.value
        doomed = next(
            node for node in ldoc.document.labeled_nodes() if node.name == "b"
        )
        ldoc.updates.delete(doomed)
        assert not accelerator.stale
        assert_equivalent(ldoc, accelerator)
        assert accelerator._metric_builds.value == builds

    def test_move_stays_current(self):
        ldoc = small_ldoc()
        accelerator = AxisAccelerator(ldoc)
        node = next(
            node for node in ldoc.document.labeled_nodes() if node.name == "d"
        )
        target = next(
            node for node in ldoc.document.labeled_nodes() if node.name == "b"
        )
        ldoc.updates.move(node, target, len(target.children))
        assert_equivalent(ldoc, accelerator)

    def test_rename_moves_postings_without_rebuild(self):
        ldoc = small_ldoc()
        accelerator = AxisAccelerator(ldoc)
        builds = accelerator._metric_builds.value
        first_c = named(ldoc, "c")[0]
        ldoc.updates.rename(first_c, "renamed")
        assert xpath(ldoc, "//renamed", accelerator=accelerator) == [first_c]
        assert ids(xpath(ldoc, "//c", accelerator=accelerator)) == \
            ids(xpath(ldoc, "//c"))
        assert accelerator._metric_builds.value == builds

    def test_batch_rename_moves_postings_without_rebuild(self):
        ldoc = small_ldoc()
        accelerator = AxisAccelerator(ldoc)
        builds = accelerator._metric_builds.value
        doomed = named(ldoc, "d")[0]
        with ldoc.batch() as batch:
            batch.rename(doomed, "renamed")
            batch.rename(named(ldoc, "c")[1], "renamed")
        assert ids(xpath(ldoc, "//renamed", accelerator=accelerator)) == \
            ids(xpath(ldoc, "//renamed"))
        assert len(xpath(ldoc, "/a//renamed", accelerator=accelerator)) == 2
        assert accelerator._metric_builds.value == builds

    def test_rename_of_pending_node_lands_in_postings(self):
        # The deferred node is off the index when renamed; the batch's
        # rebuild picks it up under its new name.
        ldoc = small_ldoc()
        accelerator = AxisAccelerator(ldoc)
        first = next(iter(ldoc.document.root.labeled_children()))
        with ldoc.batch() as batch:
            head = batch.insert_before(first, "head").node
            batch.rename(head, "renamed")
        assert xpath(ldoc, "//renamed", accelerator=accelerator) == [head]
        assert xpath(ldoc, "//head", accelerator=accelerator) == []

    def test_detached_index_keeps_no_postings(self):
        ldoc = small_ldoc()
        accelerator = AxisAccelerator(ldoc, attach=False)
        ldoc.updates.rename(named(ldoc, "d")[0], "renamed")
        assert not accelerator.stale
        assert len(xpath(ldoc, "//renamed", accelerator=accelerator)) == 1
        route = AxisEvaluator(ldoc, accelerator=accelerator).strategy_for(
            "descendant-or-self", "renamed")
        assert route[0] == "accelerator-window"

    def test_batch_apply_rebuilds_lazily(self):
        ldoc = small_ldoc()
        accelerator = AxisAccelerator(ldoc)
        root = ldoc.document.root
        first = next(iter(root.labeled_children()))
        with ldoc.batch() as batch:
            batch.insert_before(first, "head")  # forces a deferral on dewey
        assert_equivalent(ldoc, accelerator)

    def test_mid_batch_query_refused(self):
        ldoc = small_ldoc()
        accelerator = AxisAccelerator(ldoc)
        root = ldoc.document.root
        first = next(iter(root.labeled_children()))
        batch = ldoc.batch()
        batch.insert_before(first, "head")
        assert batch.pending > 0
        with pytest.raises(StaleIndexError, match="batch"):
            accelerator.evaluate("descendant", root)
        batch.apply()
        assert_equivalent(ldoc, accelerator)

    def test_rollback_publishes_rebuild(self):
        ldoc = small_ldoc()
        accelerator = AxisAccelerator(ldoc)
        root = ldoc.document.root
        with pytest.raises(RuntimeError):
            with ldoc.transaction():
                ldoc.updates.append_child(root, "doomed")
                raise RuntimeError("abort")
        assert_equivalent(ldoc, accelerator)

    def test_detach_stops_maintenance(self):
        ldoc = small_ldoc()
        accelerator = AxisAccelerator(ldoc)
        accelerator.detach()
        ldoc.updates.append_child(ldoc.document.root, "late")
        with pytest.raises(StaleIndexError):
            accelerator.evaluate("descendant", ldoc.document.root)

    def test_unindexed_node_refused(self):
        ldoc = small_ldoc()
        other = small_ldoc()
        accelerator = AxisAccelerator(ldoc)
        with pytest.raises(StaleIndexError):
            accelerator.evaluate("descendant", other.document.root)


class TestStalenessPerMutationKind:
    """A detached index notices every structural mutation kind."""

    def detached(self):
        ldoc = small_ldoc()
        return ldoc, AxisAccelerator(ldoc, attach=False)

    def assert_stale(self, ldoc, accelerator):
        with pytest.raises(StaleIndexError):
            accelerator.evaluate("descendant", ldoc.document.root)
        accelerator.refresh()
        assert_equivalent(ldoc, accelerator)

    def test_insert(self):
        ldoc, accelerator = self.detached()
        ldoc.updates.append_child(ldoc.document.root, "new")
        self.assert_stale(ldoc, accelerator)

    def test_delete(self):
        ldoc, accelerator = self.detached()
        doomed = next(
            node for node in ldoc.document.labeled_nodes() if node.name == "d"
        )
        ldoc.updates.delete(doomed)
        self.assert_stale(ldoc, accelerator)

    def test_move(self):
        ldoc, accelerator = self.detached()
        node = next(
            node for node in ldoc.document.labeled_nodes() if node.name == "d"
        )
        ldoc.updates.move(node, ldoc.document.root, 0)
        self.assert_stale(ldoc, accelerator)

    def test_batch(self):
        ldoc, accelerator = self.detached()
        with ldoc.batch() as batch:
            batch.append_child(ldoc.document.root, "new")
        self.assert_stale(ldoc, accelerator)

    def test_rollback(self):
        ldoc, accelerator = self.detached()
        with pytest.raises(RuntimeError):
            with ldoc.transaction():
                ldoc.updates.append_child(ldoc.document.root, "doomed")
                raise RuntimeError("abort")
        self.assert_stale(ldoc, accelerator)

    def test_content_updates_do_not_stale(self):
        ldoc, accelerator = self.detached()
        element = next(
            node for node in ldoc.document.labeled_nodes() if node.name == "d"
        )
        ldoc.updates.set_text(element, "payload")
        ldoc.updates.rename(element, "renamed")
        assert not accelerator.stale
        assert_equivalent(ldoc, accelerator)

    def test_auto_refresh_rebuilds_silently(self):
        ldoc = small_ldoc()
        accelerator = AxisAccelerator(ldoc, attach=False, auto_refresh=True)
        ldoc.updates.append_child(ldoc.document.root, "new")
        assert_equivalent(ldoc, accelerator)


class TestEvaluatorRouting:
    def test_accelerated_axes_counted(self):
        ldoc = small_ldoc()
        fast = AxisEvaluator(ldoc, accelerator=AxisAccelerator(ldoc))
        fast.evaluate("descendant", ldoc.document.root)
        fast.evaluate("self", ldoc.document.root)
        assert fast.accelerated_hits == 1

    def test_repository_xpath_uses_accelerator(self):
        repository = open_repository("memory://")
        stored = repository.add(
            "doc", "<a><b><c/><c/></b><b><c/></b></a>", scheme="dewey"
        )
        assert len(stored.xpath("//c")) == 3
        assert stored.indexes._accelerator is not None
        # Updates flow through the attached accelerator transparently.
        stored.ldoc.updates.append_child(stored.ldoc.document.root, "b")
        assert len(stored.xpath("/a/b")) == 3
