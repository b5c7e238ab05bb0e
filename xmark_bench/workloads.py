"""The three workloads of the XMark repository benchmark.

Each workload drives the public ``repro`` API from one thread in a
closed loop: the next operation starts when the previous one returns.
Inputs come from a schedule that is fully determined by the seed; the
XMark document is generated and serialized before any timing, so the
program only ever receives XML text.

A workload object owns one repository at a time.  ``setup`` builds it
(and is what ``setup_s`` times), ``step`` runs one scheduled iteration
(one bid, one update program, or one reopen cycle) and files every
public call it makes under an operation class of the
:class:`~measure.Recorder`, ``finish`` runs the correctness checks that
sit outside the timed region, and ``close`` releases everything.
"""

from __future__ import annotations

import hashlib
import os
import random
import time
import xml.etree.ElementTree as ET
from typing import Dict, List, Optional, Tuple

from repro.durability import Journal, recover
from repro.errors import ReproError
from repro.observability.tracing import get_tracer
from repro.store import open_repository, snapshot_document
from repro.store.backends import node_records
from repro.ulang import parse_program, run_program
from repro.xmlmodel.serializer import serialize
from repro.xmlmodel.xmark import XMarkGenerator, xmark_document

from measure import Recorder, write_chars

#: Open-auction regions of the XMark generator, in document order.
REGIONS = ("africa", "asia", "australia", "europe", "namerica", "samerica")

_WORDS = ("vintage", "rare", "boxed", "mint", "signed", "limited")
_FIRST = ("Ada", "Alan", "Edgar", "Grace", "Jim", "Leslie")
_LAST = ("Codd", "Gray", "Hopper", "Kay", "Lovelace", "Turing")

#: XPath classes of the read mix; every workload reports all of them.
XPATH_CLASSES = ("child", "descendant", "attr_pred", "positional", "deep")


def span(name: str):
    """A benchmark-side span around one public call (no-op untraced)."""
    return get_tracer().span(name)


class Even:
    """A seeded low-discrepancy sequence in [0, 1) (additive recurrence).

    The seed only sets where the sequence starts.  Any stretch of it, of
    any length, covers [0, 1) almost evenly, so the mix of parameters a
    timed loop draws (which auction, which position) and with it the mix
    of operation costs is the same for every seed and every loop length.
    Plain pseudo-random draws let the mix, and so the percentiles,
    wander from seed to seed.
    """

    #: Irrational steps; distinct sequences use distinct steps so that
    #: their values do not move in lockstep.
    STEPS = ((5 ** 0.5 - 1) / 2, 2 ** 0.5 - 1, 3 ** 0.5 - 1)

    def __init__(self, rng: random.Random, which: int):
        self.value = rng.random()
        self.step = self.STEPS[which]

    def next(self) -> float:
        self.value = (self.value + self.step) % 1.0
        return self.value

    def pick(self, count: int) -> int:
        """An index in ``range(count)``."""
        return min(count - 1, int(self.next() * count))


def storage_url(path: str) -> str:
    return "sqlite:///" + os.path.abspath(path)


# ----------------------------------------------------------------------
# Label-free oracle
# ----------------------------------------------------------------------

def node_signature(node) -> tuple:
    """What a query result must show: name, direct text, attributes."""
    return (node.name, node.text_value(),
            tuple((attr.name, attr.value) for attr in node.attributes()))


def element_signature(element: ET.Element) -> tuple:
    text = (element.text or "") + "".join(
        child.tail or "" for child in element
    )
    return (element.tag, text, tuple(element.attrib.items()))


def oracle(root: ET.Element, path: str) -> List[tuple]:
    """Evaluate one of the benchmark's absolute paths with ElementTree.

    The benchmark's queries all start at the ``site`` root or with
    ``//``, which ElementTree spells as a path relative to that root.
    """
    if path.startswith("//"):
        relative = "." + path
    elif path.startswith("/site/"):
        relative = "." + path[len("/site"):]
    else:
        raise ValueError(f"no ElementTree form for {path!r}")
    return [element_signature(element) for element in root.findall(relative)]


def label_stream(ldoc) -> Tuple[str, bytes]:
    """The serialized text and bit-exact label stream of a document."""
    snapshot = snapshot_document(ldoc, "check")
    return snapshot.xml, snapshot.label_stream


# ----------------------------------------------------------------------
# Common shape
# ----------------------------------------------------------------------

class Workload:
    """Seeded inputs plus the repository state of one pass."""

    name = ""
    scale = 1.0
    small_scale = 1.0
    #: Iterations of the fixed-length pass a traced run makes, at the
    #: full and at the small (self-check) size.
    fixed_steps = 1
    small_steps = 24
    #: Iterations after which a timed loop starts again from a fresh
    #: set-up; 0 for a workload whose state does not grow.  A loop of
    #: whole epochs sees the same mix of costs however many it runs.
    epoch = 0
    #: The operation class ``op_p50_ms``/``op_p90_ms`` report.
    primary = "write"

    def __init__(self, seed: int, small: bool = False):
        self.seed = seed
        self.scale = self.small_scale if small else self.scale
        self.xml = serialize(xmark_document(scale=self.scale, seed=seed))
        self.xml_bytes = len(self.xml.encode("utf-8"))
        self.problems: List[str] = []
        self.store_bytes: Optional[int] = None
        self.writes = 0
        self.reads = 0
        self.digest = hashlib.sha256()

    # -- schedule bookkeeping ---------------------------------------------

    def note(self, *parts) -> None:
        """Fold one scheduled operation into the schedule digest."""
        self.digest.update(repr(parts).encode("utf-8"))

    def check(self, condition: bool, message: str) -> None:
        if not condition:
            self.problems.append(message)

    def check_order(self, ldoc, when: str) -> None:
        """Labels must sort into document order (Definition 1)."""
        try:
            ldoc.verify_order()
        except ReproError as error:
            self.problems.append(f"{when}: verify_order failed: {error}")

    # -- per-pass hooks ----------------------------------------------------

    def setup(self, directory: str) -> float:
        """Build the repository; returns the seconds ``add`` took."""
        raise NotImplementedError

    def prepare(self) -> None:
        """Untimed work between set-up and the timed loop."""

    def step(self, rec: Recorder) -> None:
        raise NotImplementedError

    def finish(self) -> None:
        """Correctness checks after the timed loop (not timed)."""

    def close(self) -> None:
        raise NotImplementedError

    def document(self):
        """The live labelled document, for label statistics."""
        raise NotImplementedError

    def queries(self) -> List[str]:
        """The paths the workload reads, for EXPLAIN in the traced run."""
        raise NotImplementedError

    def explain(self) -> list:
        """EXPLAIN ANALYZE every path of :meth:`queries`."""
        return [self.stored.explain(path, analyze=True)
                for path in self.queries()]

    def extra_counts(self) -> Dict[str, float]:
        return {}


# ----------------------------------------------------------------------
# bid-wal
# ----------------------------------------------------------------------

class BidWal(Workload):
    """Bid transactions under a write-ahead journal on SQLite (QED)."""

    name = "bid-wal"
    scale = 16.0
    small_scale = 2.0
    #: Each bid adds three nodes, so the document, the hot auction and
    #: with them the undo clone and the readback grow as the loop runs.
    #: An epoch bounds that growth; the traced pass is one epoch.
    epoch = 40
    fixed_steps = epoch
    primary = "write"
    #: Share of bids that land on the seed's hot auction.  Well away from
    #: one half, so that the p50 of a class never sits on the boundary
    #: between hot-auction and other operations.
    HOT_SHARE = 0.3
    #: Every READ_EVERY-th bid is followed by a readback of its auction.
    READ_EVERY = 1
    #: Every PERSIST_EVERY-th commit is followed by ``persist()``.
    PERSIST_EVERY = 20
    DOC = "auction"

    def __init__(self, seed: int, small: bool = False):
        super().__init__(seed, small)
        self.auction_count = XMarkGenerator(scale=self.scale).open_auctions
        self.rng = random.Random(f"bid-wal:{seed}")
        self.hot = self.rng.randrange(self.auction_count)
        self.hot_draw = Even(self.rng, 0)
        self.auction_draw = Even(self.rng, 1)
        self.repo = None
        self.journal = None
        self.persist_wchar: List[int] = []

    def setup(self, directory: str) -> float:
        self.directory = directory
        self.wal_path = os.path.join(directory, "auction.wal")
        with span("bench.open"):
            self.repo = open_repository(
                storage_url(os.path.join(directory, "auction.db")),
                default_scheme="qed",
            )
        start = time.perf_counter()
        with span("bench.add"):
            stored = self.repo.add(self.DOC, self.xml)
        ingest = time.perf_counter() - start
        with span("bench.journal_create"):
            self.journal = Journal.create(self.wal_path, stored.ldoc,
                                          name=self.DOC, sync="commit")
        return ingest

    def prepare(self) -> None:
        """Resolve the auctions once, by tree navigation (not timed)."""
        self.stored = self.repo.get(self.DOC)
        site = self.stored.ldoc.document.root
        holder = next(child for child in site.element_children()
                      if child.name == "open_auctions")
        self.auctions = holder.element_children()
        self.expected_bidders = self.bidder_counts()
        self.relabeled_before = self.stored.ldoc.log.relabeled_nodes
        self.wal_before = os.path.getsize(self.wal_path)

    def bidder_counts(self) -> List[int]:
        return [
            sum(1 for child in auction.element_children()
                if child.name == "bidder")
            for auction in self.auctions
        ]

    def next_bid(self) -> Tuple[int, str]:
        if self.hot_draw.next() < self.HOT_SHARE:
            index = self.hot
        else:
            index = self.auction_draw.pick(self.auction_count)
        return index, f"{self.rng.randint(1, 50)}.00"

    def step(self, rec: Recorder) -> None:
        index, amount = self.next_bid()
        self.note("bid", index, amount)
        auction = self.auctions[index]
        with rec.op("write"), span("bench.bid"):
            start = time.perf_counter()
            txn = self.repo.transaction(self.DOC, journal=self.journal)
            with span("bench.txn_begin"):
                txn.begin()
            begun = time.perf_counter()
            try:
                with span("bench.txn_op"):
                    bidder = txn.append_child(auction, "bidder").node
                    increase = txn.append_child(bidder, "increase").node
                    txn.set_text(increase, amount)
                applied = time.perf_counter()
                with span("bench.txn_commit"):
                    txn.commit()
            except Exception:
                txn.rollback()
                raise
            done = time.perf_counter()
        rec.record("txn_begin", begun - start)
        rec.record("txn_op", applied - begun)
        rec.record("txn_commit", done - applied)
        self.writes += 1
        self.expected_bidders[index] += 1
        if self.writes % self.READ_EVERY == 0:
            # The auction's element children: its initial price and its
            # bidders, never fewer than two after a bid.
            path = f"/site/open_auctions/open_auction[{index + 1}]/*"
            with rec.op("read"), span("bench.xpath"):
                result = self.stored.xpath(path)
            rec.record("xpath.positional", rec.samples["read"][-1])
            self.reads += 1
            with rec.paused():
                bidders = sum(1 for node in result if node.name == "bidder")
                self.check(len(result) == bidders + 1
                           and bidders == self.expected_bidders[index],
                           f"readback of auction {index} returned "
                           f"{bidders} bidders in {len(result)} children, "
                           f"expected {self.expected_bidders[index]} bidders")
        if self.writes % self.PERSIST_EVERY == 0:
            before = write_chars()
            with rec.op("persist"), span("bench.persist"):
                self.repo.persist(self.DOC)
            self.persist_wchar.append(write_chars() - before)
            if self.store_bytes is None:
                with rec.paused():
                    self.store_bytes = (self.repo.backend.storage_bytes()
                                        + os.path.getsize(self.wal_path))

    def finish(self) -> None:
        ldoc = self.stored.ldoc
        self.repo.persist(self.DOC)
        self.journal.close()
        live = label_stream(ldoc)
        recovered = recover(self.wal_path)
        self.check(label_stream(recovered.ldoc) == live,
                   "journal recovery does not reproduce the live labels")
        self.check_order(ldoc, "after the bid stream")
        self.check(ldoc.log.relabeled_nodes == self.relabeled_before,
                   "QED relabelled nodes during the bid stream")
        self.check(self.bidder_counts() == self.expected_bidders,
                   "bidder counts differ from the schedule")
        self.repo.close()
        self.repo = open_repository(
            storage_url(os.path.join(self.directory, "auction.db")),
            default_scheme="qed",
        )
        reopened = self.repo.get(self.DOC).ldoc
        self.check(label_stream(reopened) == live,
                   "the reopened SQLite document differs from the live one")
        if self.store_bytes is None:  # the loop ended before any persist
            self.store_bytes = (self.repo.backend.storage_bytes()
                                + os.path.getsize(self.wal_path))

    def close(self) -> None:
        if self.journal is not None:
            self.journal.close()
        if self.repo is not None:
            self.repo.close()
        self.repo = self.journal = None

    def document(self):
        return self.stored.ldoc

    def queries(self) -> List[str]:
        return [f"/site/open_auctions/open_auction[{self.hot + 1}]/*"]

    def extra_counts(self) -> Dict[str, float]:
        wal_growth = os.path.getsize(self.wal_path) - self.wal_before
        return {
            "durability.journal_bytes_per_write":
                wal_growth / self.writes if self.writes else 0.0,
            "store.write_bytes_per_persist":
                (sum(self.persist_wchar) / len(self.persist_wchar)
                 if self.persist_wchar else 0.0),
        }


# ----------------------------------------------------------------------
# catalog-edit
# ----------------------------------------------------------------------

class CatalogEdit(Workload):
    """Seeded update programs on an in-memory Dewey repository."""

    name = "catalog-edit"
    scale = 4.0
    small_scale = 1.0
    fixed_steps = 150
    primary = "write"
    #: Standing queries: the first is read after every program.
    ITEMS = "//item/name"
    PEOPLE = "/site/people/person/name"
    #: Programs between oracle checkpoints.
    CHECK_EVERY = 50
    DOC = "catalog"

    def __init__(self, seed: int, small: bool = False):
        super().__init__(seed, small)
        generator = XMarkGenerator(scale=self.scale)
        self.items = generator.items_per_region
        self.people = generator.people
        self.rng = random.Random(f"catalog-edit:{seed}")
        self.renamed = set()
        self.serial = 0
        self.repo = None
        self.independent = 0
        self.verdicts = 0

    def setup(self, directory: str) -> float:
        with span("bench.open"):
            self.repo = open_repository("memory://", default_scheme="dewey")
        start = time.perf_counter()
        with span("bench.add"):
            self.stored = self.repo.add(self.DOC, self.xml)
        ingest = time.perf_counter() - start
        with span("bench.register_query"):
            self.stored.register_query(self.ITEMS)
            self.stored.register_query(self.PEOPLE)
        return ingest

    def prepare(self) -> None:
        self.relabeled_before = self.stored.ldoc.log.relabeled_nodes

    def next_program(self) -> str:
        """3-5 statements; each region keeps its item count."""
        rng = self.rng
        self.serial += 1
        serial = self.serial
        region = rng.choice(REGIONS)
        middle = self.items // 2 + rng.randint(-2, 2)
        statements = [
            f'insert <item id="lot{serial}"><name>lot {serial}</name>'
            f'<description><parlist><listitem>{rng.choice(_WORDS)} '
            f'{rng.choice(_WORDS)}</listitem></parlist></description>'
            f'</item> before /site/regions/{region}/item[{middle}]'
        ]
        for extra in sorted(rng.sample(range(3), rng.randint(1, 3))):
            if extra == 0:
                other = rng.choice(REGIONS)
                item = rng.randint(1, self.items)
                statements.append(
                    f'replace value of /site/regions/{other}/item[{item}]'
                    f'/name with "{rng.choice(_WORDS)} {serial}"'
                )
            elif extra == 1:
                person = rng.randint(1, self.people)
                old, new = (("email", "emailaddress")
                            if person in self.renamed
                            else ("emailaddress", "email"))
                self.renamed ^= {person}
                statements.append(
                    f"rename /site/people/person[{person}]/{old} as {new}"
                )
            else:
                person = rng.randint(1, self.people)
                statements.append(
                    f"replace value of /site/people/person[{person}]/name "
                    f'with "{rng.choice(_FIRST)} {rng.choice(_LAST)}"'
                )
        victim = rng.randint(1, self.items + 1)
        statements.append(f"delete /site/regions/{region}/item[{victim}]")
        return ";\n".join(statements) + ";"

    def step(self, rec: Recorder) -> None:
        text = self.next_program()
        self.note("program", text)
        with rec.op("write"), span("bench.program"):
            start = time.perf_counter()
            with span("bench.ulang_parse"):
                program = parse_program(text)
            parsed = time.perf_counter()
            with span("bench.ulang_check"):
                report = self.stored.check_update(program)
            checked = time.perf_counter()
            with span("bench.ulang_run"):
                run_program(self.stored.ldoc, program)
            done = time.perf_counter()
        rec.record("ulang_parse", parsed - start)
        rec.record("ulang_check", checked - parsed)
        rec.record("ulang_run", done - checked)
        self.verdicts += len(report.verdicts)
        self.independent += sum(1 for v in report.verdicts if v.independent)
        self.writes += 1
        with rec.op("read"), span("bench.xpath"):
            self.stored.xpath(self.ITEMS)
        rec.record("xpath.descendant", rec.samples["read"][-1])
        self.reads += 1
        if self.writes % self.CHECK_EVERY == 0:
            with rec.paused():
                self.checkpoint()
                if self.store_bytes is None:
                    self.repo.persist(self.DOC)
                    self.store_bytes = self.repo.backend.storage_bytes()

    def checkpoint(self) -> None:
        ldoc = self.stored.ldoc
        root = ET.fromstring(serialize(ldoc.document))
        for path in (self.ITEMS, self.PEOPLE):
            got = [node_signature(node) for node in self.stored.xpath(path)]
            self.check(got == oracle(root, path),
                       f"after program {self.writes}: {path} differs from "
                       f"the ElementTree oracle")
        self.check_order(ldoc, f"after program {self.writes}")

    def finish(self) -> None:
        self.checkpoint()
        if self.store_bytes is None:
            self.repo.persist(self.DOC)
            self.store_bytes = self.repo.backend.storage_bytes()

    def close(self) -> None:
        if self.repo is not None:
            self.repo.close()
        self.repo = None

    def document(self):
        return self.stored.ldoc

    def queries(self) -> List[str]:
        return [self.ITEMS, self.PEOPLE]

    def extra_counts(self) -> Dict[str, float]:
        return {
            "ulang.independent_share":
                self.independent / self.verdicts if self.verdicts else 0.0,
        }


# ----------------------------------------------------------------------
# query-read
# ----------------------------------------------------------------------

class QueryRead(Workload):
    """Reopen cycles on a persisted ORDPATH SQLite repository."""

    name = "query-read"
    scale = 16.0
    small_scale = 2.0
    fixed_steps = 8
    primary = "lookup"
    #: Point-query names, served from the node table without a parse.
    #: Their counts depend on the scale only, not on the seed.
    NAMES = ("category", "closed_auction", "open_auction", "person", "item")
    #: Passes over the names, and rotations of the XPath classes, per cycle.
    PASSES = 2
    DOC = "auction"

    def __init__(self, seed: int, small: bool = False):
        super().__init__(seed, small)
        generator = XMarkGenerator(scale=self.scale)
        self.people = generator.people
        self.rng = random.Random(f"query-read:{seed}")
        self.person_draw = Even(self.rng, 0)
        self.position_draw = Even(self.rng, 1)
        self.region_draw = Even(self.rng, 2)
        self.root = ET.fromstring(self.xml)
        self.expected: Dict[str, List[tuple]] = {}
        self.opened = None

    def setup(self, directory: str) -> float:
        self.path = os.path.join(directory, "auction.db")
        with span("bench.open"):
            repo = open_repository(storage_url(self.path),
                                   default_scheme="ordpath")
        start = time.perf_counter()
        with span("bench.add"):
            repo.add(self.DOC, self.xml)
        ingest = time.perf_counter() - start
        with span("bench.close"):
            repo.close()
        self.store_bytes = os.path.getsize(self.path)
        return ingest

    def next_queries(self) -> List[Tuple[str, str]]:
        """One rotation of the five XPath classes, in fixed order."""
        person = self.person_draw.pick(self.people)
        position = self.position_draw.pick(self.people) + 1
        region = REGIONS[self.region_draw.pick(len(REGIONS))]
        return [
            ("child", "/site/people/person"),
            ("descendant", "//open_auction/bidder"),
            ("attr_pred", f"//person[@id='person{person}']/name"),
            ("positional", f"/site/people/person[{position}]/*"),
            ("deep",
             f"/site/regions/{region}/item/description/parlist/listitem"),
        ]

    def step(self, rec: Recorder) -> None:
        queries = [query for _ in range(self.PASSES)
                   for query in self.next_queries()]
        self.note("cycle", queries)
        with rec.op("open"), span("bench.open"):
            repo = open_repository(storage_url(self.path),
                                   default_scheme="ordpath")
        self.opened = repo
        records = []
        for name in self.NAMES * self.PASSES:
            with rec.op("lookup"), span("bench.point_query"):
                records.append((name, repo.point_query(self.DOC, name)))
            rec.record(f"point_query.{name}", rec.samples["lookup"][-1])
        with rec.op("get"), span("bench.get"):
            stored = repo.get(self.DOC)
        rec.record("reopen", rec.samples["open"][-1] + rec.samples["get"][-1])
        results = []
        for cls, path in queries:
            with rec.op("read"), span("bench.xpath"):
                results.append(stored.xpath(path))
            rec.record(f"xpath.{cls}", rec.samples["read"][-1])
            self.reads += 1
        with rec.paused():
            self.verify(stored, queries, results, records)
        with rec.op("close"), span("bench.close"):
            repo.close()
        self.opened = None

    def verify(self, stored, queries, results, records) -> None:
        for (_cls, path), result in zip(queries, results):
            if path not in self.expected:
                self.expected[path] = oracle(self.root, path)
            self.check([node_signature(node) for node in result]
                       == self.expected[path],
                       f"{path} differs from the ElementTree oracle")
        materialised = node_records(stored.ldoc)
        for name, got in records:
            want = [record for record in materialised if record.name == name]
            self.check(got == want,
                       f"point_query({name!r}) differs from node_records")

    def close(self) -> None:
        if self.opened is not None:
            self.opened.close()
        self.opened = None

    def document(self):
        with open_repository(storage_url(self.path),
                             default_scheme="ordpath") as repo:
            return repo.get(self.DOC).ldoc

    def queries(self) -> List[str]:
        return [path for _cls, path in self.next_queries()]

    def explain(self) -> list:
        with open_repository(storage_url(self.path),
                             default_scheme="ordpath") as repo:
            stored = repo.get(self.DOC)
            return [stored.explain(path, analyze=True)
                    for path in self.queries()]


WORKLOADS = {cls.name: cls for cls in (BidWal, CatalogEdit, QueryRead)}
