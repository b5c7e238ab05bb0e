"""Journal round-trips: append, sync policies, torn tails, recovery."""

from __future__ import annotations

import json
import os

import pytest

from conftest import labeled
from repro.durability.journal import (
    SYNC_POLICIES,
    Journal,
    read_journal,
    recover,
)
from repro.encoding.codec import codec_for, supported_codec_schemes
from repro.errors import JournalError, RecoveryError
from repro.xmlmodel.parser import parse
from repro.xmlmodel.serializer import serialize

SAMPLE = "<library><shelf><book/><book/></shelf><shelf><book/></shelf></library>"


def label_stream(ldoc) -> bytes:
    stream, _bits = codec_for(ldoc.scheme).encode_labels(
        ldoc.labels_in_document_order()
    )
    return stream


def journalled_workload(tmp_path, scheme_name, sync="commit"):
    """A document plus a journal holding two committed transactions."""
    ldoc = labeled(parse(SAMPLE), scheme_name)
    path = tmp_path / "doc.journal"
    journal = Journal.create(path, ldoc, name="lib", sync=sync)
    with ldoc.transaction(journal=journal) as txn:
        txn.append_child(ldoc.document.root, "annex")
        txn.set_text(ldoc.document.root.element_children()[0], "filled")
    with ldoc.transaction(journal=journal) as txn:
        txn.insert_after(ldoc.document.root.element_children()[0], "wing")
    journal.close()
    return ldoc, path


class TestRoundTrip:
    #: The transaction lines every node-targeted method journals: the
    #: operation is applied to the node in hand, but the bytes are the
    #: positional records replay resolves.
    GOLDEN_TRANSACTION = (
        b'{"type":"begin","txn":1}\n'
        b'{"type":"op","txn":1,"kind":"append-child","target":4,'
        b'"name":"book","text":""}\n'
        b'{"type":"op","txn":1,"kind":"insert-before","target":2,'
        b'"name":"pamphlet","text":""}\n'
        b'{"type":"op","txn":1,"kind":"insert-after","target":0,'
        b'"name":"annex","text":""}\n'
        b'{"type":"op","txn":1,"kind":"prepend-child","target":0,'
        b'"name":"catalogue","text":""}\n'
        b'{"type":"op","txn":1,"kind":"set-text","target":3,"name":"op",'
        b'"text":"Moby Dick"}\n'
        b'{"type":"op","txn":1,"kind":"rename","target":7,'
        b'"name":"stack","text":""}\n'
        b'{"type":"op","txn":1,"kind":"delete","target":4,"name":"op",'
        b'"text":""}\n'
        b'{"type":"commit","txn":1}\n'
    )

    def test_transaction_journal_bytes_unchanged(self, tmp_path):
        ldoc = labeled(parse(SAMPLE), "dewey")
        path = tmp_path / "doc.journal"
        journal = Journal.create(path, ldoc)
        with ldoc.transaction(journal=journal) as txn:
            root = ldoc.document.root
            first, second = root.element_children()
            txn.append_child(second, "book")
            txn.insert_before(first.element_children()[1], "pamphlet")
            txn.insert_after(first, "annex")
            txn.prepend_child(root, "catalogue")
            txn.set_text(first.element_children()[0], "Moby Dick")
            txn.rename(second, "stack")
            txn.delete(first.element_children()[-1])
        journal.close()
        lines = path.read_bytes().splitlines(keepends=True)
        assert b"".join(lines[1:]) == self.GOLDEN_TRANSACTION
        result = recover(path)
        assert serialize(result.ldoc.document) == serialize(ldoc.document)
        assert label_stream(result.ldoc) == label_stream(ldoc)

    @pytest.mark.parametrize("scheme_name", supported_codec_schemes())
    def test_recovery_is_bit_identical(self, tmp_path, scheme_name):
        ldoc, path = journalled_workload(tmp_path, scheme_name)
        result = recover(path)
        assert serialize(result.ldoc.document) == serialize(ldoc.document)
        assert label_stream(result.ldoc) == label_stream(ldoc)
        assert result.transactions_applied == 2
        assert result.operations_applied == 3
        assert result.scheme_name == scheme_name

    @pytest.mark.parametrize("sync", SYNC_POLICIES)
    def test_all_sync_policies_recover(self, tmp_path, sync):
        ldoc, path = journalled_workload(tmp_path, "dewey", sync=sync)
        result = recover(path)
        assert label_stream(result.ldoc) == label_stream(ldoc)

    def test_scheme_configuration_round_trips(self, tmp_path):
        ldoc = labeled(parse(SAMPLE), "dewey", component_bits=4)
        path = tmp_path / "doc.journal"
        with Journal.create(path, ldoc, name="lib") as journal:
            with ldoc.transaction(journal=journal) as txn:
                txn.append_child(ldoc.document.root, "annex")
        result = recover(path)
        assert result.ldoc.scheme.configuration == {"component_bits": 4}
        assert label_stream(result.ldoc) == label_stream(ldoc)


class TestDiscard:
    def test_uncommitted_transaction_is_discarded(self, tmp_path):
        ldoc = labeled(parse(SAMPLE), "cdqs")
        path = tmp_path / "doc.journal"
        journal = Journal.create(path, ldoc, name="lib")
        with ldoc.transaction(journal=journal) as txn:
            txn.append_child(ldoc.document.root, "kept")
        committed = serialize(ldoc.document)
        # Simulate a crash: ops journalled, commit marker never written.
        journal.begin()
        from repro.updates.operations import OpKind, Operation

        journal.append(Operation(kind=OpKind.APPEND_CHILD, target=0,
                                 name="lost"))
        journal.close()
        result = recover(path)
        assert serialize(result.ldoc.document) == committed
        assert result.transactions_applied == 1
        assert result.transactions_discarded == 1

    def test_rolled_back_transaction_is_discarded(self, tmp_path):
        ldoc = labeled(parse(SAMPLE), "cdqs")
        path = tmp_path / "doc.journal"
        journal = Journal.create(path, ldoc, name="lib")
        with pytest.raises(RuntimeError):
            with ldoc.transaction(journal=journal) as txn:
                txn.append_child(ldoc.document.root, "lost")
                raise RuntimeError("boom")
        journal.close()
        result = recover(path)
        assert "lost" not in serialize(result.ldoc.document)
        assert result.transactions_applied == 0
        assert result.transactions_discarded == 1

    def test_torn_tail_line_is_dropped(self, tmp_path):
        ldoc, path = journalled_workload(tmp_path, "qed")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"type":"op","txn":9,"kind":"append-ch')
        records, torn = read_journal(path)
        assert torn
        assert all(record["type"] != "op" or record["txn"] != 9
                   for record in records)
        result = recover(path)
        assert result.torn_tail
        assert label_stream(result.ldoc) == label_stream(ldoc)

    def test_corrupt_interior_line_raises(self, tmp_path):
        ldoc, path = journalled_workload(tmp_path, "qed")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("not json at all\n")
            handle.write(json.dumps({"type": "begin", "txn": 9}) + "\n")
        with pytest.raises(JournalError):
            read_journal(path)


class TestJournalFile:
    def test_reattach_after_torn_tail_truncates_and_continues(self, tmp_path):
        """Regression: attaching to a journal with a torn tail used to
        append straight after the torn bytes, fusing two records into one
        corrupt mid-file line and making every committed transaction
        unrecoverable.  The constructor now truncates the torn tail."""
        ldoc, path = journalled_workload(tmp_path, "qed")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"type":"op","txn":9,"kind":"append-ch')
        journal = Journal(path)
        with ldoc.transaction(journal=journal) as txn:
            txn.append_child(ldoc.document.root, "annex2")
        journal.close()
        records, torn = read_journal(path)
        assert not torn
        result = recover(path)
        assert result.transactions_applied == 3
        assert label_stream(result.ldoc) == label_stream(ldoc)

    def test_reopened_journal_continues_transaction_numbering(self, tmp_path):
        ldoc, path = journalled_workload(tmp_path, "cdqs")
        journal = Journal(path)
        assert journal._has_base
        txn = journal.begin()
        assert txn == 3
        journal.rollback()
        journal.close()

    def test_unknown_sync_policy_rejected(self, tmp_path):
        with pytest.raises(JournalError):
            Journal(tmp_path / "x.journal", sync="sometimes")

    def test_append_requires_base(self, tmp_path):
        journal = Journal(tmp_path / "x.journal")
        from repro.updates.operations import OpKind, Operation

        with pytest.raises(JournalError):
            journal.append(Operation(kind=OpKind.APPEND_CHILD, target=0))
        journal.close()

    def test_recover_requires_base(self, tmp_path):
        path = tmp_path / "x.journal"
        path.write_text(json.dumps({"type": "begin", "txn": 1}) + "\n")
        with pytest.raises(RecoveryError):
            recover(path)

    def test_metrics_published(self, tmp_path):
        from repro.observability.metrics import get_registry

        registry = get_registry()
        with registry.scoped() as delta:
            journalled_workload(tmp_path, "cdqs")
        assert delta.get("durability.journal.appends", 0) == 3
        assert delta.get("durability.journal.commits", 0) == 2

    def test_recovery_counters_published(self, tmp_path):
        from repro.observability.metrics import get_registry
        from repro.updates.operations import OpKind, Operation

        ldoc = labeled(parse(SAMPLE), "cdqs")
        path = tmp_path / "doc.journal"
        journal = Journal.create(path, ldoc, name="lib")
        with ldoc.transaction(journal=journal) as txn:
            txn.append_child(ldoc.document.root, "kept")
        # Crash victim: two journalled ops, commit marker never written.
        journal.begin()
        journal.append(Operation(kind=OpKind.APPEND_CHILD, target=0,
                                 name="lost"))
        journal.append(Operation(kind=OpKind.APPEND_CHILD, target=0,
                                 name="also-lost"))
        journal.close()
        with get_registry().scoped() as delta:
            recover(path)
        assert delta.get("durability.recover.records_replayed") == 1
        assert delta.get("durability.recover.records_discarded") == 2
