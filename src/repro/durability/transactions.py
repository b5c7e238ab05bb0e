"""Atomic update transactions: undo records and rollback.

The paper grades labelling schemes on whether labels *survive* updates;
that grading presumes the update itself either happens or does not.
Before this layer, an exception inside an
:class:`~repro.updates.batch.UpdateBatch` abandoned the batch and left
the document half-mutated and partially unlabelled — exactly the corrupt
intermediate state an "XML repository in mainstream industry" must never
expose.  This module makes every update path atomic:

* :class:`UndoRecord` captures one document's full restorable state —
  the tree (cloned with node ids preserved), the label map, the label
  index and the update-log counters — and puts it back on demand.
* :class:`Transaction` is the ``with`` layer over an undo record: clean
  exit commits, an exception rolls the document back completely.  Given
  a :class:`~repro.durability.journal.Journal` it also write-ahead-logs
  every operation issued through it, so a committed transaction survives
  a process crash via journal replay.

Rollback restores *state*, not object graphs: the captured clone becomes
the live tree, so every node reference held across a rollback — whether
obtained inside the scope or before it — is stale and must be re-resolved
through queries on the document (which itself stays the same object, as
do the labels keyed by node id).
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Any, Dict, Optional

from repro.durability.faults import maybe_fail
from repro.errors import TransactionError, UpdateError
from repro.observability.metrics import get_registry
from repro.observability.ops import instrumented
from repro.updates.operations import (
    SIBLING_TARGETED,
    OpKind,
    Operation,
    apply_to_node,
    dispatch_operation,
    element_position,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.durability.journal import Journal
    from repro.updates.document import LabeledDocument
    from repro.updates.results import UpdateResult
    from repro.xmlmodel.tree import XMLNode

#: The UpdateLog counters an undo record restores.
_LOG_FIELDS = (
    "insertions", "deletions", "content_updates", "relabeled_nodes",
    "relabel_events", "overflow_events", "collisions",
)


class UndoRecord:
    """A full restorable snapshot of one :class:`LabeledDocument`.

    The tree is captured via :meth:`~repro.xmlmodel.tree.Document.clone`
    (node ids preserved, so the captured label map stays keyed
    correctly); labels, label index and log counters are captured as
    plain copies.  :meth:`rollback` puts everything back onto the *same*
    document object, bumps the document's ``rollbacks`` counter (which
    versions the repository indexes), and invalidates the scheme's
    comparison cache.
    """

    def __init__(self, ldoc: "LabeledDocument"):
        self._ldoc = ldoc
        self._tree = ldoc.document.clone()
        self._next_id = max(
            (node.node_id for node in ldoc.document.all_nodes()), default=-1
        ) + 1
        self._labels: Dict[int, Any] = dict(ldoc.labels)
        self._index: Dict[Any, int] = dict(ldoc._label_index)
        self._log = {
            name: getattr(ldoc.log, name) for name in _LOG_FIELDS
        }
        self._last_batch_result = ldoc.last_batch_result

    def rollback(self) -> None:
        """Restore the captured state onto the document, in place."""
        from repro.schemes.cache import comparison_cache_for

        ldoc = self._ldoc
        document = ldoc.document
        root = self._tree.root
        if root is not None:
            for node in root.preorder():
                node.document = document
        document.root = root
        document._next_id = itertools.count(self._next_id)
        ldoc.labels = dict(self._labels)
        ldoc._label_index = dict(self._index)
        for name, value in self._log.items():
            setattr(ldoc.log, name, value)
        ldoc.last_batch_result = self._last_batch_result
        # The rollback itself is observable: it versions the secondary
        # indexes (their refresh stamp includes it) and memoized
        # comparisons of labels that no longer exist are dropped.  The
        # tree swap bypasses insert_child/remove_child, so the structure
        # version is bumped by hand and delta subscribers are told to
        # rebuild.
        ldoc.log.record("rollbacks")
        document.note_structural_change()
        ldoc._publish_rebuild("rollback")
        comparison_cache_for(ldoc.scheme).invalidate()


class Transaction:
    """Atomic scope over one document's updates, with optional journal.

    ::

        with ldoc.transaction() as txn:
            txn.append_child(parent, "entry")   # journalable surface
            ldoc.updates.delete(stale)          # direct calls roll back too
        # clean exit == committed; any exception == fully rolled back

    The update methods on the transaction mirror the element-targeted
    subset of ``ldoc.updates``; they additionally serialise each call as
    a declarative :class:`~repro.updates.operations.Operation` and
    append it to the journal *before* applying it (write-ahead), so a
    committed transaction is reproducible by replay.  Updates made by
    calling the document directly inside the scope are covered by
    rollback but — carrying no declarative form — are invisible to the
    journal; journalled documents should route every update through the
    transaction surface.
    """

    def __init__(self, ldoc: "LabeledDocument",
                 journal: Optional["Journal"] = None):
        self._ldoc = ldoc
        self._journal = journal
        self._undo: Optional[UndoRecord] = None
        self._state = "idle"
        registry = get_registry()
        self._metric_commits = registry.counter("durability.commits")
        self._metric_rollbacks = registry.counter("durability.rollbacks")

    # -- lifecycle -------------------------------------------------------

    @property
    def state(self) -> str:
        """``idle``, ``active``, ``committed`` or ``rolled-back``."""
        return self._state

    def __enter__(self) -> "Transaction":
        self.begin()
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        if exc_type is not None:
            self.rollback()
        elif self._state == "active":
            # Commit can refuse before reaching its own rollback-wrapped
            # section (e.g. a batch with unapplied operations).  On the
            # clean-exit path nobody is left to resolve the scope, so the
            # error must still leave the document decided: rolled back.
            try:
                self.commit()
            except Exception:
                self.rollback()
                raise

    def begin(self) -> None:
        """Capture the undo record and open the journal transaction."""
        if self._state != "idle":
            raise TransactionError(f"transaction already {self._state}")
        ldoc = self._ldoc
        if ldoc._active_txn is not None:
            raise TransactionError("document already has an open transaction")
        if ldoc._active_batch is not None:
            raise TransactionError(
                "cannot open a transaction while a batch is open"
            )
        get_registry().counter("durability.transactions").increment()
        self._undo = UndoRecord(ldoc)
        ldoc._active_txn = self
        if self._journal is not None:
            self._journal.begin()
        self._state = "active"

    def commit(self) -> None:
        """Make the transaction's effects durable and close the scope.

        Commit is itself a crash point: if the commit marker cannot be
        journalled (or an injected fault fires first), the transaction
        rolls back before the error propagates — the caller never sees a
        document whose durability is undecided.
        """
        self._require_active()
        ldoc = self._ldoc
        if ldoc._active_batch is not None and ldoc._active_batch.pending:
            raise TransactionError(
                "cannot commit while a batch has unapplied operations"
            )
        with instrumented("transaction.commit",
                          scheme=ldoc.scheme.metadata.name,
                          journaled=self._journal is not None):
            try:
                maybe_fail("transaction.commit")
                if self._journal is not None:
                    self._journal.commit()
            except Exception:
                self.rollback()
                raise
            self._state = "committed"
            self._undo = None
            ldoc._active_txn = None
            self._metric_commits.increment()

    def rollback(self) -> None:
        """Restore the document to its pre-transaction state."""
        if self._state != "active":
            return
        ldoc = self._ldoc
        with instrumented("transaction.rollback",
                          scheme=ldoc.scheme.metadata.name,
                          journaled=self._journal is not None) as scope:
            scope.set(outcome="rollback")
            # A batch opened inside the scope and still live at rollback
            # time is subsumed: the undo record predates it.  Close it
            # too, so a caller still holding the reference cannot keep
            # mutating the rolled-back document against stale node
            # references.
            batch = ldoc._active_batch
            if batch is not None:
                batch._applied = True
                batch._undo = None
                batch._pending.clear()
            ldoc._active_batch = None
            self._undo.rollback()
            self._undo = None
            if self._journal is not None:
                self._journal.rollback()
            self._state = "rolled-back"
            ldoc._active_txn = None
            self._metric_rollbacks.increment()

    def _require_active(self) -> None:
        if self._state != "active":
            raise TransactionError(
                f"transaction is {self._state}, not active"
            )

    # -- the journalable update surface ----------------------------------

    def apply(self, operation: Operation) -> Optional["UpdateResult"]:
        """Journal one declarative operation, then apply it."""
        self._require_active()
        if self._journal is not None:
            self._journal.append(operation)
        return dispatch_operation(self._ldoc.updates, self._ldoc, operation)

    def insert_before(self, reference: "XMLNode",
                      name: str) -> Optional["UpdateResult"]:
        """Insert a new element immediately before ``reference``."""
        return self._apply_at(OpKind.INSERT_BEFORE, reference, name=name)

    def insert_after(self, reference: "XMLNode",
                     name: str) -> Optional["UpdateResult"]:
        """Insert a new element immediately after ``reference``."""
        return self._apply_at(OpKind.INSERT_AFTER, reference, name=name)

    def append_child(self, parent: "XMLNode",
                     name: str) -> Optional["UpdateResult"]:
        """Insert a new element as the last child of ``parent``."""
        return self._apply_at(OpKind.APPEND_CHILD, parent, name=name)

    def prepend_child(self, parent: "XMLNode",
                      name: str) -> Optional["UpdateResult"]:
        """Insert a new element as the first content child of ``parent``."""
        return self._apply_at(OpKind.PREPEND_CHILD, parent, name=name)

    def delete(self, node: "XMLNode") -> Optional["UpdateResult"]:
        """Remove ``node`` and its subtree."""
        return self._apply_at(OpKind.DELETE, node)

    def set_text(self, element: "XMLNode",
                 text: str) -> Optional["UpdateResult"]:
        """Replace an element's text content."""
        return self._apply_at(OpKind.SET_TEXT, element, text=text)

    def rename(self, node: "XMLNode", name: str) -> Optional["UpdateResult"]:
        """Rename an element."""
        return self._apply_at(OpKind.RENAME, node, name=name)

    def _apply_at(self, kind: OpKind, node: "XMLNode",
                  **fields: str) -> Optional["UpdateResult"]:
        """Journal a node-targeted call positionally, then apply it.

        The journalled :class:`Operation` is exactly what :meth:`apply`
        would journal, and its position resolves back to ``node``; the
        call goes straight to ``node`` instead of walking the tree again
        to resolve it (replay and recovery still resolve positions).
        """
        operation = Operation(
            kind=kind,
            target=self._position(node,
                                  exclude_root=kind in SIBLING_TARGETED),
            **fields,
        )
        self._require_active()
        if self._journal is not None:
            self._journal.append(operation)
        return apply_to_node(self._ldoc.updates, operation, node)

    def _position(self, node: "XMLNode", exclude_root: bool = False) -> int:
        try:
            return element_position(self._ldoc, node,
                                    exclude_root=exclude_root)
        except UpdateError as error:
            raise TransactionError(
                f"cannot journal this operation: {error}"
            ) from error
