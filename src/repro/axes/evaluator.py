"""XPath axis evaluation over a labelled document.

Evaluates the major axes *from labels* wherever the scheme's labels
decide the necessary relationship, falling back to tree pointers only if
the caller allows it.  This is the machinery behind the paper's section
2.2 observation that label-decidable relationships "contribute
significantly to the reduction of XPath processing costs": a
label-decided axis is one pass over the label table, no tree navigation.
"""

from __future__ import annotations

import functools
from typing import Callable, List, Optional

from repro.axes.accelerator import POSTINGS_AXES, POSTINGS_STRATEGY
from repro.errors import UnsupportedRelationshipError
from repro.updates.document import LabeledDocument
from repro.xmlmodel.tree import XMLNode

# The canonical axis list lives with the grammar; re-exported here
# because this module is where axis *evaluation* is looked up.
from repro.axes.xpath_ast import AXES


class AxisEvaluator:
    """Axis queries over one :class:`LabeledDocument`.

    ``allow_fallback=True`` lets axes the scheme's labels cannot decide
    be answered from tree pointers instead (with the fallback counted),
    so the same evaluator runs on every scheme while the benchmarks can
    report how often labels sufficed.

    ``accelerator`` (an :class:`~repro.axes.accelerator.AxisAccelerator`
    over the same document) reroutes every axis it covers to window
    range scans instead of the O(n) label-table scan; axes it does not
    cover, and any caller passing ``accelerator=None``, take the scan
    path unchanged — which is also the benchmark baseline.
    """

    def __init__(self, ldoc: LabeledDocument, allow_fallback: bool = False,
                 accelerator=None):
        self.ldoc = ldoc
        self.scheme = ldoc.scheme
        self.allow_fallback = allow_fallback
        self.accelerator = accelerator
        self.fallbacks = 0
        self.accelerated_hits = 0

    # ------------------------------------------------------------------

    def evaluate(self, axis: str, node: XMLNode) -> List[XMLNode]:
        """All nodes on ``axis`` from ``node``, in document order."""
        if (self.accelerator is not None
                and axis in self.accelerator.ACCELERATED_AXES):
            if axis not in AXES:
                raise UnsupportedRelationshipError(f"unknown axis {axis!r}")
            self.accelerated_hits += 1
            return self.accelerator.evaluate(axis, node)
        return self.evaluate_scan(axis, node)

    def evaluate_scan(self, axis: str, node: XMLNode) -> List[XMLNode]:
        """``axis`` from ``node`` via the label-table scan path only.

        Identical to :meth:`evaluate` with ``accelerator=None``; EXPLAIN
        uses it to keep answering a query whose index has gone stale
        while reporting the ``scan`` strategy (where a plain query would
        surface :class:`~repro.errors.StaleIndexError`).
        """
        if axis not in AXES:
            raise UnsupportedRelationshipError(f"unknown axis {axis!r}")
        handler = getattr(self, "_axis_" + axis.replace("-", "_"))
        return handler(node)

    def strategy_for(self, axis: str,
                     name_test: str = "*") -> "tuple[str, str]":
        """``(strategy, reason)`` describing how ``axis`` under
        ``name_test`` would be answered right now — the EXPLAIN routing
        decision, and the one :class:`~repro.axes.xpath.XPathEvaluator`
        acts on.

        Strategies: ``accelerator-postings`` (a name-tested descendant
        step sliced from the per-name postings of an attached index),
        ``accelerator-window`` (window range scans), ``plane`` (a static
        :class:`~repro.axes.plane.PrePostPlane`), ``scan`` (the O(n)
        label-table pass), with the reason stated.
        """
        accelerator = self.accelerator
        if accelerator is None:
            return ("scan", "no accelerator attached")
        if axis not in accelerator.ACCELERATED_AXES:
            return ("scan", f"axis {axis!r} is not accelerated")
        state, reason = accelerator.explain_state()
        if state == "refuse":
            return ("scan", reason)
        if (name_test != "*" and axis in POSTINGS_AXES
                and accelerator.attached):
            # Only an attached index sees every rename, so only it
            # keeps postings.
            return (POSTINGS_STRATEGY,
                    f"{name_test!r} postings sliced to the subtree window")
        return (accelerator.STRATEGY, reason)

    def evaluate_named(self, axis: str, node: XMLNode,
                       name_test: str) -> List[XMLNode]:
        """Elements called ``name_test`` on a descendant ``axis`` of
        ``node``, from the accelerator's postings."""
        self.accelerated_hits += 1
        return self.accelerator.named_descendants(axis, node, name_test)

    # -- axes ------------------------------------------------------------

    def _axis_self(self, node: XMLNode) -> List[XMLNode]:
        return [node]

    def _axis_ancestor(self, node: XMLNode) -> List[XMLNode]:
        return self._filter_by_label(
            node, lambda label, other: self.scheme.is_ancestor(other, label),
            fallback=lambda: list(node.ancestors())[::-1],
        )

    def _axis_ancestor_or_self(self, node: XMLNode) -> List[XMLNode]:
        return self._merge(self._axis_ancestor(node), [node])

    def _axis_descendant(self, node: XMLNode) -> List[XMLNode]:
        return self._filter_by_label(
            node, lambda label, other: self.scheme.is_ancestor(label, other),
            fallback=lambda: [
                child for child in node.descendants() if child.kind.is_labeled
            ],
        )

    def _axis_descendant_or_self(self, node: XMLNode) -> List[XMLNode]:
        return self._merge([node], self._axis_descendant(node))

    def _axis_parent(self, node: XMLNode) -> List[XMLNode]:
        result = self._filter_by_label(
            node, lambda label, other: self.scheme.is_parent(other, label),
            fallback=lambda: [node.parent] if node.parent is not None else [],
        )
        return result

    def _axis_child(self, node: XMLNode) -> List[XMLNode]:
        return self._filter_by_label(
            node, lambda label, other: self.scheme.is_parent(label, other),
            fallback=node.labeled_children,
        )

    def _axis_following(self, node: XMLNode) -> List[XMLNode]:
        # Nodes after this one in document order, minus its descendants.
        def predicate(label, other):
            return (
                self.scheme.compare(label, other) < 0
                and not self.scheme.is_ancestor(label, other)
            )

        return self._filter_by_label(
            node, predicate, fallback=lambda: self._following_by_tree(node)
        )

    def _axis_preceding(self, node: XMLNode) -> List[XMLNode]:
        def predicate(label, other):
            return (
                self.scheme.compare(other, label) < 0
                and not self.scheme.is_ancestor(other, label)
            )

        return self._filter_by_label(
            node, predicate, fallback=lambda: self._preceding_by_tree(node)
        )

    def _axis_following_sibling(self, node: XMLNode) -> List[XMLNode]:
        def predicate(label, other):
            return (
                self.scheme.is_sibling(label, other)
                and self.scheme.compare(label, other) < 0
            )

        return self._filter_by_label(
            node, predicate,
            fallback=lambda: [
                sibling for sibling in node.following_siblings()
                if sibling.kind.is_labeled
            ],
        )

    def _axis_preceding_sibling(self, node: XMLNode) -> List[XMLNode]:
        def predicate(label, other):
            return (
                self.scheme.is_sibling(label, other)
                and self.scheme.compare(other, label) < 0
            )

        return self._filter_by_label(
            node, predicate,
            fallback=lambda: [
                sibling for sibling in node.preceding_siblings()
                if sibling.kind.is_labeled
            ][::-1],
        )

    def _axis_attribute(self, node: XMLNode) -> List[XMLNode]:
        return node.attributes()

    # -- helpers -----------------------------------------------------------

    def _filter_by_label(
        self,
        node: XMLNode,
        predicate: Callable,
        fallback: Optional[Callable] = None,
    ) -> List[XMLNode]:
        """Scan the label table with ``predicate(node_label, other_label)``."""
        label = self.ldoc.label_of(node)
        try:
            matches = [
                other
                for other in self.ldoc.document.labeled_nodes()
                if other.node_id != node.node_id
                and predicate(label, self.ldoc.label_of(other))
            ]
            return matches
        except UnsupportedRelationshipError:
            if not self.allow_fallback or fallback is None:
                raise
            self.fallbacks += 1
            result = fallback()
            return [item for item in result if item is not None]

    def _merge(self, first: List[XMLNode], second: List[XMLNode]) -> List[XMLNode]:
        combined = {node.node_id: node for node in first + second}
        return self._document_order(list(combined.values()))

    def _document_order(self, nodes: List[XMLNode]) -> List[XMLNode]:
        return sorted(
            nodes,
            key=functools.cmp_to_key(
                lambda a, b: self.scheme.compare(
                    self.ldoc.label_of(a), self.ldoc.label_of(b)
                )
            ),
        )

    def _following_by_tree(self, node: XMLNode) -> List[XMLNode]:
        order = list(self.ldoc.document.labeled_nodes())
        position = next(
            index for index, other in enumerate(order)
            if other.node_id == node.node_id
        )
        descendants = {child.node_id for child in node.descendants()}
        return [
            other for other in order[position + 1 :]
            if other.node_id not in descendants
        ]

    def _preceding_by_tree(self, node: XMLNode) -> List[XMLNode]:
        order = list(self.ldoc.document.labeled_nodes())
        position = next(
            index for index, other in enumerate(order)
            if other.node_id == node.node_id
        )
        ancestors = {anc.node_id for anc in node.ancestors()}
        return [
            other for other in order[:position]
            if other.node_id not in ancestors
        ]
