"""A mini XPath: location paths over the labelled document.

The paper's scope is labelling, not query languages, but its properties
are justified by XPath processing cost; this evaluator makes that
concrete.  The grammar lives in :mod:`repro.axes.xpath_ast` — one typed
AST shared with the EXPLAIN planner and the update/query independence
analyzer — while this module owns *evaluation*: routing each parsed
step through :class:`~repro.axes.evaluator.AxisEvaluator` (labels,
accelerator windows or tree fallbacks) and merging results in document
order with duplicates eliminated — the XPath requirements Definition 1
exists to serve.
"""

from __future__ import annotations

import functools
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.axes.accelerator import POSTINGS_STRATEGY
from repro.axes.evaluator import AxisEvaluator
from repro.axes.xpath_ast import (
    Step,
    apply_node_tests,
    parse_path,
    split_union,
)
from repro.updates.document import LabeledDocument
from repro.xmlmodel.tree import XMLNode

__all__ = ["Step", "XPathEvaluator", "parse_path", "xpath"]


class XPathEvaluator:
    """Evaluates parsed paths against a :class:`LabeledDocument`.

    ``accelerator`` (see :class:`~repro.axes.accelerator.AxisAccelerator`)
    reroutes the axis steps it covers to window range scans, and
    name-tested descendant steps to its per-name postings; without one,
    every step takes the label-table scan path.  While the accelerator
    would answer, its positions are also the document order every step's
    results are merged into.

    ``recorder`` (a :class:`~repro.observability.explain.PlanRecorder`)
    turns on EXPLAIN instrumentation: every location step reports its
    routing strategy, context size, axis candidates, cardinality and wall
    time.  The default ``None`` reads no clock.  In recorder mode, steps
    whose index would refuse (stale detached accelerator) are answered
    via the label-table scan instead of raising, so EXPLAIN can always
    show the full plan.
    """

    #: EXPLAIN reason of an absolute path's first child step.
    ROOT_TEST = "first step from the virtual document node (root test)"

    def __init__(self, ldoc: LabeledDocument, allow_fallback: bool = True,
                 accelerator=None, recorder=None):
        self.ldoc = ldoc
        self.axes = AxisEvaluator(ldoc, allow_fallback=allow_fallback,
                                  accelerator=accelerator)
        self.recorder = recorder
        self._order: Optional[Dict[int, int]] = None

    def evaluate(self, path: str,
                 context: Optional[XMLNode] = None) -> List[XMLNode]:
        """All matching nodes, in document order, duplicates removed.

        Top-level ``|`` unions are supported: each branch is evaluated
        independently and the results merge in document order.
        """
        self._order = None
        branches = split_union(path)
        gathered: List[XMLNode] = []
        for branch in branches:
            gathered.extend(self._evaluate_single(branch, context))
        return gathered if len(branches) == 1 else self._dedupe(gathered)

    def route(self, step: Step, from_root: bool) -> Tuple[str, str, str]:
        """``(axis, strategy, reason)`` for one step.

        An absolute path's first step runs from the virtual document
        node: ``/book`` tests the root itself and ``//book`` is the
        root's descendant-or-self axis.
        """
        if from_root and step.axis == "child":
            return ("self", "scan", self.ROOT_TEST)
        axis = ("descendant-or-self"
                if from_root and step.axis == "descendant" else step.axis)
        return (axis,) + self.axes.strategy_for(axis, step.name_test)

    def _evaluate_single(self, path: str,
                         context: Optional[XMLNode] = None) -> List[XMLNode]:
        absolute, steps = parse_path(path)
        root = self.ldoc.document.root
        if root is None:
            return []
        if self.recorder is not None:
            self.recorder.begin_branch(path)
        current = [root if absolute else context or root]
        for index, step in enumerate(steps):
            current = self._evaluate_step(step, current,
                                          absolute and index == 0)
        return current

    def _evaluate_step(self, step: Step, current: List[XMLNode],
                       from_root: bool) -> List[XMLNode]:
        # Predicates are evaluated once per context node, over that
        # node's own axis result — XPath 1.0 semantics: /a/b/c[1] is
        # the first c of *each* b, not the first of the merged set.
        recorder = self.recorder
        started = time.perf_counter() if recorder is not None else 0.0
        axis, strategy, reason = self.route(step, from_root)
        if strategy == POSTINGS_STRATEGY:
            fetch = functools.partial(self.axes.evaluate_named, axis,
                                      name_test=step.name_test)
        elif strategy == "scan" and recorder is not None:
            fetch = functools.partial(self.axes.evaluate_scan, axis)
        else:
            fetch = functools.partial(self.axes.evaluate, axis)
        axis_rows = 0
        gathered: List[XMLNode] = []
        for node in current:
            candidates = fetch(node)
            axis_rows += len(candidates)
            gathered.extend(apply_node_tests(step, candidates))
        output = self._dedupe(gathered)
        if recorder is not None:
            recorder.record_step(
                step, strategy=strategy, reason=reason,
                context_size=len(current), axis_rows=axis_rows,
                actual_rows=len(output),
                elapsed_s=time.perf_counter() - started,
            )
        return output

    def _dedupe(self, nodes: List[XMLNode]) -> List[XMLNode]:
        unique = list({node.node_id: node for node in nodes}.values())
        if len(unique) < 2:
            return unique
        return sorted(unique, key=self._order_key())

    def _order_key(self) -> Callable[[XMLNode], int]:
        """Document position of a node: the accelerator's, unless it
        would refuse; else one walk per :meth:`evaluate` call."""
        accelerator = self.axes.accelerator
        if (accelerator is not None
                and accelerator.explain_state()[0] != "refuse"):
            return accelerator.order_key()
        if self._order is None:
            self._order = {
                node.node_id: position for position, node
                in enumerate(self.ldoc.document.labeled_nodes())
            }
        order = self._order
        return lambda node: order[node.node_id]


def xpath(ldoc: LabeledDocument, path: str,
          context: Optional[XMLNode] = None,
          accelerator=None) -> List[XMLNode]:
    """Module-level shortcut: evaluate ``path`` over ``ldoc``."""
    return XPathEvaluator(ldoc, accelerator=accelerator).evaluate(
        path, context
    )
