"""The physical planner: lower a pattern graph to a strategy.

Strategies (the names the engine and benchmarks use):

=================  ======================================================
``nok``            single-scan NoK matcher (NoK patterns only)
``partitioned``    NoK partitions + structural joins (any pattern)
``structural-join``one stack-tree join per edge
``pathstack``      holistic path join (linear patterns)
``twigstack``      holistic twig join (branching patterns)
``navigational``   node-at-a-time traversal (commercial stand-in)
``index-scan``     content B+ tree probe + verification
``columnar``       vectorized semi-joins over label columns
``auto``           cost-model choice (:class:`repro.algebra.cost.CostModel`)
=================  ======================================================

``auto`` consults the cost model, then falls back gracefully when the
chosen strategy cannot express the pattern (e.g. PathStack on a twig).

The ``columnar`` knob (mirroring ``Database(columnar=...)``) controls
how ``auto`` treats the vectorized path: ``auto`` lets the cost model
compare it, ``on`` forces it for every eligible pattern, ``off`` never
plans it (an explicit ``strategy="columnar"`` request still runs it).
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Optional

from repro.errors import ExecutionError, PlanError
from repro.algebra.cost import CostModel
from repro.algebra.pattern_graph import PatternGraph
from repro.physical.base import MatchRuntime, OperatorStats
from repro.physical.columnar import ColumnarMatcher, columnar_eligible
from repro.physical.indexscan import IndexScanMatcher
from repro.physical.navigational import NavigationalMatcher
from repro.physical.nok import NoKMatcher
from repro.physical.partition import PartitionedMatcher
from repro.physical.pathstack import PathStackJoin
from repro.physical.structural_join import BinaryJoinMatcher
from repro.physical.twigstack import TwigStackJoin

__all__ = ["PhysicalPlanner", "STRATEGIES", "COLUMNAR_MODES",
           "MEMO_CAPACITY"]

STRATEGIES = ("nok", "partitioned", "structural-join", "pathstack",
              "twigstack", "navigational", "index-scan", "columnar",
              "auto")

COLUMNAR_MODES = ("auto", "on", "off")

# Most choices a strategy memo keeps.  Signatures carry literal values,
# so never-repeating ad-hoc texts would otherwise grow it without end;
# the least recently used choice is dropped first.
MEMO_CAPACITY = 1024


class PhysicalPlanner:
    """Chooses and runs a physical strategy for pattern matching.

    ``choice_memo`` (optional) memoizes ``auto``-mode strategy choices
    across calls: keys are ``(pattern signature, statistics
    generation)``, so a choice is reused for the repeated executions of
    a hot query but naturally expires whenever an update changes the
    document statistics.  The dict is owned by the caller (the engine
    keeps one per document *version* — successor versions start fresh,
    so a memo can never leak across an MVCC publish) and survives
    planner instances.

    The memo is an LRU bounded at :data:`MEMO_CAPACITY` entries (a
    plain dict kept in recency order: a hit re-inserts its key, an
    overflowing put drops the oldest).

    ``memo_lock`` (optional) guards the memo dict: concurrent reader
    threads executing the same hot pattern read and fill it
    simultaneously.  Only the get/put touch the lock — cost-model
    evaluation runs outside it, so a racing miss costs at worst one
    duplicate costing whose identical result is idempotent to store.
    """

    def __init__(self, cost_model: Optional[CostModel] = None,
                 choice_memo: Optional[dict] = None,
                 memo_lock=None, columnar: str = "auto"):
        if columnar not in COLUMNAR_MODES:
            raise PlanError(f"columnar mode must be one of "
                            f"{COLUMNAR_MODES}, got {columnar!r}")
        self.cost_model = cost_model
        self.choice_memo = choice_memo
        self.memo_lock = memo_lock
        self.columnar = columnar
        self.memo_hits = 0
        self.memo_misses = 0

    def _memo_get(self, memo_key: tuple) -> Optional[str]:
        with self.memo_lock or nullcontext():
            memo = self.choice_memo
            choice = memo.pop(memo_key, None)
            if choice is not None:
                memo[memo_key] = choice  # most recently used goes last
            return choice

    def _memo_put(self, memo_key: tuple, choice: str) -> None:
        with self.memo_lock or nullcontext():
            memo = self.choice_memo
            memo.pop(memo_key, None)
            memo[memo_key] = choice
            if len(memo) > MEMO_CAPACITY:
                del memo[next(iter(memo))]

    def _memo_key(self, pattern: PatternGraph) -> Optional[tuple]:
        if self.choice_memo is None:
            return None
        generation = 0
        if self.cost_model is not None:
            generation = getattr(self.cost_model.stats, "generation", 0)
        # The columnar knob is part of the key: toggling it at runtime
        # must never serve a choice memoized under the other mode.
        return (pattern.signature(), generation, self.columnar)

    def choose(self, pattern: PatternGraph) -> str:
        """The strategy ``auto`` resolves to for this pattern."""
        memo_key = self._memo_key(pattern)
        if memo_key is not None:
            cached = self._memo_get(memo_key)
            if cached is not None:
                self.memo_hits += 1
                return cached
            self.memo_misses += 1
        choice = self._choose_uncached(pattern)
        if memo_key is not None:
            self._memo_put(memo_key, choice)
        return choice

    def _choose_uncached(self, pattern: PatternGraph) -> str:
        if self.columnar == "on" and columnar_eligible(pattern):
            return "columnar"
        if self.cost_model is None:
            return "nok" if pattern.is_nok() else "partitioned"
        choice = self.cost_model.cheapest_strategy(
            pattern, include_columnar=self.columnar == "auto")
        if choice == "structural-join" and pattern.is_nok():
            choice = "nok"  # cost ties favour the native scan
        if choice == "twigstack" and self._is_linear(pattern):
            choice = "pathstack"
        return choice

    def match(self, pattern: PatternGraph, runtime: MatchRuntime,
              root: int = 0, strategy: str = "auto"
              ) -> tuple[list[int], OperatorStats, str]:
        """Evaluate ``pattern``; returns (matches, stats, strategy used).

        Output is the distinct pre-order ids of the single output vertex
        (multi-output patterns run through NoK/partitioned only).
        Pattern guards are not checked here: the caller decides them
        first (:func:`repro.algebra.operators.guards_hold`).
        """
        if strategy not in STRATEGIES:
            raise PlanError(f"unknown strategy {strategy!r}")
        was_auto = strategy == "auto"
        if was_auto:
            strategy = self.choose(pattern)
        try:
            return self._dispatch(pattern, runtime, root, strategy)
        except ExecutionError:
            if strategy in ("nok", "partitioned"):
                raise
            # The costed choice could not express the pattern
            # (multi-output, branching for pathstack, ...): fall back.
            fallback = "nok" if pattern.is_nok() else "partitioned"
            result = self._dispatch(pattern, runtime, root, fallback)
            if was_auto:
                # Remember the *working* strategy so repeated executions
                # of this pattern skip the doomed attempt entirely.
                memo_key = self._memo_key(pattern)
                if memo_key is not None:
                    self._memo_put(memo_key, fallback)
            return result

    def match_bindings(self, pattern: PatternGraph, runtime: MatchRuntime,
                       root: int = 0) -> tuple[list[dict], OperatorStats]:
        """Full output-vertex bindings (tuples) — always via the NoK
        machinery, which natively produces them.  Guards are the
        caller's, as in :meth:`match`."""
        if pattern.is_nok():
            matcher = NoKMatcher(pattern, anchored=True)
            bindings = matcher.run(runtime, root=root)
            return bindings, matcher.stats
        partitioned = PartitionedMatcher(pattern)
        output_ids = {v.vertex_id for v in pattern.output_vertices()}
        tuples = partitioned.partition_tuples(runtime, root)
        bindings = [{vid: node for vid, node in binding.items()
                     if vid in output_ids} for binding in tuples]
        unique: dict[tuple, dict] = {}
        for binding in bindings:
            unique.setdefault(tuple(sorted(binding.items())), binding)
        return list(unique.values()), partitioned.stats

    def _dispatch(self, pattern: PatternGraph, runtime: MatchRuntime,
                  root: int, strategy: str
                  ) -> tuple[list[int], OperatorStats, str]:
        if strategy == "nok":
            if not pattern.is_nok():
                matcher = PartitionedMatcher(pattern)
                return (matcher.run(runtime, root=root), matcher.stats,
                        "partitioned")
            nok = NoKMatcher(pattern, anchored=True)
            bindings = nok.run(runtime, root=root)
            output_ids = [v.vertex_id for v in pattern.output_vertices()]
            if len(output_ids) != 1:
                raise ExecutionError("planner.match needs a single output; "
                                     "use match_bindings")
            matches = sorted({binding[output_ids[0]]
                              for binding in bindings
                              if output_ids[0] in binding})
            nok.stats.solutions = len(matches)
            return matches, nok.stats, "nok"
        if strategy == "partitioned":
            matcher = PartitionedMatcher(pattern)
            return matcher.run(runtime, root=root), matcher.stats, strategy
        if strategy == "structural-join":
            matcher = BinaryJoinMatcher(pattern)
            return matcher.run(runtime, root=root), matcher.stats, strategy
        if strategy == "pathstack":
            matcher = PathStackJoin(pattern)
            return matcher.run(runtime, root=root), matcher.stats, strategy
        if strategy == "twigstack":
            matcher = TwigStackJoin(pattern)
            return matcher.run(runtime, root=root), matcher.stats, strategy
        if strategy == "navigational":
            matcher = NavigationalMatcher(pattern)
            return matcher.run(runtime, root=root), matcher.stats, strategy
        if strategy == "columnar":
            matcher = ColumnarMatcher(pattern)
            return matcher.run(runtime, root=root), matcher.stats, strategy
        if strategy == "index-scan":
            matcher = IndexScanMatcher(pattern)
            return matcher.run(runtime, root=root), matcher.stats, strategy
        raise PlanError(f"unknown strategy {strategy!r}")  # pragma: no cover

    @staticmethod
    def _is_linear(pattern: PatternGraph) -> bool:
        return all(len(pattern.children_of(vid)) <= 1
                   for vid in pattern.vertices)
