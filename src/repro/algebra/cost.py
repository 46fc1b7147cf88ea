"""The cost model (the paper's declared future work, built as planned).

Two halves:

* **cardinality estimation** — walking a pattern graph with the one-pass
  :class:`~repro.storage.stats.DocumentStatistics`: child edges use the
  (parent-tag, child-tag) edge counts, ``//`` edges the (ancestor,
  descendant) pair counts, value constraints the uniform-distinct-values
  selectivity.
* **strategy costing** — page-oriented formulas for each physical
  strategy, mirroring what the operators actually charge to the
  :class:`~repro.storage.pages.PageManager`:

  - ``nok``: one sequential scan of the structure segment (plus output);
  - ``structural-join``: posting-list pages for every pattern vertex plus
    merge work proportional to the intermediate-list sizes;
  - ``twigstack``: posting-list pages plus solution-list work;
  - ``navigational``: touches proportional to the whole node count
    (node-at-a-time traversal);
  - ``index-scan`` (value predicates): B+ tree descent plus one page per
    matching posting.

  Every strategy also pays the same CPU for residual predicates: one
  reference-evaluator call per candidate of each residual vertex (see
  :meth:`CostModel._residual_cpu`).

The planner (engine) asks :meth:`CostModel.cheapest_strategy`; experiment
E5 verifies the model picks the right side of the selectivity crossover.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.storage.stats import DocumentStatistics
from repro.algebra.pattern_graph import (
    REL_ATTRIBUTE,
    REL_CHILD,
    REL_SIBLING,
    PatternGraph,
)

__all__ = ["CostModel", "CostEstimate"]

_POSTING_BYTES = 12
_PAGE_BYTES = 4096
_STRUCTURE_BITS_PER_NODE = 2 + 8   # BP bits + tag/kind budget
# CPU per candidate per residual predicate: a reference-evaluator call,
# orders of magnitude above a tag test or a bisect probe.
_RESIDUAL_CPU = 50.0


@dataclass(frozen=True)
class CostEstimate:
    """A strategy's estimated page I/O and CPU work."""

    strategy: str
    pages: float
    cpu: float

    @property
    def total(self) -> float:
        """Single comparable figure: pages dominate, CPU tie-breaks."""
        return self.pages + self.cpu / 10_000.0


class CostModel:
    """Cardinality and strategy costing over one document's statistics."""

    def __init__(self, stats: DocumentStatistics):
        self.stats = stats

    # -- cardinalities ----------------------------------------------------------

    def vertex_cardinality(self, pattern: PatternGraph,
                           vertex_id: int) -> float:
        """Estimated matches of one pattern vertex, propagated from the
        root along its unique incoming path."""
        edge = pattern.parent_edge(vertex_id)
        vertex = pattern.vertices[vertex_id]
        if edge is None:
            base = 1.0  # the anchored root (document / context)
        else:
            parent_card = self.vertex_cardinality(pattern, edge.source)
            base = parent_card * self._edge_fanout(pattern, edge)
        for op, literal in vertex.value_constraints:
            base *= self._constraint_selectivity(vertex, op)
        return base

    def _edge_fanout(self, pattern: PatternGraph, edge) -> float:
        parent = pattern.vertices[edge.source]
        child = pattern.vertices[edge.target]
        child_tags = self._tags_of(child)
        parent_tags = self._tags_of(parent)
        child_total = sum(self.stats.count(tag) for tag in child_tags) \
            if child_tags else float(self.stats.node_count)
        if not parent_tags:
            # Unlabelled parent (document root / wildcard): every
            # child-tagged node is reachable once.
            return float(child_total)
        parent_total = sum(self.stats.count(tag) for tag in parent_tags)
        if parent_total == 0:
            return 0.0
        if edge.relation in (REL_CHILD, REL_ATTRIBUTE, REL_SIBLING):
            pairs = sum(self.stats.child_count(p, c)
                        for p in parent_tags for c in child_tags) \
                if child_tags else parent_total  # wildcard child
            return pairs / parent_total
        pairs = sum(self.stats.descendant_count(p, c)
                    for p in parent_tags for c in child_tags) \
            if child_tags else float(child_total)
        return pairs / parent_total

    def _tags_of(self, vertex) -> list[str]:
        if vertex.labels is None:
            if vertex.kind == "text":
                return ["#text"]
            return []
        if vertex.kind == "attribute":
            return ["@" + label for label in vertex.labels]
        return sorted(vertex.labels)

    def _constraint_selectivity(self, vertex, op: str) -> float:
        tags = self._tags_of(vertex)
        if not tags:
            return 0.5
        selectivity = max(
            (self.stats.value_selectivity(tag) for tag in tags),
            default=0.5)
        if selectivity == 0.0:
            selectivity = 0.5
        if op != "=":
            # Range/inequality predicates keep roughly a third.
            selectivity = max(selectivity, 1.0 / 3.0)
        return selectivity

    def result_cardinality(self, pattern: PatternGraph) -> float:
        """Estimated size of the τ output (its output vertices).

        Value constraints on branch vertices off the root→output path
        (e.g. ``book[@year = '1994']``) filter the output too, so their
        selectivities multiply in here.
        """
        outputs = pattern.output_vertices()
        if not outputs:
            return 0.0
        best = 0.0
        for output in outputs:
            estimate = self.vertex_cardinality(pattern, output.vertex_id)
            on_path = self._root_path(pattern, output.vertex_id)
            for vertex in pattern.vertices.values():
                if vertex.vertex_id in on_path:
                    continue
                for op, _ in vertex.value_constraints:
                    estimate *= self._constraint_selectivity(vertex, op)
            best = max(best, estimate)
        return best

    @staticmethod
    def _root_path(pattern: PatternGraph, vertex_id: int) -> set[int]:
        path = {vertex_id}
        edge = pattern.parent_edge(vertex_id)
        while edge is not None:
            path.add(edge.source)
            edge = pattern.parent_edge(edge.source)
        return path

    # -- strategy costs ------------------------------------------------------------

    def _structure_pages(self) -> float:
        bits = self.stats.node_count * _STRUCTURE_BITS_PER_NODE
        return max(1.0, bits / 8 / _PAGE_BYTES)

    def _posting_pages(self, tag_count: float) -> float:
        return max(1.0, tag_count * _POSTING_BYTES / _PAGE_BYTES)

    def _residual_cpu(self, pattern: PatternGraph) -> float:
        """The per-candidate price of residual predicates: each one
        re-enters the reference evaluator once for every candidate of
        its vertex (the anchored root has one candidate and is free)."""
        return sum(_RESIDUAL_CPU * len(vertex.residual)
                   * self._vertex_posting_count(pattern, vertex_id)
                   for vertex_id, vertex in pattern.vertices.items()
                   if vertex.residual and vertex_id != pattern.root)

    def nok_cost(self, pattern: PatternGraph) -> CostEstimate:
        """One sequential scan of the structure segment; CPU per event."""
        return CostEstimate("nok", pages=self._structure_pages(),
                            cpu=2.0 * self.stats.node_count
                            + self._residual_cpu(pattern))

    def partitioned_cost(self, pattern: PatternGraph) -> CostEstimate:
        """One shared structure scan for all NoK partitions plus a merge
        join per cut (non-local) edge over the partial-result tuples."""
        cut_edges = pattern.non_local_edges()
        cpu = 2.0 * self.stats.node_count + self._residual_cpu(pattern)
        for edge in cut_edges:
            cpu += self.vertex_cardinality(pattern, edge.source)
            cpu += self.vertex_cardinality(pattern, edge.target)
        return CostEstimate("partitioned", pages=self._structure_pages(),
                            cpu=cpu)

    def structural_join_cost(self, pattern: PatternGraph) -> CostEstimate:
        """Posting fetch per vertex plus pairwise merges (intermediate
        lists can blow up on deep chains)."""
        pages = 0.0
        cpu = self._residual_cpu(pattern)
        for vertex_id in pattern.vertices:
            if vertex_id == pattern.root:
                continue
            count = self._vertex_posting_count(pattern, vertex_id)
            pages += self._posting_pages(count)
            cpu += count
        for edge in pattern.edges:
            left = self._vertex_posting_count(pattern, edge.source)
            right = self._vertex_posting_count(pattern, edge.target)
            cpu += left + right
        return CostEstimate("structural-join", pages=pages, cpu=cpu)

    def twigstack_cost(self, pattern: PatternGraph) -> CostEstimate:
        """Posting fetch per vertex; solution work linear in inputs."""
        pages = 0.0
        cpu = self._residual_cpu(pattern)
        for vertex_id in pattern.vertices:
            if vertex_id == pattern.root:
                continue
            count = self._vertex_posting_count(pattern, vertex_id)
            pages += self._posting_pages(count)
            cpu += count
        return CostEstimate("twigstack", pages=pages, cpu=cpu)

    def columnar_cost(self, pattern: PatternGraph):
        """Vectorized semi-joins over label columns: the same posting
        pages as the holistic joins, but the per-entry CPU constant is a
        bisect/set probe instead of node-at-a-time dispatch.  Residual
        predicates cost what they cost everywhere (the batch
        post-filter re-enters the reference evaluator per candidate).
        Returns ``None`` for patterns the batch kernels cannot
        evaluate."""
        from repro.physical.columnar import columnar_eligible

        if not columnar_eligible(pattern):
            return None
        pages = 0.0
        cpu = self._residual_cpu(pattern)
        for vertex_id in pattern.vertices:
            if vertex_id == pattern.root:
                continue
            count = self._vertex_posting_count(pattern, vertex_id)
            pages += self._posting_pages(count)
            cpu += 0.2 * count
        return CostEstimate("columnar", pages=pages, cpu=cpu)

    def navigational_cost(self, pattern: PatternGraph) -> CostEstimate:
        """Node-at-a-time traversal of the whole tree (the commercial
        native-system stand-in)."""
        nodes = float(self.stats.node_count)
        return CostEstimate("navigational",
                            pages=max(1.0, nodes * 24 / _PAGE_BYTES),
                            cpu=4.0 * nodes + self._residual_cpu(pattern))

    def index_scan_cost(self, pattern: PatternGraph) -> CostEstimate:
        """Content-index driven: only meaningful when some vertex has an
        equality value constraint; descends the B+ tree then verifies
        each hit structurally."""
        constrained = [
            v for v in pattern.vertices.values()
            if any(op == "=" or (op in ("<", "<=", ">", ">=")
                                 and isinstance(lit, (int, float)))
                   for op, lit in v.value_constraints)]
        if not constrained:
            return CostEstimate("index-scan", pages=float("inf"),
                                cpu=float("inf"))
        fragmented = self.stats.fragmented_value_tags
        constrained = [
            v for v in constrained
            if v.kind in ("attribute", "text")
            or (v.labels is not None and not set(v.labels) & fragmented)]
        if not constrained:
            return CostEstimate("index-scan", pages=float("inf"),
                                cpu=float("inf"))
        vertex = min(constrained,
                     key=lambda v: self.vertex_cardinality(pattern,
                                                           v.vertex_id))
        hits = self.vertex_cardinality(pattern, vertex.vertex_id)
        # B+ height ~ log_64; one page per hit to verify structure.
        import math
        height = max(1.0, math.log(max(self.stats.node_count, 2), 64))
        verification = hits * pattern.vertex_count()
        return CostEstimate("index-scan", pages=height + hits,
                            cpu=verification + self._residual_cpu(pattern))

    def _vertex_posting_count(self, pattern: PatternGraph,
                              vertex_id: int) -> float:
        vertex = pattern.vertices[vertex_id]
        tags = self._tags_of(vertex)
        if not tags:
            return float(self.stats.node_count)
        return float(sum(self.stats.count(tag) for tag in tags))

    def all_costs(self, pattern: PatternGraph,
                  include_columnar: bool = False) -> list[CostEstimate]:
        """Every finite strategy estimate.  ``include_columnar`` opts the
        vectorized path into the comparison — the planner passes its
        ``columnar`` knob through, so ``off`` mode never costs it."""
        estimates = [
            self.nok_cost(pattern) if pattern.is_nok() else
            self.partitioned_cost(pattern),
            self.structural_join_cost(pattern),
            self.twigstack_cost(pattern),
            self.navigational_cost(pattern),
            self.index_scan_cost(pattern),
        ]
        if include_columnar:
            estimates.append(self.columnar_cost(pattern))
        return [e for e in estimates if e is not None
                and e.total != float("inf")]

    def cheapest_strategy(self, pattern: PatternGraph,
                          include_columnar: bool = False) -> str:
        """The strategy the optimizer would pick for this pattern."""
        estimates = self.all_costs(pattern,
                                   include_columnar=include_columnar)
        if not estimates:  # pragma: no cover - navigational always finite
            return "navigational"
        return min(estimates, key=lambda e: e.total).strategy
