"""The NoK (next-of-kin) pattern matcher — single-scan evaluation.

Section 4.2: "We have also identified a subset of the path expression,
which we call next-of-kin (NoK) expressions, consisting of only those
local structural relationships.  The evaluation of NoK expressions can be
performed more efficiently using a navigational technique based on our
physical storage structures without the need for structural joins."

The matcher consumes the pre-order scan of the succinct storage — one
sequential pass, the same order as streaming XML arrival — and maintains,
for every *open* node, the set of pattern vertices it may match.  A node's
match is *confirmed* at its close parenthesis, when all required child
edges have been satisfied by its (already closed) children; confirmations
propagate upward along the path stack.  Memory is O(depth × |pattern|)
plus output bindings.

Two modes:

* :meth:`NoKMatcher.run` — over a :class:`MatchRuntime` (storage mode);
  value constraints and residual predicates use the runtime's accessors.
* :meth:`NoKMatcher.run_stream` — over a raw parse-event stream
  (experiment E9: "the path query evaluation algorithm can also be used
  in the streaming context"); element text is buffered only while a
  value-constrained candidate is open.

Supported edges: ``/`` and ``@`` (the NoK relations the single scan can
resolve).  ``~`` (following-sibling) and ``//`` are partition boundaries
handled by :mod:`repro.physical.partition`.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.errors import ExecutionError
from repro.xml.events import (
    Characters,
    EndDocument,
    EndElement,
    Event,
    StartDocument,
    StartElement,
)
from repro.algebra.operators import compare_values
from repro.algebra.pattern_graph import (
    REL_ATTRIBUTE,
    REL_CHILD,
    PatternGraph,
)
from repro.physical.base import MatchRuntime, OperatorStats
from repro.storage.succinct import KIND_ATTRIBUTE

__all__ = ["NoKMatcher"]

_NOK_RELATIONS = frozenset({REL_CHILD, REL_ATTRIBUTE})


class _Candidate:
    """A node tentatively matching one pattern vertex."""

    __slots__ = ("vertex_id", "node", "parent", "edge_index",
                 "edge_bindings", "edge_satisfied", "text_parts")

    def __init__(self, vertex_id: int, node: int,
                 parent: Optional["_Candidate"], edge_index: Optional[int],
                 edge_count: int):
        self.vertex_id = vertex_id
        self.node = node
        self.parent = parent
        self.edge_index = edge_index
        # Per child edge: collected output bindings (only for edges whose
        # subtree contains output vertices) and a satisfied flag.
        self.edge_bindings: list[list[dict]] = [[] for _ in
                                                range(edge_count)]
        self.edge_satisfied = [False] * edge_count
        self.text_parts: Optional[list[str]] = None  # streaming mode


class _Frame:
    __slots__ = ("node", "candidates")

    def __init__(self, node: int):
        self.node = node
        self.candidates: list[_Candidate] = []


class NoKMatcher:
    """Single-scan matcher for a NoK pattern."""

    def __init__(self, pattern: PatternGraph, anchored: bool = True):
        for edge in pattern.edges:
            if edge.relation not in _NOK_RELATIONS:
                raise ExecutionError(
                    f"NoK matcher cannot evaluate a {edge.relation!r} edge; "
                    "partition the pattern first")
        self.pattern = pattern
        self.anchored = anchored
        self.stats = OperatorStats()
        # Precompute per-vertex edge lists and which edges carry outputs.
        self._edges = {vid: pattern.children_of(vid)
                       for vid in pattern.vertices}
        self._edge_has_outputs = {}
        for vid, edges in self._edges.items():
            flags = []
            for edge in edges:
                has = pattern.vertices[edge.target].output or any(
                    pattern.vertices[d].output
                    for d in pattern.descendants_of(edge.target))
                flags.append(has)
            self._edge_has_outputs[vid] = flags
        self._root = pattern.root

    # -- storage mode ---------------------------------------------------------------

    def run(self, runtime: MatchRuntime, root: int = 0) -> list[dict]:
        """Match over the succinct storage, scanning the subtree at
        ``root``.  Returns the distinct output-vertex bindings.

        The hot loop iterates the balanced-parentheses words directly —
        this single pass over the structure segment is the whole
        algorithm, so it is written for throughput: candidates are only
        allocated along paths whose tags match the pattern.
        """
        runtime.charge_structure_scan()
        self.stats.note("nok.structure_scans")
        succinct = runtime.succinct
        tags = succinct._tags
        node_kinds = succinct._kinds
        symbols = succinct._symbols
        pattern_vertices = self.pattern.vertices
        edges_map = self._edges
        anchored = self.anchored
        root_vertex_id = self._root
        root_vertex = pattern_vertices[root_vertex_id]

        bp = succinct.bp
        position = bp.position(root)
        end_position = bp.find_close(position)
        words = bp.bits._words

        # Stack entries are candidate lists (None = no active candidates
        # on this path — the common case, kept allocation-free).
        stack: list = []
        results: list[dict] = []
        preorder = root
        visited = 0
        index = position
        while index <= end_position:
            word = words[index >> 6]
            offset = index & 63
            limit = min(64, end_position - index + offset + 1)
            while offset < limit:
                if (word >> offset) & 1:
                    node = preorder
                    preorder += 1
                    visited += 1
                    candidates = None
                    parent_candidates = stack[-1] if stack else None
                    if parent_candidates or not anchored or node == root:
                        is_attribute = node_kinds[node] == KIND_ATTRIBUTE
                        tag = symbols[tags[node]]
                        if parent_candidates:
                            for parent_candidate in parent_candidates:
                                for edge_index, edge in enumerate(
                                        edges_map[
                                            parent_candidate.vertex_id]):
                                    if (edge.relation == REL_ATTRIBUTE) \
                                            != is_attribute:
                                        continue
                                    target = pattern_vertices[edge.target]
                                    if not target.matches_tag(tag):
                                        continue
                                    if candidates is None:
                                        candidates = []
                                    candidates.append(_Candidate(
                                        edge.target, node,
                                        parent_candidate, edge_index,
                                        len(edges_map[edge.target])))
                        if (node == root and anchored) or (
                                not anchored
                                and root_vertex.matches_tag(tag)):
                            if candidates is None:
                                candidates = []
                            candidates.append(_Candidate(
                                root_vertex_id, node, None, None,
                                len(edges_map[root_vertex_id])))
                    stack.append(candidates)
                else:
                    candidates = stack.pop()
                    if candidates:
                        for candidate in candidates:
                            self._close_candidate(
                                candidate, results,
                                value_ok=runtime.value_ok,
                                residual_ok=runtime.residual_ok)
                offset += 1
            index += limit - (index & 63)
        self.stats.nodes_visited += visited
        self.stats.solutions = len(results)
        return _dedup_bindings(results)

    # -- streaming mode -----------------------------------------------------------------

    def run_stream(self, events: Iterable[Event],
                   keep_whitespace: bool = False) -> list[dict]:
        """Match over a raw parse-event stream without building any
        storage.  Node handles in the output are stream pre-order ids,
        assigned exactly as the storage builder assigns them (adjacent
        text runs merge; whitespace-only runs are skipped unless
        ``keep_whitespace``) so streaming and storage results align.

        Residual predicates and guards are unsupported here (they need
        the engine's document); value constraints are checked against
        buffered text.
        """
        if self.pattern.has_residuals() or self.pattern.guards:
            raise ExecutionError(
                "streaming evaluation cannot check residual predicates "
                "or guards")
        pattern = self.pattern
        stack: list[_Frame] = []
        results: list[dict] = []
        preorder = 0
        constrained_open = 0
        pending_text: list[str] = []

        def vertex_constrained(vertex_id: int) -> bool:
            return bool(pattern.vertices[vertex_id].value_constraints)

        def open_node(tag: str, is_attribute: bool,
                      text: Optional[str] = None) -> _Frame:
            nonlocal preorder, constrained_open
            self.stats.nodes_visited += 1
            frame = _Frame(preorder)
            parent_frame = stack[-1] if stack else None
            self._open_candidates(frame, preorder, tag, is_attribute,
                                  parent_frame,
                                  is_scan_root=(not stack))
            preorder += 1
            for candidate in frame.candidates:
                if vertex_constrained(candidate.vertex_id):
                    candidate.text_parts = [] if text is None else [text]
                    constrained_open += 1
            return frame

        def close_frame(frame: _Frame) -> None:
            nonlocal constrained_open
            for candidate in frame.candidates:
                text = None
                if candidate.text_parts is not None:
                    text = "".join(candidate.text_parts)
                    constrained_open -= 1
                self._close_candidate(
                    candidate, results,
                    value_ok=lambda vertex, node, t=text: _stream_value_ok(
                        vertex, t),
                    residual_ok=lambda vertex, node: True)

        def flush_text() -> None:
            """Materialise a merged text run as one node (mirrors the
            storage builder: whitespace-only runs vanish by default)."""
            if not pending_text:
                return
            value = "".join(pending_text)
            pending_text.clear()
            if not keep_whitespace and not value.strip():
                return
            text_frame = open_node("#text", False, text=value)
            close_frame(text_frame)
            if constrained_open:
                for frame in stack:
                    for candidate in frame.candidates:
                        if candidate.text_parts is not None:
                            candidate.text_parts.append(value)

        for event in events:
            if isinstance(event, StartDocument):
                stack.append(open_node("#document", False))
            elif isinstance(event, StartElement):
                flush_text()
                frame = open_node(event.tag, False)
                stack.append(frame)
                for name, value in event.attributes:
                    attribute_frame = open_node("@" + name, True,
                                                text=value)
                    close_frame(attribute_frame)
            elif isinstance(event, Characters):
                pending_text.append(event.value)
            elif isinstance(event, EndElement):
                flush_text()
                close_frame(stack.pop())
            elif isinstance(event, EndDocument):
                flush_text()
                close_frame(stack.pop())
        self.stats.solutions = len(results)
        return _dedup_bindings(results)

    # -- shared core ------------------------------------------------------------------------

    def _open_candidates(self, frame: _Frame, node: int, tag: str,
                         is_attribute: bool,
                         parent_frame: Optional[_Frame],
                         is_scan_root: bool) -> None:
        pattern = self.pattern
        if parent_frame is not None:
            for parent_candidate in parent_frame.candidates:
                edges = self._edges[parent_candidate.vertex_id]
                for index, edge in enumerate(edges):
                    wants_attribute = edge.relation == REL_ATTRIBUTE
                    if wants_attribute != is_attribute:
                        continue
                    target = pattern.vertices[edge.target]
                    if not target.matches_tag(tag):
                        continue
                    frame.candidates.append(_Candidate(
                        edge.target, node, parent_candidate, index,
                        len(self._edges[edge.target])))
        if is_scan_root and self.anchored:
            frame.candidates.append(_Candidate(
                self._root, node, None, None, len(self._edges[self._root])))
        elif not self.anchored:
            root_vertex = pattern.vertices[self._root]
            if root_vertex.matches_tag(tag):
                frame.candidates.append(_Candidate(
                    self._root, node, None, None,
                    len(self._edges[self._root])))

    def _close_candidate(self, candidate: _Candidate, results: list[dict],
                         value_ok, residual_ok) -> None:
        pattern = self.pattern
        vertex = pattern.vertices[candidate.vertex_id]
        if not all(candidate.edge_satisfied):
            return
        if vertex.value_constraints and not value_ok(vertex,
                                                     candidate.node):
            return
        if vertex.residual and not residual_ok(vertex, candidate.node):
            return
        # Combine child bindings (cross product over output-carrying
        # edges; existence-only edges contribute nothing).
        bindings: list[dict] = [{}]
        has_output_flags = self._edge_has_outputs[candidate.vertex_id]
        for index, edge_list in enumerate(candidate.edge_bindings):
            if not has_output_flags[index]:
                continue
            bindings = [{**existing, **extra}
                        for existing in bindings for extra in edge_list]
        if vertex.output:
            for binding in bindings:
                binding[candidate.vertex_id] = candidate.node
        self.stats.intermediate_results += len(bindings)
        parent = candidate.parent
        if parent is None:
            results.extend(bindings)
            return
        index = candidate.edge_index
        parent.edge_satisfied[index] = True
        if self._edge_has_outputs[parent.vertex_id][index]:
            parent.edge_bindings[index].extend(bindings)


def run_shared_scan(runtime: MatchRuntime, matchers: list["NoKMatcher"],
                    root: int = 0) -> list[list[dict]]:
    """Drive several NoK automata over ONE pre-order scan.

    This is how the partitioned evaluation of Section 4.2 keeps its
    promise of "a single scan of the input data": the matchers' patterns
    are merged into a single automaton (vertex ids offset per matcher),
    so the per-node cost stays that of one matcher — the root-candidacy
    test for unanchored partitions is a tag-table lookup, not a loop over
    partitions.  Returns one binding list per matcher (same order).
    """
    runtime.charge_structure_scan()
    succinct = runtime.succinct
    tags = succinct._tags
    node_kinds = succinct._kinds
    symbols = succinct._symbols

    # Merge the patterns into one vertex space.
    merged_vertices: dict[int, object] = {}
    merged_edges: dict[int, list] = {}
    merged_edge_has_outputs: dict[int, list[bool]] = {}
    owner_of: dict[int, int] = {}       # merged vertex id -> matcher index
    bases: list[int] = []
    roots_by_label: dict[str, list[int]] = {}   # unanchored, labelled roots
    open_roots: list[int] = []                  # unanchored wildcard roots
    anchored_roots: list[int] = []              # anchor only at scan root
    base = 0
    for matcher_index, matcher in enumerate(matchers):
        bases.append(base)
        pattern = matcher.pattern
        for vertex_id, vertex in pattern.vertices.items():
            merged = base + vertex_id
            merged_vertices[merged] = vertex
            owner_of[merged] = matcher_index
            merged_edges[merged] = [
                _MergedEdge(edge.relation, base + edge.target)
                for edge in matcher._edges[vertex_id]]
            merged_edge_has_outputs[merged] = \
                matcher._edge_has_outputs[vertex_id]
        merged_root = base + matcher._root
        root_vertex = pattern.vertices[matcher._root]
        if matcher.anchored:
            anchored_roots.append(merged_root)
        elif root_vertex.labels is None:
            open_roots.append(merged_root)
        else:
            for label in root_vertex.labels:
                key = ("@" + label if root_vertex.kind == "attribute"
                       else label)
                roots_by_label.setdefault(key, []).append(merged_root)
        base += pattern.vertex_count()

    bp = succinct.bp
    position = bp.position(root)
    end_position = bp.find_close(position)
    words = bp.bits._words

    stack: list = []
    raw_results: list[list[dict]] = [[] for _ in matchers]
    value_ok = runtime.value_ok
    residual_ok = runtime.residual_ok
    shared_stats = OperatorStats()

    preorder = root
    visited = 0
    index = position
    while index <= end_position:
        word = words[index >> 6]
        offset = index & 63
        limit = min(64, end_position - index + offset + 1)
        while offset < limit:
            if (word >> offset) & 1:
                node = preorder
                preorder += 1
                visited += 1
                is_attribute = node_kinds[node] == KIND_ATTRIBUTE
                tag = symbols[tags[node]]
                candidates = None
                parent_candidates = stack[-1] if stack else None
                if parent_candidates:
                    for parent_candidate in parent_candidates:
                        for edge_index, edge in enumerate(
                                merged_edges[parent_candidate.vertex_id]):
                            if (edge.relation == REL_ATTRIBUTE) \
                                    != is_attribute:
                                continue
                            target = merged_vertices[edge.target]
                            if not target.matches_tag(tag):
                                continue
                            if candidates is None:
                                candidates = []
                            candidates.append(_Candidate(
                                edge.target, node, parent_candidate,
                                edge_index, len(merged_edges[edge.target])))
                for merged_root in roots_by_label.get(tag, ()):
                    if candidates is None:
                        candidates = []
                    candidates.append(_Candidate(
                        merged_root, node, None, None,
                        len(merged_edges[merged_root])))
                for merged_root in open_roots:
                    if merged_vertices[merged_root].matches_tag(tag):
                        if candidates is None:
                            candidates = []
                        candidates.append(_Candidate(
                            merged_root, node, None, None,
                            len(merged_edges[merged_root])))
                if node == root:
                    for merged_root in anchored_roots:
                        if candidates is None:
                            candidates = []
                        candidates.append(_Candidate(
                            merged_root, node, None, None,
                            len(merged_edges[merged_root])))
                stack.append(candidates)
            else:
                candidates = stack.pop()
                if candidates:
                    for candidate in candidates:
                        _close_merged(candidate, raw_results, owner_of,
                                      merged_vertices, merged_edges,
                                      merged_edge_has_outputs, bases,
                                      shared_stats, value_ok, residual_ok)
            offset += 1
        index += limit - (index & 63)
    for matcher_index, matcher in enumerate(matchers):
        matcher.stats.nodes_visited += visited
        matcher.stats.intermediate_results += \
            shared_stats.intermediate_results // max(1, len(matchers))
        matcher.stats.solutions = len(raw_results[matcher_index])
    return [_dedup_bindings(bindings) for bindings in raw_results]


class _MergedEdge:
    __slots__ = ("relation", "target")

    def __init__(self, relation: str, target: int):
        self.relation = relation
        self.target = target


def _close_merged(candidate: _Candidate, raw_results, owner_of,
                  merged_vertices, merged_edges, merged_edge_has_outputs,
                  bases, stats: OperatorStats, value_ok, residual_ok) -> None:
    """Confirm-or-discard for a merged-automaton candidate; bindings are
    emitted in the owning matcher's local vertex ids."""
    vertex = merged_vertices[candidate.vertex_id]
    if not all(candidate.edge_satisfied):
        return
    if vertex.value_constraints and not value_ok(vertex, candidate.node):
        return
    if vertex.residual and not residual_ok(vertex, candidate.node):
        return
    bindings: list[dict] = [{}]
    has_output_flags = merged_edge_has_outputs[candidate.vertex_id]
    for index, edge_list in enumerate(candidate.edge_bindings):
        if not has_output_flags[index]:
            continue
        bindings = [{**existing, **extra}
                    for existing in bindings for extra in edge_list]
    owner = owner_of[candidate.vertex_id]
    if vertex.output:
        local_id = candidate.vertex_id - bases[owner]
        for binding in bindings:
            binding[local_id] = candidate.node
    stats.intermediate_results += len(bindings)
    parent = candidate.parent
    if parent is None:
        raw_results[owner].extend(bindings)
        return
    index = candidate.edge_index
    parent.edge_satisfied[index] = True
    if merged_edge_has_outputs[parent.vertex_id][index]:
        parent.edge_bindings[index].extend(bindings)


def _stream_value_ok(vertex, text: Optional[str]) -> bool:
    if text is None:
        return not vertex.value_constraints
    return all(compare_values(op, text, literal)
               for op, literal in vertex.value_constraints)


def _dedup_bindings(bindings: list[dict]) -> list[dict]:
    """Distinct bindings, ordered by their (sorted) node ids."""
    unique: dict[tuple, dict] = {}
    for binding in bindings:
        key = tuple(sorted(binding.items()))
        unique.setdefault(key, binding)
    return [unique[key] for key in sorted(unique)]
