"""``PatternGraph`` — Definition 1 of the paper.

    A PatternGraph is a labelled, directed graph P = (Σ, V, A, R, O):
    Σ an alphabet of names, V vertices, A arcs, R binary relations
    labelling the arcs, and O ⊆ V the output vertices.

Vertices carry a label (a set of names, or * for any), an optional list of
``(op, literal)`` value comparisons, and possibly *residual* predicate
expressions that are not expressible as graph constraints (``or``,
function calls) — those are re-checked per candidate node.  A predicate
whose value does not depend on the candidate (``[//watch]``,
``[//a = 'x']``) is instead a pattern-level *guard*: τ decides it once,
against the document node, before any matching.

Arcs are labelled with one of the relations in :data:`RELATIONS`:

=====  =====================  =========================================
``/``  parent-child           local (NoK)
``@``  element-attribute      local (NoK)
``~``  following-sibling      local (NoK)
``//`` ancestor-descendant    non-local — forces partitioning
=====  =====================  =========================================

:func:`compile_path` translates a parsed XPath
:class:`~repro.xpath.ast.LocationPath` into a pattern graph (the /a[b][c]
example of Section 3.2 is a unit test).  The local/non-local split drives
the NoK partitioner (Section 4.2, experiment E8).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from repro.errors import TranslationError
from repro.xpath import ast as xp

__all__ = ["RELATIONS", "PatternVertex", "PatternEdge", "PatternGraph",
           "compile_path", "UnsupportedPattern",
           "REL_CHILD", "REL_DESCENDANT", "REL_ATTRIBUTE", "REL_SIBLING"]

REL_CHILD = "/"
REL_DESCENDANT = "//"
REL_ATTRIBUTE = "@"
REL_SIBLING = "~"

RELATIONS = (REL_CHILD, REL_DESCENDANT, REL_ATTRIBUTE, REL_SIBLING)
# The single-scan NoK matcher resolves child and attribute edges during
# one pre-order pass; following-sibling matches complete only after the
# left sibling has closed, so (like ``//``) it is treated as a partition
# boundary and joined on, which keeps the scan algorithm one-pass.
_LOCAL_RELATIONS = frozenset({REL_CHILD, REL_ATTRIBUTE})


class UnsupportedPattern(TranslationError):
    """The path cannot be fully compiled into a pattern graph (e.g. a
    parent-axis step or a positional predicate in strict mode)."""


@dataclass
class PatternVertex:
    """One vertex: label constraints plus value/residual predicates."""

    vertex_id: int
    labels: Optional[frozenset[str]]          # None = wildcard (*)
    kind: str = "element"                     # element|attribute|text|any
    value_constraints: tuple[tuple[str, object], ...] = ()
    residual: tuple = ()                      # post-checked predicate ASTs
    output: bool = False

    def label_text(self) -> str:
        if self.labels is None:
            return "*"
        return "|".join(sorted(self.labels))

    def matches_tag(self, tag: str) -> bool:
        """Does a stored node tag satisfy this vertex's label/kind?"""
        if self.kind == "context":
            return True  # anchored externally (the query context)
        if self.kind == "attribute":
            if not tag.startswith("@"):
                return False
            return self.labels is None or tag[1:] in self.labels
        if self.kind == "text":
            return tag == "#text"
        if self.kind == "any":
            return not tag.startswith("?")
        if tag.startswith(("@", "#", "?")):
            return False
        return self.labels is None or tag in self.labels


@dataclass(frozen=True)
class PatternEdge:
    """One arc ``(source, target)`` labelled with a relation."""

    source: int
    target: int
    relation: str

    @property
    def is_local(self) -> bool:
        """True for next-of-kin relations (Section 4.2)."""
        return self.relation in _LOCAL_RELATIONS


class PatternGraph:
    """The pattern graph; for the paper's fragment it is always a tree
    rooted at the query context (document or a variable binding)."""

    def __init__(self):
        self.vertices: dict[int, PatternVertex] = {}
        self.edges: list[PatternEdge] = []
        self.root: Optional[int] = None
        self._children: dict[int, list[PatternEdge]] = {}
        # Context-free predicate ASTs: every embedding needs all of them
        # true, so τ evaluates each once per execution, not per node.
        self.guards: tuple = ()

    # -- construction ---------------------------------------------------------

    def add_vertex(self, labels, kind: str = "element",
                   output: bool = False) -> PatternVertex:
        """Add a vertex; ``labels`` is a name, an iterable of names, or
        ``None`` for the wildcard."""
        if isinstance(labels, str):
            labels = frozenset({labels})
        elif labels is not None:
            labels = frozenset(labels)
        vertex = PatternVertex(vertex_id=len(self.vertices), labels=labels,
                               kind=kind, output=output)
        self.vertices[vertex.vertex_id] = vertex
        if self.root is None:
            self.root = vertex.vertex_id
        return vertex

    def add_edge(self, source: int, target: int,
                 relation: str) -> PatternEdge:
        if relation not in RELATIONS:
            raise ValueError(f"unknown relation {relation!r}")
        if source not in self.vertices or target not in self.vertices:
            raise ValueError("edge endpoints must be existing vertices")
        edge = PatternEdge(source, target, relation)
        self.edges.append(edge)
        self._children.setdefault(source, []).append(edge)
        return edge

    def add_value_constraint(self, vertex_id: int, op: str,
                             literal) -> None:
        vertex = self.vertices[vertex_id]
        vertex.value_constraints = vertex.value_constraints + ((op, literal),)

    def add_residual(self, vertex_id: int, expr) -> None:
        vertex = self.vertices[vertex_id]
        vertex.residual = vertex.residual + (expr,)

    def add_guard(self, expr) -> None:
        self.guards = self.guards + (expr,)

    # -- inspection ---------------------------------------------------------------

    def children_of(self, vertex_id: int) -> list[PatternEdge]:
        """Outgoing arcs of a vertex."""
        return list(self._children.get(vertex_id, ()))

    def output_vertices(self) -> list[PatternVertex]:
        """The set O, in vertex-id order."""
        return [v for v in self.vertices.values() if v.output]

    def non_local_edges(self) -> list[PatternEdge]:
        """Arcs that are not next-of-kin relations (``//``)."""
        return [edge for edge in self.edges if not edge.is_local]

    def is_nok(self) -> bool:
        """True iff every arc is a local (NoK) relation — the pattern the
        single-scan matcher evaluates without structural joins."""
        return not self.non_local_edges()

    def has_residuals(self) -> bool:
        return any(v.residual for v in self.vertices.values())

    def signature(self) -> str:
        """A stable text key for memoizing per-pattern planner decisions.

        Covers everything the cost model reads: vertex labels, kinds,
        value constraints, residual and guard *counts*, output/root
        marks, and the edge list.  (Predicate bodies are not serialized
        — the cost model only counts them — so two patterns differing
        solely in residual or guard ASTs intentionally share a
        signature.)  The string is
        computed once and cached; pattern graphs are immutable after
        compilation.
        """
        cached = getattr(self, "_signature", None)
        if cached is None:
            parts = []
            for vertex in self.vertices.values():
                parts.append(
                    f"v{vertex.vertex_id}:{vertex.label_text()}"
                    f":{vertex.kind}"
                    f":{sorted((op, repr(lit)) for op, lit in vertex.value_constraints)!r}"
                    f":r{len(vertex.residual)}"
                    f":{'O' if vertex.output else '-'}"
                    f":{'R' if vertex.vertex_id == self.root else '-'}")
            for edge in self.edges:
                parts.append(f"e{edge.source}-{edge.relation}-{edge.target}")
            parts.append(f"g{len(self.guards)}")
            cached = ";".join(parts)
            self._signature = cached
        return cached

    def vertex_count(self) -> int:
        return len(self.vertices)

    def parent_edge(self, vertex_id: int) -> Optional[PatternEdge]:
        for edge in self.edges:
            if edge.target == vertex_id:
                return edge
        return None

    def descendants_of(self, vertex_id: int) -> Iterator[int]:
        """Vertex ids reachable from ``vertex_id`` (excluding it)."""
        stack = [vertex_id]
        while stack:
            current = stack.pop()
            for edge in self._children.get(current, ()):
                yield edge.target
                stack.append(edge.target)

    def describe(self) -> str:
        """A readable multi-line rendering (EXPLAIN output)."""
        lines = []
        for vertex in self.vertices.values():
            marks = []
            if vertex.vertex_id == self.root:
                marks.append("root")
            if vertex.output:
                marks.append("output")
            constraint_text = "".join(
                f" [{'.'} {op} {lit!r}]" for op, lit in
                vertex.value_constraints)
            if vertex.residual:
                constraint_text += f" [+{len(vertex.residual)} residual]"
            suffix = f" ({', '.join(marks)})" if marks else ""
            lines.append(f"v{vertex.vertex_id}: {vertex.label_text()}"
                         f"{constraint_text}{suffix}")
        for edge in self.edges:
            lines.append(f"v{edge.source} -{edge.relation}-> v{edge.target}")
        lines.extend(f"guard: {guard}" for guard in self.guards)
        return "\n".join(lines)

    def __repr__(self) -> str:
        outputs = [v.vertex_id for v in self.output_vertices()]
        return (f"<PatternGraph vertices={len(self.vertices)} "
                f"edges={len(self.edges)} outputs={outputs}>")


# -- XPath -> PatternGraph compilation ----------------------------------------------


_COMPARISON_OPS = ("=", "!=", "<", "<=", ">", ">=")


def compile_path(path: xp.LocationPath, strict: bool = False,
                 root_kind: str = "document") -> PatternGraph:
    """Compile a location path into a pattern graph.

    The graph is rooted at a context vertex (the document for absolute
    paths, the binding context for relative ones).  Predicates become
    branch vertices and value constraints where possible; everything else
    becomes a *residual* predicate on its vertex — or raises
    :class:`UnsupportedPattern` when ``strict``.
    """
    graph = PatternGraph()
    root = graph.add_vertex(None, kind="context" if root_kind == "context"
                            else "any")
    graph.root = root.vertex_id
    last = _compile_steps(graph, root.vertex_id, path.steps, strict)
    graph.vertices[last].output = True
    return graph


def _compile_steps(graph: PatternGraph, anchor: int,
                   steps, strict: bool) -> int:
    """Attach ``steps`` under vertex ``anchor``; returns the final vertex."""
    current = anchor
    pending_descendant = False
    for step in steps:
        if step.axis is xp.Axis.SELF:
            if pending_descendant:
                # descendant-or-self::node()/self::x == //x
                current = _add_step_vertex(graph, current, step,
                                           REL_DESCENDANT, strict)
                pending_descendant = False
            else:
                _merge_self_step(graph, current, step, strict)
            continue
        if (step.axis is xp.Axis.DESCENDANT_OR_SELF
                and isinstance(step.test, xp.KindTest)
                and step.test.kind == "node" and not step.predicates):
            pending_descendant = True
            continue
        if step.axis is xp.Axis.PARENT:
            raise UnsupportedPattern(
                "parent-axis steps are outside the pattern-graph fragment "
                "(the planner falls back to navigational evaluation)")
        relation = _axis_relation(step.axis, pending_descendant)
        pending_descendant = False
        current = _add_step_vertex(graph, current, step, relation, strict)
    if pending_descendant:
        # Trailing "//" selects any descendant node: //a// == //a//node().
        vertex = graph.add_vertex(None, kind="any")
        graph.add_edge(current, vertex.vertex_id, REL_DESCENDANT)
        current = vertex.vertex_id
    return current


def _axis_relation(axis: xp.Axis, descendant_pending: bool) -> str:
    if axis is xp.Axis.CHILD:
        return REL_DESCENDANT if descendant_pending else REL_CHILD
    if axis is xp.Axis.ATTRIBUTE:
        # "//@a" still reaches attributes of any descendant.
        return REL_DESCENDANT if descendant_pending else REL_ATTRIBUTE
    if axis is xp.Axis.DESCENDANT:
        return REL_DESCENDANT
    if axis is xp.Axis.FOLLOWING_SIBLING:
        if descendant_pending:
            raise UnsupportedPattern(
                "'//' followed by following-sibling is not expressible")
        return REL_SIBLING
    raise UnsupportedPattern(f"axis {axis.value} has no pattern relation")


def _vertex_for_test(graph: PatternGraph, test: xp.NodeTest,
                     axis: xp.Axis) -> PatternVertex:
    if axis is xp.Axis.ATTRIBUTE:
        labels = None if isinstance(test, xp.WildcardTest) else test.name
        return graph.add_vertex(labels, kind="attribute")
    if isinstance(test, xp.KindTest):
        if test.kind == "text":
            return graph.add_vertex(None, kind="text")
        if test.kind == "node":
            return graph.add_vertex(None, kind="any")
        raise UnsupportedPattern(f"kind test {test.kind}() in a pattern")
    if isinstance(test, xp.WildcardTest):
        return graph.add_vertex(None, kind="element")
    return graph.add_vertex(test.name, kind="element")


def _add_step_vertex(graph: PatternGraph, parent: int, step: xp.Step,
                     relation: str, strict: bool) -> int:
    vertex = _vertex_for_test(graph, step.test, step.axis)
    graph.add_edge(parent, vertex.vertex_id, relation)
    for predicate in step.predicates:
        _compile_predicate(graph, vertex.vertex_id, predicate, strict)
    return vertex.vertex_id


def _merge_self_step(graph: PatternGraph, vertex_id: int, step: xp.Step,
                     strict: bool) -> None:
    """Fold ``self::...`` constraints into the current vertex."""
    vertex = graph.vertices[vertex_id]
    if isinstance(step.test, xp.NameTest):
        if vertex.labels is None:
            vertex.labels = frozenset({step.test.name})
        else:
            vertex.labels = vertex.labels & {step.test.name}
    for predicate in step.predicates:
        _compile_predicate(graph, vertex_id, predicate, strict)


def _compile_predicate(graph: PatternGraph, vertex_id: int,
                       predicate, strict: bool) -> None:
    # Existence path: [b/c] — a non-output branch.
    if isinstance(predicate, xp.LocationPath) and not predicate.absolute:
        if _path_is_self_only(predicate):
            return  # [.] is vacuous
        try:
            _compile_steps(graph, vertex_id, predicate.steps, strict)
            return
        except UnsupportedPattern:
            if strict:
                raise
            if _mentions_variables(predicate):
                raise  # needs the query's bindings: interpreter fallback
            graph.add_residual(vertex_id, predicate)
            return
    # Comparison: [path op literal] or [. op literal].
    if (isinstance(predicate, xp.BinaryOp)
            and predicate.op in _COMPARISON_OPS):
        if _compile_comparison(graph, vertex_id, predicate, strict):
            return
    # Conjunction distributes into the graph.
    if isinstance(predicate, xp.BinaryOp) and predicate.op == "and":
        _compile_predicate(graph, vertex_id, predicate.left, strict)
        _compile_predicate(graph, vertex_id, predicate.right, strict)
        return
    if strict:
        raise UnsupportedPattern(
            f"predicate {predicate} is not expressible in a pattern graph")
    if not _residual_safe(predicate):
        # A numeric-valued predicate means position()=n in XPath; that is
        # not a per-node property, so it cannot even be a residual.
        raise UnsupportedPattern(
            f"predicate {predicate} is positional (or may evaluate to a "
            "number) and cannot be checked per node")
    if _context_free(predicate):
        # Same truth value for every candidate: an embedding exists only
        # if it holds, so it is decided once per τ, not per node.
        graph.add_guard(predicate)
        return
    graph.add_residual(vertex_id, predicate)


_BOOLEAN_FUNCTIONS = frozenset({
    "not", "true", "false", "boolean", "contains", "starts-with",
    "empty", "exists",
})


def _residual_safe(expr) -> bool:
    """Is the predicate guaranteed to evaluate to a boolean or node-set,
    independent of the context *position*?

    XPath turns numeric predicates into position tests, and
    ``position()``/``last()`` read the context position directly; neither
    is a per-node property, so such predicates cannot be residuals.
    """
    if _mentions_positional(expr):
        return False
    if _mentions_variables(expr):
        # Residuals are checked by the engine without the query's
        # variable bindings; variable-dependent predicates must instead
        # force the interpreter fallback (which has the bindings).
        return False
    if isinstance(expr, xp.LocationPath):
        return True
    if isinstance(expr, xp.BinaryOp):
        if expr.op in _COMPARISON_OPS:
            return True
        if expr.op in ("and", "or"):
            return _residual_safe(expr.left) and _residual_safe(expr.right)
        return False  # arithmetic: numeric
    if isinstance(expr, xp.FunctionCall):
        return expr.name in _BOOLEAN_FUNCTIONS
    return False


def _context_free(expr) -> bool:
    """Is the expression's value independent of the context node?

    True for absolute paths, literals, ``true()``/``false()``, and
    comparisons, ``and``/``or`` and boolean-function calls (with at
    least one argument) built only from those.  Zero-argument context
    functions (``string()``, ``name()``...), relative paths and
    variable references all read the context, so they are not.
    """
    if _mentions_variables(expr):
        return False
    if isinstance(expr, xp.LocationPath):
        return expr.absolute
    if isinstance(expr, xp.Literal):
        return True
    if isinstance(expr, xp.BinaryOp):
        return (expr.op in _COMPARISON_OPS + ("and", "or")
                and _context_free(expr.left) and _context_free(expr.right))
    if isinstance(expr, xp.FunctionCall):
        if expr.name in ("true", "false"):
            return not expr.args
        return (expr.name in _BOOLEAN_FUNCTIONS and bool(expr.args)
                and all(_context_free(arg) for arg in expr.args))
    return False


def _mentions_variables(expr) -> bool:
    """Does the expression read any ``$variable`` anywhere?"""
    from repro.xquery import ast as xq

    if isinstance(expr, xq.VarRef):
        return True
    if isinstance(expr, xq.PathFrom):
        return True  # rooted at an arbitrary expression
    if isinstance(expr, xp.LocationPath):
        return any(_mentions_variables(p)
                   for step in expr.steps for p in step.predicates)
    if isinstance(expr, (xp.BinaryOp, xp.Union_)):
        return (_mentions_variables(expr.left)
                or _mentions_variables(expr.right))
    if isinstance(expr, xp.UnaryOp):
        return _mentions_variables(expr.operand)
    if isinstance(expr, xp.FunctionCall):
        return any(_mentions_variables(arg) for arg in expr.args)
    return False


def _mentions_positional(expr) -> bool:
    """Does the expression call position() or last() anywhere *outside*
    a nested predicate (nested predicates get their own context)?"""
    if isinstance(expr, xp.FunctionCall):
        if expr.name in ("position", "last"):
            return True
        return any(_mentions_positional(arg) for arg in expr.args)
    if isinstance(expr, (xp.BinaryOp,)):
        return (_mentions_positional(expr.left)
                or _mentions_positional(expr.right))
    if isinstance(expr, xp.UnaryOp):
        return _mentions_positional(expr.operand)
    if isinstance(expr, xp.Union_):
        return (_mentions_positional(expr.left)
                or _mentions_positional(expr.right))
    return False


def _compile_comparison(graph: PatternGraph, vertex_id: int,
                        predicate, strict: bool) -> bool:
    """Try to place ``path op literal`` as a vertex value constraint.
    Returns True on success."""
    left, right, op = predicate.left, predicate.right, predicate.op
    if isinstance(right, xp.LocationPath) and isinstance(left, xp.Literal):
        flipped = {"<": ">", ">": "<", "<=": ">=", ">=": "<="}.get(op, op)
        left, right, op = right, left, flipped
    if not (isinstance(left, xp.LocationPath)
            and isinstance(right, xp.Literal)):
        return False
    if left.absolute:
        return False
    if any(step.predicates for step in left.steps):
        return False
    if _path_is_self_only(left):
        graph.add_value_constraint(vertex_id, op, right.value)
        return True
    try:
        target = _compile_steps(graph, vertex_id, left.steps, strict=True)
    except UnsupportedPattern:
        if strict:
            raise
        return False
    graph.add_value_constraint(target, op, right.value)
    return True


def _path_is_self_only(path: xp.LocationPath) -> bool:
    return (len(path.steps) == 1
            and path.steps[0].axis is xp.Axis.SELF
            and isinstance(path.steps[0].test, xp.KindTest)
            and not path.steps[0].predicates)
