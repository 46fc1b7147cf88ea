"""Context-free predicates are pattern guards, decided once per τ.

A predicate such as ``[//watch]`` has the same value for every candidate
node, so the compiler hoists it out of the pattern's vertices into
``PatternGraph.guards``.  τ — logical and physical alike — evaluates the
guards once against the document: a false guard empties the result
without running any matcher, a true one leaves the pattern to match as
it is.  These tests pin the classification, the results (against the
reference interpreter under every strategy) and the per-candidate work
that disappears.
"""

import pytest

from repro.algebra.operators import TreePatternMatch
from repro.algebra.pattern_graph import UnsupportedPattern, compile_path
from repro.engine.database import Database
from repro.physical.base import MatchRuntime
from repro.physical.planner import MEMO_CAPACITY, STRATEGIES
from repro.workload import generate_xmark
from repro.xml.serializer import serialize
from repro.xpath.parser import parse_xpath
from repro.xquery.parser import parse_xquery


def compiled(text):
    return compile_path(parse_xpath(text))


def residual_count(graph):
    return sum(len(v.residual) for v in graph.vertices.values())


def same_items(left, right):
    def key(item):
        return serialize(item) if hasattr(item, "node_id") else item
    return [key(item) for item in left] == [key(item) for item in right]


@pytest.fixture(scope="module")
def db():
    database = Database(result_cache_size=0)
    database.load(serialize(generate_xmark(scale=8, seed=3)),
                  uri="xmark.xml")
    return database


@pytest.fixture
def residual_calls(monkeypatch):
    """Counts every per-candidate residual check."""
    calls = []
    original = MatchRuntime.residual_ok

    def counting(self, vertex, preorder):
        calls.append(vertex.vertex_id)
        return original(self, vertex, preorder)

    monkeypatch.setattr(MatchRuntime, "residual_ok", counting)
    return calls


# -- classification -----------------------------------------------------------

GUARDED = [
    ("//person[//watch]/name", 1),            # true on the output's parent
    ("//person[//nosuch]/name", 1),           # false
    ("//person/name[//watch]", 1),            # on the output vertex
    ("//person[profile[//watch]]/name", 1),   # on a branch vertex
    ("//person[not(//watch)]/name", 1),
    ("//person[//item = //category]/name", 1),
    ("//person[true()]/name", 1),
    ("//person[false()]/name", 1),
    ("//person[//bidder/increase = '3.00']/name", 1),
    ("//person[//watch and //item]/name", 2),  # a conjunction splits
    ("//person[//watch or //nosuch]/name", 1),
    ("//person[contains(//item/name, 'a')]/name", 1),
]

PER_CANDIDATE = [
    "//person[name() = 'person']/name",
    "//person[//watch or profile]/name",
    "//person[not(profile)]/name",
    "//person[count(//watch) > 1]/name",
    "//person[contains(name, //item/name)]/name",
]

FALL_BACK = [
    "//person[count(//watch)]/name",
    "//person[string()]/name",
]


class TestClassification:
    @pytest.mark.parametrize("text,guards", GUARDED)
    def test_context_free_predicates_become_guards(self, text, guards):
        graph = compiled(text)
        assert len(graph.guards) == guards
        assert residual_count(graph) == 0
        assert not graph.has_residuals()

    @pytest.mark.parametrize("text", PER_CANDIDATE)
    def test_context_dependent_predicates_stay_residual(self, text):
        graph = compiled(text)
        assert graph.guards == ()
        assert residual_count(graph) == 1

    @pytest.mark.parametrize("text", FALL_BACK)
    def test_numeric_predicates_fall_back(self, text):
        with pytest.raises(UnsupportedPattern):
            compiled(text)

    def test_variable_predicate_falls_back(self, db):
        text = "//person[$v = //watch]/name"
        with pytest.raises(UnsupportedPattern):
            compile_path(parse_xquery(text))
        result = db.query(text, variables={"v": ["no such value"]})
        assert len(result) == 0

    def test_strict_mode_never_guards(self):
        with pytest.raises(UnsupportedPattern):
            compile_path(parse_xpath("//person[//watch]"), strict=True)

    def test_signature_counts_guards(self):
        plain = compiled("//person/name")
        guarded = compiled("//person[//watch]/name")
        twice = compiled("//person[//watch][//item]/name")
        assert len({plain.signature(), guarded.signature(),
                    twice.signature()}) == 3
        assert guarded.signature() == \
            compiled("//person[//nosuch]/name").signature()

    def test_describe_prints_each_guard(self):
        text = compiled("//person[//watch][true()]/name").describe()
        assert "guard: /descendant-or-self::node()/child::watch" in text
        assert "guard: true()" in text


# -- results ------------------------------------------------------------------

DIFFERENTIAL = [text for text, _ in GUARDED] + PER_CANDIDATE + FALL_BACK + [
    "for $p in //person[//watch], $i in /site/regions/africa/item "
    "return <r>{$p/name/text()}</r>",
    "for $p in //person[//watch], $i in //item[//nosuch] return $p/name",
    "for $p in //person return $p/name[//watch]",
    'doc("xmark.xml")//person[//watch]/name',
    "count(//person[//watch])",
]


class TestAgainstReference:
    @pytest.mark.parametrize("text", DIFFERENTIAL)
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_every_strategy_matches_reference(self, db, text, strategy):
        assert same_items(db.query(text, strategy=strategy),
                          db.reference_query(text)), (text, strategy)

    @pytest.mark.parametrize("text,_", GUARDED)
    def test_logical_tau_matches_physical(self, db, text, _):
        pattern = compiled(text)
        logical = TreePatternMatch().apply(db.document().tree, pattern)
        assert same_items(list(logical), db.query(text))

    def test_guards_cost_no_residual_checks(self, db, residual_calls):
        for text, _ in GUARDED:
            for strategy in STRATEGIES:
                db.query(text, strategy=strategy)
        assert residual_calls == []

    def test_false_guard_runs_no_matcher(self, db):
        result = db.query("//person[//nosuch]/name")
        assert len(result) == 0
        assert result.stats["nodes_visited"] == 0
        assert result.stats["postings_scanned"] == 0

    def test_per_candidate_residuals_still_checked(self, db,
                                                   residual_calls):
        db.query("//person[name() = 'person']/name")
        assert residual_calls


class TestConsumers:
    def test_explain_prints_guards(self, db):
        text = db.explain("//person[//watch]/name")
        assert "guard: /descendant-or-self::node()/child::watch" in text

    @pytest.mark.parametrize("text,held", [
        ("//person[//watch]/name", 1),
        ("//person[//nosuch]/name", 0),
    ])
    def test_explain_analyze_records_guard_outcome(self, db, text, held):
        analysis = db.explain(text, analyze=True)
        (record,) = analysis.operators
        assert record.detail["guards.held"] == held
        assert f"guards.held={held}" in analysis.render()

    def test_unguarded_records_carry_no_guard_detail(self, db):
        (record,) = db.explain("//person/name", analyze=True).operators
        assert "guards.held" not in record.detail

    def test_false_guard_reports_the_planners_choice(self):
        database = Database(result_cache_size=0)
        database.load(serialize(generate_xmark(scale=4, seed=5)),
                      uri="x.xml")
        text = "//person[//nosuch]/name"
        result = database.query(text)
        planner = database.planner_for(database.document())
        assert result.strategy == planner.choose(compiled(text))
        labels = {key[0] for key in
                  database.observability.queries_total.snapshot()}
        assert labels == {result.strategy}


# -- the per-candidate cliff --------------------------------------------------


def test_context_free_predicate_makes_no_residual_calls_at_scale(
        residual_calls):
    """At xmark-120 the reference interpreter re-walks the document for
    every person; τ now decides ``[//watch]`` once."""
    database = Database(result_cache_size=0)
    database.load(serialize(generate_xmark(scale=120, seed=7)),
                  uri="x.xml")
    text = "//person[//watch]/name"
    result = database.query(text)
    assert residual_calls == []
    assert len(result) > 0
    assert same_items(result, database.reference_query(text))


# -- the strategy memo is bounded ---------------------------------------------


def test_strategy_memo_stays_bounded(db):
    document = db.document()
    planner = db.planner_for(document)
    for serial in range(10_000):
        pattern = compiled(f"//item[quantity = '{serial}']/name")
        planner.choose(pattern)
        assert len(document.strategy_memo) <= MEMO_CAPACITY
    assert len(document.strategy_memo) == MEMO_CAPACITY
    # The most recent choices survive; the oldest were evicted.
    assert planner.choose(compiled("//item[quantity = '9999']/name"))
    hits = planner.memo_hits
    planner.choose(compiled("//item[quantity = '9999']/name"))
    assert planner.memo_hits == hits + 1
    misses = planner.memo_misses
    planner.choose(compiled("//item[quantity = '0']/name"))
    assert planner.memo_misses == misses + 1
