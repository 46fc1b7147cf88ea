"""Tests for the cost model (cardinality estimation + strategy choice)."""

import pytest

from repro.algebra.cost import CostModel
from repro.algebra.pattern_graph import compile_path
from repro.storage.interval import IntervalDocument
from repro.storage.stats import DocumentStatistics
from repro.xml.parser import parse
from repro.xpath.parser import parse_xpath


def make_doc(books=50, authors_per_book=2):
    parts = ["<bib>"]
    for index in range(books):
        parts.append(f'<book year="{1990 + index % 20}">')
        parts.append(f"<title>Title {index}</title>")
        for a in range(authors_per_book):
            parts.append(f"<author>A{index}-{a}</author>")
        parts.append("</book>")
    parts.append("</bib>")
    return parse("".join(parts))


@pytest.fixture(scope="module")
def model_():
    doc = IntervalDocument.from_document(make_doc())
    return CostModel(DocumentStatistics(doc))


def pattern(text):
    return compile_path(parse_xpath(text))


class TestCardinality:
    def test_exact_child_chain(self, model_):
        assert model_.result_cardinality(pattern("/bib/book")) == 50.0
        assert model_.result_cardinality(
            pattern("/bib/book/author")) == 100.0

    def test_descendant_estimates(self, model_):
        estimate = model_.result_cardinality(pattern("//author"))
        assert estimate == pytest.approx(100.0, rel=0.01)

    def test_missing_tag_zero(self, model_):
        assert model_.result_cardinality(pattern("/bib/magazine")) == 0.0

    def test_value_constraint_shrinks_estimate(self, model_):
        plain = model_.result_cardinality(pattern("/bib/book"))
        filtered = model_.result_cardinality(
            pattern("/bib/book[@year = '1994']"))
        assert 0 < filtered < plain

    def test_branch_does_not_inflate_output(self, model_):
        with_branch = model_.result_cardinality(
            pattern("/bib/book[title]"))
        assert with_branch == 50.0


class TestStrategyChoice:
    def test_nok_costed_only_for_nok_patterns(self, model_):
        nok = pattern("/bib/book/title")
        general = pattern("//book//author")
        nok_strategies = {e.strategy for e in model_.all_costs(nok)}
        general_strategies = {e.strategy for e in model_.all_costs(general)}
        assert "nok" in nok_strategies
        assert "nok" not in general_strategies
        assert "partitioned" in general_strategies
        assert "partitioned" not in nok_strategies

    def test_nok_beats_joins_on_local_paths(self, model_):
        choice = model_.cheapest_strategy(pattern("/bib/book/title"))
        assert choice == "nok"

    def test_index_scan_wins_with_selective_predicate(self):
        # Large doc + unique values -> very selective equality.
        doc = IntervalDocument.from_document(make_doc(books=5000))
        model = CostModel(DocumentStatistics(doc))
        selective = pattern("/bib/book[title = 'Title 17']")
        assert model.cheapest_strategy(selective) == "index-scan"

    def test_index_scan_infinite_without_constraint(self, model_):
        estimate = model_.index_scan_cost(pattern("/bib/book"))
        assert estimate.total == float("inf")

    def test_costs_are_positive_and_ordered(self, model_):
        for estimate in model_.all_costs(pattern("//book/author")):
            assert estimate.pages > 0
            assert estimate.cpu >= 0


class TestResidualPricing:
    """Every strategy pays the reference evaluator once per candidate of
    a residual vertex, so no estimate ignores residual work."""

    @pytest.mark.parametrize("prefix", ["/bib/book", "//book"])
    def test_every_estimate_grows_with_residual_count(self, model_, prefix):
        texts = [f"{prefix}[title = 'Title 3']{extra}/author"
                 for extra in ("", "[author or @year]",
                               "[author or @year][not(title)]")]
        patterns = [pattern(text) for text in texts]
        assert [sum(len(v.residual) for v in p.vertices.values())
                for p in patterns] == [0, 1, 2]
        costs = [{e.strategy: e for e in
                  model_.all_costs(p, include_columnar=True)}
                 for p in patterns]
        assert set(costs[0]) == set(costs[1]) == set(costs[2])
        assert "index-scan" in costs[0] and "columnar" in costs[0]
        for strategy in costs[0]:
            cpu = [by_strategy[strategy].cpu for by_strategy in costs]
            assert cpu[0] < cpu[1] < cpu[2], strategy

    def test_guards_are_not_priced_per_candidate(self, model_):
        plain = pattern("//book[title = 'Title 3']/author")
        guarded = pattern("//book[title = 'Title 3'][//author]/author")
        assert model_.all_costs(guarded, include_columnar=True) == \
            model_.all_costs(plain, include_columnar=True)
