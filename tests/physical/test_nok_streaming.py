"""Tests for the NoK matcher's streaming mode (experiment E9's substrate).

"Pre-order of the tree nodes coincides with the streaming XML element
arrival order.  So the path query evaluation algorithm ... can also be
used in the streaming context" (Section 4.2): streaming results (over raw
parse events, no storage) must equal storage-mode results node for node.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.database import Database
from repro.errors import ExecutionError
from repro.algebra.pattern_graph import compile_path
from repro.physical.nok import NoKMatcher
from repro.xml.parser import iterparse
from repro.xpath.parser import parse_xpath

SAMPLE = """
<bib>
  <book year="1994"><title>TCP/IP</title><author>Stevens</author>
    <price>65.95</price></book>
  <book year="2000"><title>Data on the Web</title>
    <author>Abiteboul</author><author>Buneman</author>
    <price>39.95</price></book>
</bib>
"""

NOK_QUERIES = [
    "/bib/book",
    "/bib/book/title",
    "/bib/book[author]/title",
    "/bib/book/@year",
    "/bib/book[@year = '1994']/title",
    "/bib/book[price > 50]",
    "/bib/book/title/text()",
    "/bib/book[author][price]",
    "/bib/*/author",
]


def storage_matches(query):
    database = Database()
    database.load(SAMPLE, uri="bib.xml")
    pattern = compile_path(parse_xpath(query))
    matcher = NoKMatcher(pattern)
    bindings = matcher.run(database.document().runtime)
    output = pattern.output_vertices()[0].vertex_id
    return sorted({b[output] for b in bindings if output in b})


def stream_matches(query):
    pattern = compile_path(parse_xpath(query))
    matcher = NoKMatcher(pattern)
    bindings = matcher.run_stream(iterparse(SAMPLE.strip()))
    output = pattern.output_vertices()[0].vertex_id
    return sorted({b[output] for b in bindings if output in b})


class TestStreamingEqualsStorage:
    @pytest.mark.parametrize("query", NOK_QUERIES)
    def test_same_preorders(self, query):
        assert stream_matches(query) == storage_matches(query)

    def test_nonempty_results(self):
        assert stream_matches("/bib/book") != []

    def test_streaming_rejects_residuals(self):
        pattern = compile_path(parse_xpath("/bib/book[author or title]"))
        with pytest.raises(ExecutionError):
            NoKMatcher(pattern).run_stream(iterparse(SAMPLE.strip()))

    def test_streaming_rejects_guards(self):
        pattern = compile_path(parse_xpath("/bib/book[//title]"))
        assert pattern.guards and not pattern.has_residuals()
        with pytest.raises(ExecutionError):
            NoKMatcher(pattern).run_stream(iterparse(SAMPLE.strip()))

    def test_streaming_value_constraint_on_attribute(self):
        matches = stream_matches("/bib/book[@year = '2000']/title")
        assert len(matches) == 1

    def test_streaming_counts_single_pass(self):
        pattern = compile_path(parse_xpath("/bib/book/title"))
        matcher = NoKMatcher(pattern)
        matcher.run_stream(iterparse(SAMPLE.strip()))
        database = Database()
        database.load(SAMPLE, uri="bib.xml")
        assert matcher.stats.nodes_visited == \
            database.document().succinct.node_count


_TAGS = ["x", "y", "z"]


@st.composite
def random_xml(draw):
    def subtree(depth):
        tag = draw(st.sampled_from(_TAGS))
        attr = f' a="{draw(st.integers(0, 2))}"' if draw(st.booleans()) \
            else ""
        if depth == 0:
            return f"<{tag}{attr}>{draw(st.integers(0, 9))}</{tag}>"
        inner = "".join(subtree(depth - 1)
                        for _ in range(draw(st.integers(0, 3))))
        return f"<{tag}{attr}>{inner}</{tag}>"
    return f"<r>{subtree(2)}{subtree(2)}</r>"


@given(random_xml(), st.sampled_from([
    "/r/x", "/r/x/y", "/r/*", "/r/x[@a]", "/r/x[y]", "/r/x[@a = '1']",
    "/r/x/text()",
]))
@settings(max_examples=50, deadline=None)
def test_streaming_matches_storage_random(text, query):
    pattern = compile_path(parse_xpath(query))
    output = pattern.output_vertices()[0].vertex_id

    stream = NoKMatcher(pattern)
    stream_result = sorted({b[output]
                            for b in stream.run_stream(iterparse(text))
                            if output in b})
    database = Database()
    database.load(text, uri="r.xml")
    storage = NoKMatcher(pattern)
    storage_result = sorted({
        b[output]
        for b in storage.run(database.document().runtime)
        if output in b})
    assert stream_result == storage_result


class TestKeepWhitespaceMode:
    def test_whitespace_nodes_counted_when_kept(self):
        text = "<a>\n  <b/>\n</a>"
        pattern = compile_path(parse_xpath("/a/text()"))
        dropped = NoKMatcher(pattern)
        assert dropped.run_stream(iterparse(text)) == []
        kept = NoKMatcher(pattern)
        bindings = kept.run_stream(iterparse(text),
                                   keep_whitespace=True)
        assert len(bindings) == 2  # the two whitespace runs around <b/>
