"""Bracketings and corpus readers."""
import re

import numpy as np
import pytest

from pcfgtk import Bracketing, parse_bracketed_sentence, read_bracketed_corpus, read_corpus
from pcfgtk.corpus import spans_cross


class TestSpansCross:
    def test_crossing(self):
        assert spans_cross(1, 3, 0, 2)
        assert spans_cross(0, 2, 1, 3)

    def test_nesting_and_touching(self):
        assert not spans_cross(0, 2, 0, 4)
        assert not spans_cross(1, 3, 0, 4)
        assert not spans_cross(0, 2, 2, 4)
        assert not spans_cross(2, 4, 0, 2)
        assert not spans_cross(1, 2, 1, 2)


class TestBracketing:
    def test_compatible(self):
        b = Bracketing(frozenset({(0, 2)}))
        assert b.compatible(0, 4)
        assert b.compatible(2, 4)
        assert b.compatible(0, 2)
        assert not b.compatible(1, 3)
        assert not b.compatible(1, 4)

    def test_empty_is_always_compatible(self):
        b = Bracketing()
        assert b.compatible(3, 17)

    def test_compatible_spans_matches_compatible(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            n = int(rng.integers(1, 12))
            spans = set()
            for _ in range(int(rng.integers(0, 6))):
                i, j = sorted(int(x) for x in rng.choice(n + 1, 2, replace=False))
                if not any(spans_cross(i, j, a, b) for a, b in spans):
                    spans.add((i, j))
            b = Bracketing(frozenset(spans))
            want = [[b.compatible(i, j) for j in range(n + 1)] for i in range(n + 1)]
            assert b.compatible_spans(n).tolist() == want

    def test_compatible_spans_of_tree_bracketings(self):
        # bracketings as the corpus files write them: spans of a random
        # binary tree, many one token wide and often the whole sentence
        # (both cross nothing), read at the sentence's length and beyond
        def tree_spans(rng, i, j, out):
            if rng.random() < 0.6:
                out.add((i, j))
            if j - i > 1:
                k = int(rng.integers(i + 1, j))
                tree_spans(rng, i, k, out)
                tree_spans(rng, k, j, out)
            return out

        rng = np.random.default_rng(12)
        for _ in range(60):
            n = int(rng.integers(1, 14))
            b = Bracketing(frozenset(tree_spans(rng, 0, n, set())))
            for m in (n, n + 2):
                want = [[b.compatible(i, j) for j in range(m + 1)] for i in range(m + 1)]
                assert b.compatible_spans(m).tolist() == want

    def test_compatible_spans_rejects_a_bracket_past_the_sentence(self):
        # such a bracket used to be clipped silently
        b = Bracketing(frozenset({(1, 4)}))
        assert b.compatible_spans(4).shape == (5, 5)
        with pytest.raises(ValueError, match="^bracket span exceeds sentence length 3$"):
            b.compatible_spans(3)

    def test_rejects_crossing_spans(self):
        with pytest.raises(ValueError, match="crossing"):
            Bracketing(frozenset({(0, 2), (1, 3)}))

    def test_rejects_degenerate_span(self):
        with pytest.raises(ValueError, match="bad span"):
            Bracketing(frozenset({(2, 2)}))

    def test_rejects_non_integer_ends(self):
        # such a span used to pass here and fail deep in compatible_spans
        for span in ((0.5, 2), (0, 2.0), (0, "2"), (None, 2)):
            with pytest.raises(ValueError, match="ends must be integers"):
                Bracketing(frozenset({span}))
        b = Bracketing(frozenset({(np.int64(0), np.int64(2))}))
        assert not b.compatible_spans(3)[1, 3]


class TestBracketedParsing:
    def test_nested_example(self):
        s = parse_bracketed_sentence("( ( a a ) ( a a ) )")
        assert s.tokens == ("a", "a", "a", "a")
        assert s.brackets.spans == frozenset({(0, 4), (0, 2), (2, 4)})

    def test_partial_non_binary(self):
        s = parse_bracketed_sentence("( a ( b c d ) )")
        assert s.tokens == ("a", "b", "c", "d")
        assert s.brackets.spans == frozenset({(0, 4), (1, 4)})

    def test_unbalanced(self):
        with pytest.raises(ValueError, match="unbalanced"):
            parse_bracketed_sentence("( ( a a )")
        with pytest.raises(ValueError, match="unbalanced"):
            parse_bracketed_sentence("a a ) (")

    def test_empty_bracket(self):
        with pytest.raises(ValueError, match="empty bracket"):
            parse_bracketed_sentence("( a ( ) )")

    def test_dense_parentheses(self):
        s = parse_bracketed_sentence("((a a)(a a))")
        assert s.tokens == ("a",) * 4
        assert s.brackets.spans == frozenset({(0, 4), (0, 2), (2, 4)})


class TestReaders:
    def test_read_corpus(self, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_text("a a\n\na a a a\n", encoding="utf-8")
        sentences = read_corpus(path)
        assert [s.tokens for s in sentences] == [("a", "a"), ("a", "a", "a", "a")]
        assert all(s.brackets is None for s in sentences)

    def test_read_bracketed_corpus(self, tmp_path):
        path = tmp_path / "corpus.brk"
        path.write_text("( a a )\n( ( a a ) a )\n", encoding="utf-8")
        sentences = read_bracketed_corpus(path)
        assert sentences[0].tokens == ("a", "a")
        assert sentences[1].brackets.spans == frozenset({(0, 3), (0, 2)})

    def test_lines_end_only_at_newlines(self, tmp_path):
        # as a file's own lines do: a form feed or a line separator inside a
        # line splits no sentence, and a carriage return ends a line
        path = tmp_path / "corpus.txt"
        path.write_text("a\x0ca\r\n \r\na\u2028a a\ra", encoding="utf-8")
        sentences = read_corpus(path)
        assert [s.tokens for s in sentences] == [("a", "a"), ("a", "a", "a"), ("a",)]

    @pytest.mark.parametrize(
        "line,message",
        [
            ("( a ( a ) a", "unbalanced '(' in '( a ( a ) a'"),
            ("a )", "unbalanced ')' in 'a )'"),
            ("( ) a", "empty bracket in '( ) a'"),
        ],
    )
    def test_a_line_that_does_not_parse_is_named(self, tmp_path, line, message):
        # the message quoted the line with its newline and named no line;
        # line numbers count blank lines, as a grammar file's do
        path = tmp_path / "corpus.brk"
        path.write_text(f"( a a )\n\n{line}\r\n( a )\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"^{re.escape(f'line 3: {message}')}$"):
            read_bracketed_corpus(path)
