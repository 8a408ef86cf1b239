"""Bracketings and corpus readers."""
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
