"""Grammar parsing, validation, serialization, and the expectation matrix."""
import functools
import math
import re
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from conftest import random_grammar, toy
from pcfgtk.logmath import INV_LN2, LN2_HI, NEG_INF, exp_split
from pcfgtk import (
    ConsistencyReport,
    Grammar,
    GrammarError,
    GrammarFormatError,
    Rule,
    check_consistency,
    expectation_matrix,
    load_grammar,
    parse_grammar,
    serialize_grammar,
)


class TestParseGrammar:
    def test_toy_grammar(self):
        g = toy(0.4)
        assert g.nonterminals == ("S",)
        assert g.terminals == ("a",)
        assert g.start == "S"
        assert len(g.rules) == 2
        assert len(g.rules_by_lhs["S"]) == 2
        assert g.probs == (0.4, 0.6)

    def test_single_rule_grammar(self):
        g = parse_grammar("S -> a 1.0")
        assert len(g.rules) == 1
        assert g.probs == (1.0,)

    def test_comments_and_blank_lines(self):
        g = parse_grammar("# header\n\nS -> S S 0.4\n# middle\nS -> a 0.6\n")
        assert len(g.rules) == 2

    def test_start_directive(self):
        g = parse_grammar("%start T\nS -> a 1.0\nT -> S S 1.0\n")
        assert g.start == "T"

    def test_default_start_is_first_lhs(self):
        g = parse_grammar("T -> a 1.0\nS -> T T 1.0\n")
        assert g.start == "T"

    def test_properness_violation(self):
        with pytest.raises(GrammarFormatError, match="sum"):
            parse_grammar("S -> S S 0.3\nS -> a 0.6\n")

    def test_properness_violation_reports_first_rule_of_block(self):
        with pytest.raises(GrammarFormatError, match="probabilities for T sum") as err:
            parse_grammar("S -> T T 0.5\n# T's block\nT -> T T 0.3\nS -> a 0.5\nT -> a 0.6\n")
        assert err.value.line == 3

    def test_first_improper_block_in_the_file_is_reported(self):
        # B precedes A in nonterminal order, but A's block comes first
        with pytest.raises(GrammarFormatError, match="probabilities for A sum") as err:
            parse_grammar("S -> B A 0.5\nA -> a 0.3\nB -> b 0.3\nS -> a 0.5\n")
        assert err.value.line == 2
        assert err.value.nonterminal == "A"

    def test_properness_is_checked_on_the_exact_sum(self):
        # the plain left-to-right float sum of this block is 0.9999999989999999,
        # just outside the tolerance; the exactly rounded sum is inside it
        probs = [
            0.12703594457329337, 0.013775522071384117, 0.08669641327709167,
            0.09968478134489238, 0.04082921328941026, 0.10237205470257953,
            0.12336985170383401, 0.1340702160200477, 0.06898758620412021,
            0.13323790351495607, 0.06994051229839075,
        ]
        assert abs(sum(probs) - 1.0) > 1e-9 >= abs(math.fsum(probs) - 1.0)
        terminals = tuple(f"t{i}" for i in range(len(probs)))
        loaded = parse_grammar("".join(f"S -> {t} {p!r}\n" for t, p in zip(terminals, probs)))
        direct = Grammar(
            ("S",), terminals, "S",
            tuple(Rule(i, "S", (t,)) for i, t in enumerate(terminals)), tuple(probs),
        )
        assert loaded == direct

    def test_many_terminals_load_in_linear_time(self):
        n = 30_000
        text = "".join(f"S -> w{i} {1 / n!r}\n" for i in range(n))
        started = time.perf_counter()
        g = parse_grammar(text)
        assert time.perf_counter() - started < 3.0
        assert g.terminals == tuple(f"w{i}" for i in range(n))

    def test_probability_out_of_range(self):
        with pytest.raises(GrammarFormatError, match="outside"):
            parse_grammar("S -> a 1.5")
        with pytest.raises(GrammarFormatError, match="outside"):
            parse_grammar("S -> a 0.0")

    def test_duplicate_rule(self):
        with pytest.raises(GrammarFormatError, match="duplicate") as err:
            parse_grammar("S -> a 0.5\nS -> a 0.5\n")
        assert err.value.line == 2

    def test_non_cnf_unary_nonterminal(self):
        with pytest.raises(GrammarFormatError, match="CNF"):
            parse_grammar("S -> A 1.0\nA -> a 1.0\n")

    def test_non_cnf_binary_terminal(self):
        with pytest.raises(GrammarFormatError, match="CNF"):
            parse_grammar("S -> S a 1.0\nS -> a 1.0\n")

    def test_non_cnf_ternary(self):
        with pytest.raises(GrammarFormatError, match="CNF"):
            parse_grammar("S -> S S S 1.0")

    def test_bad_lhs(self):
        with pytest.raises(GrammarFormatError, match="LHS"):
            parse_grammar("s -> a 1.0")

    def test_bad_probability_token(self):
        with pytest.raises(GrammarFormatError, match="not a number"):
            parse_grammar("S -> a b")

    def test_error_carries_line_number(self):
        with pytest.raises(GrammarFormatError) as err:
            parse_grammar("S -> S S 0.4\nS -> a 0.6\nS -> a a 1.0\n")
        assert err.value.line == 3

    def test_unknown_start(self):
        with pytest.raises(GrammarFormatError, match="no rules"):
            parse_grammar("%start X\nS -> a 1.0\n")
        # B is a nonterminal, but only on a right-hand side
        with pytest.raises(GrammarFormatError, match="start symbol 'B' has no rules"):
            parse_grammar("%start B\nS -> S B 0.4\nS -> a 0.6\n")

    def test_rule_set_fault_is_reported_before_a_probability_fault(self):
        with pytest.raises(GrammarFormatError, match="CNF") as err:
            parse_grammar("S -> a 1.5\nS -> S S S 0.5\n")
        assert err.value.line == 2

    def test_rule_error_reports_its_own_line(self):
        with pytest.raises(GrammarFormatError, match="CNF") as err:
            parse_grammar("# header\n\nS -> S S 0.4\n# note\nS -> a 0.6\nS -> S a 1.0\n")
        assert err.value.line == 6
        assert err.value.rule == 2

    def test_nonterminal_without_rules_is_allowed(self):
        # B appears only on a right-hand side; derivations through it are
        # dead ends but the grammar itself is valid
        g = parse_grammar("S -> S B 0.4\nS -> a 0.6\n")
        assert "B" in g.nonterminals
        assert g.rules_by_lhs["B"] == ()
        assert g.binary_rule_table.tolist() == [[0]]  # no row for B


# S -> S S | a, with one field replaced by each case below
VALID = dict(
    nonterminals=("S",), terminals=("a",), start="S",
    rules=(Rule(0, "S", ("S", "S")), Rule(1, "S", ("a",))), probs=(0.4, 0.6),
)


def _rules(*rhss):
    return tuple(Rule(i, "S", rhs) for i, rhs in enumerate(rhss))


# (field overrides, message pattern, expected `rule` and `nonterminal`)
INVALID_GRAMMARS = {
    "duplicate nonterminal": (dict(nonterminals=("S", "S")), "duplicate nonterminal", None, None),
    "duplicate terminal": (dict(terminals=("a", "a")), "duplicate terminal", None, None),
    "symbol in both sets": (dict(terminals=("a", "S")), "both nonterminal and terminal", None, None),
    "start not a nonterminal": (dict(start="a"), "start symbol 'a' is not a nonterminal", None, None),
    "misaligned probabilities": (dict(probs=(1.0,)), "misaligned", None, None),
    "ids not dense": (
        dict(rules=(Rule(0, "S", ("S", "S")), Rule(2, "S", ("a",)))), "dense", None, None
    ),
    "LHS not a nonterminal": (
        dict(rules=(Rule(0, "S", ("S", "S")), Rule(1, "T", ("a",)))), "LHS", 1, None
    ),
    "unary over a nonterminal": (dict(rules=_rules(("S", "S"), ("S",))), "CNF", 1, None),
    "unary over an unknown symbol": (dict(rules=_rules(("S", "S"), ("b",))), "CNF", 1, None),
    "binary with a terminal": (dict(rules=_rules(("S", "a"), ("a",))), "CNF", 0, None),
    "ternary": (dict(rules=_rules(("S", "S", "S"), ("a",))), "CNF", 0, None),
    "empty RHS": (dict(rules=_rules(("a",), ())), "CNF", 1, None),
    "duplicate rule": (dict(rules=_rules(("a",), ("a",)), probs=(0.5, 0.5)), "duplicate", 1, None),
    "probability 0": (dict(probs=(0.0, 1.0)), "outside", 0, None),
    "probability 1.5": (dict(probs=(0.4, 1.5)), "outside", 1, None),
    "probability NaN": (dict(probs=(math.nan, 0.6)), "outside", 0, None),
    "improper block": (dict(probs=(0.3, 0.6)), "sum", None, "S"),
    # the rule set is checked before its probabilities
    "no rules": (dict(terminals=(), rules=(), probs=()), "^grammar has no rules$", None, None),
    "probability 1.5 before a ternary": (
        dict(rules=_rules(("a",), ("S", "S", "S")), probs=(1.5, 0.6)), "CNF", 1, None
    ),
}
PROBABILITY_CASES = [
    "misaligned probabilities", "probability 0", "probability 1.5", "probability NaN",
    "improper block",
]

# (file text, message, line) of faults in the file format itself; each lies
# past line 1 where the format allows, so a wrong line number shows
RULE_SHAPE = "expected 'LHS -> RHS1 [RHS2] PROB'"
FORMAT_ERRORS = {
    "bare %start": ("S -> a 1.0\n%start\n", "malformed %start directive", 2),
    "%start with two symbols": ("# note\n%start S T\nS -> a 1.0\n", "malformed %start directive", 2),
    "%start naming a terminal": (
        "# note\n%start a\nS -> a 1.0\n", "start symbol 'a' is not a nonterminal", 2
    ),
    "rule without an arrow": ("S -> S S 0.4\nS a 0.6\n", RULE_SHAPE, 2),
    "rule without a right-hand side": ("S -> a 1.0\n\nT -> 1.0\n", RULE_SHAPE, 3),
    # a file without rules has no later line to name
    "empty file": ("", "no rules found", 1),
    "comments only": ("# a grammar\n\n# with no rules\n", "no rules found", 1),
}


@pytest.mark.parametrize("case", list(FORMAT_ERRORS))
def test_format_errors_name_their_line(case):
    text, message, line = FORMAT_ERRORS[case]
    with pytest.raises(GrammarFormatError) as err:
        parse_grammar(text)
    assert str(err.value) == f"line {line}: {message}"
    assert err.value.line == line


@pytest.mark.parametrize("case", list(INVALID_GRAMMARS))
def test_grammar_rejects_invalid_input(case):
    overrides, pattern, rule, nonterminal = INVALID_GRAMMARS[case]
    with pytest.raises(GrammarError, match=pattern) as err:
        Grammar(**{**VALID, **overrides})
    assert (err.value.rule, err.value.nonterminal) == (rule, nonterminal)


@pytest.mark.parametrize("case", PROBABILITY_CASES)
def test_with_probs_rejects_what_the_constructor_rejects(case):
    overrides, pattern, rule, nonterminal = INVALID_GRAMMARS[case]
    with pytest.raises(GrammarError, match=pattern) as err:
        Grammar(**VALID).with_probs(overrides["probs"])
    assert (err.value.rule, err.value.nonterminal) == (rule, nonterminal)


def test_with_probs_does_not_check_the_rule_set_again(monkeypatch):
    g = Grammar(**VALID)

    def spy(self):
        raise AssertionError("rule set checked again")

    monkeypatch.setattr(Grammar, "_validate_symbols", spy)
    monkeypatch.setattr(Grammar, "_validate_rules", spy)
    assert g.with_probs([0.7, 0.3]).probs == (0.7, 0.3)


class TestBinaryRuleTable:
    def test_rows_by_lhs_padded(self):
        g = parse_grammar(
            "S -> A B 0.5\nS -> a 0.5\nA -> a 1.0\n"
            "B -> B C 0.2\nB -> C C 0.3\nB -> S B 0.1\nB -> b 0.4\nC -> b 1.0\n"
        )
        assert g.binary_rule_table.tolist() == [[0, -1, -1], [3, 4, 5]]
        assert not g.binary_rule_table.flags.writeable

    def test_no_binary_rules(self):
        g = parse_grammar("S -> a 0.6\nS -> b 0.4\n")
        assert g.binary_rule_table.shape == (0, 0)

    def test_with_probs_keeps_the_rule_set_indexes(self):
        # every cached property must depend on the rule set alone: a cache
        # of anything derived from the probabilities would go stale here
        g = toy(0.3)
        cached = [n for n, a in vars(Grammar).items() if isinstance(a, functools.cached_property)]
        assert {"binary_rule_table", "rule_lhs_index"} <= set(cached)
        before = {name: getattr(g, name) for name in cached}
        h = g.with_probs([0.6 + 1e-12, 0.4])
        for name in cached:
            assert getattr(h, name) is before[name], name
        assert math.fsum(h.probs) == 1.0 and h.probs != (0.6 + 1e-12, 0.4)
        assert h.log_probs == tuple(math.log(p) for p in h.probs)
        assert g.log_probs == (math.log(0.3), math.log(0.7))


G100 = Path(__file__).parent / "data" / "g100-seed0.g"


def weight_arrays(w):
    """Every array of a ``PassWeights`` value, rules and columns of each form."""
    return [array for form in (w.log, w.plain, w.mant, w.expo) for array in form]


class TestPassWeights:
    def test_the_grammars_own_log_weights_give_its_own_value(self):
        g = load_grammar(G100)
        for log_weights in (g.log_probs, list(g.log_probs), iter(g.log_probs)):
            assert g.weights_of(log_weights) is g.weights

    def test_weights_of_takes_one_finite_weight_per_rule(self):
        # unchecked, 50 weights failed inside the split with an IndexError,
        # and the two extra of 102 were ignored
        g = load_grammar(G100)
        lps = list(g.log_probs)
        for bad in (
            lps[:50],
            lps + [-1.0, -2.0],
            [],
            lps[:-1] + [-math.inf],
            lps[:-1] + [math.inf],
            [math.nan] + lps[1:],
        ):
            with pytest.raises(ValueError, match="expected 100 finite log weights, one per rule"):
                g.weights_of(bad)

    def test_own_weights_split_the_probabilities_exactly(self):
        # frexp of p, which exp_split of log p rounds: the equality test of
        # weights_of keeps these bits
        g = load_grammar(G100)
        w = g.weights
        mant, expo = np.frexp(g.probs)
        assert w.plain[0].tolist() == [*g.probs, 0.0]
        assert w.mant[0].tobytes() == np.append(mant, 0.0).tobytes()
        assert w.expo[0].tolist() == [*expo.tolist(), -(2**40)]
        assert w.log[0].tolist() == [*g.log_probs, NEG_INF]
        assert (w.lo, w.hi) == (expo.min(), expo.max())
        assert (exp_split(g.log_probs)[0] != w.mant[0]).any()

    def test_other_weights_are_split_by_exp_split(self):
        g = load_grammar(G100)
        log_weights = [0.5 * lp for lp in g.log_probs]
        w = g.weights_of(log_weights)
        mant, expo = exp_split(log_weights)
        assert w.mant[0].tobytes() == mant.tobytes()
        assert w.expo[0].tobytes() == expo.tobytes()
        assert w.plain[0].tobytes() == np.ldexp(mant, expo).tobytes()
        assert w.log[0].tolist() == [*log_weights, NEG_INF]
        assert (w.lo, w.hi) == (expo[:-1].min(), expo[:-1].max())
        for rules, columns in (w.log, w.plain, w.mant, w.expo):
            want = rules.take(g.binary_rule_table.T)[:, None, :]
            assert columns.tobytes() == want.tobytes() and columns.shape == want.shape

    def test_weights_of_rejects_weights_the_split_cannot_reduce_exactly(self):
        # exp_split reduces w by k * ln 2 in two parts, k = floor(w / ln 2);
        # k * LN2_HI is exact while |k| < 2**21, and weights_of takes w just
        # when that holds, the reduction being exact for every w it takes
        g = toy(0.3)
        for edge in ((1 - 2**21) * math.log(2.0), 2**21 * math.log(2.0)):
            taken = set()
            w = edge
            for _ in range(20):
                w = math.nextafter(w, -math.inf)
            for _ in range(40):
                k = math.floor(w * INV_LN2)
                within = abs(k) < 2**21
                if within:
                    g.weights_of((w, -1.0))
                    assert Fraction(k) * Fraction(LN2_HI) == Fraction(k * LN2_HI)
                else:
                    with pytest.raises(ValueError, match=re.escape("|floor(w / ln 2)| < 2**21")):
                        g.weights_of((w, -1.0))
                taken.add(within)
                w = math.nextafter(w, math.inf)
            assert taken == {True, False}
        for w in (-1e10, 1e10, -1e300, -1.7e308, 1.7e308):
            with pytest.raises(ValueError, match=re.escape(f"rule S -> S S: log weight {w!r} is out")):
                g.weights_of((w, -1.0))

    def test_weights_beyond_a_double_keep_their_split(self):
        g = toy(0.3)
        log_weights = (800.0, -800.0)
        w = g.weights_of(log_weights)
        assert w.mant[0].tobytes() == exp_split(log_weights)[0].tobytes()
        assert (w.lo, w.hi) == (-1154, 1155)

    def test_every_array_is_read_only(self):
        g = load_grammar(G100)
        for w in (g.weights, g.weights_of([2.0 * lp for lp in g.log_probs])):
            arrays = weight_arrays(w)
            assert len(arrays) == 8
            for array in arrays:
                assert not array.flags.writeable
                with pytest.raises(ValueError):
                    array[0] = 0

    def test_with_probs_copies_have_their_own_weights(self):
        g = toy(0.3)
        leaves = g.terminal_leaves  # a rule-set cache, filled before the copy
        before = [array.tobytes() for array in weight_arrays(g.weights)]
        h = g.with_probs([0.6, 0.4])
        assert h.weights is not g.weights
        assert h.weights.plain[0].tolist() == [0.6, 0.4, 0.0]
        assert h.weights_of(h.log_probs) is h.weights
        assert g.weights_of(h.log_probs) is not g.weights
        assert [array.tobytes() for array in weight_arrays(g.weights)] == before
        assert h.layout_slot is g.layout_slot
        assert h.binary_rule_table is g.binary_rule_table
        assert h.terminal_leaves is leaves


class TestRoundTrip:
    def test_toy_round_trip_bit_for_bit(self):
        g = toy(0.4)
        g2 = parse_grammar(serialize_grammar(g))
        assert g2.rules == g.rules
        assert g2.probs == g.probs
        assert g2.start == g.start

    def test_random_grammars_round_trip(self):
        for seed in range(40):
            g = random_grammar(np.random.default_rng(1000 + seed))
            g2 = parse_grammar(serialize_grammar(g))
            assert g2.rules == g.rules
            assert g2.probs == g.probs

    def test_normalization_is_exact(self):
        for seed in range(40):
            g = random_grammar(np.random.default_rng(2000 + seed))
            for nt in g.nonterminals:
                rids = [r.id for r in g.rules_by_lhs[nt]]
                if rids:
                    assert math.fsum(g.probs[r] for r in rids) == 1.0

    def test_load_tolerates_tiny_drift_and_cleans_it(self):
        text = "S -> S S 0.4000000000001\nS -> a 0.6\n"
        g = parse_grammar(text)
        assert math.fsum(g.probs) == 1.0


class TestExpectationMatrix:
    def test_toy_entry_is_twice_q(self):
        m = expectation_matrix(toy(0.4))
        assert m.shape == (1, 1)
        assert abs(m[0, 0] - 0.8) < 1e-15

    def test_no_binary_rules_gives_zero(self):
        m = expectation_matrix(parse_grammar("S -> a 1.0"))
        assert m[0, 0] == 0.0

    def test_toy_q06(self):
        m = expectation_matrix(toy(0.6))
        assert abs(m[0, 0] - 1.2) < 1e-15

    def test_distinct_children_split_mass(self):
        g = parse_grammar("S -> A B 0.5\nS -> a 0.5\nA -> a 1.0\nB -> b 1.0\n")
        m = expectation_matrix(g)
        i = g.nt_index
        assert m[i["S"], i["A"]] == 0.5
        assert m[i["S"], i["B"]] == 0.5
        assert m[i["A"], i["A"]] == 0.0

    def test_entries_nonnegative_and_bounded(self):
        for seed in range(60):
            g = random_grammar(np.random.default_rng(3000 + seed))
            m = expectation_matrix(g)
            assert np.all(m >= 0.0)
            for nt in g.nonterminals:
                binary_mass = sum(
                    g.probs[r.id] for r in g.rules_by_lhs[nt] if not r.is_lexical
                )
                row = m[g.nt_index[nt]]
                assert np.all(row <= 2.0 * binary_mass + 1e-12)

    def test_bits_match_a_scalar_loop_over_binary_rules(self):
        # each binary rule adds its probability once per child, in rule-id
        # order, so an entry that three or more additions feed (where float
        # order can show) sums in that order
        grammars = [
            random_grammar(np.random.default_rng(5000 + seed), max_rules=10, ensure_binary=True)
            for seed in range(200)
        ]
        grammars.append(load_grammar(Path(__file__).parent / "data" / "g100-seed0.g"))
        ordered = 0
        for g in grammars:
            n = len(g.nonterminals)
            want = [[0.0] * n for _ in range(n)]
            terms = np.zeros((n, n), dtype=int)
            for rule, p in zip(g.rules, g.probs):
                if len(rule.rhs) == 2:
                    for child in rule.rhs:
                        row, col = g.nonterminals.index(rule.lhs), g.nonterminals.index(child)
                        want[row][col] += p
                        terms[row, col] += 1
            assert expectation_matrix(g).tobytes() == np.array(want).tobytes()
            ordered += int((terms >= 3).sum())
        assert ordered >= 100


def reached_from_start(g, m) -> list[int]:
    """Indexes of the nonterminals that the start symbol reaches along the
    nonzero entries of its expectation matrix ``m``, ascending."""
    reached = {g.nt_index[g.start]}
    stack = list(reached)
    while stack:
        fresh = set(np.flatnonzero(m[stack.pop()]).tolist()) - reached
        reached |= fresh
        stack += fresh
    return sorted(reached)


# A and B feed each other through one binary rule each: radius sqrt(0.6 * 0.5)
TWO_CYCLE = "S -> A X 1.0\nA -> B X 0.6\nA -> a 0.4\nB -> A X 0.5\nB -> b 0.5\nX -> x 1.0\n"
# S reaches C along two paths and nothing returns: radius 0
DIAMOND = "S -> A B 1.0\nA -> C C 0.5\nA -> a 0.5\nB -> C C 0.3\nB -> b 0.7\nC -> c 1.0\n"


class TestConsistency:
    @pytest.mark.parametrize("q", [0.05, 0.25, 0.45])
    def test_subcritical_toy_is_consistent(self, q):
        report = check_consistency(toy(q))
        assert report.verdict == "consistent"
        assert abs(report.spectral_radius - 2 * q) < 1e-10

    @pytest.mark.parametrize("q", [0.55, 0.75, 0.95])
    def test_supercritical_toy_is_inconsistent(self, q):
        report = check_consistency(toy(q))
        assert report.verdict == "inconsistent"
        assert abs(report.spectral_radius - 2 * q) < 1e-10

    def test_radius_exactly_one_converges_borderline(self):
        # toy(0.5) has radius 2 * 0.5 = 1: a converged run within the
        # tolerance band of 1 is borderline, not only a run that never settles
        report = check_consistency(toy(0.5))
        assert report == ConsistencyReport(1.0, "borderline", 2, True)

    def test_lexical_grammar_has_zero_radius(self):
        report = check_consistency(parse_grammar("S -> a 1.0"))
        assert report.verdict == "consistent"
        assert report.spectral_radius == 0.0
        assert report.converged

    def test_branching_two_nonterminal_chain(self):
        # acyclic dependencies (S -> A A with A always lexical, and the
        # diamond): radius 0 via nilpotence
        for text in ("S -> A A 1.0\nA -> a 1.0\n", DIAMOND):
            report = check_consistency(parse_grammar(text))
            assert report.verdict == "consistent"
            assert abs(report.spectral_radius) < 1e-9

    def test_periodic_structure_converges(self):
        # A and B feed each other; the expectation matrix is cyclic
        g = parse_grammar(
            "S -> A B 0.9\nS -> a 0.1\nA -> B B 0.6\nA -> a 0.4\nB -> A A 0.6\nB -> b 0.4\n"
        )
        report = check_consistency(g)
        assert report.converged
        m = expectation_matrix(g)
        rho_direct = max(abs(np.linalg.eigvals(m)))
        assert abs(report.spectral_radius - rho_direct) < 1e-9

    def test_estimated_radius_matches_eigvals_on_random_grammars(self):
        grammars = [random_grammar(np.random.default_rng(4000 + seed)) for seed in range(60)]
        grammars += [parse_grammar(TWO_CYCLE), parse_grammar(DIAMOND)]
        for g in grammars:
            report = check_consistency(g)
            m = expectation_matrix(g)
            reached = reached_from_start(g, m)
            rho_direct = max(abs(np.linalg.eigvals(m[np.ix_(reached, reached)])))
            if report.converged:
                assert abs(report.spectral_radius - rho_direct) < 1e-8

    def test_unreachable_cycle_does_not_count(self):
        # X -> X X is supercritical (radius 1.8), but S never reaches X, so
        # every tree from S is finite
        report = check_consistency(parse_grammar("S -> a 1.0\nX -> X X 0.9\nX -> x 0.1\n"))
        assert report == ConsistencyReport(0.0, "consistent", 0, True)

    def test_dead_end_is_inconsistent(self):
        # B has no rule, so S -> A B derives no finite tree and half of S's
        # mass is lost, though the radius is 0
        g = parse_grammar("S -> A B 0.5\nS -> a 0.5\nA -> a 1.0\n")
        assert check_consistency(g) == ConsistencyReport(0.0, "inconsistent", 0, True)

    def test_dead_end_on_a_cycle_is_inconsistent(self):
        # S feeds itself with radius 2 * 0.2 + 0.1, so the power iteration
        # runs, yet B has no rule and no tree through S -> S B ends
        g = parse_grammar("S -> S S 0.2\nS -> S B 0.1\nS -> a 0.7\n")
        report = check_consistency(g)
        assert report.converged and abs(report.spectral_radius - 0.5) < 1e-10
        assert report.verdict == "inconsistent"

    def test_unreachable_dead_end_does_not_count(self):
        g = parse_grammar("S -> S S 0.2\nS -> a 0.8\nX -> S Y 1.0\n")
        report = check_consistency(g)
        assert report.verdict == "consistent"
        assert abs(report.spectral_radius - 0.4) < 1e-10

    def test_reachability_is_kept_per_rule_set(self):
        # both facts are rule-set indexes: a with_probs copy made after a
        # check holds them already, and gives the same verdict
        g = parse_grammar("S -> A B 0.5\nS -> a 0.5\nA -> a 1.0\nX -> X X 0.9\nX -> x 0.1\n")
        check_consistency(g)
        h = g.with_probs([0.4, 0.6, 1.0, 0.5, 0.5])
        assert {"reachable", "reaches_dead_end"} <= vars(h).keys()
        assert h.reachable is g.reachable
        assert [g.nonterminals[i] for i in h.reachable] == ["S", "A", "B"]
        assert check_consistency(h).verdict == "inconsistent"

    def test_bad_tol_rejected(self):
        for tol in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                check_consistency(toy(0.6), tol=tol)
