"""Derivations as leftmost rule sequences, with usage counts and replay.

A derivation is stored as the sequence of rule ids applied by a leftmost
derivation from the start symbol; for context-free grammars this is in
bijection with parse trees.  All log probabilities in the package are
computed by one canonical formula, ``score_counts``: the dot product of
rule-usage counts with rule log probabilities, added one at a time in
ascending rule-id order on every Python (``score_rules`` adds the same
terms in the same order straight from a rule sequence).  Because that sum
is independent of tree shape, derivations that use the same multiset of
rules receive bit-identical scores, which makes the deterministic
tie-breaking in the parsers reproducible.

One iterative walker, ``_walk``, validates a rule sequence and reads off its
tokens, constituent spans and tree in a single left-to-right pass;
``replay_derivation``, ``derivation_spans`` and ``derivation_tree`` each
return one of those views.
"""
from __future__ import annotations

from dataclasses import dataclass

from .grammar import Grammar


@dataclass(frozen=True)
class Derivation:
    """A leftmost rule-id sequence for one sentence, with its log probability."""

    rules: tuple[int, ...]
    sentence_len: int
    log_prob: float

    @classmethod
    def build(cls, g: Grammar, rules, sentence_len: int) -> "Derivation":
        rules = tuple(rules)
        return cls(rules, sentence_len, score_rules(g, rules))

    def __len__(self) -> int:
        return len(self.rules)


def count_vector(g: Grammar, rules) -> tuple[int, ...]:
    counts = [0] * len(g.rules)
    for rid in rules:
        if not 0 <= rid < len(g.rules):
            raise ValueError(f"rule id {rid} out of range for grammar with {len(g.rules)} rules")
        counts[rid] += 1
    return tuple(counts)


def score_counts(g: Grammar, counts) -> float:
    """Canonical log probability of a (partial) derivation from its counts."""
    total = 0
    for c, lp in zip(counts, g.log_probs):
        if c:
            total += c * lp
    return total


def score_rules(g: Grammar, rules) -> float:
    """``score_counts(g, count_vector(g, rules))`` without the count vector:
    the same products N(rule) * log p(rule), added in the same ascending
    rule-id order, in time that does not grow with the grammar."""
    ids = sorted(rules)
    if ids and not (0 <= ids[0] and ids[-1] < len(g.rules)):
        rid = ids[0] if ids[0] < 0 else ids[-1]
        raise ValueError(f"rule id {rid} out of range for grammar with {len(g.rules)} rules")
    lp = g.log_probs
    total = 0
    start = 0
    for end in range(1, len(ids) + 1):
        if end == len(ids) or ids[end] != ids[start]:
            total += (end - start) * lp[ids[start]]
            start = end
    return total


def derivation_probability(g: Grammar, d: Derivation) -> float:
    """Log probability of a derivation: sum of N(rule, d) * log p(rule)."""
    return score_rules(g, d.rules)


def _walk(g: Grammar, rules, sentence_len: int | None = None):
    """Validate a rule sequence as a complete leftmost derivation and read it.

    Returns the tokens, the half-open span of every constituent and the
    nested ``(label, children)`` tree.  Iterative, so the depth of the tree
    is not bounded by the interpreter's recursion limit.  Raises ValueError
    if the sequence is not a complete leftmost derivation from the start
    symbol, or not of ``sentence_len`` tokens when that is given.
    """
    lhs_rhs = g.rule_lhs_rhs
    n_rules = len(lhs_rhs)
    pending = [g.start]  # leftmost pending nonterminal on top
    pop = pending.pop
    # binary nodes awaiting children: [label, start, left child or None]
    open_nodes: list[list] = []
    tokens: list[str] = []
    spans: list[tuple[int, int]] = []
    tree = None
    end = 0  # tokens read
    for rid in rules:
        if not 0 <= rid < n_rules:
            raise ValueError(f"rule id {rid} out of range")
        lhs, rhs = lhs_rhs[rid]
        try:
            top = pop()
        except IndexError:
            raise ValueError(f"rule {g.rules[rid]} applied after the derivation completed") from None
        if top != lhs:
            raise ValueError(f"rule {g.rules[rid]} cannot rewrite pending nonterminal {top}")
        if len(rhs) == 2:
            pending += (rhs[1], rhs[0])
            open_nodes.append([lhs, end, None])
            continue
        tokens.append(rhs[0])
        spans.append((end, end + 1))
        end += 1
        node = (lhs, rhs)  # a lexical rule's rhs is its one terminal
        # a finished subtree completes every ancestor whose right child it ends
        while open_nodes:
            parent = open_nodes[-1]
            if parent[2] is None:
                parent[2] = node
                break
            open_nodes.pop()
            label, start, first = parent
            node = (label, (first, node))
            spans.append((start, end))
        else:
            tree = node
    if pending:
        raise ValueError(f"derivation incomplete; pending nonterminals {pending[::-1]}")
    if sentence_len is not None and len(tokens) != sentence_len:
        raise ValueError("rule sequence is not a complete derivation of the sentence")
    return tokens, spans, tree


def replay_derivation(g: Grammar, rules) -> list[str]:
    """Expand a rule sequence as a leftmost derivation; returns the tokens.

    Raises ValueError if the sequence is not a complete leftmost derivation
    from the start symbol.
    """
    return _walk(g, rules)[0]


def derivation_spans(g: Grammar, d: Derivation) -> frozenset[tuple[int, int]]:
    """Half-open token spans of every constituent in the derivation's tree."""
    return frozenset(_walk(g, d.rules, d.sentence_len)[1])


def derivation_tree(g: Grammar, d: Derivation):
    """Nested ``(label, children)`` tuples for the derivation's parse tree."""
    return _walk(g, d.rules, d.sentence_len)[2]


def format_tree(tree) -> str:
    """Render a ``(label, children)`` tree as a bracketed string.

    Iterative, so the depth of the tree is not bounded by the interpreter's
    recursion limit.
    """
    parts: list[str] = []
    stack = [tree]  # subtrees to render and literal text, next on top
    while stack:
        item = stack.pop()
        if item.__class__ is str:
            parts.append(item)
            continue
        label, children = item
        if len(children) == 1 and children[0].__class__ is str:
            parts.append(f"({label} {children[0]})")  # a lexical node
            continue
        if len(children) == 2:  # a binary node, in one push
            parts.append(f"({label} ")
            stack += (")", children[1], " ", children[0])
            continue
        parts.append(f"({label}")
        stack.append(")")
        for child in reversed(children):
            stack += (child, " ")
    return "".join(parts)
