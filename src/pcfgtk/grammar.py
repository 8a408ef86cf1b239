"""CNF probabilistic context-free grammars: representation, parsing, serialization.

Grammar file format (UTF-8 text):

    # full-line comments and blank lines are ignored
    %start S          (optional; default is the LHS of the first rule)
    LHS -> RHS1 [RHS2] PROB

One rule per line.  Symbols matching ``[A-Z][A-Za-z0-9_]*`` are
nonterminals, anything else is a terminal.  Rules must be in Chomsky
Normal Form: either ``A -> B C`` (both nonterminals) or ``A -> a``
(a terminal).  For every nonterminal, rule probabilities must sum to 1
(tolerance 1e-9, on the exactly rounded ``math.fsum`` of the block); the
grammar is renormalized to an exact float sum of 1.0 on construction.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np

NONTERMINAL_RE = re.compile(r"[A-Z][A-Za-z0-9_]*\Z")

PROPERNESS_TOL = 1e-9


class GrammarError(ValueError):
    """A grammar violates an invariant; ``nonterminal`` names an improper block."""

    def __init__(self, message: str, nonterminal: str | None = None):
        super().__init__(message)
        self.nonterminal = nonterminal


class GrammarFormatError(GrammarError):
    """A grammar file could not be parsed; carries the offending line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def is_nonterminal_symbol(symbol: str) -> bool:
    return NONTERMINAL_RE.match(symbol) is not None


@dataclass(frozen=True)
class Rule:
    """A CNF rule ``lhs -> rhs``; ``rhs`` has two nonterminals or one terminal."""

    id: int
    lhs: str
    rhs: tuple[str, ...]

    @property
    def is_lexical(self) -> bool:
        return len(self.rhs) == 1

    @property
    def terminal(self) -> str:
        return self.rhs[0]

    def __str__(self) -> str:
        return f"{self.lhs} -> {' '.join(self.rhs)}"


@dataclass(frozen=True)
class Grammar:
    """A proper PCFG in CNF.

    Immutable after construction (safe to share across threads); rule ids
    are dense indices into ``rules`` and ``probs``.  Construction validates
    all invariants and renormalizes each nonterminal's probabilities to an
    exact float sum of 1.0.
    """

    nonterminals: tuple[str, ...]
    terminals: tuple[str, ...]
    start: str
    rules: tuple[Rule, ...]
    probs: tuple[float, ...]

    def __post_init__(self):
        self._validate_symbols()
        self._validate_rules()
        object.__setattr__(self, "probs", self._normalized_probs())

    def _validate_symbols(self):
        nts = set(self.nonterminals)
        ts = set(self.terminals)
        if len(nts) != len(self.nonterminals):
            raise GrammarError("duplicate nonterminal symbols")
        if len(ts) != len(self.terminals):
            raise GrammarError("duplicate terminal symbols")
        overlap = nts & ts
        if overlap:
            raise GrammarError(f"symbols are both nonterminal and terminal: {sorted(overlap)}")
        if self.start not in nts:
            raise GrammarError(f"start symbol {self.start!r} is not a nonterminal")

    def _validate_rules(self):
        if len(self.probs) != len(self.rules):
            raise GrammarError("rules and probabilities are misaligned")
        nts = set(self.nonterminals)
        ts = set(self.terminals)
        seen = set()
        for i, rule in enumerate(self.rules):
            if rule.id != i:
                raise GrammarError(f"rule ids must be dense and contiguous, got {rule.id} at {i}")
            if rule.lhs not in nts:
                raise GrammarError(f"rule {rule}: LHS is not a nonterminal")
            if len(rule.rhs) == 2:
                if not all(s in nts for s in rule.rhs):
                    raise GrammarError(f"rule {rule}: binary RHS symbols must be nonterminals")
            elif len(rule.rhs) == 1:
                if rule.rhs[0] not in ts:
                    raise GrammarError(f"rule {rule}: lexical RHS must be a terminal")
            else:
                raise GrammarError(f"rule {rule}: not in CNF")
            key = (rule.lhs, rule.rhs)
            if key in seen:
                raise GrammarError(f"duplicate rule {rule}")
            seen.add(key)
        for rid, p in enumerate(self.probs):
            if not (0.0 < p <= 1.0) or math.isnan(p):
                raise GrammarError(
                    f"rule {self.rules[rid]}: probability {p!r} outside ]0, 1]"
                )

    def _normalized_probs(self) -> tuple[float, ...]:
        probs = list(self.probs)
        for nt, rids in self._lhs_groups().items():
            total = math.fsum(probs[r] for r in rids)
            if abs(total - 1.0) > PROPERNESS_TOL:
                raise GrammarError(
                    f"probabilities for {nt} sum to {total!r}, expected 1 within {PROPERNESS_TOL}",
                    nt,
                )
            group = exact_normalize([probs[r] for r in rids])
            for r, p in zip(rids, group):
                probs[r] = p
        return tuple(probs)

    def _lhs_groups(self) -> dict[str, list[int]]:
        groups: dict[str, list[int]] = {}
        for rule in self.rules:
            groups.setdefault(rule.lhs, []).append(rule.id)
        return groups

    # -- derived indexes (computed once; the grammar itself never mutates) --

    @cached_property
    def log_probs(self) -> tuple[float, ...]:
        return tuple(math.log(p) for p in self.probs)

    @cached_property
    def nt_index(self) -> dict[str, int]:
        return {nt: i for i, nt in enumerate(self.nonterminals)}

    @cached_property
    def rule_lhs_index(self) -> np.ndarray:
        """``nt_index`` of every rule's LHS, indexed by rule id (read-only)."""
        index = np.array([self.nt_index[r.lhs] for r in self.rules], dtype=np.intp)
        index.flags.writeable = False
        return index

    @cached_property
    def binary_rules(self) -> tuple[Rule, ...]:
        return tuple(r for r in self.rules if not r.is_lexical)

    @cached_property
    def lexical_rules(self) -> tuple[Rule, ...]:
        return tuple(r for r in self.rules if r.is_lexical)

    @cached_property
    def rules_by_lhs(self) -> dict[str, tuple[Rule, ...]]:
        groups: dict[str, list[Rule]] = {nt: [] for nt in self.nonterminals}
        for rule in self.rules:
            groups[rule.lhs].append(rule)
        return {nt: tuple(rs) for nt, rs in groups.items()}

    @cached_property
    def _lexical_index(self) -> dict[str, tuple[Rule, ...]]:
        index: dict[str, list[Rule]] = {}
        for rule in self.lexical_rules:
            index.setdefault(rule.terminal, []).append(rule)
        return {t: tuple(rs) for t, rs in index.items()}

    def rules_for_terminal(self, token: str) -> tuple[Rule, ...]:
        return self._lexical_index.get(token, ())

    def with_probs(self, probs) -> "Grammar":
        """A grammar over the same rule set with new probabilities."""
        return Grammar(self.nonterminals, self.terminals, self.start, self.rules, tuple(probs))

    def __str__(self) -> str:
        return serialize_grammar(self)


def exact_normalize(probs: list[float]) -> list[float]:
    """Scale a probability block so its plain float sum is exactly 1.0.

    After dividing by the total, the residual (at most a few ulps) is folded
    into the largest entry; this keeps serialize/parse round trips
    bit-for-bit stable because a reloaded block sums to 1.0 exactly and is
    left untouched.
    """
    total = math.fsum(probs)
    if total != 1.0:
        probs = [p / total for p in probs]
    for _ in range(4):
        total = math.fsum(probs)
        if total == 1.0:
            break
        top = max(range(len(probs)), key=lambda i: probs[i])
        probs[top] += 1.0 - total
    return probs


def parse_grammar(text: str) -> Grammar:
    """Parse the grammar file format described in the module docstring.

    Raises GrammarFormatError with a line number on malformed input,
    non-CNF rules, duplicate rules, probabilities outside ]0, 1], or a
    nonterminal whose probabilities do not sum to 1.
    """
    start_symbol: str | None = None
    entries: list[tuple[int, str, tuple[str, ...], float]] = []
    seen: set[tuple[str, tuple[str, ...]]] = set()
    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("%start"):
            parts = line.split()
            if len(parts) != 2:
                raise GrammarFormatError("malformed %start directive", line_no)
            if not is_nonterminal_symbol(parts[1]):
                raise GrammarFormatError(f"start symbol {parts[1]!r} is not a nonterminal", line_no)
            start_symbol = parts[1]
            continue
        parts = line.split()
        if len(parts) < 4 or parts[1] != "->":
            raise GrammarFormatError("expected 'LHS -> RHS1 [RHS2] PROB'", line_no)
        lhs = parts[0]
        if not is_nonterminal_symbol(lhs):
            raise GrammarFormatError(f"LHS {lhs!r} is not a nonterminal", line_no)
        try:
            prob = float(parts[-1])
        except ValueError:
            raise GrammarFormatError(f"probability {parts[-1]!r} is not a number", line_no) from None
        if not (0.0 < prob <= 1.0) or math.isnan(prob):
            raise GrammarFormatError(f"probability {prob!r} outside ]0, 1]", line_no)
        rhs = tuple(parts[2:-1])
        if len(rhs) == 1:
            if is_nonterminal_symbol(rhs[0]):
                raise GrammarFormatError(
                    f"unary rule over nonterminal {rhs[0]!r} is not CNF", line_no
                )
        elif len(rhs) == 2:
            for s in rhs:
                if not is_nonterminal_symbol(s):
                    raise GrammarFormatError(
                        f"binary rule with terminal {s!r} is not CNF", line_no
                    )
        else:
            raise GrammarFormatError(f"{len(rhs)} RHS symbols is not CNF", line_no)
        if (lhs, rhs) in seen:
            raise GrammarFormatError(f"duplicate rule {lhs} -> {' '.join(rhs)}", line_no)
        seen.add((lhs, rhs))
        entries.append((line_no, lhs, rhs, prob))

    if not entries:
        raise GrammarFormatError("no rules found", 1)

    # insertion-ordered dicts: first-appearance order with O(1) membership
    nonterminals: dict[str, None] = {}
    terminals: dict[str, None] = {}
    for _, lhs, rhs, _ in entries:
        nonterminals[lhs] = None
        for s in rhs:
            (nonterminals if is_nonterminal_symbol(s) else terminals)[s] = None

    if start_symbol is None:
        start_symbol = entries[0][1]
    elif start_symbol not in nonterminals:
        raise GrammarFormatError(f"start symbol {start_symbol!r} has no rules", 1)

    rules = tuple(Rule(i, lhs, rhs) for i, (_, lhs, rhs, _) in enumerate(entries))
    probs = tuple(e[3] for e in entries)
    try:
        return Grammar(tuple(nonterminals), tuple(terminals), start_symbol, rules, probs)
    except GrammarError as exc:
        if exc.nonterminal is None:
            raise
        # report a properness failure at the first rule of the offending block
        line = next(line_no for line_no, lhs, _, _ in entries if lhs == exc.nonterminal)
        raise GrammarFormatError(str(exc), line) from None


def serialize_grammar(g: Grammar) -> str:
    """Render a grammar in the file format; probabilities at full precision."""
    lines = [f"%start {g.start}"]
    for rule, p in zip(g.rules, g.probs):
        lines.append(f"{rule.lhs} -> {' '.join(rule.rhs)} {p!r}")
    return "\n".join(lines) + "\n"


def load_grammar(path) -> Grammar:
    with open(path, encoding="utf-8") as fh:
        return parse_grammar(fh.read())


def save_grammar(g: Grammar, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_grammar(g))
