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
grammar is renormalized on construction so that each block's ``math.fsum``
is exactly 1.0.

Checks come in three layers.  ``parse_grammar`` reads the file format only
(line shape, symbol naming, numbers, ``%start``).  Constructing a
``Grammar`` checks its rule set once (symbols, dense ids, LHS, CNF shape,
duplicates).  Every probability vector, the constructor's or one given to
``with_probs``, is then checked (alignment, range ]0, 1], properness) and
renormalized, so a rule-set fault is reported before a probability fault.
An error in a file names its line in either case.

What the parsers derive from the grammar alone is made once per grammar,
never once per call, and each fact has one index.  Indexes of the rule set
(the binary rule table, with its rows as tuples for ``kbest``; the lexicon,
``terminal_leaves``, which alone maps a terminal to its lexical rules; the
CKY layout) are cached on first use, never at load, and shared by every
``with_probs`` copy.  The brute-force oracle reads none of these parser
indexes: it finds a span's rules, lexical ones too, in ``rules_by_lhs``.
The weights that ``chart``'s and ``kbest``'s forward passes read, each
form in one ``PassWeights`` value, are set with each probability vector,
so each copy has its own; other log weights get theirs from
``weights_of``, made once for every pass that reads them.  Nothing is
kept per sentence: a benchmark that meets each sentence many times would
read such a cache as a gain that a corpus of distinct sentences never
sees.
"""
from __future__ import annotations

import math
import re
import threading
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .logmath import INV_LN2, NEG_INF, SPLIT_BOUND, ZERO_EXPONENT, exp_split

NONTERMINAL_RE = re.compile(r"[A-Z][A-Za-z0-9_]*\Z")

PROPERNESS_TOL = 1e-9


class GrammarError(ValueError):
    """A grammar violates an invariant; ``nonterminal`` names an improper
    block and ``rule`` the id of an invalid rule."""

    def __init__(self, message: str, nonterminal: str | None = None, rule: int | None = None):
        super().__init__(message)
        self.nonterminal = nonterminal
        self.rule = rule


class GrammarFormatError(GrammarError):
    """A grammar file could not be parsed; carries the offending line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def is_nonterminal_symbol(symbol: str) -> bool:
    return NONTERMINAL_RE.match(symbol) is not None


class LayoutSlot:
    """The CKY layout that ``chart`` keeps for a rule set, and the lock held
    while it is replaced.

    A grammar and its ``with_probs`` copies share one slot, since the layout
    depends on the rule set alone.  A pickled or deep-copied grammar is
    built anew and gets an empty slot of its own.
    """

    __slots__ = ("layout", "lock")

    def __init__(self):
        self.layout = None
        self.lock = threading.Lock()


class PassWeights(NamedTuple):
    """Log rule weights w in each form that a forward pass reads (Goodman
    1999: one semiring value in several representations).

    Each form is a pair of read-only arrays: one by rule id, ending with the
    weight of padding (rule id -1), and that one gathered by
    ``binary_rule_table.T`` to shape (Q, 1, L), the weight of table row a's
    q-th rule at [q, 0, a], which broadcasts over a width's candidates (see
    ``chart._Width``).  ``log`` is w, for ``kbest``'s max-plus pass;
    ``mant`` and ``expo`` split exp(w) as ``logmath.exp_split`` does, for
    ``chart``'s scaled pass; ``plain`` is exp(w), for its plain pass, which
    runs only where ``lo`` and ``hi``, the least and the greatest exponent
    of a rule, lie within its range.  ``table`` is the binary rule table
    that gathered the columns, by which ``chart`` tells a value made for
    another rule set apart.
    """

    log: tuple[np.ndarray, np.ndarray]
    plain: tuple[np.ndarray, np.ndarray]
    mant: tuple[np.ndarray, np.ndarray]
    expo: tuple[np.ndarray, np.ndarray]
    lo: int
    hi: int
    table: np.ndarray


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

    Immutable after construction (safe to share across threads) but for the
    ``layout_slot`` cache, which ``chart`` replaces under its lock, and the
    rule-set indexes cached on first use; rule ids are dense indices into
    ``rules`` and ``probs``.  Construction checks the rule set, then
    installs the probabilities (see ``_install_probs``).  A pickled or
    deep-copied grammar is constructed anew from its rules and
    probabilities, so its arrays are read-only and its caches its own.
    """

    nonterminals: tuple[str, ...]
    terminals: tuple[str, ...]
    start: str
    rules: tuple[Rule, ...]
    probs: tuple[float, ...]
    log_probs: tuple[float, ...] = field(init=False, repr=False, compare=False)
    weights: PassWeights = field(init=False, repr=False, compare=False)
    layout_slot: LayoutSlot = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._validate_symbols()
        self._validate_rules()
        self._install_probs(self.probs)
        object.__setattr__(self, "layout_slot", LayoutSlot())

    def __reduce__(self):
        # pickle and deepcopy construct the grammar anew, as copied arrays
        # would come back writeable
        return type(self), (self.nonterminals, self.terminals, self.start, self.rules, self.probs)

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
        nts = set(self.nonterminals)
        ts = set(self.terminals)
        if not self.rules:
            raise GrammarError("grammar has no rules")
        seen = set()
        for i, rule in enumerate(self.rules):
            if rule.id != i:
                raise GrammarError(f"rule ids must be dense and contiguous, got {rule.id} at {i}")
            if rule.lhs not in nts:
                fault = "LHS is not a nonterminal"
            elif len(rule.rhs) == 1 and rule.rhs[0] not in ts:
                fault = f"unary RHS {rule.rhs[0]!r} is not a terminal, not CNF"
            elif len(rule.rhs) == 2 and not nts.issuperset(rule.rhs):
                fault = "binary RHS symbols must be nonterminals, not CNF"
            elif len(rule.rhs) not in (1, 2):
                fault = f"{len(rule.rhs)} RHS symbols, not CNF"
            elif (rule.lhs, rule.rhs) in seen:
                fault = "duplicate of an earlier rule"
            else:
                seen.add((rule.lhs, rule.rhs))
                continue
            raise GrammarError(f"rule {rule}: {fault}", rule=i)

    def _install_probs(self, probs) -> None:
        """Check a probability vector against the rule set, renormalize each
        block and set ``probs``, ``log_probs`` and ``weights``, the
        ``PassWeights`` of the log probabilities."""
        probs = list(probs)
        if len(probs) != len(self.rules):
            raise GrammarError("rules and probabilities are misaligned")
        for rule, p in zip(self.rules, probs):
            if not 0.0 < p <= 1.0:
                raise GrammarError(f"rule {rule}: probability {p!r} outside ]0, 1]", rule=rule.id)
        for nt, rids in self._blocks:
            block = [probs[r] for r in rids]
            total = math.fsum(block)
            if abs(total - 1.0) > PROPERNESS_TOL:
                raise GrammarError(
                    f"probabilities for {nt} sum to {total!r}, expected 1 within {PROPERNESS_TOL}",
                    nt,
                )
            for r, p in zip(rids, exact_normalize(block)):
                probs[r] = p
        object.__setattr__(self, "probs", tuple(probs))
        object.__setattr__(self, "log_probs", tuple(map(math.log, probs)))
        # frexp is exact: the split of p, which exp_split of log p rounds,
        # and p is its mantissa times 2 to its exponent
        plain = np.array(probs + [0.0])
        mant, expo = np.frexp(plain)
        expo = expo.astype(np.int64)
        expo[-1] = ZERO_EXPONENT
        object.__setattr__(self, "weights", self._pass_weights(self.log_probs, plain, mant, expo))

    def weights_of(self, log_weights) -> PassWeights:
        """The ``PassWeights`` of finite log weights indexed by rule id:
        ``weights`` itself where they equal ``log_probs``, else the split
        of ``logmath.exp_split``, one ``math.exp`` a rule.  Raises
        ValueError unless there is exactly one finite weight per rule, and
        for a weight w with |floor(w / ln 2)| >= 2**21 (|w| about 1.45e6
        or more), whose reduction by a multiple of ln 2 the split cannot
        make exactly."""
        log_weights = tuple(log_weights)
        if len(log_weights) != len(self.rules) or not all(map(math.isfinite, log_weights)):
            raise ValueError(f"expected {len(self.rules)} finite log weights, one per rule")
        for rule, w in zip(self.rules, log_weights):
            # |floor(x)| < 2**21 for x = w / ln 2, which may overflow to inf
            if not 1 - SPLIT_BOUND <= w * INV_LN2 < SPLIT_BOUND:
                raise ValueError(
                    f"rule {rule}: log weight {w!r} is out of range; "
                    "exp_split needs |floor(w / ln 2)| < 2**21"
                )
        if log_weights == self.log_probs:
            return self.weights
        mant, expo = exp_split(log_weights)
        with np.errstate(over="ignore", under="ignore"):  # exact where the plain pass runs
            plain = np.ldexp(mant, expo)
        return self._pass_weights(log_weights, plain, mant, expo)

    def _pass_weights(self, log_weights: tuple, *split: np.ndarray) -> PassWeights:
        """The forms of log weights given exp(w) and its split, by rule id
        with padding; marks them read-only."""
        forms = []
        for rules in (np.array(log_weights + (NEG_INF,)), *split):
            columns = rules.take(self.binary_rule_table.T)
            rules.flags.writeable = columns.flags.writeable = False
            forms.append((rules, columns[:, None, :]))
        expo = split[-1][:-1]  # the last splits 0
        return PassWeights(*forms, int(expo.min()), int(expo.max()), self.binary_rule_table)

    # -- derived indexes (computed once, from the rule set alone) --

    @cached_property
    def _blocks(self) -> tuple[tuple[str, tuple[int, ...]], ...]:
        # (nonterminal, rule ids) in first-rule order: a file's first improper block is reported
        first = dict.fromkeys(rule.lhs for rule in self.rules)
        return tuple((nt, tuple(r.id for r in self.rules_by_lhs[nt])) for nt in first)

    @cached_property
    def nt_index(self) -> dict[str, int]:
        return {nt: i for i, nt in enumerate(self.nonterminals)}

    @cached_property
    def rule_lhs_rhs(self) -> tuple[tuple[str, tuple[str, ...]], ...]:
        """``(lhs, rhs)`` of every rule, indexed by rule id."""
        return tuple((r.lhs, r.rhs) for r in self.rules)

    @cached_property
    def rule_lhs_index(self) -> np.ndarray:
        """``nt_index`` of every rule's LHS, indexed by rule id (read-only)."""
        index = np.array([self.nt_index[r.lhs] for r in self.rules], dtype=np.intp)
        index.flags.writeable = False
        return index

    @cached_property
    def _binary_tables(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        lhs, rows = [], []
        for a, nt in enumerate(self.nonterminals):
            ids = [r.id for r in self.rules_by_lhs[nt] if len(r.rhs) == 2]
            if ids:
                lhs.append(a)
                rows.append(ids)
        width = max(map(len, rows), default=0)
        table = [ids + [-1] * (width - len(ids)) for ids in rows]
        rhs = [
            [[self.nt_index[self.rules[r].rhs[side]] if r >= 0 else 0 for r in row] for row in table]
            for side in (0, 1)
        ]
        arrays = (
            np.array(table, dtype=np.intp).reshape(len(rows), width),
            np.array(lhs, dtype=np.intp),
            np.array(rhs, dtype=np.intp).reshape(2, len(rows), width),
        )
        for array in arrays:
            array.flags.writeable = False
        return arrays

    @property
    def binary_rule_table(self) -> np.ndarray:
        """Binary rule ids by left-hand side (read-only).

        One row per nonterminal with binary rules, in ``nt_index`` order
        (see ``binary_table_lhs``); each row lists that nonterminal's binary
        rule ids in ascending order, padded with -1 to the longest row.
        """
        return self._binary_tables[0]

    @property
    def binary_table_lhs(self) -> np.ndarray:
        """``nt_index`` of the left-hand side of each ``binary_rule_table`` row (read-only)."""
        return self._binary_tables[1]

    @property
    def binary_table_rhs(self) -> np.ndarray:
        """``nt_index`` of the left and right child of each ``binary_rule_table``
        entry, shape ``(2,) + binary_rule_table.shape``; 0 at padding (read-only)."""
        return self._binary_tables[2]

    @cached_property
    def binary_table_lists(self) -> tuple[tuple[int, ...], ...]:
        """Each row of ``binary_rule_table`` as a tuple, for lookups one at
        a time."""
        return tuple(map(tuple, self.binary_rule_table.tolist()))

    @cached_property
    def rules_by_lhs(self) -> dict[str, tuple[Rule, ...]]:
        groups: dict[str, list[Rule]] = {nt: [] for nt in self.nonterminals}
        for rule in self.rules:
            groups[rule.lhs].append(rule)
        return {nt: tuple(rs) for nt, rs in groups.items()}

    @cached_property
    def terminal_leaves(self) -> dict[str, tuple[tuple[int, ...], tuple[int, ...]]]:
        """Per terminal, the ``nt_index`` of each of its lexical rules'
        left-hand sides and the rules' ids, in rule-id order: the
        grammar's one lexicon index."""
        leaves: dict[str, tuple[tuple[int, ...], tuple[int, ...]]] = {}
        for r in self.rules:
            if r.is_lexical:
                lhs, ids = leaves.get(r.terminal, ((), ()))
                leaves[r.terminal] = (lhs + (self.nt_index[r.lhs],), ids + (r.id,))
        return leaves

    def with_probs(self, probs) -> "Grammar":
        """A grammar over the same rule set with new probabilities: a shallow
        copy sharing every cached index and the ``layout_slot``, with
        ``probs`` checked and renormalized as the constructor does and its
        own ``weights``; the rule set is not rechecked."""
        g = object.__new__(type(self))
        g.__dict__.update(self.__dict__)
        g._install_probs(probs)
        return g

    def __str__(self) -> str:
        return serialize_grammar(self)


def exact_normalize(probs: list[float]) -> list[float]:
    """Scale a probability block so its exactly rounded sum (``math.fsum``)
    is 1.0; the plain left-to-right float sum may still be off by an ulp.

    After dividing by the total, the residual (at most a few ulps) is folded
    into the largest entry; this keeps serialize/parse round trips
    bit-for-bit stable because a reloaded block's ``math.fsum`` is 1.0
    exactly and the block is left untouched.
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

    This layer reads the format only: comments, ``%start``, line shape, LHS
    naming, numbers, symbol classification, an empty file and a start
    symbol without rules.  The rule invariants (CNF shape, duplicates,
    probabilities in ]0, 1], properness) are ``Grammar``'s to check.  Either
    way the error is a GrammarFormatError naming a line: a bad rule's own
    line, or the first rule of an improper block.
    """
    start_symbol: str | None = None
    entries: list[tuple[int, str, tuple[str, ...], float]] = []
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
        entries.append((line_no, lhs, tuple(parts[2:-1]), prob))

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
    elif start_symbol not in {lhs for _, lhs, _, _ in entries}:
        raise GrammarFormatError(f"start symbol {start_symbol!r} has no rules", 1)

    rules = tuple(Rule(i, lhs, rhs) for i, (_, lhs, rhs, _) in enumerate(entries))
    probs = tuple(e[3] for e in entries)
    try:
        return Grammar(tuple(nonterminals), tuple(terminals), start_symbol, rules, probs)
    except GrammarError as exc:
        if exc.rule is not None:
            line = entries[exc.rule][0]
        elif exc.nonterminal is not None:
            line = next(line_no for line_no, lhs, _, _ in entries if lhs == exc.nonterminal)
        else:
            raise
        err = GrammarFormatError(str(exc), line)
        err.nonterminal, err.rule = exc.nonterminal, exc.rule
        raise err from None


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
