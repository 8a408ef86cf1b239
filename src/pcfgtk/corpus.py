"""Sentences, bracket constraints, and corpus file readers.

Plain corpus files hold one whitespace-tokenized sentence per line.
Bracketed corpus files hold one sentence per line in parenthesis notation,
e.g. ``( ( a a ) ( a a ) )``; brackets need not be binary or exhaustive.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np


def spans_cross(i: int, j: int, a: int, b: int) -> bool:
    """True when half-open spans (i, j) and (a, b) overlap without nesting."""
    return i < a < j < b or a < i < b < j


@dataclass(frozen=True)
class Bracketing:
    """A set of pairwise non-crossing half-open token spans."""

    spans: frozenset[tuple[int, int]] = field(default_factory=frozenset)

    def __post_init__(self):
        object.__setattr__(self, "spans", frozenset(self.spans))
        for i, j in self.spans:
            try:
                operator.index(i), operator.index(j)
            except TypeError:
                raise ValueError(f"bad span ({i}, {j}): ends must be integers") from None
            if not (0 <= i < j):
                raise ValueError(f"bad span ({i}, {j})")
        ordered = sorted(self.spans)
        for x, (i, j) in enumerate(ordered):
            for a, b in ordered[x + 1 :]:
                if spans_cross(i, j, a, b):
                    raise ValueError(f"crossing brackets ({i}, {j}) and ({a}, {b})")

    def compatible(self, i: int, j: int) -> bool:
        """A chart span is compatible when it crosses no bracket."""
        return not any(spans_cross(i, j, a, b) for a, b in self.spans)

    def compatible_spans(self, n: int) -> np.ndarray:
        """``compatible(i, j)`` for every 0 <= i, j <= n as a boolean matrix.

        Raises ValueError when a bracket ends past the n-token sentence.
        """
        if self.max_position() > n:
            raise ValueError(f"bracket span exceeds sentence length {n}")
        ok = np.ones((n + 1, n + 1), dtype=bool)
        for a, b in self.spans:
            ok[:a, a + 1 : b] = False  # i < a < j < b
            ok[a + 1 : b, b + 1 :] = False  # a < i < b < j
        return ok

    def max_position(self) -> int:
        return max((j for _, j in self.spans), default=0)


@dataclass(frozen=True)
class Sentence:
    tokens: tuple[str, ...]
    brackets: Bracketing | None = None

    @classmethod
    def of(cls, value) -> "Sentence":
        """Coerce raw token sequences (or pass through Sentences)."""
        if isinstance(value, Sentence):
            return value
        return cls(tuple(value))

    def __len__(self) -> int:
        return len(self.tokens)


def parse_bracketed_sentence(line: str) -> Sentence:
    """Parse one parenthesis-notation line into tokens plus its spans."""
    parts = line.replace("(", " ( ").replace(")", " ) ").split()
    tokens: list[str] = []
    spans: list[tuple[int, int]] = []
    stack: list[int] = []
    for part in parts:
        if part == "(":
            stack.append(len(tokens))
        elif part == ")":
            if not stack:
                raise ValueError(f"unbalanced ')' in {line!r}")
            start = stack.pop()
            if start == len(tokens):
                raise ValueError(f"empty bracket in {line!r}")
            spans.append((start, len(tokens)))
        else:
            tokens.append(part)
    if stack:
        raise ValueError(f"unbalanced '(' in {line!r}")
    if not tokens:
        raise ValueError("empty sentence")
    return Sentence(tuple(tokens), Bracketing(frozenset(spans)))


def read_corpus(path) -> list[Sentence]:
    sentences = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            tokens = line.split()
            if tokens:
                sentences.append(Sentence(tuple(tokens)))
    return sentences


def read_bracketed_corpus(path) -> list[Sentence]:
    sentences = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                sentences.append(parse_bracketed_sentence(line))
    return sentences
