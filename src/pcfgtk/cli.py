"""Command-line interface.

Subcommands: validate, consistency, inside, viterbi, nbest, oracle-enum,
train.  ``main`` loads the grammar that each names and hands it to the
subcommand.  Flags only map onto the library, which holds every default
and check: a ``train`` flag sets the ``DeltaSpec`` or ``HParams`` field it
is named after, and one left out sets nothing.  The four parsing commands
are row functions of (grammar, sentence, flags), and one loop prints each
row after its sentence index and a tab as soon as it is made, so an error
leaves the rows of the sentences before it printed; ``nbest`` and
``oracle-enum`` share their ranked-derivation rows.  All output is
deterministic: identical inputs and flags produce byte-identical output.
Log probabilities are printed with 12 significant digits next to a
linear-space convenience column; derivations are printed as bracketed
trees.  Errors, running out of memory among them, exit nonzero after a
single ``error: ...`` line on stderr, which names an error without a
message by its type.
"""
from __future__ import annotations

import argparse
import dataclasses
import math
import sys

from .chart import inside, viterbi
from .consistency import DEFAULT_TOL, check_consistency
from .corpus import read_bracketed_corpus, read_corpus
from .derivations import derivation_tree, format_tree
from .estimator import BRACKETED_MODES, COMP_MODES, REF_MODES
from .estimator import DeltaSpec, EstimationError, HParams, train
from .grammar import GrammarError, load_grammar, save_grammar
from .kbest import nbest
from .oracle import DEFAULT_LENGTH_CAP, EnumerationLimitError, enumerate_derivations


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def _prob_columns(log_prob: float) -> str:
    return f"{_fmt(log_prob)}\t{_fmt(math.exp(log_prob))}"


def _derivation_columns(g, d) -> str:
    return f"{_prob_columns(d.log_prob)}\t{format_tree(derivation_tree(g, d))}"


_NO_PARSE = "-inf\t0\t-"  # the columns of a sentence outside the language


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pcfgtk",
        description="CNF PCFG toolkit: parsing, consistency, discriminative training.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a grammar file and report diagnostics")
    p.set_defaults(run=_cmd_validate)
    p.add_argument("grammar")

    p = sub.add_parser("consistency", help="spectral-radius consistency report")
    p.set_defaults(run=_cmd_consistency)
    p.add_argument("grammar")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--format", choices=("text", "csv"), default="text")

    for name, help_text, rows in (
        ("inside", "per-sentence log string probability", _inside_rows),
        ("viterbi", "per-sentence best derivation", _viterbi_rows),
        ("nbest", "per-sentence n-best derivations", _nbest_rows),
        ("oracle-enum", "exhaustive derivation enumeration (small sentences)", _oracle_enum_rows),
    ):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(run=_cmd_rows, rows=rows)
        p.add_argument("grammar")
        p.add_argument("corpus", nargs="?", help="plain corpus: one sentence per line")
        p.add_argument(
            "--bracketed-corpus",
            help="corpus in parenthesis notation; brackets constrain the chart",
        )
        if name == "nbest":
            p.add_argument("--n", type=int, default=5)
        if name == "oracle-enum":
            p.add_argument("--cap", type=int, default=DEFAULT_LENGTH_CAP, help="max sentence length")

    p = sub.add_parser("train", help="discriminative growth-transformation training")
    p.set_defaults(run=_cmd_train)
    p.add_argument("grammar")
    p.add_argument("corpus", nargs="?")
    p.add_argument("--bracketed-corpus")
    p.add_argument("--out-grammar", required=True, help="path for the final grammar")
    p.add_argument("--report", help="path for the per-iteration CSV report")
    # DeltaSpec and HParams fields: a flag left out sets nothing, the field's default holds
    p.argument_default = argparse.SUPPRESS
    p.add_argument("--ref-mode", choices=REF_MODES)
    p.add_argument("--comp-mode", choices=COMP_MODES)
    p.add_argument("--n-ref", type=int)
    p.add_argument("--n-comp", type=int)
    p.add_argument("--no-enforce-subset", action="store_false", dest="enforce_subset")
    p.add_argument("--h", type=float)
    p.add_argument("--eta", type=float)
    p.add_argument("--epsilon", type=float)
    p.add_argument(
        "--iters", type=int, dest="max_iters", metavar="ITERS", help="maximum training iterations"
    )
    p.add_argument("--rel-tol", type=float)
    p.add_argument("--min-prob", type=float)
    return parser


def _load_sentences(args):
    if args.corpus and args.bracketed_corpus:
        raise ValueError("give either a plain corpus or --bracketed-corpus, not both")
    if args.corpus:
        return read_corpus(args.corpus)
    if args.bracketed_corpus:
        return read_bracketed_corpus(args.bracketed_corpus)
    raise ValueError("a corpus is required (positional path or --bracketed-corpus)")


def _cmd_validate(g, args) -> int:
    print(
        f"ok: start={g.start} nonterminals={len(g.nonterminals)} "
        f"terminals={len(g.terminals)} rules={len(g.rules)}"
    )
    return 0


def _cmd_consistency(g, args) -> int:
    report = check_consistency(g, tol=args.tol)
    if args.format == "csv":
        print("spectral_radius,verdict,iterations,converged")
        print(f"{report.spectral_radius!r},{report.verdict},{report.iterations},{report.converged}")
    else:
        print(
            f"spectral_radius={_fmt(report.spectral_radius)} verdict={report.verdict} "
            f"iterations={report.iterations} converged={report.converged}"
        )
    return 0


def _cmd_rows(g, args) -> int:
    """Print each row of each sentence after its index and a tab, as it comes."""
    for idx, sent in enumerate(_load_sentences(args)):
        for row in args.rows(g, sent, args):
            print(f"{idx}\t{row}")
    return 0


def _inside_rows(g, sent, args):
    yield _prob_columns(inside(g, sent.tokens, sent.brackets).log_string_prob)


def _viterbi_rows(g, sent, args):
    hit = viterbi(g, sent.tokens, sent.brackets)
    yield _NO_PARSE if hit is None else _derivation_columns(g, hit[0])


def _nbest_rows(g, sent, args):
    result = nbest(g, sent.tokens, args.n, sent.brackets)
    if not result.in_language:
        yield f"0\t{_NO_PARSE}"
    yield from _ranked_rows(g, result.derivations)


def _oracle_enum_rows(g, sent, args):
    enum = enumerate_derivations(g, sent.tokens, args.cap, sent.brackets)
    yield f"total\t{len(enum)}\t{_prob_columns(enum.total_log_prob)}"
    yield from _ranked_rows(g, enum.derivations)


def _ranked_rows(g, derivations):
    return (f"{rank}\t{_derivation_columns(g, d)}" for rank, d in enumerate(derivations, 1))


def _from_flags(cls, args):
    """``cls`` built from the parsed flags named after its fields."""
    given = vars(args)
    return cls(**{f.name: given[f.name] for f in dataclasses.fields(cls) if f.name in given})


def _cmd_train(g, args) -> int:
    sentences = _load_sentences(args)
    spec = _from_flags(DeltaSpec, args)
    if {spec.ref_mode, spec.comp_mode} & BRACKETED_MODES and not args.bracketed_corpus:
        raise ValueError("bracketed delta modes require --bracketed-corpus")
    report = train(g, sentences, spec, _from_flags(HParams, args))
    for rec in report.records:
        print(f"{rec.iteration}\t{_fmt(rec.log_objective)}")
    save_grammar(report.final_grammar, args.out_grammar)
    if args.report:
        report.write_csv(args.report)
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(load_grammar(args.grammar), args)
    except (
        GrammarError, EstimationError, EnumerationLimitError, ValueError, OSError, MemoryError
    ) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
