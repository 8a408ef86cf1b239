"""Command-line interface.

Subcommands: validate, consistency, inside, viterbi, nbest, oracle-enum,
train.  All output is deterministic: identical inputs and flags produce
byte-identical output.  Log probabilities are printed with 12 significant
digits next to a linear-space convenience column; derivations are printed
as bracketed trees.  Errors exit nonzero after a single ``error: ...`` line
on stderr.
"""
from __future__ import annotations

import argparse
import math
import sys

from .chart import inside, viterbi
from .consistency import check_consistency
from .corpus import read_bracketed_corpus, read_corpus
from .derivations import derivation_tree, format_tree
from .estimator import DeltaSpec, EstimationError, HParams, train
from .grammar import GrammarError, load_grammar, save_grammar
from .kbest import nbest
from .oracle import EnumerationLimitError, enumerate_derivations


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def _prob_columns(log_prob: float) -> str:
    return f"{_fmt(log_prob)}\t{_fmt(math.exp(log_prob))}"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pcfgtk",
        description="CNF PCFG toolkit: parsing, consistency, discriminative training.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a grammar file and report diagnostics")
    p.add_argument("grammar")

    p = sub.add_parser("consistency", help="spectral-radius consistency report")
    p.add_argument("grammar")
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--format", choices=("text", "csv"), default="text")

    for name, help_text in (
        ("inside", "per-sentence log string probability"),
        ("viterbi", "per-sentence best derivation"),
        ("nbest", "per-sentence n-best derivations"),
        ("oracle-enum", "exhaustive derivation enumeration (small sentences)"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("grammar")
        p.add_argument("corpus", nargs="?", help="plain corpus: one sentence per line")
        p.add_argument(
            "--bracketed-corpus",
            help="corpus in parenthesis notation; brackets constrain the chart",
        )
        if name == "nbest":
            p.add_argument("--n", type=int, default=5)
        if name == "oracle-enum":
            p.add_argument("--cap", type=int, default=10, help="max sentence length")

    p = sub.add_parser("train", help="discriminative growth-transformation training")
    p.add_argument("grammar")
    p.add_argument("corpus", nargs="?")
    p.add_argument("--bracketed-corpus")
    p.add_argument("--out-grammar", required=True, help="path for the final grammar")
    p.add_argument("--report", help="path for the per-iteration CSV report")
    p.add_argument("--ref-mode", choices=("viterbi", "nbest", "bracketed_viterbi"), default="viterbi")
    p.add_argument("--comp-mode", choices=("all", "nbest", "bracketed_all"), default="all")
    p.add_argument("--n-ref", type=int, default=1)
    p.add_argument("--n-comp", type=int, default=1)
    p.add_argument("--no-enforce-subset", action="store_true")
    p.add_argument("--h", type=float, default=0.0, dest="h")
    p.add_argument("--eta", type=float, default=1.0)
    p.add_argument("--epsilon", type=float, default=1e-6)
    p.add_argument("--iters", type=int, default=100, help="maximum training iterations")
    p.add_argument("--rel-tol", type=float, default=1e-8)
    p.add_argument("--min-prob", type=float, default=1e-12)
    return parser


def _load_sentences(args):
    if args.corpus and args.bracketed_corpus:
        raise ValueError("give either a plain corpus or --bracketed-corpus, not both")
    if args.corpus:
        return read_corpus(args.corpus)
    if args.bracketed_corpus:
        return read_bracketed_corpus(args.bracketed_corpus)
    raise ValueError("a corpus is required (positional path or --bracketed-corpus)")


def _cmd_validate(args) -> int:
    g = load_grammar(args.grammar)
    print(
        f"ok: start={g.start} nonterminals={len(g.nonterminals)} "
        f"terminals={len(g.terminals)} rules={len(g.rules)}"
    )
    return 0


def _cmd_consistency(args) -> int:
    report = check_consistency(load_grammar(args.grammar), tol=args.tol)
    if args.format == "csv":
        print("spectral_radius,verdict,iterations,converged")
        print(f"{report.spectral_radius!r},{report.verdict},{report.iterations},{report.converged}")
    else:
        print(
            f"spectral_radius={_fmt(report.spectral_radius)} verdict={report.verdict} "
            f"iterations={report.iterations} converged={report.converged}"
        )
    return 0


def _cmd_inside(args) -> int:
    g = load_grammar(args.grammar)
    for idx, sent in enumerate(_load_sentences(args)):
        chart = inside(g, sent.tokens, sent.brackets)
        print(f"{idx}\t{_prob_columns(chart.log_string_prob)}")
    return 0


def _cmd_viterbi(args) -> int:
    g = load_grammar(args.grammar)
    for idx, sent in enumerate(_load_sentences(args)):
        hit = viterbi(g, sent.tokens, sent.brackets)
        if hit is None:
            print(f"{idx}\t-inf\t0\t-")
        else:
            d, lp = hit
            print(f"{idx}\t{_prob_columns(lp)}\t{format_tree(derivation_tree(g, d))}")
    return 0


def _cmd_nbest(args) -> int:
    g = load_grammar(args.grammar)
    for idx, sent in enumerate(_load_sentences(args)):
        result = nbest(g, sent.tokens, args.n, sent.brackets)
        if not result.in_language:
            print(f"{idx}\t0\t-inf\t0\t-")
            continue
        for rank, d in enumerate(result.derivations, 1):
            print(f"{idx}\t{rank}\t{_prob_columns(d.log_prob)}\t{format_tree(derivation_tree(g, d))}")
    return 0


def _cmd_oracle_enum(args) -> int:
    g = load_grammar(args.grammar)
    for idx, sent in enumerate(_load_sentences(args)):
        enum = enumerate_derivations(g, sent.tokens, cap=args.cap)
        print(f"{idx}\ttotal\t{len(enum)}\t{_prob_columns(enum.total_log_prob)}")
        for rank, d in enumerate(enum.derivations, 1):
            print(f"{idx}\t{rank}\t{_prob_columns(d.log_prob)}\t{format_tree(derivation_tree(g, d))}")
    return 0


def _cmd_train(args) -> int:
    g = load_grammar(args.grammar)
    sentences = _load_sentences(args)
    spec = DeltaSpec(
        ref_mode=args.ref_mode,
        comp_mode=args.comp_mode,
        n_ref=args.n_ref,
        n_comp=args.n_comp,
        enforce_subset=not args.no_enforce_subset,
    )
    uses_brackets = spec.ref_mode == "bracketed_viterbi" or spec.comp_mode == "bracketed_all"
    if uses_brackets and not args.bracketed_corpus:
        raise ValueError("bracketed delta modes require --bracketed-corpus")
    params = HParams(
        h=args.h,
        eta=args.eta,
        epsilon=args.epsilon,
        max_iters=args.iters,
        rel_tol=args.rel_tol,
        min_prob=args.min_prob,
    )
    report = train(g, sentences, spec, params)
    for rec in report.records:
        print(f"{rec.iteration}\t{_fmt(rec.log_objective)}")
    save_grammar(report.final_grammar, args.out_grammar)
    if args.report:
        report.write_csv(args.report)
    return 0


_COMMANDS = {
    "validate": _cmd_validate,
    "consistency": _cmd_consistency,
    "inside": _cmd_inside,
    "viterbi": _cmd_viterbi,
    "nbest": _cmd_nbest,
    "oracle-enum": _cmd_oracle_enum,
    "train": _cmd_train,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (GrammarError, EstimationError, EnumerationLimitError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
