#!/usr/bin/env python3
"""The one-symbol toy grammar, end to end.

The grammar  S -> S S [q] | a [1-q]  over the corpus {aa, aaaa} is small
enough that every quantity in a growth-transformation update can be checked
by hand.  This script walks through enumeration, the accumulators, the
closed-form update, the h=1 boundary, and the consistency threshold.
"""
import math

from pcfgtk import (
    DeltaSpec,
    HParams,
    accumulate,
    check_consistency,
    enumerate_derivations,
    growth_step,
    parse_grammar,
    train,
)

CORPUS = [["a", "a"], ["a", "a", "a", "a"]]
SPEC = DeltaSpec(ref_mode="viterbi", comp_mode="all")


def toy(q):
    return parse_grammar(f"S -> S S {q!r}\nS -> a {1 - q!r}\n")


print("=" * 72)
print("1. Derivation structure of the corpus")
print("=" * 72)
q = 0.5
g = toy(q)
for tokens in CORPUS:
    enum = enumerate_derivations(g, tokens)
    print(f"  {' '.join(tokens)!r}: {len(enum)} derivation(s), "
          f"each p = {math.exp(enum.derivations[0].log_prob):.6g}, "
          f"string probability = {math.exp(enum.total_log_prob):.6g}")
print("""
  aa has a single derivation (one binary split), aaaa has five (the
  binary bracketings of four leaves), all with equal probability
  q^3 (1-q)^4 because every derivation uses the same rule counts.
""")

print("=" * 72)
print("2. Accumulators: reference (best derivation) vs competing (all)")
print("=" * 72)
acc = accumulate(g, CORPUS, SPEC, eta=1.0)
print(f"  D_ref [S->SS] = {acc.d_rule_ref[0]:.6f}   D_ref [S->a] = {acc.d_rule_ref[1]:.6f}")
print(f"  D_comp[S->SS] = {acc.d_rule_comp[0]:.6f}   D_comp[S->a] = {acc.d_rule_comp[1]:.6f}")
# a nonterminal's totals are the block sums of its rules' statistics
s_rules = [r.id for r in g.rules_by_lhs["S"]]
d_ref_s, d_comp_s = sum(acc.d_rule_ref[s_rules]), sum(acc.d_rule_comp[s_rules])
print(f"  D_ref [S]     = {d_ref_s:.6f}   D_comp[S]    = {d_comp_s:.6f}")
print("""
  The best derivations contribute integer counts (1+3 binary uses, 2+4
  lexical uses).  The competing sets contribute the same numbers here
  because all derivations of each sentence share one count vector.
""")

print("=" * 72)
print("3. One growth step has a closed form")
print("=" * 72)
print("  p'(S->SS) = (4(1-h) + q C) / (10(1-h) + C)\n")
print(f"  {'h':>5} {'C':>6} {'p(S->SS)':>12} {'closed form':>12}")
for h in (0.0, 0.25, 0.5, 0.9):
    for ct in (0.1, 1.0, 10.0):
        stepped = growth_step(g, acc, h, ct)
        closed = (4 * (1 - h) + q * ct) / (10 * (1 - h) + ct)
        print(f"  {h:>5.2f} {ct:>6.1f} {stepped.probs[0]:>12.9f} {closed:>12.9f}")

print()
print("=" * 72)
print("4. The h = 1 boundary keeps the grammar (and its inconsistency)")
print("=" * 72)
for q_bad in (0.6, 0.9):
    g_bad = toy(q_bad)
    acc_bad = accumulate(g_bad, CORPUS, SPEC)
    stepped = growth_step(g_bad, acc_bad, 1.0, 1.0)
    rho = check_consistency(g_bad).spectral_radius
    print(f"  q = {q_bad}: one step at h=1 gives p(S->SS) = {stepped.probs[0]:.12f} "
          f"(spectral radius stays {rho:.2f} > 1)")
print("""
  With h = 1 the reference and competing statistics cancel and the update
  returns the input point, so a deficient grammar stays deficient.  Any
  h < 1 pulls mass toward the reference derivations instead.
""")

print("=" * 72)
print("5. Consistency across q: the 2q threshold")
print("=" * 72)
for q_val in (0.05, 0.25, 0.45, 0.55, 0.75, 0.95):
    report = check_consistency(toy(q_val))
    print(f"  q = {q_val:.2f}: spectral radius = {report.spectral_radius:.3f} -> {report.verdict}")

print()
print("=" * 72)
print("6. Training at h = 0 is Viterbi-score reestimation")
print("=" * 72)
report = train(toy(0.7), CORPUS, SPEC, HParams(h=0.0, epsilon=1e-6, max_iters=20))
print(f"  start q = 0.7, after {len(report.records)} iteration(s): "
      f"p(S->SS) = {report.final_grammar.probs[0]:.9f}")
print("  relative frequency of S->SS in the best derivations = 4/10 = 0.4")
print(f"  final grammar is consistent: "
      f"{check_consistency(report.final_grammar).verdict}")
