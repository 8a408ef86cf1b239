"""Command-line interface: outputs, exit codes, determinism."""
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from pcfgtk import DegenerateDeltaWarning, chart, load_grammar
from pcfgtk.cli import main

TOY = "S -> S S 0.4\nS -> a 0.6\n"
# perfbench's generator at seed 0: ``g100(random.Random(0))``, then one
# bracketed block of lengths 2-5, ``corpus_lines(rng, g, range(2, 6), 1,
# bracketed=True)``, from the same stream
G100 = Path(__file__).parent / "data" / "g100-seed0.g"
G100_BLOCK = Path(__file__).parent / "data" / "g100-seed0-block.txt"


@pytest.fixture
def toy_files(tmp_path):
    grammar = tmp_path / "toy.g"
    grammar.write_text(TOY, encoding="utf-8")
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("a a\na a a a\n", encoding="utf-8")
    bracketed = tmp_path / "corpus.brk"
    bracketed.write_text("( ( a a ) ( a a ) )\n", encoding="utf-8")
    return tmp_path, str(grammar), str(corpus), str(bracketed)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValidate:
    def test_ok(self, toy_files, capsys):
        _, grammar, _, _ = toy_files
        code, out, err = run(capsys, "validate", grammar)
        assert code == 0
        assert out == "ok: start=S nonterminals=1 terminals=1 rules=2\n"
        assert err == ""

    def test_improper_grammar(self, tmp_path, capsys):
        bad = tmp_path / "bad.g"
        bad.write_text("S -> S S 0.3\nS -> a 0.6\n", encoding="utf-8")
        code, out, err = run(capsys, "validate", str(bad))
        assert code == 1
        assert err.startswith("error: ")
        assert err.count("\n") == 1

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "validate", "does-not-exist.g")
        assert code == 1
        assert err.startswith("error: ")


class TestConsistency:
    def test_text(self, toy_files, capsys):
        _, grammar, _, _ = toy_files
        code, out, _ = run(capsys, "consistency", grammar)
        assert code == 0
        assert "spectral_radius=0.8" in out
        assert "verdict=consistent" in out

    def test_csv(self, toy_files, capsys):
        _, grammar, _, _ = toy_files
        code, out, _ = run(capsys, "consistency", grammar, "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "spectral_radius,verdict,iterations,converged"
        assert lines[1].split(",")[1] == "consistent"

    def test_csv_at_radius_exactly_one(self, tmp_path, capsys):
        # 2 * 0.5: the power iteration settles on 1.0 itself, neither below
        # nor above the tolerance band
        grammar = tmp_path / "critical.g"
        grammar.write_text("S -> S S 0.5\nS -> a 0.5\n", encoding="utf-8")
        code, out, err = run(capsys, "consistency", str(grammar), "--format", "csv")
        assert (code, err) == (0, "")
        assert out == "spectral_radius,verdict,iterations,converged\n1.0,borderline,2,True\n"


class TestMemoryError:
    @pytest.mark.parametrize(
        "error,line",
        [
            (MemoryError("Unable to allocate 12.0 GiB"), "error: Unable to allocate 12.0 GiB\n"),
            (MemoryError(), "error: MemoryError\n"),
        ],
    )
    def test_is_one_error_line(self, toy_files, capsys, monkeypatch, error, line):
        # a long sentence's layout may not fit in memory; stand in for
        # NumPy's error without allocating anything
        def build_layout(g, n_max):
            raise error

        monkeypatch.setattr(chart, "_build_layout", build_layout)
        _, grammar, corpus, _ = toy_files
        assert run(capsys, "inside", grammar, corpus) == (1, "", line)


class TestParsingCommands:
    def test_viterbi_lines(self, toy_files, capsys):
        _, grammar, corpus, _ = toy_files
        code, out, _ = run(capsys, "viterbi", grammar, corpus)
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2
        idx, lp, lin, tree = lines[0].split("\t")
        assert idx == "0"
        assert float(lp) == pytest.approx(math.log(0.4 * 0.6**2), rel=1e-11)
        assert float(lin) == pytest.approx(0.4 * 0.6**2, rel=1e-11)
        assert tree == "(S (S a) (S a))"

    def test_inside_matches_toy_values(self, toy_files, capsys):
        _, grammar, corpus, _ = toy_files
        code, out, _ = run(capsys, "inside", grammar, corpus)
        lines = out.strip().splitlines()
        lp1 = float(lines[1].split("\t")[1])
        assert lp1 == pytest.approx(math.log(5 * 0.4**3 * 0.6**4), rel=1e-11)

    def test_nbest(self, toy_files, capsys):
        _, grammar, corpus, _ = toy_files
        code, out, _ = run(capsys, "nbest", grammar, corpus, "--n", "3")
        lines = out.strip().splitlines()
        # one derivation for the first sentence, three for the second
        assert [l.split("\t")[0] for l in lines] == ["0", "1", "1", "1"]
        assert [l.split("\t")[1] for l in lines] == ["1", "1", "2", "3"]

    def test_runs_as_a_module(self, toy_files, capsys):
        _, grammar, corpus, _ = toy_files
        _, want, _ = run(capsys, "nbest", grammar, corpus, "--n", "3")
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "pcfgtk", "nbest", grammar, corpus, "--n", "3"],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == want

    def test_bracketed_corpus_constrains(self, toy_files, capsys):
        _, grammar, _, bracketed = toy_files
        code, out, _ = run(capsys, "inside", grammar, "--bracketed-corpus", bracketed)
        lp = float(out.strip().split("\t")[1])
        assert lp == pytest.approx(math.log(0.4**3 * 0.6**4), rel=1e-11)

    def test_oracle_enum(self, toy_files, capsys):
        _, grammar, corpus, _ = toy_files
        code, out, _ = run(capsys, "oracle-enum", grammar, corpus)
        lines = out.strip().splitlines()
        assert lines[0].startswith("0\ttotal\t1\t")
        assert sum(1 for l in lines if l.startswith("1\t")) == 6  # total line + 5 derivations

    def test_not_in_language_line(self, tmp_path, capsys):
        grammar = tmp_path / "g.g"
        grammar.write_text("S -> A B 1.0\nA -> a 1.0\nB -> b 1.0\n", encoding="utf-8")
        corpus = tmp_path / "c.txt"
        corpus.write_text("b a\n", encoding="utf-8")
        code, out, _ = run(capsys, "viterbi", str(grammar), str(corpus))
        assert code == 0
        assert out == "0\t-inf\t0\t-\n"

    def test_requires_exactly_one_corpus(self, toy_files, capsys):
        _, grammar, corpus, bracketed = toy_files
        code, _, err = run(capsys, "viterbi", grammar)
        assert code == 1 and "corpus" in err
        code, _, err = run(capsys, "viterbi", grammar, corpus, "--bracketed-corpus", bracketed)
        assert code == 1 and "not both" in err


class TestTrain:
    def test_first_iteration_matches_closed_form(self, toy_files, capsys):
        tmp_path, grammar, corpus, _ = toy_files
        out_g = tmp_path / "out.g"
        report = tmp_path / "report.csv"
        code, out, _ = run(
            capsys,
            "train", grammar, corpus,
            "--out-grammar", str(out_g),
            "--report", str(report),
            "--h", "0", "--iters", "1", "--epsilon", "1e-6",
        )
        assert code == 0
        g = load_grammar(out_g)
        ct = 1e-6
        assert g.probs[0] == pytest.approx((4 + 0.4 * ct) / (10 + ct), abs=1e-12)
        assert g.probs[1] == pytest.approx((6 + 0.6 * ct) / (10 + ct), abs=1e-12)
        lines = report.read_text().strip().splitlines()
        assert lines[0] == "iter,log_objective,ctilde,max_delta_p,spectral_radius,skipped"
        assert len(lines) == 2
        assert out.splitlines()[0].startswith("1\t")

    @pytest.mark.parametrize("h", ["0.3", "0.6"])
    def test_offset_constant_survives_a_floored_rule(self, tmp_path, capsys, h):
        # by iteration 3 the rule that sets the offset constant sits at the
        # min_prob floor, so the plain constant leaves its numerator at 0.0
        report = tmp_path / "report.csv"
        code, out, err = run(
            capsys,
            "train", str(G100),
            "--bracketed-corpus", str(G100_BLOCK),
            "--out-grammar", str(tmp_path / "out.g"),
            "--report", str(report),
            "--ref-mode", "viterbi", "--comp-mode", "bracketed_all",
            "--no-enforce-subset", "--iters", "3", "--h", h,
        )
        assert (code, err) == (0, "")
        assert len(out.splitlines()) == 3
        ctilde = float(report.read_text().splitlines()[3].split(",")[2])
        assert ctilde > 1e11

    @pytest.mark.parametrize(
        "toy_corpus, sentences",
        [(None, ["t13 t8 t0 t8"]), ("( a a ) a\na ( a ( a a ) )\n", ["a a a", "a a a a"])],
    )
    def test_degenerate_warning_names_each_sentence(self, tmp_path, capsys, toy_corpus, sentences):
        # under Python's default filter, which shows a warning once per
        # message and location, each degenerate sentence warns once in a
        # three-iteration run: G100's bracketed block has one, the toy
        # corpus two
        grammar, corpus = G100, G100_BLOCK
        if toy_corpus is not None:
            grammar, corpus = tmp_path / "toy.g", tmp_path / "corpus.brk"
            grammar.write_text(TOY, encoding="utf-8")
            corpus.write_text(toy_corpus, encoding="utf-8")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("default")
            code, _, _ = run(
                capsys,
                "train", str(grammar),
                "--bracketed-corpus", str(corpus),
                "--out-grammar", str(tmp_path / "out.g"),
                "--report", str(tmp_path / "out.csv"),
                "--ref-mode", "nbest", "--comp-mode", "bracketed_all",
                "--h", "0.5", "--n-ref", "2", "--n-comp", "3", "--iters", "3",
            )
        assert code == 0
        assert [str(w.message) for w in caught if w.category is DegenerateDeltaWarning] == [
            f"competing set equals the reference set after subset enforcement: {s}"
            for s in sentences
        ]

    def test_unread_list_length_is_not_checked(self, toy_files, capsys):
        # the complete competing set lists nothing, so --n-comp 0 changes nothing
        tmp_path, grammar, corpus, _ = toy_files
        outputs = []
        for extra in ((), ("--n-comp", "0")):
            out_g = tmp_path / "out.g"
            code, out, err = run(
                capsys,
                "train", grammar, corpus,
                "--out-grammar", str(out_g),
                "--comp-mode", "all", "--iters", "2", *extra,
            )
            assert (code, err) == (0, "")
            outputs.append(out + out_g.read_text())
        assert outputs[0] == outputs[1]

    def test_zero_iterations_round_trips_grammar(self, toy_files, capsys):
        tmp_path, grammar, corpus, _ = toy_files
        out_g = tmp_path / "out.g"
        code, out, _ = run(capsys, "train", grammar, corpus, "--out-grammar", str(out_g), "--iters", "0")
        assert code == 0
        assert out == ""
        g = load_grammar(out_g)
        assert g.probs == (0.4, 0.6)

    def test_bracketed_mode_needs_bracketed_corpus(self, toy_files, capsys):
        tmp_path, grammar, corpus, _ = toy_files
        code, _, err = run(
            capsys,
            "train", grammar, corpus,
            "--out-grammar", str(tmp_path / "o.g"),
            "--comp-mode", "bracketed_all",
        )
        assert code == 1
        assert "bracketed" in err

    @pytest.mark.parametrize(
        "flag,value", [("--eta", "nan"), ("--eta", "inf"), ("--epsilon", "nan"),
                       ("--epsilon", "inf"), ("--rel-tol", "nan")]
    )
    def test_non_finite_hyperparameter_is_rejected(self, toy_files, capsys, flag, value):
        tmp_path, grammar, corpus, _ = toy_files
        out_g = tmp_path / "o.g"
        code, out, err = run(capsys, "train", grammar, corpus, "--out-grammar", str(out_g), flag, value)
        assert code == 1
        assert out == ""
        assert err.splitlines() == [err.strip()]
        assert err.startswith(f"error: {flag[2:].replace('-', '_')} must be")
        assert not out_g.exists()

    @pytest.mark.parametrize("eta", ["1e308", "1e300", "1e20", "1e10", "1587000", "1586434"])
    def test_eta_beyond_the_exact_split_is_one_error_line(self, tmp_path, capsys, eta):
        # eta * log p left the range where exp_split reduces exactly: 1e308
        # ended in an OverflowError traceback, 1e300 and 1e20 in a NumPy
        # RuntimeWarning and an error blaming the grammar's probabilities,
        # and then each in an error naming a rule's log weight, not eta
        code, out, err = self._train_aaa(tmp_path, capsys, "--eta", eta)
        assert (code, out) == (1, "")
        assert err == (
            f"error: eta {float(eta)!r} is too large for a complete competing set of this "
            "grammar, which takes eta up to about 1586433\n"
        )

    @pytest.mark.parametrize("eta", ["1586000", "1586433"])
    def test_eta_up_to_the_exact_split_trains_a_complete_set(self, tmp_path, capsys, eta):
        # (2**21 - 1) * ln 2 / |ln 0.4| is 1586433.49
        code, out, err = self._train_aaa(tmp_path, capsys, "--eta", eta)
        assert (code, err) == (0, "")
        assert out.startswith("1\t-")

    def test_eta_beyond_the_exact_split_trains_listed_sets(self, tmp_path, capsys):
        # only a complete set's mass reads the split of eta * log p; a
        # listed set's does not, and no split is made for it
        code, out, err = self._train_aaa(
            tmp_path, capsys, "--eta", "1e300", "--comp-mode", "nbest", "--n-comp", "3"
        )
        assert (code, out, err) == (0, "1\t-3.36505833505e+300\n", "")

    def test_eta_overflowing_a_listed_score_is_one_error_line(self, tmp_path, capsys):
        # eta * log p(d) overflowed to -inf, whose normalized weight is nan:
        # the run ended in an error blaming the grammar's probabilities
        code, out, err = self._train_aaa(
            tmp_path, capsys, "--eta", "1e308", "--comp-mode", "nbest", "--n-comp", "3"
        )
        assert (code, out) == (1, "")
        assert err == "error: eta 1e+308 times a log probability overflows\n"

    def test_eta_overflowing_a_complete_set_weight_is_one_error_line(self, tmp_path, capsys):
        # eta * log 0.01 overflowed to -inf, and the split of the weights
        # said only that it expected finite log weights
        code, out, err = self._train_aaa(
            tmp_path, capsys, "--eta", "1e308", grammar_text="S -> S S 0.01\nS -> a 0.99\n"
        )
        assert (code, out) == (1, "")
        assert err == (
            "error: eta 1e+308 is too large for a complete competing set of this grammar, "
            "which takes eta up to about 315652\n"
        )

    def test_min_prob_that_stops_training_is_named(self, tmp_path, capsys):
        # floored at 0.5 and renormalized, S -> S S lands at 0.4545 at every
        # offset constant, away from the optimum 0.4, so every step falls
        code, out, err = self._train_aaa(tmp_path, capsys, "--min-prob", "0.5")
        assert (code, out) == (1, "")
        assert err == (
            "error: the objective fell from -3.365058335046282 at every offset constant up to "
            "4294.967296; its last step floored 1 of 2 rules at min_prob 0.5\n"
        )
        assert not (tmp_path / "o.g").exists()

    def test_subnormal_probability_trains_without_a_warning(self, tmp_path, capsys):
        # the offset constant's quotient 1 / 5e-324 overflowed to -inf, which
        # is clamped at 0, but printed a NumPy RuntimeWarning
        code, out, err = self._train_aaa(
            tmp_path, capsys, grammar_text="S -> a 5e-324\nS -> b 1.0\n", corpus_text="a\n"
        )
        assert (code, out, err) == (0, "1\t-9.99999499939e-07\n", "")

    def test_offset_constant_past_the_float_range_is_one_error_line(self, tmp_path, capsys):
        # p ** 0.001 of S -> S S gives it a posterior near 1/2 against a
        # probability of 5e-324, so the offset constant overflows to inf;
        # the step then divided inf by inf and blamed the grammar's nan
        code, out, err = self._train_aaa(
            tmp_path, capsys, "--h", "0.5", "--eta", "0.001",
            grammar_text="S -> S S 5e-324\nS -> S A 0.5\nS -> a 0.5\nA -> a 1.0\n",
            corpus_text="a a\n",
        )
        assert (code, out) == (1, "")
        assert err == "error: the offset constant inf overflows a block's numerators\n"

    @pytest.mark.parametrize("iters", ["1", "0"])
    def test_min_prob_no_block_can_hold_is_one_error_line(self, tmp_path, capsys, iters):
        # both S rules floored at 0.9 renormalize to 0.5: every step then
        # fell, and the run ended in an error that did not name the floor;
        # the floor is now checked before the first iteration
        code, out, err = self._train_aaa(tmp_path, capsys, "--min-prob", "0.9", "--iters", iters)
        assert (code, out) == (1, "")
        assert err == "error: min_prob 0.9 cannot hold for all 2 rules of S: their floors sum past 1\n"
        assert not (tmp_path / "o.g").exists()

    def test_min_prob_a_block_can_just_hold_runs(self, tmp_path, capsys):
        # 0.5 * 2 rules is 1: not rejected, and a run from S -> S S 0.5 |
        # a 0.5 takes its step
        code, out, err = self._train_aaa(tmp_path, capsys, "--min-prob", "0.5", "--iters", "0")
        assert (code, out, err) == (0, "", "")
        code, out, err = self._train_aaa(
            tmp_path, capsys, "--min-prob", "0.5", grammar_text="S -> S S 0.5\nS -> a 0.5\n"
        )
        assert (code, err) == (0, "")
        assert out.startswith("1\t-3.39532214053\n")

    def _train_aaa(self, tmp_path, capsys, *flags, grammar_text=TOY, corpus_text="a a a\n"):
        # flags given later override the defaults here
        grammar, corpus = tmp_path / "toy.g", tmp_path / "aaa.txt"
        grammar.write_text(grammar_text, encoding="utf-8")
        corpus.write_text(corpus_text, encoding="utf-8")
        argv = ["train", str(grammar), str(corpus), "--out-grammar", str(tmp_path / "o.g")]
        argv += ["--ref-mode", "viterbi", "--comp-mode", "all", "--iters", "1", *flags]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a warning would print beside the error line
            return run(capsys, *argv)

    def test_deterministic_output(self, toy_files, capsys):
        tmp_path, grammar, corpus, _ = toy_files
        outputs = []
        for run_i in range(2):
            out_g = tmp_path / f"out{run_i}.g"
            code, out, _ = run(
                capsys,
                "train", grammar, corpus,
                "--out-grammar", str(out_g),
                "--h", "0.3", "--iters", "4", "--epsilon", "0.5",
            )
            assert code == 0
            outputs.append(out + out_g.read_text())
        assert outputs[0] == outputs[1]


class TestHashSeeds:
    def test_outputs_do_not_depend_on_the_hash_seed(self, tmp_path):
        # pcfgtk keeps dicts keyed by symbol (the leaf lists by terminal,
        # the rule blocks by nonterminal), whose string hashes change with
        # PYTHONHASHSEED; no output byte may follow them
        g100, block = str(G100), str(G100_BLOCK)
        commands = [
            ["viterbi", g100, "--bracketed-corpus", block],
            ["nbest", g100, "--bracketed-corpus", block, "--n", "10"],
            [
                "train", g100, "--bracketed-corpus", block,
                "--out-grammar", "out.g", "--report", "out.csv",
                "--ref-mode", "bracketed_viterbi", "--comp-mode", "all",
                "--h", "0.3", "--eta", "0.5", "--iters", "2",
            ],
        ]
        src = str(Path(__file__).resolve().parent.parent / "src")
        outputs = []
        for seed in ("1", "12345"):
            workdir = tmp_path / seed
            workdir.mkdir()
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            runs = [
                subprocess.run(
                    [sys.executable, "-m", "pcfgtk", *argv],
                    cwd=workdir, capture_output=True, env=env, timeout=120,
                )
                for argv in commands
            ]
            assert [proc.returncode for proc in runs] == [0, 0, 0], runs[-1].stderr
            files = {path.name: path.read_bytes() for path in sorted(workdir.iterdir())}
            assert sorted(files) == ["out.csv", "out.g"]
            outputs.append(([(proc.stdout, proc.stderr) for proc in runs], files))
        assert outputs[0] == outputs[1]
