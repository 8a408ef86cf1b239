"""Command-line interface: outputs, exit codes, determinism."""
import math

import pytest

from pcfgtk import load_grammar
from pcfgtk.cli import main

TOY = "S -> S S 0.4\nS -> a 0.6\n"


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
