"""Command-line interface: verdicts, exit codes, file plumbing."""

import os
import subprocess
import sys

import pytest

import costltl
from costltl import (BoundednessResult, bounded_closure, eval_b, load_automaton, load_semigroup,
                     nltl_to_s, parse_expr, render_expr)
from costltl.cli import main
from conftest import FIXTURES, fixture


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_eval_counts_letters(capsys):
    code, out, _ = run(capsys, "eval", "--alphabet", "ab",
                       "-f", "!a U# END", "-w", "abab")
    assert code == 0
    assert out.strip() == "2"


def test_eval_infinite_value(capsys):
    code, out, _ = run(capsys, "eval", "--alphabet", "ab",
                       "-f", "a & b", "-w", "a")
    assert code == 0
    assert out.strip() == "inf"


def test_eval_deep_formula(capsys, tmp_path):
    # parse, the value table and dualize take no recursion, so X^3000 a
    # evaluates on a word of 3,001 letters and compiles to an S-automaton
    deep = "X " * 3000 + "a"
    code, out, _ = run(capsys, "eval", "--alphabet", "ab", "-f", deep, "-w", "ab")
    assert (code, out.strip()) == (0, "inf")
    code, out, err = run(capsys, "eval", "--alphabet", "ab", "-f", deep,
                         "-w", "b" * 3000 + "a")
    assert (code, out.strip(), err) == (0, "0", "")
    out_path = tmp_path / "deep.aut"
    code, _, err = run(capsys, "compile-s", "--alphabet", "ab", "-f", deep,
                       "-o", str(out_path))
    assert (code, err) == (0, "")
    assert load_automaton(str(out_path)).kind == "S"


def _within_one(x, y):
    return x == y or "inf" not in (x, y) and abs(int(x) - int(y)) <= 1


def test_compile_long_disjunction(capsys, tmp_path):
    # the epsilon closures take no recursion: 1,500 disjuncts reduce one
    # after another, and the end closure resolves their dual, a 1,500-deep
    # chain of conjunctions
    formula = " | ".join(["a"] * 1499 + ["b"])
    b_path, s_path = str(tmp_path / "disjunction-b.aut"), str(tmp_path / "disjunction-s.aut")
    code, _, err = run(capsys, "compile-b", "--alphabet", "ab", "-f", formula,
                       "-o", b_path)
    assert (code, err) == (0, "")
    code, out, err = run(capsys, "compile-s", "--alphabet", "ab", "-f", formula,
                         "-o", s_path)
    assert (code, err) == (0, "")
    assert out.count("&") == 1499
    for word in ("", "a", "b", "ba", "bb"):
        code, by_formula, _ = run(capsys, "eval", "--alphabet", "ab", "-f", formula,
                                  "-w", word)
        assert code == 0
        code, by_automaton, _ = run(capsys, "eval-aut", "-a", b_path, "-w", word)
        assert (code, by_automaton) == (0, by_formula), word
        # the dual's S-automaton is within 1 of the formula's value
        code, by_s_automaton, _ = run(capsys, "eval-aut", "-a", s_path, "-w", word)
        assert code == 0
        assert _within_one(by_s_automaton.strip(), by_formula.strip()), word


def test_classify_long_expression(capsys):
    # parse_expr nests one concatenation per factor; parsing, rendering and
    # evaluating take no recursion per factor or per parenthesis level
    for text, rendered in [("ab" * 1500, "ab" * 1500),
                           ("(" * 1500 + "ab" + ")" * 1500, "ab")]:
        assert render_expr(parse_expr(text)) == rendered
        code, out, err = run(capsys, "semigroup", "classify", "-s", fixture("counting.sg"), text)
        assert (code, out.strip(), err) == (0, "F-bounded", "")
    code, out, err = run(capsys, "semigroup", "classify", "-s", fixture("counting.sg"),
                         "(ab)^ws" + "b" * 3000)
    assert (code, out.strip(), err) == (1, "F-infinity", "")


def test_bounded_verdicts_and_exit_codes(capsys):
    code, out, _ = run(capsys, "bounded", "--alphabet", "ab",
                       "-f", "(b | X a | X F a) U# END", "--method", "both")
    assert code == 0
    assert out.splitlines()[0] == "bounded"
    # the witness follows the order of contracted_edges, which must not
    # depend on the hash seed
    for formula, witness in [("(a | X a | X F a) U# END", "bb^ws (pump 3: bbbb)"),
                             ("(a U# END) | (b U# END)", "a(ab)^ws (pump 3: aababab)"),
                             ("(a U# END) & (b U# END)", "aa^ws (pump 3: aaaa)")]:
        code, out, _ = run(capsys, "bounded", "--alphabet", "ab",
                           "-f", formula, "--method", "both")
        assert code == 1
        assert out.splitlines() == ["unbounded", "witness family: " + witness]


@pytest.mark.parametrize("name, lines, code", [
    ("epsilon-s.aut", ["bounded"], 0),
    ("count-letter-s.aut", ["unbounded", "witness family: a^wsa (pump 3: aaaa)"], 1),
])
def test_bounded_decides_an_automaton_file(capsys, name, lines, code):
    assert run(capsys, "bounded", "--porcelain", "--method", "both",
               "-a", fixture(name)) == (code, lines[0] + "\n", "")
    assert run(capsys, "bounded", "--method", "both",
               "-a", fixture(name)) == (code, "\n".join(lines) + "\n", "")


def test_bounded_refuses_a_b_automaton_and_a_malformed_file(capsys, tmp_path):
    for method in ("onthefly", "closure", "both"):
        code, out, err = run(capsys, "bounded", "--method", method,
                             "-a", fixture("count-letter-b.aut"))
        assert code == 2 and out == ""
        assert "boundedness is decided on S-automata" in err
    with open(fixture("epsilon-s.aut"), encoding="utf-8") as fh:
        text = fh.read()
    assert "trans q a q : cr\n" in text
    path = tmp_path / "bad.aut"
    path.write_text(text.replace("trans q a q : cr\n", "trans q a q cr\n"), encoding="utf-8")
    code, out, err = run(capsys, "bounded", "-a", str(path))
    assert (code, out, err) == (2, "", "error: bad transition 'q a q cr'\n")


def test_methods_that_disagree_exit_2(capsys, monkeypatch):
    monkeypatch.setattr("costltl.cli.bounded_closure",
                        lambda aut: BoundednessResult(not bounded_closure(aut).bounded, None))
    for source in (["-a", fixture("epsilon-s.aut")], ["--alphabet", "ab", "-f", "!a U# END"]):
        code, out, err = run(capsys, "bounded", "--method", "both", *source)
        assert code == 2 and out == ""
        assert err == "error: methods disagree on boundedness\n"


def test_both_methods_translate_the_formula_once(capsys, monkeypatch):
    calls = []

    def counted(phi, alphabet):
        calls.append(phi)
        return nltl_to_s(phi, alphabet)

    monkeypatch.setattr("costltl.bounded.nltl_to_s", counted)
    code, out, _ = run(capsys, "bounded", "--porcelain", "--method", "both",
                       "--alphabet", "ab", "-f", "!a U# END")
    assert (code, out, len(calls)) == (1, "unbounded\n", 1)


def test_error_exit_code(capsys):
    code, _, err = run(capsys, "eval", "--alphabet", "ab",
                       "-f", "c U# END", "-w", "ab")
    assert code == 2
    assert err.startswith("error:")


def test_eval_aut_matches_eval(capsys, tmp_path):
    out_path = str(tmp_path / "counting.aut")
    code, _, _ = run(capsys, "compile-b", "--alphabet", "ab",
                     "-f", "!a U# END", "-o", out_path)
    assert code == 0
    code, out, _ = run(capsys, "eval-aut", "-a", out_path, "-w", "babba")
    assert code == 0
    assert out.strip() == "2"


def test_compile_contract(capsys, tmp_path):
    out_path = str(tmp_path / "contracted.aut")
    code, out, _ = run(capsys, "compile-b", "--alphabet", "ab", "--contract",
                       "-f", "(b | X a | X F a) U# END", "-o", out_path)
    assert code == 0
    assert "contracted with K=" in out
    aut = load_automaton(out_path)
    assert all(len(seq) <= 1 for _, _, actions, _ in aut.transitions
               for seq in actions)


def test_compile_s_and_eval(capsys, tmp_path):
    out_path = str(tmp_path / "dual.aut")
    code, _, _ = run(capsys, "compile-s", "--alphabet", "ab",
                     "-f", "!a U# END", "-o", out_path)
    assert code == 0
    code, out, _ = run(capsys, "eval-aut", "-a", out_path, "-w", "aabaa")
    assert code == 0
    assert out.strip() in ("3", "4")  # within 1 of |u|_a


def test_compile_s_nltl_input(capsys, tmp_path):
    out_path = str(tmp_path / "release.aut")
    code, out, _ = run(capsys, "compile-s", "--nltl", "--alphabet", "ab",
                       "-f", "a R# b", "-o", out_path)
    assert code == 0
    assert out.splitlines()[0] == "wrote %s (2 states, formula a R# b)" % out_path
    assert load_automaton(out_path).kind == "S"


@pytest.mark.parametrize("argv, message", [
    (["--nltl", "-f", "a U# b"], "error: --nltl expects a pure nLTL<= formula"),
    (["-f", "a R# b"], "error: expected an LTL<= formula to dualize (or pass --nltl)"),
])
def test_compile_s_rejects_wrong_fragment(capsys, tmp_path, argv, message):
    out_path = tmp_path / "out.aut"
    code, out, err = run(capsys, "compile-s", "--alphabet", "ab", *argv,
                         "-o", str(out_path))
    assert code == 2 and out == ""
    assert err.splitlines()[0] == message
    assert not out_path.exists()


@pytest.mark.parametrize("argv, message", [
    pytest.param(["eval", "--alphabet", "ab", "-f", text, "-w", "a"], message, id=text)
    for text, message in [
        ("a U", "unexpected end of input (at position 3)"),
        ("Foo", "unknown token 'Foo' (at position 0)"),
        ("a $ b", "unexpected character '$' (at position 2)"),
        ("!(a)", "! applies to atoms only (at position 1)"),
        ("(a b", "expected ), got atom (at position 3)"),
        ("a)", "trailing input (at position 1)"),
        (")", "unexpected token ) (at position 0)"),
    ]] + [
    pytest.param([command, "--alphabet", "aB", "-f", "a U# END"] + rest,
                 "letter 'B' of the alphabet is not a lowercase letter (at position 0)",
                 id=command + "-alphabet aB")
    for command, rest in [("eval", ["-w", "a"]), ("compile-s", ["-o", os.devnull])]] + [
    pytest.param(["semigroup", "classify", "-s", fixture("counting.sg"), "c"],
                 "letter 'c' has no image", id="classify-unmapped letter"),
    pytest.param(["semigroup", "classify", "-s", fixture("parity.sg"), "a^#"],
                 "not well-formed: sharp applied to non-idempotent a",
                 id="classify-sharp of non-idempotent"),
    pytest.param(["definable", "--alphabet", "ab", "-f", "a R# b"],
                 "definability from a formula expects LTL<=", id="definable-nLTL formula"),
])
def test_malformed_input_exits_2_with_its_message(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", "error: %s\n" % message)


def test_formula_needs_alphabet(capsys):
    code, out, err = run(capsys, "eval", "-f", "a", "-w", "a")
    assert code == 2 and out == ""
    assert err.splitlines()[0] == "error: --alphabet is required with -f"


def test_semigroup_check_ok(capsys):
    code, out, _ = run(capsys, "semigroup", "check", "-s", fixture("saction.sg"))
    assert code == 0
    assert out.strip() == "OK"


def test_semigroup_recognize(capsys):
    code, out, _ = run(capsys, "semigroup", "recognize",
                       "-s", fixture("counting.sg"), "-w", "abbaba")
    assert code == 0
    assert out.strip() == "3"


def test_semigroup_classify(capsys):
    code, out, _ = run(capsys, "semigroup", "classify",
                       "-s", fixture("counting.sg"), "a^ws")
    assert code == 1
    assert out.strip() == "F-infinity"
    code, out, _ = run(capsys, "semigroup", "classify",
                       "-s", fixture("counting.sg"), "b^w")
    assert code == 0
    assert out.strip() == "F-bounded"


def test_minimize_aperiodic_definable(capsys, tmp_path):
    out_path = str(tmp_path / "min.sg")
    code, _, _ = run(capsys, "minimize", "-s", fixture("parity.sg"),
                     "-o", out_path, "--porcelain")
    assert code == 0
    sg, rec = load_semigroup(out_path)
    assert len(sg.elements) == 4
    code, out, _ = run(capsys, "minimize", "-s", fixture("parity.sg"), "-o", out_path)
    assert (code, out) == (0, "wrote %s (4 classes from 4 elements)\n" % out_path)

    code, out, _ = run(capsys, "aperiodic", "-s", fixture("counting.sg"))
    assert code == 0 and out.startswith("aperiodic")
    code, out, _ = run(capsys, "aperiodic", "-s", fixture("parity.sg"))
    assert code == 1 and out.startswith("not aperiodic")

    code, out, _ = run(capsys, "definable", "-s", fixture("counting.sg"))
    assert code == 0 and out.strip() == "definable"
    code, out, _ = run(capsys, "definable", "-s", fixture("parity.sg"))
    assert code == 1 and out.strip() == "not-definable"


def test_recognize_needs_recognizer_block(capsys):
    code, out, err = run(capsys, "semigroup", "recognize",
                         "-s", fixture("saction.sg"), "-w", "a")
    assert code == 2 and out == ""
    assert err.splitlines()[0].endswith("has no recognizer block (h/ideal)")


@pytest.mark.parametrize("argv, message", [
    (["definable", "-s", fixture("counting.sg"), "--alphabet", "ab", "-f", "G b"],
     "definable needs exactly one of -s or -f"),
    (["definable"], "definable needs exactly one of -s or -f"),
    (["bounded", "-a", fixture("epsilon-s.aut"), "--alphabet", "ab", "-f", "a"],
     "bounded needs exactly one of -a or -f"),
    (["bounded", "--method", "both"], "bounded needs exactly one of -a or -f"),
], ids=["both", "neither", "bounded-both", "bounded-neither"])
def test_definable_needs_exactly_one_source(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_definable_from_counterfree_formula(capsys):
    code, out, _ = run(capsys, "definable", "--alphabet", "ab", "-f", "G b")
    assert code == 0 and out.strip() == "definable"
    code, _, err = run(capsys, "definable", "--alphabet", "ab",
                       "-f", "!a U# END")
    assert code == 2
    assert "counter-free" in err


def test_corpus_runs_clean(capsys):
    code, out, _ = run(capsys, "corpus", FIXTURES)
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln.strip()]
    assert len(lines) >= 8
    assert all(" ok " in ln for ln in lines)
    assert any("bounded unbounded" in ln for ln in lines)


def test_corpus_reports_formula_file_without_alphabet(capsys, tmp_path):
    (tmp_path / "noalpha.ltl").write_text("a U# END\n", encoding="utf-8")
    # a file that is not .sg, .aut or .ltl is skipped without a row
    (tmp_path / "notes.txt").write_text("not a costltl file\n", encoding="utf-8")
    code, out, _ = run(capsys, "corpus", str(tmp_path))
    assert code == 1
    assert [ln.split(None, 2) for ln in out.splitlines()] == [
        ["noalpha.ltl", "fail", "formula file must start with 'alphabet <letters>'"]]


def test_corpus_reports_a_search_out_of_budget_and_goes_on(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr("costltl.bounded.MAX_ONTHEFLY_CONFIGS", 3)
    with open(fixture("count-letter-s.aut"), encoding="utf-8") as fh:
        (tmp_path / "count-letter-s.aut").write_text(fh.read(), encoding="utf-8")
    (tmp_path / "hard.ltl").write_text("alphabet ab\n!a U# END\n", encoding="utf-8")
    code, out, _ = run(capsys, "corpus", str(tmp_path))
    assert code == 1
    assert [ln.split(None, 2) for ln in out.splitlines()] == [
        ["count-letter-s.aut", "ok", "S-automaton, 2 states"],
        ["hard.ltl", "fail", "on-the-fly search exceeded 3 configurations"]]


def test_undeclared_semigroup_name_exits_2(capsys, tmp_path):
    with open(fixture("counting.sg"), encoding="utf-8") as fh:
        text = fh.read()
    path = tmp_path / "bad.sg"
    path.write_text(text.replace("h a a", "h a zz"), encoding="utf-8")
    code, out, err = run(capsys, "semigroup", "recognize", "-s", str(path), "-w", "aab")
    assert code == 2 and out == ""
    assert "undeclared element 'zz'" in err


@pytest.mark.parametrize("argv", [["semigroup", "check"],
                                  ["semigroup", "recognize", "-w", "ab"],
                                  ["minimize", "-o", "quotient.sg"],
                                  ["definable"]])
def test_h_letter_that_is_not_one_symbol_exits_2(capsys, tmp_path, monkeypatch, argv):
    with open(fixture("counting.sg"), encoding="utf-8") as fh:
        text = fh.read()
    assert "\nh a a\n" in text
    (tmp_path / "aa.sg").write_text(text.replace("\nh a a\n", "\nh aa a\n"), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv, "-s", "aa.sg")
    assert (code, out, err) == (2, "", "error: letters must be single symbols: 'aa'\n")
    assert not (tmp_path / "quotient.sg").exists()


def test_repeated_semigroup_line_exits_2(capsys, tmp_path):
    path = tmp_path / "repeated.sg"
    with open(fixture("counting.sg"), encoding="utf-8") as fh:
        path.write_text(fh.read() + "h a b\n", encoding="utf-8")
    code, out, err = run(capsys, "semigroup", "recognize", "-s", str(path), "-w", "aab")
    assert code == 2 and out == ""
    assert "repeated h line for 'a'" in err


@pytest.mark.parametrize("argv", [["-w", "aab", "--height", "0"], ["-w", "abc"]])
def test_bad_recognizer_input_exits_2(capsys, argv):
    code, out, err = run(capsys, "semigroup", "recognize",
                         "-s", fixture("counting.sg"), *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("value", ["1_0", "\u0663"])
def test_height_flag_takes_only_ascii_digits(capsys, value):
    # argparse's int() read 1_0 as 10 and the Arabic-Indic digit three as 3
    code, out, err = run(capsys, "semigroup", "recognize", "-s", fixture("counting.sg"),
                         "--height", value, "-w", "abbaba")
    assert (code, out) == (2, "")
    assert err == "error: bad height value %r\n" % value


def test_indented_comments_in_every_file_kind(capsys, tmp_path):
    for name in ("count-letter-b.aut", "counting.sg", "bounded-sample.ltl"):
        with open(fixture(name), encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        lines.insert(3, "  # an indented comment")
        (tmp_path / name).write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, out, _ = run(capsys, "corpus", str(tmp_path))
    assert code == 0, out
    assert [ln.split()[1] for ln in out.splitlines()] == ["ok", "ok", "ok"]
    aut = load_automaton(str(tmp_path / "count-letter-b.aut"))
    assert aut == load_automaton(fixture("count-letter-b.aut"))


def test_porcelain_output_is_deterministic(capsys):
    runs = []
    for _ in range(2):
        code, out, _ = run(capsys, "bounded", "--porcelain", "--alphabet", "ab",
                           "-f", "(a | X a | X F a) U# END")
        assert code == 1
        runs.append(out)
    assert runs[0] == runs[1] == "unbounded\n"


def test_unknown_and_repeated_automaton_fields_exit_2(capsys, tmp_path):
    with open(fixture("count-letter-b.aut"), encoding="utf-8") as fh:
        text = fh.read()
    path = tmp_path / "bad.aut"
    path.write_text(text + "epsilom 5\nkind S\nkind B\n", encoding="utf-8")
    code, out, err = run(capsys, "eval-aut", "-a", str(path), "-w", "aab")
    assert code == 2 and out == ""
    assert "unknown field 'epsilom'" in err


def test_fault_text_does_not_depend_on_hash_order(tmp_path):
    # validate names states sorted by name and the loader keeps exits in
    # file order, so no hash seed changes the text
    path = tmp_path / "faults.aut"
    path.write_text("costltl-format 1\nautomaton\nkind S\nalphabet ab\nstates p q r\n"
                    "initial p x y\nfinal q r\ncounters 1\nexit q : i | i\nexit r : i | i\n",
                    encoding="utf-8")
    src = os.path.dirname(os.path.dirname(costltl.__file__))
    errs = set()
    for seed in "0123":
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-m", "costltl.cli", "eval-aut", "-a", str(path),
                               "-w", "a"], env=env, capture_output=True, text=True)
        assert proc.returncode == 2
        errs.add(proc.stderr)
    assert errs == {"error: invalid automaton: undeclared state 'x'; undeclared state 'y'; "
                    "exit on 'q' has wrong counter arity; exit on 'r' has wrong counter arity\n"}


def test_blank_alphabet_letter_is_rejected_everywhere(capsys, tmp_path):
    code, out, err = run(capsys, "eval", "--alphabet", "a b", "-f", "!a U# END", "-w", "ab")
    assert code == 2 and out == ""
    assert "blank letter" in err
    with open(fixture("count-letter-b.aut"), encoding="utf-8") as fh:
        aut_text = fh.read()
    assert "alphabet ab\n" in aut_text
    (tmp_path / "spaced.aut").write_text(aut_text.replace("alphabet ab\n", "alphabet a b\n"),
                                         encoding="utf-8")
    (tmp_path / "spaced.ltl").write_text("alphabet a b\nb U# END\n", encoding="utf-8")
    code, out, _ = run(capsys, "corpus", str(tmp_path))
    assert code == 1
    rows = [ln.split(None, 2) for ln in out.splitlines()]
    assert [(name, status) for name, status, _ in rows] == [("spaced.aut", "fail"),
                                                           ("spaced.ltl", "fail")]
    assert all("blank letter" in detail for _, _, detail in rows)


@pytest.mark.parametrize("argv, message", [
    (["eval", "--alphabet", "aa", "-f", "a", "-w", "a"], "alphabet has duplicate letters"),
    (["eval", "--alphabet=", "-f", "a", "-w", "a"], "alphabet must be nonempty"),
    (["eval", "--alphabet", "ab", "-f", "a", "-w", "abc"], "letter 'c' outside alphabet ab"),
    (["eval-aut", "-a", fixture("count-letter-b.aut"), "-w", "abc"],
     "letter 'c' outside alphabet ab"),
    (["eval", "--alphabet", "ab", "-f", "(a", "-w", "a"],
     "unexpected end of input (at position 2)"),
], ids=["duplicate letters", "empty alphabet", "formula word", "automaton word", "cut short"])
def test_bad_alphabet_word_or_formula_exits_2(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", "error: %s\n" % message)


def test_negative_epsilon_value_exits_2(capsys, tmp_path):
    with open(fixture("count-letter-b.aut"), encoding="utf-8") as fh:
        text = fh.read()
    path = tmp_path / "negative.aut"
    path.write_text(text + "epsilon -3\n", encoding="utf-8")
    code, out, err = run(capsys, "eval-aut", "-a", str(path), "-w", "")
    assert code == 2 and out == ""
    assert "negative epsilon value -3" in err


@pytest.mark.parametrize("value", ["1_0", "x", "\u0663"])
@pytest.mark.parametrize("name, line, argv", [
    ("count-letter-s.aut", "counters 1", ["eval-aut", "-w", "aa", "-a"]),
    ("epsilon-s.aut", "epsilon 3", ["eval-aut", "-w", "", "-a"]),
    ("counting.sg", "height 9", ["semigroup", "recognize", "-w", "ab", "-s"]),
], ids=["counters", "epsilon", "height"])
def test_integer_field_takes_only_ascii_digits(capsys, tmp_path, value, name, line, argv):
    # int() read 1_0 as 10 and the Arabic-Indic digit three as 3
    with open(fixture(name), encoding="utf-8") as fh:
        text = fh.read()
    field = line.split()[0]
    assert "\n%s\n" % line in text
    path = tmp_path / name
    path.write_text(text.replace("\n%s\n" % line, "\n%s %s\n" % (field, value)), encoding="utf-8")
    code, out, err = run(capsys, *argv, str(path))
    assert (code, out) == (2, "")
    assert err == "error: bad %s value %r\n" % (field, value)


def test_empty_elements_line_exits_2(capsys, tmp_path):
    path = tmp_path / "empty.sg"
    path.write_text("costltl-format 1\nsemigroup\nelements\n", encoding="utf-8")
    code, out, err = run(capsys, "aperiodic", "-s", str(path))
    assert code == 2 and out == ""
    assert "missing elements" in err


NO_SHARP = "costltl-format 1\nsemigroup\nelements a\nproduct a : a\n"


def test_missing_sharp_is_reported_by_check(capsys, tmp_path):
    path = tmp_path / "nosharp.sg"
    path.write_text(NO_SHARP, encoding="utf-8")
    code, out, _ = run(capsys, "semigroup", "check", "-s", str(path))
    assert code == 1
    assert out == "sharp must be defined exactly on idempotents: a\n"


@pytest.mark.parametrize("argv", [["semigroup", "recognize", "-w", "aa"],
                                  ["minimize", "-o", os.devnull],
                                  ["definable"]])
def test_missing_sharp_exits_2(capsys, tmp_path, argv):
    path = tmp_path / "nosharp.sg"
    path.write_text(NO_SHARP + "h a a\nideal a\n", encoding="utf-8")
    code, out, err = run(capsys, *argv, "-s", str(path))
    assert code == 2 and out == ""
    assert err == "error: sharp must be defined exactly on idempotents: a\n"


@pytest.mark.parametrize("block", [True, False], ids=["with-h-ideal", "without-h-ideal"])
def test_missing_sharp_has_one_text_with_or_without_a_recognizer(capsys, tmp_path, block):
    """counting.sg without its sharp b b line: check prints the
    validate_axioms line and exits 1, and every command that loads the file
    exits 2 with that line, whether or not the file has h and ideal lines."""
    with open(fixture("counting.sg"), encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    lines.remove("sharp b b")
    if not block:
        lines = [ln for ln in lines if ln.split()[0] not in ("h", "ideal", "height")]
    path = tmp_path / "nosharp.sg"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    text = "sharp must be defined exactly on idempotents: b\n"
    assert run(capsys, "semigroup", "check", "-s", str(path)) == (1, text, "")
    for argv in (["aperiodic"], ["semigroup", "recognize", "-w", "ab"],
                 ["semigroup", "classify", "ab"], ["minimize", "-o", os.devnull],
                 ["definable"]):
        assert run(capsys, *argv, "-s", str(path)) == (2, "", "error: " + text), argv


def test_repeated_element_and_state_names_exit_2(capsys, tmp_path):
    sg_path = tmp_path / "twice.sg"
    sg_path.write_text("costltl-format 1\nsemigroup\nelements a a\n"
                       "product a : a a\nsharp a a\n", encoding="utf-8")
    code, out, err = run(capsys, "aperiodic", "-s", str(sg_path))
    assert code == 2 and out == ""
    assert "repeated element 'a'" in err
    aut_path = tmp_path / "twice.aut"
    aut_path.write_text("costltl-format 1\nautomaton\nkind B\nalphabet a\nstates q q\n"
                        "initial q\nfinal q\ncounters 0\ntrans q a q :\n", encoding="utf-8")
    code, out, err = run(capsys, "eval-aut", "-a", str(aut_path), "-w", "aa")
    assert code == 2 and out == ""
    assert "repeated state 'q'" in err


def test_closure_budget_exits_2(capsys, monkeypatch):
    monkeypatch.setattr("costltl.bounded.MAX_CLOSURE_ELEMENTS", 1)
    code, out, err = run(capsys, "bounded", "--alphabet", "ab", "--method", "closure",
                         "-f", "(b | X a | X F a) U# END")
    assert code == 2 and out == ""
    assert "exceeded 1 elements" in err


def test_onthefly_budget_exits_2(capsys, monkeypatch):
    monkeypatch.setattr("costltl.bounded.MAX_ONTHEFLY_CONFIGS", 1)
    code, out, err = run(capsys, "bounded", "--alphabet", "ab", "--method", "onthefly",
                         "-f", "(b | X a | X F a) U# END")
    assert code == 2 and out == ""
    assert "exceeded 1 configurations" in err


NO_PRODUCT_ROW = ("costltl-format 1\nsemigroup\nelements a b\nproduct a : a a\n"
                  "sharp a a\nh a a\nideal a\n")


@pytest.mark.parametrize("argv", [["semigroup", "recognize", "-w", "aa"],
                                  ["aperiodic"],
                                  ["minimize", "-o", os.devnull],
                                  ["definable"],
                                  ["semigroup", "check"]])
def test_missing_product_row_exits_2(capsys, tmp_path, argv):
    path = tmp_path / "norow.sg"
    path.write_text(NO_PRODUCT_ROW, encoding="utf-8")
    code, out, err = run(capsys, *argv, "-s", str(path))
    assert code == 2 and out == ""
    assert "product undefined on (b, a)" in err


@pytest.mark.parametrize("argv", [["semigroup", "recognize", "-w", "ab"],
                                  ["minimize", "-o", "quotient.sg"],
                                  ["definable"],
                                  ["aperiodic"],
                                  ["semigroup", "classify", "a^ws"]])
def test_semigroup_failing_axioms_exits_2(capsys, tmp_path, monkeypatch, argv):
    # counting.sg with one product row changed: b.a = bot breaks associativity
    with open(fixture("counting.sg"), encoding="utf-8") as fh:
        text = fh.read().replace("product b : bot a b", "product b : bot bot b")
    (tmp_path / "broken.sg").write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv, "-s", "broken.sg")
    assert code == 2 and out == ""
    assert err == "error: associativity fails on (a, b, a)\n"
    assert not (tmp_path / "quotient.sg").exists()


def test_classify_has_no_height_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["semigroup", "classify", "-s", fixture("counting.sg"), "--height", "3", "a^ws"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --height" in capsys.readouterr().err


# Minimal .sg texts, each breaking one law that only a file can break, with
# the lines semigroup check prints for it.
@pytest.mark.parametrize("body, lines", [
    # a zero semigroup whose two elements lie below each other
    pytest.param("elements a b\nproduct a : a a\nproduct b : a a\norder a b\norder b a\n"
                 "sharp a a\n",
                 ["order not antisymmetric on (a, b)", "order not antisymmetric on (b, a)"],
                 id="antisymmetry"),
    # f absorbs e, and e# = f is not declared below e
    pytest.param("elements e f\nproduct e : e f\nproduct f : f f\nsharp e f\nsharp f f\n",
                 ["sharp(e) not below e"], id="sharp-below"),
    # the chain g <= f <= e under min, with e# = f but f# = g
    pytest.param("elements e f g\nproduct e : e f g\nproduct f : f f g\nproduct g : g g g\n"
                 "order g f\norder f e\nsharp e f\nsharp f g\nsharp g g\n",
                 ["sharp(sharp(e)) != sharp(e)"], id="sharp-idempotent"),
    # the meet semilattice z <= e, g <= f, with e <= f but f# = g
    pytest.param("elements f e g z\nproduct f : f e g z\nproduct e : e e z z\n"
                 "product g : g z g z\nproduct z : z z z z\n"
                 "order z e\norder z g\norder e f\norder g f\n"
                 "sharp f g\nsharp e e\nsharp g g\nsharp z z\n",
                 ["sharp not monotone on (e, f)"], id="sharp-monotone"),
    # the neutral n stabilizes to the zero z below it
    pytest.param("elements n z\nneutral n\nproduct n : n z\nproduct z : z z\norder z n\n"
                 "sharp n z\nsharp z z\n",
                 ["1# != 1"], id="neutral-sharp"),
])
def test_check_lists_the_law_that_a_file_breaks(capsys, tmp_path, body, lines):
    path = tmp_path / "law.sg"
    path.write_text("costltl-format 1\nsemigroup\n" + body, encoding="utf-8")
    assert run(capsys, "semigroup", "check", "-s", str(path)) == (
        1, "".join(line + "\n" for line in lines), "")
