"""Command-line interface: verdicts, exit codes, file plumbing."""

import os

import pytest

from costltl import eval_b, load_automaton, load_semigroup
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


def test_bounded_verdicts_and_exit_codes(capsys):
    code, out, _ = run(capsys, "bounded", "--alphabet", "ab",
                       "-f", "(b | X a | X F a) U# END", "--method", "both")
    assert code == 0
    assert out.splitlines()[0] == "bounded"
    # the witness follows the order of contracted_edges, which must not
    # depend on the hash seed
    for formula, witness in [("(a | X a | X F a) U# END", "b(b)^n (pump 3: bbbb)"),
                             ("(a U# END) | (b U# END)", "a(ab)^n (pump 3: aababab)"),
                             ("(a U# END) & (b U# END)", "a(a)^n (pump 3: aaaa)")]:
        code, out, _ = run(capsys, "bounded", "--alphabet", "ab",
                           "-f", formula, "--method", "both")
        assert code == 1
        assert out.splitlines() == ["unbounded", "witness family: " + witness]


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

    code, out, _ = run(capsys, "aperiodic", "-s", fixture("counting.sg"))
    assert code == 0 and out.startswith("aperiodic")
    code, out, _ = run(capsys, "aperiodic", "-s", fixture("parity.sg"))
    assert code == 1 and out.startswith("not aperiodic")

    code, out, _ = run(capsys, "definable", "-s", fixture("counting.sg"))
    assert code == 0 and out.strip() == "definable"
    code, out, _ = run(capsys, "definable", "-s", fixture("parity.sg"))
    assert code == 1 and out.strip() == "not-definable"


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


def test_undeclared_semigroup_name_exits_2(capsys, tmp_path):
    with open(fixture("counting.sg"), encoding="utf-8") as fh:
        text = fh.read()
    path = tmp_path / "bad.sg"
    path.write_text(text.replace("h a a", "h a zz"), encoding="utf-8")
    code, out, err = run(capsys, "semigroup", "recognize", "-s", str(path), "-w", "aab")
    assert code == 2 and out == ""
    assert "undeclared element 'zz'" in err


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


def test_negative_epsilon_value_exits_2(capsys, tmp_path):
    with open(fixture("count-letter-b.aut"), encoding="utf-8") as fh:
        text = fh.read()
    path = tmp_path / "negative.aut"
    path.write_text(text + "epsilon -3\n", encoding="utf-8")
    code, out, err = run(capsys, "eval-aut", "-a", str(path), "-w", "")
    assert code == 2 and out == ""
    assert "negative epsilon value -3" in err


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
    assert "idempotent a has no sharp" in err


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
