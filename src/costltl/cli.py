"""Command-line interface.

Exit codes: 0 for success or an affirmative verdict, 1 for a negative verdict
(unbounded, not aperiodic, not definable, check failure, divergent
classification), 2 for usage or input errors.
"""

import argparse
import sys

from .core import INF, Alphabet, read_int, read_lines
from .formula import parse, render, dualize, is_ltl, is_nltl
from .semantics import sem_inf, sem_sup
from .automata import eval_b, eval_s, contract_b, load_automaton, save_automaton
from .translate import ltl_to_b, nltl_to_s
from .semigroup import (Recognizer, validate_axioms, recognize, classify, parse_expr, render_expr,
                        load_semigroup, save_semigroup)
from .minimize import syntactic_quotient, is_aperiodic, is_ltl_definable
from .bounded import (formula_automaton, bounded_formula, bounded_onthefly,
                      bounded_closure, witness_word, language_recognizer)


def _fmt(value):
    return "inf" if value == INF else str(value)


def _parse_formula(args):
    if args.alphabet is None:
        raise ValueError("--alphabet is required with -f")
    alphabet = Alphabet(args.alphabet)
    return parse(args.formula, alphabet), alphabet


def _cmd_eval(args):
    phi, alphabet = _parse_formula(args)
    word = tuple(args.word)
    alphabet.check_word(word)
    print(_fmt(sem_inf(phi, word) if is_ltl(phi) else sem_sup(phi, word)))
    return 0


def _cmd_eval_aut(args):
    aut = load_automaton(args.automaton)
    word = tuple(args.word)
    value = eval_b(aut, word) if aut.kind == "B" else eval_s(aut, word)
    print(_fmt(value))
    return 0


def _cmd_compile_b(args):
    phi, alphabet = _parse_formula(args)
    aut = ltl_to_b(phi, alphabet)
    if args.contract:
        aut, correction = contract_b(aut)
        if not args.porcelain:
            print("contracted with K=%d (correct up to 2Kn+2K)" % correction)
    save_automaton(aut, args.out)
    if not args.porcelain:
        print("wrote %s (%d states)" % (args.out, len(aut.states)))
    return 0


def _cmd_compile_s(args):
    phi, alphabet = _parse_formula(args)
    if args.nltl:
        if not is_nltl(phi):
            raise ValueError("--nltl expects a pure nLTL<= formula")
    else:
        if not is_ltl(phi):
            raise ValueError("expected an LTL<= formula to dualize (or pass --nltl)")
        phi = dualize(phi, alphabet)
    aut = nltl_to_s(phi, alphabet)
    save_automaton(aut, args.out)
    if not args.porcelain:
        print("wrote %s (%d states, formula %s)" % (args.out, len(aut.states), render(phi)))
    return 0


def _cmd_bounded(args):
    if args.automaton is not None:
        aut = load_automaton(args.automaton)
    else:
        aut = formula_automaton(*_parse_formula(args))
    results = []
    if args.method in ("onthefly", "both"):
        results.append(bounded_onthefly(aut))
    if args.method in ("closure", "both"):
        results.append(bounded_closure(aut))
    if len({r.bounded for r in results}) != 1:
        raise ValueError("methods disagree on boundedness")
    result = results[0]
    print("bounded" if result.bounded else "unbounded")
    if not result.bounded and result.script is not None and not args.porcelain:
        print("witness family: %s (pump 3: %s)"
              % ("".join(map(render_expr, result.script)) or "empty word",
                 witness_word(result.script, 3) or '""'))
    return 0 if result.bounded else 1


def _load_valid(path):
    """load_semigroup, refusing a semigroup that fails its axioms with the
    first diagnostic of validate_axioms."""
    sg, rec = load_semigroup(path)
    problems = validate_axioms(sg)
    if problems:
        raise ValueError(problems[0])
    return sg, rec


def _load_recognizer(path):
    sg, rec = _load_valid(path)
    if rec is None:
        raise ValueError("%s has no recognizer block (h/ideal)" % path)
    return sg, rec


def _cmd_semigroup(args):
    if args.subcommand == "check":
        problems = validate_axioms(load_semigroup(args.semigroup)[0])
        if problems:
            for p in problems:
                print(p)
            return 1
        print("OK")
        return 0
    sg, rec = _load_recognizer(args.semigroup)
    if args.subcommand == "recognize":
        if args.height is not None:
            rec = Recognizer(sg, rec.h, rec.ideal, read_int("height", args.height))
        print(_fmt(recognize(rec, tuple(args.word))))
        return 0
    verdict = classify(rec, parse_expr(args.expr))
    print(verdict)
    return 0 if verdict == "F-bounded" else 1


def _cmd_minimize(args):
    sg, rec = _load_recognizer(args.semigroup)
    quotient = syntactic_quotient(rec)
    qrec = quotient.recognizer
    save_semigroup(qrec.semigroup, args.out, qrec)
    if args.porcelain:
        print(len(qrec.semigroup.elements))
    else:
        print("wrote %s (%d classes from %d elements)"
              % (args.out, len(qrec.semigroup.elements), len(sg.elements)))
    return 0


def _cmd_aperiodic(args):
    sg, _ = _load_valid(args.semigroup)
    verdict, detail = is_aperiodic(sg)
    if verdict:
        print("aperiodic" if args.porcelain else "aperiodic (k=%d)" % detail)
        return 0
    print("not-aperiodic" if args.porcelain else "not aperiodic (witness %s)" % detail)
    return 1


def _cmd_definable(args):
    if args.semigroup is not None:
        _, rec = _load_recognizer(args.semigroup)
    else:
        phi, alphabet = _parse_formula(args)
        if not is_ltl(phi):
            raise ValueError("definability from a formula expects LTL<=")
        rec = language_recognizer(ltl_to_b(phi, alphabet))
    verdict = is_ltl_definable(rec)
    print("definable" if verdict else "not-definable")
    return 0 if verdict else 1


def _corpus_formula_file(path):
    with open(path, encoding="utf-8") as fh:
        lines = read_lines(fh.read())
    if not lines or not lines[0].startswith("alphabet "):
        raise ValueError("formula file must start with 'alphabet <letters>'")
    alphabet = Alphabet(lines[0][len("alphabet "):].strip())
    return alphabet, [parse(ln, alphabet) for ln in lines[1:]]


def _cmd_corpus(args):
    import os

    rows = []
    failed = False
    for name in sorted(os.listdir(args.directory)):
        path = os.path.join(args.directory, name)
        try:
            if name.endswith(".sg"):
                sg, rec = _load_valid(path)
                detail = "%d elements%s" % (len(sg.elements),
                                            ", recognizer" if rec else "")
            elif name.endswith(".aut"):
                aut = load_automaton(path)
                detail = "%s-automaton, %d states" % (aut.kind, len(aut.states))
            elif name.endswith(".ltl"):
                alphabet, formulas = _corpus_formula_file(path)
                verdicts = []
                for phi in formulas:
                    result = bounded_formula(phi, alphabet)
                    verdicts.append("bounded" if result.bounded else "unbounded")
                detail = " ".join(verdicts)
            else:
                continue
            rows.append((name, "ok", detail))
        except (ValueError, OSError, RuntimeError) as exc:
            rows.append((name, "fail", str(exc)))
            failed = True
    width = max([len(r[0]) for r in rows], default=0)
    for name, status, detail in rows:
        print("%-*s  %-4s  %s" % (width, name, status, detail))
    return 1 if failed else 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="costltl",
        description="Quantitative LTL over finite words: evaluation, "
                    "compilation to cost automata, boundedness, and "
                    "stabilization-semigroup algebra.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, formula=False, word=False, automaton=False, semigroup=False,
               out=False):
        # of two sources a subcommand takes exactly one, which main checks
        one = formula + automaton + semigroup < 2
        p.add_argument("--porcelain", action="store_true",
                       help="stable machine-readable output only")
        if formula:
            p.add_argument("-f", dest="formula", required=one)
            p.add_argument("--alphabet")
        if word:
            p.add_argument("-w", dest="word", required=True)
        if automaton:
            p.add_argument("-a", dest="automaton", required=one)
        if semigroup:
            p.add_argument("-s", dest="semigroup", required=one)
        if out:
            p.add_argument("-o", dest="out", required=True)

    p = sub.add_parser("eval", help="evaluate a formula on a word; a counter-free "
                                    "formula is read as LTL<= (for its nLTL<= reading, "
                                    "use compile-s --nltl and eval-aut)")
    common(p, formula=True, word=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("eval-aut", help="evaluate an automaton file on a word")
    common(p, word=True, automaton=True)
    p.set_defaults(func=_cmd_eval_aut)

    p = sub.add_parser("compile-b", help="compile LTL<= to a B-automaton")
    common(p, formula=True, out=True)
    p.add_argument("--contract", action="store_true",
                   help="contract action sequences to single actions")
    p.set_defaults(func=_cmd_compile_b)

    p = sub.add_parser("compile-s", help="compile to an S-automaton "
                                         "(dualizes LTL<= input)")
    common(p, formula=True, out=True)
    p.add_argument("--nltl", action="store_true",
                   help="input is already an nLTL<= formula")
    p.set_defaults(func=_cmd_compile_s)

    p = sub.add_parser("bounded", help="decide boundedness of a formula or S-automaton")
    common(p, formula=True, automaton=True)
    p.add_argument("--method", choices=("onthefly", "closure", "both"),
                   default="onthefly")
    p.set_defaults(func=_cmd_bounded)

    p = sub.add_parser("semigroup", help="stabilization-semigroup operations")
    ssub = p.add_subparsers(dest="subcommand", required=True)
    q = ssub.add_parser("check", help="validate the semigroup axioms")
    common(q, semigroup=True)
    q.set_defaults(func=_cmd_semigroup)
    q = ssub.add_parser("recognize", help="value of a word under a recognizer")
    common(q, word=True, semigroup=True)
    q.add_argument("--height")
    q.set_defaults(func=_cmd_semigroup)
    q = ssub.add_parser("classify", help="classify a sharp expression")
    common(q, semigroup=True)
    q.add_argument("expr", help="expression, e.g. (ab)^ws or a^w b")
    q.set_defaults(func=_cmd_semigroup)

    p = sub.add_parser("minimize", help="quotient by the syntactic congruence")
    common(p, semigroup=True, out=True)
    p.set_defaults(func=_cmd_minimize)

    p = sub.add_parser("aperiodic", help="decide aperiodicity of a semigroup")
    common(p, semigroup=True)
    p.set_defaults(func=_cmd_aperiodic)

    p = sub.add_parser("definable", help="decide LTL<=-definability")
    common(p, formula=True, semigroup=True)
    p.set_defaults(func=_cmd_definable)

    p = sub.add_parser("corpus", help="validate a directory of fixture files")
    p.add_argument("--porcelain", action="store_true")
    p.add_argument("directory")
    p.set_defaults(func=_cmd_corpus)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    other = {"definable": "semigroup", "bounded": "automaton"}.get(args.command)
    if other and (getattr(args, other) is None) == (args.formula is None):
        parser.error("%s needs exactly one of -%s or -f" % (args.command, other[0]))
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
