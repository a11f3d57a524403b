"""The four workloads: seeded inputs, the ops over them and their references.

Each setup function builds a pool of ops from a seed and a scale ("full" or
"tiny"); an op calls the library only through `tracer.call`, so that the
traced run sees one span per public call. Checks and summaries run outside
the timed ops. Every reference is independent of the call it checks: the
semantics module (the package's trusted oracle) for automata, closed forms
for the fixtures, and the other procedure for boundedness.
"""

import os
import random

from costltl import (
    INF,
    END,
    Alphabet,
    And,
    Atom,
    Next,
    Or,
    Recognizer,
    Until,
    UntilLeq,
    bounded_onthefly,
    dualize,
    dumps_automaton,
    dumps_semigroup,
    eval_b,
    eval_s,
    is_ltl_definable,
    language_recognizer,
    load_automaton,
    load_semigroup,
    ltl_to_b,
    nltl_to_s,
    parse,
    recognize,
    rename_states,
    render,
    run_semigroup_closure,
    sem_inf,
    sem_sup,
    syntactic_quotient,
    witness_word,
)
from costltl.formula import subformulas

from harness import Mismatch, Op, Workload

AB = Alphabet("ab")

# The 32-formula quantitative corpus of tests/conftest.py, copied so that a
# change to the tests cannot silently change what the benchmark measures.
CORPUS_TEXTS = [
    "!a U# END",
    "!b U# END",
    "a U# END",
    "b U# b",
    "(b | X a | X F a) U# END",
    "(a | X a | X F a) U# END",
    "a U# b",
    "b U# a",
    "!a U# a",
    "!b U# (a & X END)",
    "TRUE U# END",
    "FALSE U# END",
    "(a | b) U# END",
    "(a & b) U# END",
    "X (a U# END)",
    "X X (b U# END)",
    "(a U# END) | (b U# END)",
    "(a U# END) & (b U# END)",
    "(!a U# END) | (b U b)",
    "(!a U# END) & F b",
    "a U (b U# END)",
    "(b U# END) U a",
    "F (a & X (b U# END))",
    "G (b | (a U# b))",
    "(X a) U# END",
    "(a | X b) U# (b & X END)",
    "(!a U# END) U# END",
    "b U# (a U b)",
    "(F a) U# END",
    "(a U b) U# END",
    "X (a U# b) | (b U# a)",
    "(!b U# END) & (a U END)",
]

# The ROADMAP's slow threshold-search case, evaluated on (ab)^k.
ROADMAP_CASE = "(!a U# END) & (b U# END)"

LTL_KINDS = ("and", "or", "next", "until", "untilleq")
COUNTER_FREE_KINDS = ("and", "or", "next", "until")

# Seed of criterion 9's draw; duality and boundedness take their formulae
# from it (see formula_population).
CRITERION9_SEED = 90


def random_formula(rng, depth, kinds):
    """The generator of acceptance criterion 9, over a choice of operators."""
    if depth == 0 or rng.random() < 0.3:
        return rng.choice([Atom("a"), Atom("b"), END])
    kind = rng.choice(kinds)
    if kind == "next":
        return Next(random_formula(rng, depth - 1, kinds))
    left = random_formula(rng, depth - 1, kinds)
    right = random_formula(rng, depth - 1, kinds)
    return {"and": And, "or": Or, "until": Until, "untilleq": UntilLeq}[kind](left, right)


def random_word(rng, lo, hi):
    return "".join(rng.choice("ab") for _ in range(rng.randint(lo, hi)))


def operator_counts(phi):
    """(distinct U# subformulae, distinct U and U# subformulae)."""
    subs = subformulas(phi)
    bounded = sum(isinstance(s, UntilLeq) for s in subs)
    return bounded, bounded + sum(isinstance(s, Until) for s in subs)


def formula_population(draws, max_counters):
    """Distinct texts from the first `draws` formulae of criterion 9's draw
    with 1..max_counters U# and at most three U/U# in all.

    The population is fixed, not drawn from the run seed: translation time
    is heavy-tailed in formula shape (a few draws take seconds, some take
    gigabytes), and a per-seed draw moved the tail latency by 20-30% between
    seeds. The operator bound keeps every op within a second or so.
    """
    rng = random.Random(CRITERION9_SEED)
    texts = []
    seen = set()
    for _ in range(draws):
        phi = random_formula(rng, 4, LTL_KINDS)
        random_word(rng, 0, 6)  # criterion 9 draws a word after each formula
        bounded, temporal = operator_counts(phi)
        text = render(phi)
        if 1 <= bounded <= max_counters and temporal <= 3 and text not in seen:
            seen.add(text)
            texts.append(text)
    return texts


def parse_checked(tracer, text):
    phi = tracer.call("formula.parse", parse, text, AB)
    if render(phi) != text:
        raise Mismatch("render(parse(%r)) = %r" % (text, render(phi)))
    return phi


def fmt(v):
    return "inf" if v == INF else str(v)


def within_one(x, y):
    if x == INF or y == INF:
        return x == y
    return abs(x - y) <= 1


def check_values(text, rows):
    """eval_b == sem_inf exactly; sem_sup within 1 of sem_inf and eval_s
    within 1 of sem_sup, with inf matching only inf (criterion 9)."""
    for u, (vb, vs, vi, vp) in rows:
        where = "formula %r, word %r" % (text, u)
        if vb != vi:
            raise Mismatch("eval_b = %s but sem_inf = %s on %s" % (fmt(vb), fmt(vi), where))
        if not within_one(vp, vi):
            raise Mismatch("sem_sup = %s not within 1 of sem_inf = %s on %s"
                           % (fmt(vp), fmt(vi), where))
        if not within_one(vs, vp):
            raise Mismatch("eval_s = %s not within 1 of sem_sup = %s on %s"
                           % (fmt(vs), fmt(vp), where))


def evaluate(tracer, b_aut, s_aut, phi, psi, u):
    return (tracer.call("automata.eval_b", eval_b, b_aut, u),
            tracer.call("automata.eval_s", eval_s, s_aut, u),
            tracer.call("semantics.sem_inf", sem_inf, phi, u),
            tracer.call("semantics.sem_sup", sem_sup, psi, u))


def automaton_text(aut):
    # translated automata have set-valued states; renaming orders them
    return dumps_automaton(rename_states(aut))


def automaton_counts(*auts):
    return {"translate.states": sum(len(a.states) for a in auts),
            "translate.transitions": sum(len(a.transitions) for a in auts),
            "translate.counters": sum(a.counters for a in auts)}


def rows_text(rows):
    return ";".join("%s:%s" % (u, ",".join(map(fmt, v))) for u, v in rows)


# --- duality ------------------------------------------------------------------


def setup_duality(seed, scale, tracer):
    """One op per formula: dualize, compile both ways, evaluate 3 short words."""
    size = 300 if scale == "full" else 12
    rng = random.Random(seed)
    ops = []
    for text in formula_population(2000, 3)[:size]:
        phi = parse_checked(tracer, text)
        words = [random_word(rng, 0, 6) for _ in range(3)]
        ops.append(_duality_op(text, phi, words))
    rng.shuffle(ops)
    return Workload(ops, limit_s=20.0)


def _duality_op(text, phi, words):
    def run(tr):
        psi = tr.call("formula.dualize", dualize, phi, AB)
        b_aut = tr.call("translate.ltl_to_b", ltl_to_b, phi, AB)
        s_aut = tr.call("translate.nltl_to_s", nltl_to_s, psi, AB)
        rows = [(u, evaluate(tr, b_aut, s_aut, phi, psi, u)) for u in words]
        return b_aut, s_aut, rows

    def summary(out):
        b_aut, s_aut, rows = out
        counts = automaton_counts(b_aut, s_aut)
        counts["automata.letters"] = 2 * sum(len(u) for u in words)
        return automaton_text(b_aut) + automaton_text(s_aut) + rows_text(rows), counts

    return Op(text, run, lambda out: check_values(text, out[2]), summary)


# --- long-words -----------------------------------------------------------------


def setup_long_words(seed, scale, tracer):
    """One op per (corpus formula, long word): both evaluators and both
    semantics; the automata are compiled here, before timing. Each formula
    gets one word of each length, half a's and half b's: values, and with
    them the threshold searches, grow with the letter counts, so seeds vary
    only the order of the letters."""
    lengths = (40, 46, 52, 58) if scale == "full" else (12,)
    rng = random.Random(seed)
    ops = []
    compiled = []
    for text in CORPUS_TEXTS + [ROADMAP_CASE]:
        phi = tracer.call("formula.parse", parse, text, AB)
        psi = tracer.call("formula.dualize", dualize, phi, AB)
        b_aut = tracer.call("translate.ltl_to_b", ltl_to_b, phi, AB)
        s_aut = tracer.call("translate.nltl_to_s", nltl_to_s, psi, AB)
        compiled += [b_aut, s_aut]
        for length in lengths:
            if text == ROADMAP_CASE:
                u = "ab" * (length // 2)
            else:
                letters = list("ab" * (length // 2))
                rng.shuffle(letters)
                u = "".join(letters)
            ops.append(_long_word_op(text, phi, psi, b_aut, s_aut, u))
    rng.shuffle(ops)
    return Workload(ops, limit_s=20.0, compiled=compiled)


def _long_word_op(text, phi, psi, b_aut, s_aut, u):
    def run(tr):
        return evaluate(tr, b_aut, s_aut, phi, psi, u)

    def summary(out):
        return rows_text([(u, out)]), {"automata.letters": 2 * len(u)}

    return Op("%s on %s" % (text, u), run,
              lambda out: check_values(text, [(u, out)]), summary)


# --- boundedness -------------------------------------------------------------------

# Known verdicts of the fixtures: True means bounded.
FIXTURE_VERDICTS = {"count-letter-s.aut": False, "blocks-s.aut": False}
SAMPLE_VERDICTS = (True, False)  # the two formulae of bounded-sample.ltl
PUMPS = (1, 2, 3)


def read_formula_file(path):
    """Formulae of a .ltl fixture: an `alphabet` line, then one per line."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip() and not ln.startswith("#")]
    if not lines or not lines[0].startswith("alphabet "):
        raise ValueError("%s: missing alphabet line" % path)
    return lines[1:]


def setup_boundedness(seed, scale, tracer, fixtures):
    """Two ops per S-automaton, one per boundedness procedure."""
    draws = 3000 if scale == "full" else 120
    automata = []  # (name, automaton, known verdict or None)
    for text in formula_population(draws, 2):
        phi = parse_checked(tracer, text)
        psi = tracer.call("formula.dualize", dualize, phi, AB)
        # an infinite value on the empty word decides both procedures at once
        if tracer.call("semantics.sem_sup", sem_sup, psi, "") == INF:
            continue
        aut = tracer.call("translate.nltl_to_s", nltl_to_s, psi, AB)
        automata.append((text, aut, None))
    for name, verdict in FIXTURE_VERDICTS.items():
        aut = tracer.call("automata.load_automaton", load_automaton,
                          os.path.join(fixtures, name))
        automata.append((name, aut, verdict))
    sample = read_formula_file(os.path.join(fixtures, "bounded-sample.ltl"))
    for text, verdict in zip(sample, SAMPLE_VERDICTS):
        phi = tracer.call("formula.parse", parse, text, AB)
        psi = tracer.call("formula.dualize", dualize, phi, AB)
        aut = tracer.call("translate.nltl_to_s", nltl_to_s, psi, AB)
        automata.append((text, aut, verdict))
    ops = []
    for name, aut, verdict in automata:
        ops.append(_onthefly_op(name, aut, verdict))
        ops.append(_closure_op(name, aut, verdict))
    random.Random(seed).shuffle(ops)

    def agree(summaries):
        for name, _, _ in automata:
            fly = summaries.get("onthefly " + name)
            closure = summaries.get("closure " + name)
            if fly is not None and closure is not None and fly != closure:
                raise Mismatch("bounded_onthefly says %s, run_semigroup_closure "
                               "says %s on %s" % (fly, closure, name))

    return Workload(ops, limit_s=10.0, final_check=agree,
                    compiled=[aut for _, aut, _ in automata])


def _verdict(bounded):
    return "bounded" if bounded else "unbounded"


def _check_known(name, bounded, verdict):
    if verdict is not None and bounded != verdict:
        raise Mismatch("%s is %s, expected %s" % (name, _verdict(bounded), _verdict(verdict)))


def _onthefly_op(name, aut, verdict):
    def check(res):
        _check_known(name, res.bounded, verdict)
        if res.bounded:
            return
        if res.script is None:
            raise Mismatch("no witness for unbounded %s" % name)
        for n in PUMPS:
            u = "".join(witness_word(res.script, n))
            if not eval_s(aut, u) >= n:
                raise Mismatch("witness of %s pumped %d times (%r) has eval_s %s < %d"
                               % (name, n, u, fmt(eval_s(aut, u)), n))

    def summary(res):
        letters = 0 if res.bounded else len(witness_word(res.script, 1))
        return _verdict(res.bounded), {"bounded.witness_letters": letters}

    return Op("onthefly " + name, lambda tr: tr.call(
        "bounded.bounded_onthefly", bounded_onthefly, aut), check, summary,
        kind="bounded.bounded_onthefly")


def _closure_op(name, aut, verdict):
    def summary(out):
        elements, unbounded = out
        return (_verdict(not unbounded),
                {"bounded.run_semigroup_closure.elements": len(elements)})

    return Op("closure " + name, lambda tr: tr.call(
        "bounded.run_semigroup_closure", run_semigroup_closure, aut),
        lambda out: _check_known(name, not out[1], verdict), summary,
        kind="bounded.run_semigroup_closure")


# --- recognition ------------------------------------------------------------------


def setup_recognition(seed, scale, tracer, fixtures):
    """recognize on the two fixtures, then minimisation and definability of
    the fixtures and of counter-free formulae."""
    per_length, parity_words, classical = (50, 20, 60) if scale == "full" else (2, 3, 3)
    rng = random.Random(seed)
    _, counting = tracer.call("semigroup.load_semigroup", load_semigroup,
                              os.path.join(fixtures, "counting.sg"))
    _, parity = tracer.call("semigroup.load_semigroup", load_semigroup,
                            os.path.join(fixtures, "parity.sg"))
    counting = Recognizer(counting.semigroup, counting.h, counting.ideal, height=9)
    ops = []
    for length in range(6, 11):
        for j in range(per_length):
            # recognize scans thresholds up to |u|_a, so the a-counts are
            # spread evenly and seeds vary only where the a's are
            a_count = j % (length + 1)
            letters = list("a" * a_count + "b" * (length - a_count))
            rng.shuffle(letters)
            u = "".join(letters)
            ops.append(_recognize_op("counting.sg", counting, u, u.count("a")))
    for _ in range(parity_words):
        n = rng.randint(4, 14)
        ops.append(_recognize_op("parity.sg", parity, "a" * n, n // 2 if n % 2 == 0 else INF))
    ops.append(_minimize_op("counting.sg", counting, 3, True))
    ops.append(_minimize_op("parity.sg", parity, 4, False))
    texts = []
    while len(texts) < classical:
        phi = random_formula(rng, 3, COUNTER_FREE_KINDS)
        text = render(phi)
        if operator_counts(phi)[1] >= 1 and text not in texts:
            texts.append(text)
    compiled = []
    for text in texts:
        aut = tracer.call("translate.ltl_to_b", ltl_to_b, parse_checked(tracer, text), AB)
        compiled.append(aut)
        ops.append(_classical_op(text, aut))
    rng.shuffle(ops)
    return Workload(ops, limit_s=20.0, compiled=compiled)


def _recognize_op(fixture, rec, u, expected):
    def check(value):
        if value != expected:
            raise Mismatch("recognize(%s, %r) = %s, expected %s"
                           % (fixture, u, fmt(value), fmt(expected)))

    return Op("%s %s" % (fixture, u), lambda tr: tr.call(
        "semigroup.recognize", recognize, rec, u), check,
        lambda value: (fmt(value), {"semigroup.recognize.letters": len(u)}),
        kind="semigroup.recognize")


def _quotient_summary(quotient, definable):
    q = quotient.recognizer
    return ("%d %s %s" % (len(quotient.classes), definable, dumps_semigroup(q.semigroup, q)),
            {"minimize.syntactic_quotient.classes": len(quotient.classes)})


def _minimize_op(fixture, rec, classes, definable):
    def run(tr):
        return (tr.call("minimize.syntactic_quotient", syntactic_quotient, rec),
                tr.call("minimize.is_ltl_definable", is_ltl_definable, rec))

    def check(out):
        quotient, got = out
        if len(quotient.classes) != classes or got != definable:
            raise Mismatch("%s: %d classes, definable %s; expected %d, %s"
                           % (fixture, len(quotient.classes), got, classes, definable))

    return Op("minimize " + fixture, run, check, lambda out: _quotient_summary(*out))


def _classical_op(text, aut):
    def run(tr):
        rec = tr.call("classical.language_recognizer", language_recognizer, aut)
        return (rec,
                tr.call("minimize.syntactic_quotient", syntactic_quotient, rec),
                tr.call("minimize.is_ltl_definable", is_ltl_definable, rec))

    def check(out):
        if not out[2]:
            raise Mismatch("counter-free formula %r judged not LTL-definable" % text)

    def summary(out):
        rec, quotient, definable = out
        text_, counts = _quotient_summary(quotient, definable)
        counts["classical.language_recognizer.elements"] = len(rec.semigroup.elements)
        return text_, counts

    return Op("classical " + text, run, check, summary)


def build(name, seed, scale, tracer, fixtures):
    if name == "duality":
        return setup_duality(seed, scale, tracer)
    if name == "long-words":
        return setup_long_words(seed, scale, tracer)
    if name == "boundedness":
        return setup_boundedness(seed, scale, tracer, fixtures)
    if name == "recognition":
        return setup_recognition(seed, scale, tracer, fixtures)
    raise ValueError("unknown workload %r" % name)
