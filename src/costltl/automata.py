"""Cost-automaton model, exact evaluation for both polarities, contraction.

Transitions carry one action sequence per counter (a translated automaton
composes several reduction steps into one letter transition). Accepting exits
record the trailing reduction sequences a run may take after the last letter;
hand-written automata have a single empty exit on each final state. The empty
word is valued like any other word, by the exits of the initial states applied
from zero counters, unless `epsilon_value` is set (translated automata).
"""

import operator
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

from .core import (FORMAT_HEADER, INF, Alphabet, check_writable, reach, read_fields,
                   read_int)
from .actions import contract_max

B_TOKENS = ("e", "ic", "r")
S_TOKENS = ("e", "i", "r", "cr")


@dataclass(frozen=True)
class CostAutomaton:
    """A B- or S-automaton. It checks itself when it is built, by the
    constructor, dataclasses.replace or the loader alike: ValueError
    "invalid automaton: ..." names every fault validate finds, so every
    instance is one the evaluators and searches can read."""

    kind: str  # "B" or "S"
    alphabet: Alphabet
    states: tuple
    initial: frozenset
    final: frozenset
    counters: int
    # (src, letter, actions, dst); actions = tuple per counter of token tuple
    transitions: tuple
    # state -> tuple of exit options, each an actions tuple as above
    exits: dict = None
    epsilon_value: object = None

    @cached_property
    def _compiled(self):
        # built on the first evaluation and kept; not a field, so ==,
        # replace and the file format ignore it
        return _compile(self)

    def __post_init__(self):
        if self.exits is None:
            empty = tuple(() for _ in range(self.counters))
            object.__setattr__(self, "exits", {q: (empty,) for q in self.final})
        diags = validate(self)
        if diags:
            raise ValueError("invalid automaton: " + "; ".join(diags))


def validate(aut):
    """The faults of aut, one line each, in no hash order: kind, counters,
    states (sorted by name), transitions, exits, tokens of the other polarity
    (each distinct action tuple of the transitions, then of the exits, once),
    final states with no exit, then the empty word's value. Building a
    CostAutomaton runs it: [] on every one."""
    diags = []
    states = set(aut.states)
    letters = aut.alphabet.letters
    tokens = B_TOKENS if aut.kind == "B" else S_TOKENS
    if aut.kind not in ("B", "S"):
        diags.append("unknown kind %r" % (aut.kind,))
    if aut.counters < 0:
        diags.append("negative number of counters %d" % aut.counters)
    if len(states) != len(aut.states):
        diags.append("repeated state %r"
                     % next(q for q in aut.states if aut.states.count(q) > 1))
    for q in sorted(aut.initial | aut.final, key=str):
        if q not in states:
            diags.append("undeclared state %r" % (q,))
    for src, letter, actions, dst in aut.transitions:
        if src not in states or dst not in states:
            diags.append("dangling transition %r -> %r" % (src, dst))
        if letter not in letters:
            diags.append("letter %r outside alphabet" % (letter,))
        if len(actions) != aut.counters:
            diags.append("transition %r -%s-> %r has %d action sequences, expected %d"
                         % (src, letter, dst, len(actions), aut.counters))
    for q, options in aut.exits.items():
        if q not in aut.final:
            diags.append("exit on non-final state %r" % (q,))
        for actions in options:
            if len(actions) != aut.counters:
                diags.append("exit on %r has wrong counter arity" % (q,))
    steps = [*dict.fromkeys(t[2] for t in aut.transitions),
             *dict.fromkeys(a for options in aut.exits.values() for a in options)]
    diags += ["token %r invalid for a %s-automaton" % (a, aut.kind)
              for actions in steps for seq in actions for a in seq if a not in tokens]
    for q in sorted(aut.final, key=str):
        if q not in aut.exits:
            diags.append("final state %r has no exit" % (q,))
    if aut.epsilon_value is not None and aut.epsilon_value < 0:
        diags.append("negative epsilon value %s" % (aut.epsilon_value,))
    return diags


def eval_b(aut, u):
    """inf over accepting runs of the max checked counter value."""
    if aut.kind != "B":
        raise ValueError("eval_b needs a B-automaton")
    return _eval(aut, u)


def eval_s(aut, u):
    """sup over accepting runs of the min checked counter value."""
    if aut.kind != "S":
        raise ValueError("eval_s needs an S-automaton")
    return _eval(aut, u)


# A run's configuration is one flat tuple (value, c1, ..., ck): its value so
# far, the greatest checked value for B, which starts at 0, and the least for
# S, which starts at INF, then its counters. Its final value only grows (B) or
# shrinks (S) with every component, so a configuration that is at least as
# good as another in every component makes the other redundant.
_START = {"B": 0, "S": INF}
_AT_LEAST_AS_GOOD = {"B": operator.le, "S": operator.ge}


def _start(kind, counters):
    return (_START[kind],) + (0,) * counters


# Action tuples recur across transitions and automata: the 600 automata of
# the duality workload hold 223 distinct ones.
@lru_cache(maxsize=4096)
def _program(actions):
    """The step program of an action tuple: its (slot, token) pairs in
    order, slot γ+1 for counter γ (slot 0 is the run value), e dropped."""
    return tuple((gamma + 1, a) for gamma, seq in enumerate(actions)
                 for a in seq if a != "e")


def _step(config, program):
    """The configuration after a step program. ic raises a B value to the
    count it checks and cr lowers an S value to the count it checks. i stops
    at the S value: a check at or above it cannot lower the value, so the cap
    loses nothing."""
    c = list(config)
    for slot, a in program:
        if a == "ic":
            n = c[slot] = c[slot] + 1
            if n > c[0]:
                c[0] = n
        elif a == "i":
            n = c[slot] + 1
            c[slot] = n if n < c[0] else c[0]
        elif a == "r":
            c[slot] = 0
        else:  # cr
            if c[slot] < c[0]:
                c[0] = c[slot]
            c[slot] = 0
    return tuple(c)


def _compile(aut):
    """The index _eval reads: step[q, letter] maps each distinct step program
    of the transitions of q on that letter to their destinations, and
    exits[q] lists the exit programs of q."""
    step = {}
    for src, a, actions, dst in aut.transitions:
        step.setdefault((src, a), {}).setdefault(_program(actions), []).append(dst)
    exits = {q: list(map(_program, options)) for q, options in aut.exits.items()}
    return step, exits


_NO_STEPS = {}


def _eval(aut, u):
    """One pass over u keeping, per state, the Pareto-best configurations of
    the runs that reach it, then the fold of the exits; on the empty word the
    exits of the initial states apply to the start configuration, unless
    epsilon_value is set."""
    aut.alphabet.check_word(u)
    if not u and aut.epsilon_value is not None:
        return aut.epsilon_value
    step, exits = aut._compiled
    layer = {q: [_start(aut.kind, aut.counters)] for q in aut.initial}
    for a in u:
        nxt = {}
        for q, front in layer.items():
            for program, dsts in step.get((q, a), _NO_STEPS).items():
                succ = [_step(c, program) for c in front] if program else front
                for dst in dsts:
                    target = nxt.get(dst)
                    if target is None:
                        nxt[dst] = set(succ)
                    else:
                        target.update(succ)
        layer = {q: _antichain(configs, aut.kind) for q, configs in nxt.items()}
    return _best(aut.kind, [_step(c, program)[0] for q, front in layer.items()
                            for program in exits.get(q, ()) for c in front])


def _antichain(configs, kind):
    """The configurations no other one is at least as good as, in one sorted
    pass: in ascending order for B (descending for S) a configuration that is
    at least as good as another sorts before it, so each is checked only
    against those already kept, the latest first. One whose last component
    beats that of every kept configuration is kept without a check."""
    if len(configs) == 1:
        return list(configs)
    good = _AT_LEAST_AS_GOOD[kind]
    kept = []
    last = None  # the best last component of a kept configuration
    for c in sorted(configs, reverse=kind == "S"):
        if last is None or not good(last, c[-1]):
            last = c[-1]
        else:
            for k in reversed(kept):
                if all(map(good, k, c)):
                    break
            else:
                kept.append(c)
            continue
        kept.append(c)
    return kept


def _best(kind, values):
    """The least run value for B, the greatest for S; INF (B) or 0 (S) when
    there is no run."""
    return min(values, default=INF) if kind == "B" else max(values, default=0)


def _runs_value(kind, counters, runs):
    """Value of the best of runs, each an action tuple taken from zero
    counters: the least over runs of the greatest checked value for B, the
    greatest over runs of the least checked value for S."""
    start = _start(kind, counters)
    return _best(kind, [_step(start, _program(actions))[0] for actions in runs])


def contract_b(aut):
    """Replace every action sequence by its maximal atomic action.

    Returns (contracted automaton, K) where K is the maximal value a single
    sequence can check starting from 0; the contracted automaton computes the
    original function up to the correction alpha(n) = 2Kn + 2K.
    """
    if aut.kind != "B":
        raise ValueError("contract_b needs a B-automaton")
    steps = [actions for _, _, actions, _ in aut.transitions]
    steps += [actions for options in aut.exits.values() for actions in options]
    K = max((_runs_value("B", aut.counters, [actions]) for actions in steps), default=0)

    def contract(actions):
        return tuple((contract_max(seq),) for seq in actions)

    transitions = tuple((src, a, contract(actions), dst)
                        for src, a, actions, dst in aut.transitions)
    exits = {q: tuple(contract(actions) for actions in options)
             for q, options in aut.exits.items()}
    return replace(aut, transitions=transitions, exits=exits), K


def trim(aut):
    """Restrict to states both reachable and co-reachable; exact for runs."""
    fwd = {q: [] for q in aut.states}
    bwd = {q: [] for q in aut.states}
    for src, _, _, dst in aut.transitions:
        fwd[src].append(dst)
        bwd[dst].append(src)
    keep = set(reach(aut.initial, fwd.__getitem__)) & set(reach(aut.final, bwd.__getitem__))
    return replace(
        aut,
        states=tuple(q for q in aut.states if q in keep),
        initial=aut.initial & keep,
        final=aut.final & keep,
        transitions=tuple(t for t in aut.transitions if t[0] in keep and t[3] in keep),
        exits={q: o for q, o in aut.exits.items() if q in keep},
    )


def rename_states(aut):
    """The automaton with its states renamed q0, q1, ... in state order."""
    name = {q: "q%d" % i for i, q in enumerate(aut.states)}
    return replace(
        aut,
        states=tuple(name[q] for q in aut.states),
        initial=frozenset(name[q] for q in aut.initial),
        final=frozenset(name[q] for q in aut.final),
        transitions=tuple((name[s], a, act, name[d]) for s, a, act, d in aut.transitions),
        exits={name[q]: o for q, o in aut.exits.items()},
    )


# --- file format -----------------------------------------------------------


def _fmt_actions(actions):
    if not actions:
        return ""
    return " | ".join(" ".join(seq) if seq else "-" for seq in actions)


def _parse_actions(text):
    """The token tuple of each |-separated part, () for - or a blank one."""
    text = text.strip()
    if not text:
        return ()
    return tuple(() if toks == ["-"] else tuple(toks)
                 for toks in (p.split() for p in text.split("|")))


def dumps_automaton(aut):
    check_writable("state", aut.states, "; rename_states gives writable names")
    lines = [FORMAT_HEADER, "automaton", "kind %s" % aut.kind,
             "alphabet %s" % "".join(aut.alphabet.letters),
             "states %s" % " ".join(str(q) for q in aut.states),
             "initial %s" % " ".join(str(q) for q in sorted(aut.initial, key=str)),
             "final %s" % " ".join(str(q) for q in sorted(aut.final, key=str)),
             "counters %d" % aut.counters]
    if aut.epsilon_value is not None:
        lines.append("epsilon %s" % ("inf" if aut.epsilon_value == INF else aut.epsilon_value))
    for src, letter, actions, dst in aut.transitions:
        lines.append("trans %s %s %s : %s" % (src, letter, dst, _fmt_actions(actions)))
    empty = tuple(() for _ in range(aut.counters))
    for q in aut.states:
        options = aut.exits.get(q, ())
        if options and tuple(options) != (empty,):
            for actions in options:
                lines.append("exit %s : %s" % (q, _fmt_actions(actions)))
    return "\n".join(lines) + "\n"


def loads_automaton(text):
    """The automaton of a file's text: ValueError on a malformed line, and
    from the CostAutomaton, which checks itself, on each fault it describes."""
    fields = read_fields(text, "automaton",
                         once=("kind", "alphabet", "states", "initial", "final",
                               "counters", "epsilon"),
                         many=("trans", "exit"))
    for req in ("kind", "alphabet", "states", "initial", "final", "counters"):
        if req not in fields:
            raise ValueError("missing field %r" % req)
    alphabet = Alphabet(fields["alphabet"])
    states = tuple(fields["states"].split())
    counters = read_int("counters", fields["counters"])
    trans = []
    for rest in fields["trans"]:
        head, _, actions = rest.partition(":")
        parts = head.split()
        if len(parts) != 3:
            raise ValueError("bad transition %r" % rest)
        src, letter, dst = parts
        trans.append((src, letter, _parse_actions(actions), dst))
    final = fields["final"].split()  # a list: the exits below follow file order
    custom = {}  # state -> its exit lines, which replace the empty exit
    for rest in fields["exit"]:
        head, _, actions = rest.partition(":")
        custom.setdefault(head.strip(), []).append(_parse_actions(actions))
    empty = tuple(() for _ in range(counters))
    epsilon = None
    if "epsilon" in fields:
        epsilon = INF if fields["epsilon"] == "inf" else read_int("epsilon", fields["epsilon"])
    return CostAutomaton(
        kind=fields["kind"],
        alphabet=alphabet,
        states=states,
        initial=frozenset(fields["initial"].split()),
        final=frozenset(final),
        counters=counters,
        transitions=tuple(trans),
        exits={q: tuple(custom.get(q, [empty])) for q in dict.fromkeys(final + list(custom))},
        epsilon_value=epsilon,
    )


def load_automaton(path):
    with open(path, encoding="utf-8") as fh:
        return loads_automaton(fh.read())


def save_automaton(aut, path):
    text = dumps_automaton(aut)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
