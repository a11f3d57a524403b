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

from .core import FORMAT_HEADER, INF, Alphabet, read_fields
from .actions import contract_max

B_TOKENS = ("e", "ic", "r")
S_TOKENS = ("e", "i", "r", "cr")


@dataclass(frozen=True)
class CostAutomaton:
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

    def __post_init__(self):
        if self.exits is None:
            empty = tuple(() for _ in range(self.counters))
            object.__setattr__(self, "exits", {q: (empty,) for q in self.final})


def validate(aut):
    diags = []
    states = set(aut.states)
    tokens = B_TOKENS if aut.kind == "B" else S_TOKENS
    if aut.kind not in ("B", "S"):
        diags.append("unknown kind %r" % (aut.kind,))
    if len(states) != len(aut.states):
        diags.append("repeated state %r"
                     % next(q for q in aut.states if aut.states.count(q) > 1))
    for q in aut.initial | aut.final:
        if q not in states:
            diags.append("undeclared state %r" % (q,))
    for src, letter, actions, dst in aut.transitions:
        if src not in states or dst not in states:
            diags.append("dangling transition %r -> %r" % (src, dst))
        if letter not in aut.alphabet:
            diags.append("letter %r outside alphabet" % (letter,))
        if len(actions) != aut.counters:
            diags.append("transition %r -%s-> %r has %d action sequences, expected %d"
                         % (src, letter, dst, len(actions), aut.counters))
        for seq in actions:
            for a in seq:
                if a not in tokens:
                    diags.append("token %r invalid for a %s-automaton" % (a, aut.kind))
    for q, options in aut.exits.items():
        if q not in aut.final:
            diags.append("exit on non-final state %r" % (q,))
        for actions in options:
            if len(actions) != aut.counters:
                diags.append("exit on %r has wrong counter arity" % (q,))
    for q in aut.final:
        if q not in aut.exits:
            diags.append("final state %r has no exit" % (q,))
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


# A run carries its counters and its value so far: the greatest checked value
# for B, which starts at 0, and the least for S, which starts at INF. Its final
# value only grows (B) or shrinks (S) with both, so a configuration that is at
# least as good as another in every component makes the other redundant.
_START = {"B": 0, "S": INF}
_AT_LEAST_AS_GOOD = {"B": operator.le, "S": operator.ge}


def _eval(aut, u):
    """One pass over u keeping, per state, the Pareto-best (counters, value)
    pairs of the runs that reach it, then the fold of the exits; on the empty
    word the exits of the initial states apply to zero counters, unless
    epsilon_value is set."""
    aut.alphabet.check_word(u)
    if not u and aut.epsilon_value is not None:
        return aut.epsilon_value
    out = {}  # (state, letter) -> transitions
    for t in aut.transitions:
        out.setdefault((t[0], t[1]), []).append(t)
    good = _AT_LEAST_AS_GOOD[aut.kind]
    layer = {q: [((0,) * aut.counters, _START[aut.kind])] for q in aut.initial}
    for a in u:
        nxt = {}
        for q, front in layer.items():
            for _, _, actions, dst in out.get((q, a), ()):
                target = nxt.setdefault(dst, [])
                for cs, v in front:
                    _add_pareto(target, _apply(cs, actions, v), good)
        layer = nxt
    return _best(aut.kind, [_apply(cs, actions, v)[1]
                            for q, front in layer.items() for cs, v in front
                            for actions in aut.exits.get(q, ())])


def _add_pareto(front, config, good):
    """Add config to front, an antichain of (counters, value) pairs, unless a
    member is at least as good; drop the members config is at least as good as."""
    cs, v = config
    for cs2, v2 in front:
        if good(v2, v) and all(map(good, cs2, cs)):
            return
    front[:] = [(cs2, v2) for cs2, v2 in front
                if not (good(v, v2) and all(map(good, cs, cs2)))]
    front.append(config)


def _best(kind, values):
    """The least run value for B, the greatest for S; INF (B) or 0 (S) when
    there is no run."""
    return min(values, default=INF) if kind == "B" else max(values, default=0)


def _runs_value(kind, counters, runs):
    """Value of the best of runs, each an action tuple taken from zero
    counters: the least over runs of the greatest checked value for B, the
    greatest over runs of the least checked value for S."""
    zero = (0,) * counters
    return _best(kind, [_apply(zero, actions, _START[kind])[1] for actions in runs])


def _apply(counters, actions, value):
    """Counters and run value after one action sequence per counter. ic
    raises a B value to the count it checks and cr lowers an S value to the
    count it checks. i stops at the S value: a check at or above it cannot
    lower the value, so the cap loses nothing."""
    cs = list(counters)
    for gamma, seq in enumerate(actions):
        for a in seq:
            if a == "ic":
                cs[gamma] += 1
                value = max(value, cs[gamma])
            elif a == "i":
                cs[gamma] = min(cs[gamma] + 1, value)
            elif a == "r":
                cs[gamma] = 0
            elif a == "cr":
                value = min(value, cs[gamma])
                cs[gamma] = 0
    return tuple(cs), value


def eval_s_at_least(aut, u, n):
    """True iff eval_s(aut, u) >= n."""
    return eval_s(aut, u) >= n


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
    fwd = {q: set() for q in aut.states}
    bwd = {q: set() for q in aut.states}
    for src, _, _, dst in aut.transitions:
        fwd[src].add(dst)
        bwd[dst].add(src)

    def closure(seed, edges):
        seen = set(seed)
        stack = list(seed)
        while stack:
            for q in edges[stack.pop()]:
                if q not in seen:
                    seen.add(q)
                    stack.append(q)
        return seen

    reach = closure(aut.initial, fwd)
    co = closure(aut.final, bwd)
    keep = reach & co
    return replace(
        aut,
        states=tuple(q for q in aut.states if q in keep),
        initial=aut.initial & keep,
        final=aut.final & keep,
        transitions=tuple(t for t in aut.transitions if t[0] in keep and t[3] in keep),
        exits={q: o for q, o in aut.exits.items() if q in keep},
    )


def rename_states(aut):
    """Rename states to q0, q1, ... in state order (translated automata have
    set-valued state names that do not serialize)."""
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


def _parse_actions(text, counters):
    text = text.strip()
    if counters == 0:
        if text:
            raise ValueError("actions given for a counterless automaton")
        return ()
    parts = text.split("|") if text else []
    if len(parts) != counters:
        raise ValueError("expected %d action sequences, got %r" % (counters, text))
    out = []
    for p in parts:
        toks = p.split()
        out.append(() if toks == ["-"] or not toks else tuple(toks))
    return tuple(out)


def dumps_automaton(aut):
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
    fields = read_fields(text, "automaton",
                         once=("kind", "alphabet", "states", "initial", "final",
                               "counters", "epsilon"),
                         many=("trans", "exit"))
    for req in ("kind", "alphabet", "states", "initial", "final", "counters"):
        if req not in fields:
            raise ValueError("missing field %r" % req)
    alphabet = Alphabet(fields["alphabet"])
    states = tuple(fields["states"].split())
    counters = int(fields["counters"])
    trans = []
    for rest in fields["trans"]:
        head, _, actions = rest.partition(":")
        parts = head.split()
        if len(parts) != 3:
            raise ValueError("bad transition %r" % rest)
        src, letter, dst = parts
        trans.append((src, letter, _parse_actions(actions, counters), dst))
    final = frozenset(fields["final"].split())
    custom = {}  # final state -> its exit lines, which replace the empty exit
    for rest in fields["exit"]:
        head, _, actions = rest.partition(":")
        q = head.strip()
        if q not in final:
            raise ValueError("exit on non-final state %r" % q)
        custom.setdefault(q, []).append(_parse_actions(actions, counters))
    empty = tuple(() for _ in range(counters))
    epsilon = None
    if "epsilon" in fields:
        epsilon = INF if fields["epsilon"] == "inf" else int(fields["epsilon"])
        if epsilon < 0:
            raise ValueError("negative epsilon value %d" % epsilon)
    aut = CostAutomaton(
        kind=fields["kind"],
        alphabet=alphabet,
        states=states,
        initial=frozenset(fields["initial"].split()),
        final=final,
        counters=counters,
        transitions=tuple(trans),
        exits={q: tuple(custom.get(q, [empty])) for q in final},
        epsilon_value=epsilon,
    )
    diags = validate(aut)
    if diags:
        raise ValueError("invalid automaton: " + "; ".join(diags))
    return aut


def load_automaton(path):
    with open(path, encoding="utf-8") as fh:
        return loads_automaton(fh.read())


def save_automaton(aut, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_automaton(aut))
