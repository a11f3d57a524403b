"""Cost-automaton model, exact evaluation for both polarities, contraction.

Transitions carry one action sequence per counter (a translated automaton
composes several reduction steps into one letter transition). Accepting exits
record the trailing reduction sequences a run may take after the last letter;
hand-written automata have a single empty exit on each final state. The empty
word is valued by `epsilon_value` when set (translated automata), otherwise by
the initial/final overlap rule.
"""

from dataclasses import dataclass, replace

from .core import FORMAT_HEADER, INF, Alphabet, least, read_fields
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


def _max_increments(steps):
    """Most increments (ic or i) that one sequence of the action tuples makes."""
    counts = [sum(1 for a in seq if a in ("ic", "i")) for actions in steps for seq in actions]
    return max(counts, default=0)


def _steps(aut):
    """The action tuples of every transition and every exit option."""
    steps = [actions for _, _, actions, _ in aut.transitions]
    steps += [actions for options in aut.exits.values() for actions in options]
    return steps


def _outgoing(aut):
    out = {}
    for t in aut.transitions:
        out.setdefault((t[0], t[1]), []).append(t)
    return out


def _has_accepting_run(aut, u):
    out = _outgoing(aut)
    reach = set(aut.initial)
    for a in u:
        reach = {t[3] for q in reach for t in out.get((q, a), ())}
        if not reach:
            return False
    return bool(reach & aut.final)


def _eval_epsilon(aut):
    if aut.epsilon_value is not None:
        return aut.epsilon_value
    accepted = bool(aut.initial & aut.final)
    if aut.kind == "B":
        return 0 if accepted else INF
    return INF if accepted else 0


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


def _eval(aut, u):
    aut.alphabet.check_word(u)
    if not u:
        return _eval_epsilon(aut)
    if not _has_accepting_run(aut, u):
        return INF if aut.kind == "B" else 0
    bound = (len(u) + 1) * _max_increments(_steps(aut))
    return _value(aut.kind, bound, lambda n: _feasible(aut, u, n))


def _value(kind, bound, feasible):
    """A run value from its threshold test, which is monotone in n and exact
    up to bound: for B the least n at which some run checks no value above n,
    for S the greatest n at which some run checks no value below n."""
    if kind == "B":
        return least(feasible, bound)
    if feasible(bound + 1):
        return INF
    return least(lambda n: not feasible(n + 1), bound)


def _runs_value(kind, counters, runs):
    """Value of the best of runs, each an action tuple taken from zero
    counters: the least over runs of the greatest checked value for B, the
    greatest over runs of the least checked value for S."""
    zero = (0,) * counters
    return _value(kind, _max_increments(runs),
                  lambda n: any(_apply(zero, actions, n) is not None for actions in runs))


def _apply(counters, actions, n):
    """Counters after one action sequence per counter at threshold n, or None
    when a check fails: ic fails above n, i saturates at n, cr fails below n."""
    cs = list(counters)
    for gamma, seq in enumerate(actions):
        for a in seq:
            if a == "ic":
                cs[gamma] += 1
                if cs[gamma] > n:
                    return None
            elif a == "i":
                cs[gamma] = min(cs[gamma] + 1, n)
            elif a == "r":
                cs[gamma] = 0
            elif a == "cr":
                if cs[gamma] < n:
                    return None
                cs[gamma] = 0
    return tuple(cs)


def _feasible(aut, u, n):
    """Is there an accepting run on which every check passes at threshold n?"""
    out = _outgoing(aut)
    zero = (0,) * aut.counters
    layer = {(q, zero) for q in aut.initial}
    for a in u:
        nxt = set()
        for q, cs in layer:
            for _, _, actions, dst in out.get((q, a), ()):
                cs2 = _apply(cs, actions, n)
                if cs2 is not None:
                    nxt.add((dst, cs2))
        layer = nxt
        if not layer:
            return False
    for q, cs in layer:
        for actions in aut.exits.get(q, ()):
            if _apply(cs, actions, n) is not None:
                return True
    return False


def eval_s_at_least(aut, u, n):
    """True iff eval_s(aut, u) >= n (threshold check without full search)."""
    if n <= 0:
        return True
    if not u:
        return _eval_epsilon(aut) >= n
    return _feasible(aut, u, n)


def contract_b(aut):
    """Replace every action sequence by its maximal atomic action.

    Returns (contracted automaton, K) where K is the maximal value a single
    sequence can check starting from 0; the contracted automaton computes the
    original function up to the correction alpha(n) = 2Kn + 2K.
    """
    if aut.kind != "B":
        raise ValueError("contract_b needs a B-automaton")
    K = max((_runs_value("B", aut.counters, [actions]) for actions in _steps(aut)), default=0)

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
