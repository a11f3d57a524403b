"""Boundedness decision for S-automata and for formulae.

Two procedures are provided. The on-the-fly method guesses a path with nested
cycles in the automaton, keeping only a bounded stack of (composed action,
state) frames; closing a cycle stabilizes its composed action. It admits
each configuration once, under a number, and drops those that cannot reach
the goal or that a sibling with a smaller top action covers. When the
function is unbounded it returns a witness script: a tuple of sharp-expression
factors, one letter per step and one omega-sharp per closed cycle. Both
methods search only words with a letter: eval_s(aut, "") alone values the
empty word, and the script () means that value is INF. The closure method
builds the reachable part of the run semigroup: elements are sets of
(source, composed action, target) triples closed toward worse actions and
stored as minimal antichains, combined by product. An idempotent E stabilizes
to E·L·E, where L holds E's loops (q, x, q) with x stabilized. Every element
is a product of generators, the letter images and the stabilizations not
found before, so the closure multiplies each element on the right by the
generators only (`core.saturate`). With no counters the same closure is the
transition semigroup of the automaton, and `language_recognizer` turns it
into a recognizer of the regular language.

The closure stores an element in the matrix form of Colcombet's
construction: a tuple of one int per state, in which bit sigma * n + r of
row p stands for the triple (p, sigma, r), n the number of states and sigma
the number of a composed action. Row p of E·F is the OR, over each
(sigma, q) of row p of E, of row q of F with each action scaled by sigma on
the left, keeping for each target only its least actions; each search
memoises these steps (`_Rows`).

A composed action is one semigroup element per counter. Both methods read
the automaton alike. A loop's action is stabilized with omega-sharp, (x^omega)#
on each counter. A run that reaches state q with action sigma witnesses
unboundedness when sigma followed by some exit action of q avoids cr, crw
and bot on every counter (`_accepts`): each counter is then either never
checked or only checked after a stabilized block of increments, so pumping
the cycles n times yields value at least n.

Each call interns the composed actions it meets as small integers (`_Actions`)
and drops the table when it returns: the product and order of two actions and
the omega-sharp and good test of one are then each a memoised lookup, not a
walk over the counters.
"""

from dataclasses import dataclass
from functools import lru_cache, partial, reduce

from .core import INF, _bits, saturate
from .actions import S_ACTIONS, vec_product, vec_leq
from .automata import S_TOKENS, eval_s
from .formula import is_ltl, dualize
from .semigroup import (StabSemigroup, Recognizer, ELetter, ECat, EOmegaSharp,
                        omega_sharp, instantiate)
from .translate import nltl_to_s

GOOD = frozenset(("w", "i", "e", "r"))

MAX_ONTHEFLY_CONFIGS = 500000  # bounded_onthefly gives up past this many
MAX_CLOSURE_ELEMENTS = 200000  # run_semigroup_closure gives up past this many


# Both searches compose the actions of every transition and exit on each call.
@lru_cache(maxsize=4096)
def compose_actions(actions):
    """Composed semigroup element per counter of an action-sequence tuple."""
    vec = []
    for seq in actions:
        x = S_ACTIONS.neutral
        for tok in seq:
            if tok not in S_TOKENS:
                raise ValueError("unknown atomic S action %r" % (tok,))
            x = S_ACTIONS.mul(x, tok)
        vec.append(x)
    return tuple(vec)


class _Memo(dict):
    """A dict that computes a missing value as fn(key) and keeps it."""

    __slots__ = ("fn",)

    def __init__(self, fn):
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


class _Actions:
    """The composed actions of one search, numbered 0, 1, ... as they are
    met. ids[vec] is the number of an action, vecs[i] the action numbered i,
    good[i] says whether it avoids cr, crw and bot on every counter and
    live[i] whether it avoids bot. mul[i, j], omega_sharp[i] and leq[i, j]
    are each one dict lookup once computed."""

    __slots__ = ("ids", "vecs", "good", "live", "mul", "leq", "omega_sharp", "neutral")

    def __init__(self, counters):
        vecs, good, live = [], [], []

        def number(vec):
            vecs.append(vec)
            good.append(GOOD.issuperset(vec))
            live.append("bot" not in vec)
            return len(vecs) - 1

        # the tables close over these locals, not over self: no cycle keeps
        # them alive once the search returns
        self.ids = ids = _Memo(number)
        self.vecs, self.good, self.live = vecs, good, live
        self.mul = _Memo(lambda ij: ids[vec_product(vecs[ij[0]], vecs[ij[1]])])
        self.leq = _Memo(lambda ij: vec_leq(vecs[ij[0]], vecs[ij[1]]))
        self.omega_sharp = _Memo(lambda i: ids[
            tuple(omega_sharp(S_ACTIONS, x) for x in vecs[i])])
        self.neutral = ids[(S_ACTIONS.neutral,) * counters]


def _minimal(act, by_key):
    """(key, sigma) for each minimal sigma of each key of by_key, which maps
    keys to their distinct sigmas; a worse action never helps. The order is
    that of insertion into by_key."""
    out = []
    for key, sigmas in by_key.items():
        for sigma in sigmas:
            # a lone sigma, the common case, is minimal
            if len(sigmas) == 1 or not any(other != sigma and act.leq[other, sigma]
                                           for other in sigmas):
                out.append((key, sigma))
    return out


def contracted_edges(aut, act):
    """Letter transitions as (src, sigma, dst, letter) edges, sigma an id of
    act. For each (src, dst) pair only the minimal sigmas are kept; each edge
    remembers one representative letter."""
    by_pair = {}
    for src, a, actions, dst in aut.transitions:
        by_pair.setdefault((src, dst), {}).setdefault(act.ids[compose_actions(actions)], a)
    return [(src, sigma, dst, by_pair[(src, dst)][sigma])
            for (src, dst), sigma in _minimal(act, by_pair)]


def _exit_actions(aut, act):
    """The composed exit actions of each state, as ids of act."""
    return {q: [act.ids[compose_actions(actions)] for actions in options]
            for q, options in aut.exits.items()}


def _accepts(act, accept, sigma, q):
    """sigma followed by one of the composed exit actions that accept lists
    for q is good: a run reaching q with action sigma witnesses
    unboundedness."""
    return any(act.good[act.mul[sigma, x]] for x in accept.get(q, ()))


@dataclass(frozen=True)
class BoundednessResult:
    bounded: bool
    # witness script when unbounded: tuple of sharp-expression factors,
    # ELetter for a step and EOmegaSharp for a closed cycle, () when the
    # empty word has value INF; None when bounded
    script: tuple = None


def witness_word(script, n):
    """Instantiate a witness script, repeating every cycle n times (n >= 1)."""
    return "".join(instantiate(e, 1, n) for e in script)


def bounded_onthefly(aut):
    """Decide boundedness by a breadth-first search over memory
    configurations: stacks of (composed action, state) frames, at most
    |counters| + 2 deep, reached by words with a letter; the script () comes
    only from eval_s(aut, "") == INF. Only a cycle that read a letter closes
    (an empty one re-derives the frame below, or over an initial one the
    empty word), by multiplying the frame below by its omega-sharp. The goal,
    a depth-1 configuration that `_accepts`, is tested before any pruning:
    the first goal met is the first one the breadth-first order would expand.

    Configurations are numbered as they are admitted, and number k is stored
    once as (number of the configuration below, top action, state, depth),
    the number below None at depth 1: a step, a push and a closing each
    build one 4-tuple. A new configuration is dropped when

    - its bottom action is not good: that action only ever gets multiplied
      on the right, and the actions that are not good form a right ideal;
    - its top action holds bot above depth 1: bot absorbs every product and
      is its own omega-sharp, so the frame would pass it down to the bottom.
      This drops a cycle closed over a cr, which has no plain sharp;
    - one admitted with the same configuration below and the same state has
      a top action <= its own (top-frame subsumption). Products and
      omega-sharp are monotone and the good actions are downward closed, so
      the smaller action reaches whatever the larger one reaches, with an
      action no worse. An initial configuration also covers words back at
      its state with an action >= e: they are tested as goals first, and a
      cycle with such an action closes no better than one pass through it.

    MAX_ONTHEFLY_CONFIGS bounds the number of admitted configurations."""
    if aut.kind != "S":
        raise ValueError("boundedness is decided on S-automata")
    if eval_s(aut, "") == INF:
        return BoundednessResult(False, ())
    act = _Actions(aut.counters)
    good, live, start, mul, omega_sharp, leq = (act.good, act.live, act.neutral, act.mul,
                                                act.omega_sharp, act.leq)
    max_depth = aut.counters + 2 if aut.counters else 1  # no counter, no cycle to pump
    out = {}
    for src, sigma, dst, letter in contracted_edges(aut, act):
        out.setdefault(src, []).append((sigma, dst, letter))
    accept = _exit_actions(aut, act)

    def step(top):
        """The frames one step leads to from a top frame, in edge order, each
        with the letter of its first edge."""
        frames = {}
        for sigma, dst, letter in out.get(top[1], ()):
            frames.setdefault((mul[top[0], sigma], dst), letter)
        return frames

    steps = _Memo(step)
    configs = []  # number -> (below, top action, state, depth)
    parent = []  # number -> the number of the configuration first reaching it
    tops = {}  # (below, state) -> the top actions admitted over them
    goal = None
    for q in aut.states:
        if q in aut.initial:
            configs.append((None, start, q, 1))
            parent.append(None)
            tops[None, q] = [start]
    head = 0
    while head < len(configs) and goal is None:
        if len(configs) > MAX_ONTHEFLY_CONFIGS:
            raise RuntimeError("on-the-fly search exceeded %d configurations"
                               % MAX_ONTHEFLY_CONFIGS)
        below, sigma_m, q_m, depth = configs[head]
        succs = [(below, sigma, q, depth) for sigma, q in steps[sigma_m, q_m]]
        if depth < max_depth:
            succs.append((head, start, q_m, depth + 1))  # open a cycle
        if depth > 1:
            lower, sigma_b, q_b, depth_b = configs[below]
            if q_b == q_m and parent[head] != below:  # close it, if it read a letter
                succs.append((lower, mul[sigma_b, omega_sharp[sigma_m]], q_m, depth_b))
        for nxt in succs:
            b, sigma, q, d = nxt
            if not (good[sigma] if d == 1 else live[sigma]):
                continue
            admitted = tops.get((b, q))
            if d == 1 and _accepts(act, accept, sigma, q):
                goal = len(configs)
            elif admitted is None:
                tops[b, q] = [sigma]
            elif sigma in admitted or any(leq[x, sigma] for x in admitted):
                continue
            else:
                admitted.append(sigma)
            parent.append(head)
            configs.append(nxt)
            if goal is not None:
                break
        head += 1
    if goal is None:
        return BoundednessResult(True, None)
    path = [goal]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    path.reverse()
    # a move adds a frame (open), drops one (close) or steps the top one
    stack = [[]]
    for prev, nxt in zip(path, path[1:]):
        _, sigma_p, q_p, depth_p = configs[prev]
        _, sigma_n, q_n, depth_n = configs[nxt]
        if depth_n > depth_p:
            stack.append([])
        elif depth_n < depth_p:
            body = stack.pop()
            stack[-1].append(EOmegaSharp(reduce(ECat, body)))
        else:
            stack[-1].append(ELetter(steps[sigma_p, q_p][sigma_n, q_n]))
    assert len(stack) == 1
    return BoundednessResult(False, tuple(stack[0]))


# --- run-semigroup closure ---------------------------------------------------


class _Rows:
    """The tables of one closure over n states, sigma an id of act:
    scale[sigma, row] is row with each action tau replaced by sigma·tau,
    least[row] keeps of each target only its minimal actions (a worse action
    never helps) and times[F][row] is the row of the product of row by the
    element F. Rows recur: the 132 closures of the boundedness benchmark
    multiply 9,225 nonzero rows, but only 3,868 distinct (row, F) pairs."""

    __slots__ = ("act", "n", "scale", "least", "times")

    def __init__(self, act, n):
        mul = act.mul

        def scale(key):
            sigma, row = key
            out = 0
            for b in _bits(row):
                tau, r = divmod(b, n)
                out |= 1 << (mul[sigma, tau] * n + r)
            return out

        def least(row):
            by_dst = {}
            for b in _bits(row):
                sigma, r = divmod(b, n)
                by_dst.setdefault(r, []).append(sigma)
            out = 0
            for r, sigma in _minimal(act, by_dst):
                out |= 1 << (sigma * n + r)
            return out

        self.act, self.n = act, n
        self.scale, self.least = _Memo(scale), _Memo(least)
        # plain dicts: a lookup in them is quicker than in a _Memo
        self.times = _Memo(lambda F: {})


def _elem_product(rows, E, F):
    """Row p of E·F is times[F][row p of E]: the least actions of the OR,
    over each (sigma, q) of that row, of row q of F scaled by sigma."""
    n, scale, least = rows.n, rows.scale, rows.least
    times = rows.times[F]
    out = []
    for row in E:
        prod = times.get(row)
        if prod is None:
            acc = 0
            for b in _bits(row):
                sigma, q = divmod(b, n)
                if F[q]:
                    acc |= scale[sigma, F[q]]
            prod = times[row] = least[acc]
        out.append(prod)
    return tuple(out)


def _elem_sharp(rows, E):
    """Stabilization E·L·E of an idempotent element, where L holds E's loops
    (q, sigma, q) with each counter's action stabilized as (x^omega)#."""
    n, omega_sharp = rows.n, rows.act.omega_sharp
    loops = []
    for q, row in enumerate(E):
        loop = 0
        for b in _bits(row):
            sigma, r = divmod(b, n)
            if r == q:
                loop |= 1 << (omega_sharp[sigma] * n + q)
        loops.append(loop)
    return _elem_product(rows, _elem_product(rows, E, tuple(loops)), E)


def _elem_unbounded(rows, initial, accept, E):
    """Some triple of E from an initial state (by index) is accepted
    (`_accepts`, with accept keyed by state index)."""
    n, act = rows.n, rows.act
    return any(_accepts(act, accept, *divmod(b, n)) for p in initial for b in _bits(E[p]))


def _run_effects(aut, rows, letters=()):
    """(images, initial, accept): the run-semigroup element of each letter
    with a transition, and of each of letters (the empty element if it has
    none), the indices of the initial states and the composed exit actions
    of each state index."""
    n, ids, least = rows.n, rows.act.ids, rows.least
    index = {q: i for i, q in enumerate(aut.states)}
    images = {a: [0] * n for a in letters}
    for src, a, actions, dst in aut.transitions:
        if a not in images:
            images[a] = [0] * n
        images[a][index[src]] |= 1 << (ids[compose_actions(actions)] * n + index[dst])
    accept = {index[q]: xs for q, xs in _exit_actions(aut, rows.act).items()}
    return ({a: tuple(least[row] for row in E) for a, E in images.items()},
            [index[q] for q in aut.states if q in aut.initial], accept)


def _closure(rows, images):
    """The run-semigroup elements generated by images, in discovery order."""
    return saturate(images.values(), partial(_elem_product, rows), partial(_elem_sharp, rows), [])


def run_semigroup_closure(aut):
    """Saturate the letter images under product and stabilization; returns
    (elements found, unbounded verdict), each element a frozenset of
    (source, composed action, target) triples. The search stops at the
    first element that witnesses unboundedness."""
    if aut.kind != "S":
        raise ValueError("boundedness is decided on S-automata")
    if eval_s(aut, "") == INF:
        return frozenset(), True
    rows = _Rows(_Actions(aut.counters), len(aut.states))
    images, initial, accept = _run_effects(aut, rows)
    found = []
    unbounded = False
    for E in _closure(rows, images):
        found.append(E)
        if _elem_unbounded(rows, initial, accept, E):
            unbounded = True
            break
        if len(found) > MAX_CLOSURE_ELEMENTS:
            raise RuntimeError("run-semigroup closure exceeded %d elements"
                               % MAX_CLOSURE_ELEMENTS)
    # the tables go before the triples are built, so the two never add up
    states, n, vecs = aut.states, rows.n, rows.act.vecs
    del rows
    return frozenset(frozenset((states[p], vecs[b // n], states[b % n])
                               for p, row in enumerate(E) for b in _bits(row))
                     for E in found), unbounded


def language_recognizer(aut):
    """Recognizer of the characteristic cost function of a counter-free
    automaton, on its run semigroup with discrete order; stabilization is
    the identity on idempotents. The ideal holds the elements of words of
    infinite value: those with no accepting run for a B-automaton, those
    with one for an S-automaton."""
    if aut.counters != 0:
        raise ValueError("a language recognizer needs a counter-free "
                         "(classical) automaton")
    rows = _Rows(_Actions(0), len(aut.states))
    images, initial, accept = _run_effects(aut, rows, aut.alphabet)
    elems = list(_closure(rows, images))
    name = {E: "t%d" % i for i, E in enumerate(elems)}
    product = {(name[E], name[F]): name[_elem_product(rows, E, F)]
               for E in elems for F in elems}
    sharp = {x: x for x in name.values() if product[(x, x)] == x}
    sg = StabSemigroup(tuple(name.values()), product,
                       frozenset((x, x) for x in name.values()), sharp)
    # with no counters, _elem_unbounded asks whether some run accepts
    ideal = frozenset(name[E] for E in elems
                      if _elem_unbounded(rows, initial, accept, E) == (aut.kind == "S"))
    return Recognizer(sg, {a: name[E] for a, E in images.items()}, ideal)


def bounded_closure(aut):
    """Closure-based verdict; no witness script is produced."""
    _, unbounded = run_semigroup_closure(aut)
    return BoundednessResult(not unbounded, None)


def formula_automaton(phi, alphabet):
    """The S-automaton on which the boundedness of a formula is decided.

    An inf-semantics formula is dualized first; boundedness is invariant under
    the off-by-one of dualization.
    """
    return nltl_to_s(dualize(phi, alphabet) if is_ltl(phi) else phi, alphabet)


def bounded_formula(phi, alphabet):
    """Boundedness of the cost function of a formula, on the fly."""
    return bounded_onthefly(formula_automaton(phi, alphabet))
