"""Boundedness decision for S-automata and for formulae.

Two procedures are provided. The on-the-fly method guesses a path with nested
cycles in the automaton, keeping only a bounded stack of (composed action,
state) frames; closing a cycle stabilizes its composed action. It returns a
pumpable witness script when the function is unbounded. The closure method
builds the reachable part of the run semigroup: elements are sets of
(source, composed action, target) triples closed toward worse actions and
stored as minimal antichains, combined by product and stabilization.

A composed action is one semigroup element per counter. A run witnesses
unboundedness when its action on every counter avoids cr, crw and bot: each
counter is then either never checked or only checked after a stabilized block
of increments, so pumping the cycles n times yields value at least n.
"""

from dataclasses import dataclass

from .core import INF, Alphabet, saturate
from .actions import (
    atomic_s_to_elem,
    s_product,
    s_sharp,
    neutral_vec,
    vec_product,
    vec_sharp,
    vec_sharp_defined,
    vec_leq,
)
from .automata import eval_s
from .formula import is_ltl, is_nltl, dualize
from .translate import nltl_to_s

GOOD = frozenset(("w", "i", "e", "r"))

_ACCEPT = object()  # virtual target of exit edges

MAX_CLOSURE_ELEMENTS = 200000  # run_semigroup_closure gives up past this many


def compose_actions(actions):
    """Composed semigroup element per counter of an action-sequence tuple."""
    vec = []
    for seq in actions:
        x = "e"
        for tok in seq:
            x = s_product(x, atomic_s_to_elem(tok))
        vec.append(x)
    return tuple(vec)


def _vec_good(sigma):
    return all(x in GOOD for x in sigma)


def _minimal(by_pair):
    """(src, sigma, dst) for each minimal sigma of each (src, dst) pair of
    by_pair, which maps pairs to dicts keyed by their sigmas; a worse action
    never helps. The order is that of insertion into by_pair."""
    out = []
    for (src, dst), sigmas in by_pair.items():
        for sigma in sigmas:
            # a lone sigma, the common case, is minimal
            if len(sigmas) == 1 or not any(other != sigma and vec_leq(other, sigma)
                                           for other in sigmas):
                out.append((src, sigma, dst))
    return out


def contracted_edges(aut):
    """Letter transitions and accepting exits as (src, sigma, dst) edges.

    Exit edges target the virtual accept sink. For each (src, dst) pair only
    the minimal sigmas are kept; each edge remembers one representative
    letter, or None for an exit.
    """
    by_pair = {}
    for src, a, actions, dst in aut.transitions:
        by_pair.setdefault((src, dst), {}).setdefault(compose_actions(actions), a)
    for q, options in aut.exits.items():
        for actions in options:
            by_pair.setdefault((q, _ACCEPT), {}).setdefault(compose_actions(actions), None)
    return [(src, sigma, dst, by_pair[(src, dst)][sigma])
            for src, sigma, dst in _minimal(by_pair)]


@dataclass(frozen=True)
class BoundednessResult:
    bounded: bool
    # witness script when unbounded: nested tuple of letters and
    # ("cycle", subscript) markers; None when bounded
    script: tuple = None


def witness_word(script, n):
    """Instantiate a witness script, repeating every cycle n times."""
    out = []

    def emit(items, reps):
        for item in items:
            if isinstance(item, tuple) and item and item[0] == "cycle":
                for _ in range(reps):
                    emit(item[1], reps)
            else:
                out.append(item)

    emit(script, n)
    return tuple(out)


def bounded_onthefly(aut):
    """Decide boundedness by a breadth-first search over memory
    configurations: stacks of (composed action, state) frames, at most
    |counters| + 2 deep."""
    if aut.kind != "S":
        raise ValueError("boundedness is decided on S-automata")
    if eval_s(aut, "") == INF:
        return BoundednessResult(False, ())
    max_frames = aut.counters + 2
    out = {}
    for src, sigma, dst, letter in contracted_edges(aut):
        out.setdefault(src, []).append((sigma, dst, letter))
    start_sigma = neutral_vec(aut.counters)
    parent = {}
    queue = []
    for q in aut.initial:
        config = ((start_sigma, q),)
        if config not in parent:
            parent[config] = None
            queue.append(config)
    head = 0
    goal = None
    while head < len(queue) and goal is None:
        config = queue[head]
        head += 1
        sigma_m, q_m = config[-1]
        succs = []
        for sigma, dst, letter in out.get(q_m, ()):
            succs.append((config[:-1] + ((vec_product(sigma_m, sigma), dst),),
                          ("step", letter)))
        if aut.counters and len(config) < max_frames and q_m is not _ACCEPT:
            succs.append((config + ((start_sigma, q_m),), ("open",)))
        if len(config) >= 2 and q_m == config[-2][1] and vec_sharp_defined(sigma_m):
            merged = vec_product(config[-2][0], vec_sharp(sigma_m))
            succs.append((config[:-2] + ((merged, q_m),), ("close",)))
        for nxt, move in succs:
            if nxt not in parent:
                parent[nxt] = (config, move)
                if len(nxt) == 1 and nxt[0][1] is _ACCEPT and _vec_good(nxt[0][0]):
                    goal = nxt
                    break
                queue.append(nxt)
    if goal is None:
        return BoundednessResult(True, None)
    moves = []
    node = goal
    while parent[node] is not None:
        prev, move = parent[node]
        moves.append(move)
        node = prev
    moves.reverse()
    stack = [[]]
    for move in moves:
        if move[0] == "step":
            if move[1] is not None:
                stack[-1].append(move[1])
        elif move[0] == "open":
            stack.append([])
        else:
            cycle = stack.pop()
            stack[-1].append(("cycle", tuple(cycle)))
    assert len(stack) == 1
    return BoundednessResult(False, tuple(stack[0]))


# --- run-semigroup closure ---------------------------------------------------


def _minimal_triples(triples):
    """Antichain of minimal triples; a triple subsumes every worse one with
    the same endpoints."""
    by_pair = {}
    for p, sigma, q in triples:
        by_pair.setdefault((p, q), {})[sigma] = None
    return frozenset(_minimal(by_pair))


def _sharp_up(sigma):
    """Stabilize each component, lifting the non-idempotent cr to bot first."""
    return tuple("bot" if x == "cr" else s_sharp(x) for x in sigma)


def _elem_product(E, F):
    by_src = {}
    for p, sigma, q in F:
        by_src.setdefault(p, []).append((sigma, q))
    triples = set()
    for p, sigma1, q in E:
        for sigma2, r in by_src.get(q, ()):
            triples.add((p, vec_product(sigma1, sigma2), r))
    return _minimal_triples(triples)


def _elem_sharp(E):
    """Stabilization of an idempotent element: runs through a pumped loop."""
    loops = {}
    for q, sigma, q2 in E:
        if q == q2:
            loops.setdefault(q, []).append(_sharp_up(sigma))
    triples = set()
    for p, sigma1, q in E:
        for se in loops.get(q, ()):
            for q2, sigma2, r in E:
                if q2 == q:
                    triples.add((p, vec_product(vec_product(sigma1, se), sigma2), r))
    return _minimal_triples(triples)


def _elem_unbounded(initial, accept, E):
    """Some triple of E from an initial state, followed by one of the
    composed exit actions that accept lists for its target, is good."""
    return any(_vec_good(vec_product(sigma, x))
               for p, sigma, q in E if p in initial for x in accept.get(q, ()))


def run_semigroup_closure(aut):
    """Saturate the letter images under product and stabilization; returns
    (elements found, unbounded verdict). The search stops at the first
    element that witnesses unboundedness."""
    if aut.kind != "S":
        raise ValueError("boundedness is decided on S-automata")
    if eval_s(aut, "") == INF:
        return frozenset(), True
    accept = {q: [compose_actions(actions) for actions in options]
              for q, options in aut.exits.items()}
    letter_triples = {}
    for src, a, actions, dst in aut.transitions:
        letter_triples.setdefault(a, set()).add((src, compose_actions(actions), dst))
    seeds = [_minimal_triples(triples) for triples in letter_triples.values()]
    found = []
    for E in saturate(seeds, _elem_product, _elem_sharp):
        found.append(E)
        if _elem_unbounded(aut.initial, accept, E):
            return frozenset(found), True
        if len(found) > MAX_CLOSURE_ELEMENTS:
            raise RuntimeError("run-semigroup closure exceeded %d elements"
                               % MAX_CLOSURE_ELEMENTS)
    return frozenset(found), False


def bounded_closure(aut):
    """Closure-based verdict; no witness script is produced."""
    _, unbounded = run_semigroup_closure(aut)
    return BoundednessResult(not unbounded, None)


def bounded_formula(phi, alphabet, method="onthefly"):
    """Boundedness of the cost function of a formula.

    An inf-semantics formula is dualized first; boundedness is invariant under
    the off-by-one of dualization.
    """
    alphabet = Alphabet(alphabet)
    if is_ltl(phi):
        phi = dualize(phi, alphabet)
    elif not is_nltl(phi):
        raise ValueError("formula mixes both bounded-operator kinds")
    aut = nltl_to_s(phi, alphabet)
    if method == "onthefly":
        return bounded_onthefly(aut)
    if method == "closure":
        return bounded_closure(aut)
    raise ValueError("unknown method %r" % (method,))
