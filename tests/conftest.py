"""Shared corpus, brute-force oracles, and fixture paths for the test suite."""

import itertools
import os
from functools import reduce

import pytest

from costltl import (INF, Alphabet, achievable_values, eval_s, models, parse, recognize,
                     words_upto)
from costltl.actions import S_ACTIONS
from costltl.bounded import (MAX_ONTHEFLY_CONFIGS, BoundednessResult, _Actions, _Memo, _minimal,
                             compose_actions, contracted_edges)
from costltl.semigroup import ECat, ELetter, EOmegaSharp

AB = Alphabet("ab")

FIXTURES = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")


def fixture(name):
    return os.path.join(FIXTURES, name)


# Quantitative corpus: >= 30 formulae over {a, b}, depth <= 5, at most two U#.
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


def corpus():
    return [parse(t, AB) for t in CORPUS_TEXTS]


def all_words(max_len, min_len=0):
    return list(words_upto(AB, max_len, min_len))


# ---------------------------------------------------------------------------
# Brute-force automaton evaluation by explicit run enumeration. Exponential in
# the word length; used only on short words to cross-check the one-pass
# evaluation in costltl.automata.


def _seq_run(tokens, kind, value, checked):
    for t in tokens:
        if kind == "B":
            if t == "e":
                pass
            elif t == "ic":
                value += 1
                checked.append(value)
            elif t == "r":
                value = 0
            else:
                raise AssertionError(t)
        else:
            if t == "e":
                pass
            elif t == "i":
                value += 1
            elif t == "r":
                value = 0
            elif t == "cr":
                checked.append(value)
                value = 0
            else:
                raise AssertionError(t)
    return value


def _run_value(aut, path_actions):
    values = [0] * aut.counters
    checked = [[] for _ in range(aut.counters)]
    for actions in path_actions:
        for c in range(aut.counters):
            values[c] = _seq_run(actions[c], aut.kind, values[c], checked[c])
    flat = [v for per in checked for v in per]
    if aut.kind == "B":
        return max(flat) if flat else 0
    return min(flat) if flat else INF


# One-state automata whose only run on the empty word takes an exit action
# that checks 0 (S) or 1 (B). A rule that only asked whether an initial state
# is final would value the empty word INF (S) or 0 (B).
EXIT_ON_EMPTY_WORD = {
    "S": ("costltl-format 1\nautomaton\nkind S\nalphabet a\nstates q\ninitial q\n"
          "final q\ncounters 1\nexit q : cr\n"),
    "B": ("costltl-format 1\nautomaton\nkind B\nalphabet a\nstates q\ninitial q\n"
          "final q\ncounters 1\ntrans q a q : -\nexit q : ic\n"),
}


def enum_eval(aut, u):
    """inf (B) / sup (S) over all accepting runs, enumerated explicitly; the
    empty word has zero-letter runs like any other, unless the automaton
    stores its value."""
    if not u and aut.epsilon_value is not None:
        return aut.epsilon_value
    by_src = {}
    for src, letter, actions, dst in aut.transitions:
        by_src.setdefault((src, letter), []).append((actions, dst))
    best = INF if aut.kind == "B" else 0
    found = False
    stack = [(q, 0, ()) for q in aut.initial]
    while stack:
        q, i, path = stack.pop()
        if i == len(u):
            if q in aut.final:
                for exit_actions in aut.exits.get(q, ()):
                    found = True
                    v = _run_value(aut, path + (exit_actions,))
                    best = min(best, v) if aut.kind == "B" else max(best, v)
            continue
        for actions, dst in by_src.get((q, u[i]), ()):
            stack.append((dst, i + 1, path + (actions,)))
    if not found:
        return INF if aut.kind == "B" else 0
    return best


def _config_step(kind, actions, value, counters):
    """(value, counters) after one action tuple, with the plain counter
    semantics of _seq_run: no cap on i."""
    checked = []
    counters = tuple(_seq_run(seq, kind, c, checked) for seq, c in zip(actions, counters))
    for v in checked:
        value = max(value, v) if kind == "B" else min(value, v)
    return value, counters


def all_configs_eval(aut, u):
    """inf (B) / sup (S) over all accepting runs, by a breadth-first pass
    that keeps every distinct (state, value, counters) configuration and
    prunes none: polynomial in the word length, so it reaches words too
    long for enum_eval."""
    if not u and aut.epsilon_value is not None:
        return aut.epsilon_value
    by_src = {}
    for src, letter, actions, dst in aut.transitions:
        by_src.setdefault((src, letter), []).append((actions, dst))
    start = 0 if aut.kind == "B" else INF
    layer = {(q, start, (0,) * aut.counters) for q in aut.initial}
    for a in u:
        layer = {(dst,) + _config_step(aut.kind, actions, value, counters)
                 for q, value, counters in layer
                 for actions, dst in by_src.get((q, a), ())}
    values = [_config_step(aut.kind, actions, value, counters)[0]
              for q, value, counters in layer if q in aut.final
              for actions in aut.exits.get(q, ())]
    return min(values, default=INF) if aut.kind == "B" else max(values, default=0)


# ---------------------------------------------------------------------------
# Classical-language helpers (membership oracles for counter-free formulae).


def min_block(u):
    """Length of the smallest maximal a-block, empty blocks included."""
    return min(len(p) for p in u.split("b"))


@pytest.fixture(scope="session")
def corpus_formulas():
    return corpus()


# ---------------------------------------------------------------------------
# Recognition by a separate table per threshold n = 0, 1, ..., |u|: the
# oracle for the all-thresholds DP in costltl.semigroup.


def scan_achievable_values(rec, w, n):
    """Values of n-trees of height <= rec.height over the element sequence
    w, by interval DP at the one threshold n."""
    sg = rec.semigroup
    m = len(w)
    idems = sg.idempotents()
    prev = {(i, j): (set() if j > i + 1 else {w[i]})
            for i in range(m) for j in range(i + 1, m + 1)}
    for _ in range(rec.height):
        cur = {}
        for i in range(m):
            for j in range(i + 1, m + 1):
                vals = set(prev[(i, j)])
                for mid in range(i + 1, j):
                    for x in prev[(i, mid)]:
                        for y in prev[(mid, j)]:
                            vals.add(sg.mul(x, y))
                for e in idems:
                    counts = _scan_part_counts(prev, e, i, j, n)
                    if any(2 <= c <= n for c in counts):
                        vals.add(e)
                    if any(c > n for c in counts):
                        vals.add(sg.sharp[e])
                cur[(i, j)] = vals
        if cur == prev:
            break
        prev = cur
    return frozenset(prev[(0, m)])


def _scan_part_counts(ach, e, i, j, n):
    """Counts k (capped at n+1, where they are all alike) of decompositions
    of [i, j) into k parts each achieving e."""
    cap = n + 1
    best = {i: {0}}
    for mid in range(i + 1, j + 1):
        got = set()
        for start, counts in best.items():
            if start < mid and e in ach[(start, mid)]:
                got.update(min(c + 1, cap) for c in counts)
        if got:
            best[mid] = got
    return best.get(j, set())


def scan_recognize(rec, u):
    """The least n in [0, |u|] whose n-trees all avoid the ideal, else INF."""
    w = rec.image(u)
    for n in range(len(w) + 1):
        if not scan_achievable_values(rec, w, n) & rec.ideal:
            return n
    return INF


def assert_matches_scan(rec, u):
    """recognize and achievable_values at every n in [0, |u| + 2] agree with
    the per-threshold scan."""
    w = rec.image(u)
    for n in range(len(w) + 3):
        assert achievable_values(rec, w, n) == scan_achievable_values(rec, w, n), (u, n)
    assert recognize(rec, u) == scan_recognize(rec, u), u


# ---------------------------------------------------------------------------
# Valuations by the per-budget definition, one n at a time: the oracle for
# the bottom-up value table in costltl.semantics.


def scan_sem_inf(phi, u):
    """The least n in [0, |u|] with (u, n) |= phi, else INF."""
    for n in range(len(u) + 1):
        if models(u, n, phi):
            return n
    return INF


def scan_sem_sup(phi, u):
    """INF if (u, |u| + 2) |= phi, else the greatest n such that every
    budget up to n satisfies phi, and 0 if none does."""
    if models(u, len(u) + 2, phi):
        return INF
    best = -1
    for n in range(len(u) + 2):
        if models(u, n, phi):
            best = n
        else:
            break
    return max(best, 0)


# ---------------------------------------------------------------------------
# Boundedness by a search that stores each configuration as its whole stack,
# flat as (sigma0, q0, sigma1, q1, ...), and prunes only the configurations
# whose bottom action is not good: the oracle for the numbered configurations,
# top-frame subsumption and acceptance test of
# costltl.bounded.bounded_onthefly, whose verdicts and witness scripts it must
# reproduce. It keeps its own model of the automaton: exits are edges with no
# letter into a virtual accept sink, and a cycle closes only when its action
# has a plain sharp on every counter. The empty word is eval_s's alone: a
# configuration that has read no letter is keyed apart from an equal stack
# reached by letters, and takes no exit edge.

_ACCEPT = object()  # virtual target of exit edges


def stack_bfs_onthefly(aut):
    """bounded_onthefly's verdict and witness script, found over whole-stack
    configurations."""
    if eval_s(aut, "") == INF:
        return BoundednessResult(False, ())
    act = _Actions(aut.counters)
    good, start, mul = act.good, act.neutral, act.mul
    plain = S_ACTIONS.sharp
    sharp = _Memo(lambda i: act.ids[tuple(plain[x] for x in act.vecs[i])]
                  if all(x in plain for x in act.vecs[i]) else None)
    max_len = 2 * (aut.counters + 2)
    out = {}
    for src, sigma, dst, letter in contracted_edges(aut, act):
        out.setdefault(src, []).append((sigma, dst, letter))
    exits = {(q, _ACCEPT): {act.ids[compose_actions(actions)]: None for actions in options}
             for q, options in aut.exits.items()}
    for (src, dst), sigma in _minimal(act, exits):
        out.setdefault(src, []).append((sigma, dst, None))

    def step(top):
        frames = {}
        for sigma, dst, letter in out.get(top[1], ()):
            frames.setdefault((mul[top[0], sigma], dst), letter)
        return frames

    steps = _Memo(step)
    parent = {}  # (stack, read a letter) -> the key first reaching it
    queue = []
    for q in aut.states:
        if q in aut.initial:
            parent[(start, q), False] = None
            queue.append(((start, q), False))
    head = 0
    goal = None
    while head < len(queue) and goal is None:
        if len(parent) > MAX_ONTHEFLY_CONFIGS:
            raise RuntimeError("on-the-fly search exceeded %d configurations"
                               % MAX_ONTHEFLY_CONFIGS)
        key = queue[head]
        config, read = key
        head += 1
        below, top = config[:-2], config[-2:]
        sigma_m, q_m = top
        succs = [(below + frame, True) for frame, letter in steps[top].items()
                 if read or letter is not None]
        if aut.counters and len(config) < max_len and q_m is not _ACCEPT:
            succs.append((config + (start, q_m), read))
        if len(config) >= 4 and q_m == config[-3] and sharp[sigma_m] is not None:
            succs.append((below[:-2] + (mul[config[-4], sharp[sigma_m]], q_m), read))
        for nxt in succs:
            if good[nxt[0][0]] and nxt not in parent:
                parent[nxt] = key
                if len(nxt[0]) == 2 and nxt[0][1] is _ACCEPT:
                    goal = nxt
                    break
                queue.append(nxt)
    if goal is None:
        return BoundednessResult(True, None)
    path = [goal]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    path.reverse()
    stack = [[]]
    for (prev, _), (nxt, _) in zip(path, path[1:]):
        if len(nxt) > len(prev):
            stack.append([])
        elif len(nxt) < len(prev):
            body = stack.pop()
            stack[-1].append(EOmegaSharp(reduce(ECat, body)))
        else:
            letter = steps[prev[-2:]][nxt[-2:]]
            if letter is not None:
                stack[-1].append(ELetter(letter))
    return BoundednessResult(False, tuple(stack[0]))


# ---------------------------------------------------------------------------
# Run-semigroup elements as sets of (p, sigma, r) triples, sigma an id of an
# _Actions table: the product and the stabilization in one shot, the oracles
# for costltl.bounded._elem_product and _elem_sharp, which store an element
# as rows of bit masks (read back with elem_triples) and stabilize it as the
# product E·L·E.


def elem_triples(n, E):
    """The (p, sigma, r) triples of an element stored as rows of bit masks
    over n states: bit sigma * n + r of row p."""
    return frozenset((p, b // n, b % n) for p, row in enumerate(E)
                     for b, bit in enumerate(reversed(bin(row))) if bit == "1")


def _minimal_triples(act, triples):
    """Antichain of minimal triples of a set; a triple subsumes every worse
    one with the same endpoints."""
    by_pair = {}
    for p, sigma, q in triples:
        by_pair.setdefault((p, q), []).append(sigma)
    return frozenset((p, sigma, q) for (p, q), sigma in _minimal(act, by_pair))


def triple_elem_product(act, E, F):
    """The minimal triples (p, sigma1·sigma2, r) over (p, sigma1, q) in E
    and (q, sigma2, r) in F."""
    by_src = {}
    for p, sigma, q in F:
        by_src.setdefault(p, []).append((sigma, q))
    mul = act.mul
    return _minimal_triples(act, {(p, mul[sigma1, sigma2], r)
                                  for p, sigma1, q in E
                                  for sigma2, r in by_src.get(q, ())})


def one_shot_elem_sharp(act, E):
    """The minimal triples (p, sigma1·(sigma_loop^omega)#·sigma2, r) over
    (p, sigma1, q) and (q, sigma2, r) in E and each loop (q, sigma_loop, q)
    of E."""
    loops = {}
    for q, sigma, q2 in E:
        if q == q2:
            loops.setdefault(q, []).append(act.omega_sharp[sigma])
    mul = act.mul
    return _minimal_triples(act, {(p, mul[mul[sigma1, se], sigma2], r)
                                  for p, sigma1, q in E
                                  for se in loops.get(q, ())
                                  for q2, sigma2, r in E if q2 == q})
