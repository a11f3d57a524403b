"""Classical-language recognizers from counterless automata.

A counterless automaton computes the characteristic function of a regular
language. Its transition semigroup (transformations of the determinized state
set by nonempty words) is a stabilization semigroup with identity
stabilization and discrete order; the accepting ideal collects the
transformations of words with infinite value.
"""

from .core import saturate
from .semigroup import StabSemigroup, Recognizer


def determinize(aut):
    """Subset construction on the underlying NFA.

    Returns (subsets, start index, accepting indices, delta) with
    delta[(index, letter)] = index; subsets[0] is the start.
    """
    start = frozenset(aut.initial)
    subsets = [start]
    index = {start: 0}
    delta = {}
    succ = {}
    for src, a, _, dst in aut.transitions:
        succ.setdefault((src, a), set()).add(dst)
    head = 0
    while head < len(subsets):
        cur = subsets[head]
        for a in aut.alphabet:
            nxt = frozenset(q for s in cur for q in succ.get((s, a), ()))
            if nxt not in index:
                index[nxt] = len(subsets)
                subsets.append(nxt)
            delta[(head, a)] = index[nxt]
        head += 1
    accepting = frozenset(i for i, s in enumerate(subsets) if s & aut.final)
    return subsets, 0, accepting, delta


def transition_semigroup(aut):
    """Transformations of the determinized states by nonempty words.

    Returns (semigroup, h, accepted) where accepted(t) tells whether the word
    behind transformation t is in the language.
    """
    if aut.counters != 0:
        raise ValueError("transition semigroup needs a counterless automaton")
    subsets, start, accepting, delta = determinize(aut)
    n = len(subsets)
    h_maps = {a: tuple(delta[(i, a)] for i in range(n)) for a in aut.alphabet}
    elems = sorted(saturate(h_maps.values(), lambda t, u: tuple(u[i] for i in t),
                            lambda t: t))
    name = {t: "t%d" % i for i, t in enumerate(elems)}
    product = {(name[t], name[u]): name[tuple(u[i] for i in t)]
               for t in elems for u in elems}
    # identity stabilization, discrete order
    sharp = {name[t]: name[t] for t in elems
             if product[(name[t], name[t])] == name[t]}
    leq = frozenset((name[t], name[t]) for t in elems)
    sg = StabSemigroup(tuple(name[t] for t in elems), product, leq, sharp)
    h = {a: name[t] for a, t in h_maps.items()}
    accepted = {name[t]: t[start] in accepting for t in elems}
    return sg, h, accepted


def language_recognizer(aut):
    """Recognizer of the characteristic cost function of a counterless
    automaton: the ideal holds transformations of words of infinite value
    (non-members for a B-automaton, members for an S-automaton)."""
    sg, h, accepted = transition_semigroup(aut)
    if aut.kind == "B":
        ideal = frozenset(t for t, acc in accepted.items() if not acc)
    else:
        ideal = frozenset(t for t, acc in accepted.items() if acc)
    return Recognizer(sg, h, ideal)
