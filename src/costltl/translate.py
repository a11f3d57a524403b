"""Compilation of LTL<= to B-automata and nLTL<= to S-automata.

States are pseudo-states: sets of pending formulae. Epsilon reduction rules
rewrite the largest non-reduced member until only atoms and Next formulae
remain; reading a letter then strips one Next from every member. At the end
of the word a second rule table resolves every member but End. The epsilon
steps carry the counter actions; they are composed into the letter transitions
and into per-state accepting exits. Both closures are one memoised walk,
_fold, over the steps that one of the two tables gives.

Each translation numbers its universe, the subformulae of its input and
Next(psi) for each until-like subformula psi, once in (size, render) order. A
pseudo-state is an int with bit i for the i-th node, so its largest member is
its highest set bit; only reachable states become sets of formulae.
"""

from .core import Alphabet, _bits
from .formula import (END, And, Atom, Or, Next, Until, UntilLeq, ReleaseGeq, render, size,
                      subformulas)
from .automata import CostAutomaton, _runs_value


def _fold(memo, root, expand):
    """Value of root, memoised in memo with every key it reaches.

    expand(key) gives a leaf's value, a set of (payload, events) pairs, or
    the list of the key's steps (child, events); a key's value is then the
    union over its steps of the child's pairs, with the step's events put in
    front. Steps form an acyclic graph, walked children first on an explicit
    stack so that a long chain of steps needs no deep call stack."""
    stack = [(None, [(root, ())])]  # a parent of root, never memoised
    while stack:
        key, steps = stack[-1]
        for child, _ in steps:
            if child not in memo:
                value = expand(child)
                if type(value) is list:
                    stack.append((child, value))
                    break
                memo[child] = value
        else:
            stack.pop()
            if stack:
                value = set()
                for child, events in steps:
                    if events:
                        value.update((p, events + ev) for p, ev in memo[child])
                    else:
                        # most steps carry no event: take the child's pairs
                        # as they are
                        value.update(memo[child])
                memo[key] = value
    return memo[root]


def _rules(psi, bit, index):
    """(letter-step options, end-of-word options) of a non-reduced node, each
    option a pair (added members as a mask, events) with events a tuple of
    (counter, token) pairs. The end options of R# are those of an obligation
    that did not start at the end of the word."""
    left, right, kind = bit[psi.left], bit[psi.right], type(psi)
    if kind is And:
        return [(left | right, ())], [(left | right, ())]
    if kind is Or:
        return [(left, ()), (right, ())], [(left, ()), (right, ())]
    nxt = bit[Next(psi)]
    if kind is Until:
        return [(left | nxt, ()), (right, ())], [(right, ())]
    j = index[psi]
    if kind is UntilLeq:
        return ([(left | nxt, ()), (nxt, ((j, "ic"),)), (right, ((j, "r"),))],
                [(right, ((j, "r"),))])
    # at the end an R# obligation is discharged by its target holding there,
    # or by checking that enough occurrences of its left operand were counted
    return ([(left | right | nxt, ((j, "i"),)), (right | nxt, ()), (0, ((j, "cr"),))],
            [(right, ()), (0, ((j, "cr"),))])


class _Translation:
    def __init__(self, phi, subs, alphabet, polarity):
        """subs is subformulas(phi)."""
        self.alphabet = alphabet
        self.polarity = polarity
        kind = UntilLeq if polarity == "B" else ReleaseGeq
        index = {s: j for j, s in enumerate([s for s in subs if type(s) is kind], 1)}
        self.k = len(index)
        universe = set(subs)
        universe.update(Next(s) for s in subs if type(s) in (Until, UntilLeq, ReleaseGeq))
        # (size, render) order, a total order as render is injective on
        # interned nodes; only nodes of equal size are rendered, so a deep
        # chain, one node per size, never is
        by_size = {}
        for f in universe:
            by_size.setdefault(size(f), []).append(f)
        self.nodes = nodes = []
        for n in sorted(by_size):
            nodes += sorted(by_size[n], key=render) if len(by_size[n]) > 1 else by_size[n]
        bit = {f: 1 << i for i, f in enumerate(nodes)}

        def mask(members):
            out = 0
            for m in members:
                out |= bit[m]
            return out

        self.start = bit[phi]
        self.nonreduced = mask(f for f in nodes if not f.reduced)
        self.release = mask(f for f in nodes if type(f) is ReleaseGeq)
        self.not_end = (1 << len(nodes)) - 1 - bit.get(END, 0)
        self.next_mask = mask(f for f in nodes if type(f) is Next)
        self.atomic = mask(f for f in nodes if f.atomic)
        # a state reads a letter when it holds no other letter test
        self.forbidden = [(a, mask(f for f in nodes if f.atomic and f is not Atom(a)))
                          for a in alphabet]
        self.operand = [bit[f.operand] if type(f) is Next else 0 for f in nodes]
        self.step_rules, self.end_rules = [None] * len(nodes), [None] * len(nodes)
        for i, f in enumerate(nodes):
            if not f.reduced:
                step, self.end_rules[i] = _rules(f, bit, index)
                if self.release:
                    # When the same R# formula is tracked from two start positions
                    # the set representation merges them; the later start has the
                    # stronger requirement (fewer counted positions), so a freshly
                    # surfaced obligation resets its counter.
                    step = [(added, events + tuple((index[nodes[m]], "r")
                                                   for m in _bits(added & self.release)))
                            for added, events in step]
                self.step_rules[i] = step
        self._closure_memo, self._end_memo, self._actions_memo = {}, {}, {}

    def _step_expand(self, Y):
        """Steps (next pseudo-state, events) rewriting the maximal non-reduced
        member of Y; a reduced Y is a leaf valued by its letter step."""
        i = (Y & self.nonreduced).bit_length() - 1
        if i < 0:
            # an endpoint with no letter step starts no transition; dropping it
            # here keeps it out of every closure above
            step = self.endpoint(Y)
            return {(step, ())} if step is not None else set()
        rest = Y ^ (1 << i)
        return [(rest | added, events) for added, events in self.step_rules[i]]

    def closure(self, Y):
        """The letter steps (see endpoint) of all reduced endpoints reachable
        by epsilon reductions from Y, each paired with its composed events."""
        return _fold(self._closure_memo, Y, self._step_expand)

    def _end_expand(self, key):
        """Steps resolving the maximal member of Y other than End, for key
        (Y, fresh), at the end of the word, where only End holds and there is
        no next position; a Y of End alone is a leaf.

        fresh marks members that only surfaced during this end resolution;
        an R# obligation starting at the very end has no later position to
        constrain and is vacuously discharged.
        """
        Y, fresh = key
        i = (Y & self.not_end).bit_length() - 1
        if i < 0:
            return {(None, ())}
        psi = 1 << i
        if not psi & self.nonreduced:
            # a letter test or a next step: unsatisfiable at the end
            return []
        rest = Y ^ psi
        rules = [(0, ())] if psi & fresh & self.release else self.end_rules[i]
        out = []
        for added, events in rules:
            Z = rest | added
            out.append(((Z, (fresh | Z ^ rest) & Z), events))  # Z ^ rest surfaced
        return out

    def end_closure(self, Y, fresh=0):
        """Event sequences, each paired with None, discharging every pending
        obligation at the end of the word; empty when Y is not satisfiable
        there."""
        return _fold(self._end_memo, (Y, fresh), self._end_expand)

    def events_to_actions(self, events):
        actions = self._actions_memo.get(events)
        if actions is None:
            seqs = [[] for _ in range(self.k)]
            for j, token in events:
                seqs[j - 1].append(token)
            actions = self._actions_memo[events] = tuple(tuple(s) for s in seqs)
        return actions

    def endpoint(self, Z):
        """(letters, target) of a reduced pseudo-state Z, or None when Z reads
        no letter or its target is inconsistent."""
        letters = tuple(a for a, forbidden in self.forbidden if not Z & forbidden)
        # reading a letter consumes the atoms and strips one X from every
        # Next member; a target holding two letter tests is unsatisfiable
        target, nexts = 0, Z & self.next_mask
        while nexts:
            low = nexts & -nexts
            target |= self.operand[low.bit_length() - 1]
            nexts ^= low
        if letters and (target & self.atomic).bit_count() <= 1:
            return letters, target
        return None

    def build(self):
        masks = [self.start]  # the states in the order they are found
        number = {self.start: 0}
        transitions = []
        exits = {}
        for y, Y in enumerate(masks):
            final_events = self.end_closure(Y)
            if final_events:
                exits[y] = tuple(sorted({self.events_to_actions(ev) for _, ev in final_events}))
            for (letters, target), events in self.closure(Y):
                if target not in number:
                    number[target] = len(masks)
                    masks.append(target)
                transitions.append((y, letters, self.events_to_actions(events), number[target]))
        # states by size, then by their members' sort keys, which is bit order
        order = sorted(range(len(masks)),
                       key=lambda y: (masks[y].bit_count(), list(_bits(masks[y]))))
        pos = {y: i for i, y in enumerate(order)}
        names = [frozenset(map(self.nodes.__getitem__, _bits(masks[y]))) for y in order]
        # transitions follow the state order, then letter and actions
        transitions = sorted({(pos[y], a, pos[z], actions)
                              for y, letters, actions, z in transitions for a in letters})
        return CostAutomaton(
            kind=self.polarity,
            alphabet=self.alphabet,
            states=tuple(names),
            initial=frozenset({names[pos[0]]}),
            final=frozenset(names[pos[y]] for y in exits),
            counters=self.k,
            transitions=tuple((names[i], a, actions, names[j]) for i, a, j, actions in transitions),
            exits={names[i]: exits[y] for i, y in enumerate(order) if y in exits},
            epsilon_value=self.epsilon_value(),
        )

    def epsilon_value(self):
        # on the empty word every obligation starts at the end
        runs = [self.events_to_actions(ev) for _, ev in self.end_closure(self.start, self.start)]
        return _runs_value(self.polarity, self.k, runs)


def _translate(phi, alphabet, polarity, other, message):
    alphabet = Alphabet(alphabet)
    subs = subformulas(phi)
    if any(type(s) is other for s in subs):
        raise ValueError(message)
    return _Translation(phi, subs, alphabet, polarity).build()


def ltl_to_b(phi, alphabet):
    """Exact compilation: eval_b of the result equals sem_inf of phi."""
    return _translate(phi, alphabet, "B", ReleaseGeq, "ltl_to_b expects a pure LTL<= formula")


def nltl_to_s(phi, alphabet):
    """Compilation correct up to cost equivalence: eval_s of the result and
    sem_sup of phi are bounded on the same word families."""
    return _translate(phi, alphabet, "S", UntilLeq, "nltl_to_s expects a pure nLTL<= formula")
