"""Compilation of LTL<= to B-automata and nLTL<= to S-automata.

States are pseudo-states: sets of pending formulae. Epsilon reduction rules
rewrite the largest non-reduced member until only atoms and Next formulae
remain; reading a letter then strips one Next from every member. The epsilon
steps carry the counter actions; they are composed into the letter transitions
and into per-state accepting exits.
"""

from .core import Alphabet
from .formula import (
    END,
    And,
    Or,
    Next,
    Until,
    UntilLeq,
    ReleaseGeq,
    counter_indices,
    is_ltl,
    is_nltl,
    sort_key,
)
from .automata import CostAutomaton, _runs_value


class _Translation:
    def __init__(self, phi, alphabet, polarity):
        self.phi = phi
        self.alphabet = alphabet
        self.polarity = polarity
        kind = UntilLeq if polarity == "B" else ReleaseGeq
        self.index = counter_indices(phi, kind)
        self.k = len(self.index)
        self._closure_memo = {}
        self._end_memo = {}
        self._endpoint_memo = {}

    def spawn_resets(self, added):
        """Reset events for counting obligations that surface right now
        (S polarity only).

        When the same R# formula is tracked from two start positions the set
        representation merges them; the later start has the stronger
        requirement (fewer counted positions), so a freshly surfaced
        obligation resets its counter.
        """
        return tuple((self.index[m], "r") for m in added
                     if isinstance(m, ReleaseGeq))

    def reduction_branches(self, Y):
        """One reduction step applied to the maximal non-reduced member.

        Yields (new pseudo-state, events) with events a tuple of
        (counter, token) pairs.
        """
        candidates = [f for f in Y if not f.reduced]
        psi = max(candidates, key=sort_key)
        rest = Y - {psi}
        spawn = self.polarity == "S"

        def branch(added, *events):
            if spawn:
                events += self.spawn_resets(added)
            return rest | added, events

        if isinstance(psi, And):
            return [branch({psi.left, psi.right})]
        if isinstance(psi, Or):
            return [branch({psi.left}), branch({psi.right})]
        if isinstance(psi, Until):
            return [
                branch({psi.left, Next(psi)}),
                branch({psi.right}),
            ]
        if isinstance(psi, UntilLeq):
            j = self.index[psi]
            return [
                branch({psi.left, Next(psi)}),
                branch({Next(psi)}, (j, "ic")),
                branch({psi.right}, (j, "r")),
            ]
        if isinstance(psi, ReleaseGeq):
            j = self.index[psi]
            return [
                branch({psi.left, psi.right, Next(psi)}, (j, "i")),
                branch({psi.right, Next(psi)}),
                branch(set(), (j, "cr")),
            ]
        raise TypeError("unexpected member %r" % (psi,))

    def _closure_leaf(self, Y):
        # an endpoint with no letter step starts no transition; dropping it
        # here keeps it out of every closure above
        return {(Y, ())} if self.endpoint(Y) is not None else set()

    def closure(self, Y):
        """All reduced endpoints reachable by epsilon reductions from Y that
        have a letter step (see endpoint), with composed events. Reduction
        steps form an acyclic graph, walked children first on an explicit
        stack so that a long chain of steps needs no deep call stack; a
        reduced pseudo-state is valued where it is met."""
        memo = self._closure_memo
        if Y not in memo:
            if all(f.reduced for f in Y):
                memo[Y] = self._closure_leaf(Y)
            else:
                stack = [(Y, self.reduction_branches(Y))]
                while stack:
                    X, branches = stack[-1]
                    for Z, _ in branches:
                        if Z not in memo:
                            if all(f.reduced for f in Z):
                                memo[Z] = self._closure_leaf(Z)
                            else:
                                stack.append((Z, self.reduction_branches(Z)))
                                break
                    else:
                        stack.pop()
                        result = set()
                        for Z, events in branches:
                            if events:
                                result.update((W, events + ev) for W, ev in memo[Z])
                            else:
                                # most branches carry no event: share Z's
                                # pairs as they are
                                result.update(memo[Z])
                        memo[X] = result
        return memo[Y]

    def end_branches(self, Y, fresh):
        """One resolution step of the maximal unresolved member at the end of
        the word, where only End holds and there is no next position.

        fresh marks members that only surfaced during this end resolution;
        an R# obligation starting at the very end has no later position to
        constrain and is vacuously discharged.
        """
        candidates = [f for f in Y if f is not END]
        psi = max(candidates, key=sort_key)
        rest = Y - {psi}

        def branch(added, *events):
            added = set(added)
            now_fresh = (fresh | {m for m in added if m not in rest}) & (rest | added)
            return (rest | added, frozenset(now_fresh), tuple(events))

        if psi.reduced:
            # a letter test or a next step: unsatisfiable at the end
            return []
        if isinstance(psi, And):
            return [branch({psi.left, psi.right})]
        if isinstance(psi, Or):
            return [branch({psi.left}), branch({psi.right})]
        if isinstance(psi, Until):
            return [branch({psi.right})]
        if isinstance(psi, UntilLeq):
            return [branch({psi.right}, (self.index[psi], "r"))]
        if isinstance(psi, ReleaseGeq):
            if psi in fresh:
                # started at the end of the word: no position left to refute
                return [branch(())]
            # discharged by its target holding at the end, or by checking
            # that enough occurrences of its left operand were counted
            return [branch({psi.right}), branch((), (self.index[psi], "cr"))]
        raise TypeError("unexpected member %r" % (psi,))

    def end_closure(self, Y, fresh=frozenset()):
        """Event sequences discharging every pending obligation at the end of
        the word; empty set when Y is not satisfiable there. Walks the
        resolution steps children first on an explicit stack, as closure
        does."""
        memo = self._end_memo
        if (Y, fresh) not in memo:
            if all(f is END for f in Y):
                memo[Y, fresh] = frozenset({()})
            else:
                stack = [((Y, fresh), self.end_branches(Y, fresh))]
                while stack:
                    key, branches = stack[-1]
                    for Z, z_fresh, _ in branches:
                        if (Z, z_fresh) not in memo:
                            if all(f is END for f in Z):
                                memo[Z, z_fresh] = frozenset({()})
                            else:
                                stack.append(((Z, z_fresh), self.end_branches(Z, z_fresh)))
                                break
                    else:
                        stack.pop()
                        memo[key] = frozenset(events + ev for Z, z_fresh, events in branches
                                              for ev in memo[Z, z_fresh])
        return memo[Y, fresh]

    def events_to_actions(self, events):
        seqs = [[] for _ in range(self.k)]
        for j, token in events:
            seqs[j - 1].append(token)
        return tuple(tuple(s) for s in seqs)

    def endpoint(self, Z):
        """(letters, target) of a reduced pseudo-state Z, or None when Z reads
        no letter or its target is inconsistent."""
        if Z in self._endpoint_memo:
            return self._endpoint_memo[Z]
        # Z reads the letters that all its atoms name; End names none
        atoms = {f.letter if f is not END else None for f in Z if f.atomic}
        letters = [a for a in self.alphabet if atoms <= {a}]
        # reading a letter consumes the atoms and strips one X from every
        # Next member; a target holding two letter tests is unsatisfiable
        target = frozenset(f.operand for f in Z if type(f) is Next)
        step = None
        if letters and sum(f.atomic for f in target) <= 1:
            step = letters, target
        self._endpoint_memo[Z] = step
        return step

    def build(self):
        start = frozenset({self.phi})
        states = {start}
        worklist = [start]
        transitions = set()
        exits = {}
        while worklist:
            Y = worklist.pop()
            final_events = self.end_closure(Y)
            if final_events:
                exits[Y] = tuple(sorted({self.events_to_actions(ev) for ev in final_events}))
            for Z, events in self.closure(Y):
                letters, target = self.endpoint(Z)
                actions = self.events_to_actions(events)
                transitions.update((Y, a, actions, target) for a in letters)
                if target not in states:
                    states.add(target)
                    worklist.append(target)
        state_names = sorted(states, key=_state_key)
        # transitions follow the state order, then letter and actions
        pos = {Y: i for i, Y in enumerate(state_names)}
        return CostAutomaton(
            kind=self.polarity,
            alphabet=self.alphabet,
            states=tuple(state_names),
            initial=frozenset({start}),
            final=frozenset(exits),
            counters=self.k,
            transitions=tuple(sorted(
                transitions, key=lambda t: (pos[t[0]], t[1], pos[t[3]], t[2]))),
            exits=exits,
            epsilon_value=self.epsilon_value(),
        )

    def epsilon_value(self):
        # on the empty word every obligation starts at the end
        start = frozenset({self.phi})
        runs = [self.events_to_actions(ev) for ev in self.end_closure(start, fresh=start)]
        return _runs_value(self.polarity, self.k, runs)


def _state_key(Y):
    return (len(Y), sorted(map(sort_key, Y)))


def ltl_to_b(phi, alphabet):
    """Exact compilation: eval_b of the result equals sem_inf of phi."""
    alphabet = Alphabet(alphabet)
    if not is_ltl(phi):
        raise ValueError("ltl_to_b expects a pure LTL<= formula")
    return _Translation(phi, alphabet, "B").build()


def nltl_to_s(phi, alphabet):
    """Compilation correct up to cost equivalence: eval_s of the result and
    sem_sup of phi are bounded on the same word families."""
    alphabet = Alphabet(alphabet)
    if not is_nltl(phi):
        raise ValueError("nltl_to_s expects a pure nLTL<= formula")
    return _Translation(phi, alphabet, "S").build()

