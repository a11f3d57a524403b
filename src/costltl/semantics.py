"""Reference semantics: satisfaction (u,n) |= phi, inf and sup valuations.

`models` is the plain recursive definition at one budget n, memoised over
(subformula, position). `sem_inf` and `sem_sup` do not rerun it for each n:
they read the value at position 0 of one bottom-up table that holds, for
every subformula and every position, the least (inf) or greatest (sup)
budget that satisfies it there. This is the path labelling of Markey and
Schnoebelen ("Model checking a path", CONCUR 2003) lifted from booleans to
budgets; it takes no recursion, so words and formulae thousands deep are
fine.
"""

from .core import INF
from .formula import (
    Atom,
    End,
    And,
    Or,
    Next,
    Until,
    UntilLeq,
    ReleaseGeq,
    size,
    subformulas,
)


def models(u, n, phi, i=0):
    """(u, n) |= phi at position i; position len(u) is the end of the word."""
    if not 0 <= i <= len(u):
        raise ValueError("position out of range")
    memo = {}

    def sat(f, i):
        key = (f, i)
        if key in memo:
            return memo[key]
        memo[key] = v = _sat(f, i)
        return v

    def _sat(f, i):
        if isinstance(f, Atom):
            return i < len(u) and u[i] == f.letter
        if isinstance(f, End):
            return i == len(u)
        if isinstance(f, And):
            return sat(f.left, i) and sat(f.right, i)
        if isinstance(f, Or):
            return sat(f.left, i) or sat(f.right, i)
        if isinstance(f, Next):
            return i < len(u) and sat(f.operand, i + 1)
        if isinstance(f, Until):
            for j in range(i, len(u) + 1):
                if sat(f.right, j):
                    return True
                if not sat(f.left, j):
                    return False
            return False
        if isinstance(f, UntilLeq):
            mistakes = 0
            for j in range(i, len(u) + 1):
                if sat(f.right, j):
                    return True
                if not sat(f.left, j):
                    mistakes += 1
                    if mistakes > n:
                        return False
            return False
        if isinstance(f, ReleaseGeq):
            confirmed = 0
            for j in range(i + 1, len(u) + 1):
                # confirmed counts positions j' in [i, j) satisfying the left side
                if sat(f.left, j - 1):
                    confirmed += 1
                if not sat(f.right, j) and confirmed < n:
                    return False
            return True
        raise TypeError("not a formula node: %r" % (f,))

    return sat(phi, i)


def _counted(left, right, first):
    """For each start i: the min over ends j in [i + first, |u|] of
    max(right[j], h), or INF if there is no such j. Here h is the h-index of
    left[i:j]: the greatest n such that at least n of those values are >= n,
    which is also the least n such that at most n of them exceed n. For U#
    (first = 0, inf values) an end j needs its target's budget and enough
    budget to forgive the mistakes before j; for R# (first = 1, sup values)
    an end j allows its target's budget or as many as are confirmed before j.

    h never decreases as j grows, and it grows by at most 1 per value, so
    it is kept with a count per value; the walk stops once the best so far
    is at most h, which no later end can beat."""
    m = len(left) - 1
    row = []
    for i in range(m + 1):
        count = [0] * (m + 2)  # count[x]: finite values x > h seen so far
        h = above = 0  # above: values seen so far that exceed h
        best = INF
        for j in range(i + first, m + 1):
            if j > i:
                x = left[j - 1]
                if x > h:
                    above += 1
                    if x != INF:
                        count[x] += 1
                    if above > h:
                        h += 1
                        above -= count[h]
            v = right[j]
            if v < h:
                v = h
            if v < best:
                best = v
            if best <= h:
                break
        row.append(best)
    return row


def _value(phi, u, inf):
    """Least (inf) or greatest (sup) budget satisfying phi at position 0 of
    u: INF if every budget does, and INF (inf) or -1 (sup) if none does.
    Finite values never exceed len(u). The table keeps a row of len(u) + 1
    values for each distinct subformula. phi must be pure LTL<= (inf) or
    pure nLTL<= (sup); the one walk over its subformulae checks that too."""
    subs = subformulas(phi)
    m = len(u)
    if inf:
        if any(isinstance(f, ReleaseGeq) for f in subs):
            raise ValueError("sem_inf expects a pure LTL<= formula")
        top, bot, meet, join = 0, INF, max, min
    else:
        if any(isinstance(f, UntilLeq) for f in subs):
            raise ValueError("sem_sup expects a pure nLTL<= formula")
        top, bot, meet, join = INF, -1, min, max
    rows = {}  # subformula -> its value at positions 0..m
    for f in sorted(subs, key=size):
        kind = type(f)
        if kind is Atom:
            row = [top if c == f.letter else bot for c in u] + [bot]
        elif kind is End:
            row = [bot] * m + [top]
        elif kind is And:
            row = list(map(meet, rows[f.left], rows[f.right]))
        elif kind is Or:
            row = list(map(join, rows[f.left], rows[f.right]))
        elif kind is Next:
            row = rows[f.operand][1:] + [bot]
        elif kind is Until:
            left, right = rows[f.left], rows[f.right]
            row = [bot] * (m + 1)
            v = bot
            for i in range(m, -1, -1):
                v = row[i] = join(right[i], meet(left[i], v))
        else:  # U# counts mistakes from j = i on, R# confirmations from j = i + 1
            row = _counted(rows[f.left], rows[f.right], int(kind is ReleaseGeq))
        rows[f] = row
    return rows[phi][0]


def sem_inf(phi, u):
    """[[phi]](u) = inf{n : (u,n) |= phi} for a pure LTL<= formula."""
    return _value(phi, u, inf=True)


def sem_sup(phi, u):
    """[[phi]](u) = sup{n : (u,n) |= phi} for a pure nLTL<= formula."""
    return max(_value(phi, u, inf=False), 0)
