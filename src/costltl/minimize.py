"""Syntactic congruence, quotient to the minimal stabilization semigroup,
aperiodicity and definability decisions.

Contexts with a single occurrence of the hole are realized as element
self-maps generated by left and right multiplications and the omega-sharp map
s -> (s^omega)#. Two elements are congruent when every such map keeps them on
the same side of the accepting ideal and of its escape boundary: besides
membership, the test tracks whether some element above the image escapes the
ideal. The extra bit is what separates a stabilized-but-boundable element
(e# <= e with e outside the ideal) from one that is inescapably accepting;
without it the bounded-growth and everywhere-infinite behaviours collapse.
For recognizers with a discrete order (classical languages) the bit is the
negation of membership and the test reduces to the classic syntactic
congruence.
"""

from dataclasses import dataclass

from .core import order_closure, saturate
from .semigroup import StabSemigroup, Recognizer, omega_sharp, power_cycle


def restrict(sg, keep):
    keep = [x for x in sg.elements if x in keep]
    kset = set(keep)
    product = {(x, y): sg.mul(x, y) for x in keep for y in keep}
    for v in product.values():
        if v not in kset:
            raise ValueError("restriction is not closed under product")
    leq = {(x, y) for (x, y) in sg.leq if x in kset and y in kset}
    sharp = {x: sg.sharp[x] for x in keep if x in sg.sharp and sg.mul(x, x) == x}
    neutral = sg.neutral if sg.neutral in kset else None
    return StabSemigroup(tuple(keep), product, frozenset(leq), sharp, neutral)


def _signature(sg, ideal, x):
    """(membership, escape): inside the ideal, and whether anything above x
    leaves it."""
    return (x in ideal, any(y not in ideal for y in sg.upset(x)))


def congruence_classes(sg, ideal):
    """Partition refinement: coarsest partition separating signatures and
    stable under the context-map generators."""
    elems = sg.elements
    gens = []
    for x in elems:
        gens.append(lambda s, x=x: sg.mul(x, s))
        gens.append(lambda s, x=x: sg.mul(s, x))
    gens.append(lambda s: omega_sharp(sg, s))
    block = {x: _signature(sg, ideal, x) for x in elems}
    while True:
        refined = {x: (block[x],) + tuple(block[g(x)] for g in gens) for x in elems}
        renum = {}  # refined key -> new block number, in first-seen order
        new_block = {x: renum.setdefault(refined[x], len(renum)) for x in elems}
        if len(renum) == len(set(block.values())):
            classes = {}
            for x in elems:
                classes.setdefault(new_block[x], []).append(x)
            return [tuple(c) for c in classes.values()]
        block = new_block


@dataclass(frozen=True)
class Quotient:
    recognizer: Recognizer
    classes: tuple  # tuple of element tuples of the input semigroup
    class_of: dict  # input element -> class name


def syntactic_quotient(rec):
    """Quotient of the generated part of the recognizer by the syntactic
    congruence; the result is the minimal recognizer of the same function."""
    sg = rec.semigroup
    # the elements denoted by omega-sharp expressions over the letter images
    gen = set(saturate(rec.h.values(), sg.mul, sg.sharp.__getitem__))
    sg = restrict(sg, gen)
    ideal = frozenset(x for x in rec.ideal if x in gen)
    classes = congruence_classes(sg, ideal)
    rep = {}
    members = {}  # representative -> its class
    for cls in classes:
        r = min(cls, key=sg.elements.index)
        members[r] = cls
        for x in cls:
            rep[x] = r
    class_elems = tuple(sorted(members, key=sg.elements.index))

    product = {}
    for cx in class_elems:
        for cy in class_elems:
            values = {rep[sg.mul(x, y)] for x in members[cx] for y in members[cy]}
            if len(values) != 1:
                raise ValueError("product not well-defined on the quotient")
            product[(cx, cy)] = values.pop()

    sharp = {}
    for cx in class_elems:
        if product[(cx, cx)] == cx:
            values = {rep[omega_sharp(sg, x)] for x in members[cx]}
            if len(values) != 1:
                raise ValueError("sharp not well-defined on the quotient")
            sharp[cx] = values.pop()

    order = _induced_order(class_elems, product, sharp)
    qsg = StabSemigroup(class_elems, product, frozenset(order), sharp,
                        rep.get(sg.neutral))
    q_ideal = frozenset(rep[x] for x in ideal)
    q_h = {a: rep[v] for a, v in rec.h.items()}
    q_rec = Recognizer(qsg, q_h, q_ideal, rec.height)
    return Quotient(q_rec, tuple(tuple(c) for c in classes), dict(rep))


def _induced_order(elems, product, sharp):
    """Least partial order with e# <= e, closed under product compatibility,
    sharp monotonicity, and transitivity. Raises if antisymmetry fails."""
    leq = {(es, e) for e, es in sharp.items()}
    while True:
        leq = order_closure(leq, elems)
        new = set()
        for (x, y) in leq:
            for z in elems:
                new.add((product[(z, x)], product[(z, y)]))
                new.add((product[(x, z)], product[(y, z)]))
            if x in sharp and y in sharp:
                new.add((sharp[x], sharp[y]))
        if new <= leq:
            break
        leq |= new
    for x in elems:
        for y in elems:
            if x != y and (x, y) in leq and (y, x) in leq:
                raise ValueError("induced order fails antisymmetry on (%s, %s)" % (x, y))
    return leq


def is_aperiodic(sg):
    """(verdict, least k with s^(k+1) = s^k for all s, or a counterexample)."""
    cycles = {s: power_cycle(sg, s) for s in sg.elements}
    worst = next((s for s, (_, _, period) in cycles.items() if period > 1), None)
    if worst is not None:
        return False, worst
    return True, max(index for _, index, _ in cycles.values())


def is_ltl_definable(rec):
    """A regular cost function is LTL<=-definable iff its minimal
    stabilization semigroup is aperiodic."""
    quotient = syntactic_quotient(rec)
    verdict, _ = is_aperiodic(quotient.recognizer.semigroup)
    return verdict
