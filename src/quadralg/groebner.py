"""Buchberger engine, ideals, and the radical/variety decision procedures.

The reduction core is one fraction-free pseudo-reduction on integer term
dicts: the primitive integer terms of a CommPoly over QQ, with content
stripped as it goes, or its residues mod p over F_p, where every basis
entry is kept monic so that each step is the monic one and every sum is
reduced mod p.  The public layer speaks CommPoly.  ``_buchberger`` is one
loop over one pair heap, smallest lcm first, pruned by the Gebauer-Moeller
criteria with each new lcm tested only against the lcms already kept.
Projective emptiness is read off the leading monomials of one basis, or,
with no basis, from generators of one degree D that span every form of
degree D (their rank mod p: a lower bound over QQ, exact over GF(p)).
"""

from __future__ import annotations

import heapq
from math import comb, gcd

from .exactlinalg import (ResidueColumns, modular_rank, over_working_primes,
                          residues)
from .polynomials import CommPoly, EliminateLast


def _tuple_lcm(a, b):
    return tuple(x if x > y else y for x, y in zip(a, b))


def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def _coprime(a, b):
    return all(x == 0 or y == 0 for x, y in zip(a, b))


def _sub_exps(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _add_exps(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _strip_content(terms):
    g = gcd(*terms.values())
    return {e: v // g for e, v in terms.items()} if g > 1 else terms


def _kernel_terms(poly, p):
    """The term dict the kernel reduces: residues mod p over GF(p), the
    primitive integer terms over QQ."""
    return residues(poly.terms, p) if p else poly.primitive().terms


class _Entry:
    """A basis element: cached lead data plus the term dict."""

    __slots__ = ("lm", "lc", "terms")

    def __init__(self, lm, lc, terms):
        self.lm = lm
        self.lc = lc
        self.terms = terms


def _make_entry(terms, key, p):
    """A basis entry; over F_p it is made monic, so that the fraction-free
    steps against it are the monic ones."""
    lm = max(terms, key=key)
    if p:
        inv = pow(terms[lm], -1, p)
        terms = {e: v * inv % p for e, v in terms.items()}
    return _Entry(lm, terms[lm], terms)


def _normal_form(terms, basis, key, p):
    """Full normal form by fraction-free pseudo-reduction, over ZZ or on
    residues mod p.

    Over F_p every entry of the basis is monic, so each step multiplies by
    1 and is the monic step, with every sum reduced mod p.  Over ZZ the
    result is correct up to a positive scalar (content is stripped), which
    is all the zero-tests and canonical comparisons need.
    """
    work = dict(terms)
    rem = {}
    steps = 0
    while work:
        steps += 1
        if not p and steps % 64 == 0:
            g = gcd(*work.values(), *rem.values())
            if g > 1:
                work = {e: v // g for e, v in work.items()}
                rem = {e: v // g for e, v in rem.items()}
        m = max(work, key=key)
        c = work.pop(m)
        reducer = None
        for g in basis:
            if _divides(g.lm, m):
                reducer = g
                break
        if reducer is None:
            rem[m] = c
            continue
        shift = _sub_exps(m, reducer.lm)
        g0 = gcd(c, reducer.lc)
        a = reducer.lc // g0
        b = c // g0
        if a < 0:
            a = -a
            b = -b
        if a != 1:
            for d in (work, rem):
                for e in d:
                    d[e] *= a
        for e, v in reducer.terms.items():
            if e == reducer.lm:
                continue
            t = _add_exps(e, shift)
            acc = work.get(t, 0) - b * v
            if p:
                acc %= p
            if acc:
                work[t] = acc
            else:
                work.pop(t, None)
    return rem if p else _strip_content(rem)


def _spair(f, g, key, p):
    lcm = _tuple_lcm(f.lm, g.lm)
    sf = _sub_exps(lcm, f.lm)
    sg = _sub_exps(lcm, g.lm)
    g0 = gcd(f.lc, g.lc)
    cf = g.lc // g0
    cg = f.lc // g0
    out = {}
    for e, v in f.terms.items():
        out[_add_exps(e, sf)] = v * cf
    for e, v in g.terms.items():
        t = _add_exps(e, sg)
        acc = out.get(t, 0) - v * cg
        if p:
            acc %= p
        if acc:
            out[t] = acc
        else:
            out.pop(t, None)
    return out if p else _strip_content(out)


def _buchberger(polys, key, p):
    """Buchberger's algorithm, smallest lcm first, with the Gebauer-Moeller
    criteria (J. Symbolic Comput. 6, 1988; Becker, Weispfenning, ch. 5.5).

    The inputs, then the S-polynomials, go through ``join``: a nonzero
    remainder h prunes the queued pairs and joins G.  Pairs live in
    ``queue``, (i, j) -> lcm, and in a heap that is never rebuilt: a popped
    pair no longer queued is skipped.  Criterion B drops a queued pair whose
    lcm lm(h) divides, unless it is lcm(lm g_i, lm h) or lcm(lm h, lm g_j).
    M and F drop a new pair whose lcm a kept new lcm divides or equals; the
    new lcms go in the monomial order, which puts strict divisors first
    (u < u*v when v != 1), so only the lcms kept so far need testing.
    A kept pair with coprime leads (Buchberger's criterion), first among
    equal lcms, prunes the others but is not queued."""
    G, queue, heap = [], {}, []

    def join(terms):
        h = _normal_form(terms, G, key, p)
        if not h:
            return
        entry = _make_entry(h, key, p)
        lm, t = entry.lm, len(G)
        for (i, j), lcm in list(queue.items()):
            if (_divides(lm, lcm) and _tuple_lcm(G[i].lm, lm) != lcm
                    and _tuple_lcm(lm, G[j].lm) != lcm):
                del queue[i, j]
        new = []
        for i, g in enumerate(G):
            lcm = _tuple_lcm(g.lm, lm)
            new.append((key(lcm), not _coprime(g.lm, lm), i, lcm))
        kept = []
        for k, needed, i, lcm in sorted(new):
            if not any(_divides(m, lcm) for m in kept):
                kept.append(lcm)
                if needed:
                    queue[i, t] = lcm
                    heapq.heappush(heap, (k, i, t))
        G.append(entry)

    for terms in sorted((t for t in polys if t),
                        key=lambda t: key(max(t, key=key))):
        join(terms)
    while heap:
        _, i, j = heapq.heappop(heap)
        if queue.pop((i, j), None) is not None:
            join(_spair(G[i], G[j], key, p))
    return _reduce_basis(G, key, p)


def _reduce_basis(G, key, p):
    # minimal: drop entries whose lead is divisible by another lead
    keep = []
    for idx, g in enumerate(G):
        lm = g.lm
        redundant = False
        for jdx, h in enumerate(G):
            if jdx == idx:
                continue
            if _divides(h.lm, lm) and (h.lm != lm or jdx < idx):
                redundant = True
                break
        if not redundant:
            keep.append(g)
    # fully reduce each against the others
    out = []
    for idx, g in enumerate(keep):
        others = keep[:idx] + keep[idx + 1:]
        nf = _normal_form(g.terms, others, key, p)
        out.append(_make_entry(nf, key, p))
    out.sort(key=lambda e: key(e.lm))
    return out


class GroebnerBasis:
    """A reduced Groebner basis; carries both CommPoly and internal forms."""

    __slots__ = ("ring", "order", "polys", "_entries", "_p", "_key")

    def __init__(self, ring, order, entries, p):
        self.ring = ring
        self.order = order
        self._entries = entries
        self._p = p
        self._key = order.key
        field = ring.field
        self.polys = [CommPoly(ring, {m: field.div(v, e.lc)
                                      for m, v in e.terms.items()})
                      for e in entries]

    def __iter__(self):
        return iter(self.polys)

    def __len__(self):
        return len(self.polys)

    def reduces_to_zero(self, poly):
        if poly.ring != self.ring:
            raise ValueError("polynomial from another ring")
        if not poly.terms:
            return True
        return not _normal_form(_kernel_terms(poly, self._p), self._entries,
                                self._key, self._p)

    def contains_one(self):
        return len(self._entries) == 1 and sum(self._entries[0].lm) == 0


def groebner(polys_or_ideal, order=None):
    """Reduced Groebner basis of the given generators (or Ideal)."""
    if isinstance(polys_or_ideal, Ideal):
        return polys_or_ideal.groebner(order)
    polys = [p for p in polys_or_ideal if p]
    if not polys:
        raise ValueError("need at least one polynomial (or use an Ideal)")
    return Ideal(polys[0].ring, polys).groebner(order)


def _groebner_of(ring, polys, order):
    p = ring.field.characteristic
    entries = _buchberger([_kernel_terms(f, p) for f in polys], order.key, p)
    return GroebnerBasis(ring, order, entries, p)


class Ideal:
    """An ideal given by generators.

    Its reduced Groebner bases live in the ring's ``gb_memo``, keyed by the
    order and the set of generators, so every ``Ideal`` with the same
    generators in the same ring shares them.
    """

    __slots__ = ("ring", "gens")

    def __init__(self, ring, gens):
        self.ring = ring
        cleaned = []
        for g in gens:
            if g.ring != ring:
                raise ValueError("generator from another ring")
            if g:
                cleaned.append(g)
        self.gens = tuple(cleaned)

    def is_zero_ideal(self):
        return not self.gens

    def groebner(self, order=None):
        order = order or self.ring.order
        key = (order.name, frozenset(self.gens))
        memo = self.ring.gb_memo
        cached = memo.get(key)
        if cached is None:
            if not self.gens:
                cached = GroebnerBasis(self.ring, order, [],
                                       self.ring.field.characteristic)
            else:
                cached = _groebner_of(self.ring, list(self.gens), order)
            memo[key] = cached
        return cached

    def __add__(self, other):
        if isinstance(other, Ideal):
            if other.ring != self.ring:
                raise ValueError("ideals from different rings")
            return Ideal(self.ring, self.gens + other.gens)
        return Ideal(self.ring, self.gens + tuple(other))

    def __repr__(self):
        if not self.gens:
            return "Ideal(0)"
        return "Ideal(" + ", ".join(str(g) for g in self.gens) + ")"


def radical_member(f, ideal, _gb=None):
    """f in sqrt(ideal)?  Rabinowitsch: 1 in ideal + (1 - t f)."""
    if not f:
        return True
    if ideal.is_zero_ideal():
        return False
    gb = _gb or ideal.groebner()
    if gb.reduces_to_zero(f):
        return True
    ring = ideal.ring
    tname = ring.fresh_name("t")
    big = ring.extend([tname])
    t = big.var(big.nvars - 1)
    gens = [g.lift(big) for g in gb.polys] + [big.one() - t * f.lift(big)]
    return _groebner_of(big, gens, big.order).contains_one()


class RadicalTester:
    """Batch radical-membership against one ideal, with saturation.

    Every certified member is folded into the working basis, so later
    normal-form checks short-circuit; this never changes the radical.
    """

    __slots__ = ("ideal", "_gb")

    def __init__(self, ideal):
        self.ideal = ideal
        self._gb = ideal.groebner()

    def contains(self, f):
        if not f:
            return True
        if self.ideal.is_zero_ideal():
            return False
        if self._gb.reduces_to_zero(f):
            return True
        ok = radical_member(f, self.ideal, _gb=self._gb)
        if ok:
            self._gb = Ideal(self.ideal.ring, self._gb.polys + [f]).groebner(
                self._gb.order)
        return ok


def variety_equal(ideal_a, ideal_b):
    """sqrt(I) == sqrt(J), by two-sided radical membership of generators."""
    if ideal_a.ring != ideal_b.ring:
        raise ValueError("ideals from different rings")
    tester_b = RadicalTester(ideal_b)
    if not all(tester_b.contains(g) for g in ideal_a.gens):
        return False
    tester_a = RadicalTester(ideal_a)
    return all(tester_a.contains(g) for g in ideal_b.gens)


def _spans_a_degree(ideal, known=None):
    """Whether the generators of some degree D span every form of degree D,
    C(n + D - 1, D) of them; then the ideal contains every monomial of
    degree D.  The rank of their coefficient vectors is taken at the
    characteristic over GF(p), where it is exact, and over QQ at the first
    of ``MODULAR_PRIMES`` that divides no denominator, where it is a lower
    bound (when every prime divides one, nothing is decided).  The degree
    ``known``, whose span the caller has shown, is decided first and
    takes no rank."""
    ring = ideal.ring
    by_degree = {}
    for g in ideal.gens:
        by_degree.setdefault(g.total_degree(), []).append(g)
    for degree in sorted(by_degree, key=lambda d: d != known):
        gens = by_degree[degree]
        forms = comb(ring.nvars + degree - 1, degree)
        if len(gens) < forms:
            continue
        if degree == known:
            return True

        def rank(p):
            return modular_rank(ResidueColumns(
                p, [residues(g.terms, p) for g in gens]), forms)

        p = ring.field.characteristic
        if (rank(p) if p else over_working_primes(rank)) == forms:
            return True
    return False


def projective_empty(ideal, spanned_degree=None):
    """Z(ideal) empty in projective space?  Requires homogeneous generators.

    When the generators of one degree D span every form of degree D
    (``_spans_a_degree``), the ideal contains m^D, a power of the irrelevant
    ideal, so it has no projective zero (the projective Nullstellensatz,
    Cox, Little, O'Shea, ch. 8 sec. 3), and no basis is computed.  A caller
    that has already shown that span at a degree D (as
    ``LinearFormMatrix.minors_span`` does for the minors it hands in)
    passes ``spanned_degree=D``, and the rank is not taken again.  A span
    that a rank mod p misses decides nothing, and otherwise, by the
    finiteness theorem (ch. 5 sec. 3): exactly when 1 or a pure power of
    every variable is a leading monomial of the reduced basis, over the
    algebraic closure of the field."""
    for g in ideal.gens:
        if not g.is_homogeneous():
            raise ValueError(f"non-homogeneous generator: {g}")
    if _spans_a_degree(ideal, spanned_degree):
        return True
    leads = [entry.lm for entry in ideal.groebner()._entries]
    pure = {i for lm in leads for i, k in enumerate(lm) if k and k == sum(lm)}
    return len(pure) == ideal.ring.nvars or any(not any(m) for m in leads)


def intersect(ideal_a, ideal_b):
    """I cap J via the t-trick with an elimination order."""
    ring = ideal_a.ring
    if ideal_b.ring != ring:
        raise ValueError("ideals from different rings")
    if ideal_a.is_zero_ideal() or ideal_b.is_zero_ideal():
        return Ideal(ring, [])
    tname = ring.fresh_name("t")
    big = ring.extend([tname], order=EliminateLast(ring.order))
    t = big.var(big.nvars - 1)
    gens = [t * f.lift(big) for f in ideal_a.gens]
    gens += [(big.one() - t) * g.lift(big) for g in ideal_b.gens]
    gb = _groebner_of(big, gens, big.order)
    out = []
    for poly in gb.polys:
        if all(e[-1] == 0 for e in poly.terms):
            out.append(poly.drop_last_vars(ring).primitive())
    return Ideal(ring, out)


def intersect_all(ideals):
    out = ideals[0]
    for nxt in ideals[1:]:
        out = intersect(out, nxt)
    return out
