"""Quadratic graded algebras T(V)/(R): presentations, graded components,
elements, multiplication, normal/regular elements, automorphisms, quotients.

The relations are stored as the reduced row echelon basis of R in the word
coordinates u*n + v, each row monic at its least column: its leading 2-word.
A graded component A_d has a basis of "normal words" in lex order and a
per-letter table ``step`` that multiplies a basis word of A_{d-1} on the
right by a generator.  These tables drive all products, automorphism
actions and conversions.  Two builders fill them, with identical results:

* Elimination (A_0..A_3, and every degree of a non-PBW presentation).  A_d
  is the quotient of A_{d-1} (x) V by the image of A_{d-2} (x) R; the normal
  words avoid the pivots of the reduced row echelon form of that image.
* Rewriting (d >= 4, PBW presentations).  The relations are a quadratic
  Groebner basis exactly when dim A_3 equals the number of 3-words that
  contain no leading 2-word (Bergman's diamond lemma: the only ambiguities
  of quadratic rules are overlaps of length 3).  Then the normal words of
  every A_d are the words avoiding the leading 2-words, and a product w*a
  that ends in a leading word is rewritten by its relation and walked
  through tables already built, with no elimination.  Such algebras are
  PBW, hence Koszul.  The test runs once per presentation, at its first
  component of degree >= 4.

One table class, ``ResidueTables``, holds x_u times each basis word of
A_{d-1}, built lazily per degree by x_u*(w'*x_a) = (x_u*w')*x_a: both
builders make a normal word its normal prefix times its last letter, so
each entry is one right step.  Images are flat tuples (index, scalar, ...)
in one list per letter, equal scalars shared: about 1 MiB in either domain
for the n = 6 skew algebra and its quotient to degree 8, against 6.8 MB as
dicts keyed by (u, w).  Its scalar domain is its parameter, with one
instance per domain: ``tables()`` holds the field's own scalars (products,
nullspaces, lifts and the rational fallback), and ``tables(p)`` the
residues mod p of a QQ presentation (every rank certificate).  Each degree
starts from a flat view of the step table in its domain, built for that
degree and dropped.  Residues reduce the QQ step tables, never the
relations (a bad prime can move the pivots of an F_p echelon, and with them
the normal words), and sums run in ints, reduced once per image.  A
denominator divisible by p raises ``PrimeClash`` while a table is built;
nothing is stored for that degree.  A product walks the words of its
shorter factor, through ``step`` or the left tables, and the scalar
matrices of module maps are read off the left tables in either domain.
"""

from __future__ import annotations

import weakref

from .exactlinalg import (RowSpace, add_scaled, columns_to_rows,
                          invert_matrix, mat_mul, nullspace, rank_of_columns,
                          residue, solve_batch)
from .scalars import field_descriptor

DEFAULT_DEGREE_CAP = 8


class DegreeCapExceeded(RuntimeError):
    pass


# Live presentations by (field, names, relation rows, degree cap), so equal
# presentations are one object while any of them is referenced.
_INTERN = weakref.WeakValueDictionary()


class GradedComponent:
    """Basis and multiplication data for one graded piece A_d."""

    __slots__ = ("degree", "words", "index", "step")

    def __init__(self, degree, words, step):
        self.degree = degree
        self.words = words
        self.index = {w: i for i, w in enumerate(words)}
        self.step = step  # (index in A_{d-1}, letter) -> {index in A_d: scalar}

    @property
    def dim(self):
        return len(self.words)


class QuadraticPresentation:
    """T(V)/(R) with deg x_i = 1 and R a subspace of V (x) V.

    Relations are stored as the canonical reduced row echelon basis of R in
    the (u, v) word coordinates, so equal subspaces with the same degree cap
    give one (interned) presentation while it is referenced.  The cap is
    fixed at creation.
    """

    __slots__ = ("field", "names", "rel_rows", "degree_cap", "_components",
                 "_rel_space", "_cache", "_pbw", "_tables", "__weakref__")

    def __new__(cls, field, names, relation_rows, degree_cap=None):
        if degree_cap is None:
            degree_cap = DEFAULT_DEGREE_CAP
        elif degree_cap < 0:
            raise ValueError(f"degree cap must be >= 0, got {degree_cap}")
        key = (field_descriptor(field), tuple(names),
               tuple(tuple(sorted(r.items())) for r in relation_rows),
               degree_cap)
        hit = _INTERN.get(key)
        if hit is not None:
            return hit
        self = object.__new__(cls)
        _INTERN[key] = self
        self.field = field
        self.names = tuple(names)
        self.rel_rows = tuple(dict(r) for r in relation_rows)
        self.degree_cap = degree_cap
        self._components = {}
        self._cache = {}
        self._pbw = None
        self._tables = {}
        space = RowSpace(field)
        for r in relation_rows:
            space.add(dict(r))
        self._rel_space = space
        return self

    @classmethod
    def create(cls, field, names, relations, degree_cap=None):
        """Build from relation tensors: n x n coefficient matrices or sparse
        {(u, v): coeff} dicts (f = sum a_uv x_u (x) x_v)."""
        n = len(names)
        space = RowSpace(field)
        for rel in relations:
            vec = {}
            if isinstance(rel, dict):
                items = rel.items()
            else:
                items = (((u, v), rel[u][v]) for u in range(n)
                         for v in range(n))
            for (u, v), c in items:
                c = field(c)
                if c:
                    vec[u * n + v] = c
            space.add(vec)
        rows = [space.pivots[p] for p in sorted(space.pivots)]
        return cls(field, names, rows, degree_cap)

    @classmethod
    def skew(cls, field, names, q_matrix, degree_cap=None):
        """Skew polynomial algebra: relations x_j x_i - q_ij x_i x_j (i < j).

        q_matrix must satisfy q_ii = 1 and q_ji = 1/q_ij with all entries
        nonzero.
        """
        n = len(names)
        q = [[field(q_matrix[i][j]) for j in range(n)] for i in range(n)]
        for i in range(n):
            if q[i][i] != field.one:
                raise ValueError("skew matrix needs 1 on the diagonal")
            for j in range(n):
                if not q[i][j]:
                    raise ValueError("skew matrix entries must be nonzero")
                if q[j][i] * q[i][j] != field.one:
                    raise ValueError("skew matrix needs q_ji = 1/q_ij")
        rels = []
        for i in range(n):
            for j in range(i + 1, n):
                rels.append({(j, i): field.one, (i, j): -q[i][j]})
        return cls.create(field, names, rels, degree_cap)

    @classmethod
    def commutative(cls, field, names, degree_cap=None):
        n = len(names)
        return cls.skew(field, names, [[1] * n for _ in range(n)], degree_cap)

    @property
    def n(self):
        return len(self.names)

    @property
    def r(self):
        return len(self.rel_rows)

    def relation_matrices(self):
        """Relations as dense n x n scalar matrices a^k."""
        n = self.n
        out = []
        for row in self.rel_rows:
            a = [[self.field.zero] * n for _ in range(n)]
            for col, c in row.items():
                a[col // n][col % n] = c
            out.append(a)
        return out

    def component(self, d):
        if d < 0:
            raise ValueError("degree must be >= 0")
        if d > self.degree_cap:
            raise DegreeCapExceeded(
                f"degree {d} exceeds the cap {self.degree_cap}")
        comp = self._components.get(d)
        if comp is not None:
            return comp
        n = self.n
        if d == 0:
            comp = GradedComponent(0, ((),), {})
        elif d == 1:
            words = tuple((j,) for j in range(n))
            step = {(0, j): {j: self.field.one} for j in range(n)}
            comp = GradedComponent(1, words, step)
        else:
            prev = self.component(d - 1)
            prev2 = self.component(d - 2)
            if d >= 4 and self._is_pbw():
                comp = _rewrite_component(self, d, prev, prev2)
            else:
                comp = _rref_component(self, d, prev, prev2)
        self._components[d] = comp
        return comp

    def dim(self, d):
        return self.component(d).dim

    def _leading_words(self):
        """{(u, v): relation row} for the leading 2-word x_u x_v of each
        relation row (its least column)."""
        n = self.n
        return {divmod(min(row), n): row for row in self.rel_rows}

    def _is_pbw(self):
        """Whether the relations form a quadratic Groebner basis, decided in
        degree 3 and memoized (see the module docstring)."""
        if self._pbw is None:
            lead = self._leading_words()
            n = self.n
            avoiding = sum(
                sum((u, v) not in lead for u in range(n))
                * sum((v, w) not in lead for w in range(n))
                for v in range(n))
            self._pbw = self.component(3).dim == avoiding
        return self._pbw

    # ---- element constructors -------------------------------------------

    def zero_element(self, degree):
        return AlgebraElement(self, degree, {})

    def one(self):
        return AlgebraElement(self, 0, {0: self.field.one})

    def generator(self, j):
        if isinstance(j, str):
            j = self.names.index(j)
        return AlgebraElement(self, 1, {j: self.field.one})

    def from_word_coeffs(self, degree, word_coeffs):
        """Element from tensor-word coefficients (projection into A_d)."""
        out = {}
        for word, c in word_coeffs.items():
            c = self.field(c)
            if c:
                add_scaled(out, self.walk({0: c}, 0, word))
        return AlgebraElement(self, degree, out)

    def walk(self, vec, k, word, linmap=None):
        """Multiply the A_k coordinates ``vec`` on the right by the letters
        of ``word`` in turn; returns coordinates in A_{k + len(word)}.

        Letter u stands for the generator x_u, or with ``linmap`` for the
        degree-1 form ``linmap[u]`` of this presentation (see
        ``convert_element``).
        """
        for letter in word:
            step = self.component(k + 1).step
            nxt = {}
            for i, v in vec.items():
                if linmap is None:
                    img = step.get((i, letter))
                    if img:
                        add_scaled(nxt, img, v)
                    continue
                for u, c in enumerate(linmap[letter]):
                    img = step.get((i, u)) if c else None
                    if img:
                        add_scaled(nxt, img, v * c)
            vec = nxt
            k += 1
        return vec

    def tables(self, p=None):
        """The left tables of this presentation, one ``ResidueTables`` per
        scalar domain: the field's own scalars for ``p`` None, residues mod
        the prime ``p`` of a QQ presentation otherwise."""
        tables = self._tables.get(p)
        if tables is None:
            tables = self._tables[p] = ResidueTables(self, p)
        return tables

    # ---- presentation-level operations ----------------------------------

    def opposite(self):
        cached = self._cache.get("opposite")
        if cached is None:
            n = self.n
            rels = []
            for row in self.rel_rows:
                rels.append({(col % n, col // n): c for col, c in row.items()})
            cached = QuadraticPresentation.create(self.field, self.names,
                                                  rels, self.degree_cap)
            self._cache["opposite"] = cached
        return cached

    def quotient(self, f):
        """A/(f) for f in A_2, presented by R + k * (canonical lift of f)."""
        if f.presentation is not self:
            raise ValueError("element from another presentation")
        if f.degree != 2:
            raise ValueError("quotient expects a degree-2 element")
        if not f.coords:
            raise ValueError("cannot quotient by zero")
        n = self.n
        comp2 = self.component(2)
        lift = {}
        for i, c in f.coords.items():
            u, v = comp2.words[i]
            lift[(u, v)] = c
        rels = [{(col // n, col % n): c for col, c in row.items()}
                for row in self.rel_rows]
        rels.append(lift)
        return QuadraticPresentation.create(self.field, self.names, rels,
                                            self.degree_cap)

    def quotient_by_linear(self, f):
        """A/(f) for nonzero f in A_1: eliminates one generator."""
        if f.presentation is not self or f.degree != 1 or not f.coords:
            raise ValueError("need a nonzero degree-1 element of this algebra")
        n = self.n
        piv = min(f.coords)
        piv_c = f.coords[piv]
        keep = [u for u in range(n) if u != piv]
        # substitution x_u -> image in the remaining variables
        subst = []
        for u in range(n):
            if u == piv:
                subst.append([-(f.coords.get(c, self.field.zero) / piv_c)
                              for c in keep])
            else:
                subst.append([self.field.one if c == u else self.field.zero
                              for c in keep])
        rels = []
        for row in self.rel_rows:
            new = {}
            for col, c in row.items():
                u, v = divmod(col, n)
                add_scaled(new, {(s, t): cs * ct
                                 for s, cs in enumerate(subst[u]) if cs
                                 for t, ct in enumerate(subst[v]) if ct}, c)
            if new:
                rels.append(new)
        names = tuple(self.names[u] for u in keep)
        target = QuadraticPresentation.create(self.field, names, rels,
                                              self.degree_cap)
        return target, subst

    def __repr__(self):
        return (f"<quadratic algebra k<{', '.join(self.names)}> "
                f"with {self.r} relations>")


def add_ints(acc, flat, c):
    """``acc += c * flat`` for a flat image, with no reduction mod p; zero
    sums stay in ``acc``."""
    get = acc.get
    it = iter(flat)
    for k, v in zip(it, it):
        acc[k] = get(k, 0) + c * v
    return acc


def residue_sums(terms, dim, p=None):
    """The sparse columns w < dim, column w being the sum of c * images[w],
    its rows shifted by ``offset``, over the terms (offset, images, c).
    Cells are summed with no reduction, then reduced mod p once when p is
    set; zero cells are dropped."""
    columns = []
    for w in range(dim):
        acc = {}
        get = acc.get
        for off, images, c in terms:
            flat = images[w]
            if len(flat) == 2:  # most images are one word
                t = flat[0] + off
                acc[t] = get(t, 0) + c * flat[1]
                continue
            it = iter(flat)
            for t, v in zip(it, it):
                t += off
                acc[t] = get(t, 0) + c * v
        if p is None:
            columns.append({t: v for t, v in acc.items() if v})
        else:
            columns.append({t: r for t, v in acc.items() if (r := v % p)})
    return columns


class ResidueTables:
    """The left tables of a presentation in one scalar domain, built lazily
    and once per degree: ``left[d][u][i]`` is x_u times word i of A_{d-1},
    a flat tuple (index, scalar, ...) of its nonzero scalars.  For ``p``
    None the scalars are the field's own (``Fraction`` or ``FpElement``);
    for a prime ``p`` they are the residues mod p of a QQ presentation.
    Equal scalars are one object per table, and a left image that is one
    step image is that tuple itself."""

    __slots__ = ("presentation", "p", "one", "left")

    def __init__(self, presentation, p=None):
        self.presentation = presentation
        self.p = p
        self.one = presentation.field.one if p is None else 1
        self.left = {}

    def scalar(self, c):
        """The field scalar ``c`` in this domain: itself, or its residue mod
        p (raises PrimeClash)."""
        return c if self.p is None else residue(c, self.p)

    def _reduced(self, acc, shared):
        """The flat image of the nonzero sums ``acc``, reduced mod p when p
        is set, equal scalars shared when ``shared`` is a dict."""
        p = self.p
        pairs = (acc.items() if p is None
                 else [(j, v % p) for j, v in acc.items()])
        if shared is None:
            return tuple(x for j, v in pairs if v for x in (j, v))
        return tuple(x for j, v in pairs if v
                     for x in (j, shared.setdefault(v, v)))

    def _pushed(self, pairs, shared=None):
        """For each (flat image, table) pair, the image pushed through the
        table (one flat image per index)."""
        out = []
        for flat, table in pairs:
            if len(flat) == 2 and flat[1] == 1:  # one word: its image as is
                out.append(table[flat[0]])
                continue
            acc = {}
            it = iter(flat)
            for j, c in zip(it, it):
                add_ints(acc, table[j], c)
            out.append(self._reduced(acc, shared))
        return out

    def step_table(self, d):
        """The step table of A_d in this domain, flat: ``[a][i]`` is word i
        of A_{d-1} times x_a.  Built afresh; ``left_table`` reads it once
        per degree and does not keep it."""
        pres = self.presentation
        step = pres.component(d).step
        shared = {}
        return [[tuple(x for j, c in step[(i, a)].items()
                       if (r := self.scalar(c))
                       for x in (j, shared.setdefault(r, r)))
                 for i in range(pres.dim(d - 1))]
                for a in range(pres.n)]

    def left_table(self, d):
        table = self.left.get(d)
        if table is None:
            pres = self.presentation
            if d == 1:
                table = [[(u, self.one)] for u in range(pres.n)]
            else:
                step = self.step_table(d)
                prev2 = pres.component(d - 2)
                split = [(prev2.index[w[:-1]], w[-1])
                         for w in pres.component(d - 1).words]
                # x_u * (w' * x_a) = (x_u * w') * x_a
                shared = {}
                table = [self._pushed(((low[i], step[a]) for i, a in split),
                                      shared)
                         for low in self.left_table(d - 1)]
            self.left[d] = table
        return table

    def images(self, word, d):
        """Flat images of ``word`` times each basis word of A_d, by a walk
        through the left tables, last letter first."""
        if not word:
            return [(w, self.one) for w in range(self.presentation.dim(d))]
        letters = word[::-1]
        images = self.left_table(d + 1)[letters[0]]
        for k, letter in enumerate(letters[1:], start=d + 2):
            op = self.left_table(k)[letter]
            images = self._pushed((flat, op) for flat in images)
        return images

    def walk_left(self, vec, k, word):
        """Multiply the A_k coordinates ``vec`` on the left by ``word``, last
        letter first; returns coordinates in A_{k + len(word)}."""
        flat = tuple(x for item in vec.items() for x in item)
        for letter in reversed(word):
            k += 1
            flat, = self._pushed(((flat, self.left_table(k)[letter]),))
        return dict(zip(flat[::2], flat[1::2]))


def _rref_component(pres, d, prev, prev2):
    """A_d as A_{d-1} (x) V modulo the image of A_{d-2} (x) R, by reduced row
    echelon form; column c = i*n + a stands for word i of A_{d-1} times x_a."""
    n = pres.n
    space = RowSpace(pres.field)
    for b in range(prev2.dim):
        for rel in pres.rel_rows:
            vec = {}
            for col, c in rel.items():
                u, v = divmod(col, n)
                mid = prev.step.get((b, u))
                if mid:
                    add_scaled(vec, {i * n + v: s for i, s in mid.items()}, c)
            if vec:
                space.add(vec)
    pivots = space.pivots
    normal_cols = [c for c in range(prev.dim * n) if c not in pivots]
    words = tuple(prev.words[c // n] + (c % n,) for c in normal_cols)
    remap = {c: i for i, c in enumerate(normal_cols)}
    step = {}
    for c in range(prev.dim * n):
        pair = (c // n, c % n)
        if c in pivots:
            row = pivots[c]
            step[pair] = {remap[oc]: -v for oc, v in row.items() if oc != c}
        else:
            step[pair] = {remap[c]: pres.field.one}
    return GradedComponent(d, words, step)


def _rewrite_component(pres, d, prev, prev2):
    """A_d of a PBW presentation by rewriting, with no elimination.

    The normal words are those of A_{d-1} extended by every letter that
    forms no leading 2-word with their last letter.  A product w*x_a whose
    last two letters are the leading word of a monic relation row becomes
    -sum row[s*n + t] * (prefix of w)*x_s*x_t over the row's other columns.
    Those words are lex-greater, so filling the table in descending column
    order finds every image it needs already built.
    """
    n = pres.n
    lead = pres._leading_words()
    one = pres.field.one
    words = tuple(w + (a,) for w in prev.words for a in range(n)
                  if (w[-1], a) not in lead)
    index = {w: i for i, w in enumerate(words)}
    step = {}
    for c in range(prev.dim * n - 1, -1, -1):
        i, a = divmod(c, n)
        w = prev.words[i]
        row = lead.get((w[-1], a))
        if row is None:
            step[(i, a)] = {index[w + (a,)]: one}
            continue
        prefix = prev2.index[w[:-1]]
        lead_col = w[-1] * n + a
        out = {}
        for col, coeff in row.items():
            if col == lead_col:
                continue
            s, t = divmod(col, n)
            for j, v in prev.step[(prefix, s)].items():
                add_scaled(out, step[(j, t)], -coeff * v)
        step[(i, a)] = out
    return GradedComponent(d, words, step)


class AlgebraElement:
    """Homogeneous element: sparse coordinates in the basis of A_d."""

    __slots__ = ("presentation", "degree", "coords")

    def __init__(self, presentation, degree, coords):
        self.presentation = presentation
        self.degree = degree
        self.coords = {i: c for i, c in coords.items() if c}

    def is_zero(self):
        return not self.coords

    def __bool__(self):
        return bool(self.coords)

    def _check(self, other):
        if self.presentation is not other.presentation:
            raise ValueError("elements of different presentations")

    def __add__(self, other):
        self._check(other)
        if self.degree != other.degree and self.coords and other.coords:
            raise ValueError("cannot add elements of different degrees")
        return AlgebraElement(self.presentation,
                              self.degree if self.coords else other.degree,
                              add_scaled(dict(self.coords), other.coords))

    def __neg__(self):
        return AlgebraElement(self.presentation, self.degree,
                              {i: -c for i, c in self.coords.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        c = self.presentation.field(c)
        if not c:
            return AlgebraElement(self.presentation, self.degree, {})
        return AlgebraElement(self.presentation, self.degree,
                              {i: v * c for i, v in self.coords.items()})

    def __mul__(self, other):
        if not isinstance(other, AlgebraElement):
            return self.scale(other)
        self._check(other)
        pres = self.presentation
        # walk the words of the factor with fewer letters through the other
        if self.degree < other.degree:
            fixed, walker, walk = other, self, pres.tables().walk_left
        else:
            fixed, walker, walk = self, other, pres.walk
        words = pres.component(walker.degree).words
        out = {}
        for i, c in walker.coords.items():
            add_scaled(out, walk(fixed.coords, fixed.degree, words[i]), c)
        return AlgebraElement(pres, self.degree + other.degree, out)

    __rmul__ = scale

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        if self.presentation is not other.presentation:
            return False
        if not self.coords and not other.coords:
            return True
        return self.degree == other.degree and self.coords == other.coords

    def __hash__(self):
        return hash((id(self.presentation), self.degree,
                     frozenset(self.coords.items())))

    def word_coeffs(self):
        """Section: the canonical tensor-word representative."""
        comp = self.presentation.component(self.degree)
        return {comp.words[i]: c for i, c in self.coords.items()}

    def __repr__(self):
        if not self.coords:
            return "0"
        comp = self.presentation.component(self.degree)
        names = self.presentation.names
        parts = []
        for i in sorted(self.coords):
            mono = "*".join(names[l] for l in comp.words[i]) or "1"
            parts.append(f"({self.coords[i]})*{mono}")
        return " + ".join(parts)


class GradedAutomorphism:
    """Invertible action on V = A_1 preserving R; column j is sigma(x_j)."""

    __slots__ = ("presentation", "matrix", "_inverse")

    def __init__(self, presentation, matrix, _checked=False):
        field = presentation.field
        n = presentation.n
        self.presentation = presentation
        self.matrix = tuple(tuple(field(matrix[i][j]) for j in range(n))
                            for i in range(n))
        self._inverse = None
        if not _checked:
            if invert_matrix([list(r) for r in self.matrix], field) is None:
                raise ValueError("automorphism matrix is singular")
            if not self._preserves_relations():
                raise ValueError("matrix does not preserve the relations")

    def _preserves_relations(self):
        pres = self.presentation
        n = pres.n
        S = [list(r) for r in self.matrix]
        for a in pres.relation_matrices():
            sa = mat_mul(S, a, pres.field)
            sas = mat_mul(sa, [[S[j][i] for j in range(n)] for i in range(n)],
                          pres.field)
            vec = {}
            for u in range(n):
                for v in range(n):
                    if sas[u][v]:
                        vec[u * n + v] = sas[u][v]
            if not pres._rel_space.contains(vec):
                return False
        return True

    @classmethod
    def identity(cls, presentation):
        n = presentation.n
        one, zero = presentation.field.one, presentation.field.zero
        return cls(presentation,
                   [[one if i == j else zero for j in range(n)]
                    for i in range(n)], _checked=True)

    def is_identity(self):
        one, zero = self.presentation.field.one, self.presentation.field.zero
        return all(self.matrix[i][j] == (one if i == j else zero)
                   for i in range(self.presentation.n)
                   for j in range(self.presentation.n))

    def inverse(self):
        if self._inverse is None:
            inv = invert_matrix([list(r) for r in self.matrix],
                                self.presentation.field)
            self._inverse = GradedAutomorphism(self.presentation, inv,
                                               _checked=True)
            self._inverse._inverse = self
        return self._inverse

    def compose(self, other):
        """self after other."""
        prod = mat_mul([list(r) for r in self.matrix],
                       [list(r) for r in other.matrix],
                       self.presentation.field)
        return GradedAutomorphism(self.presentation, prod, _checked=True)

    def power(self, k):
        if k < 0:
            return self.inverse().power(-k)
        out = GradedAutomorphism.identity(self.presentation)
        for _ in range(k):
            out = out.compose(self)
        return out

    def __call__(self, element):
        """Apply multiplicatively to a homogeneous element."""
        if element.presentation is not self.presentation:
            raise ValueError("element of another presentation")
        return convert_element(element, self.presentation,
                               list(zip(*self.matrix)))

    def __eq__(self, other):
        return (isinstance(other, GradedAutomorphism)
                and self.presentation is other.presentation
                and self.matrix == other.matrix)

    def __repr__(self):
        return f"GradedAutomorphism({self.matrix})"


def is_regular_up_to(f, d_max):
    """Left and right multiplication by f injective on A_i for i <= d_max.

    For a normal f of degree 1 or 2, with f*a = sigma(a)*f, no rank is
    needed.  Then A*f = f*A, so (f)_{i+m} = f*A_i is the image of L_f on A_i
    and dim B_{i+m} = dim A_{i+m} - rank(L_f on A_i) for B = A/(f).  Also
    L_f = R_f o sigma with sigma invertible on A_i, so both sides have the
    same rank, and both are injective on A_i exactly when
    dim B_{i+m} = dim A_{i+m} - dim A_i.  Any other f is checked by the ranks
    of both multiplication maps.
    """
    if not f:
        raise ValueError("zero element is never regular")
    pres = f.presentation
    m = f.degree
    if m in (1, 2) and isinstance(is_normal(f), GradedAutomorphism):
        B = pres.quotient(f) if m == 2 else pres.quotient_by_linear(f)[0]
        return all(B.dim(i + m) == pres.dim(i + m) - pres.dim(i)
                   for i in range(d_max + 1))
    for i in range(d_max + 1):
        dim_src = pres.dim(i)
        if dim_src == 0:
            continue
        dim_tgt = pres.dim(i + m)
        if dim_tgt < dim_src:
            return False
        basis = [AlgebraElement(pres, i, {w: pres.field.one})
                 for w in range(dim_src)]
        for cols in ([(f * b).coords for b in basis],
                     [(b * f).coords for b in basis]):
            if rank_of_columns(cols, dim_tgt, pres.field) != dim_src:
                return False
    return True


class NormalityUndecided:
    """``is_normal``'s answer when no candidate passed but sigma is not
    unique: some linear form l has l*f = 0, so f is not regular either way.
    Falsy, like "not normal", so that no caller mistakes it for sigma."""

    __slots__ = ("reason",)

    def __init__(self, reason):
        self.reason = reason

    def __bool__(self):
        return False


def is_normal(f):
    """The normalizing automorphism sigma with f x_j = sigma(x_j) f, if any.

    Solves the linear systems in A_{m+1}; the candidate must be invertible
    and preserve R.  For regular f the solution is unique and the answer is
    sigma or None.  When u -> x_u f has a kernel, only the particular
    solution and its shifts by each kernel vector are tried; if none passes,
    the answer is a ``NormalityUndecided``.  The answer is memoized per
    presentation by f's degree and coordinates.
    """
    if not f:
        raise ValueError("zero element")
    key = ("sigma", f.degree, frozenset(f.coords.items()))
    cache = f.presentation._cache
    if key not in cache:
        cache[key] = _normalizing_automorphism(f)
    return cache[key]


def _normalizing_automorphism(f):
    pres = f.presentation
    n = pres.n
    field = pres.field
    m = f.degree
    dim = pres.component(m + 1).dim
    rows = columns_to_rows([(pres.generator(u) * f).coords
                            for u in range(n)], dim)
    rhs = [(f * pres.generator(j)).coords for j in range(n)]
    sols = solve_batch(rows, n, rhs, field)
    if any(s is None for s in sols):
        return None
    candidates = [[[sols[j].get(u, field.zero) for j in range(n)]
                   for u in range(n)]]
    kernel = nullspace(rows, n, field)
    for kv in kernel:
        shifted = [[candidates[0][u][j] + kv.get(u, field.zero)
                    for j in range(n)] for u in range(n)]
        candidates.append(shifted)
    for mat in candidates:
        if invert_matrix(mat, field) is None:
            continue
        sigma = GradedAutomorphism(pres, mat, _checked=True)
        if sigma._preserves_relations():
            return sigma
    if kernel:
        return NormalityUndecided(
            f"the linear forms l with l*f = 0 span dimension {len(kernel)}, "
            "so sigma is not unique and f is not regular")
    return None


def convert_element(element, target, linmap=None):
    """Push a homogeneous element along an algebra map defined on generators.

    ``linmap[u]`` is the coefficient sequence (over the target generators) of
    the image of the u-th source generator; identity when omitted (same
    generator count, e.g. a quotient by a degree-2 element).
    """
    src = element.presentation
    if linmap is None and target.n != src.n:
        raise ValueError("generator counts differ; supply linmap")
    words = src.component(element.degree).words
    out = {}
    for i, c in element.coords.items():
        add_scaled(out, target.walk({0: target.field(c)}, 0, words[i], linmap))
    return AlgebraElement(target, element.degree, out)


def opposite_element(element):
    """The same element seen in the opposite presentation (words reversed)."""
    op = element.presentation.opposite()
    flipped = {tuple(reversed(w)): c
               for w, c in element.word_coeffs().items()}
    return op.from_word_coeffs(element.degree, flipped)
