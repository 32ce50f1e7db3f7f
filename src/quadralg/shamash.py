"""Quotient resolutions via homotopy towers.

Given a minimal resolution P of the trivial module over A and a regular
normal element f with normalizing automorphism sigma (tau = sigma^{-1}),
multiplication by f is a null-homotopic chain map; lifting it gives c^1, and
iterating zeta^n = -sum_{0<i<n} c^i (tau^i . c^{n-i}) gives the whole tower
c^n.  One splitting term, c^i (tau^i . c^{n-i}), serves zeta, the right-hand
side of each lift and both identity checks.  The differential d_i over
B = A/(f) is block upper-triangular: its block in row l2 and column l1 is
tau^{l2} . c^{l1-l2} for l1 >= l2, shifted and converted into B, and zero
below the diagonal.  These resolve the trivial B-module; for Koszul A and
deg f >= 2 the result is minimal.

Each lift solves an exact linear system degree by degree; the deterministic
choice is the echelon particular solution with free parameters zero.
"""

from __future__ import annotations

from .algebra import NotRegularError, is_normal, is_regular_up_to
from .exactlinalg import columns_to_rows, solve_batch
from .resolutions import (FreeComplex, block_map, column_vectors,
                          diagonal_map, map_from_vectors, verify_complex,
                          zero_map)


class NotNormalError(ValueError):
    pass


class HomotopyLiftError(RuntimeError):
    """The lifting system was inconsistent: the input was not a chain map
    over zero (an upstream invariant is broken)."""


class InvariantBreach(RuntimeError):
    """A property the construction guarantees failed to verify; internal error."""


def lift_against(d_next, rhs):
    """Solve d_next o X = rhs for X (echelon particular solution).

    X has target generators of d_next's source and rhs's source generators;
    raises HomotopyLiftError when inconsistent.  The ``column_vectors`` of
    rhs of source shift e are solved at once against
    ``d_next.degree_columns(e)``; ``map_from_vectors`` splits the solutions.
    """
    if d_next.target_shifts != rhs.target_shifts:
        raise ValueError("shapes do not match")
    pres = d_next.presentation
    src = rhs.source_shifts
    rhs_vecs = column_vectors(rhs)
    by_degree = {}
    for j, s in enumerate(src):
        by_degree.setdefault(s, []).append(j)
    sols = [None] * len(src)
    for e, col_idx in by_degree.items():
        cols, nrows = d_next.degree_columns(e)
        solved = solve_batch(columns_to_rows(cols, nrows), len(cols),
                             [rhs_vecs[j] for j in col_idx], pres.field)
        for j, sol in zip(col_idx, solved):
            if sol is None:
                raise HomotopyLiftError(
                    "inconsistent lifting system: not null-homotopic")
            sols[j] = sol
    return map_from_vectors(pres, d_next.source_shifts, src, sols)


class HomotopyTower:
    """The family c^0 = d, c^1, ..., c^K with the twist tau and element f."""

    __slots__ = ("P", "f", "m", "sigma", "tau", "cmaps", "max_k",
                 "solved_length", "_tau_powers")

    def __init__(self, P, f, sigma, max_k):
        self.P = P
        self.f = f
        self.m = f.degree
        self.sigma = sigma
        self.tau = sigma.inverse()
        self.cmaps = {}
        self.max_k = max_k
        self.solved_length = 0
        self._tau_powers = {}

    def tau_power(self, k):
        if k not in self._tau_powers:
            self._tau_powers[k] = self.tau.power(k)
        return self._tau_powers[k]

    def c(self, k, l):
        """c^k_l as a graded map P_l(-k m) -> P_{l+2k-1}; c^0 = d."""
        P = self.P
        if k == 0:
            return P.differential(l)
        got = self.cmaps.get((k, l))
        if got is not None:
            return got
        if l >= 0 and k <= self.max_k and \
                l > self.solved_length - 2 * k + 1:
            raise ValueError(
                f"homotopy component c^{k}_{l} lies beyond the solved "
                f"range (length {self.solved_length})")
        return zero_map(P.presentation, P.shifts(l + 2 * k - 1),
                        tuple(s + k * self.m for s in P.shifts(l)))

    def _twisted(self, k, l, i):
        """tau^i . c^k_l with its shifts raised by i m."""
        return self.c(k, l).twist(self.tau_power(i)).shifted(i * self.m)

    def _term(self, i, n, l):
        """c^i_{l+2(n-i)-1} o (tau^i . c^{n-i}_l): the i-th term of the
        splitting sum at index l."""
        return self.c(i, l + 2 * (n - i) - 1).compose(
            self._twisted(n - i, l, i))

    def zeta(self, n, l):
        """zeta^n_l: f*I for n = 1, else -sum_{0<i<n} c^i (tau^i . c^{n-i})."""
        if n == 1:
            shifts = self.P.shifts(l)
            return diagonal_map(self.P.presentation, shifts,
                                [self.f] * len(shifts))
        total = self._term(1, n, l)
        for i in range(2, n):
            total = total.add(self._term(i, n, l))
        return total.negate()

    def solve(self, length):
        """Fill c^k_l for 2k <= length + 1, l in the solvable range."""
        self.solved_length = length
        for k in range(1, self.max_k + 1):
            for l in range(0, length - 2 * k + 2):
                rhs = self.zeta(k, l).sub(self._term(k, k, l))
                d_next = self.P.differential(l + 2 * k - 1)
                self.cmaps[(k, l)] = lift_against(d_next, rhs)

    def homotopy_identity_holds(self, k, l):
        """zeta^k_l == c^k_{l-1} (tau^k . d_l) + d_{l+2k-1} c^k_l."""
        total = self._term(k, k, l).add(self._term(0, k, l))
        return self.zeta(k, l).sub(total).is_zero()

    def splitting_sum(self, n, l):
        """sum_{0<=i<=n} c^i (tau^i . c^{n-i}) at index l (0 for n >= 2,
        zeta^1 for n = 1)."""
        total = self._term(0, n, l)
        for i in range(1, n + 1):
            total = total.add(self._term(i, n, l))
        return total

    def splitting_identity_holds(self, n, l):
        s = self.splitting_sum(n, l)
        if n == 1:
            return s.sub(self.zeta(1, l)).is_zero()
        return s.is_zero()


def shamash(presentation, P, f, length=None, internal_cap=None):
    """Free resolution of the trivial module over B = A/(f) from one over A.

    Returns (complex over B, homotopy tower).  Verifies composite-zero and
    exactness up to the internal cap (the presentation's degree cap when
    None); raises InvariantBreach if they fail.  ``is_normal`` then the
    regularity check: NotNormalError when f is not normal, NotRegularError
    when f is a zero divisor within the cap.
    """
    if f.presentation is not presentation or P.presentation is not presentation:
        raise ValueError("presentation mismatch")
    if not f:
        raise ValueError("zero element")
    if length is not None and length < 1:
        raise ValueError("length must be >= 1")
    if internal_cap is not None and internal_cap < 0:
        raise ValueError("internal_cap must be >= 0")
    m = f.degree
    if m > 2:
        raise NotImplementedError(
            "quotients by elements of degree > 2 leave the quadratic "
            "presentation layer")
    sigma = is_normal(f)
    if sigma is None:
        raise NotNormalError("element is not normal (no normalizing "
                             "automorphism exists)")
    # B first: the regularity check reads its dimensions, and verification
    # then reuses the components it built
    if m == 2:
        B = presentation.quotient(f)
        linmap = None
    else:
        B, linmap = presentation.quotient_by_linear(f)
    cap = presentation.degree_cap if internal_cap is None else internal_cap
    regularity_cap = max(cap - m, 0)
    if not is_regular_up_to(f, regularity_cap):
        raise NotRegularError(
            f"element is a zero divisor within degree {regularity_cap}")
    L = P.length if length is None else length
    tower = HomotopyTower(P, f, sigma, max_k=L // 2)
    tower.solve(L)

    def block(i, l1, l2):
        """The block P_{i-2 l1}(-l1 m) -> P_{i-1-2 l2}(-l2 m) of d_i over B:
        tau^{l2} . c^{l1-l2}, zero below the diagonal."""
        if l1 < l2:
            return zero_map(B, [s + l2 * m for s in P.shifts(i - 1 - 2 * l2)],
                            [s + l1 * m for s in P.shifts(i - 2 * l1)])
        return tower._twisted(l1 - l2, i - 2 * l1, l2).converted(B, linmap)

    maps = [block_map(B, [[block(i, l1, l2) for l1 in range(i // 2 + 1)]
                          for l2 in range((i - 1) // 2 + 1)])
            for i in range(1, L + 1)]
    out = FreeComplex(B, P.side, maps, {"tower": tower,
                                        "quotient_of": presentation})
    report = verify_complex(out, cap)
    out.meta["verification"] = report
    if not report.all_composites_zero:
        raise InvariantBreach("quotient complex has a nonzero composite")
    bad = [key for key, dim in report.homology.items() if dim]
    bad += [e for e, ok in report.augmentation.items() if not ok]
    if bad:
        raise InvariantBreach(
            f"quotient complex not exact at truncation: {bad[:3]}")
    p_report = P.meta.get("verification")
    if (m >= 2 and p_report is not None and p_report.is_exact()
            and not report.minimal):
        raise InvariantBreach("expected a minimal resolution for a "
                              "Koszul base and deg f >= 2")
    return out, tower
