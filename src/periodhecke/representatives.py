"""The minimal-entry coset representatives of a canonical coset table:
for each right coset of Gamma0(n) in SL(2,Z), the determinant-1 matrix in
it whose largest entry is least, found by one sweep over the bottom rows
shell by shell.

CosetTable.reps imports it on its first read of a canonical table, so only
a run that reads the representatives (the cosets subcommand and verify's
checks) compiles it; rho and the operator assembly act on the table's
points alone.  It imports only exact_core.
"""

from __future__ import annotations

import math

from .exact_core import divisors

# No public name: CosetTable.reps is the sweep's interface.
__all__ = []


def _minimal_reps(table):
    """For every coset index of a canonical table, the (a, b, c, d) of the
    determinant-1 matrix in that coset minimizing max(|a|,|b|,|c|,|d|),
    ties broken lexicographically.

    Lemma: every primitive (c, d) has a lift (a b; c d) with |a|, |b| <= B
    = max(|c|, |d|).  B = 1 and c = 0 (then d = +-1) check by hand;
    otherwise a = d^-1 mod c taken in [-|c|/2, |c|/2] gives
    |b| = |a*d - 1| / |c| <= B/2 + 1 <= B.  So a coset's representative
    is the least (a, b, c, d) offered by the first shell max(|c|, |d|) = B
    that reaches it.  Of the lifts (x + t*c, y + t*d), only t within 1 of
    the pivot -x/c (or -y/d) of the entry with |.| = B can qualify, so t
    runs from floor(pivot) - 1 to floor(pivot) + 1.  Only pairs of the
    classes (gcd(c, n), gcd(d, n)) = (g, e) with cosets unreached,
    phi(n / (g*e)) at first, are visited, and the sweep stops when none is
    left.  (c, d) and (-c, -d) share their coset and their lifts are
    negations of each other, so each shell visits the pairs (c, B) and
    (B, d) and offers both signs.  Each pair is located by reading the
    table's per-residue rows, CosetTable._rows, inline."""
    n, lookup = table.n, table._rows
    parts = divisors(n)
    pending = {(g, e): sum(math.gcd(u, n // g // e) == 1 for u in range(n // g // e))
               for g in parts for e in parts if math.gcd(g, e) == 1}
    signed = {g: [0] if g == n else [] for g in parts}  # the x with gcd(x, n) == g, |x| < bound
    best = {}
    bound = 0
    while pending:
        bound += 1
        edge = math.gcd(bound, n)
        rows = {g for g, e in pending if e == edge}
        columns = {e for g, e in pending if g == edge}
        pairs = [(c, bound) for g in rows for c in signed[g]]
        signed[edge] += (-bound, bound)
        pairs += [(bound, d) for e in columns for d in signed[e]]
        offered = {}
        for c, d in pairs:
            if math.gcd(c, d) != 1:
                continue
            inverse, step, slots, _ = lookup[c % n]
            coset = slots[inverse * d % step]
            if coset in best:
                continue
            # a*d - b*c = 1 with (a, b) = (x + t*c, y + t*d).
            x = pow(d, -1, c) if c else d
            y = (x * d - 1) // c if c else 0
            pivot = -x // c if abs(c) == bound else -y // d
            for t in range(pivot - 1, pivot + 2):
                a, b = x + t * c, y + t * d
                if abs(a) <= bound and abs(b) <= bound:
                    least = min((a, b, c, d), (-a, -b, -c, -d))
                    if coset not in offered or least < offered[coset]:
                        offered[coset] = least
        for _, _, c, d in offered.values():
            pending[math.gcd(c, n), math.gcd(d, n)] -= 1
        best.update(offered)
        pending = {ge: left for ge, left in pending.items() if left}
    return best
