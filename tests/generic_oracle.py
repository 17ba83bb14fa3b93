"""nu of the generic form by bin packing, without fptlib.

Take the form f of degree d in n variables whose coefficients are
indeterminates, over a field of characteristic p, and N = sum N_j p^j in
base p.  Then f^N = prod_j (f^(N_j))^(p^j).  For N_j < p, f^(N_j) has every
monomial of degree d N_j, with a coefficient that is a sum of distinct
products of the indeterminates with multinomial factors nonzero mod p
(Lucas); the products stay distinct over j, since each indeterminate's
exponent is read off in base p.  So f^N lies outside (x_1^(p^e), ...,
x_n^(p^e)) exactly when there are exponent vectors v_j with |v_j| = d N_j
and sum_j p^j v_j below p^e in every component: d N_j items of size p^j,
for every j, pack into n bins of capacity p^e - 1.  The item sizes divide
each other, so first-fit decreasing decides that exactly (Coffman, Garey
and Johnson 1987, "Bin packing with divisible item sizes").

nu_gen(e), the largest such N, is nu(e) of the generic form: no form of
degree d in n variables over a field of characteristic p has a larger
nu(e), and nu_gen(e) = ceil(g p^e) - 1 for the generic threshold g.  The
total size d N fits only if d N <= n (p^e - 1), the degree bound.
"""

from __future__ import annotations


def packs(digits: list[int], n: int, d: int, p: int) -> bool:
    """Do d * digits[i] items of size p^(t-1-i), for t = len(digits) and
    each i, fit into n bins of capacity p^t - 1?

    First-fit decreasing, largest size first, each size in bulk: first fit
    fills a bin with items of one size until it has no room for another,
    and never returns to it for that size or a larger one.
    """
    t = len(digits)
    rooms = [p ** t - 1] * n
    for i, c in enumerate(digits):
        size, left = p ** (t - 1 - i), d * c
        for b, room in enumerate(rooms):
            k = min(left, room // size)
            rooms[b] -= k * size
            left -= k
        if left:
            return False
    return True


def generic_nu(n: int, d: int, p: int, e: int) -> list[int]:
    """[nu_gen(1), ..., nu_gen(e)].

    nu_gen(t) = p nu_gen(t-1) + c_t with 0 <= c_t < p, as for every form
    (Mustata-Takagi-Watanabe), and packing is monotone in c_t, so each digit
    is bisected on [0, p); c_t = 0 always packs, the previous depth's items
    scaled by p.
    """
    digits, N, out = [], 0, []
    for _ in range(e):
        lo, hi = 0, p
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if packs(digits + [mid], n, d, p) else (lo, mid)
        digits.append(lo)
        N = p * N + lo
        out.append(N)
    return out
