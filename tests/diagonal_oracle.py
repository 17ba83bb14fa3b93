"""nu of a diagonal form by Lucas' theorem, without fptlib.

For f = c_1 x_1^d + ... + c_n x_n^d with every c_i nonzero over a field of
characteristic p, distinct multi-indices k give distinct monomials x^(dk) of
f^N, and the coefficient of x^(dk) with sum k_i = N is the multinomial
N!/(k_1! ... k_n!) times a nonzero constant.  By Lucas' theorem that
multinomial is nonzero mod p exactly when the k_i add without carry in base
p.  So f^N lies outside (x_1^(p^e), ..., x_n^(p^e)) exactly when some such k
has d k_i < p^e for every i, and nu(e) is the largest sum k_i over k with
carry-free digits and every k_i <= B = (p^e - 1) // d.
"""

from __future__ import annotations


def diagonal_nu(n: int, d: int, p: int, e: int) -> int:
    """The largest sum of n integers k_i <= (p^e - 1) // d that add without
    carry in base p.

    A digit DP from the most significant place down.  The state is the set
    of k_i still equal to B's prefix (tight); a tight k_i may stay tight
    (digit b) or fall below (digit < b, so b > 0), and a loose one takes any
    digit.  At each place the digits add up to at most p - 1; given the
    tight set after a place, the largest digit sum there is best, since it
    outweighs every later place together (at most p^t - 1 below p^t).
    """
    bound = (p ** e - 1) // d
    digits = []
    while bound:
        bound, b = divmod(bound, p)
        digits.append(b)
    full = (1 << n) - 1
    best = {full: 0}                # tight set -> largest sum of the digits so far
    for t in range(len(digits) - 1, -1, -1):
        b, nxt = digits[t], {}
        for tight, total in best.items():
            loose = n - bin(tight).count("1")
            stay = tight
            while True:             # every subset of the tight set stays tight
                kept = bin(stay).count("1")
                fallen = bin(tight).count("1") - kept
                if kept * b <= p - 1 and (b or not fallen):
                    room = kept * b + fallen * (b - 1) + loose * (p - 1)
                    value = total + min(p - 1, room) * p ** t
                    if value > nxt.get(stay, -1):
                        nxt[stay] = value
                if not stay:
                    break
                stay = (stay - 1) & tight
        best = nxt
    return max(best.values())
