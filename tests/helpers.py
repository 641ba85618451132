"""Helpers shared by the test modules: the shorthand rat, the Farey
enumeration oracle, and random elements of Gamma0(n)."""

from periodhecke.exact_core import INFINITY, MINUS_INFINITY, ZERO, ExtendedRational, IntMatrix2, xgcd


def rat(p, q=1):
    return ExtendedRational(p, q)


def brute_force_farey(n):
    """Enumeration oracle straight from the definition."""
    if n == 0:
        return [MINUS_INFINITY, ZERO, INFINITY]
    members = set()
    for u in range(-n, n + 1):
        for v in range(n + 1):
            if (u, v) != (0, 0):
                members.add(rat(u, v))
    return sorted(members)


def random_gamma0_element(rng, n):
    """A determinant-1 matrix with lower-left entry divisible by n."""
    while True:
        c = n * rng.randint(-5, 5)
        d = rng.randint(-20, 20)
        g, x, y = xgcd(d, -c)
        if g != 1:
            continue
        t = rng.randint(-3, 3)
        return IntMatrix2(x + t * c, y + t * d, c, d)
