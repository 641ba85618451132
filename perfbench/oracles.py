"""Output checks for every benchmark job.

The arithmetic here is written independently of periodhecke, so a defect in
the program cannot hide by also being present in its own check.  Each check
returns None when the output is correct and a one-line reason otherwise.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math

RESIDUAL_TOLERANCE = 1e-10


def gamma0_index(n):
    """n times the product of (1 + 1/p) over the primes p dividing n."""
    mu, rest, p = n, n, 2
    while p * p <= rest:
        if rest % p == 0:
            mu = mu // p * (p + 1)
            while rest % p == 0:
                rest //= p
        p += 1
    if rest > 1:
        mu = mu // rest * (rest + 1)
    return mu


@functools.lru_cache(maxsize=None)
def sm_matrices(m):
    """Every (a, b, c, d) with a > c >= 0, d > b >= 0 and a*d - b*c = m.

    b*c <= (a-1)*(d-1) forces a + d <= m + 1, which bounds the search.
    """
    found = []
    for a in range(1, m + 1):
        for c in range(a):
            for d in range(1, m + 2 - a):
                bc = a * d - m
                if c == 0:
                    if bc == 0:
                        found.extend((a, b, 0, d) for b in range(d))
                elif bc >= 0 and bc % c == 0 and bc // c < d:
                    found.append((a, bc // c, c, d))
    return sorted(found)


def in_sm(mat, m):
    a, b, c, d = mat
    return a > c >= 0 and d > b >= 0 and a * d - b * c == m


def chain_denominators(num, den):
    """Denominators of the left-neighbour chain of num/den in [0, 1), from
    the Bezout partner of each member: the left neighbour p/r of a/b at
    level b satisfies a*r - b*p = 1 with 0 < r <= b."""
    dens = [den]
    while den > 1:
        r = pow(num, -1, den)
        num, den = (num * r - 1) // den, r
        dens.append(den)
    return dens


def _flat(rows):
    (a, b), (c, d) = rows
    return a, b, c, d


def _rational(text):
    num, den = text.split("/")
    return int(num), int(den)


def _unit_key(n, c, d):
    """The least unit multiple of (c : d) in P^1(Z/nZ); equal keys mean
    equal right cosets of Gamma0(n)."""
    return min(((u * c) % n, (u * d) % n) for u in range(1, n + 1) if math.gcd(u, n) == 1)


def check_cosets(n, payload):
    mu = gamma0_index(n)
    if payload.get("mu") != mu:
        return "mu %r != gamma0_index(%d) = %d" % (payload.get("mu"), n, mu)
    reps = [_flat(g) for g in payload["reps"]]
    if len(reps) != mu:
        return "%d representatives for mu = %d" % (len(reps), mu)
    if reps[0] != (1, 0, 0, 1):
        return "first representative is not the identity"
    if any(a * d - b * c != 1 for a, b, c, d in reps):
        return "a representative has determinant != 1"
    if len({_unit_key(n, c, d) for _, _, c, d in reps}) != mu:
        return "two representatives share a coset"
    return None


def check_rho(n, payload):
    if sorted(payload) != list(range(gamma0_index(n))):
        return "image is not a permutation of the %d cosets" % gamma0_index(n)
    return None


def _terms(formal_sum):
    return [(term["coeff"], _flat(term["matrix"])) for term in formal_sum]


def _equals_sm(terms, m):
    return all(coeff == 1 for coeff, _ in terms) and sorted(mat for _, mat in terms) == sm_matrices(m)


def check_hecke_scalar(m, payload):
    if not _equals_sm(_terms(payload), m):
        return "h_tilde(%d) differs from the determinant-%d dominant set" % (m, m)
    return None


def check_hecke_vector(n, m, payload):
    mu = gamma0_index(n)
    if (payload.get("n"), payload.get("m"), payload.get("mu")) != (n, m, mu):
        return "header (n, m, mu) = %r" % ((payload.get("n"), payload.get("m"), payload.get("mu")),)
    rows = payload["entries"]
    if len(rows) != mu or any(len(row) != mu for row in rows):
        return "entries do not form a %d x %d array" % (mu, mu)
    for row in rows:
        for cell in row:
            for coeff, mat in _terms(cell):
                if not (isinstance(coeff, int) and coeff > 0 and in_sm(mat, m)):
                    return "term %r * %r violates the entry conditions" % (coeff, mat)
    if n == 1 and not _equals_sm(_terms(rows[0][0]), m):
        return "level-one entry differs from the determinant-%d dominant set" % m
    return None


def _is_chain(pairs, q):
    """True iff pairs ascend from -1/0 to q in Farey-neighbour steps."""
    if not pairs or pairs[0] != (-1, 0) or pairs[-1] != q:
        return False
    return all(
        den >= 0 and num * pden - pnum * den == 1
        for (pnum, pden), (num, den) in zip(pairs, pairs[1:])
    )


def check_lns(q, payload):
    if not _is_chain([_rational(x) for x in payload], q):
        return "lns output is not a Farey-neighbour chain from -1/0 to %d/%d" % q
    return None


def check_mq(q, payload):
    """Each summand (b_l -a_l; b_{l-1} -a_{l-1}) links two chain members;
    the links must rebuild one chain from -1/0 to q."""
    terms = _terms(payload)
    if any(coeff != 1 for coeff, _ in terms):
        return "a chain matrix has coefficient != 1"
    step = {}
    for _, (b, minus_a, b_prev, minus_a_prev) in terms:
        step[(-minus_a_prev, b_prev)] = (-minus_a, b)
    pairs = [(-1, 0)]
    while pairs[-1] in step and len(pairs) <= len(terms):
        pairs.append(step[pairs[-1]])
    if len(pairs) != len(terms) + 1 or not _is_chain(pairs, q):
        return "M(q) summands do not rebuild a Farey-neighbour chain ending at %d/%d" % q
    return None


def _flag(argv, name):
    for i, token in enumerate(argv):
        if token == name:
            return argv[i + 1]
        if token.startswith(name + "="):
            return token[len(name) + 1:]
    raise KeyError(name)


def _reduced(text):
    num, den = _rational(text)
    g = math.gcd(num, den)
    return num // g, den // g


def check_cli(argv, code, stdout, digests):
    """Check one CLI job: exit status, recorded digest, then invariants."""
    if code != 0:
        return "exit status %d" % code
    key = " ".join(argv)
    if key in digests and hashlib.sha256(stdout).hexdigest() != digests[key]:
        return "stdout digest differs from the recorded one"
    try:
        payload = json.loads(stdout)
    except ValueError:
        return "stdout is not JSON"
    command = argv[0]
    try:
        if command == "cosets":
            return check_cosets(int(_flag(argv, "--n")), payload)
        if command == "rho":
            return check_rho(int(_flag(argv, "--n")), payload)
        if command == "hecke-scalar":
            return check_hecke_scalar(int(_flag(argv, "--m")), payload)
        if command == "hecke-vector":
            return check_hecke_vector(int(_flag(argv, "--n")), int(_flag(argv, "--m")), payload)
        if command == "lns":
            return check_lns(_reduced(_flag(argv, "--q")), payload)
        if command == "mq":
            return check_mq(_reduced(_flag(argv, "--q")), payload)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return "malformed %s output: %r" % (command, exc)
    return "no oracle for %r" % command


def check_session(job, reply):
    """Check one library job's reply from the warm session."""
    if "error" in reply:
        return "raised: %s" % reply["error"].strip().splitlines()[-1]
    if job["kind"] == "checks":
        failed = [name for name, passed in reply["checks"] if not passed]
        if not reply["checks"] or failed:
            return "run_all_checks failed %r" % (failed or "with no checks",)
        return None
    residual, largest = reply["residual"], reply["image_max"]
    if not (math.isfinite(residual) and math.isfinite(largest) and largest > 0):
        return "non-finite or empty image (residual %r, max %r)" % (residual, largest)
    if residual > RESIDUAL_TOLERANCE * largest:
        return "residual %.3e exceeds %.0e * max|image| = %.3e" % (
            residual, RESIDUAL_TOLERANCE, RESIDUAL_TOLERANCE * largest)
    return None
