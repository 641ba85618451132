"""Seeded job lists for the three workloads.

A job list is a fixed number of blocks.  Every block holds the same cost
classes, so every block, and every seed, carries nearly the same amount of
work, while the seed picks the inputs that do not set the cost (query
rationals, words, orbits, sample points) and the order.  The program only
ever sees the generated argv or call arguments.  README.md in this directory
says why each workload exists.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

from oracles import chain_denominators


def _cli(*argv):
    return {"kind": "cli", "argv": list(argv)}


def _chain_cost(q):
    """Farey-table work of one cold lns(q): one level-L table per chain level."""
    return sum(level * level for level in set(chain_denominators(*q)) if level > 1)


def _farey_query(rng, target):
    while True:
        den = rng.randint(100, 300)
        num = rng.randrange(1, den)
        if math.gcd(num, den) == 1 and abs(_chain_cost((num, den)) - target) <= 0.03 * target:
            return "--q=%d/%d" % (num, den)


# Each block holds three cost classes (about 0.2, 0.45 and 0.7 CPU seconds
# per job at the commit that added the benchmark) of three jobs each, one per
# command.  With whole blocks played, the median lands inside the middle
# class and the tail percentile inside the top class, never on the edge
# between two classes.  Sizes are fixed per class, because drawing them from
# ranges made the job mix, and every metric with it, differ by 10-25% from
# seed to seed; the seed picks the query rationals and the order.
SCALAR_CLASSES = [
    # (hecke-scalar M, Farey-table work of the chain query, hecke-vector prime)
    (36, 1.6e4, 37),
    (51, 3.8e4, 53),
    (62, 6.1e4, 61),
]


def scalar_block(rng):
    """Level-1 jobs whose time goes to Farey tables."""
    jobs = []
    for order, chain_work, prime in SCALAR_CLASSES:
        jobs.append(_cli("hecke-scalar", "--m", str(order)))
        jobs.append(_cli(rng.choice(["mq", "lns"]), _farey_query(rng, chain_work)))
        jobs.append(_cli("hecke-vector", "--n", "1", "--m", str(prime)))
    rng.shuffle(jobs)
    return jobs


def _word(rng):
    return "".join(rng.choice(["T", "S", "T'"]) for _ in range(rng.randint(1, 12)))


# Three cost classes as for scalar-chains.  Coset-table cost follows the
# arithmetic of N rather than any simple function of N and mu, so each level
# was picked by measuring the CPU time of the whole cold job; the seed picks
# the rho words and the order.
COSET_CLASSES = [
    # (cosets level, rho level, (hecke-vector level, prime))
    (166, 247, (93, 2)),
    (232, 244, (110, 3)),
    (250, 268, (201, 3)),
]


def coset_block(rng):
    """Cold jobs whose time goes to coset tables and dense operator cells."""
    jobs = []
    for cosets_level, rho_level, (hecke_level, prime) in COSET_CLASSES:
        jobs.append(_cli("cosets", "--n", str(cosets_level)))
        jobs.append(_cli("rho", "--n", str(rho_level), "--word", _word(rng)))
        jobs.append(_cli("hecke-vector", "--n", str(hecke_level), "--m", str(prime)))
    rng.shuffle(jobs)
    return jobs


# The session's (n, m) pairs: n <= 120, m prime, m * n <= 600, two of them
# with m | n.  Their costs mu^2 * |S_m| (numeric work grows with both) are
# roughly log-spaced from 3e3 to 8e5, so each is a cost class of its own.
SESSION_PAIRS = [(13, 5), (25, 3), (13, 13), (29, 7), (21, 11), (57, 5), (78, 3), (82, 7), (114, 5)]


def session_block(rng):
    """Every pair once (levels repeat across blocks), the dearest pair twice
    more, and two run_all_checks jobs on small pairs.

    Thirteen jobs: the median lands inside one class, and the dearest class
    (3 of 13 jobs) holds the tail percentile.
    """
    jobs = [
        {
            "kind": "residual",
            "n": n,
            "m": m,
            "orbit": rng.randrange(1000),
            "points": [round(rng.uniform(0.2, 1.0), 6), round(rng.uniform(1.0, 5.0), 6)],
        }
        for n, m in SESSION_PAIRS + SESSION_PAIRS[-1:] * 2
    ]
    jobs += [{"kind": "checks", "n": rng.randint(2, 6), "m": 2} for _ in range(2)]
    rng.shuffle(jobs)
    return jobs


class Workload:
    def __init__(self, name, kind, blocks, trace_blocks, tail_percentile):
        self.name = name
        self.kind = kind
        self.list_blocks = blocks
        self.trace_blocks = trace_blocks
        self.tail_percentile = tail_percentile

    def blocks(self, seed):
        rng = random.Random("%s:%d" % (self.name, seed))
        make = {"scalar-chains": scalar_block, "coset-tables": coset_block, "residual-session": session_block}
        return [make[self.name](rng) for _ in range(self.list_blocks)]


WORKLOADS = {
    w.name: w
    for w in [
        Workload("scalar-chains", "cli", blocks=12, trace_blocks=2, tail_percentile=80),
        Workload("coset-tables", "cli", blocks=12, trace_blocks=2, tail_percentile=78),
        Workload("residual-session", "session", blocks=40, trace_blocks=4, tail_percentile=84),
    ]
}


def list_digest(blocks):
    return hashlib.sha256(json.dumps(blocks, sort_keys=True).encode()).hexdigest()
