"""Shared oracles and fixtures.

The oracles here deliberately avoid the library's shortcuts: the term
oracle scans candidate roots around the floor square root and takes an
argmin, the integer square root oracle is a from-scratch Newton iteration,
high-precision reference values come from mpmath, and exponential sums
come from an exact big-int phase reduction with one cmath.exp per term.

Every hypothesis test in the suite runs under one profile: derandomized,
without a deadline and without an example database, so a run is
reproducible and leaves nothing behind.
"""

import cmath
import math
import os

import mpmath as mp
import pytest
from hypothesis import settings

from cannonball import exactseq as xs

settings.register_profile("cannonball", deadline=None, derandomize=True, database=None)
settings.load_profile("cannonball")

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


def newton_isqrt(n: int) -> int:
    """Integer square root without math.isqrt: pure Newton on integers."""
    if n < 0:
        raise ValueError
    if n < 2:
        return n
    x = 1 << ((n.bit_length() + 1) // 2)
    while True:
        y = (x + n // x) // 2
        if y >= x:
            break
        x = y
    while x * x > n:
        x -= 1
    while (x + 1) * (x + 1) <= n:
        x += 1
    return x


def oracle_term(n: int) -> tuple[int, int, int]:
    """(p, y, a) by brute force: scan every root within 2 of floor(sqrt(p))."""
    p = n * (n + 1) * (2 * n + 1) // 6
    f = math.isqrt(p)
    best_y, best_a = None, None
    for y in range(max(f - 2, 0), f + 3):
        d = abs(p - y * y)
        if best_a is None or d < best_a:
            best_y, best_a = y, d
    return p, best_y, best_a


def brute_exp_sum(lo, hi, m, bits=96):
    """Scalar reference: exact big-int phase reduction, no limb tricks."""
    total = 0j
    modulus = 1 << bits
    for n in range(lo, hi + 1):
        mant = xs.frac_sqrt(n, bits).mantissa
        total += cmath.exp(2j * math.pi * ((m * mant) % modulus) / modulus)
    return total


def mp_frac_sqrt(n: int, prec: int = 160):
    """{sqrt(P_n)} via mpmath at the given binary precision."""
    p = n * (n + 1) * (2 * n + 1) // 6
    with mp.workprec(prec):
        s = mp.sqrt(p)
        return s - mp.floor(s)


@pytest.fixture(scope="session")
def a351830():
    """Vendored cross-check terms: n -> a_n for the first 100 indices."""
    values = {}
    with open(os.path.join(DATA_DIR, "a351830.txt")) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            n, a = line.split()
            values[int(n)] = int(a)
    assert len(values) == 100
    return values


@pytest.fixture
def forked(monkeypatch):
    """The pids of the workers exactseq.ordered_map forks, recorded by a
    counting os.fork, at two CPUs whatever the machine has."""
    pids = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(xs.os, "fork", fork)
    monkeypatch.setattr(xs.os, "cpu_count", lambda: 2)
    return pids
