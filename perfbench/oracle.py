"""Slow scalar oracle that pins the benchmark's reference values.

    python3 perfbench/oracle.py            # rewrites perfbench/references.json

It never imports cannonball.  Every term comes from the closed form
P_n = n(n+1)(2n+1)/6 and the nearest square is chosen as an argmin over the
two candidate roots; bin membership is found by exact integer comparisons
against the bin edges; fractional parts are floor(2^96 {sqrt(P_n)}).
References are written for every shift index j in [-BAND, BAND], so every
seed the benchmark can draw is covered.  One run takes under a minute.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from fractions import Fraction

import mpmath as mp
import numpy as np

import workloads as wl

SHIFTS = range(-wl.BAND, wl.BAND + 1)
HALF = 1 << (wl.BITS - 1)


def pyramidal(n: int) -> int:
    return n * (n + 1) * (2 * n + 1) // 6


def term(n: int) -> tuple[int, int, int, int, str]:
    """(p, f, y, a, side) for index n, by argmin over the candidate roots f, f+1."""
    p = pyramidal(n)
    f = math.isqrt(p)
    below_gap, above_gap = p - f * f, (f + 1) * (f + 1) - p
    y, a = (f, below_gap) if below_gap <= above_gap else (f + 1, above_gap)
    side = "below" if 4 * p < (2 * f + 1) ** 2 else "above"
    return p, f, y, a, side


def distance_bin(p: int, f: int, y: int, L: int, guess: float) -> int:
    """The j >= 1 with (j-1)/L < |sqrt(p) - y| <= j/L, for p not a square.

    `guess` only picks the starting point; the answer is settled by exact
    comparisons of L^2 p against squares of the bin edges.
    """
    def within(j):  # |sqrt(p) - y| <= j/L
        return L * L * p <= (L * f + j) ** 2 if y == f else (L * y - j) ** 2 <= L * L * p
    j = max(1, math.ceil(guess * L))
    while not within(j):
        j += 1
    while j > 1 and within(j - 1):
        j -= 1
    return j


def moment_references(needs: dict[int, set[int]]) -> dict[tuple[int, int], int]:
    """M_k(x) = sum of a_n^k over n <= x for every (k, x) in needs."""
    top = {k: max(xs) for k, xs in needs.items()}
    snap = {x for xs in needs.values() for x in xs}
    sums = dict.fromkeys(needs, 0)
    out = {}
    isqrt = math.isqrt
    for n in range(1, max(top.values()) + 1):
        p = n * (n + 1) * (2 * n + 1) // 6
        f = isqrt(p)
        below_gap = p - f * f
        above_gap = 2 * f + 1 - below_gap
        a = below_gap if below_gap <= above_gap else above_gap
        for k in sums:
            if n <= top[k]:
                sums[k] += a ** k
        if n in snap:
            for k, xs in needs.items():
                if n in xs:
                    out[(k, n)] = sums[k]
    return out


def expsum_moduli(mants: list[int], marks: list[int], m_max: int) -> dict[int, list[float]]:
    """|S_m(N)| = |sum_{n<=N} e(m {sqrt(P_n)})| for N in marks and 1 <= m <= m_max.

    (m * mant) mod 2^96 is reduced exactly in three 32-bit limbs; each
    segment between consecutive marks is summed with math.fsum.
    """
    mask = (1 << 32) - 1
    arr = np.array(mants, dtype=object)
    l0 = (arr & mask).astype(np.uint64)
    l1 = ((arr >> 32) & mask).astype(np.uint64)
    l2 = (arr >> 64).astype(np.uint64)
    bounds = [0] + sorted(set(marks))
    out = {b: [] for b in bounds[1:]}
    m32 = np.uint64(mask)
    s32 = np.uint64(32)
    for m in range(1, m_max + 1):
        mu = np.uint64(m)
        c0 = mu * l0
        c1 = mu * l1 + (c0 >> s32)
        c2 = mu * l2 + (c1 >> s32)
        phase = ((c2 & m32).astype(np.float64) * 2.0 ** -32
                 + (c1 & m32).astype(np.float64) * 2.0 ** -64
                 + (c0 & m32).astype(np.float64) * 2.0 ** -96)
        z = np.exp(2j * np.pi * phase)
        re_parts, im_parts = [], []
        for a, b in zip(bounds, bounds[1:]):
            re_parts.append(math.fsum(z.real[a:b].tolist()))
            im_parts.append(math.fsum(z.imag[a:b].tolist()))
            out[b].append(math.hypot(math.fsum(re_parts), math.fsum(im_parts)))
    return out


def star_discrepancy(values: np.ndarray) -> float:
    """Unnormalized star discrepancy N * sup |count/N - alpha| of a point set."""
    u = np.sort(values)
    n = len(u)
    i = np.arange(1, n + 1, dtype=np.float64)
    return n * float(max((i / n - u).max(), (u - (i - 1) / n).max()))


def decimal(fr: Fraction, digits: int = 45) -> str:
    with mp.workprec(4 * digits):
        return mp.nstr(mp.mpf(fr.numerator) / fr.denominator, digits)


def pin() -> dict:
    ops = {w: {j: {op.label: op for op in wl.build_ops(w, j)} for j in SHIFTS}
           for w in wl.WORKLOADS}
    refs = {w: {str(j): {} for j in SHIFTS} for w in wl.WORKLOADS}

    # exact moments
    needs: dict[int, set[int]] = {}
    for j in SHIFTS:
        for op in ops["scan_moments"][j].values():
            if op.label == "fit2":
                needs.setdefault(op.params["k"], set()).update(op.params["xs"])
            else:
                needs.setdefault(op.params["k"], set()).add(op.params["x"])
        sw = ops["classify_emit"][j]["sandwich"].params
        needs.setdefault(sw["k"], set()).add(sw["x"])
    t = time.monotonic()
    moments = moment_references(needs)
    print(f"moments scan {time.monotonic() - t:.1f}s", file=sys.stderr)
    for j in SHIFTS:
        r = refs["scan_moments"][str(j)]
        for label, op in ops["scan_moments"][j].items():
            if label == "fit2":
                r[label] = [str(moments[(op.params["k"], x)]) for x in op.params["xs"]]
            else:
                r[label] = str(moments[(op.params["k"], op.params["x"])])

    # one classification scan for histogram, near-half, exceptional set,
    # sandwich bins, terms rows and fractional parts
    cls = {j: ops["classify_emit"][j] for j in SHIFTS}
    eq_n = {j: ops["equidist_expsum"][j]["disc"].params["N"] for j in SHIFTS}
    scan_x = {j: cls[j]["histogram"].params["x"] for j in SHIFTS}
    sw_x = {j: cls[j]["sandwich"].params["x"] for j in SHIFTS}
    sw_k, sw_L = wl.SANDWICH_K, wl.SANDWICH_L
    hist_L = 2 * wl.HIST_BINS
    terms_marks = {}
    for j in SHIFTS:
        for label in ("terms_csv", "terms_json", "terms_pool"):
            lo, hi = wl.terms_range(label, j)
            terms_marks[(label, j)] = (lo - 1, hi)
    terms_top = max(hi for _, hi in terms_marks.values())
    terms_points = {v for pair in terms_marks.values() for v in pair}
    n_top = max(max(eq_n.values()), max(scan_x.values()), max(sw_x.values()), terms_top)
    t_window = {x: math.isqrt(math.isqrt((1 << (4 * wl.BITS)) // (x * x * x)))
                for x in scan_x.values()}
    near_cut = max(t_window.values()) + 3

    mants = []
    hist = [0] * (wl.HIST_BINS + 1)
    hist_snap, flagged = {}, 0
    near = []                     # (n, |mant - 2^95|) close to the window
    exceptional = []
    sw_w = [0] * (sw_L // 2 + 1)
    sw_snap = {}
    terms_prefix = {0: 0}
    terms_sum = 0
    hist_marks, sw_marks = set(scan_x.values()), set(sw_x.values())
    scale = 1 << 128
    t = time.monotonic()
    for n in range(1, n_top + 1):
        p, f, y, a, side = term(n)
        mant = math.isqrt(p << (2 * wl.BITS)) - (f << wl.BITS)
        mants.append(mant)
        frac = mant / (1 << wl.BITS)
        dist = frac if y == f else 1.0 - frac
        if (y == f) != (mant < HALF):     # nearest square vs nearest integer
            exceptional.append(n)
        if a == 0:
            hist[1] += 1
            flagged += 1
        else:
            hist[distance_bin(p, f, y, hist_L, dist)] += 1
            m = abs(mant - HALF)
            if m <= near_cut:
                near.append((n, m))
            if n <= max(sw_marks):
                w = (math.isqrt(p << 256) + (y << 128)) ** sw_k
                sw_w[distance_bin(p, f, y, sw_L, dist)] += w
        if n in hist_marks:
            hist_snap[n] = (list(hist[1:]), flagged)
        if n in sw_marks:
            sw_snap[n] = list(sw_w)
        if n <= terms_top:
            terms_sum = (terms_sum + wl.terms_row_hash(n, p, f, y, a, side)) % wl.TERMS_MOD
            if n in terms_points:
                terms_prefix[n] = terms_sum
    print(f"classification scan {time.monotonic() - t:.1f}s", file=sys.stderr)

    den = sw_L ** sw_k * scale ** sw_k
    for j in SHIFTS:
        r = refs["classify_emit"][str(j)]
        x = scan_x[j]
        counts, flg = hist_snap[x]
        r["histogram"] = {"counts": counts, "flagged": flg}
        tw = t_window[x]
        r["nearhalf"] = {"count": sum(1 for n, m in near if n <= x and abs(m - tw) > 2 and m < tw),
                         "borderline": sum(1 for n, m in near if n <= x and abs(m - tw) <= 2)}
        r["exceptional"] = [n for n in exceptional if n <= x]
        w = sw_snap[sw_x[j]]
        nb = sw_L // 2
        r["sandwich"] = {
            "exact": str(moments[(sw_k, sw_x[j])]),
            "lower": decimal(Fraction(sum((b - 1) ** sw_k * w[b] for b in range(1, nb + 1)), den)),
            "upper": decimal(Fraction(sum(b ** sw_k * w[b] for b in range(1, nb + 1)), den)),
        }
        for label in ("terms_csv", "terms_json", "terms_pool"):
            before, hi = terms_marks[(label, j)]
            r[label] = (terms_prefix[hi] - terms_prefix[before]) % wl.TERMS_MOD

    # equidistribution: star discrepancy and exponential sums at every N
    t = time.monotonic()
    values = np.array([m / (1 << wl.BITS) for m in mants[:max(eq_n.values())]], np.float64)
    moduli = expsum_moduli(mants[:max(eq_n.values())], list(eq_n.values()), wl.K_DISC)
    for j in SHIFTS:
        n = eq_n[j]
        refs["equidist_expsum"][str(j)] = {"d": star_discrepancy(values[:n]), "s": moduli[n]}
    print(f"equidistribution {time.monotonic() - t:.1f}s", file=sys.stderr)
    return refs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=wl.REFERENCES, help="where to write the references")
    args = parser.parse_args(argv)
    refs = pin()
    with open(args.out, "w") as fh:
        json.dump({"band": wl.BAND, "step_div": wl.STEP_DIV, "workloads": refs}, fh,
                  separators=(",", ":"))
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
