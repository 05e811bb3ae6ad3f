"""Benchmark workloads: the CLI ops each one runs, and the checks on their outputs.

A workload is a fixed list of `cannonball` CLI invocations.  The seed picks
one shift index j in [-BAND, BAND]; every size and range offset moves by
j/5000 of its base value (at most +-1%), so the amount of work stays the
same while the inputs change.  Because j takes only 2*BAND+1 values, the
oracle pins exact references for every one of them (references.json), so
every seed is checked against pinned values.

Float fields are compared with each op's own error budget, never byte for
byte, so a change that moves a certified float within its budget still
passes.  This module does not import cannonball.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from hashlib import blake2b

import mpmath as mp

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCES = os.path.join(HERE, "references.json")

BAND = 50            # shift index j lies in [-BAND, BAND]
STEP_DIV = 5000      # one step of j moves a size by base/STEP_DIV
BITS = 96            # the CLI's default fixed-point precision of fractional parts
K_DISC = 100         # harmonic truncation of the discrepancy --K op
WEYL_M = 20
KN_M = 5
HIST_BINS = 20
SANDWICH_K, SANDWICH_L = 2, 100
FIT_K, FIT_XS = 2, (10**3, 10**4, 10**5, 10**6)
OPTIMIZE_KS = range(1, 13)
EPS = 2.0 ** -52

WORKLOADS = ("scan_moments", "equidist_expsum", "classify_emit")


def shift(base: int, j: int) -> int:
    """base moved by j steps of base/STEP_DIV."""
    return base + (j * base) // STEP_DIV


def draw_shift(workload: str, seed: int) -> int:
    """The shift index a seed selects; the same seed always gives the same j."""
    return random.Random(f"{workload}:{seed}").randint(-BAND, BAND)


def terms_range(label: str, j: int) -> tuple[int, int]:
    """(lo, hi) of a terms op: the CSV op starts at 1, the others at a shifted offset."""
    if label == "terms_csv":
        return 1, shift(150_000, j)
    if label == "terms_json":
        lo = 1 + 5 * (j + BAND)
        return lo, lo - 1 + shift(50_000, j)
    if label == "terms_pool":
        lo = 1 + 15 * (j + BAND)
        return lo, lo - 1 + shift(150_000, j)
    raise KeyError(label)


@dataclass(frozen=True)
class Op:
    label: str
    argv: tuple
    params: dict = field(default_factory=dict)


def build_ops(workload: str, j: int) -> list[Op]:
    """The workload's ops for shift index j, in the order they run.

    Sizes are half those of the CLI's headline commands, so that a
    35-second run holds about six passes; the mix of work inside a pass is
    unchanged.  The exception is the x = 8e6 moment, which keeps most of its
    indices past n = 3.8e6, where P_n exceeds 2^64.
    """
    if workload == "scan_moments":
        ops = [Op("m1_big", ("moments", "--x", shift(8 * 10**6, j), "--k", 1),
                  {"x": shift(8 * 10**6, j), "k": 1}),
               Op("m3", ("moments", "--x", shift(10**6, j), "--k", 3),
                  {"x": shift(10**6, j), "k": 3}),
               Op("m7", ("moments", "--x", shift(500_000, j), "--k", 7),
                  {"x": shift(500_000, j), "k": 7})]
        xs = [shift(x, j) for x in FIT_XS]
        ops.append(Op("fit2", ("fit", "--k", FIT_K, "--xs", ",".join(map(str, xs))),
                      {"xs": xs, "k": FIT_K}))
        ops.append(Op("m1_pool", ("moments", "--x", shift(2 * 10**6, j), "--k", 1,
                                  "--workers", 2),
                      {"x": shift(2 * 10**6, j), "k": 1}))
    elif workload == "equidist_expsum":
        # one N for every op: the first call builds the fractional-part
        # table cold, the later ones find it warm
        n = shift(500_000, j)
        ops = [Op("disc", ("discrepancy", "--x", n), {"N": n}),
               Op("disc_k", ("discrepancy", "--x", n, "--K", K_DISC), {"N": n, "K": K_DISC}),
               Op("weyl", ("weyl", "--x", n, "--m-max", WEYL_M), {"N": n, "m_max": WEYL_M}),
               Op("knbound", ("knbound", "--x", n, "--m-max", KN_M), {"N": n, "m_max": KN_M})]
    elif workload == "classify_emit":
        x = shift(500_000, j)
        xs_ = shift(150_000, j)
        ops = [Op("sandwich", ("sandwich", "--x", xs_, "--k", SANDWICH_K, "--L", SANDWICH_L),
                  {"x": xs_, "k": SANDWICH_K, "L": SANDWICH_L}),
               Op("histogram", ("histogram", "--x", x, "--bins", HIST_BINS),
                  {"x": x, "bins": HIST_BINS}),
               Op("nearhalf", ("nearhalf", "--x", x), {"x": x}),
               Op("exceptional", ("exceptional", "--x", x), {"x": x})]
        for label, extra in (("terms_csv", ()), ("terms_json", ("--out", "json")),
                             ("terms_pool", ("--workers", 2))):
            lo, hi = terms_range(label, j)
            ops.append(Op(label, ("terms", "--range", f"{lo}:{hi}") + extra,
                          {"lo": lo, "hi": hi}))
        for k in OPTIMIZE_KS:
            ops.append(Op(f"optimize_k{k}", ("optimize", "--preset", "moment-residual",
                                             "--k", k), {"k": k}))
    else:
        raise KeyError(f"unknown workload {workload!r}")
    return [Op(op.label, tuple(str(a) for a in op.argv), op.params) for op in ops]


# ---------------------------------------------------------------------------
# reference quantities shared by the oracle and the checks


def main_term(x: int, k: int) -> mp.mpf:
    """x^(3k/2+1) / (3^(k/2) (3k/2+1) (k+1)) at 256 bits, the paper's main term."""
    with mp.workprec(256):
        e = mp.mpf(3 * k) / 2
        return mp.mpf(x) ** (e + 1) / (mp.mpf(3) ** (mp.mpf(k) / 2) * (e + 1) * (k + 1))


def kn_bound(lo: int, hi: int, m: int) -> float:
    """Second-derivative bound (m|h'(hi)-h'(lo)| + 2)(4/sqrt(m h''(hi)) + 3), h = sqrt(P_x)."""
    with mp.workdps(40):
        def derivs(t):
            t = mp.mpf(t)
            p = t * (t + 1) * (2 * t + 1) / 6
            dp = (6 * t * t + 6 * t + 1) / 6
            ddp = (12 * t + 6) / 6
            return dp / (2 * mp.sqrt(p)), ddp / (2 * mp.sqrt(p)) - dp * dp / (4 * p * mp.sqrt(p))
        h1_lo, _ = derivs(lo)
        h1_hi, h2_hi = derivs(hi)
        return float((m * abs(h1_hi - h1_lo) + 2) * (4 / mp.sqrt(m * h2_hi) + 3))


def expsum_tol(n: int, m: int) -> float:
    """Absolute budget on |S_m| over n points.

    The CLI declares n*2*pi*(m*2^-bits + 2^-52) for the phase error of its
    sums; 64*eps*n is the summation slop erdos_turan also allows; 8*eps*n
    covers the oracle's own rounding.
    """
    return n * 2 * math.pi * (m * 2.0 ** -BITS + EPS) + 72 * EPS * n


def terms_row_hash(n, p, f, y, a, side) -> int:
    text = f"{n},{p},{f},{y},{a},{side}"
    return int.from_bytes(blake2b(text.encode(), digest_size=8).digest(), "little")


TERMS_MOD = 1 << 64


def load_references() -> dict:
    with open(REFERENCES) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# output checks; each returns a list of problems, empty when the output is right


def _close(value, ref, tol) -> bool:
    return abs(value - ref) <= tol


def _rel_close(text: str, ref, rel: float) -> bool:
    with mp.workprec(256):
        return abs(mp.mpf(text) - ref) <= rel * abs(ref)


def _csv_rows(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _load_a351830(root: str) -> dict[int, int]:
    values = {}
    with open(os.path.join(root, "tests", "data", "a351830.txt")) as fh:
        for line in fh:
            line = line.strip()
            if line and not line.startswith("#"):
                n, a = line.split()
                values[int(n)] = int(a)
    return values


def _check_moment(rows, params, exact: int) -> list[str]:
    x, k = params["x"], params["k"]
    if len(rows) != 1:
        return [f"expected 1 row, got {len(rows)}"]
    r = rows[0]
    errs = []
    if int(r["x"]) != x or int(r["k"]) != k:
        errs.append("x/k echo mismatch")
    if int(r["exact"]) != exact:
        errs.append(f"exact M_{k}({x}) = {r['exact']}, reference {exact}")
    # reals are printed at 30 significant digits from a declared prec_bits
    rel = 1e-28 + 2.0 ** (8 - int(r["prec_bits"]))
    with mp.workprec(256):
        main = main_term(x, k)
        residual = exact - main
        normalized = residual / mp.power(x, mp.mpf(3 * k) / 2 + mp.mpf(11) / 12)
    for name, ref in (("main", main), ("residual", residual), ("normalized", normalized)):
        if not _rel_close(r[name], ref, rel):
            errs.append(f"{name} {r[name]} outside budget of {mp.nstr(ref, 30)}")
    return errs


def _check_fit(rows, params, exacts: list[int]) -> list[str]:
    xs, k = params["xs"], params["k"]
    if [int(r["x"]) for r in rows] != xs:
        return ["fit x column mismatch"]
    errs = []
    with mp.workprec(256):
        values = [abs(mp.mpf(e) - main_term(x, k)) for x, e in zip(xs, exacts)]
        lx = [mp.log(x) for x in xs]
        ly = [mp.log(v) for v in values]
        mx, my = sum(lx) / len(lx), sum(ly) / len(ly)
        slope = (sum((a - mx) * (b - my) for a, b in zip(lx, ly))
                 / sum((a - mx) ** 2 for a in lx))
        intercept = my - slope * mx
    # 53-bit floats: residuals are one rounding from the 256-bit value; the
    # slope and intercept go through four float logs and a least-squares
    # fit whose conditioning stays below 1e3 on this grid
    for r, v in zip(rows, values):
        if not _close(float(r["abs_residual"]), float(v), 1e-12 * float(v)):
            errs.append(f"abs_residual at x={r['x']} is {r['abs_residual']}, reference {float(v)!r}")
        for name, ref in (("slope", slope), ("intercept", intercept)):
            if not _close(float(r[name]), float(ref), 1e-9 * abs(float(ref))):
                errs.append(f"{name} {r[name]} outside budget of {float(ref)!r}")
    return errs


def _check_discrepancy(rows, params, ref) -> list[str]:
    n, K = params["N"], params.get("K")
    if len(rows) != 1:
        return [f"expected 1 row, got {len(rows)}"]
    r = rows[0]
    errs = []
    if int(r["N"]) != n:
        errs.append("N echo mismatch")
    d = float(r["d_unnormalized"])
    # the points are the same correctly rounded doubles; the sorted supremum
    # then differs only by the rounding of i/N and the final product
    if not _close(d, ref["d"], n * 2.0 ** -50):
        errs.append(f"D(N) {d!r}, reference {ref['d']!r}")
    if not _close(float(r["d_star"]), ref["d"] / n, 2.0 ** -50):
        errs.append(f"d_star {r['d_star']}, reference {ref['d'] / n!r}")
    if K is None:
        if r["K"] or r["et_bound"] or r["slack"]:
            errs.append("plain discrepancy row carries K/et_bound/slack")
        return errs
    et, slack = float(r["et_bound"]), float(r["slack"])
    ref_et = n / (K + 1) + 3 * sum(s / m for m, s in enumerate(ref["s"][:K], 1))
    tol = 3 * sum(expsum_tol(n, m) / m for m in range(1, K + 1)) + n * 2.0 ** -50
    if int(r["K"]) != K:
        errs.append("K echo mismatch")
    if not _close(et, ref_et, tol):
        errs.append(f"et_bound {et!r}, reference {ref_et!r} (budget {tol:.3g})")
    if not 0.0 <= slack < et:
        errs.append(f"slack {slack!r} not in [0, et_bound)")
    if not d <= et + slack:
        errs.append(f"D(N) {d!r} exceeds et_bound + slack {et + slack!r}")
    return errs


def _check_weyl(rows, params, ref) -> list[str]:
    n, m_max = params["N"], params["m_max"]
    if [int(r["m"]) for r in rows] != list(range(1, m_max + 1)):
        return ["weyl m column mismatch"]
    errs = []
    for r in rows:
        m = int(r["m"])
        ratio = float(r["ratio"])
        tol = expsum_tol(n, m) / n
        if not _close(ratio, ref["s"][m - 1] / n, tol):
            errs.append(f"|S_{m}|/N {ratio!r}, reference {ref['s'][m - 1] / n!r}")
        if not ratio <= 1.0 + tol:
            errs.append(f"|S_{m}| exceeds N")
    return errs


def _check_knbound(rows, params, ref) -> list[str]:
    n, m_max = params["N"], params["m_max"]
    if [int(r["m"]) for r in rows] != list(range(1, m_max + 1)):
        return ["knbound m column mismatch"]
    errs = []
    for r in rows:
        m = int(r["m"])
        mod, bound = float(r["modulus"]), float(r["bound"])
        if not _close(mod, ref["s"][m - 1], expsum_tol(n, m)):
            errs.append(f"|S_{m}| {mod!r}, reference {ref['s'][m - 1]!r}")
        if not mod <= n * (1 + 1e-12):
            errs.append(f"|S_{m}| exceeds N")
        kb = kn_bound(1, n, m)
        if not _close(bound, kb, 1e-9 * kb):
            errs.append(f"bound {bound!r}, reference {kb!r}")
        if r["ok"] != "True" or not mod <= bound:
            errs.append(f"second-derivative bound fails at m={m}")
    return errs


def _check_sandwich(rows, params, ref) -> list[str]:
    if len(rows) != 1:
        return [f"expected 1 row, got {len(rows)}"]
    r = rows[0]
    k = params["k"]
    exact = int(ref["exact"])
    errs = []
    if (int(r["x"]), int(r["k"]), int(r["L"])) != (params["x"], k, params["L"]):
        errs.append("x/k/L echo mismatch")
    if int(r["exact"]) != exact:
        errs.append(f"exact {r['exact']}, reference {exact}")
    # weights carry floor/ceil 64-bit mantissas (relative error below
    # k*2^-63) and the bounds are printed at prec_digits digits
    print_rel = 10.0 ** (2 - int(r["prec_digits"]))
    rel = k * 2.0 ** -62 + print_rel
    lower, upper = Fraction(r["lower"]), Fraction(r["upper"])
    for name, value in (("lower", lower), ("upper", upper)):
        want = Fraction(ref[name])
        if abs(value - want) > rel * want:
            errs.append(f"{name} {r[name]}, reference {ref[name]}")
    if not (lower <= exact * (1 + Fraction(print_rel)) and exact <= upper * (1 + Fraction(print_rel))):
        errs.append(f"sandwich bracket fails: {r['lower']} <= {exact} <= {r['upper']}")
    want_width = float((Fraction(ref["upper"]) - Fraction(ref["lower"])) / Fraction(ref["upper"]))
    if not _close(float(r["rel_width"]), want_width, 1e-9 * want_width):
        errs.append(f"rel_width {r['rel_width']}, reference {want_width!r}")
    return errs


def _check_histogram(rows, params, ref) -> list[str]:
    x, bins = params["x"], params["bins"]
    counts = [int(r["count"]) for r in rows]
    errs = []
    if [int(r["bin"]) for r in rows] != list(range(1, bins + 1)):
        return ["histogram bin column mismatch"]
    if any(int(r["x"]) != x or int(r["bins"]) != bins for r in rows):
        errs.append("x/bins echo mismatch")
    if counts != ref["counts"]:
        errs.append(f"bin counts {counts}, reference {ref['counts']}")
    if sum(counts) != x:
        errs.append(f"bin counts sum to {sum(counts)}, not x={x}")
    if any(int(r["flagged_total"]) != ref["flagged"] for r in rows):
        errs.append(f"flagged_total differs from {ref['flagged']}")
    return errs


def _check_nearhalf(rows, params, ref) -> list[str]:
    if len(rows) != 1:
        return [f"expected 1 row, got {len(rows)}"]
    r = rows[0]
    got = (int(r["x"]), int(r["count"]), int(r["borderline"]), int(r["bits"]))
    want = (params["x"], ref["count"], ref["borderline"], BITS)
    return [] if got == want else [f"nearhalf (x, count, borderline, bits) {got}, reference {want}"]


def _check_exceptional(rows, params, ref) -> list[str]:
    if len(rows) != 1:
        return [f"expected 1 row, got {len(rows)}"]
    r = rows[0]
    members = [int(v) for v in r["members"].split(";") if v]
    errs = []
    if int(r["x"]) != params["x"]:
        errs.append("x echo mismatch")
    if members != ref or int(r["count"]) != len(ref):
        errs.append(f"exceptional members {members}, reference {ref}")
    if members:
        errs.append("the exceptional set is not empty")
    if r["window_checked"] != "True":
        errs.append("window_checked is not True")
    return errs


def _check_terms(rows, params, checksum: int, a351830: dict[int, int]) -> list[str]:
    lo, hi = params["lo"], params["hi"]
    if len(rows) != hi - lo + 1:
        return [f"{len(rows)} terms rows for range {lo}:{hi}"]
    errs = []
    total = 0
    for i, r in enumerate(rows):
        n = int(r["n"])
        if n != lo + i:
            return [f"row {i} has n={n}, expected {lo + i}"]
        total += terms_row_hash(n, r["p"], r["f"], r["y"], r["a"], r["side"])
        if n in a351830 and int(r["a"]) != a351830[n]:
            errs.append(f"a_{n} = {r['a']}, tests/data/a351830.txt has {a351830[n]}")
    if total % TERMS_MOD != checksum:
        errs.append("terms rows differ from the pinned reference rows")
    return errs


def _check_optimize(doc, params) -> list[str]:
    k = params["k"]
    if not isinstance(doc, list) or len(doc) != 1:
        return ["optimize output is not a one-element JSON array"]
    d = doc[0]

    def exps(monomial):
        return {v: Fraction(e) for v, e in monomial["exponents"].items()}

    errs = []
    if d.get("preset") != "moment-residual" or d.get("k") != k:
        errs.append("preset/k echo mismatch")
    # hand balancing of moment_residual_terms: M = x^(3/8) L^(-1/2) K^(1/4)
    # (independent of k), then K = x^(1/6), leaving x^(3k/2 + 11/12)
    if exps(d["segment_choice"]) != {"x": Fraction(3, 8), "L": Fraction(-1, 2), "K": Fraction(1, 4)}:
        errs.append(f"segment_choice {d['segment_choice']['monomial']}")
    if exps(d["truncation_choice"]) != {"x": Fraction(1, 6)}:
        errs.append(f"truncation_choice {d['truncation_choice']['monomial']}")
    if Fraction(d["residual_exponent"]) != Fraction(3 * k, 2) + Fraction(11, 12):
        errs.append(f"residual_exponent {d['residual_exponent']}")
    return errs


def check_output(root: str, workload: str, op: Op, path: str, refs: dict) -> list[str]:
    """Problems with one op's output file, judged against the pinned references."""
    label, params = op.label, op.params
    if label.startswith("optimize"):
        with open(path) as fh:
            return _check_optimize(json.load(fh), params)
    if label == "terms_json":
        with open(path) as fh:
            rows = json.load(fh)
    else:
        rows = _csv_rows(path)
    if workload == "scan_moments":
        if label == "fit2":
            return _check_fit(rows, params, [int(v) for v in refs["fit2"]])
        return _check_moment(rows, params, int(refs[label]))
    if workload == "equidist_expsum":
        check = {"disc": _check_discrepancy, "disc_k": _check_discrepancy,
                 "weyl": _check_weyl, "knbound": _check_knbound}[label]
        return check(rows, params, refs)
    if label.startswith("terms"):
        a351830 = {}
        if params["lo"] == 1:
            a351830 = _load_a351830(root)
            if sorted(a351830) != list(range(1, 101)):
                return ["tests/data/a351830.txt does not hold a_1..a_100"]
        return _check_terms(rows, params, int(refs[label]), a351830)
    check = {"sandwich": _check_sandwich, "histogram": _check_histogram,
             "nearhalf": _check_nearhalf, "exceptional": _check_exceptional}[label]
    return check(rows, params, refs[label])
