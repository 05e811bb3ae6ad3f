"""Command-line front end: output formats, checkpointing, parallel orchestration.

Results are deterministic for a fixed configuration: the commands that
scan indices (terms, moments, average, fit, sandwich, histogram, nearhalf,
exceptional) take --workers and --chunk, and all of them walk the same
spans, exactseq.spans, merged in index order no matter how many workers
computed them; integers are emitted as exact decimal strings, and reals
are formatted at a declared precision.  A moments scan checkpoints at chunk
boundaries; resuming a killed run produces byte-identical output to an
uninterrupted one.  A checkpoint refuses to resume under a configuration
whose semantic fingerprint differs (worker count, chunk size and checkpoint
cadence are deliberately not part of the fingerprint).  _write_checkpoint
and _read_checkpoint are the one writer and the one reader of checkpoints:
the writer hands emit one line of JSON, so a checkpoint is written like
any output file (below), and the reader makes every check of a saved
state before any of it is used.

emit is the one writer, and _framed its one framing: a CSV header, or a
JSON array whose every row leads with its ",\n" separator, dropped before
the first row.  emit takes any iterable and draws its first item before
it opens anything: text chunks (terms, checkpoints) are written as they
arrive, and dict rows are drawn SUB_BLOCK at a time and rendered block by
block.  terms frames its own chunks: it formats each kernel sub-block of
rows straight from (f, d) into one string, and exactseq.spans hands on
each span's strings, so memory grows with --chunk but not with the
range.  An int64 kernel sub-block is formatted whole in numpy: each
integer becomes base-10^4 digit groups, one 4-byte word each from a
20001-word table whose second half writes leading zeros as NUL, the
literal pieces become NUL-padded words, and the text is the bytes of one
rows-by-words uint32 array with its NULs deleted; p = f^2 + d, past int64
from n = 3024617, is built as two base-10^16 limbs.

Every other row is a dict rendered by the standard library, in
_rows_text: csv.writer in the excel dialect, or json.JSONEncoder with
indent=2, with the first row's keys as the CSV header.  That covers the
object sub-blocks of terms past FD_CAP, the exact reference of the vector
path (see _terms_text), and the rows of the other commands.  Each handler
makes its library call itself, so every refusal and self-check fires
before any output exists, and returns its rows; histogram, weyl and
knbound return generators over the library's result, so no command holds
its whole table of rows.  A file is written to FILE.tmp and renamed over
FILE only when complete: on any error the .tmp file is removed and an
existing FILE keeps its bytes.  A reader that closes stdout early
(`| head`) ends the run quietly, with status 0.

Exit status: 0 on success, 2 for bad input (a request too large for
memory included), 3 for a checkpoint written by another configuration, 4
when a result fails its own self-check (the sandwich bracket or the
Erdos-Turan inequality), which points to a defect in the program rather
than in the input.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import itertools
import json
import math
import os
import sys
from dataclasses import asdict, dataclass
from typing import Optional

import mpmath as mp
import numpy as np

from . import equidist, exactseq, minimax, moments

SCHEMA_VERSION = 1
REAL_DIGITS = 30  # significant decimal digits of every serialized real
ENV_WORKERS = "CANNONBALL_WORKERS"
ENV_CHECKPOINT_DIR = "CANNONBALL_CHECKPOINT_DIR"
# RunConfig fields that do not change results, so no fingerprint holds them
_NOT_SEMANTIC = {"workers", "chunk", "output", "checkpoint_path", "checkpoint_every"}
_CHECKPOINT_EVERY = 1 << 20  # default indices between checkpoints, of RunConfig and the flag


class CheckpointMismatch(RuntimeError):
    """Checkpoint fingerprint does not match the requested configuration."""


@dataclass(frozen=True)
class RunConfig:
    command: str
    x: Optional[int] = None
    lo: Optional[int] = None
    hi: Optional[int] = None
    k: Optional[int] = None
    L: Optional[int] = None
    K: Optional[int] = None
    bins: Optional[int] = None
    m_max: Optional[int] = None
    bits: int = exactseq.DEFAULT_BITS
    xs: Optional[tuple] = None
    expr: Optional[str] = None
    var: Optional[str] = None
    preset: Optional[str] = None
    workers: int = 1
    chunk: int = exactseq.CHUNK
    out_format: Optional[str] = None  # None: csv, or json for optimize, which writes JSON only
    output: Optional[str] = None
    checkpoint_path: Optional[str] = None
    checkpoint_every: int = _CHECKPOINT_EVERY

    def __post_init__(self):
        """Refuse a field the command reads left at None, range-check each flag
        the library cannot name, and check --out, before any work.

        Each message names the flag.  An unset out_format becomes csv, or
        json for optimize, the one format it writes.  Every other bound
        (bits, bins, L, k, K >= 1) is the library's own check, with the
        library's message.  optimize reads k in preset mode only."""
        fields = _HANDLERS.get(self.command, (None, ()))[1]
        if self.command == "optimize" and self.preset:
            fields += ("k",)
        for name in fields:
            if getattr(self, name) is None:
                flag = "--range" if name in ("lo", "hi") else "--" + name.replace("_", "-")
                raise ValueError(f"{self.command} needs {flag}")
        cap, inf = equidist.MAX_HARMONIC, math.inf
        ranges = (("workers", 1, inf), ("chunk", 1, inf), ("checkpoint_every", 1, inf),
                  ("K", -inf, cap), ("m_max", 1, cap),
                  ("x", 2 if self.command == "knbound" else 1, inf))  # kn_bound needs lo < hi
        for name, low, high in ranges:
            value = getattr(self, name)
            if value is not None and not low <= value <= high:
                flag = "--" + name.replace("_", "-")
                bound = f">= {low}" if value < low else f"<= {high}"
                raise ValueError(f"{flag} must be {bound}, got {value}")
        formats = ("json",) if self.command == "optimize" else ("csv", "json")
        if self.out_format is None:
            object.__setattr__(self, "out_format", formats[0])
        if self.out_format not in formats:
            raise ValueError(f"--out must be {' or '.join(formats)}, got {self.out_format!r}")

    def fingerprint(self) -> str:
        """Hash of the semantic configuration only.

        Worker count, chunk size, checkpoint cadence and file locations do
        not change results, so they are excluded: a run may be resumed with
        different parallelism.
        """
        sem = {k: v for k, v in asdict(self).items() if k not in _NOT_SEMANTIC}
        sem.update(schema=SCHEMA_VERSION, xs=list(self.xs) if self.xs else None)
        blob = json.dumps(sem, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


def _real(v) -> str:
    """Deterministic decimal rendering of an mpmath real at REAL_DIGITS digits."""
    return mp.nstr(v, REAL_DIGITS)


def _fraction_str(fr) -> str:
    with mp.workprec(4 * REAL_DIGITS):
        return mp.nstr(mp.mpf(fr.numerator) / fr.denominator, REAL_DIGITS)


class _Line:
    """A file whose write returns the line, so _CSV.writerow returns its row's text."""
    write = staticmethod(str)


_CSV = csv.writer(_Line())  # the excel dialect csv.DictWriter writes: minimal quoting, CRLF


def _rows_text(rows: list, is_csv: bool) -> str:
    """Dict rows as the CSV lines csv.DictWriter writes for them, or as the
    elements json.dump(rows, indent=2) writes, each led by ",\n"."""
    if is_csv:
        return "".join(map(_CSV.writerow, map(dict.values, rows)))
    return ",\n" + json.JSONEncoder(indent=2).encode(rows)[2:-2]


def _framed(is_csv: bool, header: str, texts):
    """texts, rows in out_format, as output chunks inside a CSV header or a
    JSON array.  The header goes out joined to the first text, so nothing
    is written before it exists; in JSON that text loses the ",\n" every
    row leads with."""
    first = next(texts)
    yield header + first if is_csv else "[\n" + first[2:]
    yield from texts
    if not is_csv:
        yield "\n]\n"


def emit(rows, out_format: str, destination=None):
    """Write a command's output to stdout or to `destination`, chunk by chunk.

    rows is any iterable, and its first item is drawn before anything is
    opened.  If that item is a str, rows are text chunks already in
    out_format (how terms and checkpoints are written), each written as it
    arrives.  Otherwise rows are dict rows, framed as RFC-4180 CSV headed by
    the first row's keys (so it needs a row) or as a JSON array with stable
    field order, and rendered by the standard library's writers
    exactseq.SUB_BLOCK (8192) rows at a time as they are drawn, so neither
    the rows nor their text are ever held whole.

    A file is written to destination + ".tmp" and moved over `destination`
    by os.replace after the last chunk, so no reader sees a partial file.
    If anything raises before then, the .tmp file is removed, an existing
    destination keeps its old bytes, and the exception propagates.  A
    reader that closes stdout early (`| head`) ends the output quietly:
    stdout is pointed at os.devnull, so the flush at shutdown has nothing
    to report, and emit returns normally.
    """
    rows = iter(rows)
    first = next(rows, None)
    chunks = rows = itertools.chain([first], rows)
    if first is None and out_format == "json":
        chunks = ["[]\n"]
    elif not isinstance(first, str):
        if out_format not in ("csv", "json"):
            raise ValueError(f"unknown output format {out_format!r}")
        is_csv = out_format == "csv"
        blocks = iter(lambda: list(itertools.islice(rows, exactseq.SUB_BLOCK)), [])
        chunks = _framed(is_csv, _CSV.writerow(first), (_rows_text(b, is_csv) for b in blocks))
    if destination is None:
        try:
            sys.stdout.writelines(chunks)
            sys.stdout.flush()
        except BrokenPipeError:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return
    tmp = str(destination) + ".tmp"
    try:
        with open(tmp, "w", newline="") as fh:
            fh.writelines(chunks)
        os.replace(tmp, destination)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _write_checkpoint(path: str, fingerprint: str, last_n: int, accumulators):
    """Save the state of a scan after index last_n: its (name, int) accumulators.

    The document is one line of JSON, written by emit like any output: to
    path + ".tmp", renamed over path when complete, the .tmp file removed
    on error, so a failed write leaves the previous checkpoint as it was.
    """
    doc = {
        "schema_version": SCHEMA_VERSION,
        "fingerprint": fingerprint,
        "last_n": last_n,
        "accumulators": [[name, str(value)] for name, value in accumulators],
    }
    emit((json.dumps(doc),), "json", path)


def _read_checkpoint(path: str, fingerprint: str, x: int, names: list) -> tuple[int, list]:
    """(last_n, values) of the checkpoint at path, a saved state of this run.

    The checks run in this order: the schema version and the shape
    _write_checkpoint gives (another version is a CheckpointMismatch,
    unparsable JSON or another shape a ValueError that names the file);
    the fingerprint (another one is a CheckpointMismatch: another
    configuration wrote it); last_n in [0, x) and accumulators named
    `names` (else a ValueError: it holds no partial sum of this run).
    values are the accumulators as ints.
    """
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:
            raise ValueError(f"checkpoint {path} is not JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"checkpoint {path} is not a JSON object")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise CheckpointMismatch(
            f"checkpoint schema {doc.get('schema_version')} unsupported")
    pairs = doc.get("accumulators")
    if not (isinstance(doc.get("fingerprint"), str) and type(doc.get("last_n")) is int
            and isinstance(pairs, list)
            and all(isinstance(p, list) and len(p) == 2 and isinstance(p[0], str)
                    and isinstance(p[1], str) and p[1].isdecimal() for p in pairs)):
        raise ValueError(f"checkpoint {path} needs a string fingerprint, an integer last_n "
                         "and accumulators as [name, decimal string] pairs")
    if doc["fingerprint"] != fingerprint:
        raise CheckpointMismatch(
            "checkpoint was written by a different configuration; refusing to resume")
    last_n, saved = doc["last_n"], [name for name, _ in pairs]
    if not 0 <= last_n < x or saved != names:
        raise ValueError(f"checkpoint {path} holds no state of this run before x={x}: "
                         f"last_n={last_n}, accumulators {saved}")
    return last_n, [int(v) for _, v in pairs]


# ---------------------------------------------------------------------------
# command handlers


def _cmd_terms(cfg: RunConfig):
    """The terms output as text chunks: each span's sub-block strings, in order, framed."""
    is_csv = cfg.out_format == "csv"
    spans = exactseq.spans(functools.partial(_terms_text, is_csv), cfg.hi, cfg.workers, cfg.chunk,
                           cfg.lo)
    return _framed(is_csv, "n,p,f,y,a,side\r\n", (text for _, (parts,) in spans for text in parts))


def _terms_text(is_csv: bool, s: int, f, d) -> tuple[list[str]]:
    """The terms rows of one (f, d) sub-block as a one-string list, the part
    spans folds into a span's list of strings, so no span is joined into
    one string.

    p = f^2 + d, and y, a and the side come from exactseq._nearest.  The
    rows are those _rows_text gives for the dict rows {"n": n, "p": str(p),
    "f": ..., "side": side}: in CSV no field needs quoting and each line
    ends in CRLF; in JSON "n" is a bare int, the other fields strings, and
    each row is led by a comma and a newline, which _framed drops before
    the first row.

    Each int64 kernel sub-block is formatted whole in numpy by _vector_rows:
    every integer becomes base-10^4 digit groups looked up in the one word
    table _DIGITS, the literal text becomes NUL-padded 4-byte words, and
    the NULs are deleted from the bytes at the end.  Object sub-blocks past
    FD_CAP take _object_rows, dict rows through _rows_text: the exact
    fallback, and the standard-library reference the vector path matches
    byte for byte.
    """
    return ([(_object_rows if f.dtype == object else _vector_rows)(s, f, d, is_csv)],)


def _object_rows(s: int, fs, ds, is_csv: bool) -> str:
    """The Terms of one sub-block as dict rows through _rows_text: exact for any (f, d)."""
    return _rows_text([{"n": t.n, "p": str(t.p), "f": str(t.f), "y": str(t.y), "a": str(t.a),
                        "side": t.side.value} for t in exactseq._block_terms(s, fs, ds)], is_csv)


def _words(text: str) -> np.ndarray:
    """text's ASCII bytes, NUL-padded to whole 4-byte words, as uint32 words."""
    raw = text.encode()
    return np.frombuffer(raw + b"\0" * (-len(raw) % 4), np.uint32)


def _digit_table() -> np.ndarray:
    """The 20001 words of _DIGITS: r in [0, 10^4) as four digits, then r with
    its leading zeros as NUL (0 as "0"), then four NULs.  Built in uint8,
    so the build adds little to the import's peak memory."""
    d = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    digits = np.stack(np.meshgrid(d, d, d, d, indexing="ij"), axis=-1).reshape(10000, 4)
    lead = np.logical_and.accumulate(digits == ord("0"), axis=1)
    lead[:, 3] = False
    bare = np.where(lead, np.uint8(0), digits)
    return np.concatenate([digits, bare, np.zeros((1, 4), np.uint8)]).view(np.uint32).ravel()


_DIGITS = _digit_table()
# _OFFSETS[k, g]: the _DIGITS offset of group k (0 the least significant) of a
# value spelling g groups: 0 inside it, 10000 on its leading group, 20000
# above it.  g = 0 prints nothing, and g >= 5 prints all four groups whole.
_OFFSETS = 10000 * np.clip(np.arange(4)[:, None] - np.arange(9) + 2, 0, 2)
_THRESHOLDS = 10 ** np.array([4, 8, 12])
# the literal text before each of the six columns n, p's high and low limbs,
# f, y, a, and after a (below, above the half)
_CSV_WORDS = ([_words(t) for t in ("", ",", "", ",", ",", ",")],
              [_words(f",{side.value}\r\n") for side in exactseq.Side])
_JSON_WORDS = ([_words(t) for t in (',\n  {\n    "n": ', ',\n    "p": "', "", '",\n    "f": "',
                                    '",\n    "y": "', '",\n    "a": "')],
               [_words(f'",\n    "side": "{side.value}"\n  }}') for side in exactseq.Side])


def _vector_rows(s: int, f: np.ndarray, d: np.ndarray, is_csv: bool) -> str:
    """The rows of one int64 kernel sub-block, formatted as whole columns.

    The text is built in a (words, rows) uint32 array m, one 4-byte word
    per entry: the literal pieces as NUL-padded words, and each integer
    column as its base-10^4 groups, most significant first.  Group k (0 the
    least significant), holding r, of a value spelling g groups (counted
    against _THRESHOLDS) is the word _DIGITS[r + _OFFSETS[k, g]]: four
    digits inside the value, its leading zeros as NUL on the leading group,
    four NULs above it, so a zero prints "0".  A column takes only the
    groups its widest value needs.  The rows of m.T, with every NUL
    deleted, are the text: no output character is NUL.

    p = f^2 + d passes 2^63 at n = 3024617, so it is built as two base-10^16
    limbs: with f = fh 10^8 + fl and 2 fh fl = ch 10^8 + cl, t = fl^2 + d +
    cl 10^8 and p = (fh^2 + ch + t // 10^16) 10^16 + t mod 10^16.  Kernel
    blocks have f < 5.8e14 < 2^50 and d <= 2f, so fh < 5.8e6, 2 fh fl <
    1.2e15, t < 2.2e16 and the high limb is below 3.4e13: every step is
    exact in int64.  A zero high limb prints nothing (g = 0), and under a
    nonzero one the low limb prints all sixteen digits (g >= 5); the high
    limb turns nonzero at n = 310723, where P_n passes 10^16.
    """
    heads, tails = _CSV_WORDS if is_csv else _JSON_WORDS
    y, a, above = exactseq._nearest(f, d)
    fh = f // 10**8
    fl = f - fh * 10**8
    c = 2 * fh * fl
    ch = c // 10**8
    t = fl * fl + d + (c - ch * 10**8) * 10**8
    carry = t // 10**16
    phi = fh * fh + ch + carry
    values = (np.arange(s, s + len(f), dtype=np.int64), phi, t - carry * 10**16, f, y, a)
    groups = [np.searchsorted(_THRESHOLDS, v, side="right") + 1 for v in values]
    high = phi > 0
    groups[1] *= high
    groups[2] += 4 * high
    widths = [min(int(g.max()), 4) for g in groups]
    m = np.empty((sum(map(len, heads)) + sum(widths) + len(tails[0]), len(f)), np.uint32)
    j = 0
    for head, v, g, w in zip(heads, values, groups, widths):
        m[j:j + len(head)] = head[:, None]
        j += len(head) + w
        for k in range(w):
            q = v // 10000
            np.take(_DIGITS, v - 10000 * q + _OFFSETS[k, g], out=m[j - 1 - k])
            v = q
    m[j:] = np.where(above, tails[1][:, None], tails[0][:, None])
    return m.T.tobytes().translate(None, b"\0").decode()


def _cmd_moments(cfg: RunConfig):
    fingerprint, names = cfg.fingerprint(), [f"m{cfg.k}"]
    start_n, init = 1, None
    ckpt = cfg.checkpoint_path
    if ckpt and os.path.exists(ckpt):
        last_n, init = _read_checkpoint(ckpt, fingerprint, cfg.x, names)
        start_n = last_n + 1
    progress = None
    if ckpt:
        state = {"written": start_n - 1}

        def progress(last_n, sums):
            if last_n - state["written"] >= cfg.checkpoint_every and last_n < cfg.x:
                _write_checkpoint(ckpt, fingerprint, last_n, zip(names, sums))
                state["written"] = last_n

    table = moments.power_sums_at([cfg.x], (cfg.k,), workers=cfg.workers, chunk=cfg.chunk,
                                  start_n=start_n, init=init, progress=progress)
    s = moments.summary_from_exact(cfg.x, cfg.k, table[cfg.x][0])
    return [{
        "x": s.x,
        "k": s.k,
        "exact": str(s.exact),
        "main": _real(s.main),
        "residual": _real(s.residual),
        "normalized": _real(s.normalized),
        "prec_bits": moments.WORK_PREC,
    }]


def _cmd_average(cfg: RunConfig):
    s = moments.average(cfg.x, workers=cfg.workers, chunk=cfg.chunk)
    m1 = s.exact * s.x  # A(x) * x is the exact first moment again
    row = {
        "x": s.x,
        "m1": str(m1.numerator),
        "average": f"{s.exact.numerator}/{s.exact.denominator}",
        "value": _real(s.value),
        "main": _real(s.main),
        "prec_bits": moments.WORK_PREC,
    }
    return [row]


def _cmd_sandwich(cfg: RunConfig):
    r = moments.sandwich(cfg.x, cfg.k, cfg.L, workers=cfg.workers, chunk=cfg.chunk)
    row = {
        "x": r.x, "k": r.k, "L": r.L,
        "lower": _fraction_str(r.lower),
        "upper": _fraction_str(r.upper),
        "exact": str(r.exact),
        "rel_width": repr(r.rel_width),
        "prec_digits": REAL_DIGITS,
    }
    return [row]


def _cmd_discrepancy(cfg: RunConfig):
    if cfg.K is None:
        r = equidist.star_discrepancy(equidist.sqrt_frac_points(cfg.x, cfg.bits))
    else:
        equidist.check_truncation(cfg.K, cfg.bits)  # a bad K builds no point table
        r = equidist.erdos_turan(equidist.sqrt_frac_points(cfg.x, cfg.bits), cfg.K, cfg.bits)
    row = {
        "N": r.N,
        "d_unnormalized": repr(r.d_unnormalized),
        "d_star": repr(r.d_star),
        "K": r.K if r.K is not None else "",
        "et_bound": repr(r.et_bound) if r.et_bound is not None else "",
        "slack": repr(r.slack) if r.slack is not None else "",
        "prec_bits": 53,
    }
    return [row]


def _cmd_weyl(cfg: RunConfig):
    return ({"m": m, "ratio": repr(ratio), "prec_bits": 53}
            for m, ratio in equidist.weyl_profile(cfg.x, cfg.m_max, cfg.bits))


def _cmd_knbound(cfg: RunConfig):
    """|S_m(N)| next to its second-derivative bound for m in [1, m_max]: N times
    weyl's ratios, so one engine pass serves every m."""
    profile = equidist.weyl_profile(cfg.x, cfg.m_max, cfg.bits)
    bounds = [equidist.kn_bound(1, cfg.x, m) for m, _ in profile]
    return ({"m": m, "modulus": repr(ratio * cfg.x), "bound": repr(bound),
             "ok": ratio * cfg.x <= bound, "prec_bits": 53}
            for (m, ratio), bound in zip(profile, bounds))


def _cmd_exceptional(cfg: RunConfig):
    members = exactseq.exceptional_indices(cfg.x, workers=cfg.workers, chunk=cfg.chunk)
    row = {
        "x": cfg.x,
        "count": len(members),
        "members": ";".join(str(n) for n in members),
        "window_checked": all(exactseq.half_window_check(n) for n in members),
    }
    return [row]


def _cmd_nearhalf(cfg: RunConfig):
    count, borderline = exactseq.near_half_count(cfg.x, cfg.bits, workers=cfg.workers,
                                                 chunk=cfg.chunk)
    return [{"x": cfg.x, "count": count, "borderline": borderline, "bits": cfg.bits}]


def _cmd_histogram(cfg: RunConfig):
    h = equidist.half_distance_histogram(cfg.x, cfg.bins, workers=cfg.workers, chunk=cfg.chunk)
    return ({"x": h.x, "bins": h.bins, "bin": j, "count": c, "flagged_total": h.flagged}
            for j, c in enumerate(h.counts, 1))


def _monomial_json(m: minimax.Monomial) -> dict:
    return {"monomial": m.format(),
            "exponents": {v: str(e) for v, e in m.exponents.items()}}


def _cmd_optimize(cfg: RunConfig):
    if cfg.preset:
        if cfg.preset != "moment-residual":
            raise ValueError(f"unknown preset {cfg.preset!r}")
        r = minimax.balance_moment_residual(cfg.k)
        doc = {
            "preset": cfg.preset,
            "k": r.k,
            "segment_choice": _monomial_json(r.segment_choice),
            "truncation_choice": _monomial_json(r.truncation_choice),
            "residual_exponent": str(r.residual_exponent),
        }
        return [doc]
    if not cfg.expr or not cfg.var:
        raise ValueError("optimize needs --expr and --var (or --preset)")
    F = None
    gs = []
    for part in cfg.expr.split(";"):
        name, _, body = part.partition("=")
        name = name.strip()
        if name == "F":
            F = minimax.Monomial.parse(body)
        elif name == "G":
            gs.append(minimax.Monomial.parse(body))
        else:
            raise ValueError(f"expected F=... or G=... in --expr, got {part!r}")
    if F is None or not gs:
        raise ValueError("--expr must define one F and at least one G")
    sol = minimax.solve_exponents(F, gs, cfg.var)
    doc = {
        "var": cfg.var,
        "argmin": _monomial_json(sol.argmin),
        "value": _monomial_json(sol.value),
        "crossings": [_monomial_json(c) for c in sol.crossings],
    }
    return [doc]


def _cmd_fit(cfg: RunConfig):
    report = moments.fit_residual(cfg.xs, cfg.k, workers=cfg.workers, chunk=cfg.chunk)
    rows = [{
        "x": x, "k": cfg.k,
        "abs_residual": repr(v),
        "slope": repr(report.slope),
        "intercept": repr(report.intercept),
        "prec_bits": 53,
    } for x, v in zip(report.xs, report.values)]
    return rows


# each command's handler, and the RunConfig fields it reads that have no default
_HANDLERS = {
    "terms": (_cmd_terms, ("lo", "hi")),
    "moments": (_cmd_moments, ("x", "k")),
    "average": (_cmd_average, ("x",)),
    "sandwich": (_cmd_sandwich, ("x", "k", "L")),
    "discrepancy": (_cmd_discrepancy, ("x",)),
    "weyl": (_cmd_weyl, ("x", "m_max")),
    "knbound": (_cmd_knbound, ("x", "m_max")),
    "exceptional": (_cmd_exceptional, ("x",)),
    "nearhalf": (_cmd_nearhalf, ("x",)),
    "histogram": (_cmd_histogram, ("x", "bins")),
    "optimize": (_cmd_optimize, ()),
    "fit": (_cmd_fit, ("k", "xs")),
}


def run(config: RunConfig) -> int:
    """Execute one command and write its artifact; returns the exit status."""
    if config.command not in _HANDLERS:
        print(f"unknown command {config.command!r}", file=sys.stderr)
        return 2
    try:
        emit(_HANDLERS[config.command][0](config), config.out_format, config.output)
    except CheckpointMismatch as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except AssertionError as exc:
        print(f"error: self-check failed: {exc}", file=sys.stderr)
        return 4
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory{f': {exc}' if str(exc) else ''}", file=sys.stderr)
        return 2
    return 0


def _parse_range(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition(":")
    try:
        return int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(f"--range expects LO:HI, got {text!r}")


# one parser per process, the one main parses with (a build takes 2-5 ms on a
# 2-vCPU Xeon VM); parse_args leaves the parser as it found it
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cannonball",
        description="Exact nearest-square distances of square pyramidal numbers: "
                    "sequence terms, moments, equidistribution and balancing tools.")
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--output", help="write to this path instead of stdout")
    common = argparse.ArgumentParser(add_help=False, parents=[output])
    common.add_argument("--out", choices=["csv", "json"], default="csv",
                        dest="out_format", help="output format (default csv)")
    # each flag is declared once, in a parent of only the commands that read
    # it, so no other command accepts it and ignores it
    scan = argparse.ArgumentParser(add_help=False)
    scan.add_argument("--workers", type=int, default=None,
                      help=f"worker processes (default ${ENV_WORKERS} or 1)")
    scan.add_argument("--chunk", type=int, default=exactseq.CHUNK,
                      help="index-range granularity for work splitting")
    bits = argparse.ArgumentParser(add_help=False)
    bits.add_argument("--bits", type=int, default=exactseq.DEFAULT_BITS,
                      help="fixed-point precision of fractional parts (32 to 96)")
    x = argparse.ArgumentParser(add_help=False)
    x.add_argument("--x", type=int, required=True,
                   help="last index: the command covers n = 1..x")
    k = argparse.ArgumentParser(add_help=False)
    k.add_argument("--k", type=int, default=1, help="moment order (default 1)")
    m_max = argparse.ArgumentParser(add_help=False)
    m_max.add_argument("--m-max", type=int, default=5,
                       help="last harmonic: m = 1..m_max (default 5)")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("terms", parents=[common, scan], help="resolved sequence elements")
    p.add_argument("--range", type=_parse_range, required=True, metavar="LO:HI")

    p = sub.add_parser("moments", parents=[common, scan, x, k], help="exact k-th moment")
    p.add_argument("--checkpoint", help="checkpoint file for kill-resume")
    p.add_argument("--checkpoint-every", type=int, default=_CHECKPOINT_EVERY,
                   help="indices between checkpoints")

    sub.add_parser("average", parents=[common, scan, x], help="exact average A(x)")

    p = sub.add_parser("sandwich", parents=[common, scan, x, k],
                       help="rigorous moment bracketing")
    p.add_argument("--L", type=int, required=True, help="even bin count")

    p = sub.add_parser("discrepancy", parents=[common, bits, x],
                       help="star discrepancy of the fractional parts")
    p.add_argument("--K", type=int, help="also compute the truncated sum bound")

    sub.add_parser("weyl", parents=[common, bits, x, m_max], help="normalized Weyl sums")
    sub.add_parser("knbound", parents=[common, bits, x, m_max],
                   help="second-derivative bounds against computed sums")
    sub.add_parser("exceptional", parents=[common, scan, x],
                   help="scan for nearest-square/nearest-integer disagreement")
    sub.add_parser("nearhalf", parents=[common, scan, bits, x],
                   help="count fractional parts within x^(-3/4) of 1/2")

    p = sub.add_parser("histogram", parents=[common, scan, x],
                       help="distance histogram over [0, 1/2]")
    p.add_argument("--bins", type=int, default=20)

    # no prefix matching here, or --out would silently mean --output
    p = sub.add_parser("optimize", parents=[output, k], allow_abbrev=False,
                       help="balance a decreasing monomial against increasing ones (JSON)")
    p.add_argument("--expr", help='e.g. "F=x:5/2,K:-1/2;G=x:19/8,K:1/4"')
    p.add_argument("--var", help="variable to balance")
    p.add_argument("--preset", choices=["moment-residual"],
                   help="built-in balancing chain")

    p = sub.add_parser("fit", parents=[common, scan, k],
                       help="log-log slope of moment residuals")
    p.add_argument("--xs", required=True,
                   help="comma-separated snapshot points, e.g. 1000,10000,100000")
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    """The RunConfig of parsed arguments: every option fills the field of its own name.

    --workers falls back to $CANNONBALL_WORKERS, --range fills lo and hi,
    --xs becomes a tuple of integers >= 1 and --checkpoint fills
    checkpoint_path.
    """
    given = {k: v for k, v in vars(args).items() if k in RunConfig.__dataclass_fields__}
    if given.get("workers", 1) is None:
        text = os.environ.get(ENV_WORKERS, "1")
        given["workers"] = int(text) if text.strip().isdecimal() else 0
        if given["workers"] < 1:
            raise ValueError(f"${ENV_WORKERS} must be an integer >= 1, got {text!r}")
    if getattr(args, "range", None):
        given["lo"], given["hi"] = args.range
    if getattr(args, "xs", None) is not None:
        parts = args.xs.split(",")
        if not all(s.strip().isdecimal() and int(s) >= 1 for s in parts):
            raise ValueError(f"--xs must be integers >= 1 separated by commas, got {args.xs!r}")
        given["xs"] = tuple(map(int, parts))
    checkpoint = getattr(args, "checkpoint", None)
    if checkpoint and not os.path.isabs(checkpoint):
        ckdir = os.environ.get(ENV_CHECKPOINT_DIR)
        if ckdir:
            checkpoint = os.path.join(ckdir, checkpoint)
    return RunConfig(**given, checkpoint_path=checkpoint)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = config_from_args(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
