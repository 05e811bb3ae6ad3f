"""Balancing a decreasing bound against increasing ones.

Two modes of the same optimization: numerically, the crossing of each
increasing function with the decreasing one is found by bisection and the
smallest crossing minimizes the pointwise maximum; in exponent space the
same balance is solved exactly on rational exponents, with coefficients
carried as logs but deliberately ignored (constants are absorbed the way
asymptotic bookkeeping absorbs them).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Sequence


class InvalidProblemError(ValueError):
    """The problem is malformed: an empty G list, a bad domain or exponent, or a
    sampled monotonicity check that failed."""


class UnsolvableCrossingError(ValueError):
    def __init__(self, index: int, message: str):
        super().__init__(message)
        self.index = index


class NoCrossingError(ValueError):
    """Equal exponents with unequal coefficients: the difference never crosses."""


class DegenerateCrossingError(ValueError):
    """Zero exponent difference in the balancing variable: boundary case."""


class AmbiguousOrderError(ValueError):
    """Crossings not totally ordered in the asymptotic variable."""


class Monomial:
    """Product of named variables with exact rational exponents.

    The positive coefficient rides along as coeff_log but plays no role in
    exponent-space balancing.
    """

    __slots__ = ("coeff_log", "_exps")

    def __init__(self, exponents=None, coeff_log: float = 0.0):
        exps = {}
        for var, e in (exponents or {}).items():
            e = Fraction(e)
            if e != 0:
                exps[str(var)] = e
        self._exps = dict(sorted(exps.items()))
        self.coeff_log = float(coeff_log)

    @property
    def exponents(self) -> dict:
        return dict(self._exps)

    def exponent(self, var: str) -> Fraction:
        return self._exps.get(var, Fraction(0))

    def variables(self) -> set:
        return set(self._exps)

    def __eq__(self, other) -> bool:
        return isinstance(other, Monomial) and self._exps == other._exps \
            and self.coeff_log == other.coeff_log

    def __hash__(self):
        return hash((tuple(self._exps.items()), self.coeff_log))

    def __repr__(self) -> str:
        return f"Monomial({self.format()!r})"

    def format(self) -> str:
        if not self._exps:
            return "1"
        return ",".join(f"{v}:{e}" for v, e in self._exps.items())

    @classmethod
    def parse(cls, text: str, coeff_log: float = 0.0) -> "Monomial":
        """Parse 'x:3/2+1,K:-1/2' style exponent lists ('+' sums fractions)."""
        exps = {}
        text = text.strip()
        if text in ("", "1"):
            return cls({}, coeff_log)
        for item in text.split(","):
            var, _, expr = item.partition(":")
            var = var.strip()
            if not var or not expr:
                raise ValueError(f"malformed monomial entry {item!r}")
            try:
                total = sum(Fraction(part.strip()) for part in expr.split("+"))
            except (ValueError, ZeroDivisionError):
                raise ValueError(f"malformed monomial entry {item!r}") from None
            exps[var] = exps.get(var, Fraction(0)) + total
        return cls(exps, coeff_log)

    def __mul__(self, other: "Monomial") -> "Monomial":
        exps = dict(self._exps)
        for v, e in other._exps.items():
            exps[v] = exps.get(v, Fraction(0)) + e
        return Monomial(exps, self.coeff_log + other.coeff_log)

    def __truediv__(self, other: "Monomial") -> "Monomial":
        return self * other ** -1

    def __pow__(self, power) -> "Monomial":
        q = Fraction(power)
        return Monomial({v: e * q for v, e in self._exps.items()},
                        self.coeff_log * float(q))

    def subst(self, var: str, replacement: "Monomial") -> "Monomial":
        """Replace `var` by another monomial."""
        e = self.exponent(var)
        if e == 0:
            return self
        rest = Monomial({v: x for v, x in self._exps.items() if v != var},
                        self.coeff_log)
        return rest * (replacement ** e)

    def evaluate(self, **values) -> float:
        out = math.exp(self.coeff_log)
        for v, e in self._exps.items():
            if v not in values:
                raise ValueError(f"no value supplied for variable {v!r}")
            out *= values[v] ** float(e)
        return out

    def as_function(self, var: str, **fixed) -> Callable[[float], float]:
        """Close over all variables except `var`."""
        others = {v: e for v, e in self._exps.items() if v != var}
        const = math.exp(self.coeff_log)
        for v, e in others.items():
            if v not in fixed:
                raise ValueError(f"no value supplied for variable {v!r}")
            const *= fixed[v] ** float(e)
        ev = float(self.exponent(var))
        return lambda t: const * t ** ev

    def dominated_by(self, other: "Monomial") -> bool:
        """self <= C * other pointwise once every variable is >= 1."""
        for v in self.variables() | other.variables():
            if self.exponent(v) > other.exponent(v):
                return False
        return True


@dataclass(frozen=True)
class MinMaxProblem:
    """A strictly decreasing F against increasing gs on a positive interval."""

    F: Callable[[float], float]
    gs: Sequence[Callable[[float], float]]
    domain: tuple[float, float]

    def __post_init__(self):
        lo, hi = self.domain
        if not (0 < lo < hi):
            raise InvalidProblemError("domain must be a positive interval (lo, hi)")
        if not self.gs:
            raise InvalidProblemError("need at least one increasing function")


@dataclass(frozen=True)
class MinMaxSolution:
    argmin: object               # float in numeric mode, Monomial in exponent mode
    value: object
    crossings: tuple
    residual: Optional[float] = None
    tol: Optional[float] = None
    mode: str = "numeric"


def _geomspace(lo: float, hi: float, n: int) -> list[float]:
    r = (hi / lo) ** (1.0 / (n - 1))
    return [lo * r ** i for i in range(n)]


def _validate_monotone(problem: MinMaxProblem, samples: int = 9):
    grid = _geomspace(problem.domain[0], problem.domain[1], max(samples, 8))
    fv = [problem.F(t) for t in grid]
    for a, b in zip(fv, fv[1:]):
        if not b < a:
            raise InvalidProblemError("F is not strictly decreasing on the sampled domain")
    for j, g in enumerate(problem.gs):
        gv = [g(t) for t in grid]
        for a, b in zip(gv, gv[1:]):
            if b < a:
                raise InvalidProblemError(f"G_{j} is not increasing on the sampled domain")


def solve_numeric(problem: MinMaxProblem, tol: float) -> MinMaxSolution:
    """Minimize max(F, G_1, ..., G_i) by bisecting every F-G_j crossing.

    Each difference F - G_j is decreasing, so a sign change brackets a
    unique crossing and plain bisection is certifiable.  The minimizer of
    the max is the smallest crossing.
    """
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    _validate_monotone(problem)
    lo0, hi0 = problem.domain
    crossings = []
    for j, g in enumerate(problem.gs):
        a, b = lo0, hi0
        da = problem.F(a) - g(a)
        db = problem.F(b) - g(b)
        if da < 0 or db > 0:
            raise UnsolvableCrossingError(
                j, f"F - G_{j} does not change sign on [{a}, {b}]")
        for _ in range(200):
            mid = 0.5 * (a + b)
            if b - a <= tol * mid * 1e-3 + 1e-300:
                break
            if problem.F(mid) - g(mid) >= 0:
                a = mid
            else:
                b = mid
        crossings.append(0.5 * (a + b))
    argmin = min(crossings)
    value = problem.F(argmin)
    residual = abs(value - max(g(argmin) for g in problem.gs))
    return MinMaxSolution(argmin, value, tuple(crossings), residual, tol)


def verify_solution(problem: MinMaxProblem, solution: MinMaxSolution,
                    samples: int = 1024) -> bool:
    """Check that the claimed argmin genuinely minimizes the pointwise max."""
    tol = solution.tol if solution.tol else 1e-9
    def h(t):
        return max(problem.F(t), max(g(t) for g in problem.gs))
    if h(solution.argmin) > solution.value * (1 + 10 * tol):
        return False
    lo, hi = problem.domain
    floor = solution.value * (1 - 10 * tol)
    return all(h(t) >= floor for t in _geomspace(lo, hi, samples))


def solve_exponents(F: Monomial, gs: Sequence[Monomial], variable: str) -> MinMaxSolution:
    """Balance monomials exactly in one variable's exponent.

    F must decrease in `variable` (negative exponent) and every G must not
    decrease.  Each crossing solves a linear equation over Fractions.  With
    several Gs the minimizer is the crossing that is componentwise smallest
    in every remaining exponent (valid wherever all variables are >= 1);
    if no crossing is, the ordering is ambiguous and the caller should
    eliminate sequentially.
    """
    ef = F.exponent(variable)
    if ef >= 0:
        raise InvalidProblemError(f"F must have a negative {variable}-exponent, got {ef}")
    if not gs:
        raise InvalidProblemError("need at least one G to balance F against")
    crossings = []
    for j, g in enumerate(gs):
        eg = g.exponent(variable)
        if eg == ef:
            if g.exponents == F.exponents and g.coeff_log != F.coeff_log:
                raise NoCrossingError(
                    f"G_{j} has the exponents of F with a different coefficient")
            raise DegenerateCrossingError(
                f"G_{j} shares the {variable}-exponent of F: boundary case")
        if eg < 0:
            raise InvalidProblemError(
                f"G_{j} must have a nonnegative {variable}-exponent, got {eg}")
        diff = ef - eg
        ratio = g / F
        exps = {v: e / diff for v, e in ratio.exponents.items() if v != variable}
        crossings.append(Monomial(exps))
    best = None
    for c in crossings:
        if all(c.dominated_by(other) for other in crossings):
            best = Monomial(c.exponents)  # constants absorbed
            break
    if best is None:
        raise AmbiguousOrderError(
            "no crossing is componentwise minimal; eliminate sequentially")
    value = F.subst(variable, best)
    return MinMaxSolution(best, value, tuple(crossings), mode="exponents")


@dataclass(frozen=True)
class BalanceChainResult:
    k: int
    segment_choice: Monomial      # balanced segment count in terms of x, K, L
    truncation_choice: Monomial   # balanced harmonic truncation in terms of x
    residual_exponent: Fraction   # final exponent of x in the residual bound
    stages: tuple = field(repr=False)


def moment_residual_terms(k: int) -> list[Monomial]:
    """The residual contributions of the binned moment estimate, before balancing.

    Variables: x (range), L (distance bins), K (harmonic truncation), M
    (range segments).  Exponent base e = 3k/2.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    e = Fraction(3 * k, 2)
    f = Fraction
    return [
        Monomial({"x": e + 1, "L": -1}),
        Monomial({"x": e + 1, "L": 1, "K": -1}),
        Monomial({"x": e + f(3, 4), "L": 1, "K": f(1, 2)}),
        Monomial({"x": e + f(1, 2), "L": 1, "K": 1}),
        Monomial({"x": e + f(1, 4), "L": 1, "M": 1, "K": f(-1, 2)}),
        Monomial({"x": e + f(1, 4), "L": 1}),
        Monomial({"x": e + 1, "M": -1}),
    ]


def _eliminate(terms: list[Monomial], var: str):
    """One balancing pass over `var`: returns (new terms, solution or None)."""
    dec = [t for t in terms if t.exponent(var) < 0]
    inc = [t for t in terms if t.exponent(var) > 0]
    neutral = [t for t in terms if t.exponent(var) == 0]
    if len(dec) != 1 or not inc:
        raise InvalidProblemError(
            f"elimination of {var} needs exactly one decreasing term and "
            f"at least one increasing term (found {len(dec)}/{len(inc)})")
    try:
        sol = solve_exponents(dec[0], inc, var)
        return neutral + [sol.value], sol
    except AmbiguousOrderError:
        # incomparable crossings: keep every balanced value, as a sum bound
        values = [solve_exponents(dec[0], [g], var).value for g in inc]
        return neutral + values, None


def _drop_dominated(terms: list[Monomial]) -> list[Monomial]:
    """Remove terms dominated by another once all variables are >= 1."""
    out = []
    for i, t in enumerate(terms):
        absorbed = False
        for j, u in enumerate(terms):
            if i == j:
                continue
            if t.dominated_by(u) and not (u.dominated_by(t) and j > i):
                absorbed = True
                break
        if not absorbed:
            out.append(t)
    return out


def balance_moment_residual(k: int) -> BalanceChainResult:
    """Sequentially balance the moment-residual contributions in M, L, K.

    Segments are balanced first (one decreasing against one increasing
    term), bins next (incomparable crossings, so all balanced values are
    retained), dominated contributions dropped, and the truncation
    balanced last, leaving a single power of x.
    """
    terms = moment_residual_terms(k)
    stages = [tuple(terms)]

    terms, sol_m = _eliminate(terms, "M")
    segment_choice = sol_m.argmin
    stages.append(tuple(terms))

    terms, _ = _eliminate(terms, "L")
    stages.append(tuple(terms))

    terms = _drop_dominated(terms)
    stages.append(tuple(terms))

    terms, sol_k = _eliminate(terms, "K")
    stages.append(tuple(terms))
    if sol_k is None:
        raise AmbiguousOrderError("truncation balancing did not totally order")

    terms = _drop_dominated(terms)
    if len(terms) != 1 or terms[0].variables() != {"x"}:
        raise InvalidProblemError(f"balancing did not reduce to a power of x: {terms}")
    return BalanceChainResult(k, segment_choice, sol_k.argmin,
                              terms[0].exponent("x"), tuple(stages))
