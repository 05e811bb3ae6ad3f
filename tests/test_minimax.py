import math
from fractions import Fraction

import pytest

from cannonball import minimax as mm


class TestMonomial:
    def test_parse_and_format(self):
        m = mm.Monomial.parse("x:3/2+1,K:-1/2")
        assert m.exponents == {"x": Fraction(5, 2), "K": Fraction(-1, 2)}
        assert mm.Monomial.parse(m.format()) == m

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            mm.Monomial.parse("x=3")
        with pytest.raises(ValueError):
            mm.Monomial.parse("x:")

    def test_parse_rejects_zero_denominator(self):
        with pytest.raises(ValueError, match="malformed monomial entry"):
            mm.Monomial.parse("x:1/0")

    def test_algebra(self):
        a = mm.Monomial({"x": 2, "y": Fraction(1, 3)})
        b = mm.Monomial({"x": -1, "z": 1})
        assert (a * b).exponents == {"x": Fraction(1), "y": Fraction(1, 3), "z": Fraction(1)}
        assert (a / b).exponents == {"x": Fraction(3), "y": Fraction(1, 3), "z": Fraction(-1)}
        assert (a ** Fraction(1, 2)).exponents == {"x": Fraction(1), "y": Fraction(1, 6)}

    def test_subst(self):
        f = mm.Monomial({"x": Fraction(5, 2), "M": -1})
        m_star = mm.Monomial({"K": Fraction(1, 4), "x": Fraction(3, 8), "L": Fraction(-1, 2)})
        out = f.subst("M", m_star)
        assert out.exponents == {"x": Fraction(17, 8), "K": Fraction(-1, 4), "L": Fraction(1, 2)}

    def test_evaluate_and_as_function(self):
        m = mm.Monomial({"x": 2, "t": -1})
        assert abs(m.evaluate(x=3.0, t=2.0) - 4.5) < 1e-12
        fn = m.as_function("t", x=3.0)
        assert abs(fn(2.0) - 4.5) < 1e-12
        with pytest.raises(ValueError):
            m.as_function("t")  # x not fixed


class TestSolveNumeric:
    def test_symmetric_crossing(self):
        pr = mm.MinMaxProblem(lambda t: 1 / t, [lambda t: t], (1e-4, 1e4))
        sol = mm.solve_numeric(pr, 1e-10)
        assert abs(sol.argmin - 1.0) < 1e-7
        assert abs(sol.value - 1.0) < 1e-7
        assert sol.residual <= 1e-10 * abs(sol.value) + 1e-12

    def test_segment_balance_instance(self):
        # balance x^(5/2)/M against L*M*x^(7/4)/sqrt(K) at fixed numerics
        x, K, L = 1e6, 100.0, 10.0
        F = lambda t: x ** 2.5 / t
        G = lambda t: L * t * x ** 1.75 / math.sqrt(K)
        expected = K ** 0.25 * x ** 0.375 / math.sqrt(L)
        sol = mm.solve_numeric(mm.MinMaxProblem(F, [G], (1.0, 1e9)), 1e-9)
        assert abs(sol.argmin / expected - 1) < 1e-6

    def test_second_g_crosses_first(self):
        F = lambda t: 1 / t
        g1 = lambda t: t / 10
        g2 = lambda t: t
        pr = mm.MinMaxProblem(F, [g1, g2], (1e-3, 1e3))
        sol = mm.solve_numeric(pr, 1e-9)
        assert abs(sol.argmin - 1.0) < 1e-6          # G_2 crossing comes first
        assert abs(sol.value - 1.0) < 1e-6
        assert sol.value >= g1(sol.argmin)
        # brute-force grid agrees on the min of the max
        grid = [10 ** (-3 + 6 * i / 99999) for i in range(100000)]
        brute = min(max(F(t), g1(t), g2(t)) for t in grid)
        assert abs(sol.value / brute - 1) < 1e-3

    def test_scale_covariance(self):
        F = lambda t: 5.0 / t
        G = lambda t: 5.0 * t
        sol = mm.solve_numeric(mm.MinMaxProblem(F, [G], (1e-3, 1e3)), 1e-9)
        base = mm.solve_numeric(
            mm.MinMaxProblem(lambda t: 1 / t, [lambda t: t], (1e-3, 1e3)), 1e-9)
        assert abs(sol.argmin - base.argmin) < 1e-6
        assert abs(sol.value - 5 * base.value) < 1e-6

    def test_monotonicity_rejection(self):
        increasing_f = mm.MinMaxProblem(lambda t: t, [lambda t: t], (0.1, 10))
        with pytest.raises(mm.InvalidProblemError):
            mm.solve_numeric(increasing_f, 1e-6)
        decreasing_g = mm.MinMaxProblem(lambda t: 1 / t, [lambda t: -t], (0.1, 10))
        with pytest.raises(mm.InvalidProblemError):
            mm.solve_numeric(decreasing_g, 1e-6)

    @pytest.mark.parametrize("gs, domain, match", [
        ([], (0.1, 10), "at least one"),
        ([lambda t: t], (0.0, 10), "positive interval"),
        ([lambda t: t], (-1.0, 10), "positive interval"),
        ([lambda t: t], (10, 0.1), "positive interval"),
    ])
    def test_malformed_problem_is_invalid_problem(self, gs, domain, match):
        # the same class solve_exponents raises for an empty G list
        with pytest.raises(mm.InvalidProblemError, match=match):
            mm.MinMaxProblem(lambda t: 1 / t, gs, domain)

    def test_missing_sign_change_names_index(self):
        pr = mm.MinMaxProblem(lambda t: 1 / t, [lambda t: t, lambda t: t + 100], (1.0, 5.0))
        with pytest.raises(mm.UnsolvableCrossingError) as exc:
            mm.solve_numeric(pr, 1e-9)
        assert exc.value.index == 1


class TestVerifySolution:
    def test_accepts_true_solution(self):
        pr = mm.MinMaxProblem(lambda t: 1 / t, [lambda t: t], (1e-3, 1e3))
        sol = mm.solve_numeric(pr, 1e-9)
        assert mm.verify_solution(pr, sol)

    def test_rejects_perturbed_argmin(self):
        pr = mm.MinMaxProblem(lambda t: 1 / t, [lambda t: t], (1e-3, 1e3))
        sol = mm.solve_numeric(pr, 1e-9)
        fake = mm.MinMaxSolution(sol.argmin * 1.5, pr.F(sol.argmin * 1.5),
                                 sol.crossings, sol.residual, sol.tol)
        assert not mm.verify_solution(pr, fake)

    def test_numeric_check_of_balanced_truncation(self):
        # the balanced K = x^(1/6) instance, pinned at x = 1e6
        x = 1e6
        e = 1.5 + 1.0
        F = lambda t: x ** e / math.sqrt(t)
        g1 = lambda t: x ** (1.5 + 7 / 8) * t ** 0.25
        g2 = lambda t: x ** (1.5 + 3 / 4) * math.sqrt(t)
        pr = mm.MinMaxProblem(F, [g1, g2], (1.0, 1e6))
        sol = mm.solve_numeric(pr, 1e-9)
        assert abs(sol.argmin / x ** (1 / 6) - 1) < 1e-6
        assert mm.verify_solution(pr, sol)


class TestSolveExponents:
    def test_balanced_truncation_instance(self):
        F = mm.Monomial({"x": Fraction(5, 2), "K": Fraction(-1, 2)})
        G = mm.Monomial({"x": Fraction(19, 8), "K": Fraction(1, 4)})
        sol = mm.solve_exponents(F, [G], "K")
        assert sol.argmin.exponents == {"x": Fraction(1, 6)}
        assert sol.value.exponents == {"x": Fraction(29, 12)}

    def test_trivial_unit_crossing(self):
        F = mm.Monomial({"x": 1, "t": -1})
        G = mm.Monomial({"x": 1, "t": 1})
        sol = mm.solve_exponents(F, [G], "t")
        assert sol.argmin.exponents == {}
        assert sol.value.exponents == {"x": Fraction(1)}

    def test_segment_elimination_vector(self):
        k = 1
        e = Fraction(3 * k, 2)
        F = mm.Monomial({"x": e + 1, "M": -1})
        G = mm.Monomial({"L": 1, "M": 1, "K": Fraction(-1, 2), "x": e + Fraction(1, 4)})
        sol = mm.solve_exponents(F, [G], "M")
        assert sol.argmin.exponents == {
            "K": Fraction(1, 4), "x": Fraction(3, 8), "L": Fraction(-1, 2)}

    def test_back_substitution_soundness(self):
        F = mm.Monomial({"x": Fraction(5, 2), "K": Fraction(-1, 2)})
        gs = [mm.Monomial({"x": Fraction(19, 8), "K": Fraction(1, 4)}),
              mm.Monomial({"x": Fraction(9, 4), "K": Fraction(1, 2)})]
        sol = mm.solve_exponents(F, gs, "K")
        for g, crossing in zip(gs, sol.crossings):
            assert F.subst("K", crossing).exponents == g.subst("K", crossing).exponents

    def test_preconditions(self):
        F_bad = mm.Monomial({"x": 1, "K": 1})
        with pytest.raises(mm.InvalidProblemError):
            mm.solve_exponents(F_bad, [mm.Monomial({"K": 1})], "K")
        F = mm.Monomial({"K": -1})
        with pytest.raises(mm.InvalidProblemError):
            mm.solve_exponents(F, [mm.Monomial({"K": -2})], "K")
        with pytest.raises(mm.InvalidProblemError, match="at least one G"):
            mm.solve_exponents(F, [], "K")

    def test_no_crossing_and_boundary_cases(self):
        F = mm.Monomial({"K": -1}, coeff_log=0.0)
        same_except_coeff = mm.Monomial({"K": -1}, coeff_log=1.0)
        with pytest.raises(mm.NoCrossingError):
            mm.solve_exponents(F, [same_except_coeff], "K")
        boundary = mm.Monomial({"K": -1, "x": 2})
        with pytest.raises(mm.DegenerateCrossingError):
            mm.solve_exponents(F, [boundary], "K")

    def test_ambiguous_ordering_detected(self):
        F = mm.Monomial({"x": 1, "L": -1})
        gs = [mm.Monomial({"K": 1, "L": 1}),          # crossing K^(-1/2) x^(1/2)
              mm.Monomial({"x": Fraction(1, 2), "L": 1})]  # crossing x^(1/4)
        with pytest.raises(mm.AmbiguousOrderError):
            mm.solve_exponents(F, gs, "L")


class TestBalancedResidualChain:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_full_chain(self, k):
        r = mm.balance_moment_residual(k)
        assert r.segment_choice.exponents == {
            "K": Fraction(1, 4), "x": Fraction(3, 8), "L": Fraction(-1, 2)}
        assert r.truncation_choice.exponents == {"x": Fraction(1, 6)}
        assert r.residual_exponent == Fraction(3 * k, 2) + Fraction(11, 12)

    def test_stage_terms_are_recorded(self):
        r = mm.balance_moment_residual(1)
        assert len(r.stages[0]) == 7
        assert all(isinstance(m, mm.Monomial) for stage in r.stages for m in stage)
