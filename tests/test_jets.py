import math

import numpy as np
import pytest

from algmech.errors import EvaluationDomainError
from algmech.expr import FUNCTIONS, differentiate, parse_expression, to_source
from algmech.jets import PointEvaluator, eval_jet, finite_difference_jet
from algmech.sampling import SplitMix64

COORDS = ("x1", "x2", "u1", "u2")


def jet(src, **vals):
    values = [vals.get(c, 0.0) for c in COORDS]
    return eval_jet(parse_expression(src, COORDS), COORDS, values)


class TestJetValues:
    def test_bilinear(self):
        j = jet("-(u1*u2)", u1=1.0, u2=2.0)
        assert j.value == -2.0
        assert j.grad[2] == -2.0  # d/du1
        assert j.grad[3] == -1.0  # d/du2
        assert j.hess[2, 3] == -1.0

    def test_quadratic_energy(self):
        j = jet("0.5*(u1^2+u2^2)", u1=1.0, u2=2.0)
        assert j.value == 2.5
        assert np.array_equal(j.hess[2:, 2:], np.eye(2))

    def test_coordinate_seed(self):
        j = jet("x1", x1=0.3, u2=9.0)
        assert j.value == 0.3
        assert np.array_equal(j.grad, np.array([1.0, 0.0, 0.0, 0.0]))
        assert np.count_nonzero(j.hess) == 0

    def test_hessian_symmetric_bit_exact(self):
        j = jet("exp(x1*u1)*sin(x2+u2^3)/sqrt(1+x1^2)", x1=0.4, x2=1.1, u1=0.7, u2=0.3)
        assert np.array_equal(j.hess, j.hess.T)

    def test_integer_power_of_negative_base(self):
        j = jet("x1^3", x1=-2.0)
        assert j.value == -8.0
        assert j.grad[0] == 12.0
        assert j.hess[0, 0] == -12.0

    def test_real_power_needs_positive_base(self):
        with pytest.raises(EvaluationDomainError):
            jet("x1^0.5", x1=-1.0)

    def test_real_power_value(self):
        j = jet("x1^1.5", x1=4.0)
        assert j.value == pytest.approx(8.0, abs=1e-14)
        assert j.grad[0] == pytest.approx(3.0, abs=1e-14)

    def test_variable_exponent(self):
        j = jet("x1^x2", x1=2.0, x2=3.0)
        assert j.value == pytest.approx(8.0, abs=1e-12)
        assert j.grad[1] == pytest.approx(8.0 * math.log(2.0), abs=1e-12)

    @pytest.mark.parametrize(
        "src,kwargs",
        [
            ("ln(x1)", {"x1": -1.0}),
            ("sqrt(x1)", {"x1": -4.0}),
            ("x1/x2", {"x1": 1.0, "x2": 0.0}),
            ("x1^-1", {"x1": 0.0}),
            ("exp(x1)", {"x1": 1000.0}),
            ("sin(x1*x1)", {"x1": 1e200}),
            ("x1^2.5", {"x1": 1e300}),
        ],
    )
    def test_domain_errors(self, src, kwargs):
        tree = parse_expression(src, COORDS)
        ev = PointEvaluator(COORDS, [kwargs.get(c, 0.0) for c in COORDS])
        for mode in (ev.value, ev.jet1, ev.jet):
            with pytest.raises(EvaluationDomainError) as exc:
                mode(tree)
            assert str(exc.value).endswith(f" in '{to_source(tree)}'")

    @pytest.mark.parametrize(
        "src,x1,says",
        [
            ("ln(x1)", 0.0, "ln is undefined at 0.0"),
            ("exp(x1)", 1000.0, "exp overflows at 1000.0"),
            ("sin(x1*x1)", 1e200, "sin is undefined at inf"),
            ("x1^2.5", 1e300, "power overflows at base 1e+300"),
        ],
    )
    def test_math_errors_name_the_function_and_its_argument(self, src, x1, says):
        with pytest.raises(EvaluationDomainError) as exc:
            PointEvaluator(COORDS, [x1, 0.0, 0.0, 0.0]).value(parse_expression(src, COORDS))
        assert str(exc.value) == f"{says} in '{src}'"

    def test_jet_division_with_an_underflowing_cube(self):
        # 1/v^3 underflows to a division by zero; only the Hessian needs it
        tree = parse_expression("x1/x2", COORDS)
        ev = PointEvaluator(COORDS, [1.0, 1e-110, 0.0, 0.0])
        assert ev.value(tree) == 1e110
        assert ev.jet1(tree).value == 1e110
        with pytest.raises(EvaluationDomainError) as exc:
            ev.jet(tree)
        assert str(exc.value).endswith(" in 'x1/x2'")

    @pytest.mark.parametrize("x1", [-2.0, 3.0])
    def test_negative_literal_exponent_is_an_integer_power(self, x1):
        power = parse_expression("x1^-2", COORDS)
        quotient = parse_expression("1/x1^2", COORDS)
        ev = PointEvaluator(COORDS, [x1, 0.0, 0.0, 0.0])
        assert ev.value(power) == ev.value(quotient)
        for mode in (ev.jet1, ev.jet):
            assert mode(power).value == mode(quotient).value
            assert np.array_equal(mode(power).grad, mode(quotient).grad)
        assert np.array_equal(ev.jet(power).hess, ev.jet(quotient).hess)
        d_power, d_quotient = differentiate(power, "x1"), differentiate(quotient, "x1")
        assert ev.value(d_power) == ev.value(d_quotient)

    def test_domain_error_carries_subexpression(self):
        with pytest.raises(EvaluationDomainError) as exc:
            jet("x1+ln(x2-1)", x1=1.0, x2=0.0)
        assert "ln" in str(exc.value)

    def test_determinism_bit_identical(self):
        a = jet("sin(x1)*exp(u1)+x2^4/(1+u2^2)", x1=0.3, x2=-1.2, u1=0.8, u2=0.5)
        b = jet("sin(x1)*exp(u1)+x2^4/(1+u2^2)", x1=0.3, x2=-1.2, u1=0.8, u2=0.5)
        assert a.value == b.value
        assert np.array_equal(a.grad, b.grad)
        assert np.array_equal(a.hess, b.hess)


class TestFiniteDifferenceOracle:
    def test_square(self):
        fd = finite_difference_jet(
            parse_expression("u1^2", COORDS), COORDS, [0, 0, 3.0, 0], h=1e-5
        )
        assert fd.grad[2] == pytest.approx(6.0, abs=1e-8)

    def test_constant(self):
        fd = finite_difference_jet(
            parse_expression("7", COORDS), COORDS, [0.1, 0.2, 0.3, 0.4], h=1e-5
        )
        assert np.max(np.abs(fd.grad)) <= 1e-10
        assert np.max(np.abs(fd.hess)) <= 1e-10

    def test_exp_second_derivative(self):
        fd = finite_difference_jet(
            parse_expression("exp(x1)", COORDS), COORDS, [0.0, 0, 0, 0], h=1e-5
        )
        assert fd.hess[0, 0] == pytest.approx(1.0, abs=1e-5)

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            finite_difference_jet(parse_expression("x1", COORDS), COORDS, [0, 0, 0, 0], h=0.0)


# Expressions exercised by the AD-vs-differencing sweep; all are smooth on
# the sample box (arguments of ln/sqrt stay positive there).
CORPUS = [
    "-(u1*u2)",
    "0.5*(u1^2+u2^2)",
    "x1",
    "x1*x2*u1*u2",
    "sin(x1)*cos(x2)",
    "exp(0.3*x1+0.1*u2)",
    "ln(x1+3)",
    "sqrt(u1^2+u2^2+1)",
    "x1^3-2*x2^2+u1^4",
    "(x1+x2)/(3+u1^2)",
    "sin(x1*u1)+cos(x2*u2)",
    "exp(sin(x1))*sqrt(4+x2)",
    "u1^2*u2/(1+x1^2)",
    "2^-3*x1+(x2+3)^0.5+ln(exp(u1))",
]


def test_corpus_covers_every_function():
    used, stack = set(), [parse_expression(src, COORDS) for src in CORPUS]
    while stack:
        e = stack.pop()
        if isinstance(e, Call):
            used.add(e.func)
        stack += [getattr(e, f) for f in ("operand", "left", "right") if hasattr(e, f)]
    assert used == set(FUNCTIONS)


def corpus_points(count=100, seed=74201):
    rng = SplitMix64(seed)
    return [[rng.uniform(-2.0, 2.0) for _ in COORDS] for _ in range(count)]


def test_jets_match_finite_differences_on_corpus():
    """Gradient within 1e-6 and Hessian within 1e-4 of central differences."""
    h = 1e-4
    for src in CORPUS:
        tree = parse_expression(src, COORDS)
        for values in corpus_points():
            exact = eval_jet(tree, COORDS, values)
            approx = finite_difference_jet(tree, COORDS, values, h)
            assert np.max(np.abs(exact.grad - approx.grad)) <= 1e-6, src
            assert np.max(np.abs(exact.hess - approx.hess)) <= 1e-4, src


def test_first_order_jets_equal_second_order_on_corpus():
    """jet1 runs the same arithmetic without the Hessian, so its value and
    gradient are those of the second-order jet bit for bit."""
    for src in CORPUS:
        tree = parse_expression(src, COORDS)
        for values in corpus_points(count=20, seed=5150):
            full = eval_jet(tree, COORDS, values)
            first = PointEvaluator(COORDS, values).jet1(tree)
            assert first.hess is None
            assert first.value == full.value, src
            assert np.array_equal(first.grad, full.grad), src


def test_first_and_second_order_memos_are_separate():
    tree = parse_expression("sin(x1)*u1/(1+x2^2)", COORDS)
    ev = PointEvaluator(COORDS, [0.3, -0.4, 1.2, 0.0])
    first = ev.jet1(tree)
    full = ev.jet(tree)
    assert first.hess is None and full.hess is not None
    assert ev.jet1(tree) is first and ev.jet(tree) is full
    assert ev.gradient(tree) is first.grad


def test_sum_and_product_rules_exact():
    a = parse_expression("sin(x1)*u1+x2^2", COORDS)
    b = parse_expression("exp(0.2*x2)-u2*x1", COORDS)
    plus = parse_expression("(sin(x1)*u1+x2^2)+(exp(0.2*x2)-u2*x1)", COORDS)
    for values in corpus_points(count=25, seed=3):
        ja = eval_jet(a, COORDS, values)
        jb = eval_jet(b, COORDS, values)
        jsum = eval_jet(plus, COORDS, values)
        assert jsum.value == ja.value + jb.value
        assert np.array_equal(jsum.grad, ja.grad + jb.grad)
        assert np.array_equal(jsum.hess, ja.hess + jb.hess)


def test_memo_shared_subtrees():
    tree = parse_expression("(x1+x2)^2*(x1+x2)", COORDS)
    ev = PointEvaluator(COORDS, [0.5, 1.5, 0, 0])
    assert ev.value(tree) == pytest.approx(8.0, abs=1e-12)
    assert ev.jet(tree).value == pytest.approx(8.0, abs=1e-12)


# -- random-tree linearity properties ---------------------------------------

from hypothesis import given, strategies as st  # noqa: E402

from algmech.expr import BinOp, Call, Neg, Num, Var  # noqa: E402

_leaf = st.one_of(
    st.sampled_from([Var(c) for c in COORDS]),
    st.floats(min_value=-3.0, max_value=3.0, allow_nan=False).map(
        lambda v: Num(round(v, 2))
    ),
)


def _node(children):
    # stays within every function's domain on the sample box
    return st.one_of(
        st.tuples(st.sampled_from("+-*"), children, children).map(
            lambda t: BinOp(t[0], t[1], t[2])
        ),
        children.map(Neg),
        st.tuples(st.sampled_from(["sin", "cos"]), children).map(lambda t: Call(*t)),
    )


_tree = st.recursive(_leaf, _node, max_leaves=12)


@given(_tree, _tree, st.integers(min_value=0, max_value=2**32 - 1))
def test_sum_rule_is_componentwise_exact(a, b, seed):
    rng = SplitMix64(seed)
    values = [rng.uniform(-2.0, 2.0) for _ in COORDS]
    ja = eval_jet(a, COORDS, values)
    jb = eval_jet(b, COORDS, values)
    jsum = eval_jet(BinOp("+", a, b), COORDS, values)
    assert jsum.value == ja.value + jb.value
    assert np.array_equal(jsum.grad, ja.grad + jb.grad)
    assert np.array_equal(jsum.hess, ja.hess + jb.hess)


@given(_tree, _tree, st.integers(min_value=0, max_value=2**32 - 1))
def test_product_rule_is_componentwise_exact(a, b, seed):
    rng = SplitMix64(seed)
    values = [rng.uniform(-2.0, 2.0) for _ in COORDS]
    ja = eval_jet(a, COORDS, values)
    jb = eval_jet(b, COORDS, values)
    jprod = eval_jet(BinOp("*", a, b), COORDS, values)
    cross = np.outer(ja.grad, jb.grad)
    assert jprod.value == ja.value * jb.value
    assert np.array_equal(jprod.grad, ja.value * jb.grad + jb.value * ja.grad)
    assert np.array_equal(
        jprod.hess,
        ja.value * jb.hess + jb.value * ja.hess + cross + cross.T,
    )
