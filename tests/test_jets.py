import math
from functools import partial

import numpy as np
import pytest

from algmech.errors import EvaluationDomainError, SingularMetricError
from algmech.expr import FUNCTIONS, differentiate, parse_expression, postorder, to_source
from algmech.jets import EvalPoint, SampleEvaluator, int_power
from algmech.sampling import SplitMix64

from jet_reference import finite_difference_jet, one_point, second_order

COORDS = ("x1", "x2", "u1", "u2")


def jet(src, **vals):
    values = [vals.get(c, 0.0) for c in COORDS]
    return second_order(parse_expression(src, COORDS), COORDS, values)


def _defined(tree, x1) -> bool:
    try:
        one_point(COORDS, [x1, 0.0, 0.0, 0.0]).jet(tree)
    except EvaluationDomainError:
        return False
    return True


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
        p = EvalPoint.of([kwargs.get(c, 0.0) for c in COORDS], ())
        ev = SampleEvaluator(COORDS, [p])
        for mode in (ev.value, ev.jet):
            with pytest.raises(EvaluationDomainError) as exc:
                mode(tree)
            assert str(exc.value).endswith(f" in '{to_source(tree)}' at {p}")

    @pytest.mark.parametrize(
        "src,x1,says",
        [
            ("ln(x1)", 0.0, "ln is undefined at 0.0"),
            ("exp(x1)", 1000.0, "exp overflows at 1000.0"),
            ("sin(x1*x1)", 1e200, "sin is undefined at inf"),
            ("x1^2.5", 1e300, "power overflows at base 1e+300"),
            ("(1e-200*x1)^-2.0", 1.0, "power overflows at base 1e-200"),
            ("x1^-400.0", -0.146, "power overflows at base -0.146"),
        ],
    )
    def test_math_errors_name_the_function_and_its_argument(self, src, x1, says):
        """Values and jets, on a batch of one and at sample 1 of a batch of
        three where only that sample faults: the error names the failing
        operand as a float and the sample."""
        tree = parse_expression(src, COORDS)
        fine = next(v for v in (2.0, 1e150) if _defined(tree, v))
        points = [EvalPoint.of([v, 0.0, 0.0, 0.0], ()) for v in (fine, x1, fine)]
        for samples in ([points[1]], points):
            for mode in (SampleEvaluator.value, SampleEvaluator.jet):
                with pytest.raises(EvaluationDomainError) as exc:
                    mode(SampleEvaluator(COORDS, samples), tree)
                assert str(exc.value) == f"{says} in '{src}' at {points[1]}"

    def test_jet_division_with_an_underflowing_cube(self):
        # 1/v^3 underflows to a division by zero, but a first-order jet
        # needs no cube: the jet is defined wherever its value and gradient are
        tree = parse_expression("x1/x2", COORDS)
        ev = one_point(COORDS, [1.0, 1e-110, 0.0, 0.0])
        assert ev.value(tree)[0] == 1e110
        assert ev.jet(tree).value[0] == 1e110
        assert np.isfinite(ev.jet(tree).grad).all()

    def test_jet_division_whose_derivative_overflows(self):
        # 1/x1 = 1e170 is defined, but its derivative -1/x1^2 = -1e340
        # overflows, where x1^2 underflows: the jet names an overflow
        tree = parse_expression("1/x1", COORDS)
        ev = one_point(COORDS, [1e-170, 0.0, 0.0, 0.0])
        assert ev.value(tree)[0] == 1e170
        with pytest.raises(EvaluationDomainError) as exc:
            ev.jet(tree)
        assert str(exc.value) == f"division overflows at divisor 1e-170 in '1.0/x1' at {ev.points[0]}"

    def test_jet_of_a_negative_power_of_a_tiny_base(self):
        # (1e-100)^-2 = 1e200, and its derivative -2e100 is finite, though
        # the square of (1e-100)^2 underflows
        tree = parse_expression("(1e-200*x1)^-2", COORDS)
        ev = one_point(COORDS, [1e100, 0.0, 0.0, 0.0])
        j = ev.jet(tree)
        assert j.value[0] == ev.value(tree)[0] == pytest.approx(1e200, rel=1e-15)
        np.testing.assert_allclose(j.grad[0], [-2e100, 0.0, 0.0, 0.0], rtol=4e-16)

    @pytest.mark.parametrize("x1", [-2.0, 3.0])
    def test_negative_literal_exponent_is_an_integer_power(self, x1):
        power = parse_expression("x1^-2", COORDS)
        quotient = parse_expression("1/x1^2", COORDS)
        ev = one_point(COORDS, [x1, 0.0, 0.0, 0.0])
        assert ev.value(power)[0] == ev.value(quotient)[0]
        assert ev.jet(power).value[0] == ev.jet(quotient).value[0]
        assert np.array_equal(ev.jet(power).grad, ev.jet(quotient).grad)
        d_power, d_quotient = differentiate(power, "x1"), differentiate(quotient, "x1")
        assert ev.value(d_power)[0] == ev.value(d_quotient)[0]

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


class Exponent:
    """Stands for a^k: ``*`` adds exponents and counts itself in ``log``."""

    def __init__(self, k: int, log: list):
        self.k, self.log = k, log

    def __mul__(self, other: "Exponent") -> "Exponent":
        self.log.append(other.k)
        return Exponent(self.k + other.k, self.log)


class TestIntegerPower:
    def test_products_grow_with_log2_of_the_exponent(self):
        assert int_power(Exponent(1, []), 0, "one") == "one"
        for k in [*range(1, 1025), 2**19 - 1, 2**19, 2**19 + 1, 200_000, 999_999, 1_000_000]:
            log: list = []
            assert int_power(Exponent(1, log), k, None).k == k
            assert len(log) <= 2 * math.ceil(math.log2(k)), k

    def test_small_exponents_keep_the_bits_of_repeated_multiplication(self):
        rng = SplitMix64(9)
        for _ in range(200):
            a = rng.uniform(-3.0, 3.0)
            for k in range(4):
                r = 1.0
                for _ in range(k):
                    r *= a
                assert int_power(a, k, 1.0).hex() == r.hex()

    @pytest.mark.parametrize("k", [4, 5, 7, 1000, -6])
    @pytest.mark.parametrize("x1", [-1.0003, 1.0007])
    def test_value_and_jets_of_a_power(self, k, x1):
        tree = parse_expression(f"x1^{k}", COORDS)
        point = [x1, 0.0, 0.0, 0.0]
        ev = one_point(COORDS, point)
        value = ev.value(tree)[0]
        assert value == pytest.approx(math.pow(x1, k), rel=1e-13)
        d1, d2 = k * math.pow(x1, k - 1), k * (k - 1) * math.pow(x1, k - 2)
        fd = finite_difference_jet(tree, COORDS, point, h=1e-4 / abs(k))
        j = ev.jet(tree)
        assert j.value[0] == value
        assert j.grad[0, 0] == pytest.approx(d1, rel=1e-12)
        assert j.grad[0, 0] == pytest.approx(fd.grad[0], rel=1e-6)
        assert np.count_nonzero(j.grad[0, 1:]) == 0
        hess = second_order(tree, COORDS, point).hess[0, 0]
        assert hess == pytest.approx(d2, rel=1e-12)
        assert hess == pytest.approx(fd.hess[0, 0], rel=1e-4)


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
    """Gradient within 1e-6 and Hessian (the jets of the derivative trees)
    within 1e-4 of central differences."""
    h = 1e-4
    for src in CORPUS:
        tree = parse_expression(src, COORDS)
        for values in corpus_points():
            exact = second_order(tree, COORDS, values)
            approx = finite_difference_jet(tree, COORDS, values, h)
            assert np.max(np.abs(exact.grad - approx.grad)) <= 1e-6, src
            assert np.max(np.abs(exact.hess - approx.hess)) <= 1e-4, src


def test_sum_and_product_rules_exact():
    a = parse_expression("sin(x1)*u1+x2^2", COORDS)
    b = parse_expression("exp(0.2*x2)-u2*x1", COORDS)
    plus = parse_expression("(sin(x1)*u1+x2^2)+(exp(0.2*x2)-u2*x1)", COORDS)
    for values in corpus_points(count=25, seed=3):
        ev = one_point(COORDS, values)
        ja, jb, jsum = ev.jet(a), ev.jet(b), ev.jet(plus)
        assert jsum.value == ja.value + jb.value
        assert np.array_equal(jsum.grad, ja.grad + jb.grad)


def test_memo_shared_subtrees():
    tree = parse_expression("(x1+x2)^2*(x1+x2)", COORDS)
    ev = one_point(COORDS, [0.5, 1.5, 0, 0])
    assert ev.value(tree)[0] == pytest.approx(8.0, abs=1e-12)
    assert ev.jet(tree).value[0] == pytest.approx(8.0, abs=1e-12)


# -- random-tree linearity properties ---------------------------------------

from hypothesis import given, strategies as st  # noqa: E402

from algmech.expr import BinOp, Call, Neg, Num, Solve, Var, solve  # noqa: E402

_leaf = st.one_of(
    st.sampled_from([Var(c) for c in COORDS]),
    st.floats(min_value=-3.0, max_value=3.0, allow_nan=False).map(
        lambda v: Num(round(v, 2))
    ),
)


def _solve_component(m, entries, rhs, i):
    """Component i of G x = rhs for G = 4 I + sin(entries), which is
    diagonally dominant, so regular wherever its entries are defined."""
    G = tuple(
        tuple(
            BinOp("+", Num(4.0 if r == c else 0.0), Call("sin", entries[r * m + c]))
            for c in range(m)
        )
        for r in range(m)
    )
    return solve(G, rhs)[i]


def _solve_node(children):
    return st.integers(min_value=1, max_value=3).flatmap(
        lambda m: st.tuples(
            st.lists(children, min_size=m * m, max_size=m * m),
            st.lists(children, min_size=m, max_size=m),
            st.integers(min_value=0, max_value=m - 1),
        ).map(lambda t: _solve_component(m, *t))
    )


def _node(children):
    # stays within every function's domain on the sample box
    return st.one_of(
        st.tuples(st.sampled_from("+-*"), children, children).map(
            lambda t: BinOp(t[0], t[1], t[2])
        ),
        children.map(Neg),
        st.tuples(st.sampled_from(["sin", "cos"]), children).map(lambda t: Call(*t)),
        _solve_node(children),
    )


_tree = st.recursive(_leaf, _node, max_leaves=12)


@given(_tree, _tree, st.integers(min_value=0, max_value=2**32 - 1))
def test_sum_rule_is_componentwise_exact(a, b, seed):
    rng = SplitMix64(seed)
    ev = one_point(COORDS, [rng.uniform(-2.0, 2.0) for _ in COORDS])
    ja, jb, jsum = ev.jet(a), ev.jet(b), ev.jet(BinOp("+", a, b))
    assert jsum.value == ja.value + jb.value
    assert np.array_equal(jsum.grad, ja.grad + jb.grad)


@given(_tree, _tree, st.integers(min_value=0, max_value=2**32 - 1))
def test_product_rule_is_componentwise_exact(a, b, seed):
    rng = SplitMix64(seed)
    ev = one_point(COORDS, [rng.uniform(-2.0, 2.0) for _ in COORDS])
    ja, jb, jprod = ev.jet(a), ev.jet(b), ev.jet(BinOp("*", a, b))
    assert jprod.value == ja.value * jb.value
    assert np.array_equal(jprod.grad, ja.value[:, None] * jb.grad + jb.value[:, None] * ja.grad)


# -- compiled code equals the walker -----------------------------------------

import struct  # noqa: E402
from importlib import resources  # noqa: E402
from pathlib import Path  # noqa: E402

from hypothesis import settings  # noqa: E402

from algmech.config import load_config  # noqa: E402
from jet_reference import compiled  # noqa: E402
from test_sharing import unique_nodes  # noqa: E402

GOLDEN = Path(__file__).resolve().parent / "golden"


def bits(values):
    return [struct.pack("<d", v) for v in values]


@pytest.mark.parametrize(
    "config",
    [
        *(resources.files("algmech").joinpath(f"fixtures/{name}.json")
          for name in ("driftless", "abelian", "heisenberg")),
        GOLDEN / "dense-4.json",
        GOLDEN / "diag-8.json",
    ],
    ids=["driftless", "abelian", "heisenberg", "dense-4", "diag-8"],
)
def test_kernel_equals_walker_at_config_samples(config):
    """Anchor, semispray and energy: compiled code has the walker's bits."""
    cfg = load_config(config)
    alg = cfg.algebroid
    trees = (
        *(e for row in alg.anchor for e in row),
        *cfg.semispray().components,
        cfg.lagrangian.energy_expr,
    )
    run, _ = compiled(alg.coords, trees)
    for p in cfg.sample_points():
        ev = alg.evaluator(p)
        assert bits(run(p.values())) == bits(ev.value(t)[0] for t in trees), p


_EDGE_VALUES = [0.0, -0.0, -1.5, 0.7, 2.0, -3.0, 1e200, -1e200, 1e-200]
_KERNEL_LEAF = st.one_of(
    st.sampled_from([Var(c) for c in COORDS]),
    st.sampled_from([*_EDGE_VALUES, math.inf]).map(Num),  # a folded inf stays a float
)
_EXPONENT = st.sampled_from(
    [
        Num(2.0), Num(3.0), Num(0.0), Num(-1.0), Neg(Num(2.0)), Num(0.5), Num(-1.5), Num(1e200),
        Num(2.5),
    ]
)


def _kernel_node(children, ops="+-*/"):
    return st.one_of(
        st.tuples(st.sampled_from(ops), children, children).map(lambda t: BinOp(*t)),
        st.tuples(children, st.one_of(_EXPONENT, children)).map(lambda t: BinOp("^", *t)),
        children.map(Neg),
        st.tuples(st.sampled_from(sorted(FUNCTIONS)), children).map(lambda t: Call(*t)),
    )


FAULT = "fault"


def _walked(tree, values):
    """The walker's bits at ``values``, or FAULT where it raises the error
    that names a fault."""
    try:
        return bits(one_point(COORDS, values).value(tree).tolist())
    except (EvaluationDomainError, SingularMetricError):
        return FAULT


def _ran(run, values):
    """Compiled code's bits at ``values``, or FAULT where math's own error
    escapes it: where it does, the integrator walks the trees again."""
    try:
        return bits(run(values))
    except (ValueError, ZeroDivisionError, OverflowError):
        return FAULT


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(
    st.recursive(_KERNEL_LEAF, _kernel_node, max_leaves=10),
    st.lists(st.sampled_from(_EDGE_VALUES), min_size=len(COORDS), max_size=len(COORDS)),
)
def test_kernel_equals_walker_on_random_trees(tree, values):
    """Same bits on any tree and point, and a math error exactly where the
    walker raises the error that names the fault."""
    run, _ = compiled(COORDS, (tree,))
    assert _ran(run, values) == _walked(tree, values)


def _inner_nodes(*roots) -> int:
    """The distinct nodes under ``roots`` other than leaves: the lowering
    writes one statement for each, and none for a ``Var`` or a ``Num``."""
    seen: set = set()
    for root in roots:
        seen.update(id(n) for n in postorder(root, seen) if not isinstance(n, (Var, Num)))
    return len(seen)


def test_kernel_source_has_one_line_per_node():
    """One statement per inner node."""
    power = parse_expression("x1^200000", COORDS)
    run, lines = compiled(COORDS, (power,))
    point = [1.0 + 1e-6, 0.0, 0.0, 0.0]
    assert run(point) == one_point(COORDS, point).value(power).tolist()
    assert _inner_nodes(power) == unique_nodes(power) - 2
    assert len(lines) == _inner_nodes(power)
    # 3,000 nested sums: deeper than the recursion limit
    long_sum = parse_expression("+".join(f"{k % 7}*x1" for k in range(3000)), COORDS)
    run, lines = compiled(COORDS, (long_sum, power))
    assert len(lines) == _inner_nodes(long_sum, power)
    point = [2.0, 0.0, 0.0, 0.0]
    assert run(point)[0] == one_point(COORDS, point).value(long_sum)[0]


_WRITTEN_OUT = ["x1^1", "x1^2", "x1^3", "x1^(-1)", "x1^(-2)", "x1^(-3)"]


@pytest.mark.parametrize("src", [*_WRITTEN_OUT, "x1^0", "x1^13", "x1^1000001", "x1^2.5"])
def test_kernel_powers_equal_walker(src):
    """Integer powers up to 3 in size are written out as products, the rest
    call the power helper; both give the walker's bits, or fault where it
    does, on 300 random points with |x| up to 1e200 and at zero."""
    tree = parse_expression(src, COORDS)
    run, lines = compiled(COORDS, (tree,))
    assert any("power(" in line for line in lines) == (src not in _WRITTEN_OUT)
    rng = np.random.default_rng(0)
    xs = rng.choice([-1.0, 1.0], 300) * 10.0 ** rng.uniform(-200.0, 200.0, 300)
    for x in [0.0, -0.0, *xs.tolist()]:
        values = [x, 0.0, 0.0, 0.0]
        assert _ran(run, values) == _walked(tree, values), x


# -- the sample batch equals the walker --------------------------------------

from algmech.connection import (  # noqa: E402
    berwald_derivative,
    canonical_connection,
    jacobi_endomorphism,
)
from algmech.prolongation import (  # noqa: E402
    basis_sections,
    bracket,
    directional_derivative,
    euler_section,
    spray_homogeneity,
)

_CONFIGS = [
    *(resources.files("algmech").joinpath(f"fixtures/{name}.json")
      for name in ("driftless", "abelian", "heisenberg")),
    GOLDEN / "dense-4.json",
    GOLDEN / "diag-8.json",
]
_CONFIG_IDS = ["driftless", "abelian", "heisenberg", "dense-4", "diag-8"]


def _batch_outcome(run):
    """Per-sample bits of a batch result, or its error text."""
    try:
        out = run()
    except EvaluationDomainError as err:
        return str(err)
    return [bits(np.ravel(row)) for row in out]


def _walker_outcome(run, points):
    """The bits of the batch of one at each sample, or the error of the
    first failing one, which names its sample, as the batch must give them."""
    rows = []
    for p in points:
        try:
            rows.append(bits(np.ravel(run(p))))
        except EvaluationDomainError as err:
            return str(err)
    return rows


def _compare(names, points, tree):
    """Row k of the batch has the bits of the batch of one at sample k."""

    def one(p):
        return SampleEvaluator(names, [p])

    def jet_row(jet):
        return np.column_stack([jet.value, jet.grad])

    batch = SampleEvaluator(names, points)
    assert _batch_outcome(lambda: batch.value(tree)) == _walker_outcome(
        lambda p: one(p).value(tree), points
    )
    batch = SampleEvaluator(names, points)
    assert _batch_outcome(lambda: jet_row(batch.jet(tree))) == _walker_outcome(
        lambda p: jet_row(one(p).jet(tree)), points
    )


@pytest.mark.parametrize("config", _CONFIGS, ids=_CONFIG_IDS)
def test_batch_equals_walker_at_config_samples(config):
    """Values and jets of the trees the sweeps read: row k of the batch has
    the bits of the batch of one at sample k."""
    cfg = load_config(config)
    alg = cfg.algebroid
    S = cfg.semispray()
    N = canonical_connection(alg, S)
    trees = (
        *(e for row in alg.anchor for e in row),
        *S.components,
        cfg.lagrangian.energy_expr,
        *(e for row in N.coeffs for e in row),
    )
    samples = cfg.sample_points()
    for t in trees:
        _compare(alg.coords, samples, t)


_ROWS = st.lists(
    st.lists(st.sampled_from(_EDGE_VALUES), min_size=len(COORDS), max_size=len(COORDS)),
    min_size=1,
    max_size=4,
)


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(st.recursive(_KERNEL_LEAF, _kernel_node, max_leaves=10), _ROWS)
def test_batch_equals_walker_on_random_trees(tree, rows):
    """Row k has the bits of the batch of one at sample k, or the batch
    raises the EvaluationDomainError of the first failing sample, which names
    that sample, on any tree."""
    _compare(COORDS, [EvalPoint.of(r, ()) for r in rows], tree)


def _jets_divide(e):
    """``e`` with each ``a/b`` written ``a * (1/b)``, as jet arithmetic divides."""
    t = type(e)
    if t is BinOp:
        a, b = _jets_divide(e.left), _jets_divide(e.right)
        return BinOp("*", a, BinOp("/", Num(1.0), b)) if e.op == "/" else BinOp(e.op, a, b)
    if t is Neg:
        return Neg(_jets_divide(e.operand))
    if t is Call:
        return Call(e.func, _jets_divide(e.operand))
    return e


def _assert_jet_value_is_value(tree, value_tree, rows):
    """Where both modes evaluate, the jets of ``tree`` have the values of
    ``value_tree``, bit for bit."""
    points = [EvalPoint.of(r, ()) for r in rows]
    try:
        got = SampleEvaluator(COORDS, points).jet(tree).value
        want = SampleEvaluator(COORDS, points).value(value_tree)
    except EvaluationDomainError:
        return
    assert bits(got.tolist()) == bits(want.tolist())


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(st.recursive(_KERNEL_LEAF, partial(_kernel_node, ops="+-*"), max_leaves=10), _ROWS)
def test_jet_value_is_the_value_on_division_free_trees(tree, rows):
    """Each rule's value and jet forms agree: without ``/`` a jet's value has
    the bits of the value."""
    _assert_jet_value_is_value(tree, tree, rows)


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(st.recursive(_KERNEL_LEAF, _kernel_node, max_leaves=10), _ROWS)
def test_jet_value_divides_by_the_reciprocal(tree, rows):
    """With ``/`` a jet's value is the value of ``a * (1/b)``."""
    _assert_jet_value_is_value(tree, _jets_divide(tree), rows)


def test_batch_applies_math_not_numpy_functions():
    """At arguments where numpy's exp and log round otherwise than math's,
    the batch keeps math's bits (on a host where they always agree, the
    drawn arguments are used as they are)."""
    rng = SplitMix64(20261018)
    xs = [rng.uniform(-700.0, 700.0) for _ in range(2000)]
    us = [rng.uniform(1e-3, 1e3) for _ in range(5000)]
    xs = [v for v, e in zip(xs, np.exp(xs).tolist()) if e != math.exp(v)] or xs
    us = [u for u, g in zip(us, np.log(us).tolist()) if g != math.log(u)] or us
    points = [EvalPoint.of([x, us[i % len(us)], 0.0, 0.0], ()) for i, x in enumerate(xs[:200])]
    for src in ("exp(x1)", "ln(x2)", "x2^0.5", "x2^x1"):
        _compare(COORDS, points, parse_expression(src, COORDS))
    ev = SampleEvaluator(COORDS, points)
    assert bits(ev.value(parse_expression("exp(x1)", COORDS))) == bits(
        math.exp(p.x[0]) for p in points
    )
    assert bits(ev.value(parse_expression("ln(x2)", COORDS))) == bits(
        math.log(p.x[1]) for p in points
    )


@pytest.mark.parametrize(
    "src,closed",
    [
        ("x1^0.5", lambda x1, x2: [0.5 * x1**-0.5, 0.0]),
        ("x1^2.5", lambda x1, x2: [2.5 * x1**1.5, 0.0]),
        ("x1^x2", lambda x1, x2: [x2 * x1 ** (x2 - 1.0), x1**x2 * math.log(x1)]),
    ],
    ids=["x1^0.5", "x1^2.5", "x1^x2"],
)
def test_first_order_power_jet_at_a_tiny_base(src, closed):
    """A jet computes no f'' term, so at x1 = 1e-200, where the f'' factor
    1/x1^2 overflows, the jets of the batch of one and of row 1 of a batch
    of two are finite, agree bit for bit and match the closed form (x1^2.5
    underflows to 0 there)."""
    x1, x2 = 1e-200, 1.5
    p = EvalPoint.of([x1, x2, 0.7, 2.0], ())
    tree = parse_expression(src, COORDS)
    one = SampleEvaluator(COORDS, [p]).jet(tree)
    batch = SampleEvaluator(COORDS, [EvalPoint.of([0.5, x2, 0.7, 2.0], ()), p]).jet(tree)
    point = [one.value[0], *one.grad[0]]
    assert np.isfinite(point).all()
    assert bits(point) == bits([batch.value[1], *batch.grad[1]])
    np.testing.assert_allclose(one.grad[0], [*closed(x1, x2), 0.0, 0.0], rtol=1e-12, atol=1e-299)


@pytest.mark.parametrize("config", _CONFIGS[:3], ids=_CONFIG_IDS[:3])
def test_batched_bracket_slices_equal_the_point_call(config):
    """Every formula gives row k over a batch the bits of the call on the
    batch of one at sample k."""
    cfg = load_config(config)
    alg = cfg.algebroid
    S, N, E = cfg.semispray(), cfg.connection(), cfg.lagrangian.energy_expr
    Ssec = S.section(alg)
    samples = cfg.sample_points(count=12)
    pairs = [(Ssec, B) for B in basis_sections(alg.m)] + [(euler_section(alg), Ssec)]

    fs = (*S.components, E)

    def formulas(ev):
        out = [np.concatenate(bracket(alg, A, (B,), ev), axis=-1)[0] for A, B in pairs]
        out.append(jacobi_endomorphism(alg, S, N, ev))
        out += [berwald_derivative(alg, N, f, ev) for f in fs]
        out.append(directional_derivative(alg, ev, *Ssec.values_at(ev), fs))
        out.append(spray_homogeneity(alg, S, ev))
        return out

    batch = formulas(alg.sample_evaluator(samples))
    for i, p in enumerate(samples):
        one = formulas(alg.evaluator(p))
        for b, q in zip(batch, one, strict=True):
            assert bits(np.ravel(b[i])) == bits(np.ravel(q[0])), p


# -- trees far deeper than Python's recursion limit ---------------------------

from test_expr import DEEP_CHAIN, LONG_SUM  # noqa: E402

_DEEP_POINTS = [EvalPoint.of([0.3, -1.1], [0.7, 2.0]), EvalPoint.of([-2.5, 0.4], [1.5, -0.2])]


@pytest.mark.parametrize("src", [LONG_SUM, DEEP_CHAIN], ids=["sum", "chain"])
def test_deep_trees_agree_in_every_mode(src):
    """Value and jet over a batch and over the batch of one at each sample,
    and compiled code, give one set of bits on a 50,000-node sum and a
    5,000-deep chain."""
    tree = parse_expression(src, COORDS)
    batch = SampleEvaluator(COORDS, _DEEP_POINTS)
    values, jets = batch.value(tree), batch.jet(tree)
    run, _ = compiled(COORDS, (tree,))
    for i, p in enumerate(_DEEP_POINTS):
        ev = SampleEvaluator(COORDS, [p])
        value, jet = ev.value(tree)[0], ev.jet(tree)
        assert bits([values[i], *run(p.values())]) == bits([value, value])
        assert bits([jet.value[0], *jet.grad[0]]) == bits([jets.value[i], *jets.grad[i]])
        assert jet.value[0] == value


@pytest.mark.parametrize("src", [LONG_SUM, DEEP_CHAIN], ids=["sum", "chain"])
def test_domain_error_deep_inside_names_its_subexpression(src):
    at = src.index("x1")  # plant ln(x2-x2) in place of the first x1
    tree = parse_expression(src[:at] + "ln(x2-x2)" + src[at + 2:], COORDS)
    named = "ln is undefined at 0.0 in 'ln(x2-x2)'"
    p = _DEEP_POINTS[0]
    ev = SampleEvaluator(COORDS, [p])
    for mode in (ev.value, ev.jet):
        with pytest.raises(EvaluationDomainError) as caught:
            mode(tree)
        assert str(caught.value) == f"{named} at {p}"
    batch = SampleEvaluator(COORDS, _DEEP_POINTS)
    for mode in (batch.value, batch.jet):
        with pytest.raises(EvaluationDomainError) as caught:
            mode(tree)
        assert str(caught.value) == f"{named} at {p}"
    run, _ = compiled(COORDS, (tree,))
    with pytest.raises(ValueError):
        run(p.values())


# -- solve nodes ----------------------------------------------------------------

# a solve over random trees, themselves with solves inside
_SOLVES = _solve_node(_tree).filter(lambda x: type(x) is Solve)
_BOX_ROWS = st.lists(
    st.lists(st.floats(min_value=-2.0, max_value=2.0), min_size=len(COORDS), max_size=len(COORDS)),
    min_size=1,
    max_size=4,
)


def _box_point(seed):
    rng = SplitMix64(seed)
    return [rng.uniform(-2.0, 2.0) for _ in COORDS]


@settings(max_examples=50, derandomize=True, deadline=None, database=None)
@given(_SOLVES, st.integers(min_value=0, max_value=2**32 - 1))
def test_solve_values_match_numpy_inverse(x, seed):
    """Every component of a solve is inv(G) @ b, with G and b evaluated."""
    ev = one_point(COORDS, _box_point(seed))
    system = x.system
    G = np.array([[ev.value(g)[0] for g in row] for row in system.matrix])
    want = np.linalg.inv(G) @ ev.values_of(system.rhs)[0]
    got = ev.values_of(system.solution)[0]
    assert np.max(np.abs(got - want)) <= 1e-12 * (1.0 + np.max(np.abs(want)))


@settings(max_examples=30, derandomize=True, deadline=None, database=None)
@given(_SOLVES, st.integers(min_value=0, max_value=2**32 - 1))
def test_solve_jets_match_finite_differences(x, seed):
    """The jet of a solve against central differences (gradient within 1e-6,
    and the Hessian of the jets of its derivative trees within 1e-4, relative
    to the jet's size), and its gradient against the values of its
    derivative trees, which are solves too."""
    values = _box_point(seed)
    exact = second_order(x, COORDS, values)
    approx = finite_difference_jet(x, COORDS, values, 1e-4)
    size = 1.0 + max(abs(exact.value), np.max(np.abs(exact.grad)), np.max(np.abs(exact.hess)))
    assert np.max(np.abs(exact.grad - approx.grad)) <= 1e-6 * size
    assert np.max(np.abs(exact.hess - approx.hess)) <= 1e-4 * size
    ev = one_point(COORDS, values)
    trees = [ev.value(differentiate(x, c))[0] for c in COORDS]
    assert np.max(np.abs(np.array(trees) - exact.grad)) <= 1e-12 * size


@settings(max_examples=50, derandomize=True, deadline=None, database=None)
@given(_SOLVES, _BOX_ROWS)
def test_solve_point_batch_and_kernel_agree_bit_for_bit(x, rows):
    """Values and jets of row k of the batch, and compiled code's values,
    have the bits of the batch of one at sample k, or fault where it does."""
    points = [EvalPoint.of(r, ()) for r in rows]
    _compare(COORDS, points, x)
    run, _ = compiled(COORDS, (x,))
    assert [_ran(run, p.values()) for p in points] == [_walked(x, p.values()) for p in points]


def test_singular_matrix_names_its_sample():
    """G = [[x1, 1], [1, 1]] is singular at x1 = 1, the third sample: the
    batch names it and its index, the batch of one its point, and compiled
    code faults there alone."""
    x = solve(((Var("x1"), Num(1.0)), (Num(1.0), Num(1.0))), (Var("x2"), Num(1.0)))[0]
    points = [EvalPoint.of([v, 0.5, 0.0, 0.0], ()) for v in (2.0, 3.0, 1.0, 5.0)]
    p = points[2]
    runs = [
        (lambda: SampleEvaluator(COORDS, points).value(x), p, 2),
        (lambda: SampleEvaluator(COORDS, points).jet(x), p, 2),
        (lambda: SampleEvaluator(COORDS, [p]).jet(x), p, 0),
    ]
    for run, point, index in runs:
        with pytest.raises(SingularMetricError) as caught:
            run()
        assert (caught.value.point, caught.value.index) == (point, index)
        assert str(caught.value).startswith(f"singular fiber metric at {point} (det = ")
    run, _ = compiled(COORDS, (x,))
    assert [_ran(run, q.values()) == FAULT for q in points] == [False, False, True, False]
