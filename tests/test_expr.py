import math

import pytest
from hypothesis import given, strategies as st

from algmech.errors import ExprSyntaxError, UnknownIdentifierError
from algmech.expr import (
    BinOp,
    Call,
    Neg,
    Num,
    Var,
    differentiate,
    parse_expression,
    postorder,
    to_source,
    variables,
)

from jet_reference import one_point

COORDS = ["x1", "x2", "x3", "u1", "u2"]


def parse(src, coords=COORDS):
    return parse_expression(src, coords)


class TestGrammar:
    def test_negated_product(self):
        assert parse("-(u1*u2)") == Neg(BinOp("*", Var("u1"), Var("u2")))

    def test_quadratic_lagrangian_shape(self):
        tree = parse("0.5*(u1^2+u2^2)")
        assert tree == BinOp(
            "*",
            Num(0.5),
            BinOp(
                "+",
                BinOp("^", Var("u1"), Num(2.0)),
                BinOp("^", Var("u2"), Num(2.0)),
            ),
        )

    def test_unknown_identifier(self):
        with pytest.raises(UnknownIdentifierError) as exc:
            parse("u3", coords=["u1", "u2"])
        assert exc.value.name == "u3"

    def test_power_binds_tighter_than_unary_minus(self):
        assert parse("-u1^2") == Neg(BinOp("^", Var("u1"), Num(2.0)))

    def test_power_right_associative(self):
        assert parse("u1^u2^x1") == BinOp(
            "^", Var("u1"), BinOp("^", Var("u2"), Var("x1"))
        )

    def test_negative_exponent(self):
        assert parse("u1^-2") == BinOp("^", Var("u1"), Neg(Num(2.0)))

    def test_left_associative_subtraction(self):
        assert parse("x1-x2+x3") == BinOp(
            "+", BinOp("-", Var("x1"), Var("x2")), Var("x3")
        )

    def test_function_call(self):
        assert parse("sin(x1)") == Call("sin", Var("x1"))

    def test_double_star_rejected_with_offset(self):
        with pytest.raises(ExprSyntaxError) as exc:
            parse("u1**2")
        assert exc.value.offset == 3

    def test_non_ascii_letter_rejected_with_offset(self):
        with pytest.raises(ExprSyntaxError) as exc:
            parse("x1+\u00e9")
        assert str(exc.value) == "unexpected character '\u00e9' (at offset 3)"

    def test_trailing_garbage(self):
        with pytest.raises(ExprSyntaxError):
            parse("x1 x2")

    def test_empty_source(self):
        with pytest.raises(ExprSyntaxError) as exc:
            parse("   ")
        assert exc.value.offset == 3

    def test_missing_paren(self):
        with pytest.raises(ExprSyntaxError):
            parse("sin(x1")

    def test_scientific_literals(self):
        assert parse("1e-3") == Num(1e-3)
        assert parse(".5") == Num(0.5)

    def test_overflowing_literal_rejected(self):
        with pytest.raises(ExprSyntaxError):
            parse("1e999")

    def test_whitespace_insignificant(self):
        assert parse(" x1 + 2 * u1 ") == parse("x1+2*u1")


@pytest.mark.parametrize(
    "src",
    [
        "-(u1*u2)",
        "0.5*(u1^2+u2^2)",
        "x1-x2+x3",
        "x1-(x2+x3)",
        "u1^u2^x1",
        "(u1^u2)^x1",
        "-u1^2",
        "(-u1)^2",
        "u1*-u2",
        "sin(cos(x1))+exp(x2)/sqrt(u1^2+1)",
        "ln(x1+2)*x2^3",
        "1/(x1+x2)/x3",
        "2^-3",
        "--u1",
    ],
)
def test_round_trip_examples(src):
    tree = parse(src)
    assert parse(to_source(tree)) == tree


_leaf = st.one_of(
    st.sampled_from([Var(c) for c in COORDS]),
    st.floats(min_value=0.0, max_value=9.5, allow_nan=False).map(
        lambda v: Num(round(v, 3))
    ),
)


def _combine(children):
    op = st.sampled_from(["+", "-", "*", "/"])
    return st.one_of(
        st.tuples(op, children, children).map(lambda t: BinOp(*t)),
        children.map(Neg),
        st.tuples(st.sampled_from(["sin", "cos", "exp"]), children).map(
            lambda t: Call(*t)
        ),
        st.tuples(children, st.integers(min_value=0, max_value=4)).map(
            lambda t: BinOp("^", t[0], Num(float(t[1])))
        ),
    )


@given(st.recursive(_leaf, _combine, max_leaves=25))
def test_round_trip_random_trees(tree):
    assert parse(to_source(tree), COORDS) == parse(to_source(parse(to_source(tree), COORDS)), COORDS)


class TestDifferentiate:
    def _dval(self, src, name, env):
        tree = differentiate(parse(src), name)
        return one_point(COORDS, [env.get(c, 0.0) for c in COORDS]).value(tree)[0]

    def test_product_rule(self):
        assert self._dval("u1*u2", "u1", {"u1": 3.0, "u2": 5.0}) == 5.0

    def test_chain_rule_sin(self):
        v = self._dval("sin(x1^2)", "x1", {"x1": 0.7})
        assert v == pytest.approx(2 * 0.7 * math.cos(0.49), abs=1e-15)

    def test_quotient_rule(self):
        v = self._dval("x1/x2", "x2", {"x1": 3.0, "x2": 2.0})
        assert v == pytest.approx(-0.75, abs=1e-15)

    def test_general_power(self):
        v = self._dval("x1^x2", "x2", {"x1": 2.0, "x2": 3.0})
        assert v == pytest.approx(8.0 * math.log(2.0), abs=1e-12)

    def test_constant_fold_keeps_zero(self):
        assert differentiate(parse("7"), "x1") == Num(0.0)

    def test_variables_listing(self):
        assert variables(parse("x1*sin(u2)+3")) == frozenset({"x1", "u2"})


# -- trees far deeper than Python's recursion limit ---------------------------

# a left-deep sum of 49,999 nodes, and 5,000 nested calls
LONG_SUM = "+".join(f"{k % 7}*{('x1', 'x2', 'u1')[k % 3]}" for k in range(12_500))
DEEP_CHAIN = "sin(cos(" * 2_500 + "x1" + "))" * 2_500


def shape(tree):
    """Every node in post-order as (kind, label): equal lists mean
    structurally identical trees."""
    label = {Num: "value", Var: "name", BinOp: "op", Call: "func"}
    return [(type(n), getattr(n, label[type(n)]) if type(n) in label else None)
            for n in postorder(tree, ())]


@pytest.mark.parametrize("src,nodes", [(LONG_SUM, 49_999), (DEEP_CHAIN, 5_001)], ids=["sum", "chain"])
def test_deep_tree_round_trip(src, nodes):
    tree = parse(src)
    assert len(shape(tree)) == nodes
    assert shape(parse(to_source(tree))) == shape(tree)
    assert to_source(parse(to_source(tree))) == to_source(tree)


def test_deep_tree_variables_and_derivatives():
    assert variables(parse(LONG_SUM)) == frozenset({"x1", "x2", "u1"})
    assert variables(parse(DEEP_CHAIN)) == frozenset({"x1"})
    at = one_point(COORDS, [0.3, 0.0, 0.0, 0.0, 0.0])
    # d/dx2 of the sum is the sum of its integer coefficients of x2: exact
    assert at.value(differentiate(parse(LONG_SUM), "x2"))[0] == sum(
        k % 7 for k in range(12_500) if k % 3 == 1
    )
    v, d = 0.3, 1.0  # the chain rule, forward from the innermost call
    for _ in range(2_500):
        v, d = math.cos(v), -math.sin(v) * d
        v, d = math.sin(v), math.cos(v) * d
    assert at.value(differentiate(parse(DEEP_CHAIN), "x1"))[0] == pytest.approx(d, rel=1e-12)
    assert at.value(parse(DEEP_CHAIN))[0] == v


def test_postorder_visits_children_first_and_prunes_done_nodes():
    shared = parse("x1*x2")
    tree = BinOp("+", shared, Neg(shared))
    order = list(postorder(tree, ()))
    assert [to_source(n) for n in order] == [
        "x1", "x2", "x1*x2", "x1", "x2", "x1*x2", "-(x1*x2)", "x1*x2+-(x1*x2)",
    ]
    seen, pruned = set(), []
    for n in postorder(tree, seen):
        seen.add(id(n))
        pruned.append(to_source(n))
    assert pruned == ["x1", "x2", "x1*x2", "-(x1*x2)", "x1*x2+-(x1*x2)"]
