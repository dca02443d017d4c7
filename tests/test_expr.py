import hashlib
import math
import sys
import threading
from collections import Counter

import numpy as np
import pytest

from curvekit import expr
from curvekit.expr import (
    MAX_DEPTH,
    BinOp,
    Call,
    Const,
    DifferentiationError,
    EvalError,
    ExprError,
    ExprSyntaxError,
    Neg,
    Param,
    Var,
    _evaluate,
    compile_program,
    differentiate,
    evaluate,
    free_parameters,
    parse,
    substitute_var,
    to_string,
)
from helpers import random_ast, random_smooth_ast
from oracles import tree_program


class TestParse:
    def test_single_call(self):
        assert parse("cos(t)") == Call("cos", Var())

    def test_parameter_product(self):
        expected = BinOp("-", Const(1.0), BinOp("*", Param("lambda"), Call("sin", Var())))
        assert parse("1 - lambda*sin(t)") == expected

    def test_nested_rational_argument(self):
        expected = Call("cos", BinOp("/", BinOp("*", Const(3.0), Var()), Const(2.0)))
        assert parse("cos(3*t/2)") == expected

    def test_theta_is_the_same_variable(self):
        assert parse("cos(theta)") == parse("cos(t)")

    def test_pi_constant(self):
        assert parse("pi") == Const(math.pi)

    def test_left_associativity(self):
        assert evaluate(parse("1 - 2 - 3"), 0.0) == -4.0
        assert evaluate(parse("8/4/2"), 0.0) == 1.0

    def test_precedence(self):
        assert evaluate(parse("2+3*4"), 0.0) == 14.0
        assert evaluate(parse("-2^2"), 0.0) == -4.0
        assert evaluate(parse("2^-2"), 0.0) == 0.25

    def test_syntax_error_position(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse("1 + * 2")
        assert err.value.position == 4

    def test_unknown_function(self):
        with pytest.raises(ExprSyntaxError, match="unknown function 'foo'"):
            parse("foo(t)")

    def test_unexpected_character(self):
        with pytest.raises(ExprSyntaxError):
            parse("1 & 2")

    def test_unbalanced_parenthesis(self):
        with pytest.raises(ExprSyntaxError):
            parse("cos(t")

    def test_empty(self):
        with pytest.raises(ExprSyntaxError):
            parse("   ")

    def test_non_constant_exponent_rejected(self):
        with pytest.raises(ExprSyntaxError, match="constant"):
            parse("t^t")

    def test_constant_exponent_may_be_an_expression(self):
        assert parse("t^(3/2)") == BinOp("^", Var(), Const(1.5))

    def test_overflowing_exponent_is_named(self):
        for source in ("2^1000^1000", "t^(1/0)"):
            with pytest.raises(ExprSyntaxError, match="overflows or is undefined"):
                parse(source)

    def test_overflowing_literal_is_named(self):
        with pytest.raises(ExprSyntaxError, match="numeric literal '1e400' overflows") as err:
            parse("sin(1e400)")
        assert err.value.position == 4

    def test_depth_cap(self):
        deep = [
            "(" * (MAX_DEPTH + 1) + "t" + ")" * (MAX_DEPTH + 1),
            "sin(" * (MAX_DEPTH + 1) + "t" + ")" * (MAX_DEPTH + 1),
            "-" * (MAX_DEPTH + 1) + "t",
            "t^" * (MAX_DEPTH + 1) + "1",
            "+".join(["t"] * (MAX_DEPTH + 2)),
            "*".join(["t"] * (MAX_DEPTH + 2)),
        ]
        for source in deep:
            with pytest.raises(ExprSyntaxError, match=f"deeper than {MAX_DEPTH}"):
                parse(source)

    def test_depth_cap_admits_its_own_depth(self):
        # the deepest accepted trees still differentiate and evaluate
        for source in (
            "sin(" * MAX_DEPTH + "t" + ")" * MAX_DEPTH,
            "1/(" * (MAX_DEPTH // 2) + "t" + ")" * (MAX_DEPTH // 2),
            "+".join(["t"] * (MAX_DEPTH + 1)),
        ):
            ast = parse(source)
            d2 = differentiate(differentiate(ast))
            assert parse(to_string(ast)) == ast
            assert np.isfinite(compile_program(d2)(np.array([0.3]))[0])


    def test_derivatives_share_subtrees(self):
        # as a tree the second derivative has 363,696 nodes
        d2 = differentiate(differentiate(parse("sin(" * MAX_DEPTH + "t" + ")" * MAX_DEPTH)))
        seen, stack = set(), [d2]
        while stack:
            node = stack.pop()
            if id(node) not in seen:
                seen.add(id(node))
                stack.extend(getattr(node, field) for field in ("arg", "left", "right")
                             if hasattr(node, field))
        assert len(seen) < 1500

    def test_constructed_text_is_unchanged(self):
        # sha256 of the printed forms below, recorded from unmemoized
        # folding and differentiation
        rng = np.random.default_rng(2718)
        digest = hashlib.sha256()
        for _ in range(300):
            ast = random_smooth_ast(rng, depth=4)
            d1 = differentiate(ast)
            for node in (ast, d1, differentiate(d1), substitute_var(ast, parse("t - pi"))):
                digest.update(to_string(node).encode() + b"\n")
            try:
                text = to_string(parse(to_string(random_ast(rng))))
            except ExprError:
                text = "error"
            digest.update(text.encode() + b"\n")
        assert digest.hexdigest() == "e931a8a35b5598954efeab3e9950a118921c4668abf9ab9680722fea3064c0e9"


class TestEvaluate:
    def test_cos_at_zero(self):
        assert evaluate(parse("cos(t)"), 0.0) == 1.0

    def test_limacon_radius(self):
        value = evaluate(parse("1 - lambda*sin(t)"), math.pi / 2, {"lambda": 2.0})
        assert value == pytest.approx(-1.0, abs=1e-15)

    def test_radius_vanishes_at_constructed_angle(self):
        phi0 = math.acos(-0.5)
        value = evaluate(parse("1 + lambda*cos(t)"), phi0, {"lambda": 2.0})
        assert value == pytest.approx(0.0, abs=1e-15)

    def test_unbound_parameter(self):
        with pytest.raises(EvalError, match="unbound parameter 'R'"):
            evaluate(parse("R*cos(t)"), 0.0)

    def test_division_by_zero(self):
        with pytest.raises(EvalError, match="division by zero"):
            evaluate(parse("1/t"), 0.0)

    def test_tan_pole(self):
        with pytest.raises(EvalError, match="pole"):
            evaluate(parse("tan(t)"), math.pi / 2)

    def test_sqrt_of_negative(self):
        with pytest.raises(EvalError):
            evaluate(parse("sqrt(t)"), -1.0)

    def test_negative_base_fractional_exponent(self):
        with pytest.raises(EvalError):
            evaluate(parse("t^0.5"), -2.0)

    def test_negative_base_integer_exponent_ok(self):
        assert evaluate(parse("t^3"), -2.0) == -8.0

    def test_free_parameters(self):
        assert free_parameters(parse("1 - lambda*sin(t) + R")) == {"lambda", "R"}


class TestPrinting:
    def test_round_trip_fixed_corpus(self):
        corpus = [
            "cos(t)",
            "1 - lambda*sin(t)",
            "cos(3*t/2)",
            "a*(b/c)",
            "t*-sin(t)",
            "(1 + lambda*cos(t))*cos(t)",
            "sqrt(1 + t^2)",
            "t^(-2)",
            "-(t + 1)",
            "abs(t) + tan(t/4)",
        ]
        for source in corpus:
            first = parse(source)
            assert parse(to_string(first)) == first

    def test_round_trip_random(self):
        rng = np.random.default_rng(94021)
        for _ in range(200):
            source = to_string(random_ast(rng))
            first = parse(source)
            assert parse(to_string(first)) == first


class TestDifferentiate:
    def test_table_derivative(self):
        assert differentiate(parse("sin(t)")) == Call("cos", Var())

    def test_product_rule(self):
        d = differentiate(parse("t*cos(t)"))
        for x in (0.0, 0.7, -1.3):
            expected = math.cos(x) - x * math.sin(x)
            assert evaluate(d, x) == pytest.approx(expected, abs=1e-12)

    def test_abs_rejected(self):
        with pytest.raises(DifferentiationError):
            differentiate(parse("abs(t)"))
        with pytest.raises(DifferentiationError):
            differentiate(parse("1 + abs(sin(t))"))

    def test_matches_central_differences(self):
        rng = np.random.default_rng(777001)
        h = 1e-5
        for _ in range(20):
            ast = random_smooth_ast(rng)
            d = differentiate(ast)
            for _ in range(20):
                x = float(rng.uniform(-1.5, 1.5))
                fd = (evaluate(ast, x + h) - evaluate(ast, x - h)) / (2 * h)
                sym = evaluate(d, x)
                assert abs(sym - fd) < 1e-6 * (1.0 + abs(sym))


class TestPrograms:
    def test_matches_scalar_evaluation(self):
        rng = np.random.default_rng(5150)
        xs = np.linspace(-1.5, 1.5, 31)
        for _ in range(20):
            ast = random_smooth_ast(rng)
            program = compile_program(ast)
            values = program(xs)
            for x, v in zip(xs, values):
                assert v == pytest.approx(evaluate(ast, float(x)), rel=1e-12, abs=1e-12)

    def test_parameters_are_bound_at_compile_time(self):
        program = compile_program(parse("1 - lambda*sin(t)"), {"lambda": 2.0})
        xs = np.array([0.0, math.pi / 2])
        assert np.allclose(program(xs), [1.0, -1.0])

    def test_unbound_parameter_rejected(self):
        with pytest.raises(EvalError):
            compile_program(parse("R*cos(t)"))

    def test_ieee_semantics_for_poles(self):
        program = compile_program(parse("1/t"))
        values = program(np.array([0.0, 2.0]))
        assert np.isinf(values[0]) and values[1] == 0.5

    def test_tangent_and_division_poles(self):
        program = compile_program(parse("tan(t) / (1 - t)"))
        values = program(np.array([0.0, 1.0, 2.0]))
        assert np.isfinite(values[0])
        assert not np.isfinite(values[1])

    def test_integer_power_of_negative_base(self):
        program = compile_program(parse("t^3"))
        assert program(np.array([-2.0]))[0] == -8.0

    def test_results_are_fresh_arrays_of_the_input_shape(self):
        xs = np.linspace(0.0, 1.0, 6).reshape(2, 3)
        for source in ("t", "2.5", "a", "sin(a)"):
            out = compile_program(parse(source), {"a": 0.5})(xs)
            assert out.shape == xs.shape and out.dtype == np.float64
            assert not np.shares_memory(out, xs)
            out += 1.0  # writable, and writing leaves the input alone
        assert np.array_equal(xs, np.linspace(0.0, 1.0, 6).reshape(2, 3))

    def test_matches_ast_walk_on_random_expressions(self):
        rng = np.random.default_rng(31415)
        xs = np.linspace(-6.0, 6.0, 2001)
        params = {"lambda": 2.0, "R": 3.0, "a": 1.5, "b": 0.5}

        def walk(ast, x):
            try:
                return _evaluate(ast, x, params)
            except (ExprError, ValueError):
                return math.nan

        checked = 0
        with np.errstate(all="ignore"):
            for _ in range(40):
                ast = random_ast(rng)
                fast = compile_program(ast, params)(xs)
                slow = np.array([walk(ast, float(x)) for x in xs])
                finite = np.isfinite(fast) & np.isfinite(slow)
                assert np.array_equal(np.isfinite(fast), np.isfinite(slow))
                assert np.allclose(fast[finite], slow[finite], rtol=1e-12, atol=1e-12)
                checked += 1
        assert checked == 40


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def same_bits_but_nan(a, b):
    """NaN in the same places, every other element bit for bit equal.

    On arrays of 256 KiB or more numpy's temporary elision may compute an
    operation in place, which can flip the sign bit of a NaN it produces."""
    nan = np.isnan(a)
    return np.array_equal(nan, np.isnan(b)) and same_bits(a[~nan], b[~nan])


def specials(xs):
    return np.concatenate([xs, [np.inf, -np.inf, np.nan, 0.0, -0.0]])


class TestSharedPrograms:
    XS = specials(np.linspace(-6.0, 6.0, 1001))
    # at least 32,768 points (256 KiB), where temporary elision starts, as
    # in the blocks of roulette.trace
    LARGE = specials(np.linspace(-6.0, 6.0, 40_001))
    PARAMS = {"lambda": 2.0, "R": 3.0, "a": 1.5, "b": -0.0}

    def check(self, nodes, params):
        for reference, agree in ((self.XS, same_bits), (self.LARGE, same_bits_but_nan)):
            xs = reference.copy()
            outs = compile_program(nodes, params)(xs)
            assert isinstance(outs, tuple) and len(outs) == len(nodes)
            for node, out in zip(nodes, outs):
                assert agree(out, tree_program(node, params)(xs))
                assert not np.shares_memory(out, xs)
            for i in range(len(outs)):
                for j in range(i):
                    assert not np.shares_memory(outs[i], outs[j])
            assert same_bits(xs, reference)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_matches_tree_evaluation_bit_for_bit(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(150):
            a, b = random_ast(rng), random_ast(rng)
            # repeats across and within outputs, and the same node twice
            shared = [a, b, BinOp("*", a, b), Call("sin", a),
                      BinOp("-", BinOp("+", a, b), Neg(a)), BinOp("/", b, b), a]
            self.check(shared, self.PARAMS)
            xs = self.XS.copy()
            for node in shared[2:6]:
                assert same_bits(compile_program(node, self.PARAMS)(xs),
                                 tree_program(node, self.PARAMS)(xs))

    @pytest.mark.parametrize("seed", [1, 2])
    def test_derivatives_match_tree_evaluation(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(60):
            ast = random_smooth_ast(rng, depth=4)
            d1 = differentiate(ast)
            self.check([ast, d1, differentiate(d1)], {})

    def test_constant_and_variable_outputs(self):
        # 0 and -0 are different constants: t/0 and t/-0 differ in sign
        self.check([Var(), Const(2.5), Var(), parse("sin(a)"), Const(-0.0),
                    BinOp("/", Var(), Const(0.0)), BinOp("/", Var(), Const(-0.0))], {"a": 0.5})

    def test_limacon_velocity_takes_one_sine_and_one_cosine(self, monkeypatch):
        # evaluated as trees, dx and dy hold 8 trigonometric calls
        calls = Counter()

        def counted(name, func):
            return lambda x: (calls.update([name]), func(x))[1]

        for name, func in list(expr._UFUNCS.items()):
            monkeypatch.setitem(expr._UFUNCS, name, counted(name, func))
        x, y = parse("(1 + lambda*cos(t))*cos(t)"), parse("(1 + lambda*cos(t))*sin(t)")
        dx, dy = differentiate(x), differentiate(y)
        params = {"lambda": 2.0}
        velocity = compile_program([dx, dy], params)(self.XS)
        assert calls == Counter(sin=1, cos=1)
        calls.clear()
        compile_program([x, y, dx, dy], params)(self.XS)
        assert calls == Counter(sin=1, cos=1)
        calls.clear()
        assert same_bits(velocity[0], compile_program(dx, params)(self.XS))
        assert calls == Counter(sin=1, cos=1)  # a single output shares its own repeats


    def test_threads_sharing_a_program_get_their_own_results(self):
        # each call holds its step values in its own dict; four threads call
        # one program with different inputs, switching as often as possible
        x, y = parse("(1 + lambda*cos(t))*cos(t)"), parse("(1 + lambda*cos(t))*sin(t)")
        nodes = [x, y, differentiate(x), differentiate(y)]
        program = compile_program(nodes, {"lambda": 2.0})
        inputs = [np.linspace(k, k + 6.0, 20_000) for k in range(4)]
        expected = [program(xs) for xs in inputs]
        wrong = []

        def worker(k):
            for _ in range(100):
                outs = program(inputs[k])
                if len(outs) != 4 or not all(map(same_bits, outs, expected[k])):
                    wrong.append(k)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []


class TestSubstitution:
    def test_shift_variable(self):
        shifted = substitute_var(parse("sin(t)"), parse("t - pi"))
        assert evaluate(shifted, math.pi) == pytest.approx(0.0, abs=1e-15)
        assert evaluate(shifted, 1.5 * math.pi) == pytest.approx(math.sin(0.5 * math.pi))
