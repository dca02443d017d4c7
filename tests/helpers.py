"""Shared test utilities: random expression generators, a recorder of the
bounds passed to symmetric_hausdorff, and a polar curve's radius at one
angle by the scalar evaluator."""

import inspect

import numpy as np

from curvekit.expr import BinOp, Call, Const, Neg, Param, Var, evaluate

PARAM_NAMES = ("lambda", "R", "a", "b")


def random_ast(rng, depth=4):
    """Arbitrary well-formed AST (may contain abs, params, any constants)."""
    if depth <= 0 or rng.random() < 0.25:
        choice = rng.integers(0, 3)
        if choice == 0:
            return Const(float(np.round(rng.uniform(-3.0, 3.0), 3)))
        if choice == 1:
            return Var()
        return Param(PARAM_NAMES[rng.integers(0, len(PARAM_NAMES))])
    kind = rng.integers(0, 7)
    if kind == 0:
        return Neg(random_ast(rng, depth - 1))
    if kind == 1:
        func = ("sin", "cos", "tan", "sqrt", "abs")[rng.integers(0, 5)]
        return Call(func, random_ast(rng, depth - 1))
    if kind == 2:
        exponent = float(rng.choice([-3, -2, 2, 3, 0.5, 1.5]))
        return BinOp("^", random_ast(rng, depth - 1), Const(exponent))
    op = "+-*/"[rng.integers(0, 4)]
    return BinOp(op, random_ast(rng, depth - 1), random_ast(rng, depth - 1))


def random_smooth_ast(rng, depth=3):
    """AST that is smooth and singularity-free for |t| <= 2.

    Division only by 3 + sin(u), square roots only of 1 + u^2, tangent only
    of 0.4*sin(u): every sample point is a safe finite-difference point.
    """
    if depth <= 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return Var()
        return Const(float(np.round(rng.uniform(-2.0, 2.0), 3)))
    kind = rng.integers(0, 8)
    child = random_smooth_ast(rng, depth - 1)
    if kind == 0:
        return Neg(child)
    if kind == 1:
        return Call("sin", child)
    if kind == 2:
        return Call("cos", child)
    if kind == 3:
        return Call("tan", BinOp("*", Const(0.4), Call("sin", child)))
    if kind == 4:
        return Call("sqrt", BinOp("+", Const(1.0), BinOp("^", child, Const(2.0))))
    if kind == 5:
        return BinOp("^", child, Const(float(rng.integers(2, 4))))
    if kind == 6:
        denom = BinOp("+", Const(3.0), Call("sin", random_smooth_ast(rng, depth - 1)))
        return BinOp("/", child, denom)
    op = "+-*"[rng.integers(0, 3)]
    return BinOp(op, child, random_smooth_ast(rng, depth - 1))


def record_hausdorff_bounds(monkeypatch, module):
    """Wrap the module global `module.symmetric_hausdorff`, the name the
    benchmark's tracer wraps, and return the list of bounds it receives."""
    real = module.symmetric_hausdorff
    bounds = []

    def recording(*args, **kwargs):
        bounds.append(inspect.signature(real).bind(*args, **kwargs).arguments["bound"])
        return real(*args, **kwargs)

    monkeypatch.setattr(module, "symmetric_hausdorff", recording)
    return bounds


def radius_at(curve, theta):
    """f(theta) of a PolarCurve by the scalar evaluator, which raises
    EvalError where f is undefined or at a pole."""
    return evaluate(curve.radius, theta, curve.params)
