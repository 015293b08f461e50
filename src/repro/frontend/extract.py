"""Target code identification: imperative code -> polynomials (Section 3.2).

"Traditional compiler techniques are used in representing the
arithmetic section of the critical functions as polynomials ...  This
can be accomplished by using code transformation techniques such as
loop unrolling, constant and variable propagation, code motion,
conditional expansion and model expansion."

We implement this as *symbolic execution* of a restricted Python
subset.  Executing the code with symbolic inputs performs the paper's
transformations by construction:

* ``for i in range(...)`` loops are executed iteration by iteration —
  **loop unrolling**;
* assignments bind names to symbolic values that flow forward —
  **constant and variable (copy) propagation**;
* arithmetic on symbols builds expression trees; pure computations are
  hoisted wherever their operands are — **code motion** falls out of
  dataflow;
* ``if`` on a *symbolic* 0/1 condition evaluates both arms and blends
  them as ``cond*then + (1-cond)*else`` — **conditional expansion**;
* calls to known nonlinear functions become :class:`Call` nodes, later
  replaced by Taylor/Chebyshev approximations — **model expansion**.

Supported subset: function defs with scalar/array parameters, (aug-)
assignments, tuple-free ``for _ in range(const...)``, constant or
symbolic ``if``, ``return`` of an expression/tuple/list, ``+ - * /
**`` arithmetic, indexing with compile-time-constant indices, and
calls to whitelisted math functions.  Everything else raises
:class:`~repro.errors.FrontendError` with a pointed message — target
code identification is meant for arithmetic kernels, not arbitrary
programs.
"""

from __future__ import annotations

import ast
import inspect
import textwrap
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Mapping, Sequence

from repro.digest import content_digest
from repro.errors import FrontendError
from repro.symalg.expression import (Add, Call, Const, Expression, Mul, Pow,
                                     Var, flatten)
from repro.symalg.polynomial import Polynomial

__all__ = ["SymbolicInput", "ArrayInput", "TargetBlock", "extract_block",
           "MATH_FUNCTIONS"]

#: Calls the frontend lowers to Call nodes (resolved by approximation later).
MATH_FUNCTIONS = ("exp", "log", "sin", "cos", "tan", "sqrt", "atan",
                  "log1p", "sinh", "cosh")


@dataclass(frozen=True)
class SymbolicInput:
    """A scalar input: bound to the symbolic variable ``name``."""

    name: str


@dataclass(frozen=True)
class ArrayInput:
    """An array input of known shape; elements become ``name_i[_j]``.

    ``values`` optionally pins elements to numeric constants (that is
    how cosine tables enter as constants instead of symbols).
    """

    name: str
    shape: tuple[int, ...]
    values: object | None = None  # nested sequence matching shape


@dataclass(frozen=True)
class TargetBlock:
    """The frontend's product: named output polynomials over input vars."""

    name: str
    outputs: dict[str, Polynomial]
    input_variables: tuple[str, ...]
    expressions: dict[str, Expression] = field(default_factory=dict)

    @cached_property
    def digest(self) -> str:
        """Content digest of name, output polynomials and input frame.

        Computed once; ``expressions`` is excluded (the mapper reads
        only the polynomials).
        """
        return content_digest("TargetBlock", self.name,
                              sorted(self.outputs.items()),
                              self.input_variables)

    def polynomial(self, output: str | None = None) -> Polynomial:
        """A single output's polynomial (default: the only one)."""
        if output is None:
            if len(self.outputs) != 1:
                raise FrontendError(
                    f"block {self.name} has {len(self.outputs)} outputs; name one")
            return next(iter(self.outputs.values()))
        return self.outputs[output]


class _Array:
    """A (possibly nested) array of symbolic values."""

    def __init__(self, items: list):
        self.items = items

    def get(self, index: int):
        if not isinstance(index, int):
            raise FrontendError(f"array index must fold to a constant, got {index!r}")
        if not 0 <= index < len(self.items):
            raise FrontendError(f"array index {index} out of range 0..{len(self.items) - 1}")
        return self.items[index]

    def set(self, index: int, value) -> None:
        self.get(index)  # bounds check
        self.items[index] = value


def _build_array(spec: ArrayInput) -> _Array:
    def build(prefix: str, shape: tuple[int, ...], values):
        if len(shape) == 1:
            items = []
            for i in range(shape[0]):
                if values is not None:
                    items.append(Const(Fraction(values[i])))
                else:
                    items.append(Var(f"{prefix}_{i}"))
            return _Array(items)
        return _Array([build(f"{prefix}_{i}", shape[1:],
                             values[i] if values is not None else None)
                       for i in range(shape[0])])
    return build(spec.name, spec.shape, spec.values)


class _Interpreter(ast.NodeVisitor):
    """Symbolically executes one function body."""

    def __init__(self, env: dict):
        self.env = env
        self.returned = None

    # -- statements ----------------------------------------------------
    def execute(self, statements: Sequence[ast.stmt]) -> None:
        for statement in statements:
            if self.returned is not None:
                raise FrontendError("unreachable code after return")
            self.visit(statement)

    def visit_Assign(self, node: ast.Assign) -> None:
        if len(node.targets) != 1:
            raise FrontendError("chained assignment is not supported")
        value = self.eval(node.value)
        self._assign(node.targets[0], value)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        current = self.eval(node.target)
        value = self.eval(node.value)
        combined = self._binop(type(node.op), current, value)
        self._assign(node.target, combined)

    def visit_For(self, node: ast.For) -> None:
        if node.orelse:
            raise FrontendError("for/else is not supported")
        bounds = self._range_bounds(node.iter)
        if not isinstance(node.target, ast.Name):
            raise FrontendError("loop target must be a simple name")
        for i in bounds:                       # loop unrolling
            self.env[node.target.id] = i
            self.execute(node.body)

    def visit_If(self, node: ast.If) -> None:
        condition = self.eval(node.test)
        if isinstance(condition, (int, bool, Fraction, float)):
            branch = node.body if condition else node.orelse
            self.execute(branch)
            return
        # Conditional expansion: both arms run on copies, results blend.
        then_env = dict(self.env)
        else_env = dict(self.env)
        _Interpreter(then_env).execute(node.body)
        if node.orelse:
            _Interpreter(else_env).execute(node.orelse)
        cond_expr = _as_expression(condition)
        for name in set(then_env) | set(else_env):
            a = then_env.get(name)
            b = else_env.get(name)
            if a is b:
                continue
            if a is None or b is None or isinstance(a, _Array) or isinstance(b, _Array):
                raise FrontendError(
                    f"conditional expansion needs {name!r} defined as a scalar in both arms")
            blended = (Mul((cond_expr, _as_expression(a)))
                       + Mul((Add((Const(Fraction(1)),
                                   Mul((Const(Fraction(-1)), cond_expr)))),
                              _as_expression(b))))
            self.env[name] = flatten(blended)

    def visit_Return(self, node: ast.Return) -> None:
        if node.value is None:
            raise FrontendError("return must carry a value")
        self.returned = self.eval(node.value)

    def visit_Expr(self, node: ast.Expr) -> None:
        raise FrontendError("bare expression statements have no effect; remove them")

    def visit_Pass(self, node: ast.Pass) -> None:  # noqa: D102
        return

    def generic_visit(self, node: ast.AST) -> None:
        raise FrontendError(
            f"unsupported construct {type(node).__name__} in target code")

    # -- helpers ---------------------------------------------------------
    def _assign(self, target: ast.expr, value) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = value
            return
        if isinstance(target, ast.Subscript):
            container = self.eval(target.value)
            if not isinstance(container, _Array):
                raise FrontendError("subscript assignment needs an array")
            index = self.eval(target.slice)
            index = _as_int(index)
            container.set(index, value)
            return
        if isinstance(target, ast.Tuple):
            raise FrontendError("tuple unpacking is not supported")
        raise FrontendError(f"cannot assign to {type(target).__name__}")

    def _range_bounds(self, node: ast.expr) -> range:
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "range"):
            raise FrontendError("for loops must iterate over range(...)")
        args = [_as_int(self.eval(a)) for a in node.args]
        if not 1 <= len(args) <= 3:
            raise FrontendError("range takes 1-3 arguments")
        return range(*args)

    # -- expressions -----------------------------------------------------
    def eval(self, node: ast.expr):
        if isinstance(node, ast.Constant):
            if isinstance(node.value, bool):
                return int(node.value)
            if isinstance(node.value, (int, float)):
                return Fraction(node.value) if isinstance(node.value, float) else node.value
            raise FrontendError(f"unsupported constant {node.value!r}")
        if isinstance(node, ast.Name):
            if node.id not in self.env:
                raise FrontendError(f"undefined name {node.id!r}")
            return self.env[node.id]
        if isinstance(node, ast.BinOp):
            left = self.eval(node.left)
            right = self.eval(node.right)
            return self._binop(type(node.op), left, right)
        if isinstance(node, ast.UnaryOp):
            value = self.eval(node.operand)
            if isinstance(node.op, ast.USub):
                if isinstance(value, (int, Fraction)):
                    return -value
                return flatten(Mul((Const(Fraction(-1)), _as_expression(value))))
            if isinstance(node.op, ast.UAdd):
                return value
            raise FrontendError("only unary +/- are supported")
        if isinstance(node, ast.Subscript):
            container = self.eval(node.value)
            if not isinstance(container, _Array):
                raise FrontendError("subscript of a non-array value")
            return container.get(_as_int(self.eval(node.slice)))
        if isinstance(node, ast.Call):
            return self._call(node)
        if isinstance(node, ast.Compare):
            return self._compare(node)
        if isinstance(node, (ast.Tuple, ast.List)):
            return _Array([self.eval(e) for e in node.elts])
        raise FrontendError(f"unsupported expression {type(node).__name__}")

    def _call(self, node: ast.Call):
        if not isinstance(node.func, ast.Name):
            raise FrontendError("only plain-name calls are supported")
        name = node.func.id
        if name == "range":
            raise FrontendError("range() only appears as a for-loop iterator")
        if name not in MATH_FUNCTIONS:
            raise FrontendError(
                f"call to unknown function {name!r}; supported: {MATH_FUNCTIONS}")
        args = [self.eval(a) for a in node.args]
        return Call(name, tuple(_as_expression(a) for a in args))

    def _compare(self, node: ast.Compare):
        if len(node.ops) != 1:
            raise FrontendError("chained comparisons are not supported")
        left = self.eval(node.left)
        right = self.eval(node.comparators[0])
        if isinstance(left, (int, Fraction)) and isinstance(right, (int, Fraction)):
            op = node.ops[0]
            table = {ast.Lt: left < right, ast.LtE: left <= right,
                     ast.Gt: left > right, ast.GtE: left >= right,
                     ast.Eq: left == right, ast.NotEq: left != right}
            if type(op) not in table:
                raise FrontendError("unsupported comparison operator")
            return int(table[type(op)])
        raise FrontendError(
            "comparisons must fold to constants; use a 0/1 variable for "
            "data-dependent conditions (conditional expansion)")

    def _binop(self, op_type, left, right):
        # List replication:  [0] * 36  builds an output buffer.
        if op_type is ast.Mult and isinstance(left, _Array) and isinstance(right, int):
            return _Array(list(left.items) * right)
        if op_type is ast.Mult and isinstance(right, _Array) and isinstance(left, int):
            return _Array(list(right.items) * left)
        numeric = isinstance(left, (int, Fraction)) and isinstance(right, (int, Fraction))
        if numeric:
            if op_type is ast.Add:
                return left + right
            if op_type is ast.Sub:
                return left - right
            if op_type is ast.Mult:
                return left * right
            if op_type is ast.Div:
                if right == 0:
                    raise FrontendError("division by zero in target code")
                return Fraction(left) / Fraction(right)
            if op_type is ast.Pow:
                if not isinstance(right, int) or right < 0:
                    raise FrontendError("exponents must be nonnegative integers")
                return left ** right
            if op_type is ast.FloorDiv:
                return left // right
            if op_type is ast.Mod:
                return left % right
            raise FrontendError(f"unsupported operator {op_type.__name__}")
        left_e = _as_expression(left)
        if op_type is ast.Add:
            return flatten(Add((left_e, _as_expression(right))))
        if op_type is ast.Sub:
            return flatten(Add((left_e, Mul((Const(Fraction(-1)),
                                             _as_expression(right))))))
        if op_type is ast.Mult:
            return flatten(Mul((left_e, _as_expression(right))))
        if op_type is ast.Div:
            if not isinstance(right, (int, Fraction)):
                folded = flatten(_as_expression(right))
                if not isinstance(folded, Const):
                    raise FrontendError("division by a non-constant is not polynomial")
                right = folded.value
            if right == 0:
                raise FrontendError("division by zero in target code")
            return flatten(Mul((left_e, Const(Fraction(1) / Fraction(right)))))
        if op_type is ast.Pow:
            if not isinstance(right, int) or right < 0:
                raise FrontendError("exponents must be nonnegative integers")
            return flatten(Pow(left_e, right))
        raise FrontendError(f"unsupported operator {op_type.__name__} on symbols")


def _as_expression(value) -> Expression:
    if isinstance(value, Expression):
        return value
    if isinstance(value, (int, Fraction)):
        return Const(Fraction(value))
    if isinstance(value, _Array):
        raise FrontendError("arrays cannot be used as scalar values")
    raise FrontendError(f"cannot use {value!r} symbolically")


def _as_int(value) -> int:
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction) and value.denominator == 1:
        return int(value)
    raise FrontendError(f"expected a compile-time integer, got {value!r}")


def _function_ast(source_or_callable) -> ast.FunctionDef:
    if callable(source_or_callable):
        try:
            source = inspect.getsource(source_or_callable)
        except (OSError, TypeError) as exc:
            raise FrontendError(
                f"cannot read source of {source_or_callable!r} (defined "
                "interactively?); pass the source text instead") from exc
    else:
        source = source_or_callable
    tree = ast.parse(textwrap.dedent(source))
    functions = [n for n in tree.body if isinstance(n, ast.FunctionDef)]
    if len(functions) != 1:
        raise FrontendError("expected exactly one function definition")
    return functions[0]


def extract_block(source_or_callable,
                  inputs: Sequence[SymbolicInput | ArrayInput],
                  approximations: Mapping[str, Polynomial] | None = None,
                  name: str | None = None) -> TargetBlock:
    """Symbolically execute a kernel and polynomialize its outputs.

    Parameters
    ----------
    source_or_callable:
        A Python function (or its source text) in the supported subset.
    inputs:
        One spec per function parameter, in order.
    approximations:
        Optional ``{function: polynomial in _arg}`` map for nonlinear
        calls (Section 3.2's Taylor/Chebyshev step).  Without an entry,
        a surviving Call makes polynomialization fail.

    Returns a :class:`TargetBlock` whose outputs are the function's
    returned values (``out0``, ``out1``, ... for tuples).

    >>> def poly(x):
    ...     acc = 0
    ...     for _ in range(2):
    ...         acc = acc * x + 1
    ...     return acc
    >>> block = extract_block(poly, [SymbolicInput("x")])
    >>> str(block.polynomial())
    'x + 1'
    """
    fn = _function_ast(source_or_callable)
    if len(fn.args.args) != len(inputs):
        raise FrontendError(
            f"{fn.name} has {len(fn.args.args)} parameters but {len(inputs)} specs given")
    env: dict = {}
    input_names: list[str] = []
    for arg, spec in zip(fn.args.args, inputs):
        if isinstance(spec, SymbolicInput):
            env[arg.arg] = Var(spec.name)
            input_names.append(spec.name)
        elif isinstance(spec, ArrayInput):
            array = _build_array(spec)
            env[arg.arg] = array
            input_names.extend(_leaf_names(array))
        else:
            raise FrontendError(f"bad input spec {spec!r}")

    interpreter = _Interpreter(env)
    interpreter.execute(fn.body)
    if interpreter.returned is None:
        raise FrontendError(f"{fn.name} never returns a value")

    returned = interpreter.returned
    raw_outputs = (returned.items if isinstance(returned, _Array) else [returned])
    expressions: dict[str, Expression] = {}
    outputs: dict[str, Polynomial] = {}
    for i, value in enumerate(raw_outputs):
        key = "out" if len(raw_outputs) == 1 else f"out{i}"
        expr = flatten(_as_expression(value))
        expressions[key] = expr
        outputs[key] = expr.to_polynomial(approximations)
    return TargetBlock(
        name=name or fn.name,
        outputs=outputs,
        input_variables=tuple(n for n in input_names),
        expressions=expressions,
    )


def _leaf_names(array: _Array) -> list[str]:
    names: list[str] = []
    for item in array.items:
        if isinstance(item, _Array):
            names.extend(_leaf_names(item))
        elif isinstance(item, Var):
            names.append(item.name)
    return names
