"""Correctness references the code under test did not produce.

* :func:`table5_elements` — the paper's Table 5 IPP elements, read from
  the transcribed ``benchmarks/paper_data.py``;
* :func:`kernel_sources` — each block's kernel source and input specs,
  captured at the build function's call into the frontend (the call is
  intercepted, so nothing is extracted);
* :func:`run_kernel_python` — CPython executing that source directly
  on float inputs: the reference for the verifier's float64 kernel;
* :func:`sympy_outputs` — the same source executed over a sympy
  polynomial ring: the block's polynomials re-derived without
  ``repro.frontend``/``repro.symalg``;
* :func:`instantiated_rows` / :func:`max_row_distance` — a winner's
  element rows pushed through its binding, compared term by term.
"""

from __future__ import annotations

import importlib.util
import inspect
import textwrap
from pathlib import Path

__all__ = [
    "table5_elements",
    "kernel_sources",
    "run_kernel_python",
    "sympy_outputs",
    "instantiated_rows",
    "max_row_distance",
]


def table5_elements(root: Path) -> dict:
    """``{block: element}`` for the MP3 blocks the paper maps to IPP in
    Table 5 (full library on the SA-1110)."""
    spec = importlib.util.spec_from_file_location(
        "paper_data", root / "benchmarks" / "paper_data.py")
    paper = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(paper)
    rows = list(paper.TABLE5)
    return {
        "inv_mdctL": next(r for r in rows if "MDCTInv" in r),
        "SubBandSynthesis": next(r for r in rows if "SynthPQMF" in r),
    }


class _Captured(Exception):
    """Carries the intercepted frontend call out of a block's build
    function."""


def _capture(source, inputs, approximations=None, name=None):
    raise _Captured(source, tuple(inputs), approximations)


def kernel_sources(workload) -> dict:
    """``{block: (source text, input specs)}`` for a ``Workload``.

    Each declared build function runs with its module's ``extract_block``
    replaced by a recorder that raises before any extraction, so the
    captured arguments are exactly what the frontend would receive.
    """
    out = {}
    for spec in workload.block_specs():
        namespace = spec.builder.__globals__
        real = namespace["extract_block"]
        namespace["extract_block"] = _capture
        try:
            spec.builder()
        except _Captured as captured:
            source, inputs, approximations = captured.args
        else:
            raise RuntimeError(f"{spec.name!r} was built without calling "
                               "extract_block")
        finally:
            namespace["extract_block"] = real
        if approximations:
            raise RuntimeError(f"{spec.name!r} needs approximations; the "
                               "direct-execution reference cannot run it")
        if callable(source):
            source = textwrap.dedent(inspect.getsource(source))
        out[spec.name] = (source, inputs)
    return out


def _function(source: str):
    namespace: dict = {}
    exec(compile(source, "<kernel source>", "exec"), namespace)
    functions = [v for k, v in namespace.items()
                 if inspect.isfunction(v) and k != "__builtins__"]
    if len(functions) != 1:
        raise RuntimeError("kernel source must define exactly one function")
    return functions[0]


def _arguments(inputs, leaf, constant):
    """Positional arguments for the kernel: array elements named the
    way the frontend names them (``x_3``, ``m_2_5``), pinned values as
    constants."""
    def build(prefix, shape, values):
        if len(shape) == 1:
            return [constant(values[i]) if values is not None
                    else leaf(f"{prefix}_{i}") for i in range(shape[0])]
        return [build(f"{prefix}_{i}", shape[1:],
                      values[i] if values is not None else None)
                for i in range(shape[0])]

    args = []
    for spec in inputs:
        if hasattr(spec, "shape"):
            args.append(build(spec.name, tuple(spec.shape), spec.values))
        else:
            args.append(leaf(spec.name))
    return args


def _named(returned) -> dict:
    items = list(returned) if isinstance(returned, (list, tuple)) \
        else [returned]
    if len(items) == 1:
        return {"out": items[0]}
    return {f"out{i}": value for i, value in enumerate(items)}


def run_kernel_python(source: str, inputs, env: dict) -> dict:
    """CPython runs the kernel on floats; ``env`` maps input variable
    names to values (names the block does not read default to 0.0)."""
    fn = _function(source)
    args = _arguments(inputs, lambda name: float(env.get(name, 0.0)), float)
    return {k: float(v) for k, v in _named(fn(*args)).items()}


def _leaf_names(inputs) -> list:
    names: list = []
    _arguments(inputs, lambda name: names.append(name) or 0.0, float)
    return names


def sympy_outputs(source: str, inputs) -> dict:
    """``{output: {monomial: coefficient}}`` from executing the kernel
    over a sympy polynomial ring with float (RR) coefficients.  A
    monomial is a ``frozenset`` of ``(variable, exponent)`` pairs."""
    from sympy.polys.domains import RR
    from sympy.polys.rings import ring

    names = _leaf_names(inputs)
    ring_, *gens = ring(",".join(names), RR)
    by_name = dict(zip(names, gens))
    fn = _function(source)
    args = _arguments(inputs, by_name.__getitem__, float)
    out = {}
    for key, value in _named(fn(*args)).items():
        poly = ring_(value)
        out[key] = {
            frozenset((names[i], e) for i, e in enumerate(monom) if e):
                float(coeff)
            for monom, coeff in poly.terms()
        }
    return out


def instantiated_rows(match) -> list:
    """A ``BlockMatch``'s element rows with formals renamed through the
    binding, as ``{monomial: coefficient}`` dicts (row order)."""
    binding = dict(match.binding)
    rows = []
    for poly in match.element.polynomials:
        row: dict = {}
        for powers, coeff in poly.iter_terms():
            exps: dict = {}
            for formal, e in powers.items():
                actual = binding.get(formal, formal)
                exps[actual] = exps.get(actual, 0) + e
            monomial = frozenset(exps.items())
            row[monomial] = row.get(monomial, 0.0) + float(coeff)
        rows.append(row)
    return rows


def max_row_distance(rows: list, outputs: dict) -> float:
    """Largest absolute coefficient difference between element rows
    and reference outputs, paired in output order (``out0``, ``out1``
    ...; a single output is ``out``)."""
    keys = sorted(outputs, key=lambda k: int(k[3:]) if k[3:] else 0)
    if len(keys) != len(rows):
        return float("inf")
    worst = 0.0
    for row, key in zip(rows, keys):
        ref = outputs[key]
        for monomial in set(row) | set(ref):
            worst = max(worst, abs(row.get(monomial, 0.0)
                                   - ref.get(monomial, 0.0)))
    return worst
