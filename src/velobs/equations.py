"""Equations written once, as source text, and compiled on first use.

An equation is a few lines of Python assignments on float names, kept beside
the class or module that owns it.  A name ending in a joint number is a
vector component: a line holding `{i}` is written out once per joint, and
`rename` gives a vector another name (w1, w2 -> v1, v2), so that one text can
be inlined wherever its equation is evaluated.  The text is compiled in
NAMESPACE, which supplies `cos`, `sin` and `hypot` (the `math` functions);
its code rebound to ARRAYS (`types.FunctionType(code, ARRAYS)`) evaluates on
float arrays, with no second compilation.  A body unpacks each argument
given a non-empty spec, read or not.  Only the package's own text is
compiled: nothing read from a scenario file or a CSV reaches `define`.
"""
from __future__ import annotations

import functools
import math
import re

import numpy as np

NAMESPACE = {"cos": math.cos, "sin": math.sin, "hypot": math.hypot}
# math.cos and math.sin entry by entry, so each entry is the float text's bit
# for bit: numpy's + - * / round as floats do, np.cos and np.sin need not.
ARRAYS = {"cos": np.vectorize(math.cos, otypes=[float]),
          "sin": np.vectorize(math.sin, otypes=[float])}


def joints(text: str, n: int) -> list[str]:
    """The lines of `text`, each line holding '{i}' written out for joints 1..n."""
    lines = []
    for line in text.strip().splitlines():
        line = line.strip()
        lines += [line.format(i=i) for i in range(1, n + 1)] if "{i}" in line else [line]
    return lines


def names(*spec: str, n: int) -> str:
    """The names of `spec` for n joints, each followed by ', ' (a tuple's
    body): names('q{i}', 'v{i}', n=2) is 'q1, q2, v1, v2, '."""
    return "".join(f"{name}, " for name in joints("\n".join(spec), n))


def rename(lines: list[str], **bases: str) -> list[str]:
    """`lines` with each name <base><j> (j a joint number or none) renamed to
    <bases[base]><j>."""
    if not bases:
        return lines
    pattern = re.compile(r"\b(%s)(\d*)\b" % "|".join(bases))
    return [pattern.sub(lambda m: bases[m[1]] + m[2], line) for line in lines]


def source(name: str, params: str, lines: list[str], result: str) -> list[str]:
    """The lines of `def name(params): lines; return result`."""
    return [f"def {name}({params}):", *(f"    {line}" for line in [*lines, f"return {result}"])]


def define(name: str, params: str, n: int, unpack: dict, lines: list[str], result: str):
    """Compile `def name(params)` in NAMESPACE and return the function.  Its
    body first unpacks each `value: spec` of `unpack` (`names(*spec, n=n) =
    value`) whose spec is not empty, read by the lines or not."""
    head = [f"{names(*spec, n=n)}= {value}" for value, spec in unpack.items() if spec]
    scope = dict(NAMESPACE)
    code = "\n".join(source(name, params, [*head, *lines], result))
    exec(compile(code, f"<{name}>", "exec"), scope)
    return scope[name]


class compiled:
    """A class attribute that `build(cls, n)` compiles from the class's
    equation text for n joints (the instance's n, else the class's) the
    first time it is read for that class and n."""

    def __init__(self, build):
        self.build = functools.cache(build)

    def __get__(self, obj, cls):
        return self.build(cls, cls.n if obj is None else obj.n).__get__(obj, cls)
