"""Translator fuzzing: randomly generated kernels in the restricted
language must behave identically elementally and on both codegen targets
— the NumPy batch function within rounding, the compiled C loop bit for
bit.

This is the strongest guarantee the DSL can offer — whatever science
source a user writes (inside the subset), the generated parallel program
computes the same thing.
"""
import textwrap

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.api import (OPP_ITERATE_ALL, OPP_READ, OPP_RW, Context,
                            arg_dat, decl_dat, decl_set, par_loop,
                            push_context)
from repro.core.kernel import Kernel
from repro.translator.codegen import generate

_NAMES = ["a[0]", "a[1]", "a[2]", "b[0]", "b[1]", "t", "u"]
_BINOPS = ["+", "-", "*"]
_CALLS = ["sqrt(abs({}))", "abs({})", "min({}, {})", "max({}, {})",
          "exp(-abs({}))"]


@st.composite
def expressions(draw, locals_=(), depth=0):
    """A random arithmetic expression over params/locals/constants.

    ``locals_`` lists the local names already defined at this point, so
    generated kernels never read an unbound variable."""
    hi = 5 if depth < 3 else 2
    choice = draw(st.integers(0, hi))
    if choice == 0:
        return draw(st.sampled_from(_NAMES[:5]))
    if choice == 1:
        return repr(draw(st.floats(-3, 3, allow_nan=False,
                                   allow_infinity=False)))
    if choice == 2:
        if not locals_:
            return draw(st.sampled_from(_NAMES[:5]))
        return draw(st.sampled_from(list(locals_)))
    if choice == 3:
        left = draw(expressions(locals_, depth + 1))
        right = draw(expressions(locals_, depth + 1))
        op = draw(st.sampled_from(_BINOPS))
        return f"({left} {op} {right})"
    if choice == 4:
        inner = draw(expressions(locals_, depth + 1))
        call = draw(st.sampled_from(_CALLS))
        if call.count("{}") == 2:
            other = draw(expressions(locals_, depth + 1))
            return call.format(inner, other)
        return call.format(inner)
    # guarded division
    num = draw(expressions(locals_, depth + 1))
    den = draw(expressions(locals_, depth + 1))
    return f"({num} / (abs({den}) + 1.0))"


@st.composite
def kernels(draw):
    """A random kernel body: local defs, optional branch, param stores."""
    lines = [f"t = {draw(expressions())}",
             f"u = {draw(expressions(('t',)))}"]
    avail = ("t", "u")
    if draw(st.booleans()):
        cond = (f"{draw(expressions(avail))} > {draw(expressions(avail))}")
        then_store = f"b[{draw(st.integers(0, 1))}] = " \
            f"{draw(expressions(avail))}"
        else_store = f"b[{draw(st.integers(0, 1))}] = " \
            f"{draw(expressions(avail))}"
        lines += [f"if {cond}:", f"    {then_store}",
                  "else:", f"    {else_store}"]
    lines.append(f"b[{draw(st.integers(0, 1))}] = "
                 f"{draw(expressions(avail))}")
    if draw(st.booleans()):
        lines.append(f"b[0] += {draw(expressions(avail))}")
    body = textwrap.indent("\n".join(lines), "    ")
    return f"def fuzz_kernel(a, b):\n{body}\n"


@settings(max_examples=60, deadline=None)
@given(src=kernels(), seed=st.integers(0, 2**16), n=st.integers(1, 40))
def test_random_kernels_agree(scratch_native_cache, src, seed, n):
    ns = {}
    from math import exp, sqrt  # noqa: F401 - elemental execution names
    ns["sqrt"] = sqrt
    ns["exp"] = exp
    exec(compile(src, "<fuzz>", "exec"), ns)
    fn = ns["fuzz_kernel"]

    kernel = Kernel(fn)
    kernel._source = src           # source is synthetic, not on disk
    gen = generate(kernel)
    assert gen.vectorized, f"fuzzed kernel fell back:\n{src}"

    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, 3))
    b = rng.normal(size=(n, 2))
    a_el, b_el = a.copy(), b.copy()
    for i in range(n):
        fn(a_el[i], b_el[i])
    a_vec, b_vec = a.copy(), b.copy()
    gen.fn(a_vec, b_vec)

    np.testing.assert_allclose(b_vec, b_el, rtol=1e-10, atol=1e-10,
                               err_msg=src)
    np.testing.assert_array_equal(a_vec, a_el)   # inputs untouched

    # the C column: the same kernel, compiled as a loop.  Every example
    # is a fresh translation unit (≈ 55 ms of cc), so a third of them —
    # picked by a drawn value, which shrinking drives to 0 and keeps in
    if scratch_native_cache and seed % 3 == 0:
        ctx = Context("vec")
        with push_context(ctx):
            rows = decl_set(n)
            a_c = decl_dat(rows, 3, np.float64, a)
            b_c = decl_dat(rows, 2, np.float64, b)
            par_loop(kernel, "fuzz", rows, OPP_ITERATE_ALL,
                     arg_dat(a_c, OPP_READ), arg_dat(b_c, OPP_RW))
        assert "fallback" not in ctx.perf.get("fuzz").extras, src
        np.testing.assert_array_equal(b_c.data, b_el, err_msg=src)
        np.testing.assert_array_equal(a_c.data, a_el)
