"""Kernel parser: language acceptance, rejection, unrolling, FLOP counts,
free-name analysis."""
import pytest

from repro.core.kernel import CONST, Kernel
from repro.translator.parser import KernelLanguageError, parse_kernel

GAIN = 2.5  # module constant read by a kernel below


def simple_kernel(a, b):
    b[0] = a[0] + a[1]


def docstring_kernel(a):
    """Docstrings are fine."""
    a[0] = 1.0


def unroll_kernel(a, b):
    for i in range(3):
        b[i] = 2.0 * a[i]


def nested_unroll_kernel(a, b):
    for i in range(2):
        for j in range(2):
            b[0] += a[0] * i * j


def const_kernel(a):
    a[0] = a[0] * CONST.gain


def free_name_kernel(a):
    a[0] = a[0] * GAIN


def branch_kernel(a):
    if a[0] > 0:
        a[1] = 1.0
    else:
        a[1] = -1.0


def move_kernel_ok(move, p):
    if p[0] > 0:
        move.move_to(move.c2c[0])
    else:
        move.done()


def test_simple_parse():
    ir = parse_kernel(Kernel(simple_kernel))
    assert ir.params == ["a", "b"]
    assert not ir.is_move
    assert ir.flop_count == 1.0


def test_docstring_allowed():
    parse_kernel(Kernel(docstring_kernel))


def test_unrolling_multiplies_flops():
    ir = parse_kernel(Kernel(unroll_kernel))
    assert ir.flop_count == 3.0  # one mult per unrolled trip


def test_nested_unroll():
    ir = parse_kernel(Kernel(nested_unroll_kernel))
    # 4 iterations × (add in += counts 1, two mults count 2)
    assert ir.flop_count == 12.0


def test_const_not_a_free_name():
    ir = parse_kernel(Kernel(const_kernel))
    assert ir.free_names == ["CONST"]


def test_module_free_name_detected():
    ir = parse_kernel(Kernel(free_name_kernel))
    assert "GAIN" in ir.free_names


def test_branches_accepted():
    parse_kernel(Kernel(branch_kernel))


def select_kernel(a):
    a[1] = 1.0 if a[0] > 0 else -1.0


def test_branch_count_is_counted_once_with_the_ir(monkeypatch):
    """Every par_loop records the divergence weight; it is a static
    property of the source, so repeated calls must not re-walk the AST —
    for untranslatable kernels (weight 0) neither."""
    import repro.translator.parser as parser
    parses = []
    real = parser.parse_kernel
    monkeypatch.setattr(parser, "parse_kernel",
                        lambda k: parses.append(k.name) or real(k))
    full, sel, bad = (Kernel(branch_kernel), Kernel(select_kernel),
                      Kernel(while_kernel))
    for _ in range(3):
        assert full.branch_count() == 1.0
        assert sel.branch_count() == 0.5
        assert bad.branch_count() == 0.0
    assert sorted(parses) == ["branch_kernel", "select_kernel",
                              "while_kernel"]
    assert full.flops_per_elem is not None


def test_move_kernel_detected():
    ir = parse_kernel(Kernel(move_kernel_ok))
    assert ir.is_move
    assert ir.data_params == ["p"]


# -- rejections -----------------------------------------------------------------


def while_kernel(a):
    while a[0] > 0:
        a[0] -= 1.0


def call_kernel(a):
    a[0] = print(a[0])


def return_value_kernel(a):
    return a[0]


def early_return_kernel(a):
    if a[0] > 0:
        return
    a[0] = 1.0


def variable_range_kernel(a, b):
    for i in range(int(a[0])):
        b[0] += 1.0


def comprehension_kernel(a):
    a[0] = sum([x for x in (1, 2)])


def move_call_without_move_param(a):
    a[0] = 1.0
    move.done()  # noqa: F821


def rebind_param_kernel(a):
    a = 1.0  # noqa: F841


@pytest.mark.parametrize("bad", [
    while_kernel, call_kernel, return_value_kernel, early_return_kernel,
    variable_range_kernel, comprehension_kernel, rebind_param_kernel,
])
def test_rejected_constructs(bad):
    with pytest.raises(KernelLanguageError):
        parse_kernel(Kernel(bad))


def test_huge_unroll_rejected():
    def big(a):
        for i in range(1000):
            a[0] += 1.0
    # defined nested: source retrieval works through inspect
    with pytest.raises(KernelLanguageError):
        parse_kernel(Kernel(big))


def test_keyword_params_rejected():
    def kw(a, *, b):
        a[0] = 1.0
    with pytest.raises(KernelLanguageError):
        parse_kernel(Kernel(kw))
