"""Vectorising code generator: KernelIR → executable NumPy source.

This is the Python analogue of OP-PIC's Jinja2-template code generation:
from the single elemental kernel declaration we emit a *different program*
— a batch function over ``(n, dim)`` arrays in which

* parameter component accesses ``p[i]`` become strided column accesses
  ``p[:, i]``;
* ``if``/``elif``/``else`` control flow becomes predication (boolean masks
  and ``np.where``), the same transformation a SIMT compiler applies —
  which is also why kernel divergence costs what it does on a GPU;
* move-control calls become masked writes into per-lane status /
  next-cell arrays consumed by the frontier move driver;
* scalar math calls are rebound to their NumPy ufuncs.

Kernels outside the translatable subset degrade to a generated
elemental-loop wrapper (still runs everywhere, just not vectorised).

The generated source is kept on the returned :class:`GeneratedKernel` so
tests and curious users can inspect exactly what was produced.
"""
from __future__ import annotations

import ast
from typing import Dict, List, Optional

import numpy as np

from ..core.kernel import CONST
from .ir import KernelIR
from .parser import KernelLanguageError, parse_kernel

__all__ = ["GeneratedKernel", "generate", "VecMoveContext"]

_CALL_MAP = {
    "sqrt": "np.sqrt", "exp": "np.exp", "log": "np.log", "sin": "np.sin",
    "cos": "np.cos", "tan": "np.tan", "floor": "np.floor",
    "ceil": "np.ceil", "abs": "np.abs", "fabs": "np.abs",
    "minimum": "np.minimum", "maximum": "np.maximum",
    "int": "_to_int", "float": "_to_float",
}

_BINOPS = {
    ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/",
    ast.Mod: "%", ast.Pow: "**", ast.FloorDiv: "//",
}
_CMPOPS = {
    ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=",
    ast.Eq: "==", ast.NotEq: "!=",
}


def _const_index(node: ast.expr):
    """Compile-time-constant component index, or None if lane-varying."""
    try:
        value = ast.literal_eval(node)
    except (ValueError, TypeError, SyntaxError):
        return None
    return value if isinstance(value, int) else None


def _written_params(ir: KernelIR) -> set:
    """Parameter names that receive stores anywhere in the kernel body."""
    import ast as _ast
    out = set()
    module = _ast.Module(body=ir.unrolled_body, type_ignores=[])
    for node in _ast.walk(module):
        targets = []
        if isinstance(node, _ast.Assign):
            targets = node.targets
        elif isinstance(node, (_ast.AugAssign, _ast.AnnAssign)):
            targets = [node.target]
        for t in targets:
            if isinstance(t, _ast.Subscript) and \
                    isinstance(t.value, _ast.Name) and \
                    t.value.id in ir.params:
                out.add(t.value.id)
    return out


def _take(a, i):
    """Per-lane component gather: a[lane, i[lane]] (used by generated code
    when a subscript's index varies across lanes)."""
    import numpy as _np
    i = _np.asarray(i)
    if i.ndim == 0:
        return a[:, int(i)]
    return a[_np.arange(a.shape[0]), i.astype(_np.int64)]


class VecMoveContext:
    """Per-frontier-round lane state for generated move kernels."""

    __slots__ = ("status", "next_cell", "c2c", "cell", "hop")

    def __init__(self, cells: np.ndarray, c2c_rows: np.ndarray, hop: int):
        n = cells.shape[0]
        from ..core.types import MoveStatus
        self.status = np.full(n, int(MoveStatus.MOVE_DONE), dtype=np.int64)
        self.next_cell = np.full(n, -1, dtype=np.int64)
        self.c2c = c2c_rows
        self.cell = cells
        self.hop = hop


class GeneratedKernel:
    """A compiled translation product."""

    def __init__(self, fn, source: str, vectorized: bool, is_move: bool):
        self.fn = fn
        self.source = source
        self.vectorized = vectorized
        self.is_move = is_move

    def __call__(self, *args):
        return self.fn(*args)

    def __repr__(self) -> str:
        mode = "vectorized" if self.vectorized else "elemental-loop"
        return f"<GeneratedKernel {self.fn.__name__} ({mode})>"


#: the codegen targets :func:`generate` knows
TARGETS = ("vec", "c")


def generate(kernel, target: str = "vec"):
    """Translate ``kernel`` for ``target``.

    ``"vec"`` is the NumPy target: a :class:`GeneratedKernel` over
    ``(n, dim)`` batch arrays (any kernel outside the subset yields an
    elemental-loop fallback).  ``"c"`` is the native target's per-kernel
    record, :class:`repro.translator.cgen.CKernel`; its loop functions
    are generated per call site.
    """
    if target == "c":
        from .cgen import CKernel
        return CKernel(kernel)
    if target != "vec":
        raise ValueError(f"unknown codegen target {target!r}; known "
                         f"targets: {TARGETS}")
    try:
        ir = kernel.ir()
        src = _emit(ir)
        return _compile(kernel, ir, src, vectorized=True)
    except (KernelLanguageError, RuntimeError, SyntaxError):
        # outside the kernel language, or source unavailable (REPL-defined)
        return _fallback(kernel)


def _fallback(kernel) -> GeneratedKernel:
    """Generated elemental-loop wrapper for untranslatable kernels.

    The wrapper receives the same batched arrays as a vector kernel and
    loops rows, so drivers never need to care which flavour they got.
    """
    elemental = kernel.fn
    import inspect
    params = list(inspect.signature(elemental).parameters)
    is_move = bool(params) and params[0] == "move"

    def looped(*arrays):
        n = None
        for a in arrays:
            if isinstance(a, np.ndarray) and a.ndim == 2:
                n = a.shape[0]
                break
        if n is None:
            raise RuntimeError("fallback kernel could not infer batch size")
        for i in range(n):
            elemental(*[a[i] if isinstance(a, np.ndarray) and a.ndim == 2
                        else a for a in arrays])

    looped.__name__ = kernel.name + "__looped"
    return GeneratedKernel(looped, "# elemental-loop fallback", False, is_move)


# -- emission ---------------------------------------------------------------------


class _Emitter:
    def __init__(self, ir: KernelIR):
        self.ir = ir
        self.params = set(ir.params)
        self.defined: set = set()
        self.lines: List[str] = []
        self.tmp = 0
        #: parameters that are stored to anywhere in the kernel — a local
        #: assigned a bare column of such a parameter must copy, because
        #: in vector form the column is a *view* that later stores would
        #: mutate (elemental scalars copy by value)
        self.written_params = _written_params(ir)

    def fresh(self, prefix: str) -> str:
        self.tmp += 1
        return f"_{prefix}{self.tmp}"

    def out(self, line: str, indent: int = 1) -> None:
        self.lines.append("    " * indent + line)

    # ---- expressions

    def expr(self, node: ast.expr) -> str:
        if isinstance(node, ast.Constant):
            return repr(node.value)
        if isinstance(node, ast.Name):
            return node.id
        if isinstance(node, ast.Subscript):
            return self._subscript(node)
        if isinstance(node, ast.Attribute):
            return f"{self.expr(node.value)}.{node.attr}"
        if isinstance(node, ast.BinOp):
            op = _BINOPS[type(node.op)]
            return f"({self.expr(node.left)} {op} {self.expr(node.right)})"
        if isinstance(node, ast.UnaryOp):
            if isinstance(node.op, ast.USub):
                return f"(-{self.expr(node.operand)})"
            if isinstance(node.op, ast.UAdd):
                return f"(+{self.expr(node.operand)})"
            if isinstance(node.op, ast.Not):
                return f"np.logical_not({self.expr(node.operand)})"
            raise KernelLanguageError("unsupported unary operator")
        if isinstance(node, ast.BoolOp):
            joiner = " & " if isinstance(node.op, ast.And) else " | "
            return "(" + joiner.join(f"({self.expr(v)})"
                                     for v in node.values) + ")"
        if isinstance(node, ast.Compare):
            parts = []
            left = node.left
            for op, right in zip(node.ops, node.comparators):
                sym = _CMPOPS.get(type(op))
                if sym is None:
                    raise KernelLanguageError("unsupported comparison")
                parts.append(f"({self.expr(left)} {sym} {self.expr(right)})")
                left = right
            return "(" + " & ".join(parts) + ")"
        if isinstance(node, ast.IfExp):
            return (f"np.where({self.expr(node.test)}, "
                    f"{self.expr(node.body)}, {self.expr(node.orelse)})")
        if isinstance(node, ast.Call):
            return self._call(node)
        raise KernelLanguageError(
            f"expression {type(node).__name__} is outside the kernel "
            "language")

    def _subscript(self, node: ast.Subscript, store: bool = False) -> str:
        base = node.value
        idx = self.expr(node.slice)
        static = _const_index(node.slice)
        is_param = isinstance(base, ast.Name) and base.id in self.params
        is_c2c = (isinstance(base, ast.Attribute)
                  and isinstance(base.value, ast.Name)
                  and base.value.id == "move" and base.attr == "c2c")
        if is_param or is_c2c:
            ref = base.id if is_param else "move.c2c"
            if static is not None:
                return f"{ref}[:, {static}]"
            if store:
                raise KernelLanguageError(
                    "stores through a lane-varying component index are not "
                    "translatable; restructure with if/else")
            # lane-varying component selection becomes a per-lane gather
            return f"_take({ref}, {idx})"
        return f"{self.expr(base)}[{idx}]"

    def _call(self, node: ast.Call) -> str:
        f = node.func
        args = [self.expr(a) for a in node.args]
        name = None
        if isinstance(f, ast.Name):
            name = f.id
        elif isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name):
            if f.value.id in ("math", "np", "numpy"):
                name = f.attr
            elif f.value.id == "move":
                raise KernelLanguageError(
                    "move.* calls are statements, not expressions")
        if name in ("min", "max"):
            fn = "np.minimum" if name == "min" else "np.maximum"
            out = args[0]
            for a in args[1:]:
                out = f"{fn}({out}, {a})"
            return out
        mapped = _CALL_MAP.get(name)
        if mapped is None:
            raise KernelLanguageError(f"cannot translate call to {name!r}")
        return f"{mapped}({', '.join(args)})"

    # ---- statements

    def stmt(self, node: ast.stmt, mask: Optional[str]) -> None:
        if isinstance(node, ast.Assign):
            if len(node.targets) != 1:
                raise KernelLanguageError("chained assignment unsupported")
            self._assign(node.targets[0], self.expr(node.value), mask,
                         value_node=node.value)
        elif isinstance(node, ast.AnnAssign):
            if node.value is not None:
                self._assign(node.target, self.expr(node.value), mask,
                             value_node=node.value)
        elif isinstance(node, ast.AugAssign):
            op = _BINOPS.get(type(node.op))
            if op is None:
                raise KernelLanguageError("unsupported augmented assignment")
            tgt = self._target_ref(node.target)
            val = self.expr(node.value)
            if mask is None:
                self.out(f"{tgt} = {tgt} {op} ({val})")
            else:
                self.out(f"{tgt} = np.where({mask}, {tgt} {op} ({val}), "
                         f"{tgt})")
        elif isinstance(node, ast.If):
            cond = self.fresh("m")
            self.out(f"{cond} = np.broadcast_to(np.asarray("
                     f"{self.expr(node.test)}), _n_shape).copy()")
            then_mask = cond if mask is None else self.fresh("m")
            if mask is not None:
                self.out(f"{then_mask} = {mask} & {cond}")
            for s in node.body:
                self.stmt(s, then_mask)
            if node.orelse:
                else_mask = self.fresh("m")
                if mask is None:
                    self.out(f"{else_mask} = ~{cond}")
                else:
                    self.out(f"{else_mask} = {mask} & ~{cond}")
                for s in node.orelse:
                    self.stmt(s, else_mask)
        elif isinstance(node, ast.Expr):
            if isinstance(node.value, ast.Constant):
                return  # docstring
            self._move_call(node.value, mask)
        elif isinstance(node, ast.Pass):
            pass
        else:
            raise KernelLanguageError(
                f"statement {type(node).__name__} is outside the kernel "
                "language")

    def _target_ref(self, t: ast.expr) -> str:
        if isinstance(t, ast.Name):
            return t.id
        if isinstance(t, ast.Subscript):
            return self._subscript(t, store=True)
        raise KernelLanguageError("unsupported assignment target")

    def _aliases_written_param(self, value: ast.expr) -> bool:
        return (isinstance(value, ast.Subscript)
                and isinstance(value.value, ast.Name)
                and value.value.id in self.written_params)

    def _assign(self, target: ast.expr, value_src: str,
                mask: Optional[str], value_node: Optional[ast.expr] = None,
                ) -> None:
        if (isinstance(target, ast.Name) and mask is None
                and value_node is not None
                and self._aliases_written_param(value_node)):
            value_src = f"np.array({value_src})"   # break the view alias
        if isinstance(target, ast.Name):
            if mask is None:
                self.out(f"{target.id} = {value_src}")
            elif target.id in self.defined:
                self.out(f"{target.id} = np.where({mask}, {value_src}, "
                         f"{target.id})")
            else:
                self.out(f"{target.id} = np.where({mask}, {value_src}, 0)")
            self.defined.add(target.id)
        else:
            ref = self._target_ref(target)
            if mask is None:
                self.out(f"{ref} = {value_src}")
            else:
                self.out(f"{ref} = np.where({mask}, {value_src}, {ref})")

    def _move_call(self, call: ast.expr, mask: Optional[str]) -> None:
        assert isinstance(call, ast.Call) and isinstance(call.func,
                                                         ast.Attribute)
        method = call.func.attr
        if method == "done":
            if mask is None:
                self.out("move.status[:] = 0")
            else:
                self.out(f"move.status = np.where({mask}, 0, move.status)")
        elif method == "remove":
            if mask is None:
                self.out("move.status[:] = 2")
            else:
                self.out(f"move.status = np.where({mask}, 2, move.status)")
        elif method == "move_to":
            dest = self.fresh("mt")
            self.out(f"{dest} = _to_int({self.expr(call.args[0])})")
            neg = self.fresh("rm")
            self.out(f"{neg} = {dest} < 0")
            if mask is None:
                self.out(f"move.status = np.where({neg}, 2, 1)")
                self.out(f"move.next_cell = np.where({neg}, move.next_cell, "
                         f"{dest})")
            else:
                self.out(f"move.status = np.where({mask} & {neg}, 2, "
                         f"move.status)")
                self.out(f"move.status = np.where({mask} & ~{neg}, 1, "
                         f"move.status)")
                self.out(f"move.next_cell = np.where({mask} & ~{neg}, "
                         f"{dest}, move.next_cell)")
        else:  # pragma: no cover - parser already rejects
            raise KernelLanguageError(f"unknown move method {method!r}")


def _emit(ir: KernelIR) -> str:
    em = _Emitter(ir)
    params = ", ".join(ir.params)
    header = f"def {ir.name}__vec({params}):"
    # batch length: first 2-D data parameter, or the move context
    if ir.is_move:
        em.out("_n_shape = move.cell.shape")
    elif ir.data_params:
        em.out(f"_n_shape = ({ir.data_params[0]}.shape[0],)")
    else:
        raise KernelLanguageError("kernel has no data parameters")
    for stmt in ir.unrolled_body:
        em.stmt(stmt, None)
    if not em.lines:
        em.out("pass")
    return header + "\n" + "\n".join(em.lines) + "\n"


def _compile(kernel, ir: KernelIR, src: str,
             vectorized: bool) -> GeneratedKernel:
    ns: Dict[str, object] = {
        "np": np,
        "CONST": CONST,
        "_take": _take,
        "_to_int": lambda x: np.asarray(x).astype(np.int64),
        "_to_float": lambda x: np.asarray(x).astype(np.float64),
    }
    fn_globals = getattr(kernel.fn, "__globals__", {})
    closure_names = {}
    if kernel.fn.__closure__:
        closure_names = dict(zip(kernel.fn.__code__.co_freevars,
                                 (c.cell_contents
                                  for c in kernel.fn.__closure__)))
    for name in ir.free_names:
        if name in ns:
            continue
        if name in closure_names:
            ns[name] = closure_names[name]
        elif name in fn_globals:
            ns[name] = fn_globals[name]
        else:
            raise KernelLanguageError(
                f"kernel {ir.name!r} reads unresolvable name {name!r}")
    code = compile(src, f"<generated:{ir.name}>", "exec")
    exec(code, ns)  # noqa: S102 - generated from our own emitter
    fn = ns[f"{ir.name}__vec"]
    return GeneratedKernel(fn, src, vectorized, ir.is_move)
