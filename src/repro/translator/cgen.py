"""C code generator: one elemental kernel + one loop's descriptors → the
C function that *is* that loop.

This is the paper's per-target host stub (§3.4): for every call site the
translator emits a loop-specific function — argument addressing unrolled
per descriptor, the elemental kernel inlined as scalar code with real
``if``s, every access mode committed in place — where the NumPy target
(:mod:`repro.translator.codegen`) emits only the kernel and leaves the
loop to an interpreter.  The generated function executes elements in
iteration order directly on the dats, so it is the ``seq`` backend's
algorithm compiled and its contract is bit-equality with that oracle.

Operators keep Python's meaning, not C's: ``min``/``max`` are
left-to-right comparison chains, ``%`` and ``//`` follow the sign of the
divisor, ``int()`` truncates, ``/`` is true division; ``sqrt``/``exp``/…
are the libm functions ``math.*`` calls.  ``CONST.x`` is read from a
``const double*`` table filled at launch (never baked into the source, so
one shared object serves every configuration); module-level numeric
names become literals.  Anything else raises
:class:`~repro.translator.parser.KernelLanguageError`: that loop stays on
the NumPy target.

:mod:`repro.translator.native` compiles, caches and launches the result.
"""
from __future__ import annotations

import ast
import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.args import slot
from ..core.kernel import CONST
from .parser import KernelLanguageError

__all__ = ["CKernel", "signature", "emit_par_loop", "emit_move",
           "ENTRY", "DTYPES"]

#: symbol every generated translation unit exports
ENTRY = "opp_loop"

#: dat element types the target addresses, by ``dtype.char``
DTYPES = {"d": "double", np.dtype(np.int64).char: "int64_t"}

_PRELUDE = r"""#include <math.h>
#include <stdint.h>
#include <stdlib.h>

/* Python's operators, not C's */
static inline double min_d(double a, double b) { return b < a ? b : a; }
static inline double max_d(double a, double b) { return b > a ? b : a; }
static inline int64_t min_i(int64_t a, int64_t b) { return b < a ? b : a; }
static inline int64_t max_i(int64_t a, int64_t b) { return b > a ? b : a; }
static inline double npmin_d(double a, double b)
{ return (a <= b || a != a) ? a : b; }
static inline double npmax_d(double a, double b)
{ return (a >= b || a != a) ? a : b; }
static inline double mod_d(double a, double b)
{
    double m = fmod(a, b);
    if (b == 0.0) return m;
    if (m != 0.0) { if ((b < 0) != (m < 0)) m += b; }
    else m = copysign(0.0, b);
    return m;
}
static inline double floordiv_d(double a, double b)
{
    if (b == 0.0) return a / b;
    double m = fmod(a, b), d = (a - m) / b;
    if (m != 0.0 && (b < 0) != (m < 0)) d -= 1.0;
    if (d == 0.0) return copysign(0.0, a / b);
    double f = floor(d);
    return d - f > 0.5 ? f + 1.0 : f;
}
static inline int64_t mod_i(int64_t a, int64_t b)
{
    if (b == 0) return 0;
    int64_t m = a % b;
    return (m != 0 && (m < 0) != (b < 0)) ? m + b : m;
}
static inline int64_t floordiv_i(int64_t a, int64_t b)
{
    if (b == 0) return 0;
    int64_t q = a / b;
    return (a % b != 0 && (a < 0) != (b < 0)) ? q - 1 : q;
}
static inline int64_t pow_i(int64_t a, int64_t n)
{
    int64_t r = 1;
    for (; n > 0; n >>= 1, a *= a) if (n & 1) r *= a;
    return r;
}

/* NumPy row indexing: negative rows address from the end */
#define ROW(r, n, at) do { if ((r) < 0) (r) += (n); \
    if ((uint64_t)(r) >= (uint64_t)(n)) \
    { err = 1; bad = (at); goto done; } } while (0)
"""

# -- descriptor signatures -------------------------------------------------------

#: signature entry: (kind, access, dim, dtype char, dat slot, map slot,
#: map arity, map index, p2c slot); slots index the loop's distinct arrays
SigEntry = Tuple[str, str, int, str, int, int, int, Optional[int], int]


def signature(args: Sequence, objs: list) -> Tuple[SigEntry, ...]:
    """Descriptor signature of an argument list: everything the generated
    loop depends on, and nothing a launch may change (sizes, addresses).
    It is read from the descriptors' :attr:`~repro.core.args.Arg.key`,
    so it carries what the call site's shape was keyed on.

    ``objs`` collects the distinct ``Dat``/``Global``/``Map`` objects the
    arguments address, in first-use order; the loop function takes one
    ``(pointer, rows)`` pair per entry, so a dat passed four times (the
    four nodes of a deposit) is one parameter.
    """
    sig = []
    for a in args:
        kind, access, dim, char, arity, idx = a.key
        m, p = a.map, a.p2c
        sig.append((kind, access, dim, char, slot(objs, a.dat),
                    -1 if m is None else slot(objs, m), arity, idx,
                    -1 if p is None else slot(objs, p)))
    return tuple(sig)


# -- the elemental kernel as scalar C --------------------------------------------

_RANK = {"b": 0, "i": 1, "d": 2}        # bool < int64 < double
_CTYPE = {"b": "int64_t", "i": "int64_t", "d": "double"}
_ARITH = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*"}
_CMP = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=",
        ast.Eq: "==", ast.NotEq: "!="}
_LIBM = ("sqrt", "exp", "log", "sin", "cos", "tan")


def _join(*types: str) -> str:
    return max(types, key=_RANK.__getitem__)


def _literal(value, hexfloat: bool = False) -> Tuple[str, str]:
    if isinstance(value, (bool, np.bool_)):
        return ("1" if value else "0"), "b"
    if isinstance(value, (int, np.integer)):
        if not -2**63 <= int(value) < 2**63:
            raise KernelLanguageError(f"integer {value} exceeds int64")
        return f"{int(value)}LL", "i"
    if isinstance(value, (float, np.floating)):
        value = float(value)
        if math.isnan(value):
            return "NAN", "d"
        if math.isinf(value):
            return ("INFINITY" if value > 0 else "(-INFINITY)"), "d"
        text = value.hex() if hexfloat else repr(value)
        return (f"({text})" if text.startswith("-") else text), "d"
    raise KernelLanguageError(
        f"value {value!r} has no C literal (numeric scalars only)")


def _kernel_scope(fn) -> Dict[str, object]:
    scope = dict(getattr(fn, "__globals__", {}))
    if getattr(fn, "__closure__", None):
        scope.update(zip(fn.__code__.co_freevars,
                         (c.cell_contents for c in fn.__closure__)))
    return scope


class _Body:
    """Translates one kernel's unrolled body to C statements.

    ``ptypes`` maps each data parameter to ``'d'`` or ``'i'`` (its dat's
    dtype); ``consts`` is the loop's shared ``CONST`` name table.  Locals
    are typed ``int64_t`` or ``double`` by inference over every
    assignment, so that an index such as ``worst`` can subscript
    ``move.c2c``; user names get a trailing ``_`` and never meet C's.
    """

    def __init__(self, kernel, ptypes: Dict[str, str],
                 dims: Dict[str, Optional[int]], consts: Sequence[str],
                 c2c_arity: Optional[int] = 0):
        self.ir = kernel.ir()
        self.scope = _kernel_scope(kernel.fn)
        self.ptypes = ptypes
        self.dims = dims
        self.consts = list(consts)
        self.c2c_arity = c2c_arity
        self.locals: Dict[str, str] = {}
        for stmt in self.ir.unrolled_body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and \
                        isinstance(node.ctx, ast.Store):
                    self.locals[node.id] = "b"
        self.lines: List[str] = []

    def emit(self, indent: int) -> List[str]:
        """The kernel as a C block (declarations, then statements)."""
        while True:                 # type locals to a fixed point
            before = dict(self.locals)
            self.lines = []
            for stmt in self.ir.unrolled_body:
                self.stmt(stmt, indent + 1)
            if self.locals == before:
                break
        pad = "    " * indent
        decl = [f"{pad}    {_CTYPE[t]} {name}_ = 0;"
                for name, t in self.locals.items()]
        return [pad + "{"] + decl + self.lines + [pad + "}"]

    def out(self, line: str, indent: int) -> None:
        self.lines.append("    " * indent + line)

    # ---- expressions: (C source, type)

    def ex(self, node: ast.expr) -> Tuple[str, str]:
        if isinstance(node, ast.Constant):
            return _literal(node.value)
        if isinstance(node, ast.Name):
            if node.id in self.locals:
                return node.id + "_", self.locals[node.id]
            if node.id in self.ptypes or node.id == "move":
                raise KernelLanguageError(
                    f"parameter {node.id!r} is only usable through its "
                    "components")
            if node.id not in self.scope:
                raise KernelLanguageError(
                    f"kernel {self.ir.name!r} reads unresolvable name "
                    f"{node.id!r}")
            return _literal(self.scope[node.id], hexfloat=True)
        if isinstance(node, ast.Subscript):
            return self.element(node)
        if isinstance(node, ast.Attribute):
            return self.attribute(node)
        if isinstance(node, ast.BinOp):
            return self.binop(node.op, *self.ex(node.left),
                              *self.ex(node.right), node.right)
        if isinstance(node, ast.UnaryOp):
            if isinstance(node.op, ast.Not):
                return f"(!{self.test(node.operand)})", "b"
            code, t = self.ex(node.operand)
            if isinstance(node.op, (ast.USub, ast.UAdd)):
                sign = "-" if isinstance(node.op, ast.USub) else "+"
                return f"({sign}{code})", _join(t, "i")
            raise KernelLanguageError("unsupported unary operator")
        if isinstance(node, ast.BoolOp):
            parts = [self.ex(v) for v in node.values]
            if all(t == "b" for _, t in parts):
                return self.test(node), "b"
            # `a and b` is b when a is true, else a (`or` mirrored)
            code, t = parts[0]
            for nxt, nt in parts[1:]:
                code = (f"({code} ? {nxt} : {code})"
                        if isinstance(node.op, ast.And)
                        else f"({code} ? {code} : {nxt})")
                t = _join(t, nt)
            return code, t
        if isinstance(node, ast.Compare):
            parts, left = [], node.left
            for op, right in zip(node.ops, node.comparators):
                sym = _CMP.get(type(op))
                if sym is None:
                    raise KernelLanguageError("unsupported comparison")
                parts.append(f"({self.ex(left)[0]} {sym} "
                             f"{self.ex(right)[0]})")
                left = right
            return "(" + " && ".join(parts) + ")", "b"
        if isinstance(node, ast.IfExp):
            a, at = self.ex(node.body)
            b, bt = self.ex(node.orelse)
            return f"({self.test(node.test)} ? {a} : {b})", _join(at, bt)
        if isinstance(node, ast.Call):
            return self.call(node)
        raise KernelLanguageError(
            f"expression {type(node).__name__} is outside the kernel "
            "language")

    def test(self, node: ast.expr) -> str:
        """``node`` where only its truth matters (C's ``&&`` / ``||``
        short-circuit like Python's and accept doubles)."""
        if isinstance(node, ast.BoolOp):
            joiner = " && " if isinstance(node.op, ast.And) else " || "
            return "(" + joiner.join(self.test(v) for v in node.values) + ")"
        return self.ex(node)[0]

    def binop(self, op, l: str, lt: str, r: str, rt: str,
              right: Optional[ast.expr] = None) -> Tuple[str, str]:
        t = _join(lt, rt, "i")
        if type(op) in _ARITH:
            return f"({l} {_ARITH[type(op)]} {r})", t
        if isinstance(op, ast.Div):
            return (f"({l} / {r})" if t == "d"
                    else f"((double){l} / {r})"), "d"
        if isinstance(op, (ast.Mod, ast.FloorDiv)):
            fn = "mod" if isinstance(op, ast.Mod) else "floordiv"
            return f"{fn}_{t}({l}, {r})", t
        if isinstance(op, ast.Pow):
            if t == "d":
                return f"pow({l}, {r})", "d"
            if isinstance(right, ast.Constant) and right.value >= 0:
                return f"pow_i({l}, {r})", "i"
            raise KernelLanguageError(
                "integer ** integer needs a non-negative literal exponent "
                "(its result type depends on the sign)")
        raise KernelLanguageError("unsupported binary operator")

    def _index(self, node: ast.expr, extent: Optional[int],
               what: str) -> str:
        try:
            static = ast.literal_eval(node)
        except (ValueError, TypeError, SyntaxError):
            static = None
        if isinstance(static, int):
            if extent is None:          # unknown: the for-reading source
                return str(static)
            if not -extent <= static < extent:
                raise KernelLanguageError(
                    f"component {static} of {what} is out of range "
                    f"(dim {extent})")
            return str(static % extent)
        code, t = self.ex(node)
        if t == "d":
            raise KernelLanguageError(
                f"{what} is indexed by a float expression")
        return code

    def element(self, node: ast.Subscript) -> Tuple[str, str]:
        base = node.value
        if isinstance(base, ast.Name) and base.id in self.ptypes:
            idx = self._index(node.slice, self.dims[base.id], base.id)
            return f"{base.id}_[{idx}]", self.ptypes[base.id]
        if (isinstance(base, ast.Attribute) and base.attr == "c2c"
                and isinstance(base.value, ast.Name)
                and base.value.id == "move" and self.ir.is_move):
            idx = self._index(node.slice, self.c2c_arity, "move.c2c")
            return f"c2c_row[{idx}]", "i"
        raise KernelLanguageError(
            "only parameters and move.c2c can be subscripted")

    def attribute(self, node: ast.Attribute) -> Tuple[str, str]:
        base = node.value
        if isinstance(base, ast.Name):
            if (base.id == "CONST"
                    and self.scope.get("CONST", CONST) is CONST):
                return f"K[{self.consts.index(node.attr)}]", "d"
            if base.id == "move" and self.ir.is_move \
                    and node.attr in ("cell", "hop"):
                return node.attr, "i"
        raise KernelLanguageError(
            f"attribute .{node.attr} is outside the kernel language")

    def call(self, node: ast.Call) -> Tuple[str, str]:
        f = node.func
        name, numpy_flavour = None, False
        if isinstance(f, ast.Name):
            name = f.id
            target = self.scope.get(name)
            numpy_flavour = (getattr(type(target), "__module__", "")
                             .startswith("numpy"))
        elif isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name) \
                and f.value.id in ("math", "np", "numpy"):
            name = f.attr
            numpy_flavour = f.value.id != "math"
        if node.keywords:
            raise KernelLanguageError(f"keyword arguments in {name}()")
        args = [self.ex(a) for a in node.args]
        codes = [c for c, _ in args]
        t = _join("i", *(t for _, t in args)) if args else "i"
        if name in ("min", "max", "minimum", "maximum") and len(args) >= 2:
            if name in ("minimum", "maximum") and t == "d":
                if len(args) != 2:
                    raise KernelLanguageError(f"np.{name} takes two values")
                return f"np{name[:3]}_d({codes[0]}, {codes[1]})", "d"
            out = codes[0]
            for c in codes[1:]:
                out = f"{name[:3]}_{t}({out}, {c})"
            return out, t
        if len(args) == 1:
            x = codes[0]
            if name == "abs":
                return (f"fabs({x})", "d") if t == "d" \
                    else (f"llabs({x})", "i")
            if name == "fabs":
                return f"fabs({x})", "d"
            if name in _LIBM:
                return f"{name}({x})", "d"
            if name in ("floor", "ceil"):
                if numpy_flavour:       # np.floor returns a float
                    return f"{name}({x})", "d"
                return (f"(int64_t){name}({x})" if t == "d" else x), "i"
            if name == "int":
                return (f"(int64_t)({x})" if t == "d" else x), "i"
            if name == "float":
                return f"(double)({x})", "d"
        raise KernelLanguageError(f"cannot translate call to {name!r}")

    # ---- statements

    def stmt(self, node: ast.stmt, indent: int) -> None:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            if isinstance(node, ast.Assign):
                if len(node.targets) != 1:
                    raise KernelLanguageError(
                        "chained assignment unsupported")
                target = node.targets[0]
            else:
                target = node.target
                if node.value is None:
                    return
            self.store(target, *self.ex(node.value), indent)
        elif isinstance(node, ast.AugAssign):
            target = node.target
            if isinstance(target, ast.Name):
                current = (target.id + "_", self.locals[target.id])
            else:
                current = self.element(target)
            self.store(target, *self.binop(node.op, *current,
                                           *self.ex(node.value), node.value),
                       indent)
        elif isinstance(node, ast.If):
            self.out(f"if ({self.test(node.test)}) {{", indent)
            for s in node.body:
                self.stmt(s, indent + 1)
            if node.orelse:
                self.out("} else {", indent)
                for s in node.orelse:
                    self.stmt(s, indent + 1)
            self.out("}", indent)
        elif isinstance(node, ast.Expr):
            if not isinstance(node.value, ast.Constant):    # docstring
                self.move_call(node.value, indent)
        elif not isinstance(node, ast.Pass):
            raise KernelLanguageError(
                f"statement {type(node).__name__} is outside the kernel "
                "language")

    def store(self, target: ast.expr, code: str, t: str, indent: int) -> None:
        if isinstance(target, ast.Name):
            self.locals[target.id] = _join(self.locals[target.id], t)
            self.out(f"{target.id}_ = {code};", indent)
        elif isinstance(target, ast.Subscript):
            ref, rt = self.element(target)
            cast = "(int64_t)" if rt == "i" and t == "d" else ""
            self.out(f"{ref} = {cast}{code};", indent)
        else:
            raise KernelLanguageError("unsupported assignment target")

    def move_call(self, call: ast.expr, indent: int) -> None:
        method = call.func.attr
        if method == "done":
            self.out("status = 0;", indent)
        elif method == "remove":
            self.out("status = 2;", indent)
        elif method == "move_to" and len(call.args) == 1:
            code, t = self.ex(call.args[0])
            self.out(f"{{ {_CTYPE[t]} to = {code}; if (to < 0) status = 2; "
                     "else { status = 1; next_cell = (int64_t)to; } }",
                     indent)
        else:
            raise KernelLanguageError(f"unknown move method {method!r}")


# -- per-kernel facts the build cache keys on --------------------------------------


class CKernel:
    """``Kernel.generated("c")``: what the C target knows about one
    kernel without emitting anything — the ``CONST`` names it reads (the
    launch-time table's layout) and the numeric module-level names that
    become literals (part of the shared object's key).  ``launchers``
    memoises this process's bound loop functions per descriptor
    signature; :attr:`reason` says why the kernel cannot use the target
    at all.
    """

    def __init__(self, kernel):
        self.kernel = kernel
        self.launchers: Dict[tuple, object] = {}
        self.reason: Optional[str] = None
        self.consts: Tuple[str, ...] = ()
        self.literals: Tuple[Tuple[str, str], ...] = ()
        try:
            ir = kernel.ir()
        except (KernelLanguageError, RuntimeError, SyntaxError) as exc:
            self.reason = f"kernel {kernel.name!r} does not translate: {exc}"
            return
        scope = _kernel_scope(kernel.fn)
        consts = set()
        for stmt in ir.unrolled_body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Attribute) \
                        and isinstance(node.value, ast.Name) \
                        and node.value.id == "CONST":
                    consts.add(node.attr)
        self.consts = tuple(sorted(consts))
        self.literals = tuple(
            (name, repr(scope[name])) for name in ir.free_names
            if isinstance(scope.get(name), (int, float, np.number, np.bool_)))

    @property
    def source(self) -> str:
        """The elemental kernel as scalar C with every parameter a
        ``double`` row — for reading; the function a loop runs is
        generated per descriptor signature (dtypes, dims, c2c arity)."""
        ir = self.kernel.ir()
        params = ir.data_params
        body = _Body(self.kernel, dict.fromkeys(params, "d"),
                     dict.fromkeys(params), self.consts, c2c_arity=None)
        head = ", ".join(f"double *{p}_" for p in params)
        return "\n".join([f"/* {ir.name}({head}) */"] + body.emit(0)) + "\n"


# -- the loop around the kernel -------------------------------------------------------


class _Loop:
    """Shared pieces of the two loop emitters: the unpacking of the
    packed argument block into the loop's array slots, per-argument
    addressing and the collision counters.

    The block ``a`` holds ``head`` launch words, then ``(address, rows)``
    per slot.  An increment through a mapping counts its target rows: a
    per-row counter per argument, except that a doubly-indirect one
    counts its particle's cell once per iteration (one counter per cell,
    shared by every such argument), expanded through each argument's map
    when the loop has run.
    """

    def __init__(self, nslots: int, head: int):
        self.slot_type = ["int64_t"] * nslots    # maps; dats overwrite
        self.head = head
        self.hits: List[Tuple[str, int]] = []    # (counter, dat slot)
        self.loaded: set = set()                 # cells read from p2c
        #: cell expression -> (its cell counter, the cell count)
        self.cells: Dict[str, Tuple[str, str]] = {}
        #: per doubly-indirect increment: (cell counter, cell count,
        #: dat slot, mesh slot, map arity, map index)
        self.spread: List[Tuple[str, str, int, int, int, int]] = []

    def bind(self, kernel, sig: Sequence[SigEntry], consts: Sequence[str],
             c2c_arity: int = 0) -> _Body:
        ir = kernel.ir()
        if len(ir.data_params) != len(sig):
            raise KernelLanguageError(
                f"kernel {ir.name!r} takes {len(ir.data_params)} data "
                f"parameters, {len(sig)} were declared")
        ptypes, dims = {}, {}
        for name, (_k, _a, dim, dtype, sd, *_rest) in zip(ir.data_params,
                                                          sig):
            ptypes[name] = "d" if dtype == "d" else "i"
            dims[name] = dim
            self.slot_type[sd] = DTYPES[dtype]
        return _Body(kernel, ptypes, dims, consts, c2c_arity)

    def unpack(self) -> List[str]:
        """Each slot's pointer and row count, read from the block."""
        lines = []
        for k, t in enumerate(self.slot_type):
            at = self.head + 2 * k
            lines.append(f"{t} *s{k} = ({t} *)(intptr_t)a[{at}]; "
                         f"const int64_t n{k} = a[{at + 1}];")
        return lines

    def address(self, tag: str, name: str, entry: SigEntry, it: str,
                cell: Optional[str], cell_rows: str = "") -> List[str]:
        """C lines binding kernel parameter ``name`` for iteration
        ``it``.  ``cell`` overrides the particle-to-cell lookup inside a
        move, where the hop's cell differs from the stored one (and is
        below ``cell_rows``)."""
        kind, access, dim, dtype, sd, sm, arity, midx, sp = entry
        ctype = DTYPES[dtype]
        row = f"r{tag}"
        if kind == "global":
            return [f"{ctype} *{name}_ = s{sd};"]
        if kind == "direct":
            return [f"{ctype} *{name}_ = s{sd} + {it} * {dim};"]
        lines = []
        if kind == "double" and cell is None:
            cell, cell_rows = f"c{sp}", f"n{sm}"
            if cell not in self.loaded:     # one load per particle map
                self.loaded.add(cell)
                lines += [f"int64_t {cell} = s{sp}[{it}];",
                          f"ROW({cell}, n{sm}, {it});"]
        if kind == "p2c":
            lines.append(f"int64_t {row} = {cell or f's{sp}[{it}]'};")
        else:
            lines.append(f"int64_t {row} = "
                         f"s{sm}[{cell or it} * {arity} + {midx}];")
        lines += [f"ROW({row}, n{sd}, {it});",
                  f"{ctype} *{name}_ = s{sd} + {row} * {dim};"]
        if kind == "double" and access == "inc":
            counter = self.cells.setdefault(
                cell, (f"hc{len(self.cells)}", cell_rows))[0]
            self.spread.append((counter, cell_rows, sd, sm, arity, midx))
        elif access == "inc":
            self.hits.append((f"h{tag}", sd))
            lines.append(f"if (h{tag}) h{tag}[{row}]++;")
        return lines

    def counted(self) -> List[str]:
        """The cell count of one iteration whose rows were all in range."""
        return [f"if ({counter}) {counter}[{cell}]++;"
                for cell, (counter, _rows) in self.cells.items()]

    def _counters(self) -> List[Tuple[str, str]]:
        return ([(h, f"n{sd}") for h, sd in self.hits]
                + list(self.cells.values()))

    def hits_alloc(self) -> List[str]:
        return [f"int64_t *{h} = calloc({rows} > 0 ? {rows} : 1, "
                f"sizeof(int64_t));" for h, rows in self._counters()]

    def hits_drain(self) -> List[str]:
        """Deepest collision into ``coll``, unless the loop stopped at an
        out-of-range row (it raises then), and every counter freed."""
        lines = ["if (!err) {"]
        lines += [f"    if ({h}) for (int64_t j = 0; j < n{sd}; j++) "
                  f"if ({h}[j] > coll) coll = {h}[j];"
                  for h, sd in self.hits]
        for counter, rows, sd, sm, arity, midx in self.spread:
            lines += [
                f"    if ({counter}) {{",
                f"        int64_t *h = calloc(n{sd} > 0 ? n{sd} : 1, "
                "sizeof(int64_t));",
                "        if (h) {",
                f"            for (int64_t c = 0; c < {rows}; c++) "
                f"if ({counter}[c]) {{",
                f"                int64_t r = s{sm}[c * {arity} + {midx}];",
                f"                if (r < 0) r += n{sd};",
                f"                h[r] += {counter}[c];",
                "            }",
                f"            for (int64_t j = 0; j < n{sd}; j++) "
                "if (h[j] > coll) coll = h[j];",
                "            free(h);",
                "        }",
                "    }"]
        lines.append("}")
        return lines + [f"free({h});" for h, _rows in self._counters()]


def _indent(lines: Sequence[str], by: int) -> List[str]:
    return ["    " * by + line for line in lines]


def emit_par_loop(kernel, sig: Sequence[SigEntry], nslots: int) -> str:
    """C source of ``opp_par_loop`` for one call site: ``int64_t
    opp_loop(a, K, out)`` with the block ``a`` = ``start, end``, then
    ``(address, rows)`` per slot; returns 0, or 1 after an out-of-range
    row (``out[1]`` names the iteration); ``out[0]`` is the deepest
    indirect-INC collision."""
    loop = _Loop(nslots, 2)
    body = loop.bind(kernel, sig, kernel.generated("c").consts)
    bound: List[str] = []
    for k, (name, entry) in enumerate(zip(body.ir.data_params, sig)):
        bound += loop.address(str(k), name, entry, "i", None)
    bound += loop.counted()
    return "\n".join(
        [_PRELUDE,
         f"/* par_loop of kernel {body.ir.name} */",
         f"int64_t {ENTRY}(const int64_t *a, const double *K, int64_t *out)",
         "{",
         "    const int64_t start = a[0], end = a[1];"]
        + _indent(loop.unpack(), 1)
        + ["    int64_t err = 0, bad = -1, coll = 0;"]
        + _indent(loop.hits_alloc(), 1)
        + ["    for (int64_t i = start; i < end; i++) {"]
        + _indent(bound, 2) + body.emit(2)
        + ["    }", "done:"] + _indent(loop.hits_drain(), 1)
        + ["    out[0] = coll; out[1] = bad;", "    return err;", "}", ""])


def emit_move(kernel, sig: Sequence[SigEntry], nslots: int, c2c_arity: int,
              foreign: bool) -> str:
    """C source of ``opp_particle_move`` for one call site, the walk
    innermost: each particle hops until done / removed / foreign cell /
    ``max_hops``.  Slot 0 is the particle-to-cell map, slot 1 the
    cell-to-cell map.

    The block ``a`` = particle count, address of the index list (0: all
    particles), ``max_hops``, address of the foreign-cell mask, then
    ``(address, rows)`` per slot, then the addresses of the removed,
    foreign-particle and foreign-cell lists.  ``out`` = removed count,
    foreign count, total hops, collision depth (over the whole walk),
    particles over ``max_hops``, offending particle; the return value is
    1 after an out-of-range row or cell.
    """
    if any(entry[0] == "indirect" for entry in sig):
        raise KernelLanguageError(
            "move kernels address data directly, via the current cell, or "
            "doubly-indirectly")
    loop = _Loop(nslots, 4)
    body = loop.bind(kernel, sig, kernel.generated("c").consts, c2c_arity)
    if not body.ir.is_move:
        raise KernelLanguageError(
            f"kernel {body.ir.name!r} has no move-context parameter")
    hop: List[str] = []
    for k, (name, entry) in enumerate(zip(body.ir.data_params, sig)):
        hop += loop.address(str(k), name, entry, "p", "cell", "n1")
    hop += loop.counted() + body.emit(0)
    walk = (
        (["if (foreign[cell]) { fpart[nf] = p; fcell[nf++] = cell; "
          "s0[p] = cell; break; }"] if foreign else [])
        + ["int64_t status = 0, next_cell = -1;",
           f"const int64_t *c2c_row = s1 + cell * {c2c_arity};"]
        + hop
        + ["hop++; hops++;",
           "if (status == 0) { s0[p] = cell; break; }",
           "if (status == 2) { removed[nr++] = p; s0[p] = -1; break; }",
           "cell = next_cell;",
           "if ((uint64_t)cell >= (uint64_t)n1) "
           "{ err = 1; bad = p; goto done; }",
           "if (hop >= max_hops) { over++; break; }"])
    lists = 4 + 2 * nslots
    return "\n".join(
        [_PRELUDE,
         f"/* particle_move of kernel {body.ir.name} */",
         f"int64_t {ENTRY}(const int64_t *a, const double *K, int64_t *out)",
         "{",
         "    const int64_t count = a[0], max_hops = a[2];",
         "    const int64_t *index = (const int64_t *)(intptr_t)a[1];"]
        + (["    const uint8_t *foreign = (const uint8_t *)(intptr_t)a[3];"]
           if foreign else [])
        + _indent(loop.unpack(), 1)
        + [f"    int64_t *removed = (int64_t *)(intptr_t)a[{lists}];",
           f"    int64_t *fpart = (int64_t *)(intptr_t)a[{lists + 1}];",
           f"    int64_t *fcell = (int64_t *)(intptr_t)a[{lists + 2}];",
           "    int64_t err = 0, bad = -1, coll = 0, nr = 0, nf = 0, "
           "hops = 0, over = 0;"]
        + _indent(loop.hits_alloc(), 1)
        + ["    for (int64_t k = 0; k < count; k++) {",
           "        int64_t p = index ? index[k] : k;",
           "        if ((uint64_t)p >= (uint64_t)n0) "
           "{ err = 1; bad = p; goto done; }",
           "        int64_t cell = s0[p], hop = 0;",
           "        if (cell < 0) continue;",
           "        if (cell >= n1) { err = 1; bad = p; goto done; }",
           "        for (;;) {"]
        + _indent(walk, 3)
        + ["        }", "    }", "done:"] + _indent(loop.hits_drain(), 1)
        + ["    out[0] = nr; out[1] = nf; out[2] = hops; out[3] = coll;",
           "    out[4] = over; out[5] = bad;",
           "    return err;", "}", ""])
