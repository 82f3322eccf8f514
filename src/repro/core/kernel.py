"""Elemental kernels — the "science source" of an OP-PIC application.

A :class:`Kernel` wraps a plain Python function written against *one*
element's data (each parameter is a small 1-D view).  The same function is

* executed per-element by the sequential reference backend, and
* parsed (``ast``) and translated into vectorised NumPy source by
  :mod:`repro.translator` for the high-performance backends —
  the Python analogue of OP-PIC's clang-based source-to-source translator.

Kernels may read global constants registered with
:func:`repro.core.api.decl_const` through the ``CONST`` namespace object.
"""
from __future__ import annotations

import ast
import inspect
import textwrap
from typing import Callable, Optional

__all__ = ["Kernel", "ConstRegistry", "CONST"]


class ConstRegistry:
    """Named simulation constants (``opp_decl_const``).

    Attribute access inside kernels (``CONST.dt``) works both element-wise
    and in generated vector code, since constants are scalars that broadcast.
    :attr:`version` counts the changes: every ``declare``, assignment,
    ``clear`` and ``restore`` moves it, so a launcher that built a table
    of values at one version may reuse it while the version stands.
    """

    def __init__(self):
        object.__setattr__(self, "_values", {})
        object.__setattr__(self, "version", 0)

    def _changed(self) -> None:
        object.__setattr__(self, "version", self.version + 1)

    def declare(self, name: str, value) -> None:
        self._values[name] = value
        self._changed()

    def __getattr__(self, name: str):
        try:
            return self._values[name]
        except KeyError:
            raise AttributeError(f"undeclared constant {name!r}; call "
                                 "decl_const first") from None

    def __setattr__(self, name: str, value) -> None:
        self._values[name] = value
        self._changed()

    def values(self, names) -> list:
        """Current values of several constants, in order (the native
        launcher's table, built again when :attr:`version` moved)."""
        try:
            return [self._values[name] for name in names]
        except KeyError as exc:
            raise AttributeError(f"undeclared constant {exc.args[0]!r}; "
                                 "call decl_const first") from None

    def clear(self) -> None:
        self._values.clear()
        self._changed()

    def snapshot(self) -> dict:
        return dict(self._values)

    def restore(self, snapshot: dict) -> None:
        """Make the registry hold exactly what :meth:`snapshot` returned."""
        self._values.clear()
        self._values.update(snapshot)
        self._changed()


#: Process-wide constant registry used by application kernels.
CONST = ConstRegistry()


class Kernel:
    """A named elemental kernel plus lazily-built translation artefacts."""

    def __init__(self, fn: Callable, name: Optional[str] = None):
        if not callable(fn):
            raise TypeError("kernel must wrap a callable")
        self.fn = fn
        self.name = name or fn.__name__
        self._signature = False   # lazily resolved; None = unresolvable
        self._arity_ok: set = set()  # argument counts already validated
        self._source: Optional[str] = None
        self._ir = None          # filled by translator.parser on demand
        self._generated = {}     # codegen target -> translation product
        self.flops_per_elem: Optional[float] = None  # set from IR op counts
        self._branches: Optional[float] = None       # likewise, see ir()

    @property
    def source(self) -> str:
        if self._source is None:
            try:
                self._source = textwrap.dedent(inspect.getsource(self.fn))
            except (OSError, TypeError) as exc:
                raise RuntimeError(
                    f"cannot retrieve source of kernel {self.name!r}; the "
                    "translator needs the function defined in a file") from exc
        return self._source

    @property
    def param_names(self):
        return list(inspect.signature(self.fn).parameters)

    def check_arity(self, n_args: int, loop_name: str = "") -> None:
        """Check the elemental function can bind ``n_args`` positional
        parameters (the declared loop arguments, plus the move context
        for move kernels).  A mismatched declaration is exactly the sort
        of descriptor drift the sanitizer exists to catch — failing at
        declaration names the loop instead of dying inside the backend.
        """
        if n_args in self._arity_ok:
            return
        if self._signature is False:
            try:
                self._signature = inspect.signature(self.fn)
            except (ValueError, TypeError):  # builtins / C callables
                self._signature = None
        sig = self._signature
        if sig is None:
            return
        try:
            sig.bind(*([None] * n_args))
        except TypeError:
            where = f" in loop {loop_name!r}" if loop_name else ""
            raise TypeError(
                f"kernel {self.name!r}{where} takes parameters "
                f"({', '.join(sig.parameters)}) but {n_args} argument(s) "
                "were declared") from None
        self._arity_ok.add(n_args)

    def ir(self):
        """Parse (once) and return the translator IR for this kernel."""
        if self._ir is None:
            from ..translator.parser import parse_kernel
            self._ir = parse_kernel(self)
            self.flops_per_elem = self._ir.flop_count
            full = sel = 0
            for stmt in self._ir.unrolled_body:
                for node in ast.walk(stmt):
                    full += isinstance(node, ast.If)
                    sel += isinstance(node, ast.IfExp)
            self._branches = full + 0.5 * sel
        return self._ir

    def branch_count(self) -> float:
        """Divergent-branch weight of the (unrolled) kernel body — feeds
        the GPU warp-divergence term of the performance model.  Full
        ``if`` statements count 1 (both paths execute under SIMT
        predication); conditional expressions count 0.5 (they lower to a
        select).  A static property of the source: counted once, when the
        IR is parsed (every ``par_loop`` records it)."""
        if self._branches is None:
            try:
                self.ir()
            except Exception:
                self._branches = 0.0    # outside the kernel language
        return self._branches

    def generated(self, target: str):
        """Return (building on demand) the translation product for a
        codegen target: ``"vec"`` the generated NumPy batch function,
        ``"c"`` the native target's record of this kernel (its C source
        and this process's compiled loops)."""
        if target not in self._generated:
            from ..translator.codegen import generate
            self._generated[target] = generate(self, target)
        return self._generated[target]

    def __call__(self, *args, **kwargs):
        return self.fn(*args, **kwargs)

    def __repr__(self) -> str:
        return f"<Kernel {self.name!r}>"


def as_kernel(fn_or_kernel) -> Kernel:
    """Coerce a plain function into a :class:`Kernel` (idempotent).

    The wrapper is cached on the function object, so repeated
    ``par_loop`` declarations of the same kernel reuse one set of
    translation artefacts (parse → IR → generated code) instead of
    re-translating on every call — the same build-once behaviour as
    OP-PIC's offline code generation.
    """
    if isinstance(fn_or_kernel, Kernel):
        return fn_or_kernel
    cached = getattr(fn_or_kernel, "__opp_kernel__", None)
    if isinstance(cached, Kernel) and cached.fn is fn_or_kernel:
        return cached
    kern = Kernel(fn_or_kernel)
    try:
        fn_or_kernel.__opp_kernel__ = kern
    except (AttributeError, TypeError):
        pass  # builtins / partials: no attribute slot, just re-wrap
    return kern
