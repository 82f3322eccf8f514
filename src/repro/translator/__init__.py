"""Source-to-source translator: elemental kernels → vectorised NumPy code
(:mod:`.codegen`) or whole loops in C (:mod:`.cgen`, built and launched
by :mod:`.native`)."""
from .codegen import GeneratedKernel, VecMoveContext, generate
from .ir import KernelIR, count_flops
from .parser import KernelLanguageError, parse_kernel

__all__ = ["GeneratedKernel", "VecMoveContext", "generate", "KernelIR",
           "count_flops", "KernelLanguageError", "parse_kernel"]
