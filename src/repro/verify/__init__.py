"""Verification subsystem: descriptor sanitizer + conformance harness.

Two independent correctness nets over the DSL (see ``docs/testing.md``):

* :mod:`repro.verify.sanitize` — the access-descriptor race sanitizer: a
  shadow-execution backend (``backend="sanitizer"``) plus static race
  analysis, catching mis-declared ``OPP_READ``/``WRITE``/``INC``/``RW``
  descriptors before they silently corrupt parallel backends;
* :mod:`repro.verify.conformance` — the differential conformance
  harness: seeded random loop/move programs executed on every backend
  against the sequential oracle, with greedy case shrinking;
* :mod:`repro.verify.dist_conformance` — the distributed-op mode of the
  harness: the same seeded-program idea partitioned over 2–3 ranks
  (halo pushes/reductions, migration, the DH global move) and compared
  against the 1-rank oracle, over either rank transport.
"""
from .sanitize import (DescriptorViolationError, RecordingView,
                       SanitizerBackend, Violation, install_static_checker,
                       static_violations, uninstall_static_checker)
from .conformance import (Case, ConformanceFailure, compare_states,
                          generate_case, run_case, run_conformance,
                          shrink_case)
from .dist_conformance import (DistCase, DistConformanceFailure,
                               generate_dist_case, run_dist_case,
                               run_dist_conformance, shrink_dist_case)

__all__ = [
    "SanitizerBackend", "Violation", "DescriptorViolationError",
    "RecordingView", "static_violations", "install_static_checker",
    "uninstall_static_checker",
    "Case", "ConformanceFailure", "generate_case", "run_case",
    "compare_states", "shrink_case", "run_conformance",
    "DistCase", "DistConformanceFailure", "generate_dist_case",
    "run_dist_case", "shrink_dist_case", "run_dist_conformance",
]
