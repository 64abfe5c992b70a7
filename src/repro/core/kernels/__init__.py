"""The kernel layer: the hot loops of query answering and construction.

The paper's query cost concentrates in a handful of tight numeric loops —
the Definition 10/11 bound-reference scans, the Algorithm-2 /
Proposition-5 pruning bounds, the refine sweep ``RF``, and the hoplink
concatenation scan.  This package isolates those loops as *kernels*:
pure functions over the ``mu``/``sigma``/``sigma^2``/``ub``/``lb``
columns of :mod:`repro.core.labelstore`, all in
:mod:`repro.core.kernels.reference`.

Callers reach every kernel as an attribute of that module at call time
(``reference.scan_pairs(...)``), never through a name bound at import,
so a profiler that wraps the module's functions sees every call.

:func:`active_backend`, :func:`backend_names` and :func:`set_backend`
remain only because the repository benchmark (``perfbench/``) imports
them, as it reads the ``backend`` field (always ``reference.NAME``,
``"python"``) of ``repro.serve/1`` replies; both go in the change that
edits perfbench.  There is exactly one kernel set, and nothing reads
``NRP_KERNELS``.

Layering: kernels are a numeric leaf *below* the storage layer — they
may import ``repro.stats`` and nothing else of the tree (enforced by
nrplint NRP001), and every function in the kernel module must be pure
(NRP006).  No registry counter tracks kernel calls: per-query call
counts follow from the flight record (docs/observability.md), and
kernel time is measured by wrapping the module's functions from outside
or by :class:`repro.obs.SamplingProfiler`.
"""

from __future__ import annotations

from types import ModuleType

from repro.core.kernels import reference

__all__ = ["active_backend", "backend_names", "set_backend"]


def backend_names() -> tuple[str, ...]:
    """The kernel sets available in this process: only the reference."""
    return (reference.NAME,)


def set_backend(name: str | None) -> None:
    """Accept the one kernel set (``"python"``) or ``None``; refuse the rest."""
    if name is not None and name != reference.NAME:
        raise ValueError(
            f"unknown kernel backend {name!r}: only {reference.NAME!r} exists"
        )


def active_backend() -> ModuleType:
    """The module holding the kernels: :mod:`repro.core.kernels.reference`."""
    return reference
