"""NRP001 — the import-layering contract.

``docs/architecture.md`` fixes a storage / engine / service split inside
``repro.core`` and a dependency direction for the top-level packages:

- ``repro.core`` is the index kernel; the service and consumer layers
  (``cli``, ``experiments``, ``viz``, ``baselines``, ``validation``,
  ``extensions``) sit above it and must never be imported from below.
- Within core, the storage modules (``labelstore``, ``pruning``,
  ``pathsummary``) must not reach up into the engine or service modules.
- ``repro.obs`` is a standalone leaf: core may call into it (that is the
  instrumentation direction), but obs importing core would create a cycle
  and couple the observability plane to the index internals.
- ``repro.stats`` is a pure numeric leaf (Props. 1-5 arithmetic only);
  ``repro.treedec`` may see ``repro.network`` but nothing higher.
- ``repro.core.kernels`` sits just above that leaf: the kernels may
  import only ``repro.stats``, so storage and engine can call down into
  them without ever creating a cycle.
- ``repro.resilience`` is the crash-safety substrate ``repro.core``
  builds on (atomic writes, WAL, failpoints); it may see only
  ``repro.network`` and ``repro.obs``, so depending on it can never
  create a cycle.
- ``repro.serve`` (the query daemon) sits above the kernel: it may
  import ``repro.core``, ``repro.obs``, ``repro.resilience``, and
  ``repro.network``, but never the cli/experiments/viz consumers — and
  nothing in core may import it back.
- Within the serving plane, ``repro.serve.health`` (state machine +
  circuit breaker) is pure mechanism and may import only ``repro.obs``;
  ``repro.serve.lifecycle`` (verified open, WAL recovery, hot reload)
  may see core/resilience/obs/network but never ``serve.server`` or
  ``serve.client``, which import *it*.

Imports under ``if TYPE_CHECKING:`` are exempt — they express annotations,
not a runtime dependency, and cannot create import cycles.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterator

from nrplint.core import FileContext, Finding, Rule, register

_CORE_STORAGE_FORBIDDEN = (
    "repro.core.engine",
    "repro.core.index",
    "repro.core.construction",
    "repro.core.maintenance",
    "repro.core.serialization",
    "repro.core.query",
    "repro.core.multiquery",
    "repro.core.explain",
    "repro.core.analysis",
    "repro.core.change_detection",
    "repro.core.refine",
)


@dataclass(frozen=True)
class Contract:
    """One layering clause: a scope plus a forbidden- or allowed-list.

    ``forbidden`` names prefixes the scope must not import; ``allowed``
    (leaf form) names the only ``repro``-internal prefixes the scope may
    import — the scope itself is always implicitly allowed.
    """

    scope: str
    reason: str
    forbidden: tuple[str, ...] = ()
    allowed: tuple[str, ...] | None = None

    def violation(self, module: str, target: str) -> str | None:
        if not _under(module, self.scope):
            return None
        for prefix in self.forbidden:
            if _under(target, prefix):
                return (
                    f"{self.scope} must not import {prefix} ({self.reason}); "
                    f"imports {target}"
                )
        if self.allowed is not None and _under(target, "repro"):
            permitted = (self.scope,) + self.allowed
            if not any(_under(target, prefix) for prefix in permitted):
                return (
                    f"{self.scope} may only import "
                    f"{', '.join(permitted)} ({self.reason}); imports {target}"
                )
        return None


def _under(module: str, prefix: str) -> bool:
    return module == prefix or module.startswith(prefix + ".")


CONTRACTS: tuple[Contract, ...] = (
    Contract(
        scope="repro.core",
        forbidden=(
            "repro.cli",
            "repro.experiments",
            "repro.viz",
            "repro.baselines",
            "repro.validation",
            "repro.extensions",
            "repro.serve",
        ),
        reason="core is the index kernel; service/consumer layers sit above it",
    ),
    Contract(
        scope="repro.core.labelstore",
        forbidden=_CORE_STORAGE_FORBIDDEN,
        reason="storage must not reach up into engine/service modules",
    ),
    Contract(
        scope="repro.core.pruning",
        forbidden=_CORE_STORAGE_FORBIDDEN,
        reason="storage must not reach up into engine/service modules",
    ),
    Contract(
        scope="repro.core.pathsummary",
        forbidden=_CORE_STORAGE_FORBIDDEN,
        reason="storage must not reach up into engine/service modules",
    ),
    Contract(
        scope="repro.core.kernels",
        allowed=("repro.stats",),
        reason=(
            "kernels are pure columns-in/indices-out procedures over the "
            "stats leaf; storage and engine layers call down into them"
        ),
    ),
    Contract(
        scope="repro.obs",
        allowed=(),
        reason="obs is a standalone leaf the rest of the tree reports into",
    ),
    Contract(
        scope="repro.stats",
        allowed=(),
        reason="stats is the pure Props. 1-5 numeric leaf",
    ),
    Contract(
        scope="repro.treedec",
        allowed=("repro.network",),
        reason="tree decomposition sees the graph layer and nothing higher",
    ),
    Contract(
        scope="repro.resilience",
        allowed=("repro.network", "repro.obs"),
        reason="resilience is the crash-safety substrate core builds on",
    ),
    Contract(
        scope="repro.serve",
        allowed=("repro.core", "repro.obs", "repro.resilience", "repro.network"),
        reason=(
            "the serving plane wraps the index kernel; it must not reach "
            "sideways into cli/experiments/viz consumers"
        ),
    ),
    Contract(
        scope="repro.serve.health",
        allowed=("repro.obs",),
        reason=(
            "the health state machine and circuit breaker are pure "
            "mechanism: no engine, no sockets, no lifecycle — the server "
            "feeds them signals, tests feed them fakes"
        ),
    ),
    Contract(
        scope="repro.serve.lifecycle",
        allowed=("repro.core", "repro.resilience", "repro.obs", "repro.network"),
        forbidden=("repro.serve.server", "repro.serve.client"),
        reason=(
            "index lifecycle (verified open, WAL recovery, hot reload) "
            "sits below the server that imports it; reaching back up "
            "would cycle the serving plane"
        ),
    ),
)


def _import_targets(node: ast.AST, package: str) -> list[list[str]]:
    """Candidate chains, one per imported binding.

    Each chain is scanned until its first violating entry, which is the
    one reported (duplicate messages across chains collapse).  So
    ``from repro.cli import main`` reports the module once, while
    ``from repro import experiments, viz`` (where ``repro`` itself is
    fine) still reports each offending submodule binding.
    """
    if isinstance(node, ast.Import):
        return [[alias.name] for alias in node.names]
    if isinstance(node, ast.ImportFrom):
        if node.level:  # resolve `from .x import y` against the package
            parts = package.split(".")
            parts = parts[: len(parts) - (node.level - 1)]
            base = ".".join(parts)
            module = f"{base}.{node.module}" if node.module else base
        else:
            module = node.module or ""
        return [
            [module, f"{module}.{alias.name}"] for alias in node.names
        ]
    return []


@register
class LayeringRule(Rule):
    name = "layering"
    code = "NRP001"
    summary = "storage/engine/service import contract; stats & obs stay leaves"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        package = ctx.package
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if ctx.in_type_checking(node):
                continue
            seen: set[str] = set()
            for chain in _import_targets(node, package):
                for target in chain:
                    messages = [
                        message
                        for contract in CONTRACTS
                        if (message := contract.violation(ctx.module, target))
                    ]
                    if messages:
                        for message in messages:
                            if message not in seen:
                                seen.add(message)
                                yield self.finding(ctx, node, message)
                        break  # deeper candidates restate the same import
