"""NRP006 — purity of the dominance/pruning kernels.

Algorithm 2 and Propositions 2/3/5 are specified as pure decision
procedures over immutable label sets; the engine memoises their results
inside query plans, and maintenance replays them after label rebuilds.
A ``dominates*``/``prune*`` function that mutates its arguments or module
state would make cached plans diverge from fresh ones — the exact bug
class the golden suite can only catch after the fact.

Within ``repro.core``, any function whose name matches ``dominates*`` or
``prune*`` (leading underscore allowed) — and, in the kernel module
``repro.core.kernels.reference``, *every* function, since the whole
point of that layer is pure columns-in/indices-out procedures — must
not:

- declare ``global``/``nonlocal``,
- assign/del through a parameter (``param[i] = ...``, ``param.x = ...``,
  ``param[i] += ...``),
- call mutating methods on a parameter (``append``, ``update``, ...), or
- store through a module-level binding.

Deliberate out-parameters (the observability ``counts`` accumulators)
carry an inline justification instead of weakening the rule.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from nrplint.core import FileContext, Finding, Rule, base_name, register

_SCOPE = "repro.core"
_KERNEL_RE = re.compile(r"^_?(dominates|prune)")

#: Modules where *every* function is a kernel, not just name matches.
#: ``repro.core.kernels`` itself (the ``__init__``) is the selection
#: surface, not a kernel.
_KERNEL_MODULES = frozenset({"repro.core.kernels.reference"})

_MUTATORS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "remove",
        "pop",
        "clear",
        "sort",
        "reverse",
        "update",
        "add",
        "discard",
        "setdefault",
        "popitem",
        "appendleft",
        "extendleft",
        "popleft",
        "write",
    }
)


def _module_bindings(tree: ast.Module) -> set[str]:
    names: set[str] = set()
    for stmt in tree.body:
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            for alias in stmt.names:
                names.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            names.add(stmt.target.id)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(stmt.name)
    return names


def _param_names(func: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    args = func.args
    names = {arg.arg for arg in args.posonlyargs}
    names.update(arg.arg for arg in args.args)
    names.update(arg.arg for arg in args.kwonlyargs)
    if args.vararg:
        names.add(args.vararg.arg)
    if args.kwarg:
        names.add(args.kwarg.arg)
    return names


@register
class PurityRule(Rule):
    name = "purity"
    code = "NRP006"
    summary = "dominates*/prune* kernels must not mutate args or globals"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.in_package(_SCOPE):
            return
        module_names = _module_bindings(ctx.tree)
        all_kernels = ctx.module in _KERNEL_MODULES
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if all_kernels or _KERNEL_RE.match(node.name):
                    yield from self._check_kernel(ctx, node, module_names)

    def _check_kernel(
        self,
        ctx: FileContext,
        func: ast.FunctionDef | ast.AsyncFunctionDef,
        module_names: set[str],
    ) -> Iterator[Finding]:
        params = _param_names(func)
        local_names: set[str] = set()
        for node in ast.walk(func):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                local_names.add(node.id)

        def classify(target: ast.AST) -> str | None:
            """Why a store through ``target`` is impure, if it is."""
            if not isinstance(target, (ast.Subscript, ast.Attribute)):
                return None  # plain rebinding of a local is pure
            base = base_name(target)
            if base is None or base in ("self", "cls"):
                return None  # method-local state is its own rule's problem
            if base in params:
                return f"mutates argument {base!r}"
            if base in module_names and base not in local_names:
                return f"mutates module-level state {base!r}"
            return None

        for node in ast.walk(func):
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                kind = "global" if isinstance(node, ast.Global) else "nonlocal"
                yield self.finding(
                    ctx,
                    node,
                    f"{func.name} declares {kind} "
                    f"{', '.join(node.names)}; dominance kernels must be pure",
                )
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    reason = classify(target)
                    if reason:
                        yield self.finding(
                            ctx, node, f"{func.name} {reason}; kernels must be pure"
                        )
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                reason = classify(node.target)
                if reason:
                    yield self.finding(
                        ctx, node, f"{func.name} {reason}; kernels must be pure"
                    )
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    reason = classify(target)
                    if reason:
                        yield self.finding(
                            ctx, node, f"{func.name} {reason}; kernels must be pure"
                        )
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                if node.func.attr in _MUTATORS:
                    base = base_name(node.func.value)
                    if base in params:
                        yield self.finding(
                            ctx,
                            node,
                            f"{func.name} calls .{node.func.attr}() on argument "
                            f"{base!r}; kernels must not mutate their inputs",
                        )
                    elif (
                        base is not None
                        and base in module_names
                        and base not in local_names
                        and base not in ("self", "cls")
                    ):
                        yield self.finding(
                            ctx,
                            node,
                            f"{func.name} calls .{node.func.attr}() on "
                            f"module-level {base!r}; kernels must be pure",
                        )
        return
