"""NRP011 — ``deadline_s`` is threaded through every fan-out.

PR 8's subtlest bug: ``QueryEngine.answer_batch`` forwarded ``deadline_s``
on its fast path but silently dropped it on the fallthrough — every
degraded batch ran with no deadline, and nothing failed loudly because
the parameter defaults to ``None``.  The serving plane multiplies the fan-out (entry → batch →
group → answer → plan/execute), so the discipline is now mechanical:

    inside ``repro.core``/``repro.serve``, a function that *accepts* a
    threaded parameter must *pass* it on every same-module call to a
    function that also accepts it.

Resolution is deliberately local — bare-name calls to module functions
and ``self.method`` calls within the class — because that is exactly the
internal fan-out where a dropped default hides; cross-object calls
(``self.engine.answer(...)``) surface at their own definition site.
Forwarding counts when the parameter is passed by keyword, covered
positionally, or swept along by ``*args``/``**kwargs``.  A call that
deliberately severs the chain takes a justified suppression, which is the
point: dropping a deadline becomes a decision, not an accident.
"""

from __future__ import annotations

import ast
from typing import Iterator

from nrplint.core import FileContext, Finding, Rule, register
from nrplint.flow import ModuleFlow, get_flow, iter_functions, walk_local

_SCOPES = ("repro.core", "repro.serve")

#: The parameters whose loss was PR 8's fallthrough bug.
_THREADED = ("deadline_s",)

_FunctionNode = (ast.FunctionDef, ast.AsyncFunctionDef)


def _in_scope(ctx: FileContext) -> bool:
    return any(ctx.in_package(scope) for scope in _SCOPES)


def _resolve_callee(
    call: ast.Call, flow: ModuleFlow, cls_name: str | None
) -> tuple[str, ast.FunctionDef | ast.AsyncFunctionDef, bool] | None:
    """``(display, def, is_method)`` for same-module callees."""
    func = call.func
    if isinstance(func, ast.Name):
        target = flow.functions.get(func.id)
        if target is not None:
            return func.id, target, False
    elif (
        isinstance(func, ast.Attribute)
        and isinstance(func.value, ast.Name)
        and func.value.id == "self"
        and cls_name is not None
    ):
        cls = flow.classes.get(cls_name)
        if cls is not None:
            method = cls.methods.get(func.attr)
            if method is not None:
                return f"self.{func.attr}", method, True
    return None


def _positional_index(
    callee: ast.FunctionDef | ast.AsyncFunctionDef, param: str, is_method: bool
) -> int | None:
    """Index of ``param`` among the callee's positional slots, or None."""
    positional = [
        a.arg for a in (*callee.args.posonlyargs, *callee.args.args)
    ]
    if is_method and positional and positional[0] in ("self", "cls"):
        positional = positional[1:]
    try:
        return positional.index(param)
    except ValueError:
        return None


@register
class ParamThreadingRule(Rule):
    name = "param-threading"
    code = "NRP011"
    summary = "deadline_s is forwarded through every internal fan-out"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not _in_scope(ctx):
            return
        flow = get_flow(ctx)
        for cls_node, func in iter_functions(ctx):
            caller_params = {
                a.arg
                for a in (
                    *func.args.posonlyargs,
                    *func.args.args,
                    *func.args.kwonlyargs,
                )
            }
            relevant = [p for p in _THREADED if p in caller_params]
            if not relevant:
                continue
            cls_name = cls_node.name if cls_node is not None else None
            yield from self._check_calls(ctx, flow, func, cls_name, relevant)

    def _check_calls(
        self,
        ctx: FileContext,
        flow: ModuleFlow,
        func: ast.FunctionDef | ast.AsyncFunctionDef,
        cls_name: str | None,
        relevant: list[str],
    ) -> Iterator[Finding]:
        for node in walk_local(func):
            if not isinstance(node, ast.Call):
                continue
            resolved = _resolve_callee(node, flow, cls_name)
            if resolved is None:
                continue
            display, callee, is_method = resolved
            if callee is func:
                continue
            if any(kw.arg is None for kw in node.keywords):
                continue  # **kwargs sweeps everything along
            if any(isinstance(arg, ast.Starred) for arg in node.args):
                continue  # *args may cover the positional slots
            callee_params = {
                a.arg
                for a in (
                    *callee.args.posonlyargs,
                    *callee.args.args,
                    *callee.args.kwonlyargs,
                )
            }
            for param in relevant:
                if param not in callee_params:
                    continue
                if any(kw.arg == param for kw in node.keywords):
                    continue
                index = _positional_index(callee, param, is_method)
                if index is not None and len(node.args) > index:
                    continue
                yield self.finding(
                    ctx,
                    node,
                    f"call to {display}() drops {param}; the caller accepts "
                    f"it, so forward {param}={param} (or suppress with a "
                    "reason if severing the chain is intentional)",
                )
