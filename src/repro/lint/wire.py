"""protocol-consistency: every wire ``op`` has both ends implemented.

The cluster line protocol is stringly typed: clients emit
``{"op": "lease", ...}`` dicts and servers dispatch on ``op ==
"lease"`` comparisons.  Nothing but this rule connects the two — a
typo'd or half-added op surfaces only at runtime as an ``unknown op``
error reply (or as a handler no client can ever reach).

There are two dispatch tables: the coordinator's
(``CoordinatorCore.dispatch`` in ``cluster/coordinator.py``, which the
experiment service — the one coordinator front end — feeds) and the
worker's peer artifact server (``cluster/worker.py`` —
``peer_get``/``peer_has``), and a handler
module can itself emit ops (the worker both serves peers and leases
jobs).  Both directions are checked across all of them:

- an op **emitted** anywhere under ``cluster/`` with no dispatch
  handling it is an *error* (the request can never succeed);
- a **handler** whose op no *other* module emits is a *warning* (it
  may serve out-of-tree tooling, but more often it is dead or drifted
  protocol; a module "emitting" only to its own dispatch proves
  nothing about the wire).

The HTTP control plane (``cluster/http_api.py``) is the same trap in a
different syntax: ``ServiceClient`` emits ``http_request("GET",
f"/sweeps/{id}")`` strings while the server dispatches on a ``ROUTES``
table of ``(method, path_template, handler_name)`` rows.  The rule
cross-checks that table too:

- a client path **emitted** (``.http_request(METHOD, PATH)``, constant
  or f-string — placeholders match template parameters) with no
  ``ROUTES`` row is an *error* (guaranteed 404);
- a ``ROUTES`` row no client emits is a *warning* (unlike ops, the
  client lives in the same module as the table, so same-module
  emission counts);
- a ``ROUTES`` row naming a handler with no ``_route_<name>`` function
  in the module is an *error* (dispatch would die at request time).
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.lint.base import (
    Checker,
    SourceModule,
    attribute_chain,
    const_str,
    enclosing_symbols,
)
from repro.lint.findings import Finding


class ProtocolConsistencyChecker(Checker):
    rule = "protocol-consistency"
    description = (
        "ops emitted under cluster/ must have a dispatch handler "
        "(coordinator or worker peer server), and handlers must have an "
        "in-tree emitter outside their own module"
    )

    def __init__(
        self,
        handler_suffixes: Sequence[str] = (
            "cluster/coordinator.py",
            "cluster/worker.py",
        ),
        emitter_dir: str = "cluster/",
        op_key: str = "op",
        http_suffix: str = "cluster/http_api.py",
    ):
        self.handler_suffixes = tuple(handler_suffixes)
        self.emitter_dir = emitter_dir
        self.op_key = op_key
        self.http_suffix = http_suffix

    def _is_handler(self, module: SourceModule) -> bool:
        return any(module.relpath.endswith(s) for s in self.handler_suffixes)

    def _is_emitter(self, module: SourceModule) -> bool:
        # Handler modules emit too: the worker serves peer ops while
        # emitting lease/heartbeat/... requests of its own.
        return self.emitter_dir in module.relpath

    # ------------------------------------------------------------------
    def check_project(self, modules: Sequence[SourceModule]) -> Iterator[Finding]:
        yield from self._check_ops(modules)
        yield from self._check_http_routes(modules)

    def _check_ops(self, modules: Sequence[SourceModule]) -> Iterator[Finding]:
        handlers = [m for m in modules if self._is_handler(m)]
        emitters = [m for m in modules if self._is_emitter(m)]
        if not handlers:
            return  # nothing to cross-check against (fixture trees, subsets)
        emitted: Dict[str, List[Tuple[SourceModule, int, str]]] = {}
        for module in emitters:
            for op, line, symbol in _emitted_ops(module, self.op_key):
                emitted.setdefault(op, []).append((module, line, symbol))
        handled: Dict[str, List[Tuple[SourceModule, int, str]]] = {}
        for module in handlers:
            for op, line, symbol in _handled_ops(module, self.op_key):
                handled.setdefault(op, []).append((module, line, symbol))

        for op in sorted(set(emitted) - set(handled)):
            for module, line, symbol in emitted[op]:
                yield Finding(
                    rule=self.rule,
                    severity="error",
                    path=module.relpath,
                    line=line,
                    symbol=symbol or op,
                    message=(
                        f"op {op!r} is emitted here but no coordinator or "
                        "worker dispatch handles it; the request can only "
                        "produce an 'unknown op' error reply"
                    ),
                )
        for op in sorted(handled):
            for module, line, symbol in handled[op]:
                # An emitter inside the handler's own module proves
                # nothing (it never crosses the wire to this dispatch);
                # require one anywhere else in the tree.
                external = [
                    entry for entry in emitted.get(op, ())
                    if entry[0] is not module
                ]
                if external:
                    continue
                yield Finding(
                    rule=self.rule,
                    severity="warning",
                    path=module.relpath,
                    line=line,
                    symbol=symbol or op,
                    message=(
                        f"dispatch handles op {op!r} but no in-tree "
                        "client emits it; dead protocol surface drifts "
                        "silently (add an emitter, or suppress if it serves "
                        "external tooling)"
                    ),
                )

    def _check_http_routes(
        self, modules: Sequence[SourceModule]
    ) -> Iterator[Finding]:
        route_modules = [
            m for m in modules if m.relpath.endswith(self.http_suffix)
        ]
        if not route_modules:
            return
        routes: Dict[Tuple[str, str], List[Tuple[SourceModule, int, str]]] = {}
        for module in route_modules:
            for method, path, handler, line in _http_routes(module.tree):
                key = (method.upper(), _normalize_http_path(path))
                routes.setdefault(key, []).append((module, line, handler))
        emitted: Dict[Tuple[str, str], List[Tuple[SourceModule, int, str]]] = {}
        for module in modules:
            if self.emitter_dir not in module.relpath:
                continue
            for method, path, line, symbol in _emitted_http_requests(module.tree):
                key = (method.upper(), _normalize_http_path(path))
                emitted.setdefault(key, []).append((module, line, symbol))

        for key in sorted(set(emitted) - set(routes)):
            method, path = key
            for module, line, symbol in emitted[key]:
                yield Finding(
                    rule=self.rule,
                    severity="error",
                    path=module.relpath,
                    line=line,
                    symbol=symbol or path,
                    message=(
                        f"HTTP request {method} {path!r} is emitted here "
                        "but matches no row of the control-plane ROUTES "
                        "table; the call can only produce a 404"
                    ),
                )
        for key in sorted(routes):
            method, path = key
            for module, line, handler in routes[key]:
                # Unlike line-protocol ops, the route table and the
                # client live in the same module by design — any
                # in-tree emission (same module included) matches.
                if key not in emitted:
                    yield Finding(
                        rule=self.rule,
                        severity="warning",
                        path=module.relpath,
                        line=line,
                        symbol=handler or path,
                        message=(
                            f"ROUTES row {method} {path!r} has no in-tree "
                            "client emitting it; dead control-plane surface "
                            "drifts silently (add a ServiceClient helper, or "
                            "suppress if it serves external tooling)"
                        ),
                    )
                function_name = f"_route_{handler}"
                if function_name not in _defined_functions(module.tree):
                    yield Finding(
                        rule=self.rule,
                        severity="error",
                        path=module.relpath,
                        line=line,
                        symbol=handler or path,
                        message=(
                            f"ROUTES row {method} {path!r} names handler "
                            f"{handler!r} but the module defines no "
                            f"{function_name}(); dispatch would fail at "
                            "request time"
                        ),
                    )


# ----------------------------------------------------------------------


def _emitted_ops(module: SourceModule, op_key: str):
    """``(op, line, scope)`` for every ``{"op": "<const>"}`` dict literal."""
    symbols = enclosing_symbols(module.tree)
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Dict):
            continue
        for key, value in zip(node.keys, node.values):
            if key is not None and const_str(key) == op_key:
                op = const_str(value)
                if op is not None:
                    yield op, node.lineno, symbols.get(node, "")


def _handled_ops(module: SourceModule, op_key: str):
    """``(op, line, scope)`` for every ``op == "<const>"`` comparison.

    The dispatch variable is recognised either by its name being the op
    key itself (``op == "lease"``) or by being assigned from
    ``<payload>.get("op")`` earlier in the module.
    """
    symbols = enclosing_symbols(module.tree)
    op_names: Set[str] = {op_key}
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if not isinstance(target, ast.Name):
                continue
            value = node.value
            if (
                isinstance(value, ast.Call)
                and (attribute_chain(value.func) or "").endswith(".get")
                and value.args
                and const_str(value.args[0]) == op_key
            ):
                op_names.add(target.id)
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Compare) or len(node.ops) != 1:
            continue
        if not isinstance(node.ops[0], (ast.Eq, ast.NotEq)):
            continue
        sides = [node.left, node.comparators[0]]
        names = [s for s in sides if isinstance(s, ast.Name) and s.id in op_names]
        consts = [s for s in sides if const_str(s) is not None]
        if names and consts:
            yield const_str(consts[0]), node.lineno, symbols.get(node, "")
    # `payload.get("op") == "x"` inline form.
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Compare) or len(node.ops) != 1:
            continue
        if not isinstance(node.ops[0], (ast.Eq, ast.NotEq)):
            continue
        sides = [node.left, node.comparators[0]]
        calls = [
            s
            for s in sides
            if isinstance(s, ast.Call)
            and (attribute_chain(s.func) or "").endswith(".get")
            and s.args
            and const_str(s.args[0]) == op_key
        ]
        consts = [s for s in sides if const_str(s) is not None]
        if calls and consts:
            yield const_str(consts[0]), node.lineno, symbols.get(node, "")


# ----------------------------------------------------------------------
# HTTP control-plane extraction.


def _normalize_http_path(path: str) -> str:
    """Collapse template parameters and f-string holes to ``{}``.

    ``/sweeps/{sweep_id}/cancel`` (route template) and the client's
    ``f"/sweeps/{sweep_id}/cancel"`` (already hole-collapsed by
    :func:`_fstring_path`) both normalise to ``/sweeps/{}/cancel``.
    """
    return re.sub(r"\{[^{}/]*\}", "{}", path)


def _fstring_path(node: ast.JoinedStr) -> Optional[str]:
    """An f-string as a path pattern: interpolations become ``{}``."""
    parts: List[str] = []
    for value in node.values:
        if isinstance(value, ast.FormattedValue):
            parts.append("{}")
            continue
        text = const_str(value)
        if text is None:
            return None
        parts.append(text)
    return "".join(parts)


def _path_pattern(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.JoinedStr):
        return _fstring_path(node)
    return const_str(node)


def _http_routes(tree: ast.AST):
    """``(method, path, handler, line)`` rows of a ``ROUTES`` table.

    Recognises plain and annotated assignments to a name ending in
    ``ROUTES`` whose value is a tuple/list of 3-tuples of string
    constants.
    """
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            target, value = node.target, node.value
        else:
            continue
        if not (isinstance(target, ast.Name) and target.id.endswith("ROUTES")):
            continue
        if not isinstance(value, (ast.Tuple, ast.List)):
            continue
        for row in value.elts:
            if not isinstance(row, (ast.Tuple, ast.List)) or len(row.elts) != 3:
                continue
            method, path, handler = (const_str(e) for e in row.elts)
            if method is not None and path is not None and handler is not None:
                yield method, path, handler, row.lineno


def _emitted_http_requests(tree: ast.AST):
    """``(method, path, line, scope)`` for ``http_request(...)`` calls.

    Matches direct and attribute calls (``self.http_request`` /
    ``client.http_request``) whose first two arguments are a constant
    method string and a constant-or-f-string path.
    """
    symbols = enclosing_symbols(tree)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or len(node.args) < 2:
            continue
        if isinstance(node.func, ast.Name):
            name = node.func.id
        else:
            name = (attribute_chain(node.func) or "").rpartition(".")[2]
        if name != "http_request":
            continue
        method = const_str(node.args[0])
        path = _path_pattern(node.args[1])
        if method is not None and path is not None:
            yield method, path, node.lineno, symbols.get(node, "")


def _defined_functions(tree: ast.AST) -> Set[str]:
    """Every function/method name defined anywhere in the module."""
    return {
        node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


__all__ = ["ProtocolConsistencyChecker"]
