"""Lock discipline: guarded fields and blocking calls under locks.

Two rules over the threaded serving tier:

``unguarded-write``
    Fields listed in :data:`GUARDED_BY` (the registry of
    ``_lock``-guarded state: service stats, telemetry counters, the reply
    cache, host-pool health, fault schedules) may only be assigned or
    mutated inside a lexical ``with self.<their lock>`` block.
    ``__init__``/``__post_init__`` are exempt -- the object is not shared
    yet.

``blocking-under-lock``
    While *any* ``*_lock`` attribute of a registered file is held, calls
    that can block indefinitely -- socket operations (including the framed
    ``wire.read_frame``/``write_frame`` helpers), ``subprocess``,
    ``time.sleep``, and timeout-less ``Future.result()`` / ``queue.get()``
    / ``join()`` / ``wait()`` -- are flagged.  A deliberate hold (the framed
    connection serializing one request per round trip) carries a pragma
    with its reason.

The ledger itself is checked too: a registered class that no longer exists,
or a registered field its class never assigns through ``self.<field>``, is
an ``unguarded-write`` finding -- a stale entry guards nothing.

The checks are lexical, not interprocedural: a helper that writes a guarded
field and is only ever called under the lock still needs the ``with`` block
(or a pragma explaining the invariant) -- that rigidity is what makes the
guarantee auditable.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from dataclasses import dataclass

from repro.lint.astutil import dotted_name, iter_functions
from repro.lint.findings import Finding
from repro.lint.runner import Project

__all__ = ["GUARDED_BY", "LockChecker", "RULE_BLOCKING", "RULE_UNGUARDED"]

RULE_UNGUARDED = "unguarded-write"
RULE_BLOCKING = "blocking-under-lock"

#: path -> class -> guarded field -> the lock attribute that must be held.
GUARDED_BY: dict[str, dict[str, dict[str, str]]] = {
    "src/repro/service/service.py": {
        "ReadoutService": {
            "_stats": "_stats_lock",
            "_started": "_lifecycle_lock",
            "_closed": "_lifecycle_lock",
        },
    },
    "src/repro/service/lifecycle.py": {
        "BundleRegistry": {"_index": "_lock"},
        "RegistryWatcher": {"_adopted": "_lock", "_skipped": "_lock"},
    },
    "src/repro/service/telemetry.py": {
        "LatencyHistogram": {
            "_counts": "_lock",
            "_count": "_lock",
            "_sum_s": "_lock",
            "_min_s": "_lock",
            "_max_s": "_lock",
        },
        "TelemetryRecorder": {"_counters": "_counter_lock"},
    },
    "src/repro/service/net.py": {
        "ServingCore": {
            "_requests_served": "_served_lock",
            "_deduplicated_replies": "_served_lock",
            "_reply_cache": "_cache_lock",
            "_engine": "_swap_lock",
            "_info": "_swap_lock",
            "_swaps": "_swap_lock",
        },
    },
    "src/repro/service/health.py": {
        "HostPool": {"_hosts": "_lock", "_counters": "_lock"},
    },
    "src/repro/service/faults.py": {
        "FaultSchedule": {"_plan": "_lock", "counters": "_lock"},
        "ChaosProxy": {"counters": "_lock"},
    },
}

#: Method names that mutate a container in place.
_MUTATORS = {
    "append",
    "appendleft",
    "extend",
    "insert",
    "pop",
    "popleft",
    "popitem",
    "clear",
    "update",
    "setdefault",
    "move_to_end",
    "remove",
    "discard",
    "add",
}

#: Call names (last dotted component) that block regardless of arguments.
_ALWAYS_BLOCKING = {
    "sleep",
    "accept",
    "recv",
    "recv_into",
    "sendall",
    "send",
    "connect",
    "create_connection",
    "select",
    # The repo's framed-socket helpers: full-frame reads/writes.
    "read_frame",
    "write_frame",
    "read_exact",
    "run",  # subprocess.run
    "check_output",
    "check_call",
}

#: Dotted prefixes that make any call blocking (process spawning et al.).
_BLOCKING_PREFIXES = ("subprocess.",)

#: Calls that block only when invoked without a timeout.
_TIMEOUT_GATED = {"result", "get", "join", "wait", "acquire"}


def _self_field(node: ast.AST) -> str | None:
    """``field`` when ``node`` is rooted at ``self.<field>`` (through any
    chain of attribute/subscript accesses), else ``None``."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        parent = node.value
        if (
            isinstance(node, ast.Attribute)
            and isinstance(parent, ast.Name)
            and parent.id == "self"
        ):
            return node.attr
        node = parent
    return None


def _unpacked_targets(targets: list[ast.expr]) -> Iterator[ast.expr]:
    """The single targets an assignment writes, in order: ``Tuple``/``List``
    targets unpacked and ``Starred`` ones unwrapped, at any depth."""
    for target in targets:
        if isinstance(target, (ast.Tuple, ast.List)):
            yield from _unpacked_targets(target.elts)
        elif isinstance(target, ast.Starred):
            yield from _unpacked_targets([target.value])
        else:
            yield target


def _assigned_fields(cls: ast.ClassDef) -> set[str]:
    """Every field the class assigns through ``self.<field>`` (tuple targets
    unpacked; attribute/subscript chains count for their root field)."""
    fields: set[str] = set()
    for node in ast.walk(cls):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            continue
        for target in _unpacked_targets(targets):
            if (field_name := _self_field(target)) is not None:
                fields.add(field_name)
    return fields


def _with_lock_name(item: ast.withitem) -> str | None:
    """The attribute name when a with-item is ``self.<something_lock>``."""
    expr = item.context_expr
    name = dotted_name(expr)
    if name is None and isinstance(expr, ast.Call):
        name = dotted_name(expr.func)
    if name is None or not name.startswith("self."):
        return None
    attr = name.split(".", 1)[1]
    if "." in attr:
        return None
    return attr if attr.endswith("_lock") or attr == "_lock" else None


def _has_timeout(node: ast.Call) -> bool:
    if node.args:
        return True
    return any(kw.arg == "timeout" for kw in node.keywords)


@dataclass
class _ClassContext:
    name: str
    guarded: dict[str, str]


class _FunctionAuditor(ast.NodeVisitor):
    def __init__(
        self, path: str, cls: _ClassContext, func: str, known_locks: set[str]
    ) -> None:
        self.path = path
        self.cls = cls
        self.func = func
        self.known_locks = known_locks
        self.held: list[str] = []
        self.findings: list[Finding] = []
        self.exempt_writes = func in {"__init__", "__post_init__"}

    def _flag(self, node: ast.AST, rule: str, message: str) -> None:
        self.findings.append(
            Finding(
                rule=rule,
                path=self.path,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0),
                message=message,
            )
        )

    # ------------------------------------------------------------- with locks
    def visit_With(self, node: ast.With) -> None:
        locks = [name for item in node.items if (name := _with_lock_name(item))]
        self.held.extend(locks)
        for item in node.items:
            self.visit(item.context_expr)
        for stmt in node.body:
            self.visit(stmt)
        for _ in locks:
            self.held.pop()

    # --------------------------------------------------------------- writes
    def _check_write(self, target: ast.AST, node: ast.AST) -> None:
        if self.exempt_writes:
            return
        field_name = _self_field(target)
        if field_name is None:
            return
        lock = self.cls.guarded.get(field_name)
        if lock is not None and lock not in self.held:
            self._flag(
                node,
                RULE_UNGUARDED,
                f"{self.cls.name}.{field_name} is GUARDED_BY {lock} but is "
                f"written outside 'with self.{lock}' in {self.func}()",
            )

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in _unpacked_targets(node.targets):
            self._check_write(target, node)
        self.visit(node.value)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_write(node.target, node)
        self.visit(node.value)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._check_write(node.target, node)
            self.visit(node.value)

    # ---------------------------------------------------------------- calls
    def visit_Call(self, node: ast.Call) -> None:
        name = dotted_name(node.func) or ""
        last = name.rsplit(".", 1)[-1] if name else ""
        # In-place mutation of a guarded container counts as a write.
        if not self.exempt_writes and last in _MUTATORS:
            field_name = (
                _self_field(node.func.value)
                if isinstance(node.func, ast.Attribute)
                else None
            )
            if field_name is not None:
                lock = self.cls.guarded.get(field_name)
                if lock is not None and lock not in self.held:
                    self._flag(
                        node,
                        RULE_UNGUARDED,
                        f"{self.cls.name}.{field_name} is GUARDED_BY {lock} "
                        f"but is mutated via .{last}() outside "
                        f"'with self.{lock}' in {self.func}()",
                    )
        if self.held:
            blocking = (
                last in _ALWAYS_BLOCKING
                or name.startswith(_BLOCKING_PREFIXES)
                or (last in _TIMEOUT_GATED and not _has_timeout(node))
            )
            if blocking:
                self._flag(
                    node,
                    RULE_BLOCKING,
                    f"potentially blocking call {name or last}() while "
                    f"holding {', '.join(self.held)} in "
                    f"{self.cls.name}.{self.func}()",
                )
        self.generic_visit(node)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        pass  # nested defs are audited as their own entries

    visit_AsyncFunctionDef = visit_FunctionDef


class LockChecker:
    """Enforce the GUARDED_BY registry and no-blocking-under-lock rule."""

    name = "locks"
    rules = (RULE_UNGUARDED, RULE_BLOCKING)

    def __init__(self, guarded_by: dict | None = None) -> None:
        self.guarded_by = GUARDED_BY if guarded_by is None else guarded_by

    def run(self, project: Project) -> list[Finding]:
        findings: list[Finding] = []
        for path, classes in self.guarded_by.items():
            module = project.get(path)
            if module is None:
                continue
            known_locks = {
                lock for fields in classes.values() for lock in fields.values()
            }
            for qualname, node in iter_functions(module.tree):
                if "." not in qualname:
                    # Module-level functions hold no self locks; the blocking
                    # rule still applies if they take a with on a *_lock.
                    cls = _ClassContext(name="<module>", guarded={})
                    func = qualname
                else:
                    cls_name, func = qualname.rsplit(".", 1)
                    cls = _ClassContext(
                        name=cls_name, guarded=classes.get(cls_name, {})
                    )
                auditor = _FunctionAuditor(path, cls, func, known_locks)
                for stmt in node.body:
                    auditor.visit(stmt)
                findings.extend(auditor.findings)
            classdefs = {
                stmt.name: stmt
                for stmt in module.tree.body
                if isinstance(stmt, ast.ClassDef)
            }
            for cls_name, fields in classes.items():
                classdef = classdefs.get(cls_name)
                if classdef is None:
                    line = 1
                    stale = [f"class {cls_name}, which no longer exists"]
                else:
                    line = classdef.lineno
                    assigned = _assigned_fields(classdef)
                    stale = [
                        f"{cls_name}.{field}, which {cls_name} never assigns "
                        f"through self.{field}"
                        for field in fields
                        if field not in assigned
                    ]
                findings.extend(
                    Finding(
                        rule=RULE_UNGUARDED,
                        path=path,
                        line=line,
                        col=0,
                        message=(
                            f"GUARDED_BY registers {entry}; update "
                            "repro.lint.locks"
                        ),
                    )
                    for entry in stale
                )
        return findings
