"""Wire exhaustiveness: no half-handled frame kinds.

``repro/engine/wire.py`` declares the protocol's frame kinds as module-level
ALL-CAPS integer constants (``REQUEST``, ``RESULT``, ``ERROR``, ...).  The
protocol is additive -- new frames arrive without a version bump -- so the
failure mode this checker closes is a frame constant that ships while one
side still treats it as "unknown frame":

- every *request* kind (``REQUEST`` itself plus any ``*_REQUEST``) must be
  dispatched in the serving core's request handler (a ``wire.<KIND>``
  reference inside :data:`SERVER_HANDLER` -- the server answers through
  it);
- every *reply* kind must be decodable by the client
  (:data:`CLIENT_CLASS`): some ``wire.decode_*`` function the client
  actually calls must reference it;
- duplicate kind values are flagged (two constants with one value cannot be
  told apart on the wire).

The swap control frame is exactly the case this gate exists for: adding
``SWAP_REQUEST = 8`` to wire.py fails the build until the server
dispatches it and the client can decode its reply.
"""

from __future__ import annotations

import ast

from repro.lint.astutil import call_name, dotted_name, iter_functions
from repro.lint.findings import Finding
from repro.lint.runner import Project

__all__ = [
    "WireChecker",
    "RULE",
    "WIRE_MODULE",
    "SERVER_HANDLER",
    "CLIENT_CLASS",
]

RULE = "wire-unhandled-frame"

WIRE_MODULE = "src/repro/engine/wire.py"
NET_MODULE = "src/repro/service/net.py"

#: The server-side dispatch point every request kind must appear in: the
#: :class:`~repro.service.net.ServingCore` handler the server answers
#: through.
SERVER_HANDLER = ("ServingCore", "reply_chunks_for")

#: The client whose called decoders define "decodable".
CLIENT_CLASS = "RemoteEngineClient"

#: ALL-CAPS ints in wire.py that are not frame kinds.
NON_KIND_CONSTANTS = frozenset({"WIRE_VERSION", "MAX_FRAME_BYTES"})


def _module_int_constants(tree: ast.Module) -> dict[str, tuple[int, int]]:
    """``{NAME: (value, lineno)}`` for module-level ALL-CAPS int assignments."""
    constants: dict[str, tuple[int, int]] = {}
    for stmt in tree.body:
        if not isinstance(stmt, ast.Assign):
            continue
        targets: list[ast.expr] = []
        for target in stmt.targets:
            targets.extend(target.elts if isinstance(target, ast.Tuple) else [target])
        values = (
            stmt.value.elts if isinstance(stmt.value, ast.Tuple) else [stmt.value]
        )
        if len(targets) != len(values):
            continue
        for target, value in zip(targets, values):
            if (
                isinstance(target, ast.Name)
                and target.id.isupper()
                and isinstance(value, ast.Constant)
                and isinstance(value.value, int)
                and not isinstance(value.value, bool)
            ):
                constants[target.id] = (value.value, stmt.lineno)
    return constants


def _wire_names_used(node: ast.AST, names: set[str]) -> set[str]:
    """Which of ``names`` appear as ``wire.<NAME>`` or bare ``NAME`` refs."""
    used: set[str] = set()
    for child in ast.walk(node):
        dotted = dotted_name(child)
        if dotted is None:
            continue
        last = dotted.rsplit(".", 1)[-1]
        if last in names and (dotted == last or dotted == f"wire.{last}"):
            used.add(last)
    return used


class WireChecker:
    """Every frame kind dispatched by the server, decodable by the client."""

    name = "wire"
    rules = (RULE,)

    def __init__(
        self,
        wire_module: str = WIRE_MODULE,
        net_module: str = NET_MODULE,
        server_handler: tuple[str, str] = SERVER_HANDLER,
        client_class: str = CLIENT_CLASS,
        non_kind_constants: frozenset[str] = NON_KIND_CONSTANTS,
    ) -> None:
        self.wire_module = wire_module
        self.net_module = net_module
        self.server_handler = server_handler
        self.client_class = client_class
        self.non_kind_constants = non_kind_constants

    def run(self, project: Project) -> list[Finding]:
        wire = project.get(self.wire_module)
        net = project.get(self.net_module)
        if wire is None or net is None:
            return []
        findings: list[Finding] = []

        constants = _module_int_constants(wire.tree)
        kinds = {
            name: value_line
            for name, value_line in constants.items()
            if name not in self.non_kind_constants
        }
        if not kinds:
            return [
                Finding(
                    rule=RULE,
                    path=self.wire_module,
                    line=1,
                    col=0,
                    message="no frame-kind constants found; wirecheck misconfigured",
                )
            ]
        by_value: dict[int, list[str]] = {}
        for name, (value, _) in kinds.items():
            by_value.setdefault(value, []).append(name)
        for value, names in sorted(by_value.items()):
            if len(names) > 1:
                line = min(kinds[name][1] for name in names)
                findings.append(
                    Finding(
                        rule=RULE,
                        path=self.wire_module,
                        line=line,
                        col=0,
                        message=(
                            f"frame kinds {sorted(names)} share wire value "
                            f"{value}; they cannot be distinguished on the wire"
                        ),
                    )
                )

        request_kinds = {
            name for name in kinds if name == "REQUEST" or name.endswith("_REQUEST")
        }
        reply_kinds = set(kinds) - request_kinds

        # ---- server side: every request kind dispatched in the handler.
        handler_cls, handler_func = self.server_handler
        handler = next(
            (
                node
                for qualname, node in iter_functions(net.tree)
                if qualname == f"{handler_cls}.{handler_func}"
            ),
            None,
        )
        if handler is None:
            findings.append(
                Finding(
                    rule=RULE,
                    path=self.net_module,
                    line=1,
                    col=0,
                    message=(
                        f"server handler {handler_cls}.{handler_func} not "
                        "found; update repro.lint.wirecheck"
                    ),
                )
            )
        else:
            dispatched = _wire_names_used(handler, request_kinds)
            for name in sorted(request_kinds - dispatched):
                findings.append(
                    Finding(
                        rule=RULE,
                        path=self.net_module,
                        line=handler.lineno,
                        col=handler.col_offset,
                        message=(
                            f"request frame kind wire.{name} is never "
                            f"dispatched in {handler_cls}.{handler_func}(); "
                            "a client sending it gets an unknown-frame error"
                        ),
                    )
                )

        # ---- client side: every reply kind covered by a called decoder.
        decoder_kinds: dict[str, set[str]] = {}
        for qualname, node in iter_functions(wire.tree):
            if qualname.startswith("decode_") or qualname == "frame_kind":
                decoder_kinds[qualname] = _wire_names_used(node, set(kinds))
        client_class = self.client_class
        client_methods = [
            node
            for qualname, node in iter_functions(net.tree)
            if qualname.startswith(f"{client_class}.")
        ]
        called_decoders: set[str] = set()
        for method in client_methods:
            for child in ast.walk(method):
                if isinstance(child, ast.Call):
                    name = call_name(child)
                    if name is None:
                        continue
                    last = name.rsplit(".", 1)[-1]
                    if last in decoder_kinds:
                        called_decoders.add(last)
        decodable: set[str] = set()
        for decoder in called_decoders:
            decodable |= decoder_kinds[decoder]
        if not client_methods:
            findings.append(
                Finding(
                    rule=RULE,
                    path=self.net_module,
                    line=1,
                    col=0,
                    message=(
                        f"client class {client_class} not found; update "
                        "repro.lint.wirecheck"
                    ),
                )
            )
        else:
            for name in sorted(reply_kinds - decodable):
                line = kinds[name][1]
                findings.append(
                    Finding(
                        rule=RULE,
                        path=self.wire_module,
                        line=line,
                        col=0,
                        message=(
                            f"reply frame kind {name} is not decodable by "
                            f"{client_class}: no wire.decode_* function "
                            "it calls references this kind"
                        ),
                    )
                )
        return findings
