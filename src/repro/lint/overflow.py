"""Overflow-bound analysis of the fixed-point multiply/accumulate chains.

The datapath does all arithmetic in int64 and proves, per site, that the
worst-case intermediate magnitude stays below ``2**63`` for the declared
Q16.16 operand ranges.  This checker makes those proofs *load-bearing*: it
enumerates every arithmetic site (``@``, ``*``, ``+``, ``-``, ``<<``,
``+=``-family, the ``fmt.multiply*``/``reduceat`` calls, and NumPy's call
spellings of the same work: ``einsum``, ``dot``, ``matmul``, ``tensordot``,
``inner``, ``add``, ``subtract``, ``left_shift`` and the reductions ``sum``,
``cumsum``, ``prod``, ``cumprod``, ``reduce``, ``accumulate``, as functions
or as methods of any expression) in the scoped datapath functions and
requires each to match an entry of :data:`PROOFS` --
a reviewed ledger carrying the worst-case magnitude bound, the proof sketch,
and the source fragments (runtime gates, constructor guards) the proof
depends on.

- a site with no ledger entry reports ``overflow-unproven`` (new arithmetic
  must arrive with a proof);
- a ledger entry whose ``requires`` fragment disappeared from the module
  reports ``overflow-unproven`` too (the gate the proof leaned on is gone);
- a ledger entry matching no site reports ``overflow-stale-proof``;
- a proof whose bound does not fit int64 reports ``int64-overflow``.

Matching is by ``(path, function, ast.unparse(site))``, so any edit to a
proven expression -- however small -- re-opens the proof obligation.  The
per-site worst-case magnitudes (in bits) and remaining int64 headroom are
exported in the JSON report (``overflow_report``).

Proof conventions (Q16.16: word length ``w = 32``, in-range ``|raw| <=
2**31``, fast-multiply guard ``g = 8`` so operands to ``fmt.multiply`` may
reach ``2**39``; int64 wraps at ``2**63``):

- ``bounded``  -- magnitude bound follows from declared operand ranges;
- ``gated``    -- a runtime/constructor check (named in ``requires``)
                  reroutes to an exact path before the bound can fail;
- ``planned``  -- the bound is enforced by ``_plan_multiply``'s strategy
                  selection at format-construction time;
- ``python-int``   -- Python scalar integers (arbitrary precision);
- ``exact-object`` -- NumPy ``object`` arrays of Python ints (exact).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from repro.lint.astutil import call_name, iter_functions
from repro.lint.findings import Finding
from repro.lint.runner import Project

__all__ = [
    "OverflowChecker",
    "SiteProof",
    "OVERFLOW_SCOPE",
    "PROOFS",
    "RULE_OVERFLOW",
    "RULE_STALE",
    "RULE_UNPROVEN",
]

RULE_UNPROVEN = "overflow-unproven"
RULE_OVERFLOW = "int64-overflow"
RULE_STALE = "overflow-stale-proof"

#: int64 magnitudes must stay strictly below 2**63.
_INT64_BITS = 63

#: Functions whose arithmetic is part of the integer datapath and must be
#: covered by the proof ledger, per file.
OVERFLOW_SCOPE: dict[str, frozenset[str]] = {
    "src/repro/fpga/modules.py": frozenset(
        {
            "AverageModule.forward",
            "AverageModule._slot_sums",
            "NormalizeModule.forward",
            "MatchedFilterModule.forward",
            "DenseLayerModule.forward",
            "ThresholdModule.forward",
        }
    ),
    "src/repro/fpga/emulator.py": frozenset(
        {
            "FpgaStudentEmulator._saturate_input",
            "FpgaStudentEmulator._features_trusted",
            "FpgaStudentEmulator._predict_chunk_trusted",
            "FpgaStudentEmulator._predict_chunked",
            "FpgaStudentEmulator.predict_logits_from_raw",
        }
    ),
    "src/repro/fpga/fixed_point.py": frozenset(
        {
            "FixedPointFormat._saturate",
            "FixedPointFormat.add",
            "FixedPointFormat.multiply",
            "FixedPointFormat.multiply_exact_reference",
            "FixedPointFormat.mac_static_bound",
            "FixedPointFormat.multiply_accumulate",
            "FixedPointFormat.multiply_accumulate_exact_reference",
            "FixedPointFormat.shift_right",
        }
    ),
}

#: Binary/augmented ops that can grow magnitude (right shifts and bit masks
#: only shrink it and are exempt).
_TRACKED_OPS = (ast.Add, ast.Sub, ast.Mult, ast.MatMult, ast.LShift)

#: Call names (last dotted component) that perform multiply/accumulate work:
#: the format's own arithmetic, and NumPy's call spellings of the tracked
#: operators (``np.add`` is ``+``, ``np.einsum`` a MAC like ``@``,
#: ``.sum()`` and ``np.add.reduce`` a chain of ``+``, ...).
_ARITH_CALLS = {
    "multiply",
    "multiply_exact_reference",
    "multiply_accumulate",
    "multiply_accumulate_exact_reference",
    "reduceat",
    "einsum",
    "dot",
    "matmul",
    "tensordot",
    "inner",
    "add",
    "subtract",
    "left_shift",
    "sum",
    "cumsum",
    "prod",
    "cumprod",
    "reduce",
    "accumulate",
}


@dataclass(frozen=True)
class SiteProof:
    """One reviewed overflow bound for one arithmetic site."""

    kind: str
    worst_bits: int
    note: str
    #: Source fragments the proof leans on: runtime gates, constructor
    #: guards.  A plain fragment is checked against the site's own module;
    #: ``"relpath::fragment"`` pins a gate living in another file (e.g. a
    #: modules.py call site relying on fixed_point.py's MAC gate).  If any
    #: fragment disappears the proof is void and the site reports as
    #: unproven again.
    requires: tuple[str, ...] = ()

    @property
    def headroom_bits(self) -> int:
        return _INT64_BITS - self.worst_bits


_MOD = "src/repro/fpga/modules.py"
_EMU = "src/repro/fpga/emulator.py"
_FXP = "src/repro/fpga/fixed_point.py"

#: The proof ledger: (path, function, unparsed expression) -> proof.
PROOFS: dict[tuple[str, str, str], SiteProof] = {
    # ------------------------------------------------------- AverageModule
    (
        _MOD,
        "AverageModule.forward",
        "n_intervals * self.samples_per_interval",
    ): SiteProof(
        kind="python-int",
        worst_bits=0,
        note="window-count arithmetic on Python scalars",
    ),
    (
        _MOD,
        "AverageModule.forward",
        "np.add.reduceat(trace_raw[:, :usable, :], boundaries, axis=1, dtype=np.int64)",
    ): SiteProof(
        kind="bounded",
        worst_bits=62,
        note=(
            "adder tree: |sum| <= S * 2**(w-1) <= 2**61 with S <= 2**(62-w) "
            "enforced at construction; dtype=np.int64 makes reduceat "
            "accumulate in int64 when it reads an int32 carrier"
        ),
        requires=("samples_per_interval > (1 << (_INT64_SAFE_BITS - fmt.word_length))",),
    ),
    # AverageModule._slot_sums: the many-window adder tree as slot adds.
    (_MOD, "AverageModule._slot_sums", "start + _SLOT_ADD_BLOCK"): SiteProof(
        kind="python-int",
        worst_bits=0,
        note="block index arithmetic on Python scalars",
    ),
    (
        _MOD,
        "AverageModule._slot_sums",
        "np.add(block[:, :, 0, channel], block[:, :, 1, channel], out=acc, dtype=np.int64)",
    ): SiteProof(
        kind="bounded",
        worst_bits=62,
        note=(
            "first two slots of a window: |a + b| <= 2 * 2**(w-1); two slots "
            "need S >= 2, which the constructor guard S <= 2**(62-w) allows "
            "only for w <= 61, so the sum is <= 2**61, formed in int64 by "
            "dtype=np.int64 from the int32 carrier"
        ),
        requires=("samples_per_interval > (1 << (_INT64_SAFE_BITS - fmt.word_length))",),
    ),
    (_MOD, "AverageModule._slot_sums", "acc += block[:, :, slot, channel]"): SiteProof(
        kind="bounded",
        worst_bits=62,
        note=(
            "running window sum into the int64 accumulator: after k of S "
            "slots |acc| <= S * 2**(w-1) <= 2**61 by the constructor guard"
        ),
        requires=("samples_per_interval > (1 << (_INT64_SAFE_BITS - fmt.word_length))",),
    ),
    (
        _MOD,
        "AverageModule.forward",
        "self.fmt.multiply(sums, np.int64(self.reciprocal_raw))",
    ): SiteProof(
        kind="gated",
        worst_bits=40,
        note=(
            "_scale_exactly admits the fast multiply only when S <= 2**guard "
            "(2**8), so |sums| <= 2**39 -- inside the guard headroom the "
            "multiply is exact and internally int64-safe for"
        ),
        requires=("self._scale_exactly",),
    ),
    (
        _MOD,
        "AverageModule.forward",
        "self.fmt.multiply_exact_reference(sums, np.int64(self.reciprocal_raw))",
    ): SiteProof(
        kind="exact-object",
        worst_bits=62,
        note=(
            "big-integer reference path; the int64 inputs are the adder-tree "
            "sums bounded by 2**61, the products live in object arrays"
        ),
    ),
    # ----------------------------------------------------- NormalizeModule
    (
        _MOD,
        "NormalizeModule.forward",
        "features_raw - self.minimum_raw[None, :]",
    ): SiteProof(
        kind="bounded",
        worst_bits=33,
        note="in-range minus in-range: |a| + |b| <= 2**31 + 2**31 = 2**32",
    ),
    (
        _MOD,
        "NormalizeModule.forward",
        "centered[:, left] << self._left_shift[None, :]",
    ): SiteProof(
        kind="bounded",
        worst_bits=62,
        note=(
            "|centered| <= 2**32 and the constructor bounds left shifts to "
            "62 - (w+1) = 29 bits, so |shifted| <= 2**61 before np.clip"
        ),
        requires=("int(self._left_shift.max()) > max_left",),
    ),
    # -------------------------------------------------- MatchedFilterModule
    (
        _MOD,
        "MatchedFilterModule.forward",
        "self.fmt.multiply_accumulate(window, flat_envelope, static_bound=self._mac_bound)",
    ): SiteProof(
        kind="gated",
        worst_bits=62,
        note=(
            "multiply_accumulate takes the int64 path only when the static "
            "accumulator bound (sum|envelope| * 2**31, computed at "
            "construction) is below 2**62; larger envelopes reroute to the "
            "exact big-integer MAC.  The int32 window holds saturated "
            "samples, so the bound's |input| <= 2**31 holds"
        ),
        requires=(f"{_FXP}::static_bound < (1 << _INT64_SAFE_BITS)",),
    ),
    (_MOD, "MatchedFilterModule.forward", "scores -= self.threshold_raw"): SiteProof(
        kind="bounded",
        worst_bits=33,
        note="saturated MAC output minus in-range threshold: <= 2**31 + 2**31",
    ),
    (
        _MOD,
        "MatchedFilterModule.forward",
        "self.fmt.multiply(scores, np.int64(self.scale_reciprocal_raw))",
    ): SiteProof(
        kind="bounded",
        worst_bits=33,
        note=(
            "operands are <= 2**32 (offset scores) and <= 2**31 (reciprocal), "
            "both inside the 2**39 fast-multiply guard headroom"
        ),
    ),
    # ----------------------------------------------------- DenseLayerModule
    (_MOD, "DenseLayerModule.forward", "inputs_raw @ self.weights_raw"): SiteProof(
        kind="gated",
        worst_bits=62,
        note=(
            "every partial sum is bounded by the per-neuron static MAC bound; "
            "_vectorized admits the int64 matmul only when that bound is "
            "below 2**62, else the layer uses the exact big-integer MAC"
        ),
        requires=("self._vectorized",),
    ),
    (
        _MOD,
        "DenseLayerModule.forward",
        "outputs += self.biases_raw[None, :]",
    ): SiteProof(
        kind="bounded",
        worst_bits=47,
        note=(
            "post-shift accumulator <= 2**(62-16) = 2**46 plus an in-range "
            "bias <= 2**31: < 2**47"
        ),
    ),
    (
        _MOD,
        "DenseLayerModule.forward",
        "self.fmt.multiply_accumulate_exact_reference(inputs_raw, "
        "self.weights_raw[:, neuron], bias=int(self.biases_raw[neuron]))",
    ): SiteProof(
        kind="exact-object",
        worst_bits=0,
        note="exact big-integer MAC fallback: products live in object arrays",
    ),
    # ----------------------------------------------------------- emulator
    (_EMU, "FpgaStudentEmulator._predict_chunked", "n_shots * n_outputs"): SiteProof(
        kind="python-int",
        worst_bits=0,
        note="shape arithmetic on Python scalars (arbitrary precision)",
    ),
    (_EMU, "FpgaStudentEmulator._predict_chunked", "start + _BATCH_CHUNK"): SiteProof(
        kind="python-int",
        worst_bits=0,
        note="chunk index arithmetic on Python scalars",
    ),
    (_EMU, "FpgaStudentEmulator._predict_chunked", "start * n_outputs"): SiteProof(
        kind="python-int",
        worst_bits=0,
        note="output-slice index arithmetic on Python scalars",
    ),
    (_EMU, "FpgaStudentEmulator._predict_chunked", "stop * n_outputs"): SiteProof(
        kind="python-int",
        worst_bits=0,
        note="output-slice index arithmetic on Python scalars",
    ),
    # -------------------------------------------------------- fixed_point
    (
        _FXP,
        "FixedPointFormat.add",
        "np.asarray(a, dtype=np.int64) + np.asarray(b, dtype=np.int64)",
    ): SiteProof(
        kind="bounded",
        worst_bits=33,
        note=(
            "in-range operands: <= 2 * 2**(w-1) = 2**w; 2**32 for Q16.16 and "
            "at most 2**62 for the widest legal format (w <= 62)"
        ),
    ),
    (_FXP, "FixedPointFormat.multiply", "a * b"): SiteProof(
        kind="planned",
        worst_bits=63,
        note=(
            "direct mode is selected by _plan_multiply only when "
            "2*(w-1+guard) <= 62, so |a*b| <= 2**62 for operands within the "
            "guard headroom (Q16.16 uses limb mode; this branch serves "
            "narrow formats)"
        ),
        requires=("direct_guard = (_INT64_SAFE_BITS - 2 * (w - 1)) // 2",),
    ),
    (_FXP, "FixedPointFormat.multiply", "self.scale - 1"): SiteProof(
        kind="python-int",
        worst_bits=0,
        note="limb mask construction on Python scalars",
    ),
    (_FXP, "FixedPointFormat.multiply", "big * lo"): SiteProof(
        kind="bounded",
        worst_bits=56,
        note=(
            "low-limb partial: |big| <= 2**(w-1+guard) = 2**39 and "
            "0 <= lo < 2**16, so |big*lo| < 2**55"
        ),
    ),
    (_FXP, "FixedPointFormat.multiply", "result += big * hi"): SiteProof(
        kind="bounded",
        worst_bits=63,
        note=(
            "high-limb accumulate: |big*hi| <= 2**39 * 2**23 = 2**62 plus the "
            "shifted low partial <= 2**39; 2**62 + 2**39 < 2**63 exactly as "
            "_plan_multiply's limb_guard equation requires"
        ),
        requires=("limb_guard = min(",),
    ),
    (_FXP, "FixedPointFormat.multiply", "lo * big"): SiteProof(
        kind="bounded",
        worst_bits=56,
        note="array low-limb partial, same bound as the scalar split: < 2**55",
    ),
    (_FXP, "FixedPointFormat.multiply", "result += hi * big"): SiteProof(
        kind="bounded",
        worst_bits=63,
        note="array high-limb accumulate: 2**62 + 2**39 < 2**63 (see scalar split)",
        requires=("limb_guard = min(",),
    ),
    (
        _FXP,
        "FixedPointFormat.multiply_exact_reference",
        "a.astype(object) * b.astype(object)",
    ): SiteProof(
        kind="exact-object",
        worst_bits=0,
        note="the big-integer oracle: products live in object arrays",
    ),
    (
        _FXP,
        "FixedPointFormat.multiply",
        "self.multiply_exact_reference(a, b, strict=strict)",
    ): SiteProof(
        kind="exact-object",
        worst_bits=0,
        note="reference-mode fallback: products live in object arrays",
    ),
    (
        _FXP,
        "FixedPointFormat.mac_static_bound",
        "abs_sum * (1 << self.word_length - 1)",
    ): SiteProof(
        kind="python-int",
        worst_bits=0,
        note="bound computation on Python scalars (abs_sum is a Python int)",
    ),
    (
        _FXP,
        "FixedPointFormat.mac_static_bound",
        "np.abs(weights.astype(object)).sum()",
    ): SiteProof(
        kind="exact-object",
        worst_bits=0,
        note=(
            "sum of |weights| over an object array of Python ints (abs taken "
            "after the cast, so INT64_MIN reads as 2**63, not as itself)"
        ),
    ),
    (
        _FXP,
        "FixedPointFormat.multiply_accumulate",
        "max_abs_input * max_abs_weight * max(n, 1)",
    ): SiteProof(
        kind="python-int",
        worst_bits=0,
        note="dynamic bound probe on Python scalars",
    ),
    (
        _FXP,
        "FixedPointFormat.multiply_accumulate",
        "1 << _INT64_SAFE_BITS",
    ): SiteProof(
        kind="python-int",
        worst_bits=0,
        note="the 2**62 gate threshold itself (a Python scalar)",
    ),
    (
        _FXP,
        "FixedPointFormat.multiply_accumulate",
        "np.einsum('ij,j->i', inputs, weights, dtype=np.int64)",
    ): SiteProof(
        kind="gated",
        worst_bits=62,
        note=(
            "every partial sum is bounded by static_bound (callers pass "
            "mac_static_bound or it is probed above; both take magnitudes "
            "as Python ints, so INT64_MIN/INT32_MIN cannot read as a "
            "negative magnitude); the int64 einsum runs only when "
            "static_bound < 2**62, and dtype=np.int64 forms every product "
            "and sum in int64 whatever the operand dtypes"
        ),
        requires=(
            "static_bound < (1 << _INT64_SAFE_BITS)",
            "max(-int(values.min()), int(values.max()))",
            "np.abs(weights.astype(object))",
        ),
    ),
    (
        _FXP,
        "FixedPointFormat.multiply_accumulate",
        "self.multiply_accumulate_exact_reference(inputs, weights, bias=bias, strict=strict)",
    ): SiteProof(
        kind="exact-object",
        worst_bits=0,
        note="over-bound MACs reroute here: products live in object arrays",
    ),
    (
        _FXP,
        "FixedPointFormat.multiply_accumulate",
        "accumulator += int(bias)",
    ): SiteProof(
        kind="bounded",
        worst_bits=47,
        note=(
            "post-shift accumulator <= 2**(62-16) = 2**46 plus an in-range "
            "raw bias <= 2**31: < 2**47 (callers pass quantized biases)"
        ),
    ),
    (
        _FXP,
        "FixedPointFormat.multiply_accumulate_exact_reference",
        "(inputs.astype(object) * weights.astype(object)).sum(axis=1)",
    ): SiteProof(
        kind="exact-object",
        worst_bits=0,
        note="the big-integer MAC oracle: products and their sums live in object arrays",
    ),
    (
        _FXP,
        "FixedPointFormat.multiply_accumulate_exact_reference",
        "int(v) // self.scale + int(bias)",
    ): SiteProof(
        kind="python-int",
        worst_bits=0,
        note="per-element shift+bias on Python scalars",
    ),
}


@dataclass
class _Site:
    path: str
    where: str
    expr: str
    line: int
    col: int


class _SiteCollector(ast.NodeVisitor):
    """Collect topmost arithmetic nodes (no descent into a recorded site)."""

    def __init__(self, path: str, where: str) -> None:
        self.path = path
        self.where = where
        self.sites: list[_Site] = []

    def _record(self, node: ast.AST) -> None:
        self.sites.append(
            _Site(
                path=self.path,
                where=self.where,
                expr=ast.unparse(node),
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0),
            )
        )

    def visit_BinOp(self, node: ast.BinOp) -> None:
        if isinstance(node.op, _TRACKED_OPS):
            self._record(node)
            return
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if isinstance(node.op, _TRACKED_OPS):
            self._record(node)
            return
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        # The callee's last name, whatever it is called on: a method of any
        # expression (``(a * b).sum()``, ``x[:, :n].dot(w)``) counts too.
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else call_name(node)
        if name is not None and name.rsplit(".", 1)[-1] in _ARITH_CALLS:
            self._record(node)
            return
        self.generic_visit(node)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        pass  # nested defs get their own scope entry if listed

    visit_AsyncFunctionDef = visit_FunctionDef


class OverflowChecker:
    """Require a reviewed int64 bound for every datapath arithmetic site."""

    name = "overflow"
    rules = (RULE_UNPROVEN, RULE_OVERFLOW, RULE_STALE)

    def __init__(
        self,
        scope: dict[str, frozenset[str]] | None = None,
        proofs: dict[tuple[str, str, str], SiteProof] | None = None,
    ) -> None:
        self.scope = OVERFLOW_SCOPE if scope is None else scope
        self.proofs = PROOFS if proofs is None else proofs
        #: Exported per-site report (filled by :meth:`run`).
        self.site_report: list[dict] = []

    def run(self, project: Project) -> list[Finding]:
        findings: list[Finding] = []
        self.site_report = []
        matched_keys: set[tuple[str, str, str]] = set()
        for path, functions in self.scope.items():
            module = project.get(path)
            if module is None:
                continue
            seen: set[str] = set()
            for qualname, node in iter_functions(module.tree):
                if qualname not in functions:
                    continue
                seen.add(qualname)
                collector = _SiteCollector(path, qualname)
                for stmt in node.body:
                    collector.visit(stmt)
                for site in collector.sites:
                    findings.extend(self._judge(site, project, matched_keys))
            for qualname in functions - seen:
                findings.append(
                    Finding(
                        rule=RULE_STALE,
                        path=path,
                        line=1,
                        col=0,
                        message=(
                            f"scoped function {qualname} not found; update "
                            "repro.lint.overflow.OVERFLOW_SCOPE"
                        ),
                    )
                )
        for key, proof in self.proofs.items():
            path, where, expr = key
            if key not in matched_keys and project.get(path) is not None:
                findings.append(
                    Finding(
                        rule=RULE_STALE,
                        path=path,
                        line=1,
                        col=0,
                        message=(
                            f"stale overflow proof for '{expr}' in {where}: "
                            "no matching arithmetic site (remove or update "
                            "the PROOFS entry)"
                        ),
                    )
                )
        return findings

    def _judge(
        self, site: _Site, project: Project, matched_keys: set[tuple[str, str, str]]
    ) -> list[Finding]:
        key = (site.path, site.where, site.expr)
        proof = self.proofs.get(key)
        if proof is None:
            return [
                Finding(
                    rule=RULE_UNPROVEN,
                    path=site.path,
                    line=site.line,
                    col=site.col,
                    message=(
                        f"no overflow proof for '{site.expr}' in {site.where}; "
                        "bound the int64 intermediates and register the proof "
                        "in repro.lint.overflow.PROOFS"
                    ),
                )
            ]
        matched_keys.add(key)
        findings: list[Finding] = []
        for fragment in proof.requires:
            if "::" in fragment:
                gate_path, fragment = fragment.split("::", 1)
            else:
                gate_path = site.path
            gate_module = project.get(gate_path)
            if gate_module is None or fragment not in gate_module.source:
                findings.append(
                    Finding(
                        rule=RULE_UNPROVEN,
                        path=site.path,
                        line=site.line,
                        col=site.col,
                        message=(
                            f"overflow proof for '{site.expr}' in {site.where} "
                            f"relies on the gate '{fragment}', which is gone; "
                            "re-prove the bound"
                        ),
                    )
                )
        if proof.worst_bits > _INT64_BITS:
            findings.append(
                Finding(
                    rule=RULE_OVERFLOW,
                    path=site.path,
                    line=site.line,
                    col=site.col,
                    message=(
                        f"worst-case magnitude 2**{proof.worst_bits - 1} at "
                        f"'{site.expr}' in {site.where} does not fit int64"
                    ),
                )
            )
        self.site_report.append(
            {
                "path": site.path,
                "where": site.where,
                "line": site.line,
                "expr": site.expr,
                "kind": proof.kind,
                "worst_bits": proof.worst_bits,
                "headroom_bits": proof.headroom_bits,
                "status": "proven" if not findings else "violated",
                "note": proof.note,
            }
        )
        return findings
