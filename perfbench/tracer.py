"""Outside-in tracing of the ybhecke layers L0-L5.

The tracer replaces public functions and methods of the package's
``poly``, ``hecke``, ``operators``, ``schubert``, ``serialize``, ``report``
and ``cli`` modules with wrappers defined here; the package itself is not
edited.  Every wrapped call is a span (group, start, end, parent).  Spans
are aggregated as they close, so the totals are exact however many calls
there are:

* ``<group>.calls`` and ``<group>.s`` count outermost calls only: a call
  made while a span of the same group is open folds into that span
  (recursion in ``poly_gcd``, ``rename_rf`` calling ``rename_poly``);
* ``layer.<L>.self_s`` is each layer's self time: span durations minus the
  part covered by child spans, summed per layer.

The span log keeps every span except those of the arithmetic groups in
``UNLOGGED`` (tens of thousands per pass); their time still counts.

A target the package no longer has (after a rename or a refactor) is not
traced.  The metrics it feeds, those of its group and its layer's self
time, are then absent rather than 0, so a function that moved does not
read as a layer that got faster.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from collections import Counter, defaultdict

# (group, layer, module, attribute or "Class.method"); several attributes
# may share one group.
TARGETS = (
    ("poly.gcd", "L0", "poly", "poly_gcd"),
    ("poly.rf_mul", "L0", "poly", "RationalFunction.__mul__"),
    ("poly.rf_mul", "L0", "poly", "RationalFunction.__rmul__"),
    ("poly.rf_add", "L0", "poly", "RationalFunction.__add__"),
    ("poly.rf_add", "L0", "poly", "RationalFunction.__radd__"),
    ("poly.rename", "L0", "poly", "rename_poly"),
    ("poly.rename", "L0", "poly", "rename_rf"),
    ("poly.substitute", "L0", "poly", "substitute"),
    ("poly.substitute", "L0", "poly", "substitute_poly"),
    ("poly.format", "L0", "poly", "format_poly"),
    ("poly.format", "L0", "poly", "format_rf"),
    ("hecke.mul", "L1", "hecke", "HeckeElement.__mul__"),
    ("hecke.times_generator", "L1", "hecke", "HeckeElement.times_generator"),
    ("hecke.generator_times", "L1", "hecke", "HeckeElement.generator_times"),
    ("hecke.scale", "L1", "hecke", "HeckeElement.scale"),
    ("hecke.yb_element", "L2", "hecke", "yb_element"),
    ("hecke.yb_basis", "L2", "hecke", "yb_basis"),
    ("hecke.elementary_factor", "L2", "hecke", "elementary_factor"),
    ("hecke.gram_matrix", "L3", "hecke", "gram_matrix"),
    ("hecke.phi", "L3", "hecke", "phi"),
    ("hecke.delta", "L3", "hecke", "delta"),
    ("operators.apply_generator", "L4", "operators", "apply_generator"),
    ("schubert.table", "L4", "schubert", "schubert_table"),
    ("schubert.table", "L4", "schubert", "grothendieck_table"),
    ("schubert.specialize", "L4", "schubert", "specialize_double"),
    ("schubert.specialize", "L4", "schubert", "_specialize_swapped"),
    ("schubert.verify", "L5", "schubert", "verify_schubert_transition"),
    ("serialize.json", "L5", "serialize", "poly_to_json"),
    ("serialize.json", "L5", "serialize", "rf_to_json"),
    ("report.record", "L5", "report", "CheckReport.record"),
    ("cli.yb_along_word", "L2", "cli", "yb_element_along_word"),
    ("cli.run_suite", "L5", "cli", "run_suite"),
    ("cli.cmd_table", "L5", "cli", "cmd_table"),
)
LAYERS = ("L0", "L1", "L2", "L3", "L4", "L5")
UNLOGGED = frozenset({"poly.rf_mul", "poly.rf_add", "poly.gcd", "report.record"})
# Groups whose return values are Yang-Baxter elements, sized in the trace.
_YB_GROUPS = ("hecke.yb_element", "hecke.yb_basis")


class Tracer:
    """Span stack, aggregates and span log of one traced pass."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.origin = self.clock()
        self.stack: list[list] = []  # [group, layer, start, child_s, log_id]
        self.open_groups: Counter = Counter()
        self.calls: Counter = Counter()
        self.seconds: defaultdict = defaultdict(float)
        self.layer_self: defaultdict = defaultdict(float)
        self.log: list[tuple] = []
        self.returned: list = []  # Yang-Baxter results, sized after the pass
        self.skipped: list[tuple] = []  # targets the package does not have
        self._saved: list[tuple] = []

    # -- spans -----------------------------------------------------------

    def enter(self, group: str, layer: str) -> list:
        parent = self.stack[-1][4] if self.stack else -1
        log_id = parent
        if group not in UNLOGGED:
            log_id = len(self.log)
            self.log.append([group, parent, 0.0, 0.0])
        self.open_groups[group] += 1
        frame = [group, layer, self.clock(), 0.0, log_id]
        self.stack.append(frame)
        return frame

    def exit(self, frame: list) -> None:
        """Close ``frame`` and any span still open inside it (one whose
        exit a deadline signal cut off)."""
        end = self.clock()
        while True:
            top = self.stack.pop()
            group, layer, start, child_s, log_id = top
            duration = end - start
            self.layer_self[layer] += duration - child_s
            self.open_groups[group] -= 1
            if not self.open_groups[group]:
                self.calls[group] += 1
                self.seconds[group] += duration
            if group not in UNLOGGED:
                self.log[log_id][2:] = (start - self.origin, end - self.origin)
            if self.stack:
                self.stack[-1][3] += duration
            if top is frame:
                return

    @contextlib.contextmanager
    def span(self, group: str, layer: str):
        """A span around a block of the benchmark's own code."""
        frame = self.enter(group, layer)
        try:
            yield
        finally:
            self.exit(frame)

    # -- wrapping --------------------------------------------------------

    def _wrap(self, group: str, layer: str, fn):
        enter, exit_ = self.enter, self.exit
        keep = self.returned.append if group in _YB_GROUPS else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = enter(group, layer)
            try:
                out = fn(*args, **kwargs)
            finally:
                exit_(frame)
            if keep is not None:
                keep(out)
            return out

        return traced

    def install(self) -> None:
        """Wrap every target, in its module and wherever it was imported.

        A target the package no longer has goes to ``skipped``.
        """
        importlib.import_module("ybhecke")
        modules = [
            m for name, m in sys.modules.items()
            if name == "ybhecke" or name.startswith("ybhecke.")
        ]
        for group, layer, mod_name, attr in TARGETS:
            mod = importlib.import_module(f"ybhecke.{mod_name}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(mod, cls_name, None)
                original = vars(owner).get(meth) if owner is not None else None
                if original is None:
                    self.skipped.append((group, layer, mod_name, attr))
                else:
                    self._patch(owner, meth, self._wrap(group, layer, original))
                continue
            original = getattr(mod, attr, None)
            if original is None:
                self.skipped.append((group, layer, mod_name, attr))
                continue
            wrapped = self._wrap(group, layer, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, key, wrapped)

    def _patch(self, owner, key: str, value) -> None:
        self._saved.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        while self._saved:
            owner, key, value = self._saved.pop()
            setattr(owner, key, value)

    # -- output ----------------------------------------------------------

    def _sizes(self) -> tuple[int, int]:
        """Most terms (numerator plus denominator) and most bits of one
        integer over the coefficients of every returned element."""
        from ybhecke.serialize import rf_to_json  # call after uninstall()

        max_terms = max_bits = 0
        for out in self.returned:
            for h in out.values() if isinstance(out, dict) else [out]:
                for c in h.coeffs.values():
                    data = rf_to_json(c)
                    terms = data["num"] + data["den"]
                    max_terms = max(max_terms, len(terms))
                    for t in terms:
                        p, _, q = t["coeff"].lstrip("-").partition("/")
                        bits = max(int(p).bit_length(), int(q or 1).bit_length())
                        max_bits = max(max_bits, bits)
        return max_terms, max_bits

    def untraced(self) -> list[str]:
        """The skipped targets, as ``ybhecke.<module>.<attribute>``."""
        return [f"ybhecke.{t[2]}.{t[3]}" for t in self.skipped]

    def absent(self) -> set[str]:
        """Names of the metrics a skipped target leaves incomplete."""
        out = set()
        for group, layer, _, _ in self.skipped:
            out |= {f"{group}.calls", f"{group}.s", f"layer.{layer}.self_s"}
            if group in _YB_GROUPS:
                out |= {"hecke.yb.max_terms", "hecke.yb.max_coeff_bits"}
        return out

    def metrics(self) -> dict[str, float]:
        """Aggregates of the pass, without the absent ones; call after
        uninstall()."""
        out: dict[str, float] = {}
        for group in sorted({t[0] for t in TARGETS} | set(self.calls)):
            out[f"{group}.calls"] = self.calls[group]
            if group != "report.record":
                out[f"{group}.s"] = self.seconds[group]
        for layer in LAYERS:
            out[f"layer.{layer}.self_s"] = self.layer_self[layer]
        out["hecke.yb.max_terms"], out["hecke.yb.max_coeff_bits"] = self._sizes()
        out["trace.spans_logged"] = len(self.log)
        absent = self.absent()
        return {k: v for k, v in out.items() if k not in absent}

    def write_log(self, path) -> None:
        """One JSON line per logged span: [id, parent, group, start_s, end_s]."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (group, parent, start, end) in enumerate(self.log):
                fh.write(json.dumps([i, parent, group, round(start, 7), round(end, 7)]))
                fh.write("\n")
