"""Spans and counters around chshlab's public functions, for the traced run.

`Tracer.install()` replaces each function listed in `TRACED` with a wrapper,
both at its module attribute and at every `from ... import` binding inside
the chshlab package, so calls between modules are seen too.  `uninstall()`
puts the originals back.  A span is (name, start, end, parent span, operation
id); spans stay in memory until `dump()` writes them out.  A span's self time
is its duration minus the durations of its direct children (the benchmark is
single-threaded, so children never overlap).
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict

TRACED = {
    "rng": ("uniforms",),
    "sampler": ("sample_pair", "run_experiment"),
    "quantum": ("observable_from_bloch", "joint_distribution", "correlation", "pure_state"),
    "linalg": ("hermitian_eigen", "operator_norm", "commutator"),
    "chsh": ("analyze", "random_scenario", "square_identity_residual", "verify_identity_sign",
             "s_value", "max_s_over_states", "commutator_norms"),
    "sweep": ("optimize_settings", "incompatibility_sweep", "settings_to_scenario"),
    "fileio": ("parse_scenario", "scenario_from_dict", "state_from_spec", "report_to_dict", "dumps"),
    "cli": ("main", "build_parser"),
}
# counted but not timed: called several times inside every analyze, and too
# small for a span to say more than its parent's self time already does
COUNTED = {"chsh": ("chsh_operator",)}
# extra counters read from a call's return value
COUNTERS = {
    "rng.uniforms": {"values": len},
    "sampler.sample_pair": {"shots": lambda r: r.total},
    "sweep.optimize_settings": {"cycles": lambda r: r.cycles,
                                "unconverged": lambda r: int(not r.converged)},
    "fileio.dumps": {"bytes": lambda r: len(r.encode("utf-8"))},
    "cli.main": {"failed": lambda r: int(r != 0)},
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric the tracer reports, with its unit."""
    units = {}
    for module, names in TRACED.items():
        for fn in names:
            key = f"{module}.{fn}"
            units.update({f"{key}.calls": "count", f"{key}.total_s": "s", f"{key}.self_s": "s"})
            for counter in COUNTERS.get(key, {}):
                units[f"{key}.{counter}"] = "bytes" if counter == "bytes" else "count"
    for module, names in COUNTED.items():
        units.update({f"{module}.{fn}.calls": "count" for fn in names})
    units.update({"trace.wall_s": "s", "trace.overhead_s": "s"})
    return units


class Tracer:
    """`op_id()` names the operation in flight, so a span can be tied to it."""

    def __init__(self, op_id):
        self.names: list[str] = []
        self.spans: list[tuple | None] = []  # (name index, start, end, parent, op)
        self.counts: Counter = Counter()
        self.op_id = op_id
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _span_wrapper(self, name: str, fn):
        name_idx = len(self.names)
        self.names.append(name)
        counters = COUNTERS.get(name, {})
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (name_idx, start, end, parent, self.op_id())
            for counter, read in counters.items():
                counts[f"{name}.{counter}"] += read(result)
            return result

        return traced

    def _count_wrapper(self, name: str, fn):
        counts, key = self.counts, f"{name}.calls"

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        package = [m for n, m in sys.modules.items() if n == "chshlab" or n.startswith("chshlab.")]
        for table, make in ((TRACED, self._span_wrapper), (COUNTED, self._count_wrapper)):
            for module, names in table.items():
                mod = sys.modules[f"chshlab.{module}"]
                for fn_name in names:
                    original = getattr(mod, fn_name)
                    wrapper = make(f"{module}.{fn_name}", original)
                    for m in package:
                        for attr, value in list(vars(m).items()):
                            if value is original:
                                setattr(m, attr, wrapper)
                                self._undo.append((m, attr, original))

    def uninstall(self) -> None:
        for m, attr, original in reversed(self._undo):
            setattr(m, attr, original)
        self._undo.clear()

    def metrics(self) -> dict[str, float]:
        calls: Counter = Counter()
        total: defaultdict = defaultdict(float)
        child: defaultdict = defaultdict(float)
        for name_idx, start, end, parent, _ in self.spans:
            calls[name_idx] += 1
            total[name_idx] += end - start
            if parent >= 0:
                child[parent] += end - start
        self_time: defaultdict = defaultdict(float)
        for idx, (name_idx, start, end, _, _) in enumerate(self.spans):
            self_time[name_idx] += (end - start) - child[idx]
        out = {}
        for name_idx, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[name_idx]
            out[f"{name}.total_s"] = total[name_idx]
            out[f"{name}.self_s"] = self_time[name_idx]
        for key in metric_units():
            if not key.startswith("trace."):
                out.setdefault(key, self.counts[key])
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "names": self.names, "spans": self.spans}, fh)
