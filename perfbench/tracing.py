"""Span tracing at periodhecke's module boundaries, for traced runs only.

`Tracer.install` rebinds the package's public functions (every module
global that refers to them, and `CosetTable.index`) to wrappers inside the
process that calls it.  Untraced runs never call it, so they run the
program's own functions.

Each call of a spanned function records (name, start, end, parent, job) on
the process's CPU clock.  The hot leaves are aggregated per parent span
instead, which bounds memory.
Spans stay in memory until `summary`, which gives calls, total and self
time per function; self time is a span's duration minus the time its
child spans and leaves cover.  Counters are read from return values (and,
in the benchmark process, from the CLI's JSON output), never from internal
attributes.
"""

from __future__ import annotations

import sys
from time import process_time as clock

SPANNED = [
    "cli.main",
    "farey.m_of_q",
    "farey.lns",
    "farey.farey_sequence",
    "congruence.coset_table",
    "congruence.rho",
    "hecke.vector_hecke",
    "hecke.phi",
    "hecke.h_tilde",
    "hecke.gen_sm",
    "numeric.three_term_residual",
    "numeric.apply_hecke_numeric",
    "verify.run_all_checks",
]
LEAVES = ["congruence.CosetTable.index", "numeric.slash_eval", "farey.left_neighbor"]
FUNCTIONS = SPANNED + LEAVES
LAYERS = ["cli", "farey", "congruence", "hecke", "numeric", "verify"]
COUNTERS = [
    "cli.output_bytes",
    "farey.chain_steps",
    "congruence.cosets_built",
    "congruence.coset_table.hits",
    "hecke.terms",
    "hecke.cells_nonempty",
    "hecke.cells",
    "numeric.psi_evals",
]


def count_wire(counters, obj):
    """Add the terms (and, for an operator, the cells) of a formal sum or
    operator matrix given in the CLI's JSON wire format."""
    if isinstance(obj, dict):
        cells = [cell for row in obj["entries"] for cell in row]
        counters["hecke.terms"] += sum(len(cell) for cell in cells)
        counters["hecke.cells_nonempty"] += sum(1 for cell in cells if cell)
        counters["hecke.cells"] += len(cells)
    else:
        counters["hecke.terms"] += len(obj)


class Tracer:
    def __init__(self):
        self.spans = []
        self.leaves = {}
        self.stack = []
        self.job = None
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.hecke_results = []
        self._tables = {}

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, fn, after):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.job)
            if after is not None:
                after(result)
            return result

        return wrapper

    def _leaf(self, name, fn):
        leaves, stack = self.leaves, self.stack

        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                key = (stack[-1] if stack else -1, name)
                acc = leaves.get(key)
                if acc is None:
                    leaves[key] = [1, elapsed]
                else:
                    acc[0] += 1
                    acc[1] += elapsed

        return wrapper

    # -- counters from return values ---------------------------------------

    def _after_lns(self, chain):
        self.counters["farey.chain_steps"] += len(chain) - 1

    def _after_coset_table(self, table):
        if id(table) in self._tables:
            self.counters["congruence.coset_table.hits"] += 1
        else:
            # Holding the table keeps its id from being reused.
            self._tables[id(table)] = table
            self.counters["congruence.cosets_built"] += table.mu

    def _counting_psi(self, psi):
        counters = self.counters

        def counted(t):
            counters["numeric.psi_evals"] += 1
            return psi(t)

        return counted

    def _apply_counting(self, fn):
        def apply_hecke_numeric(op, psi, *args, **kwargs):
            return fn(op, self._counting_psi(psi), *args, **kwargs)

        return apply_hecke_numeric

    def count_hecke_results(self):
        """Count the operators returned since the last call, through their
        wire format, then release them."""
        for result in self.hecke_results:
            count_wire(self.counters, result.to_json_obj())
        self.hecke_results.clear()

    # -- installation -----------------------------------------------------

    def install(self):
        """Rebind every traced function of the imported periodhecke modules."""
        modules = [m for k, m in sys.modules.items() if k == "periodhecke" or k.startswith("periodhecke.")]
        after = {
            "farey.lns": self._after_lns,
            "congruence.coset_table": self._after_coset_table,
            "hecke.vector_hecke": self.hecke_results.append,
            "hecke.h_tilde": self.hecke_results.append,
        }
        for name in FUNCTIONS:
            module_name, *owner_path, attr = name.split(".")
            owner = sys.modules.get("periodhecke." + module_name)
            for part in owner_path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if original is None:
                continue
            fn = self._apply_counting(original) if name == "numeric.apply_hecke_numeric" else original
            if name in LEAVES:
                wrapper = self._leaf(name, fn)
            else:
                wrapper = self._span(name, fn, after.get(name))
            if owner_path:
                setattr(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

    # -- reduction --------------------------------------------------------

    def summary(self):
        """Per-function [calls, total seconds, self seconds] and counters."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        for (parent, _), (_, seconds) in self.leaves.items():
            if parent >= 0:
                covered[parent] += seconds
        functions = {name: [0, 0.0, 0.0] for name in FUNCTIONS}
        for index, (name, start, end, _, _) in enumerate(self.spans):
            stats = functions[name]
            stats[0] += 1
            stats[1] += end - start
            stats[2] += end - start - covered[index]
        for (_, name), (calls, seconds) in self.leaves.items():
            stats = functions[name]
            stats[0] += calls
            stats[1] += seconds
            stats[2] += seconds
        return {"functions": functions, "counters": dict(self.counters), "spans": len(self.spans)}


def merge(total, part):
    """Add one process's summary into a running total (None starts one)."""
    if total is None:
        return {
            "functions": {k: list(v) for k, v in part["functions"].items()},
            "counters": dict(part["counters"]),
            "spans": part["spans"],
        }
    for name, stats in part["functions"].items():
        for i, value in enumerate(stats):
            total["functions"][name][i] += value
    for name, value in part["counters"].items():
        total["counters"][name] += value
    total["spans"] += part["spans"]
    return total
