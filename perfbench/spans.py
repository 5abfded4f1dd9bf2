"""Span recording around calls into the package's public functions.

The package itself carries no instrumentation: :func:`install` replaces
chosen public functions with timing wrappers in every module namespace that
binds them, so a name imported with ``from .x import f`` is wrapped in the
importing module too.  Spans live in flat arrays while a round runs; the
per-layer metrics are derived from them afterwards.
"""

from __future__ import annotations

import functools
import json
from array import array
from math import prod
from time import perf_counter


def _sweep_size(args, kwargs, result):
    cfg = args[0]
    indices = kwargs.get("indices", args[2] if len(args) > 2 else None)
    if indices is None:
        indices = range(1, cfg.m + 1)
    g_members, gw_members = result
    return {
        "oracle.vectors_classified": prod(cfg.p ** cfg.e_i(i) for i in indices),
        "oracle.members_G": len(g_members),
        "oracle.members_G_omega": len(gw_members),
    }


def _hnf_rows(args, kwargs, result):
    return {"abelian.hnf_rows": len(args[0])}


# (module, function, span name, extra counters or None).  Every binding of
# the function object in any package module is wrapped, except where
# SPAN_SITES below restricts it.
TARGETS = [
    ("cli", "main", "cli.main", None),
    ("cli", "make_parser", "cli.parse", None),
    ("cli", "parse_document", "cli.parse", None),
    ("cli", "parse_abstract", "cli.parse", None),
    ("cli", "parse_kummer", "cli.parse", None),
    ("cli", "build_report", "cli.report", None),
    ("cli", "compute_component", "cli.report", None),
    ("cli", "print_report", "cli.report", None),
    ("kummer", "build_kummer", "kummer.build", None),
    ("kummer", "decomposition_place", "kummer.place", None),
    ("kummer", "is_fourth_power_local", "kummer.local_test", None),
    ("fields", "validate_and_normalize", "fields.normalize", None),
    ("places", "generic_place_candidates", "places.cyclic_candidates", None),
    ("places", "sigma_threshold", "places.threshold", None),
    ("places", "locally_cyclic", "places.locally_cyclic", None),
    ("places", "fail_set", "places.fail_set", None),
    ("oracle", "enumerate_members", "oracle.sweep", _sweep_size),
    ("oracle", "compute_G_and_Gomega", "oracle.span", None),
    ("oracle", "subtorus_groups", "oracle.span", None),
    ("oracle", "quotient_by_D", "oracle.span", None),
    ("oracle", "oracle_report", "oracle.span", None),
    ("abelian", "hermite_normal_form", "abelian.hnf", _hnf_rows),
    ("abelian", "left_kernel", "abelian.left_kernel", None),
    ("abelian", "smith_invariants", "abelian.snf", None),
    ("structure", "assemble", "structure.assemble", None),
    ("structure", "check_monotone_scans", "structure.monotone_check", None),
    ("selftest", "random_config", "selftest.generate", None),
    ("selftest", "check_invariants", "selftest.invariants", None),
]

# `sigma_threshold` is wrapped only where the oracle's classification
# context binds it.  The literal membership path inside `places` calls it
# millions of times per selftest round through `sigma_contains`; that whole
# path is timed as one `places.fail_set` span per call instead.
SPAN_SITES = {"sigma_threshold": ("oracle",)}


class Tracer:
    """Spans of one round: name id, start, end, parent index, operation id."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("q")
        self.counters: dict[str, int] = {}
        self.current_op = -1
        self._stack: list[int] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn, extra=None):
        name_id = self._name_id(name)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(name_id)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.current_op)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                stack.pop()
            if extra is not None:
                for key, value in extra(args, kwargs, result).items():
                    self.counters[key] = self.counters.get(key, 0) + value
            return result

        return traced

    def install(self, modules: dict) -> None:
        """Wrap every target in every namespace of ``modules`` that binds it."""
        for mod_name, attr, span_name, extra in TARGETS:
            original = getattr(modules[mod_name], attr)
            wrapper = self.wrap(span_name, original, extra)
            sites = SPAN_SITES.get(attr, tuple(modules))
            for site in sites:
                module = modules[site]
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

    def _self(self) -> list[float]:
        """Each span's duration minus the durations of its child spans."""
        own = [e - s for s, e in zip(self.start, self.end)]
        for i, par in enumerate(self.parent):
            if par >= 0:
                own[par] -= self.end[i] - self.start[i]
        return own

    def self_times(self) -> dict[str, tuple[int, float]]:
        """Per span name: (calls, self time in seconds)."""
        out: dict[str, tuple[int, float]] = {}
        for name_id, own in zip(self.name, self._self()):
            calls, secs = out.get(self.names[name_id], (0, 0.0))
            out[self.names[name_id]] = (calls + 1, secs + own)
        return out

    def owned_self_time(self, owner_name: str) -> float:
        """Self time of spans named ``owner_name`` plus that of the
        ``abelian.*`` spans whose nearest non-abelian ancestor they are."""
        owner = list(range(len(self.start)))
        total = 0.0
        for i, own in enumerate(self._self()):
            par = self.parent[i]
            if par >= 0 and self.names[self.name[i]].startswith("abelian."):
                owner[i] = owner[par]
            if self.names[self.name[owner[i]]] == owner_name:
                total += own
        return total

    def write(self, path) -> None:
        """All spans as JSON lines: name, start, end, parent, op."""
        with open(path, "a", encoding="utf-8") as fh:
            for i in range(len(self.start)):
                fh.write(json.dumps({
                    "name": self.names[self.name[i]],
                    "start": self.start[i],
                    "end": self.end[i],
                    "parent": self.parent[i],
                    "op": self.op[i],
                }) + "\n")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced round (see perfbench/README.md)."""
    st = tracer.self_times()

    def calls(name):
        return st.get(name, (0, 0.0))[0]

    def secs(*names):
        return sum(st.get(name, (0, 0.0))[1] for name in names)

    c = tracer.counters
    sweep_s = secs("oracle.sweep")
    vectors = c.get("oracle.vectors_classified", 0)
    return {
        "cli.ops": calls("cli.main"),
        "cli.parse_s": secs("cli.parse"),
        "cli.report_s": secs("cli.report"),
        "cli.command_s": secs("cli.main"),
        "kummer.builds": calls("kummer.build"),
        "kummer.build_s": secs("kummer.build", "kummer.place"),
        "kummer.local_tests": calls("kummer.local_test"),
        "kummer.local_test_s": secs("kummer.local_test"),
        "fields.normalizations": calls("fields.normalize"),
        "fields.normalize_s": secs("fields.normalize"),
        "places.cyclic_candidates": calls("places.cyclic_candidates"),
        "places.cyclic_candidates_s": secs("places.cyclic_candidates"),
        "places.thresholds": calls("places.threshold"),
        "places.threshold_s": secs("places.threshold"),
        "places.locally_cyclic_checks": calls("places.locally_cyclic"),
        "places.fail_sets": calls("places.fail_set"),
        "places.fail_set_s": secs("places.fail_set"),
        "oracle.sweeps": calls("oracle.sweep"),
        "oracle.vectors_classified": vectors,
        "oracle.sweep_s": sweep_s,
        "oracle.classify_us": 1e6 * sweep_s / vectors if vectors else 0.0,
        "oracle.members_G": c.get("oracle.members_G", 0),
        "oracle.members_G_omega": c.get("oracle.members_G_omega", 0),
        "oracle.span_s": tracer.owned_self_time("oracle.span"),
        "abelian.hnf_calls": calls("abelian.hnf"),
        "abelian.hnf_rows": c.get("abelian.hnf_rows", 0),
        "abelian.hnf_s": secs("abelian.hnf"),
        "abelian.left_kernel_calls": calls("abelian.left_kernel"),
        "abelian.left_kernel_s": secs("abelian.left_kernel"),
        "abelian.snf_calls": calls("abelian.snf"),
        "abelian.snf_s": secs("abelian.snf"),
        "structure.assembles": calls("structure.assemble"),
        "structure.assemble_s": secs("structure.assemble"),
        "structure.monotone_check_s": secs("structure.monotone_check"),
        "selftest.configs": calls("selftest.generate"),
        "selftest.generate_s": secs("selftest.generate"),
        "selftest.invariants_s": secs("selftest.invariants"),
    }
