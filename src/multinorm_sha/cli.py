"""Command-line interface: configuration ingestion and reporting.

Config documents are JSON: a single object (mode "abstract" or "kummer") or
a list of abstract per-prime objects whose results are direct-summed.  All
integers are exact; reports are plain JSON-compatible data.

Exit codes: 0 success, 2 validation error (including an out-of-range
command-line option), 3 budget exceeded, 4 disagreement between computation
routes (or a failed golden example), 5 an internal consistency check failed
(the oracle's closure or subgroup-chain check, the scan check of
--debug-monotonicity, the normalized-config conventions, or the Kummer
builder's check of its quoted local facts).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .abelian import BudgetExceeded, Character, PGroup, subgroup_from_generators
from .fields import FieldConfig, ShaInputError, validate_and_normalize
from .places import LocalData, Place
from .oracle import DEFAULT_BUDGET, InternalCheckError, ShaReport, oracle_report
from .structure import StructureResult, assemble, check_monotone_scans
from .kummer import KummerSpec, build_kummer, verify_quoted_local_facts
from .selftest import run_selftest

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_BUDGET = 3
EXIT_DISAGREEMENT = 4
EXIT_INTERNAL = 5


class SchemaError(ShaInputError):
    """The config document does not match the schema."""


# ---------------------------------------------------------------------------
# Config document parsing.

def _expect_object(obj, what, required, optional):
    if not isinstance(obj, dict):
        raise SchemaError(f"{what} must be a JSON object")
    keys = set(obj)
    missing = set(required) - keys
    unknown = keys - set(required) - set(optional)
    if missing:
        raise SchemaError(f"{what} is missing key(s): {', '.join(sorted(missing))}")
    if unknown:
        raise SchemaError(f"{what} has unknown key(s): {', '.join(sorted(unknown))}")


def _expect_int(value, what, minimum=None):
    if not isinstance(value, int) or isinstance(value, bool):
        raise SchemaError(f"{what} must be an integer")
    if minimum is not None and value < minimum:
        raise SchemaError(f"{what} must be >= {minimum}")
    return value


def _expect_int_list(value, what):
    if not isinstance(value, list) or not value:
        raise SchemaError(f"{what} must be a nonempty array of integers")
    return [_expect_int(v, f"entry of {what}") for v in value]


_COMMON_OPTIONAL = {"budget", "debug_monotonicity", "seed"}


def _parse_options(obj):
    budget = obj.get("budget", DEFAULT_BUDGET)
    _expect_int(budget, "budget", minimum=1)
    debug = obj.get("debug_monotonicity", False)
    if not isinstance(debug, bool):
        raise SchemaError("debug_monotonicity must be a boolean")
    if "seed" in obj:
        _expect_int(obj["seed"], "seed")
    return budget, debug


def parse_abstract(obj) -> tuple[FieldConfig, LocalData, int, bool]:
    _expect_object(
        obj,
        "abstract config",
        {"mode", "p", "exponents", "characters"},
        {"exceptional_places"} | _COMMON_OPTIONAL,
    )
    p = _expect_int(obj["p"], "p", minimum=2)
    exponents = _expect_int_list(obj["exponents"], "exponents")
    try:
        group = PGroup(p, tuple(exponents))
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc
    chars_raw = obj["characters"]
    if not isinstance(chars_raw, list) or not chars_raw:
        raise SchemaError("characters must be a nonempty array")
    chars, labels = [], []
    for t, entry in enumerate(chars_raw):
        _expect_object(
            entry, f"characters[{t}]", {"label", "target_exponent", "coeffs"}, set()
        )
        if not isinstance(entry["label"], str):
            raise SchemaError(f"characters[{t}].label must be a string")
        eps = _expect_int(entry["target_exponent"], f"characters[{t}].target_exponent", 1)
        coeffs = _expect_int_list(entry["coeffs"], f"characters[{t}].coeffs")
        if len(coeffs) != group.rank:
            raise SchemaError(
                f"characters[{t}].coeffs needs {group.rank} entries, got {len(coeffs)}"
            )
        try:
            chars.append(Character(group, eps, tuple(coeffs)))
        except ValueError as exc:
            raise SchemaError(f"characters[{t}]: {exc}") from exc
        labels.append(entry["label"])
    places = []
    for t, entry in enumerate(obj.get("exceptional_places", [])):
        _expect_object(
            entry, f"exceptional_places[{t}]", {"label", "generators"}, set()
        )
        if not isinstance(entry["label"], str):
            raise SchemaError(f"exceptional_places[{t}].label must be a string")
        gens_raw = entry["generators"]
        if not isinstance(gens_raw, list):
            raise SchemaError(f"exceptional_places[{t}].generators must be an array")
        gens = [
            tuple(_expect_int_list(g, f"exceptional_places[{t}].generators[{s}]"))
            for s, g in enumerate(gens_raw)
        ]
        for g in gens:
            if len(g) != group.rank:
                raise SchemaError(
                    f"exceptional_places[{t}]: generator needs {group.rank} entries"
                )
        try:
            sub = subgroup_from_generators(group, gens)
        except ValueError as exc:
            raise SchemaError(f"exceptional_places[{t}]: {exc}") from exc
        places.append(Place(entry["label"], sub))
    budget, debug = _parse_options(obj)
    cfg = FieldConfig(group, tuple(chars), tuple(labels))
    try:
        local = LocalData(tuple(places))
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc
    return cfg, local, budget, debug


def parse_kummer(obj) -> tuple[FieldConfig, LocalData, int, bool]:
    _expect_object(
        obj, "kummer config", {"mode", "radicands"}, {"labels"} | _COMMON_OPTIONAL
    )
    radicands = _expect_int_list(obj["radicands"], "radicands")
    labels = obj.get("labels", [])
    if not isinstance(labels, list) or any(not isinstance(s, str) for s in labels):
        raise SchemaError("labels must be an array of strings")
    budget, debug = _parse_options(obj)
    cfg, local = build_kummer(KummerSpec(tuple(radicands), tuple(labels)))
    return cfg, local, budget, debug


def parse_document(data) -> list[tuple[FieldConfig, LocalData, int, bool]]:
    """One component per prime; lists are multi-prime abstract documents."""
    if isinstance(data, list):
        if not data:
            raise SchemaError("empty config list")
        components = []
        for t, obj in enumerate(data):
            if not isinstance(obj, dict) or obj.get("mode") != "abstract":
                raise SchemaError(
                    f"config list entries must be abstract configs (entry {t})"
                )
            components.append(parse_abstract(obj))
        primes = [c[0].group.p for c in components]
        if len(set(primes)) != len(primes):
            raise SchemaError("multi-prime list has repeated primes")
        return components
    if not isinstance(data, dict):
        raise SchemaError("config document must be a JSON object or array")
    mode = data.get("mode")
    if mode == "abstract":
        return [parse_abstract(data)]
    if mode == "kummer":
        return [parse_kummer(data)]
    raise SchemaError("mode must be 'abstract' or 'kummer'")


# ---------------------------------------------------------------------------
# Report document.

def _tree_json(node):
    return {
        "members": list(node.members),
        "level": node.level,
        "f": node.f,
        "f_omega": node.f_omega,
        "n_next": len(node.children),
        "children": [_tree_json(c) for c in node.children],
    }


def _report_json(rep: ShaReport):
    out = {
        "method": rep.method,
        "sha_invariants": list(rep.sha_invariants),
        "sha_omega_invariants": list(rep.sha_omega_invariants),
    }
    if rep.quotient_invariants is not None:
        out["quotient_invariants"] = list(rep.quotient_invariants)
    if rep.quotient_annotation is not None:
        out["quotient_annotation"] = list(rep.quotient_annotation)
    if rep.agreement is not None:
        out["agreement"] = rep.agreement
    return out


def group_name(p: int, exponents) -> str:
    if not exponents:
        return "0"
    return " x ".join(f"Z/{p ** e}" for e in exponents)


def compute_component(cfg_raw, local, method, budget, debug):
    cfg = validate_and_normalize(cfg_raw)
    if debug:
        check_monotone_scans(cfg, local)
    structure: StructureResult | None = None
    reports = {}
    if method in ("formula", "both"):
        structure = assemble(cfg, local)
        reports["formula"] = structure.report()
    if method in ("oracle", "both"):
        reports["oracle"] = oracle_report(cfg, local, budget=budget)
    agreement = None
    if method == "both":
        agreement = (
            reports["formula"].sha_invariants == reports["oracle"].sha_invariants
            and reports["formula"].sha_omega_invariants
            == reports["oracle"].sha_omega_invariants
        )
    component = {
        "p": cfg.p,
        "group_exponents": list(cfg.group.exponents),
        "fields": [
            {"label": lab, "epsilon": eps, "e0": e0}
            for lab, eps, e0 in cfg.field_table()
        ],
        "permutation": list(cfg.permutation),
        "eij": [list(r) for r in cfg.eij],
        "u_partition": {str(r): list(cfg.U(r)) for r in cfg.R},
        "exceptional_places": [
            {"label": pl.label, "basis": [list(b) for b in pl.group.basis]}
            for pl in local.exceptional
        ],
        "methods": {k: _report_json(v) for k, v in reports.items()},
        "agreement": agreement,
    }
    if structure is not None:
        component["patching"] = [
            {"r": pd.r, "delta": pd.delta, "delta_omega": pd.delta_omega}
            for pd in structure.patching
        ]
        component["class_tree"] = {
            str(r): _tree_json(t) for r, t in structure.trees.items()
        }
        component["generators"] = [
            {
                "r": c.r,
                "kind": c.kind,
                "support": list(c.support),
                "x": list(c.x),
                "x_omega": list(c.x_omega),
                "order": c.order,
                "order_omega": c.order_omega,
            }
            for c in structure.generators
        ]
        component["criterion_trivial"] = structure.criterion_trivial
    primary = reports.get("oracle") or reports["formula"]
    component["sha"] = list(primary.sha_invariants)
    component["sha_omega"] = list(primary.sha_omega_invariants)
    return component


def build_report(components, method, budget_override=None, debug_override=None):
    t0 = time.perf_counter()
    rows = []
    for cfg_raw, local, budget, debug in components:
        rows.append(
            compute_component(
                cfg_raw,
                local,
                method,
                budget_override if budget_override is not None else budget,
                debug if debug_override is None else debug_override,
            )
        )
    sha_ed, sha_omega_ed = [], []
    for row in rows:
        sha_ed.extend(row["p"] ** e for e in row["sha"])
        sha_omega_ed.extend(row["p"] ** e for e in row["sha_omega"])
    agreements = [row["agreement"] for row in rows if row["agreement"] is not None]
    return {
        "tool": "multinorm-sha",
        "method": method,
        "components": rows,
        "combined": {
            "sha_elementary_divisors": sorted(sha_ed, reverse=True),
            "sha_omega_elementary_divisors": sorted(sha_omega_ed, reverse=True),
        },
        "agreement": all(agreements) if agreements else None,
        "timing_ms": round(1000 * (time.perf_counter() - t0), 3),
    }


def print_report(report, stream=None):
    w = (stream or sys.stdout).write
    for row in report["components"]:
        p = row["p"]
        w(f"component p = {p}, A = {group_name(p, row['group_exponents'])}\n")
        w("  fields (normalized order):\n")
        for t, f in enumerate(row["fields"]):
            extra = "" if t == 0 else f", e0 = {f['e0']}"
            w(f"    K{t} = {f['label']}: degree {p ** f['epsilon']}{extra}\n")
        if row["exceptional_places"]:
            labels = ", ".join(pl["label"] for pl in row["exceptional_places"])
            w(f"  exceptional places: {labels}\n")
        if "patching" in row:
            for pd in row["patching"]:
                w(
                    f"  block r = {pd['r']}: delta = {pd['delta']}, "
                    f"delta_omega = {pd['delta_omega']}\n"
                )
            if row.get("criterion_trivial"):
                w("  triviality criterion holds: both groups vanish\n")
        for name, rep in sorted(row["methods"].items()):
            w(
                f"  [{name}] sha = {group_name(p, rep['sha_invariants'])}, "
                f"sha_omega = {group_name(p, rep['sha_omega_invariants'])}\n"
            )
            if "quotient_invariants" in rep:
                w(
                    "  [oracle] sha_omega/sha = "
                    f"{group_name(p, rep['quotient_invariants'])}\n"
                )
        if row["agreement"] is not None:
            w(f"  agreement: {'yes' if row['agreement'] else 'NO'}\n")
    combined = report["combined"]
    w(
        "combined: sha = "
        + _ed_name(combined["sha_elementary_divisors"])
        + ", sha_omega = "
        + _ed_name(combined["sha_omega_elementary_divisors"])
        + "\n"
    )


def _ed_name(divisors):
    if not divisors:
        return "0"
    return " x ".join(f"Z/{d}" for d in divisors)


# ---------------------------------------------------------------------------
# Embedded example configurations.

EXAMPLES = {
    "17-13": {
        "document": {"mode": "kummer", "radicands": [17, 17 * 13, 13]},
        "expected_sha": [1],
        "expected_sha_omega": [2],
    },
    "17-409": {
        "document": {"mode": "kummer", "radicands": [17, 17 * 409, 409]},
        "expected_sha": [2],
        "expected_sha_omega": [2],
    },
    "13-17-bicyclic": {
        "document": {"mode": "kummer", "radicands": [13, 17, 13 * 17 * 17]},
        "expected_sha": [1],
        "expected_sha_omega": [1],
        "expected_patching": {"1": 2},
    },
    # p-power parts of the cyclotomic fields of conductors 7, 13, 19: the
    # three quadratic/quartic parts at p = 2 and the three parts at p = 3
    # are pairwise disjoint, and the block intersection criterion applies.
    "cyclotomic": {
        "document": [
            {
                "mode": "abstract",
                "p": 2,
                "exponents": [2, 1, 1],
                "characters": [
                    {"label": "F7(2)", "target_exponent": 1, "coeffs": [0, 1, 0]},
                    {"label": "F13(2)", "target_exponent": 2, "coeffs": [1, 0, 0]},
                    {"label": "F19(2)", "target_exponent": 1, "coeffs": [0, 0, 1]},
                ],
            },
            {
                "mode": "abstract",
                "p": 3,
                "exponents": [2, 1, 1],
                "characters": [
                    {"label": "F7(3)", "target_exponent": 1, "coeffs": [0, 1, 0]},
                    {"label": "F13(3)", "target_exponent": 1, "coeffs": [0, 0, 1]},
                    {"label": "F19(3)", "target_exponent": 2, "coeffs": [1, 0, 0]},
                ],
            },
        ],
        "expected_sha": [],
        "expected_sha_omega": [],
        "expect_criterion": True,
    },
}


def run_example(name, method="both", budget=None):
    entry = EXAMPLES[name]
    document = entry["document"]
    if isinstance(document, dict) and document.get("mode") == "kummer":
        verify_quoted_local_facts()
    components = parse_document(document)
    report = build_report(components, method, budget_override=budget)
    return report, _check_example(report, entry)


def _check_example(report, entry):
    failures = []
    combined = report["combined"]
    ps = [row["p"] for row in report["components"]]
    if len(ps) == 1:
        want_sha = sorted((ps[0] ** e for e in entry["expected_sha"]), reverse=True)
        want_omega = sorted(
            (ps[0] ** e for e in entry["expected_sha_omega"]), reverse=True
        )
    else:
        # the embedded multi-prime example is trivial in every component
        want_sha = [ps[0] ** e for e in entry["expected_sha"]]
        want_omega = [ps[0] ** e for e in entry["expected_sha_omega"]]
    if combined["sha_elementary_divisors"] != want_sha:
        failures.append(
            f"sha = {combined['sha_elementary_divisors']}, expected {want_sha}"
        )
    if combined["sha_omega_elementary_divisors"] != want_omega:
        failures.append(
            f"sha_omega = {combined['sha_omega_elementary_divisors']}, "
            f"expected {want_omega}"
        )
    if report["agreement"] is False:
        failures.append("methods disagree")
    for r, want in entry.get("expected_patching", {}).items():
        for row in report["components"]:
            for pd in row.get("patching", []):
                if str(pd["r"]) == r and pd["delta"] != want:
                    failures.append(f"delta at r={r} is {pd['delta']}, expected {want}")
    if entry.get("expect_criterion"):
        for row in report["components"]:
            if not row.get("criterion_trivial"):
                failures.append("triviality criterion did not fire")
    return failures


# ---------------------------------------------------------------------------
# Commands.

def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path} is not valid JSON: {exc}") from exc


def _write_json(report, path):
    text = json.dumps(report, indent=2, sort_keys=True)
    if path == "-":
        # the JSON stands alone on stdout (the text report is left out); the
        # leading newline is JSON whitespace and keeps the report at a "\n{"
        # boundary, where perfbench/verify.py and its tests look for it
        sys.stdout.write("\n" + text + "\n")
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def cmd_validate(args) -> int:
    components = parse_document(_load_json(args.file))
    for cfg_raw, local, budget, _debug in components:
        cfg = validate_and_normalize(cfg_raw)
        print(f"component p = {cfg.p}: valid")
        for t, (label, eps, e0) in enumerate(cfg.field_table()):
            extra = "" if t == 0 else f", e0 = {e0}"
            print(f"  K{t} = {label}: degree {cfg.p ** eps}{extra}")
        print(f"  blocks U_r: { {r: list(cfg.U(r)) for r in cfg.R} }")
        print(f"  exceptional places: {[pl.label for pl in local.exceptional]}")
    return EXIT_OK


def cmd_compute(args) -> int:
    components = parse_document(_load_json(args.file))
    report = build_report(
        components,
        args.method,
        budget_override=args.budget,
        debug_override=args.debug_monotonicity or None,
    )
    if args.json != "-":
        print_report(report)
    if args.json:
        _write_json(report, args.json)
    if report["agreement"] is False:
        _dump_disagreement(report)
        return EXIT_DISAGREEMENT
    return EXIT_OK


def _dump_disagreement(report):
    print("DISAGREEMENT between computation routes", file=sys.stderr)
    for row in report["components"]:
        if row["agreement"] is False:
            print(json.dumps(row, indent=2, sort_keys=True), file=sys.stderr)


def cmd_examples(args) -> int:
    names = list(EXAMPLES) if args.name == "all" else [args.name]
    unknown = [n for n in names if n not in EXAMPLES]
    if unknown:
        raise SchemaError(
            f"unknown example {unknown[0]!r}; choose from {', '.join(EXAMPLES)} or 'all'"
        )
    show_text = args.json != "-"
    status = EXIT_OK
    collected = {}
    for name in names:
        report, failures = run_example(name, method=args.method, budget=args.budget)
        if show_text:
            print(f"=== example {name}")
            print_report(report)
        collected[name] = report
        if failures:
            status = EXIT_DISAGREEMENT
            for f in failures:
                print(f"  GOLDEN MISMATCH: {f}", file=sys.stderr)
        elif show_text:
            print("  golden values reproduced")
    if args.json:
        payload = collected if args.name == "all" else collected[names[0]]
        _write_json(payload, args.json)
    return status


def cmd_kummer(args) -> int:
    try:
        radicands = [int(tok) for tok in args.radicands.split(",") if tok]
    except ValueError as exc:
        raise SchemaError(f"--radicands must be comma-separated integers: {exc}")
    labels = tuple(args.labels.split(",")) if args.labels else ()
    document = {"mode": "kummer", "radicands": radicands}
    if labels:
        document["labels"] = list(labels)
    components = parse_document(document)
    cfg_raw, local, _budget, _debug = components[0]
    cfg = validate_and_normalize(cfg_raw)
    show_text = not (args.compute and args.json == "-")
    if show_text:
        print(f"Kummer configuration over Q(i), p = 2, A = "
              f"{group_name(2, cfg.group.exponents)}")
        for chi, label in zip(cfg.chars, cfg.labels):
            print(f"  {label}: exponent vector {list(chi.coeffs)}, degree "
                  f"{2 ** chi.exponent}")
        for pl in local.exceptional:
            print(f"  place {pl.label}: decomposition subgroup of order {pl.group.order}")
    if not args.compute:
        return EXIT_OK
    report = build_report(components, args.method, budget_override=args.budget)
    if show_text:
        print_report(report)
    if args.json:
        _write_json(report, args.json)
    if report["agreement"] is False:
        _dump_disagreement(report)
        return EXIT_DISAGREEMENT
    return EXIT_OK


def cmd_selftest(args) -> int:
    summary = run_selftest(args.seed, args.count, deep_every=args.deep_every)
    print(
        f"selftest: {summary.agreements}/{summary.count} configs agree "
        f"(seed {summary.seed}, {summary.invariant_checks} invariant suites, "
        f"{summary.deep_checks} deep monotonicity checks)"
    )
    if summary.failures:
        for failure in summary.failures:
            print("FAILURE: " + failure, file=sys.stderr)
        return EXIT_DISAGREEMENT
    return EXIT_OK


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multinorm-sha",
        description=(
            "Obstruction groups of multinorm-one tori attached to products "
            "of cyclic prime-power extensions, computed by brute-force "
            "enumeration and by closed-form assembly, cross-checked."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("validate", help="schema-check and normalize a config file")
    sp.add_argument("file")
    sp.set_defaults(func=cmd_validate)

    sp = sub.add_parser("compute", help="compute the groups for a config file")
    sp.add_argument("file")
    _add_compute_flags(sp)
    sp.set_defaults(func=cmd_compute)

    sp = sub.add_parser("examples", help="run a built-in example (or 'all')")
    sp.add_argument("name")
    _add_compute_flags(sp)
    sp.set_defaults(func=cmd_examples)

    sp = sub.add_parser("kummer", help="build a quartic Kummer configuration")
    sp.add_argument("--radicands", required=True, help="comma-separated integers")
    sp.add_argument("--labels", default="", help="comma-separated field labels")
    sp.add_argument("--compute", action="store_true")
    _add_compute_flags(sp)
    sp.set_defaults(func=cmd_kummer)

    sp = sub.add_parser("selftest", help="randomized oracle-vs-formula check")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--count", type=_int_at_least(1), default=100)
    sp.add_argument("--deep-every", type=_int_at_least(1), default=10)
    sp.set_defaults(func=cmd_selftest)
    return parser


def _int_at_least(minimum):
    """argparse type: an integer >= minimum, else a usage error (exit 2)."""

    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid integer: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value

    return parse


def _add_compute_flags(sp):
    sp.add_argument(
        "--method",
        choices=["formula", "oracle", "both"],
        default="both",
    )
    sp.add_argument("--budget", type=_int_at_least(1), default=None)
    sp.add_argument("--json", default="", help="write the JSON report to this path")
    sp.add_argument("--debug-monotonicity", action="store_true")


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SchemaError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ShaInputError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (InternalCheckError, AssertionError) as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
