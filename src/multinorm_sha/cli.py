"""Command-line interface: configuration ingestion and reporting.

Config documents are JSON: a single object (mode "abstract" or "kummer") or
a list of abstract per-prime objects whose results are direct-summed.  All
integers are exact; reports are plain JSON-compatible data.

The optional document key "budget" is accepted and range-checked but read
by nothing: the oracle writes its groups down and lists no vector.

Exit codes: 0 success, 2 validation error (including an out-of-range
command-line option), 3 a Kummer budget or the exact primality bound
refused the input, 4 disagreement between computation routes (or a failed
golden example), 5 an internal consistency check failed (the oracle's
subgroup-chain check, the scan check of --debug-monotonicity, the
normalized-config conventions, or the Kummer builder's check of its quoted
local facts).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
import time

from .abelian import BudgetExceeded, Character, PGroup, Subgroup
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


def _expect_printable_power(p, n, what):
    """Refuse n when p^n has more decimal digits than str() may write."""
    limit = sys.get_int_max_str_digits()
    edge = limit / math.log10(p)  # p^n has limit + 1 digits from n = edge on
    if limit and (n > edge + 1 or (n > edge - 1 and p ** n >= 10 ** limit)):
        raise SchemaError(
            f"{what} {n}: p^{n} has more than {limit} decimal digits, "
            "the interpreter's limit for printing an integer"
        )


_COMMON_OPTIONAL = {"budget", "debug_monotonicity"}


def _parse_options(obj):
    budget = obj.get("budget", DEFAULT_BUDGET)
    _expect_int(budget, "budget", minimum=1)
    debug = obj.get("debug_monotonicity", False)
    if not isinstance(debug, bool):
        raise SchemaError("debug_monotonicity must be a boolean")
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
    for n in exponents:
        _expect_printable_power(p, n, "exponent")
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
        _expect_printable_power(p, eps, f"characters[{t}].target_exponent")
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
    places_raw = obj.get("exceptional_places", [])
    if not isinstance(places_raw, list):
        raise SchemaError("exceptional_places must be an array")
    places = []
    for t, entry in enumerate(places_raw):
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
            sub = Subgroup.span(group, gens)
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
    return {
        "method": rep.method,
        "sha_invariants": list(rep.sha_invariants),
        "sha_omega_invariants": list(rep.sha_omega_invariants),
        "quotient_invariants": list(rep.quotient_invariants),
    }


def _fields_json(cfg):
    return [
        {"label": lab, "epsilon": eps, "e0": e0} for lab, eps, e0 in cfg.field_table()
    ]


def group_name(orders) -> str:
    """`Z/d_1 x Z/d_2 x ...` for the cyclic orders d_t; `0` when there are none."""
    return " x ".join(f"Z/{d}" for d in orders) or "0"


def _print_fields(p, fields, indent):
    """The field table of `print_report` and `validate`, in normalized order."""
    for t, f in enumerate(fields):
        extra = "" if t == 0 else f", e0 = {f['e0']}"
        print(f"{indent}K{t} = {f['label']}: degree {p ** f['epsilon']}{extra}")


def compute_component(cfg_raw, local, method, debug):
    cfg = validate_and_normalize(cfg_raw)
    if debug:
        check_monotone_scans(cfg, local)
    structure: StructureResult | None = None
    reports = {}
    if method in ("formula", "both"):
        structure = assemble(cfg, local)
        reports["formula"] = structure.report()
    if method in ("oracle", "both"):
        reports["oracle"] = oracle_report(cfg, local)
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
        "fields": _fields_json(cfg),
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


def build_report(components, method, debug_override=None):
    t0 = time.perf_counter()
    rows = [
        compute_component(
            cfg_raw, local, method, debug if debug_override is None else debug_override
        )
        for cfg_raw, local, _budget, debug in components
    ]
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


def print_report(report):
    w = sys.stdout.write
    for row in report["components"]:
        p = row["p"]

        def name(exponents):
            return group_name(p ** e for e in exponents)

        w(f"component p = {p}, A = {name(row['group_exponents'])}\n")
        w("  fields (normalized order):\n")
        _print_fields(p, row["fields"], "    ")
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
        for method, rep in sorted(row["methods"].items()):
            w(
                f"  [{method}] sha = {name(rep['sha_invariants'])}, "
                f"sha_omega = {name(rep['sha_omega_invariants'])}\n"
            )
            w(f"  [{method}] sha_omega/sha = {name(rep['quotient_invariants'])}\n")
        if row["agreement"] is not None:
            w(f"  agreement: {'yes' if row['agreement'] else 'NO'}\n")
    combined = report["combined"]
    w(
        f"combined: sha = {group_name(combined['sha_elementary_divisors'])}, "
        f"sha_omega = {group_name(combined['sha_omega_elementary_divisors'])}\n"
    )


# ---------------------------------------------------------------------------
# Embedded example configurations.

# Golden values are combined elementary divisors, over all components.
EXAMPLES = {
    "17-13": {
        "document": {"mode": "kummer", "radicands": [17, 17 * 13, 13]},
        "expected_sha": [2],
        "expected_sha_omega": [4],
    },
    "17-409": {
        "document": {"mode": "kummer", "radicands": [17, 17 * 409, 409]},
        "expected_sha": [4],
        "expected_sha_omega": [4],
    },
    "13-17-bicyclic": {
        "document": {"mode": "kummer", "radicands": [13, 17, 13 * 17 * 17]},
        "expected_sha": [2],
        "expected_sha_omega": [2],
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


def _check_example(report, entry):
    """Golden failures of an example's report; a Kummer example also
    rechecks the local facts the builder quotes (AssertionError, exit 5)."""
    document = entry["document"]
    if isinstance(document, dict) and document.get("mode") == "kummer":
        verify_quoted_local_facts()
    failures = []
    combined = report["combined"]
    for key in ("sha", "sha_omega"):
        got, want = combined[f"{key}_elementary_divisors"], entry[f"expected_{key}"]
        if got != want:
            failures.append(f"{key} = {got}, expected {want}")
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
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path} is not UTF-8 text: {exc}") from exc
    except ValueError as exc:  # an integer literal above the int-to-str limit
        raise SchemaError(f"{path} has an integer too long to read: {exc}") from exc
    except RecursionError as exc:
        raise SchemaError(f"{path} is nested too deeply to read") from exc


def _write_json(report, path):
    text = json.dumps(report, sort_keys=True)
    if path == "-":
        # the JSON stands alone on stdout (the text report is left out); the
        # leading newline is JSON whitespace and keeps the report at a "\n{"
        # boundary, where perfbench/verify.py and its tests look for it
        sys.stdout.write("\n" + text + "\n")
    else:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise SchemaError(f"cannot write {path}: {exc}") from exc


def cmd_validate(args) -> int:
    return _describe(_load_json(args.file))


def _describe(document) -> int:
    for cfg_raw, local, _budget, _debug in parse_document(document):
        cfg = validate_and_normalize(cfg_raw)
        print(f"component p = {cfg.p}: valid")
        _print_fields(cfg.p, _fields_json(cfg), "  ")
        print(f"  blocks U_r: { {r: list(cfg.U(r)) for r in cfg.R} }")
        print(f"  exceptional places: {[pl.label for pl in local.exceptional]}")
    return EXIT_OK


def _run(args, documents, golden=False) -> int:
    """The one path of `compute`, `kummer --compute` and `examples`.

    `documents` maps names to config documents.  Each is reported with the
    command's --method and --debug-monotonicity; with `golden`,
    each name is a built-in example, checked against its golden values.
    The text report goes to stdout unless `--json -`; several reports are
    written as one JSON object keyed by name.  A disagreement between the
    routes or a golden mismatch exits with 4.
    """
    show_text = args.json != "-"
    status, reports = EXIT_OK, {}
    for name, document in documents.items():
        report = build_report(
            parse_document(document),
            args.method or "both",
            debug_override=args.debug_monotonicity or None,
        )
        failures = _check_example(report, EXAMPLES[name]) if golden else []
        if show_text:
            if golden:
                print(f"=== example {name}")
            print_report(report)
            if golden and not failures:
                print("  golden values reproduced")
        if report["agreement"] is False:
            print("DISAGREEMENT between computation routes", file=sys.stderr)
            for row in report["components"]:
                if row["agreement"] is False:
                    print(json.dumps(row, sort_keys=True), file=sys.stderr)
        for f in failures:
            print(f"  GOLDEN MISMATCH: {f}", file=sys.stderr)
        if failures or report["agreement"] is False:
            status = EXIT_DISAGREEMENT
        reports[name] = report
    if args.json:
        _write_json(reports if len(reports) > 1 else report, args.json)
    return status


def cmd_compute(args) -> int:
    return _run(args, {args.file: _load_json(args.file)})


def cmd_examples(args) -> int:
    names = list(EXAMPLES) if args.name == "all" else [args.name]
    unknown = [n for n in names if n not in EXAMPLES]
    if unknown:
        raise SchemaError(
            f"unknown example {unknown[0]!r}; choose from {', '.join(EXAMPLES)} or 'all'"
        )
    return _run(args, {n: EXAMPLES[n]["document"] for n in names}, golden=True)


def cmd_kummer(args) -> int:
    try:
        radicands = [int(tok) for tok in args.radicands.split(",") if tok]
    except ValueError as exc:
        raise SchemaError(f"--radicands must be comma-separated integers: {exc}")
    document = {"mode": "kummer", "radicands": radicands}
    if args.labels:
        document["labels"] = args.labels.split(",")
    if args.compute:
        return _run(args, {"kummer": document})
    flags = {
        "--method": args.method,
        "--json": args.json,
        "--debug-monotonicity": args.debug_monotonicity,
    }
    refused = [flag for flag, value in flags.items() if value]
    if refused:
        raise SchemaError(f"without --compute, kummer takes no {', '.join(refused)}")
    return _describe(document)


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


@functools.lru_cache(maxsize=None)
def make_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="multinorm-sha",
        description=(
            "Obstruction groups of multinorm-one tori attached to products "
            "of cyclic prime-power extensions, computed from the definition "
            "place by place and by closed-form assembly, cross-checked."
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
        help="default: both",
    )
    sp.add_argument("--json", default="", help="write the JSON report to this path")
    sp.add_argument("--debug-monotonicity", action="store_true")


def _attach_negative_radicands(argv):
    """`--radicands -3,5` (or an abbreviation such as `--radic -3,5`) as
    `--radicands=-3,5`: argparse reads a value that starts with '-' and is no
    plain number as an option."""
    out = []
    for tok in sys.argv[1:] if argv is None else argv:
        flag = out[-1] if out else ""
        if len(flag) > 2 and "--radicands".startswith(flag) and re.fullmatch(r"-\d[\d,-]*", tok):
            out[-1] = f"{flag}={tok}"
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(_attach_negative_radicands(argv))
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
