"""Command-line interface: configuration ingestion and reporting.

Config documents are JSON: a single object (mode "abstract" or "kummer") or
a list of abstract per-prime objects whose results are direct-summed.  All
integers are exact; reports are plain JSON-compatible data.

The optional document key "budget" is accepted and range-checked but read
by nothing: the oracle writes its groups down and lists no vector.

The commands, their positionals and options live in one table, COMMANDS,
which one small parser reads.  A command comes first; its options and
positionals follow in any order.  An option is named in full or by a
unique prefix (`--radic` for `--radicands`).  Its value is `--opt=value`
or the next token, unless that begins with `--`: a value may begin with
one `-`, as in `--radicands -3,5` or `--json -`.  `-h` or `--help` prints
the help of the program or of a command and exits 0.  A usage error (an
unknown command or option, a missing or extra positional, a bad value)
prints argparse's two lines, the usage and `multinorm-sha CMD: error:
...`, on stderr and exits 2.

Exit codes: 0 success, 2 validation error (including an out-of-range
command-line option), 3 a Kummer budget or the exact primality bound
refused the input, 4 disagreement between computation routes (or a failed
golden example), 5 an internal consistency check failed (the oracle's
subgroup-chain check, the scan check of --debug-monotonicity, the
normalized-config conventions, or the Kummer builder's check of its quoted
local facts).
"""

from __future__ import annotations

import json
import math
import sys
import time
from types import SimpleNamespace

from .abelian import BudgetExceeded, Character, PGroup, Subgroup
from .fields import FieldConfig, ShaInputError, validate_and_normalize
from .places import LocalData, Place
from .oracle import DEFAULT_BUDGET, InternalCheckError, oracle_report
from .structure import assemble
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

def _expect_object(obj, what, required, optional=frozenset()):
    if not isinstance(obj, dict):
        raise SchemaError(f"{what} must be a JSON object")
    if obj.keys() == required:
        return
    keys = set(obj)
    missing = required - keys
    unknown = keys - required - optional
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
    if all(type(v) is int for v in value):
        return value
    return [_expect_int(v, f"entry of {what}") for v in value]


def _expect_printable_power(p, n, what):
    """Refuse n when p^n has more decimal digits than str() may write."""
    limit = sys.get_int_max_str_digits()
    if not limit or n * p.bit_length() <= 3 * limit:
        return  # p^n < 2^(3 limit) < 10^limit: unlimited, or far below it
    edge = limit / math.log10(p)  # p^n has limit + 1 digits from n = edge on
    if n > edge + 1 or (n > edge - 1 and p ** n >= 10 ** limit):
        raise SchemaError(
            f"{what} {n}: p^{n} has more than {limit} decimal digits, "
            "the interpreter's limit for printing an integer"
        )


_COMMON_OPTIONAL = frozenset({"budget", "debug_monotonicity"})
_ABSTRACT_KEYS = frozenset({"mode", "p", "exponents", "characters"})
_ABSTRACT_OPTIONAL = _COMMON_OPTIONAL | {"exceptional_places"}
_CHARACTER_KEYS = frozenset({"label", "target_exponent", "coeffs"})
_PLACE_KEYS = frozenset({"label", "generators"})
_KUMMER_KEYS = frozenset({"mode", "radicands"})
_KUMMER_OPTIONAL = _COMMON_OPTIONAL | {"labels"}


def _parse_options(obj):
    budget = obj.get("budget", DEFAULT_BUDGET)
    _expect_int(budget, "budget", minimum=1)
    debug = obj.get("debug_monotonicity", False)
    if not isinstance(debug, bool):
        raise SchemaError("debug_monotonicity must be a boolean")
    return budget, debug


def parse_abstract(obj) -> tuple[FieldConfig, LocalData, int, bool]:
    _expect_object(obj, "abstract config", _ABSTRACT_KEYS, _ABSTRACT_OPTIONAL)
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
        _expect_object(entry, f"characters[{t}]", _CHARACTER_KEYS)
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
        _expect_object(entry, f"exceptional_places[{t}]", _PLACE_KEYS)
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
    _expect_object(obj, "kummer config", _KUMMER_KEYS, _KUMMER_OPTIONAL)
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

def _value_json(value):
    """Every field of a value type (ShaReport, PatchingData, GeneratorCert,
    ClassNode) under its own name, tuples as lists.  A plain loop: a dict
    comprehension here costs about half as much again per value."""
    out = {}
    for name in value._fields:
        v = getattr(value, name)
        out[name] = list(v) if type(v) is tuple else v
    return out


def _tree_json(node):
    out = _value_json(node)
    out["n_next"] = len(node.children)
    out["children"] = [_tree_json(c) for c in node.children]
    return out


def _fields_json(cfg):
    return [
        {"label": lab, "epsilon": eps, "e0": e0}
        for lab, eps, e0 in zip(cfg.labels, cfg.eps, cfg.eij[0])
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
    reports = {}
    if method != "oracle" or debug:
        structure = assemble(cfg, local, debug)
    if method != "oracle":
        reports["formula"] = structure.report()
    if method != "formula":
        reports["oracle"] = oracle_report(cfg, local)
    agreement = None
    if method == "both":
        agreement = reports["formula"].invariants == reports["oracle"].invariants
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
        "methods": {k: _value_json(v) for k, v in reports.items()},
        "agreement": agreement,
    }
    if "formula" in reports:
        component["patching"] = [_value_json(pd) for pd in structure.patching]
        component["class_tree"] = {
            str(r): _tree_json(t) for r, t in structure.trees.items()
        }
        component["generators"] = [_value_json(c) for c in structure.generators]
        component["criterion_trivial"] = structure.criterion_trivial
    primary = reports.get("oracle") or reports["formula"]
    component["sha"] = list(primary.sha_invariants)
    component["sha_omega"] = list(primary.sha_omega_invariants)
    return component


def build_report(components, method, debug=False):
    t0 = time.perf_counter()
    rows = [
        compute_component(cfg_raw, local, method, debug or component_debug)
        for cfg_raw, local, _budget, component_debug in components
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
    # patching degrees and the criterion are the formula's data: a component
    # reported by the oracle alone carries neither
    for row in report["components"]:
        if "patching" not in row:
            continue
        for pd in row["patching"]:
            want = entry.get("expected_patching", {}).get(str(pd["r"]))
            if want is not None and pd["delta"] != want:
                failures.append(f"delta at r={pd['r']} is {pd['delta']}, expected {want}")
        if entry.get("expect_criterion") and not row["criterion_trivial"]:
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


# the one encoder of every JSON report, json.dumps's bytes with keys sorted; a
# report is a tree built fresh, so the cycle check (an id() per container) is off
_ENCODER = json.JSONEncoder(sort_keys=True, check_circular=False)


def _write_json(report, path):
    text = _ENCODER.encode(report)
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
            debug=args.debug_monotonicity,
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
                    print(_ENCODER.encode(row), file=sys.stderr)
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


# Each command: (handler, positionals, options, help).  Each option:
# (kind, default, limit, help).  A "flag" takes no value and is True when
# given; an "int" is at least `limit` unless that is None; a "choice" is one
# of the strings in `limit`; a "path" is a nonempty string; a "text" is any
# string.  An option whose default is REQUIRED must be given.
REQUIRED = object()

_COMPUTE_OPTIONS = {
    "--method": ("choice", None, ("formula", "oracle", "both"), "default: both"),
    "--json": ("path", None, None, "write the JSON report to this path ('-': stdout)"),
    "--debug-monotonicity": (
        "flag", False, None, "check every value below each scan's hit (exit 5 if not)"
    ),
}

COMMANDS = {
    "validate": (cmd_validate, ("file",), {}, "schema-check and normalize a config file"),
    "compute": (cmd_compute, ("file",), _COMPUTE_OPTIONS, "compute the groups for a config file"),
    "examples": (cmd_examples, ("name",), _COMPUTE_OPTIONS, "run a built-in example (or 'all')"),
    "kummer": (cmd_kummer, (), {
        "--radicands": ("text", REQUIRED, None, "comma-separated integers"),
        "--labels": ("text", "", None, "comma-separated field labels"),
        "--compute": ("flag", False, None, "report the groups, not the configuration"),
        **_COMPUTE_OPTIONS,
    }, "build a quartic Kummer configuration"),
    "selftest": (cmd_selftest, (), {
        "--seed": ("int", 0, None, "seed of the random draws"),
        "--count": ("int", 100, 1, "configurations to check"),
        "--deep-every": ("int", 10, 1, "deep monotonicity check on every n-th configuration"),
    }, "randomized oracle-vs-formula check"),
}

PROG = "multinorm-sha"
DESCRIPTION = (
    "Obstruction groups of multinorm-one tori attached to products of cyclic "
    "prime-power extensions, computed from the definition place by place and "
    "by closed-form assembly, cross-checked."
)


def make_parser() -> dict:
    """The command table: name -> (handler, positionals, options, help)."""
    return COMMANDS


def _spec(name, kind, limit) -> str:
    """An option as usage and help write it: `--json JSON`, `--method {a,b}`."""
    if kind == "flag":
        return name
    if kind == "choice":
        return f"{name} {{{','.join(limit)}}}"
    return f"{name} {name[2:].upper().replace('-', '_')}"


def _usage(commands, command) -> str:
    if command is None:
        return f"usage: {PROG} [-h] {{{','.join(commands)}}} ..."
    _handler, positionals, options, _text = commands[command]
    parts = [f"usage: {PROG} {command} [-h]"]
    for name, (kind, default, limit, _text) in options.items():
        spec = _spec(name, kind, limit)
        parts.append(spec if default is REQUIRED else f"[{spec}]")
    return " ".join(parts + list(positionals))


def _help(commands, command) -> str:
    """The -h text: usage, what the program or command does, one row per
    command or option."""
    if command is None:
        about, rows = DESCRIPTION, [(name, entry[3]) for name, entry in commands.items()]
    else:
        _handler, positionals, options, about = commands[command]
        rows = [(name, "") for name in positionals]
        rows += [(_spec(n, k, lim), text) for n, (k, _d, lim, text) in options.items()]
    rows.append(("-h, --help", "show this help message and exit"))
    width = max(len(spec) for spec, _text in rows) + 2
    lines = [_usage(commands, command), "", about, ""]
    lines += [f"  {spec:<{width}}{text}".rstrip() for spec, text in rows]
    return "\n".join(lines) + "\n"


def _parse(commands, argv):
    """(handler, args) for argv: a command, then its options and positionals
    in any order.  An option is named in full or by a unique prefix; its
    value is `--opt=value` or the next token, unless that begins with `--`.
    Any other token is a positional."""
    command = argv[0] if argv and argv[0] in commands else None

    def stop(message=None):
        """-h (no message): the help on stdout, exit 0.  A usage error:
        argparse's two lines, usage and `PROG CMD: error: ...`, exit 2."""
        if message is None:
            sys.stdout.write(_help(commands, command))
            raise SystemExit(EXIT_OK)
        prog = f"{PROG} {command}" if command else PROG
        sys.stderr.write(f"{_usage(commands, command)}\n{prog}: error: {message}\n")
        raise SystemExit(EXIT_VALIDATION)

    if command is None:
        if argv and (argv[0] == "-h" or len(argv[0]) > 2 and "--help".startswith(argv[0])):
            stop()
        stop(f"argument command: invalid choice: {argv[0]!r} (choose from "
             f"{', '.join(map(repr, commands))})" if argv
             else "the following arguments are required: command")
    handler, positionals, options, _about = commands[command]
    names = (*options, "--help")
    values = {name: default for name, (_kind, default, _lim, _text) in options.items()}
    given, extras = [], []
    tokens = iter(argv[1:])
    for token in tokens:
        if token == "-h":
            stop()
        if not token.startswith("--"):
            (given if len(given) < len(positionals) else extras).append(token)
            continue
        name, eq, text = token.partition("=")
        matches = [name] if name in names else [o for o in names if o.startswith(name)]
        if len(name) < 3 or len(matches) != 1:  # not an option, or no unique one
            extras.append(token)
            continue
        name = matches[0]
        if name == "--help":
            stop()
        kind, _default, limit, _text = options[name]
        if kind == "flag":
            if eq:
                stop(f"argument {name}: ignored explicit argument {text!r}")
            values[name] = True
            continue
        if not eq:
            text = next(tokens, None)
            if text is None or text.startswith("--"):
                stop(f"argument {name}: expected one argument")
        if kind == "int":
            try:
                text = int(text)
            except ValueError:
                stop(f"argument {name}: invalid int value: {text!r}")
            if limit is not None and text < limit:
                stop(f"argument {name}: must be >= {limit}, got {text}")
        elif kind == "choice" and text not in limit:
            stop(f"argument {name}: invalid choice: {text!r} "
                 f"(choose from {', '.join(map(repr, limit))})")
        elif kind == "path" and not text:
            stop(f"argument {name}: expected a path or '-', got ''")
        values[name] = text
    missing = [*positionals[len(given):], *(n for n, v in values.items() if v is REQUIRED)]
    if missing:
        stop(f"the following arguments are required: {', '.join(missing)}")
    if extras:
        stop(f"unrecognized arguments: {' '.join(extras)}")
    args = dict(zip(positionals, given))
    args.update((n[2:].replace("-", "_"), v) for n, v in values.items())
    return handler, SimpleNamespace(**args)


def main(argv=None) -> int:
    handler, args = _parse(make_parser(), sys.argv[1:] if argv is None else argv)
    try:
        return handler(args)
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
