"""Command-line frontend: rule inspection, tree-sum evaluation and the
verification suite.

Configuration is a JSON document with top-level keys ``theory``, ``diffeo``
and ``suite``; ``verify`` reads only ``suite``, and a key that nothing reads
is refused.  Rational literals use the exact string form ``"p/q"``; symbolic
coefficients use the bare names ``a1``, ``lambda3``, ``xp``, ``msq``.  Exit
codes: 0 pass, 1 check failure, 2 usage or configuration error, 130
interrupted, 141 stdout closed by its reader.  Data goes to stdout,
diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import csv
import inspect
import io
import json
import os
import re
import sys
from dataclasses import replace

from .algebra import (
    AlgebraError,
    RationalFunction,
    coupling,
    diffeo_coeff,
    edge_symbol,
    fixed_offshell,
    mass_sq,
    parse_rational,
    rf,
)
from . import rules, trees, verify
from .rules import DiffeoSpec, Interaction, TheorySpec


class ConfigError(Exception):
    pass


# Largest ``treesum --n``: S_8 is the default suite's largest sum, and the
# values bound the cap (the counts come from a size recursion in well under
# a second).  At 9, b and S each take about 0.8-1.4 s on a 2-core host;
# b_40 or S_30 would not end.  It is checked first, before the offshell set
# is parsed.
TREESUM_MAX_N = 9
# Largest ``treesum --n`` of each kind: entry i caps a run with i offshell
# legs, the last entry any more, so only A's cap falls with its offshell
# set.  Each is the largest n whose run, printing included, ended within
# 10 s at default settings on a 2-core host: bprime 7 in 4.7-5.8 s (with
# or without --reduced), A with 3 offshell legs at 9 in 4.3-7.1 s, 4 at 8
# in 2.6-3.5 s and every leg at 7 in 3.5-4.7 s.  Past them, A with 4
# offshell legs at 9 took 39 s and 5 at 8 took 12 s, and bprime 8 and A 8
# with every leg offshell each ran out of a 3 GiB address space after
# 47-69 s.
TREESUM_CAPS = {"b": (9,), "bprime": (7,), "A": (9, 9, 9, 9, 8, 7), "S": (9,)}
# The caps of ``--kind A`` when the config has an interaction of power at most
# n, by offshell legs as above: its vertices multiply the terms.  Measured the
# same way with powers 3, 3 and 4, 3 to 9, and 3 and 4 with the generalized
# propagator: no offshell leg at 8 in 1.4-5.9 s, 1 to 5 at 7 in 0.5-8.9 s (5
# the slowest) and every leg at 6 in 0.5 s.  Past them, A 9 with no offshell
# leg and A 8 with 2 or 3 ran past 30 s, A 8 with 1 took 13 s, A 7 with 6
# 14 s and A 7 with every leg 19-21 s.  b' and S sum over one power and keep
# their caps (S 9 in 0.6-0.7 s with these configs).
TREESUM_INTERACTING_A_CAPS = (8, 7, 7, 7, 7, 7, 6)
# Most decorated trees ``treesum --trace`` dumps, each through the per-tree
# ``amplitude``: b_6 has 2752 and dumps in about 5 s.  A_7 has as many; with
# every leg offshell it is the slowest dump the cap allows, about 17 s.
TREESUM_TRACE_MAX = 2752
# Largest ``rules --n``: the generalized vertex sums over subsets of the legs,
# about 1.6-1.8 s at n = 14 and more than twice that per further leg.
RULES_MAX_N = 14
# Largest ``verify`` run sizes, each measured with the others at their
# defaults on a 2-core host.  max_n: the default suite takes 1.1-1.4 s at 7,
# and at 8 ``adiabatic`` would need the tuned b'_8 (``check_bn`` alone goes
# from 0.03-0.05 s to 0.14-0.15 s).  order: ``adiabatic`` takes 1.5-2.8 s at
# 1000, most of it the Fuss-Catalan residual.  trials: ``kinematics`` takes
# about 1 ms a trial.
# dimension: ``kinematics`` takes about 3 s at 1024.
VERIFY_CAPS = {"max_n": 7, "order": 1000, "trials": 5000, "dimension": 1024}
# Largest (max(s_values) - 1).bit_length() * order: the Fuss-Catalan residual
# of ``adiabatic`` raises an order-term series to the power s - 1 by
# square-and-multiply, about 2 * bit_length products of order**2 coefficient
# pairs whose integers have up to about order * bit_length bits.  2000 keeps
# the default s_values at the order cap: s = 4 at order 1000, 2.1-2.8 s, is
# the slowest run it allows; s = 2**200 at order 10 takes 0.3 s.
VERIFY_RESIDUAL_WORK = 2000
# Largest trials * dimension, the cost of ``kinematics``: 50 trials at 1024
# (about 3 s).  The caps above alone allow 5000 trials at 1024, about 6 minutes.
VERIFY_KINEMATICS_WORK = 51_200
# Longest ``suite.s_values``: each power adds one ``interaction_cancellation``
# and one ``adiabatic`` run, at most about 23 s together (s = 3, max_n 7).
VERIFY_MAX_S_VALUES = 8


_NAMED_SYMBOLS = {
    "msq": mass_sq,
    "xp": fixed_offshell,
}


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _parse_value(text) -> RationalFunction:
    if _is_int(text):
        return rf(text)
    if not isinstance(text, str):
        raise ConfigError(f"expected a rational literal or symbol name, got {text!r}")
    token = text.strip()
    if token in _NAMED_SYMBOLS:
        return rf(_NAMED_SYMBOLS[token]())
    if symbol := re.fullmatch(r"(a|lambda)([0-9]+)", token):  # not isdigit(): it takes any script's digits
        make = diffeo_coeff if symbol[1] == "a" else coupling
        return rf(make(int(symbol[2])))
    try:
        return rf(parse_rational(token))
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"cannot parse value {text!r}: {exc}") from exc


def load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            cfg = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path} is not valid UTF-8: {exc}") from exc
    except RecursionError as exc:
        raise ConfigError(f"config {path} nests too deeply: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    _check_keys(cfg, _CONFIG_KEYS, "")
    return cfg


# The keys the program reads, level by level; a list holds the keys of each
# of its entries.  ``load_config`` refuses any other key, so a misspelt key
# cannot be dropped without a word.
_CONFIG_KEYS = {
    "theory": {"propagator": None, "mass_sq": None, "interactions": [{"s": None, "coupling": None}]},
    "diffeo": {"a": None},
    "suite": dict.fromkeys(("max_n", "order", "seed", "trials", "dimension", "s_values")),
}


def _check_keys(value, known, path: str) -> None:
    """Refuse a key of ``value``, the config entry named ``path``, that
    ``known`` does not list.  A value of the wrong type is left to the code
    that reads it, whose error names it."""
    if isinstance(known, list) and isinstance(value, list):
        for i, entry in enumerate(value):
            _check_keys(entry, known[0], f"{path}[{i}]")
    elif isinstance(known, dict) and isinstance(value, dict):
        names = {key: f"{path}.{key}" if path else key for key in value}
        unknown = [names[key] for key in value if key not in known]
        if unknown:
            noun = "key" if len(unknown) == 1 else "keys"
            raise ConfigError(f"unknown config {noun} {', '.join(unknown)}; known: {', '.join(sorted(known))}")
        for key, entry in value.items():
            _check_keys(entry, known[key], names[key])


def _section(cfg: dict, key: str) -> dict:
    """``cfg[key]`` (default: an empty object), which must be a JSON object."""
    value = cfg.get(key, {})
    if not isinstance(value, dict):
        raise ConfigError(f"{key} must be a JSON object, got {value!r}")
    return value


def build_diffeo(cfg: dict) -> DiffeoSpec:
    section = _section(cfg, "diffeo")
    coeffs = section.get("a", "symbolic")
    if coeffs == "symbolic":
        return DiffeoSpec.symbolic()
    if not isinstance(coeffs, dict):
        raise ConfigError("diffeo.a must be \"symbolic\" or an index->value object")
    bindings = {}
    for k, value in coeffs.items():
        if not (k.isascii() and k.isdigit()):
            raise ConfigError(f"diffeo.a keys must be integers >= 1, got {k!r}")
        if k != str(int(k)):  # else two spellings of one index, and the last would win
            raise ConfigError(f"diffeo.a key {k!r} must be written {str(int(k))!r}")
        bindings[int(k)] = _parse_value(value)
    if 0 in bindings:
        raise ConfigError("a0 is fixed to 1; the substitution is tangent to identity")
    return DiffeoSpec.from_bindings(bindings)


def build_theory(cfg: dict) -> TheorySpec:
    section = _section(cfg, "theory")
    kind = section.get("propagator", "standard")
    if kind not in ("standard", "generalized"):
        raise ConfigError(f"unknown propagator kind {kind!r}")
    mass = _parse_value(section.get("mass_sq", "msq"))
    entries = section.get("interactions", [])
    if not isinstance(entries, list):
        raise ConfigError(f"theory.interactions must be a list, got {entries!r}")
    interactions = []
    for entry in entries:
        if not isinstance(entry, dict) or not _is_int(entry.get("s")):
            raise ConfigError(f"each interaction needs an integer power \"s\", got {entry!r}")
        s = entry["s"]
        if s < 3:
            raise ConfigError("interaction powers start at 3")
        value = entry.get("coupling", f"lambda{s}")
        interactions.append(Interaction(s, _parse_value(value)))
    return TheorySpec(kind=kind, mass_sq_value=mass, interactions=tuple(interactions))


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    else:
        for key, value in payload.items():
            sys.stdout.write(f"{key}: {value}\n")


def cmd_rules(args, cfg: dict) -> int:
    theory = build_theory(cfg)
    diffeo = build_diffeo(cfg)
    n = args.n
    if n < 3:
        raise ConfigError("rules needs a valence --n of at least 3")
    if n > RULES_MAX_N:
        raise ConfigError(f"rules --n is limited to {RULES_MAX_N}; vertex rules grow quickly with the valence")
    kind = args.kind
    if args.s is not None and kind != "interaction":
        raise ConfigError(f"rules --s is not read by --kind {kind}")
    legs = frozenset(range(1, n + 1))
    singles = [rf(edge_symbol(frozenset((j,)), theory.generalized)) for j in range(1, n + 1)]
    if kind == "free":
        value = rules.free_vertex(n, singles, diffeo, theory.mass_sq_value)
    elif kind == "interaction":
        s = args.s
        if s is None and theory.interactions:
            s = theory.interactions[0].power
        if s is None:
            raise ConfigError("interaction rules need --s or a configured interaction")
        value = rules.interaction_vertex(n, s, diffeo, theory.coupling_of(s))
    elif kind == "total":
        value = rules.total_vertex(n, singles, theory, diffeo)
    else:  # generalized
        value = rules.generalized_vertex(
            [frozenset((j,)) for j in legs], legs, diffeo=diffeo, generalized=theory.generalized
        )
    payload = {
        "valence": n,
        "kind": kind,
        "theory": theory.kind,
        "mass_term_convention": "gn = n*fn - c_(n-2)",
        "canonical": str(value),
        "terms": rules.vertex_terms(value),
    }
    _emit(payload, args.format)
    return 0


def _parse_offshell(spec: str | None, n: int) -> frozenset[int]:
    if spec is None or spec == "none":
        return frozenset()
    if spec == "all":
        return frozenset(range(1, n + 1))
    try:
        legs = frozenset(int(tok) for tok in spec.split(",") if tok)
    except ValueError as exc:
        raise ConfigError(f"bad offshell spec {spec!r}") from exc
    if not legs <= frozenset(range(1, n + 1)):
        raise ConfigError(f"offshell legs {sorted(legs)} outside 1..{n}")
    return legs


def _single_interaction(kind: str, s: int | None, theory: TheorySpec) -> TheorySpec:
    """The theory that b' and S sum over: one power-``s`` interaction (by
    default the first configured power, else 3) with its configured coupling,
    or ``lambda_s`` when none is configured."""
    if theory.generalized:
        raise ConfigError(f"treesum --kind {kind} needs the standard propagator")
    if s is None:
        s = theory.interactions[0].power if theory.interactions else 3
    return replace(theory, interactions=(rules.interaction(s, theory.coupling_of(s)),))


def cmd_treesum(args, cfg: dict) -> int:
    theory = build_theory(cfg)
    diffeo = build_diffeo(cfg)
    n = args.n
    if n < 1:
        raise ConfigError("treesum needs --n >= 1")
    if n > TREESUM_MAX_N:
        raise ConfigError(f"treesum --n is limited to {TREESUM_MAX_N}; the sums grow factorially in n")
    kind = args.kind
    for flag, given, kinds in (
        ("--offshell", args.offshell is not None, ("A",)),
        ("--reduced", args.reduced, ("bprime",)),
        ("--s", args.s is not None, ("bprime", "S")),
    ):
        if given and kind not in kinds:
            raise ConfigError(f"treesum {flag} is not read by --kind {kind}")
    offshell = _parse_offshell(args.offshell, n) if kind == "A" else frozenset()
    interacting = kind == "A" and any(it.power <= n for it in theory.interactions)
    caps = TREESUM_INTERACTING_A_CAPS if interacting else TREESUM_CAPS[kind]
    cap = caps[min(len(offshell), len(caps) - 1)]
    if n > cap:
        legs = f" with {len(offshell)} offshell legs" if kind == "A" else ""
        legs += " and an interaction configured" if interacting else ""
        raise ConfigError(f"treesum --kind {kind} --n is limited to {cap}{legs}, got {n}")
    mode = ("s_only" if args.reduced else "all_vertices") if kind == "bprime" else None
    if kind in ("bprime", "S"):
        theory = _single_interaction(kind, args.s, theory)
        (it,) = theory.interactions
    if args.trace:  # the rows of the dump, counted from the sizes before any sum
        rooted, interactions, exactly_one = shape = _trace_shape(kind, theory)
        powers = tuple(it.power for it in interactions)
        count = trees._decorated_counts(n if rooted else n - 1, powers, exactly_one)[exactly_one]
        if count > TREESUM_TRACE_MAX:
            raise ConfigError(f"treesum --trace is limited to {TREESUM_TRACE_MAX} decorated trees, got {count}")
    if kind == "b":
        result = trees.rooted_tree_sum(n, diffeo, theory=theory)
    elif kind == "bprime":
        result = trees.interacting_rooted_tree_sum(
            n, it.power, diffeo, mode=mode, coupling_value=it.coupling_value
        )
    elif kind == "A":
        result = trees.amputated_tree_sum(n, offshell, theory, diffeo)
    else:  # S
        result = trees.coupling_linear_tree_sum(n, it.power, diffeo, coupling_value=it.coupling_value)
    payload = {
        "kind": kind,
        "n": n,
        "offshell_set": sorted(offshell) if kind == "A" else None,
        "theory": theory.kind,
        "mode": mode,
        "tree_count": result.tree_count,
        "decorated_count": result.decorated_count,
        "value": str(result.value),
    }
    if args.trace:
        payload["trace"] = _trace(shape, n, offshell, theory, diffeo)
    _emit({k: v for k, v in payload.items() if v is not None}, args.format)
    return 0


def _trace_shape(kind: str, theory: TheorySpec) -> tuple[bool, tuple, bool]:
    """What ``--trace`` dumps for ``kind``: whether the trees are rooted,
    the interactions that decorate them, and whether each tree carries
    exactly one interaction vertex."""
    return kind in ("b", "bprime"), theory.interactions if kind != "b" else (), kind == "S"


def _trace(
    shape: tuple[bool, tuple, bool], n: int, offshell: frozenset[int], theory: TheorySpec, diffeo: DiffeoSpec
) -> list[dict]:
    """Per-tree dump through the reference amplitude path, over the theory
    whose sum ``cmd_treesum`` printed and the ``shape`` of
    :func:`_trace_shape`."""
    rows: list[dict] = []
    rooted, interactions, exactly_one = shape
    labels = range(1, n + 1)
    onshell = frozenset(labels) - offshell
    for topo in trees.enumerate_trees(labels, rooted):
        decos = (
            trees.enumerate_decorations(topo, interactions, exactly_one=exactly_one)
            if interactions
            else [None]
        )
        for deco in decos:
            value = trees.amplitude(
                topo, deco, theory, diffeo, onshell, include_root_propagator=rooted
            )
            rows.append(
                {
                    "topology": topo.encoding(),
                    "decoration": [list(tag) for tag in deco] if deco else None,
                    "amplitude": str(value),
                }
            )
    return rows


def _report_rows(reports, with_timing: bool) -> list[dict]:
    # Timing is excluded from the machine-readable stream so identical
    # config + seed produce byte-identical output; it goes to stderr instead.
    rows = [r.to_dict() for r in reports]
    if not with_timing:
        for row in rows:
            row.pop("wall_ms")
    return rows


_SUITE_DEFAULTS = {name: p.default for name, p in inspect.signature(verify.default_suite).parameters.items()}


def _suite_params(args, cfg: dict) -> dict:
    """Keyword arguments of ``verify.default_suite``: each from its flag, else
    from the config's ``suite`` section, else ``default_suite``'s default."""
    section = _section(cfg, "suite")
    params = {}
    for key, flag, least in (
        ("max_n", args.max_n, 1),
        ("order", args.order, 1),
        ("seed", args.seed, None),
        ("trials", None, 1),
        ("dimension", None, 2),
    ):
        value = flag if flag is not None else section.get(key, _SUITE_DEFAULTS[key])
        if not _is_int(value) or (least is not None and value < least):
            bound = f" of at least {least}" if least is not None else ""
            raise ConfigError(f"{key} must be an integer{bound}, got {value!r}")
        if value > VERIFY_CAPS.get(key, value):
            raise ConfigError(f"verify {key} is limited to {VERIFY_CAPS[key]}, got {value}")
        params[key] = value
    s_values = [args.s] if args.s is not None else section.get("s_values", list(_SUITE_DEFAULTS["s_values"]))
    if not (isinstance(s_values, list) and s_values and all(_is_int(s) and s >= 3 for s in s_values)):
        raise ConfigError(f"--s/suite.s_values must be powers of at least 3, got {s_values!r}")
    if len(s_values) > VERIFY_MAX_S_VALUES:
        raise ConfigError(f"verify s_values is limited to {VERIFY_MAX_S_VALUES} powers, got {len(s_values)}")
    repeated = next((s for i, s in enumerate(s_values) if s in s_values[:i]), None)
    if repeated is not None:
        raise ConfigError(f"suite.s_values repeats the power {repeated}; each power runs once")
    work = (max(s_values) - 1).bit_length() * params["order"]
    if work > VERIFY_RESIDUAL_WORK:
        raise ConfigError(f"verify (max s - 1).bit_length() * order is limited to {VERIFY_RESIDUAL_WORK}, got {work}")
    work = params["trials"] * params["dimension"]
    if work > VERIFY_KINEMATICS_WORK:
        raise ConfigError(f"verify trials * dimension is limited to {VERIFY_KINEMATICS_WORK}, got {work}")
    params["s_values"] = s_values
    return params


def cmd_verify(args, cfg: dict) -> int:
    for key in ("theory", "diffeo"):
        if key in cfg:
            raise ConfigError(f"verify reads only the config's suite section, not {key}")
    specs = verify.default_suite(**_suite_params(args, cfg))
    if args.check:
        known = verify.check_names()
        for i, name in enumerate(args.check):
            if name not in known:
                raise ConfigError(f"unknown check {name!r}; known: {', '.join(known)}")
            if name in args.check[:i]:
                raise ConfigError(f"verify --check repeats {name}; each check runs once")
        specs = [spec for name in args.check for spec in specs if spec.name == name]
    reports = verify.run_suite(specs)
    if args.format == "json":
        rows = _report_rows(reports, with_timing=False)
        sys.stdout.write(json.dumps({"reports": rows}, indent=2, sort_keys=True) + "\n")
    elif args.format == "csv":
        rows = _report_rows(reports, with_timing=False)
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(["name", "params", "status", "witness"])
        for row in rows:
            writer.writerow(
                [
                    row["name"],
                    json.dumps(row["params"], sort_keys=True),
                    row["status"],
                    json.dumps(row["witness"], sort_keys=True),
                ]
            )
        sys.stdout.write(buffer.getvalue())
    else:
        for row in _report_rows(reports, with_timing=True):
            line = f"[{row['status'].upper():4s}] {row['name']} {json.dumps(row['params'], sort_keys=True)} ({row['wall_ms']} ms)"
            sys.stdout.write(line + "\n")
            if row["witness"]:
                sys.stdout.write(f"       witness: {json.dumps(row['witness'], sort_keys=True)}\n")
    if args.format in ("json", "csv"):
        total = sum(r.wall_ms for r in reports)
        sys.stderr.write(f"suite wall time: {total} ms\n")
    return 0 if verify.suite_passed(reports) else 1


def _add_common(parser: argparse.ArgumentParser, top: bool) -> None:
    # On subparsers the defaults are suppressed so a flag given before the
    # subcommand is not clobbered by the subparser's defaults.
    default = (lambda v: v) if top else (lambda v: argparse.SUPPRESS)
    parser.add_argument("--config", default=default(None), help="JSON configuration file")
    parser.add_argument(
        "--format", choices=["json", "csv", "pretty"], default=default("pretty")
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diffeorules",
        description="Exact Feynman rules and tree-level cancellation checks for field substitutions",
    )
    _add_common(parser, top=True)
    sub = parser.add_subparsers(dest="command", required=True)

    p_rules = sub.add_parser("rules", help="print a vertex rule")
    _add_common(p_rules, top=False)
    p_rules.add_argument("--n", type=int, required=True, help="vertex valence")
    p_rules.add_argument("--kind", choices=["free", "interaction", "total", "generalized"], default="free")
    p_rules.add_argument("--s", type=int, help="interaction power for --kind interaction")

    p_sum = sub.add_parser("treesum", help="evaluate a tree sum")
    _add_common(p_sum, top=False)
    p_sum.add_argument("--kind", choices=["b", "bprime", "A", "S"], required=True)
    p_sum.add_argument("--n", type=int, required=True)
    p_sum.add_argument("--s", type=int, help="interaction power for bprime/S")
    p_sum.add_argument("--offshell", help="offshell legs for A: 'all', 'none' or comma list")
    p_sum.add_argument("--reduced", action="store_true", help="use the reduced gluing for bprime")
    p_sum.add_argument("--trace", action="store_true", help="dump every decorated tree")

    p_verify = sub.add_parser("verify", help="run theorem checks")
    _add_common(p_verify, top=False)
    p_verify.add_argument(
        "--check", action="append", help="check name (repeatable, run in the order given); default: full suite"
    )
    p_verify.add_argument("--max-n", dest="max_n", type=int)
    p_verify.add_argument("--s", type=int)
    p_verify.add_argument("--order", type=int)
    p_verify.add_argument("--seed", type=int)
    return parser


def _run(argv: list[str] | None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.format == "csv" and args.command != "verify":
            raise ConfigError(f"--format csv is for verify; {args.command} prints pretty or json")
        cfg = load_config(args.config)
        if args.command == "rules":
            return cmd_rules(args, cfg)
        if args.command == "treesum":
            return cmd_treesum(args, cfg)
        return cmd_verify(args, cfg)
    except (ConfigError, AlgebraError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


def main(argv: list[str] | None = None) -> int:
    try:
        code = _run(argv)
        # Flush here, so a closed stdout raises below and not at exit.
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout (``| head``): send what is left to devnull
        # so the interpreter's final flush cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 128 + 13  # SIGPIPE
    except KeyboardInterrupt:
        sys.stderr.write("interrupted\n")
        return 128 + 2  # SIGINT


if __name__ == "__main__":
    sys.exit(main())
