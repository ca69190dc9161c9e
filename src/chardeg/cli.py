"""Command-line interface.

Exit codes: 0 success, 1 a verification check failed or ended in an error,
2 usage error, 3 a cap or randomized-search budget was exceeded (for
verify: a check was inconclusive and none failed or erred).  All randomized
procedures key off --seed (or the CHARDEG_SEED environment variable, a
non-negative integer), and identical invocations produce byte-identical
JSON, except for the wall-clock seconds in the "timings" block of a
verify report.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from chardeg.classify import (
    CASE_LETTERS,
    ClassifyError,
    GroupDescriptor,
    inequality_ledger,
    predicted_cut_vertex_graph,
    semidirect_degrees,
)
from chardeg.fields import FieldError
from chardeg.graphs import DegreeSetError, analyze, degree_set, graph_from_degrees
from chardeg.groups import CapExceeded, GroupError, sl2_group
from chardeg.modules import (
    InconclusiveError,
    ModuleError,
    irreducible_catalog,
    module_from_json,
    natural_restricted,
)
from chardeg.numtheory import factorize, is_prime
from chardeg.orbits import covering_classify, orbit_decompose
from chardeg.verify import SUITES, Harness, report_json, run_checks

USAGE_ERROR = 2
CAP_ERROR = 3


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_graph(args) -> int:
    if args.degrees:
        g = graph_from_degrees(args.degrees)
    elif args.family and args.q:
        g = graph_from_degrees(degree_set(args.family, args.q))
    else:
        raise DegreeSetError("graph needs --degrees or --family with --q")
    payload = {"graph": g.to_json(), "analysis": analyze(g).to_json()}
    _emit(payload, args.out)
    return 0


def _cmd_group(args) -> int:
    g = sl2_group(args.group)
    q = g.field.order
    payload = {
        "group": g.to_json(),
        "order": g.order,
        "expected_order": q * (q * q - 1),
    }
    _emit(payload, args.out)
    return 0


def _cmd_module(args) -> int:
    g = sl2_group(args.group)
    if args.action == "catalog":
        cat = irreducible_catalog(g, args.char, args.cap, seed=args.seed)
        _emit(cat.to_json(), args.out)
        return 0
    if args.action == "natural":
        m = natural_restricted(g.field.order, g)
        _emit(m.to_json(), args.out)
        return 0
    if args.action == "select":
        cat = irreducible_catalog(g, args.char, args.cap, seed=args.seed)
        hits = cat.select(dim=args.dim, faithful=args.faithful, ell=args.ell)
        if not hits:
            raise ModuleError("no catalog entry matches the selection")
        if not 0 <= args.index < len(hits):
            raise ModuleError(f"--index {args.index} is outside [0, {len(hits)}) for this selection")
        _emit(hits[args.index].module.to_json(), args.out)
        return 0
    raise ModuleError(f"unknown module action {args.action!r}")


def _read_module(path: str, group):
    with open(path) as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:
            raise ModuleError(f"module file {path} is not JSON: {exc}") from None
    return module_from_json(data, group=group)


def _cmd_orbits(args) -> int:
    group = sl2_group(args.group) if args.group else None
    m = _read_module(args.module, group)
    if args.action == "classify":
        report = covering_classify(m, r=args.r, s=args.s)
    else:
        report = orbit_decompose(m)
    _emit(report.to_json(), args.out)
    return 0


def _cmd_classify(args) -> int:
    if args.ledger:
        rows = inequality_ledger(args.ledger, q_max=args.q_max, ell_max=args.ell_max)
        _emit({"family": args.ledger, "failing": [list(t) for t in rows]}, args.out)
        return 0
    if args.case is None or args.q is None or args.p is None:
        raise ClassifyError("classify needs --ledger, or --case with --q and --p")
    d = GroupDescriptor(args.case, args.q, args.p, vgk=args.vgk or frozenset({args.p}))
    report = predicted_cut_vertex_graph(d)
    _emit(report.to_json(), args.out)
    return 0 if report.ok else 1


def _cmd_extension(args) -> int:
    m = _read_module(args.module, sl2_group(args.group))
    ds = semidirect_degrees(m)
    graph = graph_from_degrees(ds)
    payload = {
        "degrees": ds.as_sorted(),
        "assumption": "split extension; linear characters extend to inertia groups",
        "graph": graph.to_json(),
        "analysis": analyze(graph).to_json(),
    }
    _emit(payload, args.out)
    return 0


def _cmd_verify(args) -> int:
    results = run_checks(args.suite, Harness(args.seed))
    payload = report_json(results)
    for r in sorted(results, key=lambda r: r.name):
        line = f"[{r.status.upper():5s}] {r.suite}/{r.name} ({r.elapsed:.1f}s)"
        print(line, file=sys.stderr)
    _emit(payload, args.out)
    if any(r.status in ("fail", "error") for r in results):
        return 1
    return CAP_ERROR if any(r.status == "inconclusive" for r in results) else 0


def _seed(text: str) -> int:
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"a seed must be a non-negative integer, got {text!r}")
    return int(text)


def _positive(text: str) -> int | None:
    """text as a positive integer, or None."""
    text = text.strip()
    return int(text) if text.isascii() and text.isdigit() and int(text) > 0 else None


def _positive_int(text: str) -> int:
    n = _positive(text)
    if n is None:
        raise argparse.ArgumentTypeError(f"a positive integer is needed, got {text!r}")
    return n


def _degrees(text: str) -> list[int]:
    parts = [_positive(part) for part in text.split(",")]
    if None in parts:
        raise argparse.ArgumentTypeError(
            f"degrees must be a comma-separated list of positive integers, got {text!r}"
        )
    return parts


def _prime(text: str) -> int:
    p = _positive(text)
    if p is None or not is_prime(p):
        raise argparse.ArgumentTypeError(f"a prime is needed, got {text!r}")
    return p


def _primes(text: str) -> frozenset[int]:
    parts = [_positive(part) for part in text.split(",")]
    if not all(p is not None and is_prime(p) for p in parts):
        raise argparse.ArgumentTypeError(f"a comma-separated list of primes is needed, got {text!r}")
    return frozenset(parts)


def _prime_power(text: str) -> int:
    q = _positive(text)
    if q is None or q >= 1 << 63 or len(factorize(q)) != 1:
        raise argparse.ArgumentTypeError(f"q must be a prime power below 2^63, got {text!r}")
    return q


def _group(text: str) -> int:
    """The q of a group spec sl2:q; q < 4 is refused here, q > 49 by sl2_group's cap."""
    name, _, qs = text.partition(":")
    if name != "sl2":
        raise argparse.ArgumentTypeError(f"a group spec looks like sl2:13, got {text!r}")
    q = _prime_power(qs)
    if q < 4:
        raise argparse.ArgumentTypeError(f"sl2:q needs q >= 4, got {text!r}")
    return q


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="chardeg",
        description="Exact toolkit for degree prime graphs of SL2(q) and its module extensions",
    )
    env_seed = os.environ.get("CHARDEG_SEED", "")
    try:
        default_seed = _seed(env_seed) if env_seed else 42
    except argparse.ArgumentTypeError as exc:
        ap.error(f"CHARDEG_SEED: {exc}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("graph", help="build and analyze a degree prime graph")
    p.add_argument("--degrees", type=_degrees, help="comma-separated degree set, e.g. 1,6,15")
    p.add_argument("--family", choices=["psl2", "sl2", "pgl2"])
    p.add_argument("--q", type=_prime_power)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_graph)

    p = sub.add_parser("group", help="enumerate a matrix group")
    p.add_argument("--group", type=_group, required=True, help="compact spec, e.g. sl2:13")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_group)

    p = sub.add_parser("module", help="build modules and catalogs")
    p.add_argument("action", choices=["catalog", "natural", "select"])
    p.add_argument("--group", type=_group, required=True)
    p.add_argument("--char", type=int, default=2, help="module field characteristic")
    p.add_argument("--cap", type=_positive_int, default=20, help="catalog dimension cap")
    p.add_argument("--dim", type=int)
    p.add_argument("--faithful", action="store_true", default=None)
    p.add_argument("--ell", type=int)
    p.add_argument("--index", type=int, default=0)
    p.add_argument("--seed", type=_seed, default=default_seed)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_module)

    p = sub.add_parser("orbits", help="orbit decomposition and covering flags")
    p.add_argument("action", choices=["decompose", "classify"])
    p.add_argument("--module", required=True, help="module JSON file")
    p.add_argument("--group", type=_group, help="optional sl2:q spec, which must match the module's stored group")
    p.add_argument("--r", type=_prime, help="odd prime dividing q-1")
    p.add_argument("--s", type=_prime, help="odd prime dividing q+1")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_orbits)

    p = sub.add_parser("classify", help="predicted cut-vertex graphs and ledgers")
    p.add_argument("--case", choices=[*CASE_LETTERS, *CASE_LETTERS.values()])
    p.add_argument("--q", type=_prime_power)
    p.add_argument("--p", type=_prime, help="the cut prime")
    p.add_argument("--vgk", type=_primes, help="comma-separated outer degree primes")
    p.add_argument("--ledger", help="inequality family name")
    p.add_argument("--q-max", type=_positive_int, dest="q_max")
    p.add_argument("--ell-max", type=_positive_int, default=8, dest="ell_max")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("extension", help="degree set of a split module extension")
    p.add_argument("--group", type=_group, required=True)
    p.add_argument("--module", required=True)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_extension)

    p = sub.add_parser("verify", help="run the acceptance harness")
    p.add_argument("--suite", choices=list(SUITES), default="all")
    p.add_argument("--seed", type=_seed, default=default_seed)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_verify)
    ap.subcommand_parsers = dict(sub.choices)
    return ap


class UsageError(Exception):
    """A command line or config file that cannot be used (exit 2)."""


def _apply_config(ap: argparse.ArgumentParser, argv: list[str]) -> list[str]:
    """Strip --config FILE from argv and install its keys as defaults.

    Config keys mirror flag names; explicit flags always win.  A value for
    a flag that takes an argument is installed as its string, which argparse
    reads like the flag's own argument text, so a bad value is refused alike.
    A flag that takes no argument accepts only true or false, and null leaves
    any flag at its default.
    """
    if "--config" not in argv:
        return argv
    i = argv.index("--config")
    if i + 1 >= len(argv):
        raise UsageError("--config needs a file path")
    path = argv[i + 1]
    with open(path) as fh:
        try:
            conf = json.load(fh)
        except ValueError as exc:
            raise UsageError(f"config file {path} is not JSON: {exc}") from None
    if not isinstance(conf, dict):
        raise UsageError(f"config file {path} must hold a JSON object")
    defaults = {str(k).replace("-", "_"): v for k, v in conf.items() if v is not None}
    for p in ap.subcommand_parsers.values():
        takes_arg = {a.dest: a.nargs != 0 for a in p._actions}
        for k, v in defaults.items():
            if k in takes_arg and not takes_arg[k] and not isinstance(v, bool):
                raise UsageError(f"config key {k!r}: a flag without an argument takes true, false or null, got {v!r}")
        p.set_defaults(**{k: str(v) if takes_arg[k] else v for k, v in defaults.items() if k in takes_arg})
    return argv[:i] + argv[i + 2 :]


def _check_choices(p: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    """Refuse a value outside a flag's choices.

    argparse checks choices only on the command line, so a value that fails
    here came from a config file.
    """
    for a in p._actions:
        value = getattr(args, a.dest, None)
        if a.choices is not None and value is not None and value not in a.choices:
            choices = ", ".join(map(repr, a.choices))
            raise UsageError(f"config key {a.dest!r}: invalid choice {value!r} (choose from {choices})")


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        ap = build_parser()
        argv = _apply_config(ap, list(argv))
        args = ap.parse_args(argv)
        _check_choices(ap.subcommand_parsers[args.command], args)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    except (OSError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    try:
        return args.fn(args)
    except (InconclusiveError, CapExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return CAP_ERROR
    except (GroupError, ModuleError, FieldError, DegreeSetError, ClassifyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
