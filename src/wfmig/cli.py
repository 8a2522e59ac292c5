"""Command-line interface.

Exit codes: 0 success, 1 domain error (validation failure, state limit,
unsafe net, unreachable marking), 2 usage error, a net file that cannot be
read or parsed, or a ``--dot`` file that cannot be written.  Diagnostics
go to stderr, data to stdout, and all output is byte-deterministic for
equal inputs and flags.
"""

import argparse
import functools
import sys

from . import equivalence, netformat, oracle, reachability, tts
from .errors import NetFormatError, WfmigError
from .net import key_label, marking_key, validate_structural
from .reachability import DEFAULT_MAX_STATES

USAGE_ERROR = 2
DOMAIN_ERROR = 1


def _load_net(path):
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        reason = exc.strerror if isinstance(exc, OSError) else exc
        raise NetFormatError("cannot read %s: %s" % (path, reason),
                             code="PARSE_ERROR") from exc
    return netformat.parse_net(text)


def _print_violations(report, file=None):
    for v in report.violations:
        print("%s %s: %s" % (v.code, v.element, v.message), file=file)


def _require_structural(net):
    report = validate_structural(net)
    if not report.ok:
        _print_violations(report, sys.stderr)
        raise WfmigError("net %r is not a valid workflow net" % net.name,
                         code="INVALID_NET")
    return report


def _parse_marking(text):
    return frozenset(p.strip() for p in text.split(",") if p.strip())


def cmd_validate(args):
    net = _load_net(args.net)
    structural = validate_structural(net)
    _print_violations(structural)
    behavioral_ok = False
    if structural.ok:
        graph = reachability.build_reachability(net, args.max_states)
        behavioral = reachability.validate_behavioral(net, graph)
        _print_violations(behavioral)
        behavioral_ok = behavioral.ok
    print("structural: %s" % ("ok" if structural.ok else "FAILED"))
    print("behavioral: %s"
          % ("ok" if behavioral_ok else "FAILED" if structural.ok
             else "skipped"))
    return 0 if structural.ok and behavioral_ok else DOMAIN_ERROR


def cmd_reach(args):
    net = _load_net(args.net)
    _require_structural(net)
    graph = reachability.build_reachability(net, args.max_states)
    if args.dot:
        try:
            with open(args.dot, "w", encoding="utf-8") as handle:
                handle.write(reachability.to_dot(graph))
        except OSError as exc:
            raise NetFormatError("cannot write %s: %s"
                                 % (args.dot, exc.strerror),
                                 code="WRITE_ERROR") from exc
    print("nodes: %d" % len(graph.nodes))
    print("edges: %d" % len(graph.edges))
    print("initial: %s" % key_label(graph.initial))
    print("terminal: %s" % (key_label(graph.terminal)
                            if graph.terminal is not None else "-"))
    return 0


def _reachable_marking(args):
    """The net, its reachability graph and the key of ``--marking``, which
    must be reachable."""
    net = _load_net(args.net)
    _require_structural(net)
    graph = reachability.build_reachability(net, args.max_states)
    key = marking_key(_parse_marking(args.marking))
    if key not in graph.succ:
        raise WfmigError("marking %s is not reachable" % key_label(key),
                         code="UNREACHABLE_MARKING")
    return net, graph, key


def _print_family(family):
    for member in sorted(family, key=sorted):
        print(key_label(marking_key(member)))


def cmd_tts(args):
    net, graph, key = _reachable_marking(args)
    ignore = frozenset() if args.keep_empty else net.empty_labels
    _print_family(tts.tts_all(graph, ignore)[key])
    return 0


def cmd_map(args):
    old_net = _load_net(args.old)
    new_net = _load_net(args.new)
    _require_structural(old_net)
    _require_structural(new_net)
    table = equivalence.find_equivalence_mapping(old_net, new_net,
                                                 args.max_states)
    emit = {"table": netformat.emit_table,
            "json": netformat.emit_json,
            "csv": netformat.emit_csv}[args.format]
    sys.stdout.write(emit(old_net, new_net, table))
    if args.fail_on_change_region and equivalence.change_region(table):
        return DOMAIN_ERROR
    return 0


def cmd_gen_net(args):
    params = oracle.GenParams(seed=args.seed, max_places=args.max_places,
                              max_transitions=args.max_transitions,
                              loop_probability=args.loop_probability,
                              parallel_probability=args.parallel_probability)
    sys.stdout.write(netformat.serialize_net(oracle.random_wfnet(params)))
    return 0


def cmd_oracle_tts(args):
    _, graph, key = _reachable_marking(args)
    _print_family(oracle.oracle_tts(graph, key, args.bound))
    return 0


def _int_at_least(low):
    """An argparse type: an int no smaller than ``low``, so a bad value is a
    usage error and not a ``ValueError`` from the library."""
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError("invalid int value: %r"
                                             % text) from None
        if value < low:
            raise argparse.ArgumentTypeError("must be at least %d: %r"
                                             % (low, text))
        return value
    return parse


def _add_max_states(parser):
    parser.add_argument("--max-states", type=_int_at_least(1),
                        default=DEFAULT_MAX_STATES,
                        help="abort when the reachability graph exceeds this "
                             "many markings (default %d)" % DEFAULT_MAX_STATES)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="wfmig",
        description="History-equivalence mapping between workflow nets "
                    "for dynamic process migration.")
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="{validate,reach,tts,map}")

    p = sub.add_parser("validate",
                       help="structural and behavioral workflow-net checks")
    p.add_argument("net", help="net document (JSON)")
    _add_max_states(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("reach", help="build the reachability graph")
    p.add_argument("net")
    p.add_argument("--dot", metavar="FILE", help="write the graph as DOT")
    _add_max_states(p)
    p.set_defaults(func=cmd_reach)

    p = sub.add_parser("tts",
                       help="trace transition sets of one reachable marking")
    p.add_argument("net")
    p.add_argument("--marking", required=True,
                   help="comma-separated place names")
    p.add_argument("--keep-empty", action="store_true",
                   help="keep empty-transition labels in the output")
    _add_max_states(p)
    p.set_defaults(func=cmd_tts)

    p = sub.add_parser("map",
                       help="history-equivalence mapping old net -> new net")
    p.add_argument("--old", required=True, help="old net document")
    p.add_argument("--new", required=True, help="new net document")
    p.add_argument("--format", choices=["table", "json", "csv"],
                   default="table")
    p.add_argument("--fail-on-change-region", action="store_true",
                   help="exit 1 when any marking has no equivalent")
    _add_max_states(p)
    p.set_defaults(func=cmd_map)

    # debugging helpers, kept out of the advertised command list
    p = sub.add_parser("gen-net")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-places", type=_int_at_least(2), default=8)
    p.add_argument("--max-transitions", type=_int_at_least(1), default=10)
    p.add_argument("--loop-probability", type=float, default=0.2)
    p.add_argument("--parallel-probability", type=float, default=0.3)
    p.set_defaults(func=cmd_gen_net)

    p = sub.add_parser("oracle-tts")
    p.add_argument("net")
    p.add_argument("--marking", required=True)
    p.add_argument("--bound", type=int, default=None)
    _add_max_states(p)
    p.set_defaults(func=cmd_oracle_tts)

    return parser


@functools.cache
def _shared_parser():
    """The parser ``main`` reuses: building it costs more than parsing with
    it, and parsing leaves it unchanged."""
    return build_parser()


def main(argv=None):
    try:
        args = _shared_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    try:
        return args.func(args)
    except WfmigError as exc:
        print("%s: %s" % (exc.code, exc), file=sys.stderr)
        return (USAGE_ERROR if isinstance(exc, NetFormatError)
                else DOMAIN_ERROR)


if __name__ == "__main__":
    sys.exit(main())
