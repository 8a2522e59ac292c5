"""Command-line interface.

Exit codes: 0 success, 1 domain error (validation failure, state or TTS
limit, unsafe net, unreachable marking), 2 usage error, a net file that
cannot be read or parsed, or a ``--dot`` file or stdout that cannot be
written (a closed pipe or a full disk included; one ``WRITE_ERROR`` line).
Diagnostics go to stderr, data to stdout, and all output is
byte-deterministic for equal inputs and flags.  ``reach --dot`` and ``map``
write their text in batches of about ``BATCH_CHARS`` characters as it is
made, so neither holds the whole text; ``to_dot`` and ``emit_*`` join the
same pieces into one string.  Every command runs the production engines
only.  The paper's fixpoint (``tts.tts_for_node``) reads the same graph
and is for the tests, as are the oracle and the frozenset token game in
``tests/reference.py``.

Each command is its own process, so importing costs more than the work on
a small net, and a command loads only the modules it runs.  This module
loads ``errors``, ``net``, ``reachability`` and ``netformat`` (with
``json``): all that ``validate`` and ``reach`` need.  ``tts`` loads
``tts``; ``map`` loads ``equivalence`` and ``tts``, and ``csv`` for
``--format csv``; ``gen-net`` loads ``oracle`` and ``random``.
"""

import argparse
import functools
import os
import sys

from . import netformat, reachability
from .errors import NetFormatError, WfmigError
from .net import _reach, key_label, marking_key, validate_structural
from .reachability import DEFAULT_MAX_STATES, DEFAULT_MAX_TTS_STATES

USAGE_ERROR = 2
DOMAIN_ERROR = 1
# a batch of output text is written once it holds this many characters
BATCH_CHARS = 1 << 16


def _write_batched(stream, pieces):
    """Write the pieces of a text as they come, joined into batches of
    about ``BATCH_CHARS``: no whole text is held, and a small one still
    goes out in one write."""
    batch, size = [], 0
    for piece in pieces:
        batch.append(piece)
        size += len(piece)
        if size >= BATCH_CHARS:
            stream.write("".join(batch))
            batch, size = [], 0
    stream.write("".join(batch))


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
    if args.dot is not None:
        try:
            with open(args.dot, "w", encoding="utf-8") as handle:
                _write_batched(handle, reachability.dot_lines(graph))
        except OSError as exc:
            raise NetFormatError("cannot write %s: %s"
                                 % (args.dot, exc.strerror),
                                 code="WRITE_ERROR") from exc
    print("nodes: %d" % len(graph.nodes))
    print("edges: %d" % len(graph.edges))
    print("initial: %s" % key_label(graph.key(graph.initial)))
    print("terminal: %s" % (key_label(graph.key(graph.terminal))
                            if graph.terminal is not None else "-"))
    return 0


def cmd_tts(args):
    from . import tts
    net = _load_net(args.net)
    _require_structural(net)
    graph = reachability.build_reachability(net, args.max_states)
    marking = _parse_marking(args.marking)
    node = graph.find(marking)
    if node is None:
        raise WfmigError("marking %s is not reachable"
                         % key_label(marking_key(marking)),
                         code="UNREACHABLE_MARKING")
    ignore = frozenset() if args.keep_empty else net.empty_labels
    ancestors = _reach({node}, graph.pred())
    family = tts.tts_all(graph, ignore, nodes=ancestors,
                         max_states=args.max_tts_states)[node]
    for labels in sorted(reachability.mask_names(graph.labels, member)
                         for member in family):
        print(key_label(",".join(labels)))
    return 0


def cmd_map(args):
    from . import equivalence
    old_net = _load_net(args.old)
    new_net = _load_net(args.new)
    _require_structural(old_net)
    _require_structural(new_net)
    table = equivalence.find_equivalence_mapping(old_net, new_net,
                                                 args.max_states,
                                                 args.max_tts_states)
    lines = {"table": netformat.table_lines,
             "json": netformat.json_lines,
             "csv": netformat.csv_lines}[args.format]
    _write_batched(sys.stdout, lines(old_net, new_net, table))
    if args.fail_on_change_region and equivalence.change_region(table):
        return DOMAIN_ERROR
    return 0


def cmd_gen_net(args):
    from . import oracle
    params = oracle.GenParams(seed=args.seed, max_places=args.max_places,
                              max_transitions=args.max_transitions,
                              loop_probability=args.loop_probability,
                              parallel_probability=args.parallel_probability)
    sys.stdout.write(netformat.serialize_net(oracle.random_wfnet(params)))
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


def _float_in(low, high):
    """An argparse type: a float from ``low`` to ``high``, so a value out of
    range, ``nan`` and ``inf`` are usage errors like a bad int."""
    def parse(text):
        try:
            value = float(text)
        except ValueError:
            raise argparse.ArgumentTypeError("invalid float value: %r"
                                             % text) from None
        if not low <= value <= high:
            raise argparse.ArgumentTypeError("must be in [%g, %g]: %r"
                                             % (low, high, text))
        return value
    return parse


def _add_max_states(parser):
    parser.add_argument("--max-states", type=_int_at_least(1),
                        default=DEFAULT_MAX_STATES,
                        help="abort when the reachability graph exceeds this "
                             "many markings (default %d)" % DEFAULT_MAX_STATES)


def _add_max_tts_states(parser):
    parser.add_argument("--max-tts-states", type=_int_at_least(1),
                        default=DEFAULT_MAX_TTS_STATES,
                        help="abort when a TTS closure exceeds this many "
                             "(marking, TTS) states (default %d)"
                             % DEFAULT_MAX_TTS_STATES)


class _Parser(argparse.ArgumentParser):
    """Lets a failed ``--help`` write to stdout through, to ``main``."""

    def _print_message(self, message, file=None):
        if message and file is sys.stdout:
            return file.write(message)
        return super()._print_message(message, file)


def build_parser():
    parser = _Parser(
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
    _add_max_tts_states(p)
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
    _add_max_tts_states(p)
    p.set_defaults(func=cmd_map)

    # a debugging helper, kept out of the advertised command list
    p = sub.add_parser("gen-net")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-places", type=_int_at_least(2), default=8)
    p.add_argument("--max-transitions", type=_int_at_least(1), default=10)
    p.add_argument("--loop-probability", type=_float_in(0, 1), default=0.2)
    p.add_argument("--parallel-probability", type=_float_in(0, 1),
                   default=0.3)
    p.set_defaults(func=cmd_gen_net)

    return parser


@functools.cache
def _shared_parser():
    """The parser ``main`` reuses: building it costs more than parsing with
    it, and parsing leaves it unchanged."""
    return build_parser()


def _run(argv):
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


def main(argv=None):
    try:
        code = _run(argv)
        sys.stdout.flush()          # a closed stdout fails here, not at exit
        return code
    except OSError as exc:
        # only a write to stdout gets here: a net file that cannot be read
        # and a --dot file that cannot be written are coded where they
        # fail.  A closed pipe, a full disk: one line and exit 2.
        if sys.stdout is sys.__stdout__:    # not a stream a caller swapped in
            # the interpreter flushes stdout once more as it exits; give
            # the unwritten bytes somewhere to go
            with open(os.devnull, "wb") as devnull:
                os.dup2(devnull.fileno(), sys.stdout.fileno())
        print("WRITE_ERROR: cannot write stdout: %s" % exc.strerror,
              file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
