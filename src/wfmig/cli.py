"""Command-line interface.

Exit codes: 0 success, 1 domain error (validation failure, state or TTS
limit, unsafe net, unreachable marking), 2 usage error, a net file that
cannot be read or parsed, or a ``--dot`` file or stdout that cannot be
written (a closed pipe or a full disk included; one ``WRITE_ERROR`` line).
Diagnostics go to stderr, data to stdout, and all output is
byte-deterministic for equal inputs and flags.  A coded error line is one
line: a line break in the argv text it echoes is written as its escape.
``reach --dot``, ``map`` and ``tts`` write their text in batches of about
``BATCH_CHARS`` characters as it is made, so none holds the whole text
(``tts`` sorts its members first); ``to_dot`` and ``emit_*`` join the same
pieces into one string.
Every command runs the production engines only.  The paper's fixpoint
(``tts.tts_for_node``) reads the same graph and is for the tests, as are
the oracle and the frozenset token game in ``tests/reference.py``.

Each command is its own process, so importing costs more than the work on
a small net, and a command loads only the modules it runs.  This module
loads ``errors``, ``net``, ``reachability`` and ``netformat`` (with
``json``): all that ``validate`` and ``reach`` need.  ``tts`` loads
``tts``; ``map`` loads ``equivalence`` and ``tts``, and ``csv`` for
``--format csv``; ``gen-net`` loads ``oracle`` and ``random``.

The argument parser is built once per process (``_parsers``): the top
level and one parser per command under it.  When the first word of the
argv names a command, ``main`` runs that command's parser alone and skips
the top level's parse; any other argv (none, ``--help``, an unknown
command) runs the top level, which also reports a word the command leaves
over.  A net file is read as bytes and decoded once, with the text a
text-mode read gives.
"""

import argparse
import functools
import gc
import os
import sys

from . import netformat, reachability
from .errors import NetFormatError, WfmigError
from .net import key_label, marking_key, validate_structural
from .reachability import DEFAULT_MAX_STATES, DEFAULT_MAX_TTS_STATES

USAGE_ERROR = 2
DOMAIN_ERROR = 1
# a batch of output text is written once it holds this many characters
BATCH_CHARS = 1 << 16
# each character str.splitlines breaks a line at -> its repr escape
LINE_BREAK_ESCAPES = {ord(c): repr(c)[1:-1]
                      for c in "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"}


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


def _reason(exc):
    return exc.strerror if isinstance(exc, OSError) else exc


def _load_net(path):
    r"""The net in the file at ``path``, its text as a text-mode read gives
    it: decoded as UTF-8 in one pass over the bytes, then ``\r\n`` and a
    lone ``\r`` read as ``\n`` (universal newlines)."""
    try:
        with open(path, "rb") as handle:
            text = handle.read().decode("utf-8")
    except (OSError, ValueError) as exc:    # a NUL in the path, bad UTF-8
        raise NetFormatError("cannot read %s: %s" % (path, _reason(exc)),
                             code="PARSE_ERROR") from exc
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
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


def _parse_marking(text):
    return frozenset(p.strip() for p in text.split(",") if p.strip())


def cmd_validate(args):
    net = _load_net(args.net)
    structural = validate_structural(net)
    _print_violations(structural)
    behavioral_ok = False
    if structural.ok:
        graph = reachability.build_reachability(net, args.max_states)
        behavioral = reachability.validate_behavioral(graph)
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
        except (OSError, ValueError) as exc:    # ValueError: a NUL in it
            raise NetFormatError("cannot write %s: %s"
                                 % (args.dot, _reason(exc)),
                                 code="WRITE_ERROR") from exc
    print("nodes: %d" % len(graph.nodes))
    print("edges: %d" % len(graph.edges))
    ends = ((graph.initial,) if graph.terminal is None
            else (graph.initial, graph.terminal))
    names = [key_label(key) for key in graph.keys(ends)] + ["-"]
    print("initial: %s" % names[0])
    print("terminal: %s" % names[1])
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
    family = tts.tts_all(graph, ignore, target=node,
                         max_states=args.max_tts_states)[node]
    members = sorted(reachability.decode_masks(graph.labels, family))
    _write_batched(sys.stdout, (key_label(",".join(labels)) + "\n"
                                for labels in members))
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


def _bounded(cast, low, high=None):
    """An argparse type: ``cast(text)`` from ``low`` to ``high``, or with
    no upper bound when ``high`` is None, so a value that does not parse,
    one out of range, ``nan`` and ``inf`` are usage errors and not a
    ``ValueError`` from the library."""
    def parse(text):
        try:
            value = cast(text)
        except ValueError:
            raise argparse.ArgumentTypeError("invalid %s value: %r"
                                             % (cast.__name__, text)) from None
        if high is None and not low <= value:
            raise argparse.ArgumentTypeError("must be at least %d: %r"
                                             % (low, text))
        if high is not None and not low <= value <= high:
            raise argparse.ArgumentTypeError("must be in [%g, %g]: %r"
                                             % (low, high, text))
        return value
    return parse


def _add_max_states(parser):
    parser.add_argument("--max-states", type=_bounded(int, 1),
                        default=DEFAULT_MAX_STATES,
                        help="abort when the reachability graph exceeds this "
                             "many markings (default %d)" % DEFAULT_MAX_STATES)


def _add_max_tts_states(parser):
    parser.add_argument("--max-tts-states", type=_bounded(int, 1),
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


def _add_validate(parser):
    parser.add_argument("net", help="net document (JSON)")
    _add_max_states(parser)
    parser.set_defaults(func=cmd_validate)


def _add_reach(parser):
    parser.add_argument("net")
    parser.add_argument("--dot", metavar="FILE",
                        help="write the graph as DOT")
    _add_max_states(parser)
    parser.set_defaults(func=cmd_reach)


def _add_tts(parser):
    parser.add_argument("net")
    parser.add_argument("--marking", required=True,
                        help="comma-separated place names")
    parser.add_argument("--keep-empty", action="store_true",
                        help="keep empty-transition labels in the output")
    _add_max_states(parser)
    _add_max_tts_states(parser)
    parser.set_defaults(func=cmd_tts)


def _add_map(parser):
    parser.add_argument("--old", required=True, help="old net document")
    parser.add_argument("--new", required=True, help="new net document")
    parser.add_argument("--format", choices=["table", "json", "csv"],
                        default="table")
    parser.add_argument("--fail-on-change-region", action="store_true",
                        help="exit 1 when any marking has no equivalent")
    _add_max_states(parser)
    _add_max_tts_states(parser)
    parser.set_defaults(func=cmd_map)


def _add_gen_net(parser):
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-places", type=_bounded(int, 2), default=8)
    parser.add_argument("--max-transitions", type=_bounded(int, 1),
                        default=10)
    parser.add_argument("--loop-probability", type=_bounded(float, 0, 1),
                        default=0.2)
    parser.add_argument("--parallel-probability", type=_bounded(float, 0, 1),
                        default=0.3)
    parser.set_defaults(func=cmd_gen_net)


# name -> (help in the command list, function that adds the arguments); a
# command with no help is left out of the list
_COMMANDS = {
    "validate": ("structural and behavioral workflow-net checks",
                 _add_validate),
    "reach": ("build the reachability graph", _add_reach),
    "tts": ("trace transition sets of one reachable marking", _add_tts),
    "map": ("history-equivalence mapping old net -> new net", _add_map),
    # a debugging helper, kept out of the advertised command list
    "gen-net": (None, _add_gen_net),
}


@functools.cache
def _parsers():
    """The whole parser and, by name, the command parsers its subparsers
    action made, built once per process: building costs more than parsing,
    and parsing leaves them unchanged."""
    parser = _Parser(
        prog="wfmig",
        description="History-equivalence mapping between workflow nets "
                    "for dynamic process migration.")
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="{validate,reach,tts,map}")
    commands = {}
    for name, (summary, add) in _COMMANDS.items():
        commands[name] = (sub.add_parser(name) if summary is None
                          else sub.add_parser(name, help=summary))
        add(commands[name])
    return parser, commands


def _parse_args(argv):
    """``argv`` parsed as the whole parser parses it.  When the first word
    names a command, that command's parser runs alone, without the top
    level's parse; a word it leaves over is the top level's usage error,
    as it would be."""
    parser, commands = _parsers()
    if argv and argv[0] in commands:
        args, extras = commands[argv[0]].parse_known_args(argv[1:])
        if extras:
            parser.error("unrecognized arguments: %s" % " ".join(extras))
        return args
    return parser.parse_args(argv)


def _run(argv):
    try:
        args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    try:
        return args.func(args)
    except WfmigError as exc:
        print(("%s: %s" % (exc.code, exc)).translate(LINE_BREAK_ESCAPES),
              file=sys.stderr)
        return (USAGE_ERROR if isinstance(exc, NetFormatError)
                else DOMAIN_ERROR)


def main(argv=None):
    """Run one command; returns its exit code.  The cyclic garbage
    collector is off for the call and then set back as it was: a command
    leaves no reference cycles to collect, so its passes, which the many
    containers a graph or a closure allocates would set off, find
    nothing."""
    collecting = gc.isenabled()
    gc.disable()
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
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
