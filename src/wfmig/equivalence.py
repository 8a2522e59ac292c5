"""History-equivalence mapping between an old and a new workflow net.

Two markings are history equivalent when some trace to each yields the same
transition set.  Empty helper transitions carry no business meaning, so each
net's TTS families are purged of its own empty labels before comparison; a
TTS that becomes empty after purging matches another empty purged TTS (this
makes markings reached only through helper transitions equivalent to the
initial marking).
"""

from collections import namedtuple

from .reachability import (DEFAULT_MAX_STATES, DEFAULT_MAX_TTS_STATES,
                           build_reachability)
from .tts import tts_all


class MappingTable(namedtuple("MappingTable", "rows")):
    """Rows (old node key, sorted tuple of equivalent new node keys), sorted
    by old key.  An empty equivalents tuple puts the row in the change
    region."""

    __slots__ = ()


# kept in the package: bench/tracer.py wraps it by module attribute
def purge(family, empty_labels):
    """Remove empty-transition labels from every member set; deduplicate.
    The production path never calls it: ``tts_all`` leaves the labels out
    as it walks.  It stays as the reference the tests check that against."""
    empty = frozenset(empty_labels)
    return frozenset(tts - empty for tts in family)


def find_equivalence_mapping(old_net, new_net, max_states=DEFAULT_MAX_STATES,
                             max_tts_states=DEFAULT_MAX_TTS_STATES):
    """Build both reachability graphs and their purged TTS families, index
    the new marking ids by the purged TTSs they hold, and list for every
    old marking all new markings sharing at least one purged TTS; node ids
    become keys only here, in the rows.

    Both closures take one alphabet: the sorted labels of both nets' purged
    alphabets (a net's labels less its own empty labels), so a TTS is one
    int key in the index whichever net it comes from.  A purged TTS holding
    a label the other net's purged alphabet lacks can match no purged TTS
    of the other net, and nor can any TTS a longer trace grows from it, so
    neither closure follows a trace that fires such a label (see
    ``tts_all``).  ``max_states`` bounds each reachability graph and
    ``max_tts_states`` each closure."""
    old_graph = build_reachability(old_net, max_states)
    new_graph = build_reachability(new_net, max_states)
    order = sorted((old_net.labels - old_net.empty_labels)
                   & (new_net.labels - new_net.empty_labels))

    holders = {}
    for node, family in tts_all(new_graph, new_net.empty_labels, order,
                                max_states=max_tts_states).items():
        for member in family:
            holders.setdefault(member, []).append(node)

    old_fams = tts_all(old_graph, old_net.empty_labels, order,
                       max_states=max_tts_states)
    old_keys, new_keys = old_graph.keys(), new_graph.keys()
    rows = []
    for node, family in old_fams.items():
        # not set().union(*generator), nor a row's tuple(map(...)) or
        # tuple(generator): CPython turns the iterator into a tuple of
        # guessed size and resizes it, and the resized tuples pile up in its
        # tuple free lists, which only a full collection empties; a tuple
        # made from a list has its size from the start
        matches = set()
        for member in family:
            matches.update(holders.get(member, ()))
        rows.append((old_keys[node],
                     tuple(sorted([new_keys[match] for match in matches]))))
    rows.sort()
    return MappingTable(tuple(rows))


def change_region(table):
    """Old markings with no history-equivalent new marking."""
    return {key for key, eq in table.rows if not eq}
