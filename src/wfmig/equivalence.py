"""History-equivalence mapping between an old and a new workflow net.

Two markings are history equivalent when some trace to each yields the same
transition set.  Empty helper transitions carry no business meaning, so each
net's TTS families are purged of its own empty labels before comparison; a
TTS that becomes empty after purging matches another empty purged TTS (this
makes markings reached only through helper transitions equivalent to the
initial marking).
"""

from dataclasses import dataclass

from .reachability import DEFAULT_MAX_STATES, build_reachability
from .tts import tts_all


@dataclass(frozen=True)
class MappingTable:
    """Rows (old node key, sorted tuple of equivalent new node keys), sorted
    by old key.  An empty equivalents tuple puts the row in the change
    region."""

    rows: tuple


def purge(family, empty_labels):
    """Remove empty-transition labels from every member set; deduplicate.
    The production path never calls it: ``tts_all`` drops the labels as it
    walks.  It stays as the reference the tests check that against."""
    empty = frozenset(empty_labels)
    return frozenset(tts - empty for tts in family)


def find_equivalence_mapping(old_net, new_net, max_states=DEFAULT_MAX_STATES):
    """Build both reachability graphs and their purged TTS families, index
    the new markings by the purged TTSs they hold, and list for every old
    marking all new markings sharing at least one purged TTS."""
    old_graph = build_reachability(old_net, max_states)
    new_graph = build_reachability(new_net, max_states)

    holders = {}
    for new_key, family in tts_all(new_graph, new_net.empty_labels).items():
        for member in family:
            holders.setdefault(member, set()).add(new_key)

    old_fams = tts_all(old_graph, old_net.empty_labels)
    return MappingTable(tuple(
        (key, tuple(sorted(set().union(*(holders.get(m, ()) for m in fam)))))
        for key, fam in sorted(old_fams.items())))


def change_region(table):
    """Old markings with no history-equivalent new marking."""
    return {key for key, eq in table.rows if not eq}
