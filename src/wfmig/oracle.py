"""A random sound-net generator, behind ``gen-net`` and the benchmark's
input nets.  The brute-force TTS oracle the tests check against lives
with them, in ``tests/reference.py``.
"""

import random
from dataclasses import dataclass

from .net import WFNet


@dataclass(frozen=True)
class GenParams:
    seed: int = 0
    max_places: int = 8
    max_transitions: int = 10
    loop_probability: float = 0.2
    parallel_probability: float = 0.3


class _NetBuilder:
    """Expands a worklist of (entry place, exit place) block slots.

    Every pending slot still costs at least one transition, so a composite
    pattern is committed only when the budget covers its own additions plus
    one transition per slot that will remain pending.  That keeps
    max_places / max_transitions hard limits.
    """

    def __init__(self, params):
        self.rng = random.Random(params.seed)
        self.params = params
        self.places = []
        self.transitions = []
        self.arcs = []

    def place(self):
        name = "p%d" % len(self.places)
        self.places.append(name)
        return name

    def task(self, inputs, outputs):
        label = "T%d" % len(self.transitions)
        self.transitions.append(label)
        for p in inputs:
            self.arcs.append((p, label))
        for p in outputs:
            self.arcs.append((label, p))
        return label

    def build(self, entry, exit_):
        pending = [(entry, exit_)]
        while pending:
            slot_entry, slot_exit = pending.pop(0)

            def room(add_places, add_transitions, slots_after):
                return (len(self.places) + add_places
                        <= self.params.max_places
                        and len(self.transitions) + add_transitions
                        + len(pending) + slots_after
                        <= self.params.max_transitions)

            r = self.rng.random()
            p = self.params
            if r < p.loop_probability and room(2, 3, 1):
                # entry -> a ~body~ b -> exit, with a redo transition b -> a
                a = self.place()
                b = self.place()
                self.task([slot_entry], [a])
                self.task([b], [slot_exit])
                self.task([b], [a])
                pending.append((a, b))
            elif (r < p.loop_probability + p.parallel_probability
                  and room(4, 2, 2)):
                # fork into two concurrent branches, then join
                a1, a2, b1, b2 = (self.place() for _ in range(4))
                self.task([slot_entry], [a1, b1])
                self.task([a2, b2], [slot_exit])
                pending.append((a1, a2))
                pending.append((b1, b2))
            elif r < 0.75 and room(1, 0, 2):
                # sequence of two sub-blocks
                mid = self.place()
                pending.append((slot_entry, mid))
                pending.append((mid, slot_exit))
            elif r < 0.9 and room(0, 0, 2):
                # exclusive choice between two alternative sub-blocks
                pending.append((slot_entry, slot_exit))
                pending.append((slot_entry, slot_exit))
            else:
                self.task([slot_entry], [slot_exit])


def random_wfnet(params):
    """A structurally and behaviorally valid random workflow net, built
    compositionally from sequence, choice, parallel, and loop blocks.
    Deterministic in the seed."""
    if params.max_transitions < 1 or params.max_places < 2:
        raise ValueError("need at least 2 places and 1 transition")
    b = _NetBuilder(params)
    source = b.place()
    sink = b.place()
    b.build(source, sink)
    return WFNet(b.places, b.transitions, b.arcs,
                 initial_marking={source}, name="random-%d" % params.seed)
