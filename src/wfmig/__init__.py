"""History-equivalence mapping between workflow nets for process migration.

Exports what a command or the benchmark's input generator runs."""

from .errors import (NetFormatError, StateLimitError, TtsLimitError,
                     UnsafeNetError, WfmigError)
from .net import (Transition, ValidationReport, Violation, WFNet,
                  marking_key, validate_structural)
from .reachability import ReachGraph, build_reachability, validate_behavioral
from .tts import tts_all
from .equivalence import MappingTable, change_region, find_equivalence_mapping
from .oracle import GenParams, random_wfnet
from .netformat import parse_net, serialize_net

__version__ = "0.1.0"
