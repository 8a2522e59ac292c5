"""History-equivalence mapping between workflow nets for process migration."""

from .errors import (BoundTooSmallError, NetFormatError, NotEnabledError,
                     StateLimitError, TtsLimitError, UnsafeFiringError,
                     UnsafeNetError, WfmigError)
from .net import (Transition, ValidationReport, Violation, WFNet, enabled,
                  fire, marking_key, validate_structural)
from .reachability import (ReachGraph, build_reachability, to_dot,
                           validate_behavioral)
from .tts import (Cycle, EdgeSet, attachable_cycles, expand_with_cycles,
                  find_cycles, find_simple_paths, tts_all, tts_for_node)
from .equivalence import (MappingTable, change_region,
                          find_equivalence_mapping, purge)
from .oracle import GenParams, oracle_tts, random_wfnet, sufficiency_bound
from .netformat import parse_net, serialize_net

__version__ = "0.1.0"
