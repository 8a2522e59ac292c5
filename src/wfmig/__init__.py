"""History-equivalence mapping between workflow nets for process migration.

Exports what a command or the benchmark's input generator runs.  Each
exported name, and each submodule, is imported on first use (PEP 562
``__getattr__``), so a command loads only the modules it runs."""

import sys

__version__ = "0.1.0"

# each exported name, by the submodule that defines it
_EXPORTS = {
    "errors": ("NetFormatError", "StateLimitError", "TtsLimitError",
               "UnsafeNetError", "WfmigError"),
    "net": ("Transition", "ValidationReport", "Violation", "WFNet",
            "marking_key", "validate_structural"),
    "reachability": ("ReachGraph", "build_reachability",
                     "validate_behavioral"),
    "tts": ("tts_all",),
    "equivalence": ("MappingTable", "change_region",
                    "find_equivalence_mapping"),
    "oracle": ("GenParams", "random_wfnet"),
    "netformat": ("parse_net", "serialize_net"),
}
_HOME = {name: module for module, names in _EXPORTS.items()
         for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"cli"}


def _submodule(name):
    """Import ``wfmig.<name>``, which binds it on the package as well.
    ``__import__`` rather than ``importlib``, which ``python -S`` has not
    loaded."""
    __import__(__name__ + "." + name)
    return sys.modules[__name__ + "." + name]


def __getattr__(name):
    if name in _SUBMODULES:
        return _submodule(name)
    if name not in _HOME:
        raise AttributeError("module %r has no attribute %r"
                             % (__name__, name))
    value = getattr(_submodule(_HOME[name]), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(globals().keys() | _HOME.keys() | _SUBMODULES)
