"""Beam-splitter entanglement of temporally stable phase states.

Builds finite-dimensional generalized Weyl-Heisenberg algebras, their
unitary phase operator and phase states, sends the states through a
lossless beam splitter and quantifies the output entanglement by the
linear entropy, with every closed form cross-checked against an explicit
partial-trace route.

Each module loads on the first use of one of its names (PEP 562): a bare
`import phasebeam` loads none of them, and `from phasebeam.algebra import
build_structure` loads algebra and the errors it raises, not the rest.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each public name under its module, in the order of __all__.
_PUBLIC = {
    "algebra": ("Family", "StructureSpec", "build_structure", "structure_from_spacings",
                "ladder_minus", "ladder_plus", "number_operator", "phase_operator"),
    "phase_states": ("phase_state", "apply_phase_operator", "evolve_vector",
                     "overlap_direct", "overlap_closed", "closure_matrix"),
    "splitter": ("SplitterParams", "BipartiteVector", "tri_size", "split_number_state",
                 "split_phase_state", "reduced_density", "reduced_density_closed",
                 "validate_density"),
    "entropy": ("EntropyValue", "linear_entropy", "linear_entropy_closed"),
    "experiments": ("Axis", "SweepTable", "entropy_point", "sweep_r2_phi",
                    "sweep_s_balanced"),
    "errors": ("PhasebeamError", "InvalidDimensionError", "InvalidStructureError",
               "NonPositiveLevelError", "TraceNotZeroError", "MissingKappaError",
               "DimensionMismatchError", "NotNormalizedError", "InvalidDensityError",
               "NumericalConsistencyError", "UsageError", "RangeError"),
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names}
# The submodules an attribute reaches from a bare import; cli, checks and
# csvfmt are bound only once imported by name.
_SUBMODULES = (*_PUBLIC, "numerics")

__all__ = [*_HOME, "__version__"]


def __getattr__(name):
    """Load the module of a public name or a submodule on its first use.

    A public name's module has all its public names bound in the package at
    once, so later lookups of them do not come here.  An error raised while
    a module loads propagates as it is.
    """
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    home = _HOME[name]
    module = import_module(f".{home}", __name__)
    globals().update((n, getattr(module, n)) for n in _PUBLIC[home])
    return globals()[name]


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
