"""Exact state complexity of bounded-length colored languages.

`import maxcomplex` loads no submodule: each name below is looked up in its
module on first use (PEP 562), so a caller pays only for what it touches.
"""

from importlib import import_module

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    name: module
    for module, names in {
        "core": "CapacityError ColoredFunction InputError MonotoneFunction Word is_early "
                "is_monotone is_zero rank residual unrank",
        "minauto": "NoAutomatonError Pdfa export_dot minimal_pdfa mn_class_count mn_classes "
                   "mn_equivalent run state_complexity states_by_depth",
        "bounds": "NeedCsgCountError NeedDedekindError complete_dfa_bound cp_family csg_bound "
                  "family_bound general_bound monotone_bound",
        "witness": "NoWitnessError construct_maximal crossover nonzero_functions",
        "counting": "NoMaxError count_max o_i onto_count onto_first_count stirling2",
        "lattice": "AdequacyCertificate AdequacyError LatticeMap Poset SearchOutcome "
                   "build_witness_language check_relation count_monotone enumerate_monotone "
                   "is_adequate is_isotone lemma_les_check named_embedding search_relation",
        "csg": "build_csg_witness check_csg_relation count_csg enumerate_csg enumerate_early "
               "majorization_leq search_csg_relation",
    }.items()
    for name in names.split()
}
_SUBMODULES = set(_EXPORTS.values())

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name in _EXPORTS:
        return getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    if name in _SUBMODULES:  # importing sets it as an attribute of the package
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_EXPORTS, *_SUBMODULES})
