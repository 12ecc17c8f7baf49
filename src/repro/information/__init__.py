"""Information theory: entropy tools and the Theorem 4.5 engine."""

from repro import lazy_getattr

_LAZY_EXPORTS = {
    "binary_entropy": "repro.information.entropy",
    "conditional_entropy": "repro.information.entropy",
    "entropy": "repro.information.entropy",
    "joint_entropy": "repro.information.entropy",
    "marginal_x": "repro.information.entropy",
    "marginal_y": "repro.information.entropy",
    "mutual_information": "repro.information.entropy",
    "validate_distribution": "repro.information.entropy",
    "PartitionCompReport": "repro.information.partition_comp",
    "evaluate_protocol": "repro.information.partition_comp",
    "implied_round_lower_bound": "repro.information.partition_comp",
    "information_lower_bound": "repro.information.partition_comp",
    "SampledInformationReport": "repro.information.sampling",
    "clear_run_memo": "repro.information.sampling",
    "estimate_protocol_information": "repro.information.sampling",
}

# Importing the submodule repro.information.entropy binds the package
# attribute ``entropy`` to that module, and then __getattr__ never fires
# for the function of the same name. Binding the function here, after
# the submodule is loaded, keeps ``repro.information.entropy`` the
# function. It is cheap: entropy.py imports only the standard library.
from repro.information.entropy import entropy  # noqa: E402

__getattr__ = lazy_getattr(globals())

__all__ = sorted(_LAZY_EXPORTS)
