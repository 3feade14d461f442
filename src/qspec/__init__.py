"""Computable spectral theory for right quaternionic linear operators.

Exact S-spectra and local S-spectra for matrix-backed operators, sampled
spectral portraits for shifts and multiplication operators, a slice power
series engine, and randomized property suites for the structural laws the
spectra obey.
"""

import importlib

# Every public name and the module that defines it.  A module loads the
# first time one of its names is read (PEP 562), so a command imports only
# the layers it runs.
_HOMES = {
    "errors": ("CoverError", "InvarianceError", "NumericalError", "PoleError",
               "ShapeError"),
    "localspec": ("DecomposabilityVerdict", "SvepStatus", "decomposability_necessary",
                  "global_subspace", "local_resolvent_diag", "local_spectrum",
                  "local_subspace", "spectral_projections", "svep_status"),
    "operators": ("DenseOperator", "HalfPlaneRegion", "LinearOperator",
                  "MultiplicationOperator", "ShiftOperator", "partition_splitting",
                  "quotient", "restrict", "truncated_eigenvector"),
    "qlinalg": ("QMatrix", "SpectralDecomposition", "SubspaceBasis", "complex_adjoint",
                "inner", "kernel_basis", "min_singular", "op_norm", "right_eigenspheres"),
    "quat": ("SLICE_I", "SLICE_J", "SLICE_K", "EigenSphere", "Quaternion", "SliceUnit",
             "merge_spheres", "sphere_of"),
    "qvector": ("QVector",),
    "sliceseries": ("CompactExhaustion", "DivergenceWarning", "RadiusBiasWarning",
                    "SliceSeries", "cr_residual", "default_exhaustion", "h_metric",
                    "sigma_radius", "slice_derivative", "star_product"),
    "spectral": ("GridSpec", "SlicePortrait", "SpectrumReport", "annulus_check",
                 "classify", "full_spectrum", "portrait", "s_spectrum",
                 "spectral_radius", "threshold_region", "transition_cells",
                 "window_kappa"),
    "suites": ("SuiteConfig", "SuiteResult", "available_suites", "run_many", "run_suite"),
}
_HOME_OF = {name: module for module, names in _HOMES.items() for name in names}


def __getattr__(name: str):
    module = _HOME_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))


__version__ = "0.1.0"

__all__ = sorted(_HOME_OF) + ["__version__"]
