"""holonet: gauge-constrained recurrent networks and baselines, from scratch.

Modules:
    tensor_core   dense linalg kernels (matrix exponential, polar projection,
                  spectral norm, PCA) and the seeded counter-based RNG
    grad_engine   tape-based reverse-mode autodiff, Adam, gradient checker
    group_tasks   S3 composition and variable-binding episode generators
    models        the four sequence classifiers and the noise hook
    scan_engine   sequential and tree holonomy products
    experiments   training plus the six experiment pipelines
    config        run configuration parsing and validation
    checkpoint    binary parameter persistence
    cli           command-line entry point
"""

__version__ = "0.1.0"
