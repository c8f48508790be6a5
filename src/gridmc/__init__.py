"""Low-observability distribution-system state estimation via decentralized
matrix completion.

The package is organized around the pipeline:

    gridmodel   network model, area partitions, synthetic feeders, exact power flow
    linflow     linear voltage model, area truncation, per-area linear maps
    datamatrix  multi-period measurement matrix, observation masks, noise
    completion  factored completion objective and the proximal ADMM driver
    certificate global-optimality certificate for converged factor pairs
    simnet      deterministic bulk-synchronous area-to-area message bus
    metrics     magnitude/angle/RMSE error reports with confidence intervals
    cli         experiment runner (``gridmc`` console script)
"""

__version__ = "0.1.0"
