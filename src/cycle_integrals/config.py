"""Numerical constants shared across the library.

The answers are integers fixed by the degrees of f and g; these tolerances
only steer the numerics that find them.  They are constants: each module
reads ``DEFAULT.<name>``, nothing overrides them, and every CLI report
embeds them in its ``config`` block.  Precision is not among them: the
oracles climb one fixed ladder of precisions and decide for themselves
which rung to accept.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Settings:
    # root finding
    tol_root: float = 1e-11          # relative residual for accepted roots
    tol_cluster: float = 1e-8        # merge radius for multiple roots
    max_newton_iter: int = 200

    # fibers and continuation
    exclusion_scale: float = 1e-3    # exclusion radius = scale*(1 + spread of critical values)
    step_floor: float = 1e-12

    # oracle sampling and fit
    radius_factor: float = 4.0       # sample circle radius = factor*(1 + max |critical value|)
    samples_factor: int = 2          # number of samples = factor*(degree bound + 1)
    degree_cap: int = 64
    tol_fit: float = 1e-8            # relative tail tolerance of the fit
    identically_zero: float = 1e-12  # relative threshold declaring the oracle identically zero
    ring_delta: float = 1e-3         # ring radius delta = factor*(1 + |t|) of a zero t
    root_verify: float = 1e-4        # max first-order |N(t)| / |N| at distance delta

    # zero grouping and classification
    cluster_scale: float = 1e-6      # zero-cluster radius factor (scale aware)
    exclusion_floor: float = 1e-7    # adaptive near-critical exclusion floor
    match_scale: float = 1e-5        # tangential-zero matching factor
    divergence_factor: float = 10.0  # |t| beyond factor*R flags an escaping branch

    # cycle certificates
    weight_bound: int = 9
    cycle_retry_cap: int = 10_000
    fiber_cap: int = 8               # hard cap for factorial enumeration
    oracle_fiber_cap: int = 6

    # design and identity checks
    tol_design: float = 1e-9
    tol_identity: float = 1e-9

    # randomized experiments
    morse_separation: float = 1e-4   # critical values must be separated by scale*spread


DEFAULT = Settings()
