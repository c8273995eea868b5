"""Zero-cycles: symmetry groups, genericity certificates, and the closed-form
bound and infinity-count formulas.

A cycle is an integer weight vector (n_1, ..., n_m) with zero sum attached
to the m points of a fiber; ``Cycle.integral`` integrates over it.  Its
signed symmetry group decides the multiplicity of the oracle's zeros: 2
when some permutation maps the weights to their negatives, 1 otherwise.
The regularity-at-infinity certificate decides whether the Bezout count
is attained without losses on the hyperplane at infinity.
"""

import itertools
import math
import numbers
import random
from dataclasses import dataclass

from .config import DEFAULT
from .errors import (DomainError, FiberTooLarge, GenericCycleNotFound,
                     InvalidCycle, LengthMismatch)
from .poly import RatPoly


@dataclass(frozen=True)
class Cycle:
    """Integer weights (n_1, ..., n_m) with sum zero, not all zero."""

    weights: tuple

    def __init__(self, weights):
        weights = tuple(weights)
        if not all(isinstance(w, numbers.Integral) and not isinstance(w, bool)
                   for w in weights):
            raise InvalidCycle(f"weights must be integers, got {weights}")
        weights = tuple(int(w) for w in weights)
        if sum(weights) != 0:
            raise InvalidCycle(f"weights must sum to zero, got {weights}")
        if not any(weights):
            raise InvalidCycle("all-zero weight vector is not a cycle")
        object.__setattr__(self, "weights", weights)

    @property
    def m(self):
        return len(self.weights)

    @property
    def is_simple(self):
        nonzero = sorted(w for w in self.weights if w)
        return nonzero == [-1, 1]

    def integral(self, h, roots):
        """sum_j n_j h(roots[j]) over the nonzero weights, in weight order;
        roots past the last weight, as on a deformed fiber, carry weight 0."""
        if len(roots) < self.m:
            raise LengthMismatch(f"{self.m} weights for {len(roots)} roots")
        return sum(w * h(z) for w, z in zip(self.weights, roots) if w)


@dataclass(frozen=True)
class SymmetryGroup:
    """Signed permutations h with (w[h(1)], ..., w[h(m)]) = sign * w."""

    elements: tuple  # of (permutation tuple, sign)
    order: int


@dataclass(frozen=True)
class GenericityCertificate:
    """Regularity at infinity of a cycle for deformation degree n_tested."""

    regular_at_infinity: bool
    failing_permutations: tuple  # 1-based Stab_m permutations violating the test
    n_tested: int

    def as_dict(self):
        return {
            "regular_at_infinity": self.regular_at_infinity,
            "failing_permutations": [list(p) for p in self.failing_permutations],
            "n_tested": self.n_tested,
        }


def _check_fiber_cap(m):
    if m > DEFAULT.fiber_cap:
        raise FiberTooLarge(f"fiber size {m} exceeds cap {DEFAULT.fiber_cap}")


def symmetry_group(cycle):
    """Exhaustive enumeration of the signed symmetry group of the weights."""
    w = cycle.weights
    m = len(w)
    _check_fiber_cap(m)
    neg = tuple(-v for v in w)
    elements = []
    for perm in itertools.permutations(range(m)):
        permuted = tuple(w[perm[j]] for j in range(m))
        if permuted == w:
            elements.append((perm, 1))
        elif permuted == neg:
            elements.append((perm, -1))
    return SymmetryGroup(elements=tuple(elements), order=len(elements))


def is_asymmetric(cycle):
    return symmetry_group(cycle).order == 1


def _cyclotomic(m):
    """Phi_m, the minimal polynomial of exp(2 pi i/m) over Q: x^m - 1
    divided exactly by Phi_d for every proper divisor d of m."""
    phi = RatPoly([-1] + [0] * (m - 1) + [1])
    for d in range(1, m):
        if m % d == 0:
            phi = phi // _cyclotomic(d)
    return phi


def regular_at_infinity(cycle, n):
    """Certificate that no intersection points fall on the hyperplane at
    infinity for a deformation of degree n.

    Tests whether sum_j n_j xi^(n*alpha_j), xi = exp(2 pi i/m), vanishes
    for each of the (m-1)! permutations alpha fixing the last index.  The
    test is exact: the sum vanishes iff the integer polynomial
    sum_j n_j x^((n*alpha_j) mod m) is divisible by Phi_m.  When m divides
    n every sum collapses to sum n_j = 0 and the test cannot pass.
    """
    if n < 1:
        raise DomainError("deformation degree must be >= 1")
    w = cycle.weights
    m = len(w)
    _check_fiber_cap(m)
    phi = _cyclotomic(m)
    failing = []
    for perm in itertools.permutations(range(1, m)):
        alpha = perm + (m,)
        coeffs = [0] * m
        for j in range(m):
            coeffs[(n * alpha[j]) % m] += w[j]
        if (RatPoly(coeffs) % phi).is_zero:
            failing.append(alpha)
    return GenericityCertificate(not failing, tuple(failing), n)


def infinity_point_count(m, n):
    """Unavoidable points at infinity of the deformed connection curve."""
    if m < 2:
        raise DomainError("fiber size must be >= 2")
    if n < m:
        raise DomainError("infinity count requires n >= m")
    if n % m != 0:
        return 0
    if m == 2:
        return math.factorial(n - 2)
    return math.factorial(m - 1) * math.factorial(n - m)


def bound_tangential(m, n):
    """Sharp zero count for the first-order problem at degrees (m, n)."""
    if m < 2 or n < 1:
        raise DomainError("need m >= 2 and n >= 1")
    if m == 2:
        return (n - 1) // 2
    if n % m == 0:
        return (n - 1) * math.factorial(m - 1)
    return n * math.factorial(m - 1)


def bound_infinitesimal(m, n):
    """Sharp zero count for the full displacement problem at degrees (m, n)."""
    if m < 2 or n < 1:
        raise DomainError("need m >= 2 and n >= 1")
    if m == 2:
        return (n - 1) // 2
    if n < m:
        return n * math.factorial(m - 1)
    base = m * math.factorial(n - 1) // math.factorial(n - m)
    if n % m == 0:
        base -= math.factorial(m - 1)
    return base


def bound_simple(m, n):
    """Sharp zero count on simple cycles: ((n-1)(m-1) - (d-1))/2, d = gcd.

    The numerator is even: when m or n is odd, d is odd and (n-1)(m-1) is
    even; when both are even, d is even and (n-1)(m-1) is odd."""
    if m < 2 or n < 1:
        raise DomainError("need m >= 2 and n >= 1")
    d = math.gcd(m, n)
    return ((n - 1) * (m - 1) - (d - 1)) // 2


def random_generic_cycle(m, n, rng_seed):
    """Rejection-sample an asymmetric cycle regular at infinity for degree n.

    Deterministic for a given seed.  For m = 2 every cycle is simple and
    symmetric, so the retry cap is always exhausted.
    """
    if m < 2:
        raise DomainError("fiber size must be >= 2")
    _check_fiber_cap(m)
    rng = random.Random(rng_seed)
    bound = DEFAULT.weight_bound
    for _ in range(DEFAULT.cycle_retry_cap):
        head = [rng.randint(-bound, bound) for _ in range(m - 1)]
        tail = -sum(head)
        if abs(tail) > bound:
            continue
        weights = tuple(head) + (tail,)
        if not any(weights):
            continue
        cycle = Cycle(weights)
        if not is_asymmetric(cycle):
            continue
        if not regular_at_infinity(cycle, n).regular_at_infinity:
            continue
        return cycle
    raise GenericCycleNotFound(
        f"no asymmetric cycle regular at infinity found for m={m}, n={n}")


def random_simple_cycle(m, rng_seed):
    """A random simple cycle z_i - z_j on an m-point fiber (deterministic)."""
    if m < 2:
        raise DomainError("fiber size must be >= 2")
    rng = random.Random(rng_seed)
    i, j = rng.sample(range(m), 2)
    weights = [0] * m
    weights[i] = 1
    weights[j] = -1
    return Cycle(weights)
