"""Action of elementary operators on symmetric basis elements.

Every elementary operator is one entry of the rule table :data:`KERNELS`.
An entry names the factor it acts on (atomic or photon) and lists its
rules; a rule maps the content counts ``(n_plus, n_minus, n_z, n_adag,
n_a)`` and ``n_i = N - n_plus - n_minus - n_z`` to a target factor and a
closed-form weight. The weights are written only here, and
:func:`apply_chain` is the one evaluator of the table: it applies a chain
of kernels to arrays of source column and content, one element or whole
sectors at once, and returns every path through the chain with its
weight. It drops outputs that violate the index bounds (they do not
exist in the truncated space; the offending operator annihilates them)
and zero weights. Equal targets of one source column are not merged;
:func:`blocklaser.liouvillian.chain_matrix` sums them once, as entries of
a sparse matrix.

Cavity rules. With ``p = n_adag`` and ``q = n_a`` the photon factor is the
normal-ordered product (a^+)^p a^q, so right-multiplying by a and
left-multiplying by a^+ are index shifts. Reordering a (a^+)^p or
(a^+)^p a^q a^+ uses the truncated-space commutator

    [a, a^+] = 1 - ((M+1)/M!) (a^+)^M a^M,

which generates, beyond the harmonic-oscillator terms, a boundary term
with weight (M+1)/(M-q+1)! landing on photon indices (M+1+p-q, M) (and
mirrored for left-multiplication by a). For M = 1 this boundary term is
exactly what encodes a a^+ = 1 - a^+ a of the two-level (blockaded) mode,
so it is always kept.

Collective atomic rules. The collective operators S^{+,-,z} = sum_j s_j^{+,-,z}
act slot-wise on the symmetrized product; resolving each slot with
s^z s^{+-} = +-s^{+-}, s^{+-} s^z = -+s^{+-}, s^+ s^- = (1+s^z)/2,
s^- s^+ = (1-s^z)/2 and recollecting permutations gives closed-form
weights in the content counts and the identity-slot count ``n_i``.

Recycling rules. The per-atom sandwich sums 2 sum_j s_j^- (.) s_j^+ and
2 sum_j s_j^+ (.) s_j^- cannot be written through collective operators and
get their own kernels.

Dephasing. sum_j s_j^z (.) s_j^z flips the sign of every s^+ or s^- slot
and leaves s^z and identity slots alone, so the dephasing Lindbladian is
diagonal in this basis: the "dephasing" kernel is the factor
n_plus + n_minus, and L_deph = -(gamma_d/4) sum_j (rho - s_j^z rho s_j^z)
acts on an element as -(gamma_d/2) (n_plus + n_minus) times it.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, Dict, NamedTuple, Sequence, Tuple

import numpy as np


class Counts:
    """Content counts of n elements (int arrays), with N and the cutoff M."""

    def __init__(self, pl, mi, z, p, q, n_atoms, cutoff):
        self.pl, self.mi, self.z, self.p, self.q = pl, mi, z, p, q
        self.n_atoms, self.M = n_atoms, cutoff

    @property
    def ni(self):
        return self.n_atoms - self.pl - self.mi - self.z

    def boundary(self, k):
        """Cavity boundary weight -(M+1)/(M-k+1)! for photon power k."""
        return _boundary_table(self.M)[self.M - k + 1]


@lru_cache(maxsize=None)
def _boundary_table(cutoff: int) -> np.ndarray:
    """-(M+1)/j! for j = 0 .. M+1: the factorial lookup of the boundary terms."""
    M = cutoff
    return np.array([-(M + 1) / math.factorial(j) for j in range(M + 2)])


class Rule(NamedTuple):
    target: Callable   # Counts -> new (n_adag, n_a) or (n_plus, n_minus, n_z)
    weight: Callable   # Counts -> weight


class KernelRules(NamedTuple):
    atomic: bool       # targets replace the atomic (else the photon) counts
    rules: Tuple[Rule, ...]


def _one(c):
    return 1.0


#: the rule table: one entry per elementary operator (see module docstring)
KERNELS: Dict[str, KernelRules] = {
    # cavity: a or a^+ on one side of (a^+)^p a^q
    "a_right": KernelRules(False, (
        Rule(lambda c: (c.p, c.q + 1), _one),
    )),
    "adag_left": KernelRules(False, (
        Rule(lambda c: (c.p + 1, c.q), _one),
    )),
    "adag_right": KernelRules(False, (
        Rule(lambda c: (c.p + 1, c.q), _one),
        Rule(lambda c: (c.p, c.q - 1), lambda c: c.q),
        Rule(lambda c: (c.M + 1 + c.p - c.q, c.M), lambda c: c.boundary(c.q)),
    )),
    "a_left": KernelRules(False, (
        Rule(lambda c: (c.p, c.q + 1), _one),
        Rule(lambda c: (c.p - 1, c.q), lambda c: c.p),
        Rule(lambda c: (c.M, c.M + 1 + c.q - c.p), lambda c: c.boundary(c.p)),
    )),
    # collective S^+, S^-, S^z on one side
    "sp_left": KernelRules(True, (
        Rule(lambda c: (c.pl, c.mi - 1, c.z), lambda c: 0.5 * c.mi),
        Rule(lambda c: (c.pl, c.mi - 1, c.z + 1), lambda c: 0.5 * c.mi),
        Rule(lambda c: (c.pl + 1, c.mi, c.z - 1), lambda c: -c.z),
        Rule(lambda c: (c.pl + 1, c.mi, c.z), lambda c: c.ni),
    )),
    "sp_right": KernelRules(True, (
        Rule(lambda c: (c.pl, c.mi - 1, c.z), lambda c: 0.5 * c.mi),
        Rule(lambda c: (c.pl, c.mi - 1, c.z + 1), lambda c: -0.5 * c.mi),
        Rule(lambda c: (c.pl + 1, c.mi, c.z - 1), lambda c: c.z),
        Rule(lambda c: (c.pl + 1, c.mi, c.z), lambda c: c.ni),
    )),
    "sm_left": KernelRules(True, (
        Rule(lambda c: (c.pl - 1, c.mi, c.z), lambda c: 0.5 * c.pl),
        Rule(lambda c: (c.pl - 1, c.mi, c.z + 1), lambda c: -0.5 * c.pl),
        Rule(lambda c: (c.pl, c.mi + 1, c.z - 1), lambda c: c.z),
        Rule(lambda c: (c.pl, c.mi + 1, c.z), lambda c: c.ni),
    )),
    "sm_right": KernelRules(True, (
        Rule(lambda c: (c.pl - 1, c.mi, c.z), lambda c: 0.5 * c.pl),
        Rule(lambda c: (c.pl - 1, c.mi, c.z + 1), lambda c: 0.5 * c.pl),
        Rule(lambda c: (c.pl, c.mi + 1, c.z - 1), lambda c: -c.z),
        Rule(lambda c: (c.pl, c.mi + 1, c.z), lambda c: c.ni),
    )),
    "sz_left": KernelRules(True, (
        Rule(lambda c: (c.pl, c.mi, c.z), lambda c: c.pl - c.mi),
        Rule(lambda c: (c.pl, c.mi, c.z - 1), lambda c: c.z),
        Rule(lambda c: (c.pl, c.mi, c.z + 1), lambda c: c.ni),
    )),
    "sz_right": KernelRules(True, (
        Rule(lambda c: (c.pl, c.mi, c.z), lambda c: c.mi - c.pl),
        Rule(lambda c: (c.pl, c.mi, c.z - 1), lambda c: c.z),
        Rule(lambda c: (c.pl, c.mi, c.z + 1), lambda c: c.ni),
    )),
    # recycling sandwiches
    "emission_sandwich": KernelRules(True, (   # 2 sum_j s_j^- rho s_j^+
        Rule(lambda c: (c.pl, c.mi, c.z), lambda c: c.ni - c.z),
        Rule(lambda c: (c.pl, c.mi, c.z - 1), lambda c: c.z),
        Rule(lambda c: (c.pl, c.mi, c.z + 1), lambda c: -c.ni),
    )),
    "pump_sandwich": KernelRules(True, (       # 2 sum_j s_j^+ rho s_j^-
        Rule(lambda c: (c.pl, c.mi, c.z), lambda c: c.ni - c.z),
        Rule(lambda c: (c.pl, c.mi, c.z - 1), lambda c: -c.z),
        Rule(lambda c: (c.pl, c.mi, c.z + 1), lambda c: c.ni),
    )),
    # dephasing: diagonal factor n_plus + n_minus
    "dephasing": KernelRules(True, (
        Rule(lambda c: (c.pl, c.mi, c.z), lambda c: c.pl + c.mi),
    )),
}


def _kernel_arrays(kind: str, contents: np.ndarray, n_atoms: int,
                   cutoff: int):
    """One kernel on n legal source contents (an (n, 5) array).

    Returns (source, target contents, weight) arrays of the live outputs,
    source by source in rule order; illegal targets and zero weights are
    dropped.
    """
    kernel = KERNELS[kind]
    counts = contents.T
    c = Counts(*counts, n_atoms, cutoff)
    n, n_rules = len(contents), len(kernel.rules)
    span = slice(0, 3) if kernel.atomic else slice(3, 5)
    # factors[k, r] is rule r's new value of the k-th count in ``span``
    factors = np.empty((span.stop - span.start, n_rules, n),
                       dtype=contents.dtype)
    weights = np.empty((n_rules, n))
    for r, rule in enumerate(kernel.rules):
        for k, v in enumerate(rule.target(c)):
            factors[k, r] = v
        weights[r] = rule.weight(c)
    if kernel.atomic:
        legal = (factors >= 0).all(axis=0) & (factors.sum(axis=0) <= n_atoms)
    else:
        legal = ((factors >= 0) & (factors <= cutoff)).all(axis=0)
    # nonzero of the (n, n_rules) view orders the outputs source by source
    src, rule = np.nonzero((legal & (weights != 0.0)).T)
    flat = rule * n + src
    targets = np.take(counts, src, axis=1)
    targets[span] = np.take(factors.reshape(len(factors), -1), flat, axis=1)
    return src, targets.T, np.take(weights, flat)


def apply_chain(kinds: Sequence[str], cols: np.ndarray, contents: np.ndarray,
                n_atoms: int, cutoff: int):
    """Apply a chain of kernels to arrays of source column and content
    (n, 5); returns (column, target content, weight) arrays, one entry per
    path through the chain, source by source.

    Paths that reach the same target from one column stay separate
    entries; their weights add up wherever the entries are summed.
    """
    weights = np.ones(len(cols))
    for kind in kinds:
        src, contents, v = _kernel_arrays(kind, contents, n_atoms, cutoff)
        cols, weights = cols[src], weights[src] * v
    return cols, contents, weights
