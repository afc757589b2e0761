"""Action of elementary operators on symmetric basis elements.

Every elementary operator is one entry of the rule table :data:`KERNELS`.
An entry names the factor it acts on (atomic or photon) and lists its
rules; a rule maps the content counts ``(n_plus, n_minus, n_z, n_adag,
n_a)`` and ``n_i = N - n_plus - n_minus - n_z`` to a target factor and a
closed-form weight. The weights are written only here. Two evaluators
read the table:

- :func:`apply_kernel` (and the kind-checked :func:`apply_cavity`,
  :func:`apply_collective`, :func:`apply_recycling`) expands one
  :class:`~blocklaser.symbasis.BasisElement` into a merged list of
  ``(BasisElement, weight)`` pairs; :func:`apply_product` composes them;
- :func:`apply_chain` applies a chain of kernels to arrays of source
  column, content and weight covering whole sectors at once.

Both drop outputs that violate the index bounds (they do not exist in the
truncated space; the offending operator annihilates them) and zero
weights, and both merge equal targets by summing in the same order, so
they give bit-identical weights.

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
diagonal in this basis; see :func:`apply_dephasing_diag`.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .symbasis import BasisElement, packed_keys

WeightedElements = List[Tuple[BasisElement, float]]

CAVITY_KINDS = ("a_right", "adag_left", "adag_right", "a_left")
COLLECTIVE_KINDS = ("sp_left", "sp_right", "sm_left", "sm_right",
                    "sz_left", "sz_right")
RECYCLING_KINDS = ("emission_sandwich", "pump_sandwich")


class Counts:
    """Content counts of one element (ints) or of many (int arrays)."""

    def __init__(self, pl, mi, z, p, q, n_atoms=None, cutoff=None):
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


def _merge_photon(terms: WeightedElements, cutoff: int) -> WeightedElements:
    out: Dict[BasisElement, float] = {}
    for e, w in terms:
        if w == 0.0 or not (0 <= e.n_adag <= cutoff and 0 <= e.n_a <= cutoff):
            continue
        out[e] = out.get(e, 0.0) + w
    return [(e, w) for e, w in out.items() if w != 0.0]


def _merge_atomic(terms: WeightedElements, n_atoms: int) -> WeightedElements:
    out: Dict[BasisElement, float] = {}
    for e, w in terms:
        if w == 0.0 or min(e.n_plus, e.n_minus, e.n_z) < 0:
            continue
        if e.n_plus + e.n_minus + e.n_z > n_atoms:
            continue
        out[e] = out.get(e, 0.0) + w
    return [(e, w) for e, w in out.items() if w != 0.0]


def apply_kernel(kind: str, e: BasisElement, n_atoms: Optional[int] = None,
                 cutoff: Optional[int] = None) -> WeightedElements:
    """Expand one kernel of the rule table on one element.

    Atomic kernels need ``n_atoms``, cavity kernels ``cutoff``.
    """
    kernel = KERNELS[kind]
    c = Counts(*e, n_atoms=n_atoms, cutoff=cutoff)
    terms = []
    for rule in kernel.rules:
        t = rule.target(c)
        f = (BasisElement(*t, *e[3:]) if kernel.atomic
             else BasisElement(*e[:3], *t))
        terms.append((f, float(rule.weight(c))))
    if kernel.atomic:
        return _merge_atomic(terms, n_atoms)
    return _merge_photon(terms, cutoff)


def apply_cavity(kind: str, e: BasisElement, cutoff: int) -> WeightedElements:
    """Expand a or a^+ applied on one side of the photon factor of ``e``."""
    if kind not in CAVITY_KINDS:
        raise ValueError(f"unknown cavity kind {kind!r}")
    return apply_kernel(kind, e, cutoff=cutoff)


def apply_collective(kind: str, e: BasisElement, n_atoms: int) -> WeightedElements:
    """Expand a collective S^+, S^- or S^z applied on one side of ``e``."""
    if kind not in COLLECTIVE_KINDS:
        raise ValueError(f"unknown collective kind {kind!r}")
    return apply_kernel(kind, e, n_atoms=n_atoms)


def apply_recycling(kind: str, e: BasisElement, n_atoms: int) -> WeightedElements:
    """Expand the per-atom sandwich sums 2 sum_j s_j^-+ (.) s_j^+-."""
    if kind not in RECYCLING_KINDS:
        raise ValueError(f"unknown recycling kind {kind!r}")
    return apply_kernel(kind, e, n_atoms=n_atoms)


def apply_dephasing_diag(e: BasisElement) -> float:
    """Diagonal factor of the dephasing Lindbladian on ``e``.

    L_deph = -(gamma_d/4) sum_j (rho - s_j^z rho s_j^z) acts on a basis
    element as -(gamma_d/2) (n_plus + n_minus) times the element: each
    coherence slot flips sign under the s^z sandwich, all other slots are
    invariant. Returns the non-negative factor (n_plus + n_minus).
    """
    return float(KERNELS["dephasing"].rules[0].weight(Counts(*e)))


Kernel = Callable[[BasisElement], WeightedElements]


def apply_product(kernels: Sequence[Kernel], e: BasisElement) -> WeightedElements:
    """Compose kernels sequentially; atomic and photon factors commute,
    so operator products split into independent single-factor kernels."""
    current: WeightedElements = [(e, 1.0)]
    for kernel in kernels:
        nxt: Dict[BasisElement, float] = {}
        for f, w in current:
            for g, v in kernel(f):
                nxt[g] = nxt.get(g, 0.0) + w * v
        current = [(f, w) for f, w in nxt.items() if w != 0.0]
    return current


def _kernel_arrays(kind: str, contents: np.ndarray, n_atoms: int,
                   cutoff: int):
    """One kernel on n legal source contents (an (n, 5) array).

    Returns (source, target contents, weight) arrays of the live outputs,
    source by source in rule order, with equal targets of one source
    merged and illegal or zero terms dropped as in :func:`_merge_photon` /
    :func:`_merge_atomic`.
    """
    kernel = KERNELS[kind]
    c = Counts(*contents.T, n_atoms=n_atoms, cutoff=cutoff)
    n, n_rules = len(contents), len(kernel.rules)
    span = range(0, 3) if kernel.atomic else range(3, 5)
    factors = [[np.broadcast_to(v, n) for v in rule.target(c)]
               for rule in kernel.rules]
    weights = np.empty((n, n_rules))
    live = np.empty((n, n_rules), dtype=bool)
    for r, (rule, t) in enumerate(zip(kernel.rules, factors)):
        weights[:, r] = rule.weight(c)
        if kernel.atomic:
            legal = ((t[0] >= 0) & (t[1] >= 0) & (t[2] >= 0)
                     & (t[0] + t[1] + t[2] <= n_atoms))
        else:
            legal = (t[0] >= 0) & (t[1] >= 0) & (t[0] <= cutoff) & (t[1] <= cutoff)
        live[:, r] = legal & (weights[:, r] != 0.0)
    # equal targets of one source add up in rule order, into the first
    for r2 in range(1, n_rules):
        for r1 in range(r2):
            same = live[:, r1] & live[:, r2]
            for a, b in zip(factors[r1], factors[r2]):
                same &= a == b
            weights[same, r1] += weights[same, r2]
            live[same, r2] = False
    live &= weights != 0.0
    src, rule = np.nonzero(live)
    targets = contents[src]
    for k, column in zip(span, zip(*factors)):
        targets[:, k] = np.stack(column, axis=1)[src, rule]
    return src, targets, weights[src, rule]


def merge_entries(cols: np.ndarray, contents: np.ndarray, weights: np.ndarray,
                  n_atoms: int, cutoff: int):
    """Sum the weights of equal (column, content) entries in array order
    and drop zero sums; entries keep the order of first appearance.

    This is what the dict accumulation of :func:`apply_product` does,
    including its order of additions.
    """
    span = (n_atoms + 1) ** 3 * (cutoff + 1) ** 2   # number of packed keys
    if len(cols) and int(cols.max()) >= np.iinfo(np.int64).max // span:
        raise OverflowError("column and content keys overflow int64")
    keys = cols.astype(np.int64) * span + packed_keys(contents, n_atoms, cutoff)
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    if np.iscomplexobj(weights):
        sums = np.empty(len(first), dtype=complex)
        sums.real = np.bincount(inverse, weights.real, minlength=len(first))
        sums.imag = np.bincount(inverse, weights.imag, minlength=len(first))
    else:
        sums = np.bincount(inverse, weights, minlength=len(first))
    order = np.argsort(first)
    order = order[sums[order] != 0.0]
    return cols[first[order]], contents[first[order]], sums[order]


def apply_chain(kinds: Sequence[str], cols: np.ndarray, contents: np.ndarray,
                weights: np.ndarray, n_atoms: int, cutoff: int):
    """Apply a chain of kernels to arrays of source column, content (n, 5)
    and weight; returns the same three arrays for the merged output.

    Entry for entry this is :func:`apply_product` over the kernels of
    :func:`apply_kernel`, with each source column kept apart.
    """
    for kind in kinds:
        src, targets, v = _kernel_arrays(kind, contents, n_atoms, cutoff)
        cols, contents, weights = merge_entries(
            cols[src], targets, weights[src] * v, n_atoms, cutoff)
    return cols, contents, weights
