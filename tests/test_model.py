import math

import numpy as np
import pytest
import scipy.sparse as sp

from blocklaser import ModelParams, derive_scales, validate
from blocklaser.model import coupling_from_kappa_tilde, from_gauge, to_gauge


def test_validate_accepts_physical_set():
    p = ModelParams(n_atoms=2, photon_cutoff=1, coupling=1.0, cavity_decay=10.0,
                    pump=1.0, spont_emission=0.01, dephasing=0.0)
    assert validate(p) is p


def test_validate_rejects_zero_atoms():
    with pytest.raises(ValueError, match="n_atoms"):
        validate(ModelParams(0, 1, 1.0, 1.0, 1.0))


def test_validate_rejects_zero_cutoff():
    with pytest.raises(ValueError, match="photon_cutoff"):
        validate(ModelParams(2, 0, 1.0, 1.0, 1.0))


def test_validate_rejects_negative_rate():
    with pytest.raises(ValueError, match="non-negative"):
        validate(ModelParams(2, 1, 1.0, -1.0, 1.0))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_validate_rejects_nonfinite(bad):
    with pytest.raises(ValueError, match="finite"):
        validate(ModelParams(2, 1, 1.0, 1.0, bad))


def test_scales_direct_evaluation():
    p = ModelParams(n_atoms=100, photon_cutoff=1, coupling=1.0,
                    cavity_decay=100.0, pump=0.7, spont_emission=0.01)
    sc = derive_scales(p)
    assert sc.cooperativity == pytest.approx(1.0)
    assert sc.kappa_tilde == pytest.approx(1.0)
    assert sc.w_tilde == pytest.approx(0.7 * 100 / 100.0)
    assert sc.purcell_rate == pytest.approx(0.01)


def test_kappa_tilde_quarter():
    # kappa = N^2 C gamma / 16 is the same constraint as kappa = N g / 4
    N, g = 100, 1.0
    p = ModelParams(N, 1, g, N * g / 4.0, 0.1, spont_emission=0.04)
    assert derive_scales(p).kappa_tilde == pytest.approx(0.25)


def test_kappa_tilde_ten_ncgamma():
    # kappa = 10 N C gamma  <=>  kappa = g sqrt(10 N)
    N, g = 100, 0.3
    p = ModelParams(N, 1, g, g * math.sqrt(10 * N), 0.1, spont_emission=0.02)
    sc = derive_scales(p)
    assert sc.kappa_tilde == pytest.approx(math.sqrt(10 / N))
    assert sc.kappa_tilde == pytest.approx(0.316, abs=5e-4)


def test_scale_identities(rng):
    for _ in range(25):
        p = ModelParams(int(rng.integers(1, 300)), int(rng.integers(1, 4)),
                        rng.uniform(0.01, 3), rng.uniform(0.01, 3),
                        rng.uniform(0, 3), rng.uniform(1e-4, 1))
        sc = derive_scales(p)
        # kappa_tilde^2 N^2 C gamma = kappa whenever C is defined
        lhs = sc.kappa_tilde ** 2 * p.n_atoms ** 2 * sc.cooperativity * p.spont_emission
        assert lhs == pytest.approx(p.cavity_decay, rel=1e-14)
        assert sc.w_tilde * p.cavity_decay / p.n_atoms == pytest.approx(p.pump, rel=1e-14)


def test_cooperativity_undefined_without_decay():
    p = ModelParams(10, 1, 1.0, 1.0, 0.5, spont_emission=0.0)
    sc = derive_scales(p)
    assert sc.cooperativity is None
    assert sc.purcell_rate == pytest.approx(1.0)


def test_coupling_from_kappa_tilde_roundtrip():
    g = coupling_from_kappa_tilde(100, 2.0, 0.25)
    p = ModelParams(100, 1, g, 2.0, 0.1)
    assert derive_scales(p).kappa_tilde == pytest.approx(0.25, rel=1e-14)
    with pytest.raises(ValueError):
        coupling_from_kappa_tilde(100, 2.0, 0.0)



def test_gauge_is_exact_and_rejects_a_part_left_over():
    # a real matrix taken out of the gauge: entry (r, c) is its real entry
    # times i^(power_c - power_r), exactly, for every power mod 4,
    # negative ones included, and the gauge takes it back
    power = np.array([0, 1, 2, 3, 5, -1, -2])
    real = sp.random(7, 7, density=0.6, random_state=4, format="csr")
    g = np.array([1.0, 1.0j, -1.0, -1.0j])[power % 4]
    mat = from_gauge(real, power)
    ref = sp.diags(g.conj()) @ real @ sp.diags(g)
    assert np.array_equal(mat.toarray(), ref.toarray())
    gauged = to_gauge(mat, power, "test")
    assert gauged.dtype == np.float64
    assert np.array_equal(gauged.toarray(), real.toarray())
    # an entry with both a real and an imaginary part is never real there
    for k in range(mat.nnz):
        bad = mat.copy()
        bad.data[k] *= 1.0 + 1e-3j
        with pytest.raises(AssertionError,
                           match="gauged test part is not real"):
            to_gauge(bad, power, "test")
