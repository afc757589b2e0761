"""Seeded faults that the suite is shown to catch (DeMillo, Lipton & Sayward,
IEEE Computer 11 (1978) 34).

Each entry of ``MUTANTS`` is one small fault in a module of the package,
most in ``blocklaser.oracle``: one edit to the source of one function,
method or module-level value, named ``module.function``,
``module.Class.method`` or ``module.NAME``, compiled against its module's
own globals and put in place with ``monkeypatch``, in its module (or
class) and in every module of ``MODULES`` that imported the name. A
fault in the code that the two routes share (``blocklaser.model``) thus
reaches both, as a real one would, and must be caught by a check outside
that code. A test module's own ``from ... import`` binding keeps the
original, so a check calls the function it tests through its module
(``oracle.oracle_g2``). Each entry names the check that must catch it, a
tier-1 test or an assertion of the code, and its case runs that check
twice: it must pass on the code as it is and fail with the fault in
place. The cached builders of ``CACHED`` are cleared before and after
each case, so no faulty part outlives it. A fault that survives fails
its case; it is reported and kept in the table, never taken out to make
the table pass. Every system here has N <= 4.
"""

import ast
import inspect
import textwrap
from functools import partial

import numpy as np
import pytest

import test_dynamics as dynamics_tests
import test_liouvillian as liouvillian_tests
import test_observables as observables_tests
import test_oracle as oracle_tests
from blocklaser import (ModelParams, dynamics, liouvillian, model, observables,
                        opkernels, oracle)
from blocklaser.dynamics import PrecisionLossError, SolverError
from blocklaser.model import random_params

MODULES = {"model": model, "oracle": oracle, "liouvillian": liouvillian,
           "dynamics": dynamics, "opkernels": opkernels,
           "observables": observables}

#: the cached builders of the mutated modules, cleared around each case:
#: the oracle's operators, parts and their block and half plans, and the
#: sector route's chain matrices and part plans
CACHED = ("oracle.site_operators", "oracle._photon_power",
          "oracle._excitation_charge", "oracle._full_unit_parts",
          "oracle._full_plan", "oracle._block_parts",
          "oracle._hermitian_halves", "liouvillian.chain_matrix",
          "liouvillian._sum_plan")


#: the systems of the shared-code cases: the tests they run cover every
#: system under the cap, more than a seeded fault needs
SMALL_SYSTEMS = [(1, 2), (2, 1), (2, 2)]


def _function(qualified):
    """(owner, name) of a ``module.name`` or ``module.Class.name`` of
    ``MODULES``: the module or class that holds it, and its name."""
    module, *path = qualified.split(".")
    owner = MODULES[module]
    for attr in path[:-1]:
        owner = getattr(owner, attr)
    return owner, path[-1]


def _source(owner, name):
    """The source of ``owner.name``: a function's definition, or the
    module-level statement that assigns a value."""
    original = getattr(owner, name)
    if callable(original):
        return textwrap.dedent(inspect.getsource(original))
    source = inspect.getsource(owner)
    for node in ast.parse(source).body:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign)
                   else [])
        if any(getattr(t, "id", None) == name for t in targets):
            return ast.get_source_segment(source, node)
    raise LookupError(f"no assignment of {name} in {owner.__name__}")


def _clear_caches():
    for qualified in CACHED:
        module, name = _function(qualified)
        getattr(module, name).cache_clear()


def _mutate(monkeypatch, qualified, old, new):
    """Replace ``qualified`` by its source with ``old`` changed to ``new``,
    compiled with its module's globals, so that it calls (and is called
    through) the module's current names; its owner and every module of
    ``MODULES`` that bound it by name get the mutant."""
    owner, name = _function(qualified)
    original = getattr(owner, name)
    source = _source(owner, name)
    assert source.count(old) == 1, f"{qualified}: the edit no longer applies"
    local = {}
    exec(compile(source.replace(old, new), f"<mutant of {qualified}>",
                 "exec"), vars(inspect.getmodule(owner)), local)
    for importer in (owner, *MODULES.values()):
        if getattr(importer, name, None) is original:
            monkeypatch.setattr(importer, name, local[name])


def _with_monkeypatch(test):
    """A test that takes the ``monkeypatch`` fixture, run on its own."""
    with pytest.MonkeyPatch.context() as mp:
        test(mp)


def _residual_gate():
    """The steady solve's residual check, on a system it solves."""
    oracle.oracle_steady_state(ModelParams(2, 1, 0.9, 1.0, 0.5))


def _sector_residual_gate():
    """The sector steady solve's residual check, on a system it solves."""
    dynamics.steady_state(liouvillian.liouvillian_for(
        ModelParams(2, 1, 0.9, 1.0, 0.5), 0))


def _refinement_detector():
    """The sector steady solve's refinement detector, on a system it
    solves; the physical-range gate, which raises the same type, must not
    be what fires."""
    try:
        _sector_residual_gate()
    except PrecisionLossError as exc:
        assert "one refinement step" in str(exc), exc
        raise


def _chirp_spectrum():
    """The direct-sum spectrum check on 800 uniform delays and 9 geometric
    ones at 4001 frequencies, where the run takes the chirp-z path."""
    observables_tests.check_spectrum_matches_direct_sum(
        observables_tests.RUN_AND_TAIL, np.linspace(-4.0, 3.0, 4001),
        np.random.default_rng(20240817))


def _per_term_generator():
    """The cached parts' generator against the term-by-term one."""
    oracle_tests.check_unit_parts_reproduce_the_per_term_generator(
        SMALL_SYSTEMS, np.random.default_rng(11))


def _even_half_g2():
    """The even-half g2 test on the first of criterion 1's (3, 2) draws."""
    p = random_params(np.random.default_rng(1032), 3, 2)
    oracle_tests.check_g2_on_the_even_half(
        p, np.linspace(0.0, 5.0 / p.cavity_decay, 100))


#: fault -> (module.function, source edit, the check that must catch it,
#: what the check raises when it does)
MUTANTS = {
    "odd half folds twin columns with sign +1": (
        "oracle._hermitian_halves",
        ("sign = np.where(r < c, 1.0, -1.0)",
         "sign = np.where(r < c, 1.0, 1.0)"),
        partial(oracle_tests
                .test_halves_reproduce_the_block_on_its_even_and_odd_vectors,
                2, 2),
        AssertionError),
    "even half folds twin columns with the odd sign": (
        "oracle._hermitian_halves",
        ("evens[name] = sp.csr_matrix(\n            (data[keep],",
         "evens[name] = sp.csr_matrix(\n"
         "            ((data * sign[cols])[keep],"),
        partial(oracle_tests
                .test_halves_reproduce_the_block_on_its_even_and_odd_vectors,
                2, 2),
        AssertionError),
    "Hamiltonian part without its -i H rho half, which rho -> rho^+ "
    "does not keep": (
        "oracle._part_terms",
        ("[(-1j, H, eye), (1j, eye, H)]", "[(1j, eye, H)]"),
        lambda: oracle._hermitian_halves(2, 1),
        AssertionError),
    "right factor of a term not transposed: A rho B built as A kron B": (
        "oracle._kron_sum",
        ("right = B.T", "right = B"),
        lambda: oracle._full_unit_parts(2, 1),
        AssertionError),
    "excitation charge miscounted, ground atoms for excited ones": (
        "oracle._excitation_charge",
        ("e = ((n_atoms - ground)[:, None]", "e = (ground[:, None]"),
        lambda: oracle._full_unit_parts(2, 1),
        AssertionError),
    "one 1/2 dropped from the c^+ c rho term of every dissipator": (
        "oracle._part_terms",
        ("(-0.5 * scale, cdc, eye)", "(-scale, cdc, eye)"),
        partial(oracle_tests.test_vectorized_identity_is_left_null,
                np.random.default_rng(3)),
        AssertionError),
    "absolute 1e-15 drop restored in the sector chain matrices": (
        "liouvillian.chain_matrix",
        ("    mat.eliminate_zeros()",
         "    mat.data[np.abs(mat.data) < 1e-15] = 0\n"
         "    mat.eliminate_zeros()"),
        partial(liouvillian_tests
                .test_trace_annihilates_every_part_column_by_column, 1, 18),
        AssertionError),
    "zero-pivot check dropped, seen on the even half": (
        "oracle._factor",
        ("warnings.simplefilter(\"error\", sla.LinAlgWarning)", "pass"),
        oracle_tests.test_singular_solve_raises_solver_error,
        AssertionError),
    "zero-pivot check dropped, seen on the odd half": (
        "oracle._factor",
        ("warnings.simplefilter(\"error\", sla.LinAlgWarning)", "pass"),
        partial(_with_monkeypatch,
                oracle_tests.test_singular_odd_half_raises),
        pytest.fail.Exception),
    "one entry of the even solution moved by 1e-4": (
        "oracle.oracle_steady_state",
        ("rhs, check_finite=False)[slot]",
         "rhs, check_finite=False)\n    x[1] += 1e-4\n    x = x[slot]"),
        _residual_gate,
        SolverError),
    "g2 seed's twin combined with the odd sign": (
        "oracle.oracle_g2",
        ("0.5 * (seed + seed.conj().T)", "0.5 * (seed - seed.conj().T)"),
        _even_half_g2,
        AssertionError),
    "g2 seed's Hermitian part not taken": (
        "oracle.oracle_g2",
        ("0.5 * (seed + seed.conj().T)", "seed"),
        oracle_tests.test_g2_of_a_non_hermitian_state_is_the_whole_block_walk,
        AssertionError),
    # faults in the shared model code, each seen by both routes
    "rate_sum skips the dephasing part": (
        "model.rate_sum",
        ("if rate != 0.0 and len(part_data):",
         'if rate != 0.0 and len(part_data) and name != "deph":'),
        _per_term_generator,
        AssertionError),
    "rate_sum swaps the pump and spontaneous-emission rates": (
        "model.rate_sum",
        ("rate = getattr(params, field)",
         'rate = getattr(params, {"pump": "spont_emission", '
         '"spont_emission": "pump"}.get(field, field))'),
        _per_term_generator,
        AssertionError),
    "from_gauge takes i^(2k) for i^k": (
        "model.from_gauge",
        ("I_POWERS[k & 3]", "I_POWERS[(2 * k) & 3]"),
        partial(oracle_tests.check_one_pass_parts_are_the_sparse_kron_parts,
                SMALL_SYSTEMS),
        AssertionError),
    "I_POWERS holds 1 for i^1": (
        "model.I_POWERS",
        ("[1.0, 1.0j, -1.0, -1.0j]", "[1.0, 1.0, -1.0, -1.0j]"),
        lambda: liouvillian.liouvillian_for(ModelParams(2, 2, 0.9, 1.0, 0.5),
                                            -1),
        AssertionError),
    # faults in the sector route
    "a sign flipped in one kernel rule of S^- on the left": (
        "opkernels.KERNELS",
        ("lambda c: -0.5 * c.pl)", "lambda c: 0.5 * c.pl)"),
        partial(liouvillian_tests.test_lifted_action_equals_full_space_action,
                2, 1, np.random.default_rng(5)),
        AssertionError),
    "one entry of the sector steady solution moved by 1e-4": (
        "dynamics.steady_state",
        ("y = lu.solve(rhs)", "y = lu.solve(rhs)\n    y[1] += 1e-4"),
        _sector_residual_gate,
        SolverError),
    "one entry of the normalized sector steady state moved by 1e-4, "
    "after the residual gate": (
        "dynamics.steady_state",
        ("y = y / tr", "y = y / tr\n    y[1] += 1e-4"),
        _refinement_detector,
        PrecisionLossError),
    "dense Taylor generator without its diagonal shift, mu still in eta": (
        "dynamics._TaylorStepper.__init__",
        ("self.A.flat[::n + 1] -= self.mu", "pass"),
        partial(dynamics_tests.test_propagate_grid_matches_expm_multiply_reference,
                "sector N=4 M=2 charge -1"),
        AssertionError),
    # faults in the spectrum
    "chirp-z outer phase with its sign flipped": (
        "observables._chirp_sum",
        ("return v * np.exp(1j * outer)", "return v * np.exp(-1j * outer)"),
        _chirp_spectrum,
        AssertionError),
    "chirp-z run extended by the first geometric delay": (
        "observables._chirp_run",
        ("return run if", "return run + 1 if"),
        _chirp_spectrum,
        AssertionError),
}


@pytest.fixture
def clean_caches():
    _clear_caches()
    yield
    _clear_caches()


@pytest.mark.parametrize("fault", list(MUTANTS))
def test_check_catches_seeded_fault(fault, monkeypatch, clean_caches):
    name, (old, new), check, raised = MUTANTS[fault]
    check()   # passes on the code as it is
    _clear_caches()
    _mutate(monkeypatch, name, old, new)
    with pytest.raises(raised):
        check()
