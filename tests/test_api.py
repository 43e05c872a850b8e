"""The public API: one list of names per defining module, republished by the package."""

import ast
import inspect
import pydoc
import re
from pathlib import Path

import numpy as np

import planeqm
from planeqm import bell, isomorphisms, measurement, quantization, states

MODULES = (states, quantization, measurement, bell, isomorphisms)

PUBLIC_NAMES = {
    "BUILTIN_MODELS", "BellKind", "BorelSet", "CircleFunction", "DECOMPOSE_TOL", "DOWN",
    "DensityParams", "DiracProfile", "FourierData", "FourierSeries", "HiddenVariableModel",
    "InequalityReport", "MeasurementOutcome", "PARALLEL", "PERPENDICULAR", "Quaternion", "SIGMA1",
    "SIGMA3", "STRUCTURAL_TOL", "ScanGrid", "SuperpositionResult", "TAU2", "TWO_PI",
    "UP", "baby_bell_check", "bell_basis_matrix", "bell_state", "cat", "classical_correlation",
    "coherent_state", "coherent_to_tensor", "commutator_e1_e2", "complex_from_coords",
    "complex_pair_to_quaternion", "complex_to_tensor", "conjugation", "d_half_matrix",
    "density_matrix", "dirac_cumulative", "evolution_operator", "evolve_joint", "exp_projector",
    "flip", "fourier_coefficients", "fourier_series_from_json", "fourier_series_to_json",
    "from_kron_order", "hamilton_product", "identity_residual", "joint_probabilities",
    "measurement_outcomes", "outcome_probability", "povm_element", "projector", "pure_state",
    "quantize", "quantum_correlation", "quaternion_matrix", "quaternion_to_complex_pair",
    "real_rep", "real_structure_coords", "rotation", "sample_outcomes", "sigma_phi",
    "sigma_tensor", "sign_cosine_model", "sign_projection_model", "sin_inequality",
    "singlet_correlation", "spectral_decompose", "superposition_density", "tau2_conjugate",
    "tensor_to_complex", "to_kron_order", "violation_scan", "wrap_orientation", "wrap_state_angle",
}


def _defined_names(module) -> set:
    """Names bound at module level by a def, a class or an assignment, not by an import."""
    names = set()
    for node in ast.parse(inspect.getsource(module)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def test_package_all_is_the_pinned_public_api():
    assert len(planeqm.__all__) == len(set(planeqm.__all__)) == 77
    assert set(planeqm.__all__) == PUBLIC_NAMES


def test_star_import_binds_each_name_from_its_defining_module():
    namespace = {}
    exec("from planeqm import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == PUBLIC_NAMES
    for module in MODULES:
        for name in module.__all__:
            assert namespace[name] is getattr(module, name), name


def test_each_name_is_declared_once_by_the_module_that_defines_it():
    declared = [name for module in MODULES for name in module.__all__]
    assert sorted(declared) == sorted(PUBLIC_NAMES)
    for module in MODULES:
        assert set(module.__all__) <= _defined_names(module), module.__name__


def test_package_init_lists_no_names():
    for node in ast.walk(ast.parse(inspect.getsource(planeqm))):
        assert not (isinstance(node, (ast.List, ast.Tuple, ast.Set)) and node.elts)
        if isinstance(node, ast.ImportFrom) and node.module:
            assert [alias.name for alias in node.names] == ["*"]


def test_pydoc_documents_every_public_name():
    text = pydoc.render_doc(planeqm, renderer=pydoc.plaintext)
    missing = [name for name in PUBLIC_NAMES if not re.search(rf"\b{name}\b", text)]
    assert missing == []


def test_readme_quick_start_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["grid"].lhs.shape == (91, 91)
    assert np.array_equal(namespace["a_f"], [[0.5, 0.0], [0.0, -0.5]])
