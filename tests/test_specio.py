"""Kernel spec loading and validation diagnostics."""

import json

import numpy as np
import pytest

from rkhs_lab.errors import ConfigError
from rkhs_lab.specio import load_kernel


def test_rule_one_builds_geometric():
    k = load_kernel({"kind": "disc_diagonal", "coeff_rule": "1", "n_max": 50})
    assert np.allclose(k.coeffs, 1.0)
    assert k.n_max == 50


def test_rule_n_plus_one_and_power():
    k = load_kernel({"kind": "disc_diagonal", "coeff_rule": "n+1", "n_max": 4})
    assert np.allclose(k.coeffs, [1, 2, 3, 4, 5])
    k = load_kernel({"kind": "disc_diagonal", "coeff_rule": "(n+1)^s",
                     "s": 2, "n_max": 3})
    assert np.allclose(k.coeffs, [1, 4, 9, 16])


def test_custom_list():
    k = load_kernel({"kind": "disc_diagonal", "coeff_rule": "custom-list",
                     "coeffs": [1.0, 2.0, 4.0]})
    assert np.allclose(k.coeffs, [1, 2, 4])


def test_annulus_spec():
    k = load_kernel({"kind": "annulus_laurent", "r": 0.5, "weight_b": 2,
                     "n_max": 60})
    assert k.n_min == -60 and k.n_max == 60


def test_json_string_and_file(tmp_path):
    spec = {"kind": "disc_diagonal", "coeff_rule": "1", "n_max": 10}
    k1 = load_kernel(json.dumps(spec))
    path = tmp_path / "kernel.json"
    path.write_text(json.dumps(spec))
    k2 = load_kernel(str(path))
    assert np.array_equal(k1.coeffs, k2.coeffs)


@pytest.mark.parametrize("spec,field", [
    ({"coeff_rule": "1"}, "kind"),
    ({"kind": "nope", "coeff_rule": "1"}, "kind"),
    ({"kind": "disc_diagonal"}, "coeff_rule"),
    ({"kind": "disc_diagonal", "coeff_rule": "(n+1)^s"}, "s"),
    ({"kind": "disc_diagonal", "coeff_rule": "custom-list", "coeffs": []}, "coeffs"),
    ({"kind": "disc_diagonal", "coeff_rule": "custom-list",
      "coeffs": [1.0, -1.0]}, "coeffs"),
    ({"kind": "disc_diagonal", "coeff_rule": "1", "n_max": 0}, "n_max"),
    ({"kind": "annulus_laurent"}, "r"),
    ({"kind": "annulus_laurent", "r": 1.5}, "r"),
    ({"kind": "disc_diagonal", "coeff_rule": "(n+1)^s", "s": 1000}, "s"),
    ({"kind": "disc_diagonal", "coeff_rule": "custom-list",
      "coeffs": [1.0, float("inf")]}, "coeffs"),
    ({"kind": "annulus_laurent", "r": 0.5, "weight_b": 10 ** 400}, "weight_b"),
    ({"kind": "annulus_laurent", "r": 0.5, "n_max": 10}, "n_max"),
    # JSON booleans are not numbers, although Python counts them as ints
    ({"kind": "disc_diagonal", "coeff_rule": "1", "n_max": True}, "n_max"),
    ({"kind": "disc_diagonal", "coeff_rule": "(n+1)^s", "s": True}, "s"),
    ({"kind": "annulus_laurent", "r": True}, "r"),
    ({"kind": "annulus_laurent", "r": 0.5, "weight_b": True}, "weight_b"),
    ({"kind": "annulus_laurent", "r": 0.5, "weight_b": False}, "weight_b"),
    ({"kind": "disc_diagonal", "coeff_rule": "custom-list",
      "coeffs": [1.0, True]}, "coeffs"),
    ({"kind": "disc_diagonal", "coeff_rule": "custom-list",
      "coeffs": ["1", "2.5"]}, "coeffs"),
])
def test_diagnostics_name_offending_field(spec, field):
    with pytest.raises(ConfigError) as exc:
        load_kernel(spec)
    assert field in str(exc.value)


def test_invalid_json_rejected():
    with pytest.raises(ConfigError):
        load_kernel("{not json")
