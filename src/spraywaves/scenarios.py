"""Bundled reproduction scenarios referenced by the CLI and the acceptance suite."""

_STD_MAXWELLIAN = {"kind": "maxwellian", "mass": 1.0, "drift": 0.0, "width": 1.0}

_BUMP_PROFILE = {
    "kind": "bump_on_tail", "eps": 0.05, "eta": 0.5, "c_star": 5.0,
    "base": _STD_MAXWELLIAN,
}

_DEFAULT_QUADRATURE = {"nodes": 256, "axis_tolerance": 1e-12}

SCENARIOS: dict[str, dict] = {
    "maxwellian-stable": {
        "profile": _STD_MAXWELLIAN,
        "params": {"c0": 1.0, "rho0": 1.0, "kappa": 0.01},
        "quadrature": _DEFAULT_QUADRATURE,
        "region": {"re_min": -2.0, "re_max": 2.0, "im_min": -0.05, "im_max": 0.02},
        "scan": {"re": [-3.0, 3.0, 61], "im": [-0.2, 0.2, 21]},
        "landau": {"k_values": [1.0, 2.0], "im_sigma": 0.05, "re": [-3.0, 3.0, 61]},
        "sim": {"nv": 256, "k": 1.0, "periods": 10.0, "init": {"type": "acoustic"}},
    },
    "bump-unstable": {
        "profile": _BUMP_PROFILE,
        "params": {"c0": 5.0, "rho0": 1.0, "kappa": 1.5e-3},
        "quadrature": _DEFAULT_QUADRATURE,
        "region": {"re_min": -7.0, "re_max": 7.0, "im_min": 1e-6, "im_max": 0.12},
        "scan": {"re": [3.0, 7.0, 61], "im": [0.001, 0.12, 21]},
        "sim": {"nv": 2048, "k": 8.0, "growth_spans": 6.0,
                "init": {"type": "eigenmode"}},
        "illposed": {"s": 1.0, "n_exponent": 2.0, "k_list": [8.0, 16.0, 32.0],
                     "nv": 2048},
    },
    "thin-spray-sweep": {
        "profile": _STD_MAXWELLIAN,
        "params": {"c0": 1.0, "rho0": 1.0, "kappa": 1e-3},
        "quadrature": _DEFAULT_QUADRATURE,
        "sweep": {"kappa_values": [4e-3, 2e-3, 1e-3]},
    },
    "scalar-coupling": {
        "profile": _STD_MAXWELLIAN,
        "quadrature": _DEFAULT_QUADRATURE,
        "scalar": {"lambda0": 1.0, "kappa": 1e-3},
    },
    "system-prop1": {
        "profile": _STD_MAXWELLIAN,
        "quadrature": _DEFAULT_QUADRATURE,
        "system": {
            "A": [[1.0, 0.3], [0.3, 2.0]],
            "grad_psi": [1.0, 0.4],
            "phi_coeffs": [[1.0, 0.4]],
            "kappa": 1e-4,
        },
    },
}
