"""The config surface of every subcommand: the keys a section accepts, their
defaults and types, which of them are required, and how a refusal reads."""

import pytest

from latfield.config import SUBCOMMANDS, ConfigError, load_run_config

# Each subcommand's required keys and nothing else.
REQUIRED_ONLY = {
    "schwinger-quench": (
        "[model]\nn_sites = 4\nmass = 0.5\ncoupling = 1.0\n"
        "[algorithm]\nt_max = 1.0\nsteps = 10\n"
    ),
    "schwinger-vqe": (
        "[model]\nn_sites = 4\nmass = 0.5\ncoupling = 1.0\n"
        "[algorithm]\nlayers = 2\nbudget = 50\n"
    ),
    "deuteron-vqe": "[model]\nlevel_count = 2\n",
    "phase-scan": (
        "[model]\nn_sites = 4\ncoupling = 1.0\n"
        "[algorithm]\nmass_min = -0.5\nmass_max = 0.5\nmass_step = 0.5\n"
    ),
    "thirring-correlator": (
        "[model]\nn_sites = 4\nmass = 0.5\ncoupling = 1.0\n"
        "[algorithm]\nt_max = 1.0\nt_steps = 5\np_plus = 1.0\n"
    ),
    "hadronic-tensor": (
        "[model]\nn_sites = 4\nmass = 0.5\ncoupling = 1.0\n"
        "[algorithm]\nt_max = 1.0\nt_steps = 5\nomega_min = 0.0\nomega_max = 2.0\n"
        "omega_steps = 3\nmomentum = 0.5\n"
    ),
    "thermal": (
        "[model]\nn_sites = 4\nmass = 0.5\ncoupling = 1.0\n"
        "[algorithm]\nbeta = 1.0\nquench_mass = 0.2\nquench_coupling = 0.3\n"
        "t_max = 1.0\nt_steps = 5\n"
    ),
    "dump-hamiltonian": "[model]\nmodel = resource\n",
}

RESOLVED = {
    "schwinger-quench": [
        ("run.subcommand", "schwinger-quench"),
        ("run.seed", 0),
        ("algorithm.record_every", 1),
        ("algorithm.steps", 10),
        ("algorithm.t_max", 1.0),
        ("model.boundary_field", 0.0),
        ("model.coupling", 1.0),
        ("model.mass", 0.5),
        ("model.n_sites", 4),
        ("model.spacing", 1.0),
    ],
    "schwinger-vqe": [
        ("run.subcommand", "schwinger-vqe"),
        ("run.seed", 0),
        ("algorithm.alpha", 1.5),
        ("algorithm.b_field", 0.3),
        ("algorithm.budget", 50),
        ("algorithm.delta", 1.0),
        ("algorithm.j0", 1.0),
        ("algorithm.layers", 2),
        ("algorithm.starts", 4),
        ("model.boundary_field", 0.0),
        ("model.coupling", 1.0),
        ("model.mass", 0.5),
        ("model.n_sites", 4),
        ("model.spacing", 1.0),
    ],
    "deuteron-vqe": [
        ("run.subcommand", "deuteron-vqe"),
        ("run.seed", 0),
        ("algorithm.budget", 500),
        ("model.level_count", 2),
    ],
    "phase-scan": [
        ("run.subcommand", "phase-scan"),
        ("run.seed", 0),
        ("algorithm.alpha", 1.5),
        ("algorithm.b_field", 0.3),
        ("algorithm.budget", 2000),
        ("algorithm.delta", 1.0),
        ("algorithm.j0", 1.0),
        ("algorithm.layers", 6),
        ("algorithm.mass_max", 0.5),
        ("algorithm.mass_min", -0.5),
        ("algorithm.mass_step", 0.5),
        ("algorithm.method", "vqe"),
        ("model.boundary_field", 0.0),
        ("model.coupling", 1.0),
        ("model.n_sites", 4),
        ("model.spacing", 1.0),
    ],
    "thirring-correlator": [
        ("run.subcommand", "thirring-correlator"),
        ("run.seed", 0),
        ("algorithm.charge", 0),
        ("algorithm.energy_rank", 0),
        ("algorithm.operator", "hopping"),
        ("algorithm.p_plus", 1.0),
        ("algorithm.pdf_time", 0.0),
        ("algorithm.t_max", 1.0),
        ("algorithm.t_steps", 5),
        ("model.coupling", 1.0),
        ("model.mass", 0.5),
        ("model.n_sites", 4),
    ],
    "hadronic-tensor": [
        ("run.subcommand", "hadronic-tensor"),
        ("run.seed", 0),
        ("algorithm.charge", 3),
        ("algorithm.energy_rank", 0),
        ("algorithm.momentum", 0.5),
        ("algorithm.mu", 0),
        ("algorithm.nu", 0),
        ("algorithm.omega_max", 2.0),
        ("algorithm.omega_min", 0.0),
        ("algorithm.omega_steps", 3),
        ("algorithm.t_max", 1.0),
        ("algorithm.t_steps", 5),
        ("model.coupling", 1.0),
        ("model.mass", 0.5),
        ("model.n_sites", 4),
    ],
    "thermal": [
        ("run.subcommand", "thermal"),
        ("run.seed", 0),
        ("algorithm.beta", 1.0),
        ("algorithm.dump_gibbs", False),
        ("algorithm.observable", "staggered_density"),
        ("algorithm.quench_coupling", 0.3),
        ("algorithm.quench_mass", 0.2),
        ("algorithm.t_max", 1.0),
        ("algorithm.t_steps", 5),
        ("algorithm.threshold", 0.0),
        ("model.coupling", 1.0),
        ("model.mass", 0.5),
        ("model.n_sites", 4),
    ],
    "dump-hamiltonian": [
        ("run.subcommand", "dump-hamiltonian"),
        ("run.seed", 0),
        ("model.alpha", 1.5),
        ("model.b_field", 0.3),
        ("model.boundary_field", 0.0),
        ("model.coupling", None),
        ("model.delta", 1.0),
        ("model.j0", 1.0),
        ("model.level_count", None),
        ("model.mass", None),
        ("model.model", "resource"),
        ("model.n_sites", None),
        ("model.spacing", 1.0),
    ],
}


def load(tmp_path, subcommand, text):
    path = tmp_path / "config.ini"
    path.write_text(text)
    return load_run_config(path, subcommand)


def test_every_subcommand_is_pinned():
    assert tuple(REQUIRED_ONLY) == SUBCOMMANDS == tuple(RESOLVED)


@pytest.mark.parametrize("subcommand", SUBCOMMANDS)
def test_required_keys_resolve_to_the_pinned_config(tmp_path, subcommand):
    items = load(tmp_path, subcommand, REQUIRED_ONLY[subcommand]).flat_items()
    assert items == RESOLVED[subcommand]
    # 1 == 1.0 and 0 == False: the types are pinned too.
    assert [type(v) for _, v in items] == [type(v) for _, v in RESOLVED[subcommand]]


def required_keys():
    for subcommand, text in REQUIRED_ONLY.items():
        for line in text.splitlines():
            if line.startswith("["):
                section = line
            else:
                yield subcommand, section, line


@pytest.mark.parametrize("subcommand, section, line", list(required_keys()))
def test_each_required_key_is_refused_by_name_when_missing(tmp_path, subcommand, section, line):
    key = line.split(" = ")[0]
    with pytest.raises(ConfigError) as exc:
        load(tmp_path, subcommand, REQUIRED_ONLY[subcommand].replace(line + "\n", ""))
    assert str(exc.value) == f"missing required key '{key}' in section {section}"


def test_model_kind_choices_keep_their_order(tmp_path):
    with pytest.raises(ConfigError) as exc:
        load(tmp_path, "dump-hamiltonian", "[model]\nmodel = ising\n")
    assert str(exc.value) == (
        "'model' in [model] must be one of "
        "('schwinger', 'thirring', 'deuteron', 'resource'), got 'ising'"
    )
