"""INI-style experiment configuration: sections of ``key = value`` pairs,
UTF-8, ``#`` comments.  Every subcommand declares its schema; unknown
sections or keys are rejected by name, as are missing required keys.

Model parameters are defined once, by the dataclasses in ``models``: a
``[model]`` section takes the fields of its model's parameter class (and
the resource fields of the VQE ansatz sit in ``[algorithm]``), read from
``dataclasses.fields``; a field with no default is required."""

from __future__ import annotations

import configparser
from dataclasses import MISSING, dataclass, fields, replace
from pathlib import Path
from typing import Any, Callable

from .models import NAMED_MODELS, DeuteronSpec, ResourceParams, SchwingerParams, ThirringParams


class ConfigError(ValueError):
    """Configuration file problem; the message names the offending key."""


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "yes", "on", "1"):
        return True
    if lowered in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


@dataclass(frozen=True)
class Field:
    parse: Callable[[str], Any]
    required: bool = False
    default: Any = None
    choices: tuple | None = None


def _fields_of(params, omit: tuple[str, ...] = ()) -> dict[str, Field]:
    """The config fields of a parameter dataclass, less ``omit``: a field
    with no default is required."""
    return {
        f.name: Field(
            {"int": int, "float": float}[f.type],
            required=f.default is MISSING,
            default=None if f.default is MISSING else f.default,
        )
        for f in fields(params)
        if f.name not in omit
    }


_RUN_SECTION = {
    "out": Field(str),
    "seed": Field(int),
}

SCHEMAS: dict[str, dict[str, dict[str, Field]]] = {
    "schwinger-quench": {
        "model": _fields_of(SchwingerParams),
        "algorithm": {
            "t_max": Field(float, required=True),
            "steps": Field(int, required=True),
            "record_every": Field(int, default=1),
        },
    },
    "schwinger-vqe": {
        "model": _fields_of(SchwingerParams),
        "algorithm": {
            "layers": Field(int, required=True),
            "budget": Field(int, required=True),
            "starts": Field(int, default=4),
            **_fields_of(ResourceParams, omit=("n_sites",)),
        },
    },
    "deuteron-vqe": {
        "model": _fields_of(DeuteronSpec),
        "algorithm": {"budget": Field(int, default=500)},
    },
    "phase-scan": {
        "model": _fields_of(SchwingerParams, omit=("mass",)),
        "algorithm": {
            "mass_min": Field(float, required=True),
            "mass_max": Field(float, required=True),
            "mass_step": Field(float, required=True),
            "method": Field(str, default="vqe", choices=("vqe", "dense")),
            "layers": Field(int, default=6),
            "budget": Field(int, default=2000),
            **_fields_of(ResourceParams, omit=("n_sites",)),
        },
    },
    "thirring-correlator": {
        "model": _fields_of(ThirringParams),
        "algorithm": {
            "charge": Field(int, default=0),
            "energy_rank": Field(int, default=0),
            "t_max": Field(float, required=True),
            "t_steps": Field(int, required=True),
            "p_plus": Field(float, required=True),
            "pdf_time": Field(float, default=0.0),
            "operator": Field(str, default="hopping", choices=("hopping", "charge")),
        },
    },
    "hadronic-tensor": {
        "model": _fields_of(ThirringParams),
        "algorithm": {
            "charge": Field(int, default=3),
            "energy_rank": Field(int, default=0),
            "t_max": Field(float, required=True),
            "t_steps": Field(int, required=True),
            "omega_min": Field(float, required=True),
            "omega_max": Field(float, required=True),
            "omega_steps": Field(int, required=True),
            "momentum": Field(float, required=True),
            "mu": Field(int, default=0, choices=(0, 1)),
            "nu": Field(int, default=0, choices=(0, 1)),
        },
    },
    "thermal": {
        "model": _fields_of(ThirringParams),
        "algorithm": {
            "beta": Field(float, required=True),
            "threshold": Field(float, default=0.0),
            "quench_mass": Field(float, required=True),
            "quench_coupling": Field(float, required=True),
            "observable": Field(
                str,
                default="staggered_density",
                choices=("staggered_density", "total_z", "energy"),
            ),
            "t_max": Field(float, required=True),
            "t_steps": Field(int, required=True),
            "dump_gibbs": Field(_parse_bool, default=False),
        },
    },
    "dump-hamiltonian": {
        # Any kind's fields; the kind's required ones are checked once it is known.
        "model": {
            "model": Field(str, required=True, choices=tuple(NAMED_MODELS)),
            **{
                key: replace(field, required=False)
                for params, _ in NAMED_MODELS.values()
                for key, field in _fields_of(params).items()
            },
        },
    },
}

SUBCOMMANDS = tuple(SCHEMAS)


@dataclass(frozen=True)
class RunConfig:
    subcommand: str
    sections: dict[str, dict[str, Any]]
    out: Path
    seed: int
    dump_hamiltonian: bool

    def model(self) -> dict[str, Any]:
        return self.sections.get("model", {})

    def algorithm(self) -> dict[str, Any]:
        return self.sections.get("algorithm", {})

    def flat_items(self) -> list[tuple[str, Any]]:
        """Deterministic (section.key, value) listing of the resolved config."""
        items: list[tuple[str, Any]] = [
            ("run.subcommand", self.subcommand),
            ("run.seed", self.seed),
        ]
        for section in sorted(self.sections):
            for key in sorted(self.sections[section]):
                items.append((f"{section}.{key}", self.sections[section][key]))
        return items


def parse_config_text(text: str, subcommand: str) -> dict[str, dict[str, Any]]:
    if subcommand not in SCHEMAS:
        raise ConfigError(f"unknown subcommand {subcommand!r}")
    schema = SCHEMAS[subcommand]
    parser = configparser.ConfigParser(
        comment_prefixes=("#",), inline_comment_prefixes=("#",), interpolation=None
    )
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config parse failure: {exc}") from exc
    sections: dict[str, dict[str, Any]] = {}
    for name in parser.sections():
        if name == "run":
            reference = _RUN_SECTION
        elif name in schema:
            reference = schema[name]
        else:
            raise ConfigError(f"unknown section [{name}] for {subcommand}")
        values: dict[str, Any] = {}
        for key, raw in parser.items(name):
            if key not in reference:
                raise ConfigError(f"unknown key '{key}' in section [{name}]")
            field = reference[key]
            try:
                value = field.parse(raw)
            except ValueError as exc:
                raise ConfigError(f"bad value for '{key}' in [{name}]: {exc}") from exc
            if field.choices is not None and value not in field.choices:
                raise ConfigError(
                    f"'{key}' in [{name}] must be one of {field.choices}, got {value!r}"
                )
            values[key] = value
        sections[name] = values
    for name, reference in schema.items():
        values = sections.setdefault(name, {})
        for key, field in reference.items():
            if key not in values:
                if field.required:
                    raise ConfigError(f"missing required key '{key}' in section [{name}]")
                values[key] = field.default
    return sections


def load_run_config(
    path: str | Path,
    subcommand: str,
    out: str | None = None,
    seed: int | None = None,
    dump_hamiltonian: bool = False,
) -> RunConfig:
    """Parse and validate a config file; CLI flags override [run] keys."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    sections = parse_config_text(text, subcommand)
    run = sections.pop("run", {})

    def resolve(flag, key, fallback):
        if flag is not None:
            return flag
        value = run.get(key)
        return fallback if value is None else value

    resolved_out = resolve(out, "out", f"runs/{subcommand}")
    resolved_seed = resolve(seed, "seed", 0)
    if resolved_seed < 0:
        raise ConfigError("seed must be non-negative")
    return RunConfig(
        subcommand=subcommand,
        sections=sections,
        out=Path(resolved_out),
        seed=int(resolved_seed),
        dump_hamiltonian=dump_hamiltonian,
    )
