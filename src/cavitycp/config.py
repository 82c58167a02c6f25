"""Line-oriented configuration: molecules, materials, and mirrors.

Format: section headers [molecule:NAME], [material:NAME], [mirror:NAME]
followed by key = value lines; '#' starts a comment; SI units throughout.

  [molecule:LiH-custom]
  transition = 2.78973e12 3.847e-58     # omega_rad_per_s  d_squared_C2m2

  [material:mymetal]
  model = drude
  plasma_frequency = 1.37e16
  damping = 5.32e13

  [material:myglass]
  model = constant
  eps_real = 10.0
  eps_imag = 1e-4

  [mirror:mywall]
  type = halfspace          # or: constant_r (key r), quarter_wave
  material = mymetal

  [mirror:bragg]
  type = quarter_wave
  material_a = sapphire_300K
  material_b = vacuum
  pairs = 8
  design_frequency = 2.78973e12

Built-in molecules (LiH) and materials/mirrors (gold, sapphire at both
temperature tags, GaAs, AlAs, vacuum) are always present; user entries may
override them, which is reported as a warning.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from .materials import ConstantLossy, ConstantR, Drude, HalfSpace, \
    MirrorSpec, PermittivityModel, Stack, Vacuum, quarter_wave_stack
from .molecules import Molecule, Transition, builtin_molecules

__all__ = ["ConfigError", "Registry", "load_registry", "parse_quantity",
           "builtin_materials", "builtin_mirrors"]


class ConfigError(ValueError):
    """Malformed configuration, with line context."""


def builtin_materials() -> Dict[str, PermittivityModel]:
    return {
        "vacuum": Vacuum(),
        "gold": Drude(plasma_frequency=1.37e16, damping=5.32e13),
        "sapphire_300K": ConstantLossy(eps_real=10.0, eps_imag=1e-4),
        "sapphire_77K": ConstantLossy(eps_real=10.0, eps_imag=1e-6),
        "GaAs": ConstantLossy(eps_real=12.96, eps_imag=0.02),
        "AlAs": ConstantLossy(eps_real=10.96, eps_imag=0.02),
    }


def builtin_mirrors() -> Dict[str, MirrorSpec]:
    return {"gold": HalfSpace(builtin_materials()["gold"])}


@dataclass
class Registry:
    molecules: Dict[str, Molecule] = field(default_factory=builtin_molecules)
    materials: Dict[str, PermittivityModel] = field(
        default_factory=builtin_materials)
    mirrors: Dict[str, MirrorSpec] = field(default_factory=builtin_mirrors)


_SUFFIXES = {"um": 1e-6, "mm": 1e-3, "cm": 1e-2, "m": 1.0, "nm": 1e-9,
             "K": 1.0}


def parse_quantity(text: str) -> float:
    """Parse a number with an optional unit suffix (um/mm/cm/m/nm/K)."""
    text = text.strip()
    for suffix, scale in sorted(_SUFFIXES.items(), key=lambda s: -len(s[0])):
        if text.endswith(suffix):
            head = text[:-len(suffix)]
            if head and (head[-1].isdigit() or head[-1] == "."):
                return float(head) * scale
    return float(text)


def _parse_sections(text: str) -> List[Tuple[str, str, Dict, List, int]]:
    sections = []
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]") or ":" not in line:
                raise ConfigError(
                    f"line {lineno}: section header must look like "
                    f"[kind:NAME], got {raw.strip()!r}")
            kind, name = (s.strip() for s in line[1:-1].split(":", 1))
            if kind not in ("molecule", "material", "mirror"):
                raise ConfigError(f"line {lineno}: unknown section kind "
                                  f"{kind!r}")
            if not name:
                raise ConfigError(f"line {lineno}: empty section name")
            current = (kind, name, {}, [], lineno)
            sections.append(current)
            continue
        if current is None:
            raise ConfigError(f"line {lineno}: key-value line outside any "
                              f"section")
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got "
                              f"{raw.strip()!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        if key == "transition":
            current[3].append((lineno, value))
        elif kind == "molecule":
            raise ConfigError(f"[molecule:{name}] (line {lineno}): molecules "
                              f"only accept 'transition' lines, got {key!r}")
        else:
            current[2][key] = (lineno, value)
    return sections


def _build_molecule(name, transitions, at) -> Molecule:
    def transition(value):
        parts = value.split()
        if len(parts) != 2:
            raise ValueError("transition needs exactly 'omega d_squared'")
        return Transition(omega=float(parts[0]), d_squared=float(parts[1]))

    parsed = [at(lineno, transition, value) for lineno, value in transitions]
    return Molecule(name, tuple(sorted(parsed, key=lambda t: t.omega)))


def _build_material(require) -> PermittivityModel:
    model = require("model").lower()
    if model == "drude":
        return Drude(plasma_frequency=require("plasma_frequency", float),
                     damping=require("damping", float))
    if model == "constant":
        return ConstantLossy(eps_real=require("eps_real", float),
                             eps_imag=require("eps_imag", float, 0.0))
    if model == "vacuum":
        return Vacuum()
    raise ValueError(f"unknown model {model!r}")


def _build_mirror(require, materials) -> MirrorSpec:
    kind = require("type").lower()

    def material(mat_name):
        if mat_name not in materials:
            raise ValueError(f"unknown material {mat_name!r}")
        return materials[mat_name]

    if kind == "halfspace":
        return HalfSpace(require("material", material))
    if kind == "constant_r":
        return ConstantR(r=require("r", float))
    if kind == "quarter_wave":
        return Stack(quarter_wave_stack(
            require("material_a", material), require("material_b", material),
            require("pairs", int), require("design_frequency", float)))
    raise ValueError(f"unknown type {kind!r}")


def load_registry(text: str = "") -> Registry:
    """Parse a config string into a registry, on top of the built-ins.

    An error in a section reads "[kind:NAME] (line N): ...", where line N
    holds the value that does not convert, else the section header.
    """
    reg = Registry()
    for kind, name, fields, transitions, header_line in _parse_sections(text):
        def at(lineno, convert, *args):
            """convert(*args), a ValueError given the context of lineno."""
            try:
                return convert(*args)
            except ConfigError:  # has its context already
                raise
            except ValueError as exc:
                raise ConfigError(f"[{kind}:{name}] (line {lineno}): {exc}") \
                    from None

        def require(key, convert=str, default=None):
            """convert(value of key, else default) at the key's line."""
            lineno, value = fields.get(key, (header_line, default))
            if value is None:
                raise ValueError(f"missing required key {key!r}")
            return at(lineno, convert, value)

        if kind == "molecule":
            target, built = reg.molecules, at(
                header_line, _build_molecule, name, transitions, at)
        elif kind == "material":
            target, built = reg.materials, at(
                header_line, _build_material, require)
        else:
            target, built = reg.mirrors, at(
                header_line, _build_mirror, require, reg.materials)
        if name in target:
            warnings.warn(f"config overrides built-in {kind} {name!r}")
        target[name] = built
    return reg
