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
from typing import Dict, List, Tuple

from .materials import ConstantLossy, ConstantR, Drude, HalfSpace, \
    MirrorSpec, PermittivityModel, Stack, Vacuum, quarter_wave_stack
from .molecules import Molecule, Transition, builtin_molecules

__all__ = ["ConfigError", "Registry", "load_registry", "builtin_materials",
           "builtin_mirrors"]


class ConfigError(ValueError):
    """Malformed configuration, with line context."""


_MATERIALS = {  # built once: registries share these immutable values
    "vacuum": Vacuum(),
    "gold": Drude(plasma_frequency=1.37e16, damping=5.32e13),
    "sapphire_300K": ConstantLossy(eps_real=10.0, eps_imag=1e-4),
    "sapphire_77K": ConstantLossy(eps_real=10.0, eps_imag=1e-6),
    "GaAs": ConstantLossy(eps_real=12.96, eps_imag=0.02),
    "AlAs": ConstantLossy(eps_real=10.96, eps_imag=0.02),
}


def builtin_materials() -> Dict[str, PermittivityModel]:
    return dict(_MATERIALS)


def builtin_mirrors() -> Dict[str, MirrorSpec]:
    return {"gold": HalfSpace(_MATERIALS["gold"])}


class Registry:
    def __init__(self):  # the built-ins; load_registry adds a config's
        self.molecules = builtin_molecules()
        self.materials = builtin_materials()
        self.mirrors = builtin_mirrors()


def _parse_sections(text: str) -> List[Tuple[str, str, int, List]]:
    """(kind, name, header line, [(line, key, value), ...]) per section."""
    sections = []
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
            if not name:
                raise ConfigError(f"line {lineno}: empty section name")
            sections.append((kind, name, lineno, []))
            continue
        if not sections:
            raise ConfigError(f"line {lineno}: key-value line outside any "
                              f"section")
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got "
                              f"{raw.strip()!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        sections[-1][3].append((lineno, key, value))
    return sections


def lookup(table, name, kind):
    """table[name], else a ValueError that lists the names table has."""
    if name not in table:
        raise ValueError(f"unknown {kind} {name!r}; available: "
                         f"{', '.join(sorted(table))}")
    return table[name]


def _build_molecule(name, take) -> Molecule:
    def transition(value):
        parts = value.split()
        if len(parts) != 2:
            raise ValueError("transition needs exactly 'omega d_squared'")
        return Transition(omega=float(parts[0]), d_squared=float(parts[1]))

    return Molecule(name, tuple(sorted(take("transition", transition),
                                       key=lambda t: t.omega)))


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

    def material(key):
        return require(key, lambda mat: lookup(materials, mat, "material"))

    if kind == "halfspace":
        return HalfSpace(material("material"))
    if kind == "constant_r":
        return ConstantR(r=require("r", float))
    if kind == "quarter_wave":
        return Stack(quarter_wave_stack(
            material("material_a"), material("material_b"),
            require("pairs", int), require("design_frequency", float)))
    raise ValueError(f"unknown type {kind!r}")


def load_registry(text: str = "") -> Registry:
    """Parse a config string into a registry, on top of the built-ins.

    An error in a section reads "[kind:NAME] (line N): ...", where line N
    holds the value that does not convert or a line its builder left unread
    (an unknown key, or a key repeated where one value is read), else the
    section header.
    """
    reg = Registry()
    for kind, name, header_line, lines in _parse_sections(text):
        unread = {lineno: (key, value) for lineno, key, value in lines}
        read = []  # the keys the builder asked for

        def at(lineno, convert, *args):
            """convert(*args), a ValueError given the context of lineno."""
            try:
                return convert(*args)
            except ConfigError:  # has its context already
                raise
            except ValueError as exc:
                raise ConfigError(f"[{kind}:{name}] (line {lineno}): {exc}") \
                    from None

        def take(key, convert, count=None):
            """Read key's first count lines (None: all), values converted."""
            read.append(key)
            found = [n for n, (k, _) in unread.items() if k == key][:count]
            return [at(n, convert, unread.pop(n)[1]) for n in found]

        def require(key, convert=str, default=None):
            """convert(value of key) at the key's line, else default."""
            found = take(key, convert, 1)
            if not found and default is None:
                raise ValueError(f"missing required key {key!r}")
            return found[0] if found else default

        target, build = at(header_line, lookup, {
            "molecule": (reg.molecules, lambda: _build_molecule(name, take)),
            "material": (reg.materials, lambda: _build_material(require)),
            "mirror": (reg.mirrors,
                       lambda: _build_mirror(require, reg.materials))},
            kind, "section kind")
        built = at(header_line, build)
        if unread:  # the first line the builder left
            lineno, (key, _) = next(iter(unread.items()))
            raise ConfigError(f"[{kind}:{name}] (line {lineno}): key {key!r} "
                              + ("repeated; one value is read" if key in read
                                 else f"not read (reads {', '.join(read)})"))
        if name in target:
            warnings.warn(f"config overrides built-in {kind} {name!r}")
        target[name] = built
    return reg
