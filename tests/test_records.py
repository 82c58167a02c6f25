"""The frozen value classes (constants.Record and its subclasses): built from
positional or keyword arguments with their defaults, immutable, equal and
hashed by (class, fields), checked when built; and what a fresh
`import cavitycp.cli` loads."""

import ast
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cavitycp
from cavitycp import CavityGeometry, ConstantLossy, ConstantR, Drude, \
    ExtremumReport, GreenTraceParts, HalfSpace, Layer, LevelScheme, \
    Molecule, PlateGeometry, PotentialComponents, QuadratureSpec, Stack, \
    ThermalEnvironment, Transition, Vacuum
from cavitycp.constants import Record

SRC = Path(cavitycp.__file__).resolve().parent
GOLD = Drude(1.37e16, 5.32e13)
LIH_LINE = Transition(2.78973e12, 3.847e-58)

# one valid set of field values per Record class, in field order
EXAMPLES = {
    Drude: dict(plasma_frequency=1.37e16, damping=5.32e13),
    ConstantLossy: dict(eps_real=10.0, eps_imag=1e-4),
    Vacuum: dict(),
    Layer: dict(material=GOLD, thickness=1e-6),
    Stack: dict(layers=(Layer(Vacuum(), 1e-6), Layer(GOLD, None))),
    ConstantR: dict(r=0.9),
    Transition: dict(omega=2.78973e12, d_squared=3.847e-58),
    Molecule: dict(name="LiH", transitions=(LIH_LINE,)),
    ThermalEnvironment: dict(temperature=300.0),
    CavityGeometry: dict(width=1e-3, mirror=ConstantR(0.9)),
    PlateGeometry: dict(mirror=HalfSpace(GOLD)),
    GreenTraceParts: dict(propagating=1.0 + 2.0j, evanescent=-3.0j),
    PotentialComponents: dict(z=0.0, U_nr=1.0, U_pr=2.0, U_ev=3.0),
    ExtremumReport: dict(nu=2, width=1e-3, maxima_positions=(0.0,),
                         maxima_values=(1.0,), minima_positions=(2e-4,),
                         minima_values=(-1.0,), depth=2.0,
                         is_well_depth=True, depth_positions=(0.0, 2e-4)),
    LevelScheme: dict(energies=(0.0, 1.0), d_squared={(0, 1): 1.0}),
}
IDS = [cls.__name__ for cls in EXAMPLES]


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_record_class_has_an_example():
    # HalfSpace(material) is the one class with an __init__ of its own
    assert set(_subclasses(Record)) == set(EXAMPLES) | {HalfSpace}


@pytest.mark.parametrize("cls", EXAMPLES, ids=IDS)
def test_positional_and_keyword_construction_agree(cls):
    fields = EXAMPLES[cls]
    by_position, by_keyword = cls(*fields.values()), cls(**fields)
    assert by_position == by_keyword and by_position is not by_keyword
    assert tuple(fields) == cls._fields
    assert repr(by_keyword) == f"{cls.__name__}(" + ", ".join(
        f"{k}={v!r}" for k, v in fields.items()) + ")"
    if cls is LevelScheme:  # a dict field, unhashable as in a dataclass
        with pytest.raises(TypeError):
            hash(by_position)
    else:
        assert hash(by_position) == hash(by_keyword)


@pytest.mark.parametrize("cls", EXAMPLES, ids=IDS)
def test_wrong_arguments_raise_type_error(cls):
    fields = EXAMPLES[cls]
    values = list(fields.values())
    with pytest.raises(TypeError):
        cls(**fields, unknown=1)
    with pytest.raises(TypeError):
        cls(*values, 1)
    if fields:
        with pytest.raises(TypeError):  # a field given twice
            cls(*values, **{next(iter(fields)): values[0]})
        with pytest.raises(TypeError):  # a field with no default missing
            cls()


@pytest.mark.parametrize("cls", EXAMPLES, ids=IDS)
def test_records_are_immutable(cls):
    record = cls(**EXAMPLES[cls])
    name = next(iter(EXAMPLES[cls]), "anything")
    with pytest.raises(AttributeError):
        setattr(record, name, 1.0)
    with pytest.raises(AttributeError):
        delattr(record, name)
    assert record == cls(**EXAMPLES[cls])


def test_defaults():
    assert ConstantLossy(2.0).eps_imag == 0.0
    assert ConstantLossy(2.0) == ConstantLossy(2.0, 0.0)
    assert QuadratureSpec().rel_tol == 1e-9


def test_equality_keys_on_the_class():
    half = HalfSpace(GOLD)
    assert half != Stack((Layer(GOLD, None),))
    assert Stack((Layer(GOLD, None),)) != half
    assert half == HalfSpace(GOLD) and half.layers == (Layer(GOLD, None),)
    assert ConstantR(0.5) != PlateGeometry(ConstantR(0.5)) != 0.5


@pytest.mark.parametrize("build, match", [
    (lambda: Drude(math.inf, 5.32e13), "finite positive"),
    (lambda: ConstantLossy(0.5), "passivity"),
    (lambda: Layer(GOLD, -1.0), "thickness"),
    (lambda: Stack(()), "at least one layer"),
    (lambda: Stack((Layer(GOLD, 1e-6),)), "semi-infinite"),
    (lambda: ConstantR(1.0), "0 <= r < 1"),
    (lambda: Transition(0.0, 1e-58), "transition frequency"),
    (lambda: Molecule("X", ()), "at least one transition"),
    (lambda: ThermalEnvironment(0.0), "temperature"),
    (lambda: CavityGeometry(0.0, ConstantR(0.5)), "width"),
    (lambda: QuadratureSpec(rel_tol=1.0), "rel_tol")],
    ids=["Drude", "ConstantLossy", "Layer", "Stack-empty", "Stack-finite",
         "ConstantR", "Transition", "Molecule", "ThermalEnvironment",
         "CavityGeometry", "QuadratureSpec"])
def test_construction_checks_still_fire(build, match):
    with pytest.raises(ValueError, match=match):
        build()


def test_cli_import_footprint():
    # beyond what numpy loads, `import cavitycp.cli` may load only argparse
    # (and its gettext), __future__ and the package: no dataclasses, copy,
    # json or string, whose imports every command would pay for
    code = ("import sys, numpy; loaded = set(sys.modules); "
            "import cavitycp.cli; print(*set(sys.modules) - loaded)")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         env=dict(os.environ, PYTHONPATH=str(SRC.parent)),
                         text=True, timeout=120, check=True)
    added = set(run.stdout.split())
    assert {m for m in added if m.split(".")[0] != "cavitycp"} <= \
        {"argparse", "gettext", "__future__"}
    assert "cavitycp.cli" in added


def test_no_module_imports_dataclasses():
    found = [path.name for path in SRC.glob("*.py")
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.ImportFrom)
             and node.module == "dataclasses" or isinstance(node, ast.Import)
             and "dataclasses" in (alias.name for alias in node.names)]
    assert found == []
