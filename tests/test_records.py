"""Records and the package namespace.

Every result and input record is a ``record``: a frozen slot class that
must behave like the ``@dataclass(frozen=True)`` it replaced, so each
public record is checked against a frozen dataclass with the same fields.
``Poly`` is a record with its own normalizing ``__init__`` and repr, and
has its own tests.  ``sdmstab`` resolves its exported names lazily (PEP 562).
"""

import copy
import dataclasses
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import oracles
import sdmstab
from sdmstab import boundary, cli, simulator, transfer, winding
from sdmstab.polynomial import Poly, record
from sdmstab.transfer import char_poly

SRC = str(Path(__file__).resolve().parents[1] / "src")

GRID = simulator.GridPoint(0.1, True, 2.5, None)
SELFX = winding.SelfIntersection(0.25, -1.5)
POINTS = winding.CharacteristicPoints(3.0, -1.0, (SELFX,))
CANDIDATE = boundary.ZeroPointCandidate(2.0, 0.5, True)
INTERVAL = boundary.StabilityInterval(0.875, 2.0, True, 1.0, 3)

# Every public record class with the positional arguments of one instance,
# and the tests' own record ``oracles.DCoeffs``, the one with a property.
SAMPLES = {
    oracles.DCoeffs: ((1.0, -2.0), 0.5),
    boundary.ZeroPointCandidate: (2.0, 0.5, True),
    boundary.StabilityInterval: (0.875, 2.0, True, 1.0, 3),
    boundary.StabilityReport: (1.0, 0.875, (CANDIDATE,), (INTERVAL,)),
    winding.SelfIntersection: (0.25, -1.5),
    winding.CharacteristicPoints: (3.0, -1.0, (SELFX,)),
    winding.RootCountResult: (3, False, 0, POINTS),
    simulator.DcInput: (0.05,),
    simulator.SineInput: (0.1, 64.0),
    simulator.SimState: ((0.5, -0.25), 1.0, 7),
    simulator.SimResult: (False, None, 2.5, -0.125, 100, 42),
    simulator.GridPoint: (0.1, True, 2.5, None),
    simulator.Window: (0.25, 0.5),
    simulator.WindowReport: ((GRID,), (simulator.Window(0.25, 0.5),)),
    cli.RunConfig: ("bounds", (3.0, -3.0, 1.0), None, "json", "-", 1.5, 100, 1e6, 0.05,
                    None, None, 0.0, 1.0, 64, 0),
    cli.Report: ("bounds", {"n": 3}, None, "0.1.0"),
}
CLASSES = list(SAMPLES)


def mirror(cls):
    """A frozen dataclass with the fields and defaults of ``cls``."""
    defaults = cls.__init__.__defaults__ or ()
    required = len(cls._fields) - len(defaults)
    spec = [(f, object) for f in cls._fields[:required]]
    spec += [(f, object, dataclasses.field(default=d))
             for f, d in zip(cls._fields[required:], defaults)]
    return dataclasses.make_dataclass(cls.__name__, spec, frozen=True)


def other(value):
    """A value unequal to ``value``."""
    if isinstance(value, bool) or value is None:
        return not value
    if isinstance(value, (int, float)):
        return value + 1
    if isinstance(value, (str, tuple)):  # no sample holds an empty one
        return value * 2
    if isinstance(value, dict):
        return {**value, "other": 1}
    return None


def test_every_public_record_is_covered():
    public = {
        obj
        for mod in (transfer, boundary, winding, simulator, cli)
        for name in mod.__all__
        if isinstance(obj := getattr(mod, name), type) and hasattr(obj, "_fields")
    }
    assert public == set(CLASSES) - {oracles.DCoeffs}


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
class TestRecord:
    def test_fields_in_annotation_order(self, cls):
        assert cls._fields == tuple(cls.__annotations__) == cls.__slots__

    def test_positional_and_keyword_construction(self, cls):
        args = SAMPLES[cls]
        obj = cls(*args)
        assert tuple(getattr(obj, f) for f in cls._fields) == args
        assert obj == cls(**dict(zip(cls._fields, args)))
        with pytest.raises(TypeError):
            cls(*args, None)
        with pytest.raises(TypeError):
            cls(**dict(zip(cls._fields, args)), no_such_field=1)

    def test_defaults(self, cls):
        args = SAMPLES[cls]
        defaults = cls.__init__.__defaults__ or ()
        required = len(cls._fields) - len(defaults)
        obj = cls(*args[:required])
        assert obj == cls(*args[:required], *defaults)
        assert repr(obj) == repr(mirror(cls)(*args[:required]))
        with pytest.raises(TypeError):
            cls(*args[: required - 1])

    def test_repr_and_hash_match_frozen_dataclass(self, cls):
        args = SAMPLES[cls]
        obj, want = cls(*args), mirror(cls)(*args)
        assert repr(obj) == repr(want)
        try:
            hash(want)
        except TypeError:  # an unhashable field, e.g. Report.inputs
            with pytest.raises(TypeError):
                hash(obj)
        else:
            assert hash(obj) == hash(want) == hash(cls(*args))

    def test_equality_reads_every_field(self, cls):
        args = SAMPLES[cls]
        obj = cls(*args)
        assert obj == cls(*args) and not obj != cls(*args)
        assert obj != args and obj != mirror(cls)(*args)
        for f, value in zip(cls._fields, args):
            changed = copy.copy(obj)
            object.__setattr__(changed, f, other(value))
            assert changed != obj, f

    def test_immutable(self, cls):
        obj = cls(*SAMPLES[cls])
        for f in cls._fields:
            with pytest.raises(AttributeError):
                setattr(obj, f, None)
            with pytest.raises(AttributeError):
                delattr(obj, f)
        with pytest.raises(AttributeError):
            obj.extra = 1
        assert not hasattr(obj, "__dict__")
        assert obj == cls(*SAMPLES[cls])

    def test_pickle_and_copy(self, cls):
        obj = cls(*SAMPLES[cls])
        for twin in (pickle.loads(pickle.dumps(obj)), copy.copy(obj), copy.deepcopy(obj)):
            assert type(twin) is cls
            assert twin == obj
            assert repr(twin) == repr(obj)


def test_replace_and_asdict():
    report = simulator.WindowReport((GRID,), (simulator.Window(0.25, 0.5),))
    assert cli.asdict(report) == {
        "grid": ({"amplitude": 0.1, "stable": True, "max_abs_state": 2.5,
                  "first_divergence_sample": None},),
        "windows": ({"lo": 0.25, "hi": 0.5},),
    }
    assert dataclasses.asdict(mirror(simulator.Window)(0.25, 0.5)) == cli.asdict(
        simulator.Window(0.25, 0.5)
    )
    moved = cli.replace(simulator.Window(0.25, 0.5), hi=0.75)
    assert moved == simulator.Window(0.25, 0.75)
    with pytest.raises(TypeError):
        cli.replace(moved, width=1.0)


def test_poly_is_a_record():
    p = char_poly((3, -3, 1), 3, 1.5)
    for twin in (pickle.loads(pickle.dumps(p)), copy.copy(p), copy.deepcopy(p)):
        assert type(twin) is Poly and twin == p
    # Unpickling rebuilds through Poly's own __init__, so the result is normalized.
    assert pickle.loads(pickle.dumps(Poly([1.0, 0.0]))).coeffs == (1.0,)
    for change in (lambda: setattr(p, "coeffs", ()), lambda: delattr(p, "coeffs"),
                   lambda: setattr(p, "extra", 1)):
        with pytest.raises(AttributeError):
            change()
    assert p.coeffs == (-0.5, 1.5, -1.5, 1.5) and Poly._fields == Poly.__slots__ == ("coeffs",)
    assert p == Poly(list(p.coeffs)) and hash(p) == hash(Poly(list(p.coeffs)))
    assert Poly() == Poly([0.0]) and p != p.coeffs
    assert repr(Poly([1.0, 2.0])) == "Poly([1.0, 2.0])"


def test_methods_of_the_class_body_stay():
    @record
    class Shown:
        x: float

        def __repr__(self):
            return f"<{self.x}>"

    assert repr(Shown(1.0)) == "<1.0>" and Shown(1.0) == Shown(x=1.0)


def test_default_after_required_field_is_refused():
    with pytest.raises(TypeError):
        @record
        class Bad:
            a: float = 0.0
            b: float


def test_record_without_fields():
    @record
    class Empty:
        pass

    assert Empty() == Empty() and repr(Empty()) == f"{Empty.__qualname__}()"
    assert hash(Empty()) == hash(())


def test_generated_code_names_its_source():
    # A traceback through generated code names what built it, not "<string>".
    cls = boundary.StabilityInterval
    for func in (cls.__init__, cls.__eq__, cls.__repr__, winding._kernel(3), boundary._kernel(3),
                 simulator._kernel(2, True, True)):
        assert func.__code__.co_filename.startswith("<sdmstab "), func.__code__.co_filename


# --- the lazy namespace -------------------------------------------------------


def test_every_exported_name_resolves():
    for name in sdmstab.__all__:
        assert getattr(sdmstab, name) is not None, name
    for name, module in sdmstab._EXPORTS.items():
        assert getattr(sdmstab, name) is getattr(getattr(sdmstab, module), name)


def test_dir_covers_all():
    # In a fresh interpreter, before any name is looked up and cached.
    code = "import sdmstab; assert set(sdmstab.__all__) <= set(dir(sdmstab))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert set(sdmstab.__all__) <= set(dir(sdmstab))


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        sdmstab.no_such_name
    assert not hasattr(sdmstab, "_check_count")
    with pytest.raises(ImportError):
        from sdmstab import no_such_name  # noqa: F401
