"""Value semantics of every record type: repr, equality, hashing, freezing.

Each case builds a sample instance by keyword and pins its repr text,
whether it hashes (records holding a dict or list do not), and whether its
fields can be reassigned.  The same instance built positionally must
compare and hash equal to the keyword one, and so must its copies and its
pickle round trip.
"""

import ast
import copy
import importlib
import inspect
import pickle
import pkgutil
from fractions import Fraction
from pathlib import Path

import pytest

import softaura
from softaura import (
    Accuracy,
    AlphaMeetWitness,
    ApproximationReport,
    Context,
    ContinuityProfile,
    DecodedSpace,
    KuratowskiResult,
    MappingScanResult,
    MembershipViolation,
    NotOpen,
    OpennessProfile,
    PairWitness,
    PawlakPartition,
    RegularityWitness,
    ScopeFunction,
    SeparationReport,
    SingletonClosureCheck,
    SoftAuraSpace,
    SoftMapping,
    SoftSet,
    SoftTopology,
    SpaceFamilySpec,
    SuiteResult,
    Witness,
)
from softaura.errors import _Frozen
from softaura.harness import LawResult, LawSpec

CTX_REPR = "Context(universe=('x', 'y'), parameters=('e',))"
SPACE_REPR = (
    f"SoftAuraSpace(context={CTX_REPR}, "
    f"topology=SoftTopology(context={CTX_REPR}, kind='discrete', members=None, subbasis=None), "
    f"scope=ScopeFunction(context={CTX_REPR}, assignment=(SoftSet(e={{x}}), SoftSet(e={{x, y}}))))"
)


def ctx():
    return Context(universe=("x", "y"), parameters=("e",))


def soft(*masks):
    return SoftSet(context=ctx(), masks=masks)


def space():
    c = ctx()
    return SoftAuraSpace(
        context=c,
        topology=SoftTopology(context=c, kind="discrete"),
        scope=ScopeFunction(context=c, assignment=(soft(1), soft(3))),
    )


def spec():
    return SpaceFamilySpec(max_universe=2, max_params=2, scope_mode="sampled", seed=3, sample_count=4)


# (type, keyword arguments, repr text, hashable, frozen)
CASES = [
    (MembershipViolation, lambda: dict(point="x", param="e"),
     "MembershipViolation(point='x', param='e')", True, True),
    (NotOpen, lambda: dict(point="y"), "NotOpen(point='y')", True, True),
    (Context, lambda: dict(universe=("x", "y"), parameters=("e",), limit=5), CTX_REPR, True, True),
    (SoftSet, lambda: dict(context=ctx(), masks=(2,)), "SoftSet(e={y})", True, True),
    (SoftTopology,
     lambda: dict(context=ctx(), kind="indiscrete", members=(("null", soft(0)), ("absolute", soft(3))), subbasis=None),
     f"SoftTopology(context={CTX_REPR}, kind='indiscrete', "
     "members=(('null', SoftSet(e={})), ('absolute', SoftSet(e={x, y}))), subbasis=None)",
     True, True),
    (ScopeFunction, lambda: dict(context=ctx(), assignment=(soft(1), soft(3))),
     f"ScopeFunction(context={CTX_REPR}, assignment=(SoftSet(e={{x}}), SoftSet(e={{x, y}})))", True, True),
    (SoftAuraSpace, lambda: dict(context=ctx(), topology=SoftTopology(ctx(), "discrete"),
                                 scope=ScopeFunction(ctx(), (soft(1), soft(3)))),
     SPACE_REPR, True, True),
    (KuratowskiResult, lambda: dict(closure=soft(3), iterations={"e": 1}),
     "KuratowskiResult(closure=SoftSet(e={x, y}), iterations={'e': 1})", False, True),
    (DecodedSpace, lambda: dict(space=space(), named_sets={"G": soft(2)}, scope_refs={"x": None, "y": "absolute"}),
     f"DecodedSpace(space={SPACE_REPR}, named_sets={{'G': SoftSet(e={{y}})}}, "
     "scope_refs={'x': None, 'y': 'absolute'})",
     False, True),
    (OpennessProfile,
     lambda: dict(a_open=False, alpha_open=False, semi_open=True, pre_open=False, b_open=True,
                  beta_open=True, closure_kind="cech"),
     "OpennessProfile(a_open=False, alpha_open=False, semi_open=True, pre_open=False, "
     "b_open=True, beta_open=True, closure_kind='cech')",
     True, True),
    (AlphaMeetWitness, lambda: dict(space=space(), left=soft(1), right=soft(2)),
     f"AlphaMeetWitness(space={SPACE_REPR}, left=SoftSet(e={{x}}), right=SoftSet(e={{y}}))", True, True),
    (Accuracy, lambda: dict(value=Fraction(1, 2), lower_total=1, upper_total=2, convention_applied=False),
     "Accuracy(value=Fraction(1, 2), lower_total=1, upper_total=2, convention_applied=False)", True, True),
    (ApproximationReport,
     lambda: dict(target=soft(2), lower=soft(0), upper=soft(2), boundary=soft(2),
                  accuracy=Accuracy(Fraction(0), 0, 1, False), per_parameter=(("e", 0, 1),)),
     "ApproximationReport(target=SoftSet(e={y}), lower=SoftSet(e={}), upper=SoftSet(e={y}), "
     "boundary=SoftSet(e={y}), accuracy=Accuracy(value=Fraction(0, 1), lower_total=0, upper_total=1, "
     "convention_applied=False), per_parameter=(('e', 0, 1),))",
     True, True),
    (PawlakPartition, lambda: dict(context=ctx(), blocks=(("x",), ("y",))),
     f"PawlakPartition(context={CTX_REPR}, blocks=(('x',), ('y',)))", True, True),
    (PairWitness, lambda: dict(x="x", y="y", param="e"), "PairWitness(x='x', y='y', param='e')", True, True),
    (RegularityWitness, lambda: dict(point="x", param="e", closed_set=soft(2)),
     "RegularityWitness(point='x', param='e', closed_set=SoftSet(e={y}))", True, True),
    (SeparationReport,
     lambda: dict(t0=True, t1=False, t2=False, regular=True, t3=False, witnesses={"t1": PairWitness("x", "y", "e")}),
     "SeparationReport(t0=True, t1=False, t2=False, regular=True, t3=False, "
     "witnesses={'t1': PairWitness(x='x', y='y', param='e')})",
     False, True),
    (SingletonClosureCheck, lambda: dict(holds=True, vacuous=False),
     "SingletonClosureCheck(holds=True, vacuous=False)", True, True),
    (SoftMapping, lambda: dict(source=space(), target=space(), point_map={"x": "y", "y": "y"}, param_map={"e": "e"}),
     f"SoftMapping(source={SPACE_REPR}, target={SPACE_REPR}, point_map={{'x': 'y', 'y': 'y'}}, "
     "param_map={'e': 'e'})",
     False, True),
    (ContinuityProfile,
     lambda: dict(continuous=False, alpha_continuous=True, semi_continuous=True, pre_continuous=True,
                  beta_continuous=True, closure_kind="kuratowski"),
     "ContinuityProfile(continuous=False, alpha_continuous=True, semi_continuous=True, "
     "pre_continuous=True, beta_continuous=True, closure_kind='kuratowski')",
     True, True),
    (SpaceFamilySpec,
     lambda: dict(max_universe=2, max_params=2, topology_kind="discrete", scope_mode="sampled", seed=3, sample_count=4),
     "SpaceFamilySpec(max_universe=2, max_params=2, topology_kind='discrete', scope_mode='sampled', "
     "seed=3, sample_count=4)",
     True, True),
    (Witness,
     lambda: dict(kind="law", name="duality", space={"universe": ["x"]}, rank=(1, 1, 0), sets=({"e": ("x",)},)),
     "Witness(kind='law', name='duality', space={'universe': ['x']}, rank=(1, 1, 0), sets=({'e': ('x',)},))",
     False, True),
    (LawSpec, lambda: dict(arity="set", evaluator=len, description="sizes"),
     "LawSpec(arity='set', evaluator=<built-in function len>, description='sizes')", True, True),
    (LawResult, lambda: dict(checked=3, failures=1, witnesses=[]),
     "LawResult(checked=3, failures=1, witnesses=[])", False, True),
    (SuiteResult,
     lambda: dict(spec=spec(), laws={"duality": LawResult(checked=2)}, reports={}, strictness={"b=>beta": None},
                  spaces_checked=1, sets_per_space_max=2),
     "SuiteResult(spec=SpaceFamilySpec(max_universe=2, max_params=2, topology_kind='discrete', "
     "scope_mode='sampled', seed=3, sample_count=4), laws={'duality': LawResult(checked=2, failures=0, "
     "witnesses=[])}, reports={}, strictness={'b=>beta': None}, spaces_checked=1, sets_per_space_max=2)",
     False, True),
    (MappingScanResult,
     lambda: dict(mappings_checked=10, kuratowski_failures=0, kuratowski_first_failure=None,
                  cech_mismatches=1, cech_first_mismatch={"rank": [1]}),
     "MappingScanResult(mappings_checked=10, kuratowski_failures=0, kuratowski_first_failure=None, "
     "cech_mismatches=1, cech_first_mismatch={'rank': [1]})",
     False, True),
]


@pytest.mark.parametrize("cls, kwargs, text, hashable, frozen", CASES, ids=[c[0].__name__ for c in CASES])
def test_record_semantics(cls, kwargs, text, hashable, frozen):
    a = cls(**kwargs())
    assert type(a) is cls
    assert repr(a) == text
    b = cls(*kwargs().values())
    assert a == b and not a != b
    assert copy.copy(a) == a and copy.deepcopy(a) == a
    assert pickle.loads(pickle.dumps(a)) == a
    assert a.__eq__(object()) is NotImplemented
    if hashable:
        assert hash(a) == hash(b)
    else:
        with pytest.raises(TypeError):
            hash(a)
    field = next(iter(kwargs()))
    if frozen:
        with pytest.raises(AttributeError):
            setattr(a, field, getattr(b, field))
        with pytest.raises(AttributeError):
            delattr(a, field)
        with pytest.raises(AttributeError):
            a.unknown = 1
    else:
        setattr(a, field, 7)
        assert getattr(a, field) == 7 and a != b


#: Constructor parameters that are not fields: Context.limit is neither shown
#: nor compared, and Accuracy.value is checked against the counts.
EXTRA_PARAMETERS = {Context: ("limit",), Accuracy: ("value",)}


@pytest.mark.parametrize("cls, kwargs, text, hashable, frozen", CASES, ids=[c[0].__name__ for c in CASES])
def test_constructor_takes_the_fields(cls, kwargs, text, hashable, frozen):
    params = inspect.signature(cls).parameters
    assert tuple(p for p in params if p not in EXTRA_PARAMETERS.get(cls, ())) == cls._fields
    assert cls.__init__.__qualname__ == f"{cls.__qualname__}.__init__"
    assert cls.__init__.__module__ == cls.__module__
    required = [name for name, p in params.items() if p.default is inspect.Parameter.empty]
    if required:
        given = kwargs()
        del given[required[-1]]
        with pytest.raises(TypeError, match=rf"^{cls.__qualname__}\.__init__\(\) missing 1 .*'{required[-1]}'$"):
            cls(**given)


def stores_only(init: ast.FunctionDef) -> bool:
    """True when an __init__ without defaults only stores its parameters, in order."""
    if init.args.defaults or init.args.kwonlyargs:
        return False
    params = [a.arg for a in init.args.args[1:]]
    body = [ast.unparse(s) for s in init.body if not (isinstance(s, ast.Expr) and isinstance(s.value, ast.Constant))]
    return body in ([f"_freeze(self, {', '.join(params)})"], [f"self.{p} = {p}" for p in params])


def store_only_inits(source: str) -> list[str]:
    return [
        node.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, ast.FunctionDef) and item.name == "__init__" and stores_only(item)
    ]


def test_no_record_spells_out_a_store_only_init():
    # such a constructor is the one the record base generates from __slots__
    src = Path(softaura.__file__).parent
    found = {path.name: store_only_inits(path.read_text(encoding="utf-8")) for path in sorted(src.glob("*.py"))}
    assert {name: classes for name, classes in found.items() if classes} == {}


def test_store_only_guard_sees_both_bases():
    frozen = 'class A(_Frozen):\n    def __init__(self, x, y):\n        """doc"""\n        _freeze(self, x, y)\n'
    kept = [
        "class C(_Frozen):\n    def __init__(self, x, y=None):\n        _freeze(self, x, y)\n",
        "class D(_Frozen):\n    def __init__(self, x, y):\n        _freeze(self, y, x)\n",
    ]
    assert store_only_inits(frozen) == ["A"]
    assert store_only_inits("".join(kept)) == []


def test_every_record_type_has_a_case():
    for info in pkgutil.iter_modules(softaura.__path__):
        if info.name != "__main__":  # importing it runs the CLI
            importlib.import_module(f"softaura.{info.name}")
    found, todo = set(), [_Frozen]
    while todo:
        for sub in todo.pop().__subclasses__():
            todo.append(sub)
            if sub.__module__.startswith("softaura.") and not sub.__name__.startswith("_"):
                found.add(sub)
    assert found == {c[0] for c in CASES}


# SoftSet compares its two fields directly; every other frozen record compares _values
FROZEN = [(c[0], c[1]) for c in CASES if c[4] and c[0] is not SoftSet]


@pytest.mark.parametrize("cls, kwargs", FROZEN, ids=[c[0].__name__ for c in FROZEN])
def test_frozen_values_hold_every_field(cls, kwargs):
    a = cls(**kwargs())
    assert a._values == tuple(getattr(a, name) for name in a._fields)


def test_records_of_different_types_differ():
    assert PairWitness("x", "y") != MembershipViolation("x", "y")
    assert PairWitness("x", "y") == PairWitness(x="x", y="y", param=None)
    assert PairWitness("x", "y") != PairWitness("x", "y", "e")


def test_context_limit_is_neither_shown_nor_compared():
    wide = Context(("x", "y"), ("e",), limit=2)
    assert wide == ctx() and hash(wide) == hash(ctx())
    assert repr(wide) == CTX_REPR
    assert wide.limit == 2 and ctx().limit == 64
    assert pickle.loads(pickle.dumps(wide)).limit == 2


def test_law_result_defaults_are_fresh():
    first, second = LawResult(), LawResult()
    assert first == second == LawResult(0, 0, [])
    first.witnesses.append(None)
    assert second.witnesses == []


def test_construction_validates_both_ways():
    with pytest.raises(ValueError):
        SoftSet(ctx(), (4,))
    with pytest.raises(ValueError):
        SoftSet(context=ctx(), masks=(1, 1))
    with pytest.raises(ValueError):
        Context(universe=("x", "x"), parameters=("e",))
    with pytest.raises(ValueError):
        SpaceFamilySpec(max_universe=0, max_params=1)
    assert SoftSet(ctx(), [1]).masks == (1,)
