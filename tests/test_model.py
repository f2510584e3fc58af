import json
import math

import numpy as np
import pytest

from conftest import dyadic_beta, random_table_instance
from rightsizing import (
    AffineAbsCost,
    DomainError,
    InfeasibleError,
    ProblemInstance,
    RestrictedLoadCost,
    ShapeError,
    StretchedCopyCost,
    TableCost,
    eval_cost,
    extend_continuous,
    instance_from_json,
    instance_to_json,
    validate_instance,
)
from rightsizing.model import SchemaError


def test_eval_cost_basic_example():
    inst = ProblemInstance(2, 2, 1.0, (TableCost([2, 1, 0]), TableCost([0, 1, 2])))
    cb = eval_cost(inst, [0, 0])
    assert cb.operating == 2.0
    assert cb.switching == 0.0
    assert cb.total == 2.0


def test_eval_cost_zero_schedule_is_free():
    inst = ProblemInstance(3, 4, 2.5, tuple(TableCost([0, 1, 2, 3, 4]) for _ in range(3)))
    assert eval_cost(inst, [0, 0, 0]).total == 0.0


def test_eval_cost_conventions_agree_on_spike():
    fns = (TableCost([0, 0, 0]), TableCost([0, 0, 0]))
    up = ProblemInstance(2, 2, 2.0, fns)
    sym = up.replace(convention="symmetric")
    assert eval_cost(up, [2, 0]).total == 4.0
    assert eval_cost(sym, [2, 0]).total == 4.0


def test_convention_equivalence_exact_on_random_schedules():
    rng = np.random.default_rng(42)
    for _ in range(200):
        T = int(rng.integers(1, 20))
        m = int(rng.integers(1, 10))
        inst = random_table_instance(rng, T, m, beta=dyadic_beta(rng))
        x = rng.integers(0, m + 1, size=T)
        a = eval_cost(inst, x)
        b = eval_cost(inst.replace(convention="symmetric"), x)
        assert a.total == b.total
        assert a.operating == b.operating


def test_eval_cost_errors():
    inst = ProblemInstance(2, 2, 1.0, (TableCost([0, 1, 2]), TableCost([0, 1, 2])))
    with pytest.raises(ShapeError):
        eval_cost(inst, [0])
    with pytest.raises(DomainError):
        eval_cost(inst, [0, 3])
    with pytest.raises(DomainError):
        eval_cost(inst.replace(allowed_step=2), [1, 0])


def restricted_instance(m, beta, loads, eps=0.1, slope_k=2.0):
    fns = tuple(RestrictedLoadCost(l, eps=eps, slope_k=slope_k) for l in loads)
    return ProblemInstance(len(fns), m, beta, fns)


def test_eval_restricted_matches_two_level_costs():
    # loads 0.5 and 1 on two servers reproduce the V-costs one state down
    inst = restricted_instance(2, 2.0, (0.5, 1.0))
    cb = eval_cost(inst, [2, 2])
    # slot 1: 2 * 0.1 * |1 - 0.5| = 0.1;  slot 2: 2 * 0.1 * |1 - 1| = 0
    assert cb.operating == pytest.approx(0.1, abs=1e-15)
    cb2 = eval_cost(inst, [1, 1])
    # slot 1: 0.1 * |1 - 1| = 0;  slot 2: 0.1 * |1 - 2| = 0.1
    assert cb2.operating == pytest.approx(0.1, abs=1e-15)


def test_eval_restricted_zero_loads():
    inst = restricted_instance(2, 1.0, (0.0, 0.0, 0.0), eps=1.0, slope_k=1.0)
    assert eval_cost(inst, [0, 0, 0]).total == 0.0


def test_eval_restricted_infeasible_names_first_slot():
    inst = restricted_instance(2, 1.0, (0.0, 1.5, 1.0), eps=1.0, slope_k=1.0)
    with pytest.raises(InfeasibleError, match="x_2"):
        eval_cost(inst, [0, 1, 1])


def test_continuous_extension_interpolates():
    inst = ProblemInstance(1, 1, 1.0, (TableCost([0, 2]),))
    ev = extend_continuous(inst)
    assert ev.operating(0, 0.5) == 1.0
    inst2 = ProblemInstance(1, 2, 1.0, (TableCost([3, 1, 0]),))
    ev2 = extend_continuous(inst2)
    assert ev2.operating(0, 1.25) == 0.75
    for x in range(3):
        assert ev2.operating(0, x) == inst2.functions[0](x)
    with pytest.raises(DomainError):
        ev2.operating(0, 2.5)


def test_continuous_extension_convex_along_grid():
    rng = np.random.default_rng(1)
    inst = random_table_instance(rng, 3, 6)
    ev = extend_continuous(inst)
    grid = np.linspace(0, 6, 49)
    for t in range(3):
        vals = np.array([ev.operating(t, g) for g in grid])
        second = vals[2:] - 2 * vals[1:-1] + vals[:-2]
        assert np.all(second >= -1e-12)


def test_validate_reports_convexity_violation():
    inst = ProblemInstance(1, 2, 1.0, (TableCost([0, 2, 1]),))
    violations = validate_instance(inst)
    assert any("not convex at x=1" in v for v in violations)


def test_validate_accepts_constant():
    inst = ProblemInstance(1, 2, 1.0, (TableCost([1, 1, 1]),))
    assert validate_instance(inst) == []


def test_validate_flags_bad_beta():
    inst = ProblemInstance(1, 2, 1.0, (TableCost([1, 1, 1]),))
    object.__setattr__(inst, "beta", 0.0)
    assert any("beta" in v for v in validate_instance(inst))


def test_stretched_copies_sum_back():
    inner = TableCost([3.0, 1.0, 4.0])
    copies = [StretchedCopyCost(inner, 4) for _ in range(4)]
    for x in range(3):
        assert math.fsum(c(x) for c in copies) == inner(x)


def test_restricted_load_cost_edges():
    f = RestrictedLoadCost(1.0, eps=0.1, slope_k=2.0)
    assert f(0) == math.inf
    assert f(1) == pytest.approx(0.1)
    g = RestrictedLoadCost(0.0, eps=0.1, slope_k=2.0)
    assert g(0) == 0.0


def test_json_round_trip(tmp_path):
    inst = ProblemInstance(
        3, 4, 1.5,
        (TableCost([0, 1, 2, 3, 4]),
         AffineAbsCost(0.25, 2.0),
         RestrictedLoadCost(1.0, eps=0.1, slope_k=2.0)),
        convention="symmetric")
    doc = instance_to_json(inst)
    text = json.dumps(doc)
    back = instance_from_json(json.loads(text))
    assert back.T == inst.T and back.m == inst.m and back.beta == inst.beta
    assert back.convention == "symmetric"
    for f, g in zip(inst.functions, back.functions):
        for x in range(5):
            assert f(x) == g(x)


def test_validate_samples_closed_forms_on_huge_fleets():
    inst = ProblemInstance(1, 1 << 30, 1.0, (AffineAbsCost(0.1, 12345.5),))
    assert validate_instance(inst) == []


@pytest.mark.parametrize("doc,field", [
    ({"T": 1, "m": 1, "beta": 1.0, "functions": []}, "convention"),
    ({"T": 1, "m": 1, "beta": 1.0, "convention": "up_only",
      "functions": [{"kind": "mystery"}]}, "mystery"),
    ({"T": 2, "m": 1, "beta": 1.0, "convention": "up_only",
      "functions": [{"kind": "table", "values": [0, 1]}]}, "functions"),
])
def test_schema_errors_name_offender(doc, field):
    with pytest.raises(SchemaError, match=field):
        instance_from_json(doc)
