import json
import math

import numpy as np
import pytest

from conftest import convex_table, dyadic_beta, random_table_instance
from rightsizing import (
    AffineAbsCost,
    ConfigError,
    CostFunction,
    DomainError,
    InfeasibleError,
    ProblemInstance,
    RestrictedLoadCost,
    ShapeError,
    StretchedCopyCost,
    TableCost,
    dp_optimal,
    eval_cost,
    extend_continuous,
    instance_from_json,
    instance_to_json,
    lcp_run,
    rounding_ensemble,
    solve_poly,
    validate_instance,
)
from rightsizing.model import SchemaError, interpolated_costs


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


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_eval_cost_rejects_a_non_finite_state_before_the_integer_cast(bad):
    inst = ProblemInstance(3, 2, 1.0, (TableCost([0, 1, 2]),) * 3)
    with pytest.raises(DomainError, match="finite integers"):
        eval_cost(inst, [bad, 0, 0])


@pytest.mark.parametrize("beta", [math.inf, math.nan, 0.0])
def test_instance_requires_a_finite_positive_beta(beta):
    with pytest.raises(ConfigError):
        ProblemInstance(1, 1, beta, (TableCost([0, 1]),))


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
    f = TableCost([3, 1, 0])
    assert interpolated_costs([TableCost([0, 2])], np.array([0.5])).tolist() == [1.0]
    assert interpolated_costs([f], np.array([1.25])).tolist() == [0.75]
    assert interpolated_costs([f] * 3, np.arange(3.0)).tolist() == [f(x) for x in range(3)]
    ev = extend_continuous(ProblemInstance(1, 2, 1.0, (f,)))
    for bad in (2.5, -0.5, math.nan):
        with pytest.raises(DomainError):
            ev.cost([bad])


def test_continuous_extension_convex_along_grid():
    rng = np.random.default_rng(1)
    inst = random_table_instance(rng, 3, 6)
    grid = np.linspace(0, 6, 49)
    for f in inst.functions:
        vals = interpolated_costs([f] * grid.size, grid)
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


def _validate_reference(instance, sample_budget=1 << 16):
    """The validator as it was before each cost kind checked itself: tables
    scanned fully, other kinds probed through Python calls at up to
    ``sample_budget`` points, convexity by a loop over consecutive triples."""
    violations = []
    if not (instance.beta > 0):
        violations.append("beta must be positive")
    if len(instance.functions) != instance.T:
        violations.append(f"expected {instance.T} cost functions, got {len(instance.functions)}")
    for t, f in enumerate(instance.functions, start=1):
        if isinstance(f, TableCost):
            if f.values.size != instance.m + 1:
                violations.append(f"f_{t}: table has {f.values.size} entries, expected {instance.m + 1}")
                continue
            pts = np.arange(instance.m + 1, dtype=np.int64)
            vals = f.values
        else:
            if instance.m + 1 <= sample_budget:
                pts = np.arange(instance.m + 1, dtype=np.int64)
            else:
                pts = np.unique(np.linspace(0, instance.m, sample_budget).astype(np.int64))
            vals = np.array([f(int(p)) for p in pts], dtype=np.float64)
        finite = np.isfinite(vals)
        if np.any(np.isnan(vals)):
            violations.append(f"f_{t}: NaN value")
            continue
        if np.any(vals[finite] < 0):
            bad = int(pts[finite][np.argmax(vals[finite] < 0)])
            violations.append(f"f_{t}: negative value at x={bad}")
        if np.any(finite):
            lo, hi = np.argmax(finite), len(finite) - np.argmax(finite[::-1]) - 1
            if not np.all(finite[lo:hi + 1]):
                violations.append(f"f_{t}: infeasible states interleave feasible ones")
        for i in range(1, len(pts) - 1):
            if pts[i] - pts[i - 1] != 1 or pts[i + 1] - pts[i] != 1:
                continue
            a, b, c = vals[i - 1], vals[i], vals[i + 1]
            if not (np.isfinite(a) and np.isfinite(b) and np.isfinite(c)):
                continue
            second = a - 2.0 * b + c
            if second < -1e-9 * max(abs(a), abs(b), abs(c)):
                violations.append(f"f_{t}: not convex at x={int(pts[i])} "
                                  f"(second difference {second:g} < 0)")
                break
    return violations


def _broken_table(rng, m, flaw):
    """A convex table with one kind of flaw (or none) written into it."""
    vals = convex_table(rng, m, integer=bool(rng.integers(0, 2))).values.copy()
    i = int(rng.integers(0, m + 1))
    if flaw == "nan":
        vals[i] = np.nan
    elif flaw == "negative":
        vals[i] = -float(rng.uniform(0.0, 3.0)) - 1e-3
    elif flaw == "inf-ends":
        j = int(rng.integers(i, m + 1))
        vals[:i] = np.inf
        vals[j + 1:] = np.inf
    elif flaw == "interleaved" and m >= 2:
        vals[int(rng.integers(1, m))] = np.inf
    elif flaw == "non-convex" and m >= 2:
        vals[int(rng.integers(1, m))] += float(rng.choice([1e-12, 1e-6, 1.0, 10.0]))
    elif flaw == "several":
        vals[:i] = np.inf
        vals[m // 2] += 5.0
        vals[-1] = -1.0
    return TableCost(vals)


FLAWS = ("none", "nan", "negative", "inf-ends", "interleaved", "non-convex", "several")


def test_validate_matches_sampled_reference():
    rng = np.random.default_rng(33)
    seen = dict.fromkeys(("valid", "NaN value", "negative value", "interleave",
                          "not convex", "table has"), 0)
    cases = [(m, 40) for m in (1, 2, 3, 4, 7, 12, 60)] + [(1000, 10), (65535, 1)]
    for m, count in cases:
        for _ in range(count):
            # half the tables are left convex, so whole instances pass too
            fns = [_broken_table(rng, m, str(rng.choice(FLAWS)) if rng.integers(0, 2) else "none")
                   for _ in range(3)]
            if m < 100:
                # convex closed forms, which the reference scans state by state
                fns += [AffineAbsCost(float(rng.uniform(0.1, 2.0)), float(rng.uniform(0, m))),
                        RestrictedLoadCost(float(rng.uniform(0, m + 1)),
                                           eps=float(rng.uniform(0.1, 2.0)),
                                           slope_k=float(rng.uniform(0.5, 3.0)))]
            if rng.integers(0, 4) == 0:
                fns.append(TableCost(np.zeros(m + 2)))
            inst = ProblemInstance(len(fns), m, 1.0, tuple(fns))
            got = validate_instance(inst)
            assert got == _validate_reference(inst)
            seen["valid"] += not got
            for v in got:
                seen[next(k for k in seen if k in v)] += 1
    assert min(seen.values()) >= 10, seen


def test_validate_rejects_minus_infinity_the_reference_missed():
    inst = ProblemInstance(1, 2, 1.0, (TableCost([-np.inf, 0.0, 1.0]),))
    assert _validate_reference(inst) == []
    assert validate_instance(inst) == ["f_1: negative value at x=0"]


def _scaled(instance, scale):
    """The instance with every cost and ``beta`` multiplied by ``scale``."""
    fns = tuple(TableCost(f.values * scale) for f in instance.functions)
    return instance.replace(beta=instance.beta * scale, functions=fns)


def _scaling_cases(rng):
    """Instances of convex, non-convex and ``inf``-edged tables, and of
    tables of uniform values, which are seldom convex."""
    cases = []
    for flaw in ("none", "non-convex", "inf-ends") * 20:
        fns = tuple(_broken_table(rng, 8, flaw) for _ in range(6))
        cases.append(ProblemInstance(6, 8, dyadic_beta(rng), fns))
    for _ in range(60):
        # A small beta lets the optimum follow these costs from slot to slot.
        fns = tuple(TableCost(rng.uniform(0.0, 1.0, 9)) for _ in range(6))
        cases.append(ProblemInstance(6, 8, dyadic_beta(rng) / 16, fns))
    return cases


def test_validate_verdict_unchanged_under_power_of_two_scalings():
    # A power of two scales every second difference and tolerance exactly,
    # so only a floor on the costs' absolute size could move a verdict.
    rng = np.random.default_rng(34)
    verdicts = []
    for inst in _scaling_cases(rng):
        verdict = [v.split(" (")[0] for v in validate_instance(inst)]
        for k in range(-60, 61, 5):
            scaled = validate_instance(_scaled(inst, 2.0**k))
            assert [v.split(" (")[0] for v in scaled] == verdict, k
        verdicts.append(any("not convex" in v for v in verdict))
    assert 0 < sum(verdicts) < len(verdicts)  # both verdicts occur


def test_solve_poly_matches_the_oracle_on_accepted_tiny_tables():
    rng = np.random.default_rng(35)
    accepted = 0
    for inst in _scaling_cases(rng):
        inst = _scaled(inst, 2.0**-40)
        if validate_instance(inst):
            continue
        accepted += 1
        poly, oracle = solve_poly(inst).cost, dp_optimal(inst).cost
        assert abs(poly - oracle) <= 1e-9 * oracle
    assert accepted >= 40


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


@pytest.mark.parametrize("center", [-3.0, -0.25, 0.0, 2.0, 2.5, 3.75, 7.0, 9.5])
def test_affine_slope_breakpoints_give_grid_slopes(center):
    f = AffineAbsCost(0.75, center)
    s0, points = f.slope_breakpoints()
    xs = np.arange(-5, 12)
    slopes = s0 + np.array([sum(w for p, w in points if p <= x) for x in xs])
    assert np.array_equal(slopes, f.eval_grid(xs + 1) - f.eval_grid(xs))


class RowsOnlyTable(CostFunction):
    """A table kind that states its formula only in ``rows``; counts the
    evaluators built from it."""

    kind = "rows_only_table"
    built = 0

    def __init__(self, values):
        self.values = np.asarray(values, dtype=np.float64)

    @classmethod
    def rows(cls, fns):
        cls.built += 1
        V = np.stack([f.values for f in fns])
        r = np.arange(len(fns))[:, None]
        return lambda S: V[r, S]


def _rows_only_twin(instance):
    return instance.replace(functions=tuple(RowsOnlyTable(f.values)
                                            for f in instance.functions))


def test_kind_defining_only_rows_matches_table_everywhere():
    rng = np.random.default_rng(21)
    ref = random_table_instance(rng, 24, 4)
    twin = _rows_only_twin(ref)
    x = dp_optimal(ref).schedule
    assert eval_cost(twin, x) == eval_cost(ref, x)
    for solve in (dp_optimal, solve_poly):
        a, b = solve(twin), solve(ref)
        assert np.array_equal(a.schedule, b.schedule) and a.cost == b.cost
    assert lcp_run(twin).decisions == lcp_run(ref).decisions
    xbar = np.clip(np.cumsum(rng.uniform(-1.0, 1.0, size=24)), 0.0, 4.0)
    assert extend_continuous(twin).cost(xbar) == extend_continuous(ref).cost(xbar)
    assert np.array_equal(rounding_ensemble(xbar, twin, 64, seed=5).costs,
                          rounding_ensemble(xbar, ref, 64, seed=5).costs)
    assert validate_instance(twin) == validate_instance(ref) == []
    bent = ProblemInstance(1, 4, 1.0, (TableCost([0.0, 2.0, 3.0, 3.5, 9.0]),))
    assert validate_instance(_rows_only_twin(bent)) == validate_instance(bent) != []


def test_whole_schedule_evaluations_build_a_fixed_number_of_evaluators():
    built = {}
    for T in (16, 256):
        twin = _rows_only_twin(random_table_instance(np.random.default_rng(T), T, 4))
        x = np.full(T, 2)
        start = RowsOnlyTable.built
        eval_cost(twin, x)
        mid = RowsOnlyTable.built
        dp_optimal(twin)
        built[T] = (mid - start, RowsOnlyTable.built - mid)
    assert built[16] == built[256]
