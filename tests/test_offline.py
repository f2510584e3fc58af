import itertools
import shutil
import warnings

import numpy as np
import pytest

from conftest import (
    convex_table,
    dyadic_beta,
    random_affine_instance,
    random_table_instance,
)
from rightsizing import (
    AlignmentError,
    ConfigError,
    DomainError,
    InfeasibleError,
    ProblemInstance,
    ShapeError,
    TableCost,
    dp_optimal,
    eval_cost,
    extend_continuous,
    fractional_grid_optimum,
    kernels,
    pad_to_power_of_two,
    refine_candidates,
    restrict_phi,
    round_fractional,
    scale_psi,
    solve_poly,
)
from rightsizing.offline import _window_dp, _window_dp_numpy

REL = 1e-9


def costs_close(a, b):
    return abs(a - b) <= REL * max(1.0, abs(a), abs(b))


# ---------------------------------------------------------------------------
# dp_optimal
# ---------------------------------------------------------------------------


def test_dp_three_slot_example():
    inst = ProblemInstance(3, 2, 1.0, (TableCost([3, 1, 0]), TableCost([0, 1, 3]),
                                       TableCost([3, 1, 0])))
    res = dp_optimal(inst)
    assert res.cost == 4.0


def test_dp_all_zero_stays_down():
    inst = ProblemInstance(4, 3, 1.0, tuple(TableCost([0, 0, 0, 0]) for _ in range(4)))
    res = dp_optimal(inst)
    assert res.cost == 0.0
    assert np.all(res.schedule == 0)


def test_dp_single_slot_powers_up_when_worth_it():
    inst = ProblemInstance(1, 1, 1.0, (TableCost([5, 0]),))
    res = dp_optimal(inst)
    assert list(res.schedule) == [1]
    assert res.cost == 1.0


def test_dp_empty_column_rejected():
    inst = ProblemInstance(2, 2, 1.0, (TableCost([0, 1, 2]), TableCost([0, 1, 2])))
    with pytest.raises(ShapeError):
        dp_optimal(inst, columns=np.empty((2, 0), dtype=np.int64))


@pytest.mark.parametrize("state", [-1, 5, 3])
def test_dp_columns_reject_a_disallowed_state(state):
    # Below 0, above m, and off the grid of multiples of allowed_step = 2.
    inst = ProblemInstance(2, 4, 1.0, (TableCost([0, 1, 2, 3, 4]),) * 2, allowed_step=2)
    cols = np.array([[0, 2, 4], [0, 2, state]])
    with pytest.raises(DomainError):
        dp_optimal(inst, columns=cols)


@pytest.mark.parametrize("rows", [1, 3])
def test_dp_columns_need_one_row_per_slot(rows):
    inst = ProblemInstance(2, 2, 1.0, (TableCost([0, 1, 2]), TableCost([0, 1, 2])))
    with pytest.raises(ShapeError):
        dp_optimal(inst, columns=np.zeros((rows, 3), dtype=np.int64))


def test_dp_lexicographic_tie_break():
    # [1,0] and [1,1] both cost 2; the smaller second state wins
    inst = ProblemInstance(2, 1, 1.0, (TableCost([3, 1]), TableCost([0, 0])))
    res = dp_optimal(inst)
    assert list(res.schedule) == [1, 0]


def test_dp_grid_and_window_paths_agree():
    rng = np.random.default_rng(10)
    for _ in range(50):
        T = int(rng.integers(1, 15))
        m = int(rng.integers(1, 12))
        inst = random_table_instance(rng, T, m)
        full_cols = np.tile(np.arange(m + 1), (T, 1))
        a = dp_optimal(inst)
        b = dp_optimal(inst, columns=full_cols)
        assert a.cost == b.cost
        assert np.array_equal(a.schedule, b.schedule)


def test_dp_exhaustive_ground_truth_exact():
    rng = np.random.default_rng(2)
    for T in range(1, 5):
        for m in range(1, 4):
            inst = random_table_instance(rng, T, m, beta=dyadic_beta(rng),
                                         integer=True)
            best = min(eval_cost(inst, s).total
                       for s in itertools.product(range(m + 1), repeat=T))
            assert dp_optimal(inst).cost == best


def test_dp_result_cost_is_reevaluated():
    rng = np.random.default_rng(3)
    inst = random_table_instance(rng, 6, 5)
    res = dp_optimal(inst)
    assert res.cost == eval_cost(inst, res.schedule).total


@pytest.mark.parametrize("dead_slot", [0, 1, 2])
def test_dp_columns_infeasible_when_a_slot_is_all_inf(dead_slot):
    inf = np.inf
    tables = [TableCost([1, 0, 1, 2]) for _ in range(3)]
    tables[dead_slot] = TableCost([inf, inf, 0, 0])
    inst = ProblemInstance(3, 3, 1.0, tuple(tables))
    cols = np.tile(np.arange(4), (3, 1))
    cols[dead_slot] = (0, 1, 1, 1)  # a short column repeats its last state
    with pytest.raises(InfeasibleError):
        dp_optimal(inst, columns=cols)


def test_dp_grid_counts_nan_cost_as_forbidden():
    # m = 2 pads to no window levels, so solve_poly runs the full-grid DP too.
    # A NaN entry forbids its state, as in the window kernel; idling is free.
    inst = ProblemInstance(2, 2, 1.0, (TableCost([0.0, np.nan, 1.0]),
                                       TableCost([0.0, 1.0, 2.0])))
    for res in (dp_optimal(inst), solve_poly(inst)):
        assert list(res.schedule) == [0, 0]
        assert res.cost == 0.0


# ---------------------------------------------------------------------------
# window kernel
# ---------------------------------------------------------------------------


def _window_dp_reference(S, F, beta):
    """Scalar triple loop: suffix values, then a forward greedy keeping the
    first strict minimum.  The vectorized kernel must match it exactly."""
    T, W = S.shape
    H = np.zeros((T, W), dtype=np.float64)
    c = np.empty(W, dtype=np.float64)
    for t in range(T - 2, -1, -1):
        for j in range(W):
            c[j] = F[t + 1, j] + H[t + 1, j]
        for i in range(W):
            si = S[t, i]
            best = np.inf
            for j in range(W):
                d = S[t + 1, j] - si
                v = c[j] + (beta * d if d > 0 else 0.0)
                if v < best:
                    best = v
            H[t, i] = best
    x = np.empty(T, dtype=np.int64)
    best = np.inf
    bi = 0
    for i in range(W):
        v = beta * S[0, i] + F[0, i] + H[0, i]
        if v < best:
            best = v
            bi = i
    if not np.isfinite(best):
        return x, False
    x[0] = S[0, bi]
    prev = x[0]
    for t in range(1, T):
        best = np.inf
        bi = 0
        for i in range(W):
            d = S[t, i] - prev
            v = F[t, i] + H[t, i] + (beta * d if d > 0 else 0.0)
            if v < best:
                best = v
                bi = i
        x[t] = S[t, bi]
        prev = x[t]
    return x, True


def _random_window(rng):
    """Candidate states clipped to [0, m] around random centres (so edge
    columns repeat), with per-state costs that are small dyadic numbers
    (many ties) or floats, some of them infinite or NaN."""
    T = int(rng.choice([1, int(rng.integers(2, 25))]))
    W = int(rng.choice([1, 2, 3, 5]))
    m = int(rng.integers(1, 40))
    half = int(rng.integers(1, 8))
    centres = rng.integers(0, m + 1, size=(T, 1))
    offsets = np.arange(W, dtype=np.int64) - W // 2
    S = np.clip(centres + offsets * half, 0, m)
    if rng.random() < 0.5:
        vals = rng.integers(0, 8, size=(T, m + 1)) / 4.0
        beta = float(rng.integers(1, 9)) / 4.0
    else:
        vals = rng.uniform(0.0, 5.0, size=(T, m + 1))
        beta = float(rng.uniform(0.01, 5.0))
    vals[rng.random(vals.shape) < rng.choice([0.0, 0.2, 0.6])] = np.inf
    vals[rng.random(vals.shape) < rng.choice([0.0, 0.0, 0.1])] = np.nan
    return S, np.take_along_axis(vals, S, axis=1), beta


def test_window_kernel_matches_scalar_reference():
    rng = np.random.default_rng(30)
    seen = {"feasible": 0, "infeasible": 0, "inf": 0, "nan": 0, "T=1": 0,
            "W=1": 0, "dup": 0}
    for _ in range(1200):
        S, F, beta = _random_window(rng)
        x_ref, ok_ref = _window_dp_reference(S, F, beta)
        for kernel, order in itertools.product((_window_dp, _window_dp_numpy), "CF"):
            x, ok = kernel(np.asarray(S, order=order), np.asarray(F, order=order), beta)
            assert ok == ok_ref
            if ok:
                assert np.array_equal(x, x_ref)
        ok = ok_ref
        seen["feasible" if ok else "infeasible"] += 1
        seen["inf"] += bool(np.isinf(F).any())
        seen["nan"] += bool(np.isnan(F).any())
        seen["T=1"] += S.shape[0] == 1
        seen["W=1"] += S.shape[1] == 1
        seen["dup"] += bool(np.any(S[:, 1:] == S[:, :-1]))
    assert min(seen.values()) >= 20, seen


def test_window_kernel_is_compiled_when_a_compiler_exists():
    assert (kernels.load() is not None) == (shutil.which("cc") is not None)


# ---------------------------------------------------------------------------
# padding
# ---------------------------------------------------------------------------


def test_padding_formula():
    rng = np.random.default_rng(4)
    inst = random_table_instance(rng, 2, 5)
    padded = pad_to_power_of_two(inst, eps_pad=0.5)
    assert padded.m == 8
    f, g = inst.functions[0], padded.functions[0]
    for x in range(6):
        assert g(x) == f(x)
    assert g(6) == 6 * (f(5) + 0.5)


def test_padding_identity_on_power_of_two():
    rng = np.random.default_rng(5)
    inst = random_table_instance(rng, 2, 8)
    assert pad_to_power_of_two(inst) is inst


def test_padding_zero_top_value():
    inst = ProblemInstance(1, 5, 1.0, (TableCost([5, 4, 3, 2, 1, 0]),))
    padded = pad_to_power_of_two(inst, eps_pad=1.0)
    assert padded.functions[0](8) == 8.0


# ---------------------------------------------------------------------------
# refinement
# ---------------------------------------------------------------------------


def test_refine_window_mid_range():
    assert refine_candidates([4], k=2, m=16).tolist() == [[0, 2, 4, 6, 8]]


def test_refine_window_clipped_low():
    assert refine_candidates([0], k=1, m=8).tolist() == [[0, 0, 0, 1, 2]]


def test_refine_window_clipped_high():
    assert refine_candidates([8], k=1, m=8).tolist() == [[6, 7, 8, 8, 8]]


def test_refine_rejects_misaligned():
    with pytest.raises(AlignmentError):
        refine_candidates([3], k=2, m=16)


def test_refine_rejects_level_below_one():
    with pytest.raises(ConfigError):
        refine_candidates([0], k=0, m=16)


# ---------------------------------------------------------------------------
# solve_poly
# ---------------------------------------------------------------------------


def test_solve_poly_matches_oracle_on_squares():
    fns = (TableCost([(x - 3) ** 2 for x in range(9)]),
           TableCost([(x - 5) ** 2 for x in range(9)]))
    inst = ProblemInstance(2, 8, 1.0, fns)
    assert solve_poly(inst).cost == dp_optimal(inst).cost


def test_solve_poly_zero_costs():
    inst = ProblemInstance(3, 16, 1.0, tuple(TableCost([0.0] * 17) for _ in range(3)))
    res = solve_poly(inst)
    assert res.cost == 0.0
    assert np.all(res.schedule == 0)


def test_solve_poly_m4_single_iteration():
    rng = np.random.default_rng(6)
    inst = random_table_instance(rng, 5, 4)
    res = solve_poly(inst)
    assert res.iterations == 1
    assert res.cost == dp_optimal(inst).cost


def test_solve_poly_oracle_equality_random():
    rng = np.random.default_rng(7)
    for _ in range(60):
        T = int(rng.integers(1, 20))
        m = int(rng.integers(1, 40))
        inst = random_table_instance(rng, T, m)
        assert costs_close(solve_poly(inst).cost, dp_optimal(inst).cost)


def test_solve_poly_iterations_monotone_improvement():
    rng = np.random.default_rng(8)
    inst = random_affine_instance(rng, 12, 32)
    padded = pad_to_power_of_two(inst)
    K = padded.m.bit_length() - 3
    # The first level's rows {0, m/4, m/2, 3m/4, m} are the window around m/2.
    x = np.full(padded.T, padded.m // 2)
    assert refine_candidates(x, K + 1, padded.m)[0].tolist() == [
        i * padded.m // 4 for i in range(5)]
    prev_cost, probed = None, 0
    for k in range(K + 1, 0, -1):
        res = dp_optimal(padded, columns=refine_candidates(x, k, padded.m))
        if prev_cost is not None:
            assert res.cost <= prev_cost + REL
        prev_cost, x = res.cost, res.schedule
        probed += res.states_probed
    assert costs_close(prev_cost, dp_optimal(inst).cost)
    poly = solve_poly(inst)
    assert np.array_equal(x, poly.schedule)
    assert probed == poly.states_probed


def test_solve_poly_never_emits_padded_states():
    rng = np.random.default_rng(9)
    for m in (5, 6, 7, 9, 11, 23):
        inst = random_table_instance(rng, 8, m)
        res = solve_poly(inst)
        assert int(res.schedule.max()) <= m


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------


def test_phi_zero_is_identity():
    rng = np.random.default_rng(11)
    inst = random_table_instance(rng, 3, 8)
    assert restrict_phi(inst, 0).allowed_step == inst.allowed_step


def test_psi_shrinks_and_rescales():
    rng = np.random.default_rng(12)
    inst = random_table_instance(rng, 3, 8, beta=1.0)
    scaled = scale_psi(restrict_phi(inst, 1), 1)
    assert scaled.m == 4
    assert scaled.beta == 2.0
    for t in range(3):
        for x in range(5):
            assert scaled.functions[t](x) == inst.functions[t](2 * x)


def test_psi_cost_isometry_exact():
    rng = np.random.default_rng(13)
    for _ in range(50):
        l = int(rng.integers(1, 3))
        fac = 1 << l
        m = fac * int(rng.integers(1, 6))
        T = int(rng.integers(1, 10))
        inst = random_table_instance(rng, T, m, beta=dyadic_beta(rng))
        coarse = restrict_phi(inst, l) if m >= fac else inst
        scaled = scale_psi(coarse, l)
        x = rng.integers(0, m // fac + 1, size=T) * fac
        assert eval_cost(coarse, x).total == eval_cost(scaled, x // fac).total


def test_phi_psi_composition_equivalence():
    rng = np.random.default_rng(14)
    for _ in range(20):
        inst = random_table_instance(rng, int(rng.integers(1, 8)), 8)
        k, l = 2, 1
        lhs = restrict_phi(scale_psi(restrict_phi(inst, l), l), k - l)
        rhs = scale_psi(restrict_phi(inst, k), l)
        assert costs_close(dp_optimal(lhs).cost, dp_optimal(rhs).cost)


def test_psi_divisibility_errors():
    rng = np.random.default_rng(15)
    inst = random_table_instance(rng, 2, 6)
    with pytest.raises(AlignmentError):
        scale_psi(inst, 1)  # step 1 not divisible by 2


# ---------------------------------------------------------------------------
# fractional rounding
# ---------------------------------------------------------------------------


def test_round_fractional_componentwise():
    lo, hi = round_fractional([1.5, 1.5])
    assert list(lo) == [1, 1]
    assert list(hi) == [2, 2]
    lo, hi = round_fractional([2.0, 0.0])
    assert list(lo) == list(hi) == [2, 0]


def test_fractional_optimum_rounds_to_equal_cost():
    rng = np.random.default_rng(16)
    for _ in range(25):
        inst = random_table_instance(rng, int(rng.integers(1, 8)),
                                     int(rng.integers(1, 7)))
        xbar = fractional_grid_optimum(inst, 2)
        ev = extend_continuous(inst)
        frac_cost = ev.cost(xbar).total
        lo, hi = round_fractional(xbar)
        int_cost = dp_optimal(inst).cost
        assert costs_close(frac_cost, int_cost)
        assert costs_close(eval_cost(inst, lo).total, frac_cost)
        assert costs_close(eval_cost(inst, hi).total, frac_cost)


def test_grid_refinement_never_improves():
    rng = np.random.default_rng(17)
    for _ in range(20):
        inst = random_table_instance(rng, int(rng.integers(1, 8)),
                                     int(rng.integers(1, 7)))
        base = dp_optimal(inst).cost
        for denom in (2, 4):
            fine = extend_continuous(inst).cost(
                fractional_grid_optimum(inst, denom)).total
            assert fine >= base - REL * max(1.0, base)


# ---------------------------------------------------------------------------
# robustness
# ---------------------------------------------------------------------------


def test_solvers_agree_on_load_constrained_instances():
    # infeasible low states carry infinite cost; both solvers must avoid
    # them and still find the same optimum
    from rightsizing import RestrictedLoadCost

    rng = np.random.default_rng(18)
    for _ in range(40):
        T = int(rng.integers(1, 10))
        m = int(rng.integers(2, 11))
        fns = tuple(
            RestrictedLoadCost(float(rng.uniform(0, m / 2)),
                               eps=float(rng.uniform(0.1, 2.0)),
                               slope_k=float(rng.integers(1, 4)))
            for _ in range(T))
        inst = ProblemInstance(T, m, float(rng.uniform(0.2, 3.0)), fns)
        a = dp_optimal(inst)
        b = solve_poly(inst)
        assert costs_close(a.cost, b.cost)
        for f, x in zip(fns, b.schedule):
            assert x >= f.load


def test_solve_poly_on_stretched_instances():
    from rightsizing import stretch_prediction

    rng = np.random.default_rng(19)
    inst = random_table_instance(rng, 5, 11)
    st = stretch_prediction(inst, w=2, m_factor=2)
    assert costs_close(solve_poly(st).cost, dp_optimal(st).cost)


def test_solve_poly_huge_fleet_quickly():
    rng = np.random.default_rng(20)
    T, m = 200, 1 << 30
    inst = random_affine_instance(rng, T, m, beta=1.0)
    res = solve_poly(inst)
    assert res.iterations == 29  # log2(2^30) - 1
    assert 0 <= int(res.schedule.max()) <= m


def test_window_and_grid_tie_breaks_agree_on_integer_data():
    rng = np.random.default_rng(21)
    for _ in range(60):
        T = int(rng.integers(1, 10))
        m = int(rng.integers(1, 6))
        inst = random_table_instance(rng, T, m, beta=float(rng.integers(1, 5)),
                                     integer=True)
        a = dp_optimal(inst)
        b = dp_optimal(inst, columns=np.tile(np.arange(m + 1), (T, 1)))
        assert np.array_equal(a.schedule, b.schedule)


# ---------------------------------------------------------------------------
# row evaluation
# ---------------------------------------------------------------------------


def test_row_evaluators_match_per_slot_eval_grid():
    from rightsizing import AffineAbsCost, RestrictedLoadCost, StretchedCopyCost
    from rightsizing.offline import PaddedCost, _row_evaluator, evaluate_rows

    rng = np.random.default_rng(23)
    m = 8
    tables = [convex_table(rng, m) for _ in range(3)]
    affines = [AffineAbsCost(0.75, 2.5), AffineAbsCost(1.5, 6.0)]
    restricted = [RestrictedLoadCost(load, eps=0.5, slope_k=k)
                  for load, k in ((0.0, 2.0), (2.5, 1.0), (4.0, 3.0), (9.0, 2.0))]
    padded = [PaddedCost(tables[0], 5, 1.0), PaddedCost(affines[0], 5, 0.5)]
    mixed = [*tables, *affines,
             RestrictedLoadCost(3.0, eps=0.5, slope_k=2.0),
             RestrictedLoadCost(0.0, eps=0.25, slope_k=1.0),
             *padded, StretchedCopyCost(affines[1], 4)]
    # one kind per list, padding over two inner kinds, then mixed lists
    slot_lists = [tables, affines, restricted, padded, mixed]
    slot_lists += [[mixed[i] for i in rng.integers(0, len(mixed), size=15)]
                   for _ in range(20)]
    infs = 0
    for fns in slot_lists:
        # clipping the draws to [0, m] repeats states within a row
        S = np.sort(np.clip(rng.integers(-3, m + 4, size=(len(fns), 5)), 0, m), axis=1)
        expected = np.array([f.eval_grid(s) for f, s in zip(fns, S)])
        assert np.array_equal(_row_evaluator(fns)(S), expected)
        assert np.array_equal(evaluate_rows(fns, S), expected)
        infs += int(np.isinf(expected).sum())
    assert infs > 0


def test_restricted_and_fractional_eval_grid_match_scalar_calls():
    from rightsizing import AffineAbsCost, RestrictedLoadCost
    from rightsizing.offline import _FractionalGridCost

    m = 6
    xs = np.arange(m + 1)
    # zero load (so x = 0 costs 0), non-integer loads, and loads at and above m
    restricted = [RestrictedLoadCost(load, eps=eps, slope_k=k)
                  for load in (0.0, 0.5, 2.0, 2.7, 6.0, 7.5)
                  for eps, k in ((0.5, 2.0), (1.25, 1.0), (0.1, 3.0))]
    inners = [*restricted[::3], AffineAbsCost(0.75, 2.5),
              TableCost([4, 2.5, 1.5, 1, 1, 1.5, 2.5]),
              TableCost([np.inf, np.inf, 3.0, 1.0, 0.5, 2.0, np.inf])]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        expected = [[f(int(x)) for x in xs] for f in restricted]
        for f, row in zip(restricted, expected):
            assert np.array_equal(f.eval_grid(xs), row)
        S = np.tile(xs, (len(restricted), 1))
        assert np.array_equal(RestrictedLoadCost.rows(restricted)(S), expected)
        for inner in inners:
            for denom in (1, 2, 3, 4):
                g = _FractionalGridCost(inner, denom)
                js = np.arange(m * denom + 1)  # ends on the top state, r == 0
                assert np.array_equal(g.eval_grid(js), [g(int(j)) for j in js])


def test_eval_cost_names_first_infeasible_slot():
    from rightsizing import RestrictedLoadCost

    fns = (TableCost([0, 1, 2, 3]),
           RestrictedLoadCost(1.0, eps=0.5, slope_k=1.0),
           TableCost([np.inf, 0, 0, 0]),
           RestrictedLoadCost(2.0, eps=0.5, slope_k=1.0))
    inst = ProblemInstance(4, 3, 1.0, fns)
    with pytest.raises(InfeasibleError, match=r"^x_2 = 0 "):
        eval_cost(inst, [0, 0, 0, 0])
    with pytest.raises(InfeasibleError, match=r"^x_3 = 0 "):
        eval_cost(inst, [0, 1, 0, 1])
    with pytest.raises(InfeasibleError, match=r"^x_4 = 1 "):
        eval_cost(inst, [0, 1, 1, 1])
    assert eval_cost(inst, [0, 1, 1, 2]).total == 2.0
