"""The compiled full-grid DP and rounding-ensemble kernels against their
numpy twins and against the per-slot reference loops they replaced.

Each test runs the public entry point twice, once as installed (the C
kernels when a compiler works) and once with ``kernels.load`` patched to
report no library, so both paths are checked on every machine.
"""

import itertools
import shutil
import threading
import time

import numpy as np
import pytest

from conftest import convex_table, random_affine_instance, random_table_instance, scalar_transition
from rightsizing import (
    DomainError,
    InfeasibleError,
    ProblemInstance,
    RestrictedLoadCost,
    TableCost,
    dp_optimal,
    kernels,
    lcp_run,
    offline,
    randomized,
    rounding_ensemble,
    solve_poly,
)
from rightsizing.model import switching_cost


@pytest.fixture
def paths(monkeypatch):
    """Runs a callable on the installed kernels and on the numpy twins."""

    def run(fn, *args):
        out = fn(*args)
        with monkeypatch.context() as m:
            m.setattr(kernels, "load", lambda: None)
            return out, fn(*args)

    return run


# ---------------------------------------------------------------------------
# full-grid DP
# ---------------------------------------------------------------------------


def _grid_passes(instance):
    """The backward value table and the schedule of ``offline._dp_grid``,
    from the same block kernels, so the tables can be compared bit for bit."""
    states = instance.allowed_states()
    sf = states.astype(np.float64)
    ramp = instance.beta * sf
    T, n = instance.T, states.size
    F = offline.evaluate_rows(instance.functions, np.broadcast_to(states, (T, n)))
    H = np.empty((T, n))
    H[T - 1] = 0.0
    # Uneven blocks, one slot at the end, exercise the block bookkeeping.
    sizes = itertools.cycle([3, 1, 2])
    t = T - 1
    while t > 0:
        b = min(next(sizes), t)
        offline._grid_backward(F[t - b + 1:t + 1][::-1], H, t, ramp)
        t -= b
    x = np.empty(T, dtype=np.int64)
    finite = [offline._grid_forward(F[t:t + 2], H, t, states, sf, instance.beta, x)
              for t in range(0, T, 2)]
    return H, x, finite[0]


def _grid_instances():
    rng = np.random.default_rng(41)
    out = []
    for T, m in [(1, 1), (1, 6), (2, 1), (7, 2), (40, 1), (33, 9), (17, 30)]:
        out.append(random_affine_instance(rng, T, m))
        out.append(random_table_instance(rng, T, m))
    # integer data, rich in ties that the first argmin must break alike
    out.append(random_table_instance(rng, 25, 4, beta=1.0, integer=True))
    out.append(random_table_instance(rng, 30, 2, beta=2.0, integer=True))
    # a coarser grid of allowed states
    out.append(random_table_instance(rng, 12, 12).replace(allowed_step=3))
    out.append(random_affine_instance(rng, 9, 20).replace(allowed_step=4))
    # restricted slots, whose states below the load cost +inf
    loads = rng.uniform(0.0, 5.0, size=20)
    out.append(ProblemInstance(20, 6, 0.75, tuple(
        RestrictedLoadCost(float(v), eps=0.5, slope_k=2.0) for v in loads)))
    # NaN entries, built in code, count as +inf; -0.0 entries
    tables = [convex_table(rng, 4).values.copy() for _ in range(15)]
    for i, v in enumerate(tables):
        if i % 3 == 0:
            v[i % 5] = np.nan
        elif i % 3 == 1:
            v[0] = -0.0
    out.append(ProblemInstance(15, 4, 1.5, tuple(TableCost(v) for v in tables)))
    return out


def test_minus_inf_cost_is_a_domain_error(monkeypatch):
    # -inf next to +inf would make inf - inf sums; every solver rejects it
    # before a kernel runs, compiled or numpy.
    inf = np.inf
    inst = ProblemInstance(4, 3, 1.0, (TableCost([1.0, 0.0, 2.0, 3.0]),
                                       TableCost([inf, -inf, 1.0, inf]),
                                       TableCost([0.0, inf, 1.0, 2.0]),
                                       TableCost([2.0, 1.0, -inf, 0.0])))
    for load in (kernels.load, lambda: None):
        monkeypatch.setattr(kernels, "load", load)
        for solve in (dp_optimal, solve_poly, lcp_run):
            with pytest.raises(DomainError):
                solve(inst)


def test_minus_inf_at_a_state_no_window_probes_is_a_domain_error(monkeypatch):
    # solve_poly's windows never reach state 63 of this table, yet the
    # oracle rejects it, so the window solver must too.
    values = np.arange(65.0)
    values[63] = -np.inf
    inst = ProblemInstance(1, 64, 1.0, (TableCost(values),))
    for load in (kernels.load, lambda: None):
        monkeypatch.setattr(kernels, "load", load)
        for solve in (dp_optimal, solve_poly):
            with pytest.raises(DomainError):
                solve(inst)


def test_kernel_costs_maps_nan_and_rejects_minus_inf():
    inf = np.inf
    clean = np.array([[0.0, 1.5, inf], [-0.0, 2.0, 3.0]])
    assert offline._kernel_costs(clean) is clean
    F = np.array([[np.nan, 1.5, inf], [2.0, np.nan, 0.0]])
    assert offline._kernel_costs(F).tolist() == [[inf, 1.5, inf], [2.0, inf, 0.0]]
    with pytest.raises(DomainError):
        offline._kernel_costs(np.array([1.0, np.nan, -inf]))


@pytest.mark.parametrize("instance", _grid_instances())
def test_grid_kernels_match_numpy_twin_bit_for_bit(paths, instance):
    (H, x, ok), (H_np, x_np, ok_np) = paths(_grid_passes, instance)
    assert np.array_equal(H.view(np.int64), H_np.view(np.int64))
    assert np.array_equal(x, x_np)
    assert ok == ok_np
    # A -0.0 cost always meets the +0.0 of the last value row or of a ramp,
    # so every zero in the table is +0.0 and the zero np.minimum picks on a
    # tie never shows.
    assert not np.signbit(H[H == 0]).any()
    if ok:
        a, b = paths(dp_optimal, instance)
        assert np.array_equal(a.schedule, x) and np.array_equal(b.schedule, x)
        assert a.cost == b.cost


def test_grid_dp_matches_window_kernel_across_uneven_blocks(paths):
    # n = 1000 states give 65 slots per block, so both passes end on a short
    # block; the window kernel over every state is the reference.
    rng = np.random.default_rng(42)
    n_states = 1000
    assert offline._DP_BLOCK_CELLS // n_states == 65
    for make in (random_affine_instance, random_table_instance):
        inst = make(rng, 150, n_states - 1)
        a, b = paths(dp_optimal, inst)
        ref = dp_optimal(inst, columns=np.tile(np.arange(n_states), (inst.T, 1)))
        assert np.array_equal(a.schedule, ref.schedule)
        assert np.array_equal(b.schedule, ref.schedule)


def test_grid_dp_reports_an_infeasible_first_slot(monkeypatch):
    inst = ProblemInstance(2, 1, 1.0, (TableCost([np.inf, np.nan]), TableCost([0.0, 1.0])))
    with pytest.raises(InfeasibleError):
        dp_optimal(inst)
    monkeypatch.setattr(kernels, "load", lambda: None)
    with pytest.raises(InfeasibleError):
        dp_optimal(inst)


# ---------------------------------------------------------------------------
# rounding ensemble
# ---------------------------------------------------------------------------


def _ensemble_reference(xbar, instance, n_runs, seed):
    """The per-slot loop the kernel replaced: one ``rng.random(n_runs)`` per
    slot, deterministic slots included."""
    arr = np.asarray(xbar, dtype=np.float64)
    S = np.stack([np.floor(arr), np.ceil(arr)], axis=1).astype(np.int64)
    F = offline.evaluate_rows(instance.functions, S)
    rng = np.random.default_rng(seed)
    x = np.zeros(n_runs, dtype=np.int64)
    operating = np.zeros(n_runs)
    ups = np.zeros(n_runs, dtype=np.int64)
    downs = np.zeros(n_runs, dtype=np.int64)
    upper = np.empty(instance.T)
    prev = 0.0
    for t, ((lo, hi), (f_lo, f_hi)) in enumerate(zip(S, F)):
        u = rng.random(n_runs)
        x_new = randomized._advance(x, *scalar_transition(prev, float(arr[t])), u)
        operating += np.where(x_new == hi, f_hi, f_lo)
        d = x_new - x
        ups += np.maximum(d, 0)
        downs += np.maximum(-d, 0)
        upper[t] = float(np.mean(x_new > lo))
        x = x_new
        prev = float(arr[t])
    downs += x
    switching = switching_cost(instance.beta, instance.convention, ups, ups + downs)
    return operating + switching, upper


def _random_walk(rng, T, m):
    # clipping to the fleet's ends and rounding every fourth slot give
    # integral slots, whose draws the kernels skip and the reference reads
    walk = np.clip(np.cumsum(rng.uniform(-1.6, 1.6, T)) + m / 2, 0.0, m)
    walk[::4] = np.round(walk[::4])
    return walk


def _half_walk(T):
    """A walk on one server whose every move has probability 0.5 (up from x
    to (1 + x) / 2, down from x to x / 2), so a draw out of step with
    numpy's stream flips about half the runs' decisions."""
    walk = np.empty(T)
    x = 0.0
    for t in range(T):
        x = (1.0 + x) / 2.0 if t % 2 == 0 else x / 2.0
        walk[t] = x
    return walk


def _ensemble_cases():
    rng = np.random.default_rng(43)
    cases = []
    for T, m, n_runs in [(1, 1, 5), (9, 1, 1), (50, 3, 700), (41, 2, 4000),
                         (6, 4, 20_000), (3, 2, 70_000)]:
        cases.append((_random_walk(rng, T, m), random_affine_instance(rng, T, m), n_runs))
    tables = random_table_instance(rng, 30, 5)
    cases.append((rng.uniform(0.0, 5.0, 30), tables, 333))
    cases.append((_random_walk(rng, 1, 1), random_affine_instance(rng, 1, 1), 1))
    cases.append((_random_walk(rng, 17, 3), random_affine_instance(rng, 17, 3), 999))
    cases.append((_half_walk(64), random_affine_instance(rng, 64, 1), 1001))
    return cases


def _assert_ensemble_matches_reference(paths, xbar, instance, n_runs, seed):
    costs, upper = _ensemble_reference(xbar, instance, n_runs, seed)
    a, b = paths(rounding_ensemble, xbar, instance, n_runs, seed)
    for ens in (a, b):
        assert np.array_equal(ens.costs, costs)
        assert np.array_equal(ens.upper_frequency, upper)


@pytest.mark.parametrize("xbar,instance,n_runs", _ensemble_cases())
def test_ensemble_kernel_matches_per_slot_reference(paths, xbar, instance, n_runs):
    _assert_ensemble_matches_reference(paths, xbar, instance, n_runs, seed=17)


@pytest.mark.parametrize("seed", range(50))
def test_ensemble_kernel_matches_per_slot_reference_for_each_seed(paths, seed):
    rng = np.random.default_rng(1000 + seed)
    T, m, n_runs = int(rng.integers(1, 40)), int(rng.integers(1, 5)), int(rng.integers(1, 300))
    _assert_ensemble_matches_reference(paths, _random_walk(rng, T, m),
                                       random_affine_instance(rng, T, m), n_runs, seed)
    _assert_ensemble_matches_reference(paths, _half_walk(T), random_affine_instance(rng, T, 1),
                                       2 * n_runs + 1, seed)


def _integral_stretch_cases():
    rng = np.random.default_rng(44)
    # Every move of the half walk has probability 0.5, so a stream left out
    # of step by the 60 integral slots between its halves flips about half
    # the runs' later decisions.
    on_off = rng.integers(0, 2, 60).astype(np.float64)
    half = np.concatenate((_half_walk(30), on_off, _half_walk(40)))
    # On three servers the integral slots also power runs up and down by
    # more than one; the walk ends on an integral stretch, and the symmetric
    # convention charges the power-downs, closing one included.
    walk = _random_walk(rng, 200, 3)
    walk[30:90] = np.round(walk[30:90])
    walk[140:] = np.round(walk[140:])
    return [(half, random_affine_instance(rng, half.size, 1)),
            (walk, random_affine_instance(rng, walk.size, 3).replace(convention="symmetric"))]


@pytest.mark.parametrize("n_runs", [1, 2, 4097])
@pytest.mark.parametrize("case", range(2))
def test_ensemble_jumps_the_stream_over_integral_stretches(paths, case, n_runs):
    xbar, instance = _integral_stretch_cases()[case]
    assert randomized._transitions(xbar)[1][30:90].tolist() == [0] * 60
    _assert_ensemble_matches_reference(paths, xbar, instance, n_runs, seed=23)


def test_ensemble_draw_equal_to_the_probability_does_not_move(paths):
    # Slot 0 moves up from 0 with probability xbar, and run r moves when its
    # draw u_r is below it: at xbar = u_3 run 3 stays idle, one float above
    # it run 3 moves.  An idle run costs 0, a moved one 1 + beta.
    seed, n_runs = 5, 8
    u3 = np.random.default_rng(seed).random(n_runs)[3]
    instance = ProblemInstance(1, 1, 1.0, (TableCost([0.0, 1.0]),))
    for xbar, moved in (([u3], False), ([np.nextafter(u3, 1.0)], True)):
        costs, _ = _ensemble_reference(xbar, instance, n_runs, seed)
        assert costs[3] == (2.0 if moved else 0.0)
        _assert_ensemble_matches_reference(paths, xbar, instance, n_runs, seed)


@pytest.fixture
def cores(monkeypatch):
    """Sets the number of cores in the affinity mask and the stream
    positions per run range, so that small ensembles split too."""

    def set_cores(k, draws_per_part=1):
        monkeypatch.setattr(randomized.os, "sched_getaffinity", lambda pid: set(range(k)))
        monkeypatch.setattr(randomized, "_DRAWS_PER_PART", draws_per_part)

    return set_cores


@pytest.mark.parametrize("n_runs", [1, 2, 3, 1001, 4097])
@pytest.mark.parametrize("k", [1, 2, 3, 7])
def test_ensemble_split_across_cores_matches_reference(paths, cores, k, n_runs):
    # About five ranges: more than 2 or 3 threads take, fewer than 7 cores;
    # on 1, 2 or 3 runs one range per run.  The half walk's stretches keep a
    # stream out of step by a range's jump from hiding.
    xbar, instance = _integral_stretch_cases()[0]
    cores(k, xbar.size * max(1, n_runs // 5))
    parts = min(n_runs, 5)
    threads, cuts = randomized._split(n_runs, xbar.size)
    assert threads == min(k, parts)
    assert len(cuts) - 1 == (parts if threads > 1 else 1)
    _assert_ensemble_matches_reference(paths, xbar, instance, n_runs, seed=29)


def _ensemble_parts(fn, cuts, xbar, instance, n_runs, seed):
    """Runs the kernel ``fn`` (the compiled one or the numpy twin, called as
    the twin is) on the run ranges between ``cuts``, one after another, and
    returns each run's state, operating cost and power-ups and the summed
    counts of runs above the floor."""
    S = np.stack([np.floor(xbar), np.ceil(xbar)], axis=1).astype(np.int64)
    F = np.ascontiguousarray(offline.evaluate_rows(instance.functions, S))
    p, direction = randomized._transitions(xbar)
    thr = np.ceil(p * 2.0**53).astype(np.uint64)
    pcg = np.random.PCG64(seed).state
    x, ups = np.zeros(n_runs, dtype=np.int64), np.zeros(n_runs, dtype=np.int64)
    operating = np.zeros(n_runs)
    above = np.zeros((len(cuts) - 1, xbar.size), dtype=np.int64)
    for r0, r1, row in zip(cuts, cuts[1:], above):
        fn(pcg, S, thr, direction, F, x, operating, ups, r0, r1, row)
    return x, operating, ups, above.sum(axis=0)


def _compiled_ensemble(pcg, S, thr, direction, F, x, operating, ups, r0, r1, above):
    words = np.array(divmod(pcg["state"]["state"], 1 << 64)
                     + divmod(pcg["state"]["inc"], 1 << 64), dtype=np.uint64)
    kernels.load().ensemble(S.shape[0], x.size, r0, r1,
                            *(a.ctypes.data for a in (S, thr, direction, F, words, x,
                                                      operating, ups, above)))


@pytest.mark.skipif(shutil.which("cc") is None, reason="needs a C compiler")
@pytest.mark.parametrize("n_runs", [2, 3, 5, 1001])
def test_ensemble_kernel_ranges_match_one_range_and_twin(n_runs):
    n = n_runs
    for case, (xbar, instance) in enumerate(_integral_stretch_cases()):
        whole = _ensemble_parts(_compiled_ensemble, [0, n], xbar, instance, n, seed=31 + case)
        for cuts in ([0, 1, n - 1, n], [0, n // 2, n], [0, 0, n], [0, n - 1, n, n]):
            ranges = _ensemble_parts(_compiled_ensemble, cuts, xbar, instance, n, 31 + case)
            twin = _ensemble_parts(randomized._ensemble_numpy, cuts, xbar, instance, n,
                                   31 + case)
            for a, b, c in zip(whole, ranges, twin):
                assert np.array_equal(a, b) and np.array_equal(a, c)


def test_ensemble_threads_end_with_the_call(paths, cores):
    xbar, instance = _integral_stretch_cases()[1]
    cores(3, xbar.size * 50)  # ten ranges of 50 runs on three threads
    before = threading.active_count()
    started = []
    start = threading.Thread.start
    with pytest.MonkeyPatch.context() as m:
        m.setattr(threading.Thread, "start", lambda t: started.append(t) or start(t))
        paths(rounding_ensemble, xbar, instance, 500, 3)
    assert len(started) == 4  # two threads on each path
    assert threading.active_count() == before


def test_ensemble_thread_out_of_ranges_takes_from_another_block(monkeypatch, cores):
    # Ten ranges of 100 runs, five per thread; the helper thread stalls on
    # its first range, so the calling thread takes the other four from the
    # back of the helper's block.
    xbar, instance = _integral_stretch_cases()[0]
    cores(2, xbar.size * 100)
    monkeypatch.setattr(kernels, "load", lambda: None)
    on_main, on_helper = [], []
    twin = randomized._ensemble_numpy

    def stalling(*args):
        r0 = args[8]
        if r0 == 500:
            time.sleep(0.3)
        (on_main if threading.current_thread() is threading.main_thread() else on_helper).append(r0)
        twin(*args)

    monkeypatch.setattr(randomized, "_ensemble_numpy", stalling)
    ens = rounding_ensemble(xbar, instance, 1000, 7)
    costs, upper = _ensemble_reference(xbar, instance, 1000, 7)
    assert np.array_equal(ens.costs, costs) and np.array_equal(ens.upper_frequency, upper)
    assert on_main == [0, 100, 200, 300, 400, 900, 800, 700, 600]
    assert on_helper == [500]


def test_ensemble_error_in_a_range_is_raised_after_the_join(monkeypatch, cores):
    xbar, instance = _integral_stretch_cases()[0]
    cores(2, xbar.size * 100)
    monkeypatch.setattr(kernels, "load", lambda: None)
    twin = randomized._ensemble_numpy

    def failing(*args):
        if args[8] == 500:  # the first range of the helper thread's block
            raise MemoryError("range 500")
        twin(*args)

    monkeypatch.setattr(randomized, "_ensemble_numpy", failing)
    before = threading.active_count()
    with pytest.raises(MemoryError, match="range 500"):
        rounding_ensemble(xbar, instance, 1000, 7)
    assert threading.active_count() == before


def test_ensemble_split(monkeypatch):
    T, n_runs = 10_000, 4000  # the benchmark's randomized duel
    monkeypatch.setattr(randomized.os, "sched_getaffinity", lambda pid: {0})
    assert randomized._split(n_runs, T) == (1, [0, n_runs])
    # 4e7 stream positions make 19 ranges of 2^21 or more.
    ranges = [n_runs * i // 19 for i in range(20)]
    monkeypatch.setattr(randomized.os, "sched_getaffinity", lambda pid: {0, 1})
    assert randomized._split(n_runs, T) == (2, ranges)
    monkeypatch.setattr(randomized.os, "sched_getaffinity", lambda pid: set(range(64)))
    assert randomized._split(n_runs, T) == (19, ranges)
    # Below twice _DRAWS_PER_PART stream positions an ensemble is one range.
    assert randomized._split(400, 300) == (1, [0, 400])
    assert randomized._split(2, 2**21 - 1) == (1, [0, 2])
    assert randomized._split(2, 2**21) == (2, [0, 1, 2])
    assert randomized._split(1, 10**9) == (1, [0, 1])


def test_ensemble_cases_cover_each_move():
    cases = _ensemble_cases()
    moves = {d for xbar, _, _ in cases for d in randomized._transitions(xbar)[1].tolist()}
    assert moves == {-1, 0, 1}
    p, direction = randomized._transitions(cases[-1][0])
    assert np.all(np.abs(p - 0.5) < 1e-12) and np.all(direction != 0)


@pytest.mark.parametrize("seed", [0, 1, 17, 2**63 + 5])
def test_ensemble_stream_is_default_rng(seed):
    # rounding_ensemble names PCG64 so that the kernel can draw its stream;
    # the runs stay those of default_rng(seed).
    a = np.random.Generator(np.random.PCG64(seed)).random(1001)
    assert np.array_equal(a, np.random.default_rng(seed).random(1001))


def test_load_builds_once_for_threads_that_call_it_first(tmp_path, monkeypatch):
    # Two threads call load for the first time at once, on a source of
    # their own: one compiler run, one library, no temporary file left.
    shutil.copy(kernels.__file__.replace("kernels.py", "kernels.c"), tmp_path)
    monkeypatch.setattr(kernels, "__file__", str(tmp_path / "kernels.py"))
    builds = []
    run = kernels.subprocess.run

    def counted_run(*args, **kwargs):
        out = run(*args, **kwargs)
        builds.append(args)
        return out

    monkeypatch.setattr(kernels.subprocess, "run", counted_run)
    barrier = threading.Barrier(2)
    libs = [None, None]

    def first_call(i):
        barrier.wait()
        libs[i] = kernels.load()

    kernels.load.cache_clear()
    try:
        threads = [threading.Thread(target=first_call, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        kernels.load.cache_clear()
    compiled = shutil.which("cc") is not None
    assert len(builds) == int(compiled)
    assert len({getattr(lib, "_handle", None) for lib in libs}) == 1
    assert (libs[0] is not None) == compiled
    assert sorted(p.suffix for p in (tmp_path / "__pycache__").iterdir()) == [".so"] * compiled


def test_build_removes_stale_libraries_only(tmp_path, monkeypatch):
    # A library of an older source goes once the new one is built; another
    # build's temporary file stays.
    shutil.copy(kernels.__file__.replace("kernels.py", "kernels.c"), tmp_path)
    monkeypatch.setattr(kernels, "__file__", str(tmp_path / "kernels.py"))
    cache = tmp_path / "__pycache__"
    cache.mkdir()
    stale = cache / "kernels-0000000000000000.so"
    other = cache / "kernels-1111111111111111.so.abc123.tmp"
    stale.write_bytes(b"")
    other.write_bytes(b"")
    kernels.load.cache_clear()
    try:
        lib = kernels.load()
    finally:
        kernels.load.cache_clear()
    assert other.exists()
    assert stale.exists() == (lib is None)
