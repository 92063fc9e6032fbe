"""Tests for the compiled kernel backend (``repro.kernels``).

The load-bearing claims: the SLP backend agrees with the seed
arithmetic to machine precision on arbitrary systems (hypothesis sweeps
random supports, repeated exponents, empty equations), one row of a
batch is bit-identical to the one-row batch, solver results are
bitwise-equal between scalar and batched tracking under ``kernel="slp"``,
tapes and kernels are memoized by structure/coefficient fingerprints,
and kernel effort statistics surface in :class:`SolveReport` summaries
and sweep journals.
"""

import pickle
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.artifacts import ArtifactStore
from repro.homotopy import (
    ConvexHomotopy,
    ProjectivePatchHomotopy,
    homogenized_pair,
    solve,
)
from repro.kernels import (
    KERNEL_BACKENDS,
    KernelUsage,
    NaiveSystemKernel,
    NaiveTermKernel,
    Term,
    build_tape,
    cached_slp_kernel,
    cached_tape,
    clear_kernel_cache,
    compile_system_kernel,
    compile_term_kernel,
    kernel_cache_info,
    normalize_kernel,
    system_terms,
)
from repro.kernels import slp
from repro.polyhedral import supports as poly_supports
from repro.polynomials import Polynomial, PolynomialSystem
from repro.systems import cyclic_roots_system, katsura_system

# ---------------------------------------------------------------------------
# strategies: random systems with repeated exponents and empty equations
# ---------------------------------------------------------------------------

small_complex = st.complex_numbers(
    max_magnitude=4.0, allow_nan=False, allow_infinity=False
)


@st.composite
def random_systems(draw):
    nvars = draw(st.integers(1, 3))
    polys = []
    for _ in range(nvars):
        n_terms = draw(st.integers(0, 5))  # 0 => an identically-zero row
        coeffs = {}
        for _ in range(n_terms):
            expo = tuple(draw(st.integers(0, 4)) for _ in range(nvars))
            # repeated exponents overwrite: exercises coefficient merging
            coeffs[expo] = draw(small_complex)
        polys.append(Polynomial(coeffs, nvars=nvars))
    return PolynomialSystem(polys)


@st.composite
def point_batches(draw, nvars):
    npts = draw(st.integers(1, 5))
    vals = [
        complex(draw(st.floats(-2.0, 2.0)), draw(st.floats(-2.0, 2.0)))
        for _ in range(npts * nvars)
    ]
    return np.asarray(vals, dtype=complex).reshape(npts, nvars)


def _close(a, b, tol=1e-11):
    scale = 1.0 + max(
        float(np.max(np.abs(a), initial=0.0)),
        float(np.max(np.abs(b), initial=0.0)),
    )
    return float(np.max(np.abs(a - b), initial=0.0)) <= tol * scale


# ---------------------------------------------------------------------------
# satellite 2: SLP vs naive to machine precision on random systems
# ---------------------------------------------------------------------------


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_slp_matches_naive_on_random_systems(data):
    system = data.draw(random_systems())
    X = data.draw(point_batches(system.nvars))
    kernel = compile_system_kernel(system, "slp")
    res_n, jac_n = system.evaluate_and_jacobian_many(X)
    res_s, jac_s = kernel.evaluate_and_jacobian(X)
    assert _close(res_s, res_n)
    assert _close(jac_s, jac_n)
    assert _close(kernel.evaluate(X), system.evaluate_many(X))


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_slp_row_of_batch_is_bitwise_scalar(data):
    system = data.draw(random_systems())
    X = data.draw(point_batches(system.nvars))
    kernel = compile_system_kernel(system, "slp")
    res, jac = kernel.evaluate_and_jacobian(X)
    i = data.draw(st.integers(0, X.shape[0] - 1))
    res1, jac1 = kernel.evaluate_and_jacobian(X[i : i + 1])
    assert np.array_equal(res1[0], res[i])
    assert np.array_equal(jac1[0], jac[i])


def test_slp_matches_naive_on_benchmark_systems():
    rng = np.random.default_rng(3)
    for system in (cyclic_roots_system(5), katsura_system(6)):
        X = rng.standard_normal((17, system.nvars)) + 1j * rng.standard_normal(
            (17, system.nvars)
        )
        kernel = compile_system_kernel(system, "slp")
        res_n, jac_n = system.evaluate_and_jacobian_many(X)
        res_s, jac_s = kernel.evaluate_and_jacobian(X)
        assert _close(res_s, res_n) and _close(jac_s, jac_n)


# ---------------------------------------------------------------------------
# the level-scheduled replay against a sequential interpreter of the tape
# ---------------------------------------------------------------------------


def _interpret(tape, coefficients, X, T=None):
    """``(res, jac, dt)`` by walking ``tape.ops`` one node at a time and
    summing each term list left to right — ``acc = K0*n0; acc += K1*n1``
    — which is the arithmetic the replay has to reproduce bit for bit."""
    vals = []
    for op in tape.ops:
        if op[0] == "mul":
            vals.append(vals[op[1]] * vals[op[2]])
        else:
            vals.append(X[:, op[1]] if op[0] == "var" else T ** op[1])
    one = np.ones(len(X), dtype=complex)

    def lincomb(entries):
        acc = np.zeros(len(X), dtype=complex)
        for j, (k, scale, node) in enumerate(entries):
            term = complex(coefficients[k] * scale) * (
                one if node is None else vals[node]
            )
            acc = term if j == 0 else acc + term
        return acc

    res = np.stack([lincomb(e) for e in tape.res_terms], axis=1)
    dt = np.stack([lincomb(e) for e in tape.dt_terms], axis=1)
    jac = np.zeros((len(X), tape.neqs, tape.nvars), dtype=complex)
    for (i, v), entries in tape.jac_terms.items():
        jac[:, i, v] = lincomb(entries)
    return res, jac, dt


def _assert_replay_is_interpreter(neqs, nvars, terms, X, T=None):
    has_t = T is not None
    if has_t:
        kernel = compile_term_kernel(neqs, nvars, terms)
    else:
        kernel = cached_slp_kernel(neqs, nvars, terms)
    res, jac, dt = _interpret(kernel.tape, kernel.coefficients, X, T)
    assert np.array_equal(kernel.evaluate(X, T), res)
    res_k, jac_k = kernel.evaluate_and_jacobian(X, T)
    assert res_k.shape == res.shape and jac_k.shape == jac.shape
    assert np.array_equal(res_k, res) and np.array_equal(jac_k, jac)
    if has_t:
        assert np.array_equal(kernel.jacobian_t(X, T), dt)
        jac_b, dt_b = kernel.jacobians(X, T)
        assert np.array_equal(jac_b, jac) and np.array_equal(dt_b, dt)
    return kernel


@st.composite
def term_lists(draw, parametric):
    """Random structures incl. the degenerate ones: rows without terms,
    constant-only terms, variables no term mentions, repeated supports."""
    nvars = draw(st.integers(1, 3))
    neqs = draw(st.integers(1, 3))
    used = draw(st.integers(0, nvars))  # variables >= used never appear
    etas = st.sampled_from([0.0, 1.0, 2.0, 0.5, 1.75, 3.25, 1.0 / 3.0])
    terms = []
    for _ in range(draw(st.integers(0, 7))):
        expo = tuple(
            draw(st.integers(0, 3)) if v < used else 0 for v in range(nvars)
        )
        terms.append(Term(
            row=draw(st.integers(0, neqs - 1)),
            expo=expo,
            coeff=draw(small_complex),
            eta=draw(etas) if parametric else 0.0,
        ))
    return neqs, nvars, terms


@settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data(), parametric=st.booleans(), complex_t=st.booleans())
def test_replay_is_the_sequential_interpreter(data, parametric, complex_t):
    """All four programs, every structure hypothesis can think of.

    The issue allowed parametric tapes 4 ulp of slack for an
    array-exponent ``T ** etas``; the replay keeps one scalar-exponent
    power per distinct ``eta`` instead (numpy picks a different pow for
    some exponents depending on the operand shapes, which would break
    row-of-batch identity), so equality is exact there too.
    """
    neqs, nvars, terms = data.draw(term_lists(parametric))
    X = data.draw(point_batches(nvars))
    T = None
    if parametric:
        seed = data.draw(st.integers(0, 2**16))
        rng = np.random.default_rng(seed)
        T = 0.05 + 0.95 * rng.random(len(X))
        if complex_t:
            T = T + 0.2j * rng.standard_normal(len(X))
    _assert_replay_is_interpreter(neqs, nvars, terms, X, T)


def test_replay_handles_degenerate_structures():
    # row 1 has no term, row 2 only constants, variable 2 is in no term
    terms = [
        Term(0, (2, 1, 0), 1.5 - 0.5j),
        Term(0, (0, 0, 0), 0.25j),
        Term(2, (0, 0, 0), 2.0 + 0j),
        Term(2, (0, 0, 0), -0.5 + 1j),
    ]
    X = np.random.default_rng(0).standard_normal((5, 3)) + 0.5j
    kernel = _assert_replay_is_interpreter(3, 3, terms, X)
    res, jac = kernel.evaluate_and_jacobian(X)
    assert np.all(res[:, 1] == 0) and np.all(res[:, 2] == 1.5 + 1j)
    assert np.all(jac[:, 1:, :] == 0) and np.all(jac[:, :, 2] == 0)
    # no term at all, and no point at all
    empty = _assert_replay_is_interpreter(2, 2, [], X[:, :2])
    assert not empty.evaluate(X[:, :2]).any()
    res0, jac0 = kernel.evaluate_and_jacobian(X[:0])
    assert res0.shape == (0, 3) and jac0.shape == (0, 3, 3)


def test_one_term_one_point_rounds_like_a_row_of_a_batch():
    """The 1x1 gather table: numpy rounds a complex product written over
    its own operand differently when both are a single element, so the
    constant-column multiply must not be in place (these values differ
    in the last bit of the real part if it is)."""
    terms = [Term(0, (1,), 0.8828125 + 0.0625j)]
    X = np.array([[0.05119245 + 1j], [0.3 + 0.2j]])
    kernel = _assert_replay_is_interpreter(1, 1, terms, X[:1])
    assert kernel.evaluate(X[:1])[0, 0] == kernel.evaluate(X)[0, 0]
    rng = np.random.default_rng(3)
    for _ in range(200):  # the effect hits ~1 % of random operands
        terms = [Term(0, (1,), complex(*rng.standard_normal(2)))]
        X = rng.standard_normal((2, 1)) + 1j * rng.standard_normal((2, 1))
        _assert_replay_is_interpreter(1, 1, terms, X[:1])
        _assert_replay_is_interpreter(1, 1, terms, X)


@pytest.mark.parametrize("parametric", [False, True])
def test_rows_are_bitwise_the_same_in_any_block(parametric):
    """A row's values do not depend on the batch around it: prefixes of
    every length around the block width, and single rows from either
    side of a block boundary, reproduce the rows of the full batch."""
    B = slp.BLOCK
    rng = np.random.default_rng(8)
    if parametric:
        nvars = 3
        terms = [
            Term(int(rng.integers(0, 3)),
                 tuple(int(e) for e in rng.integers(0, 4, 3)),
                 complex(*rng.standard_normal(2)),
                 float(rng.choice([0.0, 1.0, 2.0, 0.5, 2.75])))
            for _ in range(12)
        ]
        kernel = compile_term_kernel(3, 3, terms)
        T = 0.05 + 0.95 * rng.random(3 * B + 5)
        calls = (kernel.evaluate, kernel.evaluate_and_jacobian,
                 kernel.jacobian_t, kernel.jacobians)
    else:
        system = katsura_system(4)
        nvars = system.nvars
        kernel = compile_system_kernel(system, "slp")
        T = None
        calls = (kernel.evaluate, kernel.evaluate_and_jacobian)
    X = rng.standard_normal((3 * B + 5, nvars)) + 1j * rng.standard_normal(
        (3 * B + 5, nvars)
    )
    _assert_rows_do_not_depend_on_the_batch(calls, X, T)


def _assert_rows_do_not_depend_on_the_batch(calls, X, T, E=None):
    B = slp.BLOCK

    def run(call, rows):
        args = (X[rows], None if T is None else T[rows])
        out = call(*args) if E is None else call(*args, E[:, rows])
        return out if isinstance(out, tuple) else (out,)

    for call in calls:
        full = run(call, slice(None))
        for n in (1, B - 1, B, B + 1, 3 * B + 5):
            for part, whole in zip(run(call, slice(0, n)), full):
                assert np.array_equal(part, whole[:n])
        for i in (0, B - 1, B, 2 * B, 3 * B + 4):
            for part, whole in zip(run(call, slice(i, i + 1)), full):
                assert np.array_equal(part[0], whole[i])


# ---------------------------------------------------------------------------
# the replay's per-thread work arena
# ---------------------------------------------------------------------------


def _work_rows(kernel, name):
    prog = kernel.tape.program(name)
    return prog.nslots + len(prog.gather)


def _random_points(rng, npts, nvars):
    return rng.standard_normal((npts, nvars)) + 1j * rng.standard_normal(
        (npts, nvars)
    )


@pytest.mark.parametrize("parametric", [False, True])
def test_rows_do_not_depend_on_what_the_arena_held(parametric):
    """The row-of-batch identity with a larger, different program
    replayed before every call, so each call's work array is a prefix
    of an arena full of foreign values."""
    B = slp.BLOCK
    rng = np.random.default_rng(12)
    foreign = compile_system_kernel(cyclic_roots_system(6), "slp")
    Y = _random_points(rng, B + 7, 6)
    if parametric:
        terms = [
            Term(int(rng.integers(0, 3)),
                 tuple(int(e) for e in rng.integers(0, 4, 3)),
                 complex(*rng.standard_normal(2)),
                 float(rng.choice([0.0, 1.0, 2.0, 0.5])))
            for _ in range(12)
        ]
        kernel = compile_term_kernel(3, 3, terms)
        T = 0.05 + 0.95 * rng.random(3 * B + 5)
        calls = (kernel.evaluate, kernel.evaluate_and_jacobian,
                 kernel.jacobian_t, kernel.jacobians)
    else:
        kernel = compile_system_kernel(katsura_system(4), "slp")
        T = None
        calls = (kernel.evaluate, kernel.evaluate_and_jacobian)
    assert _work_rows(foreign, "eval_jac") > max(
        _work_rows(kernel, name) for name in kernel.tape._programs
    )

    def after_foreign(call):
        def wrapped(*args):
            foreign.evaluate_and_jacobian(Y)
            return call(*args)
        return wrapped

    X = _random_points(rng, 3 * B + 5, kernel.tape.nvars)
    _assert_rows_do_not_depend_on_the_batch(
        [after_foreign(call) for call in calls], X, T
    )


def test_returned_arrays_do_not_alias_the_arena():
    rng = np.random.default_rng(13)
    kernel = compile_system_kernel(katsura_system(5), "slp")
    other = compile_system_kernel(cyclic_roots_system(5), "slp")
    res, jac = kernel.evaluate_and_jacobian(_random_points(rng, 40, 6))
    kept = res.copy(), jac.copy()
    for npts in (1, 40, 2 * slp.BLOCK + 3):
        kernel.evaluate_and_jacobian(_random_points(rng, npts, 6))
        other.evaluate_and_jacobian(_random_points(rng, npts, 5))
    assert np.array_equal(res, kept[0]) and np.array_equal(jac, kept[1])


def test_threads_replay_shared_kernels_concurrently():
    """Four threads, two a kernel, each replaying its kernel 200 times
    at once with a short switch interval, get the serial bits: no
    thread reads another's work rows."""
    rng = np.random.default_rng(14)
    B = slp.BLOCK
    jobs = []
    for system in (katsura_system(6), cyclic_roots_system(6)):
        kernel = compile_system_kernel(system, "slp")
        X = _random_points(rng, 2 * B + 9, system.nvars)
        jobs.append((kernel, X, kernel.evaluate_and_jacobian(X)))
    nthreads = 4
    barrier = threading.Barrier(nthreads, timeout=60)
    mismatches, done = [0] * nthreads, [0] * nthreads

    def hammer(k):
        kernel, X, (res, jac) = jobs[k % len(jobs)]
        barrier.wait()
        for i in range(200):
            n = (1, B, B + 1, 2 * B + 9)[(i + k) % 4]
            r, j = kernel.evaluate_and_jacobian(X[:n])
            mismatches[k] += not (
                np.array_equal(r, res[:n]) and np.array_equal(j, jac[:n])
            )
            done[k] += 1

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=hammer, args=(k,))
                   for k in range(nthreads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert done == [200] * nthreads
    assert mismatches == [0] * nthreads


class TestWarmArenaGate:
    """A warm solve replays in the pages it already has: once a cold
    cyclic-5 polyhedral solve and one warm solve have run in a thread,
    warm solves 2 and 3 (reports kept, as a serving loop keeps them)
    replay in that thread's arena buffer, which they neither replace
    nor leave unused.  The gate reads the buffer, not page faults: what
    a fresh work array per call costs in minor faults depends on glibc's
    heap state.  Measured per warm solve in a fresh interpreter, a
    fresh work array per call read 8 745-9 396 faults in one checkout
    and 125-778 in a checkout at another path; the arena reads 11-49.
    A fault ceiling therefore would not fail reliably without it."""

    def test_warm_solves_replay_in_one_buffer(self, tmp_path):
        store = ArtifactStore(tmp_path)
        target = cyclic_roots_system(5)
        supports = [np.asarray(s) for s in poly_supports.supports_of(target)]

        def run(system, rng):
            return solve(system, start="polyhedral", kernel="slp",
                         mode="batch", cache=store, rng=rng)

        def solves():  # in a fresh thread: its arena starts empty
            run(target, np.random.default_rng(0))  # the cold solve
            kept, arenas, written = [], [], []
            for seed in (1, 2, 3):
                rng = np.random.default_rng(seed)
                coefficients = [rng.standard_normal(len(s))
                                + 1j * rng.standard_normal(len(s))
                                for s in supports]
                system = poly_supports.coefficient_system(supports, coefficients)
                if arenas:
                    arenas[-1][:] = np.nan  # poison what the arena holds
                kept.append(run(system, rng))
                arenas.append(getattr(slp._arena, "buf", None))
                assert arenas[-1] is not None, "the replay took no arena"
                written.append(int(np.count_nonzero(~np.isnan(arenas[-1]))))
            return kept, arenas, written

        with ThreadPoolExecutor(max_workers=1) as pool:
            kept, arenas, written = pool.submit(solves).result()
        assert [r.summary["cache"]["status"] for r in kept] == ["warm"] * 3
        assert [len(r.solutions) for r in kept] == [70] * 3
        assert all(a is arenas[0] for a in arenas), [a.size for a in arenas]
        assert min(written[1:]) > 0, written


@pytest.mark.parametrize("dtype", [float, int])
def test_real_points_evaluate_like_their_complex_cast(dtype):
    """Real and integer points are complex points with zero imaginary
    parts, on both compile routes, and agree with the naive backend."""
    rng = np.random.default_rng(15)
    system = katsura_system(2)
    X = (4 * rng.standard_normal((9, 3))).astype(dtype)
    T = rng.random(9)
    terms = system_terms(system) + [Term(0, (1, 0, 2), 0.5 - 1j, 1.0)]
    pairs = [
        (compile_system_kernel(system, "slp"),
         compile_system_kernel(system, "naive"), ()),
        (compile_term_kernel(3, 3, terms, "slp"),
         compile_term_kernel(3, 3, terms, "naive"), (T,)),
    ]
    for kernel, naive, t in pairs:
        for name in ("evaluate", "evaluate_and_jacobian"):
            got = getattr(kernel, name)(X, *t)
            want = getattr(kernel, name)(X.astype(complex), *t)
            ref = getattr(naive, name)(X, *t)
            for a, b, c in zip(*(o if isinstance(o, tuple) else (o,)
                                 for o in (got, want, ref))):
                assert a.dtype == complex
                assert np.array_equal(a, b) and _close(a, c)


_ETAS = [0.0, 1.0, 2.0, 1.5, 2.75]


def _cell_homotopy(kernel, rng):
    """A 3-variable term homotopy with fractional slacks above 1."""
    from repro.polyhedral.homotopy import CellHomotopy

    supports = [rng.integers(0, 4, (4, 3)) for _ in range(3)]
    coefficients = [
        rng.standard_normal(4) + 1j * rng.standard_normal(4) for _ in range(3)
    ]
    etas = [rng.choice(_ETAS, 4) for _ in range(3)]
    return CellHomotopy(supports, coefficients, etas, kernel=kernel)


def _coefficient_homotopy(kernel, rng):
    """katsura-2 served from a generic system on its (augmented) supports;
    returns the homotopy and that generic system."""
    from repro.homotopy.coefficient import CoefficientHomotopy
    from repro.polyhedral.supports import (
        augment_with_origin, random_coefficient_system, supports_of)

    target = katsura_system(2)
    supports = augment_with_origin(supports_of(target))
    generic, coefficients = random_coefficient_system(supports, rng)
    homotopy = CoefficientHomotopy(
        supports, coefficients, target, gamma=0.6 + 0.8j, kernel=kernel
    )
    return homotopy, generic


def _blend_pair(rng):
    """A 3-variable start/target pair on *disjoint* supports."""
    def system(expos):
        return PolynomialSystem([
            Polynomial({e: complex(*rng.standard_normal(2)) for e in row}, 3)
            for row in expos
        ])

    start = system([[(2, 0, 0), (0, 0, 0)], [(0, 3, 0), (0, 0, 1)],
                    [(0, 0, 2), (1, 1, 0)]])
    target = system([[(1, 1, 1), (0, 2, 0)], [(2, 0, 1), (1, 0, 0)],
                     [(0, 1, 1), (3, 0, 0), (0, 1, 0)]])
    return start, target


def _patch_homotopy(kernel, rng):
    """The projective chart of :func:`_blend_pair`'s homotopy."""
    start_h, target_h = homogenized_pair(*_blend_pair(rng))
    patch = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    return ProjectivePatchHomotopy(
        start_h, target_h, 0.6 + 0.8j, patch, kernel=kernel
    )


_TERM_EVALUATORS = {
    "naive-kernel": lambda rng: _cell_homotopy("naive", rng).kernels[0],
    "blend-naive": lambda rng: ConvexHomotopy(
        *_blend_pair(rng), gamma=0.6 + 0.8j, kernel="naive"),
    "blend-slp": lambda rng: ConvexHomotopy(
        *_blend_pair(rng), gamma=0.6 + 0.8j, kernel="slp"),
    "patch-naive": lambda rng: _patch_homotopy("naive", rng),
    "patch-slp": lambda rng: _patch_homotopy("slp", rng),
    "cell-naive": lambda rng: _cell_homotopy("naive", rng),
    "cell-slp": lambda rng: _cell_homotopy("slp", rng),
    "coefficient-naive": lambda rng: _coefficient_homotopy("naive", rng)[0],
    "coefficient-slp": lambda rng: _coefficient_homotopy("slp", rng)[0],
}


@pytest.mark.parametrize("complex_t", [False, True], ids=["real-t", "complex-t"])
@pytest.mark.parametrize("subject", sorted(_TERM_EVALUATORS))
def test_term_evaluator_rows_do_not_depend_on_the_batch(subject, complex_t):
    rng = np.random.default_rng(11)
    obj = _TERM_EVALUATORS[subject](rng)
    E = None
    if subject == "naive-kernel":  # a cell homotopy's: per-row exponents
        nvars = 3
        calls = (obj.evaluate, obj.evaluate_and_jacobian,
                 obj.jacobian_t, obj.jacobians)
        E = rng.choice(_ETAS, (obj.stats.n_terms, 3 * slp.BLOCK + 5))
    else:
        nvars = obj.dim
        calls = (obj.evaluate_batch, obj.jacobian_x_batch,
                 obj.jacobian_t_batch, obj.evaluate_and_jacobian_batch,
                 obj.jacobians_batch)
    npts = 3 * slp.BLOCK + 5
    X = rng.standard_normal((npts, nvars)) + 1j * rng.standard_normal(
        (npts, nvars)
    )
    T = 0.05 + 0.95 * rng.random(npts)
    if complex_t:  # the Cauchy endgame's circles around t = 1
        T = 1.0 - 0.3 * rng.random(npts) * np.exp(2j * np.pi * rng.random(npts))
    _assert_rows_do_not_depend_on_the_batch(calls, X, T, E)


def _batch_outputs(homotopy, X, t):
    """Every array the five batch-protocol methods return, in order."""
    outs = []
    for method in ("evaluate_batch", "jacobian_x_batch", "jacobian_t_batch",
                   "evaluate_and_jacobian_batch", "jacobians_batch"):
        out = getattr(homotopy, method)(X, t)
        outs.extend(out if isinstance(out, tuple) else (out,))
    return outs


def test_coefficient_homotopy_backends_agree_and_meet_both_ends():
    """eta in {0, 1}: naive and SLP agree to 1e-12 everywhere, and the
    two-terms-a-row blend still is gamma G at t = 0 and F at t = 1."""
    naive, generic = _coefficient_homotopy("naive", np.random.default_rng(5))
    fast, _ = _coefficient_homotopy("slp", np.random.default_rng(5))
    rng = np.random.default_rng(6)
    X = rng.standard_normal((9, 3)) + 1j * rng.standard_normal((9, 3))

    def near(a, b):
        return float(np.max(np.abs(a - b))) <= 1e-12 * (1 + np.max(np.abs(b)))

    for t in (0.0, 0.35, 1.0, 0.8 + 0.1j, rng.random(9)):
        for u, v in zip(_batch_outputs(naive, X, t), _batch_outputs(fast, X, t)):
            assert u.shape == v.shape and near(u, v)
    g, jg = generic.evaluate_and_jacobian_many(X)
    f, jf = naive.target.evaluate_and_jacobian_many(X)
    for hom in (naive, fast):
        res0, jac0 = hom.evaluate_and_jacobian_batch(X, 0.0)
        res1, jac1 = hom.evaluate_and_jacobian_batch(X, 1.0)
        assert near(res0, hom.gamma * g) and near(jac0, hom.gamma * jg)
        assert near(res1, f) and near(jac1, jf)
        assert near(hom.jacobian_t_batch(X, 0.4), f - hom.gamma * g)
        assert np.array_equal(hom.evaluate(X[2], 0.35),
                              hom.evaluate_batch(X, 0.35)[2])


def _blend_oracle(start, target, gamma, X, t):
    """Eq. (1) and its derivatives assembled from the system tables."""
    g, jg = start.evaluate_and_jacobian_many(X)
    f, jf = target.evaluate_and_jacobian_many(X)
    t = np.broadcast_to(np.asarray(t), X.shape[:1])
    w = gamma * (1.0 - t)
    res = w[:, None] * g + t[:, None] * f
    jac = w[:, None, None] * jg + t[:, None, None] * jf
    return res, jac, f - gamma * g


def _assert_matches_blend(homotopy, oracle, X):
    """All five batch methods against ``oracle(X, t)`` at real t in
    {0, 0.3, 1} and on a circle of complex t around 1."""
    def near(a, b):
        return float(np.max(np.abs(a - b))) <= 1e-12 * (1 + np.max(np.abs(b)))

    circle = 1.0 - 0.2 * np.exp(2j * np.pi * np.arange(len(X)) / len(X))
    for t in (0.0, 0.3, 1.0, circle):
        res, jac, dt = oracle(X, t)
        expected = (res, jac, dt, res, jac, jac, dt)
        for got, want in zip(_batch_outputs(homotopy, X, t), expected):
            assert got.shape == want.shape and near(got, want)


def _blend_cases():
    from repro.homotopy import total_degree_start_system
    from repro.systems import noon_system

    cases = {"disjoint": _blend_pair(np.random.default_rng(4))}
    for name, target in (("katsura-4", katsura_system(4)),
                         ("cyclic-5", cyclic_roots_system(5)),
                         ("noon-3", noon_system(3))):
        start, _ = total_degree_start_system(target, np.random.default_rng(4))
        cases[name] = (start, target)
    return cases


@pytest.mark.parametrize("kernel", [None, "naive", "slp"])
@pytest.mark.parametrize("case", ["katsura-4", "cyclic-5", "noon-3", "disjoint"])
def test_blend_term_list_is_eq_1(case, kernel):
    """``blend_terms`` against gamma (1-t) G + t F put together from the
    two systems' own tables: affine, and in the projective chart with
    its patch row and that row's zero d/dt."""
    start, target = _blend_cases()[case]
    gamma = 0.6 + 0.8j
    rng = np.random.default_rng(8)
    n = target.nvars
    X = 0.7 * (rng.standard_normal((6, n)) + 1j * rng.standard_normal((6, n)))
    _assert_matches_blend(
        ConvexHomotopy(start, target, gamma=gamma, kernel=kernel),
        lambda X, t: _blend_oracle(start, target, gamma, X, t),
        X,
    )

    start_h, target_h = homogenized_pair(start, target)
    patch = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
    Y = 0.7 * (rng.standard_normal((6, n + 1))
               + 1j * rng.standard_normal((6, n + 1)))

    def chart(Y, t):
        res, jac, dt = _blend_oracle(start_h, target_h, gamma, Y, t)
        return (
            np.hstack([res, (Y @ patch - 1.0)[:, None]]),
            np.concatenate([jac, np.tile(patch, (len(Y), 1, 1))], axis=1),
            np.hstack([dt, np.zeros((len(Y), 1))]),
        )

    _assert_matches_blend(
        ProjectivePatchHomotopy(start_h, target_h, gamma, patch, kernel=kernel),
        chart,
        Y,
    )


def test_coefficient_homotopy_is_the_convex_homotopy():
    """One expression: same arrays from all five methods, one tape."""
    from repro.homotopy.coefficient import CoefficientHomotopy
    from repro.polyhedral.supports import (
        augment_with_origin, coefficient_system, random_coefficient_system,
        supports_of)

    target = katsura_system(3)
    supports = augment_with_origin(supports_of(target))
    _, coefficients = random_coefficient_system(
        supports, np.random.default_rng(5))
    gamma = 0.6 + 0.8j
    clear_kernel_cache()
    warm = CoefficientHomotopy(
        supports, coefficients, target, gamma=gamma, kernel="slp")
    hits = kernel_cache_info()["tape_hits"]
    convex = ConvexHomotopy(
        coefficient_system(supports, coefficients), target, gamma=gamma,
        kernel="slp")
    assert kernel_cache_info()["tape_hits"] == hits + 1
    assert convex.kernels[0].tape is warm.kernels[0].tape
    rng = np.random.default_rng(6)
    X = rng.standard_normal((5, 4)) + 1j * rng.standard_normal((5, 4))
    T = rng.random(5)
    for u, v in zip(_batch_outputs(warm, X, T), _batch_outputs(convex, X, T)):
        assert np.array_equal(u, v)


@pytest.mark.parametrize("kernel", [None, "naive", "slp"])
@pytest.mark.parametrize("build", [_cell_homotopy,
                                   lambda k, r: _coefficient_homotopy(k, r)[0]],
                         ids=["cell", "coefficient"])
def test_term_homotopy_pickle_rebinds_and_evaluates_identically(build, kernel):
    hom = build(kernel, np.random.default_rng(2))
    state = hom.__getstate__()
    assert "_kernel" not in state and "kernel_usage" not in state
    back = pickle.loads(pickle.dumps(hom))
    assert type(back) is type(hom) and back.kernel == kernel
    assert len(back.kernels) == len(hom.kernels) == (kernel is not None)
    rng = np.random.default_rng(3)
    X = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    T = rng.random(4)
    for u, v in zip(hom.evaluate_and_jacobian_batch(X, T) + hom.jacobians_batch(X, T),
                    back.evaluate_and_jacobian_batch(X, T) + back.jacobians_batch(X, T)):
        assert np.array_equal(u, v)
    if kernel is not None:  # accounted again from the arrival's binding
        assert back.kernel_usage.report()["calls"] >= 2


def test_same_structure_shares_schedules_and_differs_in_constants():
    clear_kernel_cache()
    system = katsura_system(3)
    terms = system_terms(system)
    shifted = [
        Term(t.row, t.expo, t.coeff * (1.0 + 0.5j), t.eta) for t in terms
    ]
    k1 = cached_slp_kernel(system.neqs, system.nvars, terms)
    k2 = cached_slp_kernel(system.neqs, system.nvars, shifted)
    X = np.full((2, system.nvars), 0.3 - 0.2j)
    r1, r2 = k1.evaluate(X), k2.evaluate(X)
    (sched1, K1), (sched2, K2) = k1._bound["eval"], k2._bound["eval"]
    assert sched1 is sched2 is k1.tape.program("eval")
    assert K1.shape == K2.shape and not np.array_equal(K1, K2)
    # a schedule holds index tables only: nothing complex-valued in it
    assert not any(
        np.iscomplexobj(v) for v in vars(sched1).values()
        if isinstance(v, np.ndarray)
    )
    assert np.allclose(r2, r1 * (1.0 + 0.5j))
    clear_kernel_cache()


# ---------------------------------------------------------------------------
# backend plumbing: selection, validation, naive wrapper, pickling
# ---------------------------------------------------------------------------


def test_normalize_kernel_accepts_known_backends_only():
    assert normalize_kernel(None) is None
    for name in KERNEL_BACKENDS:
        assert normalize_kernel(name) == name
    with pytest.raises(ValueError, match="unknown kernel backend"):
        normalize_kernel("cuda")


def test_naive_kernel_is_bitwise_the_seed_path():
    system = katsura_system(3)
    kernel = compile_system_kernel(system, "naive")
    assert isinstance(kernel, NaiveSystemKernel)
    X = np.random.default_rng(0).standard_normal((6, system.nvars)) + 0j
    assert np.array_equal(kernel.evaluate(X), system.evaluate_many(X))
    res_k, jac_k = kernel.evaluate_and_jacobian(X)
    res_s, jac_s = system.evaluate_and_jacobian_many(X)
    assert np.array_equal(res_k, res_s) and np.array_equal(jac_k, jac_s)
    assert kernel.stats.calls == 2 and kernel.stats.evaluations == 12


def test_convex_homotopy_pickles_and_rebinds_kernel():
    h = ConvexHomotopy(
        katsura_system(2), katsura_system(2), gamma=0.6 + 0.8j, kernel="slp"
    )
    X = np.full((3, 3), 0.3 - 0.1j)
    before = h.evaluate_and_jacobian_batch(X, 0.5)
    clone = pickle.loads(pickle.dumps(h))
    assert clone.kernel == "slp" and len(clone.kernels) == 1
    # the bound kernel is not shipped: the clone binds its coefficients
    # anew, onto the very tape the process-local cache holds
    assert clone.kernels[0] is not h.kernels[0]
    assert clone.kernels[0].tape is h.kernels[0].tape
    after = clone.evaluate_and_jacobian_batch(X, 0.5)
    assert all(np.array_equal(a, b) for a, b in zip(after, before))
    assert np.array_equal(
        clone.evaluate_batch(X, 0.5), h.evaluate_batch(X, 0.5)
    )


# ---------------------------------------------------------------------------
# memoization: structure fingerprints share tapes, coefficients key kernels
# ---------------------------------------------------------------------------


def test_kernel_memoized_by_structure_and_coefficients():
    clear_kernel_cache()
    system = katsura_system(3)
    k1 = compile_system_kernel(system, "slp")
    k2 = compile_system_kernel(system, "slp")
    assert k1 is k2
    info = kernel_cache_info()
    assert info["kernels"] == 1 and info["kernel_hits"] == 1
    # same structure, different coefficients: new kernel, shared tape
    terms = system_terms(system)
    shifted = [
        Term(t.row, t.expo, t.coeff * (1.0 + 0.5j), t.eta) for t in terms
    ]
    k3 = cached_slp_kernel(system.neqs, system.nvars, shifted)
    assert k3 is not k1 and k3.tape is k1.tape
    assert k3.stats.cache_hit and k3.stats.taping_seconds == 0.0
    clear_kernel_cache()
    assert kernel_cache_info()["kernels"] == 0


def test_cache_evicts_its_oldest_entry_past_the_cap(monkeypatch):
    monkeypatch.setattr("repro.kernels.cache.CAPACITY", 2)
    clear_kernel_cache()
    systems = [katsura_system(n) for n in (2, 3, 4)]
    for system in systems:
        compile_system_kernel(system, "slp")
    info = kernel_cache_info()
    assert info["capacity"] == 2
    assert (info["tapes"], info["tape_evictions"]) == (2, 1)
    assert (info["kernels"], info["kernel_evictions"]) == (2, 1)
    # the two newest are still held; the oldest is taped anew
    hits = [
        cached_tape(s.neqs, s.nvars, system_terms(s), False)[1]
        for s in reversed(systems)
    ]
    assert hits == [True, True, False]
    clear_kernel_cache()


def test_tape_shares_power_products_across_equations():
    # x^4 needs 3 multiplies; y*x^4 on another row reuses the whole
    # chain and adds one primal node (x^4*y) plus one AD node (x^3*y)
    # — 5 total, instead of the 7 an unshared taping would emit
    terms = [
        Term(row=0, expo=(4, 0), coeff=1.0 + 0j),
        Term(row=1, expo=(4, 1), coeff=2.0 + 0j),
    ]
    tape = build_tape(2, 2, terms)
    muls = [op for op in tape.ops if op[0] == "mul"]
    assert len(muls) == 5


# ---------------------------------------------------------------------------
# solver integration: parity, stats in SolveReport
# ---------------------------------------------------------------------------


def test_solve_scalar_batch_parity_with_slp_kernel():
    """An slp solve's front tracks every path as a one-row front of the
    same homotopy does: status and effort, row for row."""
    from repro.homotopy import make_homotopy_and_starts
    from repro.tracker import PathTracker, TrackerOptions

    report = solve(
        katsura_system(3), rng=np.random.default_rng(11), kernel="slp"
    )
    homotopy, starts = make_homotopy_and_starts(
        katsura_system(3), rng=np.random.default_rng(11), kernel="slp"
    )
    tracker = PathTracker(TrackerOptions())
    assert len(report.results) == len(starts)
    for i, row in enumerate(report.results):
        one = tracker.track(homotopy, starts[i], path_id=i)
        assert one.status == row.status
        for counter in ("steps_accepted", "steps_rejected",
                        "newton_iterations", "jacobian_evaluations"):
            assert getattr(one.stats, counter) == getattr(row.stats, counter)
        if one.success:
            assert np.max(np.abs(one.solution - row.solution)) < 1e-8


def test_solve_slp_finds_the_same_roots_as_default():
    base = solve(katsura_system(3), rng=np.random.default_rng(5))
    slp = solve(katsura_system(3), rng=np.random.default_rng(5), kernel="slp")
    assert slp.summary["success"] == base.summary["success"]
    assert slp.n_solutions == base.n_solutions
    matched = 0
    for s in slp.solutions:
        if any(np.max(np.abs(s - t)) < 1e-8 for t in base.solutions):
            matched += 1
    assert matched == base.n_solutions


def test_solve_report_carries_kernel_stats():
    report = solve(
        katsura_system(2), rng=np.random.default_rng(0), kernel="slp"
    )
    stats = report.summary["kernel"]
    assert stats["backend"] == "slp"
    assert stats["kernels"] == 1  # eq. (1) is one term list, one kernel
    assert stats["tape_ops"] > 0
    assert stats["calls"] > 0 and stats["evaluations"] >= stats["calls"]
    # the default path stays untouched: no kernel key, no accounting
    assert "kernel" not in solve(
        katsura_system(2), rng=np.random.default_rng(0)
    ).summary


def test_kernel_usage_reports_deltas_not_lifetime_counts():
    system = katsura_system(2)
    kernel = compile_system_kernel(system, "slp")
    X = np.zeros((4, system.nvars), dtype=complex)
    kernel.evaluate(X)  # pre-existing traffic
    usage = KernelUsage([kernel])
    kernel.evaluate(X)
    kernel.evaluate_and_jacobian(X)
    report = usage.report()
    assert report["calls"] == 2 and report["evaluations"] == 8
    assert report["points_per_call"] == 4.0
    assert KernelUsage([kernel]).report()["points_per_call"] == 0.0
    assert KernelUsage([]).report() is None


# ---------------------------------------------------------------------------
# polyhedral integration: parametric tapes with t^eta terms
# ---------------------------------------------------------------------------


def test_cell_homotopy_slp_matches_triplet_scatter():
    from repro.polyhedral import PolyhedralStart
    from repro.polyhedral.homotopy import CellHomotopy

    # build both backends of one cell homotopy from the same data
    ps = PolyhedralStart(cyclic_roots_system(3), np.random.default_rng(2))
    cell = ps.cells[0]
    positive = np.concatenate([e[e > 0] for e in cell.etas])
    scale = 1.0 / float(positive.min())
    etas = [
        np.where(e > 0, np.maximum(e * scale, 1.0), 0.0) for e in cell.etas
    ]
    naive = CellHomotopy(ps.subdivision.supports, ps.coefficients, etas)
    fast = CellHomotopy(
        ps.subdivision.supports, ps.coefficients, etas, kernel="slp"
    )
    rng = np.random.default_rng(0)
    X = rng.standard_normal((7, 3)) + 1j * rng.standard_normal((7, 3))
    for t in (0.0, 0.35, 1.0, 0.5 + 0.25j):  # complex t: Cauchy loops
        assert _close(naive.evaluate_batch(X, t), fast.evaluate_batch(X, t))
        rn, jn = naive.evaluate_and_jacobian_batch(X, t)
        rs, js = fast.evaluate_and_jacobian_batch(X, t)
        assert _close(rn, rs) and _close(jn, js)
        assert _close(
            naive.jacobian_t_batch(X, t), fast.jacobian_t_batch(X, t)
        )
        jxn, jtn = naive.jacobians_batch(X, t)
        jxs, jts = fast.jacobians_batch(X, t)
        assert _close(jxn, jxs) and _close(jtn, jts)


def _cell_front(kernel, ncells=5):
    """One 3-variable homotopy over ``ncells`` cells, its slacks drawn
    from ``_ETAS`` and from [1, 4); the same draws for every backend."""
    from repro.polyhedral.homotopy import CellHomotopy

    rng = np.random.default_rng(21)
    supports = [rng.integers(0, 4, (5, 3)) for _ in range(3)]
    coefficients = [
        rng.standard_normal(5) + 1j * rng.standard_normal(5) for _ in range(3)
    ]
    etas = [
        np.where(rng.random((ncells, 5)) < 0.5,
                 rng.choice(_ETAS, (ncells, 5)), 1.0 + 3.0 * rng.random((ncells, 5)))
        for _ in range(3)
    ]
    return CellHomotopy(supports, coefficients, etas, kernel=kernel)


_FRONT_TIMES = {
    "t=0": lambda rng, n: np.zeros(n),
    "t=0.35": lambda rng, n: np.full(n, 0.35),
    "t=1": lambda rng, n: np.ones(n),
    "t-per-row": lambda rng, n: rng.random(n),
    "complex-t": lambda rng, n: 1.0 - 0.3 * rng.random(n) * np.exp(
        2j * np.pi * rng.random(n)),  # Cauchy loops
}
_BATCH_METHODS = ("evaluate_batch", "jacobian_x_batch", "jacobian_t_batch",
                  "evaluate_and_jacobian_batch", "jacobians_batch")


def _outputs(homotopy, method, X, T):
    out = getattr(homotopy, method)(X, T)
    return out if isinstance(out, tuple) else (out,)


@pytest.mark.parametrize("when", sorted(_FRONT_TIMES))
@pytest.mark.parametrize("kernel", [None, "naive", "slp"])
def test_cell_front_rows_do_not_depend_on_the_batch(kernel, when):
    """Per-row time rows: a row of a front over several cells equals
    that row alone, bitwise, at every front width."""
    B = slp.BLOCK
    hom = _cell_front(kernel)
    rng = np.random.default_rng(8)
    npts = 3 * B + 5
    cells = rng.integers(0, hom.ncells, npts)
    X = rng.standard_normal((npts, 3)) + 1j * rng.standard_normal((npts, 3))
    T = _FRONT_TIMES[when](rng, npts)
    front = hom.front(cells)
    for method in _BATCH_METHODS:
        full = _outputs(front, method, X, T)
        for n in (1, B - 1, B, B + 1, 3 * B + 5):
            part = _outputs(front.restrict(np.arange(n)), method, X[:n], T[:n])
            for a, b in zip(part, full):
                assert np.array_equal(a, b[:n])
        # every row for the tracker's main call: a last-bit difference
        # (pow vs square, say) shows on few rows
        every = method == "evaluate_and_jacobian_batch"
        for i in range(npts) if every else (0, B - 1, B, 2 * B, 3 * B + 4):
            one = _outputs(hom.front([cells[i]]), method, X[i : i + 1], T[i : i + 1])
            for a, b in zip(one, full):
                assert np.array_equal(a[0], b[i])


@pytest.mark.parametrize("when", sorted(_FRONT_TIMES))
def test_cell_front_backends_agree(when):
    """Naive and SLP agree on a front over several cells, and its SLP
    rows agree with the fixed-exponent arithmetic of each row's cell."""
    from repro.kernels import TermHomotopy

    rng = np.random.default_rng(9)
    naive, fast = _cell_front("naive"), _cell_front("slp")
    npts = 40
    cells = rng.integers(0, naive.ncells, npts)
    X = rng.standard_normal((npts, 3)) + 1j * rng.standard_normal((npts, 3))
    T = _FRONT_TIMES[when](rng, npts)
    for method in _BATCH_METHODS:
        for a, b in zip(_outputs(naive.front(cells), method, X, T),
                        _outputs(fast.front(cells), method, X, T)):
            assert _close(a, b, 1e-12)
    for c in range(naive.ncells):  # the blends' scalar t ** eta path
        rows = np.flatnonzero(cells == c)
        fixed = TermHomotopy(3, [
            Term(t.row, t.expo, t.coeff, float(e))
            for t, e in zip(naive._terms, naive._slacks[:, c])
        ], "slp")
        for method in _BATCH_METHODS:
            for a, b in zip(
                _outputs(fast.front(cells[rows]), method, X[rows], T[rows]),
                _outputs(fixed, method, X[rows], T[rows]),
            ):
                assert _close(a, b, 1e-12)


@pytest.mark.parametrize("kernel", [None, "naive", "slp"])
def test_cell_front_eta_zero_rows_are_regular_at_t_zero(kernel):
    """``eta = 0`` time rows read exactly 1 and 0: ``dH/dt`` at
    ``t = 0`` is finite and equals the sum over the ``eta == 1`` terms."""
    hom = _cell_front(kernel)
    rng = np.random.default_rng(10)
    cells = np.arange(hom.ncells)
    X = rng.standard_normal((hom.ncells, 3)) + 1j * rng.standard_normal(
        (hom.ncells, 3))
    assert np.any(hom._slacks == 0.0)
    for zero in (np.zeros(hom.ncells), np.zeros(hom.ncells, dtype=complex)):
        jx, jt = hom.front(cells).jacobians_batch(X, zero)
        res = hom.front(cells).evaluate_batch(X, zero)
        assert np.all(np.isfinite(jt)) and np.all(np.isfinite(jx))
        for c in cells:
            want = np.zeros(3, dtype=complex)
            at_zero = np.zeros(3, dtype=complex)
            for t, e in zip(hom._terms, hom._slacks[:, c]):
                mono = np.prod(X[c] ** np.array(t.expo))
                want[t.row] += t.coeff * mono if e == 1.0 else 0.0
                at_zero[t.row] += t.coeff * mono if e == 0.0 else 0.0
            assert _close(jt[c], want, 1e-12)
            assert _close(res[c], at_zero, 1e-12)


def test_compile_term_kernel_accepts_naive():
    terms = [Term(0, (1, 2), 1.5 - 2j, 1.0), Term(1, (0, 1), 0.5j, 2.5),
             Term(1, (3, 0), -1.0 + 0j, 0.0), Term(0, (0, 0), 2.0 + 1j, 0.0)]
    rng = np.random.default_rng(4)
    X = rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))
    T = rng.random(5)
    fast = compile_term_kernel(2, 2, terms, "slp")
    for backend in (None, "naive"):
        naive = compile_term_kernel(2, 2, terms, backend)
        assert isinstance(naive, NaiveTermKernel) and naive.backend == "naive"
        assert _close(naive.evaluate(X, T), fast.evaluate(X, T))
        for a, b in zip(naive.evaluate_and_jacobian(X, T),
                        fast.evaluate_and_jacobian(X, T)):
            assert a.shape == b.shape and _close(a, b)
        assert _close(naive.jacobian_t(X, T), fast.jacobian_t(X, T))
        for a, b in zip(naive.jacobians(X, T), fast.jacobians(X, T)):
            assert a.shape == b.shape and _close(a, b)
        assert naive.stats.calls == 4 and naive.stats.evaluations == 20
    with pytest.raises(ValueError, match="unknown kernel backend"):
        compile_term_kernel(2, 2, terms, "fortran")


def test_polyhedral_solve_with_slp_kernel():
    base = solve(
        cyclic_roots_system(4),
        start="polyhedral",
        mode="batch",
        rng=np.random.default_rng(9),
    )
    fast = solve(
        cyclic_roots_system(4),
        start="polyhedral",
        mode="batch",
        rng=np.random.default_rng(9),
        kernel="slp",
    )
    assert fast.summary["mixed_volume"] == base.summary["mixed_volume"]
    assert fast.summary["success"] == base.summary["success"]
    stats = fast.summary["kernel"]
    # one blend kernel plus one phase-1 kernel, whatever the cell count
    assert fast.summary["n_cells"] > 1
    assert stats["kernels"] == 2 and stats["evaluations"] > 0


# ---------------------------------------------------------------------------
# sweep integration: kernel axis, journaled stats
# ---------------------------------------------------------------------------


def test_jobspec_kernel_axis_and_ids():
    from repro.sweep.spec import JobSpec, SweepSpec

    default = JobSpec("cyclic", {"n": 4}, seed=0)
    assert default.kernel == "naive"
    assert default.job_id == "cyclic-n4-s0"  # old journals stay valid
    slp = JobSpec("cyclic", {"n": 4}, seed=0, kernel="slp")
    assert slp.job_id == "cyclic-n4-slp-s0"
    assert JobSpec.from_dict(slp.to_dict()) == slp
    with pytest.raises(ValueError, match="unknown kernel"):
        JobSpec("cyclic", {"n": 4}, kernel="gpu")
    with pytest.raises(ValueError, match="no kernel backend"):
        JobSpec("pieri", {"m": 2, "p": 2, "q": 0}, kernel="slp")
    spec = SweepSpec.from_dict(
        {
            "name": "k",
            "grids": [
                {
                    "kind": "katsura",
                    "n": [3],
                    "kernel": ["naive", "slp"],
                    "seeds": [0],
                }
            ],
        }
    )
    assert spec.job_ids() == ["katsura-n3-s0", "katsura-n3-slp-s0"]


def test_run_job_journals_deterministic_kernel_stats():
    from repro.sweep.engine import run_job
    from repro.sweep.spec import JobSpec

    job = JobSpec("katsura", {"n": 3}, seed=0, kernel="slp")
    rec = run_job(job)
    stats = rec["result"]["kernel"]
    assert stats["backend"] == "slp"
    assert "taping_seconds" not in stats  # wall clock never enters journals
    assert rec == run_job(job)  # bit-for-bit reproducible record
