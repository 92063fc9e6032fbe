"""The artifact store: atomicity, corruption fallback, warm routes.

The PR-9 correctness pins: a corrupted or missing artifact falls back
to the ab-initio solve (never a wrong answer), concurrent writers are
safe via atomic rename, and a warm Pieri query tracks exactly
``d(m, p, q)`` paths — asserted from the report itself.
"""

import dataclasses
import hashlib
import importlib
import json
import multiprocessing
import os

import numpy as np
import pytest

from repro.artifacts import (
    ArtifactStore,
    load_pieri_generic,
    load_polyhedral_start,
    load_subdivision,
    pieri_fingerprint,
    polyhedral_key,
    resolve_store,
    store_pieri_generic,
    store_polyhedral_start,
    supports_fingerprint,
    validate_lifting_seed,
)
from repro.homotopy import solve
from repro.polyhedral.supports import coefficient_system, supports_of
from repro.schubert import PieriInstance, PieriSolver, pieri_root_count
from repro.systems import cyclic_roots_system, katsura_system
from repro.tracker import TrackerOptions


# ---------------------------------------------------------------- store
class TestStore:
    def test_roundtrip(self, tmp_path):
        store = ArtifactStore(tmp_path)
        arrays = {"x": np.arange(4) + 1j, "y": np.eye(2, dtype=complex)}
        store.put("k", {"kind": "demo", "note": 7}, arrays)
        meta, loaded = store.get("k")
        assert meta["kind"] == "demo" and meta["note"] == 7
        assert meta["version"] == 1
        np.testing.assert_array_equal(loaded["x"], arrays["x"])
        np.testing.assert_array_equal(loaded["y"], arrays["y"])
        assert store.stats["stores"] == 1 and store.stats["hits"] == 1
        assert "k" in store and store.keys() == ["k"]

    def test_miss_and_bad_keys(self, tmp_path):
        store = ArtifactStore(tmp_path)
        assert store.get("absent") is None
        assert store.stats["misses"] == 1
        for bad in ("", "a/b", ".hidden"):
            with pytest.raises(ValueError):
                store.put(bad, {"kind": "x"}, {})

    def test_meta_requires_kind(self, tmp_path):
        store = ArtifactStore(tmp_path)
        with pytest.raises(ValueError):
            store.put("k", {"no": "kind"}, {})

    def test_torn_marker_reads_as_miss(self, tmp_path):
        store = ArtifactStore(tmp_path)
        # a JSON marker without its NPZ payload: writer died mid-commit
        (tmp_path / "torn.json").write_text(json.dumps({"kind": "demo"}))
        assert store.get("torn") is None
        assert store.stats["corrupt"] == 1

    def test_corrupt_payload_reads_as_miss(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put("k", {"kind": "demo"}, {"x": np.arange(3) + 0j})
        (tmp_path / "k.npz").write_bytes(b"not an npz archive")
        assert store.get("k") is None
        assert store.stats["corrupt"] == 1

    def test_corrupt_json_reads_as_miss(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put("k", {"kind": "demo"}, {"x": np.arange(3) + 0j})
        (tmp_path / "k.json").write_text('{"kind": "demo", trunca')
        assert store.get("k") is None
        assert store.stats["corrupt"] == 1

    def test_overwrite_is_atomic_replace(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put("k", {"kind": "demo", "gen": 1}, {"x": np.zeros(2) + 0j})
        store.put("k", {"kind": "demo", "gen": 2}, {"x": np.ones(2) + 0j})
        meta, arrays = store.get("k")
        assert meta["gen"] == 2
        np.testing.assert_array_equal(arrays["x"], np.ones(2) + 0j)

    def test_concurrent_writers(self, tmp_path):
        ctx = multiprocessing.get_context("spawn")
        with ctx.Pool(3) as pool:
            pool.map(_put_one, [(str(tmp_path), g) for g in range(6)])
        store = ArtifactStore(tmp_path)
        loaded = store.get("shared")
        # racing writers never leave a torn/unreadable artifact: whatever
        # interleaving happened, the committed pair parses as a complete
        # artifact from *some* writer (real callers of one key write
        # equivalent content, so any complete pair is a right answer)
        assert loaded is not None
        meta, arrays = loaded
        assert meta["kind"] == "demo" and 0 <= meta["gen"] < 6
        assert arrays["x"].shape == (256,)
        assert store.stats["corrupt"] == 0

    def test_resolve_store(self, tmp_path, monkeypatch):
        assert resolve_store(None) is None
        assert resolve_store(False) is None
        store = ArtifactStore(tmp_path)
        assert resolve_store(store) is store
        assert resolve_store(str(tmp_path / "sub")).root.exists()
        monkeypatch.delenv("REPRO_ARTIFACT_STORE", raising=False)
        assert resolve_store(True) is None
        monkeypatch.setenv("REPRO_ARTIFACT_STORE", str(tmp_path / "env"))
        assert resolve_store(True).root == tmp_path / "env"


def _put_one(args):
    root, gen = args
    store = ArtifactStore(root)
    store.put(
        "shared",
        {"kind": "demo", "gen": gen},
        {"x": np.full(256, complex(gen))},
    )
    return os.getpid()


# --------------------------------------------------------- fingerprints
class TestFingerprints:
    def test_supports_fingerprint_row_order_invariant(self):
        a = [np.array([[0, 0], [1, 0], [0, 1]])]
        b = [np.array([[0, 1], [0, 0], [1, 0]])]
        assert supports_fingerprint(a) == supports_fingerprint(b)

    def test_supports_fingerprint_distinguishes_structures(self):
        a = [np.array([[0, 0], [1, 0]])]
        b = [np.array([[0, 0], [2, 0]])]
        assert supports_fingerprint(a) != supports_fingerprint(b)

    def test_same_structure_different_coefficients_share_key(self):
        sups = [np.asarray(s) for s in supports_of(katsura_system(2))]
        rng = np.random.default_rng(0)
        sys1 = coefficient_system(
            sups, [rng.standard_normal(len(s)) + 0j for s in sups]
        )
        sys2 = coefficient_system(
            sups, [rng.standard_normal(len(s)) + 0j for s in sups]
        )
        assert polyhedral_key(sys1) == polyhedral_key(sys2)

    def test_pieri_fingerprint_shapes_distinct(self):
        keys = {
            pieri_fingerprint(m, p, q)
            for m, p, q in [(2, 2, 0), (2, 2, 1), (2, 3, 0), (3, 2, 0)]
        }
        assert len(keys) == 4


# ---------------------------------------------------------------- pieri
class TestPieriRoute:
    def test_cold_populates_then_warm_tracks_exactly_d_paths(self, tmp_path):
        store = ArtifactStore(tmp_path)
        m, p, q = 2, 2, 0
        d = pieri_root_count(m, p, q)
        cold = PieriSolver(
            PieriInstance.random(m, p, q, np.random.default_rng(0)), seed=1
        ).solve(mode="batch", cache=store)
        assert cold.cache["status"] == "cold" and cold.cache["stored"]
        assert cold.cache["key"] == pieri_fingerprint(m, p, q)
        assert pieri_fingerprint(m, p, q) in store

        query = PieriInstance.random(m, p, q, np.random.default_rng(7))
        warm = PieriSolver(query, seed=1).solve(mode="batch", cache=store)
        assert warm.cache["status"] == "warm"
        # the acceptance pin: exactly d(m, p, q) online paths, asserted
        # from the report — not the tree's sum-of-level-counts
        assert warm.cache["n_paths"] == d
        (online,) = warm.level_batches
        assert online["level"] == "online" and online["n_paths"] == d
        assert warm.n_solutions == d == warm.expected_count()

    def test_warm_matches_fresh_solve(self, tmp_path):
        store = ArtifactStore(tmp_path)
        PieriSolver(
            PieriInstance.random(2, 2, 0, np.random.default_rng(0)), seed=1
        ).solve(mode="batch", cache=store)
        query = PieriInstance.random(2, 2, 0, np.random.default_rng(5))
        warm = PieriSolver(query, seed=1).solve(mode="batch", cache=store)
        fresh = PieriSolver(query, seed=1).solve(mode="batch")
        assert warm.n_solutions == fresh.n_solutions
        fresh_flat = np.stack([s.ravel() for s in fresh.solutions])
        for w in warm.solutions:
            gap = np.min(np.max(np.abs(fresh_flat - w.ravel()), axis=1))
            assert gap < 1e-8

    def test_corrupted_artifact_falls_back_ab_initio(self, tmp_path):
        store = ArtifactStore(tmp_path)
        PieriSolver(
            PieriInstance.random(2, 2, 0, np.random.default_rng(0)), seed=1
        ).solve(mode="batch", cache=store)
        (tmp_path / f"{pieri_fingerprint(2, 2, 0)}.npz").write_bytes(b"garbage")
        query = PieriInstance.random(2, 2, 0, np.random.default_rng(5))
        report = PieriSolver(query, seed=1).solve(mode="batch", cache=store)
        # never a wrong answer: the route degrades to cold and re-stores
        assert report.cache["status"] == "cold"
        assert report.n_solutions == report.expected_count()
        assert store.stats["corrupt"] >= 1
        # the re-store healed the artifact
        assert load_pieri_generic(store, 2, 2, 0) is not None

    def test_pieri_store_roundtrip_shapes(self, tmp_path):
        store = ArtifactStore(tmp_path)
        PieriSolver(
            PieriInstance.random(2, 2, 1, np.random.default_rng(3)), seed=2
        ).solve(mode="batch", cache=store)
        instance, solutions, meta = load_pieri_generic(store, 2, 2, 1)
        d = pieri_root_count(2, 2, 1)
        assert len(solutions) == d
        assert meta["m"] == 2 and meta["p"] == 2 and meta["q"] == 1
        n = instance.problem.num_conditions
        assert len(instance.planes) == n and len(instance.points) == n
        assert load_pieri_generic(store, 3, 3, 0) is None  # other shape

    def test_duplicated_endpoint_does_not_poison_the_store(
        self, tmp_path, monkeypatch
    ):
        """Regression (found sizing PR 16): on this (2,2,2) instance a
        path of the last level jumps onto a neighbour under
        ``predictor="euler"``, and the tree solve used to return 32
        matrices with ``failures == 0`` of which two coincide.  Stored,
        it cost every warm query a root.

        A front that holds both paths now re-tracks them; one that does
        not (one edge a front, Table III's clock) books the second copy
        as a failure.  A tree solve that comes back a root short is not
        stored, and the default cubic keeps the two paths apart in the
        first place."""
        from repro.experiments.tables import _solve_edge_by_edge

        rng = np.random.default_rng([0, 2])
        seed = int(rng.integers(2**31))
        instance = PieriInstance.random(2, 2, 2, rng)
        euler = dataclasses.replace(
            PieriSolver.DEFAULT_OPTIONS, predictor="euler"
        )
        store = ArtifactStore(tmp_path / "edge_by_edge")
        # the cold tree solve handed one edge a front
        monkeypatch.setattr(PieriSolver, "_solve_tree", _solve_edge_by_edge)
        cold = PieriSolver(instance, options=euler, seed=seed).solve(
            cache=store
        )
        monkeypatch.undo()
        assert cold.failures == 1 and cold.n_solutions == 31
        assert cold.all_distinct()
        assert cold.cache["status"] == "cold"
        assert cold.cache["stored"] is False
        assert store.keys() == []
        # a bundle written before the guard existed loads as corrupt
        store_pieri_generic(
            store,
            instance,
            cold.solutions + cold.solutions[:1],
            cold.jobs_per_level,
        )
        assert load_pieri_generic(store, 2, 2, 2) is None
        assert store.stats["corrupt"] == 1
        # ... and the next query is served cold, not a root short
        query = PieriInstance.random(2, 2, 2, np.random.default_rng(5))
        report = PieriSolver(query, seed=1).solve(mode="batch", cache=store)
        assert report.cache["status"] == "cold"
        # the level-wide front sees both paths and separates them
        wide = PieriSolver(instance, options=euler, seed=seed).solve(
            mode="batch", cache=ArtifactStore(tmp_path / "batch")
        )
        assert wide.failures == 0 and wide.n_solutions == 32
        assert wide.level_batches[-1]["collisions"] == 2
        assert wide.cache["stored"] is True
        # the mirror: the default solve of the same instance closes
        clean = ArtifactStore(tmp_path / "default")
        default = PieriSolver(instance, seed=seed).solve(
            mode="batch", cache=clean
        )
        assert default.failures == 0 and default.n_solutions == 32
        assert default.all_distinct()
        assert default.effort("collisions") == 0
        assert default.cache["stored"] is True
        assert len(clean.keys()) == 1


# ----------------------------------------------------------- polyhedral
class TestPolyhedralRoute:
    def _family(self, seed=42, target=None):
        target = cyclic_roots_system(4) if target is None else target
        sups = [np.asarray(s) for s in supports_of(target)]
        rng = np.random.default_rng(seed)
        coeffs = [
            rng.standard_normal(len(s)) + 1j * rng.standard_normal(len(s))
            for s in sups
        ]
        return target, coefficient_system(sups, coeffs)

    def test_cold_populates_then_warm_skips_phase1(self, tmp_path):
        store = ArtifactStore(tmp_path)
        target, query = self._family()
        cold = solve(target, start="polyhedral", mode="batch",
                     rng=np.random.default_rng(0), cache=store)
        assert cold.summary["cache"]["status"] == "cold"
        assert cold.summary["cache"]["stored"]
        assert cold.summary["lifting_seed"] is not None

        warm = solve(query, start="polyhedral", mode="batch",
                     rng=np.random.default_rng(1), cache=store)
        assert warm.summary["cache"]["status"] == "warm"
        # warm paths == mixed volume, and the summary still reports the
        # cached subdivision's facts (including the journaled seed)
        assert warm.summary["cache"]["n_paths"] == warm.summary["mixed_volume"]
        assert warm.summary["mixed_volume"] == cold.summary["mixed_volume"]
        assert warm.summary["lifting_seed"] == cold.summary["lifting_seed"]
        assert warm.summary["phase1_failures"] == 0

    def test_warm_matches_fresh(self, tmp_path):
        store = ArtifactStore(tmp_path)
        target, query = self._family()
        solve(target, start="polyhedral", mode="batch",
              rng=np.random.default_rng(0), cache=store)
        warm = solve(query, start="polyhedral", mode="batch",
                     rng=np.random.default_rng(1), cache=store)
        fresh = solve(query, start="polyhedral", mode="batch",
                      rng=np.random.default_rng(1))
        assert "cache" not in fresh.summary
        self._assert_same_roots(warm, fresh)

    @staticmethod
    def _assert_same_roots(report, reference):
        assert len(report.solutions) == len(reference.solutions)
        flat = np.stack([s.ravel() for s in reference.solutions])
        for w in report.solutions:
            assert np.min(np.max(np.abs(flat - w.ravel()), axis=1)) < 1e-8

    @pytest.mark.parametrize("family", [cyclic_roots_system, katsura_system])
    def test_warm_route_threads_the_kernel(self, tmp_path, family):
        """``solve(kernel=)`` reaches the coefficient homotopy (it was
        dropped: a warm hit had no ``"kernel"`` entry, a cold one did)."""
        store = ArtifactStore(tmp_path)
        target, query = self._family(target=family(4))
        cold = solve(target, start="polyhedral", mode="batch",
                     rng=np.random.default_rng(0), cache=store)
        assert cold.summary["cache"]["stored"]
        fresh = solve(query, start="polyhedral", mode="batch",
                      rng=np.random.default_rng(1))
        for kernel in (None, "naive", "slp"):
            warm = solve(query, start="polyhedral", mode="batch", kernel=kernel,
                         rng=np.random.default_rng(1), cache=store)
            assert warm.summary["cache"]["status"] == "warm"
            if kernel is None:
                assert "kernel" not in warm.summary
            else:
                assert warm.summary["kernel"]["backend"] == kernel
                assert warm.summary["kernel"]["evaluations"] > 0
            self._assert_same_roots(warm, fresh)

    def test_corrupted_endpoints_fall_back_ab_initio(self, tmp_path):
        store = ArtifactStore(tmp_path)
        target, query = self._family()
        solve(target, start="polyhedral", mode="batch",
              rng=np.random.default_rng(0), cache=store)
        key = polyhedral_key(query)
        # poison the cached endpoints with parseable-but-wrong numbers:
        # shape checks pass, the residual check must catch it
        meta, arrays = store.get(key)
        arrays["starts"] = np.full_like(arrays["starts"], 123.0)
        store.put(key, meta, arrays)
        report = solve(query, start="polyhedral", mode="batch",
                       rng=np.random.default_rng(1), cache=store)
        assert report.summary["cache"]["status"] == "cold"
        assert report.summary["success"] == report.summary["mixed_volume"]

    def test_colliding_starts_are_not_stored(self, tmp_path, monkeypatch):
        """Phase 1 can report no failure and still land two paths on one
        endpoint; such a start set must never reach the store."""
        solve_mod = importlib.import_module("repro.homotopy.solve")
        real = solve_mod._polyhedral_start
        seen = {}

        def doubled(*args, **kwargs):
            poly_start, starts = real(*args, **kwargs)
            starts[1] = starts[0] + 1e-9
            seen["poly_start"], seen["starts"] = poly_start, starts
            return poly_start, starts

        monkeypatch.setattr(solve_mod, "_polyhedral_start", doubled)
        store = ArtifactStore(tmp_path)
        target, _ = self._family()
        cold = solve(target, start="polyhedral", mode="batch",
                     rng=np.random.default_rng(0), cache=store)
        assert cold.summary["phase1_failures"] == 0
        assert cold.summary["cache"]["status"] == "cold"
        assert cold.summary["cache"]["stored"] is False
        assert store.keys() == [] and store.stats["stores"] == 0
        # the policy is the store function's own: a doubled-up and a
        # short start set are both declined, a clean one goes in
        poly_start, starts = seen["poly_start"], seen["starts"]
        for bad in (starts, starts[:-1]):
            assert store_polyhedral_start(store, target, poly_start, bad) is None
        assert store.keys() == []
        starts[1] = starts[0] + 1.0
        key = store_polyhedral_start(store, target, poly_start, starts)
        assert store.keys() == [key]

    def test_colliding_stored_starts_are_served_cold(self, tmp_path):
        store = ArtifactStore(tmp_path)
        target, query = self._family()
        solve(target, start="polyhedral", mode="batch",
              rng=np.random.default_rng(0), cache=store)
        key = polyhedral_key(query)
        # a bundle written before the guard existed: every start still
        # solves the generic system, but two of them coincide
        meta, arrays = store.get(key)
        arrays["starts"][1] = arrays["starts"][0]
        store.put(key, meta, arrays)
        report = solve(query, start="polyhedral", mode="batch",
                       rng=np.random.default_rng(1), cache=store)
        assert store.stats["corrupt"] == 1
        assert report.summary["cache"]["status"] == "cold"
        assert report.summary["success"] == report.summary["mixed_volume"]

    def test_structure_mismatch_reads_as_miss(self, tmp_path):
        store = ArtifactStore(tmp_path)
        target, query = self._family()
        solve(target, start="polyhedral", mode="batch",
              rng=np.random.default_rng(0), cache=store)
        other = katsura_system(3)
        assert load_polyhedral_start(store, other) is None

    def test_subdivision_and_lifting_seed_roundtrip(self, tmp_path):
        store = ArtifactStore(tmp_path)
        target, _ = self._family()
        cold = solve(target, start="polyhedral", mode="batch",
                     rng=np.random.default_rng(0), cache=store)
        sub = load_subdivision(store, target)
        assert sub is not None
        assert sub.mixed_volume == cold.summary["mixed_volume"]
        assert sub.lifting_seed == cold.summary["lifting_seed"]
        # the journaled seed really reproduces the stored lifting
        assert validate_lifting_seed(store, target) is True


class TestWarmRouteGuess:
    """A warm polyhedral hit tracks with ``homotopy.solve.WARM_OPTIONS``
    (the cubic guess) unless the caller passes ``options`` or
    ``predictor``, and its FAILED rows climb the re-track ladder under
    any guess.  Counters only: one cold cyclic-5 solve fills the store,
    then six random-coefficient queries on its supports run each way."""

    QUERIES = 6
    #: summed kernel calls, default over explicit Euler; 2 120 / 3 089 =
    #: 0.686 measured, 1.0 when the warm route tracks with Euler
    CALLS_CEILING = 0.80
    #: sha256 (first 16 hex digits) of the concatenated solutions of the
    #: six queries under explicit Euler, the same before the warm route
    #: had a default of its own
    EULER_HASH = "86281046fb12812d"

    @pytest.fixture(scope="class")
    def warm(self, tmp_path_factory):
        store = ArtifactStore(tmp_path_factory.mktemp("warm"))
        target = cyclic_roots_system(5)
        cold = solve(target, start="polyhedral", kernel="slp", mode="batch",
                     cache=store, rng=np.random.default_rng(0))
        assert cold.summary["cache"]["stored"]
        sups = [np.asarray(s) for s in supports_of(target)]
        queries = []
        for q in range(self.QUERIES):
            rng = np.random.default_rng(100 + q)
            coeffs = [rng.standard_normal(len(s)) + 1j * rng.standard_normal(len(s))
                      for s in sups]
            queries.append(coefficient_system(sups, coeffs))

        def run(q, **kwargs):
            report = solve(queries[q], start="polyhedral", kernel="slp",
                           mode="batch", cache=store,
                           rng=np.random.default_rng(q), **kwargs)
            assert report.summary["cache"]["status"] == "warm"
            return report

        return run

    @pytest.fixture(scope="class")
    def both(self, warm):
        return ([warm(q) for q in range(self.QUERIES)],
                [warm(q, predictor="euler") for q in range(self.QUERIES)])

    def test_default_is_cubic_and_the_caller_wins(self, warm, both):
        default, euler = both
        for rep in default:
            assert rep.summary["predictor"] == "cubic"
            assert rep.summary["options"]["predictor"] == "cubic"
        for rep in euler + [warm(0, options=TrackerOptions())]:
            assert rep.summary["predictor"] == "euler"
            assert rep.summary["options"]["predictor"] == "euler"

    def test_same_roots_at_fewer_kernel_calls(self, both):
        default, euler = both
        for cubic_rep, euler_rep in zip(default, euler):
            assert len(cubic_rep.solutions) == len(euler_rep.solutions) == 70
            pool = list(cubic_rep.solutions)
            for x in euler_rep.solutions:  # greedy nearest-neighbour pairing
                dists = [np.max(np.abs(x - y)) for y in pool]
                k = int(np.argmin(dists))
                assert dists[k] < 1e-8
                pool.pop(k)
        calls = [sum(rep.summary["kernel"]["calls"] for rep in side)
                 for side in (default, euler)]
        assert calls[0] <= self.CALLS_CEILING * calls[1], calls

    def test_explicit_euler_is_the_seed_route_bit_for_bit(self, both):
        _, euler = both
        assert all(rep.summary["failed"] == 0 for rep in euler)
        digest = hashlib.sha256()
        for rep in euler:
            for x in rep.solutions:
                digest.update(x.tobytes())
        assert digest.hexdigest()[:16] == self.EULER_HASH

    def test_failed_rows_of_a_warm_hit_climb_the_ladder(self, warm):
        # 20 steps strand about half the Euler paths; each rung allows
        # four times the steps of the one below it
        report = warm(0, options=TrackerOptions(max_steps=20))
        assert report.summary["predictor"] == "euler"
        assert report.summary["fallback_retracked"] > 0
        assert report.summary["failed"] == 0
        assert len(report.solutions) == 70
