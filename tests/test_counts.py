"""The unified root-count layer: reports, named systems, CLI table.

Pins the paper's "why parallelism" numbers: the chain
``true count <= mixed volume <= m-homogeneous <= total degree`` on the
benchmark systems, the d(m, p, q) column for pole placement, and the
branch-and-bound ``best_partition`` agreeing with the brute-force sweep.
"""

import subprocess
import sys

import numpy as np
import pytest

from repro.homotopy import (
    best_partition,
    format_table,
    multihomogeneous_bezout,
    named_report,
    pieri_counts,
    root_counts,
    set_partitions,
)
from repro.polynomials import PolynomialSystem, variables
from repro.systems import (
    cyclic_roots_system,
    katsura_system,
    noon_system,
    rps_surrogate_system,
)


class TestBestPartitionBranchAndBound:
    """The pruned search must agree with the exhaustive one everywhere."""

    @pytest.mark.parametrize(
        "system",
        [
            cyclic_roots_system(4),
            katsura_system(4),
            noon_system(3),
            rps_surrogate_system(5, rng=np.random.default_rng(0)),
        ],
        ids=["cyclic-4", "katsura-4", "noon-3", "rps-5"],
    )
    def test_matches_brute_force(self, system):
        brute = min(
            multihomogeneous_bezout(system, p)
            for p in set_partitions(range(system.nvars))
        )
        partition, count = best_partition(system)
        assert count == brute
        assert multihomogeneous_bezout(system, partition) == count

    def test_eight_variables_stay_fast(self):
        # Bell(8) = 4140 partitions; the pruned search must finish well
        # under the old full-DP sweep's budget (tens of seconds)
        import time

        t0 = time.perf_counter()
        _, count = best_partition(cyclic_roots_system(8))
        assert count == 40320  # 8! — cyclic's best bound IS total degree
        assert time.perf_counter() - t0 < 10.0


class TestRootCountReports:
    def test_cyclic5_chain(self):
        r = root_counts(
            cyclic_roots_system(5), name="cyclic-5",
            rng=np.random.default_rng(0), known=70,
        )
        assert (r.total_degree, r.m_homogeneous, r.mixed_volume) == (120, 120, 70)
        assert r.mixed_volume == 70 == r.known
        assert r.pieri is None

    def test_skip_flags(self):
        r = root_counts(
            noon_system(3), rng=np.random.default_rng(0),
            with_m_homogeneous=False, with_mixed_volume=False,
        )
        assert r.total_degree == 27
        assert r.m_homogeneous is None and r.mixed_volume is None
        assert r.total_degree == 27

    def test_mhom_skipped_beyond_variable_budget(self):
        r = root_counts(
            cyclic_roots_system(6), rng=np.random.default_rng(0),
            max_mhom_vars=5, with_mixed_volume=False,
        )
        assert r.m_homogeneous is None and r.partition is None

    def test_non_square_rejected(self):
        x, y = variables(2)
        with pytest.raises(ValueError):
            root_counts(PolynomialSystem([x + y]))

    def test_pieri_static_case_builds_polynomial_bounds(self):
        r = pieri_counts(2, 2, 0, rng=np.random.default_rng(1))
        # the paper's headline gap: d(2,2,0) = 2 under every product bound
        assert r.pieri == r.known == 2
        assert r.total_degree is not None
        assert r.pieri <= r.mixed_volume <= r.m_homogeneous <= r.total_degree
        assert r.pieri < r.m_homogeneous

    def test_pieri_dynamic_case_keeps_count_only(self):
        r = pieri_counts(2, 2, 1, rng=np.random.default_rng(0))
        assert r.pieri == r.known == 8
        assert r.nvars == 8  # mp + q(m+p)
        assert r.total_degree is None and r.mixed_volume is None


class TestNamedReports:
    def test_named_benchmark_systems(self):
        r = named_report("noon-3", rng=np.random.default_rng(0))
        assert r.name == "noon-3" and r.mixed_volume == 21
        r = named_report("cyclic-5", rng=np.random.default_rng(0),
                         with_m_homogeneous=False)
        assert r.known == 70  # the literature count rides along

    def test_named_pieri_default_q(self):
        assert named_report("pieri-2-2").pieri == 2

    @pytest.mark.parametrize("bad", ["cubic-3", "cyclic", "cyclic-x",
                                     "pieri-2", "noon-3-4"])
    def test_malformed_specs_rejected(self, bad):
        with pytest.raises(ValueError):
            named_report(bad)


class TestTableAndCli:
    def test_format_table_alignment_and_dashes(self):
        reports = [
            named_report("noon-3", rng=np.random.default_rng(0)),
            pieri_counts(2, 2, 1),
        ]
        text = format_table(reports)
        lines = text.splitlines()
        assert lines[0].startswith("system")
        assert "noon-3" in text and "pieri-2-2-1" in text
        assert "—" in text  # the inapplicable cells
        assert len(lines) == 4  # header, rule, two system rows

    def test_cli_prints_requested_rows(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.homotopy.counts",
             "noon-3", "pieri-2-2-0", "--partitions"],
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert "noon-3" in proc.stdout and "pieri-2-2-0" in proc.stdout
        assert "21" in proc.stdout  # noon-3 mixed volume
        assert "best partition" in proc.stdout
        assert "RuntimeWarning" not in proc.stderr  # clean -m entry point

    def test_cli_rejects_unknown_system(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.homotopy.counts", "bogus-9"],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 2
        assert "unknown system kind" in proc.stderr
