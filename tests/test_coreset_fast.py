"""Algorithm 2 (RelClusteringFast): coreset quality and mechanics."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clustering.cost import weighted_cost
from repro.core.coreset_fast import (
    TAU,
    Coreset,
    build_coreset_fast,
    cluster_coreset,
    phi_scale,
)
from repro.geometry.grid import GridParams, candidate_cells_from_points, cell_corners, condition3


def planted_pool(seed=0, n=4000, k=3, d=2, sep=5.0, sigma=0.3):
    g = np.random.default_rng(seed)
    centers = g.normal(scale=sep, size=(k, d))
    P = centers[g.integers(0, k, n)] + g.normal(scale=sigma, size=(n, d))
    return P, centers


class TestPhiScale:
    def test_median(self):
        assert phi_scale(100.0, 2.0, 50, "median") == pytest.approx(1.0)

    def test_means_sqrt(self):
        assert phi_scale(100.0, 2.0, 50, "means") == pytest.approx(1.0)
        assert phi_scale(400.0, 2.0, 50, "means") == pytest.approx(2.0)

    def test_no_zero_division(self):
        assert phi_scale(0.0, 2.0, 50, "median") > 0


@pytest.mark.parametrize("objective", ["median", "means"])
class TestCoresetQuality:
    def test_total_weight_is_n(self, objective):
        """Each pool point contributes exactly once → Σw = n."""
        P, X = planted_pool(1)
        n = 100_000
        r = weighted_cost(P, X, None, objective) * (n / len(P))
        C = build_coreset_fast(P, n, X, 2.0, r, 0.5, objective)
        assert C.total_weight == pytest.approx(n, rel=1e-9)

    def test_eps_coreset_property(self, objective):
        """For arbitrary center sets Y, cost on C ≈ cost on the pool (×n/|pool|)."""
        P, X = planted_pool(2)
        n = 50_000
        scale = n / len(P)
        r = weighted_cost(P, X, None, objective) * scale
        C = build_coreset_fast(P, n, X, 2.0, r, 0.25, objective)
        g = np.random.default_rng(0)
        for trial in range(6):
            Y = g.normal(scale=5.0, size=(3, 2))
            exact = weighted_cost(P, Y, None, objective) * scale
            approx = weighted_cost(C.points, Y, C.weights, objective)
            assert abs(approx - exact) <= 0.35 * exact, (trial, approx, exact)

    def test_smaller_eps_gives_bigger_coreset(self, objective):
        P, X = planted_pool(3)
        n = 10_000
        r = weighted_cost(P, X, None, objective) * (n / len(P))
        c_coarse = build_coreset_fast(P, n, X, 2.0, r, 1.0, objective)
        c_fine = build_coreset_fast(P, n, X, 2.0, r, 0.1, objective)
        assert len(c_fine) > len(c_coarse)

    def test_coreset_much_smaller_than_pool(self, objective):
        P, X = planted_pool(4, n=8000)
        n = 8000
        r = weighted_cost(P, X, None, objective)
        C = build_coreset_fast(P, n, X, 2.0, r, 1.0, objective)
        assert len(C) < len(P) / 4

    def test_points_come_from_pool(self, objective):
        P, X = planted_pool(5, n=500)
        r = weighted_cost(P, X, None, objective)
        C = build_coreset_fast(P, 500, X, 2.0, r, 0.5, objective)
        pool_set = {tuple(p) for p in np.round(P, 9)}
        for p in np.round(C.points, 9):
            assert tuple(p) in pool_set


class TestHeavyLight:
    def test_light_mass_appended_at_the_constants(self):
        """Light cells leave pool points unclaimed; each is appended with
        weight n/|pool|, so the coreset keeps all of the mass."""
        P, X = planted_pool(7, n=8000)  # seed 7: some light points stay unclaimed
        r = weighted_cost(P, X, None, "median")
        C = build_coreset_fast(P, 8000, X, 2.0, r, 1.0, "median")
        info = C.info
        assert info["n_light"] > 0 and info["unclaimed_frac"] > 0
        assert info["n_cells"] == info["n_heavy"] + info["n_light"] + info["n_skipped_cond3"]
        assert len(C) == info["n_heavy"] + round(info["unclaimed_frac"] * len(P))
        assert C.total_weight == pytest.approx(8000, rel=1e-9)

    def test_condition3_skips_far_cells(self):
        """A far-away center's distant cells fail condition (3)."""
        g = np.random.default_rng(10)
        P = g.normal(size=(1000, 2))  # all mass near origin
        X = np.array([[0.0, 0.0], [50.0, 50.0]])
        r = weighted_cost(P, X, None, "median")
        C = build_coreset_fast(P, 1000, X, 2.0, r, 0.5, "median")
        assert C.info["n_skipped_cond3"] > 0


def build_and_cluster(P, n, X0, r, k, objective, *, discrete=False, rng=None):
    """Algorithm 2 at one node: the coreset of the pool, then its clustering."""
    C = build_coreset_fast(P, n, X0, 2.0, r, 0.5, objective)
    S, r_u = cluster_coreset(C, k, 0.5, objective, discrete=discrete, rng=rng)
    return S, r_u, C


class TestRelClusteringFast:
    @pytest.mark.parametrize("objective", ["median", "means"])
    def test_near_optimal_on_planted(self, objective):
        P, X0 = planted_pool(11, n=5000, sep=8.0)
        n = 5000
        from repro.clustering import cluster

        S_direct, cost_direct = cluster(P, None, 3, objective, rng=np.random.default_rng(0))
        r = weighted_cost(P, X0, None, objective)
        S, r_u, C = build_and_cluster(P, n, X0, r, 3, objective, rng=np.random.default_rng(0))
        cost = weighted_cost(P, S, None, objective)
        assert cost <= 1.3 * cost_direct
        assert len(S) == 3

    def test_r_u_upper_bounds_cost(self):
        P, X0 = planted_pool(12, n=3000)
        r = weighted_cost(P, X0, None, "median")
        S, r_u, C = build_and_cluster(P, 3000, X0, r, 3, "median")
        cost = weighted_cost(P, S, None, "median")
        assert r_u >= cost * 0.95  # r_u certifies the cost (up to sampling noise)

    def test_r_u_is_inflated_coreset_cost(self):
        P, X0 = planted_pool(12, n=3000)
        r = weighted_cost(P, X0, None, "median")
        S, r_u, C = build_and_cluster(P, 3000, X0, r, 3, "median")
        assert r_u == pytest.approx(1.5 * weighted_cost(C.points, S, C.weights, "median"))

    def test_discrete_centers_from_pool(self):
        P, X0 = planted_pool(13, n=800)
        r = weighted_cost(P, X0, None, "means")
        S, _, _ = build_and_cluster(P, 800, X0, r, 2, "means", discrete=True)
        pool_set = {tuple(p) for p in np.round(P, 9)}
        for s in np.round(S, 9):
            assert tuple(s) in pool_set

    def test_coreset_dataclass(self):
        c = Coreset(np.zeros((2, 1)), np.array([1.0, 2.0]))
        assert len(c) == 2
        assert c.total_weight == 3.0


def reference_build_coreset_fast(pool, n_total, X, alpha, r, eps_prime, objective):
    """Algorithm 2's grid pass one cell at a time, in processing order (the
    loop ``build_coreset_fast`` replaces with per-center array work)."""
    pool = np.atleast_2d(np.asarray(pool, dtype=np.float64))
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    params = GridParams(phi_scale(r, alpha, n_total, objective), eps_prime, alpha, pool.shape[1])
    j_cap = params.max_level(n_total)
    claimed = np.zeros(len(pool), dtype=bool)
    reps, wts = [], []
    n_cells = n_light = n_skipped = 0
    per_point_w = n_total / max(len(pool), 1)
    for i in range(len(X)):
        levels, coords, order, starts = candidate_cells_from_points(
            X[i], pool, np.arange(len(pool)), params, j_cap
        )
        members = np.split(order, starts[1:]) if len(starts) else []
        ok = condition3(X, i, *cell_corners(X[i], levels, coords, params))
        n_cells += len(members)
        n_skipped += int((~ok).sum())
        for m, keep in zip(members, ok):
            if not keep:
                continue
            un = m[~claimed[m]]
            g = len(un)
            if g >= 1 and g / len(m) >= 2 * TAU:
                reps.append(un[0])
                wts.append(g * per_point_w)
                claimed[un] = True
            else:
                n_light += 1
    unclaimed = np.flatnonzero(~claimed)
    info = {
        "n_cells": n_cells,
        "n_heavy": len(reps),
        "n_light": n_light,
        "n_skipped_cond3": n_skipped,
        "unclaimed_frac": len(unclaimed) / max(len(pool), 1),
        "phi": params.phi,
        "j_cap": j_cap,
    }
    return Coreset(
        pool[np.r_[np.asarray(reps, dtype=np.int64), unclaimed]],
        np.r_[np.asarray(wts, dtype=np.float64), np.full(len(unclaimed), per_point_w)],
        info,
    )


class TestMatchesReferenceLoop:
    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        d=st.integers(1, 3),
        size=st.integers(0, 400),
        m=st.integers(1, 10),
        dup=st.booleans(),
        objective=st.sampled_from(["median", "means"]),
        eps=st.sampled_from([0.1, 0.5, 1.0]),
        r_scale=st.sampled_from([1e-3, 1.0, 1e3]),
    )
    def test_bit_identical(self, seed, d, size, m, dup, objective, eps, r_scale):
        """Points, weights and info equal the per-cell loop's exactly, with
        duplicate pool points, 1–10 centers and empty pools."""
        g = np.random.default_rng(seed)
        pool = g.normal(scale=3.0, size=(size, d)).round(1 if dup else 12)
        if dup and size:
            pool = pool[g.integers(0, size, size)]
        X = g.normal(scale=3.0, size=(m, d))
        n = 50 * max(size, 1)
        r = r_scale * max(weighted_cost(pool, X, None, objective), 1e-9) if size else r_scale
        got = build_coreset_fast(pool, n, X, 2.0, r, eps, objective)
        want = reference_build_coreset_fast(pool, n, X, 2.0, r, eps, objective)
        assert np.array_equal(got.points, want.points)
        assert np.array_equal(got.weights, want.weights)
        assert got.info == want.info
