import numpy as np
import pytest

import powerflow as pf
from powerflow.errors import (
    DimensionTooSmallError,
    FamilyParameterRequiredError,
    NoConvergenceError,
    StructureMismatchError,
)

import nets
from nets import run_cli


class TestFixedPointResidual:
    def test_vertex_is_exact(self):
        C = nets.three_node()
        assert pf.fixed_point_residual(C, [0.0, 0.0, 1.0]) == 0.0

    def test_uniform_on_doubly_stochastic(self):
        C = pf.build_doubly_stochastic_random(3, seed=2)
        assert pf.fixed_point_residual(C, np.full(3, 1.0 / 3.0)) < 1e-15

    def test_interior_point_of_star_is_not_fixed(self):
        assert pf.fixed_point_residual(nets.star3(), [0.5, 0.3, 0.2]) > 1e-3


class TestSolveInteriorEquilibrium:
    def test_uniform_centrality(self):
        x = pf.solve_interior_equilibrium(np.full(3, 1.0 / 3.0), 1.0)
        assert np.allclose(x, 1.0 / 3.0, atol=1e-12)

    def test_uniform_centrality_partial_mass(self):
        x = pf.solve_interior_equilibrium(np.full(3, 1.0 / 3.0), 0.6)
        assert np.allclose(x, 0.2, atol=1e-12)

    def test_three_node_ordering_and_accumulation(self):
        c = nets.THREE_NODE_CENTRALITY
        x = pf.solve_interior_equilibrium(c, 1.0)
        assert x[0] > x[1] > x[2]
        ratios = x / c
        assert ratios[0] > ratios[1] > ratios[2]
        assert pf.fixed_point_residual(nets.three_node(), x) < 10 * pf.EPS_EQUILIBRIUM
        # the implied scalar agrees across coordinates
        alphas = x * (1.0 - x) / c
        assert alphas.max() - alphas.min() < 10 * pf.EPS_EQUILIBRIUM

    def test_matches_simulation(self):
        C = nets.three_node()
        c = pf.dominant_left_eigenvector(C.entries)
        x = pf.solve_interior_equilibrium(c, 1.0)
        limit = pf.simulate("st", C, np.array([0.25, 0.35, 0.4])).final_state
        assert np.max(np.abs(x - limit)) < 1e-6

    def test_star_centrality_at_full_mass_is_the_vertex(self):
        # c_top is 1/2 up to rounding: the only root is the centre's vertex
        c = pf.dominant_left_eigenvector(pf.build_star(10).entries)
        x = pf.solve_interior_equilibrium(c, 1.0)
        assert 0.0 <= 1.0 - x[0] <= 4 * EPS
        assert np.all((x[1:] >= 0.0) & (x[1:] <= 4 * EPS))

    def test_star_centrality_solvable_at_partial_mass(self):
        c = pf.dominant_left_eigenvector(pf.build_star(5).entries)
        x = pf.solve_interior_equilibrium(c, 0.5)
        assert x.sum() == pytest.approx(0.5, abs=1e-12)
        alphas = x * (1.0 - x) / c
        assert alphas.max() - alphas.min() < 10 * pf.EPS_EQUILIBRIUM

    def test_pair_closed_form(self):
        assert np.allclose(
            pf.solve_interior_equilibrium(np.array([0.5, 0.5]), 0.6), [0.3, 0.3]
        )

    def test_pair_with_full_mass_is_a_family(self):
        with pytest.raises(FamilyParameterRequiredError):
            pf.solve_interior_equilibrium(np.array([0.5, 0.5]), 1.0)

    @pytest.mark.parametrize(
        "m", [1e-300, 1e-12, *np.linspace(0.0, 1.0, 41)[1:-1], 1.0 - 1e-11,
              float(np.nextafter(1.0 - 1e-12, 0.0))],
    )
    def test_pair_is_the_even_split_bit_for_bit(self, m):
        # assemble_multisink_equilibrium rests on this for its two-node sinks
        x = pf.solve_interior_equilibrium(np.array([0.5, 0.5]), m)
        assert np.array_equal(x, np.full(2, m / 2.0))

    def test_too_small(self):
        with pytest.raises(DimensionTooSmallError):
            pf.solve_interior_equilibrium(np.array([1.0]), 1.0)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            pf.solve_interior_equilibrium(np.array([0.7, 0.2, 0.3]), 1.0)
        with pytest.raises(ValueError):
            pf.solve_interior_equilibrium(np.full(3, 1.0 / 3.0), 0.0)

    def test_ties_in_centrality_give_ties_in_power(self):
        c = np.array([0.3, 0.3, 0.2, 0.2])
        x = pf.solve_interior_equilibrium(c, 1.0)
        assert abs(x[0] - x[1]) < 10 * pf.EPS_TIE
        assert abs(x[2] - x[3]) < 10 * pf.EPS_TIE
        assert x[0] > x[2]


EPS = np.finfo(float).eps


def hub(n, c_top):
    """Centrality of one hub scoring c_top and n - 1 equal others."""
    c = np.full(n, (1.0 - c_top) / (n - 1))
    c[0] = c_top
    return c


def random_scores(rng, n):
    c = rng.exponential(1.0, n) ** rng.uniform(0.5, 3.0)
    return c / c.sum()


def fixed_point_loop(c, m, eps=1e-13, budget=10**5):
    """The power reallocation iteration x <- m y / sum(y), y = c / (1 - x),
    stopped once a step is below eps: the equilibrium solver of earlier
    releases, kept as a reference.  Returns the iterate and the loop's own
    error estimate 2 delta rho / (1 - rho) + 1e-14, from its last step
    delta and contraction rate rho, or None when the budget runs out."""
    x = m * c
    previous = None
    for _ in range(budget):
        y = c / (1.0 - x)
        x_new = m * (y / y.sum())
        delta = float(np.max(np.abs(x_new - x)))
        if delta < eps:
            rate = delta / previous if previous else 0.0
            return x_new, 2.0 * delta * rate / (1.0 - rate) + 1e-14
        x, previous = x_new, delta
    return None


def root_function(c, m, s):
    """F(s) = s + sum_(i != top) x_i(s) - m on an array of s, with every
    other coordinate on the minus branch of x (1 - x) = s (1 - s) c_i / c_top."""
    top = int(np.argmax(c))
    r = np.delete(c, top) / c[top]
    q = (s * (1.0 - s))[:, None] * r
    return s - m + np.sum(2.0 * q / (1.0 + np.sqrt(1.0 - 4.0 * q)), axis=1)


class TestBracketedRoot:
    @pytest.mark.parametrize("n", [3, 10, 200])
    @pytest.mark.parametrize(
        "c_top",
        [0.3, 0.45, 0.49, 0.499, 0.4999, 0.49999, 0.5 - 1e-7, 0.5 - 1e-9,
         0.5 - 1e-11, float(np.nextafter(0.5 - 1e-12, 0.0)), 0.5 - 1e-13,
         0.5 - 1e-14],
    )
    def test_hub_closed_form(self, n, c_top):
        # x_top (1 - x_top) / c_top = x_2 (1 - x_2) / c_2 with
        # x_2 = (1 - x_top) / (n - 1) gives 1 - x_top in closed form
        x = pf.solve_interior_equilibrium(hub(n, c_top), 1.0)
        gap = (1.0 - 2.0 * c_top) / ((1.0 - c_top) - c_top / (n - 1))
        bound = 100 * EPS / (1.0 - 2.0 * c_top)
        assert abs((1.0 - x[0]) - gap) <= bound * gap
        assert abs(x[1] - gap / (n - 1)) <= bound * gap / (n - 1)

    def test_agrees_with_the_fixed_point_loop(self):
        rng = np.random.default_rng(2024)
        checked = 0
        for trial in range(300):
            n = int(rng.integers(3, 40))
            c = random_scores(rng, n)
            m = float(rng.uniform(0.05, 1.0)) if trial % 3 else 1.0
            if m == 1.0 and c.max() >= 0.5 - 1e-12:
                continue
            reference = fixed_point_loop(c, m)
            if reference is None:
                continue
            x_loop, loop_error = reference
            x = pf.solve_interior_equilibrium(c, m)
            assert np.max(np.abs(x - x_loop)) <= loop_error
            checked += 1
        assert checked > 250

    def test_root_function_is_concave_with_one_sign_change(self):
        # the docstring's uniqueness argument, checked on a grid
        rng = np.random.default_rng(8)
        s = np.linspace(0.0, 1.0, 20001)[1:-1]
        for trial in range(60):
            n = int(rng.integers(2, 30))
            c = random_scores(rng, n)
            m = 1.0 if trial % 4 == 0 else float(rng.uniform(0.01, 1.0))
            if m == 1.0 and (n == 2 or c.max() >= 0.49):
                continue
            F = root_function(c, m, s)
            assert np.max(np.diff(F, 2)) <= 1e-14
            changes = np.flatnonzero(np.diff(np.sign(F)) != 0)
            assert changes.size == 1
            x_top = pf.solve_interior_equilibrium(c, m).max()
            assert s[changes[0]] <= x_top <= s[changes[0] + 1]

    @pytest.mark.parametrize("m", [0.05, 0.3, 0.7, 0.99, 1.0 - 1e-9])
    def test_sub_unit_masses(self, m):
        rng = np.random.default_rng(int(m * 1000))
        for n in (2, 3, 7, 40):
            for c in (random_scores(rng, n), hub(n, 0.8)):
                x = pf.solve_interior_equilibrium(c, m)
                assert np.all((x > 0.0) & (x < m))
                assert abs(x.sum() - m) <= 4 * EPS
                alphas = x * (1.0 - x) / c
                assert alphas.max() - alphas.min() <= 1e-14

    @pytest.mark.parametrize("n", [2, 3, 7, 100])
    @pytest.mark.parametrize("m", [0.25, 0.6, 1.0])
    def test_uniform_centrality_gives_mass_over_n(self, n, m):
        if n == 2 and m == 1.0:
            return  # the two-node family
        x = pf.solve_interior_equilibrium(np.full(n, 1.0 / n), m)
        assert np.all(np.abs(x - m / n) <= 2 * np.spacing(m / n))
        assert np.all(x == x[0])

    def test_tied_scores_give_identical_powers(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            levels = random_scores(rng, int(rng.integers(2, 6)))
            c = rng.choice(levels, size=int(rng.integers(4, 30)))
            c /= c.sum()
            m = 1.0 if c.max() < 0.49 else 0.8
            x = pf.solve_interior_equilibrium(c, m)
            for value in np.unique(c):
                assert np.all(x[c == value] == x[c == value][0])

    def test_power_ordering_follows_centrality(self):
        rng = np.random.default_rng(6)
        for trial in range(60):
            c = random_scores(rng, int(rng.integers(3, 60)))
            m = 1.0 if trial % 2 and c.max() < 0.49 else float(rng.uniform(0.1, 1.0))
            x = pf.solve_interior_equilibrium(c, m)
            order = np.argsort(c, kind="stable")
            assert np.all(np.diff(x[order]) >= 0.0)
            # strictly, with power accumulating at the top, where scores differ
            distinct = np.diff(c[order]) > 1e-9
            assert np.all(np.diff(x[order])[distinct] > 0.0)
            assert np.all(np.diff((x / c)[order])[distinct] > 0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_scores(self, bad):
        with pytest.raises(ValueError, match="finite"):
            pf.solve_interior_equilibrium(np.array([bad, 0.5, 0.5]), 1.0)

    def test_residual_gate(self):
        c = random_scores(np.random.default_rng(3), 12)
        with pytest.raises(NoConvergenceError) as info:
            pf.solve_interior_equilibrium(c, 0.7, eps=1e-300)
        assert 0.0 < info.value.residual <= 1e-15
        x = pf.solve_interior_equilibrium(c, 0.7, eps=info.value.residual)
        assert abs(x.sum() - 0.7) <= info.value.residual


def near_star_file(path, delta, n=10):
    """The network nets.near_star(n, delta), written to `path`."""
    pf.write_matrix(pf.validate_matrix(nets.near_star(n, delta)), path)
    return str(path)


@pytest.mark.parametrize("delta", [1e-4, 1e-5])
def test_equilibrium_command_on_a_near_star(tmp_path, capsys, delta):
    path = near_star_file(tmp_path / "near_star.txt", delta)
    code, out, _ = run_cli(capsys, "equilibrium", "--network", path)
    assert code == 0
    lines = out.splitlines()
    assert "ordering check: PASS" in lines
    residual = next(line for line in lines if line.startswith("residual: "))
    assert float(residual.split()[1]) <= 1e-15


def test_coarse_grid_three_node_oracle():
    # enumerate every 3-node matrix whose off-diagonal rows sit on a coarse
    # grid; wherever the structure is irreducible non-star, the solved
    # interior point must match the simulated limit
    grid = [0.0, 0.25, 0.5, 0.75, 1.0]
    x0 = np.array([0.2, 0.3, 0.5])
    checked = 0
    for a in grid:
        for b in grid:
            for c in grid:
                C = pf.validate_matrix(
                    [[0.0, a, 1.0 - a], [b, 0.0, 1.0 - b], [c, 1.0 - c, 0.0]]
                )
                structure = pf.classify(C)
                if not isinstance(structure, pf.Irreducible):
                    continue
                if structure.star_center is not None:
                    continue
                scores = pf.dominant_left_eigenvector(C.entries)
                solved = pf.solve_interior_equilibrium(scores, 1.0)
                limit = pf.simulate("st", C, x0).final_state
                assert np.max(np.abs(limit - solved)) < 1e-6
                checked += 1
    assert checked > 50


def test_prediction_soundness_randomized():
    # wherever predict_limit is pointwise it must agree with simulation
    rng = np.random.default_rng(31)
    for trial in range(24):
        n = int(rng.integers(3, 9))
        if trial % 3 == 0:
            C = pf.build_star(n)
        elif trial % 3 == 1:
            C = nets.random_irreducible_nonstar(rng, n)
        else:
            core = nets.random_irreducible_nonstar(rng, n)
            entries = np.zeros((n + 1, n + 1))
            entries[:n, :n] = core.entries
            entries[n, : max(2, n // 2)] = 1.0 / max(2, n // 2)
            C = pf.validate_matrix(entries)
        structure = pf.classify(C)
        profile = pf.centrality_profile(C, structure)
        x0 = nets.random_interior(rng, C.n)
        prediction = pf.predict_limit(C, structure, profile, x0)
        if prediction.kind == "star_autocrat":
            limit = pf.simulate("st", C, x0, max_steps=30_000).final_state
            assert prediction.x_star[structure.centers[0] - 1] == 1.0
            assert np.max(np.abs(limit - prediction.x_star)) < 1e-3
        else:
            assert prediction.kind == "unique_interior"
            limit = pf.simulate("st", C, x0).final_state
            assert np.max(np.abs(limit - prediction.x_star)) < 1e-6


class TestPredictLimit:
    def test_vertex_start(self):
        C = nets.three_node()
        structure = pf.classify(C)
        profile = pf.centrality_profile(C, structure)
        pred = pf.predict_limit(C, structure, profile, [0.0, 1.0, 0.0])
        assert pred.kind == "vertex"
        assert pred.x_star.tolist() == [0.0, 1.0, 0.0]

    def test_star_autocrat(self):
        C = pf.build_star(10)
        structure = pf.classify(C)
        profile = pf.centrality_profile(C, structure)
        pred = pf.predict_limit(C, structure, profile, np.full(10, 0.1))
        assert pred.kind == "star_autocrat"
        assert pred.x_star.tolist() == [1.0] + [0.0] * 9

    def test_unique_interior_matches_simulation(self):
        C = nets.three_node()
        structure = pf.classify(C)
        profile = pf.centrality_profile(C, structure)
        pred = pf.predict_limit(C, structure, profile, np.array([0.2, 0.3, 0.5]))
        assert pred.kind == "unique_interior"
        limit = pf.simulate("st", C, np.array([0.2, 0.3, 0.5])).final_state
        assert np.max(np.abs(pred.x_star - limit)) < 1e-6

    def test_reachable_pair_family(self):
        C = nets.reachable_pair()
        structure = pf.classify(C)
        profile = pf.centrality_profile(C, structure)
        pred = pf.predict_limit(C, structure, profile, np.array([0.2, 0.2, 0.6]))
        assert pred.kind == "two_node_family"
        assert pred.x_star is None
        assert structure.sinks == ((1, 2),)

    def test_reducible_star_subgraph(self):
        C = nets.reducible_star_ten()
        structure = pf.classify(C)
        profile = pf.centrality_profile(C, structure)
        pred = pf.predict_limit(C, structure, profile, np.full(10, 0.1))
        assert pred.kind == "star_autocrat"
        assert pred.x_star.tolist() == [1.0] + [0.0] * 9

    def test_reachable_interior_supported_on_reachable(self):
        # reachable 3-node non-star core plus one transient feeder
        entries = np.zeros((4, 4))
        entries[:3, :3] = nets.THREE_NODE
        entries[3, :3] = 1.0 / 3.0
        C = pf.validate_matrix(entries)
        structure = pf.classify(C)
        profile = pf.centrality_profile(C, structure)
        pred = pf.predict_limit(C, structure, profile, np.full(4, 0.25))
        assert pred.kind == "unique_interior"
        assert pred.x_star[3] == 0.0
        limit = pf.simulate("st", C, np.full(4, 0.25)).final_state
        assert np.max(np.abs(pred.x_star - limit)) < 1e-6

    def test_degenerate_pair(self):
        C = pf.validate_matrix([[0, 1], [1, 0]])
        structure = pf.classify(C)
        profile = pf.centrality_profile(C, structure)
        pred = pf.predict_limit(C, structure, profile, np.array([0.4, 0.6]))
        assert pred.kind == "two_node_family"

    def test_multi_sink_family(self):
        C = nets.two_sink_five()
        structure = pf.classify(C)
        profile = pf.centrality_profile(C, structure)
        pred = pf.predict_limit(C, structure, profile, np.full(5, 0.2))
        assert pred.kind == "multi_sink_family"


class TestAssembleMultisink:
    def _setup(self, builder):
        C = builder()
        structure = pf.classify(C)
        profile = pf.centrality_profile(C, structure)
        return C, structure, profile

    def test_even_split(self):
        C, structure, profile = self._setup(nets.two_sink_five)
        x = pf.assemble_multisink_equilibrium(structure, profile, [0.5, 0.5])
        assert np.allclose(x, [0.25, 0.25, 0.25, 0.25, 0.0], atol=1e-12)
        assert pf.fixed_point_residual(C, x) < 1e-12

    def test_full_mass_on_pair_requires_alpha(self):
        _, structure, profile = self._setup(nets.two_sink_five)
        with pytest.raises(FamilyParameterRequiredError):
            pf.assemble_multisink_equilibrium(structure, profile, [1.0, 0.0])
        x = pf.assemble_multisink_equilibrium(structure, profile, [1.0, 0.0], alpha=0.3)
        assert np.allclose(x, [0.3, 0.7, 0.0, 0.0, 0.0], atol=1e-12)

    def test_two_node_sink_half_mass(self):
        _, structure, profile = self._setup(nets.two_sink_six)
        x = pf.assemble_multisink_equilibrium(structure, profile, [0.5, 0.5])
        assert np.array_equal(x[:2], [0.25, 0.25])

    def test_two_node_sink_full_mass_family(self):
        _, structure, profile = self._setup(nets.two_sink_six)
        with pytest.raises(FamilyParameterRequiredError, match="sink 1 holds all power"):
            pf.assemble_multisink_equilibrium(structure, profile, [1.0, 0.0])

    def test_two_node_sink_zero(self):
        # beside the second two-node sink, which holds all power
        _, structure, profile = self._setup(nets.two_sink_five)
        x = pf.assemble_multisink_equilibrium(structure, profile, [0.0, 1.0], alpha=0.25)
        assert np.array_equal(x, [0.0, 0.0, 0.25, 0.75, 0.0])

    def test_empty_sink_gets_zero_vector(self):
        C, structure, profile = self._setup(nets.two_sink_six)
        x = pf.assemble_multisink_equilibrium(structure, profile, [0.0, 1.0])
        assert np.array_equal(x[:2], [0.0, 0.0])
        assert np.all(x[2:5] > 0)
        assert x[5] == 0.0
        assert pf.fixed_point_residual(C, x) < 1e-11

    def test_star_sink_full_mass_is_the_centre_vertex(self):
        C, structure, profile = self._setup(nets.star_sink_seven)
        x = pf.assemble_multisink_equilibrium(structure, profile, [1.0, 0.0])
        assert x.tolist() == [1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]
        assert pf.fixed_point_residual(C, x) == 0.0

    @pytest.mark.parametrize("share", [1.0 - 5e-13, 1.0 - 1e-12, 1.0 - 1e-11])
    def test_star_sink_just_below_all_power_is_interior(self, share):
        # below a total of 1 the star sink has its interior point, not the
        # centre's vertex, and the assembled state is a fixed point
        C, structure, profile = self._setup(nets.star_sink_seven)
        x = pf.assemble_multisink_equilibrium(structure, profile, [share, 1.0 - share])
        assert 0.0 < x[0] < 1.0 - 1e-7
        assert np.all(x[1:4] > 1e-8)
        assert x[:4].sum() == pytest.approx(share, abs=1e-15)
        assert pf.fixed_point_residual(C, x) < 1e-15

    @pytest.mark.parametrize("share", [1.0 - 5e-13, 1.0 - 1e-12, 1.0 - 1e-11])
    def test_pair_sinks_just_below_all_power_split_evenly(self, tmp_path, share):
        # below a total of 1 a two-node sink's only fixed point is the even
        # split: x_1' - x_1 = (x_2 - x_1)(1 - m)
        path = tmp_path / "two_pair.txt"
        path.write_text(nets.TWO_PAIR_ADJACENCY)
        C = pf.load_network(path)
        structure = pf.classify(C)
        profile = pf.centrality_profile(C, structure)
        zeta = np.array([share, 1.0 - share])
        x = pf.assemble_multisink_equilibrium(structure, profile, zeta)
        assert np.array_equal(x, [share / 2, share / 2, zeta[1] / 2, zeta[1] / 2, 0.0])
        assert pf.fixed_point_residual(C, x) < 1e-16

    def test_uniform_three_node_sink(self):
        # sinks {1,2} and the ring {3,4,5}: uniform centrality in sink 2
        entries = np.zeros((6, 6))
        entries[0, 1] = entries[1, 0] = 1.0
        entries[2, 3] = entries[3, 4] = entries[4, 2] = 1.0
        entries[5, [0, 2]] = 0.5
        C = pf.validate_matrix(entries)
        structure = pf.classify(C)
        profile = pf.centrality_profile(C, structure)
        x = pf.assemble_multisink_equilibrium(structure, profile, [0.0, 1.0])
        assert np.allclose(x, [0, 0, 1 / 3, 1 / 3, 1 / 3, 0], atol=1e-10)

    def test_matches_simulated_split(self):
        C, structure, profile = self._setup(nets.two_sink_six)
        x0 = nets.random_interior(np.random.default_rng(3), 6)
        traj = pf.simulate("st", C, x0)
        zeta = traj.sink_power[-1]
        x = pf.assemble_multisink_equilibrium(structure, profile, zeta)
        assert np.max(np.abs(x - traj.final_state)) < 1e-6

    def test_rejects_wrong_structure(self):
        C = nets.three_node()
        structure = pf.classify(C)
        profile = pf.centrality_profile(C, structure)
        with pytest.raises(StructureMismatchError):
            pf.assemble_multisink_equilibrium(structure, profile, [1.0])

    def test_rejects_bad_split(self):
        _, structure, profile = self._setup(nets.two_sink_five)
        with pytest.raises(ValueError):
            pf.assemble_multisink_equilibrium(structure, profile, [0.7, 0.7])

    def test_rejects_a_total_above_one(self):
        # within 1e-9 of the unit sum, but above the largest sink mass
        _, structure, profile = self._setup(nets.star_sink_seven)
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
            pf.assemble_multisink_equilibrium(structure, profile, [1.0000000001, 0.0])


def beside_a_pair(block):
    """`block` as sink 1, the swap {k + 1, k + 2} as sink 2 and one more
    node asking node 1 and node k + 1, for a k-node `block`."""
    k = block.shape[0]
    entries = np.zeros((k + 3, k + 3))
    entries[:k, :k] = block
    entries[k, k + 1] = entries[k + 1, k] = 1.0
    entries[k + 2, [0, k]] = 0.5
    C = pf.validate_matrix(entries)
    structure = pf.classify(C)
    return C, structure, pf.centrality_profile(C, structure)


class TestExactStarRule:
    @pytest.mark.parametrize("delta", [1e-9, 1e-10, 1e-11, 1e-12, 1e-14, 1e-16])
    def test_near_star_prediction_is_the_assembled_sink(self, delta):
        # predict_limit and the assembler read one star rule: a near-star
        # is no star, alone or as a sink holding all power
        block = nets.near_star(5, delta)
        C = pf.validate_matrix(block)
        structure = pf.classify(C)
        profile = pf.centrality_profile(C, structure)
        prediction = pf.predict_limit(C, structure, profile, np.full(5, 0.2))
        assert prediction.kind == "unique_interior"
        _, sinks, sink_profile = beside_a_pair(block)
        assert sinks.centers == (None, None)
        x = pf.assemble_multisink_equilibrium(sinks, sink_profile, [1.0, 0.0])
        assert np.max(np.abs(prediction.x_star - x[:5])) <= 1e-15
        assert pf.fixed_point_residual(C, prediction.x_star) <= 1e-15

    def test_exact_stars_are_autocrats_and_assemble_to_the_vertex(self):
        rng = np.random.default_rng(17)
        for n in range(3, 201):
            block = np.zeros((n, n))
            block[0, 1:] = rng.uniform(0.1, 1.0, n - 1)
            block[0] /= block[0].sum()
            block[1:, 0] = 1.0
            C = pf.validate_matrix(block)
            structure = pf.classify(C)
            profile = pf.centrality_profile(C, structure)
            prediction = pf.predict_limit(C, structure, profile, np.full(n, 1.0 / n))
            assert prediction.kind == "star_autocrat"
            vertex = np.zeros(n + 3)
            vertex[0] = 1.0
            assert np.array_equal(prediction.x_star, vertex[:n])
            full, sinks, sink_profile = beside_a_pair(block)
            assert sinks.centers == (1, None)
            x = pf.assemble_multisink_equilibrium(sinks, sink_profile, [1.0, 0.0])
            assert np.array_equal(x, vertex)
            assert pf.fixed_point_residual(full, x) == 0.0


class TestCheckInterior:
    def test_three_node_checks(self):
        C = nets.three_node()
        c = nets.THREE_NODE_CENTRALITY
        x = pf.solve_interior_equilibrium(c, 1.0)
        sink = np.arange(3)
        check = pf.check_interior(C, x, sink, c)
        a = x[0] * (1.0 - x[0]) / c[0]
        assert check.alpha == pytest.approx(a, abs=1e-15)
        assert check.alpha == pytest.approx(270.0 / 529.0, abs=1e-15)
        assert check.residual <= 1e-15
        assert check.ordering_consistent
        # the powers in reverse order: the top score gets the least power
        assert not pf.check_interior(C, x[::-1], sink, c).ordering_consistent


class TestCompareModels:
    def test_irreducible_limits_agree(self):
        report = pf.compare_models(nets.three_node(), np.array([0.2, 0.3, 0.5]))
        assert report.regime == "irreducible"
        assert report.limit_distance < 1e-8

    def test_reducible_star_from_transient_vertex(self):
        C = nets.reducible_star_ten()
        e10 = np.zeros(10)
        e10[9] = 1.0
        report = pf.compare_models(C, e10, max_steps=4000)
        assert np.array_equal(report.trajectory_st.final_state, e10)
        e1 = np.zeros(10)
        e1[0] = 1.0
        assert np.max(np.abs(report.trajectory_df.final_state - e1)) < 1e-3
        assert report.limit_distance > 0.5

    def test_multi_sink_splits_differ(self):
        C = nets.two_sink_six()
        x0 = np.array([0.05, 0.05, 0.05, 0.05, 0.05, 0.75])
        report = pf.compare_models(C, x0)
        zeta_st = report.trajectory_st.sink_power[-1]
        zeta_df = report.trajectory_df.sink_power[-1]
        assert np.max(np.abs(zeta_st - zeta_df)) > 1e-3

    def test_per_step_distance_starts_at_zero(self):
        report = pf.compare_models(nets.three_node(), np.array([0.2, 0.3, 0.5]))
        assert np.array_equal(report.trajectory_st.states[0], report.trajectory_df.states[0])
        assert report.trajectory_st.total_steps >= 1
        assert report.trajectory_df.total_steps >= 1

    def test_single_timescale_needs_more_steps_and_wiggles_more(self):
        # the qualitative regime claim, checked where convergence is
        # exponential: the per-issue rule settles in fewer update steps and
        # with fewer reversals of its increments
        C = nets.synthetic_reduced_krackhardt()
        x0 = nets.random_interior(np.random.default_rng(2), 17)
        report = pf.compare_models(C, x0)
        assert report.trajectory_st.total_steps >= report.trajectory_df.total_steps
        assert report.limit_distance < 1e-8

        def increment_reversals(trajectory):
            sign = np.sign(np.diff(trajectory.states, axis=0))
            return int(np.sum(sign[1:] * sign[:-1] < 0))

        assert increment_reversals(report.trajectory_st) > increment_reversals(
            report.trajectory_df
        )
