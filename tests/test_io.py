import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import powerflow as pf
from powerflow.errors import (
    EmptyAdviceSetError,
    NonSquareError,
    ParseError,
    PowerflowError,
    RowSumOutOfToleranceError,
)

import nets


def load_error_and_peak(path):
    """The error load_network raises on `path`, and its traced memory peak."""
    tracemalloc.start()
    try:
        with pytest.raises(PowerflowError) as err:
            pf.load_network(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return err.value, peak


class TestLoadDense:
    def test_comma_and_whitespace_with_comments(self, tmp_path):
        path = tmp_path / "net.txt"
        path.write_text("# a three node network\n0, 0.5, 0.5\n1 0 0\n0.5,0.5 0\n")
        C = pf.load_network(path)
        assert np.allclose(C.entries, nets.THREE_NODE)

    @pytest.mark.parametrize(
        "seed, n, density",
        [(77, 6, 1.0), (3, 40, 1.0), (11, 97, 0.2), (5, 300, 0.05), (8, 1000, 1.0)],
    )
    def test_round_trip_is_bit_identical(self, tmp_path, seed, n, density):
        rng = np.random.default_rng(seed)
        C = nets.random_valid(rng, n)
        if density < 1.0:
            # thin out all but a ring, so that no row empties
            keep = rng.random((n, n)) < density
            keep[np.arange(n), (np.arange(n) + 1) % n] = True
            thinned = np.where(keep, C.entries, 0.0)
            C = pf.validate_matrix(thinned / thinned.sum(axis=1, keepdims=True))
        path = tmp_path / "net.txt"
        pf.write_matrix(C, path)
        again = pf.load_network(path)
        assert again.entries.tobytes() == C.entries.tobytes()

    @pytest.mark.parametrize("leaf", ["0.9999999999999999", "1.0000000000000002"])
    def test_near_one_leaf_row_loads_as_star(self, tmp_path, leaf):
        path = tmp_path / "star.txt"
        path.write_text(f"0 .5 .5\n{leaf} 0 0\n1 0 0\n")
        C = pf.load_network(path)
        assert C.entries[1, 0] == 1.0
        assert pf.classify(C).centers == (1,)

    def test_garbage_token_reports_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 1\nx 0\n")
        with pytest.raises(ParseError) as err:
            pf.load_network(path)
        assert err.value.line_no == 2

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "ragged.txt"
        path.write_text("0 1 0\n1 0\n0.5 0.5 0\n")
        with pytest.raises(ParseError) as err:
            pf.load_network(path)
        assert err.value.line_no == 2

    @pytest.mark.parametrize(
        "text, line_no",
        [
            ("0,,1\n1,0\n", 1),
            ("0,1\n1,0,\n", 2),
            ("0 1\n,1 0\n", 2),
            ("0, ,1\n1,0\n", 1),
            ("0 ,\t, 1\n1 0\n", 1),
        ],
        ids=["double", "trailing", "leading", "space-between", "tab-between"],
    )
    def test_empty_field_reports_line(self, tmp_path, text, line_no):
        path = tmp_path / "empty-field.txt"
        path.write_text(text)
        with pytest.raises(ParseError) as err:
            pf.load_network(path)
        assert err.value.line_no == line_no
        assert str(err.value) == (
            f"line {line_no}: empty field: every comma must stand between two values"
        )

    def test_ragged_file_is_rejected_before_its_array(self, tmp_path):
        # an 8 KB file whose first line alone would size a 2000 x 2000 array
        path = tmp_path / "ragged.txt"
        path.write_text(" ".join(["0"] * 2000) + "\n" + "0\n" * 1999)
        error, peak = load_error_and_peak(path)
        assert type(error) is ParseError
        assert str(error) == "line 2: expected 2000 values per row, got 1"
        assert peak < 1 << 20

    def test_non_square_file_names_its_shape(self, tmp_path):
        path = tmp_path / "wide.txt"
        path.write_text("0 1 0\n1 0 0\n")
        with pytest.raises(NonSquareError) as err:
            pf.load_network(path)
        assert err.value.shape == (2, 3)
        assert str(err.value) == "matrix must be square, got shape (2, 3)"

    def test_commas_with_spaces_around_them(self, tmp_path):
        path = tmp_path / "spaced.txt"
        path.write_text("0 , 0.5,0.5\n1 ,0, 0\n0.5 0.5 , 0\n")
        assert np.array_equal(pf.load_network(path).entries, nets.THREE_NODE)

    def test_bad_row_sum_propagates(self, tmp_path):
        path = tmp_path / "sum.txt"
        path.write_text("0 0.4 0.4\n1 0 0\n0.5 0.5 0\n")
        with pytest.raises(RowSumOutOfToleranceError):
            pf.load_network(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# only a comment\n")
        with pytest.raises(ParseError):
            pf.load_network(path)


class TestLoadAdjacency:
    def test_equal_split_rule(self, tmp_path):
        path = tmp_path / "adv.txt"
        path.write_text("1: 2 3\n2: 1\n3: 1 2\n")
        C = pf.load_network(path)
        assert np.allclose(C.entries[0], [0.0, 0.5, 0.5])
        assert np.allclose(C.entries[1], [1.0, 0.0, 0.0])  # row 2 = e_1
        assert np.allclose(C.entries[2], [0.5, 0.5, 0.0])

    def test_self_nominations_dropped(self, tmp_path):
        path = tmp_path / "adv.txt"
        path.write_text("1: 1 2\n2: 1 2 1\n")
        C = pf.load_network(path)
        assert np.allclose(C.entries, [[0.0, 1.0], [1.0, 0.0]])

    def test_empty_advice_rejected(self, tmp_path):
        path = tmp_path / "adv.txt"
        path.write_text("1: 2\n2: 2\n")  # node 2 only nominates itself
        with pytest.raises(EmptyAdviceSetError) as err:
            pf.load_network(path)
        assert err.value.node == 2

    def test_missing_node_rejected(self, tmp_path):
        path = tmp_path / "adv.txt"
        path.write_text("1: 3\n3: 1\n")  # node 2 never listed
        with pytest.raises(EmptyAdviceSetError) as err:
            pf.load_network(path)
        assert err.value.node == 2

    def test_missing_node_rejected_before_its_array(self, tmp_path):
        # 16 bytes naming node 2000: a 2000 x 2000 array if allocated first
        path = tmp_path / "adv.txt"
        path.write_text("1: 2000\n2000: 1\n")
        error, peak = load_error_and_peak(path)
        assert type(error) is EmptyAdviceSetError
        assert error.node == 2
        assert peak < 1 << 20

    def test_duplicate_row_rejected(self, tmp_path):
        path = tmp_path / "adv.txt"
        path.write_text("1: 2\n1: 2\n2: 1\n")
        with pytest.raises(ParseError):
            pf.load_network(path)

    def test_rows_exact_in_rational_arithmetic(self):
        # the equal-split rule is exact before float conversion
        for n_advisors in range(1, 12):
            assert sum([Fraction(1, n_advisors)] * n_advisors) == 1

    def test_format_sniffing(self, tmp_path):
        adjacency = tmp_path / "a.txt"
        adjacency.write_text("1: 2\n2: 1\n")
        dense = tmp_path / "d.txt"
        dense.write_text("0 1\n1 0\n")
        assert np.array_equal(
            pf.load_network(adjacency).entries, pf.load_network(dense).entries
        )


class TestBuilders:
    def test_star_matches_canonical_pattern(self):
        C = pf.build_star(10)
        expected = np.zeros((10, 10))
        expected[0, 1:] = 1.0 / 9.0
        expected[1:, 0] = 1.0
        assert np.allclose(C.entries, expected, atol=1e-15)

    def test_star_three(self):
        assert np.allclose(pf.build_star(3).entries, nets.STAR3)

    def test_star_center_detected_across_sizes(self):
        for n in range(3, 51):
            assert pf.star_center(pf.build_star(n)) == 1

    def test_star_too_small(self):
        with pytest.raises(ValueError):
            pf.build_star(2)

    def test_ring_three(self):
        assert np.array_equal(pf.build_ring(3).entries, nets.RING3)

    def test_ring_centrality_uniform(self):
        C = pf.build_ring(4)
        c = pf.dominant_left_eigenvector(C.entries)
        assert np.allclose(c, 0.25, atol=1e-11)

    def test_ring_too_small(self):
        with pytest.raises(ValueError):
            pf.build_ring(2)

    def test_doubly_stochastic_properties(self):
        C = pf.build_doubly_stochastic_random(5, seed=123)
        assert np.allclose(C.entries.sum(axis=0), 1.0, atol=pf.EPS_VALIDATION)
        assert np.allclose(C.entries.sum(axis=1), 1.0, atol=pf.EPS_VALIDATION)
        assert np.all(np.diagonal(C.entries) == 0.0)
        assert isinstance(pf.classify(C), pf.Irreducible)

    def test_doubly_stochastic_deterministic_in_seed(self):
        a = pf.build_doubly_stochastic_random(6, seed=9)
        b = pf.build_doubly_stochastic_random(6, seed=9)
        c = pf.build_doubly_stochastic_random(6, seed=10)
        assert np.array_equal(a.entries, b.entries)
        assert not np.array_equal(a.entries, c.entries)


class TestTrajectoryCsv:
    def test_single_step_example(self, tmp_path):
        C = nets.reachable_pair()
        traj = pf.simulate("st", C, np.array([0.2, 0.2, 0.6]), max_steps=1)
        path = tmp_path / "traj.csv"
        pf.write_trajectory_csv(traj, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,x_1,x_2,x_3"
        t0 = [float(v) for v in lines[1].split(",")]
        t1 = [float(v) for v in lines[2].split(",")]
        assert t0 == [0, 0.2, 0.2, 0.6]
        assert t1[0] == 1
        assert np.allclose(t1[1:], [0.32, 0.32, 0.36], atol=1e-15)
        assert lines[-1].startswith("# status=")

    def test_values_round_trip_exactly(self, tmp_path):
        C = nets.three_node()
        traj = pf.simulate("st", C, np.array([0.2, 0.3, 0.5]), max_steps=50)
        path = tmp_path / "traj.csv"
        pf.write_trajectory_csv(traj, path)
        rows = [
            line.split(",")
            for line in path.read_text().splitlines()[1:]
            if not line.startswith("#")
        ]
        parsed = np.array([[float(v) for v in row[1:]] for row in rows])
        assert np.array_equal(parsed, traj.states)

    def test_multi_sink_columns(self, tmp_path):
        C = nets.two_sink_five()
        traj = pf.simulate("st", C, np.full(5, 0.2))
        path = tmp_path / "traj.csv"
        pf.write_trajectory_csv(traj, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,x_1,x_2,x_3,x_4,x_5,zeta_1,zeta_2"
        first = [float(v) for v in lines[1].split(",")]
        assert first[-2:] == [0.4, 0.4]

    def test_thinned_run_aligns_sink_power(self, tmp_path):
        C = nets.two_sink_five()
        traj = pf.simulate("st", C, np.full(5, 0.2), record_every=3)
        path = tmp_path / "traj.csv"
        pf.write_trajectory_csv(traj, path)
        for line in path.read_text().splitlines()[1:]:
            if line.startswith("#"):
                continue
            values = [float(v) for v in line.split(",")]
            assert values[6] == pytest.approx(values[1] + values[2], abs=1e-15)

    def test_empty_trajectory_rejected(self, tmp_path):
        C = nets.three_node()
        traj = pf.simulate("st", C, np.array([0.2, 0.3, 0.5]), max_steps=5)
        empty = pf.Trajectory(
            states=traj.states[:0],
            steps=traj.steps[:0],
            step_deltas=traj.step_deltas[:0],
            status=traj.status,
        )
        with pytest.raises(ValueError):
            pf.write_trajectory_csv(empty, tmp_path / "x.csv")

    def test_status_comment_for_vertex(self, tmp_path):
        C = nets.three_node()
        traj = pf.simulate("st", C, np.array([1.0, 0.0, 0.0]))
        path = tmp_path / "traj.csv"
        pf.write_trajectory_csv(traj, path)
        assert "status=vertex_absorbed vertex=1" in path.read_text()


class TestSyntheticStandIns:
    def test_krackhardt_shape(self, tmp_path):
        path = nets.write_lines(tmp_path / "advice.txt", nets.synthetic_krackhardt_lines())
        C = pf.load_network(path)
        assert C.n == 21
        structure = pf.classify(C)
        assert isinstance(structure, pf.ReducibleReachable)
        outside = sorted(set(range(1, 22)) - set(structure.reachable))
        assert tuple(outside) == nets.KRACKHARDT_NEVER_ASKED
        assert len(structure.reachable) == 17

    def test_sampson_shape(self, tmp_path):
        path = nets.write_lines(tmp_path / "esteem.txt", nets.synthetic_sampson_lines())
        C = pf.load_network(path)
        assert C.n == 18
        structure = pf.classify(C)
        assert isinstance(structure, pf.MultiSink)
        assert tuple(map(len, structure.sinks)) == (2, 13)
        assert len(structure.non_sink_nodes) == 3
        assert structure.sinks[0] == (1, 2)


def _write_csv_per_value(trajectory, path):
    """The per-value writer that write_trajectory_csv replaced, kept as the
    reference for its bytes."""
    n = trajectory.states.shape[1]
    zeta_rows = (
        None if trajectory.sink_power is None else trajectory.sink_power[trajectory.steps]
    )
    header = "t," + ",".join(f"x_{i}" for i in range(1, n + 1))
    if zeta_rows is not None:
        header += "," + ",".join(f"zeta_{k}" for k in range(1, zeta_rows.shape[1] + 1))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(header + "\n")
        for row_idx, t in enumerate(trajectory.steps):
            values = [format(v, ".17g") for v in trajectory.states[row_idx]]
            if zeta_rows is not None:
                values += [format(v, ".17g") for v in zeta_rows[row_idx]]
            handle.write(f"{int(t)}," + ",".join(values) + "\n")
        handle.write(pf.io._status_comment(trajectory.status) + "\n")


class TestTrajectoryCsvBytes:
    def _assert_same_bytes(self, traj, tmp_path):
        pf.write_trajectory_csv(traj, tmp_path / "new.csv")
        _write_csv_per_value(traj, tmp_path / "ref.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_single_sink_run(self, tmp_path):
        traj = pf.simulate("st", nets.three_node(), np.array([0.2, 0.3, 0.5]))
        self._assert_same_bytes(traj, tmp_path)

    @pytest.mark.parametrize("record_every", [1, 3])
    @pytest.mark.parametrize("model", ["st", "df"])
    def test_multi_sink_zeta_columns(self, tmp_path, model, record_every):
        C = nets.two_sink_five()
        x0 = np.array([0.1, 0.3, 0.2, 0.15, 0.25])
        traj = pf.simulate(model, C, x0, record_every=record_every)
        assert traj.sink_power is not None
        self._assert_same_bytes(traj, tmp_path)

    def test_extreme_values(self, tmp_path):
        states = np.array([
            [-0.0, 5e-324, 1.0 - 2.0**-53],
            [0.0, 1.0, 2.0**-1074 * 3],
            [1.0 / 3.0, 1e-300, 1e300],
            [np.nextafter(1.0, 0.0), np.nextafter(0.0, 1.0), -1e-17],
        ])
        sink_power = np.array([[-0.0, 1.0], [5e-324, 1.0 - 2.0**-53],
                               [0.5, 0.5], [2.0 / 3.0, 1.0 / 3.0],
                               [0.1, 0.2], [0.7, 0.3]])
        traj = pf.Trajectory(
            states=states,
            steps=np.array([0, 1, 3, 5]),
            step_deltas=np.zeros(5),
            status=pf.MaxStepsReached(steps=5),
            sink_power=sink_power,
        )
        self._assert_same_bytes(traj, tmp_path)
        first = (tmp_path / "new.csv").read_text().splitlines()[1]
        assert first == "0,-0,4.9406564584124654e-324,0.99999999999999989,-0,1"

    def test_rows_split_across_chunks(self, tmp_path, monkeypatch):
        traj = pf.simulate("st", nets.two_sink_five(), np.full(5, 0.2), record_every=3)
        for chunk_values in (1, 5, 8, 17):
            monkeypatch.setattr(pf.io, "_CSV_CHUNK_VALUES", chunk_values)
            self._assert_same_bytes(traj, tmp_path)

    def test_long_run_spans_several_default_chunks(self, tmp_path):
        traj = pf.simulate("st", pf.build_star(12), np.full(12, 1 / 12), max_steps=12000)
        assert traj.states.size > 2 * pf.io._CSV_CHUNK_VALUES
        self._assert_same_bytes(traj, tmp_path)


def _write_matrix_per_value(C, path):
    """The per-value writer that write_matrix replaced, kept as the
    reference for its bytes."""
    with open(path, "w", encoding="utf-8") as handle:
        for row in C.entries:
            handle.write(" ".join(format(v, ".17g") for v in row) + "\n")


class TestMatrixBytes:
    def _assert_same_bytes(self, C, tmp_path):
        pf.write_matrix(C, tmp_path / "new.txt")
        _write_matrix_per_value(C, tmp_path / "ref.txt")
        assert (tmp_path / "new.txt").read_bytes() == (tmp_path / "ref.txt").read_bytes()
        # the text holds the doubles exactly, and loading keeps them
        text = (tmp_path / "new.txt").read_text().split()
        assert np.array(text, dtype=float).tobytes() == C.entries.tobytes()
        again = pf.load_network(tmp_path / "new.txt")
        assert again.entries.tobytes() == C.entries.tobytes()

    @pytest.mark.parametrize("n", [2, 3, 7, 64, 301])
    def test_random_matrices(self, tmp_path, n):
        C = nets.random_valid(np.random.default_rng(n), n)
        # dense: +0.0 on the diagonal alone
        assert np.count_nonzero(C.entries) == n * (n - 1)
        self._assert_same_bytes(C, tmp_path)

    @pytest.mark.parametrize(
        "entries",
        [
            [[0.0, -0.0, 1.0], [1.0, 0.0, -0.0], [-0.0, 1.0, 0.0]],
            [[0.0, 1.0, 5e-324], [0.5, 0.0, 0.5], [5e-324, 1.0, 0.0]],
            # each row's one nonzero in the first or the last column
            [[0.0, 0.0, 0.0, 1.0], [1.0, 0.0, 0.0, 0.0],
             [1.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]],
            [[0.0, 0.0, 0.0, 1.0], [0.0, 0.0, 0.0, 1.0],
             [0.0, 0.0, 0.0, 1.0], [1.0, 0.0, 0.0, 0.0]],
        ],
        ids=["negative-zero", "subnormal", "first-column", "last-column"],
    )
    def test_spellings(self, tmp_path, entries):
        self._assert_same_bytes(pf.validate_matrix(entries), tmp_path)

    @pytest.mark.parametrize("source", ["ds:40:3", "adjacency:300"])
    def test_built_and_adjacency_networks(self, tmp_path, source):
        if source == "ds:40:3":
            C = pf.build_doubly_stochastic_random(40, 3)
        else:
            # node i asks the next 1 to 9 nodes on the ring: rows of 1/k
            path = tmp_path / "sparse.adj.txt"
            n = 300
            nets.write_lines(path, [
                f"{i + 1}: " + " ".join(str((i + d) % n + 1) for d in range(1, 2 + i % 9))
                for i in range(n)
            ])
            C = pf.load_network(path)
        self._assert_same_bytes(C, tmp_path)

    def test_large_sparse_matrix_spans_many_chunks(self, tmp_path):
        # mostly zeros, like the large files of the benchmark corpus
        n = 1200
        rng = np.random.default_rng(n)
        entries = np.zeros((n, n))
        for i in range(n):
            advisors = rng.choice(np.delete(np.arange(n), i), size=4, replace=False)
            entries[i, advisors] = rng.random(4) + 1e-3
        C = pf.validate_matrix(entries / entries.sum(axis=1, keepdims=True))
        assert C.entries.size > 16 * pf.io._CSV_CHUNK_VALUES
        self._assert_same_bytes(C, tmp_path)

    def test_rows_wider_than_a_chunk(self, tmp_path, monkeypatch):
        C = nets.random_valid(np.random.default_rng(5), 23)
        for chunk_values in (1, 5, 17):
            monkeypatch.setattr(pf.io, "_CSV_CHUNK_VALUES", chunk_values)
            self._assert_same_bytes(C, tmp_path)

    def test_write_holds_one_chunk(self, tmp_path, monkeypatch):
        # a dense file: the Python floats of one chunk, not of the matrix
        C = nets.random_valid(np.random.default_rng(400), 400)
        monkeypatch.setattr(pf.io, "_CSV_CHUNK_VALUES", 4096)
        tracemalloc.start()
        try:
            pf.write_matrix(C, tmp_path / "dense.txt")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the whole matrix as floats and text would take over 10 MB
        assert peak < C.entries.nbytes / 2

    def test_extreme_values(self, tmp_path):
        C = pf.validate_matrix([
            [0.0, 1.0 / 3.0, 2.0 / 3.0],
            [1.0 - 2.0**-53, 0.0, 2.0**-53],
            [5e-324, 1.0, 0.0],
        ])
        assert C.entries[0, 1] == 1.0 / 3.0
        assert C.entries[1, 0] == 1.0 - 2.0**-53
        assert C.entries[2, 0] == 5e-324
        self._assert_same_bytes(C, tmp_path)
        lines = (tmp_path / "new.txt").read_text().splitlines()
        assert lines[1] == "0.99999999999999989 0 1.1102230246251565e-16"
        assert lines[2] == "4.9406564584124654e-324 1 0"

    def test_dense_parse_holds_one_matrix(self, tmp_path):
        # a sparse n = 300 file: its text is small next to the n x n array
        n = 300
        path = tmp_path / "ring.txt"
        pf.write_matrix(pf.build_ring(n), path)
        tracemalloc.start()
        try:
            C = pf.load_network(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert C.n == n
        # the array, the file's lines and small temporaries; a second n x n
        # copy would put the peak above two arrays
        assert peak < 2 * C.entries.nbytes


class TestDenseParserSemantics:
    def test_bad_token_on_later_row(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("# header\n0 0.5 0.5\n1 0 0\n\n0.5 0.5e x\n")
        with pytest.raises(ParseError) as err:
            pf.load_network(path)
        assert err.value.line_no == 5
        assert str(err.value) == "line 5: not a number: '0.5e'"

    def test_non_utf8_bytes_name_their_line(self, tmp_path):
        path = tmp_path / "latin1.txt"
        path.write_bytes(b"0 1\n1 0\n# caf\xe9\n")
        with pytest.raises(ParseError) as err:
            pf.load_network(path)
        assert str(err.value) == "line 3: not UTF-8 text"
        (tmp_path / "bom.txt").write_bytes(b"\xff\xfe")
        with pytest.raises(ParseError, match="line 1: not UTF-8 text"):
            pf.load_network(tmp_path / "bom.txt")

    def test_utf8_comment_is_read(self, tmp_path):
        path = tmp_path / "utf8.txt"
        path.write_text("# caf\u00e9 \u2192 advice\n0 1\n1 0\n", encoding="utf-8")
        assert np.array_equal(pf.load_network(path).entries, [[0.0, 1.0], [1.0, 0.0]])

    def test_unopenable_path_raises_oserror(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            pf.load_network(tmp_path / "missing.txt")
        with pytest.raises(IsADirectoryError):
            pf.load_network(tmp_path)

    def test_ragged_row_message(self, tmp_path):
        path = tmp_path / "ragged.txt"
        path.write_text("0 0.5 0.5\n1 0 0\n0.5 0.5\n")
        with pytest.raises(ParseError) as err:
            pf.load_network(path)
        assert err.value.line_no == 3
        assert str(err.value) == "line 3: expected 3 values per row, got 2"

    def test_bad_token_reported_before_row_length(self, tmp_path):
        path = tmp_path / "both.txt"
        path.write_text("0 1\n1 0 oops\n")
        with pytest.raises(ParseError) as err:
            pf.load_network(path)
        assert str(err.value) == "line 2: not a number: 'oops'"

    def test_python_float_spellings(self, tmp_path):
        path = tmp_path / "spellings.txt"
        path.write_text("0 1_0e-1\n+1. -0\n")
        C = pf.load_network(path)
        assert np.array_equal(C.entries, [[0.0, 1.0], [1.0, 0.0]])
        (tmp_path / "ten.txt").write_text("0 1_0\n1 0\n")
        with pytest.raises(RowSumOutOfToleranceError) as err:
            pf.load_network(tmp_path / "ten.txt")
        assert err.value.args and "10" in str(err.value)

    def test_comma_separated(self, tmp_path):
        path = tmp_path / "net.csv"
        path.write_text("0,0.5,0.5\n1,0,0\n0.5,0.5,0\n")
        assert np.array_equal(pf.load_network(path).entries, nets.THREE_NODE)

    def test_parsed_values_equal_python_float(self, tmp_path):
        rng = np.random.default_rng(91)
        C = nets.random_valid(rng, 40)
        path = tmp_path / "net.txt"
        pf.write_matrix(C, path)
        expected = [[float(v) for v in line.split()] for line in path.read_text().splitlines()]
        assert np.array_equal(pf.load_network(path).entries, pf.validate_matrix(expected).entries)
