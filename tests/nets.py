"""Shared test networks, random generators, synthetic stand-in data, and
the in-process CLI runner."""

import numpy as np

from powerflow import Irreducible, classify, validate_matrix
from powerflow.cli import main

# c = (4/9, 1/3, 2/9): irreducible, non-star, distinct centralities
THREE_NODE = [[0.0, 0.5, 0.5], [1.0, 0.0, 0.0], [0.5, 0.5, 0.0]]
THREE_NODE_CENTRALITY = np.array([4.0 / 9.0, 1.0 / 3.0, 2.0 / 9.0])

# reachable pair {1, 2}, node 3 transient
REACHABLE_PAIR = [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.5, 0.5, 0.0]]

RING3 = [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]
STAR3 = [[0.0, 0.5, 0.5], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]


def near_star(n, delta):
    """Node 1 gives 1/(n - 1) to every other node; each other node gives
    1 - delta to node 1 and delta to the next one on the ring
    2 -> ... -> n -> 2.  Not a star for any delta > 0: its equilibrium is
    interior, with 1 - x_1 about (n - 1) delta / (n - 2)."""
    entries = np.zeros((n, n))
    entries[0, 1:] = 1.0 / (n - 1)
    for i in range(1, n):
        entries[i, 0] = 1.0 - delta
        entries[i, 1 + i % (n - 1)] = delta
    return entries


def three_node():
    return validate_matrix(THREE_NODE)


def reachable_pair():
    return validate_matrix(REACHABLE_PAIR)


def ring3():
    return validate_matrix(RING3)


def star3():
    return validate_matrix(STAR3)


def two_sink_five():
    """Sinks {1,2} and {3,4} (mutual swaps), node 5 feeding all four at 1/4."""
    entries = np.zeros((5, 5))
    entries[0, 1] = entries[1, 0] = entries[2, 3] = entries[3, 2] = 1.0
    entries[4, :4] = 0.25
    return validate_matrix(entries)


def two_sink_six():
    """Sinks {1,2} and {3,4,5}; the 3-node sink has distinct centralities
    (4/9, 1/3, 2/9); node 6 feeds one node of each sink."""
    entries = np.zeros((6, 6))
    entries[0, 1] = entries[1, 0] = 1.0
    entries[2, 3] = entries[2, 4] = 0.5
    entries[3, 2] = 1.0
    entries[4, 2] = entries[4, 3] = 0.5
    entries[5, 0] = entries[5, 2] = 0.5
    return validate_matrix(entries)


# sinks {1,2,3,4}, a star centred on 1, and the swap {5,6}; node 7 asks 1 and 5
STAR_SINK_ADJACENCY = "1: 2 3 4\n2: 1\n3: 1\n4: 1\n5: 6\n6: 5\n7: 1 5\n"


# two swap sinks {1,2} and {3,4}; node 5 asks 1 and 3
TWO_PAIR_ADJACENCY = "1: 2\n2: 1\n3: 4\n4: 3\n5: 1 3\n"


def two_pair_five():
    """The network of TWO_PAIR_ADJACENCY as a matrix."""
    entries = np.zeros((5, 5))
    entries[0, 1] = entries[1, 0] = entries[2, 3] = entries[3, 2] = 1.0
    entries[4, [0, 2]] = 0.5
    return validate_matrix(entries)


def star_sink_seven():
    """The network of STAR_SINK_ADJACENCY as a matrix."""
    entries = np.zeros((7, 7))
    entries[0, 1:4] = 1.0 / 3.0
    entries[1:4, 0] = 1.0
    entries[4, 5] = entries[5, 4] = 1.0
    entries[6, [0, 4]] = 0.5
    return validate_matrix(entries)


def transient_cycle_six():
    """Sinks {1,2} and {3,4}; transient nodes 5 and 6 point at each other and
    leak into the sinks, so their decay is plain exponential (not squaring)."""
    entries = np.zeros((6, 6))
    entries[0, 1] = entries[1, 0] = entries[2, 3] = entries[3, 2] = 1.0
    entries[4, [0, 1, 5]] = 1.0 / 3.0
    entries[5, [2, 3, 4]] = 1.0 / 3.0
    return validate_matrix(entries)


def reducible_star_ten():
    """Star on nodes 1..9 (center 1); node 10 asks everyone in the star and
    is asked by nobody."""
    entries = np.zeros((10, 10))
    entries[0, 1:9] = 1.0 / 8.0
    entries[1:9, 0] = 1.0
    entries[9, :9] = 1.0 / 9.0
    return validate_matrix(entries)


def random_valid(rng, n):
    """Dense random row-stochastic zero-diagonal matrix (always irreducible)."""
    entries = rng.random((n, n)) + 1e-3
    np.fill_diagonal(entries, 0.0)
    entries /= entries.sum(axis=1, keepdims=True)
    return validate_matrix(entries)


def random_irreducible_nonstar(rng, n):
    while True:
        C = random_valid(rng, n)
        structure = classify(C)
        if isinstance(structure, Irreducible) and structure.star_center is None:
            return C


def random_binary_pattern(rng, n):
    """Random 0/1 advice pattern, each row nonempty, as a valid matrix."""
    entries = np.zeros((n, n))
    for i in range(n):
        others = [j for j in range(n) if j != i]
        k = int(rng.integers(1, n))
        targets = rng.choice(others, size=k, replace=False)
        entries[i, targets] = 1.0 / k
    return validate_matrix(entries)


def random_interior(rng, n):
    v = rng.exponential(1.0, n)
    return v / v.sum()


# synthetic stand-ins reproducing the stated structural facts of the two
# classic advice networks (the real data is not shipped with the package)

KRACKHARDT_NEVER_ASKED = (6, 13, 16, 17)


def synthetic_krackhardt_lines(seed=20210):
    """21-node advice lists: all advice targets lie in the 17-node core, the
    core is strongly connected, and nobody asks nodes 6, 13, 16, 17."""
    rng = np.random.default_rng(seed)
    core = [i for i in range(1, 22) if i not in KRACKHARDT_NEVER_ASKED]
    successor = {core[i]: core[(i + 1) % len(core)] for i in range(len(core))}
    lines = []
    for node in range(1, 22):
        targets = set()
        if node in successor:
            targets.add(successor[node])
        pool = [c for c in core if c != node]
        extra = rng.choice(pool, size=int(rng.integers(1, 4)), replace=False)
        targets.update(int(t) for t in extra)
        targets.discard(node)
        lines.append(f"{node}: " + " ".join(str(t) for t in sorted(targets)))
    return lines


def synthetic_sampson_lines(seed=4711):
    """18-node esteem lists shaped like the monastery data: sink {1, 2},
    sink {3..15}, and transient nodes {16, 17, 18} feeding the sinks."""
    rng = np.random.default_rng(seed)
    big = list(range(3, 16))
    lines = ["1: 2", "2: 1"]
    successor = {big[i]: big[(i + 1) % len(big)] for i in range(len(big))}
    for node in big:
        targets = {successor[node]}
        pool = [c for c in big if c != node]
        extra = rng.choice(pool, size=int(rng.integers(1, 4)), replace=False)
        targets.update(int(t) for t in extra)
        targets.discard(node)
        lines.append(f"{node}: " + " ".join(str(t) for t in sorted(targets)))
    lines.append("16: 1 4 17")
    lines.append("17: 2 7 16")
    lines.append("18: 5 11 16")
    return lines


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _matrix_from_advice(lines, n):
    entries = np.zeros((n, n))
    for line in lines:
        head, _, tail = line.partition(":")
        targets = [int(t) for t in tail.split()]
        entries[int(head) - 1, [t - 1 for t in targets]] = 1.0 / len(targets)
    return validate_matrix(entries)


def synthetic_krackhardt_matrix(seed=20210):
    return _matrix_from_advice(synthetic_krackhardt_lines(seed), 21)


def synthetic_reduced_krackhardt(seed=20210):
    """The 17-node strongly connected core of the synthetic advice network."""
    full = synthetic_krackhardt_matrix(seed)
    core = [i for i in range(21) if i + 1 not in KRACKHARDT_NEVER_ASKED]
    return validate_matrix(full.entries[np.ix_(core, core)])


def run_cli(capsys, *argv):
    """Run the CLI in-process: (exit code, stdout, stderr).  An argparse
    error or --help exits with SystemExit, whose code is returned; any other
    exception escapes main and fails the calling test."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err
