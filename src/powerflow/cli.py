"""Command-line front end.

Grammar::

    powerflow <classify|centrality|simulate|equilibrium|compare>
        [--network FILE | --builder star:N|ring:N|ds:N:SEED]
        [--model st|df] [--x0 uniform|vertex:I|random:SEED|list:a,b,...]
        [--tol F] [--max-steps N] [--record-every N] [--zeta a,b,...]
        [--out FILE] [--quiet]

The environment variable POWERFLOW_LOG (off, info, debug) controls log
verbosity on stderr.  Exit codes: 0 on success, also when the reader closes
stdout early; 2 on input problems (files, flags, an empty --out, malformed
matrices, bad initial vectors, a --builder size whose matrix numpy cannot
allocate), 1 on runtime failures.  A command that fails prints nothing on
stdout.  Output is deterministic for fixed flags and seeds and a fixed BLAS
thread count.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import logging
import math
import os
import re
import sys
from collections.abc import Iterator
import numpy as np

from . import io as netio
from .defaults import (
    DEFAULT_MAX_STEPS,
    EPS_CONV,
    EPS_EQUILIBRIUM,
    MODELS,
    SINGLE_TIMESCALE,
)
from .errors import (
    EmptyAdviceSetError,
    FamilyParameterRequiredError,
    InvalidInitialError,
    MatrixValidationError,
    ParseError,
    PowerflowError,
)
from .netcore import RelativeInteractionMatrix, classify
from .spectral import centrality_profile

# The dynamics and equilibria modules load only in the commands that run
# them, each importing what it calls from the defining module.  perfbench's
# tracer wraps these names on this module, so they stay resolvable here as
# module attributes, through the package's lazy exports.
_DEFERRED = frozenset({"simulate", "compare_models", "solve_interior_equilibrium"})


def __getattr__(name):
    if name not in _DEFERRED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(__package__), name)


def _configure_logging() -> None:
    level_name = os.environ.get("POWERFLOW_LOG", "off").strip().lower()
    levels = {"off": logging.CRITICAL + 10, "info": logging.INFO, "debug": logging.DEBUG}
    if level_name not in levels:
        print(
            f"warning: POWERFLOW_LOG={level_name!r} not in (off, info, debug)",
            file=sys.stderr,
        )
        level_name = "off"
    logging.basicConfig(
        stream=sys.stderr, level=levels[level_name],
        format="%(levelname)s %(name)s: %(message)s",
    )


def _fmt(value: float) -> str:
    return format(float(value), ".12g")


def _fmt_vec(values) -> str:
    return "[" + ", ".join(_fmt(v) for v in values) + "]"


def _node_set(nodes) -> str:
    return "{" + ", ".join(str(v) for v in nodes) + "}"


def _pretty_limit(x) -> str:
    from .dynamics import vertex_index

    # display label only: 1e-3 matches the distance scale of the slow
    # asymptotic star regimes
    v = vertex_index(np.asarray(x, dtype=float), eps=1e-3)
    return f"e_{v}" if v is not None else _fmt_vec(x)


def _load_network(args) -> RelativeInteractionMatrix:
    if (args.network is None) == (args.builder is None):
        raise InvalidInitialError("pass exactly one of --network or --builder")
    if args.network is not None:
        try:
            return netio.load_network(args.network)
        except OSError as exc:
            raise InvalidInitialError(f"cannot read network file: {exc}") from exc
    spec = args.builder
    parts = spec.split(":")
    kind = parts[0]
    try:
        if kind == "star" and len(parts) == 2:
            return netio.build_star(int(parts[1]))
        if kind == "ring" and len(parts) == 2:
            return netio.build_ring(int(parts[1]))
        if kind == "ds" and len(parts) == 3:
            return netio.build_doubly_stochastic_random(int(parts[1]), int(parts[2]))
    except (ValueError, MemoryError) as exc:
        raise InvalidInitialError(f"bad builder spec {spec!r}: {exc}") from exc
    raise InvalidInitialError(
        f"bad builder spec {spec!r}; expected star:N, ring:N or ds:N:SEED"
    )


def _resolve_x0(spec: str, n: int) -> np.ndarray:
    if spec == "uniform":
        return np.full(n, 1.0 / n)
    kind, sep, rest = spec.partition(":")
    try:
        if kind == "vertex" and sep:
            i = int(rest)
            if not 1 <= i <= n:
                raise ValueError(f"vertex index {i} outside 1..{n}")
            x = np.zeros(n)
            x[i - 1] = 1.0
            return x
        if kind == "random" and sep:
            # exponential positives normalized: interior, reproducible per seed
            rng = np.random.default_rng(int(rest))
            x = rng.exponential(1.0, n)
            return x / x.sum()
        if kind == "list" and sep:
            return np.asarray([float(p) for p in rest.split(",")], dtype=float)
    except ValueError as exc:
        raise InvalidInitialError(f"bad x0 spec {spec!r}: {exc}") from exc
    raise InvalidInitialError(
        f"bad x0 spec {spec!r}; expected uniform, vertex:I, random:SEED or list:a,b,..."
    )


def cmd_classify(args, C, structure) -> Iterator[str]:
    profile = centrality_profile(C, structure)
    yield f"nodes: {C.n}"
    if structure.num_sinks > 1:
        yield f"structure: multi-sink, K={structure.num_sinks} sinks"
        for k, nodes in enumerate(structure.sinks, start=1):
            yield f"sink {k}: {_node_set(nodes)} (size {len(nodes)})"
        yield (
            f"non-sink nodes: {_node_set(structure.non_sink_nodes)} "
            f"(m={len(structure.non_sink_nodes)})"
        )
        for k, c_k in enumerate(profile.per_sink, start=1):
            yield f"sink {k} centrality: {_fmt_vec(c_k)}"
        return
    size = len(structure.sinks[0])
    whole = size == C.n
    if whole:
        yield "structure: irreducible"
    else:
        yield f"structure: reducible, globally reachable set of size {size}"
        yield f"reachable set: {_node_set(structure.sinks[0])}"
        yield f"outside reachable set: {_node_set(structure.non_sink_nodes)}"
    center = structure.centers[0]
    if center is not None:
        label = "star center" if whole else "star center of reachable subgraph"
        yield f"{label}: {center}"
    if whole and size == 2:
        yield "note: two-node network, every interior point is fixed"
    yield f"centrality: {_fmt_vec(profile.global_c)}"


def cmd_centrality(args, C, structure) -> Iterator[str]:
    profile = centrality_profile(C, structure)
    if structure.num_sinks == 1:
        yield f"centrality: {_fmt_vec(profile.global_c)}"
    else:
        for k, (c_k, lifted) in enumerate(
            zip(profile.per_sink, profile.lifted), start=1
        ):
            yield f"sink {k} centrality: {_fmt_vec(c_k)}"
            yield f"sink {k} lifted: {_fmt_vec(lifted)}"


@contextlib.contextmanager
def _output_files(paths):
    """Open each output path for appending before the run, so that one that
    cannot be written fails first, with open()'s own error; appending
    truncates no existing file.  The files opened here that did not exist
    are removed again if the body raises."""
    created = []
    try:
        for path in paths:
            existed = os.path.lexists(path)
            open(path, "a").close()
            if not existed:
                created.append(path)
        yield
    except BaseException:
        for path in created:
            with contextlib.suppress(OSError):
                os.remove(path)
        raise


def cmd_simulate(args, C, structure) -> Iterator[str]:
    from .dynamics import _check_initial, fixed_point_residual, simulate

    # a bad start is an input error ahead of an unwritable --out
    x0 = _check_initial(_resolve_x0(args.x0, C.n), C.n)
    paths = [args.out] if args.out else []
    with _output_files(paths):
        trajectory = simulate(
            args.model, C, x0,
            eps_conv=args.tol, max_steps=args.max_steps,
            record_every=args.record_every, structure=structure,
        )
        for path in paths:
            netio.write_trajectory_csv(trajectory, path)
    if args.out:
        yield f"wrote trajectory: {args.out}"
    elif not args.quiet:
        # streamed after the run, ahead of main's write of the summary, by
        # the trajectory CSV's row writer at _fmt's format "%.12g"
        row_format = "%d," + ",".join(["%.12g"] * C.n) + "\n"
        netio._write_rows(sys.stdout, row_format, [trajectory.steps[:, None], trajectory.states])
    status = trajectory.status
    yield f"status: {status.text.format_map(vars(status))}"
    yield f"steps: {trajectory.total_steps}"
    yield f"limit: {_fmt_vec(trajectory.final_state)}"
    yield f"residual: {_fmt(fixed_point_residual(C, trajectory.final_state))}"
    if trajectory.sink_power is not None:
        yield f"sink power: {_fmt_vec(trajectory.sink_power[-1])}"


# the equilibria of a two-node closed class holding all power
_PAIR_FAMILY = ("equilibrium family: (alpha, 1-alpha) on nodes {}, {}, zero elsewhere; "
                "alpha depends on the trajectory")


def cmd_equilibrium(args, C, structure) -> Iterator[str]:
    from .equilibria import (
        KIND_STAR_AUTOCRAT,
        KIND_TWO_NODE_FAMILY,
        KIND_UNIQUE_INTERIOR,
        assemble_multisink_equilibrium,
        check_interior,
        fixed_point_residual,
        predict_limit,
        regime_name,
    )

    if args.zeta is not None and structure.num_sinks == 1:
        raise InvalidInitialError(
            "--zeta applies only to multi-sink networks; this network has one sink"
        )
    profile = centrality_profile(C, structure)
    yield f"regime: {regime_name(structure)}"
    yield "fixed points: every autocratic vertex e_i"
    # the uniform start is no vertex for n >= 2, so the structure alone decides
    prediction = predict_limit(C, structure, profile, np.full(C.n, 1.0 / C.n), args.tol)
    if prediction.kind == KIND_TWO_NODE_FAMILY and C.n == 2:
        yield "interior equilibria: every interior point (two-node network)"
    elif prediction.kind == KIND_TWO_NODE_FAMILY:
        yield _PAIR_FAMILY.format(*structure.sinks[0])
    elif prediction.kind == KIND_STAR_AUTOCRAT:
        yield f"autocrat at node {structure.centers[0]}; interior equilibria: none"
    elif prediction.kind == KIND_UNIQUE_INTERIOR:
        check = check_interior(C, prediction.x_star, structure.sink_index[0], profile.per_sink[0])
        yield f"interior equilibrium: {_fmt_vec(prediction.x_star)}"
        yield f"alpha: {_fmt(check.alpha)}"
        yield f"residual: {_fmt(check.residual)}"
        yield f"ordering check: {'PASS' if check.ordering_consistent else 'FAIL'}"
    elif args.zeta is None:
        # multi-sink: family unless the split is given
        yield (
            "equilibrium family: one equilibrium per split of power among "
            f"the {structure.num_sinks} sinks; pass --zeta to assemble one"
        )
        for k, c_k in enumerate(profile.per_sink, start=1):
            yield f"sink {k} centrality: {_fmt_vec(c_k)}"
    else:
        try:
            zeta = np.asarray([float(p) for p in args.zeta.split(",")], dtype=float)
            x_star = assemble_multisink_equilibrium(structure, profile, zeta, eps=args.tol)
        except FamilyParameterRequiredError:
            # all power on a two-node sink, the one sink with total 1
            yield _PAIR_FAMILY.format(*structure.sinks[int(np.argmax(zeta))])
        except ValueError as exc:
            # unparsable totals, a wrong count, or totals off the simplex
            raise InvalidInitialError(f"bad zeta spec {args.zeta!r}: {exc}") from exc
        else:
            yield f"sink power: {_fmt_vec(zeta)}"
            yield f"assembled equilibrium: {_fmt_vec(x_star)}"
            yield f"residual: {_fmt(fixed_point_residual(C, x_star))}"


def cmd_compare(args, C, structure) -> Iterator[str]:
    from .dynamics import _check_initial
    from .equilibria import compare_models

    # a bad start is an input error ahead of an unwritable --out
    x0 = _check_initial(_resolve_x0(args.x0, C.n), C.n)
    paths = [f"{args.out}.st.csv", f"{args.out}.df.csv"] if args.out else []
    with _output_files(paths):
        report = compare_models(
            C, x0,
            eps_conv=args.tol, max_steps=args.max_steps,
            record_every=args.record_every, structure=structure,
        )
        st, df = report.trajectory_st, report.trajectory_df
        for trajectory, path in zip((st, df), paths):
            netio.write_trajectory_csv(trajectory, path)
    yield f"regime: {report.regime}"
    yield f"steps: st={st.total_steps} df={df.total_steps}"
    for model, status in (("st", st.status), ("df", df.status)):
        yield f"status {model}: {status.text.format_map(vars(status))}"
    if report.limit_distance < 1e-6:
        yield f"limits agree (dist {report.limit_distance:.3g})"
    else:
        st_label = _pretty_limit(st.final_state)
        df_label = _pretty_limit(df.final_state)
        tail = "" if st_label == df_label else f": {st_label} vs {df_label}"
        yield f"limits differ (dist {report.limit_distance:.3g}){tail}"
    yield f"limit st: {_fmt_vec(st.final_state)}"
    yield f"limit df: {_fmt_vec(df.final_state)}"
    if st.sink_power is not None:
        yield f"sink power st: {_fmt_vec(st.sink_power[-1])}"
        yield f"sink power df: {_fmt_vec(df.sink_power[-1])}"
    if args.out:
        yield f"wrote trajectories: {paths[0]} {paths[1]}"


def _number(kind, rule: str, accept):
    """An argparse type for `kind` (int or float) values that `accept`
    holds; an unparsable value, or one `accept` rejects (NaN included),
    exits 2 with argparse's usage error, which echoes the flag's text."""

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {kind.__name__} value: {text!r}") from None
        if not accept(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text}")
        return value

    return parse


_step_count = _number(int, "non-negative", lambda v: v >= 0)
_record_interval = _number(int, "positive", lambda v: v >= 1)
_step_tolerance = _number(float, "finite and non-negative", lambda v: math.isfinite(v) and v >= 0)
_residual_tolerance = _number(float, "finite and positive", lambda v: math.isfinite(v) and v > 0)


def _output_path(text: str) -> str:
    """The argparse type of --out: '' is an input error, not an absent --out."""
    if not text:
        raise argparse.ArgumentTypeError("must name a file")
    return text


class _Parser(argparse.ArgumentParser):
    """An argparse parser, and through `add_subparsers` its subparsers, that
    reads every argument starting with a dash and a digit, a dash, a dot and
    a digit, or a dash and float()'s spelling of an infinity or NaN (any
    case) as a value: argparse's own pattern knows only -N and -N.N, so
    `--tol -1e-3`, `--tol -inf` or `--zeta -1e-3,1` would lose their value.
    No option of this grammar starts with a digit, "inf" or "nan"."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"-(\.?\d|inf(inity)?$|nan$)", re.IGNORECASE
        )


def _parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="powerflow",
        description="Social power dynamics on influence networks: classify "
        "structure, simulate self-weight trajectories, solve equilibria, "
        "and compare the single-timescale and classical update rules.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, run: bool = False, model: bool = False):
        p.add_argument("--network", help="network file (dense matrix or adjacency list)")
        p.add_argument(
            "--builder",
            help="synthetic network: star:N, ring:N or ds:N:SEED "
            "(doubly stochastic random)",
        )
        if model:
            p.add_argument(
                "--model", choices=MODELS, default=SINGLE_TIMESCALE,
                help="update rule: st (single-timescale) or df (classical)",
            )
        if run:
            p.add_argument(
                "--x0", default="uniform",
                help="initial self-weights: uniform, vertex:I, random:SEED "
                "or list:a,b,...",
            )
            p.add_argument(
                "--tol", type=_step_tolerance, default=EPS_CONV,
                help="step-delta tolerance (>= 0)",
            )
            p.add_argument("--max-steps", type=_step_count, default=DEFAULT_MAX_STEPS)
            p.add_argument("--record-every", type=_record_interval, default=1)

    p_classify = sub.add_parser("classify", help="report the network structure")
    add_common(p_classify)
    p_classify.set_defaults(func=cmd_classify)

    p_centrality = sub.add_parser("centrality", help="print centrality scores")
    add_common(p_centrality)
    p_centrality.set_defaults(func=cmd_centrality)

    p_sim = sub.add_parser("simulate", help="run one update rule")
    add_common(p_sim, run=True, model=True)
    p_sim.add_argument("--out", type=_output_path, help="write the trajectory CSV here")
    p_sim.add_argument(
        "--quiet", action="store_true", help="suppress per-step rows on stdout"
    )
    p_sim.set_defaults(func=cmd_simulate)

    p_eq = sub.add_parser("equilibrium", help="predict or assemble equilibria")
    add_common(p_eq)
    p_eq.add_argument(
        "--tol", type=_residual_tolerance, default=EPS_EQUILIBRIUM,
        help="largest accepted residual of the interior-equilibrium solve: "
        "|sum(x) - mass| and |x_i (1 - x_i) - a c_i| (> 0)",
    )
    p_eq.add_argument("--zeta", help="sink power split a,b,... for multi-sink networks")
    p_eq.set_defaults(func=cmd_equilibrium)

    p_cmp = sub.add_parser("compare", help="run both update rules from one start")
    add_common(p_cmp, run=True)
    p_cmp.add_argument("--out", type=_output_path, help="prefix for the two trajectory CSVs")
    p_cmp.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    _configure_logging()
    try:
        C = _load_network(args)
        # one write once the command has returned: one that raises prints nothing
        lines = args.func(args, C, classify(C))
        sys.stdout.write("".join(f"{line}\n" for line in lines))
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader left early (`| head`), after the run and any --out file
        # were complete.  As in the Python docs' SIGPIPE note, stdout goes to
        # os.devnull, so no later flush fails; one with no descriptor is replaced.
        devnull = open(os.devnull, "w")
        try:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        except (AttributeError, ValueError):
            sys.stdout = devnull
        else:
            devnull.close()
    except (ParseError, MatrixValidationError, EmptyAdviceSetError, InvalidInitialError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, PowerflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
