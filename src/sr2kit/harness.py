"""Configuration-driven experiment runner.

A YAML config describes one problem, a regularizer grid, a solver grid and
a list of seeds; run_experiments executes every (solver, regularizer,
seed) cell, writing per-cell trace CSVs, model files, pruning sweeps and
summary rows (run_<cell>.json, failed cells included), plus summary.json,
which rebuild_summary writes again from the saved rows.  All outputs are
deterministic functions of (config, seeds) except the wall-time column.

A baseline's alpha: auto (1/L) is resolved once per run, in the parent
process, before any cell runs: a pool worker never computes L, and a grid
without such a baseline never does.
"""

from __future__ import annotations

import contextlib
import dataclasses
import itertools
import json
import math
import os
import types
import typing
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Literal

import numpy as np
import yaml

from . import baselines, diagnostics, problems, sr2
from .errors import ParseError, UnsupportedMetricError
from .regularizers import L0, L1, L0Ball, Zero, reg_value

__all__ = [
    "ExperimentSpec",
    "parse_config",
    "build_problem",
    "run_experiments",
    "emit_plot_data",
    "rebuild_summary",
    "save_model",
    "load_model",
    "TRACE_SCHEMA",
]

TRACE_SCHEMA = "sr2kit-trace-v1"
TRACE_COLUMNS = (
    "t", "sigma", "rho", "step_norm_sq", "accepted",
    "F_sampled_before", "F_sampled_after", "F_full", "model_decrease",
    "batch_size", "assumption_rejected", "nnz", "wall_time",
)

DEFAULT_L1_GRID = (1e-4, 1e-3, 1e-2)

_SECTIONS = {"problem": dict, "regularizers": list | None,
             "solvers": dict | None, "run": dict | None}
_DATA = {"data": str, "format": Literal["csv", "libsvm"]}
#: problem kind -> the keys build_problem reads for it: a required key is
#: given by its type, an optional one by its default, and one with a fixed
#: set of values by a Literal of them, its default first
_PROBLEMS = {
    "least_squares": {"N": int, "n": int, "noise_sd": 0.0, "gen_seed": 0},
    "logistic": {"N": int, "n": int, "separation": 1.0, "gen_seed": 0},
    "sparse_recovery": {"N": int, "n": int, "support_size": 10,
                        "noise_sd": 0.0, "gen_seed": 0},
    "mlp": {**_DATA, "hidden": 8,
            "task": Literal["regression", "classification"], "gen_seed": 0},
    "data_least_squares": _DATA,
    "data_logistic": _DATA,
}
#: regularizer kind -> class; its keys and their types are its fields
_REGULARIZERS = {"zero": Zero, "l1": L1, "l0": L0, "l0ball": L0Ball}
#: run key -> default; the types are those of the ExperimentSpec fields
_RUN = {"seeds": [0], "batch_size": 128, "max_iter": None, "epochs": None,
        "prune_thresholds": diagnostics.DEFAULT_PRUNE_THRESHOLDS}

#: solver name -> (config class, module, runner name); the runner is looked
#: up on its module when a cell runs, so a function patched there is used
_SOLVERS = {"sr2": (sr2.SolverConfig, sr2, "run"),
            "proxgen": (baselines.BaselineConfig, baselines, "run_proxgen"),
            "proxsgd": (baselines.BaselineConfig, baselines, "run_proxsgd")}


@dataclass
class ExperimentSpec:
    problem: dict               # kind and the keys _PROBLEMS gives it
    regularizers: list          # list of Regularizer
    solvers: dict               # name -> override dict
    seeds: list[int]
    batch_size: int
    max_iter: int | None
    epochs: int | None
    prune_thresholds: tuple[float, ...]
    skipped: list = field(default_factory=list)  # (solver, reg tag) pairs


def _read(where, value, tp):
    """value as type tp.  An int must be written as one; a float may be any
    number or a numeric string (YAML reads 1e-4 as a string); a list is
    read element by element, a union as its first member that fits, and a
    Literal only as one of its values."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is Literal:
        if value in args:
            return value
        raise ParseError(f"{where} must be one of {', '.join(args)}, got {value!r}")
    if origin is types.UnionType:
        for member in args:
            with contextlib.suppress(ParseError):
                return _read(where, value, member)
    elif origin in (list, tuple):
        if isinstance(value, list):
            return origin(_read(f"{where}[{i}]", v, args[0])
                          for i, v in enumerate(value))
    elif isinstance(value, bool) != (tp is bool):
        pass  # a bool is not a number, and only a bool is a bool
    elif tp is float and isinstance(value, (int, float, str)):
        with contextlib.suppress(ValueError, OverflowError):
            return float(value)
    elif isinstance(value, tp):
        return value
    raise ParseError(f"{where} must be {getattr(tp, '__name__', tp)}, got {value!r}")


def _read_keys(where, section, hints, required=()):
    """The mapping section, which may hold only the keys of hints and must
    hold those of required, with each value read by its type in hints."""
    if not isinstance(section, dict):
        raise ParseError(f"[{where}] must be a mapping, got {section!r}")
    for what, keys in (("unknown", set(section) - set(hints)),
                       ("missing", set(required) - set(section))):
        if keys:
            raise ParseError(f"{what} key(s) in [{where}]: "
                             f"{', '.join(sorted(map(str, keys)))}")
    return {key: _read(f"{where}.{key}", value, hints[key])
            for key, value in section.items()}


def _kind(where, section, table):
    """The entry of table that the mapping section names by its kind."""
    kind = _read(where, section, dict).get("kind")
    if not isinstance(kind, str) or kind not in table:
        raise ParseError(f"[{where}] needs a kind out of "
                         f"{', '.join(table)}, got {kind!r}")
    return table[kind]


def _regularizer(where, entry):
    cls = _kind(where, entry, _REGULARIZERS)
    hints = typing.get_type_hints(cls)
    kw = _read_keys(where, entry, {"kind": str, **hints}, hints)
    del kw["kind"]
    try:
        return cls(**kw)
    except ValueError as exc:
        raise ParseError(f"[{where}] {exc}") from None


def parse_config(path):
    """Load a YAML experiment config into an ExperimentSpec.  Every config
    error, a key that no code reads and a file that cannot be read or is
    not YAML included, is a ParseError raised here."""
    try:
        with open(path) as fh:
            doc = yaml.safe_load(fh)
    except (OSError, yaml.YAMLError) as exc:
        # one line: YAML's own message spans several
        raise ParseError(f"cannot read config {path}: "
                         f"{' '.join(str(exc).split())}") from None
    raw = _read_keys("config", doc, _SECTIONS, ["problem"])

    keys = _kind("problem", raw["problem"], _PROBLEMS)
    required = [key for key, v in keys.items() if isinstance(v, type)]
    choices = [key for key, v in keys.items() if typing.get_origin(v) is Literal]
    hints = {key: v if key in required + choices else type(v)
             for key, v in keys.items()}
    defaults = {key: typing.get_args(v)[0] if key in choices else v
                for key, v in keys.items()}
    prob = {**defaults, **_read_keys("problem", raw["problem"],
                                     {"kind": str, **hints}, required)}

    entries = raw.get("regularizers")
    if entries is None:
        entries = [{"kind": "l1", "lam": lam} for lam in DEFAULT_L1_GRID]
    if not entries:
        raise ParseError("regularizer grid must be nonempty")
    regs = [_regularizer(f"regularizers[{i}]", entry)
            for i, entry in enumerate(entries)]

    solvers = {}
    for name, section in _read_keys("solvers", raw.get("solvers") or {"sr2": {}},
                                    dict.fromkeys(_SOLVERS, dict | None)).items():
        config_class = _SOLVERS[name][0]
        hints = typing.get_type_hints(config_class)
        del hints["seed"]  # each cell runs with its own seed
        section = dict(section or {})
        if "alpha" in hints and section.get("alpha") == "auto":
            del section["alpha"]  # the default: resolved per problem
        solvers[name] = _read_keys(f"solvers.{name}", section, hints)
        try:
            config_class(**solvers[name]).validated()
        except ValueError as exc:
            raise ParseError(f"[solvers.{name}] {exc}") from None

    hints = typing.get_type_hints(ExperimentSpec)
    run = {**_RUN, **_read_keys("run", raw.get("run") or {},
                                {key: hints[key] for key in _RUN})}
    if not run["seeds"]:
        raise ParseError("run.seeds must be nonempty")
    for key, low in (("batch_size", 1), ("max_iter", 0), ("epochs", 0)):
        if run[key] is not None and run[key] < low:
            raise ParseError(f"run.{key} must be >= {low}, got {run[key]}")
    if run["max_iter"] is not None and run["epochs"] is not None:
        raise ParseError("run takes max_iter or epochs, not both")

    spec = ExperimentSpec(problem=prob, regularizers=regs, solvers=solvers, **run)
    # a cell's name names its files: two cells of one name overwrite them
    [(name, count)] = Counter(_cell_name(*cell) for cell in itertools.product(
        solvers, regs, spec.seeds)).most_common(1)
    if count > 1:
        raise ParseError(f"cell {name} appears {count} times in the grid")
    # proxsgd cannot run nonconvex regularizers; drop those cells up front
    if "proxsgd" in solvers:
        spec.skipped = [("proxsgd", _reg_tag(reg)) for reg in regs if not reg.convex]
    return spec


def _copy_config(config_path, out_dir, seeds):
    """The config as out_dir/config.yaml, byte for byte unless the seeds
    that run differ from its own; then it lists them, for rebuild_summary."""
    with open(config_path, "rb") as fh:
        text = fh.read()
    raw = yaml.safe_load(text)
    if (raw.get("run") or {}).get("seeds", _RUN["seeds"]) != seeds:
        raw["run"] = {**(raw.get("run") or {}), "seeds": seeds}
        text = yaml.safe_dump(raw, sort_keys=False).encode()
    with open(os.path.join(out_dir, "config.yaml"), "wb") as fh:
        fh.write(text)


def build_problem(spec):
    """Instantiate the problem described by spec.problem, as parse_config
    reads it (seeded by gen_seed, independent of the solver seeds)."""
    prob = spec.problem
    kind = prob["kind"]
    if kind in ("data_least_squares", "data_logistic"):
        ds = _load_dataset(prob)
        cls = problems.Logistic if kind == "data_logistic" else problems.LeastSquares
        return cls(ds.features, ds.targets, name=f"{prob['format']}:{prob['data']}")
    rng = np.random.default_rng(prob["gen_seed"])
    if kind == "least_squares":
        return problems.make_least_squares(rng, prob["N"], prob["n"],
                                           noise_sd=prob["noise_sd"])
    if kind == "logistic":
        return problems.make_logistic(rng, prob["N"], prob["n"],
                                      separation=prob["separation"])
    if kind == "sparse_recovery":
        return problems.make_sparse_recovery(
            rng, prob["N"], prob["n"], prob["support_size"],
            noise_sd=prob["noise_sd"]).problem
    return problems.make_tiny_mlp(rng, _load_dataset(prob), prob["hidden"],
                                  task=prob["task"])


def _load_dataset(prob):
    load = problems.load_libsvm if prob["format"] == "libsvm" else problems.load_csv
    return load(prob["data"])


def _reg_tag(reg):
    """The regularizer's kind and its field values: zero, l1_0.0001."""
    kind = next(k for k, cls in _REGULARIZERS.items() if isinstance(reg, cls))
    return "_".join([kind, *(f"{getattr(reg, f.name):g}"
                             for f in dataclasses.fields(reg))])


def _cell_name(solver, reg, seed):
    return f"{solver}_{_reg_tag(reg)}_s{seed}"


def _fmt(v):
    if v is None:
        return ""
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def write_trace_csv(path, trace):
    with open(path, "w") as fh:
        fh.write(f"# {TRACE_SCHEMA}\n")
        fh.write(",".join(TRACE_COLUMNS) + "\n")
        for rec in trace:  # IterationRecord's fields are TRACE_COLUMNS
            fh.write(",".join(_fmt(v) for v in vars(rec).values()) + "\n")


def save_model(path, x):
    """Flat parameter list with a dimension header."""
    x = np.asarray(x, dtype=float)
    with open(path, "w") as fh:
        fh.write(f"{x.size}\n")
        for v in x:
            fh.write(f"{v:.17g}\n")


def load_model(path):
    """A model file as save_model writes it; a malformed line is a ParseError."""
    with open(path) as fh:
        header = fh.readline().strip()
        if not header.isdigit():
            raise ParseError(f"expected a parameter count, got {header!r}",
                             line=1)
        n = int(header)
        vals = [problems._parse_float(line.strip(), lineno)
                for lineno, line in enumerate(fh, start=2) if line.strip()]
    if len(vals) != n:
        raise ParseError(f"model header says {n} params, file has {len(vals)}")
    return np.array(vals)


def _epoch_length(N, batch):
    return math.ceil(N / min(batch, N))


def _resolve_alpha(spec, p):
    """spec with alpha: auto (a baseline section without alpha) set to 1/L
    on p for each baseline that has a cell: the one read of L in a run."""
    solvers = dict(spec.solvers)
    for solver in {solver for solver, _, _ in plan_cells(spec)}:
        if (_SOLVERS[solver][0] is baselines.BaselineConfig
                and "alpha" not in solvers[solver]):
            alpha = 1.0 / p.L_bound if p.L_bound else 1e-3
            if solver == "proxsgd":
                alpha = min(1.0, alpha)  # interpolation factor lives in (0, 1]
            solvers[solver] = {**solvers[solver], "alpha": alpha}
    return dataclasses.replace(spec, solvers=solvers)


def _run_cell(spec, p, solver, reg, seed):
    """Run one cell.  Its budget is the solver section's max_iter, else
    run.max_iter, else run.epochs over the solver's own batch size, else
    its config class's default.  A baseline's alpha is resolved in spec
    (_resolve_alpha)."""
    config_class, module, runner = _SOLVERS[solver]
    overrides = {"batch_size": spec.batch_size, **spec.solvers[solver],
                 "seed": seed}
    budget = (spec.max_iter if spec.epochs is None else
              spec.epochs * _epoch_length(p.N, overrides["batch_size"]))
    if budget is not None:
        overrides.setdefault("max_iter", budget)
    return getattr(module, runner)(p, reg, np.zeros(p.n),
                                   config_class(**overrides))


def _prune_sweep(p, x, thresholds):
    """Per-threshold (alpha, sparsity %, accuracy or None) rows, and the
    accuracy of x itself.  Each distinct model is scored once: most
    thresholds prune the same weights, and the smallest often none."""
    scores = {}  # model bytes -> accuracy or None

    def score(model):
        key = model.tobytes()
        if key not in scores:
            try:
                scores[key] = diagnostics.accuracy(p, model)
            except (UnsupportedMetricError, NotImplementedError):
                scores[key] = None
        return scores[key]

    rows = []
    for alpha in thresholds:
        x_p, frac = diagnostics.prune(x, alpha)
        rows.append((alpha, 100.0 * frac, score(x_p)))
    return rows, score(x)


#: the output files of a cell, by its name
_CELL_FILES = ("trace_{}.csv", "model_{}.txt", "prune_sparsity_{}.dat",
               "prune_accuracy_{}.dat", "objective_{}.dat", "sigma_{}.dat")


def _cell_job(spec, p, solver, reg, seed, out_dir):
    """Run one cell, write its outputs and save its summary row; returns
    the row.  The cell's files from an earlier run go first, so a cell
    that fails leaves none.  A failing cell gives an error row, in a pool
    worker as in the parent."""
    cell = _cell_name(solver, reg, seed)
    try:
        for name in _CELL_FILES:
            with contextlib.suppress(FileNotFoundError):
                os.remove(os.path.join(out_dir, name.format(cell)))
        result = _run_cell(spec, p, solver, reg, seed)
        write_trace_csv(os.path.join(out_dir, f"trace_{cell}.csv"), result.trace)
        save_model(os.path.join(out_dir, f"model_{cell}.txt"), result.x)
        sweep, acc = _prune_sweep(p, result.x, spec.prune_thresholds)
        emit_plot_data(out_dir, cell, result.trace, sweep)
        row = _summary_row(p, solver, reg, seed, result, acc, sweep)
    except Exception as exc:  # record, keep going
        row = {"solver": solver, "reg": _reg_tag(reg), "seed": seed,
               "error": str(exc)}
    row["cell"] = cell
    _write_json(os.path.join(out_dir, f"run_{cell}.json"), row)
    return row


# (spec, problem) of a pool worker, set once per worker by _init_worker
_worker_state = None


def _init_worker(spec, p):
    global _worker_state
    _worker_state = (spec, p)


def _worker_cell_job(cell_args):
    return _cell_job(*_worker_state, *cell_args)


def _summary_row(p, solver, reg, seed, result, acc, sweep):
    """The summary row of the cell's RunResult.  Its epochs are the steps
    at each batch size over that size's epoch length."""
    x = result.x
    report = diagnostics.sparsity_report(x, thresholds=(1e-3,))
    batches = Counter(rec.batch_size for rec in result.trace)
    return {
        "solver": solver,
        "reg": _reg_tag(reg),
        "lambda": getattr(reg, "lam", None),
        "seed": seed,
        "final_objective": p.full_value(x) + reg_value(reg, x),
        "accuracy": acc,
        "pct_zero": report.pct_exact_zero,
        "pct_below_1e-3": report.pct_below[1e-3],
        "stop_reason": result.stop_reason,
        "iterations": len(result.trace),
        "epochs": sum((k / _epoch_length(p.N, b)
                       for b, k in batches.items()), 0.0),
        "prune_sweep": [
            {"alpha": a, "sparsity_pct": s, "accuracy": acc_}
            for a, s, acc_ in sweep
        ],
    }


def plan_cells(spec):
    """(solver, regularizer, seed) triples after the skip rule."""
    skipped = set(spec.skipped)
    return [(solver, reg, seed) for solver, reg, seed in itertools.product(
        spec.solvers, spec.regularizers, spec.seeds)
        if (solver, _reg_tag(reg)) not in skipped]


def run_experiments(spec, out_dir, jobs=1, config_path=None):
    """Execute the full experiment matrix; returns the summary row list.

    Per-cell failures are recorded in the summary without aborting the
    other cells.
    """
    os.makedirs(out_dir, exist_ok=True)
    if config_path is not None:
        _copy_config(config_path, out_dir, spec.seeds)
    p = build_problem(spec)
    spec = _resolve_alpha(spec, p)
    cells = [(*cell, out_dir) for cell in plan_cells(spec)]
    if jobs > 1:
        # the problem goes to each worker once (inherited as is under fork),
        # not pickled with every cell
        with ProcessPoolExecutor(max_workers=jobs, initializer=_init_worker,
                                 initargs=(spec, p)) as pool:
            summary = list(pool.map(_worker_cell_job, cells))
    else:
        summary = [_cell_job(spec, p, *cell) for cell in cells]
    _write_summary(out_dir, spec, summary)
    return summary


def _write_summary(out_dir, spec, summary):
    """Add the rows of the skipped cells and write summary.json."""
    for solver, reg in spec.skipped:
        summary.append({"solver": solver, "reg": reg, "skipped": True,
                        "reason": "nonconvex regularizer unsupported by proxsgd"})
    _write_json(os.path.join(out_dir, "summary.json"), summary)


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def emit_plot_data(out_dir, cell, trace, sweep):
    """Two-column text files: pruning curves and convergence series."""
    with open(os.path.join(out_dir, f"prune_sparsity_{cell}.dat"), "w") as fh:
        for alpha, sparsity, _ in sweep:
            fh.write(f"{alpha:.17g} {sparsity:.17g}\n")
    if any(acc is not None for _, _, acc in sweep):
        with open(os.path.join(out_dir, f"prune_accuracy_{cell}.dat"), "w") as fh:
            for alpha, _, acc in sweep:
                fh.write(f"{alpha:.17g} {acc:.17g}\n")
    with open(os.path.join(out_dir, f"objective_{cell}.dat"), "w") as fh:
        for rec in trace:
            F = rec.F_full if rec.F_full is not None else rec.F_sampled_before
            fh.write(f"{rec.t} {F:.17g}\n")
    with open(os.path.join(out_dir, f"sigma_{cell}.dat"), "w") as fh:
        for rec in trace:
            fh.write(f"{rec.t} {rec.sigma_used:.17g}\n")


def rebuild_summary(out_dir):
    """Write summary.json again from the rows that run_experiments saved
    per cell in out_dir, in the order of the grid of its config copy.  A
    missing or unreadable row leaves summary.json as it was."""
    config_path = os.path.join(out_dir, "config.yaml")
    if not os.path.exists(config_path):
        raise ParseError(f"no config.yaml in {out_dir}; cannot rebuild")
    spec = parse_config(config_path)
    summary = []
    for cell in plan_cells(spec):
        path = os.path.join(out_dir, f"run_{_cell_name(*cell)}.json")
        try:
            with open(path) as fh:
                summary.append(json.load(fh))
        except FileNotFoundError:
            raise ParseError(f"no {os.path.basename(path)} in {out_dir}; "
                             "cannot rebuild") from None
        except ValueError as exc:
            raise ParseError(f"{path}: {exc}") from None
    _write_summary(out_dir, spec, summary)
    return summary
