"""Configuration-driven experiment runner.

A YAML config describes one problem, a regularizer grid, a solver grid and
a list of seeds; run_experiments executes every (solver, regularizer,
seed) cell, writing per-cell trace CSVs, model files, pruning curves and
summary rows (run_<cell>.json, failed cells included), plus summary.json,
which rebuild_summary writes again from the saved rows.  Each file is
written whole or not at all, by _write.  All outputs are deterministic
functions of (config, seeds) except the wall-time column.

L, for a baseline's alpha: auto (1/L) or SR2's kappa_m: auto under the
guard, is computed at most once per run, in the parent, before any cell
runs: a pool worker never computes it, and a grid without them never does.
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
from .errors import ParseError
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
_REGULARIZERS = {cls.kind: cls for cls in (Zero, L1, L0, L0Ball)}
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


def _check_low(where, section, bounds):
    """A ParseError unless every key of the (key, low) pairs in bounds
    that section sets, to a value other than None, is at least low."""
    for key, low in bounds:
        if section.get(key) is not None and section[key] < low:
            raise ParseError(f"{where}.{key} must be >= {low}, got {section[key]}")


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
    _check_low("problem", prob, (("N", 1), ("n", 1), ("hidden", 1),
                                 ("gen_seed", 0), ("support_size", 0)))
    for key in ("noise_sd", "separation"):
        if not math.isfinite(prob.get(key, 0.0)):
            raise ParseError(f"problem.{key} must be finite, got {prob[key]}")
    if prob.get("support_size", 0) > prob.get("n", 0):
        raise ParseError(f"problem.support_size must be <= n = {prob['n']}, "
                         f"got {prob['support_size']}")

    entries = raw.get("regularizers")
    regs = ([L1(lam) for lam in DEFAULT_L1_GRID] if entries is None else
            [_regularizer(f"regularizers[{i}]", entry)
             for i, entry in enumerate(entries)])
    if not regs:
        raise ParseError("regularizer grid must be nonempty")

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
            config_class(**solvers[name])
        except ValueError as exc:
            raise ParseError(f"[solvers.{name}] {exc}") from None

    hints = typing.get_type_hints(ExperimentSpec)
    run = {**_RUN, **_read_keys("run", raw.get("run") or {},
                                {key: hints[key] for key in _RUN})}
    if not run["seeds"]:
        raise ParseError("run.seeds must be nonempty")
    if min(run["seeds"]) < 0:
        raise ParseError(f"run.seeds must be >= 0, got {min(run['seeds'])}")
    _check_low("run", run, (("batch_size", 1), ("max_iter", 0), ("epochs", 0)))
    for i, alpha in enumerate(run["prune_thresholds"]):
        if not 0 < alpha < math.inf:
            raise ParseError(f"run.prune_thresholds[{i}] must be positive "
                             f"and finite, got {alpha}")
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
    _write(os.path.join(out_dir, "config.yaml"), text)


def build_problem(spec):
    """Instantiate the problem described by spec.problem, as parse_config
    reads it (seeded by gen_seed, independent of the solver seeds)."""
    prob = spec.problem
    kind = prob["kind"]
    if "data" in prob:
        try:
            return _data_problem(prob)
        except (OSError, UnicodeDecodeError) as exc:
            raise ParseError(f"cannot read data {prob['data']}: {exc}") from None
        except ValueError as exc:  # a malformed line, or values the problem rejects
            raise ParseError(f"data {prob['data']}: {exc}") from None
    rng = np.random.default_rng(prob["gen_seed"])
    if kind == "least_squares":
        return problems.make_least_squares(rng, prob["N"], prob["n"],
                                           noise_sd=prob["noise_sd"])
    if kind == "logistic":
        return problems.make_logistic(rng, prob["N"], prob["n"],
                                      separation=prob["separation"])
    return problems.make_sparse_recovery(
        rng, prob["N"], prob["n"], prob["support_size"],
        noise_sd=prob["noise_sd"]).problem


def _data_problem(prob):
    load = problems.load_libsvm if prob["format"] == "libsvm" else problems.load_csv
    ds = load(prob["data"])
    if prob["kind"] == "mlp":
        return problems.make_tiny_mlp(np.random.default_rng(prob["gen_seed"]),
                                      ds, prob["hidden"], task=prob["task"])
    cls = problems.Logistic if prob["kind"] == "data_logistic" else problems.LeastSquares
    return cls(ds.features, ds.targets, name=f"{prob['format']}:{prob['data']}")


def _reg_tag(reg):
    """The regularizer's kind and its field values, each as %g, joined by _."""
    return "_".join([reg.kind, *(f"{getattr(reg, f.name):g}"
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


def _write(path, data):
    """data, bytes or lines (each ended with a newline), as the file at
    path, whole or not at all: it is written under a temporary name beside
    path and then renamed to it, so an interrupted write leaves no partial
    file under a final name.  The one place that opens a file for writing."""
    if not isinstance(data, bytes):
        data = "".join(f"{line}\n" for line in data).encode()
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def write_trace_csv(path, trace):
    # IterationRecord's fields are TRACE_COLUMNS
    _write(path, [f"# {TRACE_SCHEMA}", ",".join(TRACE_COLUMNS),
                  *(",".join(map(_fmt, vars(rec).values())) for rec in trace)])


def save_model(path, x):
    """Flat parameter list with a dimension header."""
    x = np.asarray(x, dtype=float)
    _write(path, [x.size, *(f"{v:.17g}" for v in x)])


def load_model(path):
    """A model file as save_model writes it; a malformed line is a ParseError."""
    with open(path) as fh:
        header = fh.readline().strip()
        if not header.isdigit():
            raise ParseError(f"expected a parameter count, got {header!r}",
                             line=1)
        n = int(header)
        if n == 0:
            raise ParseError("model has no parameters", line=1)
        vals = [problems._parse_float(line.strip(), lineno)
                for lineno, line in enumerate(fh, start=2) if line.strip()]
    if len(vals) != n:
        raise ParseError(f"model header says {n} params, file has {len(vals)}")
    return np.array(vals)


def _epoch_length(N, batch):
    return math.ceil(N / min(batch, N))


def _resolve_alpha(spec, p):
    """spec with alpha: auto (a baseline section without alpha) set to 1/L
    on p for each baseline that has a cell, and L cached on p if an SR2
    cell reads it (kappa_m: auto under the guard): one read of L per run."""
    solvers = dict(spec.solvers)
    for solver in {solver for solver, _, _ in plan_cells(spec)}:
        if solver == "sr2":
            cfg = sr2.SolverConfig(**solvers[solver])
            if cfg.assumption_check != "off" and cfg.kappa_m == "auto":
                p.L_bound  # computed here, so that no pool worker does
        elif "alpha" not in solvers[solver]:
            alpha = 1.0 / p.L_bound if p.L_bound else 1e-3
            if solver == "proxsgd" and alpha > 1.0:  # a NaN stays, to fail
                alpha = 1.0  # interpolation factor lives in (0, 1]
            solvers[solver] = {**solvers[solver], "alpha": alpha}
    return dataclasses.replace(spec, solvers=solvers)


def _run_cell(spec, p, solver, reg, seed):
    """Run one cell.  Its budget is the solver section's max_iter, else
    run.max_iter, else run.epochs over the solver's own batch size, else
    its config class's default.  An epoch is ceil(N / batch) steps: when
    batch does not divide N, its last step does not fit in what is left
    of the sampler's permutation and starts the next one.  A baseline's
    alpha is resolved in spec (_resolve_alpha)."""
    config_class, module, runner = _SOLVERS[solver]
    overrides = {"batch_size": spec.batch_size, **spec.solvers[solver],
                 "seed": seed}
    budget = (spec.max_iter if spec.epochs is None else
              spec.epochs * _epoch_length(p.N, overrides["batch_size"]))
    if budget is not None:
        overrides.setdefault("max_iter", budget)
    return getattr(module, runner)(p, reg, np.zeros(p.n),
                                   config_class(**overrides))


def _objective_and_accuracy(p, x):
    """f(x) and the accuracy of x (None without labels), both from one
    forward pass over the data."""
    fwd = p.full.forward(x)
    acc = (None if p.labels is None else
           diagnostics.accuracy_of_margins(fwd[1], p.labels))
    return p.full.value_of(fwd), acc


def _prune_sweep(p, x, acc, thresholds):
    """Per-threshold (alpha, sparsity %, accuracy or None) rows, given the
    accuracy acc of x, None throughout when acc is.  Each distinct model
    is scored once: most thresholds prune the same weights, and the
    smallest often none."""
    scores = {x.tobytes(): acc}  # model bytes -> accuracy or None

    def score(model):
        key = model.tobytes()
        if acc is not None and key not in scores:
            scores[key] = diagnostics.accuracy(p, model)
        return scores.get(key)

    rows = []
    for alpha in thresholds:
        x_p, frac = diagnostics.prune(x, alpha)
        rows.append((alpha, 100.0 * frac, score(x_p)))
    return rows


#: the output files of a cell, by its name
_CELL_FILES = ("run_{}.json", "trace_{}.csv", "model_{}.txt",
               "prune_sparsity_{}.dat", "prune_accuracy_{}.dat")


def _remove_cell_files(out_dir, cell):
    for name in _CELL_FILES:
        with contextlib.suppress(FileNotFoundError):
            os.remove(os.path.join(out_dir, name.format(cell)))


def _cell_job(spec, p, solver, reg, seed, out_dir):
    """Run one cell, write its outputs and save its summary row; returns
    the row.  The cell's files go before it runs, an earlier row among
    them, and again if it fails, so a failing cell leaves only its error
    row, in a pool worker as in the parent, and an interrupted one no row."""
    cell = _cell_name(solver, reg, seed)
    try:
        _remove_cell_files(out_dir, cell)
        result = _run_cell(spec, p, solver, reg, seed)
        write_trace_csv(os.path.join(out_dir, f"trace_{cell}.csv"), result.trace)
        save_model(os.path.join(out_dir, f"model_{cell}.txt"), result.x)
        f, acc = _objective_and_accuracy(p, result.x)
        sweep = _prune_sweep(p, result.x, acc, spec.prune_thresholds)
        emit_plot_data(out_dir, cell, sweep)
        row = _summary_row(p, solver, reg, seed, result, f, acc, sweep)
    except Exception as exc:  # record, keep going
        _remove_cell_files(out_dir, cell)
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


def _summary_row(p, solver, reg, seed, result, f, acc, sweep):
    """The summary row of the cell's RunResult, whose f(x) is f.  Its epochs
    are the steps at each batch size over that size's epoch length."""
    x = result.x
    report = diagnostics.sparsity_report(x, thresholds=(1e-3,))
    batches = Counter(rec.batch_size for rec in result.trace)
    return {
        "solver": solver,
        "reg": _reg_tag(reg),
        "lambda": getattr(reg, "lam", None),
        "seed": seed,
        "final_objective": f + reg_value(reg, x),
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

    A cell that fails gets an error row in the summary and does not stop
    the other cells.
    """
    p = build_problem(spec)  # a data file that cannot be read writes nothing
    os.makedirs(out_dir, exist_ok=True)
    if config_path is not None:
        _copy_config(config_path, out_dir, spec.seeds)
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
    _write(path, [json.dumps(obj, indent=2, sort_keys=True)])


def emit_plot_data(out_dir, cell, sweep):
    """The pruning curves as two-column text files: sparsity, and accuracy
    when the sweep has it, against the threshold."""
    _write(os.path.join(out_dir, f"prune_sparsity_{cell}.dat"),
           [f"{alpha:.17g} {sparsity:.17g}" for alpha, sparsity, _ in sweep])
    if any(acc is not None for _, _, acc in sweep):
        _write(os.path.join(out_dir, f"prune_accuracy_{cell}.dat"),
               [f"{alpha:.17g} {acc:.17g}" for alpha, _, acc in sweep])


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
