"""Drive a full experiment grid from a YAML config.

The harness expands problem x regularizer x solver x seed into cells,
runs each one deterministically, and writes per cell a trace CSV (whose
F and sigma columns are the convergence curves), a model file, the
pruning curves as .dat files and a summary row, then a summary.json.
Each file is written whole under a temporary name and renamed into
place.  The same entry points back the `sr2kit run / prune / report`
command line.
"""

import json
import pathlib
import tempfile

from sr2kit import harness

CONFIG = """\
problem:
  kind: logistic
  N: 200
  n: 12
  gen_seed: 3
regularizers:
  - kind: l1
    lam: 0.001
  - kind: l0
    lam: 0.001
solvers:
  sr2: {}
  proxgen: {alpha: auto}
run:
  seeds: [0, 1]
  batch_size: 32
  epochs: 5
"""

workdir = pathlib.Path(tempfile.mkdtemp(prefix="sr2kit_demo_"))
cfg_path = workdir / "config.yaml"
cfg_path.write_text(CONFIG)

spec = harness.parse_config(str(cfg_path))
cells = harness.plan_cells(spec)
print(f"planned {len(cells)} cells "
      f"({len(spec.solvers)} solvers x {len(spec.regularizers)} regs "
      f"x {len(spec.seeds)} seeds)")

out = workdir / "results"
summary = harness.run_experiments(spec, str(out), config_path=str(cfg_path))

print(f"\n{'cell':<28} {'objective':>10} {'acc':>6} {'%zero':>6}")
for row in summary:
    print(f"{row['cell']:<28} {row['final_objective']:>10.4f} "
          f"{row['accuracy']:>5.1f}% {row['pct_zero']:>5.1f}%")

print(f"\noutputs in {out}:")
for f in sorted(out.iterdir())[:8]:
    print(" ", f.name)
print("  ...")

# summary.json holds the same rows, each also saved as run_<cell>.json;
# `sr2kit report --out DIR` writes summary.json again from those files
rows = json.loads((out / "summary.json").read_text())
print(f"\nsummary.json rows: {len(rows)}")
print("equivalent CLI: sr2kit run --config config.yaml --out results/")
