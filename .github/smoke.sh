#!/bin/sh
# Smoke run of the command line on small generated corpora: every
# subcommand, the apply path with scipy blocked, reruns that must repeat
# byte for byte, a continuous feature that the fit bins, and two usage
# errors.  Run it from an empty directory,
# where it writes its files.
#
# IRTIMPUTE names the command to run (default: the installed console
# script).  From a checkout, without installing:
#
#   PYTHONPATH=/path/to/checkout/src IRTIMPUTE="python -m irtimpute.cli" \
#     sh /path/to/checkout/.github/smoke.sh
set -eu
irtimpute=${IRTIMPUTE:-irtimpute}

# applying a model, scoring it and Little's test need no scipy
without_scipy() {
  python -c "import sys; sys.modules['scipy'] = None; from irtimpute.cli import main; sys.exit(main(sys.argv[1:]))" "$@"
}

$irtimpute --help > /dev/null
python - <<'EOF'
import csv
import io

import numpy as np
from irtimpute.data import (MISSING, CategoricalDataset, ColumnSchema,
                            emit_csv, format_schema)
from irtimpute.simulate import simulate_dataset, simulate_items
items = simulate_items("grm", 4, np.random.default_rng(1), n_categories=3)
data = simulate_dataset(items, 300, seed=2)
# blank about 10 % of the cells, so that Little's test runs its EM
cells = data.cells.copy()
cells[np.random.default_rng(3).random(cells.shape) < 0.1] = MISSING
emit_csv(data, "truth.csv")
emit_csv(data.with_cells(cells), "corpus.csv")
with open("corpus.cols", "w") as handle:
    handle.write(format_schema(data.schemas))
# 2 500 rows: three blocks of the likelihood core, the last short
big = simulate_dataset(items, 2500, seed=5)
cells = big.cells.copy()
cells[np.random.default_rng(6).random(cells.shape) < 0.1] = MISSING
emit_csv(big.with_cells(cells), "big.csv")
# one row with exactly one blank cell, alone and after big.csv's rows
row = big.cells[:1].copy()
row[0, 0] = MISSING
emit_csv(big.with_cells(row), "one.csv")
emit_csv(big.with_cells(np.vstack([cells, row])), "many.csv")
# corpus.csv's items and one continuous feature that follows their sum
rng = np.random.default_rng(7)
cells = np.column_stack([data.cells, data.cells.sum(axis=1)
                         + rng.normal(0, 1, data.n_rows)])
cells[rng.random(cells.shape) < 0.1] = MISSING
schemas = (*data.schemas, ColumnSchema("x", "continuous"))
emit_csv(CategoricalDataset(schemas, cells), "cont.csv")
with open("cont.cols", "w") as handle:
    handle.write(format_schema(schemas))
# corpus.csv with \n line ends, with \r\n ones, with one quoted header
# name, with every header name quoted, with every field quoted, R-style
# (header names and labels quoted, as R's write.csv quotes factors), with a
# UTF-8 byte order mark, and with a UTF-8 label (item00's 2 written as
# groß, in corpus-utf8.cols too)
with open("corpus.csv", newline="", encoding="utf-8") as handle:
    text = handle.read().replace("\r\n", "\n")
header, rest = text.split("\n", 1)
names = ",".join(f'"{name}"' for name in header.split(","))
rows = [line.split(",") for line in text.splitlines()]
quoted = io.StringIO()
csv.writer(quoted, quoting=csv.QUOTE_ALL, lineterminator="\n").writerows(rows)
variants = {"lf": text, "crlf": text.replace("\n", "\r\n"),
            "quoted": '"' + text.replace(",", '",', 1),
            "names": names + "\n" + rest, "all": quoted.getvalue(),
            "r": names + "\n" + "".join(
                ",".join(f'"{field}"' if field else "" for field in row)
                + "\n" for row in rows[1:]),
            "bom": "\ufeff" + text, "utf8": text.replace("\n2,", "\ngroß,")}
for name, variant in variants.items():
    with open(f"corpus-{name}.csv", "w", newline="", encoding="utf-8") as f:
        f.write(variant)
with open("corpus-utf8.cols", "w", encoding="utf-8") as handle:
    handle.write(format_schema(data.schemas).replace(
        "item00: ordinal arity=3", "item00: ordinal arity=3 labels=0|1|groß"))
EOF
$irtimpute fit --data corpus.csv --schema corpus.cols --out model.json
$irtimpute mcar-test --data corpus.csv --schema corpus.cols
$irtimpute impute --data corpus.csv --schema corpus.cols \
  --model model.json --out filled.csv --probabilities probs.csv
$irtimpute evaluate --truth truth.csv --with-missing corpus.csv \
  --imputed filled.csv --schema corpus.cols
without_scipy impute --data corpus.csv --schema corpus.cols \
  --model model.json --out filled.csv --probabilities probs.csv > /dev/null
without_scipy evaluate --truth truth.csv --with-missing corpus.csv \
  --imputed filled.csv --schema corpus.cols > /dev/null
without_scipy mcar-test --data corpus.csv --schema corpus.cols > /dev/null

# line ends, quoting, a byte order mark and UTF-8 labels do not change
# what a file reads as, nor does a locale whose encoding is ASCII
for variant in lf crlf quoted names all r bom utf8; do
  schema=corpus.cols
  test $variant != utf8 || schema=corpus-utf8.cols
  $irtimpute impute --data corpus-$variant.csv --schema $schema \
    --model model.json --out filled-$variant.csv \
    --probabilities probs-$variant.csv > /dev/null
done
LC_ALL=C PYTHONCOERCECLOCALE=0 PYTHONUTF8=0 $irtimpute impute \
  --data corpus-utf8.csv --schema corpus-utf8.cols --model model.json \
  --out filled-c.csv --probabilities probs-c.csv > /dev/null
for variant in crlf quoted names all r bom; do
  cmp filled-lf.csv filled-$variant.csv
done
sed 's/^groß,/2,/' filled-utf8.csv | cmp filled-lf.csv -
cmp filled-utf8.csv filled-c.csv
for variant in crlf quoted names all r bom utf8 c; do
  cmp probs-lf.csv probs-$variant.csv
done

# a fit over three blocks repeats itself, and applying it needs no scipy
for run in 1 2; do
  $irtimpute fit --data big.csv --schema corpus.cols --out big$run.json > /dev/null
done
cmp big1.json big2.json
without_scipy impute --data big.csv --schema corpus.cols --model big1.json \
  --out big-filled.csv --probabilities big-probs.csv > /dev/null
# a case's probabilities do not depend on the cases scored with it
for rows in one many; do
  without_scipy impute --data $rows.csv --schema corpus.cols \
    --model big1.json --out $rows-filled.csv \
    --probabilities $rows-probs.csv > /dev/null
done
test "$(tail -n 1 one-probs.csv | cut -d, -f2-)" = \
  "$(tail -n 1 many-probs.csv | cut -d, -f2-)"

# the fit bins the continuous feature and the model keeps the cuts: a
# saved model and a fit on the fly give the same model and filled file,
# and applying the model needs no scipy
$irtimpute fit --data cont.csv --schema cont.cols --out cont.json > /dev/null
$irtimpute impute --data cont.csv --schema cont.cols --model cont.json \
  --out cont-filled.csv > /dev/null
$irtimpute impute --data cont.csv --schema cont.cols \
  --save-model cont-refit.json --out cont-refit.csv > /dev/null
cmp cont.json cont-refit.json
cmp cont-filled.csv cont-refit.csv
without_scipy impute --data cont.csv --schema cont.cols --model cont.json \
  --out cont-no-scipy.csv > /dev/null
cmp cont-filled.csv cont-no-scipy.csv

$irtimpute inject --data truth.csv --schema corpus.cols \
  --target item00 --fraction 0.2 --mechanism mcar --seed 4 \
  --out injected.csv
$irtimpute bench --data truth.csv --schema corpus.cols \
  --target item00 --mechanisms mcar --fractions 0.2 --out bench.txt
# four cells fitted together, each stopped by the iteration cap; a rerun
# writes the same report
for run in 1 2; do
  $irtimpute bench --data truth.csv --schema corpus.cols \
    --target item00 --conditional item01 --mechanisms mcar,mar \
    --fractions 0.2,0.4 --max-iter 6 --out capped$run.txt
done
cmp capped1.txt capped2.txt
$irtimpute impute --data corpus.csv --schema corpus.cols \
  --save-model refit.json --out refit.csv
$irtimpute inject --data truth.csv --schema corpus.cols \
  --target item00 --fraction 0.2 --mechanism mar \
  --conditional item01 --out mar.csv

# a fraction outside (0, 1) is a usage error, exit code 1
rc=0
$irtimpute inject --data truth.csv --schema corpus.cols \
  --target item00 --fraction 2 --mechanism mcar --seed 4 \
  --out bad.csv || rc=$?
test "$rc" -eq 1
# so is a conditional column equal to the target
rc=0
$irtimpute inject --data truth.csv --schema corpus.cols \
  --target item00 --fraction 0.2 --mechanism mar \
  --conditional item00 --out bad.csv || rc=$?
test "$rc" -eq 1
