"""
Schemas, CSV round-trips, and quantile binning
==============================================

Datasets are described by a small schema file: one line per column giving
its name, kind (binary / ordinal / nominal / continuous), category count,
optional labels, and role.  Continuous columns cannot be modeled directly
— they are quantile-binned into ordinal items first.  `fit` does that
itself on a raw dataset and keeps the cut points in the model, as the
`fit` subcommand does.
"""

import numpy as np

from irtimpute import (
    CategoricalDataset,
    ColumnSchema,
    FitConfig,
    discretize,
    discretize_dataset,
    fit,
    format_schema,
    parse_schema,
)

# a schema can be written by hand or parsed from its file form
text = """\
# survey columns
response: ordinal arity=4
smoker: binary labels=no|yes
region: nominal arity=3 labels=north|south|west
income: continuous
person: nominal arity=9999 role=id
"""
schemas = parse_schema(text)
for schema in schemas:
    print(f"{schema.name:10s} kind={schema.kind:11s} role={schema.role}")
print()

# format_schema is the inverse of parse_schema
assert parse_schema(format_schema(schemas)) == schemas

# quantile binning: four bins hold (as close as possible to) a quarter
# of the observed values each, and the cut points are reusable
rng = np.random.default_rng(7)
income = np.round(rng.lognormal(10.5, 0.4, size=400), 2)
mapping, codes = discretize(income, bins=4, column="income")
print("income cut points:", [f"{cut:,.0f}" for cut in mapping.cuts])
print("bin occupancy:    ", np.bincount(codes, minlength=4))

# the same cuts apply to new values (ties go to the higher bin)
fresh = np.array([9_000.0, mapping.cuts[0], 1e7])
print("fresh values land in bins:", mapping.apply(fresh))
print()

# on a whole dataset, only continuous *feature* columns are converted;
# identifiers and excluded columns pass through untouched
cells = np.column_stack([
    rng.integers(0, 4, 400).astype(float),
    rng.integers(0, 2, 400).astype(float),
    rng.integers(0, 3, 400).astype(float),
    income,
    np.arange(400, dtype=float),
])
data = CategoricalDataset(schemas, cells)
converted, maps = discretize_dataset(data, bins=4)
print("after discretize_dataset:")
for schema in converted.schemas:
    arity = schema.arity if schema.is_categorical else "-"
    print(f"  {schema.name:10s} kind={schema.kind:11s} arity={arity}")
print("maps created for:", sorted(maps))
print()

# fit takes the raw dataset: it bins income with the same cuts, and the
# model keeps them, so that scoring new data bins it the same way
model = fit(data, FitConfig(bins=4))
print("model.discretization:", model.discretization)
assert model.discretization == (maps["income"],)
