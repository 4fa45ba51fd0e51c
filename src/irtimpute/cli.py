"""Command-line pipeline around the library: fit, impute, inject, test, score.

Each subcommand reads a CSV plus a schema file and is fully deterministic
given its flags — every random choice is seeded, and the seeds are logged.
A ``--config`` file of ``key = value`` lines supplies defaults that explicit
flags override, so a whole benchmark run can live in one text file::

    irtimpute bench --config run.cfg
    irtimpute fit --data d.csv --schema d.cols --out model.json
    irtimpute impute --data d.csv --schema d.cols --model model.json \\
        --out completed.csv

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
Failures print one ``error: <kind>: <message>`` line to stderr.  Set the
``IRTIMPUTE_LOG`` environment variable (e.g. ``INFO``) for progress detail.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import os
import sys
import warnings
from pathlib import Path

import numpy as np

from .data import (
    MISSING,
    CategoricalDataset,
    ColumnSchema,
    apply_discretization,
    atomic_write,
    discretize_dataset,
    emit_csv,
    emit_probabilities,
    load_csv,
    load_schema,
    replaced_together,
)
from .errors import DataError, IrtImputeError, UsageError
from .estimation import (
    FitConfig,
    FittedModel,
    diagnostics_report,
    fit,
    load_model,
    save_model,
)
from .impute import impute_dataset
from .metrics import report_text, score_cells
from .missingness import inject_mar, inject_mcar, littles_test

__all__ = ["main"]

logger = logging.getLogger("irtimpute")

_FIT_DEFAULTS = {
    "bins": 4,
    "grid_size": 61,
    "grid_lo": -6.0,
    "grid_hi": 6.0,
    "max_iter": 500,
    "tol": 1e-4,
    "seed": 0,
}


# ---------------------------------------------------------------------------
# Config files and argument parsing
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Argparse that reports usage problems through the exit-code scheme."""

    def error(self, message: str):
        raise UsageError(message)


def _read_config(path: str) -> list[str]:
    """Turn ``key = value`` lines into a flat flag-token list."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}") from None
    tokens: list[str] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise UsageError(f"{path}:{lineno}: empty key")
        if "\0" in line:
            raise UsageError(f"{path}:{lineno}: NUL character")
        tokens.extend([f"--{key.replace('_', '-')}", value])
    return tokens


def _expand_config(argv: list[str]) -> list[str]:
    """Splice config-file tokens in right after the subcommand.

    Config tokens come first, so flags typed on the command line win
    (argparse keeps the last occurrence of a plain option).
    """
    plain: list[str] = []
    config_tokens: list[str] = []
    i = 0
    while i < len(argv):
        arg = argv[i]
        if arg == "--config":
            if i + 1 >= len(argv):
                raise UsageError("--config needs a file path")
            config_tokens.extend(_read_config(argv[i + 1]))
            i += 2
        elif arg.startswith("--config="):
            config_tokens.extend(_read_config(arg.split("=", 1)[1]))
            i += 1
        else:
            plain.append(arg)
            i += 1
    if not config_tokens:
        return plain
    if not plain or plain[0].startswith("-"):
        raise UsageError("--config requires a subcommand")
    return [plain[0], *config_tokens, *plain[1:]]


def _add_io_options(parser, data_help="input CSV (header row required)"):
    parser.add_argument("--data", required=True, help=data_help)
    parser.add_argument("--schema", required=True,
                        help="schema file (one 'name: kind ...' line per column)")
    parser.add_argument(
        "--missing-tokens", default=",-1", metavar="T1,T2,...",
        help="comma-separated cell values read as missing "
             "(default: the empty string and -1)")
    parser.add_argument("--config", help="key = value file of defaults; "
                                         "explicit flags override")


def _add_fit_options(parser):
    """Fit hyperparameters, None unless given, so that a command can tell
    whether the user supplied them; see :func:`_resolved_fit_options`."""
    parser.add_argument("--bins", type=int,
                        help="quantile bins for continuous features (default 4)")
    parser.add_argument("--grid-size", type=int,
                        help="quadrature nodes (default 61)")
    parser.add_argument("--grid-lo", type=float,
                        help="lowest trait node (default -6)")
    parser.add_argument("--grid-hi", type=float,
                        help="highest trait node (default 6)")
    parser.add_argument("--max-iter", type=int,
                        help="cap on EM maps, one E-step plus one M-step each "
                             "(default 500)")
    parser.add_argument("--tol", type=float,
                        help="EM parameter-change tolerance (default 1e-4)")
    parser.add_argument("--seed", type=int, help="random seed (default 0)")


def build_parser() -> _Parser:
    parser = _Parser(prog="irtimpute",
                     description="categorical imputation via latent-trait "
                                 "models, plus missingness benchmarking")
    commands = parser.add_subparsers(dest="command", required=True,
                                     metavar="command")

    p = commands.add_parser("fit", help="estimate item parameters",
                            description="Fit the latent-trait model and "
                                        "write it to a JSON file.")
    _add_io_options(p)
    _add_fit_options(p)
    p.add_argument("--out", required=True, help="model file to write")

    p = commands.add_parser("impute", help="fill missing cells",
                            description="Complete a dataset using a saved "
                                        "model, or fit one on the fly.")
    _add_io_options(p)
    _add_fit_options(p)
    p.add_argument("--out", required=True, help="completed CSV to write")
    p.add_argument("--model", help="saved model file (omit to fit first)")
    p.add_argument("--save-model", help="where to store the freshly "
                                        "fitted model (fit-and-impute only)")
    p.add_argument("--probabilities",
                   help="sidecar CSV of per-cell category probabilities")

    p = commands.add_parser("inject", help="blank cells of one column",
                            description="Produce a benchmark dataset by "
                                        "deleting target cells.")
    _add_io_options(p)
    p.add_argument("--out", required=True, help="CSV to write")
    p.add_argument("--target", required=True, help="column losing cells")
    p.add_argument("--fraction", required=True, type=float,
                   help="fraction of rows to blank, in (0, 1)")
    p.add_argument("--mechanism", required=True, choices=("mcar", "mar"))
    p.add_argument("--seed", type=int, help="RNG seed (mcar only)")
    p.add_argument("--conditional",
                   help="fully observed column driving deletion (mar only)")
    p.add_argument("--direction", choices=("top", "bottom"),
                   help="which conditional extreme loses cells "
                        "(mar only, default top)")

    p = commands.add_parser("mcar-test",
                            help="Little's completely-at-random test",
                            description="Run the pattern-mean chi-square "
                                        "test over the feature columns.")
    _add_io_options(p)

    p = commands.add_parser("evaluate", help="score an imputation run",
                            description="Compare imputed cells against the "
                                        "complete truth; cells are located "
                                        "by diffing the with-missing file.")
    p.add_argument("--truth", required=True, help="complete ground-truth CSV")
    p.add_argument("--with-missing", required=True,
                   help="the dataset the imputer saw")
    p.add_argument("--imputed", required=True, help="completed CSV to score")
    p.add_argument("--schema", required=True, help="shared schema file")
    p.add_argument("--missing-tokens", default=",-1", metavar="T1,T2,...",
                   help="comma-separated cell values read as missing")
    p.add_argument("--config", help="key = value file of defaults")

    p = commands.add_parser("bench", help="full inject/fit/impute sweep",
                            description="For every (mechanism, fraction) "
                                        "cell: inject, fit, impute, score "
                                        "against the held-out truth, and "
                                        "run the MCAR test.")
    _add_io_options(p, data_help="complete CSV serving as ground truth")
    _add_fit_options(p)
    p.add_argument("--target", required=True,
                   help="categorical feature column to blank and restore")
    p.add_argument("--conditional",
                   help="column driving the at-random deletions")
    p.add_argument("--direction", choices=("top", "bottom"), default="top")
    p.add_argument("--fractions", default="0.05,0.1,0.3,0.5",
                   metavar="F1,F2,...", help="missingness fractions "
                                             "(default 0.05,0.1,0.3,0.5)")
    p.add_argument("--mechanisms", default="mcar,mar", metavar="M1,M2",
                   help="comma-separated subset of mcar,mar (default both)")
    p.add_argument("--out", help="report file (default: stdout)")

    return parser


# ---------------------------------------------------------------------------
# Shared plumbing
# ---------------------------------------------------------------------------

def _missing_tokens(args: argparse.Namespace) -> tuple[str, ...]:
    return tuple(args.missing_tokens.split(","))


def _load_inputs(args: argparse.Namespace, path: str
                 ) -> tuple[tuple[ColumnSchema, ...], CategoricalDataset]:
    schemas = load_schema(args.schema)
    return schemas, load_csv(path, schemas, _missing_tokens(args))


def _check_column(schemas, name: str, flag: str) -> ColumnSchema:
    for schema in schemas:
        if schema.name == name:
            return schema
    raise UsageError(f"{flag}: no column named {name!r} in the schema")


def _resolved_fit_options(args: argparse.Namespace) -> dict:
    return {
        key: default if getattr(args, key) is None else getattr(args, key)
        for key, default in _FIT_DEFAULTS.items()
    }


def _fit_on(data: CategoricalDataset, options: dict) -> FittedModel:
    """Discretize continuous features, then fit; the model keeps the cut
    points, in column-name order."""
    data, maps = discretize_dataset(data, options["bins"])
    for mapping in maps.values():
        logger.info("discretized %r into %d bins, cuts %s",
                    mapping.column, mapping.bins, list(mapping.cuts))
    fit_config = FitConfig(
        grid_size=options["grid_size"],
        grid_range=(options["grid_lo"], options["grid_hi"]),
        max_iter=options["max_iter"],
        tol=options["tol"],
        seed=options["seed"],
    )
    logger.info("fitting %d cases with seed %d", data.n_rows,
                options["seed"])
    ordered = tuple(maps[column] for column in sorted(maps))
    return dataclasses.replace(fit(data, fit_config), discretization=ordered)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_fit(args: argparse.Namespace) -> int:
    _, data = _load_inputs(args, args.data)
    model = _fit_on(data, _resolved_fit_options(args))
    save_model(model, args.out)
    sys.stdout.write(diagnostics_report(model))
    return 0


def cmd_impute(args: argparse.Namespace) -> int:
    fit_flags = [key for key in _FIT_DEFAULTS
                 if getattr(args, key) is not None]
    if args.model and (fit_flags or args.save_model):
        culprit = fit_flags[0] if fit_flags else "save-model"
        raise UsageError(
            f"--{culprit.replace('_', '-')} only applies when fitting; "
            "it cannot modify the model loaded via --model"
        )
    written = [os.path.realpath(path) for path in
               (args.out, args.probabilities, args.save_model) if path]
    if len(set(written)) < len(written):
        raise UsageError("--out, --probabilities and --save-model must name "
                         "different files")
    _, data = _load_inputs(args, args.data)
    if args.model:
        model = load_model(args.model)
    else:
        model = _fit_on(data, _resolved_fit_options(args))
        if args.save_model:
            save_model(model, args.save_model)
    view = apply_discretization(data, model.discretization)
    result = impute_dataset(view, model)

    # write imputed codes back into the original column types; bin codes
    # for a discretized column have no continuous value to restore
    categorical = np.array([schema.is_categorical for schema in data.schemas])
    out_cells = np.where(categorical, result.completed.cells, data.cells)
    unrestored = int(np.count_nonzero(~categorical[result.mask[:, 1]]))
    if unrestored:
        warnings.warn(
            f"{unrestored} missing continuous cells stay missing: the model "
            "imputes their bins, not their values",
            stacklevel=2,
        )
    # a failed sidecar must not leave a new completed CSV behind
    outputs = [args.out] + ([args.probabilities] if args.probabilities
                            else [])
    with replaced_together(*outputs) as temporaries:
        emit_csv(data.with_cells(out_cells), temporaries[0])
        if args.probabilities:
            emit_probabilities(view, result.mask, result.probabilities,
                               temporaries[1])
    print(f"imputed {len(result.mask)} cells")
    return 0


def cmd_inject(args: argparse.Namespace) -> int:
    schemas = load_schema(args.schema)
    _check_column(schemas, args.target, "--target")
    if args.mechanism == "mcar":
        if args.seed is None:
            raise UsageError("mcar injection needs --seed")
        if args.conditional or args.direction:
            raise UsageError("--conditional/--direction are mar-only flags")
    else:
        if args.conditional is None:
            raise UsageError("mar injection needs --conditional")
        if args.seed is not None:
            raise UsageError("mar injection is deterministic; --seed "
                             "applies to mcar only")
        _check_column(schemas, args.conditional, "--conditional")
    data = load_csv(args.data, schemas, _missing_tokens(args))

    if args.mechanism == "mcar":
        logger.info("mcar injection with seed %d", args.seed)
        out = inject_mcar(data, args.target, args.fraction, args.seed)
    else:
        out = inject_mar(data, args.target, args.conditional,
                         args.fraction, args.direction or "top")
    emit_csv(out, args.out)
    removed = int(np.sum(out.cells[:, data.column_index(args.target)]
                         == MISSING))
    print(f"removed {removed} cells from column {args.target!r}")
    return 0


def cmd_mcar_test(args: argparse.Namespace) -> int:
    _, data = _load_inputs(args, args.data)
    result = littles_test(data.to_numeric(data.feature_indices))
    print("Little's MCAR test")
    print(f"statistic: {result.statistic:.6f}")
    print(f"df: {result.df}")
    print(f"p-value: {result.p_value:.6g}")
    print(f"patterns: {result.n_patterns}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    schemas = load_schema(args.schema)
    tokens = _missing_tokens(args)
    truth = load_csv(args.truth, schemas, tokens)
    holed = load_csv(args.with_missing, schemas, tokens)
    imputed = load_csv(args.imputed, schemas, tokens)
    if not truth.n_rows == holed.n_rows == imputed.n_rows:
        raise DataError("the three datasets must have the same rows")

    blanked = ((holed.cells == MISSING)
               & np.array([schema.is_categorical for schema in schemas]))
    unscoreable = int(np.count_nonzero(blanked & (truth.cells == MISSING)))
    mask = np.argwhere(blanked & (truth.cells != MISSING))
    if unscoreable:
        warnings.warn(
            f"{unscoreable} blanked cells are missing in the truth too and "
            "cannot be scored",
            stacklevel=2,
        )
    report = score_cells(truth, imputed, mask)
    sys.stdout.write(report_text(report))
    return 0


def _parse_fractions(text: str) -> tuple[float, ...]:
    try:
        fractions = tuple(float(tok) for tok in text.split(","))
    except ValueError:
        raise UsageError(f"--fractions: {text!r} is not a comma-separated "
                         "list of numbers") from None
    if not fractions or not all(0.0 < f < 1.0 for f in fractions):
        raise UsageError("--fractions must all lie in (0, 1)")
    return fractions


def _parse_mechanisms(text: str) -> tuple[str, ...]:
    mechanisms = tuple(tok.strip() for tok in text.split(",") if tok.strip())
    if not mechanisms or any(m not in ("mcar", "mar") for m in mechanisms):
        raise UsageError("--mechanisms must be a subset of mcar,mar")
    return mechanisms


def _majority_fill(view: CategoricalDataset, target: str,
                   mask: np.ndarray) -> CategoricalDataset:
    """Complete the view by writing the observed modal code everywhere."""
    codes = view.codes(target)
    observed = codes[codes >= 0]
    arity = view.schema_for(target).arity
    assert arity is not None
    mode = int(np.argmax(np.bincount(observed, minlength=arity)))
    cells = np.array(view.cells, copy=True)
    cells[mask[:, 0], mask[:, 1]] = float(mode)
    return view.with_cells(cells)


def cmd_bench(args: argparse.Namespace) -> int:
    fractions = _parse_fractions(args.fractions)
    mechanisms = _parse_mechanisms(args.mechanisms)
    schemas = load_schema(args.schema)
    target_schema = _check_column(schemas, args.target, "--target")
    if not target_schema.is_categorical or target_schema.role != "feature":
        raise UsageError("--target must be a categorical feature column")
    if "mar" in mechanisms:
        if args.conditional is None:
            raise UsageError("mar benchmarking needs --conditional")
        _check_column(schemas, args.conditional, "--conditional")
    truth = load_csv(args.data, schemas, _missing_tokens(args))

    options = _resolved_fit_options(args)
    little_rows = []
    f1_rows = []
    cell_index = 0
    for mechanism in mechanisms:
        for fraction in fractions:
            seed = options["seed"] + cell_index
            cell_index += 1
            if mechanism == "mcar":
                injected = inject_mcar(truth, args.target, fraction, seed)
                logger.info("cell %d: mcar %g seed %d", cell_index, fraction,
                            seed)
            else:
                injected = inject_mar(truth, args.target,
                                      args.conditional, fraction,
                                      args.direction)
                logger.info("cell %d: mar %g (deterministic)", cell_index,
                            fraction)
            little = littles_test(
                injected.to_numeric(injected.feature_indices))

            model = _fit_on(injected, options)
            view = apply_discretization(injected, model.discretization)
            result = impute_dataset(view, model)
            truth_view = apply_discretization(truth, model.discretization)
            scored = score_cells(truth_view, result.completed, result.mask)
            baseline = score_cells(
                truth_view, _majority_fill(view, args.target, result.mask),
                result.mask)

            cells = len(result.mask)
            little_rows.append(
                f"{mechanism:<9} {fraction:<8g} {cells:<6d} "
                f"{little.statistic:<12.6f} {little.df:<4d} "
                f"{little.p_value:.6g}")
            f1_rows.append(
                f"{mechanism:<9} {fraction:<8g} {cells:<6d} "
                f"{scored.macro_f1:<12.6f} {scored.micro_f1:<12.6f} "
                f"{baseline.macro_f1:<15.6f} {baseline.micro_f1:.6f}")

    lines = [
        "imputation benchmark",
        f"target: {args.target}",
        f"conditional: {args.conditional or '-'}",
        f"mechanisms: {' '.join(mechanisms)}",
        f"fractions: {' '.join(f'{f:g}' for f in fractions)}",
        f"base seed: {options['seed']}",
        f"bins: {options['bins']}",
        "",
        "Little's MCAR test on each injected dataset",
        f"{'mechanism':<9} {'fraction':<8} {'cells':<6} "
        f"{'statistic':<12} {'df':<4} p-value",
        *little_rows,
        "",
        "imputed-cell F1, model vs majority baseline",
        f"{'mechanism':<9} {'fraction':<8} {'cells':<6} "
        f"{'model_macro':<12} {'model_micro':<12} "
        f"{'baseline_macro':<15} baseline_micro",
        *f1_rows,
    ]
    text = "\n".join(lines) + "\n"
    if args.out:
        with atomic_write(args.out) as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


_COMMANDS = {
    "fit": cmd_fit,
    "impute": cmd_impute,
    "inject": cmd_inject,
    "mcar-test": cmd_mcar_test,
    "evaluate": cmd_evaluate,
    "bench": cmd_bench,
}


def main(argv=None) -> int:
    raw = list(sys.argv[1:] if argv is None else argv)
    level = os.environ.get("IRTIMPUTE_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        stream=sys.stderr,
                        format="%(levelname)s %(name)s: %(message)s")
    # a warning prints as one line, without the source line that raised it
    formatwarning = warnings.formatwarning
    warnings.formatwarning = lambda message, *_: f"warning: {message}\n"
    try:
        args = build_parser().parse_args(_expand_config(raw))
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error: usage: {exc}", file=sys.stderr)
        return 1
    except IrtImputeError as exc:
        kind = {3: "numerical"}.get(exc.exit_code, "data")
        print(f"error: {kind}: {exc}", file=sys.stderr)
        return exc.exit_code
    except (OSError, UnicodeDecodeError) as exc:  # unreadable/unwritable file
        print(f"error: data: {exc}", file=sys.stderr)
        return DataError.exit_code
    finally:
        warnings.formatwarning = formatwarning


if __name__ == "__main__":
    raise SystemExit(main())
