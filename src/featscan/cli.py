"""Command-line pipeline: select, scan, sweep, synth.

Every command reads CSV data plus a JSON schema, writes JSON reports and
CSV tables into an output directory, and exits 0 on success, 1 on
configuration errors, 2 on data errors, 3 on numeric errors. Reports are
byte-identical for identical inputs, config, and seed; wall-clock
metadata goes to a separate run_meta.json.

Each option of the data commands (select, scan, sweep) is declared once,
as a :class:`PipelineConfig` field; its flag, config-file key, types and
help derive from that field. Every option is checked when the config is
built, and the command's usage against the schema, before any data is
read.
"""

from __future__ import annotations

import argparse
import datetime
import json
import logging
import sys
import zlib
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import embedded, inference, mdss, reportio, synth
from .errors import EXIT_CONFIG, EXIT_DATA, EXIT_NUMERIC, FeatscanError, KTooLargeError
from .filters import FilterThresholds, filter_select
from .tabular import (
    BinMethod,
    Dataset,
    DiscretizationSpec,
    Schema,
    discretize,
    load_csv,
)
from .wrapper import backward_eliminate

log = logging.getLogger("featscan")

METHODS = ("filter_wrapper", "embedded_a", "embedded_b", "committee")
# the GBM preset each embedded method ranks by
_PRESET_OF = {"embedded_a": embedded.Preset.A, "embedded_b": embedded.Preset.B}
ALL_FEATURES_LABEL = "all_features"
DEFAULT_K_SWEEP = (5, 10, 15, 20, 25, 30)
SWEEP_CSV_HEADER = [
    "method", "k", "score", "p_value", "odds_ratio", "ci_low", "ci_high",
    "n_members",
]
_METHOD_CHOICES = METHODS + ("all",)
_BIN_METHODS = tuple(m.value for m in BinMethod)
# a stage config's field -> the PipelineConfig field it is built from, where
# the two names differ
_STAGE_FIELDS = {"n_bins": "bins", "n_trees": "gbm_trees",
                 "max_depth": "gbm_depth", "learning_rate": "gbm_lr"}
_DATA_COMMANDS = {
    "select": "rank and select top-K features",
    "scan": "scan a feature list for the top subset",
    "sweep": "select+scan across methods and K values",
}


@dataclass
class PipelineConfig:
    """The settings of a data command, one field per option.

    A field's flag is ``--`` plus its name with dashes and its config-file
    key is its name, unless its metadata's ``flag`` (``cramers_max`` for
    ``--cramers-max``) or ``key`` renames them; its ``commands`` limit where
    the flag exists. A flag wins over the file and the file over the default.
    """

    data: Path = field(metadata={"help": "input CSV"})
    schema: Path = field(metadata={"help": "schema JSON"})
    out_dir: Path = field(metadata={"flag": "out", "key": "output_dir",
                                    "help": "output directory"})
    method: str = field(default="committee", metadata={
        "choices": _METHOD_CHOICES, "commands": ("select",),
        "help": "selection method, or all of them"})
    k: int | None = field(default=None, metadata={
        "commands": ("select",), "help": "number of features to select"})
    k_sweep: tuple[int, ...] = field(default=DEFAULT_K_SWEEP, metadata={
        "help": "comma-separated K values", "commands": ("sweep",)})
    rho_max: float = field(default=0.9, metadata={
        "help": "filter: largest |Pearson rho| kept between continuous features"})
    vif_max: float = field(default=10.0, metadata={
        "help": "filter: largest variance inflation factor kept"})
    chi2_alpha: float = field(default=0.05, metadata={
        "help": "filter: chi-square level at which a categorical pair is associated"})
    cramers_v_max: float = field(default=0.9, metadata={
        "flag": "cramers_max",
        "help": "filter: largest Cramer's V kept between associated categorical features"})
    bins: int = field(default=5, metadata={
        "help": "bins per continuous feature for the scan, at least 2"})
    bin_method: str = field(default="equal_frequency", metadata={
        "choices": _BIN_METHODS, "help": "how continuous features are binned"})
    gbm_trees: int = field(default=200, metadata={
        "help": "boosting rounds of each GBM preset"})
    gbm_depth: int = field(default=4, metadata={"help": "GBM tree depth"})
    gbm_lr: float = field(default=0.1, metadata={
        "help": "GBM learning rate, in (0, 1]"})
    n_restarts: int = field(default=20, metadata={
        "flag": "restarts",
        "help": "random restarts per scan; the first starts unrestricted"})
    bootstrap_r: int = field(default=100, metadata={
        "help": f"bootstrap replicates, at least {inference.MIN_REPLICATES}"})
    score_tolerance: float = field(default=0.01, metadata={
        "help": "sweep: a K suffices when its score is within this fraction "
                "of the all-features score"})
    seed: int = field(default=0, metadata={
        "help": "seed of the GBMs, the scans and the bootstrap"})

    def __post_init__(self):
        self.data, self.schema, self.out_dir = (
            Path(self.data), Path(self.schema), Path(self.out_dir))
        self.k_sweep = tuple(self.k_sweep)
        try:
            self._check_values()
        except ValueError as exc:
            # name the option as the user gave it, not a stage config's field
            name, _, rest = str(exc).partition(" ")
            option = {f.name: f for f in fields(self)}.get(_STAGE_FIELDS.get(name, name))
            if option is None:
                raise
            raise ValueError(f"{_flag(option)} / {_key(option)} {rest}") from None

    def _check_values(self) -> None:
        if self.method not in _METHOD_CHOICES:
            raise ValueError(f"method must be one of {_METHOD_CHOICES}, "
                             f"got {self.method!r}")
        if self.bootstrap_r < inference.MIN_REPLICATES:
            raise ValueError(f"bootstrap_r must be >= {inference.MIN_REPLICATES}, "
                             f"got {self.bootstrap_r}")
        if self.bin_method not in _BIN_METHODS:
            raise ValueError(f"bin_method must be one of {_BIN_METHODS}, "
                             f"got {self.bin_method!r}")
        if not 0.0 <= self.score_tolerance < 1.0:
            raise ValueError(
                f"score_tolerance must be in [0,1), got {self.score_tolerance}")
        # each stage's config checks its own ranges, so build them all before
        # any data is read. The GBM gets the seed as given: deriving its seeds
        # would load numpy.random before the CSV, +5 MiB on the load's peak.
        mdss.ScanConfig(self.n_restarts, self.seed)
        embedded.GbmConfig(embedded.Preset.A, self.gbm_trees, self.gbm_depth,
                           self.gbm_lr, self.seed)
        self.thresholds()
        self.discretization()

    def thresholds(self) -> FilterThresholds:
        return FilterThresholds(self.rho_max, self.vif_max, self.chi2_alpha,
                                self.cramers_v_max)

    def discretization(self) -> DiscretizationSpec:
        return DiscretizationSpec(BinMethod(self.bin_method), self.bins)

    def gbm(self, preset: embedded.Preset) -> embedded.GbmConfig:
        key = list(embedded.Preset).index(preset)   # seed keys A 0, B 1
        return embedded.GbmConfig(preset, self.gbm_trees, self.gbm_depth,
                                  self.gbm_lr, _derive_seed(self.seed, 4, key))

    def scan_config(self, features: list[str]) -> mdss.ScanConfig:
        # seed keyed on the feature set, so identical sets scan identically
        key = zlib.crc32("\x1f".join(sorted(features)).encode("utf-8"))
        return mdss.ScanConfig(n_restarts=self.n_restarts,
                               seed=_derive_seed(self.seed, 3, key))


def _derive_seed(seed: int, *key: int) -> int:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(key))
    return int(ss.generate_state(1)[0])


# ---------------------------------------------------------------------------
# selection
# ---------------------------------------------------------------------------

class SelectionRunner:
    """Caches per-method artifacts so a K sweep reuses each fit's rankings.

    ``k_values`` are the K values ``select`` will be asked for: the largest
    must not exceed the filters' survivors, and elimination runs down to
    the smallest.
    """

    def __init__(self, dataset: Dataset, cfg: PipelineConfig, k_values: tuple[int, ...]):
        self.dataset = dataset
        self.cfg = cfg
        self.k_values = k_values
        self._filter_diag = None
        self._trace = None
        self._embedded = {}

    def filter_artifacts(self):
        if self._filter_diag is None:
            self._filter_diag = filter_select(self.dataset, self.cfg.thresholds())
            candidates = self._filter_diag.kept
            if max(self.k_values) > len(candidates):
                raise KTooLargeError(
                    f"k={max(self.k_values)} but filters kept {len(candidates)} features"
                )
            self._trace = backward_eliminate(self.dataset, candidates, min(self.k_values))
        return self._filter_diag, self._trace

    def embedded_artifacts(self, preset: embedded.Preset):
        if preset not in self._embedded:
            model, metrics = embedded.gbm_train(self.dataset, self.cfg.gbm(preset))
            ranking = embedded.extract_importance(model)
            self._embedded[preset] = (
                metrics, ranking, embedded.minmax_normalize(ranking)
            )
        return self._embedded[preset]

    def select(self, method: str, k: int) -> dict:
        """Ordered top-k list plus method diagnostics, as a report payload."""
        if method == "filter_wrapper":
            diag, trace = self.filter_artifacts()
            return {
                "method": method,
                "k": k,
                "selected": trace.ranked_at(k),
                "filter_diagnostics": diag.to_json_dict(),
                "elimination_trace": trace.to_json_dict(),
            }
        if method in _PRESET_OF:
            metrics, ranking, norm = self.embedded_artifacts(_PRESET_OF[method])
            return {
                "method": method,
                "k": k,
                "selected": embedded.top_k(ranking, k),
                "fit_metrics": metrics.to_json_dict(),
                "ranking": ranking.to_json_dict(),
                "ranking_normalized": norm.to_json_dict(),
            }
        if method == "committee":
            metrics_a, _, norm_a = self.embedded_artifacts(embedded.Preset.A)
            metrics_b, _, norm_b = self.embedded_artifacts(embedded.Preset.B)
            vote = embedded.committee_vote([norm_a, norm_b])
            return {
                "method": method,
                "k": k,
                "selected": embedded.top_k(vote, k),
                "fit_metrics_a": metrics_a.to_json_dict(),
                "fit_metrics_b": metrics_b.to_json_dict(),
                "ranking_a": norm_a.to_json_dict(),
                "ranking_b": norm_b.to_json_dict(),
                "committee": vote.to_json_dict(),
            }
        raise ValueError(f"unknown method {method!r}")


# ---------------------------------------------------------------------------
# scanning
# ---------------------------------------------------------------------------

def _scan_bundle(dd, features: list[str], cfg: PipelineConfig):
    """Scan, bootstrap p-value, effect estimate, characterization.

    Returns the report payload, then the scored subset, its significance
    and its effect estimate (None for an empty or all-rows subset).
    """
    scan_cfg = cfg.scan_config(features)
    observed = mdss.scan(dd, features, scan_cfg)
    significance = inference.empirical_p_value(
        dd, features, scan_cfg, observed, cfg.bootstrap_r
    )
    effect = None
    if 0 < observed.n_members < dd.n_rows:
        effect = inference.odds_ratio(dd, observed.subset)
    character = inference.characterize(dd, observed)
    payload = {
        "features_scanned": sorted(features),
        "subset": observed.to_json_dict(),
        "significance": significance.to_json_dict(),
        "effect": effect.to_json_dict() if effect is not None else None,
        "characterization": character.to_json_dict(),
    }
    return payload, observed, significance, effect


def _load_json_option(path) -> object:
    """Parse the JSON file an option names; an unreadable one is a usage error."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            return json.load(fh)
    except OSError as exc:
        raise FeatscanError(f"{path}: {exc.strerror or exc}") from None
    except ValueError as exc:   # not UTF-8, or not JSON
        raise FeatscanError(f"{path}: {exc}") from None


def _load_json_object(path, what: str) -> dict:
    """Parse an option's JSON file, which must hold an object."""
    doc = _load_json_option(path)
    if not isinstance(doc, dict):
        raise FeatscanError(f"{path}: {what} must be a JSON object")
    return doc


def _load_feature_list(arg: str, schema: Schema) -> list[str]:
    if arg == "all":
        return list(schema.feature_names)
    doc = _load_json_option(arg)
    if isinstance(doc, dict):
        features = doc.get("features", doc.get("selected"))
    else:
        features = doc
    if not isinstance(features, list) or not features:
        raise FeatscanError(f"{arg}: no feature list found")
    unknown = [f for f in features if f not in schema.feature_names]
    if unknown:
        raise FeatscanError(f"{arg}: unknown features {unknown}")
    if len(set(features)) < len(features):
        repeated = sorted({f for f in features if features.count(f) > 1})
        raise FeatscanError(f"{arg}: duplicate features {repeated}")
    return features


def _write_meta(out_dir: Path, command: str) -> None:
    reportio.write_json(out_dir / "run_meta.json", {
        "command": command,
        "written_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    })


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _check_usage(args: argparse.Namespace, cfg: PipelineConfig,
                 schema: Schema) -> list[str]:
    """Check a data command's K values or feature list against the schema."""
    if args.command == "scan":
        return _load_feature_list(args.features, schema)
    if args.command == "select" and cfg.k is None:
        raise FeatscanError("select needs --k")
    if args.command == "sweep" and not cfg.k_sweep:
        raise FeatscanError("sweep needs a non-empty --k-sweep")
    m = len(schema.feature_names)
    for k in (cfg.k,) if args.command == "select" else cfg.k_sweep:
        if not 1 <= k <= m:
            raise KTooLargeError(f"k={k} outside [1, {m}]")
    return []


def cmd_select(cfg: PipelineConfig, dataset: Dataset) -> None:
    methods = METHODS if cfg.method == "all" else (cfg.method,)
    runner = SelectionRunner(dataset, cfg, (cfg.k,))
    results = {}
    for method in methods:
        payload = runner.select(method, cfg.k)
        results[method] = payload["selected"]
        reportio.write_report(cfg.out_dir / f"select_{method}.json", payload)
        log.info("select %s -> %s", method, payload["selected"])
    if cfg.method == "all":
        overlap = len(set(results["embedded_a"]) & set(results["embedded_b"]))
        reportio.write_report(cfg.out_dir / "select_summary.json", {
            "k": cfg.k, "selected": results, "overlap_embedded_a_b": overlap})
        log.info("embedded A/B top-%d overlap: %d", cfg.k, overlap)


def cmd_scan(cfg: PipelineConfig, dataset: Dataset, features: list[str],
             features_arg: str) -> None:
    dd = discretize(dataset, cfg.discretization())
    payload, observed, significance, _ = _scan_bundle(dd, features, cfg)
    name = "all" if features_arg == "all" else Path(features_arg).stem
    reportio.write_report(cfg.out_dir / f"scan_{name}.json", payload)
    reportio.write_csv_atomic(
        cfg.out_dir / f"replicates_{name}.csv",
        ["replicate", "score"],
        [[i, s] for i, s in enumerate(significance.replicate_scores)],
    )
    reportio.write_report(cfg.out_dir / f"cutpoints_{name}.json",
                          {"cut_points": dd.cut_points_json_dict()})
    log.info("scan over %d features: score=%.6g p=%.4g members=%d",
             len(features), observed.score, significance.p_value,
             observed.n_members)


def cmd_sweep(cfg: PipelineConfig, dataset: Dataset) -> None:
    k_values = tuple(sorted(set(cfg.k_sweep)))
    dd = discretize(dataset, cfg.discretization())

    runner = SelectionRunner(dataset, cfg, k_values)
    cells = []   # (method, k, features)
    for method in METHODS:
        for k in k_values:
            features = runner.select(method, k)["selected"]
            cells.append((method, k, features))
    cells.append(
        (ALL_FEATURES_LABEL, len(dataset.feature_names),
         list(dataset.feature_names))
    )

    # scan cells grouped by feature set, so cells sharing a set run back to
    # back on one pattern table and all but the first are memo hits (see
    # mdss.scan); reports and rows still follow the cell order above
    by_set = sorted(range(len(cells)), key=lambda i: sorted(cells[i][2]))
    bundles = {i: _scan_bundle(dd, cells[i][2], cfg) for i in by_set}

    rows = []
    scores = {}
    for i, (method, k, features) in enumerate(cells):
        payload, observed, significance, effect = bundles[i]
        payload.update({"method": method, "k": k})
        reportio.write_report(cfg.out_dir / f"sweep_{method}_k{k}.json", payload)
        rows.append([
            method, k, observed.score, significance.p_value,
            effect.odds_ratio if effect else "",
            effect.ci_low if effect else "",
            effect.ci_high if effect else "",
            observed.n_members,
        ])
        scores[(method, k)] = observed.score
    reportio.write_csv_atomic(cfg.out_dir / "sweep.csv", SWEEP_CSV_HEADER, rows)

    all_score = scores[(ALL_FEATURES_LABEL, len(dataset.feature_names))]
    floor = all_score * (1.0 - cfg.score_tolerance)
    sufficient = {}
    for method in METHODS:
        ks = [k for k in k_values if scores[(method, k)] >= floor]
        sufficient[method] = min(ks) if ks else None
    reportio.write_report(
        cfg.out_dir / "sweep_summary.json",
        {
            "all_features_score": all_score,
            "score_tolerance": cfg.score_tolerance,
            "smallest_sufficient_k": sufficient,
            "n_scans": len(cells),
        },
    )
    log.info("sweep complete: %d scans, all-features score %.6g",
             len(cells), all_score)


def cmd_synth(spec_path: str, out_dir: str, seed: int | None) -> int:
    doc = _load_json_object(spec_path, "spec")
    if seed is not None:
        doc["seed"] = seed
    spec = synth.SynthSpec.from_json_dict(doc)
    dataset, ground_truth = synth.generate(spec)
    paths = synth.save(dataset, ground_truth, out_dir)
    _write_meta(Path(out_dir), "synth")
    log.info("wrote %s (%d rows, %d features)", paths["data"], dataset.n_rows,
             len(dataset.feature_names))
    return 0


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"not a comma-separated list of integers: {text!r}") from None


# PipelineConfig annotation -> (its flag's argparse type, the JSON types a
# config file may give it)
_TYPES = {
    "Path": (str, str), "str": (str, str), "int": (int, int),
    "int | None": (int, int), "float": (float, (int, float)),
    "tuple[int, ...]": (_int_list, list),
}


def _flag(f) -> str:
    """A PipelineConfig field's command-line flag."""
    return "--" + f.metadata.get("flag", f.name).replace("_", "-")


def _key(f) -> str:
    """A PipelineConfig field's config-file key."""
    return f.metadata.get("key", f.name)


def _json_matches(value, annotation: str) -> bool:
    if annotation == "tuple[int, ...]":
        return isinstance(value, list) and all(_json_matches(v, "int") for v in value)
    return isinstance(value, _TYPES[annotation][1]) and not isinstance(value, bool)


def _build_config(args: argparse.Namespace) -> PipelineConfig:
    """Each field from its flag, else from the config file, else its default.

    The file's keys are the field names, with ``output_dir`` for
    ``out_dir``; an unknown key or a mistyped value is an error.
    """
    values = {}
    if args.config:
        doc = _load_json_object(args.config, "config")
        by_key = {_key(f): f for f in fields(PipelineConfig)}
        for key, value in doc.items():
            if key not in by_key:
                raise FeatscanError(f"{args.config}: unknown config key {key!r}")
            f = by_key[key]
            if not _json_matches(value, f.type):
                raise FeatscanError(f"{args.config}: config key {key!r} must be "
                                    f"{f.type}, got {value!r}")
            values[f.name] = value
    for f in fields(PipelineConfig):
        flag_value = getattr(args, f.metadata.get("flag", f.name), None)
        if flag_value is not None:
            values[f.name] = flag_value
    if not all(values.get(name) for name in ("data", "schema", "out_dir")):
        raise FeatscanError("--data, --schema, and --out are required")
    return PipelineConfig(**values)


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a usage error as a configuration error (exit 1).

    argparse exits 2 on its own, which the CLI reserves for data errors.
    """

    def error(self, message):
        self.print_usage(sys.stderr)
        raise FeatscanError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="featscan", description="Feature selection plus anomalous subset scanning")
    sub = parser.add_subparsers(dest="command", required=True)

    for command, help_text in _DATA_COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", help="JSON config file; flags override it")
        for f in fields(PipelineConfig):
            if command in f.metadata.get("commands", _DATA_COMMANDS):
                p.add_argument(_flag(f), type=_TYPES[f.type][0],
                               choices=f.metadata.get("choices"),
                               help=f.metadata.get("help"))
        if command == "scan":
            p.add_argument("--features", required=True,
                           help="'all' or a JSON file with a feature list")

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--spec", required=True, help="SynthSpec JSON")
    p.add_argument("--out", required=True,
                   help="output directory for data.csv, schema.json and ground_truth.json")
    p.add_argument("--seed", type=int, help="RNG seed; overrides the spec's seed")
    return parser


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "synth":
            return cmd_synth(args.spec, args.out, args.seed)
        cfg = _build_config(args)
        # the data commands' prologue: read the schema, check the usage
        # against it, and only then read the CSV and write anything
        schema = Schema.from_json_file(cfg.schema)
        features = _check_usage(args, cfg, schema)
        dataset = load_csv(cfg.data, schema)
        cfg.out_dir.mkdir(parents=True, exist_ok=True)
        if args.command == "select":
            cmd_select(cfg, dataset)
        elif args.command == "scan":
            cmd_scan(cfg, dataset, features, args.features)
        else:
            cmd_sweep(cfg, dataset)
        _write_meta(cfg.out_dir, args.command)
        return 0
    except FeatscanError as exc:
        log.error("%s", exc)
        return exc.exit_code
    except np.linalg.LinAlgError as exc:   # a ValueError, but numeric
        log.error("%s", exc)
        return EXIT_NUMERIC
    except ValueError as exc:
        log.error("%s", exc)
        return EXIT_CONFIG
    except OSError as exc:
        log.error("%s", exc)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
