"""Scenario files, figure-reproduction runs, CSV emission and the
cross-engine verification suite.

A scenario is a JSON document (schema 1):

    {
      "schema": 1,
      "name": "fig3a",
      "seed": 20260808,
      "network": {"d": 6, "r": 0.75, "K": 1, "weights": "ave",
                  "n_c": 2.7e16, "eta_dis": 0.99, "eta_mzi": 0.89,
                  "eta_m": 0.9999},
      "scans": [{"label": "K1", "axis": "n_c",
                 "grid": [...] or {"start":..,"stop":..,"num":..,"spacing":..},
                 "engines": ["analytic", "numeric"],
                 "overrides": {"K": 1}}],
      "trace": {"sample_rate": 2e7, "cycle": 8e-3, "gate": [2.4e-3, 4e-3],
                "n_cycles": 10, "drive_freq": 4e6, "delta_theta": 1e-7,
                "rbw": 1e5}
    }

Each object of the document is read once, through the table of its
fields (DOCUMENT, SCAN, RANGE, NETWORK, TRACE), by one walker, `_fields`:
an unknown key, a missing field or a value that the table refuses raises
ConfigError naming the field.  The rules across fields are in the code
that reads the object.

Each scan emits one CSV (LF endings, 17-significant-digit scientific
notation) named <name>_<label>.csv plus a sidecar metadata text block
<name>_meta.txt, each written atomically, so a name and a label must be
plain file-name parts.
Identical scenario + seed gives byte-identical outputs.
"""

from __future__ import annotations

import dataclasses
import importlib.resources
import json
import math
import re
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import fock, laws, optimize, tracelab
from .errors import (AnalysisError, ConfigError, FloatRangeError, MzinetError, ResourceLimitError,
                     ScenarioParseError)
from .fock import oracle_sensitivity
from .network import (
    NetworkConfig,
    _check_squeezing,
    build_network,
    closed_form_variance,
    noise_matrix,
    qc_cascade,
    response,
    sensitivity_numeric,
    sensitivity_separable,
    weight_pattern,
)
from .optimize import _count, _finite, _integer, _number  # the scan's rules for a number

__all__ = [
    "Scenario",
    "load_scenario",
    "bundled_scenario_path",
    "run_scenario",
    "reproduce",
    "verify",
    "VerifyReport",
    "photon_flux",
    "FIGURES",
]

SCHEMA_VERSION = 1
FIGURES = ("fig2", "fig3a", "fig3b", "fig3c", "fig4", "fig5a", "fig5b")

PLANCK = 6.62607015e-34
LIGHT_SPEED = 299792458.0

# a scan row's fields after its grid value and its operating point, in order
CSV_COLUMNS = tuple(column.name for column in dataclasses.fields(optimize.ScanRow))[2:]


@dataclass
class ScanSpec:
    label: str
    axis: str
    grid: list
    engines: tuple
    overrides: dict = field(default_factory=dict)


@dataclass
class Scenario:
    name: str
    seed: int
    network: dict
    scans: list
    trace: dict = field(default_factory=dict)

    def base_config(self, overrides=None) -> NetworkConfig:
        """The document's shared-resource network with `overrides` applied;
        a separable network raises ConfigError("topology")."""
        spec = dict(self.network)
        if overrides:
            spec.update(overrides)
        config, rs = _config_from_spec(spec)
        if rs is not None:
            raise ConfigError("topology", "scans need the entangled topology")
        return config


def _where(check, test, words):
    """`check`, then `test` of its result: a result that fails raises
    ConfigError(name), saying that the value must be `words`."""
    def checked(name, value):
        result = check(name, value)
        if not test(result):
            raise ConfigError(name, f"must be {words}, got {value!r}")
        return result
    return checked


def _list_of(check):
    """The check of a JSON list whose entries pass `check`, as a tuple."""
    def checked(name, value):
        if not isinstance(value, list):
            raise ConfigError(name, f"must be a list, got {value!r}")
        return tuple(check(name, x) for x in value)
    return checked


def _any(name: str, value):
    """value as it stands, for a field checked outside its table."""
    return value


def _one_of(*choices):
    """The check that a value is one of `choices`."""
    return _where(_any, lambda value: value in choices, f"one of {', '.join(choices)}")


FILE_PART = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]*")

_object = _where(_any, lambda value: isinstance(value, dict), "an object")
# a name that keeps an output file in its directory
_file_part = _where(_any, lambda value: isinstance(value, str) and FILE_PART.fullmatch(value),
                    f"a plain file-name part ({FILE_PART.pattern})")


def _pair(words):
    """The check of a list of two finite numbers, described as `words`."""
    return _where(_list_of(_finite), lambda pair: len(pair) == 2, words)


def _finites(name: str, value):
    """A finite number as a float, or a list of them as a tuple."""
    return _list_of(_finite)(name, value) if isinstance(value, list) else _finite(name, value)


REQUIRED = object()  # the default of a field that its object must have


def _fields(doc, table: dict, what: str) -> dict:
    """{name: value} of the JSON object `doc` (a `what`) read through
    `table`, which maps each field to (check, default).  check(name, value)
    returns the value to keep or raises ConfigError(name); an absent field,
    or a null one whose default is None, takes its default.  An unknown key
    or an absent REQUIRED field raises ConfigError naming it."""
    for key in _object(what, doc):
        if key not in table:
            raise ConfigError(key, f"unknown field of {what}")
    fields = {}
    for name, (check, default) in table.items():
        if name in doc and not (doc[name] is None and default is None):
            fields[name] = check(name, doc[name])
        elif default is REQUIRED:
            raise ConfigError(name, f"missing field of {what}")
        else:
            fields[name] = default
    return fields


# The field tables: name -> (check, default)
DOCUMENT = {
    "schema": (_any, None),  # checked first, as a parse error
    "name": (_file_part, REQUIRED),
    "seed": (_integer, 0),
    "network": (_object, REQUIRED),
    "scans": (_list_of(_object), REQUIRED),
    "trace": (_object, {}),
}
SCAN = {
    "label": (_file_part, ""),  # "": the axis
    "axis": (_one_of(*optimize.SCAN_AXES), REQUIRED),
    "grid": (lambda name, grid: _expand_grid(grid), REQUIRED),
    "engines": (_list_of(_one_of(*optimize.ENGINES, "trace")), ("analytic",)),
    "overrides": (_object, {}),
}
RANGE = {
    "num": (_count, REQUIRED),
    "start": (_finite, REQUIRED),
    "stop": (_finite, REQUIRED),
    "spacing": (_one_of("linear", "log"), "linear"),
    "include": (_list_of(_number), ()),
}
NETWORK = {
    "d": (_count, REQUIRED),
    "weights": (lambda name, value: value if isinstance(value, str)
                else _list_of(_finite)(name, value), "ave"),
    "r": (_finites, 0.0),
    "topology": (_one_of("entangled", "separable"), "entangled"),
    "mu": (_finite, None),
    "K": (_integer, 1),
    "eta_dis": (_finite, 1.0),
    "eta_mzi": (_finite, 1.0),
    "eta_m": (_finite, 1.0),
    "alphas": (_list_of(_pair("[magnitude, phase]")), None),
    "P": (_list_of(_finite), None),
    "thetas": (_finites, None),
    "n_c": (_any, None),  # read only without alphas and P
}
TRACE = {  # the timing's values are checked by TraceParams
    "sample_rate": (_number, tracelab.DEFAULT_SAMPLE_RATE),
    "cycle": (_number, tracelab.DEFAULT_CYCLE),
    "gate": (_pair("[t_on, t_off]"), tracelab.DEFAULT_GATE),
    "n_cycles": (_integer, 1),
    "drive_freq": (_number, tracelab.DEFAULT_DRIVE),
    "delta_theta": (_finite, 1e-7),
    "rbw": (_finite, tracelab.DEFAULT_RBW),
}


def _config_from_spec(spec: dict):
    """(config, rs) of a network block read through NETWORK.  rs is None for
    the shared resource ("topology": "entangled", the default).  A
    "separable" network has d independent squeezers, rs[j] on node j (a
    scalar r is every node's), and its config has no shared squeezer, r = 0."""
    fields = _fields(spec, NETWORK, "network")
    d, weights, r, rs = fields["d"], fields["weights"], fields["r"], None
    if isinstance(weights, str):
        weights = weight_pattern(weights, d)
    if len(weights) != d or not any(weights):
        raise ConfigError("weights", f"need a pattern name or {d} numbers, not all 0")
    if fields["topology"] == "separable":
        rs, r = ((r,) * d if isinstance(r, float) else r), 0.0
        if len(rs) != d:
            raise ConfigError("r", f"need {d} per-node squeezing strengths")
        for x in rs:
            _check_squeezing(x)
    elif isinstance(r, tuple):
        raise ConfigError("r", f"the shared squeezer takes one number, got {spec['r']!r}")
    kwargs = {name: fields[name] for name in ("K", "mu", "eta_dis", "eta_mzi", "eta_m")}
    thetas = fields["thetas"]
    kwargs["thetas"] = (thetas,) * d if isinstance(thetas, float) else thetas or ()
    alphas, P, n_c = fields["alphas"], fields["P"], fields["n_c"]
    if (alphas is None) != (P is None):
        raise ConfigError("alphas" if alphas is None else "P",
                          "alphas and P are given together or not at all")
    if alphas is not None:
        return NetworkConfig(d=d, r=r, alphas=alphas, weights=weights, P=P, **kwargs), rs
    if n_c is None or _finite("n_c", n_c) <= 0:
        raise ConfigError("n_c", f"need n_c > 0 when alphas/P are not explicit, got {n_c!r}")
    return optimize.configure_optimal(weights, float(n_c), r, **kwargs), rs


def _expand_grid(grid):
    """The points of a scan grid: a nonempty list as it stands, or the range
    object read through RANGE, its points and `include` sorted together
    (a repeated point is left for `optimize._check_grid` to refuse)."""
    if isinstance(grid, list) and grid:
        return list(grid)
    if not isinstance(grid, dict):
        raise ConfigError("grid", f"must be a nonempty list or a range object, got {grid!r}")
    fields = _fields(grid, RANGE, "grid")
    start, stop, num = fields["start"], fields["stop"], fields["num"]
    if fields["spacing"] == "log":
        for name in ("start", "stop"):
            if not 0 < fields[name] <= 1e308:  # 10.0 ** log10(x) overflows near float max
                raise ConfigError(name, f"log grid needs 0 < value <= 1e308, got {fields[name]!r}")
        exponents = np.linspace(math.log10(start), math.log10(stop), num).tolist()
        values = [10.0 ** x for x in exponents]
    else:
        values = np.linspace(start, stop, num).tolist()
    # round off last-digit noise, unless that moves a point by more than
    # 1e-9 relative (values below 1e-12 would collapse to 0); Python's pow
    # and round are correctly rounded on every CPU, numpy's loops are not
    rounded = [round(x, 12) for x in values]
    values = [y if abs(y - x) <= 1e-9 * abs(x) else x for x, y in zip(values, rounded)]
    return sorted([*values, *fields["include"]])


def load_scenario(path) -> Scenario:
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ScenarioParseError(exc.msg, exc.lineno, exc.colno) from exc
    except UnicodeDecodeError as exc:
        raise ScenarioParseError(f"not UTF-8 text: {exc}") from exc
    return _scenario_from_doc(doc)


def _scenario_from_doc(doc: dict) -> Scenario:
    """The scenario of a parsed document, each object read once through its
    table, each scan with the rules that need the network or the trace block."""
    if not isinstance(doc, dict):
        raise ScenarioParseError("scenario document must be a JSON object")
    schema = doc.get("schema")
    if isinstance(schema, bool) or schema != SCHEMA_VERSION:  # _integer's rule, as for K
        raise ScenarioParseError(f"schema {doc.get('schema')!r} not supported "
                                 f"(want {SCHEMA_VERSION})")
    fields = _fields(doc, DOCUMENT, "scenario")
    scenario = Scenario(fields["name"], fields["seed"], dict(fields["network"]), [],
                        dict(fields["trace"]))
    for entry in fields["scans"]:
        scan = _fields(entry, SCAN, "scans")
        axis, grid, engines = scan["axis"], scan["grid"], scan["engines"]
        cfg = scenario.base_config(scan["overrides"])
        # points read only the optimal network's inputs (optimize._config_for_point),
        # and a d scan's points the ave pattern: a field no point reads is refused
        network = dict(scenario.network, **scan["overrides"])
        for name in ("alphas", "P", "thetas") + (("weights",) if axis == "d" else ()):
            if network.get(name) not in (None, "ave"):
                raise ConfigError(name, f"no point of a {axis} scan reads it")
        optimize._check_grid(axis, grid)
        if "oracle" in engines:
            _check_oracle_points(scan["label"] or axis, axis, grid, cfg)
        if "trace" in engines and not scenario.trace:
            raise ConfigError("trace", "trace engine needs a trace block")
        scenario.scans.append(ScanSpec(scan["label"] or axis, axis, grid, engines,
                                       dict(scan["overrides"])))
    if not scenario.scans:  # each scan reads the network, with its overrides
        _config_from_spec(scenario.network)
    if scenario.trace:
        _trace_block(scenario.trace)
    return scenario


def _check_oracle_points(label, axis, grid, base: NetworkConfig):
    """The oracle's size rule (`fock._cutoff`) on the operating point of each
    grid value (`optimize._config_for_point`), in grid order: the first
    point past it raises ConfigError("engines") naming the scan and the
    value.  A point whose operating point cannot be built is left to its
    row's status."""
    for value in grid:
        try:
            cfg, _ = optimize._config_for_point(axis, value, base)
        except MzinetError:
            continue
        try:
            fock._cutoff(cfg.d, cfg.r)
        except ResourceLimitError as exc:
            raise ConfigError("engines", f"scan {label!r} at {axis} = {value!r}: "
                                         f"{exc}") from exc


@dataclass(frozen=True)
class _TraceBlock:
    """A checked trace block: the timing, the analysis bandwidth and the
    drive amplitude."""
    params: tracelab.TraceParams
    rbw: float
    delta_theta: float


def _trace_block(trace_doc: dict) -> _TraceBlock:
    """A trace block read through TRACE, for the scenario loader and the
    trace commands.  A value that TRACE or TraceParams refuses raises
    ConfigError("trace") naming the field, and an rbw whose analysis segment
    the kernel refuses or fits in no gated or no idle span ConfigError("rbw")."""
    try:
        fields = _fields(trace_doc, TRACE, "trace")
        rbw, delta_theta = fields.pop("rbw"), fields.pop("delta_theta")
        params = tracelab.TraceParams(**fields)
    except ValueError as exc:
        if isinstance(exc, ConfigError) and exc.field not in TRACE:
            raise  # an unknown key, or a block that is not an object
        raise ConfigError("trace", str(exc)) from exc
    try:
        tracelab._check_analysis(params, rbw)
    except AnalysisError as exc:
        raise ConfigError("rbw", str(exc)) from exc
    return _TraceBlock(params, rbw, delta_theta)


def _signed_drive(cfg: NetworkConfig, trace: _TraceBlock) -> np.ndarray:
    """Per-channel drive amplitudes sign(nu_j) * delta_theta, so every
    channel adds to the weighted sum; zero weights are driven as +1."""
    signs = np.sign(np.asarray(cfg.weights, dtype=float))
    signs[signs == 0] = 1.0
    return signs * trace.delta_theta


def _run_trace_point(row: optimize.ScanRow, trace: _TraceBlock, row_seed):
    """Monte Carlo dB below the SQL and SNR of a scan row's operating point,
    at the row's `variance_numeric` (computed here for a scan without the
    numeric engine)."""
    cfg = row.config
    variance = row.variance_numeric
    if variance is None:
        variance = sensitivity_numeric(cfg)
    result = tracelab.simulate_joint_noise(
        cfg, variance, _signed_drive(cfg, trace), trace.params, seed=row_seed,
        rbw=trace.rbw)
    return result.db_below_sql, result.snr_db


def _format_value(value):
    if value is None:
        return ""
    if isinstance(value, str):
        # keep the CSV grid intact whatever an error message contains
        return value.replace(",", ";").replace("\n", " ")
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    value = float(value)
    if not math.isfinite(value):
        return ""
    return f"{value:.16e}"


def _write_csv(path: Path, axis: str, rows):
    lines = [",".join((axis,) + CSV_COLUMNS)]
    for row in rows:
        cells = [_format_value(row.value)]
        for col in CSV_COLUMNS:
            cells.append(_format_value(getattr(row, col)))
        lines.append(",".join(cells))
    with tracelab._replacing(path) as tmp:
        tmp.write_text("\n".join(lines) + "\n", newline="\n")


def run_scenario(path_or_scenario, out_dir, seed=None):
    """Run every scan of a scenario; returns the list of CSV paths written.
    A `seed` replaces the scenario's for this run only.

    Per-point engine errors land in the row status column and the run
    continues, and each CSV with failed rows is counted on stderr;
    scenario-level problems raise before anything is written.
    """
    if isinstance(path_or_scenario, Scenario):
        scenario = path_or_scenario
    else:
        scenario = load_scenario(path_or_scenario)
    if seed is not None:
        scenario = replace(scenario, seed=int(seed))
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    meta_lines = [f"scenario: {scenario.name}", f"seed: {scenario.seed}",
                  f"schema: {SCHEMA_VERSION}"]
    # parsed once per run: every trace point shares the block
    trace = (_trace_block(scenario.trace)
             if any("trace" in spec.engines for spec in scenario.scans) else None)
    for scan_index, spec in enumerate(scenario.scans):
        base = scenario.base_config(spec.overrides)
        rows = optimize.scan(spec.axis, spec.grid, base,
                             engines=[name for name in spec.engines if name != "trace"])
        if "trace" in spec.engines:
            for row_index, row in enumerate(rows):
                if row.status != "ok":
                    continue
                try:
                    row_seed = (scenario.seed * 1000003 + scan_index * 9973
                                + row_index) % 2**63
                    row.db_below_sql_mc, row.snr_db_mc = _run_trace_point(
                        row, trace, row_seed)
                except MzinetError as exc:
                    row.status = f"error:{type(exc).__name__}: {exc}"
        csv_path = out_dir / f"{scenario.name}_{spec.label}.csv"
        _write_csv(csv_path, spec.axis, rows)
        failed = sum(row.status != "ok" for row in rows)
        if failed:
            print(f"{csv_path.name}: {failed} of {len(rows)} rows failed",
                  file=sys.stderr)
        written.append(csv_path)
        meta_lines.append(
            f"scan {spec.label}: axis={spec.axis} points={len(rows)} "
            f"engines={','.join(spec.engines)} overrides={json.dumps(spec.overrides, sort_keys=True)}"
        )
    if scenario.trace:
        meta_lines.append("trace: " + json.dumps(scenario.trace, sort_keys=True))
        meta_lines.append(
            "trace calibration: unit-variance white channel reads "
            "rbw/(sample_rate/2) linear; sinusoid amplitude A reads A^2/3"
        )
    with tracelab._replacing(out_dir / f"{scenario.name}_meta.txt") as tmp:
        tmp.write_text("\n".join(meta_lines) + "\n", newline="\n")
    return written


def bundled_scenario_path(name: str) -> Path:
    if name not in FIGURES:
        raise ConfigError("figure", f"unknown figure {name!r}; know {FIGURES}")
    resource = importlib.resources.files("mzinet") / "scenarios" / f"{name}.json"
    return Path(str(resource))


def reproduce(figure: str, out_dir, seed=None):
    """Run the bundled scenario for one figure panel family."""
    return run_scenario(bundled_scenario_path(figure), out_dir, seed=seed)


def photon_flux(power: float, wavelength: float) -> float:
    """Photon rate of a monochromatic beam: power * wavelength / (h c).
    Raises FloatRangeError when the rate leaves (0, inf)."""
    if power <= 0 or wavelength <= 0:
        raise ValueError("power and wavelength must be > 0")
    flux = power * wavelength / (PLANCK * LIGHT_SPEED)
    if not 0.0 < flux < math.inf:
        raise FloatRangeError(f"flux: photon rate of power {power!r} and wavelength "
                              f"{wavelength!r} out of float range")
    return flux


# ---------------------------------------------------------------------------
# cross-engine verification


@dataclass
class VerifyCheck:
    name: str
    deviation: float
    bound: float

    @property
    def ok(self) -> bool:
        return self.deviation <= self.bound

    def line(self) -> str:
        flag = "PASS" if self.ok else "FAIL"
        return f"{flag}  {self.name}: deviation {self.deviation:.3e} (bound {self.bound:.1e})"


@dataclass
class VerifyReport:
    level: str
    checks: list
    elapsed: float

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def text(self) -> str:
        lines = [c.line() for c in self.checks]
        lines.append(
            f"{'OK' if self.ok else 'FAILED'}: {sum(c.ok for c in self.checks)}"
            f"/{len(self.checks)} checks passed in {self.elapsed:.1f} s ({self.level})"
        )
        return "\n".join(lines)


# rng.choice([-1.0, 1.0], d) draws these indices from the same stream
_SIGNS = np.array([-1.0, 1.0])


def _random_config(rng, d_max=4, r_max=1.0, optimal_p=True):
    """Random valid working-point configuration (theta = 0, phi in {0, pi});
    the one generator of verify's checks and of the tests."""
    d = int(rng.integers(1, d_max + 1))
    nu = rng.uniform(0.2, 1.0, d) * _SIGNS[rng.integers(0, 2, d)]
    mags = rng.uniform(0.5, 3.0, d)
    alphas = tuple(
        (m, 0.0 if w >= 0 else math.pi) for m, w in zip(mags, nu)
    )
    if optimal_p:
        p = nu**2 / mags**2
    else:
        p = rng.uniform(0.05, 1.0, d)
    p = p / p.sum()
    return NetworkConfig(
        d=d,
        r=float(rng.uniform(0.0, r_max)),
        K=int(rng.integers(1, 4)),
        alphas=alphas,
        weights=tuple(nu),
        P=tuple(p),
        eta_dis=float(rng.uniform(0.85, 1.0)),
        eta_mzi=float(rng.uniform(0.85, 1.0)),
        eta_m=float(rng.uniform(0.98, 1.0)),
    )


def _rel_dev(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def _closed_form_check(rng):
    cfg = _random_config(rng, optimal_p=bool(rng.integers(0, 2)))
    return _rel_dev(sensitivity_numeric(cfg), closed_form_variance(cfg))


def _response_check(rng):
    """Largest deviation of the central differences (1e-6 rad steps) of the
    engine's measured means from the response matrix (the diagonal C_jj of
    `response`, its only entries), relative to its largest entry."""
    step = 1e-6
    cfg = _random_config(rng)
    cfg = cfg.with_updates(thetas=tuple(rng.uniform(-0.3, 0.3, cfg.d)))
    analytic = response(cfg)
    scale = np.max(np.abs(analytic))
    devs = []
    for j in range(cfg.d):
        thetas = list(cfg.thetas)
        thetas[j] += step
        up = build_network(cfg.with_updates(thetas=tuple(thetas))).mean[:2 * cfg.d:2]
        thetas[j] -= 2 * step
        dn = build_network(cfg.with_updates(thetas=tuple(thetas))).mean[:2 * cfg.d:2]
        fd = (up - dn) / (2 * step)
        fd[j] -= analytic[j]
        devs.append(np.max(np.abs(fd)) / scale)
    return np.max(devs)


def _separable_check(rng):
    cfg = _random_config(rng, optimal_p=True)
    return _rel_dev(sensitivity_numeric(cfg), sensitivity_separable(cfg, (cfg.r,) * cfg.d))


def _sign_check(rng):
    cfg = _random_config(rng, optimal_p=True)
    flipped = cfg.with_updates(weights=tuple(-w for w in cfg.weights),
                               alphas=tuple((m, ph + math.pi) for m, ph in cfg.alphas))
    return _rel_dev(sensitivity_numeric(cfg), sensitivity_numeric(flipped))


def _lumped_loss_check(rng):
    """Losses placed along the network against one loss at the measured port:
    the largest entry difference of the noise matrices and the responses."""
    cfg = _random_config(rng)
    lumped = cfg.with_updates(eta_dis=1.0,
                              eta_mzi=cfg.eta_total / cfg.eta_m ** (2 * cfg.K - 1))
    return np.max([np.max(np.abs(noise_matrix(cfg) - noise_matrix(lumped))),
                   np.max(np.abs(response(cfg) - response(lumped)))])


def _cascade_check(rng):
    d = int(rng.integers(1, 8))
    p = rng.uniform(0.0, 1.0, d)
    p = p / p.sum()
    amp = np.zeros(d)
    amp[0] = 1.0
    for (i, j), t in qc_cascade(p):
        ai, aj = amp[i], amp[j]
        amp[i] = math.sqrt(t) * ai + math.sqrt(1 - t) * aj
        amp[j] = -math.sqrt(1 - t) * ai + math.sqrt(t) * aj
    return np.max(np.abs(amp**2 - p))


def _oracle_check(rng):
    cfg = _random_config(rng, d_max=3, r_max=0.4, optimal_p=True)
    cfg = cfg.with_updates(alphas=tuple((min(m, 0.95), ph) for m, ph in cfg.alphas), K=1)
    oracle = oracle_sensitivity(cfg)
    return np.max([_rel_dev(oracle, sensitivity_numeric(cfg)),
                   _rel_dev(oracle, closed_form_variance(cfg))])


def _optimizer_check(rng):
    """How far the squeezing optimizer's variance lies above a brute-force
    grid's, relative to it; a lower optimizer variance reads below 0."""
    n_t = float(10 ** rng.uniform(-2, 3))
    lam = float(10 ** rng.uniform(-4, 0))
    k = float(rng.integers(1, 6))
    _, best = optimize.optimize_squeezing(n_t, Lambda=lam, K=k)
    ns_grid = np.linspace(0.0, n_t * (1 - 1e-9), 10_000)
    grid_best = laws.variance_vs_ns(n_t, ns_grid, Lambda=lam, K=k).min()
    return (best - grid_best) / grid_best


def _identities_check(rng):
    """Closed-form resource identities at 25 photon numbers; draws nothing."""
    return np.max([abs(laws.varq_from_ns(n_s) - math.exp(-2 * laws.ns_to_r(n_s)))
                   for n_s in np.logspace(-6, 6, 25)]
                  + [abs(laws.db_below_sql(0.75, 1 - math.exp(-1.5)))])


# Sampler runs averaged per squeezing point by the trace check.  One run's
# db_below_sql scatters by about 0.086 dB at the check's timing (5120 idle
# segments), so the mean of 16 scatters by about 0.02 dB.
_TRACE_SAMPLER_RUNS = 16


def _trace_noise_deviation(rng):
    """Deviation in dB of the recovered joint noise from the model
    `laws.db_below_sql(r, Lambda)` at r = 0, 0.3 and 0.75 of a d = 4 network
    (1.28 M samples per channel).

    Draws one series seed per r, then `_TRACE_SAMPLER_RUNS` sampler seeds
    per r.  Only the r = 0.75 series is synthesized and analysed, one
    analysis block at a time (`tracelab.synthesize_and_analyse`, which holds
    one 4 x 16 200 block, 0.5 MB, not the 4 x 1.28 M of the run): it is the most
    squeezed point, where Gamma's off-diagonal mixing matters most, and the
    only check of the correlated per-channel path; the two unused seeds keep
    its seed at the same place in the generator's stream.  At every r the
    mean db_below_sql of the sampler runs (`tracelab.simulate_joint_noise`,
    which draws each window's band power from its exact distribution) is
    checked as well.  Returns the largest |estimate - model|."""
    params = tracelab.TraceParams(sample_rate=2e7, cycle=8e-3,
                                  gate=(2.4e-3, 4e-3), n_cycles=8,
                                  drive_freq=4e6)
    points = [(r, int(rng.integers(2**62))) for r in (0.0, 0.3, 0.75)]
    devs = []
    for r, series_seed in points:
        cfg = optimize.configure_optimal(
            weight_pattern("ave", 4), 1e12, r,
            eta_dis=0.99, eta_mzi=0.89, eta_m=0.9999)
        model = laws.db_below_sql(r, cfg.Lambda)
        if r == 0.75:
            result = tracelab.synthesize_and_analyse(cfg, 0.0, params, seed=series_seed)
            devs.append(abs(result.db_below_sql - model))
        variance = sensitivity_numeric(cfg)
        mean = math.fsum(
            tracelab.simulate_joint_noise(cfg, variance, 0.0, params, seed).db_below_sql
            for seed in rng.integers(2**62, size=_TRACE_SAMPLER_RUNS).tolist()
        ) / _TRACE_SAMPLER_RUNS
        devs.append(abs(mean - model))
    return np.max(devs)


# verify's checks in the order they draw from its one generator: (name, bound,
# quick count, full count, check(rng) -> deviation of one draw); `_deviation`
# folds a row's draws, and a count of 0 skips the row.
_CHECKS = (
    ("engine vs closed form", 1e-9, 40, 200, _closed_form_check),
    ("response matrix vs finite differences", 1e-6, 3, 10, _response_check),
    ("entangled vs separable (fixed r)", 1e-10, 10, 10, _separable_check),
    ("sign-structure invariance", 1e-10, 10, 10, _sign_check),
    ("lumped-loss equivalence", 1e-12, 5, 5, _lumped_loss_check),
    ("cascade splitting distribution", 1e-12, 10, 10, _cascade_check),
    ("fock oracle agreement", 1e-6, 5, 25, _oracle_check),
    ("squeezing optimizer vs grid", 1e-8, 10, 30, _optimizer_check),
    ("resource conversion identities", 1e-12, 1, 1, _identities_check),
    ("trace noise recovery (dB)", 0.2, 0, 1, _trace_noise_deviation),
)


def _deviation(check, rng, count) -> float:
    """The largest deviation of `count` draws of `check` from `rng`, in turn,
    and at least 0.0; NaN if any draw is NaN: max() would drop a NaN draw,
    and a NaN deviation fails its bound.  The one fold of verify's checks."""
    dev = 0.0
    for _ in range(count):
        dev = np.maximum(dev, check(rng))
    return float(dev)


def verify(level="quick", seed=20260808) -> VerifyReport:
    """Fold the level's count of draws of each row of `_CHECKS`
    (`_deviation`), in table order, on one generator seeded with `seed`.
    On a 2-core AVX-512 host, in process and warm, the median of 7 calls was
    0.015 to 0.03 s for quick and 0.115 to 0.15 s for full, which adds the
    trace check (`scripts/verify_timing.py` times each check)."""
    start = time.perf_counter()
    if level not in ("quick", "full"):
        raise ConfigError("level", "level must be 'quick' or 'full'")
    rng = np.random.default_rng(seed)
    checks = []
    for name, bound, quick, full, check in _CHECKS:
        count = full if level == "full" else quick
        if count:
            checks.append(VerifyCheck(name, _deviation(check, rng, count), bound))
    return VerifyReport(level=level, checks=checks, elapsed=time.perf_counter() - start)
