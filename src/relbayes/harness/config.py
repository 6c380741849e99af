"""Experiment configuration: flat key = value files, fail-loud parsing.

The format is one `key = value` pair per line, with `#` comments and blank
lines ignored.  Values are typed by the schema below; unknown keys and keys
that do not apply to the chosen experiment are errors rather than silently
ignored.

Schema (defaults in parentheses; a scenario key's default is the one its
scenario record declares):

  common       experiment {linear|gp|smoking|toy-verify}; master_seed (0);
               output_dir (results); parallelism (1)
  sweeps       linear, gp and toy-verify: n_simulations (50); label (auto)
  linear       grid_resolution (101) and the fields of synthetic.LinearScenario:
               multicollinearity, n_outcome, n_proxy_prompts,
               target_resemblance_pct, contamination_pct
  gp           grid_resolution (10) and the fields of synthetic.GpScenario:
               n_trajectories, m_target, m_source, resolution, theta_star,
               contamination_pct, refinement_T
  smoking      smoking_csv (packaged dataset); proxy_mode {weak|strong|
               misleading|all} (all); mcmc_samples (20000)
  toy-verify   no keys beyond the sweep keys

Each command-line flag sets the key FLAG_KEYS names, typed and checked as
in a file, so smoking and toy-verify, which have no parameter grid, refuse
grid_resolution whether a file or --grid sets it.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Optional

from ..synthetic import GpScenario, LinearScenario
from .smoking import PROXY_SETTINGS

EXPERIMENTS = ("linear", "gp", "smoking", "toy-verify")
PROXY_MODES = (*sorted(PROXY_SETTINGS), "all")


class ConfigError(ValueError):
    """Invalid configuration file or option combination."""


@dataclass(frozen=True, kw_only=True)
class ExperimentConfig(LinearScenario, GpScenario):
    """Every config key as a keyword field; the linear and gp scenario keys
    are the scenario records' own fields, inherited with their defaults."""

    experiment: str
    n_simulations: int = 50
    master_seed: int = 0
    grid_resolution: Optional[int] = None
    output_dir: str = "results"
    parallelism: int = 1
    label: str = ""
    smoking_csv: str = ""
    proxy_mode: str = "all"
    mcmc_samples: int = 20000

    def __post_init__(self):
        """Resolve the grid_resolution default (10 for gp, 101 otherwise),
        check every value, and build the experiment's scenario as
        self.scenario (None for smoking and toy-verify), so an out-of-range
        scenario value is a ConfigError before any simulation runs."""
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"experiment must be one of {EXPERIMENTS}, "
                              f"got {self.experiment!r}")
        if self.n_simulations < 1:
            raise ConfigError("n_simulations must be >= 1")
        if self.master_seed < 0:
            raise ConfigError("master_seed must be nonnegative")
        if self.grid_resolution is None:
            object.__setattr__(self, "grid_resolution", 10 if self.experiment == "gp" else 101)
        if self.grid_resolution < 2:
            raise ConfigError("grid_resolution must be >= 2")
        if self.parallelism < 1:
            raise ConfigError("parallelism must be >= 1")
        if self.proxy_mode not in PROXY_MODES:
            raise ConfigError(f"proxy_mode must be one of {PROXY_MODES}")
        if self.mcmc_samples < 1000:
            raise ConfigError("mcmc_samples must be >= 1000")
        cls = _SCENARIOS.get(self.experiment)
        try:
            scenario = None if cls is None else \
                cls(**{f.name: getattr(self, f.name) for f in fields(cls)})
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        object.__setattr__(self, "scenario", scenario)

    def group_label(self) -> str:
        if self.label:
            return self.label
        if self.experiment == "linear":
            return (f"mc={self.multicollinearity:g} "
                    f"res={self.target_resemblance_pct:g}% "
                    f"cont={self.contamination_pct:g}%")
        if self.experiment == "gp":
            return f"theta*={self.theta_star:g} m_t={self.m_target}"
        return self.experiment


_SCENARIOS = {"linear": LinearScenario, "gp": GpScenario}
_COMMON_KEYS = {"experiment", "master_seed", "output_dir", "parallelism"}
_SWEEP_KEYS = {"n_simulations", "label"}
_EXPERIMENT_KEYS = {
    "linear": {*_SWEEP_KEYS, "grid_resolution", *(f.name for f in fields(LinearScenario))},
    "gp": {*_SWEEP_KEYS, "grid_resolution", *(f.name for f in fields(GpScenario))},
    "smoking": {"smoking_csv", "proxy_mode", "mcmc_samples"},
    "toy-verify": _SWEEP_KEYS,
}
_FIELD_TYPES = {f.name: f.type for f in fields(ExperimentConfig)}
# each command-line flag and the config key it sets
FLAG_KEYS = {"seed": "master_seed", "out": "output_dir", "jobs": "parallelism",
             "grid": "grid_resolution", "mode": "proxy_mode", "samples": "mcmc_samples",
             "data": "smoking_csv"}


def _coerce(key: str, raw: str, name: str):
    kind = _FIELD_TYPES[key].removeprefix("Optional[").removesuffix("]")
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
    except ValueError:
        raise ConfigError(f"{name}: cannot parse {raw!r} as {kind}") from None
    return raw


def parse_config_text(text: str, source: str = "<config>") -> ExperimentConfig:
    pairs = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {line!r}")
        key, _, raw = stripped.partition("=")
        key, raw = key.strip(), raw.strip()
        if key in pairs:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        pairs[key] = (lineno, raw)

    if "experiment" not in pairs:
        raise ConfigError(f"{source}: missing required key 'experiment'")
    experiment = pairs["experiment"][1]
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"{source}: experiment must be one of {EXPERIMENTS}, "
                          f"got {experiment!r}")
    allowed = _COMMON_KEYS | _EXPERIMENT_KEYS[experiment]
    values = {"experiment": experiment}
    for key, (lineno, raw) in pairs.items():
        if key == "experiment":
            continue
        if key not in allowed:
            hint = ("unknown key" if key not in _FIELD_TYPES
                    else f"not applicable to experiment {experiment!r}")
            raise ConfigError(f"{source}:{lineno}: {hint}: {key!r}")
        values[key] = _coerce(key, raw, f"{source}:{lineno}: key {key!r}")
    try:
        return ExperimentConfig(**values)
    except ValueError as exc:
        raise ConfigError(f"{source}: {exc}") from None


def parse_config(path) -> ExperimentConfig:
    with open(path, encoding="utf-8") as fh:
        return parse_config_text(fh.read(), source=str(path))


def apply_overrides(config: ExperimentConfig, **flags) -> ExperimentConfig:
    """config with each command-line flag that is not None set on the key
    FLAG_KEYS maps it to.  The value is typed as that key is in a file, and
    a key the experiment does not take is a ConfigError naming the flag."""
    allowed = _COMMON_KEYS | _EXPERIMENT_KEYS[config.experiment]
    updates = {}
    for flag, value in flags.items():
        if value is None:
            continue
        key = FLAG_KEYS[flag]
        if key not in allowed:
            raise ConfigError(f"--{flag} sets {key!r}, which does not apply to "
                              f"experiment {config.experiment!r}")
        updates[key] = _coerce(key, str(value), f"--{flag}")
    return replace(config, **updates) if updates else config


def config_echo(config: ExperimentConfig) -> list[str]:
    keys = sorted(_COMMON_KEYS | _EXPERIMENT_KEYS[config.experiment])
    return [f"{k} = {getattr(config, k)}" for k in keys]
