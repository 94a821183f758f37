"""Flat key=value scenario files.

One `key = value` pair per line, `#` starts a comment. Keys:

    scenario            free-form run label
    mode                propagate (default) | qp_study
    particles           1 | 2
    exchange_sign       +1 | -1
    field.kind          one_particle/two_particle by default; single_packet
                        selects the isolated-Gaussian control field
    packet.Y  packet.sigma0
    grid.lo  grid.hi  grid.n
    t_final  n_steps
    solver              schrodinger_fd | hydro_lagrange | hydro_euler
    mwls.neighbors  mwls.order  mwls.width
    mwls.orders         comma list of orders >= 2, qp_study mode only
    trajectory.starts   semicolon-separated tuples, e.g. "1,-0.6; 1,-1.4"
    snapshots           comma-separated times in [0, t_final]
    out.dir             output directory (overridden by $SLITSIM_OUT)
"""

from dataclasses import asdict, dataclass, fields, is_dataclass

from .core import (MwlsConfig, ScenarioConfig, UniformGrid,
                   WavePacketParams)
from .errors import ConfigError

_KNOWN_KEYS = {
    "scenario", "mode", "particles", "exchange_sign", "field.kind",
    "packet.Y", "packet.sigma0",
    "grid.lo", "grid.hi", "grid.n", "t_final", "n_steps", "solver",
    "mwls.neighbors", "mwls.order", "mwls.width", "mwls.orders",
    "trajectory.starts", "snapshots", "out.dir",
}


@dataclass(frozen=True)
class RunSpec:
    """A parsed scenario file: the solver config plus harness options."""

    config: ScenarioConfig
    mode: str = "propagate"
    qp_orders: tuple = ()
    out_dir: str = "runs"

    def __post_init__(self):
        if self.mode == "qp_study" and self.config.field_dim != 1:
            raise ValueError("the qp study is one-dimensional only")
        if any(order < 2 for order in self.qp_orders):
            raise ValueError("mwls.orders must be >= 2")


def _parse_pairs(text):
    pairs = {}
    lines = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"expected key = value, got {line!r}",
                              line=lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"unknown key {key!r}", line=lineno)
        if key in pairs:
            raise ConfigError(f"duplicate key {key!r}", line=lineno)
        pairs[key] = value
        lines[key] = lineno
    return pairs, lines


def _convert(pairs, lines, key, conv, default=None):
    if key not in pairs:
        if default is None:
            raise ConfigError(f"missing required key {key!r}")
        return default
    try:
        return conv(pairs[key])
    except ConfigError:
        raise
    except Exception as exc:
        raise ConfigError(f"bad value for {key!r}: {exc}",
                          line=lines[key]) from exc


def _parse_starts(value, dim):
    starts = []
    for chunk in value.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        coords = tuple(float(c) for c in chunk.split(","))
        if len(coords) != dim:
            raise ValueError(
                f"start {chunk!r} has {len(coords)} coordinates, need {dim}")
        starts.append(coords)
    return tuple(starts)


def _parse_floats(value):
    return tuple(float(c) for c in value.split(",") if c.strip())


def _parse_ints(value):
    return tuple(int(c) for c in value.split(",") if c.strip())


def parse_config(text):
    """Parse scenario file contents into a RunSpec (raises ConfigError)."""
    pairs, lines = _parse_pairs(text)
    get = lambda key, conv, default=None: _convert(pairs, lines, key,
                                                   conv, default)

    particles = get("particles", int, 1)
    field_kind = get("field.kind", str, "")
    if field_kind not in ("", "one_particle", "two_particle",
                          "single_packet"):
        raise ConfigError(f"unknown field.kind {field_kind!r}",
                          line=lines.get("field.kind"))
    if field_kind in ("one_particle", "two_particle"):
        field_kind = ""

    dim = 1 if particles == 1 or field_kind == "single_packet" else 2
    solver = get("solver", str)
    mode = get("mode", str, "propagate")
    if mode not in ("propagate", "qp_study"):
        raise ConfigError(f"unknown mode {mode!r}", line=lines.get("mode"))

    try:
        packet = WavePacketParams(
            Y=get("packet.Y", float, 1.0),
            sigma0=get("packet.sigma0", float, 0.2),
            particles=particles,
            exchange_sign=get("exchange_sign", int, +1),
        )
        grid = UniformGrid(
            lo=get("grid.lo", float),
            hi=get("grid.hi", float),
            n=get("grid.n", int),
            dim=dim,
        )
        mwls = None
        if "mwls.neighbors" in pairs or "mwls.order" in pairs \
                or solver != "schrodinger_fd" or mode == "qp_study":
            mwls = MwlsConfig(
                n_neighbors=get("mwls.neighbors", int, 12),
                poly_order=get("mwls.order", int, 5),
                weight_width=get(
                    "mwls.width",
                    lambda v: v if v == "auto" else float(v), "auto"),
            )
        config = ScenarioConfig(
            packet=packet,
            grid=grid,
            t_final=get("t_final", float, 1.0 if mode == "qp_study" else None),
            n_steps=get("n_steps", int, 1 if mode == "qp_study" else None),
            solver=solver,
            trajectory_starts=get(
                "trajectory.starts",
                lambda v: _parse_starts(v, dim), ()),
            mwls=mwls,
            snapshot_times=get("snapshots", _parse_floats, ()),
            scenario=get("scenario", str, ""),
            field_kind=field_kind,
        )
        return RunSpec(
            config=config,
            mode=mode,
            qp_orders=get("mwls.orders", _parse_ints, ()),
            out_dir=get("out.dir", str, "runs"),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path):
    """Parse a scenario file from disk."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def spec_to_dict(spec):
    """JSON-ready form of a RunSpec: the `config` entry of a run manifest.

    out_dir is not recorded; spec_from_dict restores its default.
    """
    return {**asdict(spec.config), "mode": spec.mode,
            "qp_orders": spec.qp_orders}


def _from_json(cls, value):
    """Inverse of asdict on JSON data: a list becomes a tuple, and a dict
    in a dataclass-typed field that dataclass (TypeError on a foreign key)."""
    if isinstance(value, list):
        return tuple(_from_json(None, v) for v in value)
    if not (isinstance(value, dict) and is_dataclass(cls)):
        return value
    types = {f.name: f.type for f in fields(cls)}
    return cls(**{k: _from_json(types.get(k), v) for k, v in value.items()})

def spec_from_dict(d):
    """RunSpec from the output of spec_to_dict (e.g. read from a manifest)."""
    config = {k: v for k, v in d.items() if k not in ("mode", "qp_orders")}
    return RunSpec(config=_from_json(ScenarioConfig, config), mode=d["mode"],
                   qp_orders=tuple(d["qp_orders"]))
