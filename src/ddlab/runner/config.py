"""Run-configuration parsing and normalization.

Config files are line oriented: ``key = value`` pairs grouped under
``[params]``, ``[ensemble]`` and ``[output]`` headers, with ``kind`` (and
optionally ``threads``, a positive integer accepted for compatibility that
changes nothing) above the first header.  Unknown keys, type
mismatches, missing required keys, keys that conflict or need each other,
and single-key ranges (such as ``m >= 4`` or a positive ``n``) are
collected and reported together rather than one at a time.  This module
checks only the file's schema: every rule of the numerical layers (step
grids, horizons, field values, transients) is checked by the engine's
prepare step in `ddlab.runner.execute`, which ``--dry-run`` runs too.

``normalize`` renders a parsed config back to canonical text: sorted keys,
resolved defaults, shortest round-tripping float literals.  Two files that
describe the same run normalize to the same bytes, which is what run
manifests hash.
"""

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ..errors import ConfigError

KINDS = ("map-iterate", "dde-ensemble", "gaussian", "brownian", "kicked",
         "compare")

_SECTIONS = ("params", "ensemble", "output")


class Schedule(NamedTuple):
    """Arithmetic sequence of snapshot times, ``start:stop:step`` in files."""

    start: float
    stop: float
    step: float

    def times(self) -> np.ndarray:
        k = int(math.floor((self.stop - self.start) / self.step + 1e-9))
        return self.start + self.step * np.arange(k + 1)


# ---------------------------------------------------------------------------
# value converters: token -> typed value, ValueError on mismatch


def _int(tok):
    try:
        return int(tok)
    except ValueError:
        raise ValueError(f"expected an integer, got {tok!r}") from None


def _float(tok):
    try:
        return float(tok)
    except ValueError:
        raise ValueError(f"expected a number, got {tok!r}") from None


def _int_at_least(low):
    def conv(tok):
        value = _int(tok)
        if value < low:
            raise ValueError(f"expected an integer at least {low}, got {tok}")
        return value

    return conv


def _positive(tok):
    value = _float(tok)
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"expected a finite positive number, got {tok!r}")
    return value


def _bool(tok):
    low = tok.lower()
    if low in ("true", "yes", "on", "1"):
        return True
    if low in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"expected true/false, got {tok!r}")


def _str(tok):
    return tok


def _choice(*names):
    def conv(tok):
        if tok not in names:
            raise ValueError(f"expected one of {', '.join(names)}; got {tok!r}")
        return tok

    return conv


def _floats(tok):
    parts = [p.strip() for p in tok.split(",")]
    if not all(parts):
        raise ValueError("expected a comma-separated list of numbers")
    return tuple(_float(p) for p in parts)


def _schedule(tok):
    parts = tok.split(":")
    if len(parts) != 3:
        raise ValueError(f"expected start:stop:step, got {tok!r}")
    start, stop, step = (_float(p.strip()) for p in parts)
    if not all(map(math.isfinite, (start, stop, step))):
        raise ValueError("schedule values must be finite")
    if step <= 0.0:
        raise ValueError("schedule step must be positive")
    if stop < start:
        raise ValueError("schedule stop must not precede start")
    return Schedule(start, stop, step)


def _mixture(tok):
    groups = [g.strip() for g in tok.split(",")]
    if not all(groups):
        raise ValueError("expected lo:hi:count groups separated by commas")
    out = []
    for g in groups:
        parts = g.split(":")
        if len(parts) != 3:
            raise ValueError(f"expected lo:hi:count, got {g!r}")
        lo, hi = _float(parts[0].strip()), _float(parts[1].strip())
        count = _int(parts[2].strip())
        if count < 1:
            raise ValueError(f"component count must be positive, got {count}")
        out.append((lo, hi, count))
    return tuple(out)


class _Key(NamedTuple):
    conv: object
    required: bool = False
    default: object = None


def _req(conv):
    return _Key(conv, required=True)


def _opt(conv, default=None):
    return _Key(conv, required=False, default=default)


_TOP = {"kind": _opt(_choice(*KINDS)), "threads": _opt(_int_at_least(1), 1)}

_SCHEMAS = {
    "map-iterate": {
        "params": {
            "map": _opt(_choice("tent", "circle"), "tent"),
            "a": _req(_float),
            "b": _opt(_float, 0.0),
            "n_iter": _req(_int_at_least(0)),
            "cells": _opt(_int_at_least(2), 4096),
        },
        "ensemble": {},
        "output": {"directory": _opt(_str)},
    },
    "dde-ensemble": {
        "params": {
            "field": _opt(_choice("hat", "circle", "linear"), "hat"),
            "alpha": _opt(_float),
            "a": _req(_float),
            "b": _opt(_float),
            "tau": _opt(_positive, 1.0),
            "m": _req(_int_at_least(4)),
            "noise_lo": _opt(_float),
            "noise_hi": _opt(_float),
            "noise_interval": _opt(_float),
            "tol": _opt(_positive, 0.1),
            "joint": _opt(_bool, False),
        },
        "ensemble": {
            "spec": _req(_choice("uniform", "constant", "mixture")),
            "lo": _opt(_float),
            "hi": _opt(_float),
            "value": _opt(_float),
            "mixture": _opt(_mixture),
            "n": _req(_int_at_least(1)),
            "seed": _req(_int),
        },
        "output": {
            "directory": _opt(_str),
            "snapshots": _req(_schedule),
            "bins": _opt(_int_at_least(1), 100),
        },
    },
    "gaussian": {
        "params": {
            "kernel": _req(_choice("brownian", "cosine", "degenerate-cosine")),
            "a": _req(_float),
            "b": _req(_float),
            "tau": _opt(_float, 1.0),
            "T": _req(_float),
            "dt": _req(_float),
        },
        "ensemble": {},
        "output": {"directory": _opt(_str)},
    },
    "brownian": {
        "params": {
            "gamma": _req(_float),
            "beta": _req(_float),
            "tau": _opt(_positive, 1.0),
            "m": _opt(_int_at_least(4), 32),
            "T": _req(_float),
            "burn_in": _opt(_float),
            "min_samples": _opt(_int, 1_000_000),
        },
        "ensemble": {
            "spec": _opt(_choice("uniform", "constant"), "uniform"),
            "lo": _opt(_float, -0.05),
            "hi": _opt(_float, 0.05),
            "value": _opt(_float),
            "n": _req(_int_at_least(1)),
            "seed": _req(_int),
        },
        "output": {"directory": _opt(_str),
                   "bins": _opt(_int_at_least(1), 60)},
    },
    "kicked": {
        "params": {
            "gamma": _req(_float),
            "taus": _req(_floats),
            "n_kicks": _req(_int),
            "streams": _opt(_int_at_least(1), 256),
        },
        "ensemble": {},
        "output": {"directory": _opt(_str)},
    },
    "compare": {
        "params": {
            "kernel": _req(_choice("brownian", "cosine")),
            "a": _req(_float),
            "b": _req(_float),
            "tau": _opt(_float, 1.0),
            "m": _opt(_int_at_least(4), 512),
            "times": _req(_floats),
            "chunk": _opt(_int_at_least(1), 20000),
        },
        "ensemble": {"n": _req(_int_at_least(2)), "seed": _req(_int)},
        "output": {"directory": _opt(_str)},
    },
}


@dataclass
class RunConfig:
    """One fully resolved experiment description."""

    kind: str
    threads: int = 1
    params: dict = field(default_factory=dict)
    ensemble: dict = field(default_factory=dict)
    output: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# cross-key checks, run after individual values parse


def _check_dde_ensemble(v, problems):
    p = v["params"]
    field = p.get("field")
    if field in ("hat", "circle") and p.get("alpha") is None:
        problems.append((None, f"key 'alpha' is required when field = {field}"))
    if field in ("circle", "linear") and p.get("b") is None:
        problems.append((None, f"key 'b' is required when field = {field}"))
    if field == "linear" and p.get("alpha") is not None:
        problems.append((None, "key 'alpha' does not apply when field = linear"))
    lo, hi, interval = (p.get(k) for k in ("noise_lo", "noise_hi",
                                           "noise_interval"))
    if field != "circle" and (lo, hi, interval) != (None, None, None):
        problems.append((None, "noise keys apply only when field = circle"))
    if (lo is None) != (hi is None):
        problems.append((None, "noise_lo and noise_hi must be given together"))
    elif hi is None and interval is not None:
        problems.append((None, "noise_interval needs noise_lo and noise_hi"))
    _check_initial_spec(v, problems)


def _check_initial_spec(v, problems):
    e = v["ensemble"]
    spec = e.get("spec")
    if spec == "uniform" and (e.get("lo") is None or e.get("hi") is None):
        problems.append((None, "uniform spec needs keys 'lo' and 'hi'"))
    elif spec == "constant" and e.get("value") is None:
        problems.append((None, "constant spec needs key 'value'"))
    elif spec == "mixture":
        if e.get("mixture") is None:
            problems.append((None, "mixture spec needs key 'mixture'"))
        elif e.get("n") is not None:
            total = sum(c for _, _, c in e["mixture"])
            if total != e["n"]:
                problems.append(
                    (None, f"mixture counts sum to {total}, but n = {e['n']}"))


def _check_compare(v, problems):
    times = v["params"].get("times") or ()
    if any(b <= a for a, b in zip(times, times[1:])):
        problems.append((None, "times must increase strictly"))


_CHECKS = {
    "dde-ensemble": _check_dde_ensemble,
    "brownian": _check_initial_spec,
    "compare": _check_compare,
}


def parse_config(text: str, kind: str = None) -> RunConfig:
    """Parse config text into a :class:`RunConfig`.

    ``kind`` supplies the experiment kind when the text itself has no
    ``kind`` key (the CLI passes the subcommand here); if both are present
    they must agree.  All problems are collected into one
    :class:`~ddlab.errors.ConfigError` rather than stopping at the first.
    """
    problems = []
    pairs = []  # (line, section, key, token)
    section = None
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                problems.append((i, "malformed section header"))
                section = "?"
                continue
            name = line[1:-1].strip()
            if name in _SECTIONS:
                section = name
            else:
                problems.append((i, f"unknown section [{name}]"))
                section = "?"
            continue
        if "=" not in line:
            problems.append((i, "expected 'key = value'"))
            continue
        key, _, tok = line.partition("=")
        key, tok = key.strip(), tok.strip()
        if not key:
            problems.append((i, "missing key before '='"))
        elif not tok:
            problems.append((i, f"missing value for '{key}'"))
        elif section != "?":
            pairs.append((i, section, key, tok))

    # the kind must be known before any other key can be judged
    eff_kind, kind_line, kind_broken = kind, None, False
    for i, s, k, tok in pairs:
        if s is None and k == "kind":
            try:
                value = _TOP["kind"].conv(tok)
            except ValueError as err:
                problems.append((i, str(err)))
                kind_broken = True
                continue
            if kind_line is not None:
                problems.append((i, "duplicate key 'kind'"))
                kind_broken = True
            elif kind is not None and value != kind:
                problems.append(
                    (i, f"config says kind = {value}, but {kind} was requested"))
                kind_broken = True
            else:
                eff_kind = value
            kind_line = i
    if eff_kind is None and not kind_broken:
        problems.append((None, "missing required key 'kind'"))
    if kind_broken or eff_kind is None:
        raise ConfigError(problems)

    schema = _SCHEMAS[eff_kind]
    values = {"params": {}, "ensemble": {}, "output": {}}
    top = {}
    seen = set()
    for i, s, k, tok in pairs:
        if s is None:
            if k == "kind":
                continue
            if k not in _TOP:
                problems.append((i, f"unknown key '{k}'"))
                continue
            target, spec = top, _TOP[k]
        else:
            if k not in schema[s]:
                problems.append((i, f"unknown key '{k}' in [{s}]"))
                continue
            target, spec = values[s], schema[s][k]
        if (s, k) in seen:
            problems.append((i, f"duplicate key '{k}'"))
            continue
        seen.add((s, k))
        try:
            target[k] = spec.conv(tok)
        except ValueError as err:
            problems.append((i, str(err)))

    for s in _SECTIONS:
        for k, spec in schema[s].items():
            if (s, k) in seen:
                continue  # present (a failed conversion is not "missing")
            if spec.required:
                problems.append((None, f"missing required key '{k}' in [{s}]"))
            else:
                values[s][k] = spec.default
    top.setdefault("threads", _TOP["threads"].default)

    if not problems and eff_kind in _CHECKS:
        _CHECKS[eff_kind](values, problems)
    if problems:
        raise ConfigError(problems)
    return RunConfig(kind=eff_kind, threads=top["threads"],
                     params=values["params"], ensemble=values["ensemble"],
                     output=values["output"])


# ---------------------------------------------------------------------------
# canonical rendering


def _render(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, str):
        return value
    if isinstance(value, Schedule):
        return ":".join(repr(float(x)) for x in value)
    if isinstance(value, tuple):
        if value and isinstance(value[0], tuple):  # mixture components
            return ", ".join(f"{lo!r}:{hi!r}:{n}" for lo, hi, n in value)
        return ", ".join(repr(float(x)) for x in value)
    raise TypeError(f"cannot render {value!r}")


def normalize(config: RunConfig) -> str:
    """Canonical text for ``config``: parsing it back yields an equal config.

    Keys are sorted, defaults are spelled out, and ``None`` values (unset
    optional keys) are omitted, so any two configs describing the same run
    produce identical bytes.
    """
    lines = [f"kind = {config.kind}", f"threads = {config.threads}"]
    for s in _SECTIONS:
        items = [(k, v) for k, v in sorted(getattr(config, s).items())
                 if v is not None]
        if not items:
            continue
        lines.append("")
        lines.append(f"[{s}]")
        lines.extend(f"{k} = {_render(v)}" for k, v in items)
    return "\n".join(lines) + "\n"
