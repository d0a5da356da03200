"""Checkpoint directories: ``params.t5`` and ``manifest.json``, nothing else.

``params.t5`` is one (1, 1, 1, 1, N) packed tensor holding every parameter
back to back in sorted name order; the manifest records each name's true shape
(offsets follow from the shapes) and a fingerprint of the model configuration.
The fingerprint lets a consumer refuse weights built under a different
architecture, and the content hash lets the two-step training contract verify
that frozen weights were not touched.
"""

import dataclasses
import hashlib
import json
import math
import os

import numpy as np

from .errors import ConfigError, NumericError, ShapeError
from .tensor_io import read_tensor, write_tensor

__all__ = [
    "config_fingerprint",
    "checkpoint_files",
    "save_checkpoint",
    "load_checkpoint",
    "checkpoint_hash",
    "assign_state",
]

_FORMAT = "flowvad-checkpoint-v2"
_PARAMS = "params.t5"
_MANIFEST = "manifest.json"


def config_fingerprint(config):
    """Stable hash of a dataclass config: sha256 of its sorted field repr."""
    blob = json.dumps(dataclasses.asdict(config), sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def checkpoint_files(directory):
    """Every path a save writes in ``directory``, its temporary names included."""
    return [os.path.join(directory, name + end)
            for name in (_PARAMS, _MANIFEST) for end in ("", ".tmp")]


def save_checkpoint(directory, params, config, extra=None):
    """Write ``params.t5`` and a manifest under temporary names, then move
    each over its old file, the manifest last.

    params: mapping name -> Tensor (or array). config: the model's dataclass
    config, whose fingerprint guards later loads. extra: optional
    JSON-serializable metadata stored verbatim in the manifest.
    """
    arrays = {name: np.asarray(getattr(p, "data", p), dtype=np.float64)
              for name, p in sorted(params.items())}
    manifest = {
        "format": _FORMAT,
        "fingerprint": config_fingerprint(config),
        "parameters": {name: list(arr.shape) for name, arr in arrays.items()},
    }
    if extra:
        manifest["extra"] = extra
    os.makedirs(directory, exist_ok=True)
    temps = {name: os.path.join(directory, name + ".tmp") for name in (_PARAMS, _MANIFEST)}
    try:
        with open(temps[_PARAMS], "wb") as fh:
            write_tensor(fh, (1, 1, 1, 1, sum(a.size for a in arrays.values())), arrays.values())
        with open(temps[_MANIFEST], "w") as fh:
            fh.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
        for name, temp in temps.items():
            os.replace(temp, os.path.join(directory, name))
    finally:
        for temp in temps.values():
            if os.path.exists(temp):
                os.remove(temp)


def _read_manifest(directory):
    path = os.path.join(directory, _MANIFEST)
    try:
        with open(path, "rb") as fh:
            manifest = json.loads(fh.read())
    except OSError as exc:
        raise ConfigError(f"no checkpoint manifest readable at {path}: {exc.strerror}") from None
    except ValueError as exc:  # not UTF-8 or not JSON
        raise ConfigError(f"{path}: not a checkpoint manifest ({exc})") from None
    if problem := _manifest_problem(manifest):
        raise ConfigError(f"{path}: {problem}")
    return manifest


def _manifest_problem(manifest):
    """What makes a parsed manifest unusable, or None."""
    form = manifest.get("format") if isinstance(manifest, dict) else None
    if form == "flowvad-checkpoint-v1":
        return f"the per-parameter layout {form} is no longer read"
    if form != _FORMAT:
        return "unrecognized checkpoint format"
    if not isinstance(manifest.get("fingerprint"), str):
        return "fingerprint missing or not a string"
    shapes = manifest.get("parameters")
    if not isinstance(shapes, dict):
        return "parameters missing or not an object"
    for name, shape in shapes.items():
        if not isinstance(shape, list) or not all(type(d) is int and d >= 0 for d in shape):
            return f"parameter {name!r}: shape {shape!r} is not a list of non-negative ints"
    return None


def load_checkpoint(directory, config):
    """Read all parameters back as a name -> ndarray mapping. The
    fingerprint of ``config``, the model's dataclass config, must match the
    stored one."""
    manifest = _read_manifest(directory)
    have = manifest["fingerprint"]
    if have != (want := config_fingerprint(config)):
        raise ConfigError(f"checkpoint {directory} was written for a different "
                          f"configuration (fingerprint {have}, expected {want})")
    shapes = dict(sorted(manifest["parameters"].items()))
    path = os.path.join(directory, _PARAMS)
    try:
        parts = read_tensor(path, [math.prod(shape) for shape in shapes.values()])
    except ShapeError as exc:
        raise ConfigError(str(exc)) from None
    except OSError as exc:
        raise ConfigError(f"cannot read checkpoint file {path}: {exc.strerror}") from None
    params = {}
    for (name, shape), part in zip(shapes.items(), parts):
        if not np.isfinite(part).all():
            raise ConfigError(f"{path}: parameter {name} holds a non-finite value")
        params[name] = part.reshape(shape)
    return params


def checkpoint_hash(directory):
    """sha256 over the manifest and ``params.t5``, in that order."""
    digest = hashlib.sha256()
    for name in (_MANIFEST, _PARAMS):
        with open(os.path.join(directory, name), "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def assign_state(params, state):
    """Copy ``state`` (name -> array) into ``params`` (name -> Tensor) in place.

    The names must match, then every shape, then every value must be finite;
    nothing is copied unless all of them hold. Each parameter keeps its own
    ``.data`` array and receives the values with ``np.copyto``, so loading
    allocates no second set of parameters and shares no memory with ``state``.
    """
    missing = sorted(set(params) - set(state))
    extra = sorted(set(state) - set(params))
    if missing or extra:
        raise ShapeError(f"state mismatch: missing {missing}, unexpected {extra}")
    arrays = {name: np.asarray(state[name], dtype=np.float64) for name in params}
    for name, arr in arrays.items():
        if arr.shape != params[name].shape:
            raise ShapeError(
                f"{name}: stored shape {arr.shape} != model shape {params[name].shape}"
            )
    for name, arr in arrays.items():
        if not np.isfinite(arr).all():
            raise NumericError(f"{name}: stored parameters contain non-finite values")
    for name, arr in arrays.items():
        np.copyto(params[name].data, arr)
