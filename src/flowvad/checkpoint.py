"""Checkpoint directories: one packed-tensor file per parameter plus a manifest.

A checkpoint is a directory containing ``<name>.t5`` files (dots in parameter
names become directory-safe underscores via a recorded mapping) and a
``manifest.json`` recording parameter names, true shapes, and a fingerprint of
the model configuration. The fingerprint lets a consumer refuse weights built
under a different architecture, and the content hash lets the two-step
training contract verify that frozen weights were not touched.
"""

import dataclasses
import hashlib
import json
import math
import os

import numpy as np

from .errors import ConfigError, NumericError, ShapeError
from .tensor_io import load_tensor, save_tensor

__all__ = [
    "config_fingerprint",
    "save_checkpoint",
    "load_checkpoint",
    "checkpoint_hash",
    "read_manifest",
    "assign_state",
]

_MANIFEST = "manifest.json"


def config_fingerprint(config):
    """Stable hash of a dataclass config: sha256 of its sorted field repr."""
    if dataclasses.is_dataclass(config):
        items = dataclasses.asdict(config)
    elif isinstance(config, dict):
        items = config
    else:
        raise TypeError(f"cannot fingerprint {type(config).__name__}")
    blob = json.dumps(items, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _file_name(param_name):
    return param_name.replace(".", "_") + ".t5"


def save_checkpoint(directory, params, config, extra=None):
    """Write one file per parameter and a manifest.

    params: mapping name -> Tensor (or array). config: dataclass or dict whose
    fingerprint guards later loads. extra: optional JSON-serializable metadata
    stored verbatim in the manifest.
    """
    os.makedirs(directory, exist_ok=True)
    entries = {}
    for name, p in params.items():
        data = np.asarray(getattr(p, "data", p), dtype=np.float64)
        fname = _file_name(name)
        if fname in {e["file"] for e in entries.values()}:
            raise ValueError(f"parameter file name collision for {name!r}")
        save_tensor(os.path.join(directory, fname), data)
        entries[name] = {"file": fname, "shape": list(data.shape)}
    manifest = {
        "format": "flowvad-checkpoint-v1",
        "fingerprint": config_fingerprint(config),
        "parameters": entries,
    }
    if extra:
        manifest["extra"] = extra
    path = os.path.join(directory, _MANIFEST)
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_manifest(directory):
    path = os.path.join(directory, _MANIFEST)
    if not os.path.exists(path):
        raise ConfigError(f"no checkpoint manifest found in {directory}")
    try:
        with open(path, "rb") as fh:
            manifest = json.loads(fh.read())
    except ValueError as exc:  # not UTF-8 or not JSON
        raise ConfigError(f"{path}: not a checkpoint manifest ({exc})") from None
    if not isinstance(manifest, dict) or manifest.get("format") != "flowvad-checkpoint-v1":
        raise ConfigError(f"{path}: unrecognized checkpoint format")
    problem = _manifest_problem(manifest)
    if problem:
        raise ConfigError(f"{path}: {problem}")
    return manifest


def _manifest_problem(manifest):
    """What makes a parsed manifest unusable, or None. Every file must be a
    plain name, so that no entry reads outside the checkpoint directory."""
    if not isinstance(manifest.get("fingerprint"), str):
        return "fingerprint missing or not a string"
    entries = manifest.get("parameters")
    if not isinstance(entries, dict):
        return "parameters missing or not an object"
    for name, entry in entries.items():
        if not isinstance(entry, dict):
            return f"parameter {name!r}: entry is not an object"
        fname = entry.get("file")
        if (
            not isinstance(fname, str)
            or fname in ("", ".", "..")
            or any(sep and sep in fname for sep in (os.sep, os.altsep, "\0"))
        ):
            return f"parameter {name!r}: file {fname!r} is not a plain file name"
        shape = entry.get("shape")
        if not isinstance(shape, list) or not all(type(d) is int and d >= 0 for d in shape):
            return f"parameter {name!r}: shape {shape!r} is not a list of non-negative ints"
    return None


def load_checkpoint(directory, config=None):
    """Read all parameters back as a name -> ndarray mapping.

    When config is given its fingerprint must match the stored one.
    """
    manifest = read_manifest(directory)
    if config is not None:
        want = config_fingerprint(config)
        have = manifest["fingerprint"]
        if want != have:
            raise ConfigError(
                f"checkpoint {directory} was written for a different "
                f"configuration (fingerprint {have}, expected {want})"
            )
    params = {}
    for name, entry in manifest["parameters"].items():
        path = os.path.join(directory, entry["file"])
        try:
            arr = load_tensor(path)
        except (ShapeError, NumericError) as exc:
            raise ConfigError(str(exc)) from None
        want_shape = tuple(entry["shape"])
        if arr.size != math.prod(want_shape):
            raise ConfigError(
                f"{path}: payload size {arr.size} does not match "
                f"manifest shape {want_shape}"
            )
        params[name] = arr.reshape(want_shape)
    return params


def checkpoint_hash(directory):
    """sha256 over the manifest and every parameter file, in sorted order."""
    manifest = read_manifest(directory)
    digest = hashlib.sha256()
    names = sorted(manifest["parameters"])
    with open(os.path.join(directory, _MANIFEST), "rb") as fh:
        digest.update(fh.read())
    for name in names:
        with open(os.path.join(directory, manifest["parameters"][name]["file"]), "rb") as fh:
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
