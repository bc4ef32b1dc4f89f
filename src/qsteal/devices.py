"""Named noise profiles for simulated quantum devices.

A profile bundles per-gate-class depolarizing rates, per-layer damping and
flip rates, and per-qubit readout confusion.  Profiles load from a YAML
document and are looked up by name in a read-only registry.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from .channels import ReadoutConfusion

#: the YAML parser of config and registry files: libyaml's when PyYAML was built with it
YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

_RATE_FIELDS = ("p1", "p2", "gamma", "p_phase", "p_bit")


class RegistryError(ValueError):
    """Raised for malformed registry documents; message carries the field path."""


@dataclass(frozen=True)
class DeviceProfile:
    """One device's noise configuration.

    Profiles are hashable values (readout matrices live as nested tuples)
    so prepared circuits can be cached per profile.
    """

    name: str
    p1: float = 0.0
    p2: float = 0.0
    gamma: float = 0.0
    p_phase: float = 0.0
    p_bit: float = 0.0
    #: single 2x2 matrix broadcast to all qubits, or one matrix per qubit
    readout: tuple = ()

    def __post_init__(self):
        for fname in _RATE_FIELDS:
            value = getattr(self, fname)
            if not 0.0 <= value <= 1.0:
                raise RegistryError(f"{self.name}.{fname}: {value} outside [0, 1]")
        readout = self.readout
        if readout is None or len(readout) == 0:
            mats = ()
        else:
            arr = np.asarray(readout, dtype=np.float64)
            if arr.shape == (2, 2):
                arr = arr[None]
            elif not (arr.ndim == 3 and arr.shape[1:] == (2, 2)):
                raise RegistryError(
                    f"{self.name}.readout: expected a 2x2 matrix or a list of them, got shape {arr.shape}"
                )
            ReadoutConfusion(tuple(arr))  # validates row sums and ranges
            mats = tuple(tuple(tuple(float(v) for v in row) for row in m) for m in arr)
        object.__setattr__(self, "readout", mats)

    def readout_for(self, n_qubits: int) -> ReadoutConfusion:
        """Readout confusion sized to a register, broadcasting a single matrix."""
        if len(self.readout) == 0:
            return ReadoutConfusion.identity(n_qubits)
        if len(self.readout) == 1:
            return ReadoutConfusion.broadcast(np.array(self.readout[0]), n_qubits)
        if len(self.readout) != n_qubits:
            raise RegistryError(
                f"{self.name}.readout: {len(self.readout)} per-qubit matrices for {n_qubits} qubits"
            )
        return ReadoutConfusion(tuple(np.array(m) for m in self.readout))


class DeviceRegistry:
    """Read-only name -> DeviceProfile mapping; lookups fail closed."""

    def __init__(self, profiles):
        self._profiles = {}
        for p in profiles:
            if p.name in self._profiles:
                raise RegistryError(f"duplicate device name {p.name!r}")
            self._profiles[p.name] = p

    def get(self, name: str) -> DeviceProfile:
        try:
            return self._profiles[name]
        except KeyError:
            known = ", ".join(sorted(self._profiles)) or "<empty>"
            raise RegistryError(f"unknown device {name!r}; registered: {known}") from None


def _parse_profile(entry: dict, path: str) -> DeviceProfile:
    if not isinstance(entry, dict):
        raise RegistryError(f"{path}: expected a mapping, got {type(entry).__name__}")
    if "name" not in entry:
        raise RegistryError(f"{path}.name: missing")
    known = {"name", *_RATE_FIELDS, "readout"}
    for key in entry:
        if key not in known:
            raise RegistryError(f"{path}.{key}: unknown field")
    kwargs = {"name": str(entry["name"])}
    for fname in _RATE_FIELDS:
        if fname in entry:
            value = entry[fname]
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise RegistryError(f"{path}.{fname}: expected a number, got {value!r}")
            kwargs[fname] = float(value)
    if "readout" in entry:
        kwargs["readout"] = entry["readout"]
    try:
        return DeviceProfile(**kwargs)
    except (RegistryError, ValueError) as exc:
        message = str(exc)
        if message.startswith(kwargs["name"] + "."):
            # DeviceProfile names a bad field <name>.<field>; here it is <path>.<field>
            raise RegistryError(path + message[len(kwargs["name"]) :]) from exc
        raise RegistryError(f"{path}: {message}") from exc


def load_registry(path: Path) -> DeviceRegistry:
    """Load and validate the registry in the YAML file at `path`."""
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise RegistryError(f"registry file {path}: cannot be read ({exc.strerror or exc})") from exc
    try:
        doc = yaml.load(raw, Loader=YAML_LOADER)
    except yaml.YAMLError as exc:
        raise RegistryError(f"registry file {path} does not parse: {exc}") from exc
    if not isinstance(doc, dict) or "devices" not in doc:
        raise RegistryError("devices: missing top-level list")
    entries = doc["devices"]
    if not isinstance(entries, list):
        raise RegistryError("devices: expected a list")
    profiles = [_parse_profile(e, f"devices[{i}]") for i, e in enumerate(entries)]
    return DeviceRegistry(profiles)


IDEAL = DeviceProfile(name="ideal")

DEV_A = DeviceProfile(
    name="devA",
    p1=0.001,
    p2=0.01,
    gamma=0.002,
    p_phase=0.002,
    p_bit=0.002,
    readout=[[0.97, 0.03], [0.05, 0.95]],
)

DEV_B = DeviceProfile(
    name="devB",
    p1=0.005,
    p2=0.05,
    gamma=0.01,
    p_phase=0.01,
    p_bit=0.01,
    readout=[[0.93, 0.07], [0.10, 0.90]],
)


def default_registry() -> DeviceRegistry:
    """The registry shipped with the package: ideal, devA, devB."""
    return DeviceRegistry([IDEAL, DEV_A, DEV_B])
