"""Device registry loading and validation."""

import numpy as np
import pytest
import yaml

from qsteal.circuits import PQCTemplate, assemble_circuit, weave_noise
from qsteal.devices import (
    DEV_A,
    DEV_B,
    IDEAL,
    DeviceProfile,
    RegistryError,
    default_registry,
    load_registry,
)

GOOD_DOC = """
devices:
  - name: quiet
    p1: 0.0
    p2: 0.0
    gamma: 0.0
    p_phase: 0.0
    p_bit: 0.0
  - name: loud
    p1: 0.01
    p2: 0.05
    gamma: 0.02
    p_phase: 0.01
    p_bit: 0.01
    readout: [[0.9, 0.1], [0.2, 0.8]]
"""


@pytest.fixture
def load(tmp_path):
    """Load a registry document, YAML text or a dict, from a file under tmp_path."""

    def _load(doc):
        path = tmp_path / "devices.yaml"
        path.write_text(doc if isinstance(doc, str) else yaml.safe_dump(doc))
        return load_registry(path)

    return _load


def _woven(profile):
    template = PQCTemplate("PQC19", 2)
    return weave_noise(assemble_circuit(np.zeros(2), template, np.zeros(template.param_count)), profile)


class TestLoading:
    def test_zero_rate_profile_is_noiseless(self, load):
        reg = load(GOOD_DOC)
        assert not _woven(reg.get("quiet")).has_noise
        assert _woven(reg.get("loud")).has_noise

    def test_duplicate_name_rejected(self, load):
        doc = {"devices": [{"name": "a"}, {"name": "a"}]}
        with pytest.raises(RegistryError, match="duplicate device name 'a'"):
            load(doc)

    def test_out_of_range_rate_names_field(self, load):
        doc = {"devices": [{"name": "bad", "p2": 1.5}]}
        with pytest.raises(RegistryError, match=r"devices\[0\].p2"):
            load(doc)

    @pytest.mark.parametrize(
        "entry, message",
        [({"name": "bad", "gamma": -0.1}, r"devices\[1\]\.gamma: -0.1 outside \[0, 1\]"),
         ({"name": "d.v", "p_bit": 2}, r"devices\[1\]\.p_bit: 2.0 outside \[0, 1\]"),
         ({"name": "x", "readout": [[0.9, 0.1]]}, r"devices\[1\]\.readout: expected a 2x2 matrix")],
        ids=["rate", "dotted-name", "readout"],
    )
    def test_profile_errors_name_the_entry_field(self, load, entry, message):
        with pytest.raises(RegistryError, match=f"^{message}"):
            load({"devices": [{"name": "ok"}, entry]})

    def test_unknown_field_rejected(self, load):
        doc = {"devices": [{"name": "x", "p9": 0.1}]}
        with pytest.raises(RegistryError, match=r"devices\[0\].p9"):
            load(doc)

    def test_basis_gates_is_an_unknown_field(self, load):
        doc = {"devices": [{"name": "ok"}, {"name": "x", "basis_gates": ["rz", "sx", "cx"]}]}
        with pytest.raises(RegistryError, match=r"^devices\[1\]\.basis_gates: unknown field$"):
            load(doc)

    def test_missing_devices_key(self, load):
        with pytest.raises(RegistryError, match="devices"):
            load("other: 1")

    def test_bad_readout_shape(self, load):
        doc = {"devices": [{"name": "x", "readout": [[0.9, 0.1]]}]}
        with pytest.raises(RegistryError, match="readout"):
            load(doc)

    def test_file_loads_its_profiles(self, load):
        reg = load(GOOD_DOC)
        assert reg.get("quiet") == DeviceProfile(name="quiet")
        loud = reg.get("loud")
        assert (loud.p1, loud.p2, loud.gamma, loud.p_phase, loud.p_bit) == (0.01, 0.05, 0.02, 0.01, 0.01)
        assert loud.readout == (((0.9, 0.1), (0.2, 0.8)),)

    @pytest.mark.parametrize("name", ["absent.yaml", ""], ids=["missing", "directory"])
    def test_unreadable_path_names_path(self, tmp_path, name):
        path = tmp_path / name
        with pytest.raises(RegistryError) as info:
            load_registry(path)
        assert str(path) in str(info.value)
        assert "missing top-level list" not in str(info.value)

    def test_str_naming_a_file_is_read_as_a_path(self, tmp_path, monkeypatch):
        (tmp_path / "devices.yaml").write_text(GOOD_DOC)
        monkeypatch.chdir(tmp_path)
        assert load_registry("devices.yaml").get("loud") == load_registry(tmp_path / "devices.yaml").get("loud")

    def test_per_qubit_readout_list(self, load):
        doc = {
            "devices": [
                {
                    "name": "x",
                    "readout": [
                        [[0.95, 0.05], [0.05, 0.95]],
                        [[0.9, 0.1], [0.1, 0.9]],
                    ],
                }
            ]
        }
        prof = load(doc).get("x")
        conf = prof.readout_for(2)
        assert conf.matrix(1)[0, 1] == 0.1
        with pytest.raises(RegistryError, match="per-qubit"):
            prof.readout_for(3)

    def test_lookup_fails_closed(self):
        reg = default_registry()
        with pytest.raises(RegistryError, match="unknown device 'devC'; registered: devA, devB, ideal$"):
            reg.get("devC")

    def test_defaults_present(self):
        reg = default_registry()
        assert [reg.get(name) for name in ("ideal", "devA", "devB")] == [IDEAL, DEV_A, DEV_B]
        assert not _woven(IDEAL).has_noise
        assert DEV_A.p2 == 0.01 and DEV_B.p2 == 0.05
