"""Device registry loading and validation."""

import pytest

from qsteal.devices import (
    DEV_A,
    DEV_B,
    IDEAL,
    RegistryError,
    default_registry,
    load_registry,
    save_registry,
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
    basis_gates: [rz, sx, cx]
"""


class TestLoading:
    def test_zero_rate_profile_is_noiseless(self):
        reg = load_registry(GOOD_DOC)
        quiet = reg.get("quiet")
        assert quiet.is_noiseless
        assert not reg.get("loud").is_noiseless

    def test_duplicate_name_rejected(self):
        doc = {"devices": [{"name": "a"}, {"name": "a"}]}
        with pytest.raises(RegistryError, match="duplicate device name 'a'"):
            load_registry(doc)

    def test_out_of_range_rate_names_field(self):
        doc = {"devices": [{"name": "bad", "p2": 1.5}]}
        with pytest.raises(RegistryError, match=r"devices\[0\].p2"):
            load_registry(doc)

    def test_unknown_field_rejected(self):
        doc = {"devices": [{"name": "x", "p9": 0.1}]}
        with pytest.raises(RegistryError, match=r"devices\[0\].p9"):
            load_registry(doc)

    def test_missing_devices_key(self):
        with pytest.raises(RegistryError, match="devices"):
            load_registry("other: 1")

    def test_bad_readout_shape(self):
        doc = {"devices": [{"name": "x", "readout": [[0.9, 0.1]]}]}
        with pytest.raises(RegistryError, match="readout"):
            load_registry(doc)

    def test_roundtrip_is_lossless(self, tmp_path):
        reg = load_registry(GOOD_DOC)
        path = tmp_path / "devices.yaml"
        save_registry(reg, path)
        reloaded = load_registry(path)
        assert reg.to_dict() == reloaded.to_dict()

    @pytest.mark.parametrize("name", ["absent.yaml", ""], ids=["missing", "directory"])
    def test_unreadable_path_names_path(self, tmp_path, name):
        path = tmp_path / name
        with pytest.raises(RegistryError) as info:
            load_registry(path)
        assert str(path) in str(info.value)
        assert "missing top-level list" not in str(info.value)

    def test_str_naming_a_file_is_yaml_text(self, tmp_path, monkeypatch):
        save_registry(load_registry(GOOD_DOC), tmp_path / "devices.yaml")
        monkeypatch.chdir(tmp_path)
        # parsed as the YAML scalar "devices.yaml", which has no devices list
        with pytest.raises(RegistryError, match="missing top-level list"):
            load_registry("devices.yaml")

    def test_per_qubit_readout_list(self):
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
        prof = load_registry(doc).get("x")
        conf = prof.readout_for(2)
        assert conf.matrix(1)[0, 1] == 0.1
        with pytest.raises(RegistryError, match="per-qubit"):
            prof.readout_for(3)

    def test_lookup_fails_closed(self):
        reg = default_registry()
        with pytest.raises(RegistryError, match="unknown device 'devC'"):
            reg.get("devC")

    def test_defaults_present(self):
        reg = default_registry()
        assert set(reg.names()) == {"ideal", "devA", "devB"}
        assert IDEAL.is_noiseless
        assert DEV_A.p2 == 0.01 and DEV_B.p2 == 0.05
