"""Tests for result serialization, the disk cache and its config keys."""

import pytest

from repro.common.config import ScaleConfig, SystemConfig, scaled_system
from repro.core.simulator import simulate
from repro.runner.jobs import config_key
from repro.runner.store import ResultStore, result_from_dict, result_to_dict
from repro.workloads import build_workload
from repro.waste.profiler import Category


@pytest.fixture(scope="module")
def result():
    scale = ScaleConfig.tiny()
    w = build_workload("radix", scale)
    return simulate(w, "MESI", scaled_system(scale))


class TestRoundTrip:
    def test_dict_roundtrip_preserves_everything(self, result):
        data = result_to_dict(result)
        back = result_from_dict(data)
        assert back.workload == result.workload
        assert back.protocol == result.protocol
        assert back.traffic == result.traffic
        assert back.l1_waste == result.l1_waste
        assert back.l2_waste == result.l2_waste
        assert back.mem_waste == result.mem_waste
        assert back.time == result.time
        assert back.exec_cycles == result.exec_cycles
        assert back.dram_stats == result.dram_stats

    def test_waste_keys_are_categories(self, result):
        back = result_from_dict(result_to_dict(result))
        assert all(isinstance(k, Category) for k in back.l1_waste)

    def test_save_and_load(self, result, tmp_path):
        key = "deadbeef"
        ResultStore(tmp_path).save(result, key)
        loaded = ResultStore(tmp_path).load(result.workload, result.protocol,
                                            key)
        assert loaded is not None
        assert loaded.traffic == result.traffic

    def test_load_missing_returns_none(self, tmp_path):
        assert ResultStore(tmp_path).load("x", "y", "z") is None

    def test_load_corrupt_returns_none(self, result, tmp_path):
        key = "cafe"
        path = ResultStore(tmp_path).save(result, key)
        path.write_text("{not json")
        assert ResultStore(tmp_path).load(result.workload, result.protocol,
                                          key) is None


class TestConfigKey:
    def test_stable(self):
        a = config_key(ScaleConfig(), SystemConfig())
        b = config_key(ScaleConfig(), SystemConfig())
        assert a == b

    def test_differs_by_scale(self):
        a = config_key(ScaleConfig(), SystemConfig())
        b = config_key(ScaleConfig.tiny(), SystemConfig())
        assert a != b

    def test_differs_by_system(self):
        a = config_key(ScaleConfig(), SystemConfig())
        b = config_key(ScaleConfig(), SystemConfig(l1_kb=64))
        assert a != b
