"""Property-style serialization coverage for :class:`SystemConfig`.

Every field is perturbed away from its default one at a time; for each
variant ``config.as_dict()`` must move and must rebuild the config
exactly (including through a JSON round-trip, which is what the result
store keeps), and the config's stable hash, the key
:meth:`RunSpec.cache_key <repro.harness.specs.RunSpec.cache_key>` files
its runs under, must move — a field the key is blind to would silently
alias distinct experiments in the cache.

This is the dynamic twin of lint rule RP003, which checks the same
coverage statically.
"""

from __future__ import annotations

import json
from unittest import mock

import pytest

from repro.harness.specs import RunSpec
from repro.sim.config import (
    CONFIG_FIELDS,
    DramTiming,
    EnergyParams,
    SystemConfig,
)

# One type-appropriate non-default value per field.  A new SystemConfig
# field must be added here or the parametrized tests below fail on it —
# by design: serialization coverage is opt-in per field, never implicit.
PERTURBATIONS = {
    "num_units": 2,
    "cores_per_unit": 8,
    "client_cores_per_unit": 7,
    "threads_per_core": 2,
    "memory": SystemConfig().memory.with_(act_ns=9.0),
    "unit_memory_bytes": 1 << 29,
    "cache_line_bytes": 128,
    "l1_size_bytes": 32768,
    "l1_ways": 4,
    "l1_hit_cycles": 5,
    "hop_cycles": 2,
    "arbiter_cycles": 2,
    "local_hops": 3,
    "crossbar_bytes_per_cycle": 64.0,
    "link_latency_ns": 55.0,
    "link_bandwidth_gbps": 25.6,
    "topology": "mesh2d",
    "topo_rows": 2,
    "link_profile": ((0, 1, 3.2, 80.0),),
    "fault_seed": 7,
    "fault_links": ((0, 1, 100),),
    "fault_link_rate": 0.1,
    "fault_window_cycles": 10000,
    "st_entries": 128,
    "indexing_counters": 512,
    "se_service_se_cycles": 20,
    "fairness_threshold": 3,
    "async_issue_cycles": 2,
    "overflow_target": "llc",
    "shared_cache_hit_cycles": 40,
    "spin_backoff_cycles": 64,
    "server_handler_instructions": 30,
    "server_handler_accesses": 4,
    "energy": SystemConfig().energy.with_(cache_hit_pj=99.0),
    "seed": 1,
}

# Some perturbations only survive canonicalization alongside another
# field: topo_rows is deliberately reset to 0 on non-grid topologies.
BASE_OVERRIDES = {
    "topo_rows": {"topology": "mesh2d"},
}

FIELD_NAMES = list(CONFIG_FIELDS)


def _pair(field):
    """(default-ish base, base with ``field`` perturbed)."""
    base = SystemConfig().with_(**BASE_OVERRIDES.get(field, {}))
    varied = base.with_(**{field: PERTURBATIONS[field]})
    return base, varied


def from_dict(payload):
    """The config an ``as_dict()`` payload describes."""
    return SystemConfig(**{**payload,
                           "memory": DramTiming(**payload["memory"]),
                           "energy": EnergyParams(**payload["energy"])})


_SPEC = RunSpec.make("primitive", args={"primitive": "lock",
                                        "interval": 200, "rounds": 1})


def stable_hash(config):
    """The key :meth:`RunSpec.cache_key` gives a run on ``config``."""
    with mock.patch.object(RunSpec, "config", lambda spec: config):
        return _SPEC.cache_key()


def test_perturbation_table_covers_every_field():
    """Fails when a field is added without extending PERTURBATIONS."""
    assert sorted(PERTURBATIONS) == sorted(FIELD_NAMES)


@pytest.mark.parametrize("field", FIELD_NAMES)
def test_perturbation_actually_changes_the_field(field):
    base, varied = _pair(field)
    assert getattr(varied, field) != getattr(base, field)


@pytest.mark.parametrize("field", FIELD_NAMES)
def test_dict_roundtrip_per_field(field):
    base, config = _pair(field)
    assert config.as_dict() != base.as_dict()
    assert from_dict(config.as_dict()) == config


@pytest.mark.parametrize("field", FIELD_NAMES)
def test_json_roundtrip_per_field(field):
    """The store keeps JSON, so tuples travel as lists and must be
    re-normalized on the way back in."""
    base, config = _pair(field)
    payload = json.loads(json.dumps(config.as_dict()))
    assert payload != json.loads(json.dumps(base.as_dict()))
    restored = from_dict(payload)
    assert restored == config
    assert stable_hash(restored) == stable_hash(config)


@pytest.mark.parametrize("field", FIELD_NAMES)
def test_stable_hash_sensitive_to_field(field):
    base, varied = _pair(field)
    assert stable_hash(varied) != stable_hash(base), (
        f"RunSpec.cache_key is blind to {field!r}: distinct configs "
        f"would collide in the result cache")


def test_nested_params_roundtrip_from_plain_dicts():
    config = SystemConfig()
    payload = config.as_dict()
    assert isinstance(payload["memory"], dict)
    assert isinstance(payload["energy"], dict)
    restored = from_dict(payload)
    assert isinstance(restored.memory, DramTiming)
    assert isinstance(restored.energy, EnergyParams)


def test_from_dict_rejects_unknown_fields():
    payload = SystemConfig().as_dict()
    payload["warp_drive"] = 9
    with pytest.raises(TypeError, match="warp_drive"):
        from_dict(payload)
    with pytest.raises(TypeError, match="warp_drive"):
        SystemConfig().with_(warp_drive=9)


def test_stable_hash_is_deterministic_text():
    a, b = SystemConfig(), SystemConfig()
    assert stable_hash(a) == stable_hash(b)
    assert len(stable_hash(a)) == 64
    int(stable_hash(a), 16)  # hex digest


def test_fields_cannot_be_assigned():
    config = SystemConfig()
    with pytest.raises(AttributeError):
        config.num_units = 8
    with pytest.raises(AttributeError):
        del config.seed
    assert config == SystemConfig()


def test_default_config_validates():
    SystemConfig().validate()


@pytest.mark.parametrize("field,bad", [
    ("fairness_threshold", -1),
    ("spin_backoff_cycles", -1),
    ("l1_hit_cycles", 0),
    ("link_bandwidth_gbps", 0.0),
    ("unit_memory_bytes", 1),
    ("seed", True),
])
def test_validate_rejects_out_of_range_timing_fields(field, bad):
    config = SystemConfig().with_(**{field: bad})
    with pytest.raises((ValueError, TypeError)):
        config.validate()
