"""JobSpec: fingerprint stability, sensitivity, serialisation."""

import os
import pathlib
import subprocess
import sys

import pytest

from repro.hymm import HyMMConfig
from repro.runtime import SCHEMA_VERSION, JobSpec


def _spec(**overrides):
    base = dict(dataset="cora", kind="hymm", scale=0.05, n_layers=1, seed=0)
    base.update(overrides)
    return JobSpec(**base)


class TestFingerprint:
    def test_deterministic_within_process(self):
        assert _spec().fingerprint() == _spec().fingerprint()

    def test_hex_sha256(self):
        fp = _spec().fingerprint()
        assert len(fp) == 64
        int(fp, 16)  # valid hex

    def test_stable_across_processes(self):
        """The cache key must be reproducible from a cold interpreter."""
        src = pathlib.Path(__file__).resolve().parents[2] / "src"
        code = (
            "from repro.runtime import JobSpec;"
            "print(JobSpec(dataset='cora', kind='hymm', scale=0.05).fingerprint())"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, env=env, check=True,
        )
        assert out.stdout.strip() == JobSpec(
            dataset="cora", kind="hymm", scale=0.05
        ).fingerprint()

    @pytest.mark.parametrize("field,value", [
        ("dataset", "flickr"),
        ("kind", "rwp"),
        ("scale", 0.1),
        ("n_layers", 2),
        ("seed", 1),
        ("sort_mode", "none"),
        ("feature_length", 64),
        ("config", HyMMConfig()),
    ])
    def test_every_field_changes_fingerprint(self, field, value):
        assert _spec().fingerprint() != _spec(**{field: value}).fingerprint()

    def test_none_config_differs_from_default_config(self):
        """config=None means "accelerator default" (baselines use split
        buffers), a different point from an explicit HyMMConfig()."""
        assert _spec(config=None).fingerprint() != _spec(
            config=HyMMConfig()
        ).fingerprint()

    def test_config_override_changes_fingerprint(self):
        a = _spec(config=HyMMConfig())
        b = a.with_overrides(dmb_bytes=64 * 1024)
        assert a.fingerprint() != b.fingerprint()

    def test_payload_embeds_schema_version(self):
        assert _spec().canonical_payload()["schema_version"] == SCHEMA_VERSION


class TestTraceDir:
    @pytest.mark.parametrize("exempt", [{"clock_ghz": 2.0}, {"engine": "scalar"}])
    def test_exempt_knobs_share_a_directory(self, exempt):
        a = _spec(config=HyMMConfig())
        b = a.with_overrides(**exempt)
        assert a.fingerprint() != b.fingerprint()
        assert a.trace_dir("root") == b.trace_dir("root")

    def test_timing_knobs_split_directories(self):
        a = _spec(config=HyMMConfig())
        assert a.trace_dir("root") != a.with_overrides(
            dmb_bytes=64 * 1024
        ).trace_dir("root")
        assert a.trace_dir("root") != _spec(config=None).trace_dir("root")
        assert a.trace_dir("root") != _spec(
            config=HyMMConfig(), seed=1
        ).trace_dir("root")

    def test_hash_prefixed_layout(self):
        root, shard, key = _spec().trace_dir("root").split(os.sep)
        assert root == "root" and len(key) == 64 and key.startswith(shard)
        assert len(shard) == 2


class TestValidation:
    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            _spec(scale=0.0)
        with pytest.raises(ValueError):
            _spec(n_layers=0)
        with pytest.raises(ValueError):
            _spec(dataset="")
        with pytest.raises(ValueError):
            _spec(kind="")


class TestSerialisation:
    def test_round_trip_plain(self):
        spec = _spec()
        again = JobSpec.from_dict(spec.to_dict())
        assert again == spec
        assert again.fingerprint() == spec.fingerprint()

    def test_round_trip_with_config(self):
        spec = _spec(config=HyMMConfig(dmb_bytes=64 * 1024, lru=False),
                     sort_mode="random")
        again = JobSpec.from_dict(spec.to_dict())
        assert again == spec
        assert again.fingerprint() == spec.fingerprint()

    def test_config_from_dict_rejects_unknown_fields(self):
        data = HyMMConfig().to_dict()
        data["warp_drive"] = True
        with pytest.raises(ValueError):
            HyMMConfig.from_dict(data)

    def test_describe_mentions_kind_and_dataset(self):
        assert "hymm" in _spec().describe()
        assert "cora" in _spec().describe()
