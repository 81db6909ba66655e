"""ExecutionPolicy: field validation, illegal combos, loaders, hashing."""

from __future__ import annotations

import pytest

from repro.runtime import (
    LANES,
    MODELS,
    ExecutionPolicy,
    PolicyError,
    seeds_for_confidence,
)


class TestDefaults:
    def test_default_policy(self):
        p = ExecutionPolicy()
        assert p.lane == "object"
        assert p.jobs == 1
        assert p.metrics == "full"
        assert p.sanitize is False
        assert p.bandwidth is None
        assert p.model == "congest"
        assert p.seed == 0
        assert p.cache is True

    def test_frozen_and_hashable(self):
        p = ExecutionPolicy()
        with pytest.raises(Exception):
            p.jobs = 2  # type: ignore[misc]
        assert {p: 1}[ExecutionPolicy()] == 1

    def test_enums_exported(self):
        assert "object" in LANES and "vectorized" in LANES
        assert set(MODELS) == {"congest", "broadcast", "local", "clique"}


class TestFieldValidation:
    @pytest.mark.parametrize("bad", [{"lane": "simd"}, {"metrics": "none"},
                                     {"model": "pram"}, {"jobs": 0},
                                     {"jobs": "4"}, {"jobs": True},
                                     {"bandwidth": 0}, {"bandwidth": 1.5},
                                     {"seed": "7"}])
    def test_bad_field_raises(self, bad):
        with pytest.raises(PolicyError):
            ExecutionPolicy(**bad)

    def test_policy_error_is_value_error(self):
        assert issubclass(PolicyError, ValueError)


class TestIllegalCombos:
    def test_sanitize_needs_full_metrics(self):
        with pytest.raises(PolicyError, match="metrics='full'"):
            ExecutionPolicy(sanitize=True, metrics="lite")

    def test_sanitize_needs_single_job(self):
        with pytest.raises(PolicyError, match="jobs=1"):
            ExecutionPolicy(sanitize=True, jobs=2)

    def test_local_model_has_no_bandwidth(self):
        with pytest.raises(PolicyError, match="local"):
            ExecutionPolicy(model="local", bandwidth=16)

    def test_legal_neighbors_of_each_combo(self):
        ExecutionPolicy(sanitize=True, metrics="full", jobs=1)
        ExecutionPolicy(metrics="lite", jobs=4)
        ExecutionPolicy(model="local", bandwidth=None)

    def test_merged_revalidates(self):
        p = ExecutionPolicy(sanitize=True)
        with pytest.raises(PolicyError):
            p.merged(metrics="lite")


class TestMergedAndDict:
    def test_merged_overrides(self):
        p = ExecutionPolicy().merged(lane="vectorized", jobs=3)
        assert (p.lane, p.jobs) == ("vectorized", 3)
        assert p.metrics == "full"

    def test_dict_roundtrip(self):
        p = ExecutionPolicy(lane="vectorized", bandwidth=8, seed=42)
        assert ExecutionPolicy.from_dict(p.as_dict()) == p

    def test_from_dict_unknown_key(self):
        with pytest.raises(PolicyError, match="unknown policy field"):
            ExecutionPolicy.from_dict({"lane": "object", "warp": 9})

    @pytest.mark.parametrize("load", [
        lambda: ExecutionPolicy.from_dict({"backend": "numpy"}),
        lambda: ExecutionPolicy.from_spec("backend=numpy"),
    ], ids=["dict", "spec"])
    def test_removed_backend_field_is_unknown(self, load):
        with pytest.raises(PolicyError, match="unknown policy field"):
            load()


class TestPolicyHash:
    def test_stable_across_instances(self):
        a = ExecutionPolicy(jobs=2, metrics="lite")
        b = ExecutionPolicy(jobs=2, metrics="lite")
        assert a.policy_hash() == b.policy_hash()

    def test_sensitive_to_every_field(self):
        base = ExecutionPolicy()
        variants = [
            base.merged(lane="vectorized"),
            base.merged(jobs=2),
            base.merged(metrics="lite"),
            base.merged(sanitize=True),
            base.merged(bandwidth=8),
            base.merged(model="broadcast"),
            base.merged(seed=1),
            base.merged(cache=False),
            base.merged(faults="drop:0.1"),
            base.merged(amplify_confidence=0.9),
            base.merged(amplify_batch=4),
            base.merged(amplify_max_seeds=100),
            base.merged(governor_budget=1000),
            base.merged(governor_budget=1000, governor_decay=0.5),
        ]
        hashes = {base.policy_hash()} | {v.policy_hash() for v in variants}
        assert len(hashes) == len(variants) + 1

    def test_shape(self):
        h = ExecutionPolicy().policy_hash()
        assert len(h) == 12
        int(h, 16)  # valid hex


class TestFromSpec:
    def test_basic(self):
        p = ExecutionPolicy.from_spec("lane=vectorized,jobs=4,metrics=lite")
        assert (p.lane, p.jobs, p.metrics) == ("vectorized", 4, "lite")

    def test_base_kept_for_unset_keys(self):
        base = ExecutionPolicy(seed=9, bandwidth=8)
        p = ExecutionPolicy.from_spec("jobs=2", base=base)
        assert (p.seed, p.bandwidth, p.jobs) == (9, 8, 2)

    def test_empty_spec_is_base(self):
        base = ExecutionPolicy(jobs=3)
        assert ExecutionPolicy.from_spec("", base=base) == base
        assert ExecutionPolicy.from_spec(" , ", base=base) == base

    def test_bandwidth_none_spelling(self):
        base = ExecutionPolicy(bandwidth=8)
        assert ExecutionPolicy.from_spec("bandwidth=none", base=base).bandwidth is None

    def test_bool_spellings(self):
        assert ExecutionPolicy.from_spec("sanitize=yes").sanitize is True
        assert ExecutionPolicy.from_spec("cache=off").cache is False
        with pytest.raises(PolicyError, match="boolean"):
            ExecutionPolicy.from_spec("sanitize=maybe")

    def test_bad_number_spellings(self):
        with pytest.raises(PolicyError, match="integer"):
            ExecutionPolicy.from_spec("jobs=many")
        with pytest.raises(PolicyError, match="number"):
            ExecutionPolicy.from_spec("amplify_confidence=high")

    def test_bad_fragment(self):
        with pytest.raises(PolicyError, match="key=value"):
            ExecutionPolicy.from_spec("jobs")

    def test_unknown_key(self):
        with pytest.raises(PolicyError, match="unknown policy field"):
            ExecutionPolicy.from_spec("warp=9")

    def test_spec_combos_still_validated(self):
        with pytest.raises(PolicyError):
            ExecutionPolicy.from_spec("sanitize=true,metrics=lite")


class TestAdaptivePolicy:
    """The amplification/governor fields and their hash-elision contract."""

    def test_pinned_legacy_hashes(self):
        # The optional fields are elided from the hash when unset, so
        # journals and caches from before they existed stay addressable.
        # These digests are load-bearing: changing them orphans every
        # existing record.
        assert ExecutionPolicy().policy_hash() == "c09cd823b554"
        assert (
            ExecutionPolicy(jobs=2, metrics="lite").policy_hash()
            == "216a784595e9"
        )
        assert (
            ExecutionPolicy(faults="drop:0.1").policy_hash()
            == "a381a22e8d47"
        )

    def test_defaults_are_null(self):
        p = ExecutionPolicy()
        assert p.amplify_confidence is None
        assert p.amplify_batch is None
        assert p.amplify_max_seeds is None
        assert p.governor_budget is None
        assert p.governor_decay is None

    @pytest.mark.parametrize("bad", [
        {"amplify_confidence": 0.0}, {"amplify_confidence": 1.0},
        {"amplify_confidence": "high"}, {"amplify_batch": 0},
        {"amplify_max_seeds": 0}, {"governor_budget": 0},
        {"governor_budget": 100, "governor_decay": 0.0},
        {"governor_budget": 100, "governor_decay": 1.5},
        {"governor_decay": 0.5},  # decay without a budget is meaningless
    ])
    def test_bad_adaptive_fields_raise(self, bad):
        with pytest.raises(PolicyError):
            ExecutionPolicy(**bad)

    def test_from_spec_parses_adaptive_fields(self):
        p = ExecutionPolicy.from_spec(
            "amplify_confidence=0.99,amplify_batch=8,amplify_max_seeds=500,"
            "governor_budget=100000,governor_decay=0.8"
        )
        assert p.amplify_confidence == 0.99
        assert p.amplify_batch == 8
        assert p.amplify_max_seeds == 500
        assert p.governor_budget == 100000
        assert p.governor_decay == 0.8
        assert ExecutionPolicy.from_spec(
            "amplify_confidence=none", base=p.merged(
                governor_budget=None, governor_decay=None
            )
        ).amplify_confidence is None

    def test_dict_roundtrip_with_adaptive_fields(self):
        p = ExecutionPolicy(
            amplify_confidence=0.9, governor_budget=10, governor_decay=0.5
        )
        assert ExecutionPolicy.from_dict(p.as_dict()) == p


class TestSeedsForConfidence:
    def test_sequential_test_threshold(self):
        # ceil(ln(1-c) / ln(1-p)): the classic amplification count.
        assert seeds_for_confidence(0.9, 0.5) == 4
        assert seeds_for_confidence(0.99, 0.5) == 7
        # The paper's C_4 iteration success rate (2k)^(-2k) = 1/256.
        assert seeds_for_confidence(0.9, 1 / 256) == 589
        assert seeds_for_confidence(0.5, 1 / 256) == 178

    def test_certain_iteration_needs_one_seed(self):
        assert seeds_for_confidence(0.999, 1.0) == 1

    @pytest.mark.parametrize("bad", [
        (0.0, 0.5), (1.0, 0.5), (0.9, 0.0), (0.9, 1.1),
    ])
    def test_domain_errors(self, bad):
        with pytest.raises(PolicyError):
            seeds_for_confidence(*bad)
