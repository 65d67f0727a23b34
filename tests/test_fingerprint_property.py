"""Property tests for ``GPUConfig.fingerprint`` — the cache-key primitive.

The contract the whole artifact store rests on: the fingerprint of a
field subset changes **iff** a field in that subset changes, and is
stable across process spawns (no ``PYTHONHASHSEED`` or dict-order
dependence).  The memo in front of ``stage_key`` must return exactly
the key computed from scratch, so two inputs share a key only when
they did before it.  The fuzz covers every fingerprinted field, including the
architecture-backend ones (``arch``/``n_schedulers``); each mutation
names the set of fields it touches and the iff-property is asserted
against that set.
"""

import os
import random
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.config import ALL_FIELDS, GPUConfig
from repro.pipeline import stages
from repro.pipeline.stages import STAGES, hash_stage_key, stage_key

#: One validation-respecting mutation per field: field -> overrides.
MUTATIONS = {
    "n_cores": {"n_cores": 8},
    "core_clock_ghz": {"core_clock_ghz": 1.4},
    "warp_size": {"warp_size": 64},
    "max_threads_per_core": {"max_threads_per_core": 512},
    "scheduler": {"scheduler": "gto"},
    "line_size": {"line_size": 64},
    "l1_size": {"l1_size": 64 * 1024},
    "l1_assoc": {"l1_assoc": 4},
    "l1_latency": {"l1_latency": 30},
    "l2_size": {"l2_size": 1536 * 1024},
    "l2_assoc": {"l2_assoc": 16},
    "l2_latency": {"l2_latency": 150},
    "n_mshrs": {"n_mshrs": 64},
    "dram_latency": {"dram_latency": 400},
    "dram_bandwidth_gbps": {"dram_bandwidth_gbps": 96.0},
    "n_dram_channels": {"n_dram_channels": 2},
    "smem_latency": {"smem_latency": 20},
    "smem_banks": {"smem_banks": 16},
    "n_sfu_units": {"n_sfu_units": 16},
    "op_latencies": {
        "op_latencies": {"ialu": 4, "falu": 25, "sfu": 80}
    },
    "arch": {"arch": "subcore"},
    "n_schedulers": {"n_schedulers": 8},
}

BASE = GPUConfig()


def test_every_field_has_a_mutation():
    assert frozenset(MUTATIONS) == ALL_FIELDS


@pytest.mark.parametrize("field", sorted(MUTATIONS))
def test_full_fingerprint_changes_with_each_field(field):
    mutated = BASE.with_(**MUTATIONS[field])
    assert mutated.fingerprint(ALL_FIELDS) != BASE.fingerprint(ALL_FIELDS)


@pytest.mark.parametrize("field", sorted(MUTATIONS))
def test_disjoint_subset_fingerprint_is_invariant(field):
    changed = set(MUTATIONS[field])
    others = ALL_FIELDS - changed
    mutated = BASE.with_(**MUTATIONS[field])
    assert mutated.fingerprint(others) == BASE.fingerprint(others)


def test_fuzz_changes_iff_subset_intersects_mutation():
    rng = random.Random(0xF1A9)
    fields = sorted(ALL_FIELDS)
    for _ in range(300):
        subset = frozenset(
            f for f in fields if rng.random() < rng.uniform(0.1, 0.9)
        )
        field = rng.choice(sorted(MUTATIONS))
        changed = set(MUTATIONS[field])
        mutated = BASE.with_(**MUTATIONS[field])
        same = mutated.fingerprint(subset) == BASE.fingerprint(subset)
        if subset & changed:
            assert not same, (field, sorted(subset))
        else:
            assert same, (field, sorted(subset))


def test_fingerprint_ignores_construction_history():
    # with_() round-trips and dict insertion order must not matter.
    direct = GPUConfig(scheduler="gto", n_cores=8)
    rebuilt = GPUConfig().with_(n_cores=8).with_(scheduler="gto")
    reordered = GPUConfig(
        scheduler="gto",
        n_cores=8,
        op_latencies={"sfu": 40, "falu": 25, "ialu": 4},
    )
    assert direct.fingerprint(ALL_FIELDS) == rebuilt.fingerprint(ALL_FIELDS)
    assert direct.fingerprint(ALL_FIELDS) == reordered.fingerprint(
        ALL_FIELDS
    )


def test_fingerprint_stable_across_process_spawns():
    """A fresh interpreter (different hash seed) must agree byte-for-
    byte — on-disk artifact stores outlive the process that wrote them.
    """
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(
        repro.__file__
    )))
    code = (
        "import sys; sys.path.insert(0, %r)\n"
        "from repro.config import ALL_FIELDS, TRACE_FIELDS, GPUConfig\n"
        "c = GPUConfig(scheduler='gto', arch='subcore', n_schedulers=8)\n"
        "print(c.fingerprint(ALL_FIELDS))\n"
        "print(c.fingerprint(TRACE_FIELDS))\n" % src_dir
    )
    env = dict(os.environ, PYTHONHASHSEED="12345")
    spawned = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True, env=env,
    ).stdout.split()
    here = GPUConfig(scheduler="gto", arch="subcore", n_schedulers=8)
    from repro.config import TRACE_FIELDS

    assert spawned == [
        here.fingerprint(ALL_FIELDS),
        here.fingerprint(TRACE_FIELDS),
    ]


# ---------------------------------------------------------------------------
# The stage-key memo: a hit returns exactly the key computed from scratch
# ---------------------------------------------------------------------------


@pytest.fixture
def direct(monkeypatch):
    """An empty key memo; counts the keys computed from scratch."""
    monkeypatch.setattr(stages, "_KEY_MEMO", {})
    calls = []

    def counted(*args):
        calls.append(args)
        return hash_stage_key(*args)

    monkeypatch.setattr(stages, "hash_stage_key", counted)
    return calls


def assert_same_sharing(inputs):
    """Memoized keys equal direct ones, so two inputs share a key exactly
    when their direct keys (the keys before the memo) are equal."""
    memoized = [stage_key(*args) for args in inputs]
    assert memoized == [hash_stage_key(*args) for args in inputs]
    assert memoized == [stage_key(*args) for args in inputs]  # memo hits
    return memoized


#: Keys of the default config as the code before the memo wrote them,
#: which on-disk stores and the baseline ledger hold.
PINNED_KEYS = {
    ("predict", "clustering:0", 32, "probabilistic"):
        "predict:d804c8387a71b23cb797d38f",
    ("latency_table", "cache_sim:0"): "latency_table:a6c0daba791dc1ad23f22c94",
    ("trace", "vectoradd", (4, 32, 1)): "trace:3694e2419aa9de21b53513a7",
}


def test_keys_match_pinned_keys(direct):
    config = GPUConfig()
    for (stage, *parts), want in PINNED_KEYS.items():
        assert stage_key(stage, config, *parts) == want  # computed
        assert stage_key(stage, config, *parts) == want  # memo hit
    assert len(direct) == len(PINNED_KEYS)
    # The whole-config fingerprint moves with the field set.
    assert config.fingerprint() == "067d16ea9741d1de"


def test_memoized_keys_equal_direct_keys_on_fuzz_configs(direct):
    configs = [BASE] + [BASE.with_(**m) for _, m in sorted(MUTATIONS.items())]
    for stage in STAGES:
        keys = assert_same_sharing(
            [(stage, config, "kernel", (4, 32, 1)) for config in configs]
        )
        for config, key in zip(configs, keys):
            changed = config.fingerprint(STAGES[stage].config_fields) != (
                BASE.fingerprint(STAGES[stage].config_fields)
            )
            assert (key != keys[0]) == changed, stage
    assert len(stages._KEY_MEMO) == len(direct)  # each input hashed once


@pytest.mark.parametrize(
    "parts",
    [(0.0, -0.0, 0), (1, True, 1.0), ((0.0,), (-0.0,), (0,)), (None, "None")],
)
def test_parts_of_other_types_or_bits_keep_their_keys(direct, parts):
    keys = assert_same_sharing([("predict", BASE, part) for part in parts])
    assert len(set(keys)) == len(parts)


def test_reordered_op_latencies_share_a_key(direct):
    reordered = GPUConfig(op_latencies={"sfu": 40, "falu": 25, "ialu": 4})
    keys = assert_same_sharing(
        [("latency_table", config, "cache_sim:0") for config in
         (BASE, reordered)]
    )
    assert keys[0] == keys[1]


def test_op_latencies_mutated_in_place_change_the_key(direct):
    config = GPUConfig()
    before = stage_key("latency_table", config, "cache_sim:0")
    config.op_latencies["sfu"] = 80
    after = stage_key("latency_table", config, "cache_sim:0")
    assert after != before
    assert after == hash_stage_key("latency_table", config, "cache_sim:0")


def test_numpy_scalars_are_hashed_directly(direct):
    # marshal writes a numpy scalar as its bare buffer, so np.int64(1)
    # and np.uint64(1) would share bytes; neither reaches the memo.
    inputs = [("predict", BASE, value) for value in
              (np.int64(1), np.uint64(1), np.float64(1.0), 1.0)]
    inputs.append(("predict", BASE.with_(n_mshrs=np.int64(16)), "k"))
    assert_same_sharing(inputs)
    assert len(direct) == 2 * 4 + 1  # 1.0 is hashed once, then hits
    assert list(stages._KEY_MEMO.values()) == [stage_key("predict", BASE, 1.0)]


def test_key_memo_is_bounded(direct, monkeypatch):
    monkeypatch.setattr(stages, "_KEY_MEMO_SIZE", 4)
    assert_same_sharing([("predict", BASE, n) for n in range(10)])
    assert len(stages._KEY_MEMO) <= 4
