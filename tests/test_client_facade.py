"""The public facade: connect() dispatch, Client semantics, taxonomy."""

import pytest

import repro
from repro.errors import (
    ClientClosedError,
    ClientError,
    ConfigError,
    ReproError,
    ShardError,
    ShardUnavailableError,
    TransactionError,
    TwoPhaseCommitError,
)


class TestConnectDispatch:
    def test_default_is_single_node(self):
        client = repro.connect()
        assert isinstance(client, repro.SingleNodeClient)
        client.close()

    def test_engine_config_builds_single_node(self):
        client = repro.connect(repro.EngineConfig(buffer_capacity=16))
        assert isinstance(client, repro.SingleNodeClient)
        assert client.db.config.buffer_capacity == 16
        client.close()

    def test_shard_config_builds_sharded(self):
        client = repro.connect(repro.ShardConfig(n_shards=2))
        assert isinstance(client, repro.ShardedClient)
        assert client.router.config.n_shards == 2
        client.close()

    def test_wraps_existing_database(self):
        db = repro.Database(repro.EngineConfig())
        tree = db.create_index()
        txn = db.begin()
        tree.insert(txn, b"pre", b"existing")
        db.commit(txn)
        client = repro.connect(db)
        assert client.get(b"pre") == b"existing"
        client.close()
        # The caller keeps ownership: the engine is still usable.
        assert tree.lookup(b"pre") == b"existing"

    def test_replicated_durable_rejected_without_standby_path(self):
        with pytest.raises(ConfigError):
            repro.connect(
                repro.EngineConfig(commit_ack_mode="replicated_durable"))

    def test_unknown_config_type_rejected(self):
        with pytest.raises(ConfigError):
            repro.connect(42)

    def test_config_error_is_also_value_error(self):
        # Call sites that predate the taxonomy catch ValueError.
        with pytest.raises(ValueError):
            repro.connect(object())


class TestClientSemantics:
    @pytest.fixture(params=["single", "sharded"])
    def client(self, request):
        if request.param == "single":
            built = repro.connect()
        else:
            built = repro.connect(repro.ShardConfig(n_shards=3))
        yield built
        built.close()

    def test_txn_commits_on_clean_exit(self, client):
        with client.txn() as t:
            t.put(b"k", b"v")
            assert t.get(b"k") == b"v"
        assert client.get(b"k") == b"v"

    def test_txn_aborts_on_exception(self, client):
        with pytest.raises(RuntimeError):
            with client.txn() as t:
                t.put(b"k", b"v")
                raise RuntimeError("boom")
        assert client.get(b"k") is None

    def test_autocommit_put_get_delete(self, client):
        client.put(b"a", b"1")
        assert client.get(b"a") == b"1"
        assert client.delete(b"a") is True
        assert client.delete(b"a") is False
        assert client.get(b"a") is None

    def test_scan_is_globally_ordered(self, client):
        for i in [5, 1, 9, 3, 7]:
            client.put(b"k%02d" % i, b"v%d" % i)
        keys = [k for k, _ in client.scan()]
        assert keys == sorted(keys)
        assert len(keys) == 5

    def test_scan_range_bounds(self, client):
        for i in range(10):
            client.put(b"k%02d" % i, b"v")
        keys = [k for k, _ in client.scan(b"k03", b"k07")]
        assert keys == [b"k03", b"k04", b"k05", b"k06"]

    def test_delete_inside_txn(self, client):
        client.put(b"gone", b"soon")
        with client.txn() as t:
            assert t.delete(b"gone") is True
        assert client.get(b"gone") is None

    def test_apply_batch(self, client):
        n = client.apply_batch([("put", b"b%02d" % i, b"v%02d" % i)
                                for i in range(8)])
        assert n == 8
        assert client.get(b"b00") == b"v00"
        client.apply_batch([("delete", b"b00")])
        assert client.get(b"b00") is None

    @pytest.mark.parametrize("bad", [
        ("upsert", b"k", b"v"), ("put", b"k"), ("delete", b"k", b"v"),
        ("put", "k", b"v"), ("put", b"k", None), b"put", ("put", b"", b"v"),
        ("put", b"k", b"v" * 4096)])
    def test_malformed_batch_op_applies_nothing(self, bad):
        """One bad op anywhere in a batch rejects the whole batch before
        any of it is dispatched — on the sharded backend too, where the
        good ops used to commit on the shards dispatched first."""
        for config in (None, repro.ShardConfig(n_shards=4)):
            client = repro.connect(config)
            try:
                ops = [("put", b"b%02d" % i, b"v") for i in range(40)]
                with pytest.raises(ReproError) as info:
                    client.apply_batch(ops + [bad])
                assert not isinstance(info.value, ShardError)
                assert client.scan() == []
            finally:
                client.close()

    def test_finished_txn_handle_rejects_writes_without_locking(self, client):
        with client.txn() as t:
            t.put(b"k", b"v1")
        for write in (lambda: t.put(b"k", b"v2"), lambda: t.delete(b"k")):
            with pytest.raises(TransactionError):
                write()
        # The key is not left locked by the finished transaction.
        client.put(b"k", b"v3")
        with client.txn() as t2:
            t2.put(b"k", b"v4")
        assert client.get(b"k") == b"v4"

    def test_operations_after_close_raise_typed_error(self, client):
        client.close()
        for call in (lambda: client.get(b"k"),
                     lambda: client.put(b"k", b"v"),
                     lambda: client.delete(b"k"),
                     lambda: client.scan(),
                     lambda: client.txn().__enter__()):
            with pytest.raises(ClientClosedError):
                call()

    def test_close_is_idempotent(self, client):
        client.close()
        client.close()

    def test_context_manager_closes(self):
        with repro.connect() as client:
            client.put(b"k", b"v")
        with pytest.raises(ClientClosedError):
            client.get(b"k")


class TestConfigValidation:
    def test_shard_count_floor(self):
        with pytest.raises(ConfigError):
            repro.ShardConfig(n_shards=0)

    def test_unknown_transport(self):
        with pytest.raises(ConfigError):
            repro.ShardConfig(transport="carrier-pigeon")

    def test_replicated_durable_engine_template_rejected(self):
        with pytest.raises(ConfigError):
            repro.ShardConfig(engine=repro.EngineConfig(
                commit_ack_mode="replicated_durable"))

    def test_engine_config_floors(self):
        with pytest.raises(ConfigError):
            repro.EngineConfig(page_size=128)
        with pytest.raises(ConfigError):
            repro.EngineConfig(buffer_capacity=1)
        with pytest.raises(ConfigError):
            repro.EngineConfig(restart_mode="psychic")
        with pytest.raises(ConfigError):
            repro.EngineConfig(log_segment_bytes=64)

    def test_keyword_only_construction(self):
        with pytest.raises(TypeError):
            repro.EngineConfig(4096)  # noqa - positional must fail
        with pytest.raises(TypeError):
            repro.ShardConfig(4)  # noqa - positional must fail

    def test_per_shard_seeds_differ(self):
        config = repro.ShardConfig(n_shards=3, seed=5)
        seeds = {config.shard_engine_config(i).seed for i in range(3)}
        assert len(seeds) == 3

    def test_fleet_misconfig_is_config_error(self):
        from repro.workloads.fleet import ClientFleet
        with pytest.raises(ConfigError):
            ClientFleet(n_clients=0, seed=1, key_space=10)
        with pytest.raises(ConfigError):
            ClientFleet(n_clients=2, seed=1, key_space=0)


class TestTaxonomy:
    def test_hierarchy(self):
        assert issubclass(ClientClosedError, ClientError)
        assert issubclass(ClientError, ReproError)
        assert issubclass(ShardUnavailableError, ShardError)
        assert issubclass(TwoPhaseCommitError, ShardError)
        assert issubclass(ConfigError, ReproError)
        assert issubclass(ConfigError, ValueError)

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_shard_unavailable_carries_shard_id(self):
        err = ShardUnavailableError(3, "partition")
        assert err.shard == 3
        assert "3" in str(err)
