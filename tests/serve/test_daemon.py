"""The asyncio daemon: dispatch, coalescing, shutdown-with-checkpoint."""

import json
import socket
import threading
import time

import pytest

from repro.serve.client import ServeClient, ServeError
from repro.serve.daemon import AllocationDaemon
from repro.serve.state import ServeConfig, ServeState

SMALL = ServeConfig(platforms=(("E5-2620", 2), ("i5-4460", 2)), n_racks=1)


@pytest.fixture
def served(tmp_path):
    """A running daemon (one small rack, checkpointing, audit stream)."""
    state = ServeState.build(SMALL, checkpoint_dir=tmp_path / "ckpt")
    daemon = AllocationDaemon(
        state, port=0, audit_log=tmp_path / "audit.jsonl"
    )
    thread = daemon.run_in_thread()
    yield daemon, state
    daemon.stop_from_thread()
    thread.join(timeout=30)
    assert not thread.is_alive()


@pytest.fixture
def client(served):
    daemon, _ = served
    with ServeClient(port=daemon.port) as c:
        yield c


class TestDispatch:
    def test_ping(self, client):
        assert client.ping() == {"pong": True}

    def test_racks(self, client):
        assert client.racks() == ["rack0"]

    def test_allocate_explicit_budget(self, client):
        result = client.allocate("rack0", budget_w=400.0)
        assert result["budget_w"] == 400.0
        assert len(result["ratios"]) == 2

    def test_allocate_unknown_rack_is_error_response(self, client):
        with pytest.raises(ServeError, match="unknown rack") as err:
            client.allocate("rack9")
        assert err.value.error_type == "ConfigurationError"
        client.ping()  # connection survives the error

    def test_allocate_needs_rack(self, client):
        with pytest.raises(ServeError, match="needs a 'rack'"):
            client.request("allocate")

    def test_duplicate_budgets_hit_solver_cache(self, served, client):
        _, state = served
        client.allocate("rack0", budget_w=450.0)
        before = state.rack("rack0").solver.cache_info()["hits"]
        client.allocate("rack0", budget_w=450.0)
        assert state.rack("rack0").solver.cache_info()["hits"] == before + 1

    def test_forecast(self, client):
        forecast = client.forecast("rack0")
        assert forecast["case"] in {"A", "B", "C"}

    def test_observe_round_trip(self, client):
        result = client.observe("rack0", renewable_w=500.0, demand_w=300.0)
        assert result["rack"] == "rack0"

    def test_observe_missing_params_rejected(self, client):
        with pytest.raises(ServeError, match="renewable_w"):
            client.request("observe", rack="rack0")

    def test_step_returns_epoch_event(self, served, client):
        _, state = served
        event = client.step("rack0")
        assert event["event"] == "epoch"
        assert event["epoch_index"] == 0
        assert state.rack("rack0").n_epochs == 1

    def test_step_without_coordinator_needs_rack(self, client):
        with pytest.raises(ServeError, match="needs a 'rack'"):
            client.step()

    def test_status_counts_requests(self, client):
        client.ping()
        status = client.status()
        assert status["racks"]["rack0"]["policy"] == "GreenHetero"
        assert status["counters"]["requests"] >= 2
        assert status["ops"]["ping"] >= 1

    def test_cache_stats_surface_counters(self, client):
        client.allocate("rack0", budget_w=333.0)
        stats = client.cache_stats()
        assert stats["racks"]["rack0"]["solver_cache"]["misses"] >= 1
        assert "coalesced" in stats

    def test_checkpoint_op_writes_files(self, served, client, tmp_path):
        result = client.checkpoint()
        names = {p.name for p in (tmp_path / "ckpt").iterdir()}
        assert "manifest.json" in names
        assert result["checkpoint_dir"].endswith("ckpt")


class TestProtocolSurface:
    def test_malformed_line_answered_not_fatal(self, served):
        daemon, _ = served
        with socket.create_connection(("127.0.0.1", daemon.port), timeout=10) as sock:
            f = sock.makefile("rwb")
            f.write(b"{nope}\n")
            f.flush()
            response = json.loads(f.readline())
            assert response["ok"] is False
            assert response["error_type"] == "ProtocolError"
            # Daemon still serves on the same connection.
            f.write(b'{"op": "ping", "id": 2}\n')
            f.flush()
            assert json.loads(f.readline())["ok"] is True

    def test_request_id_echoed(self, served):
        daemon, _ = served
        with socket.create_connection(("127.0.0.1", daemon.port), timeout=10) as sock:
            f = sock.makefile("rwb")
            f.write(b'{"op": "ping", "id": "abc-123"}\n')
            f.flush()
            assert json.loads(f.readline())["id"] == "abc-123"


class TestCoalescing:
    def test_concurrent_duplicates_share_one_solve(self, served):
        daemon, state = served
        host = state.rack("rack0")
        calls = []
        original = host.allocate

        def slow_allocate(budget_w=None):
            calls.append(budget_w)
            time.sleep(0.3)
            return original(budget_w)

        host.allocate = slow_allocate
        results = []

        def query():
            with ServeClient(port=daemon.port) as c:
                results.append(c.allocate("rack0", budget_w=512.0))

        threads = [threading.Thread(target=query) for _ in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert len(results) == 3
        assert results[0] == results[1] == results[2]
        assert len(calls) == 1  # one executor solve served all three
        assert daemon.counters["coalesced"] == 2

    def test_near_equal_budgets_are_not_coalesced(self, served):
        # Budgets 1e-7 W apart are different programs: sharing one answer
        # would hand the smaller budget an allocation solved for the
        # larger one.
        daemon, state = served
        host = state.rack("rack0")
        calls = []
        original = host.allocate

        def slow_allocate(budget_w=None):
            calls.append(budget_w)
            time.sleep(0.3)
            return original(budget_w)

        host.allocate = slow_allocate
        budgets = (512.0 + 1e-7, 512.0)
        results = {}

        def query(budget):
            with ServeClient(port=daemon.port) as c:
                results[budget] = c.allocate("rack0", budget_w=budget)

        threads = [threading.Thread(target=query, args=(b,)) for b in budgets]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert sorted(calls) == sorted(budgets)
        assert daemon.counters["coalesced"] == 0
        for budget, result in results.items():
            assert result["budget_w"] == budget
            assert sum(result["group_budgets_w"]) <= budget + 1e-9


class TestShutdown:
    def test_shutdown_op_checkpoints_and_stops(self, tmp_path):
        state = ServeState.build(SMALL, checkpoint_dir=tmp_path / "ckpt")
        daemon = AllocationDaemon(state, port=0, audit_log=tmp_path / "audit.jsonl")
        thread = daemon.run_in_thread()
        with ServeClient(port=daemon.port) as c:
            c.step("rack0")
            assert c.shutdown() == {"stopping": True}
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert (tmp_path / "ckpt" / "manifest.json").exists()
        events = [
            json.loads(line)
            for line in (tmp_path / "audit.jsonl").read_text().splitlines()
        ]
        kinds = [event["event"] for event in events]
        assert kinds[0] == "serve-start"
        assert "epoch" in kinds
        assert "checkpoint" in kinds
        assert kinds[-1] == "serve-stop"

    def test_epoch_events_carry_cache_counters(self, tmp_path):
        state = ServeState.build(SMALL, checkpoint_dir=None)
        daemon = AllocationDaemon(state, port=0, audit_log=tmp_path / "audit.jsonl")
        thread = daemon.run_in_thread()
        try:
            with ServeClient(port=daemon.port) as c:
                c.step("rack0")
        finally:
            daemon.stop_from_thread()
            thread.join(timeout=30)
        epoch_events = [
            json.loads(line)
            for line in (tmp_path / "audit.jsonl").read_text().splitlines()
            if json.loads(line)["event"] == "epoch"
        ]
        assert epoch_events
        assert epoch_events[0]["solver_cache"]["misses"] >= 1

    def test_restart_restores_learned_state(self, tmp_path):
        ckpt = tmp_path / "ckpt"
        state = ServeState.build(SMALL, checkpoint_dir=ckpt)
        daemon = AllocationDaemon(state, port=0)
        thread = daemon.run_in_thread()
        with ServeClient(port=daemon.port) as c:
            for _ in range(2):
                c.step("rack0")
        daemon.stop_from_thread()
        thread.join(timeout=30)

        state2 = ServeState.build(SMALL, checkpoint_dir=ckpt)
        daemon2 = AllocationDaemon(state2, port=0)
        thread2 = daemon2.run_in_thread()
        try:
            with ServeClient(port=daemon2.port) as c:
                status = c.status()
                assert status["restored"] is True
                assert status["racks"]["rack0"]["epochs"] == 2
        finally:
            daemon2.stop_from_thread()
            thread2.join(timeout=30)


class TestClusterServing:
    def test_cluster_step_over_the_wire(self, tmp_path):
        config = ServeConfig(
            platforms=SMALL.platforms, n_racks=2, shared_grid_w=1500.0
        )
        state = ServeState.build(config)
        daemon = AllocationDaemon(state, port=0)
        thread = daemon.run_in_thread()
        try:
            with ServeClient(port=daemon.port) as c:
                result = c.step()
                assert result["cluster_epoch"] == 1
                assert {event["rack"] for event in result["racks"]} == {
                    "rack0",
                    "rack1",
                }
        finally:
            daemon.stop_from_thread()
            thread.join(timeout=30)
        assert all(host.n_epochs == 1 for host in state.racks.values())
