"""The HTTP job server: queue durability, auth, and the service e2e.

The HTTP tests embed :class:`ReproServer` via ``start_background`` (a
daemon thread with its own event loop on an ephemeral port) and talk to
it through the real :class:`ServerClient`, so every assertion crosses
the actual socket.
"""

import json
import socket
import threading

import pytest

from repro.envelope import RESULT_SCHEMA, validate_envelope
from repro.server import (
    DurableQueue,
    JobRecord,
    Principal,
    RateLimiter,
    ReproServer,
    ServerClient,
    ServerError,
    SpecError,
    TokenAuth,
    content_key,
    validate_spec,
)
from repro.server.queue import ArtifactStore

#: One engine window; simulates in well under a second.
TINY_SWEEP = {
    "benchmarks": ["exchange2"], "configs": ["ooo"], "samples": 1,
    "warmup": 300, "measure": 600, "instructions": 2000,
}

#: Warm-up longer than the program ever commits -> SimulationError in the
#: worker on every attempt (the poisoned-job case).
POISON_SWEEP = {
    "benchmarks": ["exchange2"], "configs": ["ooo"], "samples": 1,
    "warmup": 500_000, "measure": 1000, "instructions": 2000,
}


def _raw_post(request: dict) -> bytes:
    """A complete ``POST /v1/jobs`` HTTP request carrying *request*."""
    body = json.dumps(request).encode("utf-8")
    return (
        b"POST /v1/jobs HTTP/1.1\r\nContent-Type: application/json\r\n"
        b"Content-Length: %d\r\n\r\n" % len(body)
    ) + body


def record(job_id="a" * 64, kind="fuzz", **kwargs):
    return JobRecord(id=job_id, kind=kind, spec={}, **kwargs)


@pytest.fixture
def server(tmp_path):
    """A running background server with its own queue dir and cache."""
    srv = ReproServer(
        queue_dir=tmp_path / "queue", cache_dir=tmp_path / "cache",
    )
    host, port = srv.start_background()
    client = ServerClient("http://%s:%d" % (host, port))
    yield srv, client
    srv.close()


class TestDurableQueue:
    def test_priority_first_fifo_within(self, tmp_path):
        # Workers claim in submission order, whatever the ids.
        queue = DurableQueue(tmp_path)
        for job_id in ("c" * 64, "a" * 64, "b" * 64):
            queue.submit(record(job_id))
        assert queue.claim().id == "c" * 64
        assert queue.claim().id == "a" * 64
        assert queue.claim().id == "b" * 64
        assert queue.claim() is None

    def test_idempotent_resubmission_bumps_submissions(self, tmp_path):
        queue = DurableQueue(tmp_path)
        first, created = queue.submit(record())
        again, created_again = queue.submit(record())
        assert created and not created_again
        assert again is first
        assert again.submissions == 2
        assert len(queue) == 1

    def test_fail_requeues_with_backoff_then_parks(self, tmp_path):
        queue = DurableQueue(tmp_path, max_retries=1, retry_backoff=30.0)
        queue.submit(record(max_retries=1))
        job = queue.claim()
        assert job.attempts == 1
        failed = queue.fail(job.id, "boom")
        assert failed.state == "queued"
        assert failed.not_before > 0
        # Backoff window still open: not claimable right now.
        assert queue.claim() is None
        failed.not_before = 0.0  # expire the window manually
        job = queue.claim()
        assert job.attempts == 2
        parked = queue.fail(job.id, "boom again")
        assert parked.state == "failed"
        assert parked.retries == 1
        assert parked.error == "boom again"

    def test_restart_requeues_running_and_keeps_attempts(self, tmp_path):
        queue = DurableQueue(tmp_path)
        queue.submit(record())
        claimed = queue.claim()
        assert claimed.state == "running"
        # Simulated crash: a brand-new queue over the same directory.
        revived = DurableQueue(tmp_path)
        job = revived.get(claimed.id)
        assert job.state == "queued"
        assert job.attempts == 1  # crash loops still converge to failed
        assert revived.claim().id == claimed.id

    def test_restart_keeps_finished_jobs_and_results(self, tmp_path):
        queue = DurableQueue(tmp_path)
        queue.submit(record())
        queue.claim()
        queue.complete("a" * 64, result_key="f" * 64)
        revived = DurableQueue(tmp_path)
        job = revived.get("a" * 64)
        assert job.state == "done"
        assert job.result_key == "f" * 64
        assert revived.claim() is None

    def test_unreadable_record_skipped_on_recover(self, tmp_path):
        queue = DurableQueue(tmp_path)
        queue.submit(record())
        (tmp_path / "jobs" / ("e" * 64 + ".json")).write_text("{trunca")
        revived = DurableQueue(tmp_path)
        assert len(revived) == 1

    def test_position_is_priority_aware(self, tmp_path):
        # Queue position is submission order.
        queue = DurableQueue(tmp_path)
        queue.submit(record("b" * 64))
        queue.submit(record("a" * 64))
        assert queue.position("b" * 64) == 0
        assert queue.position("a" * 64) == 1
        queue.claim()
        assert queue.position("b" * 64) is None
        assert queue.position("a" * 64) == 0

    def test_record_with_retired_fields_recovers_and_claims(self, tmp_path):
        # A record file as older versions wrote it, with the since-retired
        # priority/cached/artifacts keys.
        jobs = tmp_path / "jobs"
        jobs.mkdir()
        (jobs / ("d" * 64 + ".json")).write_text(json.dumps({
            "id": "d" * 64, "kind": "fuzz", "spec": {"seeds": 1},
            "priority": 7, "state": "queued", "submitted_unix": 1.0,
            "attempts": 0, "max_retries": 2, "submissions": 1,
            "cached": False, "principal": "anonymous", "error": "",
            "result_key": "", "artifacts": {"trace": "e" * 64},
            "seq": 3, "traceparent": "",
        }))
        queue = DurableQueue(tmp_path)
        assert len(queue) == 1
        job = queue.claim()
        assert job.id == "d" * 64
        assert job.state == "running"
        assert job.spec == {"seeds": 1}
        assert not hasattr(job, "priority")
        queue.complete(job.id, result_key="f" * 64)
        saved = json.loads((jobs / ("d" * 64 + ".json")).read_text())
        assert saved["state"] == "done"
        assert not {"priority", "cached", "artifacts"} & set(saved)

    def test_claim_blocks_until_notified(self, tmp_path):
        queue = DurableQueue(tmp_path)
        got = []

        def waiter():
            got.append(queue.claim(timeout=5.0))

        thread = threading.Thread(target=waiter)
        thread.start()
        queue.submit(record())
        thread.join(timeout=5.0)
        assert got and got[0].id == "a" * 64


class TestArtifactStore:
    def test_store_is_content_addressed_and_idempotent(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = store.store({"x": 1})
        assert key == store.store({"x": 1})
        assert len(key) == 64
        assert store.load(key) == {"x": 1}

    def test_bad_keys_return_none(self, tmp_path):
        store = ArtifactStore(tmp_path)
        assert store.load("") is None
        assert store.load("../../etc/passwd") is None
        assert store.load("0" * 64) is None


class TestAuth:
    def test_load_and_authenticate(self, tmp_path):
        path = tmp_path / "tokens.json"
        path.write_text(json.dumps({"tokens": [
            {"token": "s3cret", "name": "alice"},
            {"token": "ci", "name": "ci", "rate_per_sec": 50, "burst": 2},
        ]}))
        auth = TokenAuth.load(path)
        assert len(auth) == 2
        assert auth.authenticate("Bearer s3cret").name == "alice"
        assert auth.authenticate("s3cret").name == "alice"  # bare value
        assert auth.authenticate("ci").burst == 2
        assert auth.authenticate("Bearer nope") is None
        assert auth.authenticate(None) is None

    def test_malformed_tokens_file_rejected(self, tmp_path):
        path = tmp_path / "tokens.json"
        path.write_text(json.dumps({"tokens": []}))
        with pytest.raises(ValueError):
            TokenAuth.load(path)
        path.write_text(json.dumps({"tokens": [{"name": "no-token"}]}))
        with pytest.raises(ValueError):
            TokenAuth.load(path)

    def test_rate_limiter_token_bucket(self):
        limiter = RateLimiter()
        principal = Principal(name="t", token="t", rate_per_sec=1.0,
                              burst=2)
        assert limiter.check(principal, now=100.0) == 0.0
        assert limiter.check(principal, now=100.0) == 0.0
        retry = limiter.check(principal, now=100.0)  # bucket empty
        assert 0.0 < retry <= 1.0
        # A token drips back in after a second.
        assert limiter.check(principal, now=101.1) == 0.0

    def test_unlimited_principal_never_throttled(self):
        limiter = RateLimiter()
        principal = Principal(name="u", token="u", rate_per_sec=0.0)
        for _ in range(100):
            assert limiter.check(principal, now=100.0) == 0.0


class TestJobSpec:
    def test_sweep_defaults_filled(self):
        spec = validate_spec("sweep", {"benchmarks": ["mcf"]})
        assert spec["samples"] == 1
        assert spec["warmup"] == 2000
        assert spec["configs"]  # every registered config by default

    def test_unknown_fields_and_values_listed_together(self):
        with pytest.raises(SpecError) as err:
            validate_spec("sweep", {"benchmarks": ["nope"], "bogus": 1})
        assert any("nope" in p for p in err.value.problems)
        assert any("bogus" in p for p in err.value.problems)

    def test_unknown_kind_and_non_dict_spec(self):
        with pytest.raises(SpecError):
            validate_spec("bake", {})
        with pytest.raises(SpecError):
            validate_spec("sweep", "not-a-dict")

    def test_attack_requires_known_name_and_config(self):
        spec = validate_spec("attack", {"attack": "spectre_v1_cache"})
        assert spec["config"] == "ooo"
        assert spec["secret"] == 42
        with pytest.raises(SpecError):
            validate_spec("attack", {"attack": "spectre_v1"})

    def test_fuzz_rejects_in_order_configs(self):
        with pytest.raises(SpecError) as err:
            validate_spec("fuzz", {"configs": ["in-order"]})
        assert any("in-order" in p for p in err.value.problems)

    def test_content_key_ignores_request_ordering(self):
        a = validate_spec("sweep", {
            "benchmarks": ["mcf", "leela"], "configs": ["ooo", "strict"],
            "samples": 1,
        })
        b = validate_spec("sweep", {
            "benchmarks": ["leela", "mcf"], "configs": ["strict", "ooo"],
            "samples": 1,
        })
        assert content_key("sweep", a) == content_key("sweep", b)

    def test_content_key_tracks_what_is_computed(self):
        base = validate_spec("sweep", TINY_SWEEP)
        more = dict(TINY_SWEEP)
        more["samples"] = 2
        assert content_key("sweep", base) != \
            content_key("sweep", validate_spec("sweep", more))


class TestServerEndToEnd:
    def test_health_and_metrics_need_no_token(self, tmp_path):
        auth = TokenAuth({"t": Principal(name="t", token="t")})
        srv = ReproServer(queue_dir=tmp_path / "q", cache=False, auth=auth)
        host, port = srv.start_background()
        try:
            client = ServerClient("http://%s:%d" % (host, port))
            health = client.health()
            assert health["kind"] == "job"
        finally:
            srv.close()

    def test_submit_twice_runs_engine_exactly_once(self, server):
        srv, client = server
        job = client.submit("sweep", TINY_SWEEP)
        assert job.id == content_key(
            "sweep", validate_spec("sweep", TINY_SWEEP)
        )
        done = client.wait(job.id, timeout=120)
        assert done.state == "done"

        result = client.result(job.id)
        assert validate_envelope(result) == []
        assert result["kind"] == "suite"
        assert result["engine"]["executed"] == 1
        assert result["cpi"]["exchange2"]["OoO"]["mean_cpi"] > 0

        # Identical resubmission: same job comes back already done.
        again = client.submit("sweep", TINY_SWEEP)
        assert again.id == job.id
        assert again.state == "done"
        assert again.submissions == 2
        assert again.attempts == 1  # the job ran exactly once

    def test_warm_cache_short_circuits_queue_across_restart(self, tmp_path):
        first = ReproServer(
            queue_dir=tmp_path / "q1", cache_dir=tmp_path / "cache",
        )
        host, port = first.start_background()
        client = ServerClient("http://%s:%d" % (host, port))
        job = client.submit("sweep", TINY_SWEEP)
        client.wait(job.id, timeout=120)
        first.close()

        # Fresh queue, same result cache: the job goes through the queue
        # like any other, and run_suite serves every window from the
        # store — zero engine executions.
        second = ReproServer(
            queue_dir=tmp_path / "q2", cache_dir=tmp_path / "cache",
        )
        host, port = second.start_background()
        try:
            client = ServerClient("http://%s:%d" % (host, port))
            job = client.submit("sweep", TINY_SWEEP)
            assert client.wait(job.id, timeout=120).state == "done"
            result = client.result(job.id)
            assert result["engine"]["executed"] == 0
            assert result["engine"]["cache_hits"] >= 1
        finally:
            second.close()

    def test_malformed_submissions_get_structured_400(self, server):
        _, client = server
        with pytest.raises(ServerError) as err:
            client.submit("sweep", {"benchmarks": ["nope"], "bogus": 1})
        assert err.value.status == 400
        assert err.value.code == "invalid_spec"
        problems = err.value.detail["problems"]
        assert any("nope" in p for p in problems)

        with pytest.raises(ServerError) as err:
            client.submit("bake", {})
        assert err.value.status == 400

    def test_raw_garbage_body_gets_400_envelope(self, server):
        import http.client

        srv, _ = server
        conn = http.client.HTTPConnection(*srv.address, timeout=10)
        conn.request("POST", "/v1/jobs", body=b"{not json",
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        payload = json.loads(response.read())
        assert response.status == 400
        assert payload["schema"] == RESULT_SCHEMA
        assert payload["kind"] == "error"
        assert payload["error"]["code"] == "bad_request"

    def test_missing_and_bad_tokens_get_401(self, tmp_path):
        auth = TokenAuth({"good": Principal(name="t", token="good")})
        srv = ReproServer(queue_dir=tmp_path / "q", cache=False, auth=auth)
        host, port = srv.start_background()
        try:
            base = "http://%s:%d" % (host, port)
            for token in (None, "bad"):
                with pytest.raises(ServerError) as err:
                    ServerClient(base, token=token).submit(
                        "fuzz", {"seeds": 1}
                    )
                assert err.value.status == 401
                assert err.value.code == "unauthorized"
            # The right token sails through auth into validation.
            ok = ServerClient(base, token="good")
            with pytest.raises(ServerError) as err:
                ok.submit("fuzz", {"wrong_field": 1})
            assert err.value.status == 400
        finally:
            srv.close()

    def test_rate_limit_429_with_retry_after(self, tmp_path):
        auth = TokenAuth({
            "t": Principal(name="t", token="t", rate_per_sec=0.001,
                           burst=2),
        })
        srv = ReproServer(queue_dir=tmp_path / "q", cache=False, auth=auth)
        host, port = srv.start_background()
        try:
            client = ServerClient("http://%s:%d" % (host, port),
                                  token="t")
            seen_429 = None
            for _ in range(4):  # burst of 2, then throttled
                try:
                    client.submit("fuzz", {"seeds": 1, "configs": ["ooo"]})
                except ServerError as err:
                    if err.status == 429:
                        seen_429 = err
                        break
                    raise
            assert seen_429 is not None
            assert seen_429.code == "rate_limited"
            assert seen_429.detail["retry_after_seconds"] > 0
        finally:
            srv.close()

    def test_worker_crash_retries_then_degrades_to_failed(self, tmp_path):
        srv = ReproServer(
            queue_dir=tmp_path / "q", cache=False,
            max_retries=1, retry_backoff=0.01,
        )
        host, port = srv.start_background()
        try:
            client = ServerClient("http://%s:%d" % (host, port))
            job = client.submit("sweep", POISON_SWEEP)
            done = client.wait(job.id, timeout=60)
            assert done.state == "failed"
            assert done.attempts == 2  # first run + one retry
            assert done.retries == 1
            assert "warm-up" in done.error or "failed" in done.error
            with pytest.raises(ServerError) as err:
                client.result(job.id)
            assert err.value.status == 409
            assert err.value.code == "job_failed"
        finally:
            srv.close()

    def test_queued_job_result_is_409_not_ready(self, tmp_path):
        # workers=0: nothing ever drains the queue.
        srv = ReproServer(queue_dir=tmp_path / "q", cache=False, workers=0)
        host, port = srv.start_background()
        try:
            client = ServerClient("http://%s:%d" % (host, port))
            job = client.submit("sweep", TINY_SWEEP)
            assert job.state == "queued"
            assert job.queue_position == 0
            with pytest.raises(ServerError) as err:
                client.result(job.id)
            assert err.value.status == 409
            assert err.value.code == "not_ready"
            assert srv.queue.get(job.id).attempts == 0
        finally:
            srv.close()

    def test_queue_survives_server_restart(self, tmp_path):
        # Server A accepts the job but has no workers to run it.
        first = ReproServer(queue_dir=tmp_path / "q", cache=False,
                            workers=0)
        host, port = first.start_background()
        client = ServerClient("http://%s:%d" % (host, port))
        job = client.submit("sweep", TINY_SWEEP)
        assert job.state == "queued"
        first.close()
        left = first.queue.get(job.id)
        assert left.state == "queued" and left.attempts == 0

        # Server B over the same queue dir picks the job up and runs it.
        second = ReproServer(queue_dir=tmp_path / "q", cache=False)
        host, port = second.start_background()
        try:
            client = ServerClient("http://%s:%d" % (host, port))
            done = client.wait(job.id, timeout=120)
            assert done.state == "done"
            assert client.result(job.id)["kind"] == "suite"
        finally:
            second.close()

    def test_attack_job_round_trip(self, server):
        _, client = server
        result = client.submit_and_wait(
            "attack",
            {"attack": "spectre_v1_cache", "config": "ooo", "guesses": 8},
            timeout=120,
        )
        assert validate_envelope(result) == []
        assert result["kind"] == "attack"
        assert result["leaked"] is True
        assert result["recovered"] == 42

    def test_artifact_fetch_and_misses(self, server):
        _, client = server
        with pytest.raises(ServerError) as err:
            client.job("f" * 64)
        assert err.value.status == 404

    def test_artifact_upload_is_refused(self, server):
        # The server has four routes; the retired upload, artifact,
        # observatory and metrics routes are unknown paths.
        import http.client

        srv, client = server
        body = json.dumps({"key": "ab" * 32, "window": {}})
        for method, path in (
            ("PUT", "/v1/artifacts/" + "ab" * 32),
            ("GET", "/v1/artifacts/" + "ab" * 32),
            ("GET", "/v1/status"),
            ("GET", "/metrics"),
        ):
            conn = http.client.HTTPConnection(*srv.address, timeout=10)
            try:
                conn.request(method, path, body=body,
                             headers={"Content-Type": "application/json"})
                response = conn.getresponse()
                payload = json.loads(response.read())
            finally:
                conn.close()
            assert response.status == 404, (method, path)
            assert validate_envelope(payload) == []
            assert payload["kind"] == "error"
            assert payload["error"]["code"] == "not_found"
        assert list(srv.queue_dir.rglob("*")) == []
        assert client.health()["health"] == "ok"

    @pytest.mark.parametrize("raw,code", [
        pytest.param(
            b"POST /v1/jobs HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
            "bad_request", id="negative-content-length",
        ),
        pytest.param(
            _raw_post({"kind": "sweep", "spec": {"benchmarks": [{}]}}),
            "invalid_spec", id="benchmark-not-a-string",
        ),
        pytest.param(
            _raw_post({"kind": "sweep", "spec": {"configs": [[1]]}}),
            "invalid_spec", id="sweep-config-not-a-string",
        ),
        pytest.param(
            _raw_post({"kind": "attack", "spec": {
                "attack": "spectre_v1_cache", "config": [],
            }}),
            "invalid_spec", id="attack-config-not-a-string",
        ),
        pytest.param(
            _raw_post({"kind": "fuzz", "spec": {"configs": [{"a": 1}]}}),
            "invalid_spec", id="fuzz-config-not-a-string",
        ),
    ])
    def test_malformed_request_gets_400_not_500(self, server, raw, code):
        srv, client = server
        with socket.create_connection(srv.address, timeout=10) as sock:
            sock.sendall(raw)
            chunks = []
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                chunks.append(chunk)
        head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
        payload = json.loads(body)
        assert head.split()[1] == b"400"
        assert validate_envelope(payload) == []
        assert payload["kind"] == "error"
        assert payload["error"]["code"] == code
        status, health = client._request("GET", "/healthz")
        assert status == 200 and health["health"] == "ok"

    def test_job_status_payload_is_an_envelope(self, server):
        _, client = server
        job = client.submit("sweep", TINY_SWEEP)
        client.wait(job.id, timeout=120)
        _status, raw = client._request("GET", "/v1/jobs/" + job.id)
        assert validate_envelope(raw) == []
        assert raw["kind"] == "job"
        assert raw["links"]["result"].endswith("/result")
