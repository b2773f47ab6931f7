"""The service-jobs workload: a closed-loop client of ``deuce-sim serve``.

One client thread submits small ``/v1`` run jobs, one at a time, to a
server spawned on localhost with one job worker and the ledger on (in a
scratch runs dir under ``.bench_out``).  A job's latency runs from the
submit to the result in hand; the client follows the job's event stream
in between, so no polling interval is added.
"""

from __future__ import annotations

import http.client
import json
import os
import select
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

from common import OUT, ROOT

HERE = Path(__file__).resolve().parent

#: Small run jobs over three warmed traces.  Only batched schemes, so the
#: service is the long step and the six configs take similar times: the
#: p50 and p90 then fall inside one dense spread of latencies.  (A mix
#: with slow per-write FNW jobs splits into clusters, and a percentile at
#: the gap between two clusters is an extreme of one of them.)  At 2000
#: writes a job simulates for about a third as long as the service spends
#: on it, which dilutes the host's wake-up and fsync jitter a little.
JOB_WRITES = 2000
JOB_TRACES = ("mcf", "libq", "lbm")
JOB_SCHEMES = ("deuce", "encr-dcw")
#: Jobs per repetition: every (trace, scheme) config four times.
JOB_ROUNDS = 4

START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 60.0


def job_configs(seed: int) -> list[dict]:
    return [
        {"workload": w, "scheme": s, "n_writes": JOB_WRITES, "seed": seed}
        for w in JOB_TRACES
        for s in JOB_SCHEMES
    ]


class Server:
    """A spawned ``deuce-sim serve`` on an ephemeral localhost port."""

    def __init__(self, tag: str, spans_out: str | None = None) -> None:
        self.runs_dir = OUT / f"runs-{os.getpid()}-{tag}"
        shutil.rmtree(self.runs_dir, ignore_errors=True)
        cmd = [sys.executable, str(HERE / "launch_server.py")]
        if spans_out:
            cmd += ["--spans", spans_out]
        cmd += [
            "serve", "--port", "0", "--job-workers", "1",
            "--runs-dir", str(self.runs_dir),
        ]
        self.log = open(OUT / f"server-{os.getpid()}-{tag}.log", "w")
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=self.log, text=True,
        )
        try:
            self.port = self._read_port()
            self._wait_healthy()
        except BaseException:
            self.stop()
            raise

    def _read_port(self) -> int:
        ready, _, _ = select.select([self.proc.stdout], [], [], START_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else ""
        marker = "listening on http://127.0.0.1:"
        if marker not in line:
            raise RuntimeError(f"server did not start: {line!r}")
        return int(line.split(marker, 1)[1].split()[0])

    def _wait_healthy(self) -> None:
        deadline = time.monotonic() + START_TIMEOUT_S
        while time.monotonic() < deadline:
            try:
                if self.request("GET", "/v1/healthz")[0] == 200:
                    return
            except OSError:
                pass
            time.sleep(0.01)
        raise RuntimeError("server never answered /v1/healthz")

    def request(self, method: str, path: str, body: dict | None = None):
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=120)
        try:
            payload = json.dumps(body).encode() if body is not None else None
            headers = {"Content-Type": "application/json"} if payload else {}
            conn.request(method, path, body=payload, headers=headers)
            resp = conn.getresponse()
            raw = resp.read()
        finally:
            conn.close()
        if resp.getheader("Content-Type") == "application/json":
            return resp.status, json.loads(raw)
        return resp.status, raw

    def run_job(self, config: dict):
        """Submit one run job and wait for its result.

        Returns ``(latency_s, status, result)``; ``result`` is the job's
        first ``RunResult.to_dict()``, or None when the submit was refused
        or the job did not finish.
        """
        t0 = time.perf_counter()
        envelope = {"kind": "run", "config": config, "options": {}}
        status, body = self.request("POST", "/v1/jobs", envelope)
        if status != 201:
            return time.perf_counter() - t0, status, None
        self.request("GET", body["events_url"])
        status, res = self.request("GET", body["result_url"])
        latency = time.perf_counter() - t0
        if status != 200:
            return latency, status, None
        return latency, status, res["result"]["results"][0]

    def metrics(self) -> list[dict]:
        return self.request("GET", "/v1/metrics")[1]["metrics"]

    def _stat(self) -> list[str]:
        with open(f"/proc/{self.proc.pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()

    def cpu_seconds(self) -> float:
        """User plus sys CPU seconds of the server, all threads, children too."""
        fields = self._stat()
        ticks = sum(int(fields[i]) for i in (11, 12, 13, 14))
        return ticks / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        """SIGTERM (the graceful drain), then wait for the exit."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.communicate(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.communicate()
        else:
            self.proc.communicate()
        self.log.close()
        if self.proc.returncode == 0:
            os.unlink(self.log.name)
        shutil.rmtree(self.runs_dir, ignore_errors=True)


def start_warm(seed: int, tag: str, spans_out: str | None = None):
    """Start a server and warm its trace cache.

    Returns ``(server, (t0, t1))``, the set-up's ``perf_counter`` window.

    Set-up ends when ``/v1/healthz`` answers after one job per trace has
    run, so every trace the measured jobs use is cached.
    """
    t0 = time.perf_counter()
    server = Server(tag, spans_out)
    try:
        for workload in JOB_TRACES:
            config = {"workload": workload, "scheme": "deuce",
                      "n_writes": JOB_WRITES, "seed": seed}
            _lat, status, result = server.run_job(config)
            if result is None:
                raise RuntimeError(f"warm-up job failed with HTTP {status}")
        if server.request("GET", "/v1/healthz")[0] != 200:
            raise RuntimeError("server unhealthy after warm-up")
    except BaseException:
        server.stop()
        raise
    return server, (t0, time.perf_counter())


def repetition(server: Server, seed: int) -> dict:
    """One repetition's fixed work: every job config, JOB_ROUNDS times."""
    configs = job_configs(seed) * JOB_ROUNDS
    jobs = []
    server_cpu0, client_cpu0 = server.cpu_seconds(), time.thread_time()
    wall0 = time.perf_counter()
    for config in configs:
        latency, status, result = server.run_job(config)
        jobs.append({"config": config, "latency": latency,
                     "status": status, "result": result})
    wall1 = time.perf_counter()
    # The client's own CPU time, without the host-clock thread's.
    client_s = time.thread_time() - client_cpu0
    run_s = server.cpu_seconds() - server_cpu0 + client_s
    return {"run_s": run_s, "wall_s": wall1 - wall0, "t0": wall0, "t1": wall1,
            "jobs": jobs}


def _totals(metrics: list[dict]) -> dict[str, float]:
    """The ``/v1/metrics`` figures the service layer reports, summed."""
    out = dict.fromkeys(("wait", "exec", "jobs", "requests", "rejected"), 0.0)
    for m in metrics:
        name = m["name"]
        if name == "deuce_job_queue_wait_seconds":
            out["wait"] += m["sum"]
        elif name == "deuce_job_exec_seconds":
            out["exec"] += m["sum"]
            out["jobs"] += m["count"]
        elif name == "deuce_http_requests_total":
            out["requests"] += m["value"]
            status = m["labels"]["status"]
            if status == "429" or status.startswith("5"):
                out["rejected"] += m["value"]
    return out


def service_layer(before: list[dict], after: list[dict]) -> dict:
    """Per-job queue wait and execution, requests and refusals, as deltas."""
    a, b = _totals(after), _totals(before)
    d = {k: a[k] - b[k] for k in a}
    jobs = d["jobs"] or 1
    return {
        "service.queue_wait_s": d["wait"] / jobs,
        "service.exec_s": d["exec"] / jobs,
        "service.requests": d["requests"],
        "service.rejected": d["rejected"],
    }


def local_results(configs: list[dict]) -> dict[str, dict]:
    """``RunResult.to_dict()`` of a local ``Session.run`` per distinct config,
    keyed by the config's JSON."""
    from common import SRC

    sys.path.insert(0, str(SRC))
    from repro.api import Session

    session = Session(ledger=False)
    out = {}
    for config in configs:
        key = json.dumps(config, sort_keys=True)
        if key not in out:
            out[key] = session.run(dict(config)).to_dict()
    return out
