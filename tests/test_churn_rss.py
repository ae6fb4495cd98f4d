"""Churn soak: a server that evicts and rewarms on every battery keeps a
flat resident set.

Four same-template scenarios go round-robin through a two-session pool
backed by a snapshot store, so every battery evicts one kernel to the
store and rewarms another from it.  The soak runs in a fresh interpreter
so the reading is this workload's alone: after 100 warm-up batteries,
``VmRSS`` is sampled every 10 of 800 more, and its peak may exceed the
post-warm-up reading by at most 10 kB per battery.  The peak, not the
last sample, is the bound: memory that waits for a cyclic-collector
pass is still memory the process had to hold.
"""

import json
import os
import subprocess
import sys
import textwrap

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")

WARMUP = 100
BATTERIES = 800
MAX_GROWTH_KB_PER_BATTERY = 10.0

SOAK = textwrap.dedent(
    """
    import http.client, itertools, json, os, sys, tempfile, threading

    from repro.ft.random_trees import RandomTreeConfig, random_tree
    from repro.service.server import AnalysisServer, ServerConfig

    warmup, batteries = int(sys.argv[1]), int(sys.argv[2])

    def rss_kb():
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])

    # One template, four seeds: the trees share a shape class, not a
    # measured size.
    template = RandomTreeConfig(n_basic_events=12)
    trees = {f"s{seed}": random_tree(seed, template) for seed in range(4)}
    bodies = [
        json.dumps({"queries": [
            {"id": "exists", "kind": "check",
             "formula": f"exists {tree.top}", "tree": name},
            {"id": "prob", "kind": "probability",
             "formula": tree.top, "tree": name},
        ]})
        for name, tree in trees.items()
    ]
    cycle = itertools.cycle(bodies)
    with tempfile.TemporaryDirectory() as tmp:
        config = ServerConfig(
            port=0, pool_size=2, store_path=os.path.join(tmp, "kernels")
        )
        server = AnalysisServer(trees, config)
        ready = threading.Event()
        thread = threading.Thread(
            target=server.run,
            kwargs={"ready": lambda _s: ready.set(),
                    "install_signal_handlers": False},
            daemon=True,
        )
        thread.start()
        assert ready.wait(30), "server did not come up"
        connection = http.client.HTTPConnection(
            "127.0.0.1", server.port, timeout=60
        )

        def run(count):
            for _ in range(count):
                connection.request("POST", "/battery", body=next(cycle))
                response = connection.getresponse()
                body = response.read()
                assert response.status == 200, body

        run(warmup)
        base = rss_kb()
        peak = base
        for _ in range(batteries // 10):
            run(10)
            peak = max(peak, rss_kb())
        connection.close()
        server.request_drain()
        thread.join(30)
    print(json.dumps({
        "base_kb": base,
        "peak_kb": peak,
        "rewarms": server._counters["rewarms"],
    }))
    """
)


@pytest.mark.skipif(
    not os.path.exists("/proc/self/status"), reason="reads VmRSS from /proc"
)
def test_churn_rss_stays_flat():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run(
        [sys.executable, "-c", SOAK, str(WARMUP), str(BATTERIES)],
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert done.returncode == 0, done.stderr
    reading = json.loads(done.stdout.strip().splitlines()[-1])
    # Every battery after each scenario's first (cold) one rewarms.
    assert reading["rewarms"] == WARMUP + BATTERIES - 4
    growth = (reading["peak_kb"] - reading["base_kb"]) / BATTERIES
    assert growth <= MAX_GROWTH_KB_PER_BATTERY, reading
