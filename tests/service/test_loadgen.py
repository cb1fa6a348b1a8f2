"""The threaded load generator (docs/service.md): every client thread
records into its own phase report and the reports are merged after
``join``, so no request is lost from the per-phase counts."""

from repro.service import DaemonThread
from repro.service.loadgen import generate_load


def test_threaded_load_counts_every_request():
    with DaemonThread(workers=0) as handle:
        report = generate_load(host=handle.host, port=handle.port,
                               clients=4, requests=3, keys=2,
                               timeout=60.0)
    cold, warm = report.phases["cold"], report.phases["warm"]
    for phase in (cold, warm):
        assert phase.requests == 12
        assert phase.errors == 0
        assert len(phase.latencies_ms) == 12
    assert warm.cached == 12
    assert report.compiles == 2
