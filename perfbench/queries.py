"""The closed-loop query client, run in a freshly spawned process.

One client sends the next query only after the previous answer
returned.  The client lives for the whole run and queries in bursts
between live passes, so its samples spread over the run instead of
one stretch of it.  A burst runs whole blocks of the query list (at
least ``MIN_BLOCKS``) until its time is up, so the samples always hold
the mix's class proportions exactly and the median is the middle
class's median.  Each answer is compared with its expected
value between queries (outside the timed call) and then dropped, so
the process's peak RSS is the store's read path, not kept answers.
"""

from __future__ import annotations

import time

from live import peak_rss_kb

#: Blocks every burst runs at least, however slow the queries: a run of
#: two bursts then holds every class at least 10 times, 20 samples for
#: the slowest pair (lookups over all windows), so a tail percentile
#: with 10 samples beyond it lies inside that pair.
MIN_BLOCKS = 5


def query_main(conn) -> None:
    """Spawned query process.

    Commands: ``("init", specs, expected, block)`` (``expected`` holds
    :func:`checks.answer_digest` values), then ``("burst", root,
    seconds)`` any number of times, then ``("quit",)``, which replies
    with every latency, the mismatch and failure counts, and the
    process's peak RSS.  The first burst runs one untimed block first,
    so lazy imports and first-use costs are not timed.
    """
    from repro.flowdb import FlowStore, QuerySpec, execute

    from checks import answer_digest, normalize

    try:
        _, specs, expected, block = conn.recv()
        specs = [QuerySpec.from_dict(s) for s in specs]
        latencies: list[float] = []
        mismatches: list[int] = []
        failures: list[str] = []
        i = 0

        def run_one(store, timed: bool) -> None:
            nonlocal i
            j = i % len(specs)
            start = time.perf_counter()
            try:
                result = execute(store, specs[j])
            except Exception as exc:  # a query that raised counts as failed
                failures.append(f"query {j}: {type(exc).__name__}: {exc}")
                result = None
            if timed:
                latencies.append(time.perf_counter() - start)
            if result is not None and answer_digest(normalize(result)) != expected[j]:
                mismatches.append(j)
            i += 1

        warm = True
        while True:
            command = conn.recv()
            if command[0] == "quit":
                break
            _, root, seconds = command
            store = FlowStore(root)
            if warm:
                for _ in range(block):
                    run_one(store, timed=False)
                warm = False
            deadline = time.monotonic() + seconds
            first = i
            while (
                i % block
                or i - first < MIN_BLOCKS * block
                or time.monotonic() < deadline
            ):
                run_one(store, timed=True)
            conn.send(("burst", len(latencies)))
        conn.send(
            {
                "latencies": latencies,
                "queries": i,
                "mismatches": mismatches[:10],
                "mismatch_count": len(mismatches),
                "failures": failures[:10],
                "failure_count": len(failures),
                "maxrss_kb": peak_rss_kb(),
            }
        )
    finally:
        conn.close()
