"""Every metric the benchmark emits, by name, with unit and direction.

``BENCHMARK.json`` repeats these names (plus the bounds of the
end-to-end ones); a self-test keeps the two in step.
"""

from __future__ import annotations

__all__ = ["END_TO_END", "PER_LAYER"]

#: name -> (unit, better), reported by ``--trace 0``
END_TO_END = {
    "setup_s": ("s", "lower"),
    "throughput_ops_s": ("1/s", "higher"),
    "speedup_vs_sequential_x": ("x", "higher"),
    "cpu_ms_per_op": ("ms", "lower"),
    "latency_p50_ms": ("ms", "lower"),
    "within_limit_share": ("share", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}

#: name -> (unit, better), reported by ``--trace 1``
PER_LAYER = {
    "api.submit_return_us": ("us", "lower"),
    "api.calls_per_op": ("count", "lower"),
    "api.peak_in_flight": ("count", "higher"),
    "runtime.admission.admit_release_us": ("us", "lower"),
    "runtime.admission.blocked_per_op": ("count", "lower"),
    "runtime.threads.spawn_join_us": ("us", "lower"),
    "runtime.threads.spawn_us": ("us", "lower"),
    "runtime.threads.spawns_per_op": ("count", "lower"),
    "aop.woven_call_us": ("us", "lower"),
    "aop.interpreter_calls_per_op": ("count", "lower"),
    "parallel.partition.split_us": ("us", "lower"),
    "parallel.partition.combine_us": ("us", "lower"),
    "parallel.partition.pieces_per_op": ("count", "lower"),
    "parallel.concurrency.spawn_us": ("us", "lower"),
    "parallel.concurrency.spawns_per_op": ("count", "lower"),
    "middleware.serialize.encode_us": ("us", "lower"),
    "middleware.serialize.decode_us": ("us", "lower"),
    "middleware.serialize.request_bytes": ("bytes", "lower"),
    "middleware.serialize.reply_bytes": ("bytes", "lower"),
    "middleware.proc.round_trip_us": ("us", "lower"),
    "middleware.proc.messages_per_op": ("count", "lower"),
    "middleware.proc.worker_respawns": ("count", "lower"),
    "runtime.asyncbackend.bridge_us": ("us", "lower"),
    "runtime.asyncbackend.tasks_per_op": ("count", "lower"),
    "runtime.asyncbackend.tasks_expired": ("count", "lower"),
    "servant.call_us": ("us", "lower"),
    "servant.cpu_us": ("us", "lower"),
    "servant.calls_per_op": ("count", "lower"),
    "reference.sequential_ms_per_op": ("ms", "lower"),
    "budget.api_share": ("share", "lower"),
    "budget.admission_share": ("share", "lower"),
    "budget.threads_share": ("share", "lower"),
    "budget.aop_share": ("share", "lower"),
    "budget.partition_share": ("share", "lower"),
    "budget.concurrency_share": ("share", "lower"),
    "budget.serialize_share": ("share", "lower"),
    "budget.transport_share": ("share", "lower"),
    "budget.loop_share": ("share", "lower"),
    "budget.servant_share": ("share", "higher"),
    "budget.unattributed_share": ("share", "lower"),
    "setup.import_s": ("s", "lower"),
    "setup.deploy_ms": ("ms", "lower"),
    "setup.first_call_ms": ("ms", "lower"),
    "setup.teardown_ms": ("ms", "lower"),
    "loadgen.latency_p90_ms": ("ms", "lower"),
    "loadgen.latency_p99_ms": ("ms", "lower"),
    "loadgen.submit_return_p50_us": ("us", "lower"),
    "loadgen.lag_p90_us": ("us", "lower"),
    "loadgen.lag_max_ms": ("ms", "lower"),
    "loadgen.offered_ops": ("count", "higher"),
    "loadgen.failed_share": ("share", "lower"),
    "loadgen.block_spread_share": ("share", "lower"),
    "loadgen.disturbed_block_share": ("share", "lower"),
    "machine.spin_ms": ("ms", "lower"),
    "machine.spin_drift_share": ("share", "lower"),
    "machine.thread_start_join_us": ("us", "lower"),
    "runtime.leaked_threads": ("count", "lower"),
    "runtime.leaked_processes": ("count", "lower"),
    "trace.overhead_share": ("share", "lower"),
    "trace.spans_per_op": ("count", "lower"),
}
