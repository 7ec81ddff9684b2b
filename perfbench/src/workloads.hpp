// The benchmark workloads. Each call times 15 session set-ups and then runs
// one repetition: a fixed unit of work, built from `opt.seed`, on a
// fresh simulated session. It checks the outputs and reports virtual-time
// metrics (the same on every repetition of a seed) and host-time metrics.
//
// run.py starts one process per repetition, so every repetition begins from
// the same fresh heap, and aggregates them. With opt.trace the repetition
// records spans and, after its measured phase, probes the layers.
#pragma once

#include "common.hpp"
#include "spans.hpp"

namespace perfbench {

Outcome run_kap(const Options& opt, SpanRecorder& rec);
Outcome run_kvs_durable(const Options& opt, SpanRecorder& rec);
Outcome run_jobs(const Options& opt, SpanRecorder& rec);

}  // namespace perfbench
