// In-memory span recorder for the traced run.
//
// A span brackets one call from the benchmark into a layer's public
// function (Session::create_sim, KvsClient::commit, JobHandle::wait,
// FileLogBackend::recover, ...). Each span records its name, its parent
// span, a request id shared by every span of one client request, and its
// start and end on two clocks: the host clock, this process's CPU time
// (what the implementation costs), and the simulator's virtual clock (what
// the protocol costs; -1 when the call runs outside a simulation).
//
// Recording only reads clocks and appends to a vector, so it cannot change
// the simulation: virtual metrics are bit-identical with tracing on and off.
// Spans stay in memory and are written out once, when the run ends.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common.hpp"

namespace perfbench {

class SpanRecorder {
 public:
  /// An inactive recorder records nothing: the untraced repetitions of a
  /// traced run use one to price the recorder's own overhead.
  explicit SpanRecorder(bool active) : active_(active) {}

  /// Open a span and return its id (0 while inactive; close(0) is a no-op).
  /// `ex` supplies the virtual clock; pass nullptr for host-only calls.
  std::uint64_t open(std::string_view name, std::uint64_t parent,
                     std::uint64_t request, const flux::Executor* ex);
  void close(std::uint64_t id, const flux::Executor* ex);
  /// Record a span known only on the virtual clock, derived from timestamps
  /// the program itself logged (a job's eventlog); it has no host duration.
  void add_virtual(std::string_view name, std::uint64_t parent,
                   std::uint64_t request, std::int64_t virt_start,
                   std::int64_t virt_end);

  /// Per-name totals: count, host and virtual duration, and self time (a
  /// span's duration minus the part of it its child spans cover).
  [[nodiscard]] flux::Json summary() const;

  /// Write `header`, the summary and every span as JSON lines to `path`.
  bool write(const std::string& path, const flux::Json& header) const;

 private:
  struct Span {
    std::string_view name;  ///< always a string literal
    std::uint64_t parent = 0;
    std::uint64_t request = 0;
    std::int64_t host_start = 0, host_end = -1;  ///< ns since recorder start
    std::int64_t virt_start = -1, virt_end = -1;  ///< ns of virtual time
  };
  [[nodiscard]] std::int64_t host_now() const;

  bool active_ = false;
  HostClock::time_point origin_ = HostClock::now();
  std::vector<Span> spans_;
};

/// RAII span around a synchronous call.
class SpanScope {
 public:
  SpanScope(SpanRecorder& rec, std::string_view name, std::uint64_t parent = 0,
            std::uint64_t request = 0, const flux::Executor* ex = nullptr)
      : rec_(rec), ex_(ex), id_(rec.open(name, parent, request, ex)) {}
  ~SpanScope() { rec_.close(id_, ex_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }

 private:
  SpanRecorder& rec_;
  const flux::Executor* ex_;
  std::uint64_t id_;
};

}  // namespace perfbench
