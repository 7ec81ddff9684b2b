#include "spans.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <utility>

namespace perfbench {

std::int64_t SpanRecorder::host_now() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             HostClock::now() - origin_)
      .count();
}

std::uint64_t SpanRecorder::open(std::string_view name, std::uint64_t parent,
                                 std::uint64_t request,
                                 const flux::Executor* ex) {
  if (!active_) return 0;
  Span s;
  s.name = name;
  s.parent = parent;
  s.request = request;
  s.virt_start = ex != nullptr ? ex->now().count() : -1;
  s.host_start = host_now();
  spans_.push_back(s);
  return spans_.size();  // ids are 1-based indices
}

void SpanRecorder::close(std::uint64_t id, const flux::Executor* ex) {
  if (id == 0 || id > spans_.size()) return;
  Span& s = spans_[id - 1];
  s.host_end = host_now();
  s.virt_end = ex != nullptr ? ex->now().count() : -1;
}

void SpanRecorder::add_virtual(std::string_view name, std::uint64_t parent,
                               std::uint64_t request, std::int64_t virt_start,
                               std::int64_t virt_end) {
  if (!active_) return;
  Span s;
  s.name = name;
  s.parent = parent;
  s.request = request;
  s.host_start = s.host_end = 0;
  s.virt_start = virt_start;
  s.virt_end = virt_end;
  spans_.push_back(s);
}

namespace {

using Interval = std::pair<std::int64_t, std::int64_t>;

/// Length of the part of [lo, hi] covered by the union of `parts`.
std::int64_t covered(std::vector<Interval> parts, std::int64_t lo,
                     std::int64_t hi) {
  std::sort(parts.begin(), parts.end());
  std::int64_t total = 0;
  std::int64_t cur_lo = 0, cur_hi = -1;
  bool open = false;
  for (auto [a, b] : parts) {
    a = std::max(a, lo);
    b = std::min(b, hi);
    if (b <= a) continue;
    if (open && a <= cur_hi) {
      cur_hi = std::max(cur_hi, b);
      continue;
    }
    if (open) total += cur_hi - cur_lo;
    cur_lo = a;
    cur_hi = b;
    open = true;
  }
  if (open) total += cur_hi - cur_lo;
  return total;
}

struct NameTotals {
  std::int64_t count = 0;
  std::int64_t host_ns = 0, host_self_ns = 0;
  std::int64_t virt_ns = 0, virt_self_ns = 0;
};

}  // namespace

flux::Json SpanRecorder::summary() const {
  std::vector<std::vector<std::size_t>> children(spans_.size() + 1);
  for (std::size_t i = 0; i < spans_.size(); ++i)
    if (spans_[i].parent != 0 && spans_[i].parent <= spans_.size())
      children[spans_[i].parent].push_back(i);

  std::map<std::string_view, NameTotals> by_name;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.host_end < 0) continue;  // never closed (a failed request)
    NameTotals& t = by_name[s.name];
    ++t.count;
    std::vector<Interval> host_kids, virt_kids;
    for (const std::size_t c : children[i + 1]) {
      const Span& k = spans_[c];
      if (k.host_end < 0) continue;
      host_kids.emplace_back(k.host_start, k.host_end);
      if (k.virt_start >= 0 && k.virt_end >= 0)
        virt_kids.emplace_back(k.virt_start, k.virt_end);
    }
    const std::int64_t host_dur = s.host_end - s.host_start;
    t.host_ns += host_dur;
    t.host_self_ns += host_dur - covered(host_kids, s.host_start, s.host_end);
    if (s.virt_start >= 0 && s.virt_end >= 0) {
      const std::int64_t virt_dur = s.virt_end - s.virt_start;
      t.virt_ns += virt_dur;
      t.virt_self_ns +=
          virt_dur - covered(virt_kids, s.virt_start, s.virt_end);
    }
  }
  flux::Json out = flux::Json::object();
  for (const auto& [name, t] : by_name)
    out[std::string(name)] = flux::Json::object(
        {{"count", t.count},
         {"host_ms", static_cast<double>(t.host_ns) / 1e6},
         {"host_self_ms", static_cast<double>(t.host_self_ns) / 1e6},
         {"virtual_ms", static_cast<double>(t.virt_ns) / 1e6},
         {"virtual_self_ms", static_cast<double>(t.virt_self_ns) / 1e6}});
  return out;
}

bool SpanRecorder::write(const std::string& path,
                         const flux::Json& header) const {
  std::unique_ptr<FILE, int (*)(FILE*)> f(std::fopen(path.c_str(), "w"),
                                          &std::fclose);
  if (!f) return false;
  std::fprintf(f.get(), "%s\n", header.dump().c_str());
  std::fprintf(f.get(), "%s\n",
               flux::Json::object({{"summary", summary()}}).dump().c_str());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f.get(),
                 "{\"id\":%zu,\"name\":\"%.*s\",\"parent\":%llu,\"req\":%llu,"
                 "\"h0\":%lld,\"h1\":%lld,\"v0\":%lld,\"v1\":%lld}\n",
                 i + 1, static_cast<int>(s.name.size()), s.name.data(),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request),
                 static_cast<long long>(s.host_start),
                 static_cast<long long>(s.host_end),
                 static_cast<long long>(s.virt_start),
                 static_cast<long long>(s.virt_end));
  }
  return std::fflush(f.get()) == 0;
}

}  // namespace perfbench
