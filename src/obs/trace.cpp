#include "obs/trace.h"

#include <atomic>
#include <fstream>
#include <ostream>

#include "obs/telemetry.h"
#include "util/json.h"

namespace mum::obs {

namespace {

std::atomic<TraceLog*> g_trace{nullptr};

}  // namespace

TraceLog* trace() noexcept {
  return g_trace.load(std::memory_order_acquire);
}

void set_trace(TraceLog* log) noexcept {
  g_trace.store(log, std::memory_order_release);
}

TraceLog::TraceLog(std::ostream& os) : os_(&os) {
  util::JsonWriter json;
  json.begin_object();
  json.field("ev", "meta");
  json.field("version", 1);
  json.field("clock", "monotonic_ns");
  json.end_object();
  write_line(json.str());
}

TraceLog::~TraceLog() = default;

std::unique_ptr<TraceLog> TraceLog::open(const std::string& path) {
  auto os = std::make_unique<std::ofstream>(path, std::ios::trunc);
  if (!*os) return nullptr;
  // The borrowed-stream constructor runs first, then ownership transfers.
  auto log = std::make_unique<TraceLog>(*os);
  log->owned_ = std::move(os);
  return log;
}

void TraceLog::span(std::string_view name, int cycle, std::uint64_t t_ns,
                    std::uint64_t dur_ns) {
  util::JsonWriter json;
  json.begin_object();
  json.field("ev", "span");
  json.field("name", name);
  if (cycle >= 0) json.field("cycle", cycle + 1);  // 1-based, as the paper
  json.field("tid", thread_ordinal());
  json.field("t_ns", t_ns);
  json.field("dur_ns", dur_ns);
  json.end_object();
  write_line(json.str());
}

void TraceLog::mark(std::string_view name, int cycle,
                    std::string_view detail) {
  util::JsonWriter json;
  json.begin_object();
  json.field("ev", "mark");
  json.field("name", name);
  if (cycle >= 0) json.field("cycle", cycle + 1);
  json.field("tid", thread_ordinal());
  json.field("t_ns", monotonic_ns());
  if (!detail.empty()) json.field("detail", detail);
  json.end_object();
  write_line(json.str());
}

std::uint64_t TraceLog::events() const noexcept {
  const std::lock_guard<std::mutex> lock(mutex_);
  return events_;
}

bool TraceLog::flush() {
  const std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<bool>(os_->flush());
}

void TraceLog::write_line(const std::string& line) {
  const std::lock_guard<std::mutex> lock(mutex_);
  *os_ << line << '\n';
  ++events_;
}

}  // namespace mum::obs
