#include "chaos/chaos.h"

#include <algorithm>
#include <charconv>
#include <vector>

#include "obs/telemetry.h"
#include "util/rng.h"
#include "util/strings.h"

namespace mum::chaos {

namespace {

// Seed-lineage tags keeping the fault streams independent of each other and
// of the generator's own (seed, cycle, sub) streams.
constexpr std::uint64_t kStructuralTag = 0xC4A05'57A7ull;
constexpr std::uint64_t kWireTag = 0xC4A05'B17Eull;
constexpr std::uint64_t kFailTag = 0xC4A05'FA11ull;

std::optional<double> parse_rate(std::string_view text) {
  bool percent = false;
  if (!text.empty() && text.back() == '%') {
    percent = true;
    text.remove_suffix(1);
  }
  double value = 0.0;
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || end != text.data() + text.size()) {
    return std::nullopt;
  }
  if (percent) value /= 100.0;
  if (value < 0.0 || value > 1.0) return std::nullopt;
  return value;
}

}  // namespace

std::optional<ChaosConfig> parse_chaos_spec(std::string_view spec,
                                            std::string* error) {
  auto fail = [&](const std::string& why) -> std::optional<ChaosConfig> {
    if (error != nullptr) *error = why;
    return std::nullopt;
  };

  ChaosConfig config;
  for (std::string_view field : util::split(spec, ',')) {
    field = util::trim(field);
    if (field.empty()) continue;

    const auto eq = field.find('=');
    std::string_view name =
        eq == std::string_view::npos ? "all" : util::trim(field.substr(0, eq));
    const std::string_view value = util::trim(
        eq == std::string_view::npos ? field : field.substr(eq + 1));

    if (name == "seed") {
      const auto seed = util::parse_u64(value);
      if (!seed) return fail("chaos: seed expects an integer, got '" +
                             std::string(value) + "'");
      config.seed = *seed;
      continue;
    }
    if (name == "io.slow_ms") {
      const auto ms = util::parse_u64(value);
      if (!ms) return fail("chaos: io.slow_ms expects an integer, got '" +
                           std::string(value) + "'");
      config.io.slow_ms = static_cast<std::uint32_t>(*ms);
      continue;
    }
    if (name == "io.kill_at") {
      const auto at = util::parse_u64(value);
      if (!at) return fail("chaos: io.kill_at expects an integer, got '" +
                           std::string(value) + "'");
      config.io.kill_at_op = *at;
      continue;
    }
    if (name == "io.kill_mode") {
      if (value == "kill") {
        config.io.kill_mode = util::io::FaultConfig::KillMode::kKill;
      } else if (value == "dead") {
        config.io.kill_mode = util::io::FaultConfig::KillMode::kDead;
      } else {
        return fail("chaos: io.kill_mode expects kill or dead, got '" +
                    std::string(value) + "'");
      }
      continue;
    }

    const auto rate = parse_rate(value);
    if (!rate) {
      return fail("chaos: '" + std::string(value) +
                  "' is not a rate in [0,1] (use 0.02 or 2%)");
    }
    if (name == "all") {
      config.truncate_stack = config.drop_extension = config.duplicate_ttl =
          config.reorder_ttl = config.bogus_ip2as =
              config.monitor_blackout = config.flip_byte = *rate;
    } else if (name == "stack") {
      config.truncate_stack = *rate;
    } else if (name == "noext") {
      config.drop_extension = *rate;
    } else if (name == "dupttl") {
      config.duplicate_ttl = *rate;
    } else if (name == "reorder") {
      config.reorder_ttl = *rate;
    } else if (name == "ip2as") {
      config.bogus_ip2as = *rate;
    } else if (name == "blackout") {
      config.monitor_blackout = *rate;
    } else if (name == "flip") {
      config.flip_byte = *rate;
    } else if (name == "fail") {
      config.cycle_failure = *rate;
    } else if (name == "io.all") {
      config.io.eio = config.io.enospc = config.io.short_write =
          config.io.torn_temp = config.io.stale_rename = config.io.slow_op =
              *rate;
    } else if (name == "io.eio") {
      config.io.eio = *rate;
    } else if (name == "io.enospc") {
      config.io.enospc = *rate;
    } else if (name == "io.shortwrite") {
      config.io.short_write = *rate;
    } else if (name == "io.torn") {
      config.io.torn_temp = *rate;
    } else if (name == "io.stalerename") {
      config.io.stale_rename = *rate;
    } else if (name == "io.slow") {
      config.io.slow_op = *rate;
    } else {
      return fail("chaos: unknown fault '" + std::string(name) +
                  "' (stack, noext, dupttl, reorder, ip2as, blackout, flip, "
                  "fail, seed, all; io.eio, io.enospc, io.shortwrite, "
                  "io.torn, io.stalerename, io.slow, io.slow_ms, io.all, "
                  "io.kill_at, io.kill_mode)");
    }
  }
  return config;
}

void publish(const ChaosStats& stats) {
  if (stats.total() == 0) return;
  obs::Registry& r = obs::registry();
  static obs::Counter& stacks = r.counter("chaos.injected.stacks_truncated");
  static obs::Counter& exts = r.counter("chaos.injected.extensions_dropped");
  static obs::Counter& dups = r.counter("chaos.injected.hops_duplicated");
  static obs::Counter& reorders =
      r.counter("chaos.injected.hops_reordered");
  static obs::Counter& asns = r.counter("chaos.injected.asns_scrambled");
  static obs::Counter& blackouts =
      r.counter("chaos.injected.monitors_blacked_out");
  static obs::Counter& dropped = r.counter("chaos.injected.traces_dropped");
  static obs::Counter& flips = r.counter("chaos.injected.bytes_flipped");
  static obs::Counter& failures = r.counter("chaos.injected.cycles_failed");
  stacks.add(stats.stacks_truncated);
  exts.add(stats.extensions_dropped);
  dups.add(stats.hops_duplicated);
  reorders.add(stats.hops_reordered);
  asns.add(stats.asns_scrambled);
  blackouts.add(stats.monitors_blacked_out);
  dropped.add(stats.traces_dropped);
  flips.add(stats.bytes_flipped);
  failures.add(stats.cycles_failed);
}

void publish_io(const util::io::FaultCounts& counts) {
  if (counts.ops == 0) return;
  obs::Registry& r = obs::registry();
  static obs::Counter& ops = r.counter("chaos.io.ops");
  ops.add(counts.ops);
  for (std::size_t f = 0; f < util::io::kFaultClassCount; ++f) {
    if (counts.injected[f] == 0) continue;
    r.counter(std::string("chaos.io.") +
              util::io::to_cstring(static_cast<util::io::FaultClass>(f)))
        .add(counts.injected[f]);
  }
}

ChaosStats& ChaosStats::merge(const ChaosStats& other) noexcept {
  stacks_truncated += other.stacks_truncated;
  extensions_dropped += other.extensions_dropped;
  hops_duplicated += other.hops_duplicated;
  hops_reordered += other.hops_reordered;
  asns_scrambled += other.asns_scrambled;
  monitors_blacked_out += other.monitors_blacked_out;
  traces_dropped += other.traces_dropped;
  bytes_flipped += other.bytes_flipped;
  cycles_failed += other.cycles_failed;
  return *this;
}

void Corruptor::corrupt(dataset::SnapshotBatch& snapshot) {
  if (!config_.any_structural()) return;
  util::Rng rng(util::hash_combine(
      config_.seed,
      util::hash_combine(kStructuralTag,
                         util::hash_combine(snapshot.cycle_id,
                                            snapshot.sub_index))));

  // Monitor blackouts first: a dead monitor contributes nothing, so its
  // traces must not consume per-trace draws (keeps the surviving traces'
  // corruption independent of which monitors died). One draw per monitor
  // present, in ascending monitor order.
  std::vector<std::uint32_t> dead;
  if (config_.monitor_blackout > 0) {
    std::vector<std::uint32_t> fleet;
    for (const dataset::TraceBatch& block : snapshot.blocks) {
      fleet.insert(fleet.end(), block.monitor_col().begin(),
                   block.monitor_col().end());
    }
    std::sort(fleet.begin(), fleet.end());
    fleet.erase(std::unique(fleet.begin(), fleet.end()), fleet.end());
    for (const std::uint32_t monitor : fleet) {
      if (rng.chance(config_.monitor_blackout)) dead.push_back(monitor);
    }
    stats_.monitors_blacked_out += dead.size();
  }

  // Rebuild the blocks, in order, into one block through the append
  // protocol. Per surviving trace the draws run: duplicate, reorder, then
  // per hop of the mutated sequence drop-extension/truncate and bogus ASN.
  // `order` is that sequence as hop indices into the trace's block, so a
  // duplicated hop is emitted (and drawn for) twice.
  const std::size_t traces = snapshot.trace_count();
  dataset::TraceBatch out(traces, snapshot.hop_count() + traces,
                          snapshot.lse_count());
  std::vector<std::size_t> order;
  for (const dataset::TraceBatch& in : snapshot.blocks) {
    for (const dataset::TraceView trace : in) {
      if (std::binary_search(dead.begin(), dead.end(), trace.monitor_id())) {
        ++stats_.traces_dropped;
        continue;
      }
      order.resize(trace.hop_count());
      for (std::size_t k = 0; k < order.size(); ++k) {
        order[k] = trace.first_hop() + k;
      }
      if (config_.duplicate_ttl > 0 && !order.empty() &&
          rng.chance(config_.duplicate_ttl)) {
        const auto at = static_cast<std::size_t>(rng.below(order.size()));
        const std::size_t hop = order[at];
        order.insert(order.begin() + static_cast<std::ptrdiff_t>(at), hop);
        ++stats_.hops_duplicated;
      }
      if (config_.reorder_ttl > 0 && order.size() >= 2 &&
          rng.chance(config_.reorder_ttl)) {
        const auto at = static_cast<std::size_t>(rng.below(order.size() - 1));
        std::swap(order[at], order[at + 1]);
        ++stats_.hops_reordered;
      }

      out.begin_trace(trace.monitor_id(), trace.src(), trace.dst(),
                      trace.dst_asn());
      for (const std::size_t h : order) {
        const dataset::HopView hop(&in, h);
        const auto words = hop.lse_words();
        std::size_t keep = words.size();
        if (keep > 0) {
          if (config_.drop_extension > 0 &&
              rng.chance(config_.drop_extension)) {
            keep = 0;
            ++stats_.extensions_dropped;
          } else if (config_.truncate_stack > 0 &&
                     rng.chance(config_.truncate_stack)) {
            // Keep a strict prefix of the stack (possibly empty).
            keep = static_cast<std::size_t>(rng.below(words.size()));
            ++stats_.stacks_truncated;
          }
        }
        std::uint32_t asn = hop.asn();
        if (config_.bogus_ip2as > 0 && !hop.anonymous() && asn != 0 &&
            rng.chance(config_.bogus_ip2as)) {
          // Remap into a private-use ASN no generated AS occupies.
          asn = 64512 + static_cast<std::uint32_t>(rng.below(1024));
          ++stats_.asns_scrambled;
        }
        out.add_hop(hop.addr(), hop.rtt_ms(), asn);
        for (std::size_t k = 0; k < keep; ++k) out.add_label(words[k]);
      }
      out.end_trace(trace.reached());
    }
  }
  snapshot.blocks.clear();
  snapshot.blocks.push_back(std::move(out));
}

void Corruptor::corrupt_bytes(std::string& bytes, std::uint64_t key) {
  if (config_.flip_byte <= 0) return;
  util::Rng rng(util::hash_combine(config_.seed,
                                   util::hash_combine(kWireTag, key)));
  constexpr std::size_t kHeaderBytes = 5;  // magic + version stay intact
  for (std::size_t i = kHeaderBytes; i < bytes.size(); ++i) {
    if (rng.chance(config_.flip_byte)) {
      bytes[i] = static_cast<char>(
          static_cast<unsigned char>(bytes[i]) ^
          (1u << static_cast<unsigned>(rng.below(8))));
      ++stats_.bytes_flipped;
    }
  }
}

bool Corruptor::should_fail_cycle(int cycle) {
  if (config_.cycle_failure <= 0) return false;
  util::Rng rng(util::hash_combine(
      config_.seed,
      util::hash_combine(kFailTag, static_cast<std::uint64_t>(cycle))));
  if (!rng.chance(config_.cycle_failure)) return false;
  ++stats_.cycles_failed;
  return true;
}

}  // namespace mum::chaos
