#include "dataset/ip2as.h"

#include "util/strings.h"

namespace mum::dataset {

void Ip2As::add_prefix(const net::Ipv4Prefix& prefix, std::uint32_t asn) {
  trie_.insert(prefix, asn);
}

std::uint32_t Ip2As::lookup(net::Ipv4Addr addr) const {
  const auto hit = trie_.lookup(addr);
  return hit.value_or(kUnknownAsn);
}

std::uint32_t AsnCache::miss(std::size_t slot_index, std::uint32_t addr,
                             const Ip2As& table) {
  const std::uint32_t asn = table.lookup(net::Ipv4Addr(addr));
  slots_[slot_index] = (std::uint64_t{addr} << 32) | asn;
  // Keep the load factor below 1/4 so hits stay near one probe — the table
  // is persistent, so growth cost amortizes over a whole campaign.
  if (++used_ * 4 > slots_.size()) grow();
  return asn;
}

void AsnCache::grow() {
  std::vector<std::uint64_t> old = std::move(slots_);
  slots_.assign(old.size() * 2, 0);
  --shift_;
  const std::size_t mask = slots_.size() - 1;
  for (const std::uint64_t slot : old) {
    const auto key = static_cast<std::uint32_t>(slot >> 32);
    if (key == 0) continue;
    std::size_t i = (key * 0x9E3779B9u) >> shift_;
    while (static_cast<std::uint32_t>(slots_[i] >> 32) != 0) {
      i = (i + 1) & mask;
    }
    slots_[i] = slot;
  }
}

void Ip2As::annotate(TraceBatch& batch) const {
  AsnCache memo;
  annotate(batch, memo);
}

void Ip2As::annotate(TraceBatch& batch, AsnCache& memo) const {
  const auto dst = batch.dst_col();
  const auto dst_asn = batch.dst_asn_mut();
  for (std::size_t i = 0; i < dst.size(); ++i) {
    dst_asn[i] = dst[i] != 0 ? memo.get(dst[i], *this)
                             : lookup(net::Ipv4Addr(0));
  }
  const auto addrs = batch.hop_addr_col();
  const auto asn = batch.hop_asn_mut();
  for (std::size_t h = 0; h < addrs.size(); ++h) {
    asn[h] = addrs[h] != 0 ? memo.get(addrs[h], *this) : kUnknownAsn;
  }
}

void Ip2As::annotate(SnapshotBatch& snapshot) const {
  AsnCache memo;
  annotate(snapshot, memo);
}

void Ip2As::annotate(SnapshotBatch& snapshot, AsnCache& memo) const {
  for (TraceBatch& block : snapshot.blocks) annotate(block, memo);
}

std::string to_table_text(const Ip2As& table) {
  std::string out;
  for (const auto& [prefix, asn] : table.entries()) {
    out += prefix.to_string();
    out += ' ';
    out += std::to_string(asn);
    out += '\n';
  }
  return out;
}

std::optional<Ip2As> ip2as_from_text(std::string_view text) {
  Ip2As table;
  for (const auto raw_line : util::split(text, '\n')) {
    const auto line = util::trim(raw_line);
    if (line.empty() || line.front() == '#') continue;
    const auto space = line.find_first_of(" \t");
    if (space == std::string_view::npos) return std::nullopt;
    const auto prefix = net::Ipv4Prefix::parse(util::trim(line.substr(0, space)));
    const auto asn = util::parse_u64(util::trim(line.substr(space + 1)));
    if (!prefix || !asn || *asn > 0xFFFFFFFFull) return std::nullopt;
    table.add_prefix(*prefix, static_cast<std::uint32_t>(*asn));
  }
  return table;
}

}  // namespace mum::dataset
