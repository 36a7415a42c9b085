#include "src/stats/cost_ledger.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string_view>

namespace camelot {

const char* CostPrimitiveSuffix(CostPrimitive primitive) {
  switch (primitive) {
    case CostPrimitive::kLogForce:
      return "force";
    case CostPrimitive::kLogSpool:
      return "spool";
    case CostPrimitive::kDatagram:
      return "dgram";
    case CostPrimitive::kLocalIpc:
      return "call";
    case CostPrimitive::kLocalIpcServer:
      return "server_call";
    case CostPrimitive::kLocalOutOfLine:
      return "oob";
    case CostPrimitive::kLocalOneway:
      return "oneway";
    case CostPrimitive::kRemoteRpc:
      return "rpc";
  }
  return "unknown";
}

void AddCounts(CountVector& into, const CountVector& add) {
  for (const auto& [key, count] : add) {
    into[key] += count;
  }
}

namespace {

// The first Record() sizes the table for 32 keys, more than a one-site world
// uses; multi-site worlds grow it once or twice.
constexpr size_t kInitialSlots = 64;

uint64_t Mix(uint64_t h, uint64_t word) {
  h = (h ^ word) * 0x9E3779B97F4A7C15ULL;
  return h ^ (h >> 29);
}

// Eight bytes at a time; the final partial word carries the length, so that
// role "ab" + phase "c" and role "a" + phase "bc" hash apart.
uint64_t MixText(uint64_t h, std::string_view text) {
  size_t i = 0;
  for (; i + 8 <= text.size(); i += 8) {
    uint64_t word = 0;
    std::memcpy(&word, text.data() + i, 8);
    h = Mix(h, word);
  }
  uint64_t tail = 0;
  if (i < text.size()) {
    std::memcpy(&tail, text.data() + i, text.size() - i);
  }
  return Mix(h, tail ^ (static_cast<uint64_t>(text.size()) << 56));
}

uint64_t HashKey(const CostEvent& event) {
  const uint64_t h = MixText(MixText(0, event.role), event.phase);
  return Mix(h, (static_cast<uint64_t>(event.site.value) << 8) |
                    static_cast<uint64_t>(event.primitive));
}

}  // namespace

CostLedger::EventView::iterator::iterator(const Bucket* bucket, const Bucket* end)
    : bucket_(bucket), end_(end) {
  if (bucket_ != end_) {
    left_ = bucket_->count;
  }
  Settle();
}

void CostLedger::EventView::iterator::Settle() {
  while (bucket_ != end_ && left_ == 0) {
    ++bucket_;
    left_ = bucket_ != end_ ? bucket_->count : 0;
  }
  if (bucket_ != end_) {
    event_ = CostEvent{bucket_->site, bucket_->role, bucket_->phase, bucket_->primitive};
  }
}

CostLedger::EventView::iterator& CostLedger::EventView::iterator::operator++() {
  if (--left_ == 0) {
    Settle();
  }
  return *this;
}

void CostLedger::Record(const CostEvent& event) {
  ++size_;
  const uint64_t hash = HashKey(event);
  if (slots_.empty()) {
    buckets_.reserve(kInitialSlots / 2);
    Rehash(kInitialSlots);
  }
  const size_t mask = slots_.size() - 1;
  for (size_t i = hash & mask;; i = (i + 1) & mask) {
    const uint32_t slot = slots_[i];
    if (slot == 0) {
      buckets_.push_back(Bucket{event.site, event.primitive, std::string(event.role),
                                std::string(event.phase), hash, 1});
      slots_[i] = static_cast<uint32_t>(buckets_.size());
      if (2 * buckets_.size() > slots_.size()) {
        Rehash(2 * slots_.size());
      }
      return;
    }
    Bucket& bucket = buckets_[slot - 1];
    if (bucket.hash == hash && bucket.site == event.site &&
        bucket.primitive == event.primitive && bucket.role == event.role &&
        bucket.phase == event.phase) {
      ++bucket.count;
      return;
    }
  }
}

void CostLedger::Rehash(size_t slot_count) {
  slots_.assign(slot_count, 0);
  const size_t mask = slot_count - 1;
  for (size_t b = 0; b < buckets_.size(); ++b) {
    size_t i = buckets_[b].hash & mask;
    while (slots_[i] != 0) {
      i = (i + 1) & mask;
    }
    slots_[i] = static_cast<uint32_t>(b + 1);
  }
}

void CostLedger::Clear() {
  size_ = 0;
  for (Bucket& bucket : buckets_) {
    bucket.count = 0;
  }
}

std::string CostLedger::Key(const CostEvent& event) {
  std::string key;
  key.reserve(event.role.size() + event.phase.size() + 16);
  key.append(event.role).append("/").append(event.phase).append("/").append(
      CostPrimitiveSuffix(event.primitive));
  return key;
}

CountVector CostLedger::CountsExcept(std::initializer_list<std::string_view> roles) const {
  CountVector counts;
  for (const Bucket& bucket : buckets_) {
    if (bucket.count == 0) {
      continue;
    }
    if (std::find(roles.begin(), roles.end(), bucket.role) == roles.end()) {
      counts[Key(CostEvent{bucket.site, bucket.role, bucket.phase, bucket.primitive})] +=
          bucket.count;
    }
  }
  return counts;
}

std::string CostLedger::Diff(const CountVector& predicted, const CountVector& measured) {
  CountVector keys;  // Union of both key sets, values unused.
  for (const auto& [key, count] : predicted) {
    keys[key] = 0;
  }
  for (const auto& [key, count] : measured) {
    keys[key] = 0;
  }
  std::string out;
  for (const auto& [key, unused] : keys) {
    const auto p = predicted.find(key);
    const auto m = measured.find(key);
    const int64_t pv = p == predicted.end() ? 0 : p->second;
    const int64_t mv = m == measured.end() ? 0 : m->second;
    if (pv == mv) {
      continue;
    }
    char line[256];
    std::snprintf(line, sizeof(line), "  %s: predicted %lld, measured %lld (%+lld)\n",
                  key.c_str(), static_cast<long long>(pv), static_cast<long long>(mv),
                  static_cast<long long>(mv - pv));
    out += line;
  }
  return out;
}

std::string CostLedger::Render(const CountVector& counts) {
  std::string out;
  for (const auto& [key, count] : counts) {
    char line[256];
    std::snprintf(line, sizeof(line), "  %s: %lld\n", key.c_str(),
                  static_cast<long long>(count));
    out += line;
  }
  return out;
}

}  // namespace camelot
