#include "serve/result_cache.h"

#include <cstring>
#include <utility>

#include "core/method_registry.h"

namespace manirank::serve {

namespace {
uint64_t Bits(double value) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}
}  // namespace

ResultCache::RunKey ResultCache::MakeRunKey(const std::string& method,
                                            const ConsensusOptions& options,
                                            uint64_t generation) {
  return RunKey{generation, method, Bits(options.delta),
                Bits(options.time_limit_seconds)};
}

ResultCache::SelectKey ResultCache::MakeSelectKey(const SelectQuery& query,
                                                  uint64_t generation) {
  std::vector<std::array<int, 4>> constraints;
  constraints.reserve(query.constraints.size());
  for (const SelectConstraintSpec& spec : query.constraints) {
    constraints.push_back(
        {spec.attribute, spec.group, spec.min_count, spec.max_count});
  }
  return SelectKey{generation, query.k, std::move(constraints),
                   Bits(query.time_limit_seconds)};
}

void ResultCache::set_enabled(bool enabled) {
  std::lock_guard<std::mutex> lock(mu_);
  enabled_ = enabled;
  if (!enabled) {
    runs_.Clear();
    selects_.Clear();
  }
}

bool ResultCache::LookupRun(const std::string& method,
                            const ConsensusOptions& options,
                            uint64_t generation, ConsensusOutput* out) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!enabled_) return false;
  const ConsensusOutput* hit =
      runs_.Find(MakeRunKey(method, options, generation));
  if (hit == nullptr) return false;
  ++hits_;
  *out = *hit;
  return true;
}

bool ResultCache::LookupSweep(const std::vector<const MethodSpec*>& methods,
                              const ConsensusOptions& options,
                              uint64_t generation,
                              std::vector<ConsensusOutput>* outs) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!enabled_ || methods.empty()) return false;
  outs->clear();
  outs->reserve(methods.size());
  for (const MethodSpec* method : methods) {
    const ConsensusOutput* hit =
        runs_.Find(MakeRunKey(method->id, options, generation));
    if (hit == nullptr) return false;
    outs->push_back(*hit);
  }
  hits_ += methods.size();
  return true;
}

void ResultCache::InsertRun(const std::string& method,
                            const ConsensusOptions& options,
                            uint64_t generation,
                            const ConsensusOutput& output) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!enabled_) return;
  // A re-insert of a live key (two requests raced the same miss) still
  // counts: the second run recomputed the same bit-exact result.
  ++misses_;
  runs_.Put(MakeRunKey(method, options, generation), output);
}

bool ResultCache::LookupSelect(const SelectQuery& query, uint64_t generation,
                               CachedSelect* out) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!enabled_) return false;
  const CachedSelect* hit = selects_.Find(MakeSelectKey(query, generation));
  if (hit == nullptr) return false;
  ++hits_;
  *out = *hit;
  return true;
}

void ResultCache::InsertSelect(const SelectQuery& query, uint64_t generation,
                               const CachedSelect& result) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!enabled_) return;
  ++misses_;
  selects_.Put(MakeSelectKey(query, generation), result);
}

void ResultCache::EvictOtherGenerations(uint64_t generation) {
  std::lock_guard<std::mutex> lock(mu_);
  runs_.EraseIf(
      [&](const RunKey& key) { return std::get<0>(key) != generation; });
  selects_.EraseIf(
      [&](const SelectKey& key) { return std::get<0>(key) != generation; });
}

uint64_t ResultCache::hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

uint64_t ResultCache::misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return misses_;
}

size_t ResultCache::entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return runs_.size() + selects_.size();
}

}  // namespace manirank::serve
