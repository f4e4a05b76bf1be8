#ifndef MANIRANK_CORE_PROFILE_H_
#define MANIRANK_CORE_PROFILE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/ranking.h"

namespace manirank {

/// A retained profile of base rankings in compact form: each ranking is a
/// single order row (candidates best-first) of 2-byte ids when
/// n <= 65535 and 4-byte ids above that. The width follows from n alone.
/// A `Ranking` keeps two int32 vectors (order and inverse), so a row
/// costs a quarter of its bytes at n <= 65535; readers that need a
/// `Ranking` materialize one with operator[].
///
/// Every row is its own allocation behind a handle: Erase removes one
/// handle (O(m) pointer moves, like vector::erase) and never moves row
/// bytes. Copies pack the rows in profile order.
class Profile {
 public:
  /// Largest n stored with 2-byte ids.
  static constexpr int kMaxNarrowCandidates = 65535;

  /// An empty profile over zero candidates (a summarized snapshot's).
  Profile() = default;
  /// An empty profile over `num_candidates` candidates.
  explicit Profile(int num_candidates) : n_(num_candidates) {}
  /// Packs `rankings`, which must share one size (n = that size, or 0
  /// for an empty list). Implicit so that a std::vector<Ranking> can
  /// stand wherever a profile is passed.
  Profile(const std::vector<Ranking>& rankings);

  Profile(const Profile& other);
  Profile& operator=(const Profile& other);
  Profile(Profile&&) noexcept = default;
  Profile& operator=(Profile&&) noexcept = default;

  int num_candidates() const { return n_; }
  size_t size() const { return wide() ? wide_.size() : narrow_.size(); }
  bool empty() const { return size() == 0; }
  /// Bytes per stored candidate id: 2, or 4 when n > 65535.
  size_t id_bytes() const { return wide() ? 4 : 2; }

  /// Appends a copy of `ranking`'s order. Throws std::invalid_argument
  /// when its size is not n.
  void Append(const Ranking& ranking);
  /// Appends n ids best-first. The caller has checked that they form a
  /// permutation of 0..n-1.
  void AppendOrder(const CandidateId* order);
  /// Removes the ranking at `index`; later rankings shift down by one.
  void Erase(size_t index);
  void Reserve(size_t count);

  /// Materializes ranking `index` (O(n), allocates).
  Ranking operator[](size_t index) const;

  /// Calls f(order) with ranking `index`'s n ids best-first, as
  /// `const uint16_t*` or `const uint32_t*` depending on id_bytes().
  template <class F>
  void VisitRow(size_t index, F&& f) const {
    if (wide()) {
      f(static_cast<const uint32_t*>(wide_[index].get()));
    } else {
      f(static_cast<const uint16_t*>(narrow_[index].get()));
    }
  }

 private:
  bool wide() const { return n_ > kMaxNarrowCandidates; }

  int n_ = 0;
  /// Exactly one of the two is in use, chosen by n.
  std::vector<std::unique_ptr<uint16_t[]>> narrow_;
  std::vector<std::unique_ptr<uint32_t[]>> wide_;
};

/// A read-only run of rankings as the precedence builds read them: a
/// slice of Ranking objects or of a Profile's rows. Cheap to copy.
class RankingRun {
 public:
  RankingRun(const Ranking* rankings, size_t count)
      : rankings_(rankings), size_(count) {}
  RankingRun(const std::vector<Ranking>& rankings)
      : RankingRun(rankings.data(), rankings.size()) {}
  RankingRun(const Profile& profile)
      : profile_(&profile), size_(profile.size()) {}

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// Candidates per ranking (the first ranking's size for a Ranking run).
  int num_candidates() const {
    return profile_ != nullptr ? profile_->num_candidates()
                               : rankings_[begin_].size();
  }

  /// Rankings [begin, begin + count) of this run.
  RankingRun Sub(size_t begin, size_t count) const {
    RankingRun sub = *this;
    sub.begin_ += begin;
    sub.size_ = count;
    return sub;
  }

  /// Calls f(order) with ranking i's ids best-first, as a pointer to
  /// CandidateId, uint16_t or uint32_t.
  template <class F>
  void VisitOrder(size_t i, F&& f) const {
    if (profile_ != nullptr) {
      profile_->VisitRow(begin_ + i, std::forward<F>(f));
    } else {
      f(rankings_[begin_ + i].order().data());
    }
  }

  /// Fills pos[c] with ranking i's position of each candidate c, as
  /// int16 (the caller guarantees n <= 32767).
  void PackPositions(size_t i, int16_t* pos) const;

 private:
  const Ranking* rankings_ = nullptr;
  const Profile* profile_ = nullptr;
  size_t begin_ = 0;
  size_t size_ = 0;
};

}  // namespace manirank

#endif  // MANIRANK_CORE_PROFILE_H_
