#include "core/profile.h"

#include <algorithm>
#include <stdexcept>

namespace manirank {
namespace {

template <class Id>
std::unique_ptr<Id[]> CopyRow(const Id* row, int n) {
  std::unique_ptr<Id[]> copy(new Id[static_cast<size_t>(n)]);
  std::copy(row, row + n, copy.get());
  return copy;
}

template <class Id>
void AppendRow(const CandidateId* order, int n,
               std::vector<std::unique_ptr<Id[]>>* rows) {
  std::unique_ptr<Id[]> row(new Id[static_cast<size_t>(n)]);
  for (int p = 0; p < n; ++p) row[p] = static_cast<Id>(order[p]);
  rows->push_back(std::move(row));
}

}  // namespace

Profile::Profile(const std::vector<Ranking>& rankings)
    : n_(rankings.empty() ? 0 : rankings[0].size()) {
  Reserve(rankings.size());
  for (const Ranking& r : rankings) Append(r);
}

Profile::Profile(const Profile& other) : n_(other.n_) {
  narrow_.reserve(other.narrow_.size());
  for (const auto& row : other.narrow_) narrow_.push_back(CopyRow(row.get(), n_));
  wide_.reserve(other.wide_.size());
  for (const auto& row : other.wide_) wide_.push_back(CopyRow(row.get(), n_));
}

Profile& Profile::operator=(const Profile& other) {
  if (this != &other) *this = Profile(other);
  return *this;
}

void Profile::Append(const Ranking& ranking) {
  if (ranking.size() != n_) {
    throw std::invalid_argument("profile ranking size does not match n");
  }
  AppendOrder(ranking.order().data());
}

void Profile::AppendOrder(const CandidateId* order) {
  if (wide()) {
    AppendRow(order, n_, &wide_);
  } else {
    AppendRow(order, n_, &narrow_);
  }
}

void Profile::Erase(size_t index) {
  if (wide()) {
    wide_.erase(wide_.begin() + static_cast<ptrdiff_t>(index));
  } else {
    narrow_.erase(narrow_.begin() + static_cast<ptrdiff_t>(index));
  }
}

void Profile::Reserve(size_t count) {
  if (wide()) {
    wide_.reserve(count);
  } else {
    narrow_.reserve(count);
  }
}

Ranking Profile::operator[](size_t index) const {
  std::vector<CandidateId> order(static_cast<size_t>(n_));
  VisitRow(index, [&](const auto* row) {
    std::copy(row, row + n_, order.begin());
  });
  return Ranking(std::move(order));
}

void RankingRun::PackPositions(size_t i, int16_t* pos) const {
  if (profile_ != nullptr) {
    profile_->VisitRow(begin_ + i, [pos, n = profile_->num_candidates()](
                                       const auto* order) {
      for (int p = 0; p < n; ++p) pos[order[p]] = static_cast<int16_t>(p);
    });
    return;
  }
  const Ranking& r = rankings_[begin_ + i];
  const int* positions = r.positions().data();
  for (int c = 0; c < r.size(); ++c) pos[c] = static_cast<int16_t>(positions[c]);
}

}  // namespace manirank
