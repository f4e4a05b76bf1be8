#include "core/ranking.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <numeric>
#include <sstream>

namespace manirank {

Ranking::Ranking(std::vector<CandidateId> order) : order_(std::move(order)) {
  assert(IsValidOrder(order_));
  pos_.resize(order_.size());
  for (int p = 0; p < size(); ++p) pos_[order_[p]] = p;
}

Ranking Ranking::Identity(int n) {
  std::vector<CandidateId> order(n);
  std::iota(order.begin(), order.end(), 0);
  return Ranking(std::move(order));
}

bool Ranking::IsValidOrder(const std::vector<CandidateId>& order) {
  const size_t n = order.size();
  std::vector<uint64_t> seen((n + 63) / 64, 0);
  for (CandidateId c : order) {
    if (c < 0 || static_cast<size_t>(c) >= n) return false;
    uint64_t& word = seen[static_cast<size_t>(c) >> 6];
    const uint64_t bit = uint64_t{1} << (c & 63);
    if ((word & bit) != 0) return false;
    word |= bit;
  }
  return true;
}

void Ranking::SwapPositions(int p, int q) {
  assert(p >= 0 && p < size() && q >= 0 && q < size());
  std::swap(order_[p], order_[q]);
  pos_[order_[p]] = p;
  pos_[order_[q]] = q;
}

void Ranking::SwapCandidates(CandidateId a, CandidateId b) {
  SwapPositions(pos_[a], pos_[b]);
}

Ranking Ranking::Reversed() const {
  std::vector<CandidateId> rev(order_.rbegin(), order_.rend());
  return Ranking(std::move(rev));
}

std::string Ranking::ToString() const {
  std::ostringstream os;
  os << '[';
  for (int p = 0; p < size(); ++p) {
    if (p > 0) os << ' ';
    os << order_[p];
  }
  os << ']';
  return os.str();
}

}  // namespace manirank
