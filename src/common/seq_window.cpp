#include "common/seq_window.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace rpm {

SeqWindow::SeqWindow(std::uint64_t window) : window_(window) {
  if (window > kMaxSeqWindow) {
    throw std::invalid_argument("SeqWindow: window " + std::to_string(window) +
                                " exceeds the maximum " +
                                std::to_string(kMaxSeqWindow));
  }
  bits_.assign(static_cast<std::size_t>((window + 1 + 63) / 64), 0);
}

bool SeqWindow::accept(std::uint64_t seq) {
  if (seq <= max_seq_) {
    // Repeat delivery of a retried message, or one so old it fell out of the
    // window (counted as a duplicate rather than risk double-counting).
    if (seq < low() || test(slot(seq))) return false;
    set(slot(seq));
    return true;
  }
  // New maximum: the slots of the skipped seqs (max_seq_, seq] belonged to
  // seqs that now lie below the window.
  const std::uint64_t jump = seq - max_seq_;
  if (jump > window_) {
    std::fill(bits_.begin(), bits_.end(), 0);
  } else {
    for (std::uint64_t k = 1; k <= jump; ++k) reset(slot(max_seq_ + k));
  }
  max_seq_ = seq;
  set(slot(seq));
  return true;
}

std::vector<std::uint64_t> SeqWindow::seen() const {
  std::vector<std::uint64_t> out;
  const std::size_t n = static_cast<std::size_t>(window_ + 1);
  std::size_t i = slot(low());
  for (std::uint64_t s = low();; ++s) {
    if (test(i)) out.push_back(s);
    if (s == max_seq_) break;
    if (++i == n) i = 0;
  }
  return out;
}

void SeqWindow::restore(std::uint64_t max_seq,
                        std::span<const std::uint64_t> seen) {
  for (std::uint64_t s : seen) {
    if (s > max_seq) {
      throw std::invalid_argument("SeqWindow: restored seq " +
                                  std::to_string(s) + " above max_seq " +
                                  std::to_string(max_seq));
    }
  }
  std::fill(bits_.begin(), bits_.end(), 0);
  max_seq_ = max_seq;
  for (std::uint64_t s : seen) {
    if (s >= low()) set(slot(s));
  }
}

}  // namespace rpm
