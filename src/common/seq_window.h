// Sliding-window duplicate suppression for sequenced deliveries.
//
// At-least-once channels (Agent upload batches, pod digests, sketch reports)
// deliver some messages twice; each receiver remembers the seqs it accepted
// inside a window of `window` seqs below the highest one seen and drops
// repeats. A seq older than that window is dropped too: it can no longer be
// told apart from a repeat, and double-counting is worse than losing it.
//
// The remembered seqs always lie in [max_seq - window, max_seq] (or
// [0, max_seq] while max_seq <= window), so they fit a ring of window + 1
// bits indexed by seq % (window + 1). Accepting a new maximum clears the
// slots of the seqs it skipped — exactly the ones that fell out of the
// window — so the state is fixed-size and a slide costs the jump length,
// capped at the ring size.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace rpm {

/// Largest window a SeqWindow accepts: a window sets the size of a per-sender
/// bitmap (window / 8 bytes), so configs above this are rejected rather than
/// allocated.
inline constexpr std::uint64_t kMaxSeqWindow = 65536;

class SeqWindow {
 public:
  /// Throws std::invalid_argument when window > kMaxSeqWindow.
  explicit SeqWindow(std::uint64_t window);

  /// True when `seq` is a first delivery inside the window; records it and
  /// slides the window forward on a new maximum.
  bool accept(std::uint64_t seq);

  [[nodiscard]] std::uint64_t max_seq() const { return max_seq_; }

  /// Remembered seqs, ascending (the checkpoint form).
  [[nodiscard]] std::vector<std::uint64_t> seen() const;

  /// Replace the state from a checkpoint. Seqs below the window are skipped
  /// (they would be rejected as too old anyway). Throws std::invalid_argument
  /// on a seq above `max_seq`, which would alias onto a live slot.
  void restore(std::uint64_t max_seq, std::span<const std::uint64_t> seen);

 private:
  [[nodiscard]] std::uint64_t low() const {
    return max_seq_ > window_ ? max_seq_ - window_ : 0;
  }
  [[nodiscard]] std::size_t slot(std::uint64_t seq) const {
    return static_cast<std::size_t>(seq % (window_ + 1));
  }
  [[nodiscard]] bool test(std::size_t i) const {
    return ((bits_[i / 64] >> (i % 64)) & 1) != 0;
  }
  void set(std::size_t i) { bits_[i / 64] |= std::uint64_t{1} << (i % 64); }
  void reset(std::size_t i) {
    bits_[i / 64] &= ~(std::uint64_t{1} << (i % 64));
  }

  std::uint64_t window_;
  std::uint64_t max_seq_ = 0;
  std::vector<std::uint64_t> bits_;  // window_ + 1 bits
};

}  // namespace rpm
