// Little-endian fixed-width integer codec shared by every binary encoding the
// system writes itself (sketch wire format, journal checkpoints). Writers
// append to a byte vector; readers advance an offset and are bounds-checked:
// a short buffer throws std::runtime_error and never reads past its end.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace rpm::wire {

namespace detail {

template <typename T>
void put_le(std::vector<std::uint8_t>& out, T v) {
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

template <typename T>
T get_le(const std::vector<std::uint8_t>& in, std::size_t& off) {
  // Remaining-bytes form: `off + sizeof(T)` could wrap for a hostile offset.
  if (off > in.size() || in.size() - off < sizeof(T)) {
    throw std::runtime_error("wire decode: truncated input");
  }
  T v = 0;
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    v |= static_cast<T>(static_cast<T>(in[off + i]) << (8 * i));
  }
  off += sizeof(T);
  return v;
}

}  // namespace detail

inline void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  detail::put_le(out, v);
}
inline void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  detail::put_le(out, v);
}
inline std::uint32_t get_u32(const std::vector<std::uint8_t>& in,
                             std::size_t& off) {
  return detail::get_le<std::uint32_t>(in, off);
}
inline std::uint64_t get_u64(const std::vector<std::uint8_t>& in,
                             std::size_t& off) {
  return detail::get_le<std::uint64_t>(in, off);
}

}  // namespace rpm::wire
