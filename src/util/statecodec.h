// Little-endian binary state codec for checkpoint/resume snapshots.
//
// Checkpoints must be byte-stable across hosts and compiler versions (the
// resume CI leg diffs outputs byte-for-byte), so every field is written with
// an explicit width and byte order instead of struct dumps. The reader is
// the security boundary for snapshot files: every primitive is bounds
// checked, a failed read latches the stream into a failure state, and no
// length field is trusted before it is compared against the bytes that are
// actually present — garbage input must produce `ok() == false`, never UB.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

namespace tspu::util {

/// Appends fixed-width little-endian primitives to a growable byte buffer.
class StateWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }

  void u16(std::uint16_t v) {
    u8(static_cast<std::uint8_t>(v & 0xff));
    u8(static_cast<std::uint8_t>((v >> 8) & 0xff));
  }

  void u32(std::uint32_t v) {
    for (int shift = 0; shift < 32; shift += 8) {
      u8(static_cast<std::uint8_t>((v >> shift) & 0xff));
    }
  }

  void u64(std::uint64_t v) {
    for (int shift = 0; shift < 64; shift += 8) {
      u8(static_cast<std::uint8_t>((v >> shift) & 0xff));
    }
  }

  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }

  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

  void boolean(bool v) { u8(v ? 1 : 0); }

  /// Length-prefixed (u32) byte string.
  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    buf_.append(s.data(), s.size());
  }

  const std::string& data() const { return buf_; }
  std::string take() { return std::move(buf_); }
  std::size_t size() const { return buf_.size(); }

 private:
  std::string buf_;
};

/// Bounds-checked reader over a byte buffer produced by StateWriter.
///
/// Every accessor returns false (and latches `ok() == false`) on underrun;
/// callers can either check each read or perform a whole decode and test
/// `ok()` once at the end — a latched failure never resets.
class StateReader {
 public:
  explicit StateReader(std::string_view data) : data_(data) {}

  bool u8(std::uint8_t& out) {
    if (!take(1)) return false;
    out = static_cast<std::uint8_t>(data_[pos_ - 1]);
    return true;
  }

  bool u16(std::uint16_t& out) {
    std::uint64_t v = 0;
    if (!le(2, v)) return false;
    out = static_cast<std::uint16_t>(v);
    return true;
  }

  bool u32(std::uint32_t& out) {
    std::uint64_t v = 0;
    if (!le(4, v)) return false;
    out = static_cast<std::uint32_t>(v);
    return true;
  }

  bool u64(std::uint64_t& out) { return le(8, out); }

  bool i64(std::int64_t& out) {
    std::uint64_t v = 0;
    if (!le(8, v)) return false;
    out = static_cast<std::int64_t>(v);
    return true;
  }

  bool f64(double& out) {
    std::uint64_t v = 0;
    if (!le(8, v)) return false;
    out = std::bit_cast<double>(v);
    return true;
  }

  bool boolean(bool& out) {
    std::uint8_t v = 0;
    if (!u8(v)) return false;
    if (v > 1) return fail();  // strict: reject non-canonical booleans
    out = v == 1;
    return true;
  }

  /// The declared length is validated against the remaining bytes *before*
  /// any allocation, so a corrupt 4 GiB length can not trigger a huge
  /// std::string resize.
  bool str(std::string& out) {
    std::uint32_t n = 0;
    if (!u32(n)) return false;
    if (n > remaining()) return fail();
    out.assign(data_.data() + pos_, n);
    pos_ += n;
    return true;
  }

  bool ok() const { return ok_; }
  /// True when the stream decoded cleanly and was consumed exactly.
  bool done() const { return ok_ && pos_ == data_.size(); }
  std::size_t remaining() const { return ok_ ? data_.size() - pos_ : 0; }

 private:
  bool fail() {
    ok_ = false;
    return false;
  }

  bool take(std::size_t n) {
    if (!ok_ || data_.size() - pos_ < n) return fail();
    pos_ += n;
    return true;
  }

  bool le(std::size_t n, std::uint64_t& out) {
    if (!take(n)) return false;
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < n; ++i) {
      v |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(
               data_[pos_ - n + i]))
           << (8 * i);
    }
    out = v;
    return true;
  }

  std::string_view data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

/// FNV-1a over a byte string: snapshot checksums and campaign identity
/// digests. Deterministic across platforms by construction.
inline std::uint64_t fnv1a64(std::string_view s,
                             std::uint64_t h = 1469598103934665603ull) {
  for (const char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace tspu::util
