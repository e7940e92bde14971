// Byte-stable little-endian (de)serialization primitives, shared by the
// trace subsystem, the disk run-cache and the checkpoint plane, plus the
// one FNV-1a hash behind every config fingerprint, run key and frame
// checksum.
//
// Contract (the trace-frame idiom, generalized):
//   - every field is written byte-by-byte, never as a struct (padding bytes
//     are indeterminate) — equal logical state serializes to equal bytes on
//     every platform;
//   - the reader is bounds-checked and never throws: any underflow or
//     implausible length flips a sticky ok() flag and yields zeros, so a
//     truncated or bit-flipped buffer is rejected, not UB (the checkpoint
//     fault-injection tests drive this path deliberately);
//   - vector lengths are sanity-checked against the bytes remaining before
//     allocating, so corrupt frames cannot trigger pathological allocations.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace ptb {

/// FNV-1a 64-bit offset basis: the starting state of every hash below.
inline constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ull;

/// Folds `n` bytes into the FNV-1a state `h`, in order.
inline void fnv_mix(std::uint64_t& h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;  // FNV-1a 64-bit prime
  }
}

/// Folds the host-order bytes of one field. Hash field by field, never a
/// struct at once: padding bytes are indeterminate.
template <typename T>
void fnv_mix_value(std::uint64_t& h, const T& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  fnv_mix(h, &v, sizeof(v));
}

class ByteWriter {
 public:
  void u8(std::uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i)
      out_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i)
      out_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void f32(float v) { u32(std::bit_cast<std::uint32_t>(v)); }
  void boolean(bool v) { u8(v ? 1 : 0); }
  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    out_.append(s.data(), s.size());
  }
  void raw(const void* p, std::size_t n) {
    out_.append(static_cast<const char*>(p), n);
  }

  void u8_vec(const std::vector<std::uint8_t>& v) {
    u64(v.size());
    for (const std::uint8_t x : v) u8(x);
  }
  void u32_vec(const std::vector<std::uint32_t>& v) {
    u64(v.size());
    for (const std::uint32_t x : v) u32(x);
  }
  void u64_vec(const std::vector<std::uint64_t>& v) {
    u64(v.size());
    for (const std::uint64_t x : v) u64(x);
  }
  void f64_vec(const std::vector<double>& v) {
    u64(v.size());
    for (const double x : v) f64(x);
  }

  std::size_t size() const { return out_.size(); }
  /// Overwrites 8 bytes at `pos` (section length back-patching).
  void patch_u64(std::size_t pos, std::uint64_t v) {
    for (int i = 0; i < 8; ++i)
      out_[pos + static_cast<std::size_t>(i)] =
          static_cast<char>((v >> (8 * i)) & 0xff);
  }

  const std::string& data() const { return out_; }
  std::string take() { return std::move(out_); }

 private:
  std::string out_;
};

class ByteReader {
 public:
  explicit ByteReader(std::string_view buf) : buf_(buf) {}

  std::uint8_t u8() {
    if (!need(1)) return 0;
    return static_cast<std::uint8_t>(buf_[pos_++]);
  }
  std::uint32_t u32() {
    if (!need(4)) return 0;
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
      v |= static_cast<std::uint32_t>(
               static_cast<std::uint8_t>(buf_[pos_ + i]))
           << (8 * i);
    pos_ += 4;
    return v;
  }
  std::uint64_t u64() {
    if (!need(8)) return 0;
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
      v |= static_cast<std::uint64_t>(
               static_cast<std::uint8_t>(buf_[pos_ + i]))
           << (8 * i);
    pos_ += 8;
    return v;
  }
  double f64() { return std::bit_cast<double>(u64()); }
  float f32() { return std::bit_cast<float>(u32()); }
  bool boolean() { return u8() != 0; }
  std::string str() {
    const std::uint32_t n = u32();
    if (!need(n)) return {};
    std::string s(buf_.substr(pos_, n));
    pos_ += n;
    return s;
  }
  /// Detaches the next `n` raw bytes (section payloads).
  std::string_view raw(std::size_t n) {
    if (!need(n)) return {};
    const std::string_view s = buf_.substr(pos_, n);
    pos_ += n;
    return s;
  }

  void u8_vec(std::vector<std::uint8_t>& v) {
    const std::uint64_t n = len(1);
    v.assign(n, 0);
    for (auto& x : v) x = u8();
  }
  void u32_vec(std::vector<std::uint32_t>& v) {
    const std::uint64_t n = len(4);
    v.assign(n, 0);
    for (auto& x : v) x = u32();
  }
  void u64_vec(std::vector<std::uint64_t>& v) {
    const std::uint64_t n = len(8);
    v.assign(n, 0);
    for (auto& x : v) x = u64();
  }
  void f64_vec(std::vector<double>& v) {
    const std::uint64_t n = len(8);
    v.assign(n, 0.0);
    for (auto& x : v) x = f64();
  }

  bool ok() const { return ok_; }
  void fail() { ok_ = false; }
  std::size_t remaining() const { return buf_.size() - pos_; }
  bool empty() const { return pos_ == buf_.size(); }

 private:
  bool need(std::size_t n) {
    if (!ok_ || buf_.size() - pos_ < n) {
      ok_ = false;
      return false;
    }
    return true;
  }
  /// Reads an element count and rejects counts that cannot fit in the
  /// remaining bytes at `elem_bytes` apiece (corrupt-length defense).
  std::uint64_t len(std::size_t elem_bytes) {
    const std::uint64_t n = u64();
    if (!ok_ || n > remaining() / elem_bytes) {
      ok_ = false;
      return 0;
    }
    return n;
  }

  std::string_view buf_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace ptb
