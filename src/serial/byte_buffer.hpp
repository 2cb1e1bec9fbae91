// Byte-level serialization for agent state and message payloads.
//
// Agents migrate by round-tripping their state through these buffers, the
// same way a Java agent platform serializes an object graph — so migration
// cost can be charged per byte and state that fails to round-trip is caught
// immediately. Encoding: little-endian fixed width for floats, LEB128
// varints for integers, length-prefixed containers.
#pragma once

#include <cstdint>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "util/assert.hpp"

namespace marp::serial {

using Bytes = std::vector<std::uint8_t>;

/// Thrown when a reader runs past the end of its buffer or sees malformed
/// data. Inside the simulator this indicates a serialize/deserialize
/// mismatch (a real bug); on the socket substrate it is the normal rejection
/// path for truncated or corrupted frames, so callers at the wire boundary
/// catch it and drop the frame instead of corrupting agent rehydration.
class DecodeError : public std::runtime_error {
 public:
  explicit DecodeError(const std::string& what) : std::runtime_error(what) {}
};

/// The buffer ended before the announced data did (short read / truncated
/// frame). Every Reader accessor is bounds-checked; none silently zero-fill.
class TruncatedError : public DecodeError {
 public:
  explicit TruncatedError(const std::string& what) : DecodeError(what) {}
};

/// The bytes are structurally impossible (overlong varint, a length prefix
/// announcing more elements than the buffer could possibly hold).
class MalformedError : public DecodeError {
 public:
  explicit MalformedError(const std::string& what) : DecodeError(what) {}
};

/// Zig-zag maps signed to unsigned so small negatives stay small varints.
constexpr std::uint64_t zigzag_encode(std::int64_t v) noexcept {
  return (static_cast<std::uint64_t>(v) << 1) ^ static_cast<std::uint64_t>(v >> 63);
}
constexpr std::int64_t zigzag_decode(std::uint64_t v) noexcept {
  return static_cast<std::int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

class Writer {
 public:
  Writer() = default;

  const Bytes& bytes() const noexcept { return buffer_; }
  Bytes take() noexcept { return std::move(buffer_); }
  std::size_t size() const noexcept { return buffer_.size(); }

  void u8(std::uint8_t v) { buffer_.push_back(v); }
  void boolean(bool v) { u8(v ? 1 : 0); }

  // Fixed-width little-endian writes (wire frame headers want fixed offsets,
  // not varints, so a peer can parse the header before trusting the body).
  void u16le(std::uint16_t v) {
    for (int i = 0; i < 2; ++i) buffer_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void u32le(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) buffer_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void u64le(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) buffer_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }

  /// Unsigned LEB128.
  void varint(std::uint64_t v) {
    while (v >= 0x80) {
      buffer_.push_back(static_cast<std::uint8_t>(v) | 0x80);
      v >>= 7;
    }
    buffer_.push_back(static_cast<std::uint8_t>(v));
  }

  void svarint(std::int64_t v) { varint(zigzag_encode(v)); }

  void f64(double v) {
    static_assert(sizeof(double) == 8);
    std::uint64_t bits;
    std::memcpy(&bits, &v, 8);
    for (int i = 0; i < 8; ++i) buffer_.push_back(static_cast<std::uint8_t>(bits >> (8 * i)));
  }

  void str(std::string_view s) {
    varint(s.size());
    buffer_.insert(buffer_.end(), s.begin(), s.end());
  }

  void raw(const Bytes& b) {
    varint(b.size());
    buffer_.insert(buffer_.end(), b.begin(), b.end());
  }

  /// A length-prefixed block — the same bytes raw() writes — whose contents
  /// `body` writes straight into this buffer: no second buffer, no copy.
  /// The varint length goes in front afterwards. Two bytes are set aside
  /// for it (blocks of 128 B to 16 KiB, such as most agent states); any
  /// other length costs one shift of the block.
  template <typename Fn>
  void nested(Fn&& body) {
    constexpr std::size_t guess = 2;
    const std::size_t at = buffer_.size();
    buffer_.resize(at + guess);
    body(*this);
    std::uint64_t n = buffer_.size() - at - guess;
    std::uint8_t prefix[10];
    std::size_t width = 0;
    do {
      prefix[width] = static_cast<std::uint8_t>(n & 0x7F);
      n >>= 7;
      if (n != 0) prefix[width] |= 0x80;
      ++width;
    } while (n != 0);
    const auto gap = buffer_.begin() + static_cast<std::ptrdiff_t>(at);
    if (width > guess) {
      buffer_.insert(gap, width - guess, 0);
    } else if (width < guess) {
      buffer_.erase(gap, gap + static_cast<std::ptrdiff_t>(guess - width));
    }
    std::memcpy(buffer_.data() + at, prefix, width);
  }

  template <typename T, typename Fn>
  void seq(const std::vector<T>& v, Fn&& write_elem) {
    varint(v.size());
    for (const auto& e : v) write_elem(*this, e);
  }

  template <typename K, typename V, typename FnK, typename FnV>
  void map(const std::map<K, V>& m, FnK&& write_key, FnV&& write_value) {
    varint(m.size());
    for (const auto& [k, v] : m) {
      write_key(*this, k);
      write_value(*this, v);
    }
  }

  template <typename T, typename Fn>
  void optional(const std::optional<T>& o, Fn&& write_elem) {
    boolean(o.has_value());
    if (o) write_elem(*this, *o);
  }

 private:
  Bytes buffer_;
};

class Reader {
 public:
  explicit Reader(const Bytes& buffer) noexcept : data_(buffer.data()), size_(buffer.size()) {}
  Reader(const std::uint8_t* data, std::size_t size) noexcept : data_(data), size_(size) {}

  std::size_t remaining() const noexcept { return size_ - pos_; }
  std::size_t position() const noexcept { return pos_; }
  bool at_end() const noexcept { return pos_ == size_; }

  std::uint8_t u8() {
    need(1);
    return data_[pos_++];
  }

  bool boolean() { return u8() != 0; }

  std::uint16_t u16le() { return static_cast<std::uint16_t>(fixed_le(2)); }
  std::uint32_t u32le() { return static_cast<std::uint32_t>(fixed_le(4)); }
  std::uint64_t u64le() { return fixed_le(8); }

  std::uint64_t varint() {
    std::uint64_t v = 0;
    int shift = 0;
    for (;;) {
      if (shift >= 64) throw MalformedError("varint too long");
      const std::uint8_t byte = u8();
      v |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
      if ((byte & 0x80) == 0) break;
      shift += 7;
    }
    return v;
  }

  /// Length prefix for a container whose elements occupy at least
  /// `min_elem_bytes` each on the wire. Rejects prefixes that announce more
  /// data than the buffer holds *before* any allocation happens, so a
  /// malicious 2^60-element header cannot drive a giant reserve().
  std::uint64_t length_prefix(std::size_t min_elem_bytes = 1) {
    const std::uint64_t n = varint();
    if (min_elem_bytes != 0 && n > remaining() / min_elem_bytes) {
      throw MalformedError("length prefix exceeds buffer");
    }
    return n;
  }

  std::int64_t svarint() { return zigzag_decode(varint()); }

  double f64() {
    need(8);
    std::uint64_t bits = 0;
    for (int i = 0; i < 8; ++i) bits |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
    pos_ += 8;
    double v;
    std::memcpy(&v, &bits, 8);
    return v;
  }

  std::string str() {
    const std::uint64_t n = varint();
    need(n);
    std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return s;
  }

  Bytes raw() {
    const std::uint64_t n = varint();
    need(n);
    Bytes b(data_ + pos_, data_ + pos_ + n);
    pos_ += n;
    return b;
  }

  /// The next length-prefixed block (as written by raw() or nested()) as a
  /// reader over the same bytes, in place; this reader skips past it.
  Reader nested() {
    const std::uint64_t n = varint();
    need(n);
    Reader inner(data_ + pos_, static_cast<std::size_t>(n));
    pos_ += static_cast<std::size_t>(n);
    return inner;
  }

  template <typename T, typename Fn>
  std::vector<T> seq(Fn&& read_elem) {
    const std::uint64_t n = length_prefix();
    std::vector<T> v;
    v.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) v.push_back(read_elem(*this));
    return v;
  }

  template <typename K, typename V, typename FnK, typename FnV>
  std::map<K, V> map(FnK&& read_key, FnV&& read_value) {
    const std::uint64_t n = length_prefix(2);  // a key and a value ≥ 1 byte each
    std::map<K, V> m;
    for (std::uint64_t i = 0; i < n; ++i) {
      K k = read_key(*this);
      V v = read_value(*this);
      m.emplace(std::move(k), std::move(v));
    }
    return m;
  }

  template <typename T, typename Fn>
  std::optional<T> optional(Fn&& read_elem) {
    if (!boolean()) return std::nullopt;
    return read_elem(*this);
  }

 private:
  void need(std::uint64_t n) const {
    if (n > remaining()) throw TruncatedError("read past end of buffer");
  }

  std::uint64_t fixed_le(int bytes) {
    need(static_cast<std::uint64_t>(bytes));
    std::uint64_t v = 0;
    for (int i = 0; i < bytes; ++i) {
      v |= static_cast<std::uint64_t>(data_[pos_ + static_cast<std::size_t>(i)]) << (8 * i);
    }
    pos_ += static_cast<std::size_t>(bytes);
    return v;
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

}  // namespace marp::serial
