// Binary serialization for `sirius.ckpt.v1` payloads.
//
// Every checkpointed type names its state exactly once, in a member
// template
//
//   template <class Io> void fields(Io& io);
//
// that both `Writer` and `Reader` drive: `io(x)` appends `x` when writing
// and decodes into `x` when reading, so the two directions cannot drift.
// Range checks go through `io.check(cond, msg)`, a no-op when writing.
// Where reading genuinely differs (re-deriving tables, looking values up by
// name, verifying an invariant the writer only preserves) the difference
// stays inside that one function behind `if constexpr (Io::kReading)`.
//
// Contract: reading what `fields` wrote must reproduce the object so
// exactly that continuing the simulation is bit-identical to never having
// checkpointed — including RNG streams, float accumulation order and
// container iteration order. Reading must never exhibit UB on hostile
// input: every value that later indexes something is range-checked, and
// lengths the run's config fixes are checked before anything is touched.
// A failed read leaves the object safe to destroy and to read into again,
// not to run.
//
// `Reader` has sticky, bounds-checked failure semantics: the first
// malformed field latches an error message and every later read yields a
// zero value, so a whole payload can be decoded and `ok()` checked once.
//
// Modules at layer rank >= 3 (stats, cc, node, sched, ctrl, sim) own a
// `fields`; the leaf types below rank 3 (Rng, PercentileTracker,
// BinnedSeries, the telemetry registry) expose plain state accessors and
// are carried by their owners — through `via`, or by name in the
// telemetry section — which keeps the layer matrix acyclic.
//
// The format is deliberately position-based (no field names): checkpoints
// are written and read by the same binary version, and the file-level
// version byte (see checkpoint.hpp) is the compatibility gate. Section
// `tag()` markers catch writer/reader drift with a precise message.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/time.hpp"
#include "common/units.hpp"

namespace sirius::ckpt {

/// Encoded size of one `T`, the lower bound `Reader::count` checks a
/// length prefix against.
template <typename T>
constexpr std::size_t wire_size() {
  if constexpr (std::is_same_v<T, std::string>) return 8;  // length prefix
  else return sizeof(T);
}

class Writer {
 public:
  static constexpr bool kReading = false;

  void operator()(bool v) { (*this)(static_cast<std::uint8_t>(v ? 1 : 0)); }
  void operator()(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void operator()(std::uint32_t v) { append_le(v); }
  void operator()(std::uint64_t v) { append_le(v); }
  void operator()(std::int32_t v) { append_le(static_cast<std::uint32_t>(v)); }
  void operator()(std::int64_t v) { append_le(static_cast<std::uint64_t>(v)); }
  void operator()(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    append_le(bits);
  }
  void operator()(std::string_view s) {
    (*this)(static_cast<std::uint64_t>(s.size()));
    buf_.append(s.data(), s.size());
  }
  // The wire format is where strong units become raw integers.
  // sirius-lint: allow(unit-escape)
  void operator()(Time t) { (*this)(t.picoseconds()); }
  void operator()(DataSize d) { (*this)(d.in_bytes()); }  // sirius-lint: allow(unit-escape)
  void operator()(const Rng::State& st) {
    for (const std::uint64_t s : st.s) (*this)(s);
  }
  template <typename T>
  void operator()(const std::vector<T>& v, const char* /*what*/) {
    (*this)(static_cast<std::uint64_t>(v.size()));
    for (const T& x : v) (*this)(x);
  }

  /// A length-prefixed sequence whose elements `each` encodes.
  template <typename C, typename F>
  void seq(C& c, std::size_t /*elem_size*/, const char* /*what*/, F&& each) {
    (*this)(static_cast<std::uint64_t>(c.size()));
    for (auto& e : c) each(e);
  }
  /// A sequence length the run's config fixes (see Reader::length); the
  /// caller then encodes the elements.
  bool length(std::size_t n, std::size_t /*elem_size*/, const char* /*what*/,
              const char* /*mismatch*/) {
    (*this)(static_cast<std::uint64_t>(n));
    return true;
  }
  /// A vector whose length the run's config fixes (see Reader::fixed).
  template <typename T>
  void fixed(const std::vector<T>& v, const char* what,
             const char* /*mismatch*/) {
    (*this)(v, what);
  }
  /// A value the run's config fixes: travels so the reader can verify it.
  template <typename T>
  void expect(const T& v, const char* /*mismatch*/) {
    (*this)(v);
  }
  /// State held behind an accessor pair: writes the current value.
  template <typename T, typename Set, typename... What>
  void via(const T& current, Set&& /*set*/, What... what) {
    (*this)(current, what...);
  }
  /// Section marker: a 4-byte sentinel the reader asserts, so a layout
  /// mismatch reports the section name instead of silently misparsing.
  bool tag(std::uint32_t sentinel, const char* /*section*/) {
    (*this)(sentinel);
    return true;
  }

  static constexpr bool check(bool /*cond*/, const char* /*msg*/) {
    return true;
  }

  [[nodiscard]] const std::string& data() const { return buf_; }

 private:
  template <typename T>
  void append_le(T v) {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
  }

  std::string buf_;
};

class Reader {
 public:
  static constexpr bool kReading = true;

  explicit Reader(std::string_view data) : data_(data) {}

  void operator()(bool& v) {
    std::uint8_t b = 0;
    (*this)(b);
    v = b != 0;
  }
  void operator()(std::uint8_t& v) {
    v = need(1, "u8") ? static_cast<std::uint8_t>(data_[pos_++]) : 0;
  }
  void operator()(std::uint32_t& v) { v = read_le<std::uint32_t>("u32"); }
  void operator()(std::uint64_t& v) { v = read_le<std::uint64_t>("u64"); }
  void operator()(std::int32_t& v) {
    v = static_cast<std::int32_t>(read_le<std::uint32_t>("i32"));
  }
  void operator()(std::int64_t& v) {
    v = static_cast<std::int64_t>(read_le<std::uint64_t>("i64"));
  }
  void operator()(double& v) {
    const std::uint64_t bits = read_le<std::uint64_t>("f64");
    std::memcpy(&v, &bits, sizeof v);
  }
  void operator()(std::string& s) {
    std::uint64_t n = 0;
    (*this)(n);
    if (failed_ || !need(n, "string body")) {
      s.clear();
      return;
    }
    s.assign(data_.substr(pos_, static_cast<std::size_t>(n)));
    pos_ += static_cast<std::size_t>(n);
  }
  void operator()(Time& t) {
    std::int64_t ps = 0;
    (*this)(ps);
    t = Time::ps(ps);
  }
  void operator()(DataSize& d) {
    std::int64_t bytes = 0;
    (*this)(bytes);
    d = DataSize::bytes(bytes);
  }
  void operator()(Rng::State& st) {
    for (std::uint64_t& s : st.s) (*this)(s);
  }
  template <typename T>
  void operator()(std::vector<T>& v, const char* what) {
    seq(v, wire_size<T>(), what, [this](T& x) { (*this)(x); });
  }

  /// Reads a length prefix (rejecting lengths the remaining payload cannot
  /// hold at `elem_size` bytes each), resizes `c` and decodes each element
  /// with `each`.
  template <typename C, typename F>
  void seq(C& c, std::size_t elem_size, const char* what, F&& each) {
    const std::size_t n = count(elem_size, what);
    if (failed_) return;
    c.clear();
    c.resize(n);
    for (auto& e : c) {
      if (failed_) return;
      each(e);
    }
  }
  /// Reads the length of a sequence whose length the run's config fixes
  /// at `n`: any other stored length fails with `mismatch`, so the caller's
  /// container is never resized. The caller then decodes the elements.
  bool length(std::size_t n, std::size_t elem_size, const char* what,
              const char* mismatch) {
    if (count(elem_size, what) != n) fail(mismatch);
    return ok();
  }
  /// A vector whose length the run's config fixes (see length()).
  template <typename T>
  void fixed(std::vector<T>& v, const char* what, const char* mismatch) {
    if (!length(v.size(), wire_size<T>(), what, mismatch)) return;
    for (T& x : v) (*this)(x);
  }
  /// Reads a value the run's config fixes; fails with `mismatch` unless it
  /// equals `v`, which is left untouched.
  template <typename T>
  void expect(const T& v, const char* mismatch) {
    T got{};
    (*this)(got);
    if (!failed_ && !(got == v)) fail(mismatch);
  }
  /// State held behind an accessor pair: decodes a replacement and hands
  /// it to `set`.
  template <typename T, typename Set, typename... What>
  void via(const T& /*current*/, Set&& set, What... what) {
    T v{};
    (*this)(v, what...);
    if (!failed_) set(std::move(v));
  }
  /// Asserts the next 4 bytes are `sentinel`; on mismatch latches an error
  /// naming `section`.
  bool tag(std::uint32_t sentinel, const char* section) {
    std::uint32_t got = 0;
    (*this)(got);
    if (!failed_ && got != sentinel) {
      fail(std::string("section marker mismatch at '") + section +
           "' (layout drift or corrupt payload)");
    }
    return ok();
  }

  /// Latches `msg` unless `cond` holds (or an earlier error already won).
  bool check(bool cond, const char* msg) {
    if (!cond) fail(msg);
    return ok();
  }

  /// Reads a `u64` element count, rejecting counts that cannot fit in the
  /// remaining bytes (`elem_size` bytes each) — a hostile length prefix must
  /// not drive a multi-gigabyte allocation.
  [[nodiscard]] std::size_t count(std::size_t elem_size, const char* what) {
    std::uint64_t n = 0;
    (*this)(n);
    if (failed_) return 0;
    const std::size_t min_bytes =
        static_cast<std::size_t>(n) * (elem_size > 0 ? elem_size : 1);
    if (n > remaining() || min_bytes > remaining()) {
      fail(std::string("element count for '") + what +
           "' exceeds remaining payload (truncated or corrupt)");
      return 0;
    }
    return static_cast<std::size_t>(n);
  }

  /// Latches a semantic failure discovered by the caller (e.g. a value out
  /// of its legal range) so it reports through the same channel.
  void fail(std::string message) {
    if (failed_) return;  // first error wins
    failed_ = true;
    error_ = std::move(message);
  }

  [[nodiscard]] bool ok() const { return !failed_; }
  [[nodiscard]] const std::string& error() const { return error_; }
  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
  /// The payload must be fully consumed: trailing bytes mean layout drift.
  bool expect_end() {
    if (!failed_ && remaining() != 0) {
      fail("trailing bytes after final section (layout drift or corrupt "
           "payload)");
    }
    return ok();
  }

 private:
  bool need(std::uint64_t n, const char* what) {
    if (failed_) return false;
    if (n > remaining()) {
      fail(std::string("payload truncated while reading ") + what);
      return false;
    }
    return true;
  }
  template <typename T>
  T read_le(const char* what) {
    if (!need(sizeof(T), what)) return 0;
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(static_cast<std::uint8_t>(data_[pos_ + i]))
           << (8 * i);
    }
    pos_ += sizeof(T);
    return v;
  }

  std::string_view data_;
  std::size_t pos_ = 0;
  bool failed_ = false;
  std::string error_;
};

}  // namespace sirius::ckpt
