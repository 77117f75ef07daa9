#include "ckpt/checkpoint.hpp"

#include <array>

#include "ckpt/io.hpp"
#include "common/atomic_file.hpp"

namespace sirius::ckpt {

namespace {

constexpr std::string_view kMagic = "SIRCKPT\n";
constexpr std::size_t kHeaderSize = 8 + 4 + 8 + 4;

// frame/CellCodec has its own CRC-32 but sits at the same layer rank, so
// the checkpoint framing keeps an independent table (same polynomial).
std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) != 0 ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

}  // namespace

std::uint32_t crc32(std::string_view data) {
  static const auto table = make_crc_table();
  std::uint32_t c = 0xffffffffu;
  for (const char ch : data) {
    c = table[(c ^ static_cast<std::uint8_t>(ch)) & 0xffu] ^ (c >> 8);
  }
  return c ^ 0xffffffffu;
}

std::string frame(std::string_view payload) {
  Writer w;
  for (const char ch : kMagic) w(static_cast<std::uint8_t>(ch));
  w(kVersion);
  w(static_cast<std::uint64_t>(payload.size()));
  w(crc32(payload));
  std::string out = w.data();
  out.append(payload.data(), payload.size());
  return out;
}

LoadResult parse(std::string_view file_bytes) {
  LoadResult r;
  if (file_bytes.empty()) {
    r.status = LoadStatus::kEmptyFile;
    r.message = "checkpoint is empty (0 bytes); expected a " +
                std::string(kSchema) + " file";
    return r;
  }
  if (file_bytes.size() < kHeaderSize) {
    r.status = LoadStatus::kTruncatedHeader;
    r.message = "checkpoint header truncated: " +
                std::to_string(file_bytes.size()) + " bytes, need " +
                std::to_string(kHeaderSize);
    return r;
  }
  if (file_bytes.substr(0, kMagic.size()) != kMagic) {
    r.status = LoadStatus::kBadMagic;
    r.message = "bad magic: not a " + std::string(kSchema) + " checkpoint";
    return r;
  }
  Reader hdr(file_bytes.substr(kMagic.size(), kHeaderSize - kMagic.size()));
  std::uint32_t version = 0;
  std::uint64_t payload_len = 0;
  std::uint32_t stored_crc = 0;
  hdr(version);
  hdr(payload_len);
  hdr(stored_crc);
  if (version != kVersion) {
    r.status = LoadStatus::kBadVersion;
    r.message = "unsupported checkpoint version " + std::to_string(version) +
                " (this build reads version " + std::to_string(kVersion) +
                ")";
    return r;
  }
  const std::string_view payload = file_bytes.substr(kHeaderSize);
  if (payload.size() != payload_len) {
    r.status = LoadStatus::kTruncatedPayload;
    r.message = "checkpoint payload truncated: header promises " +
                std::to_string(payload_len) + " bytes, file holds " +
                std::to_string(payload.size());
    return r;
  }
  const std::uint32_t actual_crc = crc32(payload);
  if (actual_crc != stored_crc) {
    r.status = LoadStatus::kCrcMismatch;
    r.message = "checkpoint CRC mismatch (stored " +
                std::to_string(stored_crc) + ", computed " +
                std::to_string(actual_crc) + "): file is corrupt";
    return r;
  }
  r.status = LoadStatus::kOk;
  r.payload.assign(payload.data(), payload.size());
  return r;
}

bool save(const std::filesystem::path& path, std::string_view payload,
          std::string* error) {
  return write_file_atomic(path, frame(payload), error);
}

LoadResult load(const std::filesystem::path& path) {
  std::string bytes;
  std::string error;
  if (!read_file(path, &bytes, &error)) {
    LoadResult r;
    r.status = LoadStatus::kIoError;
    r.message = error;
    return r;
  }
  return parse(bytes);
}

}  // namespace sirius::ckpt
