// Checkpoint frame plumbing (see checkpoint.hpp for the format). The
// simulator-state section payloads themselves are built by
// CmpSimulator::run() / restore_checkpoint() in sim/cmp.cpp, which is where
// every piece of run state is in scope.
#include "sim/checkpoint.hpp"

#include <filesystem>

#include "common/assert.hpp"
#include "common/file.hpp"
#include "sim/reporting.hpp"

namespace ptb {

namespace {

constexpr std::size_t kFrameHeaderBytes = 4 + 4 + 8 + 8;

/// Folds `v` as little-endian bytes, whatever the host byte order.
void fnv_mix_u64(std::uint64_t& h, std::uint64_t v) {
  unsigned char le[8];
  for (int i = 0; i < 8; ++i) {
    le[i] = static_cast<unsigned char>(v >> (8 * i));
  }
  fnv_mix(h, le, sizeof(le));
}

}  // namespace

std::uint64_t checkpoint_checksum(std::string_view bytes) {
  std::uint64_t h = kFnvBasis;
  fnv_mix(h, bytes.data(), bytes.size());
  return h;
}

std::uint64_t checkpoint_fingerprint(const SimConfig& cfg,
                                     std::string_view benchmark,
                                     Cycle cycle) {
  std::uint64_t h = kFnvBasis;
  fnv_mix_u64(h, kCheckpointVersion);
  fnv_mix_u64(h, machine_fingerprint(cfg));
  fnv_mix_u64(h, cfg.seed);
  fnv_mix(h, benchmark.data(), benchmark.size());
  fnv_mix_u64(h, cycle);
  return h;
}

// ---------------------------------------------------------------------------
// CheckpointWriter
// ---------------------------------------------------------------------------

CheckpointWriter::CheckpointWriter(const CheckpointHeader& h) {
  w_.u64(h.checkpoint_fp);
  w_.u64(h.machine_fp);
  w_.u64(h.config_fp);
  w_.u64(h.seed);
  w_.u32(h.num_cores);
  w_.u64(h.cycle);
  w_.str(h.benchmark);
  count_patch_pos_ = w_.size();
  w_.u64(0);  // num_sections, patched in finish()
}

ByteWriter& CheckpointWriter::section(CkptSection tag) {
  close_section();
  const auto t = static_cast<std::uint32_t>(tag);
  PTB_ASSERTF(t > last_tag_,
              "checkpoint sections must be written in ascending tag order "
              "(%u after %u)",
              t, last_tag_);
  last_tag_ = t;
  ++num_sections_;
  w_.u32(t);
  len_patch_pos_ = w_.size();
  w_.u64(0);  // section length, patched on close
  section_start_ = w_.size();
  return w_;
}

void CheckpointWriter::close_section() {
  if (len_patch_pos_ == 0) return;
  w_.patch_u64(len_patch_pos_, w_.size() - section_start_);
  len_patch_pos_ = 0;
}

std::string CheckpointWriter::finish() {
  close_section();
  w_.patch_u64(count_patch_pos_, num_sections_);
  const std::string payload = w_.take();

  ByteWriter out;
  out.u32(kCheckpointMagic);
  out.u32(kCheckpointVersion);
  out.u64(payload.size());
  out.u64(checkpoint_checksum(payload));
  out.raw(payload.data(), payload.size());
  return out.take();
}

// ---------------------------------------------------------------------------
// CheckpointReader
// ---------------------------------------------------------------------------

bool CheckpointReader::parse(std::string_view bytes) {
  sections_.clear();
  error_.clear();
  if (bytes.size() < kFrameHeaderBytes) {
    error_ = "checkpoint shorter than its frame header";
    return false;
  }
  ByteReader hdr(bytes.substr(0, kFrameHeaderBytes));
  if (hdr.u32() != kCheckpointMagic) {
    error_ = "bad checkpoint magic (not a PTBC frame)";
    return false;
  }
  const std::uint32_t version = hdr.u32();
  if (version != kCheckpointVersion) {
    error_ = "unsupported checkpoint version " + std::to_string(version);
    return false;
  }
  const std::uint64_t len = hdr.u64();
  const std::uint64_t sum = hdr.u64();
  if (bytes.size() != kFrameHeaderBytes + len) {
    error_ = "checkpoint payload length mismatch (truncated or padded)";
    return false;
  }
  const std::string_view payload = bytes.substr(kFrameHeaderBytes);
  if (checkpoint_checksum(payload) != sum) {
    error_ = "checkpoint payload checksum mismatch (corrupt)";
    return false;
  }

  ByteReader r(payload);
  header_.checkpoint_fp = r.u64();
  header_.machine_fp = r.u64();
  header_.config_fp = r.u64();
  header_.seed = r.u64();
  header_.num_cores = r.u32();
  header_.cycle = r.u64();
  header_.benchmark = std::string(r.str());
  const std::uint64_t num_sections = r.u64();
  if (!r.ok() || num_sections > r.remaining() / 12) {  // 12 = min section
    error_ = "checkpoint header unparsable";
    return false;
  }
  for (std::uint64_t i = 0; i < num_sections; ++i) {
    const std::uint32_t tag = r.u32();
    const std::uint64_t slen = r.u64();
    if (!r.ok() || slen > r.remaining()) {
      error_ = "checkpoint section table truncated";
      return false;
    }
    const std::string_view body = r.raw(slen);
    if (!sections_.emplace(tag, body).second) {
      error_ = "duplicate checkpoint section tag " + std::to_string(tag);
      return false;
    }
  }
  if (!r.empty()) {
    error_ = "trailing bytes after checkpoint sections";
    return false;
  }
  return true;
}

std::string_view CheckpointReader::section(CkptSection tag) const {
  const auto it = sections_.find(static_cast<std::uint32_t>(tag));
  return it == sections_.end() ? std::string_view() : it->second;
}

bool CheckpointReader::has_section(CkptSection tag) const {
  return sections_.count(static_cast<std::uint32_t>(tag)) != 0;
}

// ---------------------------------------------------------------------------
// File helpers
// ---------------------------------------------------------------------------

bool save_checkpoint_file(const std::string& path, std::string_view bytes,
                          std::string* err) {
  const std::filesystem::path p(path);
  if (p.has_parent_path()) {
    std::error_code ec;
    std::filesystem::create_directories(p.parent_path(), ec);
  }
  return write_file(path, bytes, err);
}

bool load_checkpoint_file(const std::string& path, std::string& out,
                          std::string* err) {
  return read_file(path, out, err, "checkpoint");
}

}  // namespace ptb
