#include "runner/checkpoint.h"

#include <csignal>
#include <cstdio>

namespace tspu::runner {
namespace {

// 'TCKP' — TSPU checkpoint. Little-endian on the wire like every
// StateWriter integer.
constexpr std::uint32_t kMagic = 0x504b4354u;
constexpr std::uint32_t kVersion = 2;

// SIGTERM latch. sig_atomic_t + volatile is the only state a strictly
// conforming handler may touch; the wave barrier polls it, so the handler
// itself never does I/O.
volatile std::sig_atomic_t g_sigterm_latch = 0;

void sigterm_handler(int) { g_sigterm_latch = 1; }

}  // namespace

void install_sigterm_checkpoint() {
  std::signal(SIGTERM, &sigterm_handler);
}

bool sigterm_requested() { return g_sigterm_latch != 0; }

void reset_sigterm_for_testing() { g_sigterm_latch = 0; }

bool write_snapshot(const std::string& path, const Snapshot& snapshot) {
  util::StateWriter body;
  body.u64(snapshot.identity);
  body.u64(snapshot.n_items);
  body.u64(snapshot.next_index);
  body.u32(snapshot.shard_count);
  body.u32(static_cast<std::uint32_t>(snapshot.results.size()));
  for (const auto& [index, blob] : snapshot.results) {
    body.u64(index);
    body.str(blob);
  }
  body.u32(static_cast<std::uint32_t>(snapshot.recorder_blobs.size()));
  for (const std::string& blob : snapshot.recorder_blobs) body.str(blob);

  util::StateWriter image;
  image.u32(kMagic);
  image.u32(kVersion);
  image.u32(static_cast<std::uint32_t>(body.size()));
  image.u64(util::fnv1a64(body.data()));
  const std::string file = std::string(image.data()) + std::string(body.data());

  // Atomic publication: a crash mid-write leaves only the .tmp behind and
  // the previous snapshot (if any) intact; rename() swaps whole files.
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return false;
  const bool wrote =
      std::fwrite(file.data(), 1, file.size(), f) == file.size();
  const bool closed = std::fclose(f) == 0;
  if (!wrote || !closed) {
    std::remove(tmp.c_str());
    return false;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

std::optional<Snapshot> read_snapshot(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return std::nullopt;
  std::string file;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) file.append(buf, n);
  std::fclose(f);

  util::StateReader header(file);
  std::uint32_t magic = 0, version = 0, body_len = 0;
  std::uint64_t checksum = 0;
  if (!header.u32(magic) || !header.u32(version) || !header.u32(body_len) ||
      !header.u64(checksum)) {
    return std::nullopt;
  }
  if (magic != kMagic || version != kVersion) return std::nullopt;
  if (header.remaining() != body_len) return std::nullopt;
  const std::string_view body_bytes =
      std::string_view(file).substr(file.size() - body_len);
  if (util::fnv1a64(body_bytes) != checksum) return std::nullopt;

  util::StateReader body(body_bytes);
  Snapshot snap;
  std::uint32_t n_results = 0;
  if (!body.u64(snap.identity) || !body.u64(snap.n_items) ||
      !body.u64(snap.next_index) || !body.u32(snap.shard_count) ||
      !body.u32(n_results)) {
    return std::nullopt;
  }
  // Element floor of 12 bytes (u64 index + empty str) bounds reserve() on
  // hostile counts before any allocation happens.
  if (n_results > body.remaining() / 12) return std::nullopt;
  snap.results.reserve(n_results);
  for (std::uint32_t i = 0; i < n_results; ++i) {
    std::uint64_t index = 0;
    std::string blob;
    if (!body.u64(index) || !body.str(blob)) return std::nullopt;
    snap.results.emplace_back(index, std::move(blob));
  }
  std::uint32_t n_recorders = 0;
  if (!body.u32(n_recorders)) return std::nullopt;
  // Element floor of 4 bytes (an empty str) bounds reserve() likewise.
  if (n_recorders > body.remaining() / 4) return std::nullopt;
  snap.recorder_blobs.reserve(n_recorders);
  for (std::uint32_t i = 0; i < n_recorders; ++i) {
    std::string blob;
    if (!body.str(blob)) return std::nullopt;
    snap.recorder_blobs.push_back(std::move(blob));
  }
  if (!body.done()) return std::nullopt;
  return snap;
}

}  // namespace tspu::runner
