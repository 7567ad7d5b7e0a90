// Renders a campaign checkpoint snapshot (runner/checkpoint.h) as text:
// header fields, progress, and per-section blob accounting. The blobs
// themselves are campaign-specific codec payloads and stay opaque here —
// this tool answers "is this snapshot sane, whose is it, and how far did
// the campaign get", not "what did trial 17 measure".
//
// Usage: ckpt2txt <snapshot> [--blobs]
//   --blobs   additionally list every result blob's index and size
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <numeric>
#include <string>

#include "runner/checkpoint.h"

namespace {

std::uint64_t total_bytes(const std::vector<std::string>& blobs) {
  return std::accumulate(blobs.begin(), blobs.end(), std::uint64_t{0},
                         [](std::uint64_t acc, const std::string& b) {
                           return acc + b.size();
                         });
}

}  // namespace

int main(int argc, char** argv) {
  std::string path;
  bool list_blobs = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--blobs") == 0) {
      list_blobs = true;
    } else if (path.empty()) {
      path = argv[i];
    } else {
      std::fprintf(stderr, "usage: ckpt2txt <snapshot> [--blobs]\n");
      return 2;
    }
  }
  if (path.empty()) {
    std::fprintf(stderr, "usage: ckpt2txt <snapshot> [--blobs]\n");
    return 2;
  }

  const auto snap = tspu::runner::read_snapshot(path);
  if (!snap) {
    std::fprintf(stderr,
                 "ckpt2txt: %s: missing or corrupt snapshot (bad magic, "
                 "version, length, or checksum)\n",
                 path.c_str());
    return 1;
  }

  std::printf("snapshot        %s\n", path.c_str());
  std::printf("identity        %016" PRIx64 "\n", snap->identity);
  std::printf("items           %" PRIu64 " / %" PRIu64 " completed",
              snap->next_index, snap->n_items);
  if (snap->n_items != 0) {
    std::printf("  (%.1f%%)", 100.0 * static_cast<double>(snap->next_index) /
                                  static_cast<double>(snap->n_items));
  }
  std::printf("\n");
  std::printf("shard_count     %u\n", snap->shard_count);

  std::uint64_t result_bytes = 0;
  for (const auto& [index, blob] : snap->results) result_bytes += blob.size();
  std::printf("results         %zu blob(s), %" PRIu64 " byte(s)\n",
              snap->results.size(), result_bytes);
  std::printf("recorder blobs  %zu blob(s), %" PRIu64 " byte(s)\n",
              snap->recorder_blobs.size(), total_bytes(snap->recorder_blobs));
  // More recorder blobs than shards means inherited generations: this
  // snapshot was itself written by a resumed campaign.
  if (snap->recorder_blobs.size() > snap->shard_count) {
    std::printf("generations     resumed campaign (%zu inherited recorder "
                "blob(s))\n",
                snap->recorder_blobs.size() - snap->shard_count);
  }

  if (list_blobs) {
    for (const auto& [index, blob] : snap->results) {
      std::printf("  result[%" PRIu64 "]  %zu byte(s)\n", index, blob.size());
    }
  }
  return 0;
}
