#include "common.hpp"

#include <sys/mman.h>
#include <sys/resource.h>
#include <unistd.h>

#include <bit>
#include <cstdio>
#include <cstdlib>

namespace perfbench {

void fill_bytes(std::span<std::byte> out, std::uint64_t key) {
  std::uint64_t x = mix64(key);
  std::size_t i = 0;
  for (; i + 8 <= out.size(); i += 8) {
    x = mix64(x);
    std::memcpy(out.data() + i, &x, 8);
  }
  x = mix64(x);
  for (; i < out.size(); ++i, x >>= 8) {
    out[i] = static_cast<std::byte>(x & 0xff);
  }
}

std::uint64_t checksum(std::span<const std::byte> data) {
  constexpr std::uint64_t kMul = 0x9e3779b97f4a7c15ULL;
  std::uint64_t h = 0x243f6a8885a308d3ULL ^ data.size();
  std::size_t i = 0;
  for (; i + 8 <= data.size(); i += 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, data.data() + i, 8);
    h = std::rotl((h ^ word) * kMul, 29);
  }
  std::uint64_t tail = 0;
  std::memcpy(&tail, data.data() + i, data.size() - i);
  return mix64(std::rotl((h ^ tail) * kMul, 29));
}

namespace {
// Keeps the probe's work observable, so that it cannot be optimised away.
volatile std::uint64_t probe_sink;

/// A fresh anonymous mapping of `bytes`, taken straight from the kernel:
/// the probe must leave malloc's state (its heap, its mmap threshold) as it
/// found it, or it would change how the round after it allocates.
std::span<std::byte> map_fresh(std::size_t bytes) {
  void* p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) std::abort();
  return {static_cast<std::byte*>(p), bytes};
}
}  // namespace

double probe_host_s() {
  const double t0 = host_now_s();
  const std::span<std::byte> source = map_fresh(4 << 20);
  std::uint64_t sum = 0;
  for (std::uint64_t k = 0; k < 3; ++k) {
    fill_bytes(source, k);
    sum ^= checksum(source);
    const std::span<std::byte> copy = map_fresh(1 << 20);
    std::memcpy(copy.data(), source.data(), copy.size());
    sum ^= checksum(copy);
    munmap(copy.data(), copy.size());
  }
  munmap(source.data(), source.size());
  const double t1 = host_now_s();
  probe_sink = sum;
  return t1 - t0;
}

double current_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0.0;
  unsigned long size = 0, resident = 0;
  const int read = std::fscanf(f, "%lu %lu", &size, &resident);
  std::fclose(f);
  if (read != 2) return 0.0;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / 1e6;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;  // KiB
}

const char* span_name(SpanKind kind) {
  switch (kind) {
    case SpanKind::kSetup: return "setup";
    case SpanKind::kSession: return "session";
    case SpanKind::kVChannel: return "vchannel";
    case SpanKind::kPm2World: return "pm2_world";
    case SpanKind::kFibers: return "fibers";
    case SpanKind::kRpc: return "rpc";
    case SpanKind::kService: return "service";
    case SpanKind::kMessage: return "message";
    case SpanKind::kPack: return "pack";
    case SpanKind::kRecvWait: return "recv_wait";
    case SpanKind::kUnpack: return "unpack";
    case SpanKind::kCount: break;
  }
  return "?";
}

}  // namespace perfbench
