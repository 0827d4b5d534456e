// How fast the host runs right now, from a fixed piece of work that
// uses none of the simulator's code.
//
// On a shared VM the speed of the host drifts by ±20% over tens of
// seconds, as other tenants come and go, and every host time drifts
// with it. perfbench times ReferenceSeconds() every half second during
// each replay; dividing each segment of the replay by the median of the
// reference times taken nearest to it, and multiplying by
// kReferenceNominalS, gives the replay's host time at one fixed host
// speed. A change to the simulator moves the replay and not the
// reference, so it still shows in full.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace kd::perfbench {

// Median ReferenceSeconds() between replay segments on a 4-vCPU VM
// (GCC 12.2, RelWithDebInfo): normalized times read as seconds there.
constexpr double kReferenceNominalS = 0.017;

// The kinds of work the simulator's event bodies do: string-keyed map
// inserts and lookups, small allocations, a sort, and dependent loads
// spread over 4 MiB. About 17 ms between replay segments.
inline double ReferenceSeconds() {
  const auto t0 = std::chrono::steady_clock::now();
  std::map<std::string, std::uint32_t> objects;
  char key[32];
  for (std::uint32_t i = 0; i < 5000; ++i) {
    std::snprintf(key, sizeof key, "Pod/fn-%05u-v1", (i * 7919u) % 5000u);
    objects[key] += i;
  }
  std::uint32_t sum = 0;
  for (std::uint32_t i = 0; i < 5000; ++i) {
    std::snprintf(key, sizeof key, "Pod/fn-%05u-v1", i);
    sum += objects[key];
  }
  std::vector<std::uint32_t> values(50'000);
  std::uint32_t x = 1;
  for (std::uint32_t& v : values) {
    x = x * 1664525u + 1013904223u;
    v = x;
  }
  std::sort(values.begin(), values.end());
  constexpr std::uint32_t kMask = (1u << 20) - 1;
  std::vector<std::uint32_t> next(kMask + 1);
  for (std::uint32_t i = 0; i <= kMask; ++i) {
    next[i] = (i * 2654435761u) & kMask;
  }
  std::uint32_t p = values[values.size() / 2] & kMask;
  for (std::uint32_t i = 0; i < 75'000; ++i) p = (next[p] + i) & kMask;
  static volatile std::uint32_t sink;
  sink = sum + p;
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace kd::perfbench
