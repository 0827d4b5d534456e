// Lane-ownership model.
//
// A *lane* is one component's event stream plus the mutable state only
// that stream may touch. Every piece of component state has a declared
// owner, and every cross-lane effect routes through a sanctioned seam
// (net::, the hierarchy channel, ApiClient, the watch hub). kdlint
// rules R7/R8 enforce that model statically from these annotations;
// the runtime counterpart is sim::LaneChecker (src/sim/lane_checker.h).
// See LINT.md and DESIGN.md §7 for the full ownership map.
//
// Usage:
//
//   class KD_LANE_OWNED(kubelet) Kubelet { ... };   // all state owned
//   class KD_LANE_SEAM Endpoint { ... };            // sanctioned seam
//
// The macros expand to nothing; kdlint reads the macro invocation
// itself, so the model needs no build-flag coupling.
#pragma once

#include <cstdint>

namespace kd {

// Dense runtime lane id handed out by sim::LaneChecker::RegisterLane.
// 0 is "no lane": driver/test code and anything not yet attributed.
using LaneId = std::uint16_t;
inline constexpr LaneId kNoLane = 0;

}  // namespace kd

// KD_LANE_OWNED(lane): every mutable member of the annotated class is
// owned by `lane`; only events tagged with that lane may touch it.
// KD_LANE_SEAM: the annotated class is a sanctioned conduit for
// cross-lane effects (messages, API calls, watch delivery) — calls
// into it from any lane are legal by design.
#define KD_LANE_OWNED(lane)
#define KD_LANE_SEAM
