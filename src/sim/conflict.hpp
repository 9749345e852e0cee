// Cross-shard write detector (the CROUPIER_CONFLICT_CHECK build option).
//
// The parallel engine's byte-identity contract rests on a convention the
// type system cannot see: a node-affine event handler may only mutate
// state owned by its own node; every cross-node effect must route
// through Simulator::defer so the serial replay runs it in the
// sequential order. detlint bans the *constructs* that violate this;
// the conflict checker catches the *executions*. It is a determinism-
// specific race detector: two same-batch writes to the same node's state
// from events of different nodes are data-race-free under TSan (the batch barrier
// orders them), yet their relative order is a scheduling accident — the
// exact class of bug TSan calls clean and a twin run only catches if the
// orders happen to diverge.
//
// Mechanics: ParallelExecutor::run_buckets brackets every batched event
// with begin_shard_event(affinity)/end_shard_event (thread-local, no
// synchronization). Mutation paths of per-node state — a node's NAT box
// and reassembly buffers in the Network, a protocol's PartialView, the
// World's per-node runtime — call record_write(owner) with the id of
// the node that owns the state. A write whose owner differs from the
// executing event's affinity aborts with a diagnostic; owner 0 means
// "unowned" (detached test fixtures) and is never checked.
//
// With the option OFF (the default) every hook is an empty inline and
// release hot paths are untouched.
#pragma once

#include <cstdint>

namespace croupier::sim::conflict {

#if defined(CROUPIER_CONFLICT_CHECK)

/// Marks the calling thread as executing a batched node-affine event
/// owned by `affinity` (a node id; never kSerialAffinity — serial events
/// are barriers and never enter a shard).
void begin_shard_event(std::uint64_t affinity);
void end_shard_event();

/// Declares a mutation of state owned by node `owner`. Aborts when a
/// shard event is active on this thread and `owner` differs from the
/// executing event's affinity. `site` names the state for diagnostics.
/// owner == 0 (unowned) is skipped.
void record_write(std::uint64_t owner, const char* site);

/// Writes validated inside parallel batches since process start (tests
/// assert this is nonzero to prove the instrumentation was live).
std::uint64_t checked_writes();

constexpr bool enabled() { return true; }

#else

inline void begin_shard_event(std::uint64_t) {}
inline void end_shard_event() {}
inline void record_write(std::uint64_t, const char*) {}
inline std::uint64_t checked_writes() { return 0; }
constexpr bool enabled() { return false; }

#endif

}  // namespace croupier::sim::conflict
