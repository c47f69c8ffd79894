// Flight recorder: per-thread lock-free ring buffers of compact structured
// events — the process's one event store.  Post-mortem bundles are cut from
// it, and every Chrome trace (obs/chrome_trace.hpp) is written from it.
//
// Hot-path contract:
//   * record() takes NO mutex and allocates nothing.  Each thread owns a
//     private ring buffer; a write is a handful of relaxed atomic stores plus
//     one release store publishing the slot.  Ring registration (first event
//     of a thread) is the only mutex-protected step and happens once per
//     thread.
//   * When obs::enabled() is false the instrumented call sites skip the
//     call entirely — one relaxed atomic load and a predictable branch.
//   * The ring wraps: a thread's oldest events are overwritten, memory use
//     is bounded at capacity_per_thread events per thread, forever.
//   * A ring is one anonymous mapping (header + slots), so registering it
//     calls no malloc, and its pages become resident only as events are
//     written into them: a thread that records a few events costs a few
//     pages, not the whole ring.
//
// snapshot() is the cold path: it copies every thread's live window and
// merges the events into one time-ordered stream (host-epoch microsecond
// timestamps from a shared ScopedTimer, so cross-thread ordering is
// meaningful).  A slot being overwritten *while* it is copied is detected
// via its sequence number and dropped — readers never block writers and
// never observe a torn event.  Every slot field is read and written
// atomically (std::atomic_ref), so the concurrent overwrite is
// data-race-free (TSan-clean) by construction.
#pragma once

#include <atomic>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/json.hpp"
#include "common/sync.hpp"
#include "common/types.hpp"
#include "obs/scoped_timer.hpp"

namespace tc::obs {

/// Event vocabulary of the recorder.  Kept deliberately small and numeric:
/// an event is (type, frame, node, a, b) — the meaning of `node`, `a` and
/// `b` per type is documented here and mirrored in DESIGN.md §5e.  `ts_us`
/// is always the host time the event was recorded; a span is one event
/// recorded when it closes (ts = end, a = its wall ms), and the simulated
/// timeline (exec::Executor on the simulated source) travels in the
/// payload.
enum class FrEventType : u16 {
  FrameStart = 0,   ///< frame begins; a = predicted ms, b = simulated
                    ///<   start ms (simulated source only)
  FrameEnd,         ///< frame done; a = measured ms, b = deadline/budget ms
                    ///<   (0 while unmanaged)
  StageStart,       ///< exec::FramePipeline half begins; node = 0 front,
                    ///<   1 back
  StageEnd,         ///< span: node = 0 front / 1 back; a = the half's wall ms
  PlanChoice,       ///< a = total stripes of the plan, b = estimated ms
  QosTransition,    ///< a = new quality level, b = previous level
  NodeTiming,       ///< node id; a = predicted serial ms, b = measured
  ScenarioSwitch,   ///< a = new scenario id, b = previous scenario id
  DeadlineMiss,     ///< a = measured ms, b = deadline ms
  SloBreach,        ///< node = slo index; a = value, b = threshold
  DriftAlert,       ///< node id (-1 = frame latency); a = window mean APE %,
                    ///<   b = threshold %
  CtxAdmit,         ///< frame context admitted; a = stream ticket
  CtxCommit,        ///< stream state committed; a = ticket, b = 0 front/1 back
  InstanceFanout,   ///< node id; a = instance count, b = total work units
  StreamAdmit,      ///< node = stream id; a = demand cores, b = residual cores
  StreamReject,     ///< node = stream id (-1 unassigned); a = demand,
                    ///<   b = 0 rejected / 1 queued
  StreamRetire,     ///< node = stream id; a = frames served, b = misses
  TaskSpan,         ///< span: flow-graph node id; a = host wall ms
  PoolJob,          ///< span: one thread-pool job; a = host wall ms
  SimTask,          ///< simulated task of the frame whose frame_end precedes
                    ///<   it on the ring; node id; a = simulated ms,
                    ///<   b = stripes (the tasks of a frame run back to back)
  Repartition,      ///< stripe plan changed; a = total stripes, b = previous
  LedgerCpu,        ///< counter sample: node id; a = predicted CPU ms,
                    ///<   b = actual CPU ms
  Custom,           ///< free-form marker from examples/tests
};

[[nodiscard]] const char* to_string(FrEventType t);
/// Inverse of to_string; nullopt for an unknown name.
[[nodiscard]] std::optional<FrEventType> flight_event_type(
    std::string_view name);

/// One decoded event (snapshot output; the in-ring representation is a slot
/// of atomics).
struct FlightEvent {
  f64 ts_us = 0.0;  ///< host microseconds on the recorder's shared epoch
  FrEventType type = FrEventType::Custom;
  u32 tid = 0;      ///< recorder-assigned thread id (registration order)
  i32 frame = -1;
  i32 node = -1;
  f64 a = 0.0;
  f64 b = 0.0;
};

class FlightRecorder {
 public:
  /// Events each thread's ring keeps (~384 KiB per recording thread): above
  /// a 160-frame managed run's ~6k single-thread events, so one ring holds
  /// a whole shipped example.
  static constexpr usize kDefaultCapacityPerThread = 8192;

  /// `capacity_per_thread` is rounded up to a power of two (cheap masking
  /// on the hot path); >= 64.
  explicit FlightRecorder(
      usize capacity_per_thread = kDefaultCapacityPerThread);
  ~FlightRecorder();

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Record one event on the calling thread's ring.  Lock-free after the
  /// thread's first call.  Timestamps come from the recorder's epoch.
  void record(FrEventType type, i32 frame = -1, i32 node = -1, f64 a = 0.0,
              f64 b = 0.0);

  /// Copy every thread's live window, merged and sorted by timestamp.
  /// Events overwritten mid-copy are skipped, never torn.
  [[nodiscard]] std::vector<FlightEvent> snapshot() const
      TC_EXCLUDES(mutex_);

  /// Events currently live (sum over threads, <= threads * capacity).
  [[nodiscard]] usize size() const TC_EXCLUDES(mutex_);
  /// Events recorded over the recorder's lifetime (including overwritten).
  [[nodiscard]] u64 total_recorded() const TC_EXCLUDES(mutex_);
  [[nodiscard]] usize capacity_per_thread() const { return capacity_; }
  /// Threads that have recorded at least one event.
  [[nodiscard]] usize thread_count() const TC_EXCLUDES(mutex_);

  /// Host microseconds on the recorder's epoch (the snapshot timebase).
  [[nodiscard]] f64 now_us() const { return epoch_.elapsed_us(); }

  /// Reset every ring to empty.  Not intended to race active writers (a
  /// concurrent record() may survive or vanish, but nothing tears); rings
  /// stay registered so cached thread-local pointers remain valid.
  void clear() TC_EXCLUDES(mutex_);

 private:
  /// One event.  All-zero bytes (an untouched page) are an empty slot;
  /// every field is accessed through std::atomic_ref.
  struct Slot {
    /// Event index + 1 once published; 0 while empty or being written.
    u64 seq = 0;
    u16 type = 0;
    i32 frame = 0;
    i32 node = 0;
    f64 ts_us = 0.0;
    f64 a = 0.0;
    f64 b = 0.0;
  };

  /// Header of one thread's mapping; capacity_ slots follow it.
  struct ThreadRing {
    u32 tid = 0;
    std::thread::id owner;
    /// Next event index of this ring; written only by the owning thread,
    /// read by snapshotters.
    std::atomic<u64> head{0};
    /// Next ring in registration order (linked under mutex_).
    ThreadRing* next = nullptr;

    [[nodiscard]] Slot* slots();
  };

  /// Find-or-register the calling thread's ring (mutex only on first call
  /// per thread; afterwards served from a thread_local cache).
  ThreadRing& local_ring() TC_EXCLUDES(mutex_);
  /// Bytes of one ring's mapping.
  [[nodiscard]] usize ring_bytes() const;

  usize capacity_;
  /// Process-unique id of this recorder instance.  The thread-local ring
  /// cache is keyed on it rather than on `this`: a new recorder allocated
  /// at a destroyed recorder's address must not revive stale cached ring
  /// pointers (ABA), so identities are never reused.
  u64 generation_;
  ScopedTimer epoch_;
  mutable common::Mutex mutex_;
  /// Registered rings, oldest first; none is unmapped while the recorder
  /// lives.
  ThreadRing* first_ring_ TC_GUARDED_BY(mutex_) = nullptr;
  ThreadRing* last_ring_ TC_GUARDED_BY(mutex_) = nullptr;
  u32 ring_count_ TC_GUARDED_BY(mutex_) = 0;
};

/// Serialize events as a JSON array (one compact object per event) — the
/// format the post-mortem bundle embeds and triplec_postmortem reads.
/// Numbers are written in their shortest exact form, so
/// flight_events_from_json recovers every event bit for bit.
[[nodiscard]] std::string flight_events_json(
    std::span<const FlightEvent> events);

/// Parse an array written by flight_events_json; objects whose type name
/// is unknown are skipped.
[[nodiscard]] std::vector<FlightEvent> flight_events_from_json(
    const common::JsonValue& array);

}  // namespace tc::obs
