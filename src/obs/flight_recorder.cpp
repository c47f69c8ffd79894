#include "obs/flight_recorder.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <limits>
#include <new>

namespace tc::obs {

const char* to_string(FrEventType t) {
  switch (t) {
    case FrEventType::FrameStart:
      return "frame_start";
    case FrEventType::FrameEnd:
      return "frame_end";
    case FrEventType::StageStart:
      return "stage_start";
    case FrEventType::StageEnd:
      return "stage_end";
    case FrEventType::PlanChoice:
      return "plan_choice";
    case FrEventType::QosTransition:
      return "qos_transition";
    case FrEventType::NodeTiming:
      return "node_timing";
    case FrEventType::ScenarioSwitch:
      return "scenario_switch";
    case FrEventType::DeadlineMiss:
      return "deadline_miss";
    case FrEventType::SloBreach:
      return "slo_breach";
    case FrEventType::DriftAlert:
      return "drift_alert";
    case FrEventType::CtxAdmit:
      return "ctx_admit";
    case FrEventType::CtxCommit:
      return "ctx_commit";
    case FrEventType::InstanceFanout:
      return "instance_fanout";
    case FrEventType::StreamAdmit:
      return "stream_admit";
    case FrEventType::StreamReject:
      return "stream_reject";
    case FrEventType::StreamRetire:
      return "stream_retire";
    case FrEventType::TaskSpan:
      return "task_span";
    case FrEventType::PoolJob:
      return "pool_job";
    case FrEventType::SimTask:
      return "sim_task";
    case FrEventType::Repartition:
      return "repartition";
    case FrEventType::LedgerCpu:
      return "ledger_cpu";
    case FrEventType::Custom:
      return "custom";
  }
  return "unknown";
}

std::optional<FrEventType> flight_event_type(std::string_view name) {
  for (u16 t = 0; t <= static_cast<u16>(FrEventType::Custom); ++t) {
    const auto type = static_cast<FrEventType>(t);
    if (name == to_string(type)) return type;
  }
  return std::nullopt;
}

namespace {

usize round_up_pow2(usize v) {
  usize p = 64;
  while (p < v) p <<= 1;
  return p;
}

/// Thread-local cache of the (recorder generation, ring) pair so only the
/// first record() of a thread takes the registration mutex.  Keyed on the
/// recorder's process-unique generation, not its address: an address can be
/// reused by a later recorder (destroy one, heap-allocate another) and a
/// pointer key would then serve a dangling ring (ABA / use-after-free).  A
/// thread touching several recorders (tests) re-registers on each switch,
/// which is still correct — just one extra mutex acquisition per switch.
struct TlsCache {
  u64 generation = 0;  // 0 = empty (generations start at 1)
  void* ring = nullptr;
};
thread_local TlsCache g_tls_ring;

std::atomic<u64> g_next_generation{1};

/// Bytes before a ring's first slot (the ThreadRing header).
constexpr usize kRingHeaderBytes = 64;

}  // namespace

FlightRecorder::FlightRecorder(usize capacity_per_thread)
    : capacity_(round_up_pow2(capacity_per_thread)),
      generation_(g_next_generation.fetch_add(1, std::memory_order_relaxed)) {}

FlightRecorder::~FlightRecorder() {
  common::MutexLock lock(mutex_);
  for (ThreadRing* ring = first_ring_; ring != nullptr;) {
    ThreadRing* next = ring->next;
    ring->~ThreadRing();
    ::munmap(ring, ring_bytes());
    ring = next;
  }
}

FlightRecorder::Slot* FlightRecorder::ThreadRing::slots() {
  static_assert(sizeof(ThreadRing) <= kRingHeaderBytes &&
                kRingHeaderBytes % alignof(Slot) == 0);
  return reinterpret_cast<Slot*>(reinterpret_cast<unsigned char*>(this) +
                                 kRingHeaderBytes);
}

usize FlightRecorder::ring_bytes() const {
  return kRingHeaderBytes + capacity_ * sizeof(Slot);
}

FlightRecorder::ThreadRing& FlightRecorder::local_ring() {
  if (g_tls_ring.generation == generation_) {
    return *static_cast<ThreadRing*>(g_tls_ring.ring);
  }
  common::MutexLock lock(mutex_);
  // Cache miss: the thread either never recorded here or recorded into a
  // different recorder since.  Rings are never destroyed while the recorder
  // lives, so finding this thread's earlier ring keeps its tid stable.
  const std::thread::id self = std::this_thread::get_id();
  for (ThreadRing* ring = first_ring_; ring != nullptr; ring = ring->next) {
    if (ring->owner == self) {
      g_tls_ring.generation = generation_;
      g_tls_ring.ring = ring;
      return *ring;
    }
  }
  // A fresh anonymous mapping reads as zeros: every slot starts empty, and
  // only the header's page is touched here.
  void* mem = ::mmap(nullptr, ring_bytes(), PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (mem == MAP_FAILED) throw std::bad_alloc();
  auto* ring = new (mem) ThreadRing;
  ring->tid = ring_count_++;
  ring->owner = self;
  (last_ring_ != nullptr ? last_ring_->next : first_ring_) = ring;
  last_ring_ = ring;
  g_tls_ring.generation = generation_;
  g_tls_ring.ring = ring;
  return *ring;
}

void FlightRecorder::record(FrEventType type, i32 frame, i32 node, f64 a,
                            f64 b) {
  ThreadRing& ring = local_ring();
  const u64 idx = ring.head.load(std::memory_order_relaxed);
  Slot& s = ring.slots()[idx & (capacity_ - 1)];
  // Invalidate, fill, publish: a snapshotter that reads the slot mid-write
  // sees a sequence number != its expected index + 1 and drops the slot.
  std::atomic_ref(s.seq).store(0, std::memory_order_release);
  std::atomic_ref(s.type).store(static_cast<u16>(type),
                                std::memory_order_relaxed);
  std::atomic_ref(s.frame).store(frame, std::memory_order_relaxed);
  std::atomic_ref(s.node).store(node, std::memory_order_relaxed);
  std::atomic_ref(s.ts_us).store(epoch_.elapsed_us(),
                                 std::memory_order_relaxed);
  std::atomic_ref(s.a).store(a, std::memory_order_relaxed);
  std::atomic_ref(s.b).store(b, std::memory_order_relaxed);
  std::atomic_ref(s.seq).store(idx + 1, std::memory_order_release);
  ring.head.store(idx + 1, std::memory_order_release);
}

std::vector<FlightEvent> FlightRecorder::snapshot() const {
  std::vector<FlightEvent> out;
  {
    common::MutexLock lock(mutex_);
    for (ThreadRing* ring = first_ring_; ring != nullptr; ring = ring->next) {
      const u64 head = ring->head.load(std::memory_order_acquire);
      const u64 start = head > capacity_ ? head - capacity_ : 0;
      for (u64 i = start; i < head; ++i) {
        Slot& s = ring->slots()[i & (capacity_ - 1)];
        if (std::atomic_ref(s.seq).load(std::memory_order_acquire) != i + 1) {
          continue;
        }
        FlightEvent e;
        e.type = static_cast<FrEventType>(
            std::atomic_ref(s.type).load(std::memory_order_relaxed));
        e.frame = std::atomic_ref(s.frame).load(std::memory_order_relaxed);
        e.node = std::atomic_ref(s.node).load(std::memory_order_relaxed);
        e.ts_us = std::atomic_ref(s.ts_us).load(std::memory_order_relaxed);
        e.a = std::atomic_ref(s.a).load(std::memory_order_relaxed);
        e.b = std::atomic_ref(s.b).load(std::memory_order_relaxed);
        e.tid = ring->tid;
        // Re-validate after the field reads: the writer invalidates seq
        // before touching fields, so an unchanged seq means no overwrite
        // raced this copy.
        std::atomic_thread_fence(std::memory_order_acquire);
        if (std::atomic_ref(s.seq).load(std::memory_order_relaxed) != i + 1) {
          continue;
        }
        out.push_back(e);
      }
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const FlightEvent& x, const FlightEvent& y) {
                     return x.ts_us < y.ts_us;
                   });
  return out;
}

usize FlightRecorder::size() const {
  common::MutexLock lock(mutex_);
  usize n = 0;
  for (ThreadRing* ring = first_ring_; ring != nullptr; ring = ring->next) {
    const u64 head = ring->head.load(std::memory_order_acquire);
    n += static_cast<usize>(head > capacity_ ? capacity_ : head);
  }
  return n;
}

u64 FlightRecorder::total_recorded() const {
  common::MutexLock lock(mutex_);
  u64 n = 0;
  for (ThreadRing* ring = first_ring_; ring != nullptr; ring = ring->next) {
    n += ring->head.load(std::memory_order_acquire);
  }
  return n;
}

usize FlightRecorder::thread_count() const {
  common::MutexLock lock(mutex_);
  return ring_count_;
}

void FlightRecorder::clear() {
  common::MutexLock lock(mutex_);
  for (ThreadRing* ring = first_ring_; ring != nullptr; ring = ring->next) {
    // Only the live window holds published slots; pages past it stay
    // untouched.
    const u64 head = ring->head.load(std::memory_order_relaxed);
    for (u64 i = head > capacity_ ? head - capacity_ : 0; i < head; ++i) {
      std::atomic_ref(ring->slots()[i & (capacity_ - 1)].seq)
          .store(0, std::memory_order_relaxed);
    }
    ring->head.store(0, std::memory_order_release);
  }
}

std::string flight_events_json(std::span<const FlightEvent> events) {
  std::string out = "[";
  for (usize i = 0; i < events.size(); ++i) {
    const FlightEvent& e = events[i];
    if (i != 0) out += ",";
    out += "\n    {\"ts_us\": " + common::json_number(e.ts_us) +
           ", \"type\": \"" + to_string(e.type) +
           "\", \"tid\": " + std::to_string(e.tid) +
           ", \"frame\": " + std::to_string(e.frame) +
           ", \"node\": " + std::to_string(e.node) +
           ", \"a\": " + common::json_number(e.a) +
           ", \"b\": " + common::json_number(e.b) + "}";
  }
  if (!events.empty()) out += "\n  ";
  out += "]";
  return out;
}

namespace {

/// An integer field of an outside document; missing, non-numeric or
/// out-of-range values read as `fallback`.
template <typename Int>
Int int_field(const common::JsonValue& v, std::string_view key, Int fallback) {
  const f64 x = v.number_or(key, static_cast<f64>(fallback));
  return x >= static_cast<f64>(std::numeric_limits<Int>::min()) &&
                 x <= static_cast<f64>(std::numeric_limits<Int>::max())
             ? static_cast<Int>(x)
             : fallback;
}

}  // namespace

std::vector<FlightEvent> flight_events_from_json(
    const common::JsonValue& array) {
  std::vector<FlightEvent> events;
  if (!array.is_array()) return events;
  events.reserve(array.size());
  for (usize i = 0; i < array.size(); ++i) {
    const common::JsonValue& v = array.at(i);
    const std::optional<FrEventType> type =
        flight_event_type(v.string_or("type", ""));
    if (!type.has_value()) continue;
    FlightEvent e;
    e.ts_us = v.number_or("ts_us", 0.0);
    e.type = *type;
    e.tid = int_field<u32>(v, "tid", 0);
    e.frame = int_field<i32>(v, "frame", -1);
    e.node = int_field<i32>(v, "node", -1);
    e.a = v.number_or("a", 0.0);
    e.b = v.number_or("b", 0.0);
    events.push_back(e);
  }
  return events;
}

}  // namespace tc::obs
